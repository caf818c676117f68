"""Closed-form results: QBER law, stealth threshold, mutual information, bounds.

All information quantities are in bits.  The sifted channel under the attack
is an erasure-and-error channel: with probability eps Bob records nothing,
otherwise he gets a bit through a binary symmetric channel with crossover e.
The suppression ratio r = p_perp / p_parallel controls everything observable:

    observed QBER        e_obs(r) = r / (2 (1 + r))
    Bob's information    I(A;B)   = 1 - h2(e_obs(r))     per sifted bit
    Eve's information    I(A;E)   = 1 / (1 + r)          per sifted bit

so an eavesdropper who drives r below the threshold paired with the abort
QBER (0.282 for the 11% threshold) stays invisible while knowing more of the
key than Bob does.
"""

from __future__ import annotations

import os
import shutil
import warnings
from dataclasses import dataclass
from math import log2
from pathlib import Path

import numpy as np

from ._cpus import two_cpus
from .detector import DeadTimeCurve, SaturationError, busy_fraction

__all__ = [
    "StealthScan",
    "StealthScanRow",
    "binary_entropy",
    "e_obs",
    "r_threshold",
    "sift_probability",
    "mutual_info_eve_sifted",
    "mutual_info_bob_sifted",
    "r_bound",
    "stealth_scan",
    "write_stealth_csv",
    "mutual_info_curve",
    "write_mutual_info_csv",
]


def binary_entropy(x: float) -> float:
    """h2(x) = -x log2 x - (1-x) log2 (1-x), with h2(0) = h2(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy needs x in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * log2(x) - (1.0 - x) * log2(1.0 - x)


def e_obs(r: float) -> float:
    """Observed sifted-key QBER as a function of the suppression ratio:
    r / (2 (1 + r)), increasing from 0 toward 1/2."""
    if not r >= 0:
        raise ValueError(f"ratio must be >= 0, got {r}")
    return r / (2.0 * (1.0 + r))


def r_threshold(e_abort: float) -> float:
    """Suppression ratio at which the observed QBER reaches the abort value:
    e_obs inverted in closed form, r = 2 e / (1 - 2 e)."""
    if not 0.0 < e_abort < 0.5:
        raise ValueError(f"abort QBER must be in (0, 0.5), got {e_abort}")
    return 2.0 * e_abort / (1.0 - 2.0 * e_abort)


def sift_probability(p_par: float, p_perp: float) -> float:
    """(p_parallel + p_perp) / 4: both bases uniform, basis-match times click."""
    for name, value in (("p_par", p_par), ("p_perp", p_perp)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    return (p_par + p_perp) / 4.0


def mutual_info_eve_sifted(r: float) -> float:
    """Eve's information per sifted detected bit: 1 / (1 + r).

    A sifted click came from a basis-matched interception (Eve knows the
    bit) with probability p_par / (p_par + p_perp), else her record is
    uncorrelated.
    """
    if not r >= 0:
        raise ValueError(f"ratio must be >= 0, got {r}")
    return 1.0 / (1.0 + r)


def mutual_info_bob_sifted(r: float) -> float:
    """Bob's information per sifted bit: 1 - h2(e_obs(r))."""
    return 1.0 - binary_entropy(e_obs(r))


def _bound(busy_par, busy_perp):
    """(1 - busy_perp) / (1 - busy_par) from the two busy fractions; the one
    definition behind r_bound and stealth_scan, for floats or arrays."""
    return (1.0 - busy_perp) / (1.0 - busy_par)


def r_bound(lambda_par_cps: float, lambda_perp_cps: float, curve: DeadTimeCurve) -> float:
    """Conservative suppression-ratio bound from the linear availability model:

        (1 - lambda_perp * t_d(lambda_perp)) / (1 - lambda_par * t_d(lambda_par))

    Oriented so that heavier orthogonal-path loading drives the bound down,
    consistent with r = p_perp / p_parallel.  It charges lambda_par to the
    signal detector, which adversary.branch_click_probabilities does not, so
    without background it is at least the linear model's r.  Both rates must
    sit below saturation of the linear model.
    """
    busy_perp = busy_fraction(lambda_perp_cps, curve)
    busy_par = busy_fraction(lambda_par_cps, curve)
    for name, busy in (("lambda_perp", busy_perp), ("lambda_par", busy_par)):
        if busy >= 1.0:
            raise SaturationError(
                f"{name} saturates the linear availability model (busy fraction {busy:.4f})"
            )
    return _bound(busy_par, busy_perp)


@dataclass(frozen=True)
class StealthScanRow:
    """One cell of the loading-rate scan; valid is False where the linear
    model saturates (r_bound is then meaningless and stealthy is False)."""

    lambda_par_cps: float
    lambda_perp_cps: float
    r_bound: float
    stealthy: bool
    valid: bool = True


@dataclass(frozen=True, eq=False)
class StealthScan:
    """The scan over a Cartesian loading-rate grid, held as arrays.

    r_bound, stealthy and valid have shape (n_par, n_perp); stealthy was
    judged against e_abort.  Iterating yields one StealthScanRow per cell in
    row-major order (lambda_par outer), building each row as it goes.
    """

    lambda_par_cps: np.ndarray
    lambda_perp_cps: np.ndarray
    r_bound: np.ndarray
    stealthy: np.ndarray
    valid: np.ndarray
    e_abort: float

    def __len__(self) -> int:
        return self.r_bound.size

    def __iter__(self):
        perp = self.lambda_perp_cps.tolist()
        for i, lam_par in enumerate(self.lambda_par_cps.tolist()):
            cells = zip(perp, self.r_bound[i].tolist(), self.stealthy[i].tolist(),
                        self.valid[i].tolist())
            for lam_perp, bound, stealthy, valid in cells:
                yield StealthScanRow(lam_par, lam_perp, bound, stealthy, valid)


def stealth_scan(
    lambda_par_list,
    lambda_perp_grid,
    curve: DeadTimeCurve,
    e_abort: float = 0.11,
) -> StealthScan:
    """Evaluate the conservative bound over a Cartesian loading-rate grid.

    A cell is stealthy when its bound sits below the threshold ratio for the
    given abort QBER; cells outside the linear model's validity are flagged
    (valid False, r_bound NaN), not dropped.  The dead-time curve is
    interpolated once per axis and the grid is broadcast from the two axes,
    so every valid cell equals r_bound of its two rates bit for bit.
    """
    par = np.asarray(list(lambda_par_list), dtype=float)
    perp = np.asarray(list(lambda_perp_grid), dtype=float)
    if par.size == 0 or perp.size == 0:
        raise ValueError("scan grids must not be empty")
    threshold = r_threshold(e_abort)
    busy_par = busy_fraction(par, curve)
    busy_perp = busy_fraction(perp, curve)
    valid = ~((busy_par >= 1.0)[:, None] | (busy_perp >= 1.0)[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = _bound(busy_par[:, None], busy_perp[None, :])
    bound[~valid] = np.nan
    return StealthScan(par, perp, bound, bound < threshold, valid, e_abort)


def _threshold_line(e_abort: float) -> str:
    return f"# r_threshold={r_threshold(e_abort)!r} e_abort={e_abort!r}\n"


def write_stealth_csv(scan: StealthScan, path) -> None:
    """Scan CSV with schema lambda_par_cps,lambda_perp_cps,r_bound,stealthy,
    after a comment line recording the scan's abort QBER and threshold.

    Rows end in CRLF like the csv module's default dialect; the threshold
    comment line ends in LF.  Each lambda_par block is formatted as one
    string, and the blocks are written by _write_rows, which may format the
    later half of them in a forked child.
    """
    perp_text = [repr(lam) for lam in scan.lambda_perp_cps.tolist()]
    par = scan.lambda_par_cps.tolist()

    def block(i: int) -> bytes:
        prefix = f"{par[i]!r},"
        return "".join(
            f"{prefix}{lam_perp},{bound!r},{'true' if flag else 'false'}\r\n"
            for lam_perp, bound, flag in zip(perp_text, scan.r_bound[i].tolist(),
                                              scan.stealthy[i].tolist())
        ).encode("ascii")

    with Path(path).open("wb") as fh:
        fh.write(_threshold_line(scan.e_abort).encode("ascii"))
        fh.write(b"lambda_par_cps,lambda_perp_cps,r_bound,stealthy\r\n")
        _write_rows(fh, block, len(par))


# Python 3.12+ warns on fork() in a process with more than one OS thread, and
# numpy's OpenBLAS pool always adds one.  The child only formats strings,
# writes a pipe and calls os._exit, so it takes no lock and makes no BLAS call
# that another thread might hold.
_FORK_WARNING = (r"This process \(pid=\d+\) is multi-threaded, "
                 r"use of fork\(\) may lead to deadlocks in the child")


def _write_rows(fh, row_bytes, n_rows: int) -> None:
    """Write row_bytes(i) for each i in range(n_rows) to the binary file fh,
    in order.

    When the process may run on at least two CPUs and there are at least two
    rows, one forked child formats rows [n_rows // 2, n_rows) while this
    process formats and writes the rows before them, one at a time; the
    child's rows then arrive through a pipe and are copied into fh after
    them.  On one CPU, where sched_getaffinity is missing, or when fork
    fails, every row is written here.  The bytes are the same either way.
    row_bytes must not call BLAS, whose threads do not survive fork.

    The child touches only the pipe and always leaves through os._exit, so
    it never flushes a buffer it inherited nor runs exit hooks.  It formats
    all its rows before writing any: a pipe holds only 64 KB and this
    process reads it only after writing its own rows, so an earlier write
    would stall the child.  This process closes the pipe before it waits
    for the child, so a child still writing when a row fails here exits.
    """
    split, pid = n_rows // 2, None
    if split and two_cpus():
        read_fd, write_fd = os.pipe()
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
                pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
    if pid is None:
        for i in range(n_rows):
            fh.write(row_bytes(i))
        return
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            data = b"".join(row_bytes(i) for i in range(split, n_rows))
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            for i in range(split):
                fh.write(row_bytes(i))
            shutil.copyfileobj(pipe, fh)
    finally:
        status = os.waitpid(pid, 0)[1]
    if status:
        raise RuntimeError(
            f"formatting CSV rows {split}..{n_rows - 1} failed in a child process "
            f"(exit code {os.waitstatus_to_exitcode(status)})")


def mutual_info_curve(r_values) -> list[tuple[float, float, float]]:
    """(r, I(A;B), I(A;E)) triples for a grid of suppression ratios."""
    return [
        (float(r), mutual_info_bob_sifted(float(r)), mutual_info_eve_sifted(float(r)))
        for r in r_values
    ]


def write_mutual_info_csv(triples, path, e_abort: float = 0.11) -> None:
    """Information-curve CSV with schema r,i_ab,i_ae and the stealth
    threshold recorded as comment metadata (CRLF rows, as in
    write_stealth_csv)."""
    with Path(path).open("w", newline="") as fh:
        fh.write(_threshold_line(e_abort))
        fh.write("r,i_ab,i_ae\r\n")
        fh.write("".join(f"{r!r},{i_ab!r},{i_ae!r}\r\n" for r, i_ab, i_ae in triples))
