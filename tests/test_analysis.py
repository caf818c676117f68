"""Closed forms: QBER law, threshold, mutual information, conservative bound.

Frozen expected values were computed independently at 30-digit precision
from the defining formulas.
"""

import errno
import hashlib
import math
import os
import threading
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riesim.analysis import (
    _write_rows,
    binary_entropy,
    e_obs,
    mutual_info_bob_sifted,
    mutual_info_curve,
    mutual_info_eve_sifted,
    r_bound,
    r_threshold,
    sift_probability,
    stealth_scan,
    write_mutual_info_csv,
    write_stealth_csv,
)
from riesim.detector import DeadTimeCurve, SaturationError, default_dead_time_curve

H2_011 = 0.499915958164528      # h2(0.11)
H2_025 = 0.8112781244591328     # h2(0.25)
R_TH_011 = 0.28205128205128205  # 2*0.11/(1 - 0.22)


# ---------------------------------------------------------------- entropy


def test_binary_entropy_half_is_one_bit():
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_endpoints_vanish():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_binary_entropy_at_abort_threshold():
    assert binary_entropy(0.11) == pytest.approx(H2_011, abs=1e-14)


def test_default_abort_threshold_is_the_shor_preskill_zero_to_four_digits():
    # BB84's asymptotic key fraction 1 - 2 h2(e) (Shor and Preskill, PRL 85,
    # 441 (2000)) vanishes at e = 0.110028; the default e_abort 0.11 is that
    # zero to four digits, just on its positive side
    def key_fraction(e):
        return 1.0 - 2.0 * binary_entropy(e)

    assert abs(key_fraction(0.110028)) < 1e-5
    assert key_fraction(0.11) > 0.0 > key_fraction(0.1101)


def test_binary_entropy_symmetry():
    for x in (0.05, 0.2, 0.37):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-14)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


# ---------------------------------------------------------------- QBER law


def test_e_obs_zero_ratio_no_errors():
    assert e_obs(0.0) == 0.0


def test_e_obs_plain_intercept_resend_quarter():
    assert e_obs(1.0) == 0.25


def test_e_obs_at_threshold_ratio():
    assert e_obs(0.282) == pytest.approx(0.10998439937597504, abs=1e-14)


def test_e_obs_strictly_increasing_below_half():
    grid = np.linspace(0, 50, 2000)
    values = [e_obs(r) for r in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < 0.5


def test_e_obs_rejects_negative_ratio():
    with pytest.raises(ValueError):
        e_obs(-0.1)


@pytest.mark.parametrize("function", [e_obs, mutual_info_eve_sifted],
                         ids=["e_obs", "mutual_info_eve_sifted"])
def test_ratio_functions_reject_nan(function):
    with pytest.raises(ValueError, match="^ratio must be >= 0, got nan$"):
        function(float("nan"))
    with pytest.raises(ValueError, match="^ratio must be >= 0, got -0.1$"):
        function(-0.1)
    assert function(0.0) == (0.0 if function is e_obs else 1.0)


# ---------------------------------------------------------------- threshold


def test_threshold_at_bbm92_abort_qber():
    assert r_threshold(0.11) == pytest.approx(R_TH_011, abs=1e-3)
    assert r_threshold(0.11) == pytest.approx(0.282, abs=1e-3)


def test_threshold_is_inverse_of_e_obs():
    for e in np.linspace(0.005, 0.495, 99):
        assert e_obs(r_threshold(e)) == pytest.approx(e, rel=1e-12)


def test_threshold_of_quarter_is_one():
    assert r_threshold(0.25) == pytest.approx(1.0, abs=1e-9)


def test_threshold_vanishes_with_abort_qber():
    assert r_threshold(1e-6) == pytest.approx(2e-6, rel=1e-3)


def test_threshold_inverts_e_obs():
    for r in np.linspace(0.01, 3.0, 40):
        assert r_threshold(e_obs(r)) == pytest.approx(r, abs=1e-6)


def test_threshold_domain():
    for bad in (0.0, 0.5, -0.1, 0.7):
        with pytest.raises(ValueError):
            r_threshold(bad)


# ---------------------------------------------------------------- sift probability


def test_sift_probability_values():
    assert sift_probability(1.0, 1.0) == 0.5
    assert sift_probability(1.0, 0.0) == 0.25
    assert sift_probability(0.8, 0.2) == pytest.approx(0.25, abs=1e-14)


def test_sift_probability_domain():
    with pytest.raises(ValueError):
        sift_probability(1.2, 0.5)
    with pytest.raises(ValueError):
        sift_probability(0.5, -0.1)


# ---------------------------------------------------------------- mutual information


def test_eve_sifted_information():
    assert mutual_info_eve_sifted(0.0) == 1.0
    assert mutual_info_eve_sifted(1.0) == 0.5
    assert mutual_info_eve_sifted(0.282) == pytest.approx(0.7800312012480499, abs=1e-14)


def test_bob_sifted_information():
    assert mutual_info_bob_sifted(0.0) == 1.0
    assert mutual_info_bob_sifted(1.0) == pytest.approx(1 - H2_025, abs=1e-14)
    assert mutual_info_bob_sifted(1.0) == pytest.approx(0.18872187554086718, abs=1e-12)
    assert mutual_info_bob_sifted(0.282) == pytest.approx(0.5001310998193367, abs=1e-12)


def test_eve_dominates_bob_on_sifted_bits():
    # equality only in the perfect-suppression limit r = 0
    for r in np.arange(0.0, 1.0 + 1e-9, 0.01):
        i_ae = mutual_info_eve_sifted(r)
        i_ab = mutual_info_bob_sifted(r)
        if r == 0.0:
            assert abs(i_ae - i_ab) < 1e-12
        else:
            assert i_ae > i_ab


# ---------------------------------------------------------------- conservative bound


def test_bound_symmetric_loading_is_unity():
    curve = default_dead_time_curve()
    for rate in (1e6, 5e6, 20e6):
        assert r_bound(rate, rate, curve) == 1.0


def test_bound_on_default_curve_crossing_region():
    curve = default_dead_time_curve()
    value = r_bound(1e6, 23e6, curve)
    assert value == pytest.approx(0.2867820210914305, rel=1e-12)
    assert value < 0.3


def test_bound_unloaded_orthogonal_path_slightly_above_one():
    curve = default_dead_time_curve()
    value = r_bound(1e6, 0.0, curve)
    assert 1.0 < value < 1.05


def test_bound_monotone_non_increasing_in_orthogonal_loading():
    curve = default_dead_time_curve()
    grid = np.linspace(0, 31e6, 200)
    for lam_par in (1e6, 2e6, 5e6, 10e6):
        values = [r_bound(lam_par, lam, curve) for lam in grid]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_bound_saturation_raises():
    curve = default_dead_time_curve()
    with pytest.raises(SaturationError):
        r_bound(1e6, 40e6, curve)
    with pytest.raises(SaturationError):
        r_bound(40e6, 1e6, curve)


# ---------------------------------------------------------------- stealth scan


def test_scan_stealthy_only_at_high_orthogonal_loading():
    curve = default_dead_time_curve()
    perp_grid = [0.5e6 * i for i in range(1, 63)]  # 0.5 .. 31 Mcps
    rows = stealth_scan([1e6, 2e6, 5e6, 10e6], perp_grid, curve)
    stealthy = [row for row in rows if row.stealthy]
    assert stealthy
    assert min(row.lambda_perp_cps for row in stealthy) > 20e6


def test_scan_negligible_dead_time_never_stealthy():
    curve = DeadTimeCurve.constant(1e-15)
    rows = stealth_scan([1e6], [1e6, 10e6, 30e6], curve)
    for row in rows:
        assert row.r_bound == pytest.approx(1.0, abs=1e-6)
        assert not row.stealthy


def test_scan_symmetric_cell_not_stealthy():
    scan = stealth_scan([5e6], [5e6], default_dead_time_curve())
    assert len(scan) == 1
    assert scan.r_bound[0, 0] == 1.0
    assert not scan.stealthy[0, 0]


def test_scan_flags_saturated_rows_instead_of_dropping():
    curve = default_dead_time_curve()
    scan = stealth_scan([1e6], [30e6, 40e6], curve)
    assert len(scan) == 2
    assert scan.valid[0, 0]
    assert not scan.valid[0, 1]
    assert math.isnan(scan.r_bound[0, 1])
    assert not scan.stealthy[0, 1]


def test_scan_rejects_empty_grids():
    with pytest.raises(ValueError):
        stealth_scan([], [1e6], default_dead_time_curve())
    with pytest.raises(ValueError):
        stealth_scan([1e6], [], default_dead_time_curve())


def test_scan_rejects_negative_rates():
    for par, perp in (([-1.0], [1e6]), ([1e6], [0.0, -1e6])):
        with pytest.raises(ValueError, match="count rate must be >= 0"):
            stealth_scan(par, perp, default_dead_time_curve())


# Saturation of the linear model: 31.75 Mcps on the default curve, about
# 26.5 Mcps on the short table, and on the flat 2**-25 s (29.8 ns) curve at
# 2**25 cps, where the busy fraction is exactly 1.
SCAN_CURVES = {
    "default": default_dead_time_curve(),
    "flat": DeadTimeCurve.constant(2.0**-25),
    "table": DeadTimeCurve.from_points([(1e6, 20e-9), (30e6, 40e-9)]),
}
scan_rates = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1e6, 23e6, 26.5e6, 31.7e6, 32e6, 2.0**25, 40e6, 1e9]),
        st.floats(0.0, 6e7),
    ),
    min_size=1, max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(par=scan_rates, perp=scan_rates, curve_name=st.sampled_from(sorted(SCAN_CURVES)),
       e_abort=st.one_of(st.just(0.25), st.floats(0.01, 0.49)))
def test_scan_grid_equals_scalar_bound_cell_by_cell(par, perp, curve_name, e_abort):
    curve = SCAN_CURVES[curve_name]
    scan = stealth_scan(par, perp, curve, e_abort)
    threshold = r_threshold(e_abort)
    assert scan.r_bound.shape == scan.stealthy.shape == scan.valid.shape == (len(par), len(perp))
    for (i, lam_par), (j, lam_perp) in product(enumerate(par), enumerate(perp)):
        try:
            expected = r_bound(lam_par, lam_perp, curve)
        except SaturationError:
            assert not scan.valid[i, j]
            assert math.isnan(scan.r_bound[i, j])
            assert not scan.stealthy[i, j]
        else:
            assert scan.valid[i, j]
            assert scan.r_bound[i, j] == expected  # bit-equal, not approx
            # e_abort 0.25 puts the threshold at exactly 1, the bound of equal rates
            assert scan.stealthy[i, j] == (expected < threshold)


# A grid with saturated cells on both axes (33 and 40 Mcps exceed 31.75 Mcps)
PINNED_PAR = [0.0, 1e6, 5e6, 20e6, 33e6, 40e6]
PINNED_PERP = [0.5e6 * i for i in range(81)]


def test_scan_sequence_is_row_major_over_the_arrays():
    scan = stealth_scan(PINNED_PAR, PINNED_PERP, default_dead_time_curve(), 0.05)
    assert len(scan) == len(PINNED_PAR) * len(PINNED_PERP) == 486
    assert int((~scan.valid).sum()) == 230 and int(scan.stealthy.sum()) == 23
    assert scan.e_abort == 0.05
    rows = list(scan)
    assert len(rows) == len(scan)
    for k, row in enumerate(rows):
        i, j = divmod(k, len(PINNED_PERP))
        assert (row.lambda_par_cps, row.lambda_perp_cps) == (PINNED_PAR[i], PINNED_PERP[j])
        assert repr(row.r_bound) == repr(float(scan.r_bound[i, j]))
        assert (row.stealthy, row.valid) == (scan.stealthy[i, j], scan.valid[i, j])


def test_scan_csv_bytes_are_pinned(tmp_path):
    # recorded from the one-cell-at-a-time scan and csv.writer rows
    scan = stealth_scan(PINNED_PAR, PINNED_PERP, default_dead_time_curve(), 0.05)
    write_stealth_csv(scan, tmp_path / "scan.csv")
    assert hashlib.sha256((tmp_path / "scan.csv").read_bytes()).hexdigest() == (
        "f123756d09484e67e96a0a605d157eacc042857b48da2814998201dc5b0aec78")
    triples = mutual_info_curve([round(k * 1e-3, 12) for k in range(1001)])
    write_mutual_info_csv(triples, tmp_path / "mi.csv", 0.05)
    assert hashlib.sha256((tmp_path / "mi.csv").read_bytes()).hexdigest() == (
        "3bce25aecb9731decda72c0c78c4c767a0f7d45dc9dc4b54d225e031e6d95363")


# The scan CSV is written by one process, or by two when the process may run
# on two CPUs: the later half of the rows is formatted in a forked child.
PINNED_SCAN_SHA256 = "f123756d09484e67e96a0a605d157eacc042857b48da2814998201dc5b0aec78"


def _allow_cpus(monkeypatch, n_cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)), raising=False)


def _count_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("par", [PINNED_PAR, [1e6], [1e6, 20e6, 40e6]],
                         ids=["pinned 6 rows", "1 row", "3 rows"])
def test_scan_csv_serial_and_forked_writes_are_identical(tmp_path, monkeypatch, par):
    scan = stealth_scan(par, PINNED_PERP, default_dead_time_curve(), 0.05)
    forks = _count_forks(monkeypatch)
    written = {}
    for n_cpus in (1, 2):
        _allow_cpus(monkeypatch, n_cpus)
        path = tmp_path / f"cpus{n_cpus}.csv"
        write_stealth_csv(scan, path)
        _assert_no_child_left()
        written[n_cpus] = path.read_bytes()
    # one CPU never forks, and one row is never split
    assert len(forks) == (len(par) >= 2)
    assert written[1] == written[2]
    assert written[1].count(b"\r\n") == 1 + len(par) * len(PINNED_PERP)
    if par is PINNED_PAR:
        assert hashlib.sha256(written[2]).hexdigest() == PINNED_SCAN_SHA256


def test_scan_csv_written_serially_when_fork_fails(tmp_path, monkeypatch):
    _allow_cpus(monkeypatch, 2)

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", no_fork)
    scan = stealth_scan(PINNED_PAR, PINNED_PERP, default_dead_time_curve(), 0.05)
    write_stealth_csv(scan, tmp_path / "scan.csv")
    assert hashlib.sha256((tmp_path / "scan.csv").read_bytes()).hexdigest() == PINNED_SCAN_SHA256


@pytest.mark.parametrize("failing, error", [("child", RuntimeError), ("parent", ZeroDivisionError)])
def test_failed_row_writer_leaves_no_child(tmp_path, monkeypatch, failing, error):
    _allow_cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    parent = os.getpid()

    def row_bytes(i):
        if (os.getpid() != parent) == (failing == "child"):
            raise ZeroDivisionError(f"row {i}")
        return b"%d\r\n" % i
    with (tmp_path / "rows.csv").open("wb") as fh, pytest.raises(error):
        _write_rows(fh, row_bytes, 3)
    assert len(forks) == 1
    _assert_no_child_left()


def test_a_row_failing_here_ends_a_child_holding_more_than_a_pipe(tmp_path, monkeypatch):
    # the child's 256 KB of rows fill the 64 KB pipe, so it exits only once
    # this process has closed the pipe: it must do so before it waits
    _allow_cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    parent, raised = os.getpid(), []

    def row_bytes(i):
        if os.getpid() == parent:
            raise ZeroDivisionError(f"row {i}")
        return b"%0255d\n" % i

    def write():
        with (tmp_path / "rows.csv").open("wb") as fh, pytest.raises(ZeroDivisionError):
            _write_rows(fh, row_bytes, 2048)
        raised.append(True)

    runner = threading.Thread(target=write, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert raised and len(forks) == 1
    _assert_no_child_left()


# ---------------------------------------------------------------- CSV outputs


def test_stealth_csv_schema(tmp_path):
    rows = stealth_scan([1e6], [1e6, 25e6], default_dead_time_curve())
    path = tmp_path / "scan.csv"
    write_stealth_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# r_threshold=0.28205128205128")
    assert lines[1] == "lambda_par_cps,lambda_perp_cps,r_bound,stealthy"
    assert len(lines) == 4


def test_mutual_info_csv_schema_and_invariants(tmp_path):
    grid = np.round(np.arange(0.0, 1.001, 0.01), 10)
    triples = mutual_info_curve(grid)
    path = tmp_path / "mi.csv"
    write_mutual_info_csv(triples, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# r_threshold=")
    assert lines[1] == "r,i_ab,i_ae"
    data = [line.split(",") for line in lines[2:]]
    assert len(data) == 101
    for r_text, i_ab_text, i_ae_text in data:
        r, i_ab, i_ae = float(r_text), float(i_ab_text), float(i_ae_text)
        assert i_ae >= i_ab - 1e-12
        assert i_ae == pytest.approx(mutual_info_eve_sifted(r), abs=1e-12)
