"""Outside-in benchmark of the riesim CLI.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One closed-loop client in this process calls ``riesim.cli.main(argv)`` op
after op for ``--seconds`` seconds; each op starts when the previous one has
finished and its outputs have been checked.  Inputs are written from
``--seed`` by separate set-up processes, which are also what ``setup_s``
times.  Between ops the run times a fixed reference kernel of the same kind
of work that runs no riesim code, and the gated time metrics are op times in
units of it (see ``reference_s``).  With ``--trace 0`` the last stdout line is a JSON object
with the end-to-end metrics; with ``--trace 1`` the first half of the run is
untraced, the second half runs the same op seeds with every public function
of the package wrapped (see tracer.py), and the JSON carries the per-layer
metrics.  Everything the run writes goes under ``.perfbench_work/`` in the
checkout, including a results file with the machine record.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
# Fresh set-up processes per untraced run; extract's writes a 15 MB file.
SETUP_REPEATS = {"sweep": 5, "extract": 3, "attack": 5, "scan": 5}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
NOT_REPRODUCED = "re-running op 0 did not reproduce its output files byte for byte"
REFERENCE_SHARE = 0.1  # reference burst after an op, as a share of the op's wall time
REFERENCE_MIN_REPEATS = 3


@dataclass
class Op:
    index: int
    seed: int
    wall_s: float
    cpu_s: float
    output_bytes: int
    problems: list[str] = field(default_factory=list)
    ref_s: float = math.nan  # reference kernel time around this op


def machine_record() -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


# Reference kernels: fixed work of the same kind as each workload's hot path,
# written here from scratch.  They call no riesim code, so no change to the
# program can change their time; their inputs are fixed at import.
_REF_RATES = np.linspace(0.0, 60e6, 9)
_REF_TIMES = np.linspace(23.3e-9, 31.5e-9, 9)
_REF_TEXT = "".join(f"{int(t)}\n" for t in np.cumsum(
    np.random.default_rng(0).exponential(5e4, 30_000)))


def _sweep_kernel() -> int:
    """A Poisson stream thinned by a Python-loop index chase."""
    times = np.cumsum(np.random.default_rng(1).exponential(50.0, 40_000))
    next_idx = np.searchsorted(times, times + 120.0)
    kept = np.empty(times.size, dtype=np.int64)
    i = k = 0
    while i < times.size:
        kept[k] = i
        k += 1
        i = next_idx[i]
    return times[kept[:k]].size


def _extract_kernel() -> int:
    """Integer lines parsed one by one into a list, then an array."""
    ticks = []
    for line in io.StringIO(_REF_TEXT):
        text = line.strip()
        if text:
            ticks.append(int(text))
    times = np.asarray(ticks, dtype=float) * 1e-12
    return int(np.count_nonzero(np.diff(times) > 0))


def _attack_kernel() -> int:
    """One vectorised chunk of random draws, comparisons and bincounts."""
    u = np.random.default_rng(2).random((1 << 16, 7))
    a = (u[:, 0] >= 0.5).astype(np.int8)
    b = (u[:, 4] >= 0.5).astype(np.int8)
    hit = u[:, 6] < np.where(a == b, 0.3, 0.1)
    code = a.astype(np.int64) * 4 + (u[:, 1] < 0.5) * 2 + b
    return int(np.bincount(code, minlength=8).sum() + np.bincount(code[hit], minlength=8).sum())


def _scan_kernel() -> int:
    """Scalar numpy calls per grid cell, then one CSV row per cell."""
    rows = []
    for j in range(1_500):
        lam = 0.5e6 + 2e4 * j
        busy = lam * float(np.interp(lam, _REF_RATES, _REF_TIMES))
        rows.append((lam, busy, busy < 0.28))
    out = io.StringIO()
    writer = csv.writer(out)
    for lam, busy, flag in rows:
        writer.writerow([repr(lam), repr(busy), str(flag).lower()])
    return len(out.getvalue())


REFERENCE_KERNELS = {
    "sweep": _sweep_kernel,
    "extract": _extract_kernel,
    "attack": _attack_kernel,
    "scan": _scan_kernel,
}


def reference_s(workload: str, min_seconds: float = 0.0) -> float:
    """Mean time of one run of the workload's reference kernel, over a burst
    of at least ``REFERENCE_MIN_REPEATS`` runs lasting at least ``min_seconds``.

    On a shared 2-vCPU host, speed drifts by up to 1.6x over seconds to
    minutes for the same pure-Python loop (wall and CPU time alike), which
    is wider than any bound a raw op time could hold across runs, and
    different kinds of work drift by different amounts.  Dividing each op's time by the time of a
    kernel of the same kind, measured just before and after it, cancels that
    drift; the raw times are still printed and kept in the results file."""
    kernel = REFERENCE_KERNELS[workload]
    repeats = 0
    t0 = perf_counter()
    while True:
        kernel()
        repeats += 1
        elapsed = perf_counter() - t0
        if repeats >= REFERENCE_MIN_REPEATS and elapsed >= min_seconds:
            return elapsed / repeats


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, ops beyond it): the highest listed percentile with
    at least ten ops beyond it, or p75 when the run has too few ops for any."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            break
    else:
        p, rank = 75.0, math.ceil(0.75 * n)
    return p, ordered[rank - 1], n - rank


def run_setups(workload: str, seed: int, size: str, directory: Path, repeats: int) -> list[float]:
    """Fresh-interpreter set-ups, each timed from spawn to exit."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_child.py")),
             str(ROOT), workload, str(seed), size, str(directory)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=150,
        )
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed (exit {proc.returncode}):\n{proc.stderr}")
    return times


def digest(outdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.iterdir())}


class Runner:
    """Runs ops of one workload against ``riesim.cli.main`` in this process."""

    def __init__(self, cli, workload: str, size: workloads.Size, seed: int, directory: Path):
        self.cli = cli
        self.workload = workload
        self.size = size
        self.seed = seed
        self.directory = directory
        self.context = workloads.prepare_context(workload, directory, size)
        self.tracer: tracing.Tracer | None = None
        self.corrupt = None  # self-test hook: corrupt(outdir) once, after op 0
        self.reference: dict[str, str] = {}  # op 0's output digests
        self.gap_sigma = 0.0

    def op(self, index: int, outdir: Path, workers: int | None = None,
           commands: slice = slice(None), check: bool = True) -> Op:
        if outdir.exists():
            shutil.rmtree(outdir)
        seed = workloads.op_seed(self.seed, index)
        argvs = workloads.argvs(self.workload, self.directory, seed, outdir)[commands]
        if workers is not None:
            argvs = [["--workers", str(workers)] + argv for argv in argvs]
        stdout, stderr = io.StringIO(), io.StringIO()
        problems = []
        gc.collect()  # every op starts from a collected heap
        if self.tracer is not None:
            self.tracer.begin_unit()
        cpu0 = cpu_seconds()
        t0 = perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                for argv in argvs:
                    with self.tracer.span("cli.main") if self.tracer else nullcontext():
                        code = self.cli.main(argv)
                    if code != 0:
                        problems.append(f"exit {code} from {argv[-1]}: {stderr.getvalue().strip()}")
                        break
        except Exception:  # an op that raises is a failed op, not a dead benchmark
            problems.append(traceback.format_exc())
        wall = perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        written = sum(p.stat().st_size for p in outdir.iterdir()) if outdir.is_dir() else 0
        output_bytes = written + len(stdout.getvalue().encode())
        if self.tracer is not None:
            self.tracer.count("cli.output_bytes", output_bytes)
        if self.corrupt is not None and not problems:
            self.corrupt(outdir)
            self.corrupt = None
        if check and not problems:
            problems += workloads.check(self.workload, outdir, self.size, self.context)
        return Op(index, seed, wall, cpu, output_bytes, problems)

    def loop(self, seconds: float, outdir: Path) -> list[Op]:
        """Closed loop: op after op until ``seconds`` have passed (at least one),
        with the reference kernel timed before the first op and after each."""
        ops = []
        reference_s(self.workload)  # warm-up: the first burst runs cold
        before = reference_s(self.workload)
        deadline = perf_counter() + seconds
        while not ops or perf_counter() < deadline:
            ops.append(self.op(len(ops), outdir))
            after = reference_s(self.workload, REFERENCE_SHARE * ops[-1].wall_s)
            ops[-1].ref_s = (before + after) / 2.0
            before = after
            if len(ops) == 1 and not self.reference and outdir.is_dir():
                self.reference = digest(outdir)
                if self.workload == "attack" and not ops[0].problems:
                    self.gap_sigma = workloads.analytic_gap_sigma(outdir)
        return ops

    def determinism(self, first: Op, outdir: Path) -> None:
        """Re-run op 0's seed; its output files must be byte-identical."""
        again = self.op(0, outdir, check=False)
        if again.problems or digest(outdir) != self.reference:
            first.problems.append(NOT_REPRODUCED)


def end_to_end(ops: list[Op], items: int, setups: list[float]) -> tuple[dict, dict, dict]:
    """(gated metrics, raw time metrics, notes).  The gated time metrics are
    the raw ones with each op's times divided by its ``ref_s``."""
    notes = {}

    def times(suffix: str, unit: str, wall: list[float], cpu: list[float]) -> dict:
        p, tail_value, beyond = tail(wall)
        notes[f"wall_{suffix}"] = f"median of {len(ops)} ops"
        notes[f"wall_tail_{suffix}"] = f"p{p:g} of {len(ops)} ops, {beyond} beyond it" + (
            "" if beyond >= 10 else " (fewer than 10: too few ops for a deeper tail)")
        notes[f"items_per_{suffix}"] = f"median over ops, {items} items per op"
        notes[f"cpu_{suffix}"] = "median per op, this process and its children"
        return {
            f"wall_{suffix}": (statistics.median(wall), unit),
            f"wall_tail_{suffix}": (tail_value, unit),
            f"items_per_{suffix}": (statistics.median(items / w for w in wall), f"1/{unit}"),
            f"cpu_{suffix}": (statistics.median(cpu), unit),
        }

    raw = times("s", "s", [op.wall_s for op in ops], [op.cpu_s for op in ops])
    raw["ref_s"] = (statistics.median(op.ref_s for op in ops), "s")
    notes["ref_s"] = "median over ops of the reference kernel time beside the op"
    metrics = times("ref", "ref", [op.wall_s / op.ref_s for op in ops],
                    [op.cpu_s / op.ref_s for op in ops])
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["setup_s"] = (statistics.median(setups), "s")
    notes["peak_rss_mb"] = "ru_maxrss of the process that timed the ops"
    notes["setup_s"] = f"median of {len(setups)} fresh set-up processes"
    return metrics, raw, notes


def measure(workload: str, seed: int, seconds: float, trace: bool, size_name: str,
            corrupt=None) -> dict:
    """One benchmark run; returns the full result record."""
    size = workloads.SIZES[size_name]
    directory = WORK / workload / "inputs"
    repeats = 1 if trace else SETUP_REPEATS[workload]
    setups = run_setups(workload, seed, size_name, directory, repeats)

    cli = workloads.import_cli(ROOT)
    runner = Runner(cli, workload, size, seed, directory)
    runner.corrupt = corrupt
    outdir = WORK / workload / "out"
    items = workloads.items_per_op(workload, size, runner.context)

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "size": size_name, "machine": machine_record(),
              "load": "closed loop, 1 client, 1 process"}
    if not trace:
        ops = runner.loop(seconds, outdir)
        runner.determinism(ops[0], WORK / workload / "out_rerun")
        metrics, raw, notes = end_to_end(ops, items, setups)
        record["raw_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
        record["setup_runs_s"] = setups
    else:
        ops = runner.loop(seconds / 2.0, outdir)
        runner.tracer = tr = tracing.Tracer()
        undo = tracing.install(tr, cli)
        try:
            setup_unit = tr.begin_unit()
            traced_inputs = WORK / workload / "inputs_traced"
            workloads.write_inputs(workload, seed, size, traced_inputs)
            if workload == "extract" and (traced_inputs / "tags.txt").read_bytes() != (
                    directory / "tags.txt").read_bytes():
                ops[0].problems.append("traced set-up wrote a different tags.txt")
            traced = runner.loop(seconds / 2.0, outdir)  # one unit per op, after the set-up
        finally:
            tracing.uninstall(undo)
            runner.tracer = None
        values = tracing.layer_metrics(tr, setup_unit, range(setup_unit + 1, tr.unit_id + 1))
        untraced_median = statistics.median(op.wall_s for op in ops)
        values["trace.overhead_s"] = statistics.median(op.wall_s for op in traced) - untraced_median
        values["protocol.analytic_gap_sigma"] = runner.gap_sigma
        values["protocol.workers2_speedup"] = 0.0
        if workload == "attack":
            one = runner.op(0, outdir, workers=1, commands=slice(0, 1), check=False)
            two = runner.op(0, outdir, workers=2, commands=slice(0, 1), check=False)
            values["protocol.workers2_speedup"] = one.wall_s / two.wall_s
            record["workers_runs_s"] = {"1": one.wall_s, "2": two.wall_s}
        runner.determinism(ops[0], WORK / workload / "out_rerun")
        ops += traced
        tr.save(WORK / workload / "spans.npz")
        record["spans"] = {"count": len(tr.start), "file": str(WORK / workload / "spans.npz")}
        metrics = {name: (value, tracing.UNITS[name]) for name, value in values.items()}
        notes = {}

    failed = sum(1 for op in ops if op.problems)
    record.update({
        "attempted": len(ops),
        "failed": failed,
        "failed_ratio": failed / len(ops),
        "ops": [op.__dict__ for op in ops],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
    })
    return record



def report(record: dict) -> dict:
    """Print the human-readable lines, write the results file, and return the
    result line's object."""
    print(f"workload={record['workload']} seed={record['seed']} trace={record['trace']} "
          f"size={record['size']} ops={record['attempted']} ({record['load']})")
    m = record["machine"]
    print(f"  machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} commit={m['git_commit']}")
    for name, entry in {**record["metrics"], **record.get("raw_metrics", {})}.items():
        note = record["notes"].get(name, "")
        print(f"  {name:40s} {entry['value']:>16.6g} {entry['unit']:6s} {note}")
    print(f"  {'failed_ratio':40s} {record['failed_ratio']:>16.6g} ratio  "
          f"{record['failed']} of {record['attempted']} ops failed")
    failures = [(op, problem) for op in record["ops"] for problem in op["problems"]]
    for op, problem in failures[:5]:
        print(f"  op {op['index']} (seed {op['seed']}) failed: {problem.strip()}")
    if len(failures) > 5:
        print(f"  ... {len(failures) - 5} more failures in the results file")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"  results: {path.relative_to(ROOT)}")
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": record["metrics"]}


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "riesim" / "cli.py").is_file():
        print(f"error: no riesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(report(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
