"""Self-test of the benchmark at tiny sizes (about a minute on two cores).

    python3 perfbench/selftest.py

It checks that:
  1. every end-to-end metric in BENCHMARK.json prints with its unit, on every
     workload, both in the text lines and in the result line, and the raw
     times behind the ``*_ref`` metrics print in the text lines;
  2. the traced run emits every per-layer metric in BENCHMARK.json;
  3. a corrupted output file is counted in ``failed_ratio``;
  4. without the package sources the benchmark exits non-zero and prints no
     result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

ROOT = run.ROOT
SEED = 3
RAW_TIMES = {"wall_s": "s", "wall_tail_s": "s", "items_per_s": "1/s", "cpu_s": "s", "ref_s": "s"}


def expect(ok: bool, what) -> None:
    """Fail the self-test (an explicit check, so it also runs under -O)."""
    if not ok:
        raise AssertionError(what)


def invoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


def check_metrics_print(workload: str, trace: int, expected: list[dict]) -> None:
    proc = invoke(workload, trace)
    expect(proc.returncode == 0, proc.stderr)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
    expect(result["correct"] and result["failed"] == 0, lines)
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in expected}
    expect(printed == wanted, (workload, trace, set(printed) ^ set(wanted)))
    text = "\n".join(lines[:-1])
    if trace == 0:  # the raw times behind the gated *_ref metrics print too
        wanted = {**wanted, **RAW_TIMES}
    for name, unit in wanted.items():
        expect(any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in text.splitlines() if line.strip()), (name, unit))
    expect("failed_ratio" in text, "no failed_ratio line")


def _replace_in(path: Path, old: str, new: str, count: int = 1) -> None:
    text = path.read_text()
    expect(old in text, (path, old))
    path.write_text(text.replace(old, new, count))


def flip_stealthy(outdir: Path) -> None:
    path = outdir / "stealth_scan.csv"
    lines = path.read_text().splitlines(keepends=True)
    row = lines[2]
    lines[2] = row.replace("true", "false") if row.rstrip().endswith("true") else row.replace("false", "true")
    path.write_text("".join(lines))


def truncate_scan(outdir: Path) -> None:
    path = outdir / "stealth_scan.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-7]))


def shift_sweep(outdir: Path) -> None:
    path = outdir / "deadtime_sweep.csv"
    rows = path.read_text().splitlines()
    lam, _ = rows[-1].split(",")
    rows[-1] = f"{lam},{rows[1].split(',')[1]}"  # highest rate gets the lowest estimate
    path.write_text("\n".join(rows) + "\n")


def miscount_extract(outdir: Path) -> None:
    path = outdir / "deadtime_extract.txt"
    text = path.read_text()
    count = int(text.split("n_timestamps: ")[1].split("\n")[0])
    _replace_in(path, f"n_timestamps: {count}", f"n_timestamps: {count - 1}")


def drop_branch(outdir: Path) -> None:
    path = outdir / "simulation_branches.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def skew_analytic(outdir: Path) -> None:
    path = outdir / "analytic.txt"
    text = path.read_text()
    value = text.split("e_obs: ")[1].split("\n")[0]
    _replace_in(path, f"e_obs: {value}", f"e_obs: {float(value) * 1.001!r}")


def add_blank_line(outdir: Path) -> None:
    """Passes every content check; only the byte-for-byte re-run catches it."""
    with (outdir / "busy_fraction.csv").open("a") as fh:
        fh.write("\n")


CORRUPTIONS = (
    ("scan", flip_stealthy, "stealthy="),
    ("scan", truncate_scan, "rows, expected"),
    ("sweep", shift_sweep, "do not rise"),
    ("extract", miscount_extract, "n_timestamps"),
    ("attack", drop_branch, "branch rows"),
    ("attack", skew_analytic, "analytic e_obs"),
    ("sweep", add_blank_line, run.NOT_REPRODUCED),
)


def check_corruption_counted(workload: str, corrupt, reason: str) -> None:
    """Op 0's outputs are corrupted after the CLI wrote them: exactly that op
    fails, for the expected reason."""
    record = run.measure(workload, SEED, 0.5, False, "tiny", corrupt=corrupt)
    expect(record["failed"] == 1 and record["failed_ratio"] == 1 / record["attempted"], (
        corrupt.__name__, record["failed"], record["attempted"]))
    expect(any(reason in problem for problem in record["ops"][0]["problems"]),
           (corrupt.__name__, record["ops"][0]["problems"]))


def check_bare_directory_fails() -> None:
    bare = run.WORK / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke("sweep", 0, cwd=bare)
    expect(proc.returncode != 0, proc.stdout)
    expect('"correct"' not in proc.stdout, proc.stdout)
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        check_metrics_print(workload, 0, spec["end_to_end"])
        check_metrics_print(workload, 1, spec["per_layer"])
        print(f"ok   {workload}: every end-to-end and per-layer metric prints with its unit")
    for workload, corrupt, reason in CORRUPTIONS:
        check_corruption_counted(workload, corrupt, reason)
        print(f"ok   {workload}: {corrupt.__name__} is counted in failed_ratio")
    check_bare_directory_fails()
    print("ok   without src/riesim the benchmark exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
