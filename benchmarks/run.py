"""Benchmark of the `tlsbath` command line, end to end and layer by layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N      # every workload, both modes

Each pass runs the workload's CLI operations in a fresh Python process
(`one_pass.py`), one process at a time, and times itself from inside. With
`--trace 0` the run repeats plain passes for S seconds (at least three) and
reports the end-to-end metrics. With `--trace 1` it alternates plain and
traced passes for S seconds, adds one tracemalloc pass, and reports the
per-layer split. Metric names and units come from BENCHMARK.json. The last
line of output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".bench_out"
MIN_PLAIN = 3          # plain passes per --trace 0 run, whatever S is
MIN_TRACED = 2         # plain + traced pairs per --trace 1 run
PASS_TIMEOUT = 150     # seconds; a tracemalloc pass takes 21 s on a 2-vCPU VM


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
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
    return None


def provenance() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "commit": git_commit(ROOT), "loadavg": os.getloadavg()}


def run_pass(workload: str, seed: int, mode: str) -> dict:
    """One fresh-process pass; its outputs are deleted once it has been checked."""
    OUT_ROOT.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(dir=OUT_ROOT))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
             "--seed", str(seed), "--mode", mode, "--out", str(out)],
            capture_output=True, text=True, timeout=PASS_TIMEOUT, cwd=ROOT)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} pass of {workload} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def count_failures(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over all passes of one seed.

    An operation fails in a pass if its own checks fail, or if its exit code or
    CSV hash differs from the first pass's: reruns must be byte-identical.
    """
    attempted = failed = 0
    reasons = []
    first = passes[0]["ops"]
    for p in passes:
        for op, ref in zip(p["ops"], first, strict=True):
            attempted += 1
            problems = list(op["problems"])
            if (op["code"], op["csv_sha256"]) != (ref["code"], ref["csv_sha256"]):
                problems.append("differs from the first pass (exit code or CSV hash)")
            if problems:
                failed += 1
                reasons.append(f"{p['mode']} pass, {op['argv'][0]}: {'; '.join(problems)}")
    return attempted, failed, reasons


def analytic_gap(passes: list[dict]) -> float:
    """Largest max_j |rho00_exact - rho00_analytic| over the relax operations.

    1, the largest possible gap, when no relax operation wrote its report.
    """
    return max((op["gap"] for op in passes[0]["ops"] if op["gap"] is not None), default=1.0)


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[dict]]:
    """All metric values of one run, and the passes they come from."""
    start = time.monotonic()
    if not trace:
        plain = []
        while len(plain) < MIN_PLAIN or time.monotonic() - start < seconds:
            plain.append(run_pass(workload, seed, "plain"))
        passes = plain
        # On a shared 2-vCPU VM the host's speed drifts by a third over tens of
        # seconds. Contention only slows an operation, so each one's fastest
        # run is its steady time; wall_s is their sum.
        values = {"wall_s": sum(min(p["ops"][i]["wall_s"] for p in plain)
                                for i in range(len(plain[0]["ops"]))),
                  "setup_s": _median(plain, "setup_s"),
                  "peak_mem_mib": _median(plain, "peak_rss_growth_mib")}
    else:
        plain, traced = [], []
        while len(traced) < MIN_TRACED or time.monotonic() - start < seconds:
            plain.append(run_pass(workload, seed, "plain"))
            traced.append(run_pass(workload, seed, "trace"))
        mem = run_pass(workload, seed, "mem")
        passes = plain + traced + [mem]
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        values["tracemalloc_peak_mib"] = mem["tracemalloc_peak_mib"]
        values["trace.wall_s"] = _median(traced, "wall_s")
        values["trace.overhead_s"] = values["trace.wall_s"] - _median(plain, "wall_s")
        values["analytics.warnings"] = sum(op["warnings"] for op in traced[0]["ops"])
        values["cli.rows_written"] = sum(op["rows"] for op in traced[0]["ops"])
        values["cli.bytes_written"] = sum(op["bytes"] for op in traced[0]["ops"])
    return values, passes


def select(values: dict, specs: list[dict]) -> dict:
    """The metrics BENCHMARK.json names, with their units."""
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def report(workload: str, seed: int, trace: bool, bench: dict, seconds: float,
           host: dict) -> dict:
    """Run one workload, print its figures and return the result object."""
    values, passes = measure(workload, seed, seconds, trace)
    attempted, failed, reasons = count_failures(passes)
    values["fail_ratio"] = failed / attempted
    values["analytic_gap"] = analytic_gap(passes)
    modes = [p["mode"] for p in passes]
    print(f"{workload} seed={seed} trace={int(trace)}: "
          + ", ".join(f"{modes.count(m)} {m}" for m in dict.fromkeys(modes)) + " passes")
    shown = bench["per_layer"] if trace else bench["end_to_end"] + [
        {"name": "fail_ratio", "unit": "ratio"}, {"name": "analytic_gap", "unit": "1"}]
    for s in shown:
        print(f"  {s['name']:<40} {values[s['name']]:>14.6g} {s['unit']}")
    plain = [p for p in passes if p["mode"] == "plain"]
    walls = sorted(p["wall_s"] for p in plain)
    print(f"  pass time over {len(walls)} plain passes: min {walls[0]:.4f} "
          f"median {statistics.median(walls):.4f} max {walls[-1]:.4f} s")
    for i, spec in enumerate(ops.WORKLOADS[workload]):
        took = sorted(p["ops"][i]["wall_s"] for p in plain)
        print(f"  op {i}: min {took[0]:.4f} median {statistics.median(took):.4f} s, "
              f"exit {plain[0]['ops'][i]['code']}, "
              f"tlsbath {' '.join((spec.command,) + spec.flags)} {json.dumps(spec.config)}")
    for reason in reasons:
        print(f"  FAILED {reason}")
    print("provenance " + json.dumps({**passes[0]["provenance"], **host}))
    metrics = select(values, bench["per_layer"] if trace else bench["end_to_end"])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*ops.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)
    if not (ROOT / "src" / "tlsbath" / "cli.py").is_file():
        print(f"error: no tlsbath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    host = provenance()
    try:
        if args.workload != "all":
            result = report(args.workload, args.seed, bool(args.trace), bench, args.seconds, host)
        else:
            results = {(w, t): report(w, args.seed, t, bench, args.seconds, host)
                       for w in ops.WORKLOADS for t in (False, True)}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{name}": m for (w, _), r in results.items()
                            for name, m in r["metrics"].items()},
            }
    finally:
        shutil.rmtree(OUT_ROOT, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
