"""One pass over a workload in a fresh Python process.

    python3 benchmarks/one_pass.py --workload NAME --seed N --mode MODE --out DIR

MODE is `plain` (timed, tracing off; also the growth of peak resident memory
over the operations), `mem` (tracemalloc peak over the operations) or `trace`
(spans around every layer). The pass times its own set-up, runs the
workload's operations quietly through `tlsbath.cli.main`, then checks what
they wrote. Its last line of output is one JSON object. `run.py` starts these
passes one at a time.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import sys
import time
import traceback
import tracemalloc
import warnings
from pathlib import Path

from ops import WORKLOADS, check
from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, read through its C API."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _library_provenance(numpy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": _blas_threads()}


def _quiet_call(main, argv, counted):
    """Call `main(argv)` with its output captured and its warnings counted.

    Returns the exit code, the traceback if it raised, the captured output and
    the number of warnings of category `counted`. Warnings are counted, not
    kept, so that they add nothing to the memory pass.
    """
    output, n_warn = io.StringIO(), 0

    def count(message, category, *args, **kwargs):
        nonlocal n_warn
        n_warn += issubclass(category, counted)

    code = error = None
    with warnings.catch_warnings(), contextlib.redirect_stdout(output), \
            contextlib.redirect_stderr(output):
        warnings.simplefilter("always")
        warnings.showwarning = count
        try:
            code = main(argv)
        except Exception:
            error = traceback.format_exc(limit=-3)
    return code, error, output.getvalue(), n_warn


def run_pass(workload: str, seed: int, mode: str, out: Path) -> dict:
    ops = WORKLOADS[workload]
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy
    import tlsbath
    import tlsbath.cli as cli
    cli.build_parser()
    setup_s = time.perf_counter() - t0
    if not Path(tlsbath.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported tlsbath from {tlsbath.__file__}, not {SRC}")
    from tlsbath.analytics import SecondOrderWarning

    tracing = contextlib.nullcontext()
    if mode == "trace":
        tracer = Tracer()
        tracing = tracer.installed()
    elif mode == "mem":
        tracemalloc.start()

    records, wall_s = [], 0.0
    resident = _resident_bytes()
    with tracing:
        for i, op in enumerate(ops):
            where = out / f"op{i}"
            where.mkdir(parents=True)
            config = where / "config.json"
            config.write_text(json.dumps(op.config))
            argv = op.argv(seed, config, where)
            start = time.perf_counter()
            code, error, output, n_warn = _quiet_call(cli.main, argv, SecondOrderWarning)
            took = time.perf_counter() - start
            wall_s += took
            records.append((op, argv, took, code, error, where, output, n_warn))
    # ru_maxrss is in KiB on Linux; set-up peaks below `resident`.
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    result = {"mode": mode, "setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_growth_mib": (peak_rss - resident) / 2**20, "ops": []}
    if mode == "mem":
        result["tracemalloc_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    elif mode == "trace":
        result["layers"] = layer_metrics(tracer.spans)

    for op, argv, took, code, error, where, output, n_warn in records:
        problems, info = check(op, code, error, where)
        info.update(argv=argv, wall_s=took, warnings=n_warn, problems=problems)
        if problems:
            info["output"] = output[-1000:]
        result["ops"].append(info)
    result["provenance"] = _library_provenance(numpy)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "mem", "trace"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(run_pass(args.workload, args.seed, args.mode, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
