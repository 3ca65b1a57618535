"""The benchmark's workloads and the checks on what each operation writes.

A workload is a fixed list of `tlsbath` CLI operations. Each operation is one
`tlsbath.cli.main(argv)` call; the master seed reaches it as `--seed` and its
sizes go through a `--config` file. README.md says why each workload exists.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Slack on rho00 in [0, 1] and |rho10|^2 <= rho00 rho11: a pure trajectory
# state sits on the second bound up to rounding.
ROW_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI operation and what it must produce."""

    command: str
    config: dict
    flags: tuple[str, ...] = ()
    codes: frozenset[int] = frozenset({0})   # accepted exit codes
    csv: str | None = None                   # CSV the operation writes
    rows: int | None = None                  # its expected data rows

    def argv(self, seed: int, config: Path, out: Path) -> list[str]:
        return [self.command, "--config", str(config), "--seed", str(seed),
                "--out", str(out), *self.flags]


SAMPLED = ("--scenario", "fig2", "--engine", "sampled")

WORKLOADS: dict[str, tuple[Op, ...]] = {
    "sampled-batch": (
        Op("relax", {"n_traj": 1000, "steps": 141}, SAMPLED,
           csv="relax_fig2.csv", rows=142),
        # Exact reset drifts away from the coarse-reset target: always exit 2.
        Op("relax", {"n_traj": 1000, "steps": 141}, SAMPLED + ("--reset", "exact"),
           codes=frozenset({2}), csv="relax_fig2.csv", rows=142),
    ),
    "sampled-single": (
        # The verdict on one trajectory's time average depends on the seed
        # (at 10 000 steps seeds 3, 5, 13 and 31337 of 15 pass), so both are
        # valid. 2500 steps keep a pass short: more passes fit in a run.
        Op("relax", {"n_traj": 1, "steps": 2500}, SAMPLED,
           codes=frozenset({0, 2}), csv="relax_fig2.csv", rows=2501),
    ),
    "dense-n9": (
        # Ten steps are far from the plateau: always exit 2.
        Op("relax", {"n": 9, "steps": 10}, ("--scenario", "fig2", "--reset", "exact"),
           codes=frozenset({2}), csv="relax_fig2.csv", rows=11),
        Op("freeze", {"n": 9}),
    ),
    "long-output": (
        # Default fig3 length is ceil(8 / R) = 59 992 steps at any seed.
        Op("relax", {}, ("--scenario", "fig3"), csv="relax_fig3.csv", rows=59993),
        Op("attractor-map", {}, csv="attractor_map.csv", rows=400 * 400),
        Op("sweep", {"quantity": "attractor", "parameter": "dt",
                     "start": 0.01, "stop": 12.0, "num": 20000},
           csv="sweep_attractor_dt.csv", rows=20000),
    ),
}


def _physical(rho00: float, coh2: float = 0.0) -> bool:
    return (math.isfinite(rho00) and math.isfinite(coh2)
            and -ROW_TOL <= rho00 <= 1.0 + ROW_TOL
            and coh2 <= rho00 * (1.0 - rho00) + ROW_TOL)


def _row_ok(command: str, row: list[str]) -> bool:
    try:
        if command == "relax":            # j, k_j, rho00, re_rho10, im_rho10, stderr
            return _physical(float(row[2]), float(row[3]) ** 2 + float(row[4]) ** 2)
        if command == "attractor-map":    # dt, detuning, rho00_star, is_freezing
            return row[2] == "" if row[3] == "true" else _physical(float(row[2]))
        return _physical(float(row[1]))   # the sweep is of the attractor rho00_star
    except (IndexError, ValueError):      # a short or non-numeric row
        return False


def tail_mean(values: list[float], fraction: float = 0.2) -> float:
    """Mean of the trailing fraction, as the scenarios define their plateau."""
    tail = max(1, math.ceil(fraction * len(values)))
    return sum(values[-tail:]) / tail


def check(op: Op, code: int | None, error: str | None, out: Path) -> tuple[list[str], dict]:
    """Problems with one finished operation, and facts about what it wrote.

    The facts are the CSV's hash, data rows and bytes, and for `relax` the
    largest |rho00_exact - rho00_analytic| of its own JSON report.
    """
    info = {"code": code, "csv_sha256": None, "rows": 0, "bytes": 0, "gap": None}
    if error is not None:
        return [f"raised {error}"], info
    problems = []
    if code not in op.codes:
        problems.append(f"exit code {code}, expected one of {sorted(op.codes)}")
    if op.csv is None:
        return problems, info
    path = out / op.csv
    if not path.is_file():
        return problems + [f"wrote no {op.csv}"], info
    data = path.read_bytes()
    rows = list(csv.reader(io.StringIO(data.decode())))[1:]
    info.update(csv_sha256=hashlib.sha256(data).hexdigest(), rows=len(rows), bytes=len(data))
    if len(rows) != op.rows:
        problems.append(f"{op.csv} has {len(rows)} rows, expected {op.rows}")
    bad = next((i for i, row in enumerate(rows) if not _row_ok(op.command, row)), None)
    if bad is not None:
        problems.append(f"{op.csv} row {bad} is not a physical state: {rows[bad]}")
    if op.command == "relax":
        report = json.loads(path.with_suffix(".json").read_text())
        exact = report["series"]["rho00_exact"]
        analytic = report["series"]["rho00_analytic"]
        info["gap"] = max(abs(a - b) for a, b in zip(exact, analytic, strict=True))
        # The scenario's own pass flag compares against a fixed target; a
        # converging run must instead reach its own analytic tail.
        if op.codes == {0} and abs(report["plateau"] - tail_mean(analytic)) > report["tolerance"]:
            problems.append(f"plateau {report['plateau']} misses the analytic tail "
                            f"{tail_mean(analytic)} by more than {report['tolerance']}")
    return problems, info
