"""Command-line interface.

Subcommands wrap the scenario runners and analytic maps, writing deterministic
CSV/JSON outputs. Exit codes: 0 success, 1 usage error, bad configuration,
invalid physics input (any ValueError) or an output that cannot be written,
2 scientific tolerance failure. All energies are raw numbers in the same
arbitrary unit (hbar = 1).
"""
from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, experiments
from .dynamics import ENGINES, RESET_MODES
from .model import _check_positive, _show, beta_working_point, effective_beta


_COMMON_KEYS = {"seed", "out"}


def _parameters(fn) -> set:
    return set(inspect.signature(fn).parameters)


# Every key of a run's defaults is a config key of its command, except the
# initial state: a QubitState, which JSON cannot express.
_RELAX_KEYS = (
    {key for defaults, _ in experiments._SCENARIOS.values() for key in defaults}
    - {"rho0"}
) | {"scenario"}
_FREEZE_KEYS = set(experiments._FREEZING[0]) - {"rho0"}
_ATTRACTOR_KEYS = _parameters(experiments.attractor_map)
_SWEEP_KEYS = _parameters(experiments.sweep)
# The band table's splitting is the one key beyond the environment's own.
_ENV_KEYS = _parameters(experiments.default_environment) | {"delta_b"}


def _load_config(args, command: str) -> dict:
    cfg = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read config: {exc}")
        except ValueError as exc:  # bad JSON, or an integer past Python's 4300 digits
            raise ValueError(f"malformed config JSON: {exc}")
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
    known = _COMMANDS[command][1]
    for key in cfg:
        if key not in known:
            raise ValueError(f"unknown config key {_show(key)} for {command}")
    # Flags given on the command line override file values, merged in the
    # parser's order so that the config's key order is the same every run.
    cfg.update(
        {key: value for key, value in vars(args).items()
         if key in known and value is not None}
    )
    return cfg


def _given(cfg: dict, keys) -> dict:
    """The config's values for `keys`, leaving out those it does not set or
    sets to null, so that the library's defaults fill them."""
    if "seed" not in keys:  # a call that takes no seed: check it all the same
        experiments._check_counts({"seed": cfg.get("seed")})
    return {key: cfg[key] for key in keys if cfg.get(key) is not None}


def _check_out(cfg) -> None:
    """Refuse an out that is not a path string, or not a directory or, where
    it does not exist, whose nearest existing ancestor is not one. Nothing is
    created here."""
    out = cfg.get("out")
    if out is not None and not isinstance(out, str):
        raise ValueError(f"out must be a path string, got {_show(out)}")
    out = Path(out or ".")
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise ValueError(f"out {str(out)!r}: {str(existing)!r} is not a directory")


def _out_dir(cfg) -> Path:
    out = Path(cfg.get("out") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _metadata(cfg: dict) -> dict:
    resolved = {k: v for k, v in cfg.items() if k != "out"}
    return {
        "version": __version__,
        "config": resolved,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _write_csv(path: Path, header, rows) -> int:
    """Write `header` and then `rows` to the CSV file at `path`; returns the
    number of rows. csv writes a float as its repr, so it round-trips exactly."""
    count = 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for count, row in enumerate(rows, 1):
            w.writerow(row)
    return count


def _write_table(cfg: dict, stem: str, header, rows) -> None:
    """Write `<stem>.csv` and the side `<stem>.json` of metadata and row count."""
    out = _out_dir(cfg)
    csv_path = out / f"{stem}.csv"
    count = _write_csv(csv_path, header, rows)
    with open(out / f"{stem}.json", "w") as fh:
        json.dump({"metadata": _metadata(cfg), "rows": count}, fh, indent=1)
    print(f"wrote {csv_path} ({count} rows)")


# Cells the attractor-map command reads out of the returned arrays at once:
# besides them it holds its two axes as lists and one chunk of a row.
_CHUNK_CELLS = 2**12


def cmd_attractor_map(cfg: dict) -> int:
    dts, dets, values, frozen = experiments.attractor_map(**_given(cfg, _ATTRACTOR_KEYS))
    chunks = [slice(j, j + _CHUNK_CELLS) for j in range(0, len(dts), _CHUNK_CELLS)]
    dt_chunks = [dts[cols].tolist() for cols in chunks]
    rows = (
        [dt, det, "" if cell_frozen else value, str(cell_frozen).lower()]
        for i, det in enumerate(dets.tolist())
        for cols, dt_chunk in zip(chunks, dt_chunks)
        for dt, value, cell_frozen in zip(
            dt_chunk, values[i, cols].tolist(), frozen[i, cols].tolist()
        )
    )
    header = ["dt", "detuning", "rho00_star", "is_freezing"]
    _write_table(cfg, "attractor_map", header, rows)
    return 0


def _write_report(report, cfg: dict, path: Path, summary: str) -> int:
    """Write the report with the metadata of cfg to the JSON file at path and
    print its summary line with the verdict; returns 0 if it passed, else 2."""
    report.extra["metadata"] = _metadata(cfg)
    report.to_json(path)
    print(f"{summary} [{'pass' if report.passed else 'FAIL'}]")
    return 0 if report.passed else 2


def cmd_relax(cfg: dict) -> int:
    report = experiments.run_scenario(**_given(cfg, _RELAX_KEYS))
    scenario, series, out = report.scenario, report.series, _out_dir(cfg)
    # k_j, the band record, is left empty: an ensemble has none.
    columns = (series[key] for key in ("rho00_exact", "re_rho10", "im_rho10", "stderr"))
    _write_csv(
        out / f"relax_{scenario}.csv",
        ["j", "k_j", "rho00", "re_rho10", "im_rho10", "stderr"],
        ([j, "", *row] for j, row in enumerate(zip(*columns))),
    )
    return _write_report(
        report, {**cfg, "scenario": scenario}, out / f"relax_{scenario}.json",
        f"{scenario}: plateau={report.plateau:.4f} target={report.target:.4f} "
        f"tol={report.tolerance}",
    )


def cmd_freeze(cfg: dict) -> int:
    report = experiments.verify_freezing(**_given(cfg, _FREEZE_KEYS))
    extra = report.extra
    return _write_report(
        report, cfg, _out_dir(cfg) / "freeze.json",
        f"freezing (n={extra['matched_n']}, m={extra['matched_m']}): "
        f"drift_rho00={extra['drift_rho00']:.2e} "
        f"drift_abs_rho10={extra['drift_abs_rho10']:.2e}",
    )


def cmd_sweep(cfg: dict) -> int:
    columns = experiments.sweep(**_given(cfg, _SWEEP_KEYS))
    parameter, quantity = columns
    _write_table(
        cfg, f"sweep_{quantity}_{parameter}", list(columns), zip(*columns.values())
    )
    return 0


def cmd_env_inspect(cfg: dict) -> int:
    given = _given(cfg, _ENV_KEYS)
    delta_b = given.pop("delta_b", 1.0)
    call = inspect.signature(experiments.default_environment).bind(**given)
    call.apply_defaults()
    # n, seed, model and memory are refused first, then delta_b. The table
    # reads the degeneracies alone: the O(4^n) coupling blocks are not built.
    degs = experiments._check_environment(**call.arguments)
    _check_positive("delta_b", delta_b)
    n, model = call.arguments["n"], call.arguments["model"]
    print(f"environment: n={n} delta_b={delta_b} model={model} dim={sum(degs)}")
    print(f"{'k':>4} {'E_k':>10} {'N_k':>8}")
    for k, deg in enumerate(degs):
        print(f"{k:>4} {k * delta_b:>10.4f} {deg:>8}")
    for k0 in range(1, n):
        b_dig = beta_working_point(n, k0, delta_b, method="digamma")
        b_log = beta_working_point(n, k0, delta_b, method="log-approx")
        print(
            f"k0={k0}: beta_digamma={b_dig:.6f} beta_log={b_log:.6f} "
            f"ratio_e_bd={degs[k0 + 1] / degs[k0]:.4f}"
        )
    if n >= 2:
        print(f"effective beta (bands 1-2): {effective_beta(n, 1, 2, delta_b):.6f}")
    return 0


# Each command: its handler, its config keys and its help line. env-inspect
# writes nothing, so it takes no out; its seed is the environment's.
_COMMANDS = {
    "attractor-map": (cmd_attractor_map, _COMMON_KEYS | _ATTRACTOR_KEYS,
                      "attractor occupation grid"),
    "relax": (cmd_relax, _COMMON_KEYS | _RELAX_KEYS, "run a relaxation scenario"),
    "freeze": (cmd_freeze, _COMMON_KEYS | _FREEZE_KEYS, "verify state freezing"),
    "sweep": (cmd_sweep, _COMMON_KEYS | _SWEEP_KEYS, "sweep an analytic quantity"),
    "env-inspect": (cmd_env_inspect, _ENV_KEYS, "print environment band table"),
}

# The config keys that have a flag, in the order of each command's help. A
# command takes the flag of each of its config keys that has one.
_FLAGS = {
    "seed": ("--seed", {"type": int, "help": "master seed"}),
    "out": ("--out", {"help": "output directory"}),
    "engine": ("--engine", {"choices": ENGINES}),
    "reset_mode": ("--reset", {"choices": RESET_MODES}),
    "scenario": ("--scenario", {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlsbath",
        description="Repeatedly measured spin-bath relaxation toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, keys, help_line) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--config", help="JSON config file")
        for key, (flag, options) in _FLAGS.items():
            if key in keys:
                p.add_argument(flag, dest=key, **options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; remap to the documented code 1
        return 0 if exc.code in (0, None) else 1
    # A warning is one stderr line, as an error is.
    format_warning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_, **__: f"warning: {message}\n"
    try:
        cfg = _load_config(args, args.command)
        _check_out(cfg)
        return _COMMANDS[args.command][0](cfg)
    except ValueError as exc:  # bad configuration or physics input
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output that cannot be written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = format_warning


if __name__ == "__main__":
    sys.exit(main())
