import csv
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tlsbath import cli, model
from tlsbath.analytics import is_freezing_point
from tlsbath.cli import main
from tlsbath.experiments import (
    _FREEZING,
    _SCENARIOS,
    _SWEEP_QUANTITIES,
    ScenarioReport,
    attractor_map,
    sweep,
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_config(tmp_path, payload):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(payload))
    return str(cfg)


class TestAttractorMapCommand:
    def test_small_grid(self, tmp_path):
        cfg = write_config(tmp_path, {"grid": [40, 30], "beta": 0.75})
        code = main(["attractor-map", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "attractor_map.csv")
        assert rows[0] == ["dt", "detuning", "rho00_star", "is_freezing"]
        assert len(rows) == 1 + 40 * 30
        doc = json.loads((tmp_path / "attractor_map.json").read_text())
        meta = doc["metadata"]
        assert meta["config"]["grid"] == [40, 30]
        assert "version" in meta and "timestamp" in meta

    def test_default_axes_match_library(self, tmp_path):
        """The CLI's default axes are the library's, which scale with delta_s."""
        dts, dets, _, _ = attractor_map(grid=(5, 4), delta_s=2.0)
        assert (dts[0], dts[-1]) == (0.01, 2.0 * math.pi)
        assert (dets[0], dets[-1]) == (-1.8, 6.0)
        cfg = write_config(tmp_path, {"delta_s": 2.0, "grid": [5, 4]})
        assert main(["attractor-map", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "attractor_map.csv")[1:]
        assert [float(row[0]) for row in rows[:5]] == dts.tolist()
        assert [float(row[1]) for row in rows[::5]] == dets.tolist()

    def test_known_cell_value(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "grid": [3, 1],
                "dt_min": math.pi,
                "dt_max": math.pi + 1,
                "detuning_min": 0.0,
                "detuning_max": 0.5,
                "beta": 0.75,
            },
        )
        assert main(["attractor-map", "--config", cfg, "--out", str(tmp_path)]) == 0
        first = read_csv(tmp_path / "attractor_map.csv")[1]
        assert float(first[0]) == pytest.approx(math.pi)
        assert float(first[1]) == 0.0
        assert float(first[2]) == pytest.approx(0.6791786991753929, abs=1e-9)
        assert first[3] == "false"

    def test_freezing_cells_flagged(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "grid": [1, 1],
                "dt_min": math.pi,
                "dt_max": math.pi,
                "detuning_min": 2.0,
                "detuning_max": 2.0,
                "beta": 0.75,
            },
        )
        assert main(["attractor-map", "--config", cfg, "--out", str(tmp_path)]) == 0
        row = read_csv(tmp_path / "attractor_map.csv")[1]
        assert row[2] == ""
        assert row[3] == "true"

    def test_large_beta_cells(self, tmp_path, recwarn):
        """At beta = 2000 the weights e^{+-b} / (2 cosh b) would be inf / inf;
        the two cells that are not freezing points hold finite occupations
        and are marked false, and only (4 pi, 3.0) is flagged, as the one
        freezing test says."""
        cfg = write_config(tmp_path, {"grid": [3, 2], "beta": 2000.0})
        assert main(["attractor-map", "--config", cfg, "--out", str(tmp_path)]) == 0
        cells = {(float(dt), float(det)): (value, frozen)
                 for dt, det, value, frozen in read_csv(tmp_path / "attractor_map.csv")[1:]}
        dts, _, _, _ = attractor_map(grid=(3, 2), beta=2000.0)
        assert [is_freezing_point(dt, 3.0, 1.0)[0] for dt in dts] == [False, False, True]
        assert cells[dts[2], 3.0] == ("", "true")
        for dt in dts[:2]:
            value, frozen = cells[dt, 3.0]
            assert frozen == "false" and 0.0 <= float(value) <= 1.0
        assert not recwarn.list


class TestRelaxCommand:
    def test_fig2_success(self, tmp_path):
        code = main(["relax", "--scenario", "fig2", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "relax_fig2.csv")
        assert rows[0] == ["j", "k_j", "rho00", "re_rho10", "im_rho10", "stderr"]
        assert len(rows) == 1 + 142
        report = json.loads((tmp_path / "relax_fig2.json").read_text())
        assert report["passed"] is True
        assert report["plateau"] == pytest.approx(0.75, abs=0.03)

    def test_tolerance_failure_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"tolerance": 1e-6})
        code = main(
            ["relax", "--scenario", "fig2", "--config", cfg, "--out", str(tmp_path)]
        )
        assert code == 2

    def test_reruns_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["relax", "--scenario", "fig2", "--out", str(a)]) == 0
        assert main(["relax", "--scenario", "fig2", "--out", str(b)]) == 0
        assert (a / "relax_fig2.csv").read_bytes() == (b / "relax_fig2.csv").read_bytes()
        ja = json.loads((a / "relax_fig2.json").read_text())
        jb = json.loads((b / "relax_fig2.json").read_text())
        for doc in (ja, jb):
            doc["extra"]["metadata"].pop("timestamp")
            doc.pop("wall_time")
        assert ja == jb

    def test_json_key_order_independent_of_hash_seed(self, tmp_path):
        """Two runs in fresh interpreters with different string hash seeds
        write the same JSON, key order included, apart from the timestamp
        and wall time: the flags are merged into the config in a fixed order."""
        cfg = write_config(tmp_path, {"steps": 20})
        src = str(Path(cli.__file__).resolve().parents[1])
        docs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / hash_seed
            argv = ["relax", "--scenario", "fig2", "--engine", "nonselective",
                    "--reset", "coarse", "--seed", "3", "--config", cfg, "--out", str(out)]
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from tlsbath.cli import main; sys.exit(main(sys.argv[1:]))",
                 *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            # Twenty steps are far from the plateau: a tolerance failure.
            assert proc.returncode == 2, proc.stderr
            docs.append(json.loads(
                (out / "relax_fig2.json").read_text(),
                object_pairs_hook=lambda pairs: [
                    (k, v) for k, v in pairs if k not in ("timestamp", "wall_time")
                ],
            ))
        assert docs[0] == docs[1]


    def test_nonselective_reports_leakage_above_sampled_limit(self, tmp_path):
        """At this sigma-x point one step's leakage is about 1.02e3 coupling^4,
        above the 1e3 coupling^4 that the sampled engine accepts; the
        nonselective run finishes, misses the fig2 target (exit 2) and reports
        the bound."""
        cfg = write_config(tmp_path, {"model": "sigma-x", "detuning": -0.9,
                                      "dt": 4 * math.pi, "coupling": 0.01, "steps": 5})
        code = main(["relax", "--scenario", "fig2", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        report = json.loads((tmp_path / "relax_fig2.json").read_text())
        assert report["extra"]["leakage_bound"] > 1e3 * 0.01**4

    @pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
    def test_every_default_key_accepted(self, tmp_path, scenario):
        defaults, _ = _SCENARIOS[scenario]
        payload = {k: v for k, v in defaults.items() if k != "rho0"}
        cfg = write_config(tmp_path, {**payload, "scenario": scenario})
        assert main(["relax", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_rho0_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"rho0": 1.0})
        assert main(["relax", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "rho0" in capsys.readouterr().err

    def test_target_at_own_n(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 9})
        code = main(["relax", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        assert "target=0.8000" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "payload, flags, message",
        [
            ({"detuning": 2.0}, [], "freezing point"),
            ({}, ["--engine", "sampled"], "n_traj"),
            ({"delta_s": math.nan}, [], "delta_s"),
            ({"dt": math.inf}, [], "dt"),
            ({"coupling": math.nan}, [], "coupling"),
            ({"n_traj": 10.5}, ["--engine", "sampled"], "n_traj must be an integer"),
            ({"n": 7.5}, [], "n must be an integer"),
            ({"k0": "2"}, [], "k0 must be an integer"),
            ({"steps": 0}, [], "steps must be >= 1"),
            ({"steps": -3}, [], "steps must be >= 1"),
            ({"n_traj": 0}, ["--engine", "sampled"], "n_traj must be >= 1"),
            ({"n": 0}, [], "n must be >= 1"),
            ({"n": True}, [], "n must be an integer"),
            ({"seed": 7.5}, [], "seed must be an integer"),
            ({"coupling": "0.05"}, [], "coupling must be a real number"),
            ({"delta_s": [1]}, [], "delta_s must be a real number"),
            ({"coupling": True}, [], "coupling must be a real number"),
            ({"tolerance": True}, [], "tolerance must be a real number"),
            ({"tolerance": "x"}, [], "tolerance must be a real number"),
            ({"tolerance": math.nan}, [], "tolerance must be finite"),
            ({"tolerance": -1}, [], "tolerance must be >= 0"),
            ({"coupling": 0.0}, [], "R = 0 gives no finite default run length"),
            ({"coupling": 1e-160}, [], "give steps"),
            ({"coupling": 1e300}, [], "coupling^2 = inf is not finite"),
            ({"dt": 1e300}, [], "is not finite"),
        ],
    )
    def test_invalid_physics_exit_1(self, tmp_path, capsys, recwarn, payload, flags,
                                    message):
        cfg = write_config(tmp_path, payload)
        code = main(["relax", "--config", cfg, "--out", str(tmp_path), *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err
        assert not recwarn.list


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("relax", {"coupling": 1e-6}, "steps would take"),
        ("env-inspect", {"n": 40}, "coupling blocks of n = 40 spins would take"),
        ("env-inspect", {"n": 24, "model": "sigma-x"},
         "coupling blocks of n = 24 spins would take"),
    ],
)
def test_sizes_that_cannot_fit_exit_1(tmp_path, capsys, recwarn, monkeypatch, command,
                                      payload, message):
    """A size whose arrays cannot fit exits 1 with one error line that names
    it, before anything of that size is allocated or looped over: the ~3.5e11
    default steps of a tiny coupling, the coupling blocks of n = 40 and the
    2^24 configurations of a sigma-x environment. The memory figure is fixed
    at 8 GiB, so that every machine refuses them."""
    monkeypatch.setattr(model, "_physical_memory", lambda: 8 * 2**30)
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err
    assert not recwarn.list


def test_zero_coupling_with_steps_runs(tmp_path):
    """Given steps, a zero-coupling relax runs: nothing relaxes, so the
    plateau misses the target (exit 2) and the CSV has steps + 1 rows."""
    cfg = write_config(tmp_path, {"coupling": 0.0, "steps": 5})
    assert main(["relax", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert len(read_csv(tmp_path / "relax_fig2.csv")) == 1 + 6


def test_readme_sampled_relax_command(tmp_path, monkeypatch):
    """The README's sampled relax command runs as written, from a directory
    holding the config its comment gives, and writes steps + 1 rows."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = next(x for x in readme.splitlines()
                if x.startswith("tlsbath relax") and "--engine sampled" in x)
    command, _, comment = line.partition("#")
    argv = command.split()[1:]
    config = json.loads(comment)
    monkeypatch.chdir(tmp_path)
    Path(argv[argv.index("--config") + 1]).write_text(json.dumps(config))
    assert main(argv) in (0, 2)
    out = Path(argv[argv.index("--out") + 1])
    assert len(read_csv(out / "relax_fig3.csv")) == 1 + config["steps"] + 1


def test_series_csv_bytes(tmp_path, monkeypatch):
    """`relax` writes its series with every float as its repr and k_j empty,
    the bytes of the series writer that the library once held."""
    rho00 = np.array([1.0, 0.1 + 0.2, 0.75])
    rho10 = np.array([0j, complex(0.25, -0.0), complex(-1e-17, 0.125)])
    stderr = np.array([0.0, 1 / 3, 2.5e-5])
    report = ScenarioReport(
        scenario="fig2",
        params={},
        series={
            "rho00_exact": rho00.tolist(),
            "re_rho10": rho10.real.tolist(),
            "im_rho10": rho10.imag.tolist(),
            "stderr": stderr.tolist(),
        },
        plateau=0.75,
        target=0.75,
        tolerance=0.03,
        passed=True,
    )
    monkeypatch.setattr(cli.experiments, "run_scenario", lambda *a, **kw: report)
    assert main(["relax", "--out", str(tmp_path)]) == 0

    assert (tmp_path / "relax_fig2.csv").read_bytes() == (
        b"j,k_j,rho00,re_rho10,im_rho10,stderr\r\n"
        b"0,,1.0,0.0,0.0,0.0\r\n"
        b"1,,0.30000000000000004,0.25,-0.0,0.3333333333333333\r\n"
        b"2,,0.75,-1e-17,0.125,2.5e-05\r\n"
    )


class TestFreezeCommand:
    def test_freezing_point_ok(self, tmp_path):
        code = main(["freeze", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "freeze.json").read_text())
        assert report["passed"] is True
        assert 0.0 <= report["extra"]["leakage_bound"] < 1e3 * 0.05**4

    def test_non_freezing_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"detuning": 0.7})
        code = main(["freeze", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        assert "freezing" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, flags, message",
        [
            ({"n": 7.5}, [], "n must be an integer"),
            ({}, ["--reset", "exact"], "unrecognized arguments: --reset"),
            ({"steps": 0}, [], "steps must be >= 1"),
            ({"steps": -3}, [], "steps must be >= 1"),
            ({"n_traj": 0}, ["--engine", "sampled"], "n_traj must be >= 1"),
            ({"n": True}, [], "n must be an integer"),
            ({"seed": 7.5}, [], "seed must be an integer"),
            ({"coupling": "0.05"}, [], "coupling must be a real number"),
            ({"dt": True}, [], "dt must be a real number"),
            ({"coupling": 1e300}, [], "coupling^2 = inf is not finite"),
            ({"dt": 1e300}, [], "is not finite"),
        ],
    )
    def test_bad_input_exit_1(self, tmp_path, capsys, recwarn, payload, flags, message):
        cfg = write_config(tmp_path, payload)
        code = main(["freeze", "--config", cfg, "--out", str(tmp_path), *flags])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not recwarn.list

    def test_every_default_key_accepted(self, tmp_path):
        defaults, _ = _FREEZING
        payload = {k: v for k, v in defaults.items() if k != "rho0"}
        cfg = write_config(tmp_path, payload)
        assert main(["freeze", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_rho0_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"rho0": 1.0})
        assert main(["freeze", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "rho0" in capsys.readouterr().err

    def test_null_seed_is_default_seed(self, tmp_path):
        """A JSON null seed means the default master seed, so reruns agree."""
        series = []
        for name, payload in [
            ("a", {"seed": None, "n": 3, "steps": 5}),
            ("b", {"seed": None, "n": 3, "steps": 5}),
            ("c", {"n": 3, "steps": 5}),
        ]:
            out = tmp_path / name
            cfg = write_config(tmp_path, payload)
            assert main(["freeze", "--config", cfg, "--out", str(out)]) == 0
            series.append(json.loads((out / "freeze.json").read_text())["series"])
        assert series[0] == series[1] == series[2]


class TestSweepCommand:
    def test_rate_sweep(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"quantity": "R", "parameter": "dt", "values": [0.1, 1.0, 3.14159]},
        )
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "sweep_R_dt.csv")
        assert rows[0] == ["dt", "R"]
        assert len(rows) == 4
        assert float(rows[1][1]) < float(rows[3][1])

    def test_complement_quantities(self, tmp_path):
        base = {"parameter": "dt", "values": [1.3], "beta": 0.75, "detuning": 0.8}
        total = 0.0
        for quantity in ("rho00_min", "rho00_max"):
            cfg = write_config(tmp_path, {"quantity": quantity, **base})
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
            rows = read_csv(tmp_path / f"sweep_{quantity}_dt.csv")
            total += float(rows[1][1])
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("quantity", sorted(_SWEEP_QUANTITIES))
    def test_large_beta_is_nan(self, tmp_path, capsys, recwarn, quantity):
        """cosh b and e^b overflow at beta = 2000 (b = 1000): the point is
        written as NaN and the command exits 0, with no traceback."""
        cfg = write_config(tmp_path, {"quantity": quantity, "parameter": "beta",
                                      "values": [2000.0]})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert read_csv(tmp_path / f"sweep_{quantity}_beta.csv")[1:] == [["2000.0", "nan"]]
        assert "Traceback" not in capsys.readouterr().err
        assert not recwarn.list

    def test_unknown_quantity_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"quantity": "bogus", "parameter": "dt"})
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        assert "bogus" in capsys.readouterr().err


class TestConfigHandling:
    def test_malformed_json_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("{not json")
        code = main(["relax", "--scenario", "fig2", "--config", str(cfg)])
        assert code == 1
        assert "config" in capsys.readouterr().err

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"couplingg": 0.05})
        code = main(["relax", "--scenario", "fig2", "--config", cfg])
        assert code == 1
        assert "couplingg" in capsys.readouterr().err

    def test_reset_flag_and_config_out(self, tmp_path):
        """`--reset` reaches the run as reset_mode, and a config's `out` is
        the output directory when `--out` is not given."""
        out = tmp_path / "from_config"
        cfg = write_config(tmp_path, {"steps": 3, "out": str(out)})
        assert main(["relax", "--config", cfg, "--reset", "exact"]) == 2
        report = json.loads((out / "relax_fig2.json").read_text())
        assert report["params"]["reset_mode"] == "exact"

    def test_usage_error_exit_1(self, capsys):
        assert main(["relax", "--bogus-flag"]) == 1

    def test_flag_overrides_file(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 1})
        code = main(
            [
                "relax",
                "--scenario",
                "fig2",
                "--config",
                cfg,
                "--seed",
                "20451",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "relax_fig2.json").read_text())
        assert report["seeds"]["master_seed"] == 20451


def test_env_inspect_prints_bands(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n": 5, "delta_b": 1.0})
    code = main(["env-inspect", "--config", cfg, "--seed", "7"])
    assert code == 0
    text = capsys.readouterr().out
    assert "N_k" in text
    assert "10" in text
    assert "effective beta" in text


def test_env_inspect_one_spin(tmp_path, capsys):
    """A one-spin environment has bands 0 and 1 only: the band table has two
    rows and the line for bands 1-2 is left out."""
    cfg = write_config(tmp_path, {"n": 1})
    assert main(["env-inspect", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[2:4]] == ["0", "1"]
    assert len(lines) == 4
    assert not any("effective beta" in line for line in lines)


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"seed": 7.5, "n": 3}, "seed must be an integer"),
        ({"n": 3.5}, "n must be an integer"),
        ({"seed": 7.5, "n": 3.5}, "n must be an integer"),
        ({"n": 0}, "n must be >= 1"),
        ({"delta_b": "1"}, "delta_b must be a real number"),
        ({"band_width": True}, "band_width must be a real number"),
        ({"delta_b": 0, "model": "sigma-x"}, "delta_b must be > 0"),
    ],
)
def test_env_inspect_bad_counts_exit_1(tmp_path, capsys, payload, message):
    cfg = write_config(tmp_path, payload)
    assert main(["env-inspect", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "command, function, given, csv_name, rows",
    [
        ("attractor-map", attractor_map, {"grid": [6, 5]}, "attractor_map.csv", 30),
        ("sweep", sweep, {"quantity": "attractor"}, "sweep_attractor_dt.csv", 101),
    ],
)
def test_every_default_key_accepted(tmp_path, command, function, given, csv_name, rows):
    """Every library default given explicitly (null for a None default) writes
    the CSV bytes that leaving it out writes."""
    params = inspect.signature(function).parameters
    defaults = {key: param.default for key, param in params.items()}
    written = []
    for name, payload in [("full", {**defaults, **given}), ("bare", given)]:
        cfg = write_config(tmp_path, payload)
        out = tmp_path / name
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        written.append((out / csv_name).read_bytes())
    assert written[0] == written[1] and written[0].count(b"\n") == 1 + rows


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("attractor-map", {"grid": 7}, "grid must be a list of two integers"),
        ("attractor-map", {"grid": [40]}, "grid must be a list of two integers"),
        ("attractor-map", {"grid": [40.7, 3]}, "grid entry must be an integer"),
        ("attractor-map", {"grid": [True, 3]}, "grid entry must be an integer"),
        ("attractor-map", {"grid": [0, 3]}, "grid entry must be >= 1"),
        ("sweep", {"quantity": "R", "values": 5}, "values must be a list"),
        ("sweep", {"quantity": "R", "num": 2.9}, "num must be an integer"),
        ("sweep", {"quantity": "R", "num": 0}, "num must be >= 1"),
        (
            "sweep",
            {"quantity": "R", "values": [1.0, 2.0], "coupling": -1},
            "coupling must be >= 0",
        ),
        ("attractor-map", {"delta_s": 0}, "delta_s must be > 0"),
        ("attractor-map", {"delta_s": "2"}, "delta_s must be a real number"),
        ("attractor-map", {"beta": True}, "beta must be a real number"),
        ("attractor-map", {"dt_min": "nan"}, "dt_min must be a real number"),
        ("attractor-map", {"detuning_max": math.inf}, "detuning_max must be finite"),
        ("sweep", {"quantity": "R", "values": [True]}, "values entry must be a real"),
        ("sweep", {"quantity": "R", "start": True}, "start must be a real number"),
        ("sweep", {"quantity": "R", "stop": math.nan}, "stop must be finite"),
        ("sweep", {"quantity": "R", "beta": "0.75"}, "beta must be a real number"),
        ("attractor-map", {"seed": 7.5, "grid": [2, 2]}, "seed must be an integer"),
        ("attractor-map", {"seed": True, "grid": [2, 2]}, "seed must be an integer"),
        ("sweep", {"quantity": "R", "num": 2, "seed": 7.5}, "seed must be an integer"),
        ("sweep", {"quantity": "R", "num": 2, "seed": True}, "seed must be an integer"),
    ],
)
def test_bad_grid_or_sweep_counts_exit_1(tmp_path, capsys, command, payload, message):
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, payload, csv_name",
    [
        ("attractor-map", {"grid": [3, 2]}, "attractor_map.csv"),
        ("sweep", {"quantity": "R", "num": 3}, "sweep_R_dt.csv"),
    ],
)
def test_integer_seed_accepted_and_unused(tmp_path, command, payload, csv_name):
    """A config seed or a --seed flag is accepted and leaves the CSV as it is."""
    written = []
    for name, extra, flags in [
        ("bare", {}, []),
        ("config", {"seed": 3}, []),
        ("flag", {}, ["--seed", "5"]),
    ]:
        cfg = write_config(tmp_path, {**payload, **extra})
        out = tmp_path / name
        assert main([command, "--config", cfg, "--out", str(out), *flags]) == 0
        written.append((out / csv_name).read_bytes())
    assert written[0] == written[1] == written[2]
