import csv
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tlsbath import cli, experiments, model
from tlsbath.analytics import effective_temperature, is_freezing_point
from tlsbath.cli import main
from tlsbath.experiments import (
    _FREEZING,
    _MAP_AXIS_BYTES,
    _MAP_CELL_BYTES,
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
    """The path of a config file of payload, a dict or a JSON text."""
    cfg = tmp_path / "config.json"
    cfg.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(cfg)


def run_cli(argv, **env):
    """main(argv) in a fresh interpreter that imports this package, with env
    added to its environment."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from tlsbath.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


def config_argv(command, cfg, out):
    """The arguments of command with config cfg and, for every command but
    env-inspect, which writes nothing, output directory out."""
    out = [] if command == "env-inspect" else ["--out", str(out)]
    return [command, "--config", cfg, *out]


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

    @pytest.mark.parametrize("grid", [[40000, 1], [1, 40000]],
                             ids=["long-dt", "long-detuning"])
    def test_memory_within_the_map_budget(self, tmp_path, grid):
        """After a warm-up call, the command's tracemalloc peak on a grid of
        one long axis stays within attractor_map's budget (48 B a cell and
        24 B an axis point) and 1 MiB: it reads the returned arrays out a
        chunk of a row at a time, not as nested lists of the grid."""
        warm = write_config(tmp_path, {"grid": [3, 2]})
        assert main(["attractor-map", "--config", warm, "--out", str(tmp_path)]) == 0
        cfg = write_config(tmp_path, {"grid": grid})
        tracemalloc.start()
        try:
            assert main(["attractor-map", "--config", cfg, "--out", str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budget = grid[0] * grid[1] * _MAP_CELL_BYTES + sum(grid) * _MAP_AXIS_BYTES
        assert peak <= budget + 2**20, (peak, budget)


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
        docs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / hash_seed
            argv = ["relax", "--scenario", "fig2", "--engine", "nonselective",
                    "--reset", "coarse", "--seed", "3", "--config", cfg, "--out", str(out)]
            proc = run_cli(argv, PYTHONHASHSEED=hash_seed)
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

    @pytest.mark.parametrize("reset, code", [("coarse", 2), ("exact", 1)])
    def test_sampled_run_above_sampled_limit(self, tmp_path, capsys, reset, code):
        """At the same point a sampled coarse-reset run draws from whole
        columns: it finishes, prints its verdict and misses the target
        (exit 2), with no error line. Exact reset draws within the adjacent
        bands and still refuses the run (exit 1)."""
        cfg = write_config(tmp_path, {"model": "sigma-x", "detuning": -0.9,
                                      "dt": 4 * math.pi, "coupling": 0.01,
                                      "n_traj": 10, "steps": 5})
        assert main(["relax", "--scenario", "fig2", "--engine", "sampled", "--reset", reset,
                     "--config", cfg, "--out", str(tmp_path)]) == code
        out, err = capsys.readouterr()
        if code == 2:
            assert out.startswith("fig2: plateau=") and "[FAIL]" in out
            assert "error:" not in err
        else:
            assert err == "error: band-adjacency selection rule violated beyond 1.0e-05\n"

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
            ({}, ["--seed", "-1"], "seed must be >= 0, got -1"),
            ({"seed": -1}, [], "seed must be >= 0, got -1"),
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


# The start bands k0 each run accepts at n = 3: both bands of its band pair
# (_SCENARIOS, _FREEZING) lie in 0..n.
_K0_RANGES = {"fig2": (1, 3), "fig3": (0, 2), "freeze": (1, 2)}


def _k0_argv(run, cfg, out):
    if run == "freeze":
        return ["freeze", "--config", cfg, "--out", out]
    return ["relax", "--scenario", run, "--config", cfg, "--out", out]


@pytest.mark.parametrize("end", ["low", "high"])
@pytest.mark.parametrize("run", sorted(_K0_RANGES))
def test_k0_outside_band_pair_exit_1(tmp_path, capsys, run, end):
    """A k0 one past either end of a run's range exits 1 with one error
    line that names k0 and the range; k0 at that end runs."""
    low, high = _K0_RANGES[run]
    name = "freezing" if run == "freeze" else run
    inside, outside = (low, low - 1) if end == "low" else (high, high + 1)
    cfg = write_config(tmp_path, {"n": 3, "k0": outside, "steps": 5})
    assert main(_k0_argv(run, cfg, str(tmp_path / "out"))) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {name} needs {low} <= k0 <= {high} at n = 3, "
                   f"got k0 = {outside}\n")
    cfg = write_config(tmp_path, {"n": 3, "k0": inside, "steps": 5})
    assert main(_k0_argv(run, cfg, str(tmp_path / "out"))) in (0, 2)


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("relax", {"coupling": 1e-6}, "steps would take"),
        ("env-inspect", {"n": 40}, "coupling blocks of n = 40 spins would take"),
        ("env-inspect", {"n": 70}, "coupling blocks of n = 70 spins would take more than"),
        ("env-inspect", {"n": 10**6},
         "coupling blocks of n = 1000000 spins would take more than"),
        ("env-inspect", {"n": 24, "model": "sigma-x"},
         "coupling blocks of n = 24 spins would take"),
    ],
)
def test_sizes_that_cannot_fit_exit_1(tmp_path, capsys, recwarn, monkeypatch, command,
                                      payload, message):
    """A size whose arrays cannot fit exits 1 with one error line that names
    it, before anything of that size is allocated or looped over: the ~3.5e11
    default steps of a tiny coupling, the coupling blocks of n = 40, of
    n = 70 and of n = 10^6 (refused after a few of their binomials, not
    after all n + 1) and the 2^24 configurations of a sigma-x environment.
    The memory figure is fixed at 8 GiB, so that every machine refuses them."""
    monkeypatch.setattr(model, "_physical_memory", lambda: 8 * 2**30)
    cfg = write_config(tmp_path, payload)
    assert main(config_argv(command, cfg, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err
    assert not recwarn.list


@pytest.mark.parametrize(
    "command, payload, need",
    [
        ("relax", {"steps": 1000}, 1000 * 208),
        ("freeze", {"steps": 1000}, 1000 * 136),
        ("attractor-map", {"grid": [30, 40]}, 30 * 40 * 48 + (30 + 40) * 24),
        ("sweep", {"quantity": "R", "num": 1000}, 1000 * 72),
        ("env-inspect", {"n": 5},
         16 * sum(math.comb(5, k) * math.comb(5, k + 1) for k in range(5))),
        ("relax", {"engine": "sampled", "n_traj": 10**4, "steps": 10}, 10**4 * 688),
    ],
)
def test_request_just_past_the_memory_exits_1(tmp_path, capsys, monkeypatch, command,
                                              payload, need):
    """Each command's size check, with the memory figure one byte below what
    its request would hold: a relax or freeze of 1000 steps (208 and 136 B a
    step), a 30 x 40 attractor map (48 B a cell and 24 B an axis point), a
    sweep of 1000 points (72 B a point), the coupling blocks of n = 5 spins
    and a sampled relax of 10^4 trajectories (688 B a trajectory). Each
    exits 1 with one error line and no traceback, before it allocates
    anything of that size."""
    monkeypatch.setattr(model, "_physical_memory", lambda: need - 1)
    cfg = write_config(tmp_path, payload)
    assert main(config_argv(command, cfg, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "would take" in err
    assert "Traceback" not in err


def test_zero_coupling_with_steps_runs(tmp_path):
    """Given steps, a zero or vanishing coupling relax runs with either reset:
    nothing relaxes, so the plateau misses the target (exit 2), the CSV has
    steps + 1 rows and t_eff is 0. The two n = 2 points end with a plateau
    above 1 by rounding (1 + 2e-16 with exact reset, 1 + 3.6e-14 with
    coarse), which reads as 1."""
    payloads = [
        {"coupling": 0.0, "steps": 5},
        {"n": 2, "k0": 2, "coupling": 0, "dt": 3.14159, "detuning": 0.3, "steps": 30},
        {"n": 2, "k0": 1, "coupling": 1e-12, "dt": 0.7, "detuning": 0.3, "steps": 30},
    ]
    for payload in payloads:
        for reset in ("coarse", "exact"):
            cfg = write_config(tmp_path, payload)
            argv = ["relax", "--reset", reset, "--seed", "0", "--config", cfg]
            assert main([*argv, "--out", str(tmp_path)]) == 2
            assert len(read_csv(tmp_path / "relax_fig2.csv")) == 1 + payload["steps"] + 1
            report = json.loads((tmp_path / "relax_fig2.json").read_text())
            assert report["extra"]["t_eff"] == 0.0


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


def test_readme_quick_start(capsys):
    """The README's Quick start Python block runs as written: it prints fig2's
    plateau, within the scenario's tolerance of 3/4, and an attractor
    occupation in [0, 1]."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.split("## Quick start", 1)[1]
    block = start.split("```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})
    plateau, star = (float(x) for x in capsys.readouterr().out.split())
    assert abs(plateau - 0.75) <= _SCENARIOS["fig2"][0]["tolerance"]
    assert 0.0 <= star <= 1.0


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

    def test_sampled_engine(self, tmp_path, capsys):
        """freeze runs the sampled engine given n_traj: its report records
        the engine and n_traj, and every series row is a physical state.
        Without n_traj it exits 1 and names it."""
        cfg = write_config(tmp_path, {"n": 5, "n_traj": 50})
        argv = ["freeze", "--engine", "sampled", "--out", str(tmp_path)]
        assert main([*argv, "--config", cfg]) in (0, 2)
        report = json.loads((tmp_path / "freeze.json").read_text())
        assert report["params"]["engine"] == "sampled"
        assert report["params"]["n_traj"] == 50
        series = report["series"]
        assert len(series["rho00"]) == len(series["abs_rho10"]) == 501
        for rho00, mag in zip(series["rho00"], series["abs_rho10"]):
            model.QubitState(rho00, mag).validate()
        capsys.readouterr()
        assert main([*argv, "--config", write_config(tmp_path, {"n": 5})]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_traj" in err

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
        """cosh b overflows at beta = 2000 (b = 1000): a quantity scaled by
        it is written as NaN, and the command exits 0, with no traceback and
        no warning. The temperature bounds and the attractor are formed from
        the weights 1 / (1 + e^{-+2b}) alone: 1 and 0, and an attractor of 1
        at T_eff = 0, the attractor map's cell bit for bit."""
        cfg = write_config(tmp_path, {"quantity": quantity, "parameter": "beta",
                                      "values": [2000.0]})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        value = {"rho00_max": "1.0", "rho00_min": "0.0", "attractor": "1.0",
                 "t_eff": "0.0"}.get(quantity, "nan")
        rows = read_csv(tmp_path / f"sweep_{quantity}_beta.csv")[1:]
        assert rows == [["2000.0", value]]
        assert "Traceback" not in capsys.readouterr().err
        assert not recwarn.list
        if quantity in ("attractor", "t_eff"):
            defaults = inspect.signature(sweep).parameters
            dt, detuning = defaults["dt"].default, defaults["detuning"].default
            _, _, cells, _ = attractor_map(dt, dt, detuning, detuning, (1, 1), beta=2000.0)
            cell = float(cells[0, 0])
            if quantity == "t_eff":
                cell = effective_temperature(cell, defaults["delta_s"].default)
            assert float(rows[0][1]) == cell

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

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config: "),
        ('[{"seed": 1}]', "config must be a JSON object"),
    ])
    def test_unusable_config_exit_1(self, tmp_path, capsys, text, message):
        """A config file that cannot be read, here one that does not exist,
        or whose JSON is not an object, exits 1 with one error line."""
        cfg = tmp_path / "config.json"
        if text is not None:
            cfg.write_text(text)
        code = main(["relax", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

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
        ({"band_width": True}, "unknown config key 'band_width'"),
        ({"delta_b": 0, "model": "sigma-x"}, "delta_b must be > 0"),
    ],
)
def test_env_inspect_bad_counts_exit_1(tmp_path, capsys, payload, message):
    cfg = write_config(tmp_path, payload)
    assert main(["env-inspect", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"n": 12, "delta_b": 0}, "delta_b must be > 0, got 0"),
        ({"n": 12, "delta_b": 0, "model": "sigma-x"}, "delta_b must be > 0, got 0"),
        ({"n": 3.5, "delta_b": 0}, "n must be an integer"),
        ({"seed": 7.5, "delta_b": 0}, "seed must be an integer"),
        ({"seed": -1, "delta_b": 0}, "seed must be >= 0, got -1"),
        ({"model": "ising", "delta_b": 0}, "unknown environment model 'ising'"),
        ({"n": 40, "delta_b": 0}, "coupling blocks of n = 40 spins would take"),
    ],
)
def test_env_inspect_refuses_before_building(tmp_path, capsys, monkeypatch, payload,
                                             message):
    """env-inspect refuses n, seed, model and the memory of the coupling
    blocks first and delta_b after them, all before either environment
    builder, whose work grows as 4^n, is called."""
    for name in ("build_band_environment", "build_spin_environment"):
        monkeypatch.setattr(experiments, name, lambda *a: pytest.fail("built an environment"))
    monkeypatch.setattr(model, "_physical_memory", lambda: 8 * 2**30)
    cfg = write_config(tmp_path, payload)
    assert main(["env-inspect", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("kind", ["random-band", "sigma-x"])
def test_env_inspect_builds_nothing(tmp_path, capsys, monkeypatch, kind):
    """A valid env-inspect reads its table from the degeneracies and calls
    neither environment builder, whose coupling blocks at n = 12 would take
    about 38 MiB."""
    for name in ("build_band_environment", "build_spin_environment"):
        for module in (experiments, model):
            monkeypatch.setattr(module, name, lambda *a: pytest.fail("built an environment"))
    cfg = write_config(tmp_path, {"n": 12, "model": kind})
    assert main(["env-inspect", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"environment: n=12 delta_b=1.0 model={kind} dim=4096"
    assert [int(line.split()[2]) for line in lines[2:15]] == [math.comb(12, k)
                                                               for k in range(13)]


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


_HUGE = 10**400


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
        ("sweep", {"quantity": "R", "parameter": "n"}, "unknown sweep parameter 'n'"),
        ("attractor-map", {"dt_max": 1e300, "grid": [3, 2]},
         "sinA = nan is not finite: the parameters are too large"),
        ("relax", {"scenario": ["fig2"]},
         "unknown scenario ['fig2']; choose from ['fig2', 'fig3']"),
        ("sweep", {"quantity": ["R"]}, "unknown quantity ['R']; choose from ['R', "),
        ("sweep", {"quantity": "R", "parameter": {"a": 1}},
         "unknown sweep parameter {'a': 1}; choose from ['beta', "),
        ("relax", {"coupling": _HUGE},
         "coupling must be finite, got an integer past the float range"),
        ("freeze", {"dt": _HUGE}, "dt must be finite, got an integer past the float range"),
        ("sweep", {"quantity": "R", "values": [1.0, _HUGE]},
         "values entry must be finite, got an integer past the float range"),
        ("attractor-map", {"dt_min": _HUGE},
         "dt_min must be finite, got an integer past the float range"),
        ("env-inspect", {"delta_b": _HUGE},
         "delta_b must be finite, got an integer past the float range"),
        ("relax", {"steps": _HUGE}, " steps would take more than 2^128 B"),
        ("sweep", {"quantity": "R", "num": _HUGE}, " points would take more than 2^128 B"),
        ("attractor-map", {"grid": [_HUGE, 2]}, " x 2 cells would take more than 2^128 B"),
        ("relax", {"n": 3, "steps": 5, "engine": "sampled", "n_traj": _HUGE},
         " trajectories would take more than 2^128 B"),
        ("relax", {"n": _HUGE}, " spins would take more than 2^128 B"),
        ("freeze", {"n": _HUGE}, " spins would take more than 2^128 B"),
        # Python refuses to read an integer of more than 4300 digits.
        pytest.param("relax", '{"steps": %s}' % ("1" * 5000), "error: malformed config JSON: ",
                     id="relax-5000-digit-steps"),
    ],
)
def test_bad_grid_or_sweep_counts_exit_1(tmp_path, capsys, recwarn, command, payload,
                                        message):
    """A malformed value exits 1 with one error line and writes nothing. A
    name that is a list or an object is refused by the one name check, not
    hashed; a real past the float range (_HUGE) is refused as not finite,
    without its digits; a count past it is refused by the size check, which
    words its refusal for any byte count; an n past it is refused before
    its log-gammas are formed; and an integer too long to read is refused
    as malformed JSON."""
    cfg = write_config(tmp_path, payload)
    assert main(config_argv(command, cfg, tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err
    assert not recwarn.list
    assert not (tmp_path / "out").exists()


# The commands that write files, the library call each makes and a small
# config for it.
_WRITERS = {
    "relax": ("run_scenario", {"n": 3, "steps": 5}),
    "freeze": ("verify_freezing", {"n": 3, "steps": 5}),
    "attractor-map": ("attractor_map", {"grid": [3, 2]}),
    "sweep": ("sweep", {"quantity": "R", "num": 3}),
}


@pytest.mark.parametrize("sub", ["", "sub"])
@pytest.mark.parametrize("command", sorted(_WRITERS))
def test_out_that_is_not_a_directory_exit_1(tmp_path, capsys, monkeypatch, command, sub):
    """An out that is a file, or lies below one, exits 1 with one error line
    that names the file, before the library is called."""
    function, payload = _WRITERS[command]
    monkeypatch.setattr(experiments, function, lambda *a, **kw: pytest.fail("ran"))
    blocker = tmp_path / "f"
    blocker.write_text("kept")
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(blocker / sub)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: out {str(blocker / sub)!r}: {str(blocker)!r} is not a directory\n"
    assert blocker.read_text() == "kept"


@pytest.mark.parametrize("command", sorted(_WRITERS))
def test_output_that_cannot_be_written_exit_1(tmp_path, capsys, monkeypatch, command):
    """An OSError while the output is written exits 1 with one error line
    and no traceback."""
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "mkdir", refuse)
    cfg = write_config(tmp_path, _WRITERS[command][1])
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: [Errno 13] Permission denied")
    assert err.count("\n") == 1


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


def test_env_inspect_takes_no_out(tmp_path, capsys):
    """env-inspect writes nothing, so it takes no out: --out is an
    unrecognised argument and a config out an unknown key. Each exits 1
    and makes nothing."""
    assert main(["env-inspect", "--out", str(tmp_path / "d")]) == 1
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    cfg = write_config(tmp_path, {"out": str(tmp_path / "d")})
    assert main(["env-inspect", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: unknown config key 'out' for env-inspect\n"
    assert not (tmp_path / "d").exists()


def test_each_command_takes_the_flag_of_each_of_its_keys():
    """A command's parser takes the flag of a config key exactly where the
    key is one of the command's, and hands the flag's value on under the
    key."""
    parser = cli.build_parser()
    for command, (_, keys, _) in cli._COMMANDS.items():
        for key, (flag, options) in cli._FLAGS.items():
            value = options.get("choices", ["1"])[0]
            try:
                args = parser.parse_args([command, flag, value])
            except SystemExit:
                args = None
            assert (args is not None) == (key in keys), (command, flag)
            if args is not None:
                assert getattr(args, key) == options.get("type", str)(value)


def test_huge_coupling_warns_in_one_line(tmp_path):
    """A valid relax far past the second-order regime passes with one
    `warning:` line on stderr. run_scenario forms R twice, once in
    rho00_closed_form; the two equal warnings are placed at the first line
    outside the package, where the default filter shows them once."""
    cfg = write_config(tmp_path, {"n": 3, "steps": 5, "coupling": 2**64})
    proc = run_cli(["relax", "--config", cfg, "--out", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == (
        "warning: per-step rate R = 6.72e+39 > 0.1: second-order maps unreliable\n"
    )


# JSON values that no config key takes as they are, or that one takes at
# an extreme: an integer past the float range, +-2^64, a list, an object, a
# boolean and a string.
_HOSTILE = [10**400, 2**64, -(2**64), [1, 2], {"a": 1}, True, "x"]
# A small valid config of each command, into which one hostile value is put.
_SMALL = {
    "attractor-map": {"grid": [3, 2]},
    "relax": {"n": 3, "steps": 5, "engine": "sampled", "n_traj": 2},
    "freeze": {"n": 3, "steps": 5},
    "sweep": {"quantity": "R", "num": 3},
    "env-inspect": {"n": 3},
}


@pytest.mark.parametrize("command, key", [(command, key) for command in sorted(_SMALL)
                                          for key in sorted(cli._COMMANDS[command][1])])
def test_hostile_config_value_exits_cleanly(tmp_path, capsys, monkeypatch, recwarn,
                                            command, key):
    """Every config key of every command, given each hostile value in a small
    config, exits 0, 1 or 2 with at most one line on stderr, an `error:`
    line of at most 200 characters, and no numpy warning: no value crashes
    past the check that owns its kind, and none is printed whole. Outputs
    go below tmp_path, an out of "x" too."""
    monkeypatch.chdir(tmp_path)
    for value in _HOSTILE:
        cfg = write_config(tmp_path, {**_SMALL[command], key: value})
        code = main([command, "--config", cfg])
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and err.count("\n") <= 1, (value, err)
        assert all(len(line) <= 200 for line in err.splitlines()), (value, err)
        assert (code == 1) == err.startswith("error: "), (value, err)
    assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "command, key, end, csv_name",
    [
        ("attractor-map", "dt_max", 2**64, "attractor_map.csv"),
        ("sweep", "start", 2**64, "sweep_R_dt.csv"),
        ("sweep", "stop", -(2**64), "sweep_R_dt.csv"),
    ],
)
def test_axis_ends_at_2_64_run(tmp_path, recwarn, command, key, end, csv_name):
    """An axis end of +-2^64, a real a float holds, is handed on as a float,
    so the command exits 0 with the end as the first or last dt of its
    axis. recwarn takes the SecondOrderWarnings of such a dt."""
    cfg = write_config(tmp_path, {**_SMALL[command], key: end})
    assert main(config_argv(command, cfg, tmp_path)) == 0
    assert float(end) in {float(row[0]) for row in read_csv(tmp_path / csv_name)[1:]}
