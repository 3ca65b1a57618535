import json
import math

import numpy as np
import pytest

from tlsbath import experiments, model
from tlsbath.analytics import (
    attractor,
    attractor_rho00,
    is_freezing_point,
    relaxation_constants,
)
from tlsbath.experiments import (
    _SCENARIOS,
    attractor_map,
    compare_engines,
    default_environment,
    plateau,
    reproduce_fig2,
    reproduce_fig3,
    run_scenario,
    sweep,
    verify_freezing,
    zeno_scan,
)
from tlsbath.model import ModelParams


@pytest.fixture(scope="module")
def fig2_report():
    return reproduce_fig2()


@pytest.fixture(scope="module")
def fig3_report():
    return reproduce_fig3()


def read_report(report, tmp_path) -> dict:
    path = tmp_path / "report.json"
    report.to_json(path)
    return json.loads(path.read_text())


def test_sampled_run_reports_leakage_bound(tmp_path):
    report = run_scenario("fig2", engine="sampled", n_traj=20, steps=5)
    leak_tol = max(1e-9, 1e3 * report.params["coupling"] ** 4)
    bound = report.extra["leakage_bound"]
    assert math.isfinite(bound)
    assert 0.0 <= bound < leak_tol
    assert read_report(report, tmp_path)["extra"]["leakage_bound"] == bound
    assert report.extra["trace_drift"] is None


def test_exact_run_reports_trace_drift(tmp_path):
    report = run_scenario("fig2", reset_mode="exact", steps=5)
    drift = report.extra["trace_drift"]
    assert math.isfinite(drift)
    assert 0.0 <= drift < 1e-12
    assert read_report(report, tmp_path)["extra"]["trace_drift"] == drift
    bound = report.extra["leakage_bound"]
    assert 0.0 <= bound < 1e3 * report.params["coupling"] ** 4
    coarse = run_scenario("fig2", steps=5)
    assert coarse.extra["trace_drift"] is None
    # Both reset modes build the one sector of the ground start.
    assert coarse.extra["leakage_bound"] == bound


class TestFigureScenarios:
    def test_fig2_plateau(self, fig2_report):
        assert fig2_report.passed
        assert fig2_report.plateau == pytest.approx(0.75, abs=0.02)
        assert fig2_report.extra["t_eff"] > 0

    def test_fig3_plateau_and_inversion(self, fig3_report):
        assert fig3_report.passed
        assert fig3_report.plateau == pytest.approx(0.375, abs=0.03)
        assert fig3_report.extra["t_eff"] < 0

    def test_runtime_budgets(self, fig2_report, fig3_report):
        assert fig2_report.wall_time < 60.0
        assert fig3_report.wall_time < 120.0

    def test_halved_coupling_quadruples_half_life(self, fig2_report):
        slow = reproduce_fig2(coupling=0.025)

        def half_life(report):
            series = np.asarray(report.series["rho00_exact"])
            target = report.target
            gap0 = abs(series[0] - target)
            hit = np.nonzero(np.abs(series - target) <= gap0 / 2)[0]
            return int(hit[0])

        ratio = half_life(slow) / half_life(fig2_report)
        assert ratio == pytest.approx(4.0, rel=0.2)

    def test_report_reproducibility(self, fig2_report):
        again = reproduce_fig2()
        assert np.array_equal(
            np.asarray(again.series["rho00_exact"]),
            np.asarray(fig2_report.series["rho00_exact"]),
        )
        assert again.plateau == fig2_report.plateau

    def test_report_json(self, tmp_path, fig2_report):
        path = tmp_path / "fig2.json"
        fig2_report.to_json(path)
        doc = json.loads(path.read_text())
        assert doc["scenario"] == "fig2"
        assert doc["passed"] is True
        assert doc["seeds"]["master_seed"] == fig2_report.seeds["master_seed"]

    def test_report_json_file_matches_text(self, tmp_path, fig2_report):
        """The streamed file holds the text json.dumps gives for its document
        with indent 1, in the report's key order."""
        path = tmp_path / "fig2.json"
        assert fig2_report.to_json(path) is None
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=1)
        assert list(json.loads(text))[:2] == ["scenario", "params"]


class TestScenarioTable:
    @pytest.mark.parametrize(
        "scenario, n, target",
        [
            ("fig2", 7, 0.75),
            ("fig3", 7, 0.375),
            ("fig2", 9, 36 / (9 + 36)),
            ("fig3", 9, 36 / (36 + 84)),
        ],
    )
    def test_target_is_attractor_at_own_n(self, scenario, n, target):
        """The target follows the band pair's degeneracies C(n, k) at each n."""
        report = run_scenario(scenario, n=n, steps=1)
        assert report.target == pytest.approx(target, abs=1e-15)

    def test_fig2_passes_at_n9(self):
        report = reproduce_fig2(n=9)
        assert report.passed
        assert report.plateau == pytest.approx(0.8, abs=0.03)

    @pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
    def test_unknown_override_rejected(self, scenario):
        with pytest.raises(ValueError, match="couplingg"):
            run_scenario(scenario, couplingg=0.05)

    @pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
    def test_freezing_point_rejected(self, scenario):
        with pytest.raises(ValueError, match="freezing point"):
            run_scenario(scenario, detuning=2.0, dt=math.pi)

    def test_memory_counts_the_overlay(self, monkeypatch):
        """A scenario holds 208 B a step: run_ensemble's 32 B, its own step
        index and analytic overlay and its five series lists. With the
        memory figure at 200 B a step it is refused before the run, and at
        208 B a step it runs (n = 5, so that the 81 920 B build fits as
        well)."""
        steps = 2000
        run = experiments.run_ensemble
        monkeypatch.setattr(model, "_physical_memory", lambda: steps * 200)
        monkeypatch.setattr(experiments, "run_ensemble",
                            lambda *a, **kw: pytest.fail("the run started"))
        with pytest.raises(ValueError, match=f"scenario of {steps} steps would take"):
            run_scenario("fig2", n=5, steps=steps)
        monkeypatch.setattr(model, "_physical_memory", lambda: steps * 208)
        monkeypatch.setattr(experiments, "run_ensemble", run)
        report = run_scenario("fig2", n=5, steps=steps)
        assert len(report.series["rho00_analytic"]) == steps + 1

    def test_freezing_memory_counts_its_own_series(self, monkeypatch):
        """verify_freezing holds run_ensemble's 32 B a step, its |rho10|,
        step index, rotated rho10 and phase and its two series lists, 136 B
        in all: refused one byte below that, before the run, and run at it
        (n = 5, so that the 98 304 B build of a coherent start fits too)."""
        steps = 2000
        run = experiments.run_ensemble
        monkeypatch.setattr(model, "_physical_memory", lambda: steps * 136 - 1)
        monkeypatch.setattr(experiments, "run_ensemble",
                            lambda *a, **kw: pytest.fail("the run started"))
        with pytest.raises(ValueError, match=f"freezing check of {steps} steps would take"):
            verify_freezing(n=5, steps=steps)
        monkeypatch.setattr(model, "_physical_memory", lambda: steps * 136)
        monkeypatch.setattr(experiments, "run_ensemble", run)
        report = verify_freezing(n=5, steps=steps)
        assert len(report.series["abs_rho10"]) == steps + 1


class TestAttractorMap:
    def test_grid_shape_and_freezing_cells(self):
        dts, dets, grid, frozen = attractor_map(grid=(80, 60))
        assert grid.shape == (60, 80)
        assert frozen.dtype == bool
        assert np.isnan(grid[frozen]).all()
        finite = grid[~frozen]
        assert np.all((finite >= 0.0) & (finite <= 1.0))

    def test_mask_is_the_freezing_test(self):
        """On a grid of whole-pi periods with 33 frozen cells, the mask, the
        NaN cells of the occupation and is_freezing_point agree on every
        cell, in both directions."""
        dts, dets, grid, frozen = attractor_map(
            grid=(9, 41), dt_min=math.pi, dt_max=9 * math.pi,
            detuning_min=-2.0, detuning_max=2.0,
        )
        verdicts = np.array(
            [[is_freezing_point(dt, det, 1.0)[0] for dt in dts] for det in dets]
        )
        assert frozen.sum() == 33
        np.testing.assert_array_equal(frozen, np.isnan(grid))
        np.testing.assert_array_equal(frozen, verdicts)

    def test_ridge_complement_sum(self):
        """Populations at the coldest and the most inverted settings of one
        environment splitting are mirror images."""
        beta, delta_s = 0.75, 1.0
        detuning = 0.8
        dt_cold = math.pi / (delta_s + detuning / 2.0)
        dt_hot = 2.0 * math.pi / detuning
        cold = attractor_rho00(dt_cold, detuning, delta_s=delta_s, beta=beta)
        hot = attractor_rho00(dt_hot, detuning, delta_s=delta_s, beta=beta)
        assert cold + hot == pytest.approx(1.0, abs=1e-9)

    def test_memory_budget(self, monkeypatch):
        """attractor_map holds 48 B a cell and 24 B an axis point at its peak:
        refused one byte below that, before its axes are formed, and run at
        it."""
        need = 3 * 5 * 48 + (3 + 5) * 24
        monkeypatch.setattr(model, "_physical_memory", lambda: need - 1)
        with pytest.raises(ValueError, match="attractor map of 3 x 5 cells would take"):
            attractor_map(grid=(3, 5))
        monkeypatch.setattr(model, "_physical_memory", lambda: need)
        assert attractor_map(grid=(3, 5))[2].shape == (5, 3)


class TestSweep:
    def test_any_params_field(self):
        """beta sweeps like every ModelParams field: each point is a
        ModelParams and the beta passed next to it."""
        by_field = sweep("R", parameter="beta", values=[0.5], dt=2.0)
        by_beta = relaxation_constants(
            ModelParams(delta_s=1.0, coupling=0.05, dt=2.0), beta=0.5
        ).rate
        assert by_field == {"beta": [0.5], "R": [by_beta]}

    def test_invalid_point_is_nan(self):
        columns = sweep("R", parameter="coupling", values=[-1, 0.05])
        assert columns["coupling"] == [-1.0, 0.05]
        assert math.isnan(columns["R"][0]) and columns["R"][1] > 0.0
        # A dt whose interference factors overflow, which run_scenario and
        # attractor_map refuse.
        assert math.isnan(sweep("attractor", values=[1e300])["attractor"][0])

    def test_memory_budget(self, monkeypatch):
        """sweep holds 72 B a point of num (its points array and its value
        and result lists): refused one byte below that, before the points
        are formed, and run at it. Given values are not budgeted."""
        monkeypatch.setattr(model, "_physical_memory", lambda: 50 * 72 - 1)
        with pytest.raises(ValueError, match="sweep of 50 points would take"):
            sweep("R", num=50)
        assert len(sweep("R", values=[0.5] * 50)["R"]) == 50
        monkeypatch.setattr(model, "_physical_memory", lambda: 50 * 72)
        assert len(sweep("R", num=50)["R"]) == 50


class TestZenoScan:
    def test_rate_profile(self):
        p = ModelParams(delta_s=1.0, detuning=0.0, coupling=0.01, dt=math.pi)
        rows = zeno_scan([0.0, 0.01, 0.1, math.pi], p, beta=0.75)
        rates = [row["rate"] for row in rows]
        assert rates[0] == 0.0
        assert rates[1] < rates[2] < rates[3]
        assert rates[1] / rates[3] < 1e-4

    def test_exact_half_life_tracks_rate(self):
        p = ModelParams(delta_s=1.0, detuning=0.0, coupling=0.05, dt=math.pi)
        rows = zeno_scan([math.pi], p, beta=math.log(3), with_exact=True)
        rate = rows[0]["rate"]
        expect = math.log(2) / rate
        assert rows[0]["half_life_exact"] == pytest.approx(expect, rel=0.25)

    def test_no_exact_half_life_at_freezing_point(self, monkeypatch):
        """A freezing point has no attractor: no half-life and no engine run."""

        def refuse(*args, **kwargs):
            raise AssertionError("engine run at a freezing point")

        monkeypatch.setattr(experiments, "run_ensemble", refuse)
        p = ModelParams(delta_s=1.0, detuning=2.0, coupling=0.05, dt=math.pi)
        rows = zeno_scan([math.pi], p, beta=0.75, with_exact=True)
        assert rows[0]["half_life_exact"] is None


    @staticmethod
    def _short_runs(monkeypatch):
        """Replace the scan's engine by three-step runs; returns the list of
        (environment, steps asked for) of each call."""
        calls, real = [], experiments.run_ensemble

        def short(params, env, rho0, k0, steps, **kwargs):
            calls.append((env, steps))
            return real(params, env, rho0, k0, 3, **kwargs)

        monkeypatch.setattr(experiments, "run_ensemble", short)
        return calls

    def test_overflowing_run_length_is_capped(self, monkeypatch):
        """At R ~ 2e-319, 6 / R overflows to inf: the exact run takes the
        100 000-step cap instead of failing to convert inf to an integer."""
        calls = self._short_runs(monkeypatch)
        p = ModelParams(delta_s=1.0, coupling=1e-160)
        rows = zeno_scan([math.pi], p, beta=0.75, with_exact=True)
        assert 0.0 < rows[0]["rate"] < 1e-300
        assert [steps for _, steps in calls] == [100_000]

    def test_one_environment_for_every_dt(self, monkeypatch):
        """The exact runs of a scan share one environment, built once."""
        calls = self._short_runs(monkeypatch)
        p = ModelParams(delta_s=1.0, coupling=0.05)
        zeno_scan([math.pi, 2.0, 2.5], p, beta=0.75, with_exact=True, n=4)
        assert len(calls) == 3 and all(env is calls[0][0] for env, _ in calls)


def _error(fn, **kwargs) -> str:
    """The message of the ValueError that fn(**kwargs) raises, else ''."""
    try:
        fn(**kwargs)
    except ValueError as exc:
        return str(exc)
    return ""


@pytest.mark.parametrize("fn, given", [
    (attractor_map, {}),
    (sweep, {"quantity": "R"}),
])
@pytest.mark.parametrize("bad, message", [
    ({"delta_s": "1", "beta": "x"}, "delta_s must be a real number"),
    ({"delta_s": -1.0, "beta": "x"}, "beta must be a real number"),
    ({"delta_s": -1.0, "beta": 0.5}, "delta_s must be > 0"),
    ({"beta": math.inf}, "beta must be finite"),
])
def test_beta_checked_with_the_protocol(fn, given, bad, message):
    """beta is checked as a real next to the protocol's fields: after
    delta_s is found to be a real and before any range check."""
    assert _error(fn, **given, **bad).startswith(message)


@pytest.mark.parametrize(
    "dt, detuning, frozen",
    [
        (math.pi, 2.0, True),
        (4 * math.pi, 3.0, True),   # the one frozen cell of the default map
        (3 * math.pi, -2 / 3, True),
        (math.pi * (1 + 5e-9), 2 / (1 + 5e-9), True),
        (math.pi, 0.7, False),
        (1.1, 0.3, False),
    ],
)
def test_freezing_verdicts_agree(dt, detuning, frozen):
    """is_freezing_point, the attractor, the map, relax and freeze give one
    verdict at each point (delta_s = 1)."""
    p = ModelParams(delta_s=1.0, detuning=detuning, coupling=0.05, dt=dt)
    assert is_freezing_point(dt, detuning, 1.0)[0] == frozen
    assert (attractor(p, 0.75) is None) == frozen
    assert bool(np.isnan(attractor_rho00(dt, detuning, 1.0, 0.75))) == frozen
    small = {"dt": dt, "detuning": detuning, "n": 3, "steps": 2}
    refused = "freezing point" in _error(run_scenario, **small)
    accepted = "not a freezing point" not in _error(verify_freezing, **small)
    assert refused == accepted == frozen


class TestFreezing:
    def test_default_point_freezes(self):
        report = verify_freezing()
        assert report.passed
        assert report.extra["matched_n"] == 1
        assert report.extra["matched_m"] == 1
        bound = 10 * 0.05**2
        assert report.extra["drift_rho00"] <= bound
        assert report.extra["drift_abs_rho10"] <= bound
        assert 0.0 <= report.extra["leakage_bound"] < 1e3 * 0.05**4

    def test_non_freezing_rejected(self):
        with pytest.raises(ValueError):
            verify_freezing(detuning=0.7)

    def test_none_seed_is_default_seed(self):
        """A None override means the default master seed, so reruns agree."""
        a, b = (verify_freezing(seed=None, n=3, steps=5) for _ in range(2))
        assert a.series == b.series
        assert a.seeds == {"master_seed": 20451}

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="couplingg"):
            verify_freezing(couplingg=0.05)

    @pytest.mark.xfail(
        strict=True,
        reason="the tabulated phase constant disagrees with the exact engine "
        "in sign and magnitude; the engine-side phase is reproduced instead "
        "by independent perturbation theory",
    )
    def test_phase_advance_matches_tabulated_constant(self):
        report = verify_freezing()
        slope = report.extra["phase_per_step"]
        c2 = report.extra["c2_analytic"]
        assert slope == pytest.approx(c2, rel=0.2)

    def test_phase_advance_second_order_scale(self):
        """The measured phase is second order in the coupling."""
        fast = verify_freezing()
        slow = verify_freezing(coupling=0.025)
        ratio = fast.extra["phase_per_step"] / slow.extra["phase_per_step"]
        assert ratio == pytest.approx(4.0, rel=0.2)


class TestCompareEngines:
    def test_fig2_gap(self):
        res = compare_engines("fig2")
        assert res["max_gap"] < 0.03
        assert res["passed"]

    def test_fig3_gap(self):
        res = compare_engines("fig3")
        assert res["max_gap"] < 0.03

    def test_zero_coupling_exact_match(self):
        res = compare_engines("fig2", coupling=0.0, steps=50)
        assert res["max_gap"] == pytest.approx(0.0, abs=1e-12)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            compare_engines("fig9")


def test_plateau_estimator():
    values = np.concatenate((np.linspace(0, 1, 80), np.full(20, 0.5)))
    assert plateau(values) == pytest.approx(0.5)


def test_default_environment_models():
    band = default_environment(n=5, seed=3)
    spin = default_environment(n=5, seed=3, model="sigma-x")
    assert band.model == "random-band"
    assert spin.model == "sigma-x"
    with pytest.raises(ValueError, match="unknown environment model 'ising'"):
        default_environment(model="ising")
