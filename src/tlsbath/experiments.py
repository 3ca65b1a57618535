"""Scenario runners: figure reproductions, attractor map, Zeno scan, freezing
verification and the analytic-vs-exact comparison harness."""
from __future__ import annotations

import json
import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from . import analytics
from .analytics import is_freezing_point, offdiag_coeffs, rho00_closed_form
from .dynamics import run_ensemble
from .model import (
    BandedEnvironment,
    ModelParams,
    QubitState,
    build_band_environment,
    build_spin_environment,
    effective_beta,
)

__all__ = [
    "ScenarioReport",
    "attractor_map",
    "reproduce_fig2",
    "reproduce_fig3",
    "run_scenario",
    "zeno_scan",
    "verify_freezing",
    "compare_engines",
    "default_environment",
    "plateau",
]

DEFAULT_SEED = 20451
GROUND = QubitState(rho00=1.0)


@dataclass
class ScenarioReport:
    """Result of one scenario run, reproducible from its parameters and seeds."""

    scenario: str
    params: dict
    series: dict = field(default_factory=dict)      # name -> list of floats
    plateau: float | None = None
    target: float | None = None
    tolerance: float | None = None
    passed: bool | None = None
    wall_time: float = 0.0
    seeds: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_json(self, path=None) -> str:
        doc = {
            "scenario": self.scenario,
            "params": self.params,
            "plateau": self.plateau,
            "target": self.target,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "wall_time": self.wall_time,
            "seeds": self.seeds,
            "extra": self.extra,
            "series": self.series,
        }
        text = json.dumps(doc, indent=1)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def plateau(values: np.ndarray, fraction: float = 0.2) -> float:
    """Mean over the trailing fraction of a series."""
    values = np.asarray(values)
    tail = max(1, int(math.ceil(fraction * len(values))))
    return float(values[-tail:].mean())


def _check_counts(cfg: dict) -> None:
    """Reject an n, k0, steps, n_traj or seed that is given but not an integer
    (a JSON boolean is not one), and an n, steps or n_traj below 1."""
    for key in ("n", "k0", "steps", "n_traj", "seed"):
        value = cfg.get(key)
        if value is None:
            continue
        try:
            if isinstance(value, bool):
                raise TypeError
            operator.index(value)
        except TypeError:
            raise ValueError(f"{key} must be an integer, got {value!r}") from None
        if key in ("n", "steps", "n_traj") and value < 1:
            raise ValueError(f"{key} must be >= 1, got {value}")


def default_environment(
    n: int = 7,
    delta_b: float = 1.0,
    seed: int = DEFAULT_SEED,
    model: str = "random-band",
    band_width: float = 0.0,
) -> BandedEnvironment:
    if model == "random-band":
        return build_band_environment(n, delta_b, seed, band_width=band_width)
    if model == "sigma-x":
        return build_spin_environment(n, delta_b, seed)
    raise ValueError(f"unknown environment model {model!r}")


def attractor_map(
    dt_range: tuple[float, float] = (0.01, 4.0 * math.pi),
    detuning_range: tuple[float, float] = (-0.9, 3.0),
    grid_sizes: tuple[int, int] = (400, 400),
    delta_s: float = 1.0,
    beta: float = 0.75,
):
    """Attractor occupation on a (dt, detuning) grid.

    Returns (dt_values, detuning_values, grid, freezing_mask); the grid is
    indexed [detuning, dt] and freezing cells hold NaN.
    """
    dts = np.linspace(dt_range[0], dt_range[1], grid_sizes[0])
    dets = np.linspace(detuning_range[0], detuning_range[1], grid_sizes[1])
    grid = analytics.attractor_rho00(
        dts[None, :], dets[:, None], delta_s=delta_s, beta=beta
    )
    return dts, dets, grid, np.isnan(grid)


_COMMON_DEFAULTS = {
    "delta_s": 1.0,
    "n": 7,
    "k0": 2,
    "rho0": GROUND,
    "engine": "nonselective",
    "reset_mode": "coarse",
    "n_traj": None,
    "seed": DEFAULT_SEED,
    "steps": None,
    "tolerance": 0.03,
    "model": "random-band",
}

# Relaxation scenarios: name -> (defaults, beta_eff band pair relative to k0).
_SCENARIOS = {
    # Only bands k0 and k0-1 participate at resonance with dt = pi/delta_s.
    "fig2": (
        {**_COMMON_DEFAULTS, "detuning": 0.0, "coupling": 0.05, "dt": math.pi},
        (-1, 0),
    ),
    # The counter-rotating channel drives k0 -> k0+1 only. The resonant
    # channel here is weak (its sinc factor is ~0.026), so fourth-order
    # leakage competes at coupling 0.05 over the ~6e4 steps the transient
    # needs. 0.025 keeps the exact run inside the analytic regime.
    "fig3": (
        {
            **_COMMON_DEFAULTS,
            "detuning": 0.7,
            "coupling": 0.025,
            "dt": 2.0 * math.pi / 0.7,
        },
        (0, 1),
    ),
}


def run_scenario(scenario: str, **overrides) -> ScenarioReport:
    """Relaxation toward the analytic attractor d/R of the scenario's band pair.

    Overrides must name keys of the scenario's defaults. The run passes when
    its plateau lies within `tolerance` of the attractor at its own n and k0.
    """
    if scenario not in _SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    defaults, (lo, hi) = _SCENARIOS[scenario]
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise ValueError(f"unknown {scenario} override(s) {unknown}")
    cfg = {**defaults, **overrides}
    _check_counts(cfg)
    t0 = time.perf_counter()
    params = ModelParams(
        delta_s=cfg["delta_s"],
        detuning=cfg["detuning"],
        coupling=cfg["coupling"],
        dt=cfg["dt"],
    )
    n, k0, rho0 = cfg["n"], cfg["k0"], cfg["rho0"]
    seed, steps = cfg["seed"], cfg["steps"]
    beta_eff = effective_beta(n, k0 + lo, k0 + hi, params.delta_b)
    frozen, _, _ = is_freezing_point(params.dt, params.detuning, params.delta_s)
    att = None if frozen else analytics.attractor(params, beta_eff)
    if att is None:
        raise ValueError(
            f"(dt={params.dt}, detuning={params.detuning}) is a freezing point: "
            "there is no attractor to relax to"
        )
    if steps is None:
        steps = int(math.ceil(8.0 / att.rate))
    env = default_environment(
        n=n, delta_b=params.delta_b, seed=seed, model=cfg["model"]
    )
    series = run_ensemble(
        params,
        env,
        rho0,
        k0=k0,
        steps=steps,
        n_traj=cfg["n_traj"],
        master_seed=seed,
        reset_mode=cfg["reset_mode"],
        engine=cfg["engine"],
    )
    overlay = rho00_closed_form(rho0.rho00, np.arange(steps + 1), params, beta_eff)
    level = plateau(series.rho00)
    return ScenarioReport(
        scenario=scenario,
        params={
            "delta_s": params.delta_s,
            "detuning": params.detuning,
            "coupling": params.coupling,
            "dt": params.dt,
            "beta_eff": beta_eff,
            "n": n,
            "k0": k0,
            "steps": steps,
            "engine": cfg["engine"],
            "reset_mode": cfg["reset_mode"],
            "n_traj": cfg["n_traj"],
            "model": cfg["model"],
            "rho00_initial": rho0.rho00,
        },
        series={
            "rho00_exact": series.rho00.tolist(),
            "re_rho10": series.rho10.real.tolist(),
            "im_rho10": series.rho10.imag.tolist(),
            "stderr": series.stderr.tolist(),
            "rho00_analytic": np.asarray(overlay).tolist(),
        },
        plateau=level,
        target=att.rho00_star,
        tolerance=cfg["tolerance"],
        passed=abs(level - att.rho00_star) <= cfg["tolerance"],
        wall_time=time.perf_counter() - t0,
        seeds={"master_seed": seed},
        extra={
            "rate_analytic": att.rate,
            "t_eff": analytics.effective_temperature(level, params.delta_s),
            # Worst-case band-adjacency leakage of one step (sampled engine only).
            "leakage_bound": series.leakage_bound,
            # Largest drift of the total trace (exact-reset nonselective engine only).
            "trace_drift": series.trace_drift,
        },
    )


def reproduce_fig2(**overrides) -> ScenarioReport:
    """Resonant relaxation to the 3/4 attractor (seven spins, two initially up)."""
    return run_scenario("fig2", **overrides)


def reproduce_fig3(**overrides) -> ScenarioReport:
    """Detuned relaxation into inversion (3/8 attractor, negative temperature)."""
    return run_scenario("fig3", **overrides)


def zeno_scan(
    dt_list,
    params: ModelParams,
    beta: float | None = None,
    with_exact: bool = False,
    n: int = 7,
    k0: int = 2,
    seed: int = DEFAULT_SEED,
):
    """Relaxation rate versus measurement period; optional exact half-life.

    Returns a list of dicts {dt, rate, half_life_exact}.
    """
    rows = []
    for dt in dt_list:
        p = ModelParams(
            delta_s=params.delta_s,
            detuning=params.detuning,
            coupling=params.coupling,
            dt=float(dt),
            beta=params.beta,
        )
        rate = analytics.relaxation_constants(p, beta).rate
        half_life = None
        if with_exact and rate > 0:
            att = analytics.attractor(p, beta)
            steps = min(int(math.ceil(6.0 / rate)), 100_000)
            env = default_environment(n=n, delta_b=p.delta_b, seed=seed)
            series = run_ensemble(
                p, env, GROUND, k0=k0, steps=steps, engine="nonselective"
            )
            gap0 = abs(series.rho00[0] - att.rho00_star)
            below = np.nonzero(np.abs(series.rho00 - att.rho00_star) <= gap0 / 2.0)[0]
            half_life = int(below[0]) if len(below) else None
        rows.append({"dt": float(dt), "rate": rate, "half_life_exact": half_life})
    return rows


def verify_freezing(
    params: ModelParams | None = None,
    steps: int = 500,
    n: int = 7,
    k0: int = 2,
    rho0: QubitState | None = None,
    engine: str = "nonselective",
    seed: int = DEFAULT_SEED,
    model: str = "random-band",
    n_traj: int | None = None,
) -> ScenarioReport:
    """Exact-engine state freezing at dt = n pi/delta_s, detuning = 2 m pi/dt.

    Checks that populations and coherence magnitude stay put and extracts the
    slow off-diagonal phase advance per step for comparison with c2.
    """
    _check_counts({"n": n, "k0": k0, "steps": steps, "n_traj": n_traj, "seed": seed})
    t0 = time.perf_counter()
    if params is None:
        params = ModelParams(delta_s=1.0, detuning=2.0, coupling=0.05, dt=math.pi)
    frozen, nn, mm = is_freezing_point(params.dt, params.detuning, params.delta_s)
    if not frozen:
        raise ValueError(
            f"(dt={params.dt}, detuning={params.detuning}) is not a freezing point"
        )
    if rho0 is None:
        rho0 = QubitState(rho00=0.3, rho10=0.35 + 0.0j)
    env = default_environment(n=n, delta_b=params.delta_b, seed=seed, model=model)
    series = run_ensemble(
        params,
        env,
        rho0,
        k0=k0,
        steps=steps,
        n_traj=n_traj,
        master_seed=seed,
        engine=engine,
        reset_mode="coarse",
    )
    drift00 = float(np.max(np.abs(series.rho00 - series.rho00[0])))
    mags = np.abs(series.rho10)
    drift10 = float(np.max(np.abs(mags - mags[0])))
    # Interaction-picture phase: remove the free TLS rotation e^{-i delta_s dt j}.
    j = np.arange(steps + 1)
    rot = series.rho10 * np.exp(1j * params.delta_s * params.dt * j)
    phase = np.unwrap(np.angle(rot))
    slope = float(np.polyfit(j, phase, 1)[0])
    # Virtual transitions run through both neighbor bands symmetrically.
    beta_eff = effective_beta(n, k0 - 1, k0 + 1, params.delta_b)
    c2 = offdiag_coeffs(params, beta_eff).c2
    bound = 10.0 * params.coupling**2
    passed = drift00 <= bound and drift10 <= bound
    return ScenarioReport(
        scenario="freezing",
        params={
            "delta_s": params.delta_s,
            "detuning": params.detuning,
            "coupling": params.coupling,
            "dt": params.dt,
            "n": n,
            "k0": k0,
            "steps": steps,
            "engine": engine,
            "model": model,
        },
        series={
            "rho00": series.rho00.tolist(),
            "abs_rho10": mags.tolist(),
        },
        plateau=float(series.rho00[-1]),
        target=float(series.rho00[0]),
        tolerance=bound,
        passed=passed,
        wall_time=time.perf_counter() - t0,
        seeds={"master_seed": seed},
        extra={
            "matched_n": nn,
            "matched_m": mm,
            "drift_rho00": drift00,
            "drift_abs_rho10": drift10,
            "phase_per_step": slope,
            "c2_analytic": c2,
        },
    )


def compare_engines(scenario: str = "fig2", tolerance: float = 0.03, **overrides):
    """Max deviation between the analytic recursion and the nonselective engine.

    Returns a dict with the per-step maximum gap and the final-plateau gap.
    """
    report = run_scenario(scenario, engine="nonselective", **overrides)
    exact = np.asarray(report.series["rho00_exact"])
    analytic = np.asarray(report.series["rho00_analytic"])
    gap = np.abs(exact - analytic)
    return {
        "scenario": scenario,
        "max_gap": float(gap.max()),
        "plateau_gap": float(abs(plateau(exact) - plateau(analytic))),
        "passed": bool(gap.max() < tolerance),
        "report": report,
    }
