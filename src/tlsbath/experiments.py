"""Scenario runners: figure reproductions, attractor map, analytic sweeps, Zeno
scan, freezing verification and the analytic-vs-exact comparison harness."""
from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import analytics
from .analytics import is_freezing_point, offdiag_coeffs, rho00_closed_form
from .dynamics import ENSEMBLE_STEP_BYTES, run_ensemble
from .model import (
    BandedEnvironment,
    ModelParams,
    QubitState,
    _check_count,
    _check_fits,
    _check_positive,
    _check_real,
    _environment_rng,
    build_band_environment,
    build_spin_environment,
    effective_beta,
)

__all__ = [
    "ScenarioReport",
    "attractor_map",
    "sweep",
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
PLATEAU_FRACTION = 0.2   # trailing share of a series that `plateau` averages
# Bytes a runner holds per step at its peak: the arrays that run_ensemble
# returns (ENSEMBLE_STEP_BYTES) and its own. run_scenario: its step index j
# and analytic overlay (8 + 8) and the five series lists, 32 B an entry (a
# float object and its slot). verify_freezing: |rho10|, j, the rotated rho10
# and its phase (8 + 8 + 16 + 8) and its two series lists.
_SCENARIO_STEP_BYTES = ENSEMBLE_STEP_BYTES + 16 + 5 * 32
_FREEZING_STEP_BYTES = ENSEMBLE_STEP_BYTES + 40 + 2 * 32
# Bytes attractor_map holds at its peak, in analytics.attractor_rho00: six
# float arrays a cell (the two interference factors and their temporaries),
# and at most an axis value and its two weights a point of each axis.
_MAP_CELL_BYTES = 6 * 8
_MAP_AXIS_BYTES = 3 * 8
# Bytes sweep holds a point: its points array and its value and result
# lists, a float object and its slot an entry.
_SWEEP_POINT_BYTES = 8 + 2 * 32


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

    def to_json(self, path) -> None:
        """Stream the report's fields to the file at path as an indented JSON
        document, the series last. The series lists make up most of it,
        about 420 B a step."""
        doc = dict(vars(self))
        doc["series"] = doc.pop("series")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)


def plateau(values: np.ndarray) -> float:
    """Mean over the trailing PLATEAU_FRACTION of a series."""
    values = np.asarray(values)
    tail = max(1, int(math.ceil(PLATEAU_FRACTION * len(values))))
    return float(values[-tail:].mean())


def _check_counts(cfg: dict) -> None:
    """Reject a count that is given but not an integer (a JSON boolean is not
    one): n, k0, steps, n_traj, seed, num or an entry of a grid of two. A seed
    must also be >= 0, and all of them but k0 and seed >= 1."""
    grid = cfg.get("grid")
    if grid is not None and not (isinstance(grid, (list, tuple)) and len(grid) == 2):
        raise ValueError(f"grid must be a list of two integers, got {grid!r}")
    keys = ("n", "k0", "steps", "n_traj", "seed", "num")
    counts = [(key, cfg.get(key)) for key in keys]
    counts += [("grid entry", value) for value in grid or ()]
    for key, value in counts:
        if value is not None:
            _check_count(key, value, {"k0": None, "seed": 0}.get(key, 1))


def default_environment(
    n: int = 7, seed: int = DEFAULT_SEED, model: str = "random-band"
) -> BandedEnvironment:
    """The environment of a named model: "random-band"
    (build_band_environment) or "sigma-x" (build_spin_environment)."""
    return _environment_build(n, seed, model)()


def _environment_build(n, seed, model):
    """default_environment's build, returned unrun after every check that
    needs none of its O(4^n) work: n and seed, the model, then what its
    builder checks first (model._environment_rng)."""
    _check_counts({"n": n, "seed": seed})
    if model not in ("random-band", "sigma-x"):
        raise ValueError(f"unknown environment model {model!r}")
    _environment_rng(n, seed)
    build = build_band_environment if model == "random-band" else build_spin_environment
    return lambda: build(n, seed)


def _real_or(key: str, value, default: float):
    """`value` checked as a finite real number, or `default` when it is None."""
    if value is None:
        return default
    _check_real(key, value)
    return value


def attractor_map(
    dt_min: float | None = None,
    dt_max: float | None = None,
    detuning_min: float | None = None,
    detuning_max: float | None = None,
    grid: tuple[int, int] = (400, 400),
    delta_s: float = 1.0,
    beta: float = 0.75,
):
    """Attractor occupation on `grid` = (dt points, detuning points).

    An axis end left None takes its default, which scales with delta_s: dt
    runs from 0.01 to 4 pi/delta_s and detuning from -0.9 to 3 delta_s.
    Returns (dt_values, detuning_values, rho00, freezing_mask); rho00 is
    indexed [detuning, dt], and the mask is where it is NaN, the freezing
    points of analytics.attractor_rho00.
    """
    _check_counts({"grid": grid})
    _check_real("delta_s", delta_s)
    _check_real("beta", beta)
    _check_positive("delta_s", delta_s)
    dt_ends = (_real_or("dt_min", dt_min, 0.01),
               _real_or("dt_max", dt_max, 4.0 * math.pi / delta_s))
    detuning_ends = (_real_or("detuning_min", detuning_min, -0.9 * delta_s),
                     _real_or("detuning_max", detuning_max, 3.0 * delta_s))
    _check_fits(f"an attractor map of {grid[0]} x {grid[1]} cells",
                grid[0] * grid[1] * _MAP_CELL_BYTES + sum(grid) * _MAP_AXIS_BYTES)
    dts = np.linspace(*dt_ends, grid[0])
    dets = np.linspace(*detuning_ends, grid[1])
    values = analytics.attractor_rho00(dts[None, :], dets[:, None], delta_s, beta)
    return dts, dets, values, np.isnan(values)


# Sweepable quantities: name -> (analytics function, attribute of its result).
# The function is looked up on the module at call time, so that a wrapper put
# on the module (a tracer) sees the call. `attractor` is None at a freezing
# point, where its quantities sweep as NaN.
_SWEEP_QUANTITIES = {
    "R": ("relaxation_constants", "rate"),
    "d": ("relaxation_constants", "drive"),
    "attractor": ("attractor", "rho00_star"),
    "t_eff": ("attractor", "t_eff"),
    **{c: ("offdiag_coeffs", c) for c in ("c1", "c2", "c3", "c4")},
    "rho00_min": ("temperature_bounds", "rho00_min"),
    "rho00_max": ("temperature_bounds", "rho00_max"),
}


def sweep(
    quantity: str | None = None,
    parameter: str = "dt",
    values: list[float] | None = None,
    start: float = 0.0,
    stop: float = math.pi,
    num: int = 101,
    delta_s: float = 1.0,
    detuning: float = 0.0,
    coupling: float = 0.05,
    dt: float = math.pi,
    beta: float = 0.75,
) -> dict[str, list[float]]:
    """One analytic quantity over one `ModelParams` field or `beta`, the
    others fixed.

    The parameter takes `values` if given, else `num` points from `start` to
    `stop`. The fixed fields, with the swept one at its given or default
    value, must form a valid `ModelParams`, and `beta` must be a finite real.
    A point whose own value is invalid there, or where the quantity is
    undefined, gives NaN. Returns the columns {parameter: values, quantity:
    results} as lists of floats.
    """
    if quantity not in _SWEEP_QUANTITIES:
        raise ValueError(
            f"unknown quantity {quantity!r}; choose from {sorted(_SWEEP_QUANTITIES)}"
        )
    base = {
        "delta_s": delta_s,
        "detuning": detuning,
        "coupling": coupling,
        "dt": dt,
        "beta": beta,
    }
    if parameter not in base:
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; choose from {sorted(base)}"
        )

    def point(value):
        """The protocol and beta with the swept parameter at value."""
        protocol = {**base, parameter: value}
        beta_v = protocol.pop("beta")
        return ModelParams(**protocol), beta_v

    for key, value in base.items():  # every one a real before any range check
        _check_real(key, value)
    point(base[parameter])
    _check_counts({"num": num})
    _check_real("start", start)
    _check_real("stop", stop)
    if values is None:
        _check_fits(f"a sweep of {num} points", num * _SWEEP_POINT_BYTES)
        values = np.linspace(start, stop, num).tolist()
    elif not isinstance(values, (list, tuple)):
        raise ValueError(f"values must be a list, got {values!r}")
    for value in values:
        _check_real("values entry", value)
    values = [float(value) for value in values]
    function, attr = _SWEEP_QUANTITIES[quantity]
    results = []
    for value in values:
        try:
            result = getattr(analytics, function)(*point(value))
        except ValueError:
            result = None
        results.append(math.nan if result is None else float(getattr(result, attr)))
    return {parameter: values, quantity: results}


_COMMON_DEFAULTS = {
    "delta_s": 1.0,
    "n": 7,
    "k0": 2,
    "rho0": GROUND,
    "engine": "nonselective",
    "n_traj": None,
    "seed": DEFAULT_SEED,
    "steps": None,
    "model": "random-band",
}
_RELAX_DEFAULTS = {**_COMMON_DEFAULTS, "reset_mode": "coarse", "tolerance": 0.03}

# Relaxation scenarios: name -> (defaults, beta_eff band pair relative to k0).
_SCENARIOS = {
    # Only bands k0 and k0-1 participate at resonance with dt = pi/delta_s.
    "fig2": (
        {**_RELAX_DEFAULTS, "detuning": 0.0, "coupling": 0.05, "dt": math.pi},
        (-1, 0),
    ),
    # The counter-rotating channel drives k0 -> k0+1 only. The resonant
    # channel here is weak (its sinc factor is ~0.026), so fourth-order
    # leakage competes at coupling 0.05 over the ~6e4 steps the transient
    # needs. 0.025 keeps the exact run inside the analytic regime.
    "fig3": (
        {
            **_RELAX_DEFAULTS,
            "detuning": 0.7,
            "coupling": 0.025,
            "dt": 2.0 * math.pi / 0.7,
        },
        (0, 1),
    ),
}

# The freezing check, in the same form; virtual transitions run through both
# neighbor bands. It always runs coarse reset and its drift bound follows from
# the coupling. Not in _SCENARIOS: a freezing point has no attractor to relax to.
_FREEZING = (
    {
        **_COMMON_DEFAULTS,
        "detuning": 2.0,
        "coupling": 0.05,
        "dt": math.pi,
        "rho0": QubitState(rho00=0.3, rho10=0.35 + 0.0j),
        "steps": 500,
    },
    (-1, 1),
)


def _resolve(name: str, table: tuple, overrides: dict):
    """Merge overrides into a (defaults, band pair) entry and check them.

    Returns (cfg, params, beta_eff), where beta_eff comes from the band pair
    around k0, both of whose bands must lie in 0..n.
    """
    defaults, (lo, hi) = table
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise ValueError(f"unknown {name} override(s) {unknown}")
    # A None override means the default, as a null config value does.
    cfg = {**defaults, **{k: v for k, v in overrides.items() if v is not None}}
    _check_counts(cfg)
    if "tolerance" in cfg:
        _check_real("tolerance", cfg["tolerance"])
        if cfg["tolerance"] < 0:
            raise ValueError(f"tolerance must be >= 0, got {cfg['tolerance']}")
    params = ModelParams(**{f.name: cfg[f.name] for f in fields(ModelParams)})
    n, k0 = cfg["n"], cfg["k0"]
    if not -lo <= k0 <= n - hi:
        raise ValueError(f"{name} needs {-lo} <= k0 <= {n - hi} at n = {n}, got k0 = {k0}")
    beta_eff = effective_beta(n, k0 + lo, k0 + hi, params.delta_b)
    return cfg, params, beta_eff


def _run(cfg: dict, params: ModelParams, beta_eff: float):
    """Step a resolved run on its default environment; returns the series and
    the report's record of the run's parameters."""
    env = default_environment(n=cfg["n"], seed=cfg["seed"], model=cfg["model"])
    series = run_ensemble(params, env, cfg["rho0"], k0=cfg["k0"], steps=cfg["steps"],
                          n_traj=cfg["n_traj"], master_seed=cfg["seed"],
                          reset_mode=cfg["reset_mode"], engine=cfg["engine"])
    keys = ("n", "k0", "steps", "engine", "reset_mode", "n_traj", "model")
    record = {**asdict(params), "beta_eff": beta_eff, **{key: cfg[key] for key in keys},
              "rho00_initial": cfg["rho0"].rho00}
    return series, record


def _report(t0: float, cfg: dict, **entries) -> ScenarioReport:
    """The report of a run on cfg that started at t0: the report fields
    given as entries, the wall time since t0 and the master seed."""
    return ScenarioReport(
        **entries, wall_time=time.perf_counter() - t0, seeds={"master_seed": cfg["seed"]}
    )


def run_scenario(scenario: str = "fig2", **overrides) -> ScenarioReport:
    """Relaxation toward the analytic attractor of the scenario's band pair.

    Overrides must name keys of the scenario's defaults. The run passes when
    its plateau lies within `tolerance` of the attractor at its own n and k0.
    """
    if scenario not in _SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    t0 = time.perf_counter()
    cfg, params, beta_eff = _resolve(scenario, _SCENARIOS[scenario], overrides)
    att = analytics.attractor(params, beta_eff)
    if att is None:
        raise ValueError(
            f"(dt={params.dt}, detuning={params.detuning}) is a freezing point: "
            "there is no attractor to relax to"
        )
    rate = analytics.relaxation_constants(params, beta_eff).rate
    if cfg["steps"] is None:
        # R = 0 at zero coupling; below ~1e-308 the quotient overflows.
        length = 8.0 / rate if rate > 0 else math.inf
        if not math.isfinite(length):
            raise ValueError(f"the relaxation rate R = {rate:.3g} gives no finite "
                             "default run length ceil(8 / R): give steps")
        cfg["steps"] = int(math.ceil(length))
    _check_fits(f"a scenario of {cfg['steps']} steps", cfg["steps"] * _SCENARIO_STEP_BYTES)
    series, record = _run(cfg, params, beta_eff)
    j = np.arange(cfg["steps"] + 1)
    overlay = rho00_closed_form(cfg["rho0"].rho00, j, params, beta_eff)
    level = plateau(series.rho00)
    return _report(
        t0, cfg,
        scenario=scenario,
        params=record,
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
        extra={
            "rate_analytic": rate,
            "t_eff": analytics.effective_temperature(level, params.delta_s),
            # Worst-case band-adjacency leakage of one step.
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
    beta: float,
    with_exact: bool = False,
    n: int = 7,
    k0: int = 2,
    seed: int = DEFAULT_SEED,
):
    """Relaxation rate versus measurement period at the environment's inverse
    temperature beta; optional exact half-life on one environment of n spins.

    Returns a list of dicts {dt, rate, half_life_exact}; the half-life is None
    where there is no attractor (a freezing point) or R = 0. An exact run
    lasts ceil(6 / R) steps, at most 100 000.
    """
    env = default_environment(n=n, seed=seed) if with_exact else None
    rows = []
    for dt in dt_list:
        p = replace(params, dt=float(dt))
        rate = analytics.relaxation_constants(p, beta).rate
        att = analytics.attractor(p, beta) if with_exact and rate > 0 else None
        half_life = None
        if att is not None:
            # Capped before ceil: 6 / R overflows to inf below R ~ 3e-308.
            steps = math.ceil(min(6.0 / rate, 100_000))
            series = run_ensemble(
                p, env, GROUND, k0=k0, steps=steps, engine="nonselective"
            )
            gap0 = abs(series.rho00[0] - att.rho00_star)
            below = np.nonzero(np.abs(series.rho00 - att.rho00_star) <= gap0 / 2.0)[0]
            half_life = int(below[0]) if len(below) else None
        rows.append({"dt": float(dt), "rate": rate, "half_life_exact": half_life})
    return rows


def verify_freezing(**overrides) -> ScenarioReport:
    """Exact-engine state freezing at dt = n pi/delta_s, detuning = 2 m pi/dt.

    Overrides must name keys of the freezing check's defaults table,
    `_FREEZING`; the run always uses coarse reset. Checks that populations and
    coherence magnitude stay put and extracts the slow off-diagonal phase
    advance per step for comparison with c2.
    """
    t0 = time.perf_counter()
    cfg, params, beta_eff = _resolve("freezing", _FREEZING, overrides)
    frozen, nn, mm = is_freezing_point(params.dt, params.detuning, params.delta_s)
    if not frozen:
        raise ValueError(
            f"(dt={params.dt}, detuning={params.detuning}) is not a freezing point"
        )
    # Formed before the run, so that parameters too large for it fail first.
    c2 = offdiag_coeffs(params, beta_eff).c2
    _check_fits(f"a freezing check of {cfg['steps']} steps",
                cfg["steps"] * _FREEZING_STEP_BYTES)
    series, record = _run({**cfg, "reset_mode": "coarse"}, params, beta_eff)
    drift00 = float(np.max(np.abs(series.rho00 - series.rho00[0])))
    mags = np.abs(series.rho10)
    drift10 = float(np.max(np.abs(mags - mags[0])))
    # Interaction-picture phase: remove the free TLS rotation e^{-i delta_s dt j}.
    j = np.arange(cfg["steps"] + 1)
    rot = series.rho10 * np.exp(1j * params.delta_s * params.dt * j)
    phase = np.unwrap(np.angle(rot))
    slope = float(np.polyfit(j, phase, 1)[0])
    bound = 10.0 * params.coupling**2
    passed = drift00 <= bound and drift10 <= bound
    return _report(
        t0, cfg,
        scenario="freezing",
        params=record,
        series={
            "rho00": series.rho00.tolist(),
            "abs_rho10": mags.tolist(),
        },
        plateau=float(series.rho00[-1]),
        target=float(series.rho00[0]),
        tolerance=bound,
        passed=passed,
        extra={
            "matched_n": nn,
            "matched_m": mm,
            "drift_rho00": drift00,
            "drift_abs_rho10": drift10,
            "phase_per_step": slope,
            "c2_analytic": c2,
            "leakage_bound": series.leakage_bound,
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
