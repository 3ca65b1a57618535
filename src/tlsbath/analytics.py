"""Second-order closed-form layer: conditional measurement maps, outcome
probabilities, ensemble recursion and its exponential solution, attractor and
temperature bounds, freezing criterion, off-diagonal dynamics.

All operations take the inverse temperature as an explicit argument (falling
back to params.beta) so that small-environment effective values can be plugged
in directly. Throughout, b denotes beta * delta_b / 2.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, QubitState

__all__ = [
    "SecondOrderWarning",
    "SincFactors",
    "RelaxationPair",
    "OffdiagCoeffs",
    "AttractorResult",
    "TemperatureBounds",
    "sinc_factors",
    "conditional_update",
    "outcome_probabilities",
    "ensemble_map",
    "relaxation_constants",
    "rho00_closed_form",
    "attractor",
    "attractor_rho00",
    "temperature_bounds",
    "is_freezing_point",
    "offdiag_coeffs",
    "offdiag_closed_form",
    "offdiag_map",
    "effective_temperature",
]


class SecondOrderWarning(UserWarning):
    """Per-step relaxation too large for the second-order expansion."""


@dataclass(frozen=True)
class SincFactors:
    """Squared-sinc interference factors (units time^2)."""

    sin_a: float   # sin^2(detuning*dt/2) / detuning^2
    sin_b: float   # sin^2((delta_s + detuning/2)*dt) / (2*delta_s + detuning)^2


@dataclass(frozen=True)
class RelaxationPair:
    """Per-measurement relaxation rate and drive of the ensemble recursion."""

    rate: float
    drive: float


@dataclass(frozen=True)
class OffdiagCoeffs:
    """Per-step coefficients of the coupled off-diagonal recursion."""

    c1: float
    c2: float
    c3: float
    c4: float
    gamma: complex   # sqrt(-c2^2 + c3^2 + c4^2), real or purely imaginary


@dataclass(frozen=True)
class AttractorResult:
    rho00_star: float
    rate: float
    drive: float
    t_eff: float


@dataclass(frozen=True)
class TemperatureBounds:
    t_min: float
    t_max: float | None   # None when inversion is unreachable (resonant case)
    rho00_max: float
    rho00_min: float


def _sinc_sq(x):
    return np.sinc(np.asarray(x) / np.pi) ** 2


def _interference(dt, detuning, delta_s):
    """(sinA, sinB) of SincFactors, elementwise over arrays; removable
    singularities handled via sinc."""
    quarter = dt * dt / 4.0
    return (
        quarter * _sinc_sq(detuning * dt / 2.0),
        quarter * _sinc_sq((delta_s + detuning / 2.0) * dt),
    )


def _frozen(dt, sin_a, sin_b):
    """The freezing test, elementwise: both interference factors vanish."""
    return sin_a + sin_b <= 1e-15 * np.maximum(dt * dt, 1e-300)


def _finite(name: str, value: float) -> float:
    """value, refused where it overflowed into inf or NaN."""
    if not math.isfinite(value):
        raise ValueError(f"{name} = {value} is not finite: the parameters are too large")
    return value


def _point_interference(dt: float, detuning: float, delta_s: float):
    """_interference at one point, as floats, refused where not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        sin_a, sin_b = _interference(dt, detuning, delta_s)
    return _finite("sinA", float(sin_a)), _finite("sinB", float(sin_b))


def sinc_factors(params: ModelParams) -> SincFactors:
    """Interference factors; removable singularities handled via sinc."""
    sin_a, sin_b = _point_interference(params.dt, params.detuning, params.delta_s)
    return SincFactors(sin_a=sin_a, sin_b=sin_b)


def _boltzmann(b: float) -> tuple[float, float, float]:
    """(e^b, e^-b, cosh b), refused where one is not finite; math raises
    OverflowError where numpy would give inf."""
    _finite("beta delta_b / 2", b)
    try:
        return math.exp(b), math.exp(-b), math.cosh(b)
    except OverflowError:
        raise ValueError(f"cosh(beta delta_b / 2) with beta delta_b / 2 = {b} is not "
                         "finite: the parameters are too large") from None


def _step(params: ModelParams, beta: float | None):
    """((e^b, e^-b, cosh b), sinc factors, lam^2) of one step; beta None means
    params.beta."""
    bv = params.beta if beta is None else beta
    try:
        lam2 = params.coupling**2
    except OverflowError:  # where float ** overflows, * would give inf
        lam2 = math.inf
    return (_boltzmann(bv * params.delta_b / 2.0), sinc_factors(params),
            _finite("coupling^2", lam2))


def _second_order_rate(cosh_b: float, sf: SincFactors, lam2: float) -> float:
    """Per-step rate R = 8 lam^2 cosh(b) (sinA + sinB). Warns, on behalf of the
    caller's caller, when R > 0.1, where second-order maps are unreliable."""
    rate = 8.0 * lam2 * cosh_b * (sf.sin_a + sf.sin_b)
    if rate > 0.1:
        warnings.warn(
            f"per-step rate R = {rate:.3g} > 0.1: second-order maps unreliable",
            SecondOrderWarning,
            stacklevel=3,
        )
    return rate


def _phase_integral(alpha: float, dt: float) -> complex:
    """(1 - e^{i*alpha*dt} + i*alpha*dt) / alpha^2, with the alpha -> 0 limit."""
    y = alpha * dt
    if abs(y) < 1e-6:
        return dt * dt * (0.5 + 1j * y / 6.0 - y * y / 24.0)
    return (1.0 - cmath.exp(1j * y) + 1j * y) / (alpha * alpha)


def _phase_sum(params: ModelParams) -> complex:
    """_phase_integral summed over detuning and 2 delta_s + detuning."""
    return _phase_integral(params.detuning, params.dt) + _phase_integral(
        2.0 * params.delta_s + params.detuning, params.dt
    )


def _conjugate_coupling(params: ModelParams) -> complex:
    """(1 + e^{2i*delta_s*dt} - 2 e^{i*delta_s*dt} cos((delta_s+detuning)*dt))
    divided by (2*delta_s*detuning + detuning^2), with the detuning -> 0 limit."""
    dt = params.dt
    x = params.delta_s * dt
    u = params.detuning * dt
    two_ds = 2.0 * params.delta_s + params.detuning
    if abs(u) < 1e-6:
        small = math.cos(x) * u / 2.0 + math.sin(x) * (1.0 - u * u / 6.0)
        return 2.0 * cmath.exp(1j * x) * small * dt / two_ds
    k = 1.0 + cmath.exp(2j * x) - 2.0 * cmath.exp(1j * x) * math.cos(
        (params.delta_s + params.detuning) * dt
    )
    return k / (params.detuning * two_ds)


def relaxation_constants(params: ModelParams, beta: float | None = None) -> RelaxationPair:
    """Rate R = 8 lam^2 cosh(b) (sinA + sinB), drive d = 4 lam^2 (e^b sinA + e^-b sinB)."""
    (eb, emb, cosh_b), sf, lam2 = _step(params, beta)
    rate = _second_order_rate(cosh_b, sf, lam2)
    drive = 4.0 * lam2 * (eb * sf.sin_a + emb * sf.sin_b)
    return RelaxationPair(rate=rate, drive=drive)


def outcome_probabilities(
    rho: QubitState, params: ModelParams, beta: float | None = None
) -> tuple[float, float, float]:
    """Probabilities (p_up, p_down, p_same) of the next band measurement."""
    (eb, emb, _), sf, lam2 = _step(params, beta)
    p_up = 4.0 * lam2 * eb * (rho.rho11 * sf.sin_a + rho.rho00 * sf.sin_b)
    p_dn = 4.0 * lam2 * emb * (rho.rho00 * sf.sin_a + rho.rho11 * sf.sin_b)
    p_same = 1.0 - p_up - p_dn
    if p_same < -0.01:
        raise ValueError(
            f"p_same = {p_same:.3g} < -0.01: outside second-order validity"
        )
    clamped = max(0.0, -p_same)
    if clamped > 1e-6:
        warnings.warn(
            f"probabilities clamped by {clamped:.3g}", SecondOrderWarning, stacklevel=2
        )
    p_up = min(max(p_up, 0.0), 1.0)
    p_dn = min(max(p_dn, 0.0), 1.0)
    p_same = min(max(p_same, 0.0), 1.0)
    return p_up, p_dn, p_same


def conditional_update(
    rho: QubitState, outcome: str, params: ModelParams, beta: float | None = None
) -> QubitState:
    """Post-measurement TLS state conditioned on the band outcome.

    outcome is "same", "up" (one band higher) or "down" (one band lower).
    """
    (eb, emb, cosh_b), sf, lam2 = _step(params, beta)
    _second_order_rate(cosh_b, sf, lam2)
    r00, r11, r10 = rho.rho00, rho.rho11, rho.rho10

    if outcome == "same":
        new00 = r00 * (1.0 - 4.0 * lam2 * r11 * (emb - eb) * (sf.sin_a - sf.sin_b))
        factor = 1.0 + lam2 * (
            4.0 * sf.sin_a * (emb * r00 + eb * r11)
            + 4.0 * sf.sin_b * (eb * r00 + emb * r11)
            - (eb + emb) * _phase_sum(params)
        )
        new10 = r10 * factor
    elif outcome in ("up", "down"):
        if outcome == "up":
            denom = r11 * sf.sin_a + r00 * sf.sin_b
            num = r11 * sf.sin_a
        else:
            denom = r11 * sf.sin_b + r00 * sf.sin_a
            num = r11 * sf.sin_b
        if denom <= 0.0:
            raise ValueError(
                f"outcome {outcome!r} impossible: both interference factors vanish"
            )
        new00 = num / denom
        new10 = np.conjugate(r10) * _conjugate_coupling(params) / (4.0 * denom)
    else:
        raise ValueError(f"unknown outcome {outcome!r}")

    new00 = min(max(float(np.real(new00)), 0.0), 1.0)
    # Cap the coherence at the positivity bound of the renormalized state.
    cap = math.sqrt(max(new00 * (1.0 - new00), 0.0))
    mag = abs(new10)
    if mag > cap > 0.0:
        new10 = new10 * (cap / mag)
    elif cap == 0.0:
        new10 = 0.0j
    return QubitState(rho00=new00, rho10=complex(new10))


def ensemble_map(
    rho00bar: float, params: ModelParams, beta: float | None = None
) -> float:
    """One step of the ensemble recursion, (1 - R) rho00bar + d."""
    rel = relaxation_constants(params, beta)
    return (1.0 - rel.rate) * rho00bar + rel.drive


def rho00_closed_form(
    rho00_initial: float, j, params: ModelParams, beta: float | None = None
):
    """Exponential solution (rho00(0) - d/R) e^{-R j} + d/R; constant when R = 0."""
    rel = relaxation_constants(params, beta)
    j = np.asarray(j, dtype=float)
    if rel.rate == 0.0:
        return rho00_initial * np.ones_like(j)
    star = rel.drive / rel.rate
    return (rho00_initial - star) * np.exp(-rel.rate * j) + star


def _attractor_cells(dt, detuning, delta_s: float, beta: float):
    """(rho00, frozen) over (dt, detuning) arrays: the attractor occupation,
    NaN where frozen, and the freezing test (_frozen) itself.

    The weights e^{+-b} / (2 cosh b) of sinA and sinB are formed as
    1 / (1 + e^{-+2b}), which a large |b| takes to 0 and 1, not to inf / inf.
    """
    dt = np.asarray(dt, dtype=float)
    detuning = np.asarray(detuning, dtype=float)
    sin_a, sin_b = _interference(dt, detuning, delta_s)
    b = beta * (delta_s + detuning) / 2.0
    frozen = _frozen(dt, sin_a, sin_b)
    safe = np.where(frozen, 1.0, sin_a + sin_b)
    with np.errstate(over="ignore"):
        up, down = 1.0 / (1.0 + np.exp(-2.0 * b)), 1.0 / (1.0 + np.exp(2.0 * b))
    return np.where(frozen, np.nan, (up * sin_a + down * sin_b) / safe), frozen


def attractor_rho00(dt, detuning, delta_s: float, beta: float):
    """Vectorized attractor occupation over (dt, detuning) arrays; NaN where
    frozen (both interference factors vanish)."""
    return _attractor_cells(dt, detuning, delta_s, beta)[0]


def attractor(
    params: ModelParams, beta: float | None = None
) -> AttractorResult | None:
    """Fixed point d/R of the ensemble recursion; None at a freezing point."""
    bv = params.beta if beta is None else beta
    rel = relaxation_constants(params, bv)
    cell, frozen = _attractor_cells(params.dt, params.detuning, params.delta_s, bv)
    if frozen:
        return None
    star = float(cell)
    return AttractorResult(
        rho00_star=star,
        rate=rel.rate,
        drive=rel.drive,
        t_eff=effective_temperature(star, params.delta_s),
    )


def temperature_bounds(
    params: ModelParams, beta: float | None = None
) -> TemperatureBounds:
    """Extremal attractor temperatures and occupations over all dt choices."""
    bv = params.beta if beta is None else beta
    if bv == 0.0:
        raise ValueError("temperature bounds require beta != 0")
    eb, emb, cosh_b = _boltzmann(bv * params.delta_b / 2.0)
    t_min = (params.delta_s / params.delta_b) / bv
    t_max = None if params.detuning == 0.0 else -t_min
    return TemperatureBounds(
        t_min=t_min,
        t_max=t_max,
        rho00_max=eb / (2.0 * cosh_b),
        rho00_min=emb / (2.0 * cosh_b),
    )


def is_freezing_point(
    dt: float, detuning: float, delta_s: float
) -> tuple[bool, int | None, int | None]:
    """(frozen, n, m): frozen where both interference factors vanish, which is
    at dt = n pi / delta_s with detuning = 2 m pi / dt (m of either sign)."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if not _frozen(dt, *_point_interference(dt, detuning, delta_s)):
        return False, None, None
    return True, round(dt * delta_s / math.pi), round(detuning * dt / (2.0 * math.pi))


def offdiag_coeffs(params: ModelParams, beta: float | None = None) -> OffdiagCoeffs:
    """Coefficients (c1..c4) of the off-diagonal recursion, plus gamma."""
    (_, _, cosh_b), _, lam2 = _step(params, beta)
    pref = 2.0 * lam2 * cosh_b
    phases = _phase_sum(params)
    c1 = -pref * phases.real
    c2 = -pref * phases.imag
    cc = pref * _conjugate_coupling(params)
    c3, c4 = cc.real, cc.imag
    gamma = cmath.sqrt(complex(-c2 * c2 + c3 * c3 + c4 * c4))
    return OffdiagCoeffs(c1=c1, c2=c2, c3=c3, c4=c4, gamma=gamma)


def _sinhc(z: complex) -> complex:
    if abs(z) < 1e-4:
        z2 = z * z
        return 1.0 + z2 / 6.0 + z2 * z2 / 120.0
    return cmath.sinh(z) / z


def offdiag_closed_form(
    rho10_initial: complex, j: float, coeffs: OffdiagCoeffs
) -> tuple[complex, float]:
    """Closed-form off-diagonal element after j measurements and its modulus."""
    x0 = rho10_initial.real
    y0 = rho10_initial.imag
    g = coeffs.gamma
    # sinh(gamma j)/gamma and cosh(gamma j), both even in gamma (branch-free).
    s = j * _sinhc(g * j)
    ch = cmath.cosh(g * j)
    env = math.exp(coeffs.c1 * j)
    x = env * ((coeffs.c3 * s + ch) * x0 + (coeffs.c4 - coeffs.c2) * s * y0)
    y = env * ((coeffs.c2 + coeffs.c4) * s * x0 + (-coeffs.c3 * s + ch) * y0)
    # gamma^2 is real, so x and y are real up to rounding.
    value = complex(x.real, y.real)
    return value, abs(value)


def offdiag_map(
    rho10bar: complex, params: ModelParams, beta: float | None = None
) -> complex:
    """One step of the coupled off-diagonal recursion."""
    c = offdiag_coeffs(params, beta)
    return (
        rho10bar
        + rho10bar * complex(c.c1, c.c2)
        + np.conjugate(rho10bar) * complex(c.c3, c.c4)
    )


def effective_temperature(rho00: float, delta_s: float) -> float:
    """Gibbs-ratio temperature delta_s / ln(rho00/rho11); signed, inf at 1/2.

    The boundary values rho00 in {0, 1} map to the zero-temperature limits
    -0.0 and +0.0 respectively.
    """
    if not 0.0 <= rho00 <= 1.0:
        raise ValueError(f"rho00 = {rho00} outside [0, 1]")
    if rho00 == 0.5:
        return math.inf
    if rho00 == 1.0:
        return 0.0
    if rho00 == 0.0:
        return -0.0
    return delta_s / math.log(rho00 / (1.0 - rho00))
