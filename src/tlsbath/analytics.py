"""Second-order closed-form layer: conditional measurement maps, outcome
probabilities, ensemble recursion and its exponential solution, attractor and
temperature bounds, freezing criterion, off-diagonal dynamics.

Every map that depends on the environment's inverse temperature beta takes it
as a required argument next to the protocol, ModelParams: beta follows from
the band degeneracies of the environment (model.effective_beta), so
small-environment values are plugged in directly. Throughout, b denotes
beta * delta_b / 2.
"""
from __future__ import annotations

import cmath
import math
import sys
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


def _finite_interference(dt, detuning, delta_s):
    """_interference, refused (_finite, on its first such entry) where a
    factor is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        factors = _interference(dt, detuning, delta_s)
    for name, part in zip(("sinA", "sinB"), factors):
        bad = np.asarray(part)[~np.isfinite(part)]
        if bad.size:
            _finite(name, float(bad[0]))
    return factors


def sinc_factors(params: ModelParams) -> SincFactors:
    """Interference factors; removable singularities handled via sinc."""
    sin_a, sin_b = _finite_interference(params.dt, params.detuning, params.delta_s)
    return SincFactors(sin_a=float(sin_a), sin_b=float(sin_b))


def _weights(b):
    """The weights e^{+-b} / (2 cosh b) of sinA and sinB, elementwise, formed
    as 1 / (1 + e^{-+2b}), which a large |b| takes to 1 and 0, not to
    inf / inf. A NaN b is refused."""
    if np.isnan(b).any():
        raise ValueError("beta delta_b / 2 is NaN: beta is NaN, or infinite at delta_b = 0")
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-2.0 * b)), 1.0 / (1.0 + np.exp(2.0 * b))


def _step(params: ModelParams, beta: float):
    """(a, (w+, w-), sinc factors) of one step: the rate scale a = 8 lam^2
    cosh b, refused where it is not finite, and the weights _weights(b), so
    that a w+- = 4 lam^2 e^{+-b}."""
    b = beta * params.delta_b / 2.0
    sf = sinc_factors(params)
    try:
        lam2 = params.coupling**2
    except OverflowError:  # where float ** overflows, * would give inf
        lam2 = math.inf
    try:
        cosh_b = math.cosh(b)
    except OverflowError:  # math raises where numpy would give inf
        cosh_b = math.inf
    scale = _finite("8 coupling^2 cosh(beta delta_b / 2)",
                    8.0 * _finite("coupling^2", lam2) * cosh_b)
    up, down = _weights(b)
    return scale, (float(up), float(down)), sf


def _warn(message: str) -> None:
    """A SecondOrderWarning at the line that called into this module, however
    deep the call went inside it."""
    frame, level = sys._getframe(), 1
    while frame is not None and frame.f_code.co_filename == __file__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, SecondOrderWarning, stacklevel=level)


def _second_order_rate(scale: float, sf: SincFactors) -> float:
    """Per-step rate R = a (sinA + sinB), a = 8 lam^2 cosh b. Warns when
    R > 0.1, where second-order maps are unreliable."""
    rate = scale * (sf.sin_a + sf.sin_b)
    if rate > 0.1:
        _warn(f"per-step rate R = {rate:.3g} > 0.1: second-order maps unreliable")
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


def relaxation_constants(params: ModelParams, beta: float) -> RelaxationPair:
    """Rate R = a (sinA + sinB), drive d = a (w+ sinA + w- sinB) (_step)."""
    scale, (up, down), sf = _step(params, beta)
    rate = _second_order_rate(scale, sf)
    return RelaxationPair(rate=rate, drive=scale * (up * sf.sin_a + down * sf.sin_b))


def outcome_probabilities(
    rho: QubitState, params: ModelParams, beta: float
) -> tuple[float, float, float]:
    """Probabilities (p_up, p_down, p_same) of the next band measurement."""
    scale, (up, down), sf = _step(params, beta)
    p_up = scale * up * (rho.rho11 * sf.sin_a + rho.rho00 * sf.sin_b)
    p_dn = scale * down * (rho.rho00 * sf.sin_a + rho.rho11 * sf.sin_b)
    p_same = 1.0 - p_up - p_dn
    if p_same < -0.01:
        raise ValueError(
            f"p_same = {p_same:.3g} < -0.01: outside second-order validity"
        )
    clamped = max(0.0, -p_same)
    if clamped > 1e-6:
        _warn(f"probabilities clamped by {clamped:.3g}")
    p_up = min(max(p_up, 0.0), 1.0)
    p_dn = min(max(p_dn, 0.0), 1.0)
    p_same = min(max(p_same, 0.0), 1.0)
    return p_up, p_dn, p_same


def conditional_update(
    rho: QubitState, outcome: str, params: ModelParams, beta: float
) -> QubitState:
    """Post-measurement TLS state conditioned on the band outcome.

    outcome is "same", "up" (one band higher) or "down" (one band lower).
    """
    scale, (up, down), sf = _step(params, beta)
    _second_order_rate(scale, sf)
    k_up, k_dn = scale * up, scale * down   # 4 lam^2 e^{+-b}
    r00, r11, r10 = rho.rho00, rho.rho11, rho.rho10

    if outcome == "same":
        new00 = r00 * (1.0 - r11 * (k_dn - k_up) * (sf.sin_a - sf.sin_b))
        factor = (
            1.0
            + sf.sin_a * (k_dn * r00 + k_up * r11)
            + sf.sin_b * (k_up * r00 + k_dn * r11)
            - scale / 4.0 * _phase_sum(params)
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


def ensemble_map(rho00bar: float, params: ModelParams, beta: float) -> float:
    """One step of the ensemble recursion, (1 - R) rho00bar + d."""
    rel = relaxation_constants(params, beta)
    return (1.0 - rel.rate) * rho00bar + rel.drive


def rho00_closed_form(rho00_initial: float, j, params: ModelParams, beta: float):
    """Exponential solution (rho00(0) - rho00*) e^{-R j} + rho00*, rho00* of
    `attractor`; constant at a freezing point or where R = 0."""
    rate = relaxation_constants(params, beta).rate
    att = attractor(params, beta)
    j = np.asarray(j, dtype=float)
    if att is None or rate == 0.0:
        return rho00_initial * np.ones_like(j)
    star = att.rho00_star
    return (rho00_initial - star) * np.exp(-rate * j) + star


def attractor_rho00(dt, detuning, delta_s: float, beta: float):
    """Vectorized attractor occupation over (dt, detuning) arrays; NaN where
    frozen (_frozen: both interference factors vanish) and there alone:
    elsewhere it divides by sinA + sinB > 0, with weights (_weights) that
    stay finite at any beta but NaN, which is refused, as is an interference
    factor that is not finite."""
    dt = np.asarray(dt, dtype=float)
    detuning = np.asarray(detuning, dtype=float)
    sin_a, sin_b = _finite_interference(dt, detuning, delta_s)
    frozen = _frozen(dt, sin_a, sin_b)
    safe = np.where(frozen, 1.0, sin_a + sin_b)
    with np.errstate(over="ignore", invalid="ignore"):  # b = +-inf or NaN: _weights
        up, down = _weights(beta * (delta_s + detuning) / 2.0)
    return np.where(frozen, np.nan, (up * sin_a + down * sin_b) / safe)


def attractor(params: ModelParams, beta: float) -> AttractorResult | None:
    """Fixed point of the ensemble recursion (attractor_rho00); None where
    that occupation is NaN: at a freezing point."""
    star = float(attractor_rho00(params.dt, params.detuning, params.delta_s, beta))
    if math.isnan(star):
        return None
    return AttractorResult(rho00_star=star, t_eff=effective_temperature(star, params.delta_s))


def temperature_bounds(params: ModelParams, beta: float) -> TemperatureBounds:
    """Extremal attractor temperatures and occupations (_weights) over all dt."""
    if beta == 0.0:
        raise ValueError("temperature bounds require beta != 0")
    up, down = _weights(beta * params.delta_b / 2.0)
    t_min = (params.delta_s / params.delta_b) / beta
    t_max = None if params.detuning == 0.0 else -t_min
    return TemperatureBounds(
        t_min=t_min,
        t_max=t_max,
        rho00_max=float(up),
        rho00_min=float(down),
    )


def is_freezing_point(
    dt: float, detuning: float, delta_s: float
) -> tuple[bool, int | None, int | None]:
    """(frozen, n, m): frozen where both interference factors vanish, which is
    at dt = n pi / delta_s with detuning = 2 m pi / dt (m of either sign)."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if not _frozen(dt, *_finite_interference(dt, detuning, delta_s)):
        return False, None, None
    return True, round(dt * delta_s / math.pi), round(detuning * dt / (2.0 * math.pi))


def offdiag_coeffs(params: ModelParams, beta: float) -> OffdiagCoeffs:
    """Coefficients (c1..c4) of the off-diagonal recursion, plus gamma."""
    pref = _step(params, beta)[0] / 4.0
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


def offdiag_map(rho10bar: complex, params: ModelParams, beta: float) -> complex:
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
