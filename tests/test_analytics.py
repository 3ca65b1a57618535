import cmath
import math
import warnings

import numpy as np
import pytest

from tlsbath.analytics import (
    SecondOrderWarning,
    attractor,
    attractor_rho00,
    conditional_update,
    effective_temperature,
    ensemble_map,
    is_freezing_point,
    offdiag_closed_form,
    offdiag_coeffs,
    offdiag_map,
    outcome_probabilities,
    relaxation_constants,
    rho00_closed_form,
    sinc_factors,
    temperature_bounds,
)
from tlsbath.model import ModelParams, QubitState


def params(delta_s=1.0, detuning=0.0, coupling=0.05, dt=math.pi):
    return ModelParams(
        delta_s=delta_s, detuning=detuning, coupling=coupling, dt=dt
    )


class TestSincFactors:
    def test_resonant_limit(self):
        sf = sinc_factors(params(detuning=0.0, dt=1.3))
        assert sf.sin_a == pytest.approx(1.3**2 / 4.0, rel=1e-12)
        sf2 = sinc_factors(params(detuning=0.0, dt=math.pi))
        assert sf2.sin_b == pytest.approx(0.0, abs=1e-25)

    def test_full_detuning_period(self):
        sf = sinc_factors(params(detuning=0.7, dt=2 * math.pi / 0.7))
        assert sf.sin_a == pytest.approx(0.0, abs=1e-25)

    def test_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = params(
                delta_s=rng.uniform(0.2, 3.0),
                detuning=rng.uniform(-0.15, 3.0),
                dt=rng.uniform(0.0, 10.0),
            )
            sf = sinc_factors(p)
            assert 0.0 <= sf.sin_a <= p.dt**2 / 4.0 + 1e-15
            assert 0.0 <= sf.sin_b <= p.dt**2 / 4.0 + 1e-15
            if p.detuning != 0.0:
                assert sf.sin_a <= 1.0 / p.detuning**2 + 1e-15
            assert sf.sin_b <= 1.0 / (2 * p.delta_s + p.detuning) ** 2 + 1e-15

    def test_series_branch_continuity(self):
        below = sinc_factors(params(detuning=0.999e-6, dt=0.5)).sin_a
        above = sinc_factors(params(detuning=1.001e-6, dt=0.5)).sin_a
        assert below == pytest.approx(above, rel=1e-10)


class TestConditionalUpdate:
    def test_up_from_excited(self):
        q = QubitState(rho00=0.0)
        out = conditional_update(q, "up", params(dt=1.0), beta=0.3)
        assert out.rho00 == pytest.approx(1.0)

    def test_down_from_ground(self):
        out = conditional_update(QubitState(rho00=1.0), "down", params(dt=1.0), 0.3)
        assert out.rho00 == pytest.approx(0.0)

    def test_same_zero_coupling_identity(self):
        q = QubitState(rho00=0.42, rho10=0.1 - 0.3j)
        out = conditional_update(q, "same", params(coupling=0.0), 0.5)
        assert out.rho00 == pytest.approx(q.rho00)
        assert out.rho10 == pytest.approx(q.rho10)

    def test_impossible_jump_rejected(self):
        # both interference factors vanish identically at dt=0
        p = params(dt=0.0)
        with pytest.raises(ValueError):
            conditional_update(QubitState(rho00=0.5), "up", p, 0.3)

    def test_unknown_outcome(self):
        with pytest.raises(ValueError):
            conditional_update(QubitState(rho00=0.5), "sideways", params(), 0.3)

    def test_coherence_capped_at_positivity_bound(self):
        """A pure state's second-order coherence after a "same" outcome can
        exceed the positivity bound of its new populations; it is then
        scaled onto that bound, its phase kept. The map is linear in rho10
        below the cap, so the uncapped value is twice that of half the
        coherence."""
        p = params(detuning=0.7)
        out = conditional_update(QubitState(rho00=0.5, rho10=0.5), "same", p, 1.0)
        half = conditional_update(QubitState(rho00=0.5, rho10=0.25), "same", p, 1.0)
        raw, bound = 2.0 * half.rho10, math.sqrt(out.rho00 * out.rho11)
        assert half.rho00 == out.rho00 and abs(raw) > (1.0 + 1e-4) * bound
        assert out.rho10 == pytest.approx(raw * bound / abs(raw), rel=1e-12)

    def test_validity_warning(self):
        p = params(coupling=0.4, dt=3.0)
        with pytest.warns(SecondOrderWarning):
            conditional_update(QubitState(rho00=0.5), "same", p, 0.2)

    @pytest.mark.parametrize(
        "coupling, low, high",
        [(0.05, 0.0, 0.1), (0.08, 0.1, 0.2), (0.1, 0.1, 0.2), (0.15, 0.2, 1.0)],
    )
    def test_warns_exactly_with_relaxation_constants(self, coupling, low, high):
        """Every map warns once where R > 0.1, 0.1 < R <= 0.2 included, and
        each warning points at the line that called the map, also where the
        map reaches R through another public map."""
        p = params(coupling=coupling)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rate = relaxation_constants(p, 0.3).rate
        assert low < rate <= high
        for call in (
            lambda: relaxation_constants(p, 0.3),
            lambda: conditional_update(QubitState(rho00=0.5), "same", p, 0.3),
            lambda: ensemble_map(0.5, p, 0.3),
            lambda: rho00_closed_form(0.5, [0, 10], p, 0.3),
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert len(caught) == (rate > 0.1)
            assert all(w.filename == __file__ for w in caught)


class TestOutcomeProbabilities:
    def test_zero_coupling(self):
        up, down, same = outcome_probabilities(
            QubitState(rho00=0.6), params(coupling=0.0), 0.4
        )
        assert (up, down, same) == (0.0, 0.0, 1.0)

    def test_ground_without_up_channel(self):
        p = params(detuning=0.0, dt=math.pi)  # sinB = 0
        up, down, same = outcome_probabilities(QubitState(rho00=1.0), p, math.log(3))
        assert up == pytest.approx(0.0, abs=1e-20)
        assert down == pytest.approx(
            4 * 0.0025 * math.exp(-math.log(3) / 2) * math.pi**2 / 4, rel=1e-12
        )
        assert down == pytest.approx(0.014246, abs=1e-6)

    def test_clamped_in_band_and_refused_below(self):
        """p_same between -0.01 and -1e-6 is clamped to 0 with a warning;
        below -0.01 the call is refused."""
        p = params(coupling=0.3)
        with pytest.warns(SecondOrderWarning, match="probabilities clamped"):
            up, down, same = outcome_probabilities(QubitState(rho00=0.786), p, 3.0)
        assert same == 0.0 and 1.0 < up + down < 1.01
        with pytest.raises(ValueError, match="outside second-order validity"):
            outcome_probabilities(QubitState(rho00=0.0), p, 3.0)

    def test_sum_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            p = params(
                delta_s=rng.uniform(0.3, 2.0),
                detuning=rng.uniform(-0.2, 2.0),
                dt=rng.uniform(0.1, 3.0),
            )
            beta = rng.uniform(-1.0, 1.0)
            up, down, same = outcome_probabilities(
                QubitState(rho00=rng.uniform(0, 1)), p, beta
            )
            bound = (
                8 * p.coupling**2
                * math.cosh(beta * p.delta_b / 2)
                * p.dt**2 / 2
            )
            assert up + down <= bound + 1e-15
            assert same == pytest.approx(1.0 - up - down)


class TestRelaxation:
    def test_zero_dt(self):
        assert relaxation_constants(params(dt=0.0), 0.75).rate == 0.0

    def test_freezing_point_rate_vanishes(self):
        rel = relaxation_constants(params(detuning=2.0, dt=math.pi), 0.75)
        assert rel.rate == pytest.approx(0.0, abs=1e-25)

    def test_reference_value(self):
        rel = relaxation_constants(params(coupling=0.01), 0.75)
        assert rel.rate == pytest.approx(2.1143e-3, abs=2e-7)

    def test_drive_within_rate(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            p = params(
                delta_s=rng.uniform(0.3, 2.0),
                detuning=rng.uniform(-0.2, 2.0),
                dt=rng.uniform(0.1, 3.0),
            )
            rel = relaxation_constants(p, rng.uniform(-1.5, 1.5))
            assert rel.rate >= 0.0
            if rel.rate > 0:
                assert -1e-15 <= rel.drive <= rel.rate + 1e-15

    def test_zeno_monotone_onset(self):
        r = [relaxation_constants(params(dt=t), 0.75).rate for t in (0.01, 0.1, math.pi)]
        assert r[0] < r[1] < r[2]


class TestEnsembleRecursion:
    def test_fixed_point(self):
        p = params()
        rel = relaxation_constants(p, 0.75)
        star = rel.drive / rel.rate
        assert ensemble_map(star, p, 0.75) == pytest.approx(star, rel=1e-12)

    def test_zero_coupling_identity(self):
        assert ensemble_map(0.37, params(coupling=0.0), 0.5) == 0.37

    def test_closed_form_endpoints(self):
        p = params()
        assert rho00_closed_form(0.9, 0, p, 0.75) == pytest.approx(0.9)
        rel = relaxation_constants(p, 0.75)
        assert rho00_closed_form(0.9, 1e7, p, 0.75) == pytest.approx(
            rel.drive / rel.rate, rel=1e-9
        )

    def test_closed_form_constant_at_freezing(self):
        p = params(detuning=2.0, dt=math.pi)
        assert rho00_closed_form(0.3, 1000, p, 0.75) == pytest.approx(0.3)

    def test_map_iteration_matches_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            p = params(
                delta_s=rng.uniform(0.5, 2.0),
                detuning=rng.uniform(-0.4, 1.5),
                coupling=rng.uniform(0.01, 0.05),
                dt=rng.uniform(0.1, 2.0),
            )
            beta = rng.uniform(0.1, 1.5)
            x = rng.uniform(0, 1)
            xs = [x]
            for _ in range(1000):
                x = ensemble_map(x, p, beta)
                xs.append(x)
            cf = rho00_closed_form(xs[0], np.arange(1001), p, beta)
            rate = relaxation_constants(p, beta).rate
            assert np.max(np.abs(np.asarray(xs) - cf)) < rate

    def test_weighted_combination_identity(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            p = params(
                delta_s=rng.uniform(0.5, 2.0),
                detuning=rng.uniform(-0.4, 1.5),
                coupling=rng.uniform(0.01, 0.05),
                dt=rng.uniform(0.1, 2.0),
            )
            beta = rng.uniform(0.1, 1.5)
            q = QubitState(rho00=rng.uniform(0.05, 0.95))
            up, down, same = outcome_probabilities(q, p, beta)
            mix = (
                same * conditional_update(q, "same", p, beta).rho00
                + up * conditional_update(q, "up", p, beta).rho00
                + down * conditional_update(q, "down", p, beta).rho00
            )
            assert abs(mix - ensemble_map(q.rho00, p, beta)) < 10 * p.coupling**4


class TestAttractor:
    def test_resonant_value(self):
        res = attractor(params(), math.log(3))
        assert res.rho00_star == pytest.approx(0.75, abs=1e-12)
        assert res.t_eff > 0

    def test_detuned_inversion_value(self):
        p = params(detuning=0.7, dt=2 * math.pi / 0.7)
        res = attractor(p, math.log(5 / 3) / 1.7)
        assert res.rho00_star == pytest.approx(0.375, abs=1e-12)
        assert res.t_eff < 0

    def test_small_dt_heats_to_half(self):
        res = attractor(params(dt=1e-5), math.log(3))
        assert res.rho00_star == pytest.approx(0.5, abs=1e-9)

    def test_reference_value(self):
        res = attractor(params(), 0.75)
        assert res.rho00_star == pytest.approx(0.6791, abs=1e-4)

    def test_freezing_returns_none(self):
        assert attractor(params(detuning=2.0, dt=math.pi), 0.75) is None

    def test_overflowing_b_takes_the_weights_limits(self):
        """Where beta delta_b / 2 overflows to +-inf, the weights are 1 and 0
        (their order set by the sign), so the attractor is sinA / (sinA +
        sinB) or its complement and the bounds are 1 and 0, all without a
        warning; the rate, scaled by cosh b, is refused."""
        p = params(detuning=3.0)
        sf = sinc_factors(p)
        share = sf.sin_a / (sf.sin_a + sf.sin_b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for beta, star in ((1e308, share), (-1e308, 1.0 - share)):
                assert attractor(p, beta).rho00_star == pytest.approx(star, rel=1e-15)
                tb = temperature_bounds(p, beta)
                assert sorted((tb.rho00_min, tb.rho00_max)) == [0.0, 1.0]
        with pytest.raises(ValueError, match="is not finite"):
            relaxation_constants(p, 1e308)

    def test_undefined_b_refused(self):
        """A NaN beta, or an infinite one where delta_b = 0, leaves b = beta
        delta_b / 2 undefined: it is refused, not taken for a freezing point's
        NaN; an infinite beta elsewhere is the weights' limit."""
        p = params(detuning=0.3, dt=2.0)
        for call in (lambda: attractor(p, math.nan),
                     lambda: attractor_rho00(2.0, 0.3, 1.0, math.nan),
                     lambda: temperature_bounds(p, math.nan),
                     lambda: attractor_rho00(2.0, np.array([-1.0, 0.3]), 1.0, math.inf)):
            with pytest.raises(ValueError, match="beta delta_b / 2 is NaN"):
                call()
        assert attractor(p, math.inf).rho00_star == pytest.approx(
            float(attractor_rho00(2.0, 0.3, 1.0, 1e308)), rel=1e-15)

    def test_convex_weight_decomposition(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            p = params(
                delta_s=rng.uniform(0.3, 2.0),
                detuning=rng.uniform(-0.2, 2.0),
                dt=rng.uniform(0.1, 3.0),
            )
            beta = rng.uniform(-1.2, 1.2)
            res = attractor(p, beta)
            if res is None:
                continue
            sf = sinc_factors(p)
            w = sf.sin_a / (sf.sin_a + sf.sin_b)
            b = beta * p.delta_b / 2
            hi = math.exp(b) / (2 * math.cosh(b))
            lo = math.exp(-b) / (2 * math.cosh(b))
            assert res.rho00_star == pytest.approx(w * hi + (1 - w) * lo, rel=1e-10)
            assert min(hi, lo) - 1e-12 <= res.rho00_star <= max(hi, lo) + 1e-12

    def test_grid_bounds_and_freezing_nan(self):
        dts = np.linspace(0.05, 4 * math.pi, 120)
        dets = np.linspace(-0.9, 3.0, 120)
        grid = attractor_rho00(dts[None, :], dets[:, None], delta_s=1.0, beta=0.75)
        b = 0.75 * (1.0 + dets[:, None]) / 2.0
        hi = np.exp(b) / (2 * np.cosh(b))
        lo = np.exp(-b) / (2 * np.cosh(b))
        ok = ~np.isnan(grid)
        assert np.all(grid[ok] >= np.broadcast_to(lo, grid.shape)[ok] - 1e-9)
        assert np.all(grid[ok] <= np.broadcast_to(hi, grid.shape)[ok] + 1e-9)
        frozen = attractor_rho00(math.pi, 2.0, delta_s=1.0, beta=0.75)
        assert np.isnan(frozen)


class TestTemperatureBounds:
    def test_symmetry(self):
        tb = temperature_bounds(params(detuning=0.7), 0.4)
        assert tb.rho00_max + tb.rho00_min == pytest.approx(1.0, abs=1e-12)

    def test_fig3_floor(self):
        p = params(detuning=0.7)
        tb = temperature_bounds(p, math.log(5 / 3) / 1.7)
        assert tb.rho00_min == pytest.approx(0.375, abs=1e-12)

    def test_resonant_t_min(self):
        tb = temperature_bounds(params(detuning=0.0), 0.8)
        assert tb.t_min == pytest.approx(1.0 / 0.8)
        assert tb.t_max is None  # inversion unreachable on resonance

    def test_detuned_t_max(self):
        tb = temperature_bounds(params(detuning=1.0), 0.5)
        assert tb.t_max == pytest.approx(-(1.0 / 2.0) / 0.5)

    def test_zero_beta_rejected(self):
        with pytest.raises(ValueError):
            temperature_bounds(params(), 0.0)


class TestFreezingPoint:
    def test_membership(self):
        assert is_freezing_point(math.pi, 2.0, 1.0) == (True, 1, 1)
        assert is_freezing_point(2 * math.pi, 1.0, 1.0) == (True, 2, 1)
        assert is_freezing_point(3 * math.pi, -2 / 3, 1.0) == (True, 3, -1)
        assert is_freezing_point(math.pi * (1 + 5e-9), 2 / (1 + 5e-9), 1.0) == (
            True, 1, 1
        )
        ok, n, m = is_freezing_point(math.pi, 0.7, 1.0)
        assert not ok and n is None and m is None

    @pytest.mark.parametrize("dt", [0.0, -math.pi])
    def test_non_positive_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be > 0"):
            is_freezing_point(dt, 2.0, 1.0)

    def test_rate_and_coeffs_vanish(self):
        for n in (1, 2, 3):
            for m in (1, 2):
                dt = n * math.pi
                p = params(detuning=2 * m * math.pi / dt, dt=dt)
                assert is_freezing_point(p.dt, p.detuning, 1.0)[0]
                assert relaxation_constants(p, 0.6).rate < 1e-12
                c = offdiag_coeffs(p, 0.6)
                assert abs(c.c1) < 1e-12
                assert abs(c.c3) < 1e-12
                assert abs(c.c4) < 1e-12


class TestOffdiag:
    def test_zero_dt(self):
        c = offdiag_coeffs(params(dt=0.0), 0.5)
        assert (c.c1, c.c2, c.c3, c.c4) == (0.0, 0.0, 0.0, 0.0)

    def test_freezing_constant(self):
        for n in (1, 2):
            for m in (1, 3):
                dt = n * math.pi
                p = params(detuning=2 * m * math.pi / dt, dt=dt, coupling=0.01)
                c = offdiag_coeffs(p, 0.75)
                b = 0.75 * p.delta_b / 2
                expect = (
                    -0.0001 * math.cosh(b) * n**2 * (2 * m + n) * math.pi
                    / (m * (m + n))
                )
                assert c.c2 == pytest.approx(expect, rel=1e-10)

    def test_reference_value(self):
        c = offdiag_coeffs(params(detuning=2.0, coupling=0.01), 0.75)
        assert c.c2 == pytest.approx(-8.02e-4, abs=1e-6)

    def test_c1_nonpositive_and_gamma_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            p = params(
                delta_s=rng.uniform(0.3, 2.0),
                detuning=rng.uniform(-0.2, 2.5),
                dt=rng.uniform(0.0, 4.0),
            )
            c = offdiag_coeffs(p, rng.uniform(-1.0, 1.0))
            assert c.c1 <= 1e-15
            assert c.gamma**2 == pytest.approx(
                -c.c2**2 + c.c3**2 + c.c4**2, abs=1e-12
            )

    def test_c1_is_half_rate(self):
        p = params(detuning=0.4, dt=1.7)
        rel = relaxation_constants(p, 0.6)
        c = offdiag_coeffs(p, 0.6)
        assert c.c1 == pytest.approx(-rel.rate / 2.0, rel=1e-12)

    def test_closed_form_start_and_decay(self):
        p = params(detuning=0.4, dt=1.7)
        c = offdiag_coeffs(p, 0.6)
        z0 = 0.2 - 0.1j
        z, mag = offdiag_closed_form(z0, 0, c)
        assert z == pytest.approx(z0)
        assert mag == pytest.approx(abs(z0))
        _, late = offdiag_closed_form(z0, 200_000, c)
        assert late < 1e-6

    def test_closed_form_freezing_rotation(self):
        p = params(detuning=2.0)
        c = offdiag_coeffs(p, 0.75)
        z0 = 0.35 + 0.0j
        for j in (1, 10, 500):
            z, mag = offdiag_closed_form(z0, j, c)
            assert mag == pytest.approx(abs(z0), rel=1e-10)
            assert z == pytest.approx(z0 * cmath.exp(1j * c.c2 * j), rel=1e-9)

    def test_map_zero_coupling_identity(self):
        assert offdiag_map(0.1 + 0.2j, params(coupling=0.0), 0.5) == 0.1 + 0.2j

    def test_map_matches_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            p = params(
                delta_s=rng.uniform(0.5, 2.0),
                detuning=rng.uniform(-0.4, 1.5),
                coupling=rng.uniform(0.01, 0.05),
                dt=rng.uniform(0.1, 2.0),
            )
            beta = rng.uniform(0.1, 1.5)
            c = offdiag_coeffs(p, beta)
            z = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            zs = [z]
            for _ in range(500):
                z = offdiag_map(z, p, beta)
                zs.append(z)
            cf = np.array([offdiag_closed_form(zs[0], j, c)[0] for j in range(501)])
            assert np.max(np.abs(np.asarray(zs) - cf)) < 10 * abs(c.c1)


class TestEffectiveTemperature:
    def test_gibbs_inversion(self):
        assert effective_temperature(0.75, 1.0) == pytest.approx(1 / math.log(3))
        assert effective_temperature(0.375, 1.0) == pytest.approx(
            -1 / math.log(5 / 3)
        )

    def test_infinite_at_half(self):
        assert math.isinf(effective_temperature(0.5, 1.0))

    def test_zero_temperature_poles(self):
        assert effective_temperature(1.0, 1.0) == 0.0
        t = effective_temperature(0.0, 1.0)
        assert t == 0.0 and math.copysign(1.0, t) == -1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            effective_temperature(1.2, 1.0)
