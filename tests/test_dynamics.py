import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    band_projector,
    coarse_reset,
    cojump_norm,
    dense_leakage_bound,
    dense_nonselective_reference,
    dense_sampled_reference,
    joint_hamiltonian,
    measure_band_nonselective,
    measure_band_selective,
    pure_product,
    reduced_qubit_state,
    unraveled_record_probabilities,
)
from tlsbath import _streams, dynamics, model
from tlsbath._streams import Streams, block_steps, seed_words, trajectory_words
from tlsbath.dynamics import (
    Propagator,
    _build,
    _eig2,
    _pair_sums,
    _run_nonselective_exact,
    _sample_paths,
    run_ensemble,
    run_trajectory,
    trajectory_seed,
    transfer_blocks,
)
from tlsbath.model import (
    ModelParams,
    QubitState,
    _tls_level,
    build_band_environment,
    build_spin_environment,
    build_total_hamiltonian,
)


def _paths(params, env, rho0, k0, steps, seeds, reset_mode):
    """_sample_paths on the build of run_ensemble and run_trajectory, with
    trajectory c drawing from seeds[c]."""
    if reset_mode == "coarse":
        pairs, op, leakage = transfer_blocks(params, env, rho0, k0)
    else:
        pairs, op, leakage = _build(params, env, rho0, k0)
    words = np.concatenate([seed_words(s) for s in seeds])
    return _stacked(_sample_paths(params, env, op, pairs, leakage, rho0, k0, steps, words,
                                  reset_mode))


def _stacked(blocks):
    """The records of _sample_paths's blocks as (steps + 1, m) arrays (band
    positions, reduced states) and the (steps, m) outcome probabilities."""
    recs = [[rec.copy() for rec in block] for _, *block in blocks]
    return tuple(np.concatenate(r) for r in zip(*recs))


class TestPropagator:
    def test_dt_zero_is_identity(self, resonant_params, small_env):
        u = Propagator(joint_hamiltonian(resonant_params, small_env)).unitary(0.0)
        assert np.allclose(u, np.eye(u.shape[0]), atol=1e-12)

    def test_unitarity(self, resonant_params, small_env):
        u = Propagator(joint_hamiltonian(resonant_params, small_env)).unitary(math.pi)
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-9

    def test_diagonal_hamiltonian_phases(self):
        h = np.diag([0.5, 1.5, -0.3])
        u = Propagator(h).unitary(0.7)
        assert np.allclose(u, np.diag(np.exp(-1j * np.diag(h) * 0.7)), atol=1e-12)

    def test_matches_expm_on_parity_blocks(self, any_env):
        """One eigh of the joint Hamiltonian, two parity blocks."""
        h = joint_hamiltonian(ModelParams(delta_s=1.0, detuning=0.3), any_env)
        gap = np.abs(Propagator(h).unitary(1.1) - scipy.linalg.expm(-1j * h * 1.1))
        assert gap.max() < 1e-12

    def test_dense_hermitian_matches_expm(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        h = (a + a.conj().T) / 2
        gap = np.abs(Propagator(h).unitary(0.3) - scipy.linalg.expm(-1j * h * 0.3))
        assert gap.max() < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            Propagator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("i, j", [(0, 0), (1, 1), (0, 1), (1, 0)],
                             ids=["diag-0", "diag-1", "upper", "lower"])
    def test_rejects_non_finite(self, value, i, j):
        """A NaN or infinite entry makes |h - h^+| NaN or infinite, which the
        tolerance test alone would pass (NaN > HERM_TOL is False)."""
        h = np.diag([0.5, -0.3]).astype(complex)
        h[i, j] = value
        with pytest.raises(ValueError, match="non-finite entries"):
            Propagator(h)

    def test_rejects_all_nan(self):
        with pytest.raises(ValueError, match="non-finite entries"):
            Propagator(np.full((2, 2), np.nan))

    @pytest.mark.parametrize("shape", [(2, 3), (2, 2, 2), (3,)],
                             ids=["2x3", "3-D", "1-D"])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="square 2-D array"):
            Propagator(np.zeros(shape))

    def test_unitary_out_random_hermitian(self):
        """unitary(dt, out=h) fills and returns h itself, with the entries of
        a fresh unitary(dt) bit for bit."""
        rng = np.random.default_rng(5)
        a = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
        h = (a + a.conj().T) / 2
        prop = Propagator(h)
        fresh = prop.unitary(0.9)
        assert prop.unitary(0.9, out=h) is h
        assert np.array_equal(h, fresh)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_unitary_out_sector_hamiltonian(self, resonant_params, small_env, parity):
        h = build_total_hamiltonian(resonant_params, small_env, parity)
        prop = Propagator(h)
        fresh = prop.unitary(resonant_params.dt)
        assert prop.unitary(resonant_params.dt, out=h) is h
        assert np.array_equal(h, fresh)

    @pytest.mark.parametrize(
        "i, j, defect, rejected",
        [
            (2, 3, 1e-8, True),       # inside the block {2, 3}
            (0, 1, 1e-12, False),     # inside the block, below HERM_TOL
            (0, 2, 1e-6, True),       # partner zero: links {0, 1} with {2, 3}
        ],
        ids=["inside-block", "below-tol", "links-blocks"],
    )
    def test_hermitian_check_per_block(self, i, j, defect, rejected):
        """h is checked as a whole: a defect inside either of its blocks
        {0, 1}, {2, 3} or between them is caught, one below HERM_TOL is not."""
        h = np.diag([0.5, 1.5, -0.3, 0.8]).astype(complex)
        h[0, 1] = h[1, 0] = 0.2
        h[2, 3], h[3, 2] = 0.1j, -0.1j
        h[i, j] += defect
        if rejected:
            with pytest.raises(ValueError, match="not Hermitian"):
                Propagator(h)
        else:
            u = Propagator(h).unitary(0.7)
            assert np.max(np.abs(u - scipy.linalg.expm(-0.7j * h))) < 1e-10


class TestProjectors:
    def test_idempotent_and_complete(self, small_env):
        total = np.zeros((2 * small_env.dim, 2 * small_env.dim))
        for k in range(small_env.n_bands):
            p = band_projector(small_env, k)
            assert np.array_equal(p @ p, p)
            assert np.linalg.matrix_rank(p) == 2 * math.comb(5, k)
            total += p
        assert np.array_equal(total, np.eye(2 * small_env.dim))

    def test_out_of_range(self, small_env):
        with pytest.raises(ValueError):
            band_projector(small_env, 6)


class TestMeasurement:
    def test_nonselective_trace_idempotence(self, resonant_params, small_env):
        rho0 = coarse_reset(QubitState(rho00=0.6, rho10=0.2j), small_env, 2)
        u = Propagator(joint_hamiltonian(resonant_params, small_env)).unitary(math.pi)
        rho = u @ rho0 @ u.conj().T
        meas = measure_band_nonselective(rho, small_env)
        assert np.trace(meas).real == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(measure_band_nonselective(meas, small_env), meas)
        # cross-band blocks are removed
        ids = np.repeat(np.arange(small_env.n_bands), small_env.degeneracies)
        ids = np.concatenate((ids, ids))
        off = ids[:, None] != ids[None, :]
        assert np.max(np.abs(meas[off])) == 0.0

    def test_selective_collapse_support(self, resonant_params, small_env):
        rng = np.random.default_rng(0)
        psi = pure_product(small_env, np.array([1.0, 0.0]), k=2, level=3)
        u = Propagator(joint_hamiltonian(resonant_params, small_env)).unitary(math.pi)
        k, collapsed, prob = measure_band_selective(u @ psi, small_env, rng)
        assert 0.0 <= prob <= 1.0
        proj = band_projector(small_env, k)
        assert np.allclose(proj @ collapsed, collapsed)
        assert np.linalg.norm(collapsed) == pytest.approx(1.0)

    def test_selective_zero_coupling_certain(self, small_env):
        p0 = ModelParams(delta_s=1.0, coupling=0.0)
        psi = pure_product(small_env, np.array([0.6, 0.8]), k=1, level=0)
        u = Propagator(joint_hamiltonian(p0, small_env)).unitary(math.pi)
        k, _, prob = measure_band_selective(u @ psi, small_env, np.random.default_rng(1))
        assert k == 1
        assert prob == pytest.approx(1.0, abs=1e-12)


class TestCoarseReset:
    def test_marginals(self, small_env):
        q = QubitState(rho00=0.4, rho10=0.1 - 0.2j)
        rho = coarse_reset(q, small_env, 3)
        red = reduced_qubit_state(rho)
        assert red.rho00 == pytest.approx(q.rho00, abs=1e-12)
        assert red.rho10 == pytest.approx(q.rho10, abs=1e-12)
        d = small_env.dim
        env_marg = rho[:d, :d] + rho[d:, d:]
        sl = small_env.band_slice(3)
        n_k = small_env.degeneracies[3]
        expect = np.zeros(d)
        expect[sl] = 1.0 / n_k
        assert np.allclose(env_marg, np.diag(expect), atol=1e-12)

    def test_purity(self, small_env):
        q = QubitState(rho00=1.0)
        rho = coarse_reset(q, small_env, 2)
        n_k = small_env.degeneracies[2]
        assert np.trace(rho @ rho).real == pytest.approx(1.0 / n_k, abs=1e-12)


class TestReducedState:
    def test_product_recovery(self, small_env):
        psi = pure_product(small_env, np.array([0.6, 0.8j]), k=2, level=1)
        red = reduced_qubit_state(np.outer(psi, psi.conj()))
        assert red.rho00 == pytest.approx(0.36)
        assert red.rho10 == pytest.approx(0.8j * 0.6)

    def test_entangled_gives_mixed(self, small_env):
        d = small_env.dim
        psi = np.zeros(2 * d, dtype=complex)
        psi[0] = 1.0 / math.sqrt(2)          # ground, level 0
        psi[d + 1] = 1.0 / math.sqrt(2)      # excited, level 1
        red = reduced_qubit_state(np.outer(psi, psi.conj()))
        assert red.rho00 == pytest.approx(0.5)
        assert abs(red.rho10) == pytest.approx(0.0, abs=1e-12)


class TestCojump:
    def test_product_state_zero(self, small_env):
        rho = coarse_reset(QubitState(rho00=0.7, rho10=0.1j), small_env, 2)
        assert cojump_norm(rho) == pytest.approx(0.0, abs=1e-12)

    def test_linear_coupling_scaling(self, small_env):
        norms = []
        for lam in (0.05, 0.025):
            p = ModelParams(delta_s=1.0, coupling=lam, dt=math.pi)
            u = Propagator(joint_hamiltonian(p, small_env)).unitary(p.dt)
            rho0 = coarse_reset(QubitState(rho00=1.0), small_env, 2)
            norms.append(cojump_norm(u @ rho0 @ u.conj().T))
        assert norms[0] / norms[1] == pytest.approx(2.0, rel=0.2)

    def test_measurement_does_not_increase(self, resonant_params, small_env):
        u = Propagator(joint_hamiltonian(resonant_params, small_env)).unitary(math.pi)
        rho0 = coarse_reset(QubitState(rho00=1.0), small_env, 2)
        rho = u @ rho0 @ u.conj().T
        before = cojump_norm(rho)
        after = cojump_norm(measure_band_nonselective(rho, small_env))
        assert after <= before + 1e-12


class TestTrajectories:
    def test_zero_coupling_frozen(self, small_env):
        p0 = ModelParams(delta_s=1.0, coupling=0.0, dt=math.pi)
        q = QubitState(rho00=0.3, rho10=math.sqrt(0.3 * 0.7))
        tr = run_trajectory(
            p0, small_env, q, k0=2, steps=20, seed=trajectory_seed(4, 0)
        )
        assert np.all(tr.outcomes == 2)
        assert np.allclose(tr.rho00, 0.3, atol=1e-10)

    def test_determinism(self, resonant_params, small_env, ground):
        a = run_trajectory(
            resonant_params, small_env, ground, k0=2, steps=40,
            seed=trajectory_seed(9, 3),
        )
        b = run_trajectory(
            resonant_params, small_env, ground, k0=2, steps=40,
            seed=trajectory_seed(9, 3),
        )
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.rho00, b.rho00)
        assert np.array_equal(a.rho10, b.rho10)

    @pytest.mark.parametrize("reset_mode", ["coarse", "exact"])
    @pytest.mark.parametrize(
        "seed",
        [12, [3, 4, 5], np.random.SeedSequence(7), trajectory_seed(9, 3),
         trajectory_seed(9, 3).spawn(3)[2]],
        ids=["int", "int-sequence", "seed-sequence", "trajectory-seed", "spawned-child"],
    )
    def test_seed_forms_draw_numpy_streams(self, seed, reset_mode, resonant_params,
                                           small_env):
        """Every seed form default_rng takes, bar generators, gives the record
        of the dense reference fed with default_rng(seed)."""
        rho0 = QubitState(rho00=0.6, rho10=0.3 + 0.2j)
        tr = run_trajectory(resonant_params, small_env, rho0, k0=2, steps=30,
                            seed=seed, reset_mode=reset_mode)
        ref_k, ref_p, ref00, ref10 = dense_sampled_reference(
            resonant_params, small_env, rho0, 2, 30, seed, reset_mode
        )
        assert np.array_equal(tr.outcomes, ref_k)
        assert np.max(np.abs(tr.probs - ref_p)) < 1e-12
        assert np.max(np.abs(tr.rho00 - ref00)) < 1e-12
        assert np.max(np.abs(tr.rho10 - ref10)) < 1e-12
        assert tr.seed is seed

    def test_seed_none_is_accepted(self, resonant_params, small_env, ground):
        tr = run_trajectory(resonant_params, small_env, ground, k0=2, steps=30, seed=None)
        assert tr.seed is None and tr.steps == 30
        assert np.all((tr.probs > 0) & (tr.probs <= 1))

    @pytest.mark.parametrize("seed", [np.random.default_rng(1), np.random.PCG64(1)],
                             ids=["generator", "bit-generator"])
    def test_generator_seed_is_refused(self, seed, resonant_params, small_env, ground):
        accepted = "an int, a sequence of ints, None or a numpy.random.SeedSequence"
        with pytest.raises(TypeError, match=accepted):
            run_trajectory(resonant_params, small_env, ground, k0=2, steps=5, seed=seed)

    def test_band_adjacency(self, resonant_params, seven_env, ground):
        tr = run_trajectory(
            resonant_params, seven_env, ground, k0=2, steps=300,
            seed=trajectory_seed(2, 0),
        )
        assert np.max(np.abs(np.diff(tr.outcomes))) <= 1
        assert np.all((tr.probs >= 0) & (tr.probs <= 1))

    def test_quasi_classical_endpoint(self, resonant_params, seven_env, ground):
        """After many measurements a single trajectory sits near a pole."""
        tr = run_trajectory(
            resonant_params, seven_env, ground, k0=2, steps=400,
            seed=trajectory_seed(6, 1),
        )
        assert min(tr.rho00[-1], 1.0 - tr.rho00[-1]) < 0.05


class TestEnsembles:
    def test_m1_equals_single_trajectory(self, resonant_params, small_env, ground):
        tr = run_trajectory(
            resonant_params, small_env, ground, k0=2, steps=30,
            seed=trajectory_seed(123, 0),
        )
        series = run_ensemble(
            resonant_params, small_env, ground, k0=2, steps=30,
            n_traj=1, master_seed=123, engine="sampled",
        )
        assert np.array_equal(series.rho00, tr.rho00)
        assert np.array_equal(series.rho10, tr.rho10)

    def test_sampled_matches_nonselective(self, resonant_params, small_env, ground):
        non = run_ensemble(
            resonant_params, small_env, ground, k0=2, steps=60,
            engine="nonselective",
        )
        samp = run_ensemble(
            resonant_params, small_env, ground, k0=2, steps=60,
            n_traj=600, master_seed=31, engine="sampled",
        )
        gap = np.abs(samp.rho00 - non.rho00)
        assert np.all(gap <= 4.0 * samp.stderr + 1e-12)

    def test_quadrupling_halves_deviation(self, resonant_params, seven_env, ground):
        non = run_ensemble(
            resonant_params, seven_env, ground, k0=2, steps=141,
            engine="nonselective",
        )
        ratios = []
        for seed in (11, 12, 13, 14, 15):
            devs = []
            for m in (250, 1000):
                s = run_ensemble(
                    resonant_params, seven_env, ground, k0=2, steps=141,
                    n_traj=m, master_seed=seed, engine="sampled",
                )
                devs.append(np.max(np.abs(s.rho00 - non.rho00)))
            ratios.append(devs[0] / devs[1])
        assert 2.0 / 1.5 <= np.mean(ratios) <= 2.0 * 1.5

    def test_stderr_zero_for_nonselective(self, resonant_params, small_env, ground):
        non = run_ensemble(
            resonant_params, small_env, ground, k0=2, steps=10,
            engine="nonselective",
        )
        assert np.all(non.stderr == 0.0)
        assert np.all((non.rho00 >= -1e-12) & (non.rho00 <= 1 + 1e-12))

    def test_reset_mode_plateau_agreement(self, resonant_params, seven_env, ground):
        """Exact and coarse resets land on the same plateau once both relax."""
        steps = 3000
        exact = run_ensemble(
            resonant_params, seven_env, ground, k0=2, steps=steps,
            engine="nonselective", reset_mode="exact",
        )
        coarse = run_ensemble(
            resonant_params, seven_env, ground, k0=2, steps=steps,
            engine="nonselective", reset_mode="coarse",
        )
        tail = steps // 5
        assert abs(
            exact.rho00[-tail:].mean() - coarse.rho00[-tail:].mean()
        ) < 0.02

    def test_sampled_requires_master_seed(self, resonant_params, small_env, ground):
        with pytest.raises(ValueError, match="sampled engine requires a master_seed"):
            run_ensemble(resonant_params, small_env, ground, k0=2, steps=5, n_traj=2,
                         engine="sampled")

    def test_unknown_engine_and_reset(self, resonant_params, small_env, ground):
        with pytest.raises(ValueError):
            run_ensemble(
                resonant_params, small_env, ground, k0=2, steps=5, engine="magic"
            )
        with pytest.raises(ValueError):
            run_ensemble(
                resonant_params, small_env, ground, k0=2, steps=5,
                n_traj=2, master_seed=0, engine="sampled", reset_mode="soft",
            )


# The dense-reference cases of both nonselective engines, from a coherent
# start unless stated.
_RANDOM_BAND = (ModelParams(delta_s=1.0, coupling=0.1, dt=math.pi),
                lambda: build_band_environment(5, seed=901))
_SIGMA_X = (ModelParams(delta_s=1.0, detuning=0.3, coupling=0.1, dt=1.1),
            lambda: build_spin_environment(6, seed=8))
_COHERENT = QubitState(rho00=0.6, rho10=0.3 + 0.2j)
# Ground and excited starts occupy one parity sector, a diagonal start both
# without coherence between them; k0 even (random-band) and odd (sigma-x).
_SECTOR_STARTS = {
    "ground": QubitState(rho00=1.0),
    "excited": QubitState(rho00=0.0),
    "diagonal": QubitState(rho00=0.6),
}
_SECTOR_CASES = [
    (*model, k0, rho0)
    for model, k0 in ((_RANDOM_BAND, 2), (_SIGMA_X, 3))
    for rho0 in _SECTOR_STARTS.values()
]
_SECTOR_IDS = [
    f"{model}-{start}" for model in ("random-band-n5", "sigma-x-n6") for start in _SECTOR_STARTS
]


# The engines that hold the state by sector pair, keyed by a test id prefix.
_PAIR_ENGINES = {"": ("nonselective", "exact"), "coarse-": ("nonselective", "coarse"),
                 "sampled-coarse-": ("sampled", "coarse")}


class TestExactResetEngine:
    @pytest.mark.parametrize(
        "params, make_env, k0, rho0",
        [
            (*_RANDOM_BAND, 2, _COHERENT),
            (*_SIGMA_X, 3, _COHERENT),
            # The edge bands (1 x 1 blocks) and both parities of k0, which
            # decide whether a band's coherence is read as X_10 or X_10^+.
            (*_RANDOM_BAND, 0, _COHERENT),
            (*_RANDOM_BAND, 5, _COHERENT),
            (*_SIGMA_X, 0, _COHERENT),
            *_SECTOR_CASES,
        ],
        ids=["random-band-n5", "sigma-x-n6", "random-band-n5-k0", "random-band-n5-k5",
             "sigma-x-n6-k0", *_SECTOR_IDS],
    )
    def test_matches_dense_reference(self, params, make_env, k0, rho0):
        env = make_env()
        series = run_ensemble(
            params, env, rho0, k0=k0, steps=40,
            engine="nonselective", reset_mode="exact",
        )
        r00, r10 = dense_nonselective_reference(params, env, rho0, k0, 40, "exact")
        assert np.max(np.abs(series.rho00 - r00)) < 1e-12
        assert np.max(np.abs(series.rho10 - r10)) < 1e-12
        assert np.ptp(series.rho00) > 1e-3

    @pytest.mark.parametrize("make_env", [_RANDOM_BAND[1], _SIGMA_X[1]],
                             ids=["random-band", "sigma-x"])
    def test_one_environment_at_two_detunings(self, make_env):
        """The bath's structure does not fix its splitting: one environment
        runs at two detunings, and each run matches the dense reference at
        its own delta_b."""
        env = make_env()
        runs = []
        for detuning in (0.0, 0.6):
            params = ModelParams(delta_s=1.0, detuning=detuning, coupling=0.1, dt=1.1)
            series = run_ensemble(params, env, _COHERENT, k0=2, steps=20,
                                  engine="nonselective", reset_mode="exact")
            r00, r10 = dense_nonselective_reference(params, env, _COHERENT, 2, 20,
                                                    "exact")
            assert np.max(np.abs(series.rho00 - r00)) < 1e-12
            assert np.max(np.abs(series.rho10 - r10)) < 1e-12
            runs.append(series.rho00)
        assert np.max(np.abs(runs[0] - runs[1])) > 1e-3

    def test_trace_drift_raises(self, monkeypatch, resonant_params, small_env, ground):
        unitary = Propagator.unitary
        monkeypatch.setattr(
            Propagator, "unitary",
            lambda self, dt, out=None: 1.0001 * unitary(self, dt),
        )
        with pytest.raises(ValueError, match="trace drifted"):
            run_ensemble(
                resonant_params, small_env, ground, k0=2, steps=5,
                engine="nonselective", reset_mode="exact",
            )

    def test_trace_drift_recorded(self, monkeypatch, resonant_params,
                                  small_env, ground):
        # Scaling U by 1 + eps scales the total trace by (1 + eps)^2 a step.
        eps, steps = 1e-11, 5
        unitary = Propagator.unitary
        monkeypatch.setattr(
            Propagator, "unitary",
            lambda self, dt, out=None: (1 + eps) * unitary(self, dt),
        )
        series = run_ensemble(
            resonant_params, small_env, ground, k0=2, steps=steps,
            engine="nonselective", reset_mode="exact",
        )
        assert series.trace_drift == pytest.approx(2 * steps * eps, rel=1e-3)

    def test_dead_pairs_not_held(self, resonant_params, seven_env, ground):
        """Only the sector pairs rho0 starts on are held: a ground start holds
        one of the three N_k x N_k block lists, a coherent start all three, so
        the engine's tracemalloc peak differs by two pairs' blocks (two times
        sum_k N_k^2 complex entries); holding the dead pairs as zeros would
        make the peaks equal."""
        coherent = QubitState(rho00=0.6, rho10=0.2 + 0.1j)

        def peak(rho0):
            pairs, us, _ = _build(resonant_params, seven_env, rho0, 2)
            tracemalloc.start()
            try:
                _run_nonselective_exact(us, pairs, seven_env, 2, 3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        pair = 16 * sum(nk**2 for nk in seven_env.degeneracies)
        assert peak(coherent) - peak(ground) >= 1.5 * pair

    @pytest.mark.parametrize(
        "rho0, engine, reset_mode",
        [(rho0, *run) for run in _PAIR_ENGINES.values() for rho0 in _SECTOR_STARTS.values()],
        ids=[tag + name for tag in _PAIR_ENGINES for name in _SECTOR_STARTS],
    )
    def test_dead_coherence_reads_positive_zero(self, resonant_params, small_env, rho0,
                                                engine, reset_mode):
        """A start without coherence leaves pair (1, 0) dead; every engine
        that holds the state by pair reads it as an exact +0 in rho10, and so
        does a coarse-reset trajectory, whose dead pair is a zero column that
        is never conjugated."""
        sampled = dict(n_traj=4, master_seed=1) if engine == "sampled" else {}
        series = run_ensemble(resonant_params, small_env, rho0, k0=2, steps=5,
                              engine=engine, reset_mode=reset_mode, **sampled)
        rho10 = [series.rho10]
        if sampled:
            rho10.append(run_trajectory(resonant_params, small_env, rho0, 2, 20,
                                        seed=trajectory_seed(1, 0)).rho10)
        for r in rho10:
            for part in (r.real, r.imag):
                assert np.all(part == 0) and not np.any(np.signbit(part))


class TestCoarseResetEngine:
    @pytest.mark.parametrize(
        "params, make_env, k0, rho0",
        [(*_RANDOM_BAND, 2, _COHERENT), (*_SIGMA_X, 3, _COHERENT), *_SECTOR_CASES],
        ids=["random-band-n5", "sigma-x-n6", *_SECTOR_IDS],
    )
    def test_matches_dense_reference(self, params, make_env, k0, rho0):
        env = make_env()
        series = run_ensemble(
            params, env, rho0, k0=k0, steps=40,
            engine="nonselective", reset_mode="coarse",
        )
        r00, r10 = dense_nonselective_reference(params, env, rho0, k0, 40, "coarse")
        assert np.max(np.abs(series.rho00 - r00)) < 1e-12
        assert np.max(np.abs(series.rho10 - r10)) < 1e-12
        assert np.ptp(series.rho00) > 1e-3

    def test_record_law_matches_unraveling(self):
        """The pair blocks, chained entry by entry along a record, give every
        3-step band record the probability it has when each coarse reset is
        unraveled into an eigenvector of the TLS state and a level of the
        band: the weight x00 + x11 of the pairs (0, 0) and (1, 1)."""
        params = ModelParams(delta_s=1.0, coupling=0.3, dt=1.1)
        env = build_band_environment(5, seed=901)
        rho0 = QubitState(rho00=0.6, rho10=0.3 + 0.2j)
        probs = unraveled_record_probabilities(params, env, rho0, 2, 3)
        pairs, sums, _ = transfer_blocks(params, env, rho0, 2)
        assert list(pairs) == [(0, 0), (1, 1), (1, 0)]
        start = np.array(list(pairs.values()))
        records = list(itertools.product(range(env.n_bands), repeat=3))
        assert set(probs) <= set(records)
        for record in records:
            x, i = start, 2
            for k in record:
                x, i = sums[:, k, i] * x, k
            assert abs(x[0] + x[1] - probs.get(record, 0.0)) < 1e-12
        assert abs(sum(probs.values()) - 1.0) < 1e-12


class TestOccupiedSectors:
    """Every engine and reset mode diagonalises only the parity sectors rho0
    occupies: one for a ground or excited start, both otherwise."""

    STARTS = pytest.mark.parametrize(
        "rho0, sectors",
        [(QubitState(rho00=1.0), 1), (QubitState(rho00=0.0), 1),
         (QubitState(rho00=0.6), 2), (_COHERENT, 2)],
        ids=["ground", "excited", "diagonal", "coherent"],
    )

    @staticmethod
    def _count_propagators(monkeypatch):
        built, init = [], Propagator.__init__

        def counting_init(self, h):
            built.append(np.shape(h))
            init(self, h)

        monkeypatch.setattr(Propagator, "__init__", counting_init)
        return built

    @STARTS
    def test_unitary_overwrites_hamiltonian(self, monkeypatch, resonant_params,
                                            small_env, rho0, sectors):
        """A built sector owns one array: _build writes u_p into the array
        build_total_hamiltonian returned for h_p."""
        made, build = [], dynamics.build_total_hamiltonian

        def recording_build(*args):
            made.append(build(*args))
            return made[-1]

        monkeypatch.setattr(dynamics, "build_total_hamiltonian", recording_build)
        _, us, _ = _build(resonant_params, small_env, rho0, 2)
        built = [u for u in us if u is not None]
        assert len(made) == len(built) == sectors
        assert all(np.shares_memory(u, h) for u, h in zip(built, made))

    @pytest.mark.parametrize("reset_mode", ["coarse", "exact"])
    @STARTS
    def test_nonselective_builds_occupied_sectors(self, monkeypatch, resonant_params,
                                                  small_env, rho0, sectors, reset_mode):
        built = self._count_propagators(monkeypatch)
        run_ensemble(resonant_params, small_env, rho0, k0=2, steps=3,
                     engine="nonselective", reset_mode=reset_mode)
        assert built == [(small_env.dim, small_env.dim)] * sectors

    @pytest.mark.parametrize("reset_mode", ["coarse", "exact"])
    @STARTS
    def test_sampled_builds_occupied_sectors(self, monkeypatch, resonant_params,
                                             small_env, rho0, sectors, reset_mode):
        built = self._count_propagators(monkeypatch)
        run_ensemble(resonant_params, small_env, rho0, k0=2, steps=3, n_traj=2,
                     master_seed=0, engine="sampled", reset_mode=reset_mode)
        assert built == [(small_env.dim, small_env.dim)] * sectors


class TestUnphysicalInitialState:
    """Every engine and reset mode refuses a rho0 that is not a density matrix."""

    BAD = [
        QubitState(rho00=1.4),
        QubitState(rho00=0.9, rho10=0.5),
        QubitState(rho00=1.0, rho10=0.3),
        QubitState(rho00=0.5, rho10=complex(math.nan, 0.0)),
    ]
    BAD_IDS = ["rho00-above-1", "coherence-0.9-0.5", "coherence-1.0-0.3", "nan-coherence"]

    @pytest.mark.parametrize("rho0", BAD, ids=BAD_IDS)
    @pytest.mark.parametrize("reset_mode", ["coarse", "exact"])
    @pytest.mark.parametrize("engine", ["nonselective", "sampled"])
    def test_run_ensemble_rejects(self, resonant_params, small_env, rho0, reset_mode,
                                  engine):
        with pytest.raises(ValueError, match="rho00|coherence"):
            run_ensemble(resonant_params, small_env, rho0, k0=2, steps=20, n_traj=2,
                         master_seed=0, engine=engine, reset_mode=reset_mode)

    @pytest.mark.parametrize("rho0", BAD, ids=BAD_IDS)
    @pytest.mark.parametrize("reset_mode", ["coarse", "exact"])
    def test_run_trajectory_rejects(self, resonant_params, small_env, rho0, reset_mode):
        with pytest.raises(ValueError, match="rho00|coherence"):
            run_trajectory(resonant_params, small_env, rho0, k0=2, steps=20,
                           seed=trajectory_seed(0, 0), reset_mode=reset_mode)


class TestBadCounts:
    """Every engine, reset mode and run_trajectory refuses a step or
    trajectory count that is not an integer >= 1, before building anything."""

    BAD = [(-1, "must be >= 1"), (0, "must be >= 1"), (2.5, "must be an integer"),
           (True, "must be an integer")]

    @staticmethod
    def _forbid_builds(monkeypatch):
        def no_build(self, h):
            pytest.fail("a propagator was built before the counts were checked")

        monkeypatch.setattr(Propagator, "__init__", no_build)

    @pytest.mark.parametrize("reset_mode", ["coarse", "exact"])
    @pytest.mark.parametrize("engine", ["nonselective", "sampled"])
    def test_run_ensemble_rejects(self, monkeypatch, resonant_params, small_env, ground,
                                  engine, reset_mode):
        self._forbid_builds(monkeypatch)
        for key in ("steps", "n_traj"):
            for value, message in self.BAD:
                counts = {"steps": 5, "n_traj": 2, key: value}
                with pytest.raises(ValueError, match=f"{key} {message}"):
                    run_ensemble(resonant_params, small_env, ground, k0=2, **counts,
                                 master_seed=0, engine=engine, reset_mode=reset_mode)

    @pytest.mark.parametrize("reset_mode", ["coarse", "exact"])
    def test_run_trajectory_rejects(self, monkeypatch, resonant_params, small_env,
                                    ground, reset_mode):
        self._forbid_builds(monkeypatch)
        for value, message in self.BAD:
            with pytest.raises(ValueError, match=f"steps {message}"):
                run_trajectory(resonant_params, small_env, ground, k0=2, steps=value,
                               seed=trajectory_seed(0, 0), reset_mode=reset_mode)


def test_eig2_accurate_near_pole():
    """The small eigenvector component keeps its relative accuracy where
    lam_p - rho00 cancels (rho00 rounds to 1)."""
    rho00, rho10 = 1.0, np.array([1e-9j, 3e-7 + 1e-7j])
    lam_p, v_plus, _ = _eig2(rho00, rho10)
    # Second row of rho v = lam v with rho11 = 0: rho10 v0 = lam v1.
    expect = rho10 * v_plus[0] / lam_p
    assert np.all(np.abs(v_plus[1] - expect) <= 1e-12 * np.abs(expect))


class TestSampledEngine:
    @pytest.mark.parametrize("reset_mode", ["coarse", "exact"])
    @pytest.mark.parametrize(
        "params, make_env, k0, rho0",
        [(*_RANDOM_BAND, 2, _COHERENT), (*_SIGMA_X, 3, _COHERENT), *_SECTOR_CASES],
        ids=["random-band-n5", "sigma-x-n6", *_SECTOR_IDS],
    )
    def test_matches_dense_reference(self, params, make_env, k0, rho0, reset_mode):
        env = make_env()
        seeds = [trajectory_seed(17, i) for i in range(8)]
        out_k, out_p, r00, r10 = _paths(
            params, env, rho0, k0, 40, seeds, reset_mode
        )
        for c, seed in enumerate(seeds):
            ref_k, ref_p, ref00, ref10 = dense_sampled_reference(
                params, env, rho0, k0, 40, seed, reset_mode
            )
            assert np.array_equal(out_k[:, c], ref_k)
            assert np.max(np.abs(out_p[:, c] - ref_p)) < 1e-12
            assert np.max(np.abs(r00[:, c] - ref00)) < 1e-12
            assert np.max(np.abs(r10[:, c] - ref10)) < 1e-12
        # The batch spreads over several bands and jumps between them. At the
        # resonant random-band point (dt = pi) the energy-nonconserving moves
        # cancel, so a ground (excited) start visits k0 and k0 - 1 (k0 + 1).
        assert len(np.unique(out_k)) >= (3 if rho0 is _COHERENT else 2)
        assert np.any(out_k[1:] != out_k[:-1])

    @staticmethod
    def _bucket_merge_case(params, rho0):
        """Exact reset where one step brings trajectories into a band from all
        three window bands, and both edge bands (one level each) are visited."""
        env = build_band_environment(3, seed=5)
        seeds = [trajectory_seed(3, i) for i in range(24)]
        out_k, out_p, r00, r10 = _paths(params, env, rho0, 1, 30, seeds, "exact")
        merges = [
            (j, k)
            for j in range(1, len(out_k))
            for k in np.unique(out_k[j])
            if set(out_k[j - 1, out_k[j] == k] - k) == {-1, 0, 1}
        ]
        assert merges
        assert {0, env.n} <= set(out_k.ravel())
        for c, seed in enumerate(seeds):
            ref_k, ref_p, ref00, ref10 = dense_sampled_reference(
                params, env, rho0, 1, 30, seed, "exact"
            )
            assert np.array_equal(out_k[:, c], ref_k)
            assert np.max(np.abs(out_p[:, c] - ref_p)) < 1e-12
            assert np.max(np.abs(r00[:, c] - ref00)) < 1e-12
            assert np.max(np.abs(r10[:, c] - ref10)) < 1e-12

    def test_bucket_merge_matches_dense_reference(self):
        """Two-part buckets, from a coherent start."""
        params = ModelParams(delta_s=1.0, coupling=0.3, dt=math.pi)
        self._bucket_merge_case(params, _COHERENT)

    def test_bucket_merge_matches_dense_reference_ground(self):
        """One-part buckets, from a ground start. At dt = pi a ground start
        meets no three-way merge here; dt = 1.1 gives several."""
        params = ModelParams(delta_s=1.0, coupling=0.3, dt=1.1)
        self._bucket_merge_case(params, QubitState(rho00=1.0))

    @pytest.mark.parametrize(
        "reset_mode, rho0",
        [(mode, rho0) for rho0 in (_COHERENT, QubitState(rho00=1.0))
         for mode in ("coarse", "exact")],
        ids=["coarse", "exact", "coarse-ground", "exact-ground"],
    )
    def test_trajectory_order_does_not_matter(self, reset_mode, rho0, resonant_params,
                                              seven_env):
        seeds = [trajectory_seed(8, i) for i in range(64)]
        perm = np.random.default_rng(0).permutation(len(seeds))
        out = _paths(resonant_params, seven_env, rho0, 2, 60, seeds, reset_mode)
        shuffled = _paths(
            resonant_params, seven_env, rho0, 2, 60, [seeds[i] for i in perm], reset_mode
        )
        # At dt = pi a ground start visits k0 and k0 - 1 only.
        assert len(np.unique(out[0])) >= (3 if rho0 is _COHERENT else 2)
        for a, b in zip(out, shuffled):
            assert np.array_equal(a[:, perm], b)

    @pytest.mark.parametrize("reset_mode", ["coarse", "exact"])
    def test_batch_members_match_solo_runs(
        self, reset_mode, resonant_params, seven_env
    ):
        rho0 = QubitState(rho00=0.6, rho10=0.3 + 0.2j)
        seeds = [trajectory_seed(44, i) for i in range(200)]
        out_k, out_p, r00, r10 = _paths(
            resonant_params, seven_env, rho0, 2, 60, seeds, reset_mode
        )
        for c in (0, 57, 131, 199):
            solo = run_trajectory(
                resonant_params, seven_env, rho0, k0=2, steps=60,
                seed=seeds[c], reset_mode=reset_mode,
            )
            assert np.array_equal(solo.outcomes, out_k[:, c])
            assert np.max(np.abs(solo.probs - out_p[:, c])) < 1e-12
            assert np.max(np.abs(solo.rho00 - r00[:, c])) < 1e-12
            assert np.max(np.abs(solo.rho10 - r10[:, c])) < 1e-12

    @pytest.mark.parametrize(
        "params, make_env",
        [
            (ModelParams(delta_s=1.0, coupling=0.1, dt=math.pi),
             lambda: build_band_environment(5, seed=901)),
            (ModelParams(delta_s=1.0, detuning=0.3, coupling=0.1, dt=1.1),
             lambda: build_spin_environment(6, seed=8)),
        ],
        ids=["random-band-n5", "sigma-x-n6"],
    )
    def test_leakage_bound_matches_dense_reference(self, params, make_env):
        env = make_env()
        _, _, bound = _build(params, env, _COHERENT, 2)
        ref = dense_leakage_bound(params, env)
        assert abs(bound - ref) < 1e-12
        assert ref > 1e-8

    @pytest.mark.parametrize("reset_mode", ["coarse", "exact"])
    def test_leakage_check_raises(self, monkeypatch, reset_mode, resonant_params,
                                  small_env, ground):
        # A cyclic shift by 20 levels of each sector unitary moves level 0
        # (band 0) onto level 20 (band 3), two bands past the adjacent pair.
        shift = np.roll(np.eye(small_env.dim, dtype=complex), 20, axis=0)
        monkeypatch.setattr(Propagator, "unitary", lambda self, dt, out=None: shift)
        with pytest.raises(ValueError, match="band-adjacency selection rule violated"):
            run_trajectory(
                resonant_params, small_env, ground, k0=0, steps=5,
                seed=trajectory_seed(1, 0), reset_mode=reset_mode,
            )

    @pytest.mark.parametrize("reset_mode", ["coarse", "exact"])
    def test_nonselective_reports_leakage(self, monkeypatch, reset_mode, resonant_params,
                                          small_env, ground):
        """The shift that the sampled engine refuses leaves a nonselective run
        to finish and report its bound: all of band 0's weight leaves the
        window."""
        shift = np.roll(np.eye(small_env.dim, dtype=complex), 20, axis=0)
        monkeypatch.setattr(Propagator, "unitary", lambda self, dt, out=None: shift)
        series = run_ensemble(resonant_params, small_env, ground, k0=0, steps=5,
                              engine="nonselective", reset_mode=reset_mode)
        assert series.leakage_bound == pytest.approx(1.0, abs=1e-12)
        assert series.steps == 5

    @pytest.mark.parametrize("reset_mode", ["coarse", "exact"])
    @pytest.mark.parametrize(
        "cycle, k0",
        [((1, 4), 2), ((3, 5, 4), 1), ((3, 4, 5), 1)],
        ids=["swap-1-4", "up-3-5", "down-5-3"],
    )
    def test_leakage_from_unvisited_level_raises(
        self, monkeypatch, cycle, k0, reset_mode, resonant_params, small_env, ground
    ):
        # Each sector unitary is the identity but for a cycle of level 0 of
        # the given bands, each sent to the next: a swap of bands 1 and 4, or
        # a 3-cycle whose only move past an adjacent band goes up (3 -> 5) or
        # down (5 -> 3). A trajectory from k0 stays there and never holds a
        # cycled level; the bound over all states still sees the cycle.
        levels = [small_env.band_slice(k).start for k in cycle]
        eye = np.eye(small_env.dim, dtype=complex)
        cyc = eye.copy()
        cyc[:, levels] = eye[:, np.roll(levels, -1)]
        monkeypatch.setattr(Propagator, "unitary", lambda self, dt, out=None: cyc)
        with pytest.raises(ValueError, match="band-adjacency selection rule violated"):
            run_trajectory(
                resonant_params, small_env, ground, k0=k0, steps=5,
                seed=trajectory_seed(1, 0), reset_mode=reset_mode,
            )


class TestOneSectorTrajectories:
    """A ground or excited start occupies one parity sector p, and U keeps
    it there: on band k the sampled state is |a><a| with
    a = (p - k) mod 2, and the sampled engine stores nothing of the other
    sector."""

    @pytest.mark.parametrize("reset_mode", ["coarse", "exact"])
    @pytest.mark.parametrize("rho00", [1.0, 0.0], ids=["ground", "excited"])
    def test_one_sector_invariant(self, any_env, rho00, reset_mode):
        params = ModelParams(delta_s=1.3, coupling=0.1, dt=1.1)
        rho0, k0 = QubitState(rho00=rho00), 2
        pairs, us, leakage = _build(params, any_env, rho0, k0)
        p = (k0 + (rho00 == 0.0)) % 2
        assert us[1 - p] is None and us[p] is not None
        assert pairs == {(p, p): 1.0}
        nb, levels = any_env.n_bands, any_env.band_slice
        if reset_mode == "coarse":
            op = transfer_blocks(params, any_env, rho0, k0)[1]
            assert op.shape == (1, nb, nb)
        else:
            op = us
            for k in range(nb):
                for k2 in range(max(k - 1, 0), min(k + 2, nb)):
                    assert np.any(us[p][levels(k2), levels(k)])
        out_k, _, r00, r10 = _stacked(_sample_paths(
            params, any_env, op, pairs, leakage, rho0, k0, 30, trajectory_words(21, 16),
            reset_mode
        ))
        assert set(np.unique(out_k % 2)) == {0, 1}
        expect = ((p - out_k) % 2 == 0).astype(float)
        assert np.array_equal(r00, expect)
        assert np.all(r10 == 0)

    def test_ground_coarse_run_is_band_markov_chain(self, resonant_params, seven_env,
                                                    ground):
        """Each outcome's probability is the block of the one live pair
        (p, p), normalised over the window of the band it leaves."""
        traj = run_trajectory(resonant_params, seven_env, ground, k0=2, steps=200,
                              seed=trajectory_seed(5, 0), reset_mode="coarse")
        _, sums, _ = transfer_blocks(resonant_params, seven_env, ground, 2)
        assert sums.shape == (1, seven_env.n_bands, seven_env.n_bands)
        chain = sums[0].real
        i = traj.outcomes
        assert len(np.unique(i)) >= 2
        for j in range(traj.steps):
            k, k2 = i[j], i[j + 1]
            window = chain[max(k - 1, 0):k + 2, k]
            assert abs(traj.probs[j] - chain[k2, k] / window.sum()) < 1e-12

    @settings(max_examples=40)
    @given(
        n=st.integers(1, 6),
        model=st.sampled_from(["random-band", "sigma-x"]),
        rho00=st.sampled_from([1.0, 0.0]),
        dt=st.floats(0.0, 4 * math.pi),
        coupling=st.floats(0.0, 0.3),
        env_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_probs_follow_the_chain(self, n, model, rho00, dt, coupling, env_seed, seed,
                                    data):
        """Over drawn builds: every outcome probability of a one-sector coarse
        run_trajectory is the chain transfer_blocks(...)[1][0].real at
        (outcome, band left), normalised over the window of the band left. A
        run is refused exactly where the leakage bound exceeds the sampled
        engine's tolerance."""
        params = ModelParams(delta_s=1.0, coupling=coupling, dt=dt)
        build = build_band_environment if model == "random-band" else build_spin_environment
        env = build(n, seed=env_seed)
        rho0, k0 = QubitState(rho00=rho00), data.draw(st.sampled_from(range(n + 1)))
        _, blocks, leakage = transfer_blocks(params, env, rho0, k0)
        if leakage > max(1e-9, 1e3 * coupling**4):
            with pytest.raises(ValueError, match="band-adjacency selection rule"):
                run_trajectory(params, env, rho0, k0, 30, seed=seed)
            return
        traj, chain = run_trajectory(params, env, rho0, k0, 30, seed=seed), blocks[0].real
        window = [chain[max(k - 1, 0):k + 2, k].sum() for k in range(env.n_bands)]
        i = traj.outcomes
        expect = [chain[k2, k] / window[k] for k, k2 in zip(i[:-1], i[1:])]
        assert np.max(np.abs(traj.probs - expect)) < 1e-12


class TestPairBlocks:
    """The blocks S_pq of _pair_sums that both coarse engines step, for a
    coherent start (all three pairs of the table live)."""

    POINTS = pytest.mark.parametrize(
        "dt, detuning, coupling",
        [(1.1, 0.0, 0.1), (math.pi, 0.3, 0.05), (4.0, -0.7, 0.2)],
    )

    @staticmethod
    def _blocks(env, dt, detuning, coupling):
        # delta_b = 1.3 at every detuning.
        params = ModelParams(delta_s=1.3 - detuning, detuning=detuning,
                             coupling=coupling, dt=dt)
        pairs, us, _ = _build(params, env, _COHERENT, 2)
        assert list(pairs) == [(0, 0), (1, 1), (1, 0)]
        return us, dict(zip(pairs, _pair_sums(us, pairs, env)))

    @POINTS
    def test_invariants(self, any_env, dt, detuning, coupling):
        """S_00 and S_11 are column-stochastic, S_10 is the conjugate of the
        (0, 1) block formed from u_0 conj(u_1), and
        [[S_00, S_01], [S_10, S_11]] with S_01 = conj(S_10) is a Gram matrix
        at every (k', k), so positive semidefinite."""
        us, s = self._blocks(any_env, dt, detuning, coupling)
        for p in (0, 1):
            assert np.max(np.abs(s[p, p].sum(axis=0) - 1.0)) <= 1e-13
        starts = any_env.band_starts
        s01 = np.add.reduceat(np.add.reduceat(us[0] * us[1].conj(), starts, axis=0),
                              starts, axis=1) / np.asarray(any_env.degeneracies)
        assert np.array_equal(s[1, 0], s01.conj())
        gram = np.stack([[s[0, 0], s01], [s[1, 0], s[1, 1]]]).transpose(2, 3, 0, 1)
        assert np.linalg.eigvalsh(gram).min() >= -1e-14

    @POINTS
    def test_coupling_sign_leaves_blocks(self, any_env, dt, detuning, coupling):
        """B -> -B is U -> D U D with D = (-1)^k on band k, and every block
        sums u_p conj(u_q) over one band pair, where the signs cancel."""
        flipped = dataclasses.replace(
            any_env, up_blocks=tuple(-b for b in any_env.up_blocks)
        )
        _, s = self._blocks(any_env, dt, detuning, coupling)
        _, t = self._blocks(flipped, dt, detuning, coupling)
        for pq in s:
            assert np.max(np.abs(s[pq] - t[pq])) <= 1e-14


class TestPairTable:
    """_build's pair table: the live pairs among (0, 0), (1, 1) and (1, 0)
    with their start entries on band k0, and the sectors they name, which
    are those whose row of rho0 on band k0 has a nonzero entry."""

    # |rho10|^2 = 9e-10 of the last start passes validate's tolerance of 1e-9.
    STARTS = {**_SECTOR_STARTS, "coherent": _COHERENT,
              "no-ground": QubitState(rho00=0.0, rho10=3e-5j)}

    @pytest.mark.parametrize("k0", [2, 3])
    @pytest.mark.parametrize("start", sorted(STARTS))
    def test_table_and_sectors(self, resonant_params, small_env, start, k0):
        rho0 = self.STARTS[start]
        rho0.validate()
        pairs, us, _ = _build(resonant_params, small_env, rho0, k0)
        rs = rho0.matrix()
        entry = {(p, q): rs[(p - k0) % 2, (q - k0) % 2] for p in (0, 1) for q in (0, 1)}
        live = [pq for pq in [(0, 0), (1, 1), (1, 0)] if entry[pq] != 0]
        assert list(pairs) == live
        assert all(pairs[pq] == entry[pq] for pq in live)
        expect = {"ground": 1, "excited": 1, "diagonal": 2, "coherent": 3, "no-ground": 2}
        assert len(pairs) == expect[start]
        rows = [p for p in (0, 1) if np.any(rs[(p - k0) % 2])]
        assert [p for p in (0, 1) if us[p] is not None] == rows

    @pytest.mark.parametrize("build", [build_band_environment, build_spin_environment],
                             ids=["random-band", "sigma-x"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_entries_sit_at_the_tls_levels(self, build, n):
        """From every band k0 of both models at n = 1..6, each pair (p, q)
        of the table holds rho0's entry at (_tls_level(p, k0),
        _tls_level(q, k0)), and the table holds every pair whose entry there
        is nonzero, for ground, excited, diagonal and coherent starts."""
        env = build(n, seed=8)
        params = ModelParams(delta_s=1.0, coupling=0.05, dt=math.pi)
        expect = {"ground": 1, "excited": 1, "diagonal": 2, "coherent": 3}
        for start, live in expect.items():
            rs = self.STARTS[start].matrix()
            for k0 in range(env.n_bands):
                pairs, _, _ = _build(params, env, self.STARTS[start], k0)
                assert len(pairs) == live
                for (p, q), entry in pairs.items():
                    assert entry == rs[_tls_level(p, k0), _tls_level(q, k0)]

    def test_no_ground_start_runs(self, resonant_params, small_env):
        """A start with rho00 = 0 and a tiny coherence has no pair (0, 0) on an
        even band; both nonselective engines agree with the dense reference."""
        rho0 = self.STARTS["no-ground"]
        for reset_mode in ("coarse", "exact"):
            series = run_ensemble(resonant_params, small_env, rho0, 2, 20,
                                  engine="nonselective", reset_mode=reset_mode)
            r00, r10 = dense_nonselective_reference(resonant_params, small_env, rho0, 2,
                                                    20, reset_mode)
            assert np.max(np.abs(series.rho00 - r00)) < 1e-12
            assert np.max(np.abs(series.rho10 - r10)) < 1e-12


class TestBatchStreams:
    @pytest.mark.parametrize("reset_mode", ["coarse", "exact"])
    @pytest.mark.parametrize("m", [1, 7, 1000])
    # 2^130 + 3 has more entropy words than SeedSequence's pool of four.
    @pytest.mark.parametrize("master", [0, 1, 20451, 2**32 + 7, 2**70 + 3, 2**130 + 3])
    def test_uniforms_match_numpy(self, master, m, reset_mode):
        """The batch draws, in the engine's pattern (two up front for exact
        reset, then blocks of block_steps(m) steps), are bit for bit those of
        default_rng(trajectory_seed(master, i)) drawn one trajectory at a
        time: two up front, then per-step draws."""
        block = block_steps(m)
        steps = 2 * block + 3
        up_front = 2 if reset_mode == "exact" else 0
        streams = Streams(trajectory_words(master, m))
        batch = np.empty((up_front + steps, m))
        if up_front:
            streams.random(batch[:up_front])
        for j in range(0, steps, block):
            streams.random(batch[up_front + j:up_front + min(j + block, steps)])
        for i in range(m):
            rng = np.random.default_rng(trajectory_seed(master, i))
            solo = np.concatenate([rng.random(up_front), [rng.random() for _ in range(steps)]])
            assert np.array_equal(batch[:, i], solo)

    @pytest.mark.parametrize("master, error", [(-1, ValueError), (7.5, TypeError)])
    def test_bad_master_seed_fails_before_the_build(self, master, error, monkeypatch,
                                                    resonant_params, small_env, ground):
        """A master seed SeedSequence refuses fails as it does there, and
        run_ensemble refuses it before diagonalising anything."""
        with pytest.raises(error):
            trajectory_words(master, 4)
        monkeypatch.setattr(dynamics, "_build", lambda *a: pytest.fail("built"))
        with pytest.raises(error):
            run_ensemble(resonant_params, small_env, ground, k0=2, steps=5, n_traj=3,
                         master_seed=master, engine="sampled")

    def test_import_builds_no_stream_table(self):
        """Importing the CLI loads no numpy.random and builds no array in the
        streams module: both would add to every command's start-up."""
        src = str(Path(_streams.__file__).resolve().parents[1])
        code = (
            "import sys, numpy, tlsbath.cli\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random imported'\n"
            "names = vars(sys.modules['tlsbath._streams']).items()\n"
            "built = [k for k, v in names if any(isinstance(x, numpy.ndarray) for x in\n"
            "         (v if isinstance(v, (tuple, list)) else [v]))]\n"
            "assert not built, built\n"
        )
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


# Every entry point that takes a start band: run_ensemble for each engine
# and reset mode, run_trajectory for each reset mode, and transfer_blocks.
_BAND_RUNS = {
    **{f"run_ensemble-{engine}-{reset}": (
        lambda p, env, rho0, k0, engine=engine, reset=reset: run_ensemble(
            p, env, rho0, k0, 5, n_traj=3, master_seed=1, reset_mode=reset, engine=engine))
       for engine in ("sampled", "nonselective") for reset in ("coarse", "exact")},
    **{f"run_trajectory-{reset}": (
        lambda p, env, rho0, k0, reset=reset: run_trajectory(
            p, env, rho0, k0, 5, seed=1, reset_mode=reset))
       for reset in ("coarse", "exact")},
    "transfer_blocks": transfer_blocks,
}


@pytest.mark.parametrize("k0, message", [
    (-1, r"^band k0 = -1 outside \[0, 5\]$"),
    (6, r"^band k0 = 6 outside \[0, 5\]$"),
    (True, r"^k0 must be an integer, got True$"),
    (2.0, r"^k0 must be an integer, got 2.0$"),
], ids=["k0=-1", "k0=n+1", "k0=True", "k0=2.0"])
@pytest.mark.parametrize("run", sorted(_BAND_RUNS))
def test_band_outside_environment_refused_before_assembly(
    monkeypatch, resonant_params, small_env, ground, run, k0, message
):
    """A start band that is not one of the bands 0..n of the five-spin
    environment is refused, named, by the one check that every run and
    transfer_blocks pass, before any sector Hamiltonian is assembled. A bool
    is no band: as an index, True would select every band at once."""
    monkeypatch.setattr(dynamics, "build_total_hamiltonian",
                        lambda *a: pytest.fail("assembled a Hamiltonian"))
    with pytest.raises(ValueError, match=message):
        _BAND_RUNS[run](resonant_params, small_env, ground, k0)


_STARTS = {
    "ground": QubitState(rho00=1.0),
    "excited": QubitState(rho00=0.0),
    "diagonal": QubitState(rho00=0.3),
    "coherent": _COHERENT,
}


class TestBlockRecords:
    @settings(max_examples=25)
    @given(
        n=st.integers(1, 5),
        model=st.sampled_from(["random-band", "sigma-x"]),
        start=st.sampled_from(sorted(_STARTS)),
        reset_mode=st.sampled_from(["coarse", "exact"]),
        m=st.integers(1, 1500),
        rows=st.integers(1, 8),
        blocks=st.integers(1, 2),
        offset=st.integers(-1, 1),
        master=st.integers(0, 2**32),
    )
    def test_ensemble_is_reduced_history(self, n, model, start, reset_mode, m, rows,
                                         blocks, offset, master):
        """run_ensemble reduces its records one block at a time; its series
        are bit for bit the mean and standard error of the whole
        (steps + 1, m) history, for runs that end one step before, on and
        one step after a block boundary. The block length changes no value
        (TestBatchStreams), so blocks of `rows` steps stand in for the
        2^13-entry ones, which at m = 1 would take 8192 steps to cross."""
        params = ModelParams(delta_s=1.0, coupling=0.05, dt=math.pi)
        build = build_band_environment if model == "random-band" else build_spin_environment
        env = build(n, seed=8)
        k0 = n // 2
        steps = max(blocks * rows + offset, 1)
        seeds = [trajectory_seed(master, i) for i in range(m)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "block_steps", lambda _: rows)
            series = run_ensemble(params, env, _STARTS[start], k0, steps, n_traj=m,
                                  master_seed=master, reset_mode=reset_mode,
                                  engine="sampled")
            _, _, r00, r10 = _paths(params, env, _STARTS[start], k0, steps, seeds,
                                    reset_mode)
        assert r00.shape == (steps + 1, m)
        assert np.array_equal(series.rho00, r00.mean(axis=1))
        assert np.array_equal(series.rho10, r10.mean(axis=1))
        stderr = r00.std(axis=1, ddof=1) / np.sqrt(m) if m > 1 else np.zeros(steps + 1)
        assert np.array_equal(series.stderr, stderr)

    def test_blocks_are_draw_blocks(self, resonant_params, small_env):
        """The initial row comes alone, then block_steps(m) rows at a time,
        the last block short, all written into the same buffers; the
        ensemble of the run is the mean and standard error of their rows."""
        m, steps = 700, 2 * block_steps(700) + 3
        pairs, us, leakage = _build(resonant_params, small_env, _COHERENT, 2)
        spans, buffers, r00 = [], set(), []
        for j0, k, p, b00, b10 in _sample_paths(resonant_params, small_env, us, pairs,
                                                 leakage, _COHERENT, 2, steps,
                                                 trajectory_words(4, m), "exact"):
            assert k.shape == b00.shape == b10.shape == (len(b00), m)
            assert p.shape == ((0 if j0 == 0 else len(b00)), m)
            spans.append((j0, len(b00)))
            buffers.add(id(b00.base))
            r00.append(b00.copy())
        assert spans == [(0, 1), (1, 11), (12, 11), (23, 3)]
        assert len(buffers) == 1
        r00 = np.concatenate(r00)
        series = run_ensemble(resonant_params, small_env, _COHERENT, 2, steps, n_traj=m,
                              master_seed=4, reset_mode="exact", engine="sampled")
        assert np.array_equal(series.rho00, r00.mean(axis=1))
        assert np.array_equal(series.stderr, r00.std(axis=1, ddof=1) / np.sqrt(m))

    def test_memory_does_not_grow_with_steps(self, resonant_params, small_env, ground):
        """A sampled run keeps one draw block of records: from 100 to 2000
        steps its tracemalloc peak grows by no more than its output series
        (rho00, stderr and complex rho10, 32 bytes a step) and 64 KiB of
        slack. Whole (steps + 1, 500) histories of band, probability and
        reduced state would add 36 MiB and more with their reductions'
        temporaries."""
        def peak(steps):
            tracemalloc.start()
            try:
                run_ensemble(resonant_params, small_env, ground, 2, steps, n_traj=500,
                             master_seed=3, engine="sampled")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        growth = peak(2000) - peak(100)
        assert growth <= 32 * 1900 + 64 * 1024, growth

    def test_trajectory_holds_its_record_once(self, monkeypatch, resonant_params, small_env,
                                              ground):
        """run_trajectory copies every block into its series as it comes: from
        1000 to 4000 steps its tracemalloc peak grows by no more than those
        series (outcomes, probs, rho00 and complex rho10, 40 bytes a step)
        and 64 KiB of slack. Block columns joined at the end would hold the
        record twice, 80 bytes a step. Blocks of 64 steps stand in for the
        2^13-step ones, which both runs would fit in."""
        monkeypatch.setattr(dynamics, "block_steps", lambda _: 64)

        def peak(steps):
            tracemalloc.start()
            try:
                run_trajectory(resonant_params, small_env, ground, 2, steps, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        growth = peak(4000) - peak(1000)
        assert growth <= 40 * 3000 + 64 * 1024, growth


class TestWindows:
    """_windows is the one spelling of the selection rule's window: for
    every band k, the bands k - 1 .. k + 1 inside [0, n], their levels and
    their slots among the three slots k - 1, k, k + 1."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_table_is_the_adjacent_bands(self, n):
        env = build_band_environment(n, seed=1)
        levels_of = [list(range(env.dim))[env.band_slice(j)] for j in range(n + 1)]
        table = dynamics._windows(env)
        assert len(table) == n + 1
        for k, (bands, levels, slots) in enumerate(table):
            near = [j for j in (k - 1, k, k + 1) if 0 <= j <= n]
            assert list(bands) == near
            assert list(range(env.dim))[levels] == [g for j in near for g in levels_of[j]]
            assert list(range(3))[slots] == [j - k + 1 for j in near]

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("build", [build_band_environment, build_spin_environment],
                             ids=["random-band", "sigma-x"])
    def test_budget_and_bound_with_the_window_written_out(self, build, n):
        """_trajectory_bytes and _leakage_bound equal, bit for bit, the same
        figures with the window of band k written out by band index."""
        env = build(n, seed=5)
        degs, starts = env.degeneracies, env.band_starts
        window = max(sum(degs[max(k - 1, 0):k + 2]) for k in range(n + 1))
        assert dynamics._trajectory_bytes(env, "coarse") == dynamics._SAMPLED_TRAJ_BYTES
        assert dynamics._trajectory_bytes(env, "exact") == (
            dynamics._SAMPLED_TRAJ_BYTES + 2 * 16 * (2 * max(degs) + window))
        params = ModelParams(delta_s=1.0, detuning=0.3, coupling=0.1, dt=1.1)
        _, us, bound = _build(params, env, _COHERENT, n // 2)
        worst = 0.0
        for k, (s, nk) in enumerate(zip(starts, degs)):
            above = min(k + 1, n)
            lo, hi = starts[max(k - 1, 0)], starts[above] + degs[above]
            for u in us:
                far = np.delete(u[:, s:s + nk], np.s_[lo:hi], axis=0)
                worst = max(worst, float(np.linalg.eigvalsh(far.conj().T @ far)[-1]))
        assert bound == worst


class TestTransferBlocks:
    """transfer_blocks is the one coarse-reset operator: _build's pair table
    and leakage bound with the pair blocks of _pair_sums, and the only thing
    either coarse engine holds of the build while it steps."""

    @pytest.mark.parametrize("start", sorted(_STARTS))
    def test_blocks_are_pair_sums(self, any_env, start):
        params = ModelParams(delta_s=1.0, detuning=0.3, coupling=0.1, dt=1.1)
        rho0, k0 = _STARTS[start], 2
        pairs, blocks, leakage = transfer_blocks(params, any_env, rho0, k0)
        built_pairs, us, built_leakage = _build(params, any_env, rho0, k0)
        assert pairs == built_pairs and leakage == built_leakage
        assert np.array_equal(blocks, _pair_sums(us, pairs, any_env))

    @pytest.mark.parametrize("engine, stepper", [
        ("nonselective", "_run_nonselective_coarse"), ("sampled", "_sample_paths")])
    def test_engines_step_without_sector_unitaries(self, monkeypatch, resonant_params,
                                                    seven_env, ground, engine, stepper):
        """A coarse run enters its stepping with less traced memory than one
        sector unitary, 16 env.dim^2 bytes (262 144 at n = 7): the sector
        unitaries are released once the pair blocks are formed."""
        step, traced = getattr(dynamics, stepper), []

        def entered(*args):
            traced.append(tracemalloc.get_traced_memory()[0])
            return step(*args)

        monkeypatch.setattr(dynamics, stepper, entered)
        sampled = dict(n_traj=4, master_seed=1) if engine == "sampled" else {}
        tracemalloc.start()
        try:
            run_ensemble(resonant_params, seven_env, ground, 2, 5, engine=engine,
                         reset_mode="coarse", **sampled)
        finally:
            tracemalloc.stop()
        assert len(traced) == 1 and traced[0] < 16 * seven_env.dim**2, traced


@st.composite
def _pair_block_cases(draw):
    """A build to check: a random-band or a sigma-x environment; a start
    band in it; a start of each kind; dt up to 4 pi and coupling up to
    0.3."""
    n = draw(st.integers(1, 6))
    delta_b = draw(st.floats(0.5, 2.0))
    seed = draw(st.integers(0, 2**16))
    model = draw(st.sampled_from(["random-band", "sigma-x"]))
    build = build_band_environment if model == "random-band" else build_spin_environment
    env = build(n, seed=seed)
    detuning = draw(st.floats(-0.9 * delta_b, 0.9 * delta_b))
    params = ModelParams(delta_s=delta_b - detuning, detuning=detuning,
                         coupling=draw(st.floats(0.0, 0.3)),
                         dt=draw(st.floats(0.0, 4 * math.pi)))
    return params, env, draw(st.sampled_from(range(n + 1))), _STARTS[
        draw(st.sampled_from(sorted(_STARTS)))]


class TestPairBlockProperties:
    """Invariants of the pair blocks S_pq (_pair_sums) that hold exactly,
    checked over drawn builds: every live S_pp is column-stochastic, the
    blocks form a Gram matrix at every (k', k), B -> -B changes no block and
    no leakage bound, dt = 0 gives the identity, and a sigma-x S_pp is
    reversible with stationary law N_k. Rescaling time, H -> c H with
    dt -> dt / c, keeps U and so every block and the leakage bound, up to
    rounding."""

    @staticmethod
    def _blocks(params, env, rho0, k0):
        pairs, blocks, leakage = transfer_blocks(params, env, rho0, k0)
        return dict(zip(pairs, blocks)), leakage

    @settings(max_examples=100)
    @given(case=_pair_block_cases(), c=st.floats(0.25, 4.0))
    def test_invariants(self, case, c):
        params, env, k0, rho0 = case
        s, leakage = self._blocks(params, env, rho0, k0)
        for p in (0, 1):
            if (p, p) in s:
                assert np.max(np.abs(s[p, p].sum(axis=0) - 1.0)) <= 1e-13
        sectors = [p for p in (0, 1) if (p, p) in s]
        cross = s.get((1, 0), np.zeros_like(s[sectors[0], sectors[0]]))
        gram = [[s[a, b] if a == b else (cross if a else cross.conj()) for b in sectors]
                for a in sectors]
        gram = np.stack(gram).transpose(2, 3, 0, 1)
        assert np.linalg.eigvalsh(gram).min() >= -1e-13

        flipped = dataclasses.replace(env, up_blocks=tuple(-b for b in env.up_blocks))
        t, flipped_leakage = self._blocks(params, flipped, rho0, k0)
        assert s.keys() == t.keys()
        assert all(np.array_equal(s[pq], t[pq]) for pq in s)
        assert flipped_leakage == leakage

        scaled = dataclasses.replace(params, delta_s=c * params.delta_s,
                                     detuning=c * params.detuning,
                                     coupling=c * params.coupling, dt=params.dt / c)
        t, scaled_leakage = self._blocks(scaled, env, rho0, k0)
        assert all(np.max(np.abs(s[pq] - t[pq])) <= 1e-12 for pq in s)
        assert abs(scaled_leakage - leakage) <= 1e-12

        still, _ = self._blocks(dataclasses.replace(params, dt=0.0), env, rho0, k0)
        for pq, block in still.items():
            if pq[0] == pq[1]:
                assert np.max(np.abs(block - np.eye(env.n_bands))) <= 1e-13
        if env.model == "sigma-x":
            degs = np.asarray(env.degeneracies)
            for pq, block in s.items():
                if pq[0] == pq[1]:
                    flow = block * degs
                    assert np.max(np.abs(flow - flow.T)) <= 1e-13

    @pytest.mark.parametrize(
        "n, delta_b, detuning, seed, coupling, dt, k0",
        [(4, 1.0, 0.0, 0, 9.560293038553678e-175, 0.0, 0),
         (3, 1.4828199023517652, -1.0677248564499127, 13415, 2.220446049250313e-16, 0.0, 0),
         (3, 1.0320361172324384, 0.6901639982015647, 15673, 6.314535688553314e-15,
          0.70458174759592, 0),
         (6, 0.8261606306418343, 0.6686871582032033, 3284, 2.043470589506849e-15,
          11.934974079331123, 2)],
    )
    def test_coupling_sign_at_degenerate_bands(self, n, delta_b, detuning, seed,
                                               coupling, dt, k0):
        """Sigma-x bands are exactly degenerate. At couplings near or below
        the rounding of the energies, eigh's basis in them is set by
        rounding, which B's sign changes: outside the sign gauge of B
        (BandedEnvironment.sign_gauged) these builds give blocks of B and -B
        6.7e-16 to 2.5e-14 apart; in it they are bit-identical."""
        env = build_spin_environment(n, seed=seed)
        params = ModelParams(delta_s=delta_b - detuning, detuning=detuning,
                             coupling=coupling, dt=dt)
        flipped = dataclasses.replace(env, up_blocks=tuple(-b for b in env.up_blocks))
        s, leakage = self._blocks(params, env, _COHERENT, k0)
        t, flipped_leakage = self._blocks(params, flipped, _COHERENT, k0)
        assert all(np.array_equal(s[pq], t[pq]) for pq in s)
        assert flipped_leakage == leakage


class TestJointStateHealth:
    def test_per_step_trace_hermiticity_positivity(self, small_env):
        p = ModelParams(delta_s=1.0, coupling=0.05, dt=math.pi)
        u = Propagator(joint_hamiltonian(p, small_env)).unitary(p.dt)
        rho = coarse_reset(QubitState(rho00=0.8, rho10=0.1j), small_env, 2)
        for _ in range(25):
            rho = u @ rho @ u.conj().T
            rho = measure_band_nonselective(rho, small_env)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
            assert np.linalg.eigvalsh(rho).min() >= -1e-9

    def test_norm_drift_pure_vector(self, small_env):
        p = ModelParams(delta_s=1.0, coupling=0.05, dt=math.pi)
        u = Propagator(joint_hamiltonian(p, small_env)).unitary(p.dt)
        psi = pure_product(small_env, np.array([1.0, 0.0]), k=2, level=0)
        for _ in range(10_000):
            psi = u @ psi
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-8


def test_ergodicity_time_average(resonant_params, seven_env, ground):
    """Infinite-time average of one trajectory approaches the ensemble value."""
    tr = run_trajectory(
        resonant_params, seven_env, ground, k0=2, steps=100_000,
        seed=trajectory_seed(5, 0),
    )
    assert abs(tr.rho00[1000:].mean() - 0.75) < 0.05


class TestMemoryGuard:
    """A run is refused, naming its size, where the estimate of what it holds
    exceeds the physical memory (model._physical_memory, patched here), and
    runs where the estimate equals it."""

    @pytest.mark.parametrize("rho0, sectors", [(QubitState(rho00=1.0), 1), (_COHERENT, 2)])
    def test_build(self, monkeypatch, resonant_params, small_env, rho0, sectors):
        need = (sectors + 4) * 16 * small_env.dim**2
        monkeypatch.setattr(model, "_physical_memory", lambda: need)
        _, us, _ = _build(resonant_params, small_env, rho0, 2)
        assert sum(u is not None for u in us) == sectors
        monkeypatch.setattr(model, "_physical_memory", lambda: need - 1)
        with pytest.raises(ValueError, match="sector unitaries of dimension 32 would take"):
            _build(resonant_params, small_env, rho0, 2)

    @pytest.mark.parametrize("runner, step_bytes", [("ensemble", 32), ("trajectory", 40)])
    def test_steps(self, monkeypatch, resonant_params, small_env, ground, runner, step_bytes):
        steps = 4000   # its series outweigh the build's 81 920 B

        def run():
            if runner == "ensemble":
                return run_ensemble(resonant_params, small_env, ground, 2, steps)
            return run_trajectory(resonant_params, small_env, ground, 2, steps, seed=0)

        monkeypatch.setattr(model, "_physical_memory", lambda: steps * step_bytes)
        assert len(run().rho00) == steps + 1
        monkeypatch.setattr(model, "_physical_memory", lambda: steps * step_bytes - 1)
        with pytest.raises(ValueError, match=f"of {steps} steps would take"):
            run()

    @pytest.mark.parametrize("reset_mode, traj_bytes",
                             [("coarse", 688), ("exact", 688 + 2 * 16 * (2 * 10 + 25))])
    def test_trajectories(self, monkeypatch, resonant_params, small_env, ground, reset_mode,
                          traj_bytes):
        """A sampled run budgets the worst start's bytes a trajectory, also
        from a ground start: 688 B, and with exact reset its parts in two
        sectors on the largest band (N_k = 10 at n = 5) and window (25 levels),
        16 B an entry, both before any array of n_traj entries."""
        n_traj = 200   # its trajectories outweigh the build's 81 920 B

        def run():
            return run_ensemble(resonant_params, small_env, ground, 2, 2, n_traj=n_traj,
                                master_seed=1, reset_mode=reset_mode, engine="sampled")

        monkeypatch.setattr(model, "_physical_memory", lambda: n_traj * traj_bytes)
        assert len(run().rho00) == 3
        monkeypatch.setattr(model, "_physical_memory", lambda: n_traj * traj_bytes - 1)
        with pytest.raises(ValueError, match=f"of {n_traj} trajectories would take"):
            run()
