import dataclasses
import math
import sys

import numpy as np
import pytest
import scipy.special

from oracles import joint_hamiltonian
from tlsbath import model
from tlsbath.dynamics import run_ensemble
from tlsbath.model import (
    ModelParams,
    QubitState,
    beta_working_point,
    binomial_degeneracy,
    build_band_environment,
    build_spin_environment,
    build_total_hamiltonian,
    effective_beta,
)
from tlsbath.model import _digamma, _tls_level


def test_binomial_degeneracies():
    assert binomial_degeneracy(7, 1) == 7
    assert binomial_degeneracy(7, 2) == 21
    assert binomial_degeneracy(13, 0) == 1
    assert binomial_degeneracy(62, 31) == math.comb(62, 31)
    # Exact at any n: the builders, not the binomials, bound the spin count.
    assert binomial_degeneracy(200, 100) == math.comb(200, 100)


def test_binomial_degeneracy_bounds():
    with pytest.raises(ValueError):
        binomial_degeneracy(7, 8)
    with pytest.raises(ValueError):
        binomial_degeneracy(7, -1)
    for k in (True, 2.0):
        with pytest.raises(ValueError, match="k must be an integer"):
            binomial_degeneracy(7, k)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(delta_s=0.0)
    with pytest.raises(ValueError):
        ModelParams(delta_s=1.0, detuning=-1.0)
    with pytest.raises(ValueError):
        ModelParams(delta_s=1.0, coupling=-0.1)
    with pytest.raises(ValueError):
        ModelParams(delta_s=1.0, dt=-0.1)
    assert ModelParams(delta_s=1.0, detuning=0.7).delta_b == pytest.approx(1.7)


@pytest.mark.parametrize(
    "field, value",
    [
        ("delta_s", math.nan),
        ("dt", math.inf),
        ("coupling", math.nan),
        ("coupling", "0.05"),
        ("detuning", True),
        ("dt", None),
        ("delta_s", [1]),
    ],
)
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        ModelParams(**{"delta_s": 1.0, field: value})


def test_params_hold_floats():
    """An integer field is held as a float, so that two integer fields, whose
    sum delta_b would pass int64 as an integer, still form a Hamiltonian."""
    p = ModelParams(delta_s=2**64, detuning=1, coupling=0, dt=1)
    assert [type(getattr(p, f.name)) for f in dataclasses.fields(p)] == [float] * 4
    h = build_total_hamiltonian(p, build_band_environment(3, seed=1), 0)
    assert np.isfinite(h).all()


def test_checks_refuse_what_no_float_holds():
    """A real past the float range is refused as not finite, without its
    digits, and a byte count past 2^128 without a figure, where both
    owners raised OverflowError."""
    with pytest.raises(ValueError,
                       match="^dt must be finite, got an integer past the float range$"):
        ModelParams(delta_s=1.0, dt=10**400)
    with pytest.raises(ValueError,
                       match=r"^a grid would take more than 2\^128 B, more than any memory$"):
        model._check_fits("a grid", 10**400)


_HUGE_INT = 10**5000   # more digits than Python's int-string limit prints


@pytest.mark.parametrize("refuse, key", [
    (lambda: model._check_count("n", -_HUGE_INT), "n"),
    (lambda: model._check_count("n", [_HUGE_INT]), "n"),
    (lambda: model._check_choice("engine", _HUGE_INT, ("sampled", "nonselective")),
     "engine"),
    (lambda: model._check_band("k0", _HUGE_INT, 5), "k0"),
    (lambda: run_ensemble(ModelParams(delta_s=1.0), build_band_environment(3, seed=1),
                          QubitState(rho00=1.0), 1, steps=_HUGE_INT), "steps"),
], ids=["count", "count-in-list", "choice", "band", "run-steps"])
def test_huge_integer_refusal_names_its_key(refuse, key):
    """An integer too long for Python's int-string limit is refused with
    its key named in at most 200 characters, its digits shown as a short
    text, not with the limit's own message."""
    with pytest.raises(ValueError) as refused:
        refuse()
    text = str(refused.value)
    limit = f"an integer of more than {sys.get_int_max_str_digits()} digits"
    assert key in text and limit in text and len(text) <= 200, text


@pytest.mark.parametrize("value", [["a"], {"a": 1}, "c", None, 1])
def test_check_choice_refuses_by_equality(value):
    """The one name check compares by ==: a list or an object is refused
    like any other name that is not a choice, not hashed."""
    with pytest.raises(ValueError, match=r"^unknown thing .*; choose from \['a', 'b'\]$"):
        model._check_choice("thing", value, {"b": 1, "a": 2})
    model._check_choice("thing", "a", ("b", "a"))


def test_qubit_state_consistency():
    q = QubitState(rho00=0.3, rho10=0.35 + 0.1j)
    assert q.rho11 == pytest.approx(0.7)
    assert q.rho01 == np.conjugate(q.rho10)
    m = q.matrix()
    assert np.allclose(m, m.conj().T)
    back = QubitState.from_matrix(m)
    assert back.rho00 == pytest.approx(q.rho00)
    assert back.rho10 == pytest.approx(q.rho10)


def test_qubit_state_validate_rejects_overlarge_coherence():
    with pytest.raises(ValueError):
        QubitState(rho00=0.9, rho10=0.5 + 0.0j).validate()


@pytest.mark.parametrize("rho10", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                   complex(math.inf, 0.0)])
def test_qubit_state_validate_rejects_non_finite_coherence(rho10):
    with pytest.raises(ValueError, match="coherence"):
        QubitState(rho00=0.5, rho10=rho10).validate()


def test_block_shapes():
    env = build_band_environment(7, seed=42)
    shapes = [b.shape for b in env.up_blocks]
    assert shapes == [(7, 1), (21, 7), (35, 21), (35, 35), (21, 35), (7, 21), (1, 7)]
    assert env.dim == 2**7


def test_coupling_block_statistics():
    """Mean |C|^2 of the 21x7 block across seeds against its target value."""
    target = (21 * 7) ** -0.5
    samples = []
    for seed in range(120):
        env = build_band_environment(7, seed=seed)
        samples.append(np.mean(np.abs(env.up_blocks[1]) ** 2))
    samples = np.asarray(samples)
    stderr = samples.std(ddof=1) / math.sqrt(len(samples))
    assert abs(samples.mean() - target) < 5 * stderr


def test_coupling_hermiticity():
    env = build_band_environment(6, seed=3)
    b = env.coupling_matrix()
    assert np.array_equal(b, b.conj().T)


def test_band_environment_determinism():
    a = build_band_environment(5, seed=7)
    b = build_band_environment(5, seed=7)
    for x, y in zip(a.up_blocks, b.up_blocks):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("k, message", [
    (-1, r"band k = -1 outside \[0, 3\]"),
    (4, r"band k = 4 outside \[0, 3\]"),
    (True, "k must be an integer, got True"),
    (1.0, "k must be an integer, got 1.0"),
])
def test_band_slice_refuses_a_band_outside_the_environment(k, message):
    """band_slice refuses, as a run's start band is refused, a k outside
    [0, n] (-1 would wrap around to band n) or one that is not an integer."""
    env = build_band_environment(3, seed=1)
    assert env.band_slice(3) == slice(7, 8)
    with pytest.raises(ValueError, match=message):
        env.band_slice(k)


def test_band_starts_cached_and_read_only():
    env = build_band_environment(4, seed=3)
    starts = env.band_starts
    assert starts.tolist() == [0, 1, 5, 11, 15]
    assert env.band_starts is starts
    with pytest.raises(ValueError):
        starts[0] = 1


@pytest.mark.parametrize("build, kwargs, message", [
    (build_band_environment, {"n": 0}, "n must be >= 1, got 0"),
    (build_spin_environment, {"n": 0}, "n must be >= 1, got 0"),
    *[(build, {"n": n}, f"n must be an integer, got {n!r}$")
      for build in (build_band_environment, build_spin_environment)
      for n in (True, 2.5, 2.0)],
])
def test_environment_rejects_bad_sizes(build, kwargs, message):
    """A spin count below one, or one that is not an integer (a bool is not
    one), is refused before anything is built."""
    with pytest.raises(ValueError, match=message):
        build(seed=0, **kwargs)


_GUARDED_BUILDS = {
    "band": lambda: build_band_environment(5, seed=1),
    "sigma-x": lambda: build_spin_environment(5, seed=1),
}


@pytest.mark.parametrize("kind", sorted(_GUARDED_BUILDS))
def test_environment_memory_guard(monkeypatch, kind):
    """An environment is built where the physical memory holds its coupling
    blocks, 16 sum_k N_k N_{k+1} bytes, and refused, naming the size, where
    it holds one byte less."""
    build = _GUARDED_BUILDS[kind]
    need = 16 * sum(block.size for block in build().up_blocks)
    monkeypatch.setattr(model, "_physical_memory", lambda: need)
    build()
    monkeypatch.setattr(model, "_physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match="coupling blocks of n = 5 spins would take"):
        build()


def test_blocks_beyond_any_memory_refused_early(monkeypatch):
    """Coupling blocks below 2^128 B, those of every n <= 63, are refused
    with their exact size; a larger sum is refused as it passes that bound,
    after a few binomials even at n = 10^6."""
    monkeypatch.setattr(model, "_physical_memory", lambda: 8 * 2**30)
    with pytest.raises(ValueError, match="n = 63 spins would take about 8.85e\\+28 GiB"):
        build_band_environment(63, seed=1)
    for n in (64, 10**6):
        for build in (build_band_environment, build_spin_environment):
            with pytest.raises(ValueError, match=f"n = {n} spins would take more than"):
                build(n, seed=1)


def test_spin_environment_single_spin():
    env = build_spin_environment(1, seed=0)
    assert env.up_blocks[0].shape == (1, 1)
    assert env.up_blocks[0][0, 0] != 0


def test_spin_environment_adjacency_and_determinism():
    env = build_spin_environment(5, seed=12)
    b = env.coupling_matrix()
    labels = env.band_of_level()
    far = np.abs(labels[:, None] - labels[None, :]) > 1
    assert np.all(b[far] == 0)
    env2 = build_spin_environment(5, seed=12)
    assert np.array_equal(b, env2.coupling_matrix())


def test_spin_environment_global_normalization():
    """Total mean-square coupling matches the random-band convention."""
    env = build_spin_environment(6, seed=4)
    total = sum(np.sum(np.abs(b) ** 2) for b in env.up_blocks)
    target = sum(
        math.sqrt(math.comb(6, k + 1) * math.comb(6, k)) for k in range(6)
    )
    assert total == pytest.approx(target, rel=1e-12)


def test_sign_gauge(any_env):
    """sign_gauged turns every up block's first nonzero part positive, leads
    back to B through the level signs, and is the same for B and -B."""
    gauged, levels = any_env.sign_gauged()
    for block in gauged.up_blocks:
        parts = block.ravel().view(float)
        assert parts[parts != 0][0] > 0
    d = np.where(levels, -1.0, 1.0)
    assert np.array_equal(d[:, None] * gauged.coupling_matrix() * d,
                          any_env.coupling_matrix())
    flipped = dataclasses.replace(any_env, up_blocks=tuple(-b for b in any_env.up_blocks))
    again, flipped_levels = flipped.sign_gauged()
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(again.up_blocks, gauged.up_blocks))
    odd = any_env.band_of_level() % 2 == 1
    assert np.array_equal(flipped_levels, levels ^ odd)


def test_hamiltonian_hermitian_and_diagonal_at_zero_coupling(seven_env):
    p0 = ModelParams(delta_s=1.0, coupling=0.0)
    p = ModelParams(delta_s=1.0, coupling=0.05)
    for parity in (0, 1):
        h0 = build_total_hamiltonian(p0, seven_env, parity)
        assert np.array_equal(h0, np.diag(np.diag(h0)))
        h = build_total_hamiltonian(p, seven_env, parity)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_hamiltonian_spectrum_multiset(seven_env):
    p0 = ModelParams(delta_s=1.0, coupling=0.0)
    expect = []
    for k in range(8):
        expect += [k - 0.5] * math.comb(7, k)
        expect += [k + 0.5] * math.comb(7, k)
    got = np.sort(np.concatenate(
        [np.linalg.eigvalsh(build_total_hamiltonian(p0, seven_env, parity)) for parity in (0, 1)]
    ))
    assert np.allclose(got, np.sort(expect), atol=1e-12)


def test_hamiltonian_conserves_parity(any_env):
    """H has no entry between (TLS level + band) mod 2 sectors of size env.dim."""
    env = any_env
    h = joint_hamiltonian(ModelParams(delta_s=1.0, detuning=0.3), env)
    bands = env.band_of_level()
    parity = np.concatenate((bands, bands + 1)) % 2
    cross = parity[:, None] != parity[None, :]
    assert np.count_nonzero(parity == 0) == np.count_nonzero(parity == 1) == env.dim
    assert np.all(h[cross] == 0)
    assert np.count_nonzero(h[~cross]) > 2 * env.dim


def test_band_energies_come_from_params(any_env):
    """One environment serves every detuning: the diagonal of h_p, and of the
    oracle's joint Hamiltonian, is k delta_b + (s - 1/2) delta_s with delta_b
    that of params, and the coupling is the same at every detuning."""
    env = any_env
    bands = np.repeat(np.arange(env.n + 1), env.degeneracies)
    off = ~np.eye(env.dim, dtype=bool)
    first = None
    for detuning in (0.3, -0.4, 1.7):
        p = ModelParams(delta_s=1.0, detuning=detuning, coupling=0.07)
        for parity in (0, 1):
            hp = build_total_hamiltonian(p, env, parity)
            tls_level = (parity - bands) % 2
            assert np.array_equal(np.diag(hp), bands * p.delta_b + (tls_level - 0.5))
            first = hp[off] if first is None else first
            assert np.array_equal(hp[off], first)
        h = joint_hamiltonian(p, env)
        assert np.array_equal(
            np.diag(h), np.concatenate((bands * p.delta_b - 0.5, bands * p.delta_b + 0.5))
        )


@pytest.mark.parametrize("build", [build_band_environment, build_spin_environment],
                         ids=["random-band", "sigma-x"])
@pytest.mark.parametrize("n", range(1, 7))
def test_sector_hamiltonians_are_the_parity_blocks(build, n):
    """h_p is the block of the oracle's joint H on the joint levels
    (_tls_level(p, k), k, r), reindexed to the env level order, diagonal
    included. On every band k the other TLS level's diagonal differs from
    h_p's by delta_s, so the owner's level is the only one that reproduces it."""
    env = build(n, seed=8)
    p = ModelParams(delta_s=1.0, detuning=0.3, coupling=0.07)
    h = joint_hamiltonian(p, env)
    bands = env.band_of_level()
    levels = np.arange(env.dim)
    for parity in (0, 1):
        hp = build_total_hamiltonian(p, env, parity)
        idx = _tls_level(parity, bands) * env.dim + levels
        assert np.array_equal(hp, h[np.ix_(idx, idx)])
        for k in range(env.n_bands):
            other = (1 - _tls_level(parity, k)) * env.dim + levels[env.band_slice(k)]
            assert np.all(np.diag(h)[other] != np.diag(hp)[env.band_slice(k)])


@pytest.mark.parametrize(
    "parity, detuning, message",
    [(2, 0.0, "parity must be 0 or 1")],
    ids=["parity-2"],
)
def test_hamiltonian_dimension_mismatch(parity, detuning, message, seven_env):
    """A parity outside {0, 1} is refused."""
    p = ModelParams(delta_s=1.0, detuning=detuning)
    with pytest.raises(ValueError, match=message):
        build_total_hamiltonian(p, seven_env, parity)


def test_digamma_against_scipy():
    for x in [0.05, 0.3, 1.0, 2.5, 7.7, 11.0, 101.0, 901.5]:
        assert _digamma(x) == pytest.approx(scipy.special.digamma(x), abs=1e-12)
    with pytest.raises(ValueError, match="digamma requires x > 0"):
        _digamma(0.0)


def test_beta_working_point_values():
    assert beta_working_point(8, 4, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert beta_working_point(1000, 100, 1.0, method="log-approx") == pytest.approx(
        math.log(9), rel=1e-14
    )
    bd = beta_working_point(1000, 100, 2.0, method="digamma")
    oracle = (scipy.special.digamma(901) - scipy.special.digamma(101)) / 2.0
    assert bd == pytest.approx(oracle, rel=1e-10)


def test_beta_working_point_validation():
    with pytest.raises(ValueError):
        beta_working_point(7, 0, 1.0)
    with pytest.raises(ValueError):
        beta_working_point(7, 7, 1.0)
    with pytest.raises(ValueError, match=r"^unknown method 'pade'; choose from \['digamma', "):
        beta_working_point(7, 2, 1.0, method="pade")


@pytest.mark.parametrize(
    "args, message",
    [
        ((7, 2.5, 1.0), "k0 must be an integer, got 2.5"),
        ((7, True, 1.0), "k0 must be an integer, got True"),
        ((7.5, 2, 1.0), "n must be an integer, got 7.5"),
    ],
)
def test_beta_working_point_refuses_loose_counts(args, message):
    """n and the working point are refused as the model refuses every count
    and band, not truncated or read as a bool's value."""
    with pytest.raises(ValueError, match=message):
        beta_working_point(*args)


def test_effective_beta_values():
    assert effective_beta(7, 1, 2, 1.0) == pytest.approx(math.log(3))
    assert effective_beta(7, 2, 3, 1.7) == pytest.approx(math.log(35 / 21) / 1.7)
    assert effective_beta(9, 4, 5, 1.0) == pytest.approx(0.0, abs=1e-14)
    # two-band-gap variant averages the pair ratio
    assert effective_beta(7, 1, 3, 3.0) == pytest.approx(math.log(5) / 6.0)
    with pytest.raises(ValueError, match="need 0 <= k_low < k_high <= n"):
        effective_beta(5, 3, 2, 1.0)


@pytest.mark.parametrize(
    "args, message",
    [
        ((7.5, 1, 2, 1.0), "n must be an integer, got 7.5"),
        ((7, 1.5, 2, 1.0), "k_low must be an integer, got 1.5"),
        ((7, False, 2, 1.0), "k_low must be an integer, got False"),
        ((7, 1, 2.5, 1.0), "k_high must be an integer, got 2.5"),
    ],
)
def test_effective_beta_refuses_loose_counts(args, message):
    """n and both bands are refused as the model refuses every count and
    band, not carried into log-gamma as fractions or bools."""
    with pytest.raises(ValueError, match=message):
        effective_beta(*args)


@pytest.mark.parametrize(
    "delta_b, message",
    [
        (0.0, "delta_b must be > 0"),
        (-1.0, "delta_b must be > 0"),
        (math.inf, "delta_b must be finite"),
        (math.nan, "delta_b must be finite"),
        (True, "delta_b must be a real number"),
    ],
)
def test_beta_maps_refuse_a_bad_splitting(delta_b, message):
    """Both degeneracy temperatures refuse a delta_b that is not a finite
    real > 0 instead of dividing by it."""
    with pytest.raises(ValueError, match=message):
        effective_beta(7, 1, 2, delta_b)
    with pytest.raises(ValueError, match=message):
        beta_working_point(7, 2, delta_b)


def test_degeneracy_ratio_matches_digamma_beta():
    n, k0 = 1000, 100
    beta = beta_working_point(n, k0, 1.0, method="digamma")
    ratio = (n - k0) / (k0 + 1)  # N_{k0+1}/N_{k0}
    assert abs(ratio / math.exp(beta) - 1.0) < 1e-2
