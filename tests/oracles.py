"""Dense references on the full joint state, for the tests to compare against.

A joint state is a plain array: a vector psi or a density matrix rho over the
joint index s * env.dim + level, with TLS sector s in {0: ground, 1: excited}
and the environment levels grouped contiguously by band. A vector's density
matrix is np.outer(psi, psi.conj()).
"""
import math

import numpy as np

from tlsbath.dynamics import Propagator, _eig2
from tlsbath.model import QubitState, build_total_hamiltonian


def band_ids(env):
    """Band position of every joint index."""
    return np.tile(np.repeat(np.arange(env.n_bands), env.degeneracies), 2)


def band_projector(env, k):
    """Projector 1_S x P_k onto all levels of band k, as a dense matrix."""
    return np.diag((band_ids(env) == env.band_index(k)).astype(float))


def pure_product(env, tls_vec, k, level):
    """The product vector tls_vec x |k, level>."""
    e = np.zeros(env.dim)
    e[env.band_slice(env.band_index(k)).start + level] = 1.0
    return np.kron(tls_vec, e)


def measure_band_selective(psi, env, rng):
    """Projective band measurement of a vector with a Born-sampled outcome.

    Returns the measured band k, the renormalised collapsed vector and the
    outcome probability.
    """
    ids = band_ids(env)
    weights = np.bincount(ids, weights=np.abs(psi) ** 2, minlength=env.n_bands)
    weights = weights / weights.sum()
    pick = min(int(np.searchsorted(np.cumsum(weights), rng.random())), env.n_bands - 1)
    collapsed = np.where(ids == pick, psi, 0.0)
    return env.band_range[0] + pick, collapsed / np.linalg.norm(collapsed), weights[pick]


def measure_band_nonselective(rho, env):
    """Outcome-averaged measurement: rho -> sum_k P_k rho P_k."""
    ids = band_ids(env)
    return np.where(ids[:, None] == ids[None, :], rho, 0.0)


def coarse_reset(rho_s, env, k):
    """rho_S x 1_k / N_k: the TLS state (a QubitState or a 2 x 2 block) times
    the maximally mixed band k."""
    if isinstance(rho_s, QubitState):
        rho_s = rho_s.matrix()
    i = env.band_index(k)
    in_band = band_ids(env)[:env.dim] == i
    return np.kron(np.asarray(rho_s, dtype=complex) / env.degeneracies[i], np.diag(in_band))


def reduced_qubit_state(rho):
    """Partial trace of a joint density matrix over the environment."""
    d = len(rho) // 2
    rho00, rho10 = np.trace(rho[:d, :d]).real, np.trace(rho[d:, :d])
    return QubitState(rho00=float(rho00), rho10=complex(rho10))


def cojump_norm(rho):
    """Frobenius norm of the system-environment correlation rho - rho_S x rho_B."""
    r = rho.reshape(2, len(rho) // 2, 2, -1)
    rho_s, rho_b = np.einsum("aibi->ab", r), np.einsum("aiaj->ij", r)
    return float(np.linalg.norm(rho - np.kron(rho_s, rho_b)))


def _unitary(params, env):
    return Propagator(build_total_hamiltonian(params, env)).unitary(params.dt)


def dense_leakage_bound(params, env):
    """Largest weight one step of the joint unitary moves from a band past
    its neighbours: lambda_max of U[far, B_k]^+ U[far, B_k] over bands k,
    with B_k both TLS levels of band k and far the joint indices of every
    band more than one away."""
    u, ids = _unitary(params, env), band_ids(env)
    worst = 0.0
    for k in range(env.n_bands):
        a = u[np.ix_(np.abs(ids - k) > 1, ids == k)]
        worst = max(worst, np.linalg.eigvalsh(a.conj().T @ a)[-1])
    return worst


def dense_nonselective_reference(params, env, rho0, k0, steps, reset_mode):
    """The nonselective engine on the full joint density matrix: u rho u^+ and
    the nonselective band measurement every step; with coarse reset, every
    band then replaced by its TLS block times the band's maximally mixed state.
    Returns the rho00 and rho10 series."""
    u = _unitary(params, env)
    rho = coarse_reset(rho0, env, k0)
    states = [reduced_qubit_state(rho)]
    for _ in range(steps):
        rho = measure_band_nonselective(u @ rho @ u.conj().T, env)
        if reset_mode == "coarse":
            r = rho.reshape(2, env.dim, 2, env.dim)
            rho = sum(
                coarse_reset(np.einsum("aibi->ab", r[:, s:s + nk, :, s:s + nk]), env, k)
                for k, s, nk in zip(env.ks, env.band_starts, env.degeneracies)
            )
        states.append(reduced_qubit_state(rho))
    return np.array([q.rho00 for q in states]), np.array([q.rho10 for q in states])


def dense_sampled_reference(params, env, rho0, k0, steps, seed, reset_mode):
    """One trajectory on full-length vectors: u psi, a masked collapse, a
    renormalisation and, with coarse reset, a product reset from _eig2, fed
    with the uniform stream the engine draws from the same seed."""
    u = _unitary(params, env)
    per_step = 3 if reset_mode == "coarse" else 1
    x = iter(np.random.default_rng(seed).random(2 + steps * per_step))
    ids = band_ids(env)

    def product(q, i):
        lam_p, v_plus, v_minus = _eig2(q.rho00, q.rho10)
        vec = v_plus[:, 0] if next(x) < lam_p[0] else v_minus[:, 0]
        nk = env.degeneracies[i]
        level = min(math.floor(next(x) * nk), nk - 1)
        return pure_product(env, vec, env.band_range[0] + i, level)

    band = env.band_index(k0)
    psi = product(rho0, band)
    outcomes, probs = [k0], []
    states = [reduced_qubit_state(np.outer(psi, psi.conj()))]
    for _ in range(steps):
        psi = u @ psi
        w = np.array([np.sum(np.abs(psi[ids == i]) ** 2) for i in range(env.n_bands)])
        w = np.where(np.abs(np.arange(env.n_bands) - band) <= 1, w, 0.0)
        w = w / w.sum()
        band = min(int(np.searchsorted(np.cumsum(w), next(x))), env.n_bands - 1)
        probs.append(w[band])
        psi = np.where(ids == band, psi, 0.0)
        psi = psi / np.linalg.norm(psi)
        q = reduced_qubit_state(np.outer(psi, psi.conj()))
        outcomes.append(env.band_range[0] + band)
        states.append(q)
        if reset_mode == "coarse":
            psi = product(q, band)
    return (
        np.array(outcomes),
        np.array(probs),
        np.array([q.rho00 for q in states]),
        np.array([q.rho10 for q in states]),
    )
