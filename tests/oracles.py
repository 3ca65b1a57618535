"""Dense references on the full joint state, for the tests to compare against.

A joint state is a plain array: a vector psi or a density matrix rho over the
joint index s * env.dim + level, with TLS sector s in {0: ground, 1: excited}
and the environment levels grouped contiguously by band. A vector's density
matrix is np.outer(psi, psi.conj()).
"""
import math

import numpy as np

from tlsbath.dynamics import Propagator, _eig2
from tlsbath.model import QubitState


def band_ids(env):
    """Band k of every joint index."""
    return np.tile(np.repeat(np.arange(env.n_bands), env.degeneracies), 2)


def band_projector(env, k):
    """Projector 1_S x P_k onto all levels of band k, as a dense matrix."""
    if not 0 <= k <= env.n:
        raise ValueError(f"band k = {k} outside [0, {env.n}]")
    return np.diag((band_ids(env) == k).astype(float))


def pure_product(env, tls_vec, k, level):
    """The product vector tls_vec x |k, level>."""
    e = np.zeros(env.dim)
    e[env.band_slice(k).start + level] = 1.0
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
    return pick, collapsed / np.linalg.norm(collapsed), weights[pick]


def measure_band_nonselective(rho, env):
    """Outcome-averaged measurement: rho -> sum_k P_k rho P_k."""
    ids = band_ids(env)
    return np.where(ids[:, None] == ids[None, :], rho, 0.0)


def coarse_reset(rho_s, env, k):
    """rho_S x 1_k / N_k: the TLS state (a QubitState or a 2 x 2 block) times
    the maximally mixed band k."""
    if isinstance(rho_s, QubitState):
        rho_s = rho_s.matrix()
    in_band = band_ids(env)[:env.dim] == k
    return np.kron(np.asarray(rho_s, dtype=complex) / env.degeneracies[k], np.diag(in_band))


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


def joint_hamiltonian(params, env):
    """The joint Hamiltonian on TLS x environment, ground TLS sector first:
    H = delta_s/2 sigma_z x 1 + 1 x H_B + coupling * (sigma^+ x B + sigma^- x B^+),
    with H_B = k delta_b on band k and delta_b that of params."""
    d, b = env.dim, env.coupling_matrix()
    e_env = band_ids(env)[:d] * params.delta_b
    h = np.zeros((2 * d, 2 * d), dtype=complex)
    np.fill_diagonal(h, np.concatenate((e_env - params.delta_s / 2, e_env + params.delta_s / 2)))
    h[d:, :d] = params.coupling * b
    h[:d, d:] = params.coupling * b.conj().T
    return h


def _unitary(params, env):
    return Propagator(joint_hamiltonian(params, env)).unitary(params.dt)


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
                for k, (s, nk) in enumerate(zip(env.band_starts, env.degeneracies))
            )
        states.append(reduced_qubit_state(rho))
    return np.array([q.rho00 for q in states]), np.array([q.rho10 for q in states])


def dense_sampled_reference(params, env, rho0, k0, steps, seed, reset_mode):
    """One trajectory on the full joint state, fed with the uniform stream the
    engine draws from the same seed. Exact reset: a product vector from _eig2,
    then per step u psi, a masked collapse onto the drawn band and a
    renormalisation. Coarse reset: the record-conditioned state, per step
    u (rho_S x 1_k / N_k) u^+ projected onto the drawn band k and
    renormalised, with rho_S its reduced state (rho0 at the start)."""
    u = _unitary(params, env)
    coarse = reset_mode == "coarse"
    x = iter(np.random.default_rng(seed).random(steps + (0 if coarse else 2)))
    ids = band_ids(env)
    band = k0
    if coarse:
        q = rho0
    else:
        lam_p, v_plus, v_minus = _eig2(rho0.rho00, rho0.rho10)
        vec = v_plus[:, 0] if next(x) < lam_p[0] else v_minus[:, 0]
        nk = env.degeneracies[band]
        psi = pure_product(env, vec, k0, min(math.floor(next(x) * nk), nk - 1))
        q = reduced_qubit_state(np.outer(psi, psi.conj()))
    outcomes, probs, states = [k0], [], [q]
    for _ in range(steps):
        if coarse:
            rho = u @ coarse_reset(q, env, band) @ u.conj().T
            weight = np.diag(rho).real
        else:
            psi = u @ psi
            weight = np.abs(psi) ** 2
        w = np.array([np.sum(weight[ids == i]) for i in range(env.n_bands)])
        w = np.where(np.abs(np.arange(env.n_bands) - band) <= 1, w, 0.0)
        w = w / w.sum()
        band = min(int(np.searchsorted(np.cumsum(w), next(x))), env.n_bands - 1)
        probs.append(w[band])
        keep = ids == band
        if coarse:
            rho = np.where(keep[:, None] & keep[None, :], rho, 0.0)
            q = reduced_qubit_state(rho / np.trace(rho).real)
        else:
            psi = np.where(keep, psi, 0.0)
            psi = psi / np.linalg.norm(psi)
            q = reduced_qubit_state(np.outer(psi, psi.conj()))
        outcomes.append(band)
        states.append(q)
    return (
        np.array(outcomes),
        np.array(probs),
        np.array([q.rho00 for q in states]),
        np.array([q.rho10 for q in states]),
    )


def unraveled_record_probabilities(params, env, rho0, k0, steps):
    """Probability of every band record (k_1, ..., k_steps) under the
    coarse-reset unraveling into product vectors, on the joint unitary.

    Before every step the TLS state is replaced by an eigenvector of its
    reduced state (_eig2), taken with its eigenvalue, times a level of the
    measured band, each taken with 1 / N_k; band outcomes follow the Born rule
    on the whole joint vector. Every draw is summed over with its probability
    instead of sampled. Records of probability zero are left out.
    """
    u = _unitary(params, env)
    ids = band_ids(env)
    probs = {}

    def walk(record, weight, rho00, rho10):
        # weight[i]: the probability of the record together with branch i,
        # whose reduced TLS state after the last collapse is (rho00, rho10)[i].
        if len(record) == steps:
            probs[tuple(record)] = weight.sum()
            return
        i = record[-1] if record else k0
        nk = env.degeneracies[i]
        lam_p, v_plus, v_minus = _eig2(rho00, rho10)
        vecs = np.concatenate([v_plus, v_minus], axis=1)
        w = np.concatenate([weight * lam_p, weight * (1.0 - lam_p)]) / nk
        # One column per (eigenvector, level) branch.
        psi = np.zeros((2, env.dim, len(w), nk), dtype=complex)
        r = np.arange(nk)
        psi[:, env.band_starts[i] + r, :, r] = vecs
        psi = u @ psi.reshape(2 * env.dim, -1)
        w = np.repeat(w, nk)
        for k2 in range(env.n_bands):
            part = np.where((ids == k2)[:, None], psi, 0.0)
            p = np.sum(np.abs(part) ** 2, axis=0)
            live = p > 0
            if not live.any():
                continue
            part = part[:, live].reshape(2, env.dim, -1) / np.sqrt(p[live])
            walk(
                record + [k2],
                w[live] * p[live],
                np.sum(np.abs(part[0]) ** 2, axis=0),
                np.sum(part[1] * part[0].conj(), axis=0),
            )

    walk([], np.ones(1), np.array([rho0.rho00]), np.array([complex(rho0.rho10)]))
    return probs
