"""Exact joint evolution: propagator, trajectory and ensemble runners.

Two engines share one step convention: unitary evolution over dt, then a
projective measurement of the environment band. The sampled engine follows
single measurement records: with exact reset it propagates pure state vectors
(mixed inputs are unraveled into eigenstate draws), with coarse reset the TLS
state conditioned on the record. The nonselective engine propagates the exact
outcome-averaged density matrix. Both coarse-reset engines step the
same band-pair blocks of the sector unitaries (_pair_sums), one per built
sector pair, since U keeps a sector pair the same pair, and read the reduced
state by band parity (_parity_columns).
A sampled trajectory holds only its parts in the sectors rho0 occupies
(_sampling_tables, _sample_paths); exact-reset trajectories are grouped by
their measured band, and each group steps with one product per adjacent
band it can reach. Sampled records are handed on one draw block at a time,
so no sampled run holds a steps x n_traj history.

Every run makes one build (_build): the env.dim-wide parity sectors of the
joint unitary that rho0 occupies (one for a ground or excited start), and
their band-adjacency leakage bound, which every run reports and the sampled
engine alone refuses a run on. No joint-width matrix is formed.
"""
from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass

import numpy as np

from ._streams import Streams, block_steps, seed_words, trajectory_words
from .model import (
    BandedEnvironment,
    ModelParams,
    QubitState,
    _check_count,
    build_total_hamiltonian,
)

__all__ = [
    "Propagator",
    "Trajectory",
    "EnsembleSeries",
    "run_trajectory",
    "run_ensemble",
    "trajectory_seed",
    "write_series_csv",
]

HERM_TOL = 1e-10   # largest |h - h^dagger| entry that Propagator accepts


class Propagator:
    """Unitary exp(-i H dt) from one cached Hermitian eigendecomposition.

    _build passes it one parity sector of the joint Hamiltonian at a time
    (model.build_total_hamiltonian); any finite square Hermitian matrix works.
    """

    def __init__(self, h: np.ndarray):
        h = np.asarray(h, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"Hamiltonian must be a square 2-D array, not {h.shape}")
        # A NaN or infinite entry makes the residual NaN or infinite, and
        # NaN > HERM_TOL is False: test finiteness first.
        with np.errstate(invalid="ignore"):
            residual = np.max(np.abs(h - h.conj().T))
        if not np.isfinite(residual):
            raise ValueError("Hamiltonian has non-finite entries")
        if residual > HERM_TOL:
            raise ValueError("Hamiltonian is not Hermitian")
        self.energies, self.modes = np.linalg.eigh(h)

    def unitary(self, dt: float, out: np.ndarray | None = None) -> np.ndarray:
        """exp(-i H dt) = (modes * phases) @ modes^+, written into out if given
        (numpy's out= convention: out is filled and returned).

        out must be a complex array of H's shape. It may be the matrix passed
        to __init__, which eigh copied, but never self.modes, which the
        product reads.
        """
        phases = np.exp(-1j * self.energies * dt)
        return np.matmul(self.modes * phases, self.modes.conj().T, out=out)


def trajectory_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    """Deterministic per-trajectory seed, independent of execution order.

    run_ensemble's trajectory i draws from the PCG64 stream of this seed; it
    derives the seed words of all its trajectories at once
    (_streams.trajectory_words).
    """
    return np.random.SeedSequence(entropy=(master_seed, index))


def write_series_csv(path, rho00, re_rho10, im_rho10, stderr=None, k_j=None) -> None:
    """Write the per-step series CSV `j,k_j,rho00,re_rho10,im_rho10,stderr`.

    Floats are written with repr, so they round-trip exactly; a column given
    as None (no band record, no statistical error) is left empty.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "k_j", "rho00", "re_rho10", "im_rho10", "stderr"])
        for j in range(len(rho00)):
            w.writerow(
                [
                    j,
                    "" if k_j is None else int(k_j[j]),
                    repr(float(rho00[j])),
                    repr(float(re_rho10[j])),
                    repr(float(im_rho10[j])),
                    "" if stderr is None else repr(float(stderr[j])),
                ]
            )


@dataclass
class Trajectory:
    """Single measurement record: band outcomes, reduced states, probabilities."""

    outcomes: np.ndarray          # (J+1,), outcomes[0] = initial band k0
    rho00: np.ndarray             # (J+1,)
    rho10: np.ndarray             # (J+1,) complex
    probs: np.ndarray             # (J,) Born probability of outcome j
    seed: object = None

    @property
    def steps(self) -> int:
        return len(self.probs)

    def to_csv(self, path) -> None:
        write_series_csv(
            path, self.rho00, self.rho10.real, self.rho10.imag, k_j=self.outcomes
        )


@dataclass
class EnsembleSeries:
    """Per-step ensemble averages of the reduced TLS state."""

    rho00: np.ndarray             # (J+1,)
    rho10: np.ndarray             # (J+1,) complex
    # (J+1,) standard error of rho00 (0 for the nonselective engine).
    stderr: np.ndarray
    n_traj: int | None
    engine: str
    reset_mode: str
    master_seed: int | None = None
    wall_time: float = 0.0
    # The build's bound on one step's band-adjacency leakage (_leakage_bound).
    leakage_bound: float | None = None
    # Exact-reset nonselective engine: the largest drift of the total trace.
    trace_drift: float | None = None

    @property
    def steps(self) -> int:
        return len(self.rho00) - 1

    def to_csv(self, path) -> None:
        write_series_csv(
            path, self.rho00, self.rho10.real, self.rho10.imag, stderr=self.stderr
        )

    def to_json(self, path, metadata: dict | None = None) -> None:
        doc = {
            "engine": self.engine,
            "reset_mode": self.reset_mode,
            "n_traj": self.n_traj,
            "master_seed": self.master_seed,
            "wall_time": self.wall_time,
            "leakage_bound": self.leakage_bound,
            "trace_drift": self.trace_drift,
            "rho00": self.rho00.tolist(),
            "re_rho10": self.rho10.real.tolist(),
            "im_rho10": self.rho10.imag.tolist(),
            "stderr": self.stderr.tolist(),
        }
        if metadata:
            doc["metadata"] = metadata
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)


def _eig2(rho00: np.ndarray, rho10: np.ndarray):
    """Vectorized eigen-decomposition of 2x2 density matrices.

    Returns (p_plus, v_plus, v_minus) with eigenvectors as (2, m) arrays;
    p_plus is the eigenvalue of v_plus.
    """
    rho00 = np.atleast_1d(np.asarray(rho00, dtype=float))
    rho10 = np.atleast_1d(np.asarray(rho10, dtype=complex))
    half_diff = (rho00 - (1.0 - rho00)) / 2.0
    s = np.sqrt(half_diff**2 + np.abs(rho10) ** 2)
    lam_p = 0.5 + s
    # Eigenvector of the larger eigenvalue: (rho01, lam_p - rho00), with a
    # diagonal fallback where the matrix is already (numerically) diagonal.
    # Near the ground pole lam_p - rho00 = s - half_diff cancels; there it is
    # evaluated as |rho10|^2 / (s + half_diff), which keeps its relative error
    # at rounding level instead of 1e-16 / |rho10|.
    v0 = np.conjugate(rho10)
    v1 = np.divide(
        np.abs(rho10) ** 2, s + half_diff, out=s - half_diff, where=half_diff > 0
    )
    norm = np.sqrt(np.abs(v0) ** 2 + np.abs(v1) ** 2)
    diagonal = norm < 1e-14
    excited_heavy = rho00 < 0.5
    v0 = np.where(diagonal, np.where(excited_heavy, 0.0, 1.0), v0)
    v1 = np.where(diagonal, np.where(excited_heavy, 1.0, 0.0), v1)
    norm = np.where(diagonal, 1.0, norm)
    v_plus = np.stack((v0 / norm, v1 / norm))
    # Orthogonal partner.
    v_minus = np.stack((-np.conjugate(v_plus[1]), np.conjugate(v_plus[0])))
    return lam_p, v_plus, v_minus


def _build(params: ModelParams, env: BandedEnvironment, rho0: QubitState, k0: int):
    """The one build step of every run: the sector unitaries a run from
    rho0 (x) 1_k0 / N_k0 reaches, and their leakage bound (_leakage_bound).

    Returns [u_0, u_1] with u_p = exp(-i h_p dt) on parity sector p of the
    joint Hamiltonian, and None for a sector left out. Sector p holds the
    levels of band position k at TLS level (p - k) mod 2, in the
    environment's level order: the joint state (a, k, r) is level g = (k, r)
    of sector (a + k) mod 2. U conserves parity, so a run reaches sector p
    only if row (p - k0) mod 2 of rho0 has weight: one sector for a ground
    or excited start, both otherwise. A built sector owns one env.dim x
    env.dim array from assembly to the last step: its Hamiltonian h_p, which
    eigh copies, is then overwritten by u_p (Propagator.unitary's out=).
    """
    i0 = env.band_index(k0)
    rows = rho0.matrix()
    us = [None, None]
    for p in (0, 1):
        if np.any(rows[(p - i0) % 2]):
            h = build_total_hamiltonian(params, env, p)
            us[p] = Propagator(h).unitary(params.dt, out=h)
    return us, _leakage_bound(us, env)


def _band_windows(env: BandedEnvironment):
    """Level range [lo, hi) of bands k-1 .. k+1 (those that exist) around
    every band k; the window is contiguous in the environment's level order."""
    starts, degs = env.band_starts, np.asarray(env.degeneracies)
    i = np.arange(env.n_bands)
    above = np.minimum(i + 1, env.n_bands - 1)
    return starts[np.maximum(i - 1, 0)], starts[above] + degs[above]


def _leakage_bound(us: list[np.ndarray], env: BandedEnvironment) -> float:
    """Largest weight one step moves past the adjacent bands, over all states.

    For band k and sector p, lambda_max(A^+ A) with A = u_p[far(k), band k],
    far(k) the levels outside the window of bands k-1 .. k+1, is the largest
    |P_far u_p psi|^2 over unit states psi on band k of sector p. The two
    sector parts of a state have disjoint far rows, so the maximum over k and
    the sectors built (u_p not None) bounds every state a run holds before a
    step, in either reset mode.
    """
    built, worst = [u for u in us if u is not None], 0.0
    for lo, hi, s, nk in zip(*_band_windows(env), env.band_starts, env.degeneracies):
        for u in built:
            far = np.delete(u[:, s:s + nk], np.s_[lo:hi], axis=0)
            worst = max(worst, float(np.linalg.eigvalsh(far.conj().T @ far)[-1]))
    return worst


def _built_pairs(us: list) -> tuple[list, list]:
    """The built sectors of us (u_p not None) and their sector pairs (p, q),
    row by row: [(p, p)] for one sector, all four for two."""
    built = [p for p in (0, 1) if us[p] is not None]
    return built, [(p, q) for p in built for q in built]


def _pair_sums(us: list, env: BandedEnvironment) -> np.ndarray:
    """Band-pair blocks of the sector unitaries us of _build, one per built
    sector pair l = (p, q) of _built_pairs, as an array sums[l, k', k] of
    shape (L, n_bands, n_bands):

        sums[l, k', k] = (1/N_k) sum_{g in k', r in k} u_p[g, r] conj(u_q[g, r])

    After a coarse reset the state is sum_k rho_k (x) 1_k / N_k, and one
    evolve-measure step takes the entry of rho_k on sector pair l to
    sums[l, k', k] times it on band k': U conserves parity, so a pair stays
    the same pair. On band k that entry is TLS entry ((p - k) mod 2,
    (q - k) mod 2). The cross pair (1, 0) is the conjugate of (0, 1): it is
    not formed again, so the two are conjugate bit for bit.
    """
    degs = np.asarray(env.degeneracies)
    sums = {}
    for p, q in _built_pairs(us)[1]:
        if (q, p) in sums:
            sums[p, q] = sums[q, p].conj()
            continue
        prod = np.add.reduceat(us[p] * us[q].conj(), env.band_starts, axis=0)
        sums[p, q] = np.add.reduceat(prod, env.band_starts, axis=1) / degs
    return np.stack(list(sums.values()))


def _parity_columns(pairs: list, nb: int) -> np.ndarray:
    """Rows col00, col10 of the pair index that hold rho00 and rho10 on
    every band k: pairs (e, e) and (1 - e, e) with e = k mod 2, or
    len(pairs), a zero row standing for every pair not built."""
    row = {pq: l for l, pq in enumerate(pairs)}
    return np.array([[row.get(((k + a) % 2, k % 2), len(pairs)) for k in range(nb)]
                     for a in (0, 1)])


def _sampling_tables(us: list, env: BandedEnvironment, reset_mode: str):
    """The sampled engine's step data on the S built sectors of us (_build),
    S = 1 for a ground or excited start and 2 otherwise; nothing of a sector
    left out is stored.

    Coarse reset: for every band k and window slot i (band k - 1 + i), the
    sums[l, k - 1 + i, k] of _pair_sums over the L = S^2 built pairs
    l = (p, q) of _built_pairs, as an (n_bands, 3, L) array that is zero outside
    the environment. Exact reset: per band k, a dict over the window bands k'
    of k (those of k-1, k, k+1 that exist) of the contiguous (S, N_k, N_k')
    block u_p[band k', band k]^T, stacked over the built sectors p.
    """
    nb, levels = env.n_bands, env.band_slice
    built, pairs = _built_pairs(us)
    if reset_mode == "coarse":
        sums = np.zeros((nb + 2, nb, len(pairs)), dtype=complex)
        sums[1:-1] = _pair_sums(us, env).transpose(1, 2, 0)
        k = np.arange(nb)[:, None]
        return sums[k + np.arange(3), k]
    return [
        {
            k2: np.stack([us[p][levels(k2), levels(k)].T for p in built])
            for k2 in range(max(k - 1, 0), min(k + 2, nb))
        }
        for k in range(nb)
    ]


def _born_pick(w: np.ndarray, x: np.ndarray, band, nb: int):
    """Band outcome drawn with uniforms x from the weights w (m, 3) of the
    window slots k-1, k, k+1 (zero outside the environment).

    Returns the new band, its weight and its probability.
    """
    tot = w[:, 0] + w[:, 1] + w[:, 2]
    cum0 = w[:, 0] / tot
    cum1 = cum0 + w[:, 1] / tot
    # A uniform past cum1 picks slot 2, also where the last cumulative weight
    # rounds below 1. The clamp keeps an edge band off its zero-weight pad
    # slot, which only x = 0 (band 0) or that rounding (top band) would reach.
    new = np.minimum(np.maximum(band - 1 + (cum0 < x) + (cum1 < x), 0), nb - 1)
    slot = new - band
    wk = np.where(slot < 0, w[:, 0], np.where(slot > 0, w[:, 2], w[:, 1]))
    return new, wk, wk / tot


def _sample_paths(
    params: ModelParams,
    env: BandedEnvironment,
    us: list,
    leakage: float,
    rho0: QubitState,
    k0: int,
    steps: int,
    words: np.ndarray,
    reset_mode: str,
):
    """Batched measurement records (quantum trajectories) on the sector
    unitaries us of _build, yielded one draw block at a time.

    A generator of (j0, k, p, rho00, rho10): the records of steps
    j0 .. j0 + len(k) - 1 of the m trajectories as (rows, m) arrays, namely
    band, Born probability of that step's outcome, and reduced state. The
    first block is the initial row alone (j0 = 0, p with no rows); then
    come blocks of _streams.block_steps(m) steps, the last one short, the
    same blocks the uniforms are drawn in. p, rho00 and rho10 are views of
    buffers that the next block overwrites, so a caller copies or reduces
    a block before it asks for the next. Nothing the generator holds grows
    with steps: it holds O(m max N_k) numbers for the states and
    max(2^13, m) per record for the block.

    Every state is supported on one band k, and one step only reaches the
    window of bands k-1 .. k+1 (contiguous in the environment's level order).
    U conserves parity, so a trajectory's state is held by its parts in the
    S sectors _build made (S = 1 for a ground or excited start, 2 otherwise),
    and a sector's part stays in its sector: on band k, the part of sector p
    is at TLS level (p - k) mod 2. Everything a step needs is a view of us
    (_sampling_tables), and no part of a sector left out is stored:

    - coarse reset: the bath is 1_k / N_k after every measurement, so the TLS
      state conditioned on the band record depends on the record alone. A
      trajectory is its band k and its TLS state's entries rho[l] on the
      L = S^2 built sector pairs l = (p, q) (_built_pairs). The step is
      diagonal in the pair: y[i, l] = sums[l, k - 1 + i, k] rho[l] for the
      window bands k - 1 + i (_pair_sums), the band is drawn from the
      weights tr y (the pairs (p, p)), and y / tr y is kept. Unraveling
      rho (x) 1_k / N_k into an eigenvector of rho and a level of band k
      gives band records the same law, since E[v v^+] = rho and the step is
      linear; rho is the mean of that unraveling's reduced state given the
      record. A ground-start trajectory is thus a band Markov chain.
    - exact reset: a trajectory holds its parts on band k, N_k numbers each.
      The trajectories sit in band buckets, band k -> (their indices, their
      parts as one (S, m_k, N_k) array). A step takes each bucket through
      one (S, m_k, N_k)(S, N_k, N_k') product per window band k', with the
      blocks u_p[band k', band k]^T; its weight in band k' is read from that
      product alone. After the draw, the rows that land in k' give their
      reduced state and, normalised, their next parts, and every band's
      arrivals from k'-1, k' and k'+1 are joined into its next bucket.

    On band k the reduced state is read by parity: rho00 is the weight of
    the sector-(k mod 2) part (0 if that sector is not built) and rho10 the
    overlap <ground part | excited part> when both sectors are built, 0
    otherwise.

    Outcomes are drawn within the window, so the run is refused, as the
    generator is first advanced and before any step, if one step can move
    more than leak_tol of the weight of a state on one band past the
    adjacent pair (leakage, the bound of _build over every state the run
    can reach).

    Trajectory c draws only from its own stream of uniforms: the PCG64
    stream seeded with row c of words (_streams.trajectory_words or
    _streams.seed_words), whose values are those numpy.random.default_rng
    gives for its seed, bit for bit. With exact reset it draws two for the
    initial unraveling (TLS eigenstate, level), then one per step for the
    band outcome; a coarse-reset trajectory draws only the one per step and
    starts from rho0 itself. The m streams are one batch-wide state
    (_streams.Streams), drawn _streams.block_steps(m) steps at a time. A
    uniform x picks level min(floor(x N_k), N_k - 1) of band k. A member of a
    batch therefore has the same outcomes as a single run with its seed; its
    reduced states agree to rounding, since products over a batch sum in
    another order.
    """
    # Leakage past the adjacent pair is fourth order in the coupling but not
    # always far below leak_tol: at n = 7, delta_b = 0.1 and dt near 4 pi it
    # is 1.03-1.11e3 coupling^4, so the check refuses such valid runs as well
    # as a broken propagator.
    leak_tol = max(1e-9, 1e3 * params.coupling**4)
    if leakage > leak_tol:
        raise ValueError(f"band-adjacency selection rule violated beyond {leak_tol:.1e}")
    step = _sampling_tables(us, env, reset_mode)
    built, pairs = _built_pairs(us)
    m = len(words)
    streams = Streams(words)
    coarse = reset_mode == "coarse"
    nb = env.n_bands
    traj = np.arange(m)

    # Row t of a block: step j0 + t of every trajectory (band position until
    # the yield, outcome probability, reduced state) and its uniform.
    block = block_steps(m)
    rows = min(block, steps)
    out_k = np.empty((rows, m), dtype=int)
    out_p = np.empty((rows, m))
    out_r00 = np.empty((rows, m))
    out_r10 = np.empty((rows, m), dtype=complex)
    draws = np.empty((rows, m))

    i0, lo = env.band_index(k0), env.band_range[0]
    out_k[0] = i0
    if coarse:
        band = np.full(m, i0)
        # rho[c, l]: trajectory c's entry on pair l = (p, q), TLS entry
        # ((p - k) mod 2, (q - k) mod 2) on its band k. The last column stays
        # zero and stands for every pair not built.
        rho = np.zeros((m, len(pairs) + 1), dtype=complex)
        rs = rho0.matrix()
        rho[:, :-1] = [rs[(p - i0) % 2, (q - i0) % 2] for p, q in pairs]
        col00, col10 = _parity_columns(pairs, nb)
        out_r00[0], out_r10[0] = rho0.rho00, rho0.rho10
    else:
        # The unraveling of rho0 (x) 1_k / N_k: an eigenvector v of rho0 and a
        # uniform level of band k0.
        x0 = np.empty((2, m))
        streams.random(x0)
        lam_p, v_plus, v_minus = _eig2(rho0.rho00, rho0.rho10)
        vec = np.where(x0[0] < lam_p, v_plus, v_minus)
        nk = env.degeneracies[i0]
        level = np.minimum((x0[1] * nk).astype(int), nk - 1)
        out_r00[0] = np.abs(vec[0]) ** 2
        out_r10[0] = vec[0].conj() * vec[1]
        # Band buckets: band k -> (its trajectories, the part of each one's
        # state on band k in every built sector, (S, m_k, N_k)).
        psi = np.zeros((len(built), m, nk), dtype=complex)
        psi[:, traj, level] = vec[[(p - i0) % 2 for p in built]]
        buckets = {i0: (traj, psi)}
        # On a band of parity e, the ground part is that of sector e: its
        # position among the built sectors, or None.
        ground = [built.index(e) if e in built else None for e in (0, 1)]
    yield 0, out_k[:1] + lo, out_p[:0], out_r00[:1], out_r10[:1]

    for j0 in range(1, steps + 1, block):
        n = min(block, steps + 1 - j0)
        streams.random(draws[:n])
        for t in range(n):
            if coarse:
                # y[c, i, l]: pair l of the unnormalised state in window band
                # k - 1 + i.
                y = step[band] * rho[:, None, :-1]
                # The pairs (p, p) sit at every (S + 1)-th column.
                w = y[:, :, ::len(built) + 1].real.sum(axis=2)
                new, wk, out_p[t] = _born_pick(w, draws[t], band, nb)
                # Divided as floats: numpy takes complex / real as y * (1 / wk),
                # which leaves a lone pair 1 ulp short of 1.
                np.divide(y[traj, new - band + 1].view(float), wk[:, None],
                          out=rho[:, :-1].view(float))
                band = out_k[t] = new
                out_r00[t] = rho[traj, col00[band]].real
                out_r10[t] = rho[traj, col10[band]]
                continue
            landed = {}
            for i, (ids, psi) in buckets.items():
                # prod[k2][s]: the part of built sector s, stepped, on window
                # band k2; part_w[k2][s]: its weight.
                prod = {k2: psi @ b for k2, b in step[i].items()}
                part_w = {k2: np.einsum("scl,scl->sc", v.view(float), v.view(float))
                          for k2, v in prod.items()}
                w = np.zeros((len(ids), 3))
                for k2, pw in part_w.items():
                    w[:, k2 - i + 1] = pw.sum(axis=0)
                new, wk, out_p[t, ids] = _born_pick(w, draws[t, ids], i, nb)
                out_k[t, ids] = new
                for k2, v in prod.items():
                    sel = new == k2
                    hits = np.count_nonzero(sel)
                    if not hits:
                        continue
                    parts = v if hits == len(ids) else np.compress(sel, v, axis=1)
                    idx, wsel = ids[sel], wk[sel]
                    g = ground[k2 % 2]
                    out_r00[t, idx] = 0.0 if g is None else part_w[k2][g, sel] / wsel
                    out_r10[t, idx] = (np.vecdot(parts[g], parts[1 - g]) / wsel
                                       if len(built) == 2 else 0.0)
                    # Normalised in place: scaling the float view by
                    # 1 / sqrt(wk) rounds as a complex division by sqrt(wk)
                    # does, at a fraction of its cost.
                    flat = parts.view(float)
                    flat *= (1.0 / np.sqrt(wsel))[:, None]
                    landed.setdefault(k2, []).append((idx, parts))
            buckets = {
                k2: (np.concatenate([r for r, _ in got]),
                     np.concatenate([p for _, p in got], 1))
                if len(got) > 1 else got[0]
                for k2, got in landed.items()
            }
        yield j0, out_k[:n] + lo, out_p[:n], out_r00[:n], out_r10[:n]


def _check_choice(name: str, value: str, choices: tuple[str, ...]) -> None:
    if value not in choices:
        raise ValueError(f"unknown {name} {value!r}")


def run_trajectory(
    params: ModelParams,
    env: BandedEnvironment,
    rho0: QubitState,
    k0: int,
    steps: int,
    seed,
    reset_mode: str = "coarse",
) -> Trajectory:
    """One selective-measurement trajectory, deterministic in the seed.

    The record is copied out of _sample_paths one draw block at a time, so
    besides the returned (steps + 1)-long series the run holds one block.

    seed is an int, a sequence of ints, None (fresh OS entropy) or a
    numpy.random.SeedSequence; the trajectory draws the uniforms that
    numpy.random.default_rng(seed) gives. A Generator or BitGenerator is
    refused with TypeError.
    """
    rho0.validate()
    _check_count("steps", steps)
    _check_choice("reset_mode", reset_mode, ("coarse", "exact"))
    words = seed_words(seed)
    us, leakage = _build(params, env, rho0, k0)
    blocks = _sample_paths(params, env, us, leakage, rho0, k0, steps, words, reset_mode)
    # Each block's column is copied before the next block overwrites it.
    cols = [[rec[:, 0].copy() for rec in block] for _, *block in blocks]
    outcomes, probs, rho00, rho10 = (np.concatenate(c) for c in zip(*cols))
    return Trajectory(
        outcomes=outcomes, rho00=rho00, rho10=rho10, probs=probs, seed=seed
    )


def _run_nonselective_exact(us, env, rho0: QubitState, k0, steps):
    """Exact joint density matrix, nonselective measurement, no coarse graining.

    U conserves the parity p = (TLS level + band position) mod 2, so it is
    the direct sum of the two env.dim x env.dim sector unitaries u_p of
    _build; in sector p the N_k levels of band k at TLS level
    (p - k) mod 2 sit at env.band_starts[k].
    After every band measurement rho is block-diagonal in the bands, so each
    sector pair (p, q) of rho is held as one N_k x N_k block X_k per band, for
    the pairs (0, 0), (1, 1) and (1, 0); (0, 1) is (1, 0)^+ and is not
    stepped. A step is M[:, k] = u_p[:, k] X_k, then X'_k = M[k] u_q[k]^+.
    Pair (p, q) starts as entry ((p - k0) mod 2, (q - k0) mod 2) of rho0 on
    band k0, and a pair that starts at zero stays zero: only the other, live
    pairs are held and stepped, and _build holds the sectors they name. A
    dead pair reads as an exact zero in rho00, rho10 and the trace, so it is
    left out of their sums.

    Returns the rho00 and rho10 series and the largest drift of the total
    trace, which must stay below 1e-9.
    """
    degs = env.degeneracies
    i0 = env.band_index(k0)
    rs = rho0.matrix()
    bands = [slice(s, s + nk) for s, nk in zip(env.band_starts, degs)]

    x = {}
    for p, q in [(0, 0), (1, 1), (1, 0)]:
        entry = rs[(p - i0) % 2, (q - i0) % 2]
        if entry != 0:
            x[p, q] = [np.zeros((nk, nk), dtype=complex) for nk in degs]
            x[p, q][i0] = entry * np.eye(degs[i0]) / degs[i0]
    diagonal = [pq for pq in x if pq[0] == pq[1]]
    trace0 = sum(np.trace(x[pq][i0]).real for pq in diagonal)
    mixed = np.empty((env.dim, env.dim), dtype=complex)
    r00 = np.empty(steps + 1)
    r10 = np.empty(steps + 1, dtype=complex)
    worst = 0.0
    for j in range(steps + 1):
        if j:
            for p, q in x:
                for b, r in zip(bands, x[p, q]):
                    mixed[:, b] = us[p][:, b] @ r
                x[p, q] = [mixed[b] @ us[q][b].conj().T for b in bands]
            drift = sum(np.trace(r).real for pq in diagonal for r in x[pq]) - trace0
            if abs(drift) > 1e-9:
                raise ValueError(f"trace drifted by {drift:.1e} at step {j}")
            worst = max(worst, abs(drift))
        # Band k's ground block is in sector k mod 2; its (excited, ground)
        # coherence is X_10[k] for even k and X_10[k]^+ for odd k.
        r00[j] = sum(np.trace(x[k % 2, k % 2][k]).real
                     for k in range(len(degs)) if (k % 2, k % 2) in x)
        coh = [np.trace(r) for r in x.get((1, 0), ())]
        r10[j] = sum(c if k % 2 == 0 else np.conj(c) for k, c in enumerate(coh))
    return r00, r10, worst


def _run_nonselective_coarse(us, env, rho0: QubitState, k0, steps):
    """Outcome-averaged coarse-reset state, held as x[l, k], the entry of
    band k's TLS block on the built sector pair l (_built_pairs), and stepped
    pair by pair with the blocks of _pair_sums. The last row stays zero and
    stands for every pair not built."""
    nb, i0 = env.n_bands, env.band_index(k0)
    _, pairs = _built_pairs(us)
    x = np.zeros((len(pairs) + 1, nb), dtype=complex)
    rs = rho0.matrix()
    x[:-1, i0] = [rs[(p - i0) % 2, (q - i0) % 2] for p, q in pairs]
    # Paired once: making the row views every step costs more than the matvec.
    blocks = list(zip(_pair_sums(us, env), x))
    flat = x.reshape(-1)
    idx00, idx10 = (col * nb + np.arange(nb) for col in _parity_columns(pairs, nb))
    r00 = np.empty(steps + 1)
    r10 = np.empty(steps + 1, dtype=complex)
    for j in range(steps + 1):
        if j:
            for s, v in blocks:
                v[:] = s @ v
        r00[j] = flat[idx00].sum().real
        r10[j] = flat[idx10].sum()
    return r00, r10


def run_ensemble(
    params: ModelParams,
    env: BandedEnvironment,
    rho0: QubitState,
    k0: int,
    steps: int,
    n_traj: int | None = None,
    master_seed: int | None = None,
    reset_mode: str = "coarse",
    engine: str = "nonselective",
) -> EnsembleSeries:
    """Ensemble-averaged measurement series.

    engine "sampled" averages n_traj independent trajectories with seeds derived
    from master_seed; "nonselective" evolves the exact outcome-averaged density
    matrix (no statistical error). Every engine reports the leakage bound of
    its build; only the sampled one refuses a run on it.

    The sampled engine reduces its records one draw block at a time
    (_sample_paths), with the same mean and std(ddof=1) per step as over the
    whole history, so its memory besides the returned series does not
    depend on steps: O(n_traj max N_k) for the states and one block.
    """
    rho0.validate()
    _check_count("steps", steps)
    if n_traj is not None:
        _check_count("n_traj", n_traj)
    _check_choice("engine", engine, ("sampled", "nonselective"))
    _check_choice("reset_mode", reset_mode, ("coarse", "exact"))
    sampled = engine == "sampled"
    if sampled and n_traj is None:
        raise ValueError("sampled engine requires n_traj >= 1")
    if sampled and master_seed is None:
        raise ValueError("sampled engine requires a master_seed")
    t0 = time.perf_counter()
    words = trajectory_words(master_seed, n_traj) if sampled else None
    us, leakage = _build(params, env, rho0, k0)
    stderr, drift = np.zeros(steps + 1), None
    if sampled:
        r00, r10 = np.empty(steps + 1), np.empty(steps + 1, dtype=complex)
        for j0, _, _, b00, b10 in _sample_paths(
            params, env, us, leakage, rho0, k0, steps, words, reset_mode
        ):
            rows = slice(j0, j0 + len(b00))
            if n_traj > 1:
                stderr[rows] = b00.std(axis=1, ddof=1) / np.sqrt(n_traj)
            r00[rows], r10[rows] = b00.mean(axis=1), b10.mean(axis=1)
    elif reset_mode == "coarse":
        r00, r10 = _run_nonselective_coarse(us, env, rho0, k0, steps)
    else:
        r00, r10, drift = _run_nonselective_exact(us, env, rho0, k0, steps)
    return EnsembleSeries(
        rho00=r00,
        rho10=r10,
        stderr=stderr,
        n_traj=n_traj if sampled else None,
        engine=engine,
        reset_mode=reset_mode,
        master_seed=master_seed,
        wall_time=time.perf_counter() - t0,
        leakage_bound=leakage,
        trace_drift=drift,
    )
