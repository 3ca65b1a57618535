"""Exact joint evolution: propagator, trajectory and ensemble runners.

Two engines share one step convention: unitary evolution over dt, then a
projective measurement of the environment band. The sampled engine follows
single measurement records: with exact reset it propagates pure state vectors
(a mixed start is unraveled into eigenvectors of rho0 from numpy's eigh), with
coarse reset the TLS state conditioned on the record. The nonselective engine propagates the exact
outcome-averaged density matrix.

Every run makes one build (_build): the pair table of rho0, the env.dim-wide
parity sectors of the joint unitary that it names (one for a ground or
excited start), and their band-adjacency leakage bound, which every run
reports. Only a sampled exact-reset run, whose outcomes are drawn within
the adjacent bands, is refused on it; a sampled coarse-reset record draws
each outcome from the whole column of the pair blocks, the law of the
nonselective coarse engine. No joint-width matrix is formed: every engine
holds only the live pairs of the table (_parity_rows), both coarse-reset
engines step only their band-pair blocks (transfer_blocks), and sampled
records are handed on one draw block at a time (_sample_paths).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._streams import Streams, block_steps, seed_words, trajectory_words
from .model import (
    BandedEnvironment,
    ModelParams,
    QubitState,
    _check_band,
    _check_choice,
    _check_count,
    _check_fits,
    _show,
    _tls_level,
    build_total_hamiltonian,
)

__all__ = [
    "Propagator",
    "Trajectory",
    "EnsembleSeries",
    "run_trajectory",
    "run_ensemble",
    "trajectory_seed",
    "transfer_blocks",
]

HERM_TOL = 1e-10   # largest |h - h^dagger| entry that Propagator accepts
# The engine and reset_mode names that the runners accept.
ENGINES = ("sampled", "nonselective")
RESET_MODES = ("coarse", "exact")
# Bytes a run holds per step. run_ensemble: the rho00, rho10 and stderr
# arrays it returns (8 + 16 + 8), on which its callers' budgets build.
# run_trajectory: its outcomes, probs, rho00 and rho10 (8 + 8 + 8 + 16).
ENSEMBLE_STEP_BYTES = 8 + 16 + 8
_TRAJECTORY_STEP_BYTES = 8 + 8 + 8 + 16
# Bytes a sampled run holds a trajectory in either reset mode, for the worst
# start (three live pairs): its seed words and stream state (32 + 48), a
# draw-block row (48), its pair entries (4 x 16) and the draw (64).
_SAMPLED_TRAJ_BYTES = 32 + 48 + 48 + 4 * 16 + 64


def _windows(env: BandedEnvironment) -> list[tuple[range, slice]]:
    """The window of every band k, as entry k = (bands, levels): the bands
    k - 1 .. k + 1 that exist, which are all that one step reaches from band
    k at second order in the coupling (the paper's selection rule, whose
    width is written here alone), and their levels, contiguous in the
    environment's level order. The exact-reset step, its draw, its memory
    budget and the leakage bound all read the width from this table."""
    nb, ends = env.n_bands, [*env.band_starts, env.dim]
    bands = [range(max(k - 1, 0), min(k + 2, nb)) for k in range(nb)]
    return [(b, slice(ends[b.start], ends[b.stop])) for b in bands]


def _trajectory_bytes(env: BandedEnvironment, reset_mode: str) -> int:
    """Bytes a sampled run on env holds a trajectory: _SAMPLED_TRAJ_BYTES and,
    with coarse reset, 72 B a band for its band's cumulative column and its
    temporaries (32 B a band measured); with exact reset, 3 x 144 B for its
    unraveling, part weights and bucket indices, and its parts in both
    sectors on its band, their products on the window bands of a step and
    the parts that land (16 B an entry), on the largest band and window."""
    if reset_mode == "coarse":
        return _SAMPLED_TRAJ_BYTES + 72 * env.n_bands
    window = max(levels.stop - levels.start for _, levels in _windows(env))
    return _SAMPLED_TRAJ_BYTES + 3 * 144 + 2 * 16 * (2 * max(env.degeneracies) + window)


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


@dataclass
class EnsembleSeries:
    """Per-step ensemble averages of the reduced TLS state."""

    rho00: np.ndarray             # (J+1,)
    rho10: np.ndarray             # (J+1,) complex
    # (J+1,) standard error of rho00 (0 for the nonselective engine).
    stderr: np.ndarray
    # The build's bound on one step's band-adjacency leakage (_leakage_bound).
    leakage_bound: float | None = None
    # Exact-reset nonselective engine: the largest drift of the total trace.
    trace_drift: float | None = None

    @property
    def steps(self) -> int:
        return len(self.rho00) - 1


def _build(params: ModelParams, env: BandedEnvironment, rho0: QubitState, k0: int):
    """The one build step of every run from rho0 (x) 1_k0 / N_k0: its pair
    table, the sector unitaries the table names, and their leakage bound
    (_leakage_bound). Returns (pairs, us, leakage), the order of
    transfer_blocks.

    us = {p: u_p} over the sectors p that a live pair names, in sector
    order, with u_p = exp(-i h_p dt) on parity sector p of the joint
    Hamiltonian; no other sector is built. The joint
    state (a, k, r) is level g = (k, r) of sector (a + k) mod 2, so sector
    pair (p, q) is TLS entry (_tls_level(p, k), _tls_level(q, k)) on band k,
    and U keeps it the same pair: a pair that starts at zero stays zero.

    The pair table maps the live pairs among (0, 0), (1, 1) and (1, 0), in
    that order, to their nonzero start entries on band k0; (0, 1) is the
    conjugate of (1, 0) and is never held.

    The sectors are built one per pass, and a built sector owns one
    env.dim x env.dim array from assembly to the last step: h_p, assembled
    in the sign gauge of B (sign_gauged), which eigh copies, is overwritten
    by u_p (Propagator.unitary's out=) and turned back. B -> -B is the band
    gauge change (-1)^k, which eigh does not follow bit for bit where bands
    are numerically degenerate; in the gauge, B and -B give the same bytes.
    """
    _check_band("k0", k0, env.n)
    level = _tls_level(np.arange(2), k0)
    rs = rho0.matrix()[np.ix_(level, level)]   # rs[p, q]: sector pair (p, q) on band k0
    pairs = {(p, q): rs[p, q] for p, q in ((0, 0), (1, 1), (1, 0)) if rs[p, q] != 0}
    sectors = [p for p in (0, 1) if any(p in pq for pq in pairs)]
    # The peak is at the last eigh: the S sector arrays, and about four more
    # of their size in eigh's copy, modes and work arrays.
    _check_fits(f"the sector unitaries of dimension {env.dim}",
                (len(sectors) + 4) * 16 * env.dim**2)
    gauged, flipped = env.sign_gauged()
    us = {}
    for p in sectors:
        h = build_total_hamiltonian(params, gauged, p)
        us[p] = Propagator(h).unitary(params.dt, out=h)
        np.negative(us[p], out=us[p], where=flipped[:, None] != flipped)
    return pairs, us, _leakage_bound(us, env)


def _leakage_bound(us: dict[int, np.ndarray], env: BandedEnvironment) -> float:
    """Largest weight one step moves past the adjacent bands, over all states.

    For band k and sector p, lambda_max(A^+ A) with A = u_p[far(k), band k],
    far(k) the levels outside the window of band k (_windows), is the largest
    |P_far u_p psi|^2 over unit states psi on band k of sector p. The two
    sector parts of a state have disjoint far rows, so the maximum over k and
    the sectors built bounds every state a run holds before a step, in
    either reset mode.
    """
    worst = 0.0
    for k, (_, levels) in enumerate(_windows(env)):
        for u in us.values():
            far = np.delete(u[:, env.band_slice(k)], levels, axis=0)
            worst = max(worst, float(np.linalg.eigvalsh(far.conj().T @ far)[-1]))
    return worst


def _pair_sums(us: dict, pairs: dict, env: BandedEnvironment) -> np.ndarray:
    """Band-pair blocks of the sector unitaries us of _build, one per live
    pair l = (p, q) of its pair table, as an array sums[l, k', k] of shape
    (L, n_bands, n_bands):

        sums[l, k', k] = (1/N_k) sum_{g in k', r in k} u_p[g, r] conj(u_q[g, r])

    After a coarse reset the state is sum_k rho_k (x) 1_k / N_k, and one
    evolve-measure step takes the entry of rho_k on pair l to
    sums[l, k', k] times it on band k', since U keeps a pair the same pair.
    The block of (1, 0) is formed as that of (0, 1) and conjugated.
    """
    degs = np.asarray(env.degeneracies)
    sums = []
    for p, q in pairs:
        prod = np.add.reduceat(us[q] * us[p].conj(), env.band_starts, axis=0)
        s = np.add.reduceat(prod, env.band_starts, axis=1) / degs
        sums.append(s if p == q else s.conj())
    return np.stack(sums)


def transfer_blocks(params: ModelParams, env: BandedEnvironment, rho0: QubitState,
                    k0: int):
    """The coarse-reset transfer operator of a run from rho0 (x) 1_k0 / N_k0,
    as (pairs, blocks, leakage): the pair table and leakage bound of _build,
    and blocks[l] the (n_bands, n_bands) block S_pq of live pair l = (p, q)
    (_pair_sums), so that dict(zip(pairs, blocks)) maps each pair to its block.
    The sector unitaries are released when it returns."""
    pairs, us, leakage = _build(params, env, rho0, k0)
    return pairs, _pair_sums(us, pairs, env), leakage


def _parity_rows(pairs: dict, nb: int):
    """The one reader of the rows of pair table pairs (_build) on nb bands,
    formed once per run, as (row00, row10, conj10, diagonal, dead): the row
    of rho00 on every band, the row of pair (1, 0), the bands on which that
    row holds conj(rho10), the leading rows of the pairs (p, p) (a slice),
    and the zero row after the live ones, which stands for every dead pair."""
    row, dead = {pq: l for l, pq in enumerate(pairs)}, len(pairs)
    excited0 = _tls_level(0, np.arange(nb)) == 1   # sector 0 at TLS level 1
    return (np.where(excited0, row.get((1, 1), dead), row.get((0, 0), dead)),
            row.get((1, 0), dead), excited0, slice(0, sum(p == q for p, q in pairs)), dead)


def _pick(cum: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The one band draw of the sampled engine: with cumulative weights cum,
    bands along axis 0, the index of the first band whose cumulative weight
    exceeds x times the total cum[-1]. No zero-weight band is drawn: x = 0
    passes the leading ones, and x cum[-1] < cum[-1] if x < 1."""
    return np.count_nonzero(cum[:-1] <= x * cum[-1], axis=0)


def _sample_paths(params: ModelParams, env: BandedEnvironment, op, pairs: dict,
                  leakage: float, rho0: QubitState, k0: int, steps: int,
                  words: np.ndarray, reset_mode: str):
    """Batched measurement records (quantum trajectories) on a build with
    pair table pairs and leakage bound, yielded one draw block at a time; op
    is its pair blocks (transfer_blocks) for coarse reset and its sector
    unitaries (_build) for exact reset.

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

    In either reset mode a trajectory is its band k and its TLS state's
    entries rho[l] on the live pairs l = (p, q) of the table, from which
    every row's rho00 and rho10, row 0 included, are read (_parity_rows). U
    conserves parity, so an exact-reset state is also held by its parts in
    the S sectors _build made, and a sector's part stays in its sector: on
    band k, the part of sector p is at TLS level _tls_level(p, k).
    Everything a step needs is formed from op where the trajectories start,
    and nothing of a dead pair or a sector left out is stored:

    - coarse reset: the bath is 1_k / N_k after every measurement, so the TLS
      state conditioned on the band record depends on the record alone, and
      rho[l] is all a trajectory holds. The step is diagonal in the pair:
      y[k', l] = op[l, k', k] rho[l] over the whole column k, the band k' is
      drawn from the weights tr y (the pairs (p, p), which lead the table),
      and y / tr y is kept: the law of the nonselective coarse engine.
      Unraveling rho (x) 1_k / N_k into an eigenvector of rho and a level of
      band k gives band records the same law, since E[v v^+] = rho and the
      step is linear; rho is the mean of that unraveling's reduced state
      given the record. A ground-start trajectory is thus a band Markov chain.
    - exact reset: a trajectory holds its parts on band k, N_k numbers each.
      The trajectories sit in band buckets, band k -> (their indices, their
      parts as one (S, m_k, N_k) array). A step takes each bucket through
      one (S, m_k, N_k)(S, N_k, N_k') product per window band k', with the
      contiguous blocks u_p[band k', band k]^T of the S built sectors
      stacked; its weight in band k' is read from that product alone. After
      the draw, the rows that land in k' give their entries rho[l] (pair
      (p, p) the weight of the sector-p part, pair (1, 0) the overlap
      <part 0 | part 1>, both divided by the weight in k') and, normalised,
      their next parts, and every band's arrivals from the buckets whose
      window holds it are joined into its next bucket. A trajectory starts
      from an eigenvector of rho0 (eigh, in TLS order), the larger-eigenvalue
      one where its first uniform is below that eigenvalue, on level
      min(floor(x N_k0), N_k0 - 1) of band k0 for its second uniform x; its
      entries are set from its parts as a landing of weight 1 sets them.

    Exact-reset outcomes are drawn within the window of band k (_windows), so
    that run alone is refused, as the generator is first advanced, if one step
    can move more than leak_tol of the weight of a state on one band past the
    adjacent pair (leakage). That is fourth order in the coupling but not
    always far below leak_tol (1.03-1.11e3 coupling^4 at n = 7, delta_b = 0.1
    and dt near 4 pi), so valid runs are refused as well as a broken propagator.

    Trajectory c draws only from its own stream of uniforms: the PCG64
    stream seeded with row c of words (_streams.trajectory_words or
    _streams.seed_words), whose values are those numpy.random.default_rng
    gives for its seed, bit for bit. With exact reset it draws two for the
    initial unraveling (eigenvector, level), then one per step for the
    band outcome; a coarse-reset trajectory draws only the one per step and
    starts from the entries of rho0 itself. The m streams are one batch-wide
    state (_streams.Streams). A uniform x picks, in either reset mode, the
    first band whose cumulative weight exceeds x times the total (_pick),
    over the whole column with coarse reset and over the window of band k
    with exact reset. A member
    of a batch therefore has the same outcomes as a single run with its
    seed; its reduced states agree to rounding, since products over a batch
    sum in another order.
    """
    coarse = reset_mode == "coarse"
    leak_tol = max(1e-9, 1e3 * params.coupling**4)
    if not coarse and leakage > leak_tol:
        raise ValueError(f"band-adjacency selection rule violated beyond {leak_tol:.1e}")
    m = len(words)
    streams = Streams(words)
    nb = op.shape[1] if coarse else env.n_bands
    traj = np.arange(m)

    # Row t of a block: step j0 + t of every trajectory (band, outcome
    # probability, reduced state) and its uniform.
    block = block_steps(m)
    rows = min(block, steps)
    out_k = np.empty((rows, m), dtype=int)
    out_p = np.empty((rows, m))
    out_r00 = np.empty((rows, m))
    out_r10 = np.empty((rows, m), dtype=complex)
    draws = np.empty((rows, m))

    out_k[0] = k0
    row00, row10, conj10, diagonal, dead = _parity_rows(pairs, nb)
    rho = np.zeros((m, dead + 1), dtype=complex)
    if coarse:
        # step[k, k2, l] = op[l, k2, k]; cols[l, k2, k]: the weight of bands
        # 0 .. k2 in column k of diagonal pair l's block.
        step = op.transpose(2, 1, 0).copy()
        cols = np.cumsum(op[diagonal].real, axis=1)
        band = np.full(m, k0)
        rho[:, :-1] = list(pairs.values())
    else:
        # step[k][i]: u_p[band k2, band k]^T of the built sectors, stacked,
        # for the i-th window band k2 of k.
        window, built, levels = _windows(env), list(op), env.band_slice
        step = [[np.stack([u[levels(k2), levels(k)].T for u in op.values()])
                 for k2 in bands]
                for k, (bands, _) in enumerate(window)]
        # The built sectors whose weights are the entries on the diagonal rows.
        diag = [built.index(p) for p, _ in list(pairs)[diagonal]]
        # The unraveling of rho0 (x) 1_k / N_k: an eigenvector of rho0 (eigh,
        # in TLS order), the larger-eigenvalue one where the first uniform is
        # below its eigenvalue, and a uniform level of band k0.
        x0 = np.empty((2, m))
        streams.random(x0)
        lam, vecs = np.linalg.eigh(rho0.matrix())
        vec = np.where(x0[0] < lam[1], vecs[:, 1:], vecs[:, :1])
        nk = env.degeneracies[k0]
        level = np.minimum((x0[1] * nk).astype(int), nk - 1)
        # Band buckets: band k -> (its trajectories, the part of each one's
        # state on band k in every built sector, (S, m_k, N_k)).
        psi = np.zeros((len(built), m, nk), dtype=complex)
        psi[:, traj, level] = vec[_tls_level(np.array(built), k0)]
        buckets = {k0: (traj, psi)}
        # The start's pair entries, as a landing of weight 1 sets them.
        rho[:, diagonal] = np.einsum("scl,scl->sc", psi.view(float), psi.view(float))[diag].T
        if row10 != dead:
            rho[:, row10] = np.vecdot(psi[0], psi[1])

    for j0 in (0, *range(1, steps + 1, block)):
        # Block 0 is the initial row alone: no step precedes it.
        n = min(block, steps + 1 - j0) if j0 else 1
        if j0:
            streams.random(draws[:n])
        for t in range(n):
            if j0 and coarse:
                # cum[k2, c]: the weight of bands 0 .. k2.
                cum = sum(np.take(col, band, axis=1) * r
                          for col, r in zip(cols, rho[:, diagonal].real.T))
                new = _pick(cum, draws[t])
                # y[c, l]: pair l of the unnormalised state in the drawn band.
                y = step[band, new] * rho[:, :-1]
                wk = y[:, diagonal].real.sum(axis=1)
                out_p[t] = wk / cum[-1]
                # Divided as floats: numpy takes complex / real as y * (1 / wk),
                # which leaves a lone pair 1 ulp short of 1.
                np.divide(y.view(float), wk[:, None], out=rho[:, :-1].view(float))
                band = out_k[t] = new
            elif j0:
                landed = {}
                for i, (ids, psi) in buckets.items():
                    bands = window[i][0]
                    # prod[j][s]: the part of built sector s, stepped, on
                    # window band bands[j]; part_w[j][s]: its weight, and
                    # w[j, c] that of trajectory c.
                    prod = [psi @ b for b in step[i]]
                    part_w = [np.einsum("scl,scl->sc", v.view(float), v.view(float))
                              for v in prod]
                    w = np.stack([pw.sum(axis=0) for pw in part_w])
                    cum = np.cumsum(w, axis=0)
                    j = _pick(cum, draws[t, ids])
                    wk = w[j, np.arange(len(ids))]
                    out_p[t, ids] = wk / cum[-1]
                    new = out_k[t, ids] = bands.start + j
                    for k2, v, pw in zip(bands, prod, part_w):
                        sel = new == k2
                        hits = np.count_nonzero(sel)
                        if not hits:
                            continue
                        parts = v if hits == len(ids) else np.compress(sel, v, axis=1)
                        idx, wsel = ids[sel], wk[sel]
                        rho[idx, diagonal] = pw[diag][:, sel].T / wsel[:, None]
                        if row10 != dead:
                            rho[idx, row10] = np.vecdot(parts[0], parts[1]) / wsel
                        # Normalised in place: scaling the float view by
                        # 1 / sqrt(wk) rounds as a complex division by
                        # sqrt(wk) does, at a fraction of its cost.
                        flat = parts.view(float)
                        flat *= (1.0 / np.sqrt(wsel))[:, None]
                        landed.setdefault(k2, []).append((idx, parts))
                buckets = {
                    k2: (np.concatenate([r for r, _ in got]),
                         np.concatenate([p for _, p in got], 1))
                    if len(got) > 1 else got[0]
                    for k2, got in landed.items()
                }
            out_r00[t] = rho[traj, row00[out_k[t]]].real
            out_r10[t] = rho[:, row10]
        if row10 != dead:
            np.conjugate(out_r10[:n], out=out_r10[:n], where=conj10[out_k[:n]])
        yield j0, out_k[:n], out_p[:n if j0 else 0], out_r00[:n], out_r10[:n]


def _check_run(rho0: QubitState, steps, reset_mode) -> None:
    """What run_trajectory and run_ensemble check first: rho0, steps and
    reset_mode."""
    rho0.validate()
    _check_count("steps", steps)
    _check_choice("reset_mode", reset_mode, RESET_MODES)


def _run_build(params, env, rho0, k0, reset_mode):
    """The one build step of run_trajectory and run_ensemble, made once a
    runner's checks pass: (pairs, op, leakage), where op is the pair blocks
    of transfer_blocks for coarse reset and the sector unitaries of _build
    for exact reset."""
    build = transfer_blocks if reset_mode == "coarse" else _build
    return build(params, env, rho0, k0)


def run_trajectory(params: ModelParams, env: BandedEnvironment, rho0: QubitState,
                   k0: int, steps: int, seed, reset_mode: str = "coarse") -> Trajectory:
    """One selective-measurement trajectory, deterministic in the seed.

    The record is copied out of _sample_paths one draw block at a time, so
    besides the returned (steps + 1)-long series the run holds one block.

    seed is an int, a sequence of ints, None (fresh OS entropy) or a
    numpy.random.SeedSequence; the trajectory draws the uniforms that
    numpy.random.default_rng(seed) gives. A Generator or BitGenerator is
    refused with TypeError.
    """
    _check_run(rho0, steps, reset_mode)
    _check_fits(f"a trajectory of {_show(steps)} steps", steps * _TRAJECTORY_STEP_BYTES)
    words = seed_words(seed)
    pairs, op, leakage = _run_build(params, env, rho0, k0, reset_mode)
    blocks = _sample_paths(params, env, op, pairs, leakage, rho0, k0, steps, words,
                           reset_mode)
    outcomes, rho00, rho10 = (np.empty(steps + 1, dtype=t) for t in (int, float, complex))
    probs = np.empty(steps)
    # Each block's column is copied before the next block overwrites it.
    for j0, k, p, r00, r10 in blocks:
        outcomes[j0:j0 + len(k)], probs[j0 - 1:j0 - 1 + len(p)] = k[:, 0], p[:, 0]
        rho00[j0:j0 + len(k)], rho10[j0:j0 + len(k)] = r00[:, 0], r10[:, 0]
    return Trajectory(outcomes=outcomes, rho00=rho00, rho10=rho10, probs=probs, seed=seed)


def _run_nonselective_exact(us, pairs: dict, env, k0, steps):
    """Exact joint density matrix, nonselective measurement, no coarse graining.

    U is the direct sum of the sector unitaries u_p of _build; in sector p
    the N_k levels of band k sit at env.band_starts[k]. After every band
    measurement rho is block-diagonal in the bands, so live pair l = (p, q)
    of the pair table is held as one N_k x N_k block x[l][k] per band k,
    starting as its entry times 1_k0 / N_k0 on band k0. A step is
    M[:, k] = u_p[:, k] X_k, then X'_k = M[k] u_q[k]^+, with each sector's
    u_q[k]^+ formed once per run. On the first step only X_k0 is nonzero, so
    the other columns of M are left zero, not multiplied. rho00 and rho10 are
    the block traces read by _parity_rows, summed in band order; a dead
    pair's row of traces is zero.

    Returns the rho00 and rho10 series and the largest drift of the total
    trace, which must stay below 1e-9.
    """
    degs, nb = env.degeneracies, env.n_bands
    bands = [slice(s, s + nk) for s, nk in zip(env.band_starts, degs)]
    x = [[np.zeros((nk, nk), dtype=complex) for nk in degs] for _ in pairs]
    for xl, entry in zip(x, pairs.values()):
        xl[k0] = entry * np.eye(degs[k0]) / degs[k0]
    row00, row10, conj10, diagonal, _ = _parity_rows(pairs, nb)
    trace0 = sum(np.trace(xl[k0]).real for xl in x[diagonal])
    rows_h = {q: [us[q][b].conj().T for b in bands] for q in {q for _, q in pairs}}
    # Only its band-k0 columns are written on the first step; the rest stay zero.
    mixed = np.zeros((env.dim, env.dim), dtype=complex)
    r00 = np.empty(steps + 1)
    r10 = np.empty(steps + 1, dtype=complex)
    worst = 0.0
    for j in range(steps + 1):
        if j:
            for (p, q), xl in zip(pairs, x):
                for k in [k0] if j == 1 else range(nb):
                    mixed[:, bands[k]] = us[p][:, bands[k]] @ xl[k]
                xl[:] = [mixed[b] @ h for b, h in zip(bands, rows_h[q])]
        traces = [[np.trace(r) for r in xl] for xl in x] + [[0j] * nb]
        drift = sum(t[k].real for t in traces[diagonal] for k in range(nb)) - trace0
        if abs(drift) > 1e-9:
            raise ValueError(f"trace drifted by {drift:.1e} at step {j}")
        worst = max(worst, abs(drift))
        r00[j] = sum(traces[row00[k]][k].real for k in range(nb))
        r10[j] = sum(np.conj(c) if cj else c for c, cj in zip(traces[row10], conj10))
    return r00, r10, worst


def _run_nonselective_coarse(blocks, pairs: dict, k0: int, steps):
    """Outcome-averaged coarse-reset state from band k0, held as
    x[l, k], the entry of band k's TLS block on live pair l of the pair
    table, and stepped pair by pair with the blocks of transfer_blocks."""
    nb = blocks.shape[1]
    row00, row10, conj10, _, dead = _parity_rows(pairs, nb)
    x = np.zeros((dead + 1, nb), dtype=complex)
    x[:-1, k0] = list(pairs.values())
    # Paired once: making the row views every step costs more than the matvec.
    blocks = list(zip(blocks, x))
    flat = x.reshape(-1)
    idx00 = row00 * nb + np.arange(nb)
    # rho10 sums the float view of row (1, 0), imaginary parts negated on conj10.
    x10, live10 = x[row10].view(float), row10 != dead
    signs = np.column_stack([np.ones(nb), np.where(conj10, -1.0, 1.0)]).ravel()
    r00 = np.empty(steps + 1)
    r10 = np.zeros(steps + 1, dtype=complex)
    for j in range(steps + 1):
        if j:
            for s, v in blocks:
                v[:] = s @ v
        r00[j] = flat[idx00].sum().real
        if live10:
            r10[j] = (x10 * signs).view(complex).sum()
    return r00, r10


def run_ensemble(params: ModelParams, env: BandedEnvironment, rho0: QubitState, k0: int,
                 steps: int, n_traj: int | None = None, master_seed: int | None = None,
                 reset_mode: str = "coarse",
                 engine: str = "nonselective") -> EnsembleSeries:
    """Ensemble-averaged measurement series.

    engine "sampled" averages n_traj independent trajectories with seeds derived
    from master_seed; "nonselective" evolves the exact outcome-averaged density
    matrix (no statistical error). Every engine reports the leakage bound of
    its build; only the sampled one with exact reset refuses a run on it, as
    coarse reset draws each outcome from the whole column of the pair blocks.

    The sampled engine reduces its records one draw block at a time
    (_sample_paths), with the same mean and std(ddof=1) per step as over the
    whole history, so its memory besides the returned series does not
    depend on steps: O(n_traj max N_k) for the states and one block. A run
    whose n_traj trajectories (_trajectory_bytes each) cannot fit in
    physical memory is refused before anything of n_traj entries is formed.
    """
    _check_run(rho0, steps, reset_mode)
    if n_traj is not None:
        _check_count("n_traj", n_traj)
    _check_choice("engine", engine, ENGINES)
    sampled = engine == "sampled"
    if sampled and n_traj is None:
        raise ValueError("sampled engine requires n_traj >= 1")
    if sampled and master_seed is None:
        raise ValueError("sampled engine requires a master_seed")
    _check_fits(f"a series of {_show(steps)} steps", steps * ENSEMBLE_STEP_BYTES)
    if sampled:
        _check_fits(f"a sampled ensemble of {_show(n_traj)} trajectories",
                    n_traj * _trajectory_bytes(env, reset_mode))
    words = trajectory_words(master_seed, n_traj) if sampled else None
    pairs, op, leakage = _run_build(params, env, rho0, k0, reset_mode)
    stderr, drift = np.zeros(steps + 1), None
    if sampled:
        r00, r10 = np.empty(steps + 1), np.empty(steps + 1, dtype=complex)
        for j0, _, _, b00, b10 in _sample_paths(
            params, env, op, pairs, leakage, rho0, k0, steps, words, reset_mode
        ):
            rows = slice(j0, j0 + len(b00))
            if n_traj > 1:
                stderr[rows] = b00.std(axis=1, ddof=1) / np.sqrt(n_traj)
            r00[rows], r10[rows] = b00.mean(axis=1), b10.mean(axis=1)
    elif reset_mode == "coarse":
        r00, r10 = _run_nonselective_coarse(op, pairs, k0, steps)
    else:
        r00, r10, drift = _run_nonselective_exact(op, pairs, env, k0, steps)
    return EnsembleSeries(rho00=r00, rho10=r10, stderr=stderr, leakage_bound=leakage,
                          trace_drift=drift)
