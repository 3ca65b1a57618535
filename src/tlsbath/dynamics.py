"""Exact joint evolution: propagator, trajectory and ensemble runners.

Two engines share one step convention: unitary evolution over dt, then a
projective measurement of the environment band. The sampled engine follows
single measurement records: with exact reset it propagates pure state vectors
(mixed inputs are unraveled into eigenstate draws), with coarse reset the TLS
state conditioned on the record. The nonselective engine propagates the exact
outcome-averaged density matrix.

Every run makes one build (_build): the pair table of rho0, the env.dim-wide
parity sectors of the joint unitary that it names (one for a ground or
excited start), and their band-adjacency leakage bound, which every run
reports and the sampled engine alone refuses a run on. No joint-width
matrix is formed. U conserves each sector pair, so every engine holds only
the live pairs of the table. Both coarse-reset engines step only the
band-pair blocks of the live pairs (transfer_blocks): no sector unitary
is held while they step. A sampled trajectory holds only its parts in the
sectors the table names; exact-reset trajectories are grouped by their
measured band, and each group steps with one product per adjacent band it
can reach. Sampled records are handed on one draw block at a time, so no
sampled run holds a steps x n_traj history.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._streams import Streams, block_steps, seed_words, trajectory_words
from .model import (
    BandedEnvironment,
    ModelParams,
    QubitState,
    _check_count,
    _check_fits,
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
# Bytes a run holds per step. run_ensemble: its rho00, rho10 and stderr
# arrays (8 + 16 + 8) and the five series run_scenario reads out of them as
# lists, 32 B an entry (a float object and its slot). run_trajectory: its
# outcomes, probs, rho00 and rho10 (8 + 8 + 8 + 16), held twice while the
# copied blocks are joined.
_ENSEMBLE_STEP_BYTES = 32 + 5 * 32
_TRAJECTORY_STEP_BYTES = 2 * 40


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
    """The one build step of every run from rho0 (x) 1_k0 / N_k0: its pair
    table, the sector unitaries the table names, and their leakage bound
    (_leakage_bound). Returns (us, pairs, leakage).

    us = [u_0, u_1], with u_p = exp(-i h_p dt) on parity sector p of the
    joint Hamiltonian and None for a sector no live pair names. The joint
    state (a, k, r) is level g = (k, r) of sector (a + k) mod 2, so sector
    pair (p, q) is TLS entry ((p - k) mod 2, (q - k) mod 2) on band position
    k, and U keeps it the same pair: a pair that starts at zero stays zero.

    The pair table maps the live pairs among (0, 0), (1, 1) and (1, 0), in
    that order, to their nonzero start entries on band k0; (0, 1) is the
    conjugate of (1, 0) and is never held. Every engine reads the reduced
    state on a band of parity e by one rule: rho00 is pair (e, e), rho10 is
    pair (1, 0), conjugated on odd bands.

    A built sector owns one env.dim x env.dim array from assembly to the
    last step: h_p, assembled in the sign gauge of B (sign_gauged), which
    eigh copies, is overwritten by u_p (Propagator.unitary's out=) and
    turned back. B -> -B is the band gauge change (-1)^k, which eigh does
    not follow bit for bit where bands are numerically degenerate; in the
    gauge, B and -B give the same bytes.
    """
    i0, rs = env.band_index(k0), rho0.matrix()
    pairs = {(p, q): rs[(p - i0) % 2, (q - i0) % 2] for p, q in ((0, 0), (1, 1), (1, 0))}
    pairs = {pq: entry for pq, entry in pairs.items() if entry != 0}
    sectors = [p for p in (0, 1) if any(p in pq for pq in pairs)]
    # The peak is at the last eigh: the S sector arrays, and about four more
    # of their size in eigh's copy, modes and work arrays.
    _check_fits(f"the sector unitaries of dimension {env.dim}",
                (len(sectors) + 4) * 16 * env.dim**2)
    gauged, flipped = env.sign_gauged()
    # Assembled before any eigh, which then does not hold the gauged blocks.
    hs = {p: build_total_hamiltonian(params, gauged, p) for p in sectors}
    del gauged
    us = [None, None]
    for p, h in hs.items():
        us[p] = Propagator(h).unitary(params.dt, out=h)
        np.negative(us[p], out=us[p], where=flipped[:, None] != flipped)
    return us, pairs, _leakage_bound(us, env)


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


def _pair_sums(us: list, pairs: dict, env: BandedEnvironment) -> np.ndarray:
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
    us, pairs, leakage = _build(params, env, rho0, k0)
    return pairs, _pair_sums(us, pairs, env), leakage


def _parity_rows(pairs: dict, nb: int):
    """Where rho00 and rho10 sit among the pair table's rows: the row of
    pair (k mod 2, k mod 2) for every band k, and the row of (1, 0), which
    holds rho10 on even bands and its conjugate on odd ones. A dead pair's
    row is len(pairs), a zero row."""
    row, dead = {pq: l for l, pq in enumerate(pairs)}, len(pairs)
    rows00 = np.array([row.get((k % 2, k % 2), dead) for k in range(nb)])
    return rows00, row.get((1, 0), dead)


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
    op,
    pairs: dict,
    leakage: float,
    rho0: QubitState,
    k0: int,
    steps: int,
    words: np.ndarray,
    reset_mode: str,
):
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

    Every state is supported on one band k, and one step only reaches the
    window of bands k-1 .. k+1 (contiguous in the environment's level order).
    U conserves parity, so a trajectory's state is held by its parts in the
    S sectors _build made, and a sector's part stays in its sector: on band
    k, the part of sector p is at TLS level (p - k) mod 2. Everything a step
    needs is formed from op where the trajectories start, and nothing of a
    dead pair or a sector left out is stored:

    - coarse reset: the bath is 1_k / N_k after every measurement, so the TLS
      state conditioned on the band record depends on the record alone. A
      trajectory is its band k and its TLS state's entries rho[l] on the
      live pairs l = (p, q) of the table. The step is diagonal in the pair:
      y[i, l] = op[l, k - 1 + i, k] rho[l] for the window bands k - 1 + i
      (zero outside the environment), the band is drawn from the weights
      tr y (the pairs (p, p), which lead the table), and y / tr y is kept.
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
      the draw, the rows that land in k' give their reduced state (rho00 the
      weight of the sector-(k' mod 2) part, rho10 the overlap <ground part |
      excited part>, 0 for a sector left out) and, normalised, their next
      parts, and every band's arrivals from k'-1, k' and k'+1 are joined
      into its next bucket.

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
        # step[k, i, l] = op[l, k - 1 + i, k], zero outside the environment.
        padded = np.pad(op.transpose(1, 2, 0), ((1, 1), (0, 0), (0, 0)))
        step = padded[np.arange(nb)[:, None] + np.arange(3), np.arange(nb)[:, None]]
        band = np.full(m, i0)
        # rho[c, l]: trajectory c's entry on live pair l = (p, q), TLS entry
        # ((p - k) mod 2, (q - k) mod 2) on its band k. The last column stays
        # zero and stands for every dead pair.
        rho = np.zeros((m, len(pairs) + 1), dtype=complex)
        rho[:, :-1] = list(pairs.values())
        n_diag = sum(p == q for p, q in pairs)
        row00, row10 = _parity_rows(pairs, nb)
        out_r00[0], out_r10[0] = rho0.rho00, rho0.rho10
    else:
        # step[k][k2]: u_p[band k2, band k]^T for the window bands k2 of k.
        built, levels = [p for p in (0, 1) if op[p] is not None], env.band_slice
        step = [{k2: np.stack([op[p][levels(k2), levels(k)].T for p in built])
                 for k2 in range(max(k - 1, 0), min(k + 2, nb))} for k in range(nb)]
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
                w = y[:, :, :n_diag].real.sum(axis=2)
                new, wk, out_p[t] = _born_pick(w, draws[t], band, nb)
                # Divided as floats: numpy takes complex / real as y * (1 / wk),
                # which leaves a lone pair 1 ulp short of 1.
                np.divide(y[traj, new - band + 1].view(float), wk[:, None],
                          out=rho[:, :-1].view(float))
                band = out_k[t] = new
                out_r00[t] = rho[traj, row00[band]].real
                out_r10[t] = rho[:, row10]
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
        if coarse and (1, 0) in pairs:
            np.conjugate(out_r10[:n], out=out_r10[:n], where=out_k[:n] % 2 == 1)
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
    _check_choice("reset_mode", reset_mode, RESET_MODES)
    _check_fits(f"a trajectory of {steps} steps", steps * _TRAJECTORY_STEP_BYTES)
    words = seed_words(seed)
    if reset_mode == "coarse":
        pairs, op, leakage = transfer_blocks(params, env, rho0, k0)
    else:
        op, pairs, leakage = _build(params, env, rho0, k0)
    blocks = _sample_paths(params, env, op, pairs, leakage, rho0, k0, steps, words,
                           reset_mode)
    # Each block's column is copied before the next block overwrites it.
    cols = [[rec[:, 0].copy() for rec in block] for _, *block in blocks]
    outcomes, probs, rho00, rho10 = (np.concatenate(c) for c in zip(*cols))
    return Trajectory(
        outcomes=outcomes, rho00=rho00, rho10=rho10, probs=probs, seed=seed
    )


def _run_nonselective_exact(us, pairs: dict, env, k0, steps):
    """Exact joint density matrix, nonselective measurement, no coarse graining.

    U is the direct sum of the sector unitaries u_p of _build; in sector p
    the N_k levels of band k sit at env.band_starts[k]. After every band
    measurement rho is block-diagonal in the bands, so each live pair (p, q)
    of the pair table is held as one N_k x N_k block X_k per band, starting
    as its entry times 1_k0 / N_k0 on band k0. A step is
    M[:, k] = u_p[:, k] X_k, then X'_k = M[k] u_q[k]^+. A dead pair reads as
    an exact zero in rho00, rho10 and the trace, so it is left out of them.

    Returns the rho00 and rho10 series and the largest drift of the total
    trace, which must stay below 1e-9.
    """
    degs, i0 = env.degeneracies, env.band_index(k0)
    bands = [slice(s, s + nk) for s, nk in zip(env.band_starts, degs)]
    x = {}
    for pq, entry in pairs.items():
        x[pq] = [np.zeros((nk, nk), dtype=complex) for nk in degs]
        x[pq][i0] = entry * np.eye(degs[i0]) / degs[i0]
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


def _run_nonselective_coarse(blocks, pairs: dict, i0: int, steps):
    """Outcome-averaged coarse-reset state from band position i0, held as
    x[l, k], the entry of band k's TLS block on live pair l of the pair
    table, and stepped pair by pair with the blocks of transfer_blocks. The
    last row stays zero and stands for every dead pair."""
    nb = blocks.shape[1]
    x = np.zeros((len(pairs) + 1, nb), dtype=complex)
    x[:-1, i0] = list(pairs.values())
    # Paired once: making the row views every step costs more than the matvec.
    blocks = list(zip(blocks, x))
    flat = x.reshape(-1)
    row00, row10 = _parity_rows(pairs, nb)
    idx00 = row00 * nb + np.arange(nb)
    # rho10 sums row (1, 0) conjugated on odd bands: its float view with the
    # imaginary parts of odd bands negated.
    x10, live10 = x[row10].view(float), (1, 0) in pairs
    signs = np.where(np.arange(2 * nb) % 4 == 3, -1.0, 1.0)
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
    _check_choice("engine", engine, ENGINES)
    _check_choice("reset_mode", reset_mode, RESET_MODES)
    sampled = engine == "sampled"
    if sampled and n_traj is None:
        raise ValueError("sampled engine requires n_traj >= 1")
    if sampled and master_seed is None:
        raise ValueError("sampled engine requires a master_seed")
    _check_fits(f"a series of {steps} steps", steps * _ENSEMBLE_STEP_BYTES)
    words = trajectory_words(master_seed, n_traj) if sampled else None
    if reset_mode == "coarse":
        pairs, op, leakage = transfer_blocks(params, env, rho0, k0)
    else:
        op, pairs, leakage = _build(params, env, rho0, k0)
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
        r00, r10 = _run_nonselective_coarse(op, pairs, env.band_index(k0), steps)
    else:
        r00, r10, drift = _run_nonselective_exact(op, pairs, env, k0, steps)
    return EnsembleSeries(
        rho00=r00,
        rho10=r10,
        stderr=stderr,
        leakage_bound=leakage,
        trace_drift=drift,
    )
