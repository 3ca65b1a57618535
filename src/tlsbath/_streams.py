"""Batch-wide PCG64 streams: the uniforms of m numpy generators as arrays.

Trajectory c of a sampled run draws from numpy's PCG64 bit generator seeded
with its SeedSequence (dynamics.trajectory_seed). Here the m streams are held
as uint64 arrays and stepped together; every value is the one
numpy.random.default_rng(seed).random() gives, bit for bit.

PCG64 (O'Neill, HMC-CS-2014-0905, 2014) is the 128-bit LCG
s <- a s + inc mod 2^128, read through XSL-RR after each step. t steps take
s to A_t s + G_t inc with A_t = a^t and G_t = 1 + a + ... + a^(t-1), so n
draws of every stream are one elementwise product with the tables A, G
(_jump_table). A 128-bit number is a (hi, lo) pair of uint64 arrays.

The seed words follow numpy's SeedSequence (NEP 19): the entropy words are
hashed into a pool of four uint32 words, and the pool gives the four uint64
words PCG64 is seeded with. The hash runs over uint32 arrays, one entry per
trajectory.
"""
from __future__ import annotations

import operator

import numpy as np

_M32 = 0xFFFFFFFF

# SeedSequence hash constants (numpy.random.bit_generator).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# PCG64's 128-bit LCG multiplier a, as (hi, lo).
_MULT = (0x2360ED051FC65DA4, 0x4385DF649FCCF645)


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, [0] for 0, as
    SeedSequence splits its entropy."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _pool_words(entropy: list[np.ndarray]) -> np.ndarray:
    """SeedSequence(entropy).generate_state(4, np.uint64) for every column of
    the uint32 entropy words (a list of (m,) arrays), as an (m, 4) array."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _M32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ (r >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))

    state = np.empty((len(zero), 8), dtype=np.uint32)
    const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _M32
        value = value * np.uint32(const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.astype("<u4").view("<u8").astype(np.uint64)


def trajectory_words(master_seed: int, m: int) -> np.ndarray:
    """PCG64 seed words of trajectory_seed(master_seed, i) for i < m, (m, 4).

    The master seed is checked by SeedSequence itself, so a negative int
    fails with ValueError and a non-integer with TypeError, and row 0 is
    checked against its words.
    """
    first = np.random.SeedSequence(entropy=(master_seed, 0)).generate_state(4, np.uint64)
    prefix = [np.full(m, w, dtype=np.uint32)
              for w in _uint32_words(operator.index(master_seed))]
    words = _pool_words(prefix + [np.arange(m, dtype=np.uint32)])
    if not np.array_equal(words[0], first):
        raise RuntimeError("batch seed hash disagrees with numpy.random.SeedSequence")
    return words


def seed_words(seed) -> np.ndarray:
    """PCG64 seed words of one seed, (1, 4): those default_rng(seed) uses.

    seed is an int, a sequence of ints, None (fresh OS entropy) or a
    numpy.random.SeedSequence, spawned children included.
    """
    if not isinstance(seed, np.random.SeedSequence):
        if isinstance(seed, (np.random.Generator, np.random.BitGenerator)):
            raise TypeError(
                "seed must be an int, a sequence of ints, None or a "
                f"numpy.random.SeedSequence, not {type(seed).__name__}"
            )
        seed = np.random.SeedSequence(seed)
    return seed.generate_state(4, np.uint64)[None]


def block_steps(m: int) -> int:
    """Steps of draws to take at once for m streams: 2^13 uniforms, or one
    step if m is larger. The block size does not change the values. On a
    2-vCPU Xeon with numpy 2.4 a draw cost 14-19 ns in blocks of 2^13
    uniforms and 22-25 ns in blocks of 2^14."""
    return max(1, 2**13 // m)


def _mulhi(a, b):
    """High 64 bits of the 128-bit products of uint64 arrays a and b, from
    32-bit limbs; the broadcast-shaped terms are updated in place."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> 32
    hi = a1 * b1
    mid = a0 * b0
    mid >>= 32
    for cross in (a0 * b1, a1 * b0):
        hi += cross >> 32
        cross &= _M32
        mid += cross
    mid >>= 32
    hi += mid
    return hi


def _mul(ah, al, bh, bl):
    """a b mod 2^128."""
    return _mulhi(al, bl) + al * bh + ah * bl, al * bl


def _add(ah, al, bh, bl):
    """a + b mod 2^128."""
    lo = al + bl
    return ah + bh + (lo < al), lo


def _jump_table(n: int):
    """(A_hi, A_lo, G_hi, G_lo) for t = 1 .. n: t PCG64 steps take s to
    A_t s + G_t inc. Built by doubling: A_{T+t} = A_t A_T and
    G_{T+t} = A_t G_T + G_t."""
    ah, al, gh, gl = (np.array([w], dtype=np.uint64) for w in (*_MULT, 0, 1))
    while len(ah) < n:
        new_a = _mul(ah, al, ah[-1:], al[-1:])
        new_g = _add(*_mul(ah, al, gh[-1:], gl[-1:]), gh, gl)
        ah, al, gh, gl = (np.concatenate(p) for p in zip((ah, al, gh, gl), (*new_a, *new_g)))
    return ah[:n], al[:n], gh[:n], gl[:n]


class Streams:
    """The PCG64 streams of the rows of an (m, 4) array of seed words
    (trajectory_words, seed_words), stepped together."""

    def __init__(self, words: np.ndarray):
        words = np.asarray(words, dtype=np.uint64)
        # numpy's pcg64_set_seed: inc = 2 i + 1, then state = (inc + s) a + inc,
        # with s = (w0, w1) and i = (w2, w3) as (hi, lo).
        ih, il = words[:, 2], words[:, 3]
        self._inc = ((ih << 1) | (il >> 63), (il << 1) | 1)
        sh, sl = _add(*self._inc, words[:, 0], words[:, 1])
        self._state = _add(*_mul(sh, sl, *(np.uint64(w) for w in _MULT)), *self._inc)
        # (A_hi, A_lo, (G inc)_hi, (G inc)_lo) for t = 1 .. the largest block
        # drawn so far, rows t - 1: the same in every block.
        self._tables = None

    def random(self, out: np.ndarray) -> None:
        """Fill out, (n, m), with the next n uniforms in [0, 1) of every
        stream: out[t, c] is draw t of stream c, as Generator.random gives."""
        n = len(out)
        if self._tables is None or len(self._tables[0]) < n:
            ah, al, gh, gl = (x[:, None] for x in _jump_table(n))
            self._tables = (ah, al, *_mul(gh, gl, *self._inc))
        ah, al, gh, gl = (x[:n] for x in self._tables)
        # The states after t = 1 .. n steps: A_t s + G_t inc, as (hi, lo).
        sh, sl = self._state
        hi = _mulhi(al, sl)
        hi += al * sh
        hi += ah * sl
        hi += gh
        lo = al * sl
        lo += gl
        hi += lo < gl
        self._state = hi[-1].copy(), lo[-1].copy()
        # XSL-RR: (hi ^ lo) rotated right by the top six bits of the state.
        lo ^= hi
        hi >>= 58
        x = lo >> hi
        np.negative(hi, out=hi)
        hi &= 63
        lo <<= hi
        x |= lo
        x >>= 11
        np.multiply(x, 2.0**-53, out=out)
