"""Model construction: banded spin environments, Hamiltonians, degeneracy utilities.

The environment is the structure of the bath alone: the bands k = 0..n of n
spins, with degeneracies N_k = C(n, k), band k at position k of every per-band
array. Adjacent bands are coupled either by seeded random Gaussian blocks
normalized to mean |C_{k+1,k}|^2 = (N_{k+1} N_k)^{-1/2}, or by a physical
sigma_x-type spin coupling with random per-spin weights. The band energies
E_k = k*delta_b belong to the simulated protocol, ModelParams, so one
environment serves every detuning.
"""
from __future__ import annotations

import functools
import math
import numbers
import operator
import os
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ModelParams",
    "QubitState",
    "BandedEnvironment",
    "binomial_degeneracy",
    "build_band_environment",
    "build_spin_environment",
    "build_total_hamiltonian",
    "beta_working_point",
    "effective_beta",
]

# Slack of QubitState.validate on rho00 in [0, 1] and |rho10|^2 <= rho00 rho11.
STATE_TOL = 1e-9


def _check_real(name: str, value) -> None:
    """Reject a value that is not a finite real number (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _check_positive(name: str, value) -> None:
    """Reject a value that is not a finite real number (_check_real) or is
    not > 0."""
    _check_real(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")


def _check_count(name: str, value, minimum: int | None = 1) -> None:
    """Reject a value that is not an integer (a bool is not one) or, unless
    minimum is None, one below minimum."""
    try:
        if isinstance(value, bool):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _check_band(name: str, k, n: int) -> None:
    """Reject a band k that is not an integer (a bool is not one) or that lies
    outside [0, n]."""
    _check_count(name, k, None)
    if not 0 <= k <= n:
        raise ValueError(f"band {name} = {k} outside [0, {n}]")


def _check_spins(n) -> None:
    """Reject a spin count n that is not an integer (a bool is not one) or is
    below one."""
    _check_count("n", n, None)
    if n < 1:
        raise ValueError(f"need at least one spin, got n = {n}")


def _physical_memory() -> int:
    """Bytes of physical memory of the machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_fits(what: str, nbytes: int) -> None:
    """Refuse a size whose estimated nbytes exceed the physical memory, before
    anything of that size is allocated or looped over."""
    total = _physical_memory()
    if nbytes > total:
        raise ValueError(
            f"{what} would take about {nbytes / 2**30:.3g} GiB, more than the "
            f"{total / 2**30:.3g} GiB of physical memory"
        )


def _check_blocks_fit(n: int) -> None:
    """The coupling blocks of an environment: N_{k+1} x N_k complex entries
    between every pair of adjacent bands, summed as the N_k are formed. A sum
    past 2^128 B, which no machine holds and no n <= 63 reaches, is refused
    there, so that a large n is refused after a few small binomials."""
    what = f"the coupling blocks of n = {n} spins"
    nbytes, lo = 0, 1
    for k in range(n):
        hi = lo * (n - k) // (k + 1)  # N_{k+1} from N_k, exactly
        nbytes += 16 * lo * hi
        if nbytes > 2**128:
            raise ValueError(f"{what} would take more than 2^128 B, more than any memory")
        lo = hi
    _check_fits(what, nbytes)


def _environment_rng(n, seed) -> np.random.Generator:
    """What an environment builder checks before its O(4^n) work, n and then
    the memory of its coupling blocks, and the generator of seed, which
    refuses a seed numpy cannot take."""
    _check_spins(n)
    _check_blocks_fit(n)
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class ModelParams:
    """The simulated protocol: physical scalars shared by the engines and the
    analytic maps (hbar = 1, energies in units u). The environment's inverse
    temperature is not one of them: it follows from the band degeneracies, and
    the analytic maps take it as an argument.

    delta_s:  TLS energy splitting, > 0.
    detuning: environment-spin splitting minus delta_s; delta_b = delta_s + detuning > 0.
    coupling: interaction strength lambda, >= 0 (dimensionless, weak-coupling regime << 1).
    dt:       time between consecutive band measurements, >= 0.
    """

    delta_s: float
    detuning: float = 0.0
    coupling: float = 0.05
    dt: float = math.pi

    def __post_init__(self) -> None:
        for name in ("delta_s", "detuning", "coupling", "dt"):
            _check_real(name, getattr(self, name))
        if self.delta_s <= 0:
            raise ValueError(f"delta_s must be > 0, got {self.delta_s}")
        if self.delta_b <= 0:
            raise ValueError(
                f"delta_b = delta_s + detuning must be > 0, got {self.delta_b}"
            )
        if self.coupling < 0:
            raise ValueError(f"coupling must be >= 0, got {self.coupling}")
        if self.dt < 0:
            raise ValueError(f"dt must be >= 0, got {self.dt}")

    @property
    def delta_b(self) -> float:
        """Environment-spin splitting delta_s + detuning."""
        return self.delta_s + self.detuning


@dataclass
class QubitState:
    """2x2 density matrix of the TLS; index 0 is the ground state."""

    rho00: float
    rho10: complex = 0.0 + 0.0j

    @property
    def rho11(self) -> float:
        return 1.0 - self.rho00

    @property
    def rho01(self) -> complex:
        return np.conjugate(self.rho10)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "QubitState":
        m = np.asarray(m)
        tr = m[0, 0].real + m[1, 1].real
        return cls(rho00=m[0, 0].real / tr, rho10=complex(m[1, 0]) / tr)

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.rho00, np.conjugate(self.rho10)], [self.rho10, self.rho11]],
            dtype=complex,
        )

    def validate(self) -> None:
        """Check trace, hermiticity and positivity within STATE_TOL."""
        if not (-STATE_TOL <= self.rho00 <= 1.0 + STATE_TOL):
            raise ValueError(f"rho00 = {self.rho00} outside [0, 1]")
        if not abs(self.rho10) ** 2 <= self.rho00 * self.rho11 + STATE_TOL:
            raise ValueError(
                f"coherence too large: |rho10|^2 = {abs(self.rho10)**2:.3e} > "
                f"rho00*rho11 = {self.rho00 * self.rho11:.3e}"
            )


def binomial_degeneracy(n: int, k: int) -> int:
    """Exact degeneracy N_k = C(n, k) of the band with k spins up."""
    _check_band("k", k, n)
    return math.comb(n, k)


def _digamma(x: float) -> float:
    """Digamma psi(x) for x > 0 by recurrence plus asymptotic series."""
    if x <= 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    # Bernoulli-number tail sum(B_2j / (2j x^2j)); truncation error < 1e-13 for x >= 10.
    tail = inv2 * (
        1.0 / 12.0
        - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0)))
    )
    return acc + math.log(x) - 0.5 / x - tail


def beta_working_point(n: int, k0: int, delta_b: float, method: str = "digamma") -> float:
    """Local inverse temperature of the degeneracy profile at working point k0.

    method "log-approx": ln(n/k0 - 1)/delta_b; "digamma": exact slope of
    ln Gamma-interpolated binomials, (psi(n-k0+1) - psi(k0+1))/delta_b.
    """
    if not 0 < k0 < n:
        raise ValueError(f"working point k0 = {k0} must satisfy 0 < k0 < n = {n}")
    _check_positive("delta_b", delta_b)
    if method == "log-approx":
        return math.log(n / k0 - 1.0) / delta_b
    if method == "digamma":
        return (_digamma(n - k0 + 1.0) - _digamma(k0 + 1.0)) / delta_b
    raise ValueError(f"unknown method {method!r}")


def effective_beta(n: int, k_low: int, k_high: int, delta_b: float) -> float:
    """Inverse temperature from the degeneracy ratio of two bands.

    ln(N_high/N_low) / ((k_high - k_low) * delta_b); valid for any n via log-gamma.
    """
    if not 0 <= k_low < k_high <= n:
        raise ValueError(f"need 0 <= k_low < k_high <= n, got ({k_low}, {k_high}, {n})")
    _check_positive("delta_b", delta_b)

    def log_binom(k: int) -> float:
        return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)

    return (log_binom(k_high) - log_binom(k_low)) / ((k_high - k_low) * delta_b)


@dataclass(frozen=True)
class BandedEnvironment:
    """Immutable environment of bands k = 0..n: degeneracies and
    adjacent-band couplings, built by the model's builder from (n, seed).

    up_blocks[k] couples band k -> k+1 and has shape (N_{k+1}, N_k); the
    down block is its conjugate transpose by construction (hermiticity of V).
    """

    n: int
    model: str
    degeneracies: tuple[int, ...]
    up_blocks: tuple[np.ndarray, ...]

    @property
    def n_bands(self) -> int:
        return len(self.degeneracies)

    @property
    def dim(self) -> int:
        return int(sum(self.degeneracies))

    @functools.cached_property
    def band_starts(self) -> np.ndarray:
        """First level index of every band; computed once, read-only."""
        starts = np.concatenate(([0], np.cumsum(self.degeneracies)))[:-1].astype(int)
        starts.setflags(write=False)
        return starts

    def band_slice(self, k: int) -> slice:
        """Index slice of the levels of band k, refused outside [0, n]."""
        _check_band("k", k, self.n)
        start = int(self.band_starts[k])
        return slice(start, start + self.degeneracies[k])

    def band_of_level(self) -> np.ndarray:
        """Band k of every environment level index."""
        return np.repeat(np.arange(self.n_bands), self.degeneracies)

    def coupling_matrix(self) -> np.ndarray:
        """Hermitian environment coupling operator B with adjacent-band blocks only."""
        b = np.zeros((self.dim, self.dim), dtype=complex)
        for k, block in enumerate(self.up_blocks):
            rows = self.band_slice(k + 1)
            cols = self.band_slice(k)
            b[rows, cols] = block
            b[cols, rows] = block.conj().T
        return b

    def sign_gauged(self) -> tuple[BandedEnvironment, np.ndarray]:
        """The same environment in the sign gauge of its coupling, and the
        levels that lead back to it: B = D B' D, D = -1 on those levels and
        1 elsewhere.

        Up block k is negated where its first nonzero real or imaginary part
        is negative, so a band's levels are flipped when an odd number of
        the blocks below it is. B and -B have the same gauged blocks, bit for
        bit: negation flips every sign, that of a zero too.
        """
        negated = []
        for block in self.up_blocks:
            parts = np.ravel(block).view(float)
            nonzero = parts[parts != 0]
            negated.append(bool(nonzero.size) and nonzero[0] < 0)
        blocks = tuple(-b if neg else b for neg, b in zip(negated, self.up_blocks))
        flipped = np.cumsum([0, *negated]) % 2 == 1
        return replace(self, up_blocks=blocks), np.repeat(flipped, self.degeneracies)


def build_band_environment(n: int, seed: int) -> BandedEnvironment:
    """Random-band environment with seeded complex Gaussian coupling blocks.

    Entries of C_{k+1,k} have i.i.d. real/imaginary parts of variance
    (N_{k+1} N_k)^{-1/2} / 2 so that E|C|^2 = (N_{k+1} N_k)^{-1/2}.
    """
    rng = _environment_rng(n, seed)
    degs = tuple(binomial_degeneracy(n, k) for k in range(n + 1))
    blocks = []
    for k in range(n):
        n_hi, n_lo = degs[k + 1], degs[k]
        scale = math.sqrt((n_hi * n_lo) ** -0.5 / 2.0)
        blocks.append(
            scale
            * (
                rng.standard_normal((n_hi, n_lo))
                + 1j * rng.standard_normal((n_hi, n_lo))
            )
        )
    return BandedEnvironment(
        n=n,
        model="random-band",
        degeneracies=degs,
        up_blocks=tuple(blocks),
    )


def build_spin_environment(n: int, seed: int) -> BandedEnvironment:
    """Physical n-spin environment coupled through sigma_x on every spin.

    The environment part of the interaction is sum_i g_i sigma_x^(i) with i.i.d.
    standard-normal weights g_i, rescaled globally so that the total mean-square
    matrix element between adjacent bands matches the random-band convention.
    Single spin flips connect bands k and k+1 only.
    """
    g = _environment_rng(n, seed).standard_normal(n)

    degs = tuple(binomial_degeneracy(n, k) for k in range(n + 1))
    # Basis configs per band (bitmask, ascending); position in list = level index.
    configs = [[] for _ in range(n + 1)]
    for c in range(1 << n):
        configs[bin(c).count("1")].append(c)
    pos = [{c: i for i, c in enumerate(band)} for band in configs]

    blocks = []
    for k in range(n):
        block = np.zeros((degs[k + 1], degs[k]), dtype=complex)
        for col, c in enumerate(configs[k]):
            for i in range(n):
                bit = 1 << i
                if not c & bit:
                    block[pos[k + 1][c | bit], col] = g[i]
        blocks.append(block)

    # Global rescale: total sum |C|^2 over all blocks matches the band-model
    # expectation sum_k sqrt(N_{k+1} N_k).
    total = sum(float(np.sum(np.abs(b) ** 2)) for b in blocks)
    target = sum(math.sqrt(degs[k + 1] * degs[k]) for k in range(n))
    scale = math.sqrt(target / total)
    blocks = tuple(scale * b for b in blocks)

    return BandedEnvironment(
        n=n,
        model="sigma-x",
        degeneracies=degs,
        up_blocks=blocks,
    )


def _tls_level(sector, band):
    """TLS level (sector - band) mod 2 of a band in a parity sector, elementwise."""
    return (sector - band) % 2


def build_total_hamiltonian(
    params: ModelParams, env: BandedEnvironment, parity: int
) -> np.ndarray:
    """Block of the joint Hamiltonian on TLS x environment on one parity sector.

    H = delta_s/2 sigma_z x 1 + 1 x H_B + coupling * (sigma^+ x B + sigma^- x B^+)
    conserves p = (TLS level + band k) mod 2. Sector p (0 or 1) holds every
    environment level, in the environment's order, with the levels of band k
    at TLS level s = (p - k) mod 2 (_tls_level). B only links adjacent bands,
    whose TLS levels differ within a sector, so H's block on sector p is
    h_p = coupling * B + diag(k delta_b + (s - 1/2) delta_s), with delta_b
    that of params.
    """
    if parity not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {parity!r}")
    # Scaled in place: a second dim x dim temporary would raise the peak.
    b = env.coupling_matrix()
    b *= params.coupling
    bands = env.band_of_level()
    level = _tls_level(parity, bands)
    np.fill_diagonal(b, bands * params.delta_b + (level - 0.5) * params.delta_s)
    return b
