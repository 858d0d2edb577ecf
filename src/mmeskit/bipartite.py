"""Reduced density matrices, Schmidt spectra, and bipartite purity.

Features:
- one Gram path (`_grams`): the amplitudes gathered into N_A x N_Abar
  matrices M_A, through the cells each side's qubits spell
  (`bitspace._spell`), give rho_A = M_A M_A^H in stacks; the single
  evaluation core behind every reduced density matrix, potential,
  verdict, sweep and anneal (integer Grams for sign vectors, so those
  stay exact)
- one record per n of the balanced bipartitions (`_sites`): where one M_A
  of each reads the amplitudes; built once for each of the last few n and
  read by every Gram evaluation, the sweep and the annealer, so none
  transposes a subset or repeats bipartition bookkeeping; only the
  verdict also forms the even-n complements (`_balanced_grams`)
- one blocking rule (`_chunks`), applied inside the kernels: the Gram
  product (`_grams`) of the dense core and the sign sum, the XOR
  quadruple sums (`_xor_sums`) and the marginal gap size slices of about
  CHUNK_BYTES from their own arguments; no caller counts bytes
- the exact Gram sum of sign vectors, each balanced bipartition once, and
  its normaliser, their number times N^2: float32 Gram stacks, exact
  since |G| <= N_Abar, squared and summed in float64
- purity in two algebraically equivalent forms: Frobenius norm of the
  reduced density matrix (Form 1) and the XOR-indexed amplitude quadruple
  sum (Form 2, the paper's expansion, kept as an independent cross-check),
  its per-h sums from `_xor_sums`, which owns the index blocks
- Schmidt spectrum with explicit bookkeeping of numerical zeros, from the
  one eigensolve and its one check (`DensityMatrix.validate`)
- normalized entanglement measures: spectral E_A and linear entropy L_A
- exact counts of the three purity monomial classes
- purity of uniform-modulus states from the phase vector, through Form 1

All purity paths agree within 1e-12 on normalized states; the quadruple
sums are compensated with math.fsum over one numpy sum per term, so
results do not depend on how the terms are blocked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from typing import Iterator, NamedTuple, Union

import numpy as np

from .bitspace import QubitMask, _check_balanced, _check_bytes, _check_split, _frozen, _proper, _spell
from .bitspace import binomial, embed_table
from .states import NORM_TOL, PolarState, PureState, assemble

__all__ = [
    "SCHMIDT_CUTOFF",
    "DensityMatrix",
    "SchmidtSpectrum",
    "reduced_density_matrix",
    "purity_form1",
    "purity_form2",
    "schmidt_spectrum",
    "entanglement_E",
    "linear_entropy_L",
    "bipartite_term_counts",
    "purity_uniform",
]

# Eigenvalues at or below this are reported as numerical zeros.
SCHMIDT_CUTOFF = 1e-12

HERMITICITY_TOL = 1e-12
# the trace of a reduced matrix is the squared norm of its state
TRACE_TOL = 3 * NORM_TOL
EIGEN_TOL = 1e-10

# Every blocked loop takes its items in chunks of about this many bytes of
# working arrays, gather index included (see _chunks).
CHUNK_BYTES = 1 << 18

# purity_form2 sums 4^n terms: 0.15 s at n = 12 and about 7x more per qubit
# (1.0 s at n = 13) on one core of a 2-vCPU Xeon; past this it is refused,
# as pi_me_form2 and pi_me_form4 are past n = 12 at the coupling table.
MAX_XOR_QUBITS = 12


@dataclass(eq=False, frozen=True)
class DensityMatrix:
    """Hermitian, trace-1, positive semidefinite matrix of a reduced state.

    Hermiticity and unit trace, within the 3 NORM_TOL that PureState
    admits for its squared norm, are checked at construction.  Positive
    semidefiniteness (no eigenvalue below -1e-10) costs a full eigensolve,
    so validate(), whose spectrum schmidt_spectrum reads, checks it instead.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.entries, dtype=np.complex128, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if not float(np.max(np.abs(m - m.conj().T))) <= HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"density matrix trace is {tr!r}, expected 1")
        object.__setattr__(self, "entries", _frozen(m))

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    def purity(self) -> float:
        """tr(rho^2), equal to the squared Frobenius norm for Hermitian rho."""
        return float(np.vdot(self.entries, self.entries).real)

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues in non-increasing order."""
        return np.linalg.eigvalsh(self.entries)[::-1]

    def validate(self) -> np.ndarray:
        """The eigenvalues, non-increasing; raise if any is below -1e-10."""
        w = self.eigenvalues()
        if not w[-1] >= -EIGEN_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {w[-1]:.3e}")
        return w


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Eigenvalues of a reduced density matrix, split at the zero cutoff.

    `values` holds the nonzero part, non-increasing, each in (0, 1];
    `zeros` retains the entries at or below SCHMIDT_CUTOFF (possibly tiny
    negatives within EIGEN_TOL).  All entries together sum to 1.
    """

    values: tuple[float, ...]
    zeros: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        combined = self.values + self.zeros
        if not self.values:
            raise ValueError("Schmidt spectrum must contain a nonzero part")
        if any(b > a for a, b in zip(combined, combined[1:])):
            raise ValueError("Schmidt values must be non-increasing")
        if self.values[-1] <= SCHMIDT_CUTOFF or self.values[0] > 1.0 + EIGEN_TOL:
            raise ValueError("nonzero Schmidt values must lie in (cutoff, 1]")
        if self.zeros and self.zeros[0] > SCHMIDT_CUTOFF:
            raise ValueError("zero-part entries must not exceed the cutoff")
        if not abs(math.fsum(combined) - 1.0) <= EIGEN_TOL:
            raise ValueError("Schmidt values must sum to 1")

    @property
    def all_values(self) -> tuple[float, ...]:
        return self.values + self.zeros

    def purity(self) -> float:
        return math.fsum(v * v for v in self.values)


def _chunks(count: int, item_bytes: int) -> Iterator[slice]:
    """Slices of `count` items of item_bytes each, about CHUNK_BYTES per slice."""
    step = max(1, CHUNK_BYTES // item_bytes)
    return (slice(lo, lo + step) for lo in range(0, count, step))


def _kept_count(n: int) -> int:
    """Number of balanced bipartitions, one kept subset each in _sites(n)."""
    return binomial(n, n // 2) // (2 - n % 2)


class _Sites(NamedTuple):
    """Where the M_A of the balanced subsets of n qubits read the amplitudes.

    Entry (i, j) of the a-th kept M_A is amplitude rows[a, i] + cols[a, j]:
    rows[a, i] is the basis index whose A-bits spell i and whose Abar-bits
    are 0, so rows[a, -1] is A's mask, and cols[a, j] the one whose
    Abar-bits spell j: each is bitspace._spell of that side's qubit
    weights, so their sums are M_A's basis, the embed tables of A and Abar.
    """

    rows: np.ndarray  # (kept, N_A)
    cols: np.ndarray  # (kept, N_Abar)


@lru_cache(maxsize=8)
def _sites(n: int) -> _Sites:
    """The site map of n qubits, built once for each of the last few n.

    The subsets come in balanced_bipartitions order.  At even n, A and its
    complement are one bipartition, and their Gram matrices M M^H and M^H M
    have the same Frobenius norm, so only the subsets holding qubit 1 are
    kept, one per bipartition.  A map over MAX_TABLE_BYTES is refused
    before it is built: n <= 18 builds, n = 19 is refused.
    """
    n = _check_balanced(n)
    kept = _kept_count(n)
    size = kept * ((1 << n // 2) + (1 << n - n // 2)) * 8
    _check_bytes(size, f"the balanced site map for n={n}")
    inside = np.zeros((kept, n), dtype=bool)
    qubits = np.array(list(islice(combinations(range(n), n // 2), kept)))  # A's, from 0
    np.put_along_axis(inside, qubits, True, axis=1)
    weights = np.broadcast_to(1 << np.arange(n - 1, -1, -1), inside.shape)
    rows, cols = (_frozen(_spell(weights[side].reshape(kept, -1))) for side in (inside, ~inside))
    return _Sites(rows, cols)


def _grams(values: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> Iterator[np.ndarray]:
    """Gram stacks M_A M_A^H of the M_A that rows and cols spell from the
    last axis of values, as _sites(n) does (swapped for the complements),
    leading axes kept, in chunks of about CHUNK_BYTES of index, M_A and G_A:
    one take, then one stacked product.  Entry (l, l') of G_A is sum_m
    M[l, m] conj(M[l', m]) in the input dtype, so sign vectors give exact
    integer Grams.  Each M_A is freed before its stack is yielded: held into
    the next chunk, a large one cost fresh pages every chunk (365 page
    faults per matrix at n = 16)."""
    size = values.itemsize * (values.size // values.shape[-1])  # one entry over all batch axes
    n_a, n_b = rows.shape[1], cols.shape[1]
    for chunk in _chunks(len(rows), n_a * (n_b * (8 + size) + n_a * size)):
        M = np.take(values, rows[chunk, :, None] + cols[chunk, None, :], axis=-1)
        G = M @ M.conj().swapaxes(-1, -2)
        del M
        yield G


def _xor_sums(l: np.ndarray, m: np.ndarray, N: int, term) -> np.ndarray:
    """One real sum per pair (l, m): the sum over k < N of term(k xor l xor
    m, k xor l, k xor m), each index block one row per pair, in chunks of
    about CHUNK_BYTES, 64 N bytes a pair for four complex gathers."""
    ks, sums = np.arange(N, dtype=np.intp), np.empty(len(l))
    for b in _chunks(len(l), 64 * N):
        kl, km = ks ^ l[b, None], ks ^ m[b, None]
        sums[b] = term(kl ^ m[b, None], kl, km).sum(axis=1).real
    return sums


def _balanced_grams(amplitudes: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """Gram matrices M_A M_A^H of every balanced A, in (count, N_A, N_A) stacks.

    The stacks are _grams of _sites(n); at even n the complements follow,
    from the same map with rows and columns swapped (M_Abar = M_A^T).  Each
    of the C(n, n/2) matrices comes once, in no promised order, as the BLAS
    product a lone M_A gives, so order-free reductions (fsum, max) keep
    their bits.  Its only reader is the verdict (mmes._balanced_gaps),
    whose phase residual needs the off-diagonals of both sides.
    """
    sites = _sites(n)
    for r, c in ((sites.rows, sites.cols), (sites.cols, sites.rows))[: 2 - n % 2]:
        yield from _grams(amplitudes, r, c)


def _gram_sum_denominator(n: int) -> int:
    """kept N^2, kept = _kept_count(n): the potential of a unimodular vector
    z (every |z_k| = 1) is its Gram sum T over the kept subsets over this."""
    return _kept_count(n) << 2 * n


def _sign_gram_sum(signs: np.ndarray, n: int):
    """Exact T = sum over the kept A of ||M_A M_A^T||_F^2 for +-1 signs.

    Leading batch axes are kept, and each balanced bipartition is summed
    once (see _sites).  The float32 stacks of _grams and their squares are
    exact, since |G| <= N_Abar <= 2^9; the squares are summed in float64,
    exact since T <= kept N^2 <= C(18, 9) 4^18 < 2^52 for every admitted n,
    and T goes to int64 once.  The sweep has its own kernel (search._block_scorer).
    """
    sites = _sites(n)
    data = signs.reshape(-1, 1 << n).astype(np.float32)
    stacks = _grams(data, sites.rows, sites.cols)
    total = sum(np.square(G, out=G).sum(axis=(1, 2, 3), dtype=np.float64) for G in stacks)
    return total.astype(np.int64).reshape(signs.shape[:-1])[()]


def reduced_density_matrix(state: PureState, A: Union[QubitMask, int]) -> DensityMatrix:
    """Partial trace over the complement of A: the Gram matrix of M_A, from
    _grams, with M_A's rows and columns the embed tables of A and Abar.

    The call holds four N_A x N_A complex matrices at its peak (the product,
    the checked copy, its conjugate and their difference), 2^(2|A| + 6)
    bytes; over MAX_TABLE_BYTES (|A| > 12) it is refused before any work.
    """
    m = _proper(A, state.n)
    _check_bytes(64 << 2 * m.size, f"the reduced density matrix of {m.size} qubits")
    rows, cols = (embed_table(side)[None] for side in (m.mask, m.mask ^ (1 << state.n) - 1))
    (G,) = _grams(state.amplitudes, rows, cols)
    return DensityMatrix(G[0])


def purity_form1(state: PureState, A: Union[QubitMask, int]) -> float:
    """tr(rho_A^2) through the explicit reduced density matrix."""
    return reduced_density_matrix(state, A).purity()


def purity_form2(state: PureState, A: Union[QubitMask, int]) -> float:
    """tr(rho_A^2) as the XOR-indexed quadruple sum over amplitudes.

    pi_A = sum over k, h of z_k z_{k xor h} conj(z_{k xor h_A})
    conj(z_{k xor h_Abar}), with h_A the A-part of h.  Never builds the
    reduced matrix; one numpy sum per h, the 2^n of them compensated.
    Past MAX_XOR_QUBITS it is refused before any sum.
    """
    mask = _proper(A, state.n).mask
    if state.n > MAX_XOR_QUBITS:
        raise ValueError(
            f"the XOR quadruple sum over 4^{state.n} terms is out of reach; n <= {MAX_XOR_QUBITS}"
        )
    h = np.arange(1 << state.n, dtype=np.intp)
    h_a = h & mask
    z = state.amplitudes
    zc = z.conj()
    sums = _xor_sums(h_a, h ^ h_a, h.size, lambda klm, kl, km: z * z[klm] * zc[kl] * zc[km])
    return math.fsum(sums)


def schmidt_spectrum(state: PureState, A: Union[QubitMask, int]) -> SchmidtSpectrum:
    """Non-increasing eigenvalues of rho_A, split at the zero cutoff.

    The nonzero part coincides with the nonzero part of the complement's
    spectrum.  They are read from validate(), which refuses one below -1e-10.
    """
    w = reduced_density_matrix(state, A).validate()
    values = tuple(float(x) for x in w if x > SCHMIDT_CUTOFF)
    zeros = tuple(float(x) for x in w if x <= SCHMIDT_CUTOFF)
    return SchmidtSpectrum(values, zeros)


def entanglement_E(state: PureState, A: Union[QubitMask, int]) -> float:
    """Spectral entanglement measure N_A/(N_A-1) * (1 - max eigenvalue).

    0 exactly for separable bipartitions, 1 for maximally entangled ones
    (when A is not larger than its complement); always in [0, 1].
    """
    spectrum = schmidt_spectrum(state, A)
    n_a_dim = len(spectrum.all_values)
    return (n_a_dim / (n_a_dim - 1)) * (1.0 - spectrum.values[0])


def linear_entropy_L(state: PureState, A: Union[QubitMask, int]) -> float:
    """Normalized linear entropy N_A/(N_A-1) * (1 - pi_A), in [0, 1]."""
    rho = reduced_density_matrix(state, A)
    n_a_dim = rho.dimension
    return (n_a_dim / (n_a_dim - 1)) * (1.0 - rho.purity())


def bipartite_term_counts(n: int, n_a: int) -> tuple[int, int, int]:
    """Exact sizes of the three monomial classes in the purity sum.

    Returns (count of |z_k|^4 terms, count of |z_k|^2 |z_h|^2 cross terms,
    count of genuine quadruples); the three add up to 2^(2n).
    """
    n, n_a = _check_split(n, n_a)
    n_b = n - n_a
    c1 = 1 << n
    c2 = (1 << n) * ((1 << n_a) + (1 << n_b) - 2)
    c4 = (1 << n) * ((1 << n_a) - 1) * ((1 << n_b) - 1)
    return c1, c2, c4


def purity_uniform(p: PolarState, A: Union[QubitMask, int]) -> float:
    """Purity of a uniform-modulus state given by its phases.

    pi_A = (N_A + N_Abar - 1)/N + (1/N^2) * sum over k, nonzero l in the
    A-part, nonzero m in the complement part, of Re(zeta_k
    conj(zeta_{k xor l}) zeta_{k xor l xor m} conj(zeta_{k xor m}));
    evaluated as the form-1 purity of the assembled state.
    Requires all moduli equal to 1/sqrt(N) within 1e-12.
    """
    _proper(A, p.n)
    if not p.is_uniform():
        raise ValueError("purity_uniform requires uniform moduli 1/sqrt(N)")
    return purity_form1(assemble(p), A)
