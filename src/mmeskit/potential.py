"""Potential of multipartite entanglement: coupling machinery and evaluators.

Features:
- exact coupling coefficients: g_hat in two closed forms that agree
  exactly, the support-disjointness gated g, and the symmetrized
  four-index coupling Delta obtained by averaging over balanced
  bipartitions
- admissibility kernel q whose zero set is exactly the set of quadruples
  that contribute to the potential
- CouplingTable: precomputed nonzero (l, m, weight) triples with exact
  rational weights; tables over 500,000 entries are refused before they
  are built
- the potential pi_ME in three equivalent forms: the bipartition average
  of Gram-matrix purities (form 1, what every other evaluator uses), and
  the paper's XOR-coupled quadruple sum (form 2) and deficit form
  (form 4), kept as independent cross-checks; each gives
  `bipartite._xor_sums` only its term and weights the per-entry sums
- uniform-modulus and exact rational sign-vector evaluators on the same
  Gram core
- exact monomial counts in closed form

Weights are exact fractions; floats enter only at evaluation time.  All
floating sums are compensated with math.fsum over one numpy sum per
contribution, so the blocking does not change a bit of the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

import numpy as np

from .bitspace import MAX_QUBITS, _check_n, _check_split, _index, as_mask, binomial, multinomial, submasks
from .bipartite import _gram_sum_denominator, _grams, _kept_count, _sign_gram_sum, _sites, _xor_sums
from .states import PolarState, PureState, SignVector, assemble

__all__ = [
    "CouplingTable",
    "MonomialCounts",
    "g_hat",
    "g_hat_dual",
    "g",
    "coupling_delta",
    "admissible_q",
    "build_coupling_table",
    "coupling_row_sum",
    "pi_me_form1",
    "pi_me_form2",
    "pi_me_form4",
    "pi_me_uniform",
    "energy_uniform_exact",
    "avg_linear_entropy",
    "monomial_counts",
]


@lru_cache(maxsize=None)
def _g_hat_core(s: int, t: int, n: int, n_a: int) -> Fraction:
    num = binomial(n - s - t, n_a - s) + binomial(n - s - t, n_a - t)
    return Fraction(num, 2 * binomial(n, n_a))


def g_hat(s: int, t: int, n: int, n_a: int) -> Fraction:
    """Weight-pair coupling coefficient, averaged over size-n_a subsets.

    g_hat(s, t; n_a) = (1/2) C(n, n_a)^(-1) [C(n-s-t, n_a-s) +
    C(n-s-t, n_a-t)] with out-of-range binomials equal to zero.  Symmetric
    in (s, t); g_hat(0, 0) = 1.  The weights s, t are read by `_index`.
    """
    n, n_a = _check_split(n, n_a)
    return _g_hat_core(_index(s, "weight s"), _index(t, "weight t"), n, n_a)


def g_hat_dual(s: int, t: int, n: int, n_a: int) -> Fraction:
    """Same coefficient through the inverse-multinomial closed form.

    (1/2) (s! t! (n-s-t)! / n!) [C(n_a, s) C(n-n_a, t) +
    C(n_a, t) C(n-n_a, s)], zero when s + t > n.  Agrees with g_hat
    exactly; kept as an independent closed form.  Reads s, t as g_hat does.
    """
    n, n_a = _check_split(n, n_a)
    s, t = _index(s, "weight s"), _index(t, "weight t")
    if s + t > n:
        return Fraction(0)
    denom = multinomial(n, (s, t, n - s - t))
    num = binomial(n_a, s) * binomial(n - n_a, t) + binomial(n_a, t) * binomial(n - n_a, s)
    return Fraction(num, 2 * denom)


def g(a: int, b: int, n: int, n_a: int) -> Fraction:
    """Mask coupling g(a, b; n_a) of n-bit masks read by `as_mask(x, n)`.

    g(a, b; n_a) = g_hat(|a|, |b|; n_a) when a and b are disjoint, else 0.
    """
    n, n_a = _check_split(n, n_a)
    a, b = as_mask(a, n), as_mask(b, n)
    if a & b:
        return Fraction(0)
    return _g_hat_core(a.bit_count(), b.bit_count(), n, n_a)


def coupling_delta(k: int, k2: int, l: int, l2: int, n: int, n_a: int) -> Fraction:
    """Symmetrized four-index coupling of labels in [0, 2^n), read by `_index`.

    Delta(k, k'; l, l'; n_a) = g((k xor l) or (k' xor l'),
    (k xor l') or (k' xor l); n_a).  Symmetric under swapping k with k'
    and under exchanging the pair (k, k') with (l, l').
    """
    n, n_a = _check_split(n, n_a)
    k, k2, l, l2 = (_index(x, "basis label", n) for x in (k, k2, l, l2))
    return g((k ^ l) | (k2 ^ l2), (k ^ l2) | (k2 ^ l), n, n_a)


def admissible_q(k: int, k2: int, l: int, l2: int) -> int:
    """Admissibility kernel; the quadruple contributes iff this is zero.

    q = ((k xor l) or (k' xor l')) and ((k xor l') or (k' xor l)), on
    nonnegative labels read by `_index`.
    """
    k, k2, l, l2 = (_index(x, "basis label") for x in (k, k2, l, l2))
    return ((k ^ l) | (k2 ^ l2)) & ((k ^ l2) | (k2 ^ l))


@dataclass(eq=False, frozen=True)
class CouplingTable:
    """Nonzero balanced-average couplings (l, m, g(l, m; floor(n/2))).

    Entries have l != 0, m != 0, disjoint supports, and nonzero exact
    rational weight, in (l, m) lexicographic order.  `constant` is the
    uniform-state offset (N_A + N_Abar - 1)/N.
    """

    n: int
    n_a: int
    entries: tuple[tuple[int, int, Fraction], ...]
    constant: Fraction

    def validate(self) -> None:
        """Check disjoint supports and the exact row sums, each over the submasks of l."""
        for l, m, w in self.entries:
            if l == 0 or m == 0 or (l & m) or w == 0:
                raise ValueError(f"malformed table entry {(l, m, w)}")
        for l in range(1 << self.n):
            if coupling_row_sum(l, self.n, self.n_a) != 1:
                raise ValueError(f"row sum at l={l} is not 1")


# Entries are Python tuples with a Fraction weight, about 100 bytes each,
# built one by one: n <= 12 (455,796 entries) builds, n = 13 (1,472,198)
# is refused.
MAX_TABLE_ENTRIES = 500_000


@lru_cache(maxsize=None, typed=True)
def build_coupling_table(n: int) -> CouplingTable:
    """All nonzero couplings (l, m, g(l, m; floor(n/2))) with l, m != 0.

    Lexicographic entry order (l ascending, then m ascending).  Cached per
    n and its type, so 3.0 is refused rather than served 3's table; tables
    are immutable and shared.  Tables of more than
    MAX_TABLE_ENTRIES entries are refused before any entry is built.
    """
    n = _check_n(n, MAX_QUBITS, low=2)
    count = 8 * monomial_counts(n).N4 >> n
    if count > MAX_TABLE_ENTRIES:
        raise ValueError(
            f"the coupling table for n={n} would hold {count} entries, "
            f"over the limit of {MAX_TABLE_ENTRIES}"
        )
    n_a = n // 2
    full = (1 << n) - 1
    entries = []
    for l in range(1, 1 << n):
        s = l.bit_count()
        for m in sorted(submasks(full ^ l)):
            if m == 0:
                continue
            w = _g_hat_core(s, m.bit_count(), n, n_a)
            if w:
                entries.append((l, m, w))
    constant = Fraction((1 << n_a) + (1 << (n - n_a)) - 1, 1 << n)
    return CouplingTable(n, n_a, tuple(entries), constant)


def coupling_row_sum(l: int, n: int, n_a: int) -> Fraction:
    """Exact sum over m of g(l xor m, m; n_a); equals 1 for every l.

    Only the submasks m of l couple, each with g_hat(|l| - |m|, |m|); l is
    read by `as_mask(l, n)`.
    """
    n, n_a = _check_split(n, n_a)
    s = as_mask(l, n).bit_count()
    return sum(_g_hat_core(s - m.bit_count(), m.bit_count(), n, n_a) for m in submasks(l))


@lru_cache(maxsize=4)
def _entry_arrays(table: CouplingTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The table's l, m and weights as flat arrays, the weights as floats."""
    l, m, w = zip(*table.entries)
    return np.array(l), np.array(m), np.array([float(x) for x in w])


def pi_me_form1(state: PureState) -> float:
    """Potential as the mean purity over all balanced bipartitions.

    Each purity is the squared Frobenius norm of the bipartition's Gram
    matrix M_A M_A^H, counted once (the kept subsets of _sites(n)); at even
    n, the mean over all C(n, n/2) subsets can differ from it by up to 2 ulp.
    """
    grams = (G for stack in _grams(state.amplitudes, *_sites(state.n)) for G in stack)
    return math.fsum(float(np.vdot(G, G).real) for G in grams) / _kept_count(state.n)


def pi_me_form2(state: PureState) -> float:
    """Potential as the XOR-coupled quadruple sum.

    Evaluated in the three-group split: the sum of |z_k|^4, the pair group
    2 sum_{l != 0} g_hat(|l|, 0) sum_k |z_k|^2 |z_{k xor l}|^2, and the
    table-driven interference group sum g(l, m) Re(z_k z_{k xor l xor m}
    conj(z_{k xor l}) conj(z_{k xor m})).
    """
    table = build_coupling_table(state.n)
    n = state.n
    N = 1 << n
    z = state.amplitudes
    zc = z.conj()
    p = np.abs(z) ** 2
    ks = np.arange(N, dtype=np.intp)

    parts = [float(np.dot(p, p))]
    for l in range(1, N):
        w = _g_hat_core(l.bit_count(), 0, n, table.n_a)
        if w:
            parts.append(2.0 * float(w) * float(np.dot(p, p[ks ^ l])))

    l, m, w = _entry_arrays(table)
    parts.extend(w * _xor_sums(l, m, N, lambda klm, kl, km: z * z[klm] * zc[kl] * zc[km]))
    return math.fsum(parts)


def pi_me_form4(state: PureState) -> float:
    """Potential as one minus half the weighted cross-difference sum.

    pi_ME = 1 - (1/2) sum g(l, m) sum_k |z_k z_{k xor l xor m} -
    z_{k xor l} z_{k xor m}|^2.  Terms with l = 0 or m = 0 vanish
    identically, so only table entries contribute; the subtracted sum is
    nonnegative, making the distance from 1 explicit.
    """
    z = state.amplitudes
    l, m, w = _entry_arrays(build_coupling_table(state.n))

    def deficit(klm, kl, km):
        d = z * z[klm] - z[kl] * z[km]
        return d.real * d.real + d.imag * d.imag

    return 1.0 - 0.5 * math.fsum(w * _xor_sums(l, m, z.size, deficit))


def pi_me_uniform(phases: Union[PolarState, SignVector]) -> float:
    """Potential of a uniform-modulus state given by its phases.

    Equal to (N_A + N_Abar - 1)/N + (1/N^2) sum over table entries of
    g(l, m) sum_k Re(zeta_k zeta_{k xor l xor m} conj(zeta_{k xor l})
    conj(zeta_{k xor m})); evaluated as the form-1 bipartition average.
    Sign vectors are evaluated in exact integer arithmetic.
    """
    if isinstance(phases, SignVector):
        return float(energy_uniform_exact(phases))
    if not phases.is_uniform():
        raise ValueError("pi_me_uniform requires uniform moduli 1/sqrt(N)")
    return pi_me_form1(assemble(phases))


def energy_uniform_exact(sv: SignVector) -> Fraction:
    """Exact rational potential of the real uniform state with these signs.

    One integer Gram matrix per balanced bipartition of the +-1 vector: the
    potential is the sum of their squared entries over their count times N^2.
    """
    T = _sign_gram_sum(sv.signs, sv.n)
    return Fraction(int(T), _gram_sum_denominator(sv.n))


def avg_linear_entropy(state: PureState) -> float:
    """Average linear entropy N_A/(N_A - 1) (1 - pi_ME), N_A = 2^floor(n/2).

    0 for product states, 1 exactly when every balanced bipartition is
    maximally mixed.  pi_me_form1 refuses n < 2, as every reader of the
    balanced bipartitions does.
    """
    n_a_dim = 1 << (state.n // 2)
    pot = pi_me_form1(state)
    return (n_a_dim / (n_a_dim - 1)) * (1.0 - pot)


@dataclass(frozen=True)
class MonomialCounts:
    """Exact counts of distinct monomials in the potential.

    N1 counts |z_k|^4 terms, N2 the |z_k|^2 |z_h|^2 cross terms, N4 the
    genuine four-index interference terms.
    """

    N1: int
    N2: int
    N4: int


def monomial_counts(n: int) -> MonomialCounts:
    """Closed-form monomial counts of the potential for n qubits.

    N1 = 2^n; N2 = 2^(2n-2) - 2^(n-1) + (2^n/(3 + (-1)^n)) C(n, n/2);
    N4 = 2^(n-3) sum over 1 <= s, t <= ceil(n/2) of C(n, s) C(n-s, t).
    Eight times N4 equals 2^n times the coupling-table entry count.
    """
    n = _check_n(n, low=2)
    n1 = 1 << n
    half_binom = binomial(n, n // 2)
    n2 = (1 << (2 * n - 2)) - (1 << (n - 1)) + ((1 << n) // (3 + (-1) ** n)) * half_binom
    cap = (n + 1) // 2
    s_total = sum(
        binomial(n, s) * binomial(n - s, t)
        for s in range(1, cap + 1)
        for t in range(1, cap + 1)
    )
    n4, rem = divmod(s_total << n, 8)
    if rem:
        raise AssertionError("interference count is not divisible as expected")
    return MonomialCounts(n1, n2, n4)
