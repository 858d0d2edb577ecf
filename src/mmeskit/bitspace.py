"""Bit-level foundation for n-qubit basis indexing and exact combinatorics.

Features:
- basis labels k in X^n = {0,1}^n encoded as n-bit integers, with qubit i
  (1-based, i in {1..n}) occupying bit position n - i, so the binary string
  k_1 k_2 ... k_n reads literally as the numeral of the integer
- one reader (`_index`) of every integer index argument, with one refusal
- one reader (`as_mask`) of every subset argument, its optional n read as
  every qubit count is, and one check (`_proper`) of a bipartition side,
  with one refusal
- subsystem masks (QubitMask) with canonicalizing bipartition constructor
- enumeration of balanced bipartitions in deterministic ascending order
  (`bipartite`'s per-n site map lists its subsets in the same order)
- extraction / embedding of sub-indices between X^A and X^n, and one
  function (`_spell`) that spells every sub-index map in bulk: embed
  tables, the balanced site maps, M_A's basis and qubit relabelings
- exact binomial / multinomial coefficients with the zero-stipulation
  convention for out-of-range arguments

All values are plain Python integers (arbitrary precision); exact rational
weights built on top of them live in `fractions.Fraction`.  Floating point
enters only at the numerical evaluation boundary of the higher modules.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import combinations
from fractions import Fraction
from typing import Iterator, Sequence, Union

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "MAX_COUNT_QUBITS",
    "BasisIndex",
    "Rational",
    "QubitMask",
    "weight",
    "complement",
    "balanced_bipartitions",
    "extract",
    "embed",
    "embed_table",
    "submasks",
    "masks_of_weight",
    "binomial",
    "multinomial",
    "as_mask",
]

# State vectors are capped at 2^24 complex amplitudes; pure counting
# operations accept up to 64 qubits via big integers.
MAX_QUBITS = 24
MAX_COUNT_QUBITS = 64

# A site map, the annealer's Gram state, a reduced density matrix or a state
# document is refused above this size before it is allocated (_check_bytes).
MAX_TABLE_BYTES = 1 << 30

# An n-bit basis label; the qubit count n travels alongside (in a QubitMask,
# a state, or an explicit argument), not inside the integer.
BasisIndex = int

# Exact rational values: reduced Fractions, or plain ints where integral.
Rational = Union[int, Fraction]


def _check_n(n: int, limit: int = MAX_COUNT_QUBITS, low: int = 1) -> int:
    """A qubit count in [low, limit], as an int; bools and floats are refused."""
    n = _whole(n, "n")
    if not low <= n <= limit:
        raise ValueError(f"qubit count must be in [{low}, {limit}], got {n}")
    return n


def _check_balanced(n: int) -> int:
    """A qubit count with balanced bipartitions, n >= 2, as an int."""
    if _whole(n, "n") < 2:
        raise ValueError(f"balanced bipartitions require n >= 2, got {n}")
    return _check_n(n)


def _check_split(n: int, n_a: int) -> tuple[int, int]:
    """A split of n >= 2 qubits into n_a and n - n_a, both nonempty, as ints."""
    n, n_a = _check_n(n, low=2), _whole(n_a, "subset size")
    if not 1 <= n_a <= n - 1:
        raise ValueError(f"subset size must be in [1, {n - 1}], got {n_a}")
    return n, n_a


def _whole(value, field: str, floats: bool = False) -> int:
    """value as an int, or ValueError naming field: booleans are refused,
    and so are floats, unless `floats` admits the whole-numbered ones."""
    if not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            return int(value)
        if floats and isinstance(value, numbers.Real) and float(value).is_integer():
            return int(value)
    kind = "whole numbers" if floats else "an integer"
    raise ValueError(f"{field} must be {kind}, got {value!r}")


def _index(value, field: str, n: int | None = None, low: int = 0, high: int | None = None) -> int:
    """An integer index argument, read by `_whole`, in [low, high): high is
    2^n by default and absent without n.  The one refusal of a value out of
    range is "<field> <value> out of range[ for n=<n>]"."""
    value = _whole(value, field)
    if value < low or (value >= high if high is not None else n is not None and value >> n):
        raise ValueError(f"{field} {value} out of range" + ("" if n is None else f" for n={n}"))
    return value


def _seed(value) -> int:
    """A random seed, read by `_whole`, as a nonnegative int."""
    seed = _whole(value, "seed")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return seed


def _real(value, field: str) -> float:
    """value as a float, or ValueError naming field: booleans, strings and
    complex numbers are refused; NaN and infinities pass, for the caller."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{field} must be a real number, got {value!r}")


def _check_bytes(size: int, subject: str) -> None:
    """Refuse subject, before it is allocated, when it would take over MAX_TABLE_BYTES."""
    if size > MAX_TABLE_BYTES:
        raise ValueError(f"{subject} would take {size / 1e9:.1f} GB, over the {MAX_TABLE_BYTES >> 30} GiB limit")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def weight(k: BasisIndex) -> int:
    """Hamming weight |k| of the basis label k, read by `_index`."""
    return _index(k, "basis index").bit_count()


def complement(mask: int, n: int) -> int:
    """All-qubits mask with the bits of `mask` cleared."""
    n = _check_n(n)
    return ((1 << n) - 1) ^ as_mask(mask, n)


@dataclass(frozen=True)
class QubitMask:
    """Subset A of the qubit set S = {1..n}, stored as an n-bit mask.

    Qubit i corresponds to bit n - i, matching the BasisIndex convention,
    so extract/embed preserve the left-to-right order of the paper-style
    binary strings.
    """

    mask: int
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _check_n(self.n))
        object.__setattr__(self, "mask", _index(self.mask, "mask", self.n))

    @classmethod
    def from_qubits(cls, qubits: Sequence[int], n: int) -> "QubitMask":
        """Mask of the given 1-based qubit labels, each read by `_index` in [1, n]."""
        n = _check_n(n)
        mask = 0
        for label in qubits:
            i = _index(label, "qubit label", n, low=1, high=n + 1)
            bit = 1 << (n - i)
            if mask & bit:
                raise ValueError(f"duplicate qubit label {i}")
            mask |= bit
        return cls(mask, n)

    @classmethod
    def bipartition(cls, A: Union["QubitMask", int, Sequence[int]], n: int) -> "QubitMask":
        """Canonical bipartition mask: the smaller party of (A, complement).

        A mask, or the QubitMask of from_qubits, is checked by `_proper`
        as a nonempty proper subset; if it has more than n/2 qubits it is
        replaced by its complement, preserving the convention n_A <= n - n_A.
        """
        out = _proper(A if isinstance(A, (QubitMask, numbers.Number)) else cls.from_qubits(A, n), n)
        return out.complement() if out.size > out.n - out.size else out

    @property
    def size(self) -> int:
        """Number of qubits n_A in the subset."""
        return self.mask.bit_count()

    def qubits(self) -> tuple[int, ...]:
        """1-based qubit labels in ascending order."""
        return tuple(i for i in range(1, self.n + 1) if self.mask >> (self.n - i) & 1)

    def complement(self) -> "QubitMask":
        return QubitMask(complement(self.mask, self.n), self.n)

    def __repr__(self) -> str:
        return f"QubitMask(qubits={self.qubits()}, n={self.n})"


def as_mask(A: Union[QubitMask, int], n: int | None = None) -> int:
    """Normalize a QubitMask or raw integer mask to a validated integer:
    the one reader of every subset argument.

    A given n is read by `_check_n`, as every qubit count is, and a
    QubitMask must be for that n.  A raw mask is read by `_index`: in
    [0, 2^n), or nonnegative without n.
    """
    n = None if n is None else _check_n(n)
    if isinstance(A, QubitMask):
        if n is not None and A.n != n:
            raise ValueError(f"mask is for n={A.n}, expected n={n}")
        return A.mask
    return _index(A, "mask", n)


def _proper(A: Union[QubitMask, int], n: int) -> QubitMask:
    """A, read by `as_mask(A, n)`, as a nonempty proper subset of the n
    qubits: the one check of a bipartition side, with its one refusal."""
    out = QubitMask(as_mask(A, n), n)
    if out.size in (0, out.n):
        raise ValueError("bipartition requires a nonempty proper subset of the qubits")
    return out


def balanced_bipartitions(n: int) -> list[QubitMask]:
    """All subsets with floor(n/2) qubits, ascending by qubit-label tuple.

    The list has C(n, floor(n/2)) entries; for n=2 it is [{1}, {2}].
    Ascending label order ({1,2} before {1,3} before {2,3}) is the
    deterministic enumeration order used by every averaging loop.
    """
    n = _check_balanced(n)
    half = n // 2
    return [QubitMask.from_qubits(c, n) for c in combinations(range(1, n + 1), half)]


def extract(k: BasisIndex, A: Union[QubitMask, int], n: int | None = None) -> BasisIndex:
    """Sub-index k_A: the bits of k at the positions of A, order preserved.

    The lowest set bit of the mask maps to bit 0 of the result, so the
    qubit order of the binary string is preserved (qubit labels ascending
    left to right).  Inverse of `embed` on its image.  A and the optional
    n are read by `as_mask`; k is read by `_index`: nonnegative, and when
    n is given checked against the n-bit range.
    """
    mask = as_mask(A, n)
    k = _index(k, "basis index", n)
    out = 0
    out_bit = 0
    while mask:
        low = mask & -mask
        if k & low:
            out |= 1 << out_bit
        out_bit += 1
        mask &= mask - 1
    return out


def embed(l: BasisIndex, A: Union[QubitMask, int], n: int | None = None) -> BasisIndex:
    """Inject l in X^A into X^n: bits of l placed at the positions of A.

    Bit 0 of l lands on the lowest set bit of the mask; all other bits of
    the result are zero.  Satisfies extract(embed(l, A), A) == l.  A and
    the optional n are read by `as_mask`; l is read by `_index` in [0, 2^n_A).
    """
    mask = as_mask(A, n)
    l = _index(l, "sub-index", mask.bit_count())
    out = 0
    while l:
        low = mask & -mask
        if l & 1:
            out |= low
        l >>= 1
        mask &= mask - 1
    return out


def _spell(weights) -> np.ndarray:
    """The basis label each sub-index spells, for qubits of the given weights.

    weights[..., j] is the bit weight of the j-th qubit of a subset, labels
    ascending; entry i of the result sums the weights of the qubits whose
    bit is set in i, the first qubit most significant, so A's weights give
    embed(i, A).  Leading axes are kept.  Built by doubling, the entries
    for one more qubit spelled from those before, in O(2^m) memory.  A
    weight that does not fit an index array is a ValueError, raised before
    anything is allocated.
    """
    try:
        w = np.asarray(weights, dtype=np.intp)
    except OverflowError:
        raise ValueError(f"qubit weights must be below 2^{np.iinfo(np.intp).bits - 1}") from None
    out = np.zeros(w.shape[:-1] + (1 << w.shape[-1],), dtype=np.intp)
    for j in range(w.shape[-1]):
        np.add(out[..., : 1 << j], w[..., -1 - j, None], out=out[..., 1 << j : 2 << j])
    return out


def embed_table(A: Union[QubitMask, int]) -> np.ndarray:
    """Vector of embed(l, A) for all l in X^A, as an index array."""
    mask = as_mask(A)
    return _spell([1 << b for b in range(mask.bit_length() - 1, -1, -1) if mask >> b & 1])


def submasks(mask: int) -> Iterator[int]:
    """All submasks of `mask`, including 0 and `mask` itself, descending."""
    sub = mask = as_mask(mask)
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def masks_of_weight(w: int, n: int) -> Iterator[int]:
    """All n-bit masks of Hamming weight w, ascending as integers; none
    when w, read by `_whole`, is negative or over n."""
    n, w = _check_n(n), _whole(w, "weight w")
    if w < 0 or w > n:
        return
    if w == 0:
        yield 0
        return
    v = (1 << w) - 1
    limit = 1 << n
    while v < limit:
        yield v
        c = v & -v
        r = v + c
        v = r | (((v ^ r) >> 2) // c)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) with the zero-stipulation convention.

    Returns 0 whenever the arguments fall outside 0 <= k <= n (including
    negative n or k), instead of raising.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Multinomial coefficient n! / (p_1! ... p_r! (n - sum p)!).

    Returns 0 when any part is negative or the parts exceed n.
    """
    if n < 0:
        return 0
    rest = n
    out = 1
    for p in parts:
        if p < 0 or p > rest:
            return 0
        out *= math.comb(rest, p)
        rest -= p
    return out
