"""Pure-state representation and constructors for n-qubit systems.

Features:
- PureState: normalized complex amplitude vector z over the computational
  basis, with the qubit-1-major bit convention of `bitspace`
- PolarState: modulus/phase split z_k = r_k * zeta_k, with the convention
  zeta_k = 1 wherever r_k = 0
- SignVector: +-1 phase patterns for real uniform states, with string I/O,
  checked one at a time or as the rows of one block
- constructors: raw amplitudes, sign vectors, fully factorized products,
  maximally entangled bipartite states, GHZ, Haar-sphere samples, and
  uniform-modulus random phases
- qubit relabeling and single-qubit unitaries
- JSON state format used by the command line front end

States are immutable after construction (amplitude arrays are read-only)
and safe to share between callers.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from typing import Sequence, Union

import numpy as np

from .bitspace import (
    MAX_QUBITS, QubitMask, _check_bytes, _check_n, _frozen, _index, _real, _seed, _spell, _whole, as_mask, embed_table
)

__all__ = [
    "NORM_TOL",
    "NormalizationWarning",
    "PureState",
    "PolarState",
    "SignVector",
    "from_amplitudes",
    "uniform_from_signs",
    "fully_factorized",
    "max_entangled_state",
    "ghz",
    "random_state",
    "random_phases",
    "polar",
    "assemble",
    "permute_qubits",
    "apply_single_qubit_unitary",
    "state_to_json",
    "state_from_json",
]

# Invariant tolerance on | ||z||^2 - 1 | for constructed states.
NORM_TOL = 1e-12

# File input norm bands: deviations of ||z|| from 1 up to NORM_TOL pass
# silently, up to RENORM_TOL are renormalized with a warning, larger ones
# are rejected.
RENORM_TOL = 1e-6

UNITARY_TOL = 1e-10


class NormalizationWarning(UserWarning):
    """Emitted when file input is renormalized within the warn band."""


@dataclass(eq=False, frozen=True)
class PureState:
    """Normalized pure state of n qubits in the computational basis.

    amplitudes[k] is the Fourier coefficient z_k of basis label k; the sum
    of |z_k|^2 is 1 within NORM_TOL.  `scale` records the multiplicative
    factor applied to the raw input during normalization (1.0 when the
    input was already normalized).
    """

    n: int
    amplitudes: np.ndarray
    scale: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _check_n(self.n, MAX_QUBITS))
        amp = np.array(self.amplitudes, dtype=np.complex128, order="C")
        if amp.shape != (1 << self.n,):
            raise ValueError(
                f"amplitude vector must have length {1 << self.n} for n={self.n}, got {amp.shape}"
            )
        norm_sq = float(np.vdot(amp, amp).real)
        if not abs(norm_sq - 1.0) <= 3 * NORM_TOL:
            raise ValueError(f"state is not normalized: sum |z_k|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", _frozen(amp))

    @property
    def dim(self) -> int:
        return 1 << self.n


@dataclass(eq=False, frozen=True)
class PolarState:
    """Modulus/phase factorization z_k = r_k * zeta_k of a pure state.

    moduli is a nonnegative real vector with sum r_k^2 = 1; phases is a
    unit-modulus complex vector with zeta_k = 1 wherever r_k = 0.
    """

    n: int
    moduli: np.ndarray
    phases: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _check_n(self.n, MAX_QUBITS))
        r = np.array(self.moduli, dtype=np.float64, order="C")
        zeta = np.array(self.phases, dtype=np.complex128, order="C")
        if r.shape != (1 << self.n,) or zeta.shape != (1 << self.n,):
            raise ValueError(f"moduli and phases must have length {1 << self.n}")
        if not np.all(r >= 0):
            raise ValueError("moduli must be nonnegative")
        if not abs(float(np.dot(r, r)) - 1.0) <= 3 * NORM_TOL:
            raise ValueError("moduli are not normalized")
        if not float(np.max(np.abs(np.abs(zeta) - 1.0))) <= 1e-9:
            raise ValueError("phases must have unit modulus")
        object.__setattr__(self, "moduli", _frozen(r))
        object.__setattr__(self, "phases", _frozen(zeta))

    def is_uniform(self, tol: float = NORM_TOL) -> bool:
        """True when all moduli equal 1/sqrt(2^n) within tol, a real number."""
        return float(np.max(np.abs(self.moduli - 1.0 / math.sqrt(1 << self.n)))) <= _real(tol, "tol")


# Sign strings go through one byte table each way: '+' and '-' to the int8
# bytes of +1 and -1, and back.
_SIGN_BYTES = bytes.maketrans(b"+-", b"\x01\xff")
_SIGN_CHARS = bytes.maketrans(b"\x01\xff", b"+-")


@dataclass(eq=False, frozen=True)
class SignVector:
    """Vector of +-1 phases identifying a real uniform state."""

    n: int
    signs: np.ndarray

    def __post_init__(self) -> None:
        signs = self.signs
        (checked,) = self.from_rows(self.n, signs[None] if isinstance(signs, np.ndarray) else [signs])
        vars(self).update(vars(checked))  # the fields of the one checked row

    @classmethod
    def from_rows(cls, n: int, rows) -> tuple["SignVector", ...]:
        """A SignVector for each row of a (k, 2^n) array, checked as one
        block: their signs are the read-only rows of one int8 copy."""
        n = _check_n(n, MAX_QUBITS)
        raw = np.asarray(rows)
        if raw.ndim != 2 or raw.shape[1] != 1 << n:
            raise ValueError(f"sign vector must have length {1 << n} for n={n}")
        # before the cast, which would truncate 1.5, wrap 257 to 1, read True
        # as 1 and drop a zero imaginary part; numpy reads a True among
        # numbers as 1 too, so input that is not an integer or float array
        # has its entry types checked, once per type present
        numeric = isinstance(rows, np.ndarray) and rows.dtype.kind in "iuf"
        kinds = () if numeric else set(map(type, np.asarray(rows, dtype=object).flat))
        unreal = any(k is bool or not issubclass(k, numbers.Real) for k in kinds)
        if unreal or not np.all((raw == 1) | (raw == -1)):
            raise ValueError("sign entries must be exactly +1 or -1")
        vectors = tuple(cls.__new__(cls) for _ in raw)
        for sv, row in zip(vectors, _frozen(np.array(raw, dtype=np.int8, order="C"))):
            vars(sv).update(n=n, signs=row)
        return vectors

    @classmethod
    def from_string(cls, text: str) -> "SignVector":
        """Parse a '+-...' string of length 2^n, qubit-1-major order."""
        length = len(text)
        n = length.bit_length() - 1
        if length == 0 or (1 << n) != length:
            raise ValueError(f"sign string length {length} is not a power of two")
        raw = text.encode("ascii", "replace")  # any other character refused
        if raw.translate(None, b"+-"):
            bad = set(text) - {"+", "-"}
            raise ValueError(f"sign string may contain only '+' and '-', got {sorted(bad)}")
        return cls(n, np.frombuffer(raw.translate(_SIGN_BYTES), np.int8))

    def to_string(self) -> str:
        return self.signs.tobytes().translate(_SIGN_CHARS).decode("ascii")


def from_amplitudes(n: int, raw: Sequence[complex]) -> PureState:
    """Normalize a raw complex vector into a PureState.

    Records the applied scale factor on the result; rejects zero vectors
    and vectors of the wrong length.
    """
    n = _check_n(n, MAX_QUBITS)
    amp = np.ascontiguousarray(raw, dtype=np.complex128)
    if amp.shape != (1 << n,):
        raise ValueError(f"expected {1 << n} amplitudes for n={n}, got shape {amp.shape}")
    norm = float(np.linalg.norm(amp))
    if norm < 1e-300:
        raise ValueError("cannot normalize the zero vector")
    scale = 1.0 / norm
    return PureState(n, amp * scale, scale=scale)


def uniform_from_signs(s: SignVector) -> PureState:
    """Real uniform state z_k = s_k / sqrt(2^n)."""
    amp = s.signs.astype(np.complex128) / math.sqrt(1 << s.n)
    return PureState(s.n, amp)


def fully_factorized(pairs: Sequence[Sequence[complex]]) -> PureState:
    """Product state with z_k = prod_i alpha^i_{k_i}.

    `pairs` holds one normalized (alpha_0, alpha_1) pair per qubit, qubit 1
    first.  Every pair must be normalized within NORM_TOL, and the product
    of their squared norms, the state's squared norm, within the 3 NORM_TOL
    that PureState admits; both are checked before the state is built.
    """
    n = _check_n(len(pairs), MAX_QUBITS)
    vectors, norms = [], []
    for i, pair in enumerate(pairs, start=1):
        v = np.ascontiguousarray(pair, dtype=np.complex128)
        if v.shape != (2,):
            raise ValueError(f"qubit {i}: expected an amplitude pair, got shape {v.shape}")
        norms.append(float(np.vdot(v, v).real))
        if not abs(norms[-1] - 1.0) <= NORM_TOL:
            raise ValueError(f"qubit {i}: amplitude pair is not normalized")
        vectors.append(v)
    norm_sq = math.prod(norms)
    if not abs(norm_sq - 1.0) <= 3 * NORM_TOL:
        raise ValueError(f"the {n} amplitude pairs' squared norms multiply to {norm_sq!r}, not 1")
    return PureState(n, reduce(np.kron, vectors))


def _check_unitary(U: np.ndarray, dim: int, name: str) -> np.ndarray:
    U = np.ascontiguousarray(U, dtype=np.complex128)
    if U.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got {U.shape}")
    dev = float(np.max(np.abs(U.conj().T @ U - np.eye(dim))))
    if not dev <= UNITARY_TOL:
        raise ValueError(f"{name} is not unitary (deviation {dev:.3e})")
    return U


def max_entangled_state(
    A: Union[QubitMask, int],
    n: int | None = None,
    u_a: np.ndarray | None = None,
    u_abar: np.ndarray | None = None,
) -> PureState:
    """Maximally entangled state for the bipartition (A, complement).

    z_k = N_A^{-1/2} sum_{l in X^{n_A}} U^A[k_A, l] * U^Abar[k_Abar, l],
    where the index l of the smaller party is injected into the larger
    party's basis as l itself in the low bits (the choice of injection is
    a free convention).  The mask is canonicalized so that A is the smaller
    party; u_a acts on the subset passed in, u_abar on its complement.
    The reduced state of the smaller party is exactly maximally mixed, so
    its purity is 1/N_A; by the smaller-subsystem law the same holds for
    every subset of it.

    n is taken from A only when None, and read by `_check_n` up to
    MAX_QUBITS before any allocation; A is read by `QubitMask.bipartition`
    and `as_mask`, which refuse a QubitMask for another n.
    """
    if n is None:
        if not isinstance(A, QubitMask):
            raise ValueError("n is required when A is a raw integer mask")
        n = A.n
    n = _check_n(n, MAX_QUBITS)
    small = QubitMask.bipartition(A, n)
    if small.mask != as_mask(A, n):
        u_a, u_abar = u_abar, u_a
    large = small.complement()
    dim_small = 1 << small.size
    dim_large = 1 << large.size
    U_s = np.eye(dim_small, dtype=np.complex128) if u_a is None else _check_unitary(u_a, dim_small, "u_a")
    if u_abar is None:  # only the N_A columns that M reads
        U_l = np.eye(dim_large, dim_small, dtype=np.complex128)
    else:
        U_l = _check_unitary(u_abar, dim_large, "u_abar")
    # matrix element M[a, b] = z at the label with k_A = a and k_Abar = b
    M = (U_s @ U_l[:, :dim_small].T) / math.sqrt(dim_small)
    amp = np.zeros(1 << n, dtype=np.complex128)
    idx = embed_table(small)[:, None] | embed_table(large)[None, :]
    amp[idx.reshape(-1)] = M.reshape(-1)
    return PureState(n, amp)


def ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on n >= 2 qubits."""
    if _whole(n, "n") < 2:
        raise ValueError(f"ghz requires n >= 2, got {n}")
    n = _check_n(n, MAX_QUBITS)
    amp = np.zeros(1 << n, dtype=np.complex128)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    return PureState(n, amp)


def random_state(n: int, seed: int) -> PureState:
    """Haar-sphere sample: normalized standard complex Gaussian vector;
    the seed is read as AnnealConfig reads it, a nonnegative integer."""
    n = _check_n(n, MAX_QUBITS)
    rng = np.random.default_rng(_seed(seed))
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return from_amplitudes(n, v)


def random_phases(n: int, seed: int) -> PolarState:
    """Uniform-modulus state with i.i.d. phases uniform on the circle;
    the seed is read as random_state reads it."""
    n = _check_n(n, MAX_QUBITS)
    rng = np.random.default_rng(_seed(seed))
    angles = rng.uniform(0.0, 2.0 * math.pi, 1 << n)
    zeta = np.exp(1j * angles)
    r = np.full(1 << n, 1.0 / math.sqrt(1 << n))
    return PolarState(n, r, zeta)


def polar(state: PureState) -> PolarState:
    """Split z_k = r_k * zeta_k, with zeta_k = 1 wherever r_k = 0."""
    r = np.abs(state.amplitudes)
    zeta = np.ones(state.dim, dtype=np.complex128)
    nz = r > 0
    zeta[nz] = state.amplitudes[nz] / r[nz]
    return PolarState(state.n, r, zeta)


def assemble(p: PolarState) -> PureState:
    """Reconstruct the PureState from a modulus/phase split."""
    return PureState(p.n, p.moduli * p.phases)


def permute_qubits(state: PureState, perm: Sequence[int]) -> PureState:
    """Relabel qubits: the new qubit i carries the old qubit perm[i-1].

    `perm` is a bijection of {1..n} given as a length-n sequence, each
    label read by `_index` in [1, n].  The new amplitude at label k is the
    old amplitude at the label whose bit i is k_{perm(i)}.
    """
    n = state.n
    labels = [_index(p, "qubit label", n, low=1, high=n + 1) for p in perm]
    if sorted(labels) != list(range(1, n + 1)):
        raise ValueError(f"perm must be a permutation of 1..{n}, got {perm!r}")
    return PureState(n, state.amplitudes[_spell([1 << (n - p) for p in labels])])


def apply_single_qubit_unitary(state: PureState, qubit: int, U: np.ndarray) -> PureState:
    """Apply a 2x2 unitary to one qubit, its 1-based label read by `_index` in [1, n]."""
    n = state.n
    qubit = _index(qubit, "qubit label", n, low=1, high=n + 1)
    U = _check_unitary(U, 2, "U")
    t = state.amplitudes.reshape(1 << (qubit - 1), 2, 1 << (n - qubit))
    out = np.einsum("ab,ibj->iaj", U, t)
    return PureState(n, out.reshape(-1))


# --- JSON state format -----------------------------------------------------
#
# {"n": int, "format": "complex", "data": [[re, im], ...]}   length 2^n
# {"n": int, "format": "signs",   "data": "+-+-..."}          length 2^n
#
# A complex document holds per amplitude an [re, im] list of two floats,
# 128 B as Python objects, and its text, up to about 70 B indented; printed,
# with the encoder's pieces, it peaked at 453 B an amplitude (tracemalloc,
# a dense n = 16 state printed indented).
DOCUMENT_BYTES = 512


def _check_document(n: int) -> None:
    """Refuse a complex document of n qubits, before it is built, when it
    would take over bitspace.MAX_TABLE_BYTES: n <= 21 is admitted."""
    _check_bytes(DOCUMENT_BYTES << n, f"the state document for n={n}")


def state_to_json(obj: Union[PureState, SignVector]) -> dict:
    """Represent a state or sign vector in the portable JSON layout; complex
    documents past n = 21 are refused (_check_document)."""
    if isinstance(obj, SignVector):
        return {"n": obj.n, "format": "signs", "data": obj.to_string()}
    if isinstance(obj, PureState):
        _check_document(obj.n)
        data = obj.amplitudes.view(np.float64).reshape(-1, 2).tolist()
        return {"n": obj.n, "format": "complex", "data": data}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _complex_pairs(data) -> np.ndarray:
    """[[re, im], ...] as complex128, read as one float64 array.

    Components must be real numbers other than booleans, checked once per
    type present, because numpy would read true as 1.0, "1.0" as 1.0 and
    null as nan.
    """
    if not isinstance(data, (list, tuple)) or not set(map(len, data)) <= {2}:
        raise ValueError("amplitudes must be [re, im] pairs")
    for kind in set(map(type, chain.from_iterable(data))):
        if not issubclass(kind, numbers.Real) or kind is bool:
            raise TypeError(f"{kind.__name__} is not an amplitude component")
    flat = np.fromiter(chain.from_iterable(data), dtype=np.float64, count=2 * len(data))
    return flat.view(np.complex128)


def state_from_json(doc: dict) -> Union[PureState, SignVector]:
    """Parse the JSON layout back into a PureState or SignVector.

    Sign-format documents roundtrip as SignVector without any float
    conversion.  Complex-format documents are accepted as-is when the norm
    deviates from 1 by at most NORM_TOL, renormalized with a
    NormalizationWarning up to RENORM_TOL, and rejected beyond that.
    """
    if not isinstance(doc, dict):
        raise ValueError("state document must be a JSON object")
    try:
        n = doc["n"]
        fmt = doc["format"]
        data = doc["data"]
    except KeyError as exc:
        raise ValueError(f"state document is missing a required field: {exc}") from exc
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"state field 'n' must be a JSON integer, got {n!r}")
    n = _check_n(n, MAX_QUBITS)
    if fmt == "signs":
        if not isinstance(data, str):
            raise ValueError("sign-format data must be a string of '+' and '-'")
        sv = SignVector.from_string(data)
        if sv.n != n:
            raise ValueError(f"sign string length {len(data)} does not match n={n}")
        return sv
    if fmt == "complex":
        try:
            amp = _complex_pairs(data)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError("complex-format data must be a list of [re, im] pairs") from exc
        if amp.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} amplitudes for n={n}, got {amp.shape[0]}")
        norm = float(np.linalg.norm(amp))
        dev = abs(norm - 1.0)
        if dev <= NORM_TOL:
            return PureState(n, amp)
        if dev <= RENORM_TOL:
            warnings.warn(
                f"state norm deviates from 1 by {dev:.3e}; renormalizing",
                NormalizationWarning,
                stacklevel=2,
            )
            return from_amplitudes(n, amp)
        raise ValueError(f"state norm deviates from 1 by {dev:.3e}, beyond {RENORM_TOL}")
    raise ValueError(f"unknown state format {fmt!r}")
