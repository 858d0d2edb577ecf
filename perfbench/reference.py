"""Independent reference values for checking mmeskit's outputs.

Everything here is computed with plain numpy from the reshape/Gram
picture: for a subset A of the qubits, the amplitude vector reshaped to a
2^|A| x 2^(n-|A|) matrix M gives the reduced density matrix M M^H, whose
squared Frobenius norm is the purity of A.  Sign vectors are evaluated in
exact integer arithmetic, so their potentials are exact Fractions.  None of
this imports mmeskit.

Qubit i (1-based) is bit n-i of a basis label, which is axis i-1 of the
amplitude vector reshaped to (2,) * n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np


def balanced_subsets(n: int) -> list[tuple[int, ...]]:
    """All subsets of floor(n/2) qubits, as 0-based axes."""
    return list(combinations(range(n), n // 2))


def matricize(amp: np.ndarray, n: int, axes: tuple[int, ...]) -> np.ndarray:
    """Amplitudes as a (subset) x (complement) matrix."""
    rest = [i for i in range(n) if i not in axes]
    t = amp.reshape((2,) * n).transpose(list(axes) + rest)
    return t.reshape(1 << len(axes), -1)


def gram(amp: np.ndarray, n: int, axes: tuple[int, ...]) -> np.ndarray:
    """Reduced density matrix of the subset: M M^H."""
    m = matricize(amp, n, axes)
    return m @ m.conj().T


def purity(amp: np.ndarray, n: int, axes: tuple[int, ...]) -> float:
    g = gram(amp, n, axes)
    return float(np.sum(g.real * g.real + g.imag * g.imag))


def potential(amp: np.ndarray, n: int) -> float:
    """Mean purity over the balanced bipartitions."""
    parts = [purity(amp, n, axes) for axes in balanced_subsets(n)]
    return math.fsum(parts) / len(parts)


def potential_exact(signs: np.ndarray, n: int) -> Fraction:
    """Exact potential of the real uniform state s_k / sqrt(2^n).

    Each Gram matrix of the +-1 sign matrix has integer entries, so the
    mean purity is a sum of squared integers over C(n, n/2) * N^2.
    """
    s = np.asarray(signs, dtype=np.int64)
    subsets = balanced_subsets(n)
    total = 0
    for axes in subsets:
        m = matricize(s, n, axes)
        g = m @ m.T
        total += int(np.sum(g * g))
    N = 1 << n
    return Fraction(total, len(subsets) * N * N)


def verdict(amp: np.ndarray, n: int, tol: float) -> dict:
    """The fields of `mmeskit verify` computed from Gram matrices.

    worst_purity_gap: max over balanced A of |purity(A) - 2^-floor(n/2)|.
    worst_marginal_gap: max over subsets of 1..floor(n/2) qubits and their
    labels of |P_A(l) - 2^-|A||, P the population |z_k|^2.
    worst_phase_residual: max off-diagonal modulus of any balanced M M^H.
    """
    flat = 1.0 / (1 << (n // 2))
    purity_gap = 0.0
    phase = 0.0
    for axes in balanced_subsets(n):
        g = gram(amp, n, axes)
        purity_gap = max(purity_gap, abs(float(np.sum(np.abs(g) ** 2)) - flat))
        off = np.abs(g - np.diag(np.diag(g)))
        phase = max(phase, float(np.max(off)))
    p = (np.abs(amp) ** 2).reshape((2,) * n)
    marginal_gap = 0.0
    for size in range(1, n // 2 + 1):
        for axes in combinations(range(n), size):
            drop = tuple(i for i in range(n) if i not in axes)
            got = p.sum(axis=drop)
            marginal_gap = max(marginal_gap, float(np.max(np.abs(got - 1.0 / (1 << size)))))
    return {
        "n": n,
        "is_perfect": purity_gap <= tol,
        "tolerance": tol,
        "worst_purity_gap": purity_gap,
        "worst_marginal_gap": marginal_gap,
        "worst_phase_residual": phase,
    }
