"""Brute-force oracles and small utilities shared by the test suite.

Everything here is deliberately naive: explicit loops over basis labels,
quadratic transforms, dictionary accumulation.  The point is independence
from the library's vectorized code paths.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from mmeskit import PureState, SignVector, build_coupling_table


def place_bits(n: int, qubits, sub: int) -> int:
    """Compose a basis index from a sub-index over the given qubit labels.

    Bit 0 of ``sub`` addresses the largest label, matching the convention
    that smaller labels are more significant inside a subsystem index.
    """
    k = 0
    for j, q in enumerate(sorted(qubits, reverse=True)):
        if (sub >> j) & 1:
            k |= 1 << (n - q)
    return k


def naive_reduced_density(state: PureState, qubits) -> np.ndarray:
    """Partial trace by explicit summation over the complement labels."""
    n = state.n
    qubits = tuple(sorted(qubits))
    rest = tuple(q for q in range(1, n + 1) if q not in qubits)
    da, de = 1 << len(qubits), 1 << len(rest)
    z = state.amplitudes
    rho = np.zeros((da, da), dtype=complex)
    for a in range(da):
        ka = place_bits(n, qubits, a)
        for b in range(da):
            kb = place_bits(n, qubits, b)
            acc = 0.0 + 0.0j
            for e in range(de):
                ke = place_bits(n, rest, e)
                acc += z[ka | ke] * np.conj(z[kb | ke])
            rho[a, b] = acc
    return rho


def naive_purity(state: PureState, qubits) -> float:
    rho = naive_reduced_density(state, qubits)
    return float(np.trace(rho @ rho).real)


def table_energy_exact(sv: SignVector) -> Fraction:
    """Exact potential of a sign vector from the coupling-table expansion.

    constant + (sum over table entries of W_e S_e) / (scale N^2), with W_e
    the integer weights and S_e = sum_k s_k s_{k^l} s_{k^m} s_{k^l^m}.
    """
    table = build_coupling_table(sv.n)
    s = sv.signs.astype(np.int64)
    ks = np.arange(s.size)
    total = 0
    for w, l, m, lm in zip(table.int_weights, table.l_idx, table.m_idx, table.lm_idx):
        total += int(w) * int(np.dot(s * s[ks ^ l], s[ks ^ m] * s[ks ^ lm]))
    return table.constant + Fraction(total, table.scale * s.size * s.size)


def naive_wht(vec: np.ndarray) -> np.ndarray:
    """Quadratic-time Walsh-Hadamard transform with explicit parities."""
    N = len(vec)
    out = np.zeros(N, dtype=float)
    for T in range(N):
        out[T] = sum(
            (-1) ** bin(k & T).count("1") * float(vec[k]) for k in range(N)
        )
    return out


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR factorization of a Ginibre matrix."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    d = np.diag(r)
    return q * (d / np.abs(d))


def unit_phases(rng: np.random.Generator, count: int) -> tuple[complex, ...]:
    return tuple(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count)))
