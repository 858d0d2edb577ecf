"""Brute-force oracles and small utilities shared by the test suite.

Everything here is deliberately naive: explicit loops over basis labels,
quadratic transforms, dictionary accumulation.  The point is independence
from the library's vectorized code paths.  Paths the library has replaced
stay here as oracles of their replacements.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from mmeskit import (
    AnnealConfig,
    PolarState,
    PopulationVector,
    PureState,
    QubitMask,
    SignVector,
    WalshCoefficients,
    build_coupling_table,
    energy_uniform_exact,
    pi_me_uniform,
    population_from_walsh,
    walsh_coefficients,
)
from mmeskit.bipartite import _gram_sum_denominator, _sign_gram_sum
from mmeskit.bitspace import balanced_bipartitions, embed_table, submasks, weight
from mmeskit.mmes import _fwht
from mmeskit.potential import _g_hat_core
from mmeskit.search import MAX_SAMPLES, _GramState


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

    constant + (sum over table entries (l, m, w) of w S_lm) / N^2, with the
    exact rational weights w and S_lm = sum_k s_k s_{k^l} s_{k^m} s_{k^l^m}.
    """
    table = build_coupling_table(sv.n)
    s = sv.signs.astype(np.int64)
    ks = np.arange(s.size)
    total = sum(
        w * int(np.dot(s * s[ks ^ l], s[ks ^ m] * s[ks ^ l ^ m])) for l, m, w in table.entries
    )
    return table.constant + Fraction(total) / (s.size * s.size)


def all_bipartition_sign_sum(sv: SignVector) -> int:
    """Sum of ||M_A M_A^T||_F^2 over all C(n, n/2) balanced A, with no pairing.

    M_A[a, b] is the sign at the label holding the sub-labels a on A and b
    on the complement, placed through `embed_table` rather than a reshape.
    """
    n = sv.n
    s = sv.signs.astype(np.int64)
    total = 0
    for qubits in combinations(range(1, n + 1), n // 2):
        A = QubitMask.from_qubits(qubits, n)
        M = s[embed_table(A)[:, None] | embed_table(A.complement())[None, :]]
        G = M @ M.T
        total += int(np.sum(G * G))
    return total


def matricize(amplitudes: np.ndarray, mask: int, n: int) -> np.ndarray:
    """The amplitudes transposed and reshaped to M_A: (sub-index of A) x
    (sub-index of Abar), both sides' qubits ascending.

    The tensor-transpose oracle of the library's spelled gathers: leading
    axes are kept, so a (..., 2^n) batch gives (..., N_A, N_Abar), and
    applied to arange(2^n) it gives the basis index at each entry of M_A.
    """
    inside = tuple(i for i in range(1, n + 1) if mask >> (n - i) & 1)
    axes = (0,) + inside + tuple(i for i in range(1, n + 1) if i not in inside)
    t = amplitudes.reshape((-1,) + (2,) * n).transpose(axes)
    return t.reshape(amplitudes.shape[:-1] + (1 << len(inside), -1))


def loop_balanced_grams(amplitudes: np.ndarray, n: int) -> list:
    """Gram matrix M_A M_A^H of every balanced A, in balanced_bipartitions
    order: one tensor transpose and one matrix product per subset, where the
    library gathers chunks of subsets from its site map."""
    Ms = (matricize(amplitudes, A.mask, n) for A in balanced_bipartitions(n))
    return [M @ M.conj().T for M in Ms]


def loop_permute_qubits(state: PureState, perm) -> PureState:
    """Relabel qubits one qubit at a time: bit n - perm[i-1] of the source
    label is bit n - i of the target's, where the library spells the whole
    source map at once."""
    n = state.n
    ks = np.arange(1 << n, dtype=np.intp)
    src = np.zeros(1 << n, dtype=np.intp)
    for i, p_i in enumerate(perm, start=1):
        src |= ((ks >> (n - i)) & 1) << (n - p_i)
    return PureState(n, state.amplitudes[src])


def loop_balanced_gaps(state: PureState) -> tuple:
    """Worst |pi_A - 1/N_A| and off-diagonal |rho_A[l, l']|, one balanced A at a time."""
    flat = 1.0 / (1 << (state.n // 2))
    purity_gap = phase_res = 0.0
    for rho in loop_balanced_grams(state.amplitudes, state.n):
        purity_gap = max(purity_gap, abs(np.vdot(rho, rho).real - flat))
        off = np.abs(rho).ravel()
        off[:: rho.shape[0] + 1] = 0.0  # the diagonal
        phase_res = max(phase_res, off.max())
    return float(purity_gap), float(phase_res)


def loop_marginal_gap(P: PopulationVector) -> float:
    """Worst small-subset marginal gap, one marginal and one comparison at a time."""
    t = P.probabilities.reshape((2,) * P.n)
    gap = 0.0
    for size in range(1, P.n // 2 + 1):
        for drop in combinations(range(P.n), P.n - size):
            gap = max(gap, np.abs(t.sum(axis=drop) - 1.0 / (1 << size)).max())
    return float(gap)


def walsh_marginal_gap(P: PopulationVector) -> float:
    """Worst small-subset marginal gap, each marginal rebuilt from Walsh coefficients.

    Marginalizing onto A keeps only the coefficients c_T with T inside A,
    each scaled by 2^(n - |A|); the marginal is their inverse transform.
    Independent of the direct marginal sums of `marginal_uniformity_gap`.
    """
    n = P.n
    c = walsh_coefficients(P).values
    gap = 0.0
    for size in range(1, n // 2 + 1):
        for qubits in combinations(range(1, n + 1), size):
            sub = c[embed_table(QubitMask.from_qubits(qubits, n))] * (1 << (n - size))
            got = population_from_walsh(WalshCoefficients(size, sub)).probabilities
            gap = max(gap, float(np.max(np.abs(got - 1.0 / (1 << size)))))
    return gap


# One numpy sum per h, per table entry or per (l, m) pair, one term at a
# time: the loops the library gathers into blocks.  Their floats must match
# the blocked versions bit for bit.


def loop_purity_form2(state: PureState, A: QubitMask) -> float:
    N = 1 << state.n
    z = state.amplitudes
    zc = z.conj()
    ks = np.arange(N)
    parts = []
    for h in range(N):
        h_a = h & A.mask
        h_b = h ^ h_a
        term = z * z[ks ^ h] * zc[ks ^ h_a] * zc[ks ^ h_b]
        parts.append(float(np.sum(term).real))
    return math.fsum(parts)


def loop_purity_uniform(zeta: np.ndarray, n: int, A: QubitMask) -> float:
    N = 1 << n
    zc = zeta.conj()
    ks = np.arange(N)
    parts = []
    for l in submasks(A.mask):
        for m in submasks(A.complement().mask):
            if l and m:
                term = zeta * zc[ks ^ l] * zeta[ks ^ l ^ m] * zc[ks ^ m]
                parts.append(float(np.sum(term).real))
    return ((1 << A.size) + (1 << (n - A.size)) - 1) / N + math.fsum(parts) / (N * N)


def loop_pi_me_form2(state: PureState, table=None) -> float:
    n = state.n
    N = 1 << n
    z = state.amplitudes
    zc = z.conj()
    p = np.abs(z) ** 2
    ks = np.arange(N)
    parts = [float(np.dot(p, p))]
    for l in range(1, N):
        w = _g_hat_core(weight(l), 0, n, n // 2)
        if w:
            parts.append(2.0 * float(w) * float(np.dot(p, p[ks ^ l])))
    for l, m, w in (table or build_coupling_table(n)).entries:
        term = z * z[ks ^ (l ^ m)] * zc[ks ^ l] * zc[ks ^ m]
        parts.append(float(w) * float(np.sum(term).real))
    return math.fsum(parts)


def loop_pi_me_form4(state: PureState, table=None) -> float:
    z = state.amplitudes
    ks = np.arange(1 << state.n)
    deficit = []
    for l, m, w in (table or build_coupling_table(state.n)).entries:
        d = z * z[ks ^ (l ^ m)] - z[ks ^ l] * z[ks ^ m]
        deficit.append(float(w) * float(np.sum(d.real * d.real + d.imag * d.imag)))
    return 1.0 - 0.5 * math.fsum(deficit)


def naive_wht(vec: np.ndarray) -> np.ndarray:
    """Quadratic-time Walsh-Hadamard transform with explicit parities."""
    N = len(vec)
    out = np.zeros(N, dtype=float)
    for T in range(N):
        out[T] = sum(
            (-1) ** bin(k & T).count("1") * float(vec[k]) for k in range(N)
        )
    return out


def _parity_table(n: int) -> np.ndarray:
    """(-1)^|T| for every mask T of n bits, one Python popcount per mask."""
    return np.array([-1.0 if T.bit_count() & 1 else 1.0 for T in range(1 << n)])


def parity_walsh_coefficients(P: PopulationVector) -> np.ndarray:
    """The values of `walsh_coefficients` as a parity table times the fast
    transform, (-1)^|T| 2^-n sum_k (-1)^popcount(k & T) P(k): the library's
    path before it read the sign off the reversed population."""
    return _parity_table(P.n) * _fwht(P.probabilities) / (1 << P.n)


def parity_population_from_walsh(c: WalshCoefficients) -> np.ndarray:
    """The probabilities of `population_from_walsh` through the parity
    table, as the library formed them before it reversed the transform."""
    return PopulationVector(c.n, _fwht(_parity_table(c.n) * c.values)).probabilities


def loop_state_doc(state: PureState) -> dict:
    """`state_to_json` of a PureState, one [re, im] pair per amplitude."""
    data = [[float(z.real), float(z.imag)] for z in state.amplitudes]
    return {"n": state.n, "format": "complex", "data": data}


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR factorization of a Ginibre matrix."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    d = np.diag(r)
    return q * (d / np.abs(d))


def unit_phases(rng: np.random.Generator, count: int) -> tuple[complex, ...]:
    return tuple(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count)))


def _delta(S, old, new, kept: int, n_a: int, n_b: int):
    """Change of T when z_j goes from `old` to `new`, with |new| = |old|, as
    `search._walk` forms it inline (its docstring derives it).

    S is the sum over the kept A of sum_k G_A[r, k] v_k, where r = r_A(j)
    and v is the column c_A(j) of M_A.  Python ints, or floats that hold
    integers below 2^53, give the exact integer change, complex numbers its
    float.
    """
    d = new - old
    shifted = S - kept * n_b * old
    return 4 * (d * shifted.conjugate()).real + 2 * kept * (n_a - 1) * abs(d) ** 2


class LoopGramState(_GramState):
    """The annealer's Gram state with one call per proposal (delta) and per
    accept (set), as the stage loop ran them before `search._walk` inlined
    both: set writes the G_A rows through a fancy index of the row buffer,
    then the Hermitian columns, then the M_A entries through flat indices."""

    def __init__(self, n: int, z: np.ndarray) -> None:
        super().__init__(n, z)
        self.flat = self.buffer.reshape(-1)
        self.proposal = None
        self.proposals = 0  # delta calls, one per proposal

    def delta(self, j: int, new):
        """Change of T when z_j becomes `new`, with |new| = |z_j| (see _delta).

        Keeps the gathered rows for an accept of site j.
        """
        kept = self.counts[0]
        rows = self.buffer.take(self.index[j], axis=0)
        self.proposal = j, rows
        self.proposals += 1
        S = np.dot(rows[:kept].ravel(), rows[kept:].ravel())
        old = self.z[j]
        if self.z.dtype.kind == "i":
            S, old, new = int(S), int(old), int(new)
        return _delta(S, old, new, *self.counts)

    def set(self, j: int, new) -> None:
        """z_j = new, with the rank-one updates of every G_A and M_A, from
        the rows that the last proposal, delta(j, ...), gathered."""
        if self.proposal is None or self.proposal[0] != j:
            raise ValueError(f"site {j} is not the last proposed site")
        rows = self.proposal[1]
        self.proposal = None
        kept, n_a = self.counts[:2]
        at = self.index[j]
        g = at[:kept]
        r = g - self.base
        u = (new - self.z[j]) * rows[kept:].conj()
        u.put(g, 0)  # g[a] = a N_A + r_A(j) is also the flat index of u[a, r_A(j)]
        u += rows[:kept]
        self.buffer[g] = u
        self.columns[self.pick, r] = u.conj()  # G_A stays Hermitian
        self.flat[at[kept:] * n_a + r] = new
        self.z[j] = new


def loop_walk(grams: LoopGramState, rng, config: AnnealConfig, better) -> np.ndarray:
    """The Metropolis stages of `search._walk` as a loop of Generator calls,
    np.exp on numpy scalars, and delta and set per step; the best z met."""
    z = grams.z
    N = z.size
    denom = _gram_sum_denominator(N.bit_length() - 1)
    signs = config.move == "sign_flip"
    current = grams.total()
    best, best_z = current, z.copy()
    for beta, sweeps in config.beta_schedule:
        for _ in range(sweeps):
            for _ in range(N):
                j = int(rng.integers(N))
                if signs:
                    new = -z[j]
                else:
                    new = z[j] * np.exp(1j * rng.uniform(-config.max_angle, config.max_angle))
                delta = grams.delta(j, new)
                x = -beta * (delta / denom)
                if x >= 0 or rng.random() < math.exp(x):
                    grams.set(j, new)
                    current += delta
                    if better(current, best):
                        best, best_z = current, z.copy()
    return best_z


def loop_anneal_replica(rng: np.random.Generator, config: AnnealConfig, n: int, better, steps: list):
    """`search._anneal_replica` on loop_walk, (value, state); appends to
    steps the evaluations it made, counted step by step: the start's total,
    then one per proposal."""
    N = 1 << n
    signs = config.move == "sign_flip"
    if signs:
        z = rng.integers(0, 2, N, dtype=np.int64) * 2 - 1
    else:
        z = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, N))
    grams = LoopGramState(n, z)
    best_z = loop_walk(grams, rng, config, better)
    steps.append(1 + grams.proposals)
    if signs:
        sv = SignVector(n, best_z.astype(np.int8))
        return energy_uniform_exact(sv), sv
    state = PolarState(n, np.full(N, 1.0 / math.sqrt(N)), best_z)
    return pi_me_uniform(state), state


def gray_signs(n: int, positions, symmetry_mode: str = "full") -> np.ndarray:
    """Row r: the signs of Gray position positions[r] of `exhaustive_search`,
    bit b of i xor (i >> 1) negating site b, or site b + 1 with site 0
    frozen at +1 in fix_global_sign mode."""
    N = 1 << n
    offset = 0 if symmetry_mode == "full" else 1
    i = np.asarray(positions, dtype=np.int64)
    signs = np.ones((i.size, N), dtype=np.int8)
    signs[:, offset:] = 1 - 2 * ((i ^ i >> 1)[:, None] >> np.arange(N - offset) & 1)
    return signs


def unmirrored_search(n: int, symmetry_mode: str = "full"):
    """`exhaustive_search` without the global-sign mirror: every Gray
    position, as one explicit matrix, scored through `_sign_gram_sum`,
    which shares no kernel with the sweep's blocks; (exact minimum,
    minimizer count, evaluations, the first MAX_SAMPLES minimizers in
    position order)."""
    total = 1 << ((1 << n) - (symmetry_mode != "full"))
    signs = gray_signs(n, np.arange(total), symmetry_mode)
    T = _sign_gram_sum(signs, n)
    best = int(T.min())
    hits = np.flatnonzero(T == best)
    samples = [SignVector(n, signs[h]) for h in hits[:MAX_SAMPLES]]
    return Fraction(best, _gram_sum_denominator(n)), hits.size, total, samples


def gauge_signs(n: int, positions) -> np.ndarray:
    """Row r: the signs of class positions[r] of `exhaustive_search`'s
    gauge sweep, bit k of the class number negating the k-th site, in
    ascending order, that is neither 0 nor a single-bit label; every other
    site stays +1."""
    N = 1 << n
    free = [x for x in range(N) if bin(x).count("1") >= 2]
    i = np.asarray(positions, dtype=np.int64)
    signs = np.ones((i.size, N), dtype=np.int8)
    signs[:, free] = 1 - 2 * (i[:, None] >> np.arange(len(free)) & 1)
    return signs


def gauge_images(signs: np.ndarray, symmetry_mode: str = "full") -> np.ndarray:
    """The products signs (-1)^(c + a.x) over a in [0, 2^n) and c in {0, 1}
    (c = 0 alone in fix_global_sign mode), one per row, c major; a.x is the
    parity of the bits that a and the site label x share."""
    N = signs.size
    character = np.array(
        [[1 - 2 * (bin(a & x).count("1") & 1) for x in range(N)] for a in range(N)], dtype=np.int8
    )
    images = character * signs
    return np.concatenate((images, -images)) if symmetry_mode == "full" else images
