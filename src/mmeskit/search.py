"""Sign-space sweeps and Metropolis annealing over the potential landscape.

Features:
- energy of real uniform states in exact rational arithmetic, from the
  integer Gram sums of `bipartite`; floats enter only at the interface
- incremental single-site moves on the Gram state: changing one amplitude
  changes one entry of every M_A, so each Gram matrix G_A = M_A M_A^H
  takes a rank-one update of one row and column; the G_A rows and the M_A
  columns share one row buffer, so a proposal gathers what it reads with
  one take and an accept updates the same rows and puts them back through
  a void view of the buffer (one element per row); sign rows are float64
  and hold exact integers, all below 2^53 for every n the annealer runs,
  and the state is refused before allocation when it would exceed 1 GiB
- single sign-flip energy changes without a Gram state, as the difference
  of two exact Gram sums (`flip_delta`; the annealer does not use it)
- exhaustive sign-vector census, one vector per gauge class (local Z
  gates and the global sign leave the potential unchanged), the classes
  numbered in binary and scored in blocks from sign products fixed per
  sweep: exact integer Gram sums with exact minimum, exact tie counting,
  and deterministic reports rebuilt from the gauge images of the
  minimizing classes
- Metropolis annealer over sign flips or single-site phase rotations at a
  fictitious inverse temperature, both signs supported: positive schedules
  seek minima, negative ones maxima (fully factorized states); replicas
  run on deterministically derived seeds and every reported energy is
  re-verified by a full evaluation
- annealer steps with no Generator call: each replica reads blocks of raw
  draws from its PCG64 bit generator (numpy's default, which `anneal`
  always builds) and forms from them, in order, what its Generator would
  return for integers(2^n), uniform(-max_angle, max_angle) and random()
"""

from __future__ import annotations

import cmath
import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .bipartite import MAX_TABLE_BYTES, _gram_sum_denominator, _kept_count, _sign_gram_sum, _sites
from .bitspace import _whole
from .potential import energy_uniform_exact, pi_me_uniform
from .states import PolarState, SignVector

__all__ = [
    "SearchReport",
    "AnnealConfig",
    "flip_delta",
    "exhaustive_search",
    "anneal",
]

ENERGY_TOL = 1e-12
MAX_SAMPLES = 16

# Sweeps score one vector per gauge class, 2^(2^n - n - 1) classes in either
# mode: instantaneous through n=4, about 6 s at n=5 (2^15 blocks) on one
# core of a 2-vCPU Xeon; n=6 would take 2^57 classes, out of reach.
MAX_EXHAUSTIVE_N = 5

# The classes a sweep scores together, a power of two, capped by the classes
# of the sweep: blocks of 2, 16, 2048 and 2048 at n = 2..5.  A block's numpy
# calls cost about the same at any size; 2048 keeps n = 4 to one block and
# n = 5's pair products (_block_scorer's int8 `products`) at 960 KiB.
SWEEP_BLOCK = 2048

# The annealer reads its bit generator's raw 64-bit draws this many at a
# time; a raw draw r gives the double (r >> 11) * DOUBLE in [0, 1).
DRAW_BLOCK = 1024
DOUBLE = 2.0**-53


@dataclass(eq=False, frozen=True)
class SearchReport:
    """Result of a sign-space sweep or an annealing run.

    min_value holds the best objective value found (the maximum when the
    annealer ran with a negative final beta); for sign-vector searches
    min_value_exact carries the same value as an exact rational.
    minimizer_count is exact and only set by exhaustive sweeps.
    """

    n: int
    mode: str
    min_value: float
    minimizer_count: Optional[int]
    sample_minimizers: tuple[SignVector, ...]
    evaluations: int
    wall_time: float
    min_value_exact: Optional[Fraction] = None
    objective: str = "minimize"
    replica_best_values: tuple[float, ...] = ()
    best_state: Union[SignVector, PolarState, None] = None

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "anneal"):
            raise ValueError(f"unknown report mode {self.mode!r}")
        if self.objective not in ("minimize", "maximize"):
            raise ValueError(f"unknown objective {self.objective!r}")
        floor = 1.0 / (1 << (self.n // 2))
        if not floor - ENERGY_TOL <= self.min_value <= 1.0 + ENERGY_TOL:
            raise ValueError(
                f"reported value {self.min_value!r} violates the [{floor}, 1] energy bounds"
            )


@dataclass(frozen=True)
class AnnealConfig:
    """Annealing protocol: temperature ladder, move set, replicas, seed.

    beta_schedule lists (beta, sweeps) stages executed in order; sweeps
    are whole numbers, one sweep proposes one move per site; betas may be
    infinite (a quench) but not NaN.  The sign of the final stage's beta
    fixes the reported objective: nonnegative seeks minima, negative
    maxima.  replicas and seed are integers, the seed nonnegative.
    """

    beta_schedule: tuple[tuple[float, int], ...]
    move: str = "sign_flip"
    max_angle: float = math.pi / 2
    replicas: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        stages = tuple(
            (float(b), _whole(s, "sweep counts", floats=True)) for b, s in self.beta_schedule
        )
        if not stages:
            raise ValueError("beta_schedule must contain at least one stage")
        if any(s < 0 for _, s in stages):
            raise ValueError("sweep counts must be nonnegative")
        if any(math.isnan(b) for b, _ in stages):
            raise ValueError("beta must not be NaN (use inf or -inf for a quench)")
        object.__setattr__(self, "beta_schedule", stages)
        if self.move not in ("sign_flip", "phase_rotation"):
            raise ValueError(f"unknown move {self.move!r}")
        if isinstance(self.max_angle, bool) or not 0 < self.max_angle <= math.pi:
            raise ValueError("max_angle must lie in (0, pi]")
        object.__setattr__(self, "replicas", _whole(self.replicas, "replicas"))
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        object.__setattr__(self, "seed", _whole(self.seed, "seed"))
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    @property
    def objective(self) -> str:
        if self.beta_schedule[-1][0] < 0:
            return "maximize"
        return "minimize"


def _state_bytes(n: int, itemsize: int) -> int:
    """Bound on the peak size of building a _GramState: its row buffer (G_A
    and M_A^T), the conjugate copy of M_A that a phase build's Gram product
    reads, and three index entries per site and kept subset: the two of the
    index table and one of room for the temporaries of the build.  A sign
    build makes no copy (the conj of a real array is the array itself), so
    it peaks at the buffer and the index table (60.7 of 90.8 MB at n = 12)."""
    kept = _kept_count(n)
    n_a = 1 << (n // 2)
    N = 1 << n
    return kept * (2 * N + n_a * n_a) * itemsize + 3 * kept * N * 8


class _GramState:
    """G_A = M_A M_A^H of every kept balanced A, one site at a time.

    Amplitude j sits at entry (r_A(j), c_A(j)) of M_A, as the site map
    `bipartite._sites` spells it for each subset it keeps.
    One row buffer of width N_A holds every G_A row, then every M_A column
    (the rows of M_A^T), and index[j] lists the buffer rows of r_A(j) in
    each G_A, then those of c_A(j) in each M_A^T; `_walk` moves one site at
    a time through them.  T is the weighted sum of ||G_A||_F^2, so the
    potential of the unnormalized vector z is T /
    bipartite._gram_sum_denominator(n).  Signs keep T exact in float64 as
    in integers: every entry and the S of every move is at most kept N in
    size, and T and its every change at most C(n, n/2) N^2, all below 2^53
    for n <= 13.
    """

    def __init__(self, n: int, z: np.ndarray) -> None:
        sites = _sites(n)
        kept, n_a = sites.rows.shape
        n_b = sites.cols.shape[1]
        N = 1 << n
        self.z = z
        self.counts = (sites.weight, kept, n_a, n_b)
        self.buffer = np.empty((kept * (n_a + n_b), n_a), dtype=z.dtype)
        G = self.buffer[: kept * n_a].reshape(kept, n_a, n_a)
        Mt = self.buffer[kept * n_a :].reshape(kept, n_b, n_a)
        self.columns = G.swapaxes(1, 2)  # columns[a, r] is column r of G_A
        self.pick = np.arange(kept)
        self.base = self.pick * n_a
        self.index = np.empty((N, 2 * kept), dtype=np.intp)
        for a, (rows, cols) in enumerate(zip(sites.rows, sites.cols)):
            cells = rows[:, None] + cols  # the sites of M_A
            self.index[cells, a] = a * n_a + np.arange(n_a)[:, None]
            self.index[cells, kept + a] = kept * n_a + a * n_b + np.arange(n_b)
            np.take(z, cells.T, out=Mt[a], mode="clip")  # in range; clip writes unbuffered
        np.matmul(Mt.swapaxes(1, 2), Mt.conj(), out=G)

    def total(self):
        """T, the weighted sum of the squared Frobenius norms of the G_A."""
        weight, kept, n_a, _ = self.counts
        G = self.buffer[: kept * n_a]
        if G.dtype.kind == "c":
            return weight * np.vdot(G, G).real
        # integers, exact in any order; einsum stays off BLAS, whose threaded
        # dot of a long vector leaves its threads spinning into the walk
        return weight * np.einsum("ij,ij->", G, G)


def _raw_draws(bit_generator) -> tuple:
    """(next raw 64-bit draw, pending high half or None) of a PCG64 bit
    generator, read DRAW_BLOCK raw draws at a time.  A 32-bit draw returns
    the pending half if there is one, else the low half of a raw draw, whose
    high half is then pending."""
    state = bit_generator.state
    half = state["uinteger"] if state["has_uint32"] else None
    blocks = (bit_generator.random_raw(DRAW_BLOCK).tolist() for _ in itertools.count())
    return itertools.chain.from_iterable(blocks).__next__, half


def _walk(grams: _GramState, draw, half, config: AnnealConfig, better) -> np.ndarray:
    """Run config's Metropolis stages on grams, moving grams.z; return the
    best z met.

    Each step is inline.  Its draws come from `draw` and `half` (see
    _raw_draws), formed as the replica's Generator forms them: a site as
    integers(N) does, from the top n bits of a 32-bit draw; an angle as
    uniform(-max_angle, max_angle) does, low + (high - low) * double; an
    acceptance draw as random() does, the double (raw >> 11) * 2^-53 itself.
    A proposal is one `take` of the site's 2 kept buffer rows and one dot
    for S, the sum over the kept A of sum_k G_A[r, k] v_k, where r = r_A(j)
    and v is the column c_A(j) of M_A.  With d = new - old, row r of G_A
    moves by u = d conj(v) off the diagonal, and column r by conj(u), so
    ||G_A||_F^2 changes by 2 (2 Re <G_A[r, :], u> + ||u||^2); over the kept
    A, each counting weight times, T changes by weight (4 Re(d conj(S -
    kept N_Abar old)) + 2 kept (N_A - 1) |d|^2).  An accept forms u in an
    array allocated once, updates the gathered rows in place, puts them
    back through a void view of the buffer (one element per row), then
    writes the Hermitian columns.
    Float64 sign rows hold integers below 2^53 (see _GramState), so every
    sum, delta and T is the exact integer whatever order BLAS adds in, and
    delta / denom is the exact rational rounded once.
    """
    z = grams.z
    N = z.size
    n = N.bit_length() - 1
    weight, kept, n_a, n_b = grams.counts
    mass, pair = kept * n_b, 2 * kept * (n_a - 1)
    denom = _gram_sum_denominator(n)
    buffer, index, columns, pick, base = grams.buffer, grams.index, grams.columns, grams.pick, grams.base
    whole = np.dtype((np.void, n_a * buffer.itemsize))
    buffer_rows = buffer.view(whole).reshape(-1)
    rows = np.empty((2 * kept, n_a), dtype=buffer.dtype)  # the rows of the site in hand
    G, M = rows.reshape(2, -1)  # its G_A rows and M_A columns, flat
    G_rows, whole_rows = rows[:kept], rows.view(whole).reshape(-1)
    signs = config.move == "sign_flip"
    u = np.empty_like(M)  # the change of the G_A rows
    conj_rows = None if signs else np.empty_like(G_rows)  # the new G_A columns
    shift = 32 - n  # a site is the top n bits of a 32-bit draw
    low, span = -config.max_angle, 2 * config.max_angle  # span = high - low, exactly
    values = z.tolist()  # z as Python numbers, for the scalar arithmetic of a step
    # T orders states as the energy does, exactly for signs
    current = grams.total().item()
    best, best_z = current, z.copy()
    for beta, sweeps in config.beta_schedule:
        for _ in range(sweeps * N):
            if half is None:
                raw = draw()
                j, half = (raw & 0xFFFFFFFF) >> shift, raw >> 32
            else:
                j, half = half >> shift, None
            old = values[j]
            if signs:
                new = -old
            else:
                new = old * cmath.exp(1j * (low + span * ((draw() >> 11) * DOUBLE)))
            at = index[j]
            buffer.take(at, 0, rows, "clip")  # in range; clip writes unbuffered
            d = new - old
            shifted = G.dot(M).item() - mass * old
            delta = weight * (4 * (d * shifted.conjugate()).real + pair * abs(d) ** 2)
            x = -beta * (delta / denom)
            if x >= 0 or (draw() >> 11) * DOUBLE < math.exp(x):
                g = at[:kept]  # g[a] = a N_A + r_A(j), also the flat index of u[a, r_A(j)]
                # d first: complex products with FMA are not commutative
                np.multiply(d, M if signs else np.conjugate(M, out=u), out=u)
                u.put(g, 0)
                G += u
                M.put(g, new)
                buffer_rows.put(at, whole_rows)
                # G_A stays Hermitian
                columns[pick, g - base] = G_rows if signs else np.conjugate(G_rows, out=conj_rows)
                values[j] = z[j] = new
                current += delta
                if better(current, best):
                    best, best_z = current, z.copy()
    return best_z


def flip_delta(signs: SignVector, flip_index: int) -> float:
    """Energy change from flipping one sign, without full re-evaluation.

    A single-flip query that needs no Gram state: the exact difference of
    the Gram sums of the vector and its flip, evaluated as one batch of
    two, rounded once.  The annealer does not use it: once its Gram state
    is built, a proposal costs O(C(n, n/2) 2^(n/2)).
    """
    N = 1 << signs.n
    j = _whole(flip_index, "flip index")
    if not 0 <= j < N:
        raise ValueError(f"flip index {j} out of range for {N} sites")
    pair = np.stack((signs.signs, signs.signs))
    pair[1, j] *= -1
    before, after = _sign_gram_sum(pair, signs.n).tolist()
    return (after - before) / _gram_sum_denominator(signs.n)


def _block_scorer(n: int, pattern: np.ndarray):
    """T of each class of a sweep's block, as a function of high.

    Column t of pattern holds the signs of class t, and the block from lo
    holds pattern[:, t] * high, high the signs of class lo, so
    entry (i, m) of a kept M_A's Gram matrix sums pattern products fixed
    per sweep times high products, one small array per block.  Only the
    entries above the diagonal (N_Abar) are formed, in int8, as |G| <=
    N_Abar <= 8 for n <= MAX_EXHAUSTIVE_N; T <= C(n, n/2) N^2 fits int32.
    """
    sites = _sites(n)
    kept, n_a = sites.rows.shape
    n_b = sites.cols.shape[1]
    pick = np.array(list(itertools.combinations(range(n_a), 2))).T  # row pairs i < m
    pairs = (sites.rows.T[pick, :, None] + sites.cols).reshape(2, -1, n_b)  # their sites
    products = np.multiply(*pattern[pairs])

    def score(high: np.ndarray) -> np.ndarray:
        G = (products * np.multiply(*high[pairs])[:, :, None]).sum(axis=1, dtype=np.int8)
        G *= G  # at most N_Abar^2 = 64
        return sites.weight * (2 * G.sum(axis=0, dtype=np.int32) + kept * n_a * n_b * n_b)

    return score


def _character_signs(n: int) -> np.ndarray:
    """The Sylvester sign matrix, doubled in place from [[H, H], [H, -H]]:
    entry (a, x) is (-1)^(a.x), the signs by which the local Z gates on the
    qubits of a multiply amplitude x."""
    N = 1 << n
    H = np.empty((N, N), dtype=np.int8)
    H[0, 0] = 1
    m = 1
    while m < N:
        H[:m, m : 2 * m] = H[m : 2 * m, :m] = H[:m, :m]
        H[m : 2 * m, m : 2 * m] = -H[:m, :m]
        m *= 2
    return H


def exhaustive_search(n: int, symmetry_mode: str = "full") -> SearchReport:
    """Exact minimum of the potential over all real uniform states.

    Multiplying the signs by (-1)^(c + a.x) applies local Z gates and a
    global sign, which leave the potential unchanged; the 2^(n+1) products
    are distinct, so each gauge class holds exactly one vector with +1 at
    site 0 and at every single-bit site 2^b.  The sweep scores those alone,
    numbered in binary: class t negates the k-th of the other N - n - 1
    sites where bit k of t is set.  It scores blocks of min(SWEEP_BLOCK,
    2^(N - n - 1)) classes as exact integer Gram sums.  Each minimizing
    class expands into its gauge images, so the minimum and the tie count
    are exact, and the up to 16 sample minimizers are the first in the
    Gray-code order of the whole space, position i holding the signs of
    i xor (i >> 1), bit b negating site b.  `full` mode covers all 2^(2^n)
    vectors, so counts include global-sign duplicates; `fix_global_sign`
    freezes site 0 at +1 (bit b negating site b + 1) and covers half as
    many.  n <= MAX_EXHAUSTIVE_N runs (n = 5, 2^26 classes, in about 6 s);
    larger n is refused before anything is allocated.
    """
    n = _whole(n, "n")
    if symmetry_mode not in ("full", "fix_global_sign"):
        raise ValueError(f"unknown symmetry mode {symmetry_mode!r}")
    if n < 2:
        raise ValueError("exhaustive search requires n >= 2")
    if n > MAX_EXHAUSTIVE_N:
        raise ValueError(
            f"exhaustive search over 2^{1 << n} sign vectors is out of reach; "
            f"n <= {MAX_EXHAUSTIVE_N}"
        )
    start = time.perf_counter()
    N = 1 << n
    offset = 0 if symmetry_mode == "full" else 1
    free = np.array([x for x in range(N) if x & (x - 1)])  # neither 0 nor 2^b
    size = min(SWEEP_BLOCK, 1 << free.size)
    # column t holds the signs of class t, doubled: class m + t is class t
    # with free site k negated (m = 2^k)
    pattern = np.ones((N, size), dtype=np.int8)
    for k, site in enumerate(free[: size.bit_length() - 1]):
        m = 1 << k
        pattern[:, m : 2 * m] = pattern[:, :m]
        pattern[site, m : 2 * m] = -1
    score = _block_scorer(n, pattern)
    shifts = np.arange(free.size)
    high = np.ones(N, dtype=np.int8)
    best: Optional[int] = None
    found: list[np.ndarray] = []  # the minimizing class representatives, by block
    for lo in range(0, 1 << free.size, size):
        high[free] = 1 - 2 * (lo >> shifts & 1)
        T = score(high)
        low = int(T.min())
        if best is None or low < best:
            best, found = low, []
        if low == best:
            found.append(pattern[:, T == best].T * high)
    images = (_character_signs(n)[:, None] * np.concatenate(found)).reshape(-1, N)
    if not offset:
        images = np.concatenate((images, -images))
    # each image's Gray code, bit b set where site b + offset is -1, then
    # its position, by the inverse Gray code
    position = (images[:, offset:] < 0) @ (1 << np.arange(N - offset, dtype=np.int64))
    shift = 1
    while shift < N:
        position ^= position >> shift
        shift *= 2
    samples = [SignVector(n, images[i]) for i in np.argsort(position)[:MAX_SAMPLES]]
    exact = Fraction(best, _gram_sum_denominator(n))
    return SearchReport(
        n=n,
        mode="exhaustive",
        min_value=float(exact),
        minimizer_count=len(images),
        sample_minimizers=tuple(samples),
        evaluations=1 << (N - offset),
        wall_time=time.perf_counter() - start,
        min_value_exact=exact,
        best_state=samples[0],
    )


def _anneal_replica(
    rng: np.random.Generator, config: AnnealConfig, n: int, better
) -> tuple[Union[Fraction, float], Union[SignVector, PolarState], int]:
    """One Metropolis walk on the Gram state; the best state re-verified,
    as an exact Fraction for signs."""
    N = 1 << n
    signs = config.move == "sign_flip"
    if signs:
        z = (rng.integers(0, 2, N, dtype=np.int64) * 2 - 1).astype(np.float64)
    else:
        z = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, N))
    best_z = _walk(_GramState(n, z), *_raw_draws(rng.bit_generator), config, better)
    evals = 1 + N * sum(sweeps for _, sweeps in config.beta_schedule)
    if signs:
        sv = SignVector(n, best_z.astype(np.int8))
        return energy_uniform_exact(sv), sv, evals
    state = PolarState(n, np.full(N, 1.0 / math.sqrt(N)), best_z)
    return pi_me_uniform(state), state, evals


def anneal(n: int, config: AnnealConfig) -> SearchReport:
    """Metropolis annealing of the potential over uniform states.

    Moves are single-site sign flips or phase rotations by a uniform angle
    in [-max_angle, max_angle]; a move is accepted with probability
    min(1, exp(-beta * delta)), so negative beta drives the walk uphill.
    Replicas start from independent random states on seeds spawned
    deterministically from config.seed and run sequentially; the reported
    best is re-verified by a full evaluation of the best state.  Raises
    ValueError before allocating when the Gram state would exceed
    bipartite.MAX_TABLE_BYTES, the site map's own limit: n <= 13 runs.
    """
    n = _whole(n, "n")
    if n < 2:
        raise ValueError("annealing requires n >= 2")
    size = _state_bytes(n, 8 if config.move == "sign_flip" else 16)
    if size > MAX_TABLE_BYTES:
        raise ValueError(
            f"the {config.move} annealer's Gram state for n={n} would take "
            f"{size / 1e9:.1f} GB, over the {MAX_TABLE_BYTES >> 30} GiB limit"
        )
    start = time.perf_counter()
    objective = config.objective
    better = (lambda a, b: a < b) if objective == "minimize" else (lambda a, b: a > b)
    root = np.random.SeedSequence(config.seed)
    replica_values: list[float] = []
    best_value: Union[Fraction, float, None] = None
    best_state: Union[SignVector, PolarState, None] = None
    evaluations = 0
    for _ in range(config.replicas):
        # one child at a time: the keys spawn(replicas) would give, without
        # holding every replica's SeedSequence at once
        rng = np.random.default_rng(root.spawn(1)[0])
        value, state, evals = _anneal_replica(rng, config, n, better)
        replica_values.append(float(value))
        evaluations += evals
        if best_value is None or better(value, best_value):
            best_value, best_state = value, state
    samples: tuple[SignVector, ...] = ()
    exact = None
    if isinstance(best_state, SignVector):
        samples, exact = (best_state,), best_value
    return SearchReport(
        n=n,
        mode="anneal",
        min_value=float(best_value),
        minimizer_count=None,
        sample_minimizers=samples,
        evaluations=evaluations,
        wall_time=time.perf_counter() - start,
        min_value_exact=exact,
        objective=objective,
        replica_best_values=tuple(replica_values),
        best_state=best_state,
    )
