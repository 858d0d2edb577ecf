"""Sign-space sweeps and Metropolis annealing over the potential landscape.

Features:
- energy of real uniform states in exact rational arithmetic (integer
  Gram sums; float conversion only at the interface)
- incremental single-flip energy deltas from precomputed per-site index
  tables, the workhorse of both the sweeps and the annealer; the tables
  are refused before allocation when they would exceed 2 GiB
- exhaustive Gray-code enumeration of all sign vectors with exact integer
  minimum tracking, exact tie counting and deterministic reports
- Metropolis annealer over sign flips or single-site phase rotations at a
  fictitious inverse temperature, both signs supported: positive schedules
  seek minima, negative ones maxima (fully factorized states); replicas
  run on deterministically derived seeds and every reported energy is
  re-verified by a full evaluation
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .potential import (
    CouplingTable,
    _resolve_table,
    build_coupling_table,
    energy_uniform_exact,
    monomial_counts,
    pi_me_uniform,
)
from .states import PolarState, SignVector

__all__ = [
    "SearchReport",
    "AnnealConfig",
    "energy_uniform",
    "flip_delta",
    "exhaustive_search",
    "anneal",
]

ENERGY_TOL = 1e-12
MAX_SAMPLES = 16

# Full sweeps cost 2^(2^n) evaluations: instantaneous through n=4,
# hours at n=5 (gated behind allow_long_run), out of reach beyond.
MAX_EXHAUSTIVE_N = 4
MAX_GATED_N = 5

# The per-site index tables take 3 * 8 * 2^n * entries bytes: 1.2 GB at
# n=10, 7.9 GB at n=11.  Larger tables are refused before allocation.
MAX_SITE_TABLE_BYTES = 2 << 30


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
        if self.min_value < floor - ENERGY_TOL or self.min_value > 1.0 + ENERGY_TOL:
            raise ValueError(
                f"reported value {self.min_value!r} violates the [{floor}, 1] energy bounds"
            )


@dataclass(frozen=True)
class AnnealConfig:
    """Annealing protocol: temperature ladder, move set, replicas, seed.

    beta_schedule lists (beta, sweeps) stages executed in order; one sweep
    proposes one move per site.  The sign of the final stage's beta fixes
    the reported objective: nonnegative seeks minima, negative maxima.
    """

    beta_schedule: tuple[tuple[float, int], ...]
    move: str = "sign_flip"
    max_angle: float = math.pi / 2
    replicas: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        stages = tuple((float(b), int(s)) for b, s in self.beta_schedule)
        if not stages:
            raise ValueError("beta_schedule must contain at least one stage")
        if any(s < 0 for _, s in stages):
            raise ValueError("sweep counts must be nonnegative")
        object.__setattr__(self, "beta_schedule", stages)
        if self.move not in ("sign_flip", "phase_rotation"):
            raise ValueError(f"unknown move {self.move!r}")
        if not 0 < self.max_angle <= math.pi:
            raise ValueError("max_angle must lie in (0, pi]")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")

    @property
    def objective(self) -> str:
        if self.beta_schedule[-1][0] < 0:
            return "maximize"
        return "minimize"


def energy_uniform(signs: SignVector) -> float:
    """Potential of the real uniform state with the given signs.

    Evaluated exactly (integer Gram sums, one rational rescaling) and
    converted to float at the end.
    """
    return float(energy_uniform_exact(signs))


def _rescaled_energy(s: np.ndarray, table: CouplingTable) -> int:
    """scale N^2 (energy - constant): the exact integer the flip deltas update.

    With T the integer Gram sum of the signs this is 2 T - scale N
    (N_A + N_Abar - 1), the table's integer-weighted interference sum.
    """
    N = s.size
    energy = energy_uniform_exact(SignVector(table.n, s))
    return int((energy - table.constant) * (table.scale * N * N))


@lru_cache(maxsize=8)
def _site_tables(table: CouplingTable) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-site gather indices (j^l, j^m, j^l^m) over all table entries."""
    n = table.n
    size = 3 * 8 * (1 << n) * (8 * monomial_counts(n).N4 >> n)
    if size > MAX_SITE_TABLE_BYTES:
        raise ValueError(
            f"per-site flip tables for n={n} would take {size / 1e9:.1f} GB, "
            f"over the {MAX_SITE_TABLE_BYTES >> 30} GiB limit"
        )
    out = []
    for j in range(1 << table.n):
        out.append((table.l_idx ^ j, table.m_idx ^ j, table.lm_idx ^ j))
    return out


def _flip_delta_int(s: np.ndarray, j: int, table: CouplingTable) -> int:
    """Exact change of the rescaled interference sum when site j flips.

    Each table entry meets site j in exactly four k-terms, all equal to
    the same sign product, so the entry's correlation moves by -8 times
    that product.
    """
    i1, i2, i3 = _site_tables(table)[j]
    return -8 * int(s[j]) * int(np.dot(table.int_weights, s[i1] * s[i2] * s[i3]))


def flip_delta(signs: SignVector, flip_index: int, table: Optional[CouplingTable] = None) -> float:
    """Energy change from flipping one sign, without full re-evaluation."""
    table = _resolve_table(signs.n, table)
    N = 1 << signs.n
    if not 0 <= flip_index < N:
        raise ValueError(f"flip index {flip_index} out of range for {N} sites")
    s = signs.signs.astype(np.int64)
    return _flip_delta_int(s, flip_index, table) / (table.scale * N * N)


def exhaustive_search(
    n: int, symmetry_mode: str = "full", allow_long_run: bool = False
) -> SearchReport:
    """Exact minimum of the potential over all real uniform states.

    Enumerates sign vectors in Gray-code order with one incremental flip
    per step, tracking the rescaled integer energy, so the minimum, the
    tie count, and up to 16 sample minimizers (in enumeration order) are
    exact.  `full` mode visits all 2^(2^n) vectors, so counts include
    global-sign duplicates; `fix_global_sign` freezes site 0 at +1 and
    visits half as many.  n=5 costs billions of steps and must be enabled
    with allow_long_run; larger n is refused.
    """
    if symmetry_mode not in ("full", "fix_global_sign"):
        raise ValueError(f"unknown symmetry mode {symmetry_mode!r}")
    if n < 2:
        raise ValueError("exhaustive search requires n >= 2")
    if n > MAX_GATED_N or (n > MAX_EXHAUSTIVE_N and not allow_long_run):
        raise ValueError(
            f"exhaustive search over 2^{1 << n} sign vectors is out of reach; "
            f"n <= {MAX_EXHAUSTIVE_N} (or n = {MAX_GATED_N} with allow_long_run=True)"
        )
    start = time.perf_counter()
    table = build_coupling_table(n)
    N = 1 << n
    offset = 0 if symmetry_mode == "full" else 1
    total = 1 << (N - offset)
    s = np.ones(N, dtype=np.int64)  # Gray position 0
    current = best = _rescaled_energy(s, table)
    count = 1
    found = [s.copy()]
    for i in range(1, total):
        j = ((i & -i).bit_length() - 1) + offset
        current += _flip_delta_int(s, j, table)
        s[j] = -s[j]
        if current < best:
            best = current
            count = 1
            found = [s.copy()]
        elif current == best:
            count += 1
            if len(found) < MAX_SAMPLES:
                found.append(s.copy())
    samples = [SignVector(n, v) for v in found]
    exact = table.constant + Fraction(best, table.scale * N * N)
    return SearchReport(
        n=n,
        mode="exhaustive",
        min_value=float(exact),
        minimizer_count=count,
        sample_minimizers=tuple(samples),
        evaluations=total,
        wall_time=time.perf_counter() - start,
        min_value_exact=exact,
        best_state=samples[0] if samples else None,
    )


def _anneal_signs(
    rng: np.random.Generator, config: AnnealConfig, table: CouplingTable, better
) -> tuple[float, SignVector, int]:
    N = 1 << table.n
    denom = table.scale * N * N
    s = rng.integers(0, 2, N, dtype=np.int64) * 2 - 1
    current = _rescaled_energy(s, table)
    best, best_s = current, s.copy()
    evals = 1
    for beta, sweeps in config.beta_schedule:
        for _ in range(sweeps):
            for _ in range(N):
                j = int(rng.integers(N))
                delta = _flip_delta_int(s, j, table)
                evals += 1
                x = -beta * (delta / denom)
                if x >= 0 or rng.random() < math.exp(x):
                    s[j] = -s[j]
                    current += delta
                    # the rescaled integer orders states exactly as energy
                    if better(current, best):
                        best, best_s = current, s.copy()
    sv = SignVector(table.n, best_s.astype(np.int8))
    return energy_uniform(sv), sv, evals


def _anneal_phases(
    rng: np.random.Generator, config: AnnealConfig, table: CouplingTable, better
) -> tuple[float, PolarState, int]:
    N = 1 << table.n
    moduli = np.full(N, 1.0 / math.sqrt(N))
    zeta = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, N))
    current = pi_me_uniform(PolarState(table.n, moduli, zeta))
    best, best_z = current, zeta.copy()
    evals = 1
    idx = _site_tables(table)
    w = table.weights
    for beta, sweeps in config.beta_schedule:
        for _ in range(sweeps):
            for _ in range(N):
                j = int(rng.integers(N))
                i1, i2, i3 = idx[j]
                f_j = np.dot(w, zeta[i3] * np.conj(zeta[i1] * zeta[i2]))
                new = zeta[j] * np.exp(1j * rng.uniform(-config.max_angle, config.max_angle))
                delta = 4.0 * ((new - zeta[j]) * f_j).real / (N * N)
                evals += 1
                x = -beta * delta
                if x >= 0 or rng.random() < math.exp(x):
                    zeta[j] = new
                    current += delta
                    if better(current, best):
                        best, best_z = current, zeta.copy()
    state = PolarState(table.n, moduli, best_z)
    return pi_me_uniform(state), state, evals


def anneal(
    n: int, config: AnnealConfig, table: Optional[CouplingTable] = None
) -> SearchReport:
    """Metropolis annealing of the potential over uniform states.

    Moves are single-site sign flips or phase rotations by a uniform angle
    in [-max_angle, max_angle]; a move is accepted with probability
    min(1, exp(-beta * delta)), so negative beta drives the walk uphill.
    Replicas start from independent random states on seeds spawned
    deterministically from config.seed and run sequentially; the reported
    best is re-verified by a full evaluation of the best state.
    """
    if n < 2:
        raise ValueError("annealing requires n >= 2")
    start = time.perf_counter()
    table = _resolve_table(n, table)
    objective = config.objective
    better = (lambda a, b: a < b) if objective == "minimize" else (lambda a, b: a > b)
    seeds = np.random.SeedSequence(config.seed).spawn(config.replicas)
    runner = _anneal_signs if config.move == "sign_flip" else _anneal_phases
    replica_values: list[float] = []
    best_value: Optional[float] = None
    best_state: Union[SignVector, PolarState, None] = None
    evaluations = 0
    for seq in seeds:
        value, state, evals = runner(np.random.default_rng(seq), config, table, better)
        replica_values.append(value)
        evaluations += evals
        if best_value is None or better(value, best_value):
            best_value, best_state = value, state
    samples: tuple[SignVector, ...] = ()
    exact = None
    if isinstance(best_state, SignVector):
        samples = (best_state,)
        exact = energy_uniform_exact(best_state)
    return SearchReport(
        n=n,
        mode="anneal",
        min_value=best_value,
        minimizer_count=None,
        sample_minimizers=samples,
        evaluations=evaluations,
        wall_time=time.perf_counter() - start,
        min_value_exact=exact,
        objective=objective,
        replica_best_values=tuple(replica_values),
        best_state=best_state,
    )
