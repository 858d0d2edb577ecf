"""Perfect maximally multipartite entangled states: theory and catalog.

Features:
- population probability vectors and their marginals over any subset
- Walsh analysis of populations: fast transform, subset-indexed
  coefficients, exact reconstruction, and the free-coefficient count
- uniformity diagnostics: worst small-subset marginal gap and the
  off-diagonal phase-equation residual
- perfect-state verdicts keyed to balanced-bipartition purity, with the
  marginal and phase gaps reported as diagnostics
- exact equation/variable counts of the defining system
- a catalog of named optimal states (Bell and three-qubit phase families,
  GHZ, and the best known real uniform states for n = 4, 5, 6), guarded
  by an exact self-check of their potentials
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence, Union

import numpy as np

from ._catalog_data import SIGN_TARGETS
from .bipartite import _balanced_grams, _chunks
from .bitspace import QubitMask, _check_n, _frozen, _index, _real, _whole, as_mask, binomial
from .potential import energy_uniform_exact, pi_me_form1
from .states import PureState, SignVector, ghz, permute_qubits, uniform_from_signs

__all__ = [
    "PopulationVector",
    "WalshCoefficients",
    "MmesVerdict",
    "population",
    "marginal",
    "walsh_coefficients",
    "population_from_walsh",
    "marginal_uniformity_gap",
    "phase_equation_residual",
    "is_perfect_mmes",
    "equation_variable_counts",
    "free_coefficient_count",
    "CATALOG_NAMES",
    "catalog",
    "catalog_sign_vector",
]

POPULATION_TOL = 1e-12
PHASE_UNIT_TOL = 1e-9


@dataclass(eq=False, frozen=True)
class PopulationVector:
    """Probability distribution P(k) = |z_k|^2 over basis labels.

    Entries are nonnegative and sum to 1 within 1e-12; negative noise
    above -1e-12 from upstream float arithmetic is clamped to 0.
    """

    n: int
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _check_n(self.n))
        p = np.array(self.probabilities, dtype=np.float64, order="C")
        if p.shape != (1 << self.n,):
            raise ValueError(f"population vector must have length {1 << self.n}")
        if not float(np.min(p)) >= -POPULATION_TOL:
            raise ValueError(f"population has negative entry {float(np.min(p)):.3e}")
        if not abs(math.fsum(p.tolist()) - 1.0) <= 1e-10:
            raise ValueError("population does not sum to 1")
        p = np.where(p < 0.0, 0.0, p)
        object.__setattr__(self, "probabilities", _frozen(p))


@dataclass(eq=False, frozen=True)
class WalshCoefficients:
    """Expansion of a population in products of (2 k_i - 1) over subsets.

    values[T] is the coefficient c_T of the subset with mask T; values[0]
    is the constant, always 2^(-n) for a normalized population.  The
    reconstruction P(k) = c_0 + sum over nonempty T of c_T prod_{i in T}
    (2 k_i - 1) is exact up to float rounding.
    """

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _check_n(self.n))
        v = np.array(self.values, dtype=np.float64, order="C")
        if v.shape != (1 << self.n,):
            raise ValueError(f"coefficient vector must have length {1 << self.n}")
        if not abs(float(v[0]) - 1.0 / (1 << self.n)) <= POPULATION_TOL:
            raise ValueError("constant coefficient must equal 2^(-n)")
        object.__setattr__(self, "values", _frozen(v))

    @property
    def constant(self) -> float:
        return float(self.values[0])

    def coefficient(self, T: int) -> float:
        """c_T for the subset mask T (T = 0 gives the constant), read by `_index`."""
        return float(self.values[_index(T, "subset mask", self.n)])


@dataclass(frozen=True)
class MmesVerdict:
    """Outcome of the perfect-state check with its three diagnostics.

    is_perfect is decided by worst_purity_gap alone; the marginal and
    phase figures are the two equivalent structural criteria, reported
    for diagnosis.
    """

    is_perfect: bool
    worst_purity_gap: float
    worst_marginal_gap: float
    worst_phase_residual: float
    tolerance: float


def population(state: PureState) -> PopulationVector:
    """Squared-modulus distribution of a pure state."""
    return PopulationVector(state.n, np.abs(state.amplitudes) ** 2)


def marginal(P: PopulationVector, A: Union[QubitMask, int]) -> PopulationVector:
    """Marginal distribution of the qubits in A, over sub-labels of A.

    P_A(l) sums P(k) over all k whose A-part equals l; the result is a
    population vector on |A| qubits.
    """
    mask = as_mask(A, P.n)
    if mask == 0:
        raise ValueError("marginal requires a nonempty subset")
    m = QubitMask(mask, P.n)
    drop = tuple(i - 1 for i in m.complement().qubits())
    out = P.probabilities.reshape((2,) * P.n).sum(axis=drop).reshape(-1)
    return PopulationVector(m.size, out)


def _fwht(vec: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform: out[T] = sum_k (-1)^popcount(k & T) vec[k]."""
    out = np.array(vec, dtype=np.float64)
    h = 1
    while h < out.size:
        out = out.reshape(-1, 2, h)
        x = out[:, 0, :] + out[:, 1, :]
        y = out[:, 0, :] - out[:, 1, :]
        out = np.stack((x, y), axis=1).reshape(-1)
        h *= 2
    return out


def walsh_coefficients(P: PopulationVector) -> WalshCoefficients:
    """Subset-indexed coefficients c_T of a population vector.

    c_T = (-1)^|T| 2^(-n) sum_k (-1)^popcount(k & T) P(k); the constant
    c_0 is 2^(-n) exactly for normalized P.
    """
    # (-1)^|T| (-1)^popcount(k & T) = (-1)^popcount((N - 1 - k) & T): reversed P
    values = _fwht(P.probabilities[::-1]) / (1 << P.n)
    return WalshCoefficients(P.n, values)


def population_from_walsh(c: WalshCoefficients) -> PopulationVector:
    """Reconstruct the population from its subset coefficients.

    Errors when any reconstructed probability falls outside
    [-1e-12, 1 + 1e-12]; inverse of walsh_coefficients up to rounding.
    """
    p = _fwht(c.values)[::-1]  # the sign (-1)^|T| by reversal, as in walsh_coefficients
    lo, hi = float(np.min(p)), float(np.max(p))
    if not -POPULATION_TOL <= lo <= hi <= 1.0 + POPULATION_TOL:
        raise ValueError(f"coefficients reconstruct probabilities in [{lo:.3e}, {hi:.3e}]")
    return PopulationVector(c.n, p)


def marginal_uniformity_gap(P: PopulationVector) -> float:
    """Largest deviation of any small-subset marginal from uniform.

    Maximum over subsets A with 1 <= |A| <= n/2 and sub-labels l of
    |P_A(l) - 2^(-|A|)|, each marginal summed over the complement on its own
    and compared with uniform in stacks of about `bipartite.CHUNK_BYTES`
    per size.  An exactly uniform population (every probability 2^-n, as
    for even-n sign states) gives 0.0 at once: its marginals sum exact
    powers of two, so the reductions would give 0.0 in any order.
    """
    n = P.n
    if n < 2:
        raise ValueError("marginal uniformity requires n >= 2")
    if (P.probabilities == math.ldexp(1.0, -n)).all():
        return 0.0
    t = P.probabilities.reshape((2,) * n)
    gap = 0.0
    for size in range(1, n // 2 + 1):
        flat = 1.0 / (1 << size)
        drops = list(combinations(range(n), n - size))
        for chunk in _chunks(len(drops), 8 << size):  # float64 marginals of 2^size entries
            stack = np.empty((len(drops[chunk]),) + (2,) * size)
            for out, drop in zip(stack, drops[chunk]):
                np.add.reduce(t, axis=drop, out=out)
            stack -= flat
            gap = max(gap, np.abs(stack, out=stack).max())
    return float(gap)


def _balanced_gaps(state: PureState) -> tuple[float, float]:
    """Worst |pi_A - 1/N_A| and worst off-diagonal |rho_A[l, l']| over balanced A.

    Both come from one pass over the balanced Gram matrices (the reduced
    density matrices), with N_A = 2^floor(n/2).
    """
    flat = 1.0 / (1 << (state.n // 2))
    purity_gap = phase_res = 0.0
    for grams in _balanced_grams(state.amplitudes, state.n):
        for rho in grams:
            purity_gap = max(purity_gap, abs(np.vdot(rho, rho).real - flat))
        off = np.abs(grams).reshape(len(grams), -1)
        off[:, :: grams.shape[-1] + 1] = 0.0  # the diagonals
        phase_res = max(phase_res, off.max())
    return float(purity_gap), float(phase_res)


def phase_equation_residual(state: PureState) -> float:
    """Largest off-diagonal magnitude over balanced reduced matrices.

    For each balanced bipartition A, the defining phase conditions state
    that every off-diagonal entry of the reduced matrix vanishes; the
    residual is the worst |rho_A[l, l']| with l != l'.
    """
    return _balanced_gaps(state)[1]


def is_perfect_mmes(state: PureState, tol: float = 1e-9) -> MmesVerdict:
    """Check whether every balanced bipartition is maximally mixed.

    The verdict is keyed to the purity criterion: perfect means
    |pi_A - 1/N_A| <= tol for every balanced A, with N_A = 2^floor(n/2).
    The marginal uniformity gap and phase residual, equivalent conditions
    in exact arithmetic, are reported as diagnostics.  tol must be a
    finite nonnegative real number (not a boolean or a string).
    """
    if state.n < 2:
        raise ValueError("perfect-state check requires n >= 2")
    tol = _real(tol, "tolerance")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol!r}")
    purity_gap, phase_res = _balanced_gaps(state)
    marg_gap = marginal_uniformity_gap(population(state))
    return MmesVerdict(
        is_perfect=purity_gap <= tol,
        worst_purity_gap=purity_gap,
        worst_marginal_gap=marg_gap,
        worst_phase_residual=phase_res,
        tolerance=tol,
    )


def equation_variable_counts(n: int) -> tuple[int, int]:
    """Exact size of the defining system: (equations, real unknowns).

    equations = N_A (N_A - 1) C(n, floor(n/2)) with N_A = 2^floor(n/2);
    unknowns = 3 2^(n-1) - (1 + (-1)^n) C(n, floor(n/2)) / 4, that is
    free_coefficient_count(n) + 2^n.
    """
    n = _check_n(n, low=2)
    n_a_dim = 1 << (n // 2)
    m_e = n_a_dim * (n_a_dim - 1) * binomial(n, n // 2)
    return m_e, free_coefficient_count(n) + (1 << n)


def free_coefficient_count(n: int) -> int:
    """Number of subset masks with |T| > n/2: the unconstrained Walsh
    coefficients of a population with uniform small marginals."""
    n = _check_n(n, low=2)
    return (1 << (n - 1)) - ((1 + (-1) ** n) * binomial(n, n // 2)) // 4


# --- catalog -----------------------------------------------------------------

CATALOG_NAMES = (
    "bell_family",
    "ghz",
    "three_family",
    "four_best",
    "five_perfect",
    "six_perfect",
)

# Cyclic qubit relabelings of the three-qubit family: rotation r sends
# qubit i to qubit r steps later (mod 3).
_C3 = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


def _unit(value: complex, name: str) -> complex:
    if isinstance(value, bool) or not isinstance(value, numbers.Number):
        raise ValueError(f"{name} must be a number, got {value!r}")
    z = complex(value)
    if not abs(abs(z) - 1.0) <= PHASE_UNIT_TOL:
        raise ValueError(f"{name} must have unit modulus, got |{name}| = {abs(z)!r}")
    return z


def _build_bell(phases: Sequence[complex]) -> PureState:
    """Two-qubit family (z00, z01, z10, -conj(z00) z01 z10) / 2.

    The closure phase makes z00 z11 = -z01 z10, which characterizes the
    maximally entangled two-qubit uniform states.
    """
    if len(phases) != 3:
        raise ValueError("bell_family takes exactly 3 phases")
    z00, z01, z10 = (_unit(z, f"phase {i}") for i, z in enumerate(phases))
    amp = np.array([z00, z01, z10, -z00.conjugate() * z01 * z10]) / 2.0
    return PureState(2, amp)


def _build_three(rotation: int, phases: Sequence[complex]) -> PureState:
    """Three-qubit phase family on 5 free unit phases, up to relabeling.

    Base amplitudes, each over sqrt(8), in label order: z1, z2, z3,
    -conj(z1) z2 z3, z4, -conj(z1) z2 z4, z5, +conj(z1) z2 z5.  The
    rotation applies a cyclic qubit relabeling.
    """
    if rotation not in (0, 1, 2):
        raise ValueError("rotation must be 0, 1 or 2")
    if len(phases) != 5:
        raise ValueError("three_family takes exactly 5 phases")
    z1, z2, z3, z4, z5 = (_unit(z, f"phase {i}") for i, z in enumerate(phases))
    c = z1.conjugate() * z2
    amp = np.array([z1, z2, z3, -c * z3, z4, -c * z4, z5, c * z5]) / math.sqrt(8.0)
    state = PureState(3, amp)
    if rotation:
        state = permute_qubits(state, _C3[rotation])
    return state


@lru_cache(maxsize=1)
def _self_test() -> bool:
    """Assert the defining values of every catalog entry once per process.

    Sign entries are checked in exact rational arithmetic; the phase
    families at their reference parameters within 1e-12.
    """
    for name, (signs, target) in SIGN_TARGETS.items():
        got = energy_uniform_exact(SignVector.from_string(signs))
        if got != target:
            raise RuntimeError(f"catalog entry {name} has potential {got}, expected {target}")
    for state in (_build_bell((1, 1, 1)), ghz(3), _build_three(0, (1,) * 5)):
        if abs(pi_me_form1(state) - 0.5) > 1e-12:
            raise RuntimeError("catalog phase family failed its potential check")
    return True


def catalog_sign_vector(name: str) -> SignVector:
    """Sign pattern of a real uniform catalog entry."""
    _self_test()
    if name not in SIGN_TARGETS:
        raise ValueError(f"{name!r} is not a sign-vector catalog entry")
    return SignVector.from_string(SIGN_TARGETS[name][0])


def catalog(name: str, **params) -> PureState:
    """Construct a named optimal state.

    Names: bell_family (phases=(z00, z01, z10)), ghz (n), three_family
    (rotation in {0,1,2}, phases: 5 units), four_best, five_perfect,
    six_perfect.  n and rotation must be integers; booleans, floats and
    strings are refused.  Every call first runs a cached self-check of all
    catalog target values.
    """
    _self_test()
    params = dict(params)
    if name == "bell_family":
        out = _build_bell(params.pop("phases", (1, 1, 1)))
    elif name == "ghz":
        out = ghz(_whole(params.pop("n", 3), "n"))
    elif name == "three_family":
        rotation = _whole(params.pop("rotation", 0), "rotation")
        out = _build_three(rotation, params.pop("phases", (1,) * 5))
    elif name in SIGN_TARGETS:
        out = uniform_from_signs(SignVector.from_string(SIGN_TARGETS[name][0]))
    else:
        raise ValueError(f"unknown catalog name {name!r}; names: {', '.join(CATALOG_NAMES)}")
    if params:
        raise ValueError(f"unexpected catalog parameters: {sorted(params)}")
    return out
