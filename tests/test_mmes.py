"""Perfect-state verification: populations, marginals, Walsh analysis, catalog.

Oracles: dictionary-accumulation marginals, a quadratic-time transform with
explicit parity signs, and direct purity computation for every verdict.
"""

import itertools
import math

import numpy as np
import pytest

from helpers import (
    loop_marginal_gap, naive_wht, parity_population_from_walsh, parity_walsh_coefficients, place_bits,
    unit_phases,
)
from mmeskit import (
    PopulationVector,
    PureState,
    QubitMask,
    SignVector,
    WalshCoefficients,
    catalog,
    catalog_sign_vector,
    energy_uniform_exact,
    equation_variable_counts,
    free_coefficient_count,
    fully_factorized,
    ghz,
    is_perfect_mmes,
    marginal,
    marginal_uniformity_gap,
    phase_equation_residual,
    pi_me_form2,
    population,
    population_from_walsh,
    purity_form2,
    random_state,
    uniform_from_signs,
    walsh_coefficients,
    weight,
)
from mmeskit import bipartite
from mmeskit.mmes import CATALOG_NAMES


def marginal_oracle(P, qubits, n):
    """Accumulate marginal probabilities label by label."""
    rest = tuple(q for q in range(1, n + 1) if q not in qubits)
    out = np.zeros(1 << len(qubits))
    for a in range(len(out)):
        ka = place_bits(n, qubits, a)
        for e in range(1 << len(rest)):
            out[a] += P.probabilities[ka | place_bits(n, rest, e)]
    return out


def random_population(n, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.1, 1.0, 1 << n)
    return PopulationVector(n, p / p.sum())


class TestPopulation:
    def test_ghz_population(self):
        P = population(ghz(3))
        assert np.allclose(P.probabilities, [0.5, 0, 0, 0, 0, 0, 0, 0.5])

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            PopulationVector(1, np.array([1.5, -0.5]))

    def test_rejects_wrong_total(self):
        with pytest.raises(ValueError):
            PopulationVector(1, np.array([0.6, 0.6]))

    def test_refuses_nan_entries(self):
        with pytest.raises(ValueError, match="negative entry nan"):
            PopulationVector(1, np.array([np.nan, np.nan]))
        with pytest.raises(ValueError, match="negative entry nan"):
            PopulationVector(1, np.array([1.0, np.nan]))

    def test_clamps_rounding_noise(self):
        P = PopulationVector(1, np.array([1.0 + 5e-13, -5e-13]))
        assert P.probabilities[1] == 0.0


class TestMarginal:
    def test_ghz_single_qubit_marginal_is_flat(self):
        P = population(ghz(3))
        for q in (1, 2, 3):
            m = marginal(P, QubitMask.from_qubits((q,), 3))
            assert np.allclose(m.probabilities, [0.5, 0.5])

    def test_basis_state_marginal_is_deterministic(self):
        P = population(fully_factorized([(1, 0), (0, 1)]))
        m = marginal(P, QubitMask.from_qubits((2,), 2))
        assert np.allclose(m.probabilities, [0.0, 1.0])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_dictionary_oracle(self, n):
        P = random_population(n, n)
        for r in range(1, n):
            for qubits in itertools.combinations(range(1, n + 1), r):
                m = marginal(P, QubitMask.from_qubits(qubits, n))
                assert np.allclose(m.probabilities, marginal_oracle(P, qubits, n), atol=1e-13)

    def test_full_subset_returns_the_population(self):
        P = random_population(3, 9)
        assert np.allclose(marginal(P, 0b111).probabilities, P.probabilities)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            marginal(random_population(3, 9), 0)


class TestWalsh:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_transform_matches_quadratic_oracle(self, n):
        from mmeskit.mmes import _fwht

        rng = np.random.default_rng(n)
        vec = rng.standard_normal(1 << n)
        assert np.allclose(_fwht(vec), naive_wht(vec), atol=1e-10)

    def test_transform_is_a_scaled_involution(self):
        from mmeskit.mmes import _fwht

        rng = np.random.default_rng(7)
        vec = rng.standard_normal(16)
        assert np.allclose(_fwht(_fwht(vec)), 16 * vec, atol=1e-10)

    def test_ghz_coefficients(self):
        c = walsh_coefficients(population(ghz(3)))
        expect = np.zeros(8)
        expect[[0, 3, 5, 6]] = 0.125  # even-size subsets of the last two labels paired
        assert np.allclose(c.values, expect, atol=1e-14)

    def test_basis_state_coefficients_alternate(self):
        P = population(fully_factorized([(1, 0)] * 3))
        c = walsh_coefficients(P)
        expect = np.array([(-1) ** weight(T) / 8.0 for T in range(8)])
        assert np.allclose(c.values, expect, atol=1e-14)

    def test_constant_term_is_fixed(self):
        c = walsh_coefficients(random_population(4, 11))
        assert c.constant == pytest.approx(2.0 ** -4)
        assert c.coefficient(0) == c.constant
        with pytest.raises(ValueError):
            WalshCoefficients(2, np.array([0.5, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_roundtrip_through_coefficients(self, n):
        P = random_population(n, 20 + n)
        back = population_from_walsh(walsh_coefficients(P))
        assert np.allclose(back.probabilities, P.probabilities, atol=1e-12)

    # the populations of random, uniform and basis states at every n up to 16
    @pytest.mark.parametrize("n", range(1, 17))
    def test_transforms_are_the_parity_table_bit_for_bit(self, n):
        N = 1 << n
        populations = [population(random_state(n, seed)) for seed in (0, 1)]
        populations.append(PopulationVector(n, np.full(N, 1.0 / N)))
        for k in sorted({0, N // 3, N - 1}):
            populations.append(PopulationVector(n, np.eye(1, N, k)[0]))
        for P in populations:
            ours, table = walsh_coefficients(P).values, parity_walsh_coefficients(P)
            # the table's -1 gave an exact zero coefficient (uniform P, odd
            # |T|) the sign -0.0; every other bit is the same
            assert (ours + 0.0).tobytes() == (table + 0.0).tobytes()
            for c in (ours, table):
                back = population_from_walsh(WalshCoefficients(n, c)).probabilities
                assert back.tobytes() == parity_population_from_walsh(WalshCoefficients(n, c)).tobytes()

    def test_refuses_nan_coefficients(self):
        with pytest.raises(ValueError, match="constant coefficient"):
            WalshCoefficients(2, np.full(4, np.nan))
        values = np.array([0.25, np.nan, 0.0, 0.0])
        with pytest.raises(ValueError, match="reconstruct probabilities"):
            population_from_walsh(WalshCoefficients(2, values))

    def test_rejects_coefficients_outside_probability_range(self):
        values = np.zeros(4)
        values[0] = 0.25
        values[1] = 10.0
        with pytest.raises(ValueError):
            population_from_walsh(WalshCoefficients(2, values))


class TestGaps:
    def test_basis_state_has_maximal_marginal_gap(self):
        st = fully_factorized([(1, 0), (1, 0)])
        assert marginal_uniformity_gap(population(st)) == pytest.approx(0.5)

    def test_ghz4_gap(self):
        assert marginal_uniformity_gap(population(ghz(4))) == pytest.approx(0.25)

    def test_perfect_states_have_flat_marginals(self):
        for name in ("five_perfect", "six_perfect"):
            st = uniform_from_signs(catalog_sign_vector(name))
            assert marginal_uniformity_gap(population(st)) <= 1e-12

    @pytest.mark.parametrize("budget", [None, 1, 1 << 40], ids=["default", "one-marginal", "one-stack"])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_stacked_marginal_gap_is_the_per_subset_loop_bit_for_bit(self, n, budget, monkeypatch):
        # budget 1 stacks one marginal at a time, 2^40 every marginal of a size
        if budget is not None:
            monkeypatch.setattr(bipartite, "CHUNK_BYTES", budget)
        P = population(random_state(n, 30 + n))
        assert marginal_uniformity_gap(P) == loop_marginal_gap(P)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_sign_state_gaps_are_the_per_subset_loop_bit_for_bit(self, n):
        # even-n sign states are exactly uniform and skip the reductions;
        # odd-n ones (p = 0.031249999999999993 at n = 5) are not
        signs = np.random.default_rng(60 + n).choice((-1, 1), size=1 << n)
        for sv in (SignVector(n, signs), SignVector(n, np.ones(1 << n)), SignVector(n, -np.ones(1 << n))):
            P = population(uniform_from_signs(sv))
            assert (P.probabilities == 2.0**-n).all() == (n % 2 == 0)
            assert marginal_uniformity_gap(P) == loop_marginal_gap(P)
        P = population(random_state(n, 70 + n))
        assert marginal_uniformity_gap(P) == loop_marginal_gap(P) > 0

    def test_bell_pair_solves_the_phase_conditions(self):
        assert phase_equation_residual(ghz(2)) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_marginals_have_zero_phase_residual(self):
        st = fully_factorized([(1, 0), (1, 0)])
        assert phase_equation_residual(st) == pytest.approx(0.0, abs=1e-14)

    def test_best_four_qubit_state_fails_only_the_phase_conditions(self):
        st = uniform_from_signs(catalog_sign_vector("four_best"))
        assert marginal_uniformity_gap(population(st)) <= 1e-12
        assert phase_equation_residual(st) == pytest.approx(0.25, abs=1e-12)


class TestVerdict:
    def test_ghz3_is_perfect(self):
        v = is_perfect_mmes(ghz(3))
        assert v.is_perfect
        assert v.worst_purity_gap <= 1e-12

    def test_ghz4_is_not_perfect(self):
        v = is_perfect_mmes(ghz(4))
        assert not v.is_perfect
        assert v.worst_purity_gap == pytest.approx(0.25, abs=1e-12)
        assert v.worst_marginal_gap == pytest.approx(0.25, abs=1e-12)

    def test_perfect_catalog_entries(self):
        rng = np.random.default_rng(13)
        entries = [
            catalog("bell_family", phases=unit_phases(rng, 3)),
            catalog("ghz", n=3),
            catalog("three_family", rotation=1, phases=unit_phases(rng, 5)),
            uniform_from_signs(catalog_sign_vector("five_perfect")),
            uniform_from_signs(catalog_sign_vector("six_perfect")),
        ]
        for st in entries:
            assert is_perfect_mmes(st).is_perfect

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-15, math.inf, True, False, "1", "0", 1 + 0j, None])
    def test_rejects_bad_tolerances(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            is_perfect_mmes(ghz(3), tol=tol)

    def test_zero_tolerance_is_accepted(self):
        assert is_perfect_mmes(ghz(3), tol=0.0).tolerance == 0.0

    def test_best_four_qubit_state_is_not_perfect(self):
        v = is_perfect_mmes(uniform_from_signs(catalog_sign_vector("four_best")))
        assert not v.is_perfect
        assert v.worst_purity_gap == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_three_checkers_agree(self, n):
        for seed in range(30):
            st = random_state(n, 500 * n + seed)
            v = is_perfect_mmes(st)
            lhs = v.worst_purity_gap <= 1e-10
            rhs = v.worst_marginal_gap <= 1e-9 and v.worst_phase_residual <= 1e-9
            assert lhs == rhs

    def test_low_order_walsh_coefficients_vanish_for_perfect_states(self):
        for name in ("five_perfect", "six_perfect"):
            st = uniform_from_signs(catalog_sign_vector(name))
            c = walsh_coefficients(population(st))
            for T in range(1, st.dim):
                if 1 <= weight(T) <= st.n // 2:
                    assert abs(c.values[T]) <= 1e-12


class TestEquationCounts:
    @pytest.mark.parametrize(
        "n,row",
        [(2, (4, 5)), (3, (6, 12)), (4, (72, 21)), (5, (120, 48)),
         (6, (1120, 86)), (7, (1960, 192)), (8, (16800, 349))],
    )
    def test_table_rows(self, n, row):
        assert equation_variable_counts(n) == row

    def test_unknowns_are_the_free_coefficients_plus_the_amplitudes(self):
        for n in range(2, 65):
            assert equation_variable_counts(n)[1] == free_coefficient_count(n) + 2**n

    @pytest.mark.parametrize("n", range(2, 11))
    def test_free_coefficients_match_subset_enumeration(self, n):
        brute = sum(1 for T in range(1 << n) if weight(T) > n / 2)
        assert free_coefficient_count(n) == brute


class TestCatalog:
    def test_names(self):
        assert CATALOG_NAMES == (
            "bell_family", "ghz", "three_family", "four_best", "five_perfect", "six_perfect",
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            catalog("seven_wonders")
        with pytest.raises(ValueError):
            catalog_sign_vector("bell_family")

    def test_leftover_parameters_rejected(self):
        with pytest.raises(ValueError):
            catalog("ghz", n=3, rotation=1)

    def test_integer_parameters_are_not_truncated(self):
        assert catalog("ghz", n=np.int64(4)).n == 4
        assert np.array_equal(catalog("three_family", rotation=np.int8(1)).amplitudes,
                              catalog("three_family", rotation=1).amplitudes)
        for name, param, value in (("ghz", "n", 3.9), ("ghz", "n", "5"), ("ghz", "n", 4.0),
                                   ("three_family", "rotation", 1.7),
                                   ("three_family", "rotation", True)):
            with pytest.raises(ValueError, match=f"{param} must be an integer, got {value!r}"):
                catalog(name, **{param: value})

    def test_non_unit_phases_rejected(self):
        with pytest.raises(ValueError):
            catalog("bell_family", phases=(1.0, 0.5, 1.0))
        with pytest.raises(ValueError, match="unit modulus"):
            catalog("bell_family", phases=(1.0, complex(float("nan"), 0.0), 1.0))
        for bad in ("1", True, None):
            with pytest.raises(ValueError, match=r"^phase 0 must be a number"):
                catalog("bell_family", phases=(bad, 1, 1))

    def test_bell_family_closure(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            st = catalog("bell_family", phases=unit_phases(rng, 3))
            z = st.amplitudes * 2.0
            assert abs(z[0b00] * z[0b11] + z[0b01] * z[0b10]) < 1e-13
            assert pi_me_form2(st) == pytest.approx(0.5, abs=1e-13)

    def test_three_family_is_perfect_for_all_rotations(self):
        rng = np.random.default_rng(18)
        for rotation in (0, 1, 2):
            st = catalog("three_family", rotation=rotation, phases=unit_phases(rng, 5))
            assert pi_me_form2(st) == pytest.approx(0.5, abs=1e-13)
            assert is_perfect_mmes(st).is_perfect

    def test_three_family_rotations_permute_labels(self):
        st0 = catalog("three_family")
        st1 = catalog("three_family", rotation=1)
        assert not np.allclose(st0.amplitudes, st1.amplitudes)
        assert pi_me_form2(st1) == pytest.approx(pi_me_form2(st0), abs=1e-13)

    def test_rejects_invalid_rotation(self):
        with pytest.raises(ValueError):
            catalog("three_family", rotation=3)

    def test_sign_vector_energies(self):
        from fractions import Fraction

        targets = {"four_best": Fraction(1, 3), "five_perfect": Fraction(1, 4),
                   "six_perfect": Fraction(1, 8)}
        for name, value in targets.items():
            assert energy_uniform_exact(catalog_sign_vector(name)) == value

    def test_catalog_states_are_balanced_purity_extremal(self):
        # every balanced marginal of a perfect entry attains the floor
        st = uniform_from_signs(catalog_sign_vector("six_perfect"))
        from mmeskit import balanced_bipartitions

        for A in balanced_bipartitions(6):
            assert purity_form2(st, A) == pytest.approx(0.125, abs=1e-12)
