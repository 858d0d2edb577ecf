"""Reduced density matrices, purities, Schmidt spectra, bipartite measures.

Oracle: explicit partial-trace summation over complement labels (helpers),
plus eigenvalue identities that tie every code path to the same spectrum.
"""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from helpers import (
    haar_unitary, loop_purity_form2, loop_purity_uniform, matricize, naive_purity,
    naive_reduced_density
)
from mmeskit import bitspace
from mmeskit import (
    DensityMatrix,
    NORM_TOL,
    PureState,
    SchmidtSpectrum,
    QubitMask,
    SignVector,
    apply_single_qubit_unitary,
    bipartite_term_counts,
    entanglement_E,
    fully_factorized,
    ghz,
    linear_entropy_L,
    max_entangled_state,
    permute_qubits,
    polar,
    purity_form1,
    purity_form2,
    purity_uniform,
    random_phases,
    random_state,
    reduced_density_matrix,
    schmidt_spectrum,
    assemble,
    uniform_from_signs,
)


def proper_subsets(n):
    labels = range(1, n + 1)
    for r in range(1, n):
        yield from itertools.combinations(labels, r)


def bell_pair():
    return ghz(2)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_refuses_nan_entries(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.full((2, 2), np.nan, dtype=complex))
        # one NaN on the diagonal, though m - m^H is zero everywhere else
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.diag([np.nan, 1.0]).astype(complex))

    def test_trace_band_is_the_state_band(self):
        # a PureState's squared norm may miss 1 by 3 NORM_TOL, and so may the
        # trace of each of its reduced matrices
        DensityMatrix(np.diag([0.5 + 2.9 * NORM_TOL, 0.5]).astype(complex))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.5 + 3.1 * NORM_TOL, 0.5]).astype(complex))

    def test_purity_and_eigenvalues(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
        assert rho.purity() == pytest.approx(0.625)
        assert np.allclose(rho.eigenvalues(), [0.75, 0.25])  # descending

    def test_validate_rejects_negative_eigenvalue(self):
        rho = DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(ValueError):
            rho.validate()

    def test_validate_returns_the_spectrum_it_checked(self):
        rho = reduced_density_matrix(random_state(4, 2), QubitMask.from_qubits((1, 3), 4))
        assert np.array_equal(rho.validate(), rho.eigenvalues())

    def test_schmidt_spectrum_refuses_through_validate(self, monkeypatch):
        st, A = random_state(3, 4), QubitMask.from_qubits((1,), 3)
        w = DensityMatrix.eigenvalues
        monkeypatch.setattr(DensityMatrix, "eigenvalues", lambda rho: np.append(w(rho)[:-1], -1.1e-10))
        with pytest.raises(ValueError, match=r"^density matrix has negative eigenvalue -1\.100e-10$"):
            schmidt_spectrum(st, A)

    def test_entries_read_only(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 9.0


class TestReducedDensityMatrix:
    def test_bell_marginal_is_maximally_mixed(self):
        rho = reduced_density_matrix(bell_pair(), QubitMask.from_qubits((1,), 2))
        assert np.allclose(rho.entries, np.eye(2) / 2)

    def test_product_state_marginal_is_pure(self):
        st = fully_factorized([(1, 0), (1, 0)])
        rho = reduced_density_matrix(st, QubitMask.from_qubits((2,), 2))
        assert np.allclose(rho.entries, [[1, 0], [0, 0]])

    def test_ghz_pair_marginal(self):
        rho = reduced_density_matrix(ghz(3), QubitMask.from_qubits((1, 2), 3))
        assert np.allclose(rho.entries, np.diag([0.5, 0, 0, 0.5]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_naive_partial_trace(self, n):
        for seed in range(3):
            st = random_state(n, 100 * n + seed)
            for qubits in proper_subsets(n):
                got = reduced_density_matrix(st, QubitMask.from_qubits(qubits, n))
                want = naive_reduced_density(st, qubits)
                assert np.allclose(got.entries, want, atol=1e-13)

    def test_rejects_empty_and_full_subsets(self):
        with pytest.raises(ValueError):
            reduced_density_matrix(ghz(2), 0b00)
        with pytest.raises(ValueError):
            reduced_density_matrix(ghz(2), 0b11)


class TestNearNormalizedStates:
    """PureState admits a squared norm within 3 NORM_TOL of 1, and every
    reduced quantity of such a state is computed, not refused."""

    @pytest.mark.parametrize("measure", [purity_form1, schmidt_spectrum, entanglement_E, linear_entropy_L])
    @pytest.mark.parametrize("excess", [2.9e-12, -2.9e-12, 1.5e-12])
    @pytest.mark.parametrize("n", [2, 4, 8, 12])
    def test_reduced_quantities_accept_admitted_states(self, n, excess, measure):
        amp = random_state(n, 50 + n).amplitudes
        st = PureState(n, amp * math.sqrt((1 + excess) / np.vdot(amp, amp).real))
        A = QubitMask.from_qubits(range(1, n // 2 + 1), n)
        trace = np.trace(reduced_density_matrix(st, A).entries).real
        assert abs(trace - 1 - excess) < 1e-14
        got = measure(st, A)
        want = measure(random_state(n, 50 + n), A)
        if measure is schmidt_spectrum:
            got, want = got.all_values, want.all_values
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def sample_subsets(n, rng, count=6):
    """Every proper subset for n <= 4; otherwise sizes 1, n/2 and n - 1 and random others."""
    if n <= 4:
        return [QubitMask.from_qubits(q, n) for q in proper_subsets(n)]
    sizes = [1, n // 2, n - 1] + [int(x) for x in rng.integers(1, n, count - 3)]
    return [QubitMask.from_qubits(rng.choice(np.arange(1, n + 1), k, replace=False), n) for k in sizes]


class TestBlockedXorSums:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_purity_form2_is_the_per_h_loop_bit_for_bit(self, n):
        rng = np.random.default_rng(300 + n)
        for seed in range(2):
            st = random_state(n, 3000 + 10 * n + seed)
            for A in sample_subsets(n, rng):
                assert purity_form2(st, A) == loop_purity_form2(st, A)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_purity_uniform_is_the_per_pair_loop(self, n):
        # purity_uniform reads the Gram core; the paper's per-pair XOR loop
        # is its oracle, within 1e-12
        rng = np.random.default_rng(400 + n)
        signs = rng.choice((-1.0, 1.0), size=1 << n)
        for p in (random_phases(n, 4000 + n), polar(uniform_from_signs(SignVector(n, signs)))):
            for A in sample_subsets(n, rng):
                assert purity_uniform(p, A) == pytest.approx(loop_purity_uniform(p.phases, n, A), abs=1e-12)


class TestPurity:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_both_forms_match_spectrum(self, n):
        for seed in range(4):
            st = random_state(n, 10 * n + seed)
            for qubits in proper_subsets(n):
                A = QubitMask.from_qubits(qubits, n)
                p1 = purity_form1(st, A)
                p2 = purity_form2(st, A)
                spec = schmidt_spectrum(st, A).purity()
                assert p1 == pytest.approx(p2, abs=1e-12)
                assert p1 == pytest.approx(spec, abs=1e-10)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_naive_oracle(self, n):
        st = random_state(n, n)
        for qubits in proper_subsets(n):
            assert purity_form2(st, QubitMask.from_qubits(qubits, n)) == pytest.approx(
                naive_purity(st, qubits), abs=1e-12
            )

    def test_equal_for_complementary_parties(self):
        st = random_state(5, 77)
        for qubits in proper_subsets(5):
            A = QubitMask.from_qubits(qubits, 5)
            assert purity_form2(st, A) == pytest.approx(purity_form2(st, A.complement()), abs=1e-12)

    def test_bounds(self):
        for seed in range(5):
            st = random_state(4, seed)
            for qubits in proper_subsets(4):
                p = purity_form2(st, QubitMask.from_qubits(qubits, 4))
                dim_small = 1 << min(len(qubits), 4 - len(qubits))
                assert 1.0 / dim_small - 1e-12 <= p <= 1.0 + 1e-12


class TestSchmidt:
    def test_bell_spectrum(self):
        spec = schmidt_spectrum(bell_pair(), QubitMask.from_qubits((1,), 2))
        assert np.allclose(spec.values, [0.5, 0.5])

    def test_spectrum_refuses_nan_values(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SchmidtSpectrum((0.5, float("nan")))

    def test_product_state_has_single_coefficient(self):
        st = fully_factorized([(1, 0), (0, 1), (1, 0)])
        spec = schmidt_spectrum(st, QubitMask.from_qubits((1, 3), 3))
        assert spec.values == pytest.approx((1.0,))
        assert len(spec.zeros) == 3

    def test_complementary_parties_share_nonzero_spectrum(self):
        st = random_state(5, 21)
        A = QubitMask.from_qubits((1, 4), 5)
        a = schmidt_spectrum(st, A).values
        b = schmidt_spectrum(st, A.complement()).values
        assert len(a) == len(b)
        assert np.allclose(a, b, atol=1e-10)

    def test_padded_length_matches_party_dimension(self):
        st = random_state(4, 22)
        A = QubitMask.from_qubits((1, 2, 3), 4)
        spec = schmidt_spectrum(st, A)
        assert len(spec.all_values) == 8
        assert sum(spec.all_values) == pytest.approx(1.0, abs=1e-10)


class TestEntanglementMeasures:
    def test_product_state_measures_vanish(self):
        st = fully_factorized([(1, 0), (0, 1), (1, 0)])
        for qubits in proper_subsets(3):
            A = QubitMask.from_qubits(qubits, 3)
            assert entanglement_E(st, A) == pytest.approx(0.0, abs=1e-12)
            assert linear_entropy_L(st, A) == pytest.approx(0.0, abs=1e-12)

    def test_bell_pair_is_maximal(self):
        A = QubitMask.from_qubits((1,), 2)
        assert entanglement_E(bell_pair(), A) == pytest.approx(1.0)
        assert linear_entropy_L(bell_pair(), A) == pytest.approx(1.0)

    def test_ghz_values_scale_with_party_dimension(self):
        # both measures normalize by the literal party dimension 2^|A|,
        # so complementary parties of GHZ(3) score differently
        pair = QubitMask.from_qubits((1, 2), 3)
        single = QubitMask.from_qubits((3,), 3)
        assert entanglement_E(ghz(3), pair) == pytest.approx(2.0 / 3.0)
        assert linear_entropy_L(ghz(3), pair) == pytest.approx(2.0 / 3.0)
        assert entanglement_E(ghz(3), single) == pytest.approx(1.0)
        assert linear_entropy_L(ghz(4), QubitMask.from_qubits((1, 2), 4)) == pytest.approx(2.0 / 3.0)

    def test_max_entangled_state_saturates(self):
        rng = np.random.default_rng(3)
        A = QubitMask.from_qubits((2, 3), 5)
        st = max_entangled_state(A, u_a=haar_unitary(4, rng), u_abar=haar_unitary(8, rng))
        assert entanglement_E(st, A) == pytest.approx(1.0, abs=1e-11)
        assert linear_entropy_L(st, A) == pytest.approx(1.0, abs=1e-11)


class TestTermCounts:
    @pytest.mark.parametrize(
        "n,na,expect",
        [(2, 1, (4, 8, 4)), (4, 2, (16, 96, 144)), (3, 1, (8, 32, 24))],
    )
    def test_known_rows(self, n, na, expect):
        assert bipartite_term_counts(n, na) == expect

    @pytest.mark.parametrize("n", range(2, 9))
    def test_total_is_fourth_power_of_dimension(self, n):
        for na in range(1, n):
            assert sum(bipartite_term_counts(n, na)) == 1 << (2 * n)

    def test_rejects_improper_split(self):
        with pytest.raises(ValueError):
            bipartite_term_counts(3, 0)
        with pytest.raises(ValueError):
            bipartite_term_counts(3, 3)
        for n_a in (2.0, True):
            with pytest.raises(ValueError, match=rf"^subset size must be an integer, got {n_a!r}$"):
                bipartite_term_counts(4, n_a)


class TestUniformPurity:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_general_path_on_uniform_states(self, n):
        p = random_phases(n, 50 + n)
        st = assemble(p)
        for qubits in proper_subsets(n):
            A = QubitMask.from_qubits(qubits, n)
            assert purity_uniform(p, A) == pytest.approx(purity_form2(st, A), abs=1e-12)

    def test_rejects_non_uniform_moduli(self):
        with pytest.raises(ValueError):
            purity_uniform(polar(ghz(3)), QubitMask.from_qubits((1,), 3))


def all_plus(n):
    return uniform_from_signs(SignVector(n, np.ones(1 << n, dtype=np.int8)))


def traced(call):
    """(what call raised, seconds, tracemalloc peak in bytes)."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError) as info:
            call()
        return str(info.value), time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSizeGates:
    """Sizes refused before any work: a reduced density matrix over 1 GiB
    (|A| > 12), and the XOR purity sum past n = 12."""

    MATRIX = "the reduced density matrix of 13 qubits would take 4.3 GB, over the 1 GiB limit"

    @pytest.mark.parametrize("measure", [
        reduced_density_matrix, purity_form1, schmidt_spectrum, entanglement_E, linear_entropy_L, purity_uniform,
    ])
    def test_a_thirteen_qubit_side_is_refused_at_once(self, measure):
        state = all_plus(14)
        if measure is purity_uniform:
            state = polar(state)
        A = QubitMask.from_qubits(tuple(range(1, 14)), 14)
        message, seconds, peak = traced(lambda: measure(state, A))
        assert message == self.MATRIX
        assert seconds < 1.0 and peak < 1 << 20

    def test_the_gate_counts_four_matrices(self, monkeypatch):
        # at 64 N_A^2 bytes over a limit of 2^12, |A| = 3 runs and 4 is refused
        monkeypatch.setattr(bitspace, "MAX_TABLE_BYTES", 64 << 6)
        state = random_state(6, 0)
        assert purity_form1(state, 0b000111) == pytest.approx(naive_purity(state, (4, 5, 6)), abs=1e-12)
        with pytest.raises(ValueError, match="^the reduced density matrix of 4 qubits would take 0.0 GB"):
            purity_form1(state, 0b001111)

    @pytest.mark.parametrize("size", [8, 9])
    def test_the_count_bounds_the_peak(self, size):
        state = random_state(10, size)
        A = QubitMask.from_qubits(tuple(range(1, size + 1)), 10)
        tracemalloc.start()
        try:
            purity_form1(state, A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (64 << 2 * size) + (256 << 10)

    def test_improper_masks_are_refused_first(self):
        with pytest.raises(ValueError, match="nonempty proper subset"):
            purity_form1(all_plus(14), (1 << 14) - 1)
        with pytest.raises(ValueError, match="nonempty proper subset"):
            purity_form2(all_plus(13), 0)

    def test_the_xor_sum_is_refused_past_twelve_qubits(self):
        state = all_plus(13)
        message, seconds, peak = traced(lambda: purity_form2(state, 1))
        assert message == "the XOR quadruple sum over 4^13 terms is out of reach; n <= 12"
        assert seconds < 1.0 and peak < 1 << 20

    def test_the_xor_sum_runs_at_twelve_qubits(self):
        state = random_state(12, 0)
        A = QubitMask.from_qubits((2, 3, 5, 7, 11), 12)
        assert purity_form2(state, A) == pytest.approx(purity_form1(state, A), abs=1e-12)


class TestSymmetries:
    def test_purity_is_permutation_covariant(self):
        st = random_state(4, 5)
        perm = (3, 1, 4, 2)  # new qubit i carries old qubit perm[i-1]
        new = permute_qubits(st, perm)
        for qubits in [(1,), (2, 3), (1, 4), (2,)]:
            mapped = tuple(sorted(perm[i - 1] for i in qubits))
            got = purity_form2(new, QubitMask.from_qubits(qubits, 4))
            want = purity_form2(st, QubitMask.from_qubits(mapped, 4))
            assert got == pytest.approx(want, abs=1e-12)

    def test_purity_is_local_unitary_invariant(self):
        rng = np.random.default_rng(8)
        st = random_state(4, 6)
        rotated = st
        for q in range(1, 5):
            rotated = apply_single_qubit_unitary(rotated, q, haar_unitary(2, rng))
        for qubits in proper_subsets(4):
            A = QubitMask.from_qubits(qubits, 4)
            assert purity_form2(rotated, A) == pytest.approx(purity_form2(st, A), abs=1e-11)
