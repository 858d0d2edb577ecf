"""Coupling weights and the averaged-purity potential in all its forms.

Oracles:
  - subset-averaged Kronecker deltas for the coupling function,
  - set-membership quantified over every subsystem for admissibility,
  - canonical-key enumeration of quartic monomials for the count table,
  - the averaged-purity definition itself for the expansion forms.
"""

import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    LoopGramState, all_bipartition_sign_sum, loop_balanced_gaps, loop_balanced_grams,
    loop_pi_me_form2, loop_pi_me_form4, loop_purity_form2, loop_purity_uniform,
    matricize, table_energy_exact, unit_phases
)
from mmeskit import (
    CouplingTable,
    QubitMask,
    SignVector,
    admissible_q,
    assemble,
    avg_linear_entropy,
    balanced_bipartitions,
    build_coupling_table,
    catalog,
    catalog_sign_vector,
    coupling_delta,
    coupling_row_sum,
    energy_uniform_exact,
    flip_delta,
    fully_factorized,
    g,
    g_hat,
    g_hat_dual,
    ghz,
    is_perfect_mmes,
    monomial_counts,
    phase_equation_residual,
    pi_me_form1,
    pi_me_form2,
    pi_me_form4,
    pi_me_uniform,
    polar,
    purity_form2,
    purity_uniform,
    random_phases,
    random_state,
    uniform_from_signs,
    weight,
)
from mmeskit import bipartite, potential
from mmeskit.bipartite import _balanced_grams, _sign_gram_sum
from mmeskit.bitspace import MAX_QUBITS, MAX_TABLE_BYTES
from mmeskit.mmes import _balanced_gaps
from mmeskit.potential import MonomialCounts

EXPECTED_TABLE_SIZES = {2: 2, 3: 12, 4: 42, 5: 170, 6: 500, 7: 1792, 8: 5082}


def delta_oracle(k, k2, l, l2, n, n_a):
    """Average of restriction-matching indicators over subsets of size n_a."""

    def one_sided(a, b, c, d):
        hits = 0
        for qubits in itertools.combinations(range(1, n + 1), n_a):
            A = 0
            for q in qubits:
                A |= 1 << (n - q)
            Ac = A ^ ((1 << n) - 1)
            if (a ^ d) & A == 0 and (b ^ c) & A == 0 and (a ^ c) & Ac == 0 and (b ^ d) & Ac == 0:
                hits += 1
        return Fraction(hits, math.comb(n, n_a))

    return (one_sided(k, k2, l, l2) + one_sided(k2, k, l, l2)) / 2


def admissible_oracle(k, k2, l, l2, n):
    """Does any subsystem (empty and full included) match all four restrictions?"""
    full = (1 << n) - 1
    for A in range(1 << n):
        Ac = A ^ full
        if (k ^ l2) & A == 0 and (k2 ^ l) & A == 0 and (k ^ l) & Ac == 0 and (k2 ^ l2) & Ac == 0:
            return True
    return False


def quartic_monomial_count(n):
    """Count distinct genuinely quartic monomials reachable from the table."""
    table = build_coupling_table(n)
    keys = set()
    for l, m, _ in table.entries:
        for k in range(1 << n):
            plain = tuple(sorted((k, k ^ l ^ m)))
            barred = tuple(sorted((k ^ l, k ^ m)))
            keys.add((min(plain, barred), max(plain, barred)))
    return len(keys)


def modulus_pair_count(n):
    """Count unordered label pairs whose modulus-product term survives averaging."""
    pairs = set()
    for l in range(1, 1 << n):
        if g_hat(weight(l), 0, n, n // 2) == 0:
            continue
        for k in range(1 << n):
            pairs.add((min(k, k ^ l), max(k, k ^ l)))
    return len(pairs)


class TestGHat:
    def test_known_values(self):
        assert g_hat(1, 1, 2, 1) == Fraction(1, 2)
        assert g_hat(1, 1, 3, 1) == Fraction(1, 3)
        assert g_hat(1, 2, 3, 1) == Fraction(1, 6)
        assert g_hat(0, 0, 5, 2) == 1

    def test_vanishes_when_weights_exceed_labels(self):
        assert g_hat(2, 2, 3, 1) == 0
        assert g_hat(4, 1, 4, 2) == 0

    def test_symmetric_in_weights(self):
        for n in range(2, 7):
            for n_a in range(1, n):
                for s in range(n + 1):
                    for t in range(n + 1):
                        assert g_hat(s, t, n, n_a) == g_hat(t, s, n, n_a)

    def test_dual_form_agrees_exactly(self):
        for n in range(2, 11):
            for n_a in range(1, n):
                for s in range(n + 1):
                    for t in range(n + 1):
                        assert g_hat(s, t, n, n_a) == g_hat_dual(s, t, n, n_a)


class TestG:
    def test_zero_on_overlapping_masks(self):
        assert g(0b01, 0b01, 2, 1) == 0
        assert g(0b11, 0b10, 3, 1) == 0

    def test_reduces_to_weight_function_on_disjoint_masks(self):
        for n in (3, 4):
            for a in range(1 << n):
                for b in range(1 << n):
                    if a & b:
                        assert g(a, b, n, n // 2) == 0
                    else:
                        assert g(a, b, n, n // 2) == g_hat(weight(a), weight(b), n, n // 2)


class TestCouplingDelta:
    def test_diagonal_is_one(self):
        for n in (2, 3, 4):
            for k in range(1 << n):
                assert coupling_delta(k, k, k, k, n, n // 2) == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive_against_subset_average(self, n):
        n_a = n // 2
        for k, k2, l, l2 in itertools.product(range(1 << n), repeat=4):
            assert coupling_delta(k, k2, l, l2, n, n_a) == delta_oracle(k, k2, l, l2, n, n_a)

    def test_random_against_subset_average(self):
        rng = np.random.default_rng(0)
        for n in (4, 5):
            for n_a in range(1, n):
                for _ in range(200):
                    k, k2, l, l2 = (int(x) for x in rng.integers(0, 1 << n, 4))
                    assert coupling_delta(k, k2, l, l2, n, n_a) == delta_oracle(k, k2, l, l2, n, n_a)

    def test_symmetries(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            n_a = int(rng.integers(1, n))
            k, k2, l, l2 = (int(x) for x in rng.integers(0, 1 << n, 4))
            base = coupling_delta(k, k2, l, l2, n, n_a)
            assert coupling_delta(k2, k, l, l2, n, n_a) == base
            assert coupling_delta(l, l2, k, k2, n, n_a) == base


class TestAdmissibility:
    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive_against_membership(self, n):
        for k, k2, l, l2 in itertools.product(range(1 << n), repeat=4):
            assert (admissible_q(k, k2, l, l2) == 0) == admissible_oracle(k, k2, l, l2, n)

    def test_inadmissible_quadruples_carry_no_weight(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            n = int(rng.integers(2, 6))
            k, k2, l, l2 = (int(x) for x in rng.integers(0, 1 << n, 4))
            if admissible_q(k, k2, l, l2) != 0:
                assert coupling_delta(k, k2, l, l2, n, n // 2) == 0


class TestCouplingTable:
    def test_two_qubit_table(self):
        table = build_coupling_table(2)
        assert table.entries == ((1, 2, Fraction(1, 2)), (2, 1, Fraction(1, 2)))
        assert table.constant == Fraction(3, 4)
        assert all((4 * w).denominator == 1 for _, _, w in table.entries)  # 4 = 2 C(2, 1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_sizes_and_invariants(self, n):
        table = build_coupling_table(n)
        assert len(table.entries) == EXPECTED_TABLE_SIZES[n]
        assert len(table.entries) == 8 * monomial_counts(n).N4 // (1 << n)
        assert all(l & m == 0 for l, m, _ in table.entries)  # disjoint label pairs
        assert all(l > 0 and m > 0 for l, m, _ in table.entries)
        assert all(isinstance(w, Fraction) and w > 0 for _, _, w in table.entries)
        pairs = [(l, m) for l, m, _ in table.entries]
        assert pairs == sorted(pairs)
        table.validate()

    @pytest.mark.parametrize("n", range(2, 7))
    def test_integer_weights_reconstruct_rationals(self, n):
        scale = 2 * math.comb(n, n // 2)
        for _, _, w in build_coupling_table(n).entries:
            assert (w * scale).denominator == 1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_constant_matches_uniform_baseline(self, n):
        na = n // 2
        expect = Fraction((1 << na) + (1 << (n - na)) - 1, 1 << n)
        assert build_coupling_table(n).constant == expect

    def test_oversized_tables_are_refused_before_building(self):
        from mmeskit.potential import MAX_TABLE_ENTRIES

        assert 8 * monomial_counts(12).N4 >> 12 <= MAX_TABLE_ENTRIES
        for n, count in ((13, 1472198), (16, 38666874)):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=rf"n={n} would hold {count} entries"):
                    build_coupling_table(n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_row_sums_are_exactly_one(self):
        for n in (2, 3, 4, 5):
            for n_a in range(1, n):
                for l in range(1 << n):
                    assert coupling_row_sum(l, n, n_a) == 1


class TestPotentialForms:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_three_forms_agree_on_random_states(self, n):
        for seed in range(5):
            st = random_state(n, 1000 * n + seed)
            f1 = pi_me_form1(st)
            assert abs(f1 - pi_me_form2(st)) <= 1e-12
            assert abs(f1 - pi_me_form4(st)) <= 1e-12

    def test_form1_is_the_balanced_average(self):
        st = random_state(5, 3)
        parts = balanced_bipartitions(5)
        want = sum(purity_form2(st, A) for A in parts) / len(parts)
        assert pi_me_form1(st) == pytest.approx(want, abs=1e-13)

    def test_bell_pair_value(self):
        assert pi_me_form2(ghz(2)) == pytest.approx(0.5, abs=1e-14)

    def test_product_state_value(self):
        st = fully_factorized([(1, 0), (0, 1), (1, 0), (1, 0)])
        assert pi_me_form2(st) == pytest.approx(1.0, abs=1e-13)
        assert pi_me_form4(st) == pytest.approx(1.0, abs=1e-13)

    def test_ghz3_value(self):
        assert pi_me_form2(ghz(3)) == pytest.approx(0.5, abs=1e-14)


class TestBlockedXorSums:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_forms_two_and_four_are_the_per_entry_loops_bit_for_bit(self, n):
        for seed in range(1 if n == 9 else 2):
            st = random_state(n, 5000 + 10 * n + seed)
            assert pi_me_form2(st) == loop_pi_me_form2(st)
            assert pi_me_form4(st) == loop_pi_me_form4(st)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_each_table_entry_keeps_its_own_sum(self, n, monkeypatch):
        # one entry scaled by 2^40 dominates the result, so a change in the
        # last bit of that entry's sum changes the potential
        st = random_state(n, 5500 + n)
        table = build_coupling_table(n)
        for l, m, w in table.entries[:: max(1, len(table.entries) // 8)]:
            one = CouplingTable(n, table.n_a, ((l, m, w * (1 << 40)),), table.constant)
            monkeypatch.setattr(potential, "build_coupling_table", lambda n: one)
            assert pi_me_form2(st) == loop_pi_me_form2(st, one)
            assert pi_me_form4(st) == loop_pi_me_form4(st, one)


class TestUniformPotential:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_general_path_on_phase_states(self, n):
        p = random_phases(n, 900 + n)
        assert pi_me_uniform(p) == pytest.approx(pi_me_form2(assemble(p)), abs=1e-12)

    def test_sign_vector_input_uses_exact_arithmetic(self):
        sv = catalog_sign_vector("four_best")
        assert energy_uniform_exact(sv) == Fraction(1, 3)
        assert pi_me_uniform(sv) == float(Fraction(1, 3))

    def test_known_sign_energies(self):
        assert energy_uniform_exact(SignVector.from_string("+" * 16)) == 1
        assert energy_uniform_exact(SignVector.from_string("-++++++-")) == Fraction(1, 2)
        assert energy_uniform_exact(catalog_sign_vector("five_perfect")) == Fraction(1, 4)
        assert energy_uniform_exact(catalog_sign_vector("six_perfect")) == Fraction(1, 8)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_sign_energy_equals_the_table_expansion_exactly(self, n):
        rng = np.random.default_rng(50 + n)
        for _ in range(4):
            sv = SignVector(n, rng.choice((-1, 1), size=1 << n).astype(np.int8))
            got = energy_uniform_exact(sv)
            assert isinstance(got, Fraction)
            assert got == table_energy_exact(sv)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_paired_sign_sums_equal_the_unpaired_sum_exactly(self, n):
        rng = np.random.default_rng(70 + n)
        signs = rng.choice((-1, 1), size=(2, 3, 1 << n))
        want = [all_bipartition_sign_sum(SignVector(n, s)) for s in signs.reshape(-1, 1 << n)]
        for s, w in zip(signs.reshape(-1, 1 << n), want):
            assert energy_uniform_exact(SignVector(n, s)) == Fraction(w, math.comb(n, n // 2) << (2 * n))
        for dtype in (np.int8, np.int64):
            for lead in ((), (3,), (2, 3)):
                batch = signs.astype(dtype)[(0,) * (2 - len(lead))]
                got = _sign_gram_sum(batch, n)
                assert np.shape(got) == lead
                assert np.ravel(got).tolist() == want[: math.prod(lead)]

    @pytest.mark.parametrize("n", [12, 13])
    def test_all_plus_energy_is_exactly_one(self, n):
        assert energy_uniform_exact(SignVector(n, np.ones(1 << n, dtype=np.int8))) == 1

    @pytest.mark.parametrize("n", [12, 13])
    def test_a_single_chunk_sums_its_squares_exactly(self, n, monkeypatch):
        # every kept subset in one stack, whose sum of squares passes 2^24,
        # beyond which float32 no longer holds every integer
        monkeypatch.setattr(bipartite, "CHUNK_BYTES", 1 << 40)
        sv = SignVector(n, np.random.default_rng(90 + n).choice((-1, 1), size=1 << n))
        assert _sign_gram_sum(sv.signs, n) == all_bipartition_sign_sum(sv)

    def test_sites_spell_the_matricized_basis_of_each_kept_subset(self):
        for n in range(2, 10):
            sites = bipartite._sites(n)
            weight = 2 - n % 2
            kept = [A.mask for A in balanced_bipartitions(n) if weight == 1 or A.mask >> (n - 1)]
            assert sites.weight == weight and len(sites.rows) == len(sites.cols) == len(kept)
            assert sites.rows[:, -1].tolist() == kept  # each kept A's mask
            basis = np.arange(1 << n)
            for a, mask in enumerate(kept):
                want = matricize(basis, mask, n)
                assert np.array_equal(sites.rows[a][:, None] + sites.cols[a], want)

    @pytest.mark.parametrize("n", range(19, 25))
    def test_site_map_is_refused_before_allocation(self, n):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"site map for n={n} would take .* GB, over the 1 GiB"):
                bipartite._sites(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the map itself would take 1.1 GB at n = 19

    def test_every_admitted_gram_sum_fits_int64(self):
        # the site map holds kept (N_A + N_Abar) int64 sites
        def site_bytes(n):
            return bipartite._kept_count(n) * ((1 << n // 2) + (1 << n - n // 2)) * 8

        admitted = [n for n in range(2, MAX_QUBITS + 1) if site_bytes(n) <= MAX_TABLE_BYTES]
        assert admitted == list(range(2, 19))
        assert all(bipartite._gram_sum_denominator(n) < 1 << 63 for n in admitted)

    def test_sign_energy_matches_float_pipeline(self):
        rng = np.random.default_rng(4)
        for n in (3, 4, 5):
            for _ in range(5):
                signs = rng.choice((-1, 1), size=1 << n).astype(np.int8)
                sv = SignVector(n, signs)
                want = pi_me_form2(uniform_from_signs(sv))
                assert float(energy_uniform_exact(sv)) == pytest.approx(want, abs=1e-12)


class TestOneQubit:
    ONE = SignVector(1, [1, -1])

    @pytest.mark.parametrize(
        "evaluate, arg",
        [
            (pi_me_form1, random_state(1, 0)),
            (energy_uniform_exact, ONE),
            (pi_me_uniform, ONE),
            (pi_me_uniform, random_phases(1, 0)),
            (phase_equation_residual, random_state(1, 0)),
            (lambda sv: flip_delta(sv, 0), ONE),
        ],
        ids=["form1", "exact", "uniform-signs", "uniform-phases", "residual", "flip_delta"],
    )
    def test_balanced_evaluators_refuse_one_qubit(self, evaluate, arg):
        with pytest.raises(ValueError, match=r"^balanced bipartitions require n >= 2, got 1$"):
            evaluate(arg)


class TestStreamedGrams:
    def test_twelve_qubit_evaluations_hold_one_gram_at_a_time(self):
        st = random_state(12, 5)
        rng = np.random.default_rng(12)
        sv = SignVector(12, rng.choice((-1, 1), size=1 << 12).astype(np.int8))
        # the first call builds the n=12 site map, and is traced too
        bipartite._sites.cache_clear()
        for fn, arg in ((pi_me_form1, st), (energy_uniform_exact, sv), (is_perfect_mmes, st)):
            tracemalloc.start()
            try:
                fn(arg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 << 20, f"{fn.__name__} peaked at {peak} bytes"

    @pytest.mark.parametrize("budget", [None, 1, 1 << 40], ids=["default", "one-subset", "one-chunk"])
    @pytest.mark.parametrize("n", range(2, 12))
    def test_gathered_chunks_give_the_per_subset_grams(self, n, budget, monkeypatch):
        # budget 1 puts one subset in each chunk, 2^40 all the kept subsets in one
        if budget is not None:
            monkeypatch.setattr(bipartite, "CHUNK_BYTES", budget)
        rng = np.random.default_rng(110 + n)
        signs = SignVector(n, rng.choice((-1, 1), size=1 << n).astype(np.int8))
        for state in (random_state(n, n), uniform_from_signs(signs)):
            stacks = list(_balanced_grams(state.amplitudes, n))
            if budget is not None:
                kept = bipartite._kept_count(n)
                want_sizes = [1] * kept if budget == 1 else [kept]
                assert [len(grams) for grams in stacks] == want_sizes * (2 - n % 2)
            got = [G for grams in stacks for G in grams]
            want = loop_balanced_grams(state.amplitudes, n)
            assert len(got) == math.comb(n, n // 2)
            # the same matrices bit for bit, in another order
            assert sorted(G.tobytes() for G in got) == sorted(G.tobytes() for G in want)
            purities = [sorted(float(np.vdot(G, G).real) for G in grams) for grams in (got, want)]
            assert purities[0] == purities[1]
            assert _balanced_gaps(state) == loop_balanced_gaps(state)


@functools.cache
def sweep_batch(n):
    """1,024 random n-qubit sign vectors and their unpaired Gram sums."""
    signs = np.random.default_rng(140 + n).choice((-1, 1), size=(1024, 1 << n))
    signs = signs.astype(np.int8)
    return signs, [all_bipartition_sign_sum(SignVector(n, s)) for s in signs]


@pytest.mark.parametrize("budget", [1, None, 1 << 40], ids=["one-item", "default", "one-chunk"])
class TestOneBlockingRule:
    """Every blocked loop takes its slices from bipartite._chunks, so one
    CHUNK_BYTES moves all of them; no result may move with it."""

    @pytest.fixture(autouse=True)
    def blocking(self, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(bipartite, "CHUNK_BYTES", budget)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_quadruple_sums_are_the_loops_bit_for_bit(self, n):
        st = random_state(n, 6000 + n)
        p = random_phases(n, 6100 + n)
        for A in (QubitMask.from_qubits((1,), n), balanced_bipartitions(n)[-1]):
            assert purity_form2(st, A) == loop_purity_form2(st, A)
            # no XOR sum: purity_uniform reads the Gram core
            assert purity_uniform(p, A) == pytest.approx(loop_purity_uniform(p.phases, n, A), abs=1e-12)
        assert pi_me_form2(st) == loop_pi_me_form2(st)
        assert pi_me_form4(st) == loop_pi_me_form4(st)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_sign_gram_sums_are_the_unpaired_sums(self, n):
        if n <= 5:  # the sweep sizes, in sweep-sized batches
            signs, want = sweep_batch(n)
            assert _sign_gram_sum(signs, n).tolist() == want
            return
        rng = np.random.default_rng(150 + n)
        for _ in range(2):
            sv = SignVector(n, rng.choice((-1, 1), size=1 << n).astype(np.int8))
            assert _sign_gram_sum(sv.signs, n) == all_bipartition_sign_sum(sv)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_flip_deltas_are_the_gram_state_deltas(self, n):
        sv = SignVector(n, np.random.default_rng(160 + n).choice((-1, 1), size=1 << n))
        state = LoopGramState(n, sv.signs.astype(np.int64))
        denom = bipartite._gram_sum_denominator(n)
        for j in range(0, 1 << n, max(1, (1 << n) // 8)):
            assert flip_delta(sv, j) == state.delta(j, -state.z[j]) / denom


class TestAvgLinearEntropy:
    def test_product_state_scores_zero(self):
        st = fully_factorized([(1, 0), (0, 1), (1, 0)])
        assert avg_linear_entropy(st) == pytest.approx(0.0, abs=1e-12)

    def test_ghz3_scores_one(self):
        assert avg_linear_entropy(ghz(3)) == pytest.approx(1.0, abs=1e-13)

    def test_best_four_qubit_state(self):
        st = uniform_from_signs(catalog_sign_vector("four_best"))
        assert avg_linear_entropy(st) == pytest.approx(8.0 / 9.0, abs=1e-13)


class TestMonomialCounts:
    @pytest.mark.parametrize(
        "n,row",
        [
            (2, (4, 4, 1)),
            (3, (8, 24, 12)),
            (4, (16, 80, 84)),
            (5, (32, 400, 680)),
            (6, (64, 1312, 4000)),
            (7, (128, 6272, 28672)),
            (8, (256, 20736, 162624)),
        ],
    )
    def test_table_rows(self, n, row):
        assert monomial_counts(n) == MonomialCounts(*row)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_quartic_count_matches_enumeration(self, n):
        assert monomial_counts(n).N4 == quartic_monomial_count(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_quadratic_count_matches_enumeration(self, n):
        assert monomial_counts(n).N1 == 1 << n
        assert monomial_counts(n).N2 == modulus_pair_count(n)

    def test_rejects_single_qubit(self):
        with pytest.raises(ValueError):
            monomial_counts(1)


class TestPhaseOnlyInvariance:
    def test_global_phase_leaves_potential_unchanged(self):
        rng = np.random.default_rng(6)
        st = random_state(4, 40)
        (phase,) = unit_phases(rng, 1)
        from mmeskit import PureState

        rotated = PureState(4, st.amplitudes * phase)
        assert pi_me_form2(rotated) == pytest.approx(pi_me_form2(st), abs=1e-13)
