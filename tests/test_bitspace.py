"""Bit-level subsystem indexing: masks, extraction, embedding, counting.

Oracles: binary-string slicing for extract/embed, math.comb and factorials
for the counting helpers, itertools for subset enumeration.
"""

import itertools
import math
import re

import numpy as np
import pytest

from mmeskit import (
    QubitMask, SignVector, apply_single_qubit_unitary, balanced_bipartitions, binomial, bipartite_term_counts,
    build_coupling_table, embed, entanglement_E, equation_variable_counts, extract, flip_delta,
    free_coefficient_count, ghz, linear_entropy_L, max_entangled_state, monomial_counts, permute_qubits,
    population, purity_form1, purity_form2, purity_uniform, random_phases, random_state, reduced_density_matrix,
    schmidt_spectrum, walsh_coefficients, weight,
)
from mmeskit.bitspace import (
    MAX_COUNT_QUBITS,
    _check_n,
    as_mask,
    complement,
    embed_table,
    masks_of_weight,
    multinomial,
    submasks,
)


def extract_oracle(k: int, qubits, n: int) -> int:
    """Read off the bits of k at the given labels, most significant first."""
    s = format(k, f"0{n}b")
    bits = "".join(s[q - 1] for q in sorted(qubits))
    return int(bits, 2) if bits else 0


def embed_oracle(sub: int, qubits, n: int) -> int:
    """Scatter the bits of sub onto the given labels inside an n-bit word."""
    qs = sorted(qubits)
    bits = format(sub, f"0{len(qs)}b") if qs else ""
    chars = ["0"] * n
    for ch, q in zip(bits, qs):
        chars[q - 1] = ch
    return int("".join(chars), 2) if n else 0


def all_label_subsets(n):
    labels = range(1, n + 1)
    for r in range(n + 1):
        yield from itertools.combinations(labels, r)


class TestWeightAndWordOps:
    def test_weight_matches_bin_count(self):
        for k in range(1 << 10):
            assert weight(k) == bin(k).count("1")

    def test_weight_handles_big_integers(self):
        assert weight((1 << 100) | 1) == 2

    def test_complement_flips_exactly_n_bits(self):
        assert complement(0b101, 3) == 0b010
        for n in range(1, 8):
            for mask in range(1 << n):
                assert complement(mask, n) == mask ^ ((1 << n) - 1)


# Entry points that check their qubit count through bitspace._check_n,
# each with an n it accepts.
N_TAKERS = {
    "QubitMask": (lambda n: QubitMask(1, n), 1),
    "SignVector": (lambda n: SignVector(n, [1, -1]), 1),
    "complement": (lambda n: complement(1, n), 2),
    "masks_of_weight": (lambda n: list(masks_of_weight(1, n)), 2),
    "balanced_bipartitions": (balanced_bipartitions, 4),
    "ghz": (ghz, 3),
    "random_state": (lambda n: random_state(n, 0), 3),
    "monomial_counts": (monomial_counts, 4),
    "build_coupling_table": (build_coupling_table, 3),
    "equation_variable_counts": (equation_variable_counts, 4),
}


class TestQubitCount:
    @pytest.mark.parametrize("name", N_TAKERS)
    def test_bools_and_floats_are_refused(self, name):
        call, n = N_TAKERS[name]
        call(n)  # a cached builder now holds an entry equal to float(n)
        for bad in (True, False, float(n), n + 0.5, str(n)):
            # "n must be an integer", or a lower bound on n checked first
            with pytest.raises(ValueError, match=rf"\bn\b.*, got {re.escape(repr(bad))}$"):
                call(bad)

    @pytest.mark.parametrize("name", N_TAKERS)
    def test_numpy_integers_are_accepted(self, name):
        call, n = N_TAKERS[name]
        out = call(np.int64(n))
        assert type(getattr(out, "n", 0)) is int  # what stores n stores the int

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64])
    def test_numpy_integers_count_in_python_ints(self, dtype):
        # n is converted once, so no count wraps or overflows in n's own type
        for n in range(2, 13):
            assert monomial_counts(dtype(n)) == monomial_counts(n)
            assert equation_variable_counts(dtype(n)) == equation_variable_counts(n)
            assert free_coefficient_count(dtype(n)) == free_coefficient_count(n)
            for n_a in range(1, n):
                assert bipartite_term_counts(dtype(n), dtype(n_a)) == bipartite_term_counts(n, n_a)
        counts = monomial_counts(dtype(4)), bipartite_term_counts(dtype(4), dtype(2))
        assert {type(c) for c in (*counts[0].__dict__.values(), *counts[1])} == {int}


class TestQubitMask:
    def test_from_qubits_uses_one_based_labels(self):
        m = QubitMask.from_qubits((1, 3), 3)
        assert m.mask == 0b101
        assert m.qubits() == (1, 3)
        assert m.size == 2

    def test_complement_returns_remaining_labels(self):
        m = QubitMask.from_qubits((2,), 3)
        assert m.complement().qubits() == (1, 3)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            QubitMask.from_qubits((0,), 3)
        with pytest.raises(ValueError):
            QubitMask.from_qubits((4,), 3)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            QubitMask.from_qubits((1, 1), 3)

    def test_mask_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            QubitMask(0b100, 2)

    def test_n_above_word_limit_rejected(self):
        with pytest.raises(ValueError):
            QubitMask(0, MAX_COUNT_QUBITS + 1)

    def test_bipartition_keeps_small_subsets(self):
        assert QubitMask.bipartition((1, 2), 4).qubits() == (1, 2)
        assert QubitMask.bipartition((3, 4), 4).qubits() == (3, 4)

    def test_bipartition_replaces_large_subsets_by_complement(self):
        assert QubitMask.bipartition((1, 2, 3), 4).qubits() == (4,)
        assert QubitMask.bipartition(0b0111, 4).qubits() == (1,)

    def test_bipartition_rejects_empty_and_full(self):
        with pytest.raises(ValueError):
            QubitMask.bipartition((), 4)
        with pytest.raises(ValueError):
            QubitMask.bipartition((1, 2, 3, 4), 4)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64])
    def test_bipartition_takes_numpy_masks(self, dtype):
        for n in range(2, 7):
            for mask in range(1, (1 << n) - 1):
                got = QubitMask.bipartition(dtype(mask), n)
                assert got == QubitMask.bipartition(mask, n) and type(got.mask) is int

    @pytest.mark.parametrize("bad", [1.0, 2.5, np.float64(1.0)])
    def test_bipartition_refuses_float_masks_as_the_constructor_does(self, bad):
        message = f"^mask must be an integer, got {re.escape(repr(bad))}$"
        for call in (lambda: QubitMask(bad, 3), lambda: QubitMask.bipartition(bad, 3)):
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize("bad", [True, False, 1.0, 2.5])
    def test_bool_and_float_masks_and_labels_are_refused(self, bad):
        for call in (lambda: QubitMask(bad, 3), lambda: as_mask(bad, 3), lambda: as_mask(bad)):
            with pytest.raises(ValueError, match=rf"^mask must be an integer, got {bad!r}$"):
                call()
        with pytest.raises(ValueError, match=rf"^mask must be an integer, got {bad!r}$"):
            purity_form1(random_state(3, 0), bad)
        with pytest.raises(ValueError, match=rf"^qubit label must be an integer, got {bad!r}$"):
            QubitMask.from_qubits((bad,), 3)

    def test_as_mask_accepts_ints_and_masks(self):
        m = QubitMask.from_qubits((2,), 3)
        assert as_mask(m, 3) == m.mask
        assert as_mask(0b010, 3) == 0b010
        assert type(as_mask(np.uint8(2), 3)) is type(QubitMask(np.int8(2), 3).mask) is int
        assert QubitMask.from_qubits([np.int64(2)], 3) == m

    def test_as_mask_rejects_mismatched_n(self):
        m = QubitMask.from_qubits((2,), 3)
        with pytest.raises(ValueError):
            as_mask(m, 4)

    def test_as_mask_without_n_checks_only_the_sign(self):
        assert as_mask(QubitMask.from_qubits((2,), 3)) == 0b010
        assert as_mask(1 << 70) == 1 << 70
        with pytest.raises(ValueError, match="out of range$"):
            as_mask(-1)

    def test_negative_and_out_of_range_raw_masks_are_refused(self):
        # a negative int has endless set bits, so a bit loop over it never ends
        with pytest.raises(ValueError):
            extract(5, -1)
        with pytest.raises(ValueError):
            embed(1, -1)
        with pytest.raises(ValueError):
            embed_table(-1)
        with pytest.raises(ValueError):
            list(submasks(-1))
        with pytest.raises(ValueError, match="out of range for n=2"):
            complement(5, 2)


# Every public function that takes an integer index, at n = 3: a call on
# the index, the field its refusals name, its extreme values inside the
# range, the values just outside it, and the n its range message names.
WALSH3, PLUS3 = walsh_coefficients(population(ghz(3))), SignVector(3, np.ones(8, dtype=np.int8))
INDEX_ARGUMENTS = [
    ("as_mask", lambda v: as_mask(v, 3), "mask", (0, 7), (-1, 8), 3),
    ("as_mask-without-n", as_mask, "mask", (0, 1 << 70), (-1,), None),
    ("QubitMask", lambda v: QubitMask(v, 3), "mask", (0, 7), (-1, 8), 3),
    ("from_qubits", lambda v: QubitMask.from_qubits((v,), 3), "qubit label", (1, 3), (-1, 0, 4), 3),
    ("weight", weight, "basis index", (0, 1 << 70), (-1,), None),
    ("extract", lambda v: extract(v, 0b101, 3), "basis index", (0, 7), (-1, 8), 3),
    ("extract-without-n", lambda v: extract(v, 0b101), "basis index", (0, 1 << 70), (-1,), None),
    ("embed", lambda v: embed(v, 0b101, 3), "sub-index", (0, 3), (-1, 4), 2),
    ("coefficient", WALSH3.coefficient, "subset mask", (0, 7), (-1, 8), 3),
    ("flip_delta", lambda v: flip_delta(PLUS3, v), "flip index", (0, 7), (-1, 8), 3),
    ("apply_single_qubit_unitary", lambda v: apply_single_qubit_unitary(ghz(3), v, np.eye(2)), "qubit label",
     (1, 3), (-1, 0, 4), 3),
    ("permute_qubits", lambda v: permute_qubits(ghz(3), (2, 3, v)), "qubit label", (1,), (-1, 0, 4), 3),
    ("masks_of_weight", lambda v: list(masks_of_weight(v, 3)), "weight w", (0, 3), (), None),
]


class TestIndexArguments:
    """Each index argument is read by bitspace._index: one refusal of a
    non-integer, naming the field, and one of a value out of range."""

    @pytest.mark.parametrize("call, field, inside, outside, n", [row[1:] for row in INDEX_ARGUMENTS],
                             ids=[row[0] for row in INDEX_ARGUMENTS])
    def test_one_reader_refuses_by_name(self, call, field, inside, outside, n):
        for value in inside:
            call(value)
            if value < 1 << 63:
                call(np.int64(value))
        for bad in (True, 1.0, "1"):
            with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be an integer, got {re.escape(repr(bad))}$"):
                call(bad)
        tail = "" if n is None else f" for n={n}"
        for bad in outside:
            with pytest.raises(ValueError, match=rf"^{re.escape(field)} {bad} out of range{tail}$"):
                call(bad)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_masks_of_weight_yields_nothing_out_of_range(self, n):
        # documented: a negative or oversized weight has no masks, and is no error
        for w in (-1, n + 1, 1 << 70, np.int64(-1), np.int64(n + 1)):
            assert list(masks_of_weight(w, n)) == []


# Every reader of a bipartition side, each taking A on four qubits: A is
# read by bitspace.as_mask and checked by bitspace._proper.
SUBSET_READERS = {
    "reduced_density_matrix": lambda A: reduced_density_matrix(random_state(4, 0), A),
    "purity_form1": lambda A: purity_form1(random_state(4, 0), A),
    "purity_form2": lambda A: purity_form2(random_state(4, 0), A),
    "purity_uniform": lambda A: purity_uniform(random_phases(4, 0), A),
    "schmidt_spectrum": lambda A: schmidt_spectrum(random_state(4, 0), A),
    "entanglement_E": lambda A: entanglement_E(random_state(4, 0), A),
    "linear_entropy_L": lambda A: linear_entropy_L(random_state(4, 0), A),
    "QubitMask.bipartition": lambda A: QubitMask.bipartition(A, 4),
    "max_entangled_state": lambda A: max_entangled_state(A, 4),
}

# The mask readers whose n is optional, each on both branches of as_mask.
OPTIONAL_N_READERS = {
    "as_mask": lambda n: as_mask(1, n),
    "as_mask(QubitMask)": lambda n: as_mask(QubitMask(1, 3), n),
    "extract": lambda n: extract(1, 1, n),
    "embed": lambda n: embed(0, 1, n),
    "complement": lambda n: complement(1, n),
}


class TestSubsetArguments:
    """Each subset argument is read by bitspace.as_mask, and a bipartition
    side is checked by bitspace._proper: one refusal, word for word."""

    @pytest.mark.parametrize("name", SUBSET_READERS)
    def test_one_check_refuses_improper_and_foreign_subsets(self, name):
        call = SUBSET_READERS[name]
        call(0b0011)
        call(QubitMask(0b0110, 4))
        for bad in (0, 0b1111, QubitMask(0, 4), QubitMask(0b1111, 4)):
            with pytest.raises(ValueError, match=r"^bipartition requires a nonempty proper subset of the qubits$"):
                call(bad)
        with pytest.raises(ValueError, match=r"^mask is for n=3, expected n=4$"):
            call(QubitMask(1, 3))

    @pytest.mark.parametrize("name", OPTIONAL_N_READERS)
    @pytest.mark.parametrize("bad", [True, 2.5, "3", -1, 0, MAX_COUNT_QUBITS + 1])
    def test_a_given_n_is_read_as_every_qubit_count(self, name, bad):
        with pytest.raises(ValueError) as expected:
            _check_n(bad)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            OPTIONAL_N_READERS[name](bad)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_bipartition_takes_a_qubit_mask_as_its_raw_mask(self, n):
        for mask in range(1, (1 << n) - 1):
            assert QubitMask.bipartition(QubitMask(mask, n), n) == QubitMask.bipartition(mask, n)


class TestBalancedBipartitions:
    def test_three_qubits_lists_singletons(self):
        assert [m.qubits() for m in balanced_bipartitions(3)] == [(1,), (2,), (3,)]

    def test_four_qubits_lists_all_pairs(self):
        got = [m.qubits() for m in balanced_bipartitions(4)]
        assert got == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_counts_sizes_and_order(self, n):
        parts = balanced_bipartitions(n)
        assert len(parts) == math.comb(n, n // 2)
        assert all(m.size == n // 2 for m in parts)
        labels = [m.qubits() for m in parts]
        assert labels == sorted(labels)
        assert len(set(labels)) == len(labels)


class TestExtractEmbed:
    def test_extract_example(self):
        assert extract(0b110, QubitMask.from_qubits((1, 3), 3)) == 0b10

    def test_embed_example(self):
        assert embed(0b11, QubitMask.from_qubits((1, 3), 3)) == 0b101

    @pytest.mark.parametrize("n", range(1, 7))
    def test_extract_matches_string_oracle(self, n):
        for qubits in all_label_subsets(n):
            A = QubitMask.from_qubits(qubits, n)
            for k in range(1 << n):
                assert extract(k, A) == extract_oracle(k, qubits, n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_embed_matches_string_oracle(self, n):
        for qubits in all_label_subsets(n):
            A = QubitMask.from_qubits(qubits, n)
            for sub in range(1 << len(qubits)):
                assert embed(sub, A) == embed_oracle(sub, qubits, n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_extract_embed_roundtrip(self, n):
        for qubits in all_label_subsets(n):
            A = QubitMask.from_qubits(qubits, n)
            for sub in range(1 << len(qubits)):
                assert extract(embed(sub, A), A) == sub

    @pytest.mark.parametrize("n", range(1, 7))
    def test_split_and_reassemble_is_identity(self, n):
        for qubits in all_label_subsets(n):
            A = QubitMask.from_qubits(qubits, n)
            B = A.complement()
            for k in range(1 << n):
                assert embed(extract(k, A), A) | embed(extract(k, B), B) == k

    def test_plain_int_masks_accept_optional_n(self):
        assert extract(0b110, 0b101, 3) == 0b10
        assert extract(0b110, 0b101) == 0b10
        with pytest.raises(ValueError):
            extract(0b110, 0b101, 2)

    @pytest.mark.parametrize("bad", [True, False, 1.0, 2.5])
    def test_bool_and_float_indices_are_refused(self, bad):
        for call, field in (
            (lambda: extract(bad, 1, 3), "basis index"),
            (lambda: extract(bad, 1), "basis index"),
            (lambda: embed(bad, 1, 3), "sub-index"),
            (lambda: weight(bad), "basis index"),
        ):
            with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {bad!r}$"):
                call()

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64])
    def test_numpy_indices_are_accepted(self, dtype):
        A = QubitMask.from_qubits((1, 3), 3)
        for k in range(8):
            assert extract(dtype(k), A) == extract(k, A) and type(extract(dtype(k), A)) is int
            assert weight(dtype(k)) == weight(k) and type(weight(dtype(k))) is int
        for sub in range(4):
            assert embed(dtype(sub), A) == embed(sub, A) and type(embed(dtype(sub), A)) is int
        with pytest.raises(ValueError, match=r"^basis index 8 out of range for n=3$"):
            extract(dtype(8), 1, 3)
        with pytest.raises(ValueError, match=r"^sub-index 4 out of range for n=2$"):
            embed(dtype(4), 0b101, 3)

    @pytest.mark.parametrize("n", (None, 3))
    def test_negative_basis_indices_are_refused(self, n):
        # unchecked, their two's-complement bits would spell a label
        for k, mask in ((-1, 0b101), (-6, 0b111), (-8, 0b001)):
            with pytest.raises(ValueError, match="basis index"):
                extract(k, mask, n)

    def test_embed_table_refuses_weights_beyond_an_index_array(self):
        bits = np.iinfo(np.intp).bits
        top = QubitMask(1 << (MAX_COUNT_QUBITS - 1), MAX_COUNT_QUBITS)
        for A in (top, QubitMask(0b1 | top.mask, MAX_COUNT_QUBITS), 1 << (bits - 1), 1 << 100):
            with pytest.raises(ValueError, match="qubit weights"):
                embed_table(A)
        assert embed_table(1 << (bits - 2)).tolist() == [0, 1 << (bits - 2)]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_embed_table_agrees_with_embed(self, n):
        subsets = list(all_label_subsets(n))
        if n > 6:  # a seeded sample of the 2^n subsets, the full set included
            rng = np.random.default_rng(n)
            subsets = [subsets[i] for i in rng.choice(len(subsets), 12, replace=False)]
            subsets.append(tuple(range(1, n + 1)))
        for qubits in subsets:
            A = QubitMask.from_qubits(qubits, n)
            table = embed_table(A)
            assert table.dtype == np.intp
            assert len(table) == 1 << len(qubits)
            for sub in range(len(table)):
                assert int(table[sub]) == embed(sub, A)


class TestSubsetEnumeration:
    def test_submasks_descending_with_endpoints(self):
        assert list(submasks(0b101)) == [0b101, 0b100, 0b001, 0b000]

    @pytest.mark.parametrize("mask", [0, 1, 0b1011, 0b11110, 0b101010])
    def test_submasks_complete_and_ordered(self, mask):
        got = list(submasks(mask))
        expect = sorted((s for s in range(mask + 1) if s & mask == s), reverse=True)
        assert got == expect
        assert len(got) == 1 << weight(mask)

    def test_masks_of_weight_example(self):
        assert list(masks_of_weight(2, 4)) == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_masks_of_weight_ascending_and_complete(self, n):
        for w in range(n + 1):
            got = list(masks_of_weight(w, n))
            assert got == sorted(got)
            assert all(weight(m) == w for m in got)
            assert len(got) == math.comb(n, w)


class TestCounting:
    def test_binomial_matches_math_comb(self):
        for n in range(31):
            for k in range(n + 1):
                assert binomial(n, k) == math.comb(n, k)

    def test_binomial_is_zero_outside_range(self):
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0

    def test_multinomial_matches_factorial_formula(self):
        for parts in [(2, 2, 1), (3, 0, 2), (1, 1, 1, 1), (5,), (0, 0, 4)]:
            n = sum(parts)
            expect = math.factorial(n)
            for p in parts:
                expect //= math.factorial(p)
            assert multinomial(n, parts) == expect

    def test_multinomial_is_zero_when_parts_do_not_sum(self):
        assert multinomial(5, (2, 2, 2)) == 0
