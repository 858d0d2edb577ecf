"""State containers and constructors: normalization, serialization, transforms.

Covers norm tolerance bands, JSON roundtrips, qubit permutations, local
unitaries, factorized products, and maximally entangled constructions.
"""

import hashlib
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import haar_unitary, loop_state_doc
from mmeskit import states
from mmeskit import (
    AnnealConfig,
    NormalizationWarning,
    PolarState,
    PureState,
    QubitMask,
    SignVector,
    apply_single_qubit_unitary,
    assemble,
    from_amplitudes,
    fully_factorized,
    ghz,
    max_entangled_state,
    permute_qubits,
    polar,
    purity_form1,
    random_phases,
    random_state,
    state_from_json,
    state_to_json,
    uniform_from_signs,
)
from mmeskit.cli import _dump

RT2 = 1.0 / np.sqrt(2.0)


class TestPureState:
    def test_requires_unit_norm(self):
        with pytest.raises(ValueError):
            PureState(1, np.array([1.0, 1e-5]))

    def test_requires_full_length(self):
        with pytest.raises(ValueError):
            PureState(2, np.array([1.0, 0.0]))

    def test_dim(self):
        assert ghz(3).dim == 8

    def test_amplitudes_are_read_only(self):
        st = ghz(2)
        with pytest.raises(ValueError):
            st.amplitudes[0] = 0.0

    def test_defensive_copy_of_input(self):
        raw = np.zeros(4, dtype=complex)
        raw[0] = 1.0
        st = PureState(2, raw)
        raw[0] = 0.0
        assert st.amplitudes[0] == 1.0
        raw[1] = 0.5  # caller's buffer stays writable

    def test_from_amplitudes_records_scale(self):
        st = from_amplitudes(2, [2.0, 0.0, 0.0, 2.0])
        assert np.allclose(st.amplitudes, [RT2, 0, 0, RT2])
        assert st.scale == pytest.approx(1.0 / np.sqrt(8.0))

    def test_from_amplitudes_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            from_amplitudes(2, [0.0] * 4)

    def test_nan_amplitudes_are_refused(self):
        # a NaN norm compares false with every tolerance, so the checks are
        # written to fail on it
        with pytest.raises(ValueError, match="not normalized"):
            PureState(2, [float("nan")] * 4)
        with pytest.raises(ValueError, match="not normalized"):
            PureState(2, [1.0, float("nan"), 0.0, 0.0])

    def test_from_amplitudes_refuses_nan(self):
        for raw in ([float("nan")] * 4, [1.0, 0.0, float("nan"), 0.0]):
            with pytest.raises(ValueError, match="not normalized"):
                from_amplitudes(2, raw)


class TestPolarAndSigns:
    def test_polar_assemble_roundtrip(self):
        st = random_state(4, 9)
        back = assemble(polar(st))
        assert np.allclose(back.amplitudes, st.amplitudes, atol=1e-14)

    def test_polar_rejects_negative_moduli(self):
        with pytest.raises(ValueError):
            PolarState(1, np.array([-0.5, 0.5]), np.zeros(2))

    def test_polar_refuses_nan_moduli_and_phases(self):
        r = np.full(4, 0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            PolarState(2, np.full(4, np.nan), np.ones(4))
        with pytest.raises(ValueError, match="unit modulus"):
            PolarState(2, r, np.full(4, np.nan))
        with pytest.raises(ValueError, match="unit modulus"):
            PolarState(2, r, [1, 1, 1, complex(1, np.nan)])

    def test_is_uniform(self):
        assert random_phases(3, 0).is_uniform()
        assert not polar(ghz(3)).is_uniform()
        for bad in ("1", True):
            with pytest.raises(ValueError, match=r"^tol must be a real number"):
                polar(ghz(3)).is_uniform(tol=bad)

    def test_sign_vector_string_roundtrip(self):
        sv = SignVector.from_string("+--+")
        assert sv.n == 2
        assert list(sv.signs) == [1, -1, -1, 1]
        assert sv.to_string() == "+--+"

    def test_sign_vector_rejects_bad_input(self):
        with pytest.raises(ValueError):
            SignVector.from_string("+-+")  # not a power of two
        with pytest.raises(ValueError):
            SignVector.from_string("+-x+")

    @pytest.mark.parametrize("n", range(1, 17))
    def test_sign_strings_round_trip(self, n):
        rng = np.random.default_rng(80 + n)
        for signs in (rng.choice((-1, 1), size=1 << n), np.ones(1 << n), -np.ones(1 << n)):
            text = "".join("+" if s > 0 else "-" for s in signs)  # one entry at a time
            assert SignVector(n, signs).to_string() == text
            back = SignVector.from_string(text)
            assert back.n == n and back.signs.dtype == np.int8 and not back.signs.flags.writeable
            assert back.signs.tolist() == signs.tolist()

    @pytest.mark.parametrize("text, message", [
        ("", "sign string length 0 is not a power of two"),
        ("+-+", "sign string length 3 is not a power of two"),
        ("+0", "sign string may contain only '+' and '-', got ['0']"),
        ("+-\u00e9?", "sign string may contain only '+' and '-', got ['?', '\u00e9']"),
        ("+\ud800", "sign string may contain only '+' and '-', got ['\\ud800']"),
    ])
    def test_sign_strings_refusals_name_the_problem(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SignVector.from_string(text)

    @pytest.mark.parametrize(
        "build", [SignVector, lambda n, entries: SignVector.from_rows(n, [entries])], ids=["one", "rows"]
    )
    @pytest.mark.parametrize("entries, dtypes", [
        *(
            (entries, (None, object))
            for entries in (
                [1.5, -1.0], [1.0, -1.9], [0, 1], [-0.5, 1], [2, -1], [1, float("nan")],
                # the int8 cast would read True as +1 and drop a zero imaginary part
                [True, True], [True, False], [1 + 0j, -1], [1, 1j],
            )
        ),
        # a numeric array holds a True among numbers as 1, a valid +1; a list
        # and an object array keep it a bool
        ([True, -1], (object,)), ([-1, np.True_], (object,)),
    ], ids=[f"entries{i}" for i in range(12)])
    def test_sign_vector_refuses_entries_other_than_one_before_the_cast(self, build, entries, dtypes):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's ComplexWarning included
            with pytest.raises(ValueError, match=r"^sign entries must be exactly \+1 or -1$"):
                build(1, entries)
            for dtype in dtypes:
                with pytest.raises(ValueError, match=r"^sign entries must be exactly \+1 or -1$"):
                    build(1, np.array(entries, dtype=dtype))

    def test_rows_are_checked_as_one_block(self):
        rows = np.array([[1, -1, -1, 1], [-1, -1, -1, -1]], dtype=np.int64)
        vectors = SignVector.from_rows(2, rows)
        assert [sv.to_string() for sv in vectors] == ["+--+", "----"]
        assert all(type(sv.n) is int and sv.n == 2 for sv in vectors)
        block = vectors[0].signs.base
        assert block.dtype == np.int8 and block.shape == (2, 4) and not block.flags.writeable
        assert all(sv.signs.base is block and not sv.signs.flags.writeable for sv in vectors)
        assert not np.shares_memory(block, rows)
        for bad in (np.ones(4), np.ones((2, 8)), np.ones((1, 2, 4))):
            with pytest.raises(ValueError, match=r"^sign vector must have length 4 for n=2$"):
                SignVector.from_rows(2, bad)
        for n in (0, 25, True, 2.0):
            with pytest.raises(ValueError, match="n must be an integer|qubit count must be in"):
                SignVector.from_rows(n, rows)

    def test_sign_vector_refuses_integers_that_wrap_to_one(self):
        # int8 keeps the low byte: 257 would read as +1, -255 as +1, 255 as -1
        for entries in ([257, -1], [-255, 1], [255, 1]):
            with pytest.raises(ValueError, match=r"exactly \+1 or -1"):
                SignVector(1, np.array(entries, dtype=np.int64))

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float32, np.float64, None])
    def test_sign_vector_accepts_integer_and_float_signs(self, dtype):
        sv = SignVector(2, np.array([1, -1, -1, 1], dtype=dtype))
        assert sv.signs.dtype == np.int8 and sv.to_string() == "+--+"

    def test_uniform_from_signs(self):
        st = uniform_from_signs(SignVector.from_string("+--+"))
        assert np.allclose(st.amplitudes, np.array([1, -1, -1, 1]) / 2.0)


class TestFactorizedAndGhz:
    def test_product_of_basis_states(self):
        st = fully_factorized([(1, 0), (0, 1)])
        expect = np.zeros(4)
        expect[0b01] = 1.0  # qubit 1 in 0, qubit 2 in 1
        assert np.allclose(st.amplitudes, expect)

    def test_first_pair_is_most_significant(self):
        st = fully_factorized([(0, 1), (1, 0), (1, 0)])
        assert st.amplitudes[0b100] == pytest.approx(1.0)

    def test_refuses_nan_pairs_and_unitaries(self):
        with pytest.raises(ValueError, match="not normalized"):
            fully_factorized([[1.0, 0.0], [float("nan"), 0.0]])
        with pytest.raises(ValueError, match="not unitary"):
            apply_single_qubit_unitary(ghz(2), 1, np.full((2, 2), np.nan))

    def test_rejects_unnormalized_pair(self):
        with pytest.raises(ValueError):
            fully_factorized([(1, 1), (1, 0)])

    @pytest.mark.parametrize("n", [10, 24])
    def test_pairs_whose_product_leaves_the_norm_band_are_refused_before_the_build(self, n):
        # each pair is within NORM_TOL, their product past PureState's 3 NORM_TOL
        pairs = [(np.sqrt(1 + 9e-12 / n), 0)] * n
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"^the {n} amplitude pairs' squared norms multiply to 1\.0000000000"):
                fully_factorized(pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the state would take 268 MB at n = 24

    def test_every_admitted_product_builds(self):
        # pairs anywhere in their band: the product is refused by name or built
        rng = np.random.default_rng(6)
        built = 0
        for _ in range(200):
            excess = rng.uniform(-1, 1, 10) * states.NORM_TOL
            pairs = [(np.sqrt(1 + e), 0) for e in excess]
            try:
                st = fully_factorized(pairs)
            except ValueError as exc:
                assert "amplitude pairs' squared norms multiply to" in str(exc)
                continue
            built += 1
            assert abs(np.vdot(st.amplitudes, st.amplitudes).real - 1.0) <= 3 * states.NORM_TOL
        assert 50 < built < 200

    def test_ghz_amplitudes(self):
        st = ghz(3)
        expect = np.zeros(8)
        expect[0] = expect[7] = RT2
        assert np.allclose(st.amplitudes, expect)

    def test_ghz_needs_two_qubits(self):
        with pytest.raises(ValueError):
            ghz(1)


class TestMaxEntangled:
    def test_default_bell_pair(self):
        st = max_entangled_state(QubitMask.from_qubits((1,), 2))
        assert purity_form1(st, QubitMask.from_qubits((1,), 2)) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("n,qubits", [(2, (1,)), (3, (2,)), (4, (1, 3)), (5, (2, 4))])
    def test_smaller_party_purity_is_minimal(self, n, qubits):
        rng = np.random.default_rng(n * 17 + len(qubits))
        A = QubitMask.from_qubits(qubits, n)
        na = len(qubits)
        u_a = haar_unitary(1 << na, rng)
        u_b = haar_unitary(1 << (n - na), rng)
        st = max_entangled_state(A, u_a=u_a, u_abar=u_b)
        assert purity_form1(st, A) == pytest.approx(1.0 / (1 << na), abs=1e-12)

    def test_larger_party_argument_is_canonicalized(self):
        rng = np.random.default_rng(5)
        A = QubitMask.from_qubits((1, 2, 3), 4)  # larger party; complement {4}
        st = max_entangled_state(A, u_a=haar_unitary(8, rng), u_abar=haar_unitary(2, rng))
        assert purity_form1(st, QubitMask.from_qubits((4,), 4)) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            max_entangled_state(QubitMask.from_qubits((1,), 2), u_a=np.eye(2) * 2.0)

    def test_a_mask_for_another_n_is_refused(self):
        with pytest.raises(ValueError, match=r"^mask is for n=4, expected n=5$"):
            max_entangled_state(QubitMask(3, 4), 5)
        assert max_entangled_state(QubitMask(3, 4), 4).n == max_entangled_state(QubitMask(3, 4)).n == 4

    def test_builds_only_the_columns_it_reads(self):
        # the full identity on the larger party took 67 MB at n = 12
        max_entangled_state(1, 3)
        tracemalloc.start()
        try:
            max_entangled_state(1, 12)
            peak = tracemalloc.get_traced_memory()[1]
            with pytest.raises(ValueError, match=r"^qubit count must be in \[1, 24\], got 25$"):
                max_entangled_state(1, 25)
            refused_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20 and refused_peak < 1 << 20

    def test_amplitudes_are_pinned_bit_for_bit(self):
        # every proper mask at n = 2..10 with the identity unitaries: each
        # amplitude is 0 or N_A^(-1/2), exact on any BLAS
        digest = hashlib.sha256()
        for n in range(2, 11):
            for mask in range(1, (1 << n) - 1):
                digest.update(max_entangled_state(mask, n).amplitudes.tobytes())
        assert digest.hexdigest() == "6e1a21980e4d65256b2b9dacd689f5d9da10a20ae8133e6140824451717ef612"

    @pytest.mark.parametrize("n", range(2, 8))
    def test_the_default_u_abar_is_the_full_identity(self, n):
        rng = np.random.default_rng(n)
        for mask in range(1, (1 << n) - 1):
            u_a = haar_unitary(1 << mask.bit_count(), rng)
            full = np.eye(1 << (n - mask.bit_count()))
            got = max_entangled_state(mask, n, u_a=u_a).amplitudes
            assert got.tobytes() == max_entangled_state(mask, n, u_a=u_a, u_abar=full).amplitudes.tobytes()


class TestTransforms:
    def test_identity_permutation(self):
        st = random_state(3, 2)
        assert np.array_equal(permute_qubits(st, (1, 2, 3)).amplitudes, st.amplitudes)

    def test_swap_on_basis_state(self):
        st = fully_factorized([(1, 0), (0, 1)])  # |01>
        swapped = permute_qubits(st, (2, 1))
        assert swapped.amplitudes[0b10] == pytest.approx(1.0)

    def test_swap_is_involution(self):
        st = random_state(4, 3)
        back = permute_qubits(permute_qubits(st, (2, 1, 3, 4)), (2, 1, 3, 4))
        assert np.allclose(back.amplitudes, st.amplitudes, atol=1e-15)

    def test_composition(self):
        st = random_state(3, 4)
        p1, p2 = (2, 3, 1), (3, 1, 2)
        once = permute_qubits(permute_qubits(st, p1), p2)
        composed = tuple(p1[q - 1] for q in p2)  # new carries p1 of what p2 selects
        twice = permute_qubits(st, composed)
        assert np.allclose(once.amplitudes, twice.amplitudes, atol=1e-15)

    def test_rejects_invalid_permutation(self):
        st = random_state(3, 5)
        with pytest.raises(ValueError):
            permute_qubits(st, (1, 2))
        with pytest.raises(ValueError):
            permute_qubits(st, (1, 1, 2))

    @pytest.mark.parametrize("labels", [[True, 2], [1.0, 2.0], [1, 2.0], [1, "2"]])
    def test_permutation_labels_are_integers(self, labels):
        # as in QubitMask.from_qubits: True is not qubit 1, nor 2.0 qubit 2
        with pytest.raises(ValueError, match=r"^qubit label must be an integer, got "):
            permute_qubits(ghz(2), labels)
        assert np.array_equal(permute_qubits(ghz(2), np.array([2, 1])).amplitudes, ghz(2).amplitudes)

    @pytest.mark.parametrize("qubit", [True, False, 1.0, 2.0, "1"])
    def test_unitary_qubit_labels_are_integers(self, qubit):
        with pytest.raises(ValueError, match=r"^qubit label must be an integer, got "):
            apply_single_qubit_unitary(ghz(2), qubit, np.eye(2))
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        flipped = apply_single_qubit_unitary(ghz(2), np.int64(1), X)
        assert np.array_equal(flipped.amplitudes, apply_single_qubit_unitary(ghz(2), 1, X).amplitudes)

    def test_bit_flip_on_first_qubit(self):
        st = fully_factorized([(1, 0), (1, 0)])  # |00>
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        assert apply_single_qubit_unitary(st, 1, X).amplitudes[0b10] == pytest.approx(1.0)

    def test_local_unitary_preserves_norm(self):
        rng = np.random.default_rng(12)
        st = random_state(4, 6)
        for q in range(1, 5):
            st = apply_single_qubit_unitary(st, q, haar_unitary(2, rng))
        assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_unitary_matrix(self):
        with pytest.raises(ValueError):
            apply_single_qubit_unitary(ghz(2), 1, np.array([[1, 1], [0, 1]], dtype=complex))


class TestRandomStates:
    def test_seed_determinism(self):
        assert np.array_equal(random_state(4, 7).amplitudes, random_state(4, 7).amplitudes)
        assert not np.array_equal(random_state(4, 7).amplitudes, random_state(4, 8).amplitudes)

    def test_random_phases_are_uniform_moduli(self):
        p = random_phases(4, 1)
        assert p.is_uniform()
        assert np.allclose(np.abs(assemble(p).amplitudes), 0.25)

    @pytest.mark.parametrize(
        "make, vector", [(random_state, lambda s: s.amplitudes), (random_phases, lambda s: s.phases)],
        ids=["random_state", "random_phases"],
    )
    def test_seeds_are_read_as_the_annealer_reads_them(self, make, vector):
        # one reader: a seed the annealer refuses is refused here, in its words
        for bad in (True, 1.5, "1"):
            message = rf"^seed must be an integer, got {re.escape(repr(bad))}$"
            for call in (lambda: make(3, bad), lambda: AnnealConfig(((1.0, 1),), seed=bad)):
                with pytest.raises(ValueError, match=message):
                    call()
        for call in (lambda: make(3, -1), lambda: AnnealConfig(((1.0, 1),), seed=-1)):
            with pytest.raises(ValueError, match=r"^seed must be nonnegative, got -1$"):
                call()
        assert np.array_equal(vector(make(3, np.int64(5))), vector(make(3, 5)))


class TestJson:
    # dense states with zero and negative-zero parts at every n up to 12
    @pytest.mark.parametrize("n", range(1, 13))
    def test_documents_are_the_per_amplitude_loop_byte_for_byte(self, n):
        z = random_state(n, n).amplitudes.copy()
        parts = z.view(np.float64)
        parts[::7] = -0.0
        parts[3::7] = 0.0
        parts /= np.linalg.norm(parts)  # on the floats: complex division drops a zero's sign
        state = PureState(n, z)
        assert np.signbit(state.amplitudes.view(np.float64)[::7]).all()
        for pretty in (False, True):
            assert _dump(state_to_json(state), pretty) == _dump(loop_state_doc(state), pretty)

    def test_documents_past_the_budget_are_refused(self, monkeypatch):
        states._check_document(21)  # 1 GiB, 512 B an amplitude
        with pytest.raises(ValueError, match=r"^the state document for n=22 would take 2\.1 GB, over the 1 GiB limit$"):
            states._check_document(22)
        monkeypatch.setattr(states, "DOCUMENT_BYTES", 1 << 28)
        with pytest.raises(ValueError, match=r"^the state document for n=3 would take 2\.1 GB"):
            state_to_json(ghz(3))
        assert state_to_json(SignVector.from_string("+-+-+--+"))["data"] == "+-+-+--+"

    def test_complex_roundtrip_is_exact(self):
        st = random_state(3, 11)
        doc = state_to_json(st)
        assert doc["format"] == "complex"
        back = state_from_json(json.loads(json.dumps(doc)))
        assert isinstance(back, PureState)
        assert np.array_equal(back.amplitudes, st.amplitudes)

    def test_sign_roundtrip_preserves_type(self):
        sv = SignVector.from_string("-++-+--+")
        doc = state_to_json(sv)
        assert doc["format"] == "signs"
        back = state_from_json(doc)
        assert isinstance(back, SignVector)
        assert back.to_string() == sv.to_string()

    def test_small_norm_error_passes_silently(self):
        doc = state_to_json(ghz(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state_from_json(doc)

    def test_moderate_norm_error_warns_and_renormalizes(self):
        data = [[RT2 * (1 + 5e-7), 0.0], [0.0, 0.0], [0.0, 0.0], [RT2 * (1 + 5e-7), 0.0]]
        with pytest.warns(NormalizationWarning):
            st = state_from_json({"n": 2, "format": "complex", "data": data})
        assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_large_norm_error_is_rejected(self):
        data = [[1.1, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        with pytest.raises(ValueError):
            state_from_json({"n": 2, "format": "complex", "data": data})

    def test_unknown_format_is_rejected(self):
        with pytest.raises(ValueError):
            state_from_json({"n": 2, "format": "polar", "data": []})

    def test_length_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            state_from_json({"n": 2, "format": "complex", "data": [[1.0, 0.0]] * 3})

    @pytest.mark.parametrize(
        "bad", [True, False, "1", None, [1], np.bool_(True), "1.0", [1, 0], 10**400]
    )
    def test_non_number_amplitude_components_are_rejected(self, bad):
        for data in ([[bad, 0], [0, 0], [0, 0], [0, 0]], [[1, 0], [0, 0], [0, 0], [0, bad]]):
            with pytest.raises(ValueError, match=r"list of \[re, im\] pairs"):
                state_from_json({"n": 2, "format": "complex", "data": data})

    @pytest.mark.parametrize(
        "data",
        [
            [[1, 0], [0]],
            [[1, 0], []],
            [[1, 0, 0], [0, 0, 0]],
            [[1, 0], [0, 0, 0]],
            [[1, 0], 0],
            [[1, 0], "00"],
            "1000",
            {"re": [1, 0], "im": [0, 0]},
            5,
            None,
        ],
    )
    def test_data_that_is_not_a_list_of_pairs_is_rejected(self, data):
        with pytest.raises(ValueError, match=r"list of \[re, im\] pairs"):
            state_from_json({"n": 1, "format": "complex", "data": data})

    def test_numpy_real_components_are_read_as_numbers(self):
        data = [[np.float64(0.6), np.int64(0)], [np.float32(0.0), -0.8]]
        st = state_from_json({"n": 1, "format": "complex", "data": data})
        assert st.amplitudes.tolist() == [0.6, -0.8j]

    def test_integer_amplitude_components_are_read_as_numbers(self):
        st = state_from_json({"n": 2, "format": "complex", "data": [[1, 0], [0, 0], [0, 0], [0, 0]]})
        assert np.array_equal(st.amplitudes, [1, 0, 0, 0])

    @pytest.mark.parametrize("n", [2.9, 2.0, True, "3", None])
    def test_non_integer_qubit_count_is_rejected(self, n):
        with pytest.raises(ValueError, match="JSON integer"):
            state_from_json({"n": n, "format": "signs", "data": "+++-"})
