"""Property tests over generated states.

Every evaluation path of the potential agrees on arbitrary normalized
states, the direct marginal gap agrees with its Walsh reconstruction, the
potential is invariant under local unitaries and qubit relabelings, the
spelled gathers of reduced density matrices and relabelings equal their
transpose and per-qubit loop oracles bit for bit, and the JSON state
format round-trips.  Examples are derandomized, so every run checks the
same states.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from helpers import haar_unitary, loop_permute_qubits, matricize, walsh_marginal_gap
from mmeskit import (
    PureState,
    SignVector,
    apply_single_qubit_unitary,
    balanced_bipartitions,
    catalog,
    energy_uniform_exact,
    fully_factorized,
    ghz,
    marginal_uniformity_gap,
    permute_qubits,
    pi_me_form1,
    pi_me_form2,
    pi_me_form4,
    population,
    purity_form2,
    random_state,
    reduced_density_matrix,
    state_from_json,
    state_to_json,
)
from mmeskit.mmes import CATALOG_NAMES

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def states(draw, n_min=2, n_max=7):
    """Normalized dense states from arbitrary real and imaginary parts."""
    n = draw(st.integers(n_min, n_max))
    part = arrays(np.float64, 1 << n, elements=st.floats(-1.0, 1.0))
    amp = draw(part) + 1j * draw(part)
    norm = float(np.linalg.norm(amp))
    assume(norm > 1e-3)
    return PureState(n, amp / norm)


@PROPERTY
@given(states())
def test_every_potential_path_agrees(state):
    core = pi_me_form1(state)
    purities = [purity_form2(state, A) for A in balanced_bipartitions(state.n)]
    assert abs(core - pi_me_form2(state)) <= 1e-12
    assert abs(core - pi_me_form4(state)) <= 1e-12
    assert abs(core - math.fsum(purities) / len(purities)) <= 1e-12


@PROPERTY
@given(states(n_max=8))
def test_marginal_gap_matches_the_walsh_reconstruction(state):
    P = population(state)
    assert abs(marginal_uniformity_gap(P) - walsh_marginal_gap(P)) <= 1e-12


@pytest.mark.parametrize(
    "state",
    [fully_factorized([(1, 0)] * 3), ghz(3), ghz(4)] + [catalog(name) for name in CATALOG_NAMES],
    ids=["basis3", "ghz3", "ghz4", *CATALOG_NAMES],
)
def test_marginal_gap_matches_the_walsh_reconstruction_on_named_states(state):
    P = population(state)
    assert abs(marginal_uniformity_gap(P) - walsh_marginal_gap(P)) <= 1e-12


@PROPERTY
@given(states(), st.data())
def test_potential_is_invariant_under_single_qubit_unitaries(state, data):
    qubit = data.draw(st.integers(1, state.n))
    U = haar_unitary(2, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    rotated = apply_single_qubit_unitary(state, qubit, U)
    assert abs(pi_me_form1(rotated) - pi_me_form1(state)) <= 1e-12


@PROPERTY
@given(states(), st.data())
def test_potential_is_invariant_under_qubit_permutations(state, data):
    perm = data.draw(st.permutations(range(1, state.n + 1)))
    relabeled = permute_qubits(state, perm)
    assert abs(pi_me_form1(relabeled) - pi_me_form1(state)) <= 1e-12


@pytest.mark.parametrize("n", range(2, 9))
@settings(derandomize=True, deadline=None, max_examples=4)
@given(st.data())
def test_reduced_density_matrix_is_the_transpose_oracle_bit_for_bit(n, data):
    state = data.draw(states(n, n))
    for mask in range(1, (1 << n) - 1):
        M = matricize(state.amplitudes, mask, n)
        want = M @ M.conj().T
        assert np.array_equal(reduced_density_matrix(state, mask).entries, want)


@PROPERTY
@given(st.integers(1, 10).flatmap(lambda n: st.permutations(range(1, n + 1))), st.data())
def test_permute_qubits_is_the_per_qubit_loop(perm, data):
    state = random_state(len(perm), data.draw(st.integers(0, 2**32 - 1)))
    got = permute_qubits(state, perm).amplitudes
    assert np.array_equal(got, loop_permute_qubits(state, perm).amplitudes)


@PROPERTY
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    arrays(np.int8, 1 << n, elements=st.sampled_from((-1, 1))),
    st.integers(0, (1 << n) - 1),
    st.integers(0, 1),
)))
def test_sign_potential_is_invariant_under_local_z_and_the_global_sign(twist):
    # s_x -> (-1)^(c + a.x) s_x is Z on the qubits of a, times the global
    # sign (-1)^c: local unitaries, so the exact potential does not move
    signs, a, c = twist
    N = signs.size
    parity = np.array([(a & x).bit_count() + c for x in range(N)]) & 1
    twisted = (signs * (1 - 2 * parity)).astype(np.int8)
    n = N.bit_length() - 1
    assert energy_uniform_exact(SignVector(n, twisted)) == energy_uniform_exact(SignVector(n, signs))


@PROPERTY
@given(states(n_min=1, n_max=6))
def test_json_round_trip_preserves_dense_states(state):
    back = state_from_json(json.loads(json.dumps(state_to_json(state))))
    assert isinstance(back, PureState)
    assert back.n == state.n
    assert np.array_equal(back.amplitudes, state.amplitudes)


@PROPERTY
@given(st.integers(1, 6).flatmap(lambda n: arrays(np.int8, 1 << n, elements=st.sampled_from((-1, 1)))))
def test_json_round_trip_preserves_sign_vectors(signs):
    sv = SignVector(signs.size.bit_length() - 1, signs)
    back = state_from_json(json.loads(json.dumps(state_to_json(sv))))
    assert isinstance(back, SignVector)
    assert back.n == sv.n
    assert np.array_equal(back.signs, sv.signs)
