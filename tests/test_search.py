"""Sign-space search: exact energies, incremental flips, sweeps, annealing.

Oracles: full recomputation of the objective after every incremental update,
exact rational energies for every claimed optimum, and cross-seed
determinism checks on whole reports.
"""

import cmath
import functools
import math
import operator
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    LoopGramState, gauge_images, gauge_signs, gray_signs, loop_anneal_replica, loop_walk,
    unmirrored_search,
)
from mmeskit import (
    AnnealConfig,
    PolarState,
    SearchReport,
    SignVector,
    anneal,
    catalog_sign_vector,
    energy_uniform_exact,
    exhaustive_search,
    flip_delta,
    pi_me_uniform,
)
from mmeskit import search
from mmeskit.bipartite import _gram_sum_denominator, _kept_count, _sign_gram_sum, _sites
from mmeskit.bitspace import MAX_TABLE_BYTES
from mmeskit.search import (
    DOUBLE, MAX_EVALUATIONS, MAX_REPLICAS, _block_scorer, _GramState, _raw_draws, _state_bytes, _walk
)


def sweep_scorer(n):
    """The block size of n's gauge sweep and its block scorer, whose first
    block is spelled by helpers.gauge_signs."""
    size = min(search.SWEEP_BLOCK, 1 << ((1 << n) - n - 1))
    return size, _block_scorer(n, gauge_signs(n, np.arange(size)).T)


def refusal_cost(call, match):
    """(tracemalloc peak in bytes, seconds) of call, which must raise a
    ValueError matching match."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match=match):
            call()
        return tracemalloc.get_traced_memory()[1], time.perf_counter() - start
    finally:
        tracemalloc.stop()


def random_signs(n, seed):
    rng = np.random.default_rng(seed)
    return SignVector(n, rng.choice((-1, 1), size=1 << n).astype(np.int8))


def flipped(sv, j):
    signs = sv.signs.copy()
    signs[j] = -signs[j]
    return SignVector(sv.n, signs)


class TestEnergy:
    def test_all_plus_is_fully_factorized(self):
        for n in (2, 3, 4, 5, 6):
            assert pi_me_uniform(SignVector.from_string("+" * (1 << n))) == 1.0

    def test_catalog_minima(self):
        assert energy_uniform_exact(catalog_sign_vector("four_best")) == Fraction(1, 3)
        assert pi_me_uniform(catalog_sign_vector("four_best")) == pytest.approx(1 / 3, abs=1e-15)

    def test_known_three_qubit_minimum(self):
        assert energy_uniform_exact(SignVector.from_string("-++++++-")) == Fraction(1, 2)

    def test_global_sign_symmetry(self):
        for seed in range(5):
            sv = random_signs(4, seed)
            neg = SignVector(4, (-sv.signs).astype(np.int8))
            assert energy_uniform_exact(sv) == energy_uniform_exact(neg)


class TestFlipDelta:
    def test_matches_full_recomputation(self):
        for n in (3, 4):
            sv = random_signs(n, 10 + n)
            base = pi_me_uniform(sv)
            for j in range(1 << n):
                want = pi_me_uniform(flipped(sv, j)) - base
                assert flip_delta(sv, j) == pytest.approx(want, abs=1e-13)

    def test_flip_twice_cancels(self):
        sv = random_signs(4, 3)
        for j in (0, 5, 15):
            d1 = flip_delta(sv, j)
            d2 = flip_delta(flipped(sv, j), j)
            assert d1 + d2 == pytest.approx(0.0, abs=1e-15)

    def test_known_single_flip(self):
        sv = SignVector.from_string("++++")
        assert flip_delta(sv, 3) == pytest.approx(-0.5)
        assert pi_me_uniform(flipped(sv, 3)) == pytest.approx(0.5)

    @pytest.mark.parametrize("index", [1.0, True, False, 1.5, "1", None, -1, 16])
    def test_index_must_be_an_integer_in_range(self, index):
        with pytest.raises(ValueError, match="flip index"):
            flip_delta(random_signs(4, 3), index)

    def test_numpy_integer_index_is_the_int_index(self):
        sv = random_signs(4, 3)
        assert flip_delta(sv, np.int64(5)) == flip_delta(sv, 5)

    def test_long_incremental_walk_stays_exact(self):
        rng = np.random.default_rng(44)
        sv = random_signs(4, 44)
        energy = pi_me_uniform(sv)
        for step in range(10_000):
            j = int(rng.integers(0, 16))
            energy += flip_delta(sv, j)
            sv = flipped(sv, j)
            if step % 1000 == 999:
                assert energy == pytest.approx(pi_me_uniform(sv), abs=1e-10)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_gram_walk_is_exact_at_every_step(self, n):
        rng = np.random.default_rng(200 + n)
        denom = _gram_sum_denominator(n)
        state = LoopGramState(n, random_signs(n, n).signs.astype(np.int64))
        energy = energy_uniform_exact(SignVector(n, state.z.astype(np.int8)))
        assert Fraction(int(state.total()), denom) == energy
        for _ in range(40):
            j = int(rng.integers(1 << n))
            delta = int(state.delta(j, -state.z[j]))
            state.set(j, -state.z[j])
            after = energy_uniform_exact(SignVector(n, state.z.astype(np.int8)))
            assert Fraction(delta, denom) == after - energy
            energy = after
        assert Fraction(int(state.total()), denom) == energy

    @pytest.mark.parametrize("n", [3, 6])
    def test_phase_walk_tracks_the_potential(self, n):
        rng = np.random.default_rng(300 + n)
        N = 1 << n
        moduli = np.full(N, 1.0 / np.sqrt(N))
        denom = _gram_sum_denominator(n)
        state = LoopGramState(n, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, N)))
        value = state.total() / denom
        for step in range(3000):
            j = int(rng.integers(N))
            new = state.z[j] * np.exp(1j * rng.uniform(-np.pi, np.pi))
            value += state.delta(j, new) / denom
            state.set(j, new)
            if step % 300 == 299:
                exact = pi_me_uniform(PolarState(n, moduli, state.z.copy()))
                assert abs(value - exact) <= 1e-12


    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_the_gram_state_proposal_exactly(self, n):
        sv = random_signs(n, 70 + n)
        state = LoopGramState(n, sv.signs.astype(np.int64))
        denom = _gram_sum_denominator(n)
        for j in np.random.default_rng(n).integers(1 << n, size=5):
            j = int(j)
            assert flip_delta(sv, j) == state.delta(j, -state.z[j]) / denom

    def test_builds_no_gram_state(self):
        n = 12
        sv = random_signs(n, 12)
        _sites(n)
        tracemalloc.start()
        try:
            delta = flip_delta(sv, 1234)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the Gram state at n = 12 takes 60 MB
        assert delta == float(energy_uniform_exact(flipped(sv, 1234)) - energy_uniform_exact(sv))


class TestGramState:
    """Proposals (delta) that are rejected, mixed with accepted ones (set),
    on the per-step oracle of the annealer's inline walk."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_sign_walk_with_rejected_proposals_is_exact_at_every_step(self, n):
        rng = np.random.default_rng(500 + n)
        denom = _gram_sum_denominator(n)
        state = LoopGramState(n, random_signs(n, 60 + n).signs.astype(np.int64))
        energy = energy_uniform_exact(SignVector(n, state.z.astype(np.int8)))
        for _ in range(60):
            j = int(rng.integers(1 << n))
            z = state.z.copy()
            z[j] = -z[j]
            after = energy_uniform_exact(SignVector(n, z.astype(np.int8)))
            assert Fraction(state.delta(j, -state.z[j]), denom) == after - energy
            if rng.random() < 0.5:
                continue
            state.set(j, -state.z[j])
            energy = after
            assert Fraction(int(state.total()), denom) == energy
        fresh = _GramState(n, state.z.copy())
        assert np.array_equal(state.buffer, fresh.buffer)

    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_phase_walk_with_rejected_proposals_tracks_the_potential(self, n):
        rng = np.random.default_rng(600 + n)
        N = 1 << n
        moduli = np.full(N, 1.0 / np.sqrt(N))
        denom = _gram_sum_denominator(n)
        state = LoopGramState(n, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, N)))
        value = state.total() / denom
        for _ in range(120):
            j = int(rng.integers(N))
            new = state.z[j] * np.exp(1j * rng.uniform(-np.pi, np.pi))
            delta = state.delta(j, new)
            if rng.random() < 0.5:
                continue
            state.set(j, new)
            value += delta / denom
            assert abs(value - pi_me_uniform(PolarState(n, moduli, state.z.copy()))) <= 1e-12

    def test_only_the_last_proposed_site_can_be_accepted(self):
        n = 4
        state = LoopGramState(n, random_signs(n, 4).signs.astype(np.int64))
        with pytest.raises(ValueError, match="not the last proposed site"):
            state.set(3, -state.z[3])
        state.delta(3, -state.z[3])
        state.delta(5, -state.z[5])
        with pytest.raises(ValueError, match="not the last proposed site"):
            state.set(3, -state.z[3])
        state.set(5, -state.z[5])
        # the rows gathered for site 5 went stale with the accept
        with pytest.raises(ValueError, match="not the last proposed site"):
            state.set(5, -state.z[5])
        state.delta(5, -state.z[5])
        state.set(5, -state.z[5])
        fresh = _GramState(n, random_signs(n, 4).signs.astype(np.int64))
        assert np.array_equal(state.z, fresh.z)
        assert np.array_equal(state.buffer, fresh.buffer)

    @pytest.mark.parametrize("n", range(8, 12))
    @pytest.mark.parametrize(
        "dtype, itemsize", [(np.int64, 8), (np.float64, 8), (np.complex128, 16)]
    )
    def test_build_peak_is_within_the_gate(self, n, dtype, itemsize):
        z = np.ones(1 << n, dtype=dtype)
        _sites(n)  # cached per n and shared with every evaluation, so built first
        tracemalloc.start()
        try:
            state = _GramState(n, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.buffer.dtype == dtype
        assert peak <= _state_bytes(n, itemsize)


SCHEDULES = ("10:3,1000:3", "1:2,-5:2", "inf:2", "-inf:1", "0:1,100:1")
ANGLES = (0.1, math.pi / 2, math.pi)


def report_fields(report):
    best = report.best_state
    state = best.signs if isinstance(best, SignVector) else best.phases
    return (
        report.min_value, report.min_value_exact, report.replica_best_values,
        report.evaluations, report.objective, type(best), state.tobytes(),
    )


def replay(draw, half, kind, n, angle):
    """One draw of `kind` from _raw_draws' stream, as _walk forms it."""
    if kind == "site":
        if half is None:
            raw = draw()
            return (raw & 0xFFFFFFFF) >> (32 - n), raw >> 32
        return half >> (32 - n), None
    double = (draw() >> 11) * DOUBLE
    if kind == "angle":
        return -angle + (angle - -angle) * double, half
    return double, half


class StubGenerator:
    """Sites from a list, every angle 0, and a count of acceptance draws."""

    def __init__(self, sites):
        self.sites = iter(sites)
        self.accept_draws = 0

    def integers(self, N):
        return next(self.sites)

    def uniform(self, low, high):
        return 0.0

    def random(self):
        self.accept_draws += 1
        return 0.0


def _sign_gate_sizes() -> range:
    """Every n the sign annealer's size gate admits, then the first it refuses."""
    n = 2
    while _state_bytes(n, 8) <= MAX_TABLE_BYTES:
        n += 1
    return range(2, n + 1)


class TestWalk:
    """The inline walk against the per-step loop it replaced (helpers.loop_walk)."""

    # every schedule up to n = 8, alternate ones at n = 9 and 10
    @pytest.mark.parametrize("n, k", [
        (n, k) for n in range(2, 11) for k in range(len(SCHEDULES)) if n <= 8 or (n + k) % 2
    ])
    @pytest.mark.parametrize("move", ["sign_flip", "phase_rotation"])
    def test_anneal_matches_the_loop_oracle(self, monkeypatch, n, k, move):
        schedule = SCHEDULES[k]
        stages = tuple((float(b), int(s)) for b, s in (p.split(":") for p in schedule.split(",")))
        config = AnnealConfig(
            beta_schedule=stages, move=move, max_angle=ANGLES[(n + k) % 3],
            replicas=1 + (n + k) % 3 if n <= 8 else 1, seed=10 * n + k,
        )
        got = anneal(n, config)
        steps = []
        monkeypatch.setattr(search, "_anneal_replica", functools.partial(loop_anneal_replica, steps=steps))
        assert report_fields(got) == report_fields(anneal(n, config))
        assert sum(steps) == got.evaluations

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("move", ["sign_flip", "phase_rotation"])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_walk_leaves_the_loop_state_bit_for_bit(self, n, move, pending):
        N = 1 << n
        start = np.random.default_rng(n)
        if move == "sign_flip":
            z = start.integers(0, 2, N) * 2 - 1
        else:
            z = np.exp(1j * start.uniform(0.0, 2.0 * np.pi, N))
        config = AnnealConfig(
            beta_schedule=((1.0, 2), (-3.0, 1), (math.inf, 1), (50.0, 2)), move=move, max_angle=1.0
        )
        ours, theirs = np.random.default_rng(99), np.random.default_rng(99)
        if pending:  # an odd number of 32-bit draws leaves a high half pending
            ours.integers(N), theirs.integers(N)
        grams, loop = _GramState(n, z.copy()), LoopGramState(n, z.copy())
        best = _walk(grams, *_raw_draws(ours.bit_generator), config, operator.lt)
        assert best.tobytes() == loop_walk(loop, theirs, config, operator.lt).tobytes()
        assert grams.z.tobytes() == loop.z.tobytes()
        assert grams.buffer.tobytes() == loop.buffer.tobytes()
        if move == "sign_flip":
            assert np.array_equal(grams.buffer, _GramState(n, grams.z.copy()).buffer)

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_float_sign_walk_equals_the_integer_loop(self, n, pending):
        N = 1 << n
        z = np.random.default_rng(200 + n).integers(0, 2, N) * 2 - 1
        stages = ((1.0, 2), (-math.inf, 1), (-3.0, 1), (math.inf, 1), (20.0, 2))
        config = AnnealConfig(beta_schedule=stages)
        ours, theirs = np.random.default_rng(300 + n), np.random.default_rng(300 + n)
        if pending:
            ours.integers(N), theirs.integers(N)
        grams, loop = _GramState(n, z.astype(np.float64)), LoopGramState(n, z.copy())
        best = _walk(grams, *_raw_draws(ours.bit_generator), config, operator.lt)
        loop_best = loop_walk(loop, theirs, config, operator.lt)
        assert grams.buffer.dtype == best.dtype == np.float64
        assert loop.buffer.dtype == loop_best.dtype == np.int64
        assert np.array_equal(grams.buffer, loop.buffer)
        assert np.array_equal(grams.z, loop.z)
        assert np.array_equal(best, loop_best)
        assert grams.total() == loop.total() == _GramState(n, loop.z.copy()).total()

    @pytest.mark.parametrize("n", _sign_gate_sizes())
    def test_float_sign_sums_stay_below_two_to_the_53(self, n):
        # every Gram entry and S is at most kept N in size, T and every delta at most kept N^2
        N = 1 << n
        assert _kept_count(n) * N < 2**53
        assert _kept_count(n) * N * N == _gram_sum_denominator(n) < 2**53
        # kept counts each balanced bipartition once: a complementary pair at even n
        assert _kept_count(n) * (2 - n % 2) == math.comb(n, n // 2)

    @pytest.mark.parametrize("beta", [math.inf, -math.inf])
    def test_a_zero_rotation_at_infinite_beta_takes_an_acceptance_draw_and_is_rejected(self, beta):
        # -beta * 0 is NaN: `x >= 0` fails, so the step draws, and draw < exp(NaN) fails
        n, N = 2, 4
        z = np.exp(1j * np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, N))
        config = AnnealConfig(beta_schedule=((beta, 1),), move="phase_rotation", max_angle=0.7)
        grams = _GramState(n, z.copy())
        buffer = grams.buffer.copy()
        sites = (2, 1, 3, 0)
        zero_angle, accept = 1 << 63, 0  # the double 1/2 puts the angle at -a + 2a / 2 = 0
        raws = []
        for s, t in zip(sites[::2], sites[1::2]):  # a low half, then the pending high half
            raws += [t << 62 | s << 30, zero_angle, accept, zero_angle, accept]
        stream = iter(raws)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # Python floats: NaN arises without a warning
            best = _walk(grams, stream.__next__, None, config, operator.lt)
        assert list(stream) == []  # every step took its acceptance draw
        assert grams.z.tobytes() == z.tobytes() == best.tobytes()
        assert grams.buffer.tobytes() == buffer.tobytes()
        stub = StubGenerator(sites)
        loop = LoopGramState(n, z.copy())
        with pytest.warns(RuntimeWarning, match="invalid value"):  # numpy scalars warn
            loop_walk(loop, stub, config, operator.lt)
        assert stub.accept_draws == N
        assert loop.z.tobytes() == z.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        seed=st.integers(0, 2**64 - 1),
        n=st.integers(2, 13),
        skip=st.integers(0, 3),
        angle=st.sampled_from(ANGLES + (1.0, 1e-3)),
        theta=st.floats(0.0, 2 * math.pi),
        pattern=st.lists(st.sampled_from(["site", "angle", "accept"]), min_size=1, max_size=12),
        length=st.integers(0, 2500),
    )
    def test_raw_draws_replay_the_generator(self, seed, n, skip, angle, theta, pattern, length):
        N = 1 << n
        generator, raw = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(skip):  # an odd skip leaves a high half pending
            generator.integers(N), raw.integers(N)
        draw, half = _raw_draws(raw.bit_generator)
        z = np.exp(1j * theta)
        for i in range(length):  # DRAW_BLOCK is 1024, so long runs cross blocks
            kind = pattern[i % len(pattern)]
            got, half = replay(draw, half, kind, n, angle)
            if kind == "site":
                assert got == generator.integers(N)
            elif kind == "angle":
                assert got == generator.uniform(-angle, angle)
                want = z * np.exp(1j * got)
                assert np.complex128(complex(z) * cmath.exp(1j * got)).tobytes() == want.tobytes()
            else:
                assert got == generator.random()


class TestExhaustive:
    def test_two_qubits(self):
        report = exhaustive_search(2)
        assert report.min_value_exact == Fraction(1, 2)
        assert report.minimizer_count == 8
        assert report.evaluations == 16
        assert [sv.to_string() for sv in report.sample_minimizers] == [
            "-+++", "+-++", "---+", "++-+", "-+--", "+---", "--+-", "+++-",
        ]

    def test_three_qubits(self):
        report = exhaustive_search(3)
        assert report.min_value_exact == Fraction(1, 2)
        assert report.minimizer_count == 64

    def test_four_qubits(self):
        report = exhaustive_search(4)
        assert report.min_value_exact == Fraction(1, 3)
        assert report.minimizer_count == 1056
        assert len(report.sample_minimizers) == 16
        for sv in report.sample_minimizers:
            assert energy_uniform_exact(sv) == Fraction(1, 3)
        assert [sv.to_string() for sv in report.sample_minimizers] == [
            "-+-++--+--++++++", "+-+-+--+--++++++", "-++--+-+--++++++", "+--++-+---++++++",
            "-+-+-++---++++++", "+-+--++---++++++", "-+-+--+++--+++++", "+-+---+++--+++++",
            "+++++--++--+++++", "----+--++--+++++", "--++-+-++--+++++", "++---+-++--+++++",
            "-+-+++--+--+++++", "+-+-++--+--+++++", "--+++-+-+--+++++", "++--+-+-+--+++++",
        ]

    def test_fixing_the_global_sign_halves_the_count(self):
        full = exhaustive_search(4)
        fixed = exhaustive_search(4, symmetry_mode="fix_global_sign")
        assert fixed.min_value_exact == full.min_value_exact
        assert fixed.minimizer_count * 2 == full.minimizer_count
        assert fixed.evaluations * 2 == full.evaluations
        for sv in fixed.sample_minimizers:
            assert sv.signs[0] == 1
        assert [sv.to_string() for sv in fixed.sample_minimizers] == [
            "+-+-+--+--++++++", "+--++-+---++++++", "+-+--++---++++++", "+-+---+++--+++++",
            "+++++--++--+++++", "++---+-++--+++++", "+-+-++--+--+++++", "++--+-+-+--+++++",
            "++++-++-+--+++++", "++--+--+-+-+++++", "+--+++---+-+++++", "++---++--+-+++++",
            "+-+-+--+++--++++", "+--+-+-+++--++++", "+-+--++-++--++++", "+--+--+++-+-++++",
        ]

    @pytest.mark.parametrize("mode", ("full", "fix_global_sign"))
    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_the_sweep_is_the_unmirrored_sweep(self, n, mode):
        exact, count, evaluations, samples = unmirrored_search(n, mode)
        report = exhaustive_search(n, mode)
        assert report.min_value_exact == exact
        assert report.minimizer_count == count
        assert report.evaluations == evaluations
        assert [sv.to_string() for sv in report.sample_minimizers] == [
            sv.to_string() for sv in samples
        ]

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(2, 5).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << ((1 << n) - 1)) - 1))
    ))
    def test_mirrored_positions_hold_negated_vectors(self, position):
        n, i = position
        N = 1 << n
        K, g = 0, (1 << N) - 1  # K: the position of the all-ones Gray code
        while g:
            K, g = K ^ g, g >> 1
        assert i < 1 << (N - 1) <= i ^ K
        lower, upper = gray_signs(n, [i, i ^ K])
        assert (upper == -lower).all()
        assert energy_uniform_exact(SignVector(n, upper)) == energy_uniform_exact(SignVector(n, lower))

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(2, 5), st.data())
    def test_a_block_scores_the_exact_gram_sums_of_its_positions(self, n, data):
        size, score = sweep_scorer(n)
        lo = size * data.draw(st.integers(0, (1 << ((1 << n) - n - 1)) // size - 1))
        high = gauge_signs(n, [lo])[0]
        want = _sign_gram_sum(gauge_signs(n, lo + np.arange(size)), n)
        assert score(high).tolist() == want.tolist()

    @pytest.mark.parametrize("mode", ("full", "fix_global_sign"))
    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_the_all_plus_position_scores_the_full_denominator(self, n, mode):
        # every Gram entry of the all-plus vector is N_Abar, so T = kept N^2, the
        # full denominator; dropping the diagonal or counting a complementary
        # pair twice changes it
        _, score = sweep_scorer(n)
        plus = np.ones(1 << n, dtype=np.int8)
        first = score(plus)
        assert first[0] == _gram_sum_denominator(n)
        assert first[0] * (2 - n % 2) == math.comb(n, n // 2) << (2 * n)
        # a block shifted by a gauge image of all-plus holds the gauge images
        # of the first block's vectors, with the same scores
        for image in gauge_images(plus, mode):
            assert score(image).tolist() == first.tolist()

    def test_five_qubits_in_seconds(self):
        # 2^26 gauge classes scored, about 6 s on one core of a 2-vCPU Xeon
        report = exhaustive_search(5)
        assert report.min_value_exact == Fraction(1, 4)
        assert report.minimizer_count == 8448
        assert report.evaluations == 1 << 32
        assert [sv.to_string() for sv in report.sample_minimizers] == [
            "++--+++++-+-+--+-+-++--+--++++++", "--++----+-+-+--+-+-++--+--++++++",
            "------++-++--+-+-+-++--+--++++++", "++++++---++--+-+-+-++--+--++++++",
            "------+++--++-+--+-++--+--++++++", "++++++--+--++-+--+-++--+--++++++",
            "++--++++-+-+-++--+-++--+--++++++", "--++-----+-+-++--+-++--+--++++++",
            "++--++++-+-++--++-+-+--+--++++++", "--++-----+-++--++-+-+--+--++++++",
            "++++--++-++--+-++-+-+--+--++++++", "----++---++--+-++-+-+--+--++++++",
            "++++--+++--++-+-+-+-+--+--++++++", "----++--+--++-+-+-+-+--+--++++++",
            "++--+++++-+--++-+-+-+--+--++++++", "--++----+-+--++-+-+-+--+--++++++",
        ]
        for sv in report.sample_minimizers:
            assert energy_uniform_exact(sv) == Fraction(1, 4)

    @pytest.mark.parametrize("mode", ("full", "fix_global_sign"))
    def test_the_samples_are_rows_of_one_read_only_block(self, mode):
        samples = exhaustive_search(4, mode).sample_minimizers
        block = samples[0].signs.base
        assert block.dtype == np.int8 and block.shape == (16, 16) and not block.flags.writeable
        assert all(sv.signs.base is block and not sv.signs.flags.writeable for sv in samples)
        assert [sv.signs.tolist() for sv in samples] == block.tolist()

    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_the_plan_spells_the_classes_and_the_generators(self, n):
        free, pattern, score, gauge = search._census(n)
        size = pattern.shape[1]
        assert free.size == (1 << n) - n - 1 and size == min(search.SWEEP_BLOCK, 1 << free.size)
        assert pattern.T.tolist() == gauge_signs(n, np.arange(size)).tolist()
        # Z on each qubit, then the global sign: the images of all-plus at
        # a = 2^b, c = 0 and at a = 0, c = 1
        plus = np.ones(1 << n, dtype=np.int8)
        assert gauge.tolist() == gauge_images(plus)[[1 << b for b in range(n)] + [1 << n]].tolist()
        assert not any(a.flags.writeable for a in (free, pattern, gauge))
        assert score(plus).tolist() == sweep_scorer(n)[1](plus).tolist()

    def test_a_second_sweep_builds_no_plan(self):
        exhaustive_search(3)
        before = search._census.cache_info()
        exhaustive_search(3, "fix_global_sign")
        exhaustive_search(np.int64(3))
        after = search._census.cache_info()
        assert (after.misses, after.currsize, after.hits) == (before.misses, before.currsize, before.hits + 2)

    def test_refused_sweeps_build_no_plan(self):
        before = search._census.cache_info()
        for n, mode in ((6, "full"), (65, "full"), (10**11, "full"), (1, "full"), (3, "mirror")):
            with pytest.raises(ValueError):
                exhaustive_search(n, mode)
        assert search._census.cache_info() == before

    def test_minimizers_come_in_sign_pairs(self):
        report = exhaustive_search(3)
        assert report.minimizer_count % 2 == 0

    def test_large_sweeps_are_gated(self):
        with pytest.raises(ValueError, match=r"2\^64 sign vectors is out of reach; n <= 5$"):
            exhaustive_search(6)
        with pytest.raises(ValueError):
            exhaustive_search(1)
        with pytest.raises(ValueError, match=r"over 2\^18446744073709551616 sign vectors"):
            exhaustive_search(64)

    @pytest.mark.parametrize("n", [65, 10**11])
    def test_sweeps_past_the_counting_range_are_refused_uncounted(self, n):
        # 1 << (1 << n) would take 2^n bits
        match = rf"^exhaustive search over 2\^\(2\^{n}\) sign vectors is out of reach; n <= 5$"
        peak, seconds = refusal_cost(lambda: exhaustive_search(n), match)
        assert peak < 1 << 20 and seconds < 1.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            exhaustive_search(3, symmetry_mode="mirror")

    def test_n_is_an_integer(self):
        report = exhaustive_search(np.int64(3))
        assert type(report.n) is int and report.n == 3
        assert report.min_value_exact == exhaustive_search(3).min_value_exact
        for n in (3.0, "3", True):
            with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
                exhaustive_search(n)


class TestGauge:
    """The fact the sweep rests on: local Z gates and the global sign, the
    products s (-1)^(c + a.x), leave the potential unchanged and act freely,
    with exactly one image per class at +1 on site 0 and every site 2^b."""

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, 2**32 - 1), st.integers(0, (1 << n) - 1), st.integers(0, 1)
    )))
    def test_local_z_gates_and_the_global_sign_keep_the_potential(self, case):
        n, seed, a, c = case
        sv = random_signs(n, seed)
        gauge = [(-1) ** (c + bin(a & x).count("1")) for x in range(1 << n)]
        image = sv.signs * np.array(gauge, dtype=np.int8)
        assert energy_uniform_exact(SignVector(n, image)) == energy_uniform_exact(sv)
        images = gauge_images(sv.signs)
        assert (images[c << n | a] == image).all()
        assert len({row.tobytes() for row in images}) == 2 << n
        fixed = [0] + [1 << b for b in range(n)]
        assert (images[:, fixed] == 1).all(axis=1).sum() == 1

    def test_every_four_qubit_minimizer_is_a_graph_state_up_to_gauge(self):
        # all 2^16 vectors through the general sign sum, apart from the sweep
        x = np.arange(1 << 16)
        signs = (1 - 2 * (x[:, None] >> np.arange(16) & 1)).astype(np.int8)
        T = _sign_gram_sum(signs, 4)
        assert Fraction(int(T.min()), _gram_sum_denominator(4)) == Fraction(1, 3)
        minimizers = signs[T == T.min()]
        assert len(minimizers) == 1056
        # the algebraic normal form of f, s = (-1)^f, by the binary Moebius
        # transform; a graph state's f is quadratic, its gauge adds degree <= 1
        anf = (minimizers < 0).astype(np.uint8)
        for b in range(4):
            pairs = anf.reshape(len(anf), -1, 2, 1 << b)
            pairs[:, :, 1] ^= pairs[:, :, 0]
        degree = anf * np.array([bin(m).count("1") for m in range(16)])
        assert (degree.max(axis=1) == 2).all()
        # one representative per class, and its 32 images are the minimizers
        fixed = (minimizers[:, [0, 1, 2, 4, 8]] == 1).all(axis=1)
        assert fixed.sum() == 33
        images = {row.tobytes() for rep in minimizers[fixed] for row in gauge_images(rep)}
        assert images == {row.tobytes() for row in minimizers}


class TestAnnealConfig:
    def test_schedule_is_coerced_to_tuples(self):
        cfg = AnnealConfig(beta_schedule=[[1, 50], (10.0, 50)])
        assert cfg.beta_schedule == ((1.0, 50), (10.0, 50))
        assert cfg.objective == "minimize"
        cfg = AnnealConfig(beta_schedule=[(1.0, 2.0), (2.0, np.int64(3))],
                           replicas=np.int64(2), seed=np.uint32(7))
        assert cfg.beta_schedule == ((1.0, 2), (2.0, 3))
        kinds = [type(v) for v in (*cfg.beta_schedule[0], cfg.replicas, cfg.seed)]
        assert kinds == [float, int, int, int]

    def test_negative_final_beta_maximizes(self):
        assert AnnealConfig(beta_schedule=[(1, 5), (-3, 5)]).objective == "maximize"

    def test_rejects_bad_configs(self):
        with pytest.raises(ValueError):
            AnnealConfig(beta_schedule=[])
        with pytest.raises(ValueError):
            AnnealConfig(beta_schedule=[(1.0, -5)])
        with pytest.raises(ValueError):
            AnnealConfig(beta_schedule=[(1.0, 5)], move="wiggle")
        with pytest.raises(ValueError):
            AnnealConfig(beta_schedule=[(1.0, 5)], replicas=0)
        with pytest.raises(ValueError):
            AnnealConfig(beta_schedule=[(1.0, 5)], max_angle=0.0)
        for schedule in ([(1.0, 2.7)], [(1.0, True)], [(1.0, math.inf)], [(1.0, "5")]):
            with pytest.raises(ValueError, match="sweep counts"):
                AnnealConfig(beta_schedule=schedule)
        for field, value in (
            ("replicas", 2.5), ("replicas", 2.0), ("replicas", True),
            ("seed", 1.5), ("seed", False), ("seed", -1), ("max_angle", True),
            ("max_angle", "1"), ("max_angle", 1 + 0j), ("max_angle", None),
            ("beta_schedule", "1:2"), ("beta_schedule", [(1.0,)]), ("beta_schedule", [(1.0, 5, 5)]),
            ("beta_schedule", 5), ("beta_schedule", [1.0]),
        ):
            with pytest.raises(ValueError, match=field):
                AnnealConfig(**{"beta_schedule": [(1.0, 5)], field: value})
        for beta in ("1", "inf", True, 1 + 0j, None):
            with pytest.raises(ValueError, match="^beta must be a real number"):
                AnnealConfig(beta_schedule=[(1.0, 5), (beta, 5)])

    def test_rejects_nan_betas_and_keeps_infinite_quenches(self):
        for schedule in ([(math.nan, 5)], [(1.0, 5), (math.nan, 5)]):
            with pytest.raises(ValueError, match="NaN"):
                AnnealConfig(beta_schedule=schedule)
        assert AnnealConfig(beta_schedule=[(math.inf, 5)]).objective == "minimize"
        assert AnnealConfig(beta_schedule=[(-math.inf, 5)]).objective == "maximize"


class TestAnneal:
    SCHEDULE = ((1.0, 50), (10.0, 50), (1000.0, 100))

    def test_sign_flip_reaches_the_three_qubit_minimum(self):
        cfg = AnnealConfig(beta_schedule=self.SCHEDULE, replicas=10, seed=0)
        report = anneal(3, cfg)
        assert report.min_value == pytest.approx(0.5, abs=1e-12)
        hits = sum(1 for v in report.replica_best_values if abs(v - 0.5) <= 1e-12)
        assert hits >= 9

    def test_best_state_energy_matches_reported_value(self):
        cfg = AnnealConfig(beta_schedule=self.SCHEDULE, replicas=3, seed=42)
        report = anneal(3, cfg)
        assert isinstance(report.best_state, SignVector)
        assert pi_me_uniform(report.best_state) == report.min_value

    def test_fixed_seed_anchor(self):
        cfg = AnnealConfig(beta_schedule=self.SCHEDULE, replicas=3, seed=42)
        report = anneal(3, cfg)
        assert report.best_state.to_string() == "-+++-+--"
        assert report.evaluations == 4803  # replicas * (sweeps * sites + 1)

    def test_negative_beta_seeks_the_maximum(self):
        cfg = AnnealConfig(beta_schedule=[(-1000.0, 50)], seed=1)
        report = anneal(2, cfg)
        assert report.objective == "maximize"
        assert report.min_value == pytest.approx(1.0, abs=1e-12)

    def test_zero_sweeps_report_the_initial_state(self):
        cfg = AnnealConfig(beta_schedule=[(1.0, 0)], seed=5)
        report = anneal(3, cfg)
        assert report.evaluations == 1
        assert report.min_value == pytest.approx(0.625)
        assert pi_me_uniform(report.best_state) == report.min_value

    def test_same_seed_same_report(self):
        cfg = AnnealConfig(beta_schedule=self.SCHEDULE, replicas=4, seed=9)
        a, b = anneal(3, cfg), anneal(3, cfg)
        assert a.min_value == b.min_value
        assert a.replica_best_values == b.replica_best_values
        assert a.best_state.to_string() == b.best_state.to_string()

    def test_phase_rotation_reaches_the_two_qubit_floor(self):
        cfg = AnnealConfig(
            beta_schedule=[(1, 50), (10, 50), (100, 100), (1000, 200)],
            move="phase_rotation",
            replicas=3,
            seed=7,
        )
        report = anneal(2, cfg)
        assert report.min_value == pytest.approx(0.5, abs=1e-4)
        assert report.min_value >= 0.5 - 1e-12
        assert pi_me_uniform(report.best_state) == pytest.approx(report.min_value, abs=1e-12)

    def test_eleven_qubits_run_and_reverify(self):
        report = anneal(11, AnnealConfig(beta_schedule=[(1.0, 1)], seed=0))
        assert report.evaluations == 1 + 2048
        assert report.min_value_exact == energy_uniform_exact(report.best_state)
        assert report.min_value == pi_me_uniform(report.best_state)

    @pytest.mark.parametrize("move, itemsize", [("sign_flip", 8), ("phase_rotation", 16)])
    def test_gram_state_is_refused_before_allocation(self, move, itemsize):
        assert all(_kept_count(n) == len(_sites(n).rows) for n in range(2, 13))
        assert _state_bytes(13, itemsize) <= MAX_TABLE_BYTES < _state_bytes(14, itemsize)
        cfg = AnnealConfig(beta_schedule=[(1.0, 1)], move=move, seed=0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"n=14 would take .* GB, over the 1 GiB limit"):
                anneal(14, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n", [25, 513, 10**9])
    def test_qubit_counts_past_the_state_vector_cap_are_refused_unsized(self, n):
        # sizing the Gram state of n = 10^6 alone took 10 s, and from n = 513
        # its figure in GB overflowed a float
        cfg = AnnealConfig(beta_schedule=[(1.0, 1)], seed=0)
        peak, seconds = refusal_cost(lambda: anneal(n, cfg), r"^annealing requires n <= 24, ")
        assert peak < 1 << 20 and seconds < 1.0

    @pytest.mark.parametrize("replicas, sweeps, match", [
        (10**8, 1, r"^100000000 replicas are over the budget of 65536$"),
        (MAX_REPLICAS + 1, 0, r"^65537 replicas are over the budget of 65536$"),
        (1, 10**30, r"evaluations are over the budget of 4294967296$"),
        (1, MAX_EVALUATIONS // 4, r"evaluations are over the budget of 4294967296$"),
        (3, 10**9, r"evaluations are over the budget of 4294967296$"),
    ])
    def test_step_budget_is_refused_before_the_first_replica(self, replicas, sweeps, match):
        cfg = AnnealConfig(beta_schedule=[(1.0, sweeps)], replicas=replicas, seed=0)
        peak, seconds = refusal_cost(lambda: anneal(2, cfg), match)
        assert peak < 1 << 20 and seconds < 1.0

    def test_step_budget_admits_its_bounds(self, monkeypatch):
        def first_replica(*args):
            raise LookupError("the first replica started")

        monkeypatch.setattr(search, "_anneal_replica", first_replica)
        # 1 + 4 sweeps evaluations a replica at n = 2: 2^32 - 3, the most under the budget
        for replicas, sweeps in ((MAX_REPLICAS, 0), (1, (MAX_EVALUATIONS - 1) // 4)):
            cfg = AnnealConfig(beta_schedule=[(1.0, sweeps)], replicas=replicas, seed=0)
            with pytest.raises(LookupError):
                anneal(2, cfg)

    def test_n_is_an_integer(self):
        cfg = AnnealConfig(beta_schedule=[(1.0, 2)], seed=3)
        report = anneal(np.int64(4), cfg)
        assert type(report.n) is int and report.n == 4
        assert report.best_state.to_string() == anneal(4, cfg).best_state.to_string()
        for n in (4.0, "4", True):
            with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
                anneal(n, cfg)

    def test_replica_best_values_cover_all_replicas(self):
        cfg = AnnealConfig(beta_schedule=self.SCHEDULE, replicas=5, seed=2)
        report = anneal(3, cfg)
        assert len(report.replica_best_values) == 5
        assert report.min_value == min(report.replica_best_values)

    def test_replica_seeds_are_spawned_one_at_a_time(self):
        cfg = AnnealConfig(beta_schedule=[(1.0, 0)], replicas=4000, seed=0)
        anneal(2, AnnealConfig(beta_schedule=[(1.0, 0)], seed=0))  # warm the caches
        tracemalloc.start()
        try:
            report = anneal(2, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 4,000 SeedSequences held at once peak at 1.6 MB, one at a time at 0.16 MB
        assert peak < 1 << 19
        assert len(report.replica_best_values) == 4000


class TestSearchReport:
    def test_rejects_values_below_the_attainable_floor(self):
        with pytest.raises(ValueError, match="bounds"):
            SearchReport(
                n=3, mode="exhaustive", min_value=0.2, minimizer_count=1,
                sample_minimizers=(), evaluations=1, wall_time=0.0,
            )
        with pytest.raises(ValueError, match="bounds"):
            SearchReport(
                n=3, mode="exhaustive", min_value=1.2, minimizer_count=1,
                sample_minimizers=(), evaluations=1, wall_time=0.0,
            )

    def test_rejects_a_nan_value(self):
        with pytest.raises(ValueError, match="bounds"):
            SearchReport(
                n=3, mode="exhaustive", min_value=float("nan"), minimizer_count=1,
                sample_minimizers=(), evaluations=1, wall_time=0.0,
            )

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            SearchReport(
                n=3, mode="diagonal", min_value=0.5, minimizer_count=1,
                sample_minimizers=(), evaluations=1, wall_time=0.0,
            )
