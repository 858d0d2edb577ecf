"""Command-line interface: every subcommand against its library counterpart.

Each command runs in-process through run(argv); one smoke test exercises the
installed console script.  Output determinism is asserted byte for byte.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mmeskit import (
    PureState,
    QubitMask,
    SignVector,
    catalog,
    catalog_sign_vector,
    equation_variable_counts,
    ghz,
    is_perfect_mmes,
    monomial_counts,
    pi_me_form1,
    pi_me_form2,
    pi_me_form4,
    pi_me_uniform,
    purity_form1,
    purity_form2,
    random_state,
    state_to_json,
    uniform_from_signs,
)
from mmeskit import bitspace, search
from mmeskit.cli import PARSE_BYTES, _dump, read_state, run, write_state
from mmeskit.mmes import CATALOG_NAMES, MmesVerdict
from mmeskit.search import MAX_REPLICAS


@pytest.fixture
def capture(capsys):
    def invoke(argv):
        code = run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def state_file(tmp_path):
    def make(obj, name="state.json"):
        path = tmp_path / name
        write_state(path, obj)
        return str(path)

    return make


class TestCounts:
    def test_monomial_rows_match_library(self, capture):
        code, out, _ = capture(["counts", "--table", "monomials", "--n-max", "5"])
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert [r[0] for r in rows] == ["2", "3", "4", "5"]
        for r in rows:
            n = int(r[0])
            counts = monomial_counts(n)
            assert [int(x) for x in r[1:]] == [counts.N1, counts.N2, counts.N4]

    def test_equation_rows_match_library(self, capture):
        code, out, _ = capture(["counts", "--table", "equations", "--n-max", "4"])
        assert code == 0
        for line in out.strip().splitlines():
            n, me, mx = (int(x) for x in line.split("\t"))
            assert (me, mx) == equation_variable_counts(n)

    def test_pretty_adds_a_header(self, capture):
        _, plain, _ = capture(["counts", "--table", "equations", "--n-max", "3"])
        _, pretty, _ = capture(["counts", "--table", "equations", "--n-max", "3", "--pretty"])
        assert pretty.splitlines()[0].startswith("n\t")
        assert pretty.splitlines()[1:] == plain.splitlines()


class TestPurity:
    def test_matches_library_bit_for_bit(self, capture, state_file):
        st = random_state(4, 123)
        path = state_file(st)
        A = QubitMask.from_qubits((1, 3), 4)
        code, out, _ = capture(["purity", "--file", path, "--subset", "1,3"])
        assert code == 0
        assert float(out.strip()) == purity_form1(st, A)
        code, out, _ = capture(["purity", "--file", path, "--subset", "1,3", "--form", "2"])
        assert float(out.strip()) == purity_form2(st, A)

    def test_silently_admitted_norm_gives_every_form(self, capture, state_file):
        # ||z|| = 1 + 0.9e-12 is read without renormalizing, so each reduced
        # matrix has trace 1 + 1.8e-12
        state = random_state(4, 123)
        path = state_file(PureState(4, state.amplitudes * (1 + 0.9e-12)))
        A = QubitMask.from_qubits((1, 3), 4)
        for form, func in (("1", purity_form1), ("2", purity_form2)):
            code, out, err = capture(["purity", "--file", path, "--subset", "1,3", "--form", form])
            assert (code, err) == (0, "")
            assert float(out) == pytest.approx(func(state, A), rel=1e-11)
        for argv in (["potential", "--file", path], ["verify", path]):
            assert capture(argv)[::2] == (0, "")

    def test_bad_subset_is_a_clean_error(self, capture, state_file):
        path = state_file(ghz(3))
        code, _, err = capture(["purity", "--file", path, "--subset", "1,9"])
        assert code == 1
        assert err.startswith("error:")


class TestPotential:
    def test_forms_match_library(self, capture, state_file):
        st = random_state(3, 7)
        path = state_file(st)
        for form, func in (("1", pi_me_form1), ("2", pi_me_form2), ("4", pi_me_form4)):
            code, out, _ = capture(["potential", "--file", path, "--form", form])
            assert code == 0
            assert float(out.strip()) == func(st)
        code, out, _ = capture(["potential", "--file", path])
        assert code == 0
        assert float(out.strip()) == pi_me_form1(st)

    def test_uniform_form_on_a_sign_file(self, capture, state_file):
        sv = catalog_sign_vector("five_perfect")
        path = state_file(sv)
        code, out, _ = capture(["potential", "--file", path, "--form", "uniform"])
        assert code == 0
        assert float(out.strip()) == pi_me_uniform(sv)

    def test_uniform_form_rejects_non_uniform_states(self, capture, state_file):
        path = state_file(ghz(4))
        code, _, err = capture(["potential", "--file", path, "--form", "uniform"])
        assert code == 1
        assert "uniform" in err


class TestVerify:
    def test_perfect_state_verdict(self, capture, state_file):
        path = state_file(catalog_sign_vector("five_perfect"))
        code, out, _ = capture(["verify", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["is_perfect"] is True
        assert doc["n"] == 5
        assert doc["worst_purity_gap"] <= 1e-12
        assert doc["worst_marginal_gap"] <= 1e-12
        assert doc["worst_phase_residual"] <= 1e-12

    def test_imperfect_state_verdict_matches_library(self, capture, state_file):
        # verify prints n and the MmesVerdict fields, each the library's own value,
        # for a catalog, a dense and a sign file
        fields = {"n"} | {f.name for f in dataclasses.fields(MmesVerdict)}
        sign = SignVector(6, [(-1) ** (k * k % 7) for k in range(64)])
        for obj, state in ((ghz(4), ghz(4)), (random_state(5, 3),) * 2, (sign, uniform_from_signs(sign))):
            code, out, _ = capture(["verify", state_file(obj)])
            assert code == 0
            doc = json.loads(out)
            v = is_perfect_mmes(state)
            assert doc["is_perfect"] is False
            assert set(doc) == fields
            assert doc == {"n": state.n, **dataclasses.asdict(v)}

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tolerance_exits_one(self, capture, state_file, tol):
        path = state_file(ghz(3))
        code, out, err = capture(["verify", path, "--tol", tol])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "tolerance" in err

    def test_output_is_sorted_compact_json(self, capture, state_file):
        path = state_file(ghz(3))
        _, out, _ = capture(["verify", path])
        doc = json.loads(out)
        assert out.strip() == json.dumps(doc, sort_keys=True, separators=(",", ":"))


class TestCatalog:
    def test_sign_entries_roundtrip_exactly(self, capture, tmp_path):
        for name in ("four_best", "five_perfect", "six_perfect"):
            path = tmp_path / f"{name}.json"
            code, _, _ = capture(["catalog", name, "--out", str(path)])
            assert code == 0
            back = read_state(path)
            assert back.to_string() == catalog_sign_vector(name).to_string()

    def test_writes_are_byte_identical_across_runs(self, capture, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        capture(["catalog", "six_perfect", "--out", str(a)])
        capture(["catalog", "six_perfect", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_ghz_takes_a_qubit_count(self, capture, tmp_path):
        path = tmp_path / "g.json"
        code, _, _ = capture(["catalog", "ghz", "--n", "4", "--out", str(path)])
        assert code == 0
        st = read_state(path)
        assert st.n == 4
        assert np.allclose(st.amplitudes, ghz(4).amplitudes)

    def test_three_family_rotation_flag(self, capture, tmp_path):
        path = tmp_path / "t.json"
        code, _, _ = capture(["catalog", "three_family", "--rotation", "2", "--out", str(path)])
        assert code == 0
        st = read_state(path)
        assert np.allclose(st.amplitudes, catalog("three_family", rotation=2).amplitudes)

    def test_default_prints_to_stdout(self, capture):
        code, out, _ = capture(["catalog", "four_best"])
        assert code == 0
        doc = json.loads(out)
        assert doc["format"] == "signs"
        assert doc["data"] == catalog_sign_vector("four_best").to_string()

    def test_unknown_name_is_an_argparse_error(self, capture):
        code, _, err = capture(["catalog", "seven_wonders"])
        assert code == 2
        assert "invalid choice" in err


class TestSearch:
    def test_three_qubit_sweep(self, capture):
        code, out, _ = capture(["search", "--n", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["min_value"] == 0.5
        assert doc["min_value_exact"] == "1/2"
        assert doc["minimizer_count"] == 64
        assert doc["mode"] == "exhaustive"
        for text in doc["sample_minimizers"]:
            assert pi_me_uniform(read_signs(text)) == 0.5

    def test_symmetry_mode_flag(self, capture):
        _, full, _ = capture(["search", "--n", "4"])
        _, fixed, _ = capture(["search", "--n", "4", "--mode", "fix_global_sign"])
        assert json.loads(fixed)["minimizer_count"] * 2 == json.loads(full)["minimizer_count"]

    def test_gated_sizes_fail_cleanly(self, capture):
        code, _, err = capture(["search", "--n", "6"])
        assert code == 1
        assert err == "error: exhaustive search over 2^64 sign vectors is out of reach; n <= 5\n"


class TestAnneal:
    def test_fixed_seed_anchor(self, capture):
        code, out, _ = capture([
            "anneal", "--n", "3", "--schedule", "1:50,10:50,1000:100",
            "--replicas", "3", "--seed", "42",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["best_state"] == "-+++-+--"
        assert doc["evaluations"] == 4803
        assert doc["min_value"] == 0.5
        assert doc["objective"] == "minimize"

    def test_runs_are_byte_identical(self, capture):
        argv = ["anneal", "--n", "3", "--schedule", "1:20,100:30", "--replicas", "2", "--seed", "6"]
        _, a, _ = capture(argv)
        _, b, _ = capture(argv)
        assert a == b

    def test_negative_beta_schedule_via_equals_form(self, capture):
        code, out, _ = capture(["anneal", "--n", "2", "--schedule=-1000:50", "--seed", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["objective"] == "maximize"
        assert doc["min_value"] == 1.0

    def test_phase_move_emits_a_complex_state(self, capture):
        code, out, _ = capture([
            "anneal", "--n", "2", "--schedule", "1:10,1000:20",
            "--move", "phase_rotation", "--seed", "3",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["best_state"]["format"] == "complex"
        assert len(doc["best_state"]["data"]) == 4

    def test_nan_beta_fails_cleanly(self, capture):
        code, out, err = capture(["anneal", "--n", "4", "--schedule", "nan:5", "--seed", "0"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "NaN" in err

    def test_negative_seed_fails_cleanly(self, capture):
        code, out, err = capture(["anneal", "--n", "3", "--schedule", "1:5", "--seed", "-1"])
        assert code == 1
        assert out == ""
        assert err == "error: seed must be nonnegative, got -1\n"

    def test_malformed_schedule_fails_cleanly(self, capture):
        code, _, err = capture(["anneal", "--n", "2", "--schedule", "1:x"])
        assert code == 1
        assert err.startswith("error:")

    def test_whole_float_sweeps_print_the_int_bytes(self, capture):
        argv = ["anneal", "--n", "3", "--seed", "0", "--schedule"]
        code, out, err = capture(argv + ["10:2.0"])
        assert (code, err) == (0, "") and json.loads(out)["evaluations"] == 1 + 2 * 8
        assert capture(argv + ["10:2"]) == (code, out, err)

    @pytest.mark.parametrize("stage", ["10:1.5", "10:inf", "10:x", "x:10"])
    def test_malformed_stage_is_named(self, capture, stage):
        code, out, err = capture(["anneal", "--n", "3", "--schedule", f"1:2,{stage}"])
        assert (code, out) == (1, "")
        assert err == f"error: schedule stage {stage!r} needs a number beta and whole sweeps\n"


class TestErrorsAndFiles:
    def test_no_arguments_exits_two(self, capture):
        code, _, _ = capture([])
        assert code == 2

    @pytest.mark.parametrize(
        "argv", [["potential", "--form", "uniform", "--file"], ["potential", "--file"], ["verify"]]
    )
    def test_nineteen_qubit_site_map_is_refused(self, capture, state_file, argv):
        path = state_file(SignVector(19, np.ones(1 << 19, dtype=np.int8)))
        code, out, err = capture(argv + [path])
        assert (code, out) == (1, "")
        assert err == "error: the balanced site map for n=19 would take 1.1 GB, over the 1 GiB limit\n"

    def test_missing_file_exits_one(self, capture):
        code, _, err = capture(["verify", "/nonexistent/state.json"])
        assert code == 1
        assert err.startswith("error:")

    def test_wrong_length_state_file_exits_one(self, capture, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"n": 4, "format": "complex", "data": [[1.0, 0.0]] + [[0.0, 0.0]] * 14}
        ))
        code, _, err = capture(["verify", str(path)])
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", [["verify"], ["potential", "--file"]])
    def test_boolean_amplitudes_exit_one(self, capture, tmp_path, command):
        path = tmp_path / "bools.json"
        data = [[True, False], [False, False], [False, False], [False, False]]
        path.write_text(json.dumps({"n": 2, "format": "complex", "data": data}))
        code, out, err = capture([*command, str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_renormalization_warns_in_one_line(self, capture, tmp_path):
        path = tmp_path / "off.json"
        data = [[1.00000005, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        path.write_text(json.dumps({"n": 2, "format": "complex", "data": data}))
        warning = "warning: state norm deviates from 1 by 5.000e-08; renormalizing\n"
        # each run warns, not only the first in a process
        for _ in range(2):
            assert capture(["potential", "--file", str(path)]) == (0, "1.0\n", warning)

    @pytest.mark.parametrize("n", [2.9, True, "3"])
    def test_non_integer_qubit_count_exits_one(self, capture, tmp_path, n):
        path = tmp_path / "bad_n.json"
        path.write_text(json.dumps({"n": n, "format": "signs", "data": "+++-"}))
        code, out, err = capture(["verify", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_read_write_roundtrip_both_formats(self, tmp_path):
        st = random_state(3, 55)
        p1 = tmp_path / "c.json"
        write_state(p1, st)
        assert np.array_equal(read_state(p1).amplitudes, st.amplitudes)

        sv = catalog_sign_vector("four_best")
        p2 = tmp_path / "s.json"
        write_state(p2, sv)
        assert read_state(p2).to_string() == sv.to_string()

    def test_cached_parser_prints_the_bytes_of_fresh_runs(self, capture):
        commands = [
            ["anneal", "--n", "three", "--schedule", "1:5"],
            ["search", "--n", "2", "--mode", "mirror"],
            ["counts", "--n-max", "4", "--pretty"],
            ["search", "--n", "3", "--mode", "fix_global_sign"],
            ["anneal", "--n", "3", "--schedule", "1:5,10:5", "--seed", "4"],
            ["catalog", "four_best"],
        ]
        script = "import sys; from mmeskit.cli import run; sys.exit(run(sys.argv[1:]))"
        for argv in commands:
            fresh = subprocess.run(
                [sys.executable, "-c", script, *argv], capture_output=True, text=True
            )
            assert capture(argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert capture(commands[0])[0] == 2

    def test_console_script_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mmeskit", "counts", "--n-max", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[0].split("\t")[0] == "2"


def run_quietly(argv):
    """run(argv) with stdout and stderr captured: (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


# a value for a field of a state document, of any JSON type, NaN included
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 70), st.floats(), st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=3), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@st.composite
def state_files(draw):
    """The bytes of a state file: a dense state at n <= 6 whose norm misses 1
    by up to NORM_TOL (so it is read as it is), a sign string, either one
    with a field replaced, removed or an amplitude spoiled, or bytes that are
    not a JSON state at all."""
    kind = draw(st.sampled_from(["complex", "signs", "field", "amplitude", "document", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=24))
    n = draw(st.integers(0, 6))
    if kind == "signs":
        data = "".join(draw(st.lists(st.sampled_from("+-"), min_size=1 << n, max_size=1 << n)))
        doc = {"n": n, "format": "signs", "data": data}
    else:
        parts = draw(arrays(np.float64, 2 << n, elements=st.floats(-1.0, 1.0)))
        norm = float(np.linalg.norm(parts))
        assume(norm > 1e-3)
        parts *= (1.0 + 1e-14 * draw(st.integers(-100, 100))) / norm
        doc = {"n": n, "format": "complex", "data": parts.reshape(-1, 2).tolist()}
    if kind == "field":
        field = draw(st.sampled_from(["n", "format", "data"]))
        if draw(st.booleans()):
            del doc[field]
        else:
            doc[field] = draw(JSON_VALUES)
    elif kind == "amplitude":
        doc["data"][0][draw(st.integers(0, 1))] = draw(JSON_VALUES)
    elif kind == "document":
        doc = draw(JSON_VALUES)
    return json.dumps(doc).encode()


class TestStateFileProperty:
    """potential, verify and purity --form 1/2 on generated state files.

    Budget: 120 files, four commands each, in under 6 s (0.6-3 s on one
    core of a 2-vCPU Xeon).
    """

    COMMANDS = (
        ["potential", "--file"],
        ["verify"],
        ["purity", "--subset", "1", "--form", "1", "--file"],
        ["purity", "--subset", "1", "--form", "2", "--file"],
    )

    def test_every_command_ends_cleanly_and_agrees(self):
        with tempfile.TemporaryDirectory() as folder:
            path = f"{folder}/state.json"

            @settings(derandomize=True, deadline=None, max_examples=120, database=None)
            @given(state_files())
            def check(contents):
                with open(path, "wb") as fh:
                    fh.write(contents)
                results = [run_quietly([*command, path]) for command in self.COMMANDS]
                for code, _, err in results:
                    assert code in (0, 1, 2)
                    assert "Traceback" not in err
                # every state potential reads at n >= 2, the others read too
                if results[0][0] == 0 and json.loads(contents)["n"] >= 2:
                    assert [code for code, _, _ in results] == [0, 0, 0, 0], results

            start = time.perf_counter()
            check()
            assert time.perf_counter() - start < 6.0


# argv that the library refuses before paying for it, and their stderr
REFUSALS = [
    ("search --n 65", "error: exhaustive search over 2^(2^65) sign vectors is out of reach; n <= 5\n"),
    ("search --n 100000", "error: exhaustive search over 2^(2^100000) sign vectors is out of reach; n <= 5\n"),
    ("search --n 100000000000",
     "error: exhaustive search over 2^(2^100000000000) sign vectors is out of reach; n <= 5\n"),
    ("anneal --n 25 --schedule 1:1", "error: annealing requires n <= 24, the state-vector cap\n"),
    ("anneal --n 513 --schedule 1:1", "error: annealing requires n <= 24, the state-vector cap\n"),
    ("anneal --n 100000 --schedule 1:1", "error: annealing requires n <= 24, the state-vector cap\n"),
    ("anneal --n 2 --schedule 1:1e30",
     "error: the run's replicas x (1 + 2^n x sweeps) evaluations are over the budget of 4294967296\n"),
    ("anneal --n 2 --schedule 1:1 --replicas 100000000",
     "error: 100000000 replicas are over the budget of 65536\n"),
]


# the same for sizes of a state file: {folder} holds the sign files s6.json,
# s13.json and s14.json, of 6, 13 and 14 qubits, and huge.json, a sparse 2 GiB file
SIZE_REFUSALS = [
    ("purity --file {folder}/s14.json --subset 1,2,3,4,5,6,7,8,9,10,11,12,13",
     "error: the reduced density matrix of 13 qubits would take 4.3 GB, over the 1 GiB limit\n"),
    ("purity --file {folder}/s13.json --subset 1 --form 2",
     "error: the XOR quadruple sum over 4^13 terms is out of reach; n <= 12\n"),
    ("catalog ghz --n 22", "error: the state document for n=22 would take 2.1 GB, over the 1 GiB limit\n"),
    ("catalog ghz --n 24 --out {folder}/ghz.json",
     "error: the state document for n=24 would take 8.6 GB, over the 1 GiB limit\n"),
    ("verify {folder}/huge.json", "error: reading {folder}/huge.json would take 4.3 GB, over the 1 GiB limit\n"),
]


# the qubit labels of --subset, read by bitspace._index, on a six-qubit file
SUBSET_REFUSALS = [
    ("purity --file {folder}/s6.json --subset 7", "error: qubit label 7 out of range for n=6\n"),
    ("purity --file {folder}/s6.json --subset 0", "error: qubit label 0 out of range for n=6\n"),
    ("purity --file {folder}/s6.json --subset 1,1", "error: duplicate qubit label 1\n"),
    ("purity --file {folder}/s6.json --subset 1,2,3,4,5,6",
     "error: bipartition requires a nonempty proper subset of the qubits\n"),
]


def write_sign_files(folder):
    for n in (6, 13, 14):
        write_state(f"{folder}/s{n}.json", SignVector(n, np.ones(1 << n, dtype=np.int8)))


class TestRefusals:
    @pytest.mark.parametrize("argv, err", REFUSALS + SIZE_REFUSALS + SUBSET_REFUSALS)
    def test_exits_one_at_once_in_little_memory(self, tmp_path, argv, err):
        write_sign_files(tmp_path)
        with open(tmp_path / "huge.json", "wb") as fh:
            fh.truncate(2 << 30)
        run_quietly(["search", "--n", "6"])  # build the parser outside the trace
        tracemalloc.start()
        start = time.perf_counter()
        try:
            result = run_quietly(argv.format(folder=tmp_path).split())
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (1, "", err.format(folder=tmp_path))
        assert seconds < 1.0 and peak < 1 << 20


class TestReadBound:
    """read_state refuses a file before reading past twice its size, and
    before parsing past its text plus PARSE_BYTES a `[` and a `{`."""

    @staticmethod
    def document(state, pretty):
        return _dump(state_to_json(state), pretty) + "\n"

    @pytest.mark.parametrize("pretty", [False, True])
    @pytest.mark.parametrize("n", [12, 14])
    def test_the_bound_holds_the_measured_peak(self, tmp_path, n, pretty):
        for state in (random_state(n, n), ghz(n)):
            text = self.document(state, pretty)
            (tmp_path / "state.json").write_text(text)
            tracemalloc.start()
            try:
                back = read_state(tmp_path / "state.json")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(back.amplitudes, state.amplitudes)
            assert peak <= len(text) + PARSE_BYTES * (text.count("[") + text.count("{"))

    def test_every_document_the_library_writes_is_admitted(self):
        # the longest amplitude text, both parts the longest float repr,
        # indented, at n = 21, the largest document state_to_json writes
        part = -1.2345678901234567e-100
        text = _dump({"n": 1, "format": "complex", "data": [[part, part], [part, part]]}, True)
        per_amplitude = len(text) / 2
        assert (per_amplitude + PARSE_BYTES) * 2**21 + 2 * PARSE_BYTES <= bitspace.MAX_TABLE_BYTES
        # no amplitude takes under ten bytes ([0.0,0.0], in GHZ compact), so
        # every complex document of 23 qubits is refused
        assert len(self.document(ghz(12), False)) >= 10 * 2**12
        assert (10 + PARSE_BYTES) * 2**23 > bitspace.MAX_TABLE_BYTES

    def test_a_document_over_a_patched_limit_is_refused_before_the_parse(self, tmp_path, monkeypatch):
        path = tmp_path / "state.json"
        text = self.document(random_state(6, 0), False)
        path.write_text(text)
        cost = len(text) + PARSE_BYTES * (text.count("[") + 1)  # one `{`
        monkeypatch.setattr(bitspace, "MAX_TABLE_BYTES", cost)
        assert np.array_equal(read_state(path).amplitudes, random_state(6, 0).amplitudes)
        monkeypatch.setattr(bitspace, "MAX_TABLE_BYTES", cost - 1)
        with monkeypatch.context() as m:
            m.setattr(json, "loads", None)  # a parse would raise TypeError
            with pytest.raises(ValueError, match=f"^parsing {re.escape(str(path))} would take"):
                read_state(path)
            # objects count as lists do: 192 B parsed for each one-key object,
            # so a text that the `[` alone would admit is refused
            objects = "[" + ",".join(['{"a":1}'] * 200) + "]"
            path.write_text(objects)
            assert 2 * len(objects) + PARSE_BYTES < cost - 1 < len(objects) + PARSE_BYTES * 201
            with pytest.raises(ValueError, match=f"^parsing {re.escape(str(path))} would take"):
                read_state(path)
            path.write_text(text)
        # a sign document under half that many bytes holds no `[`, and is read
        path.write_text(self.document(SignVector(12, np.ones(1 << 12, dtype=np.int8)), False))
        assert 2 * path.stat().st_size < cost - 1
        assert read_state(path).n == 12
        # a file of more than half the limit is refused before it is read
        path.write_text(" " * (cost // 2))
        with pytest.raises(ValueError, match=f"^reading {re.escape(str(path))} would take"):
            read_state(path)


# Text that is not a number.  It holds no decimal digit of any script, since
# int() reads them all ("\u0665" is 5) and junk must not admit a size.
JUNK = st.one_of(
    st.sampled_from(["", " ", "-", "--", "x", "\u00e9", "\u221e", "\u4e8c", "nan", "inf", "-inf", "1e309"]),
    st.text(st.characters(exclude_categories=("Nd",)), max_size=4),
)
BIG = 10**12


def values(usual, *others):
    """Text of a value, numbers written with str: from usual five times in
    eight, from others five times in sixteen and junk one time in sixteen."""
    usual = usual.map(str)
    rest = st.one_of(*(s.map(str) for s in others)) if others else usual
    return st.integers(0, 15).flatmap(lambda k: JUNK if k == 0 else rest if k < 6 else usual)


# Admitted sizes are small: search n <= 4, anneal n <= 6 with at most 3
# replicas and two stages of at most one sweep; every other size drawn is
# refused.  A stage of 2^30 or more sweeps is over the step budget at any n.
SWEEPS = values(
    st.integers(0, 1), st.integers(-BIG, 1), st.integers(1 << 30, 10**30), st.floats(max_value=1.0),
    st.floats(min_value=2.0**30), st.sampled_from([math.nan, math.inf, -math.inf]),
)
SCHEDULES = st.lists(
    st.tuples(values(st.floats()), SWEEPS).map(":".join), min_size=1, max_size=2
).map(",".join)


def options(folder):
    """Per subcommand, its arguments: (flag, values), flag None for a
    positional and values None for a switch."""
    files = st.sampled_from([f"{folder}/state.json", f"{folder}/signs.json", f"{folder}/missing.json", folder, ""])
    outs = st.sampled_from([f"{folder}/out.json", f"{folder}/missing/out.json", folder, ""])
    labels = st.lists(values(st.integers(1, 4), st.integers(-BIG, BIG)), min_size=1, max_size=3).map(",".join)
    return {
        "counts": [
            ("--table", values(st.sampled_from(["monomials", "equations"]))),
            ("--n-max", values(st.integers(-2, 10), st.integers(-BIG, BIG))),
            ("--pretty", None),
        ],
        "purity": [
            ("--file", values(files)),
            ("--subset", labels),
            ("--form", values(st.sampled_from(["1", "2"]))),
        ],
        "potential": [("--file", values(files)), ("--form", values(st.sampled_from(["1", "2", "4", "uniform"])))],
        "verify": [(None, values(files)), ("--tol", values(st.floats())), ("--pretty", None)],
        "catalog": [
            (None, values(st.sampled_from(CATALOG_NAMES))),
            ("--out", outs),
            ("--n", values(st.integers(1, 6), st.integers(-BIG, 0), st.integers(25, BIG))),
            ("--rotation", values(st.integers(0, 3), st.integers(-BIG, BIG))),
            ("--pretty", None),
        ],
        "search": [
            ("--n", values(st.integers(2, 4), st.integers(-BIG, 1), st.integers(6, BIG))),
            ("--mode", values(st.sampled_from(["full", "fix_global_sign"]))),
            ("--pretty", None),
        ],
        "anneal": [
            ("--n", values(st.integers(2, 6), st.integers(-BIG, 1), st.integers(14, BIG))),
            ("--schedule", SCHEDULES),
            ("--move", values(st.sampled_from(["sign_flip", "phase_rotation"]))),
            ("--max-angle", values(st.floats(0.01, math.pi), st.floats())),
            ("--replicas", values(st.integers(1, 3), st.integers(-BIG, 0), st.integers(MAX_REPLICAS + 1, 10**9))),
            ("--seed", values(st.integers(0, 9), st.integers(-BIG, BIG))),
            ("--pretty", None),
        ],
    }


@st.composite
def argvs(draw, commands):
    """A subcommand of commands (as options returns them) and a random
    selection of its arguments, each present seven times in eight, required
    ones included, and written as --flag=value so that negative numbers
    reach the parser as values; one time in eight a stray token at the end."""
    command = draw(st.sampled_from(sorted(commands)))
    argv = [command]
    for flag, strategy in commands[command]:
        if draw(st.integers(0, 7)):
            if strategy is None:
                argv.append(flag)
            else:
                value = draw(strategy)
                argv.append(value if flag is None else f"{flag}={value}")
    if not draw(st.integers(0, 7)):
        argv.append(draw(JUNK))
    return argv


class TestArgvFuzz:
    """Argument lists over the seven subcommands, run in process.

    Budget: 400 argv lists and the explicit extremes in under 10 s (2.5 s
    on one core of a 2-vCPU Xeon).
    """

    def test_every_argv_ends_in_an_exit_code(self):
        with tempfile.TemporaryDirectory() as folder:
            write_state(f"{folder}/state.json", random_state(3, 0))
            write_state(f"{folder}/signs.json", catalog_sign_vector("four_best"))
            write_sign_files(folder)

            # the first failing list is reported alone; anneal --n 513 raised
            # OverflowError from the sizing of its Gram state
            @settings(derandomize=True, deadline=None, max_examples=400, database=None,
                      report_multiple_bugs=False)
            @given(argvs(options(folder)))
            @example(["anneal", "--n", "513", "--schedule", "1:1"])
            @example(["anneal", "--n", str(BIG), "--schedule", "1:1"])
            @example(["search", "--n", str(BIG)])
            @example(["anneal", "--n", "2", "--schedule", "1:1e30"])
            @example(["anneal", "--n", "2", "--schedule", "1:1", "--replicas", str(10**9)])
            @example(["anneal", "--n", "2", "--schedule=nan:1,-inf:1", "--max-angle", "inf", "--seed", "-1"])
            @example(["catalog", "ghz", "--n", "", "--rotation", "\u4e8c"])
            @example(["purity", "--file", "\u00e9", "--subset", "-1"])
            @example(["potential", "--file=--"])  # argparse stores [] for the value
            # these paid 4.3 GB (a MemoryError traceback), 4^13 terms and 8.6 GB
            @example(["purity", "--file", f"{folder}/s14.json", "--subset", ",".join(map(str, range(1, 14)))])
            @example(["purity", "--file", f"{folder}/s13.json", "--subset", "1", "--form", "2"])
            @example(["catalog", "ghz", "--n", "24"])
            def check(argv):
                code, _, err = run_quietly(argv)
                assert code in (0, 1, 2)
                assert "Traceback" not in err

            start = time.perf_counter()
            check()
            assert time.perf_counter() - start < 10.0

# stdout of verify, potential and purity --form 1/2 (on SUBSETS[n]) as printed
# by the one-term-at-a-time XOR loops and the per-amplitude complex() reader,
# which the blocked sums and the array reader must reproduce byte for byte:
# (n, seed of random_state or "mixed", verify, potential, form 1, form 2).
# The odd-n rows (N_A != N_Abar) and the n = 2 random row were printed by the
# per-subset transposes the gathered Gram chunks replaced.
PINNED = [
    (6, 0, '{"is_perfect":false,"n":6,"tolerance":1e-09,"worst_marginal_gap":0.12061578940769913,"worst_phase_residual":0.10037268435964274,"worst_purity_gap":0.16195678962677967}', '0.24496079629872325', '0.3152319483402246', '0.3152319483402248'),
    (6, 1, '{"is_perfect":false,"n":6,"tolerance":1e-09,"worst_marginal_gap":0.2170002074343914,"worst_phase_residual":0.12672336413939542,"worst_purity_gap":0.1679340670575118}', '0.26613692640501774', '0.3342233112759971', '0.334223311275997'),
    (8, 0, '{"is_perfect":false,"n":8,"tolerance":1e-09,"worst_marginal_gap":0.10759470847015468,"worst_phase_residual":0.051139860544137196,"worst_purity_gap":0.07486743958944225}', '0.12552560938735077', '0.1305299937735458', '0.1305299937735458'),
    (8, 1, '{"is_perfect":false,"n":8,"tolerance":1e-09,"worst_marginal_gap":0.08653944740402186,"worst_phase_residual":0.04546422741412737,"worst_purity_gap":0.07506013265997558}', '0.12747904464125007', '0.13659025667206104', '0.136590256672061'),
    (10, 0, '{"is_perfect":false,"n":10,"tolerance":1e-09,"worst_marginal_gap":0.03962764687643905,"worst_phase_residual":0.019306788181533995,"worst_purity_gap":0.034536594577497665}', '0.06201578707167371', '0.06064037024445109', '0.06064037024445109'),
    (10, 1, '{"is_perfect":false,"n":10,"tolerance":1e-09,"worst_marginal_gap":0.04192825665264699,"worst_phase_residual":0.021756880762487423,"worst_purity_gap":0.03391921717165487}', '0.06221116382567331', '0.06296742477503924', '0.06296742477503924'),
    (2, 0, '{"is_perfect":false,"n":2,"tolerance":1e-09,"worst_marginal_gap":0.37002289998445237,"worst_phase_residual":0.33977981305532134,"worst_purity_gap":0.3074057124655344}', '0.8074057124655343', '0.8074057124655344', '0.8074057124655344'),
    (3, 0, '{"is_perfect":false,"n":3,"tolerance":1e-09,"worst_marginal_gap":0.28211252190785296,"worst_phase_residual":0.38564141557402115,"worst_purity_gap":0.31464333514818654}', '0.7930551175248239', '0.8146433351481865', '0.8146433351481864'),
    (5, 0, '{"is_perfect":false,"n":5,"tolerance":1e-09,"worst_marginal_gap":0.1697913878783876,"worst_phase_residual":0.16247395707620949,"worst_purity_gap":0.15278268003540002}', '0.3597005124954965', '0.31914289639060844', '0.3191428963906084'),
    (7, 0, '{"is_perfect":false,"n":7,"tolerance":1e-09,"worst_marginal_gap":0.10754533183263815,"worst_phase_residual":0.08692042189815434,"worst_purity_gap":0.07948924557463044}', '0.186359211650345', '0.16865201276410283', '0.16865201276410283'),
    (9, 0, '{"is_perfect":false,"n":9,"tolerance":1e-09,"worst_marginal_gap":0.06259691228899159,"worst_phase_residual":0.037655369760455186,"worst_purity_gap":0.040300056757102284}', '0.09443453028302994', '0.09425217036471599', '0.094252170364716'),
    (2, "mixed", '{"is_perfect":true,"n":2,"tolerance":1e-09,"worst_marginal_gap":0.0,"worst_phase_residual":0.0,"worst_purity_gap":0.0}', '0.5', '0.5', '0.5'),
]
SUBSETS = {2: "2", 3: "2", 5: "1,4", 6: "1,3", 7: "2,3,6", 8: "2,3,5,8", 9: "1,3,4,8", 10: "1,4,5,9,10"}
# integer components and -0.0 next to floats
MIXED = {"n": 2, "format": "complex", "data": [[0.5, -0.0], [0.5, 0], [0, 0.5], [-0.0, -0.5]]}
# stdout of potential --form 2 and --form 4 for the PINNED states with
# n <= 8, as printed by the quadruple sums that cut their own index blocks:
# (n, seed of random_state or "mixed", form 2, form 4).
PINNED_FORMS = [
    (6, 0, '0.24496079629872325', '0.24496079629872336'),
    (6, 1, '0.26613692640501774', '0.26613692640501785'),
    (8, 0, '0.12552560938735075', '0.1255256093873507'),
    (8, 1, '0.12747904464125004', '0.12747904464125015'),
    (2, 0, '0.8074057124655347', '0.8074057124655347'),
    (3, 0, '0.7930551175248238', '0.7930551175248237'),
    (5, 0, '0.35970051249549656', '0.3597005124954964'),
    (7, 0, '0.18635921165034497', '0.18635921165034497'),
    (2, "mixed", '0.5', '0.5'),
]
# stdout of potential --form uniform on the sign vector of
# default_rng(200 + n).choice((-1, 1)), as printed when the exact sign sum
# summed int64 copies of its Gram stacks: (n, stdout).
PINNED_UNIFORM = [
    (4, '0.3854166666666667'),
    (5, '0.3109375'),
    (6, '0.235546875'),
    (7, '0.17440011160714286'),
    (8, '0.12391531808035715'),
    (9, '0.09432450551835317'),
    (10, '0.06172240726531498'),
]
# stdout of seeded sign-flip anneals (n = 8, 9; two replicas; a negative beta)
# as printed when the Gram state gathered rows and columns by separate
# three-index lookups; the values are exact rationals, so the bytes do not
# depend on the machine: (argv after "anneal", stdout).
PINNED_ANNEAL = [
    ('--n 8 --schedule 10:3,1000:3 --seed 0', '{"best_state":"+++------++++++-+-----+----+-++-+-++-+-++---+++---++-+-----+--+-++-----++--+++---+-+----+-+-+-----+---++++++--+-++-+++--+--++-+-+---+-----+-++-+-+++-----+--+++-+---++-++++---++-++++-+-+--+---+-++-+++-+-----+---+--++++---++---+-++-+++++-+-+-+--+--+--+------","evaluations":1537,"min_value":0.10997837611607143,"min_value_exact":"31533/286720","mode":"anneal","n":8,"objective":"minimize","replica_best_values":[0.10997837611607143],"sample_minimizers":["+++------++++++-+-----+----+-++-+-++-+-++---+++---++-+-----+--+-++-----++--+++---+-+----+-+-+-----+---++++++--+-++-+++--+--++-+-+---+-----+-++-+-+++-----+--+++-+---++-++++---++-++++-+-+--+---+-++-+++-+-----+---+--++++---++---+-++-+++++-+-+-+--+--+--+------"]}'),
    ('--n 8 --schedule 10:3,1000:3 --seed 1', '{"best_state":"--++--+------++-+-+--+++----+-+--+-+---+-+++-+++------+++--++-++-+-+-+-++-+--+---+----++-+--++--++---++++--++--++++-+------+-----+-+++++--++-+++-+++++-+-++----+--+--+-----++++--+-++--+-+-+--+---++-++--+-----++++-+-+---++----+++--+------++++--++++--+-+-+---","evaluations":1537,"min_value":0.11089564732142858,"min_value_exact":"7949/71680","mode":"anneal","n":8,"objective":"minimize","replica_best_values":[0.11089564732142858],"sample_minimizers":["--++--+------++-+-+--+++----+-+--+-+---+-+++-+++------+++--++-++-+-+-+-++-+--+---+----++-+--++--++---++++--++--++++-+------+-----+-+++++--++-+++-+++++-+-++----+--+--+-----++++--+-++--+-+-+--+---++-++--+-----++++-+-+---++----+++--+------++++--++++--+-+-+---"]}'),
    ('--n 9 --schedule 10:3,1000:3 --seed 0', '{"best_state":"-++++---++-+-++++-+-+---+-++---+-+--++----++-------+-+-+--+-+--++--++++-++-+-+--++-++-+++--++++-------+---++-+++--+-++-++-+--+--+---++--+-+-+-++--+-+--+++---+--+--++-++--++--+-+---+--+-+---+-+-+-+++--++-++-+++-------++-+++++-+-+-++-+-++-++--++-+-++-+--+-+----++--++++++---++++++-++++++----++-+++----++-+++--+++---+++-+++++-------+-+--++---+----++--++--++-++-+++++-++++--++-+--+++++-+---+----+---+++-+-+--+-+-++-+-+-+---+--+++---++++-+-++-+--+++++-+-++++----++-++---+----+---++++-+--++-+++--++----+-++-+++-++-++-+","evaluations":3073,"min_value":0.08786495148189484,"min_value_exact":"181387/2064384","mode":"anneal","n":9,"objective":"minimize","replica_best_values":[0.08786495148189484],"sample_minimizers":["-++++---++-+-++++-+-+---+-++---+-+--++----++-------+-+-+--+-+--++--++++-++-+-+--++-++-+++--++++-------+---++-+++--+-++-++-+--+--+---++--+-+-+-++--+-+--+++---+--+--++-++--++--+-+---+--+-+---+-+-+-+++--++-++-+++-------++-+++++-+-+-++-+-++-++--++-+-++-+--+-+----++--++++++---++++++-++++++----++-+++----++-+++--+++---+++-+++++-------+-+--++---+----++--++--++-++-+++++-++++--++-+--+++++-+---+----+---+++-+-+--+-+-++-+-+-+---+--+++---++++-+-++-+--+++++-+-++++----++-++---+----+---++++-+--++-+++--++----+-++-+++-++-++-+"]}'),
    ('--n 9 --schedule 10:3,1000:3 --seed 1', '{"best_state":"-+++-+++-+-+-++-++----++++-+--+---++++--+-+++++--+-++-+--+++-+----+---+--++-+-+-+-++++---+++-+++----+---+-++----+-++-++-----+----+--+--+++-++--++----+--++++-++-+-+---+-+++++--++++-+-++++-++++------++--+-----+--+++++++-+++-++-+-+-++-+--+++-----------++++++--++-++--++++--++-++-+---+-+-++++--+++++++++-+++-++++-+-++----+-+-+-+----+--++-+++-+++-++-++-+++-+-+-+++-+--+++-++-+++++++-+-++-+-++-+-++----+--+-++-++---+++---++-++++++---+-+++------++++-+-++-++---+--++-+--+-----++--+++-++-++--+--+--++++--++-+-++---++++++-","evaluations":3073,"min_value":0.08812410869295635,"min_value_exact":"90961/1032192","mode":"anneal","n":9,"objective":"minimize","replica_best_values":[0.08812410869295635],"sample_minimizers":["-+++-+++-+-+-++-++----++++-+--+---++++--+-+++++--+-++-+--+++-+----+---+--++-+-+-+-++++---+++-+++----+---+-++----+-++-++-----+----+--+--+++-++--++----+--++++-++-+-+---+-+++++--++++-+-++++-++++------++--+-----+--+++++++-+++-++-+-+-++-+--+++-----------++++++--++-++--++++--++-++-+---+-+-++++--+++++++++-+++-++++-+-++----+-+-+-+----+--++-+++-+++-++-++-+++-+-+-+++-+--+++-++-+++++++-+-++-+-++-+-++----+--+-++-++---+++---++-++++++---+-+++------++++-+-++-++---+--++-+--+-----++--+++-++-++--+--+--++++--++-+-++---++++++-"]}'),
    ('--n 8 --schedule 10:3,1000:3 --seed 2 --replicas 2', '{"best_state":"-+--++-+-+--+++------++---+--++-+--++++--+----+-++---+--+-+-+-+-++-+-+-----++--------++++-++++--+-++---+--++-++--++---+--++-------+-+-++++++-++-+++-+++---+-++----++++-+---++--++-+++-++-++-++-++------+-+----------+-+---++--+----++--+--+-----+-++--+-+-++-+-+","evaluations":3074,"min_value":0.10936453683035714,"min_value_exact":"31357/286720","mode":"anneal","n":8,"objective":"minimize","replica_best_values":[0.10997488839285714,0.10936453683035714],"sample_minimizers":["-+--++-+-+--+++------++---+--++-+--++++--+----+-++---+--+-+-+-+-++-+-+-----++--------++++-++++--+-++---+--++-++--++---+--++-------+-+-++++++-++-+++-+++---+-++----++++-+---++--++-+++-++-++-++-++------+-+----------+-+---++--+----++--+--+-----+-++--+-+-++-+-+"]}'),
    ('--n 8 --schedule=-1:3,-10:3 --seed 3', '{"best_state":"--++-++++-+----+-+-++-+---+--++--+-+----+-------++---++++++++---++--+-+---+--+----+----++---+----+-+-+-+-+--+-------+++---+--+-++--++---+++--+++++-----++--++--+-+++--+-+--++--+++-++--+++++++++-++++----+--++--+-+----+++---+-+++++-++--+-+++---+--+--++-++--++","evaluations":1537,"min_value":0.12698451450892856,"min_value_exact":"36409/286720","mode":"anneal","n":8,"objective":"maximize","replica_best_values":[0.12698451450892856],"sample_minimizers":["--++-++++-+----+-+-++-+---+--++--+-+----+-------++---++++++++---++--+-+---+--+----+----++---+----+-+-+-+-+--+-------+++---+--+-++--++---+++--+++++-----++--++--+-+++--+-+--++--+++-++--+++++++++-++++----+--++--+-+----+++---+-+++++-++--+-+++---+--+--++-++--++"]}'),
]


# Phase walks print every phase, so their stdout is pinned by its SHA-256
# (with the reported values, for a readable failure).  The n = 9 digest was
# printed when the starting Gram sum was a complex dot that OpenBLAS split
# over its threads (the same with 1, 2, 3, 4 and 8 threads on 2 vCPUs); it is
# now a single-threaded einsum, whose last bits can differ, and the bytes hold.
PINNED_PHASE_ANNEAL = [
    ('--n 8 --schedule 10:3,1000:3 --move phase_rotation --seed 0', [0.1144486627115323], 'e1200677244dd687f9f88ea320182b80abcc1c929eba27a5385e393dd1d90bec'),
    ('--n 9 --schedule 10:3,1000:3 --move phase_rotation --seed 0', [0.08975983859159162], 'e6feea0faa0f16eb6e9bddba98ce93b7a25169c565283297dd35bb1c1de98090'),
    ('--n 8 --schedule 10:3,1000:3 --move phase_rotation --max-angle 0.3 --replicas 2 --seed 4', [0.11800569785648911, 0.11807986931322197], '587f2418f4b004c85add2cebaac3677302915188ca5ab85437cce6e91a0b82f6'),
    ('--n 8 --schedule=-1:2,-10:2 --move phase_rotation --seed 3', [0.12748263009067146], '3428f387efe062334f724c10e13f21520c1807dc32f348d1b0612a30427f8d57'),
]

PINNED_SEARCH = [
    ('--n 2 --mode full', '{"evaluations":16,"min_value":0.5,"min_value_exact":"1/2","minimizer_count":8,"mode":"exhaustive","n":2,"sample_minimizers":["-+++","+-++","---+","++-+","-+--","+---","--+-","+++-"]}'),
    ('--n 2 --mode fix_global_sign', '{"evaluations":8,"min_value":0.5,"min_value_exact":"1/2","minimizer_count":4,"mode":"exhaustive","n":2,"sample_minimizers":["+-++","++-+","+---","+++-"]}'),
    ('--n 3 --mode full', '{"evaluations":256,"min_value":0.5,"min_value_exact":"1/2","minimizer_count":64,"mode":"exhaustive","n":3,"sample_minimizers":["+--+++++","-++-++++","+++--+++","--+--+++","-+---+++","++-+-+++","---+-+++","+-++-+++","-+-+--++","+-+---++","+++-+-++","--+-+-++","+---+-++","++-++-++","---++-++","-++++-++"]}'),
    ('--n 3 --mode full --pretty', '{\n  "evaluations": 256,\n  "min_value": 0.5,\n  "min_value_exact": "1/2",\n  "minimizer_count": 64,\n  "mode": "exhaustive",\n  "n": 3,\n  "sample_minimizers": [\n    "+--+++++",\n    "-++-++++",\n    "+++--+++",\n    "--+--+++",\n    "-+---+++",\n    "++-+-+++",\n    "---+-+++",\n    "+-++-+++",\n    "-+-+--++",\n    "+-+---++",\n    "+++-+-++",\n    "--+-+-++",\n    "+---+-++",\n    "++-++-++",\n    "---++-++",\n    "-++++-++"\n  ]\n}'),
    ('--n 3 --mode fix_global_sign', '{"evaluations":128,"min_value":0.5,"min_value_exact":"1/2","minimizer_count":32,"mode":"exhaustive","n":3,"sample_minimizers":["+--+++++","+++--+++","++-+-+++","+-++-+++","+-+---++","+++-+-++","+---+-++","++-++-++","+++++--+","+------+","++-+---+","+-++---+","++---+-+","+++-++-+","+---++-+","+-++++-+"]}'),
    ('--n 4 --mode full', '{"evaluations":65536,"min_value":0.3333333333333333,"min_value_exact":"1/3","minimizer_count":1056,"mode":"exhaustive","n":4,"sample_minimizers":["-+-++--+--++++++","+-+-+--+--++++++","-++--+-+--++++++","+--++-+---++++++","-+-+-++---++++++","+-+--++---++++++","-+-+--+++--+++++","+-+---+++--+++++","+++++--++--+++++","----+--++--+++++","--++-+-++--+++++","++---+-++--+++++","-+-+++--+--+++++","+-+-++--+--+++++","--+++-+-+--+++++","++--+-+-+--+++++"]}'),
    ('--n 4 --mode fix_global_sign', '{"evaluations":32768,"min_value":0.3333333333333333,"min_value_exact":"1/3","minimizer_count":528,"mode":"exhaustive","n":4,"sample_minimizers":["+-+-+--+--++++++","+--++-+---++++++","+-+--++---++++++","+-+---+++--+++++","+++++--++--+++++","++---+-++--+++++","+-+-++--+--+++++","++--+-+-+--+++++","++++-++-+--+++++","++--+--+-+-+++++","+--+++---+-+++++","++---++--+-+++++","+-+-+--+++--++++","+--+-+-+++--++++","+-+--++-++--++++","+--+--+++-+-++++"]}'),
]


def write_pinned(tmp_path, n, seed):
    """Write the PINNED state of (n, seed) and return its path."""
    path = tmp_path / "state.json"
    if seed == "mixed":
        path.write_text(json.dumps(MIXED))
    else:
        write_state(path, random_state(n, seed))
    return str(path)


class TestPinnedBytes:
    @pytest.mark.parametrize("n, seed, verify, potential, form1, form2", PINNED)
    def test_stdout_is_unchanged(self, capture, tmp_path, n, seed, verify, potential, form1, form2):
        path = write_pinned(tmp_path, n, seed)
        assert capture(["verify", path]) == (0, verify + "\n", "")
        pretty = json.dumps(json.loads(verify), sort_keys=True, indent=2) + "\n"
        assert capture(["verify", path, "--pretty"]) == (0, pretty, "")
        assert capture(["potential", "--file", path]) == (0, potential + "\n", "")
        for form, want in (("1", form1), ("2", form2)):
            argv = ["purity", "--file", path, "--subset", SUBSETS[n], "--form", form]
            assert capture(argv) == (0, want + "\n", "")

    @pytest.mark.parametrize("n, seed, form2, form4", PINNED_FORMS)
    def test_quadruple_sum_potentials_are_unchanged(self, capture, tmp_path, n, seed, form2, form4):
        path = write_pinned(tmp_path, n, seed)
        for form, want in (("2", form2), ("4", form4)):
            assert capture(["potential", "--file", path, "--form", form]) == (0, want + "\n", "")

    @pytest.mark.parametrize("n, stdout", PINNED_UNIFORM)
    def test_uniform_sign_potentials_are_unchanged(self, capture, state_file, n, stdout):
        path = state_file(SignVector(n, np.random.default_rng(200 + n).choice((-1, 1), size=1 << n)))
        assert capture(["potential", "--file", path, "--form", "uniform"]) == (0, stdout + "\n", "")

    @pytest.mark.parametrize("argv, stdout", PINNED_ANNEAL, ids=[a for a, _ in PINNED_ANNEAL])
    def test_seeded_sign_anneals_are_unchanged(self, capture, argv, stdout):
        assert capture(["anneal", *argv.split()]) == (0, stdout + "\n", "")

    @pytest.mark.parametrize(
        "argv, values, digest", PINNED_PHASE_ANNEAL, ids=[a for a, _, _ in PINNED_PHASE_ANNEAL]
    )
    def test_seeded_phase_anneals_are_unchanged(self, capture, argv, values, digest):
        code, out, err = capture(["anneal", *argv.split()])
        assert (code, err) == (0, "")
        assert json.loads(out)["replica_best_values"] == values
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, stdout", PINNED_SEARCH, ids=[a for a, _ in PINNED_SEARCH])
    def test_exhaustive_searches_are_unchanged(self, capture, argv, stdout):
        assert capture(["search", *argv.split()]) == (0, stdout + "\n", "")

    def test_sweeps_in_one_process_print_the_pinned_bytes(self, capture):
        # each sweep reads its n's cached plan; none leaks into another n or mode
        pinned = dict(PINNED_SEARCH)
        search._census.cache_clear()
        for first in (0, 1):
            for k, n in enumerate((4, 3, 4, 2, 3)):
                argv = f"--n {n} --mode {('full', 'fix_global_sign')[(first + k) % 2]}"
                assert capture(["search", *argv.split()]) == (0, pinned[argv] + "\n", "")
        assert search._census.cache_info().misses == 3


def read_signs(text):
    from mmeskit import SignVector

    return SignVector.from_string(text)
