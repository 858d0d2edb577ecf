"""The benchmark's workloads: seeded inputs, command mixes and output checks.

Each workload is a round of mmeskit CLI commands that a single client runs
in a closed loop (the next command starts when the previous one returns).
Inputs come from numpy generators seeded by the workload seed and are
written in mmeskit's JSON state format; mmeskit sees only the files and
flags.  Every command's stdout is checked against an independent
reference (see reference.py) or a pinned exact value.

Only CLI flags that the project plans to keep are used (no --threads), so
the mixes stay valid as the library's internals change.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import reference

TOL = 1e-12
VERIFY_TOL = 1e-9  # the `verify` default

# Exact sweep results (minimum, minimizer count) by n and mode.
SWEEP_PINS = {
    (2, "full"): (Fraction(1, 2), 8),
    (3, "full"): (Fraction(1, 2), 64),
    (3, "fix_global_sign"): (Fraction(1, 2), 32),
    (4, "full"): (Fraction(1, 3), 1056),
    (4, "fix_global_sign"): (Fraction(1, 3), 528),
}
# Exact potentials of the perfect catalog states.
CATALOG_PINS = {"five_perfect": Fraction(1, 4), "six_perfect": Fraction(1, 8)}

ANNEAL_SCHEDULE = "10:3,1000:3"


class CheckError(Exception):
    """A command's output disagrees with the reference."""


@dataclass
class Command:
    kind: str
    argv: list[str]
    check: Callable[[str], None]


@dataclass
class Workload:
    """A command mix: pools of commands per kind and the kinds in a round.

    Round r uses, for a kind listed c times per round, the pool entries
    c*r .. c*r + c - 1 (cyclically), so inputs vary between rounds and
    every kind's inputs repeat.  `setup` commands write inputs that only
    mmeskit can produce (catalog states) and run first in every set-up.
    """

    name: str
    pools: dict[str, list[Command]]
    round_kinds: list[str]
    setup: list[Command] = field(default_factory=list)

    def warmup(self) -> list[Command]:
        """The set-up commands, then one command of each kind."""
        return self.setup + [self.pools[k][0] for k in dict.fromkeys(self.round_kinds)]

    def round(self, r: int) -> list[Command]:
        per_round = {k: self.round_kinds.count(k) for k in self.pools}
        seen: dict[str, int] = {}
        out = []
        for kind in self.round_kinds:
            pool = self.pools[kind]
            i = per_round[kind] * r + seen.get(kind, 0)
            seen[kind] = seen.get(kind, 0) + 1
            out.append(pool[i % len(pool)])
        return out


# --- input files ---------------------------------------------------------


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _dense_state(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return v / np.linalg.norm(v)


def _write_dense(path: str, amp: np.ndarray, n: int) -> None:
    data = [[float(z.real), float(z.imag)] for z in amp]
    _write_json(path, {"n": n, "format": "complex", "data": data})


def _signs_string(signs: np.ndarray) -> str:
    return "".join("+" if s > 0 else "-" for s in signs)


def _parse_signs(text: str) -> np.ndarray:
    return np.array([1 if c == "+" else -1 for c in text], dtype=np.int64)


def _read_signs(path: str) -> tuple[np.ndarray, int]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != "signs":
        raise CheckError(f"{path}: expected a sign-format state")
    return _parse_signs(doc["data"]), int(doc["n"])


# --- output checks -------------------------------------------------------


def _close(got: float, want: float, what: str) -> None:
    if not abs(got - want) <= TOL:
        raise CheckError(f"{what}: got {got!r}, reference {want!r}")


def _check_float(want: Callable[[], float], what: str) -> Callable[[str], None]:
    def check(out: str) -> None:
        _close(float(out), want(), what)

    return check


def _check_exact(want: Callable[[], Fraction], what: str) -> Callable[[str], None]:
    """Output must be exactly the float of the exact reference."""

    def check(out: str) -> None:
        ref = want()
        if out.strip() != repr(float(ref)):
            raise CheckError(f"{what}: got {out.strip()}, exact reference {ref} = {float(ref)!r}")

    return check


def _check_verdict(want: Callable[[], dict], what: str) -> Callable[[str], None]:
    def check(out: str) -> None:
        doc = json.loads(out)
        ref = want()
        for key in ("n", "is_perfect", "tolerance"):
            if doc[key] != ref[key]:
                raise CheckError(f"{what}: {key} is {doc[key]!r}, reference {ref[key]!r}")
        for key in ("worst_purity_gap", "worst_marginal_gap", "worst_phase_residual"):
            _close(float(doc[key]), ref[key], f"{what} {key}")

    return check


def _check_sweep(n: int, mode: str) -> Callable[[str], None]:
    value, count = SWEEP_PINS[(n, mode)]

    def check(out: str) -> None:
        doc = json.loads(out)
        if Fraction(doc["min_value_exact"]) != value or doc["min_value"] != float(value):
            raise CheckError(f"search n={n} {mode}: minimum {doc['min_value_exact']}, pinned {value}")
        if doc["minimizer_count"] != count:
            raise CheckError(f"search n={n} {mode}: {doc['minimizer_count']} minimizers, pinned {count}")
        samples = doc["sample_minimizers"]
        if not samples or not isinstance(doc["evaluations"], int) or doc["evaluations"] < 1:
            raise CheckError(f"search n={n} {mode}: empty report")
        for text in samples:
            if reference.potential_exact(_parse_signs(text), n) != value:
                raise CheckError(f"search n={n} {mode}: sample {text} is not a minimizer")

    return check


def _check_anneal(n: int) -> Callable[[str], None]:
    """Re-verify an anneal report from its best state."""

    def check(out: str) -> None:
        doc = json.loads(out)
        if doc["n"] != n or doc["objective"] != "minimize":
            raise CheckError(f"anneal n={n}: unexpected header {doc['n']}, {doc['objective']}")
        best = doc["best_state"]
        value = doc["min_value"]
        if isinstance(best, str):
            exact = reference.potential_exact(_parse_signs(best), n)
            if Fraction(doc["min_value_exact"]) != exact or value != float(exact):
                raise CheckError(f"anneal n={n}: reported {doc['min_value_exact']}, best state gives {exact}")
        else:
            amp = np.array([complex(re, im) for re, im in best["data"]])
            if float(np.max(np.abs(np.abs(amp) ** 2 - 1.0 / (1 << n)))) > TOL:
                raise CheckError(f"anneal n={n}: best state is not uniform")
            _close(value, reference.potential(amp, n), f"anneal n={n} phase best")
        if value != min(doc["replica_best_values"]):
            raise CheckError(f"anneal n={n}: best value is not the best replica value")
        if value < 1.0 / (1 << (n // 2)) - TOL:
            raise CheckError(f"anneal n={n}: value {value!r} below the potential's floor")

    return check


def _anneal_command(n: int, move: str, seed: int, first_stdout: dict) -> Command:
    """An anneal run whose repeats must print the first run's stdout."""
    argv = ["anneal", "--n", str(n), "--schedule", ANNEAL_SCHEDULE, "--move", move,
            "--seed", str(seed)]
    verify = _check_anneal(n)
    key = tuple(argv)

    def check(out: str) -> None:
        if key in first_stdout:
            if out != first_stdout[key]:
                raise CheckError(f"{' '.join(argv)}: stdout differs from an earlier run")
            return
        verify(out)
        first_stdout[key] = out

    kind = f"anneal.n{n}.{'sign' if move == 'sign_flip' else 'phase'}"
    return Command(kind, argv, check)


def _catalog_command(name: str, path: str) -> Command:
    """`catalog NAME --out PATH`; the written state must have the pinned potential."""

    def check(out: str) -> None:
        s, n = _read_signs(path)
        if out or reference.potential_exact(s, n) != CATALOG_PINS[name]:
            raise CheckError(f"catalog {name} does not have potential {CATALOG_PINS[name]}")

    return Command(f"catalog.{name}", ["catalog", name, "--out", path], check)


# --- the three workloads ---------------------------------------------------

POOL = 3  # seeded inputs per size in `evaluate`, cycled by round


def evaluate(rng: np.random.Generator, workdir: str) -> Workload:
    """potential, verify and purity on dense and sign-vector states."""
    refs: dict = {}
    pools: dict[str, list[Command]] = {}

    def path(name: str) -> str:
        return os.path.join(workdir, name)

    dense = {n: [_dense_state(rng, n) for _ in range(POOL)] for n in (6, 8, 10)}
    signs8 = [rng.integers(0, 2, 256) * 2 - 1 for _ in range(POOL)]
    ghz4 = np.zeros(16, dtype=complex)
    ghz4[0] = ghz4[15] = 1 / math.sqrt(2)
    subset = tuple(sorted(int(q) for q in rng.choice(np.arange(1, 9), 4, replace=False)))
    axes = tuple(q - 1 for q in subset)

    for n, states in dense.items():
        for i, amp in enumerate(states):
            f = path(f"dense{n}_{i}.json")
            _write_dense(f, amp, n)
            refs[f] = amp
    for i, s in enumerate(signs8):
        f = path(f"signs8_{i}.json")
        _write_json(f, {"n": 8, "format": "signs", "data": _signs_string(s)})
        refs[f] = s
    ghz_file = path("ghz4.json")
    _write_dense(ghz_file, ghz4, 4)
    catalog_files = {name: path(f"{name}.json") for name in CATALOG_PINS}

    memo: dict = {}

    def cached(key, compute):
        def get():
            if key not in memo:
                memo[key] = compute()
            return memo[key]

        return get

    def dense_files(n):
        return [path(f"dense{n}_{i}.json") for i in range(POOL)]

    for n in (6, 8, 10):
        pools[f"potential.d{n}"] = [
            Command(f"potential.d{n}", ["potential", "--file", f],
                    _check_float(cached(("pot", f), lambda f=f, n=n: reference.potential(refs[f], n)),
                                 f"potential {f}"))
            for f in dense_files(n)
        ]
    sign_files = [path(f"signs8_{i}.json") for i in range(POOL)]
    pools["uniform.s8"] = [
        Command("uniform.s8", ["potential", "--file", f, "--form", "uniform"],
                _check_exact(cached(("exact", f), lambda f=f: reference.potential_exact(refs[f], 8)),
                             f"potential --form uniform {f}"))
        for f in sign_files
    ]
    six = catalog_files["six_perfect"]
    pools["uniform.six"] = [
        Command("uniform.six", ["potential", "--file", six, "--form", "uniform"],
                _check_exact(lambda: CATALOG_PINS["six_perfect"], "potential --form uniform six_perfect"))
    ]

    def verify_cmd(kind, f, amp_of, n):
        return Command(kind, ["verify", f],
                       _check_verdict(cached(("verdict", f), lambda: reference.verdict(amp_of(), n, VERIFY_TOL)),
                                      f"verify {f}"))

    for n in (6, 8):
        pools[f"verify.d{n}"] = [verify_cmd(f"verify.d{n}", f, lambda f=f: refs[f], n) for f in dense_files(n)]
    for name, n in (("five_perfect", 5), ("six_perfect", 6)):
        f = catalog_files[name]
        pools[f"verify.{name}"] = [
            verify_cmd(f"verify.{name}", f, lambda f=f, n=n: _read_signs(f)[0] / math.sqrt(1 << n), n)
        ]
    pools["verify.ghz4"] = [verify_cmd("verify.ghz4", ghz_file, lambda: ghz4, 4)]

    label = ",".join(str(q) for q in subset)
    for form in (1, 2):
        pools[f"purity{form}.d8"] = [
            Command(f"purity{form}.d8", ["purity", "--file", f, "--subset", label, "--form", str(form)],
                    _check_float(cached(("purity", f), lambda f=f: reference.purity(refs[f], 8, axes)),
                                 f"purity --form {form} {f}"))
            for f in dense_files(8)
        ]

    kinds = list(pools)
    order = [kinds[i] for i in rng.permutation(len(kinds))]
    return Workload(
        name="evaluate",
        pools=pools,
        round_kinds=order,
        setup=[_catalog_command(name, f) for name, f in catalog_files.items()],
    )


def sweep(rng: np.random.Generator, workdir: str) -> Workload:
    """Exhaustive sign-space searches at n = 4 (both modes) and n = 3."""
    specs = [(4, "full"), (4, "fix_global_sign"), (3, "full")]
    pools = {}
    for n, mode in specs:
        argv = ["search", "--n", str(n)] + (["--mode", mode] if mode != "full" else [])
        kind = f"search.n{n}" + (".fix" if mode != "full" else "")
        pools[kind] = [Command(kind, argv, _check_sweep(n, mode))]
    kinds = list(pools)
    order = [kinds[i] for i in rng.permutation(len(kinds))]
    return Workload(name="sweep", pools=pools, round_kinds=order)


def anneal(rng: np.random.Generator, workdir: str) -> Workload:
    """Seeded annealing runs at n = 8 (sign and phase moves) and n = 9.

    One n=9 run costs about as much as four n=8 runs, so a round of two
    n=8 sign runs, two n=8 phase runs and one n=9 run splits its wall time
    roughly evenly between the two sizes.
    """
    first_stdout: dict = {}
    seeds = [int(x) for x in rng.integers(0, 2**31, 6)]
    pools = {
        "anneal.n8.sign": [_anneal_command(8, "sign_flip", s, first_stdout) for s in seeds[0:2]],
        "anneal.n8.phase": [_anneal_command(8, "phase_rotation", s, first_stdout) for s in seeds[2:4]],
        "anneal.n9.sign": [_anneal_command(9, "sign_flip", s, first_stdout) for s in seeds[4:6]],
    }
    kinds = ["anneal.n8.sign", "anneal.n8.phase", "anneal.n8.sign", "anneal.n8.phase", "anneal.n9.sign"]
    order = [kinds[i] for i in rng.permutation(len(kinds))]
    return Workload(name="anneal", pools=pools, round_kinds=order)


WORKLOADS = {"evaluate": evaluate, "sweep": sweep, "anneal": anneal}

# Extra correctness spot-checks run once after the measured loop.
POST_CHECKS = {"sweep": [Command("search.n2", ["search", "--n", "2"], _check_sweep(2, "full"))]}
