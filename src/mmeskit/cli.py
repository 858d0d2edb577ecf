"""Command line front end: tables, purities, potentials, verdicts, searches.

Subcommands:
- counts     exact monomial or equation/variable count tables as TSV
- purity     purity of one bipartition of a state file
- potential  potential of multipartite entanglement of a state file
- verify     perfect-MMES verdict of a state file, as JSON
- catalog    write a named optimal state to a file or stdout
- search     exhaustive sign-space sweep, report as JSON
- anneal     Metropolis annealing run, report as JSON

Numeric output is a thin veneer over the library: floats print in their
shortest round-trip form, JSON is emitted with sorted keys and no
whitespace (indented with --pretty), and reports omit wall-clock time, so
identical inputs and seeds give byte-identical output.  Exit codes:
0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from functools import lru_cache
from typing import Optional, Sequence, Union

from . import potential
from ._catalog_data import SIGN_TARGETS
from .bitspace import MAX_QUBITS, QubitMask, _check_bytes
from .bipartite import purity_form1, purity_form2
from .mmes import (
    CATALOG_NAMES, catalog, catalog_sign_vector, equation_variable_counts, is_perfect_mmes
)
from .search import AnnealConfig, SearchReport, anneal, exhaustive_search
from .states import (
    PureState,
    SignVector,
    _check_document,
    assemble,
    polar,
    state_from_json,
    state_to_json,
    uniform_from_signs,
)

__all__ = ["run", "main", "read_state", "write_state"]


# Parsing a complex document holds its text and, per amplitude (one `[`
# each), the [re, im] list, its two floats and the arrays built from them:
# 176 B measured past the text (tracemalloc, n = 14, dense and GHZ,
# compact and indented).
PARSE_BYTES = 192


def read_state(path: str) -> Union[PureState, SignVector]:
    """Load a state file in the JSON layout of `states`.

    A file whose reading (its bytes and their text, twice its size) or
    parsing (its text and PARSE_BYTES per `[`) would take over
    bitspace.MAX_TABLE_BYTES is refused before it is read or parsed: every
    document state_to_json writes (n <= 21) is admitted, complex documents
    past n = 22 are refused.
    """
    with open(path, "r", encoding="utf-8") as fh:
        _check_bytes(2 * os.fstat(fh.fileno()).st_size, f"reading {path}")
        text = fh.read()
    _check_bytes(len(text) + PARSE_BYTES * text.count("["), f"parsing {path}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    del text  # freed before the state is built, as json.load frees it
    return state_from_json(doc)


def write_state(path: str, obj: Union[PureState, SignVector]) -> None:
    """Write a state file; sign vectors stay in exact sign format."""
    text = _dump(state_to_json(obj), pretty=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _dump(doc, pretty: bool) -> str:
    if pretty:
        return json.dumps(doc, sort_keys=True, indent=2)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _as_pure(obj: Union[PureState, SignVector]) -> PureState:
    if isinstance(obj, SignVector):
        return uniform_from_signs(obj)
    return obj


def _parse_subset(text: str, n: int) -> QubitMask:
    try:
        labels = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"subset must be comma-separated qubit labels, got {text!r}") from exc
    return QubitMask.from_qubits(labels, n)


def _parse_schedule(text: str) -> tuple[tuple[float, int], ...]:
    """Parse 'beta:sweeps,beta:sweeps,...' into schedule stages; sweeps are
    whole numbers, which may be written as floats (2.0), as AnnealConfig
    takes them."""
    stages = []
    for part in text.split(","):
        beta, sep, sweeps = part.partition(":")
        if not sep:
            raise ValueError(f"schedule stage {part!r} is not of the form beta:sweeps")
        try:
            beta, sweeps = float(beta), float(sweeps)
            if not sweeps.is_integer():
                raise ValueError
        except ValueError:
            raise ValueError(
                f"schedule stage {part!r} needs a number beta and whole sweeps"
            ) from None
        stages.append((beta, int(sweeps)))
    return tuple(stages)


def _cmd_counts(args: argparse.Namespace) -> int:
    if args.n_max < 2:
        raise ValueError("--n-max must be at least 2")
    rows = []
    if args.table == "monomials":
        header = ("n", "N1", "N2", "N4")
        for n in range(2, args.n_max + 1):
            c = potential.monomial_counts(n)
            rows.append((n, c.N1, c.N2, c.N4))
    else:
        header = ("n", "me", "mx")
        for n in range(2, args.n_max + 1):
            m_e, m_x = equation_variable_counts(n)
            rows.append((n, m_e, m_x))
    if args.pretty:
        print("\t".join(header))
    for row in rows:
        print("\t".join(str(x) for x in row))
    return 0


def _cmd_purity(args: argparse.Namespace) -> int:
    state = _as_pure(read_state(args.file))
    mask = _parse_subset(args.subset, state.n)
    value = purity_form1(state, mask) if args.form == 1 else purity_form2(state, mask)
    print(repr(value))
    return 0


def _cmd_potential(args: argparse.Namespace) -> int:
    # the forms are looked up on their module at call time, so a wrapper
    # installed there (perfbench's tracer) sees these calls
    obj = read_state(args.file)
    if args.form == "uniform":
        value = potential.pi_me_uniform(obj if isinstance(obj, SignVector) else polar(obj))
    else:
        state = _as_pure(obj)
        if args.form == "1":
            value = potential.pi_me_form1(state)
        elif args.form == "4":
            value = potential.pi_me_form4(state)
        else:
            value = potential.pi_me_form2(state)
    print(repr(value))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    state = _as_pure(read_state(args.file))
    verdict = is_perfect_mmes(state, tol=args.tol)
    doc = {
        "n": state.n,
        "is_perfect": verdict.is_perfect,
        "tolerance": verdict.tolerance,
        "worst_purity_gap": verdict.worst_purity_gap,
        "worst_marginal_gap": verdict.worst_marginal_gap,
        "worst_phase_residual": verdict.worst_phase_residual,
    }
    print(_dump(doc, args.pretty))
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    params = {}
    if args.n is not None:
        params["n"] = args.n
    if args.rotation is not None:
        params["rotation"] = args.rotation
    obj: Union[PureState, SignVector]
    if args.name in SIGN_TARGETS:
        if params:
            raise ValueError(f"{args.name} takes no parameters")
        obj = catalog_sign_vector(args.name)
    else:
        if args.name == "ghz" and args.n in range(2, MAX_QUBITS + 1):
            _check_document(args.n)  # n alone sizes the document: refuse before the state
        obj = catalog(args.name, **params)
    if args.out:
        write_state(args.out, obj)
    else:
        print(_dump(state_to_json(obj), args.pretty))
    return 0


def _report_doc(report: SearchReport) -> dict:
    doc = {
        "n": report.n,
        "mode": report.mode,
        "min_value": report.min_value,
        "min_value_exact": None
        if report.min_value_exact is None
        else str(report.min_value_exact),
        "evaluations": report.evaluations,
        "sample_minimizers": [sv.to_string() for sv in report.sample_minimizers],
    }
    if report.mode == "exhaustive":
        doc["minimizer_count"] = report.minimizer_count
    else:
        doc["objective"] = report.objective
        doc["replica_best_values"] = list(report.replica_best_values)
        best = report.best_state  # an anneal report always carries one
        doc["best_state"] = best.to_string() if isinstance(best, SignVector) else state_to_json(assemble(best))
    return doc


def _cmd_search(args: argparse.Namespace) -> int:
    report = exhaustive_search(args.n, symmetry_mode=args.mode)
    print(_dump(_report_doc(report), args.pretty))
    return 0


def _cmd_anneal(args: argparse.Namespace) -> int:
    config = AnnealConfig(
        beta_schedule=_parse_schedule(args.schedule),
        move=args.move,
        max_angle=args.max_angle,
        replicas=args.replicas,
        seed=args.seed,
    )
    report = anneal(args.n, config)
    print(_dump(_report_doc(report), args.pretty))
    return 0


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="mmeskit",
        description="Entanglement quantities and optimal-state searches for n-qubit pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("counts", help="exact count tables as TSV")
    p.add_argument("--table", choices=("monomials", "equations"), default="monomials")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--pretty", action="store_true", help="include a header row")
    p.set_defaults(func=_cmd_counts)

    p = sub.add_parser("purity", help="purity of one bipartition of a state file")
    p.add_argument("--file", required=True)
    p.add_argument("--subset", required=True, help="comma-separated qubit labels, e.g. 1,3")
    p.add_argument("--form", type=int, choices=(1, 2), default=1)
    p.set_defaults(func=_cmd_purity)

    p = sub.add_parser("potential", help="potential of multipartite entanglement")
    p.add_argument("--file", required=True)
    p.add_argument("--form", choices=("1", "2", "4", "uniform"), default="1")
    p.set_defaults(func=_cmd_potential)

    p = sub.add_parser("verify", help="perfect-MMES verdict as JSON")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("catalog", help="write a named optimal state")
    p.add_argument("name", choices=CATALOG_NAMES)
    p.add_argument("--out", help="output path (default: print to stdout)")
    p.add_argument("--n", type=int, help="qubit count (ghz only)")
    p.add_argument("--rotation", type=int, help="cyclic relabeling 0..2 (three_family only)")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("search", help="exhaustive sign-space sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("full", "fix_global_sign"), default="full")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("anneal", help="Metropolis annealing run")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--schedule", required=True, help="stages beta:sweeps, e.g. 1:100,10:100")
    p.add_argument("--move", choices=("sign_flip", "phase_rotation"), default="sign_flip")
    p.add_argument("--max-angle", type=float, default=math.pi / 2)
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_anneal)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as one `warning: ...` line, like the errors."""
    print(f"warning: {message}", file=sys.stderr)


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, dispatch, and return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse drops a value of "--" (--file=--) and stores [] instead
        if [] in vars(args).values():
            parser.error("an option's value is '--'")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
