"""Command-line front end.

Parses dual generators in the polynomial grammar, runs the requested
analysis, and emits either a human-readable text report or a structured
JSON document with a stable field order (rationals rendered as exact
`p/q` strings).  Exit codes: 0 ok, 1 parse error, 2 validation error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Optional, Sequence

from .catalecticant import compressed_hilbert_function, stacked_catalecticant
from .errors import ApolarError, InvariantViolation, ParseError
from .grading import canonically_graded, stacked_killing_matrix
from .inverse_system import (
    AlgebraPresentation,
    hilbert_function,
    is_compressed,
    socle_type,
    type_mismatch_warning,
)
from .replication import run_examples


def _matrix_doc(M) -> dict:
    return {
        "shape": [M.rows, M.cols],
        "rank": M.rank(),
        "matrix": [[str(x) for x in M.row(i)] for i in range(M.rows)],
    }


def _presentation(args) -> AlgebraPresentation:
    if args.num_vars < 1:
        raise ApolarError("need at least one variable")
    return AlgebraPresentation.from_strings(args.num_vars, args.generators)


def _cmd_hilbert(args) -> dict:
    pres = _presentation(args)
    hf = hilbert_function(pres)
    doc = {
        "command": "hilbert",
        "num_vars": args.num_vars,
        "generators": [str(g) for g in pres.generators],
        "hilbert_function": list(hf),
    }
    if args.check:
        if not all(g.is_homogeneous() for g in pres.generators):
            raise ApolarError("--check needs homogeneous generators")
        if len(set(pres.degrees)) > 1:
            raise ApolarError("--check needs generators of equal degree")
        s = pres.socle_degree
        ranks = [
            stacked_catalecticant(list(pres.generators), i).rank() for i in range(s + 1)
        ]
        doc["check"] = {
            "catalecticant_ranks": ranks,
            "paths_agree": ranks == list(hf),
        }
    return doc


def _cmd_socle(args) -> dict:
    pres = _presentation(args)
    E = socle_type(pres)
    warning = type_mismatch_warning(pres, E)
    return {
        "command": "socle",
        "num_vars": args.num_vars,
        "generators": [str(g) for g in pres.generators],
        "socle_type": list(E),
        "type": E.type(),
        "warnings": [warning] if warning else [],
    }


def _cmd_delta(args) -> dict:
    pres = _presentation(args)
    M = stacked_catalecticant(pres.generators, args.order)
    return {
        "command": "delta",
        "num_vars": args.num_vars,
        "generators": [str(g) for g in pres.generators],
        "order": args.order,
        **_matrix_doc(M),
    }


def _cmd_mmatrix(args) -> dict:
    pres = _presentation(args)
    M = stacked_killing_matrix([g.top_component() for g in pres.generators], args.step)
    return {
        "command": "mmatrix",
        "num_vars": args.num_vars,
        "generators": [str(g) for g in pres.generators],
        "p": args.step,
        **_matrix_doc(M),
    }


def _cmd_compressed(args) -> dict:
    pres = _presentation(args)
    hf = hilbert_function(pres)
    E = socle_type(pres)
    maximal = compressed_hilbert_function(pres.num_vars, pres.socle_degree, E)
    warning = type_mismatch_warning(pres, E)
    return {
        "command": "compressed",
        "num_vars": args.num_vars,
        "generators": [str(g) for g in pres.generators],
        "hilbert_function": list(hf),
        "socle_type": list(E),
        "compressed_hilbert_function": list(maximal),
        "is_compressed": is_compressed(pres),
        "warnings": [warning] if warning else [],
    }


def _cmd_graded(args) -> dict:
    pres = _presentation(args)
    report = canonically_graded(pres)
    E = socle_type(pres)
    doc = {
        "command": "graded",
        "num_vars": args.num_vars,
        "generators": [str(g) for g in pres.generators],
        "socle_degree": pres.socle_degree,
        "hilbert_function": list(hilbert_function(pres)),
        "socle_type": list(E),
        "is_compressed": is_compressed(pres),
    }
    doc.update(report.as_document())
    return doc


def _cmd_paper_examples(args) -> dict:
    checks = run_examples(seed=args.seed)
    return {
        "command": "paper-examples",
        "seed": args.seed,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ],
        "passed": sum(c.passed for c in checks),
        "total": len(checks),
        "all_passed": all(c.passed for c in checks),
    }


def _emit_text(value, out, key: Optional[str] = None, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if key is not None:
            out.append(f"{pad}{key}:")
            indent += 1
        for k, v in value.items():
            _emit_text(v, out, k, indent)
    elif isinstance(value, list) and value and isinstance(value[0], list):
        out.append(f"{pad}{key}:")
        for row in value:
            out.append("  " * (indent + 1) + " ".join(str(x) for x in row))
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        out.append(f"{pad}{key}:")
        for i, item in enumerate(value):
            out.append("  " * (indent + 1) + f"[{i}]")
            for k, v in item.items():
                _emit_text(v, out, k, indent + 2)
    elif isinstance(value, list):
        body = " ".join(str(x) for x in value)
        out.append(f"{pad}{key}: {body}")
    else:
        out.append(f"{pad}{key}: {value}")


def render(doc: dict, fmt: str) -> str:
    if fmt == "structured":
        return json.dumps(doc, indent=2) + "\n"
    lines: list[str] = []
    _emit_text(doc, lines)
    return "\n".join(lines) + "\n"


def _add_common(sub, generators: bool = True) -> None:
    sub.add_argument("-n", "--num-vars", type=int, required=True, help="number of variables")
    if generators:
        sub.add_argument("generators", nargs="+", help="dual polynomials, e.g. 'y1^3*y2^2 + y2^4'")
    sub.add_argument(
        "--format", choices=("text", "structured"), default="text", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apolar",
        description="Macaulay inverse systems: Hilbert functions, socle types, "
        "compressedness, canonical gradedness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hilbert", help="Hilbert function of the presented algebra")
    _add_common(p)
    p.add_argument("--check", action="store_true",
                   help="also compute via catalecticant ranks and compare")

    p = sub.add_parser("socle", help="socle type of the presented algebra")
    _add_common(p)

    p = sub.add_parser("delta", help="catalecticant matrix of the generators")
    _add_common(p)
    p.add_argument("-q", "--order", type=int, required=True, help="contraction order")

    p = sub.add_parser("mmatrix", help="killing matrix of the leading forms")
    _add_common(p)
    p.add_argument("-p", "--step", type=int, required=True, help="staircase step (gap)")

    p = sub.add_parser("compressed", help="compare the Hilbert function to the maximum")
    _add_common(p)

    p = sub.add_parser("graded", help="decide canonical gradedness constructively")
    _add_common(p)

    p = sub.add_parser("paper-examples", help="replay the pinned worked examples")
    p.add_argument("--seed", type=int, default=0, help="seed for the random spot checks")
    p.add_argument(
        "--format", choices=("text", "structured"), default="text", help="output format"
    )

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on first use and reused by every call."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    # The handler is looked up on every call, not bound into the shared parser.
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        doc = handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (ApolarError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(render(doc, args.format))
    if args.command == "paper-examples" and not doc["all_passed"]:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
