"""Command-line front end: check / construct / solve / catalog.

Exit codes: 0 every requested check passed (possibly conditionally),
1 at least one check failed, 2 the input failed to parse or is ill-formed
(arguments of mismatched shape, or a solve pivot its assumptions do not
certify nonzero), a command-line argument cannot be used, or a file cannot
be read or written, 3 an internal
invariant was violated.  Reports are plain text or canonical JSON (sorted
keys, two-space indent, trailing newline), so a JSON report re-serialises
byte-identically.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import catalog as _catalog
from .document import (
    CHECK_KINDS,
    ParseError,
    default_checks,
    parse_assumptions,
    parse_document,
    render_document,
    run_check_statement,
    run_constructs,
)
from .multilinear import PivotAmbiguous, ShapeError
from .scalars import Assumption
from .solver import KINDS, LinearProblem, solve_linear

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_INTERNAL = 3


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(payload, fmt: str) -> int:
    """Print the payload's text lines, or its JSON without them; its exit code."""
    lines = payload.pop("lines", [])
    if fmt == "json":
        sys.stdout.write(canonical_json(payload))
    else:
        for line in lines:
            print(line)
    return payload["exit_code"]


def _load(path: str):
    """The parsed document at path, its construct statements run."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        start = head.rfind(b"\n") + 1
        raise ParseError(f"{path} is not UTF-8: byte 0x{data[exc.start]:02x}",
                         head.count(b"\n") + 1, len(head[start:].decode("utf-8")) + 1) from None
    doc = parse_document(text)
    run_constructs(doc)
    return doc


class UsageError(ValueError):
    """A command-line argument the command cannot use (exit 2)."""


def _parse_assume_flags(values, params) -> list[Assumption]:
    assumptions = []
    for text in values or []:
        try:
            assumptions += parse_assumptions(text, params)
        except ParseError as exc:
            raise UsageError(f"--assume {text!r}: {exc}") from None
    return assumptions


def _report_entry(stmt, report) -> dict:
    return {
        "check": stmt.kind,
        "args": list(stmt.args),
        "verdict": str(report.verdict),
        "residual_count": len(report.residuals),
        "residuals": [
            {"identity": r.identity, "index": list(r.index), "value": str(r.value)}
            for r in report.residuals
        ],
        "assumptions_used": [str(a) for a in report.assumptions_used],
    }


def _run_document_checks(doc, identities, extra_assumptions):
    statements = doc.checks or default_checks(doc)
    if identities:
        statements = [s for s in statements if s.kind in identities]
        # a kind that selects nothing would run nothing and read as a pass
        missing = [k for k in dict.fromkeys(identities) if all(s.kind != k for s in statements)]
        if missing:
            raise UsageError("; ".join(f"--identity {k}: the file runs no {k} check"
                                       for k in missing))
    results = []
    for stmt in statements:
        report = run_check_statement(doc, stmt, tuple(extra_assumptions))
        results.append((stmt, report))
    return results


def _cmd_check(args) -> int:
    doc = _load(args.file)
    extra = _parse_assume_flags(args.assume, doc.params)
    results = _run_document_checks(doc, args.identity, extra)
    failed = any(not report.passed for _, report in results)
    payload = {
        "command": "check",
        "file": args.file,
        "results": [_report_entry(stmt, report) for stmt, report in results],
        "exit_code": EXIT_CHECK_FAILED if failed else EXIT_OK,
    }
    payload["lines"] = [
        f"{entry['check']} {' '.join(entry['args'])}: {entry['verdict']}"
        + (f" ({entry['residual_count']} residuals)" if entry["residual_count"] else "")
        + (f" [assuming {', '.join(entry['assumptions_used'])}]"
           if entry["assumptions_used"] else "")
        for entry in payload["results"]
    ]
    return _emit(payload, args.format)


def _cmd_construct(args) -> int:
    doc = _load(args.file)
    if args.op not in doc.structures:
        wanted = [c.result for c in doc.constructs]
        raise UsageError(f"--op {args.op}: no construct statement produces it (available: {wanted})")
    try:
        rendered = render_document({args.op: doc.structures[args.op]}, params=doc.params)
    except TypeError as exc:
        raise UsageError(f"--op {args.op}: {exc}") from None
    Path(args.out).write_text(rendered, encoding="utf-8")
    payload = {
        "command": "construct",
        "file": args.file,
        "op": args.op,
        "out": args.out,
        "exit_code": EXIT_OK,
        "lines": [f"wrote {args.op} to {args.out}"],
    }
    return _emit(payload, args.format)


def _first_of(doc, record, problem: str):
    for obj in doc.structures.values():
        if isinstance(obj, record):
            return obj
    raise UsageError(f"--problem {problem}: the document declares no {record.__name__}")


def _cmd_solve(args) -> int:
    doc = _load(args.file)
    problem = LinearProblem(args.problem, {key: _first_of(doc, record, args.problem)
                                           for key, record in KINDS[args.problem].context})
    try:
        solution = solve_linear(problem, tuple(doc.assumptions))
    except ShapeError as exc:
        raise UsageError(f"--problem {args.problem}: {exc}") from None
    basis_payload = []
    for idx, element in enumerate(solution.basis):
        rendered = render_document({f"solution_{idx}": element})
        basis_payload.append(rendered)
    payload = {
        "command": "solve",
        "file": args.file,
        "problem": args.problem,
        "dimension": solution.dimension,
        "rank": solution.rank,
        "unknowns": solution.unknowns,
        "basis": basis_payload,
        "assumptions_used": [str(a) for a in solution.assumptions_used],
        "exit_code": EXIT_OK,
    }
    payload["lines"] = [
        f"problem {args.problem}: solution dimension {solution.dimension} "
        f"(rank {solution.rank} of {solution.unknowns} unknowns)",
        *(f"assuming {a}" for a in payload["assumptions_used"]),
        *[line for rendered in basis_payload for line in rendered.splitlines()
          if line and not line.startswith("#")],
    ]
    return _emit(payload, args.format)


def _cmd_catalog(args) -> int:
    payload = {"command": "catalog", "action": args.action, "exit_code": EXIT_OK}
    if args.action == "list":
        entries = _catalog.list_entries()
        payload.update(entries=[{"id": i, "description": d} for i, d in entries],
                       lines=[f"{i}: {d}" for i, d in entries])
    else:
        entry = _catalog.get(args.id)
        rendered = render_document(entry.structures, params=entry.document.params)
        payload["id"] = entry.id
        if args.action == "show":
            assumptions = [str(a) for a in entry.assumptions]
            payload.update(description=entry.description, source=entry.source,
                           assumptions=assumptions, metadata=entry.metadata, document=rendered,
                           lines=[f"{entry.id}: {entry.description}",
                                  *(f"assuming {a}" for a in assumptions), rendered])
        else:
            out = args.out or f"{entry.id}.lieb"
            Path(out).write_text(rendered, encoding="utf-8")
            payload.update(out=out, lines=[f"wrote {entry.id} to {out}"])
    return _emit(payload, args.format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieb",
        description="exact verification of bracket, cobracket and operator identities")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        # accepted after the subcommand too; SUPPRESS keeps the global value
        # when the flag is absent here
        p.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)

    p_check = sub.add_parser("check", help="run the checks declared in a file")
    p_check.add_argument("file")
    p_check.add_argument("--identity", action="append", choices=sorted(CHECK_KINDS),
                         help="only run checks of this kind (repeatable)")
    p_check.add_argument("--assume", action="append",
                         help="extra nonzero-polynomial assumption (repeatable)")
    add_format(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_construct = sub.add_parser("construct", help="run a named construction and export it")
    p_construct.add_argument("file")
    p_construct.add_argument("--op", required=True,
                             help="result name of a construct statement in the file")
    p_construct.add_argument("--out", required=True)
    add_format(p_construct)
    p_construct.set_defaults(func=_cmd_construct)

    p_solve = sub.add_parser("solve", help="solve a linear classification problem")
    p_solve.add_argument("file")
    p_solve.add_argument("--problem", required=True, choices=tuple(KINDS))
    add_format(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_catalog = sub.add_parser("catalog", help="list, show or export built-in instances")
    p_catalog.add_argument("action", choices=("list", "show", "export"))
    p_catalog.add_argument("id", nargs="?")
    p_catalog.add_argument("--out")
    add_format(p_catalog)
    p_catalog.set_defaults(func=_cmd_catalog)
    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main(), then reused


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    parser = _parser
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action in ("show", "export") and not args.id:
        parser.error("catalog show/export needs an entry id")
    try:
        return args.func(args)
    except (ParseError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except _catalog.UnknownId as exc:
        print(f"error: unknown catalog id {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except PivotAmbiguous as exc:
        print(f"error: elimination divides by a pivot with the factor {exc.offending}, which "
              f"the assumptions do not certify nonzero; if it is nonzero, declare "
              f"'assume {exc.offending}'", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except AssertionError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
