"""Command line interface: `cmtensor run` and `cmtensor corpus`."""

from __future__ import annotations

import argparse
import sys

from ..errors import KernelError, ParseError
from ..context import NZD_RETRY_CAP, limits
from ..polyring import DEFAULT_PRIME, PrimeField
from ..theorems import generate_corpus, run_all_checks
from .executor import execute
from .parser import parse_session
from .report import VERSION, CommandResult, RunReport, _canonical_json


def _add_common(sub):
    sub.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                     help=f"coefficient field modulus (default {DEFAULT_PRIME})")
    sub.add_argument("--seed", type=int, default=0, help="seed for randomized searches")
    sub.add_argument("--format", choices=("json", "text"), default="text")
    sub.add_argument("--gb-step-budget", type=int, default=None,
                     help="abort each basis or normal form past this many reduction steps")
    sub.add_argument("--nzd-retries", type=int, default=NZD_RETRY_CAP,
                     help="random draws before the nonzerodivisor search gives up")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmtensor",
        description="grade, height, and Cohen-Macaulay checks for tensor products "
        "of finitely presented algebras over a prime field",
    )
    parser.add_argument("--version", action="version", version=f"cmtensor {VERSION}")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="execute a session file")
    run.add_argument("file", help="session file to execute")
    _add_common(run)

    corpus = subs.add_parser("corpus", help="generate a corpus and run every applicable check")
    corpus.add_argument("--size", type=int, default=12, help="number of corpus instances")
    _add_common(corpus)

    return parser


def _cmd_run(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cmtensor: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    try:
        session = parse_session(text, args.prime)
    except ParseError as exc:
        print(f"{args.file}:{exc.line}:{exc.column}: syntax error: {exc.message}",
              file=sys.stderr)
        return 2
    report = execute(session, args.seed)
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.passed else 1


def _cmd_corpus(args) -> int:
    results = []
    failed = False
    try:
        instances = generate_corpus(args.seed, args.size, PrimeField(args.prime))
    except KernelError as exc:
        print(f"cmtensor: corpus generation failed: {exc}", file=sys.stderr)
        return 1
    for index, inst in enumerate(instances):
        try:
            reports = run_all_checks(inst, seed=args.seed + index)
        except KernelError as exc:
            results.append({"instance": inst.tag, "status": "error", "error": str(exc)})
            failed = True
            continue
        for rep in reports:
            entry = {"instance": inst.tag, "labels": list(inst.labels), **rep.to_dict()}
            results.append(entry)
            if rep.status == "fail":
                failed = True
    payload = {
        "version": VERSION,
        "mode": "corpus",
        "prime": args.prime,
        "seed": args.seed,
        "size": args.size,
        "results": results,
    }
    if args.format == "json":
        sys.stdout.write(_canonical_json(payload))
    else:
        rows = tuple(
            CommandResult(
                command=f"{entry['instance']} {entry.get('check', '-')}",
                status=entry["status"],
                lhs=entry.get("lhs"),
                rhs=entry.get("rhs"),
                error=entry.get("error"),
                detail=entry.get("detail", ""),
            )
            for entry in results
        )
        sys.stdout.write(RunReport(args.prime, args.seed, rows).to_text("checks"))
    return 1 if failed else 0


def _bad_number(args) -> str | None:
    """Why a numeric argument is out of range, or None when all are valid."""
    try:
        PrimeField(args.prime)
    except ValueError as exc:
        return f"--prime: {exc}"
    if args.gb_step_budget is not None and args.gb_step_budget < 1:
        return f"--gb-step-budget must be at least 1, got {args.gb_step_budget}"
    if args.nzd_retries < 0:
        return f"--nzd-retries must be at least 0, got {args.nzd_retries}"
    if args.command == "corpus" and args.size < 1:
        return f"--size must be at least 1, got {args.size}"
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    problem = _bad_number(args)
    if problem is not None:
        print(f"cmtensor: {problem}", file=sys.stderr)
        return 2
    with limits(args.gb_step_budget, args.nzd_retries):
        return _cmd_run(args) if args.command == "run" else _cmd_corpus(args)


if __name__ == "__main__":
    sys.exit(main())
