"""Command-line front end.

Subcommands cover the full pipeline: ``validate`` checks data files,
``infer`` prints belief distributions for a set of observations,
``evaluate`` scores methods against a gold standard and emits the report
tables, and ``probe`` emits the replicated-evidence convergence
trajectory as TSV.

Exit codes: 0 success, 2 input or validation error or out of memory, 3 inference error.
Probabilities print with 6 decimal places, micromorts as integers.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, Collection, Sequence

from . import engine, evaluation, synth
from .decision import UtilityMatrix, load_utilities, utility_coverage_violations
from .errors import InferenceError, InputError, ValidationError
from .kb import CALCULI, GOLD_SOURCES, CaseRecord, KnowledgeBase, Observation, load_cases, load_kb

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFERENCE = 3


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    raw = os.environ.get("UNCERTAIN_DX_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"UNCERTAIN_DX_SEED must be an integer, got {raw!r}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_methods(raw: str, allowed: Collection[str]) -> list[str]:
    methods = [m.strip() for m in raw.split(",") if m.strip()]
    evaluation.check_methods(methods, allowed)
    return methods


def _parse_csv_floats(raw: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in raw.split(","))
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of numbers, got {raw!r}") from None


def _parse_observations(tokens: Sequence[str]) -> list[Observation]:
    observations = []
    for token in tokens:
        feature, sep, value = token.partition("=")
        if not sep or not feature or not value:
            raise ValueError(f"observation {token!r} must look like FEATURE=VALUE")
        observations.append(Observation(feature=feature, value=value))
    return observations


def _find_case(cases: Sequence[CaseRecord], case_id: str) -> CaseRecord:
    for case in cases:
        if case.id == case_id:
            return case
    raise InputError(f"case '{case_id}' not found in the case file")


def _load_utilities(path: str, kb: KnowledgeBase | None) -> UtilityMatrix:
    """Load a utility model and check that it covers ``kb``, when given one."""
    utilities = load_utilities(path)
    coverage = utility_coverage_violations(utilities, kb) if kb is not None else []
    if coverage:
        raise ValidationError(coverage)
    return utilities


# Every character str.splitlines() breaks at, mapped to its Python escape.
_LINE_BREAKS = {ord(c): c.encode("unicode_escape").decode() for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"}


def _one_line(message: str) -> str:
    """``message`` with every line break written as its escape (CR as ``\\r``,
    LF as ``\\n``), so a file cannot forge an output line."""
    return message.translate(_LINE_BREAKS)


def _print_check(label: str, load: Callable, *args):
    """Call ``load``; print "<label>: OK" and return its result, or print
    each violation it raises and return None."""
    try:
        value = load(*args)
    except ValidationError as exc:
        for violation in exc.violations:
            print(f"{label}: {_one_line(violation)}")
        return None
    print(f"{label}: OK")
    return value


def cmd_validate(args: argparse.Namespace) -> int:
    kb = _print_check("kb", load_kb, args.kb)
    ok = kb is not None
    if kb is not None and args.cases is not None:
        ok &= _print_check("cases", load_cases, args.cases, kb) is not None
    if args.utilities is not None:
        ok &= _print_check("utilities", _load_utilities, args.utilities, kb) is not None
    return EXIT_OK if ok else EXIT_INPUT


def cmd_infer(args: argparse.Namespace) -> int:
    kb = load_kb(args.kb)
    if args.case is not None:
        if args.observations:
            raise ValueError("give either --case or inline observations, not both")
        if args.cases is None:
            raise ValueError("--case requires --cases")
        observations = list(_find_case(load_cases(args.cases, kb), args.case).observations)
    else:
        observations = _parse_observations(args.observations)

    methods = _parse_methods(args.methods, CALCULI)
    results = [(method, getattr(engine, method)(kb, observations)) for method in methods]

    if args.format == "json":
        doc = [
            {"method": method, "pre_norm_sum": dist.pre_norm_sum, "beliefs": dict(dist.sorted_items())}
            for method, dist in results
        ]
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = []
        for method, dist in results:
            lines.append(f"# {method} pre_norm_sum={dist.pre_norm_sum:.6f}")
            for disease, belief in dist.sorted_items():
                lines.append(f"{disease}\t{belief:.6f}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    kb = load_kb(args.kb)
    cases = load_cases(args.cases, kb)
    utilities = _load_utilities(args.utilities, kb)
    methods = _parse_methods(args.methods, evaluation.METHODS)
    report = evaluation.evaluate_methods(
        kb,
        cases,
        utilities,
        methods,
        args.gold,
        seed=_resolve_seed(args.seed),
        iterations=args.iterations,
    )
    _emit(report.to_json() if args.format == "json" else report.to_tsv(), args.out)
    return EXIT_OK


def cmd_probe(args: argparse.Namespace) -> int:
    likelihoods = _parse_csv_floats(args.likelihoods, "--likelihoods")
    if args.priors is None:
        spec = synth.ReplicatedEvidenceSpec.uniform(likelihoods, n=args.n_max)
    else:
        priors = _parse_csv_floats(args.priors, "--priors")
        spec = synth.ReplicatedEvidenceSpec(likelihoods=likelihoods, priors=priors, n=args.n_max)
    _emit(synth.probe_tsv(spec), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="uncertain-dx",
        description=(
            "Diagnostic inference over a probabilistic knowledge base using three "
            "uncertainty calculi, with micromort-denominated evaluation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check data files and print violations")
    p_validate.add_argument("--kb", required=True, help="knowledge-base JSON file")
    p_validate.add_argument("--cases", help="case JSON file")
    p_validate.add_argument("--utilities", help="utility-model JSON file")

    p_infer = sub.add_parser(
        "infer",
        help="print one belief distribution per method",
        description=(
            "Prints each requested method's distribution sorted by descending "
            "belief with its pre-normalization sum. TSV columns: disease, belief."
        ),
    )
    p_infer.add_argument("--kb", required=True, help="knowledge-base JSON file")
    p_infer.add_argument("--cases", help="case JSON file (for --case)")
    p_infer.add_argument("--case", help="case id whose observations to use")
    p_infer.add_argument(
        "observations",
        nargs="*",
        metavar="FEATURE=VALUE",
        help="inline observations",
    )
    p_infer.add_argument(
        "--methods",
        default=",".join(CALCULI),
        help=f"comma-separated subset of: {', '.join(CALCULI)}",
    )
    p_infer.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_infer.add_argument("--out", help="write output to this path instead of stdout")

    p_eval = sub.add_parser(
        "evaluate",
        help="score methods against a gold standard and emit the report",
        description="Report sections: "
        + ", ".join(f"[{name}] ({', '.join(cols)})" for name, cols in evaluation.REPORT_COLUMNS.items())
        + ". Micromorts print as integers.",
    )
    p_eval.add_argument("--kb", required=True, help="knowledge-base JSON file")
    p_eval.add_argument("--cases", required=True, help="case JSON file")
    p_eval.add_argument("--utilities", required=True, help="utility-model JSON file")
    p_eval.add_argument(
        "--methods",
        default=",".join(evaluation.METHODS),
        help=f"comma-separated subset of: {', '.join(evaluation.METHODS)}",
    )
    p_eval.add_argument("--gold", choices=GOLD_SOURCES, default="informed")
    p_eval.add_argument(
        "--seed",
        type=int,
        help="Monte Carlo seed (default: env UNCERTAIN_DX_SEED, then 0)",
    )
    p_eval.add_argument("--iterations", type=int, default=10000)
    p_eval.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_eval.add_argument("--out", help="write output to this path instead of stdout")

    p_probe = sub.add_parser(
        "probe",
        help="emit the replicated-evidence convergence trajectory",
        description="TSV columns: n, method, disease, belief.",
    )
    p_probe.add_argument("--likelihoods", required=True, help="comma-separated p(E|H_i)")
    p_probe.add_argument("--priors", help="comma-separated priors (default: uniform)")
    p_probe.add_argument("--n-max", type=int, required=True, dest="n_max")
    p_probe.add_argument("--out", help="write output to this path instead of stdout")

    return parser


@functools.cache
def _plain_table() -> dict[str, dict[str | None, argparse.Action]]:
    """Each command's arguments but -h, read once from ``build_parser``: its
    single-value options by flag, and its ``nargs="*"`` positional under None."""
    (commands,) = (a.choices for a in build_parser()._actions if a.dest == "command")
    return {
        name: {f: a for a in sub._actions if a.default is not argparse.SUPPRESS for f in a.option_strings or [None]}
        for name, sub in commands.items()
    }


def _plain_args(argv: Sequence[str]) -> argparse.Namespace | None:
    """``build_parser().parse_args(argv)`` for a command, exact options each given once
    with a value not starting with "-", and at most one run of positionals; else None."""
    if (table := _plain_table().get(argv[0] if argv else "")) is None:
        return None
    values, run, closed, tokens = {"command": argv[0]}, [], False, iter(argv[1:])
    for token in tokens:
        action = table.get(token)
        if action is None and None in table and not closed and not token.startswith("-"):
            run.append(token)
            continue
        value, closed = next(tokens, "-"), bool(run)  # an option closes the run
        if action is None or action.dest in values or value.startswith("-"):
            return None
        try:
            values[action.dest] = value = action.type(value) if action.type else value
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
    for flag, action in table.items():
        if flag and action.required and action.dest not in values:
            return None
        values.setdefault(action.dest, action.default if flag else run)
    return argparse.Namespace(**values)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line (default ``sys.argv[1:]``); argparse parses any that is not plain."""
    args = _plain_args(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
    # Looked up on every call, not stored in the cached parser, so a
    # replaced ``cmd_*`` function is the one that runs.
    commands = {"validate": cmd_validate, "infer": cmd_infer, "evaluate": cmd_evaluate, "probe": cmd_probe}
    try:
        return commands[args.command](args)
    except (InferenceError, InputError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {_one_line(str(exc))}", file=sys.stderr)
        return EXIT_INFERENCE if isinstance(exc, InferenceError) else EXIT_INPUT
    except MemoryError:  # a fixed message: str(MemoryError()) is empty
        print("MemoryError: the command ran out of memory", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
