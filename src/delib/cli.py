"""Command-line surface over the library.

Subcommands: slate, rank, landscape, route, simulate, import-polis, audit.
Every command that uses randomness takes an explicit --seed; there is no
wall-clock seeding, so reruns with the same input and seed reproduce the
same output byte for byte.

Exit codes: 0 success, 2 format error, 3 parameter error, 4 capacity
error, 5 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import dataio
from .errors import (
    CapacityError,
    DelibError,
    FormatError,
    NumericalError,
    ParameterError,
)
from .landscape import CLUSTER_SPACES, build_landscape
from .loop import LoopConfig, plan_for_policy, run_loop
from .rankings import elicitation_ranking, proportional_ranking
from .routing import POLICY_NAMES, ElicitationWeights
from .slates import ScoringKind, exact_slate, greedy_slate, jr_audit

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_PARAMETER = 3
EXIT_CAPACITY = 4
EXIT_NUMERICAL = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParameterError(message)


def _emit(text: str, out: str | None) -> None:
    if out:
        dataio.atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def _load_matrix(path: str):
    matrix, _ = dataio.import_wide_csv(path)
    return matrix


def _solve_slate(matrix, args):
    kind = ScoringKind.parse(args.rule)
    if args.exact:
        return exact_slate(matrix, args.k, kind)
    return greedy_slate(matrix, args.k, kind)


def _cmd_slate(args) -> None:
    matrix = _load_matrix(args.input)
    slate = _solve_slate(matrix, args)
    # the CSV form lists the slate's ideas alone, so it runs no audit
    value = slate if args.format == "csv" else (slate, jr_audit(matrix, slate))
    _emit(dataio.result_text(value, args.format), args.out)


def _cmd_audit(args) -> None:
    matrix = _load_matrix(args.input)
    slate = _solve_slate(matrix, args)
    violations = jr_audit(matrix, slate, level=args.level)
    _emit(dataio.result_text((slate, violations), args.format), args.out)


def _cmd_rank(args) -> None:
    matrix = _load_matrix(args.input)
    if args.mode == "proportional":
        ranking = proportional_ranking(matrix)
    else:
        weights = ElicitationWeights(
            c_explore=args.c_explore, prior_mean=args.prior_mean, prior_weight=args.prior_weight
        )
        ranking = elicitation_ranking(matrix, weights)
    _emit(dataio.result_text(ranking, args.format), args.out)


def _cmd_landscape(args) -> None:
    matrix = _load_matrix(args.input)
    scape = build_landscape(matrix, args.k, args.seed, space=args.space)
    dataio.write_landscape(scape, args.out)


def _cmd_route(args) -> None:
    matrix = _load_matrix(args.input)
    plan = plan_for_policy(args.policy, matrix, args.budget, ElicitationWeights(), args.seed)
    _emit(dataio.result_text(plan, args.format), args.out)


def _cmd_simulate(args) -> None:
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except OSError as exc:
        raise FormatError(f"cannot read {args.config}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"config is not valid UTF-8 JSON: {exc}") from exc
    config = LoopConfig.from_dict(raw)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    timeline = run_loop(config)
    dataio.write_timeline(timeline, args.out)


def _cmd_import_polis(args) -> None:
    matrix, report = dataio.import_polis_long(args.input, pass_as=args.pass_as)
    if args.out:
        dataio.export_wide_csv(matrix, args.out)
    _emit(dataio.result_text(report, "json"), None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="delib", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_seed=False):
        p.add_argument("--input", required=True, help="wide-format attitude matrix CSV")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=dataio.FORMATS, default="json")
        if needs_seed:
            p.add_argument("--seed", type=int, required=True, help="explicit seed; no wall-clock seeding")

    def add_slate(name, help, func, exact, level=False):
        p = sub.add_parser(name, help=help)
        add_common(p)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--rule", choices=[kind.value for kind in ScoringKind], default="harmonic")
        if level:
            p.add_argument("--level", type=int, default=1, help="audit strictness level (default 1)")
        solver = p.add_mutually_exclusive_group()
        solver.add_argument("--exact", action="store_true")
        solver.add_argument("--greedy", dest="exact", action="store_false")
        p.set_defaults(exact=exact, func=func)

    add_slate("slate", "select a representative slate of ideas", _cmd_slate, exact=False)
    add_slate("audit", "slate selection plus representation audit", _cmd_audit, exact=True, level=True)

    p_rank = sub.add_parser("rank", help="rank all ideas")
    add_common(p_rank)
    p_rank.add_argument("--mode", choices=["proportional", "elicitation"], required=True)
    p_rank.add_argument("--c-explore", dest="c_explore", type=float, default=1.0)
    p_rank.add_argument("--prior-mean", dest="prior_mean", type=float, default=0.5)
    p_rank.add_argument("--prior-weight", dest="prior_weight", type=float, default=1.0)
    p_rank.set_defaults(func=_cmd_rank)

    p_scape = sub.add_parser("landscape", help="impute, embed, cluster, audit")
    p_scape.add_argument("--input", required=True)
    p_scape.add_argument("--out", required=True, help="output directory")
    p_scape.add_argument("--k", type=int, required=True)
    p_scape.add_argument("--seed", type=int, required=True)
    p_scape.add_argument("--space", choices=CLUSTER_SPACES, default="embedded")
    p_scape.set_defaults(func=_cmd_landscape)

    p_route = sub.add_parser("route", help="plan the next attitude queries")
    add_common(p_route, needs_seed=True)
    p_route.add_argument("--policy", choices=POLICY_NAMES, required=True)
    p_route.add_argument("--budget", type=int, required=True)
    p_route.set_defaults(func=_cmd_route)

    p_sim = sub.add_parser("simulate", help="run the full deliberation-support loop")
    p_sim.add_argument("--config", required=True, help="JSON loop config")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.set_defaults(func=_cmd_simulate)

    p_polis = sub.add_parser("import-polis", help="ingest a Polis-style vote export")
    p_polis.add_argument("--input", required=True)
    p_polis.add_argument("--out", default=None, help="wide-format CSV to write")
    p_polis.add_argument("--pass-as", dest="pass_as", choices=dataio.PASS_AS, default="unknown")
    p_polis.set_defaults(func=_cmd_import_polis)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ParameterError, DelibError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
