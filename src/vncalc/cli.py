"""Command-line entry point.

One subcommand per task: canonicalize element files, evaluate
expressions, act on words and points, run the verification suites, grow
and query generator balls, and render tree-pair diagrams.  Exit status is
nonzero whenever a check fails or an input is rejected.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .constructions import format_alpha_plan, plan_alpha, sidon_generate
from .element import (
    ConeKind,
    _read_element,
    apply_point,
    apply_word,
    format_element,
    is_volume_preserving,
    order_bounded,
    sign,
    support,
)
from .errors import VnError
from .expressions import NameRef, SpinalFromFile, default_env, eval_expression, parse_expression
from .render import render_dot
from .search import find_element, grow_ball, load_generator_manifest, save_ball
from .verify import SUITE_ALIASES, SUITE_BUILDERS, run_suites
from .words import Alphabet, RationalPoint, Word


def _eval_arg(args) -> "VnElement":
    env = default_env(Alphabet(args.n))
    return eval_expression(parse_expression(args.expr), env)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_canon(args) -> int:
    print(format_element(_read_element(args.file)))
    return 0


def cmd_eval(args) -> int:
    print(format_element(_eval_arg(args)))
    return 0


def cmd_apply(args) -> int:
    print(apply_word(_eval_arg(args), Word.parse(args.word)))
    return 0


def cmd_point(args) -> int:
    print(apply_point(_eval_arg(args), RationalPoint.parse(args.point)))
    return 0


def cmd_order(args) -> int:
    k = order_bounded(_eval_arg(args), args.bound)
    print(f"Finite({k})" if k is not None else f"ExceedsBound({args.bound})")
    return 0


def cmd_sign(args) -> int:
    value = sign(_eval_arg(args))
    print(f"{value:+d}")
    return 0


def cmd_volume(args) -> int:
    print("true" if is_volume_preserving(_eval_arg(args)) else "false")
    return 0


def cmd_support(args) -> int:
    for cone in support(_eval_arg(args)).cones:
        if cone.kind is ConeKind.BOUNDARY:
            print(f"{cone.word} Boundary({cone.fixed_point})")
        else:
            print(f"{cone.word} {cone.kind.value}")
    return 0


def cmd_make(args) -> int:
    env = default_env(Alphabet(args.n))
    if args.which != "s":
        expr = NameRef(args.which)
    elif args.alpha:
        expr = SpinalFromFile(args.alpha)
    else:
        raise VnError("make s requires --alpha <plan-file>")
    _emit(format_element(eval_expression(expr, env)) + "\n", args.out)
    return 0


def cmd_sidon(args) -> int:
    members = sidon_generate(args.count, args.strategy).sorted_members
    print(" ".join(str(x) for x in members))
    return 0


def cmd_plan(args) -> int:
    base = [_read_element(path) for path in args.base]
    plan = plan_alpha(base, strategy=args.strategy)
    paths = dict(zip(plan.support.sorted_members, args.base))
    _emit(format_alpha_plan(plan, paths), args.out)
    return 0


def cmd_verify(args) -> int:
    degrees = tuple(args.n) if args.n else (2, 3, 5)
    reports = run_suites(
        args.which, degrees, kmax=args.kmax, count=args.count, seed=args.seed
    )
    if not reports:
        raise VnError("no checks ran")
    failed = False
    for rep in reports:
        if args.format == "tsv":
            print(f"{rep.name}\t{rep.params}\t{rep.verdict_text()}")
        else:
            print(rep.line())
        if rep.failed:
            failed = True
            if rep.lhs is not None and rep.rhs is not None:
                print(f"  lhs: {rep.lhs}", file=sys.stderr)
                print(f"  rhs: {rep.rhs}", file=sys.stderr)
    return 1 if failed else 0


def cmd_ball(args) -> int:
    gens, manifest = load_generator_manifest(args.gens)
    ball = grow_ball(gens, args.radius, cap=args.cap, manifest=manifest)
    save_ball(ball, args.out)
    flag = " (truncated)" if ball.truncated else ""
    print(f"{len(ball)} elements within radius {args.radius}{flag} -> {args.out}")
    return 0


def cmd_find(args) -> int:
    gens, _ = load_generator_manifest(args.gens)
    target = _read_element(args.target)
    word = find_element(target, gens, args.radius)
    if word is None:
        print(f"NotFound({args.radius})")
        return 1
    print(" ".join(word) if word else "eps")
    return 0


def cmd_dot(args) -> int:
    _emit(render_dot(_eval_arg(args)), args.out)
    return 0


def _add_expr_flags(sub) -> None:
    sub.add_argument("-n", type=int, required=True, help="alphabet degree")
    sub.add_argument("-e", "--expr", required=True, help="element expression")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vncalc",
        description="Exact computation in the Higman-Thompson groups V_n.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("canon", help="print the canonical form of an element file")
    p.add_argument("file")
    p.set_defaults(func=cmd_canon)

    p = subs.add_parser("eval", help="evaluate an expression to an element")
    _add_expr_flags(p)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("apply", help="apply an element to a finite word")
    _add_expr_flags(p)
    p.add_argument("-w", "--word", required=True)
    p.set_defaults(func=cmd_apply)

    p = subs.add_parser("point", help="apply an element to an eventually periodic point")
    _add_expr_flags(p)
    p.add_argument("-p", "--point", required=True, help="<preperiod>:<period>")
    p.set_defaults(func=cmd_point)

    p = subs.add_parser("order", help="order of an element up to a bound")
    _add_expr_flags(p)
    p.add_argument("--bound", type=int, default=64)
    p.set_defaults(func=cmd_order)

    p = subs.add_parser("sign", help="parity of an element (odd degree only)")
    _add_expr_flags(p)
    p.set_defaults(func=cmd_sign)

    p = subs.add_parser("volume", help="whether an element preserves cone lengths")
    _add_expr_flags(p)
    p.set_defaults(func=cmd_volume)

    p = subs.add_parser("support", help="per-cone support classification")
    _add_expr_flags(p)
    p.set_defaults(func=cmd_support)

    p = subs.add_parser("make", help="print a named generator")
    p.add_argument("which", choices=["sigma", "tau", "t", "s"])
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--alpha", help="plan file (required for s)")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_make)

    p = subs.add_parser("sidon", help="generate a set with distinct pairwise differences")
    p.add_argument("--count", type=int, required=True)
    p.add_argument(
        "--strategy", choices=["powers-of-two", "greedy"], default="greedy"
    )
    p.set_defaults(func=cmd_sidon)

    p = subs.add_parser("plan", help="pad involution files into a spinal sequence plan")
    p.add_argument("--base", nargs="+", required=True, help="element files")
    p.add_argument("--strategy", choices=["powers-of-two", "greedy"], default="greedy")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_plan)

    p = subs.add_parser("verify", help="run identity-check suites")
    p.add_argument("which", choices=["all", *SUITE_BUILDERS, *SUITE_ALIASES])
    p.add_argument("-n", type=int, action="append", help="degree (repeatable)")
    p.add_argument("--kmax", type=int, default=5)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["lines", "tsv"], default="lines")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("ball", help="grow and persist a generator ball")
    p.add_argument("--gens", required=True, help="manifest of 'gen <name> <file>' lines")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--cap", type=int, default=10**6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ball)

    p = subs.add_parser("find", help="shortest generator word for a target element")
    p.add_argument("--gens", required=True)
    p.add_argument("--target", required=True, help="element file")
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(func=cmd_find)

    p = subs.add_parser("dot", help="render an element as a DOT tree pair")
    _add_expr_flags(p)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_dot)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built on the first call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (VnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
