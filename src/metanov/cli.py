"""Command-line entry points."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .engine import check_identity, classify_multilinear, get_algebra
from .exprs import parse_expr, parse_identity, render
from .fields import parse_field
from .magma import evaluate
from .multisets import md_from_list
from .oracle import DEFAULT_DEGREE_CAP, load_identity_file, membership, preset, \
    quotient_basis, quotient_dimension
from .verify import SUITES, run_suites


def _identity_set(spec: str):
    try:
        return preset(spec)
    except ValueError:
        if os.path.exists(spec):
            return load_identity_file(spec)
        raise


def _parse_md(text: str) -> dict[int, int]:
    return md_from_list([int(t) for t in text.split(",")])


def _cmd_normalize(args) -> int:
    field = parse_field(args.field)
    poly = parse_expr(args.expr, field)
    e = evaluate(poly, get_algebra(args.algebra).element)
    if args.json:
        payload = {
            "algebra": args.algebra,
            "field": repr(field),
            "input": args.expr,
            "terms": [{"element": repr(k), "coefficient": str(c)}
                      for k, c in e.sorted_terms()],
            "normal_form": render(e),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(render(e))
    return 0


def _cmd_dim(args) -> int:
    field, ids = parse_field(args.field), _identity_set(args.identities)
    print(quotient_dimension(ids, _parse_md(args.multidegree), field, cap=args.cap))
    return 0


def _cmd_basis(args) -> int:
    field, ids = parse_field(args.field), _identity_set(args.identities)
    for w in quotient_basis(ids, _parse_md(args.multidegree), field, cap=args.cap):
        print(repr(w))
    return 0


def _cmd_check_identity(args) -> int:
    field = parse_field(args.field)
    f = parse_identity(args.identity)
    rep = check_identity(args.algebra, f, max_degree=args.max_degree,
                         pool=args.pool, field=field)
    if rep.holds:
        print(f"holds ({rep.domain})")
        return 0
    print("counterexample:")
    for var, key in rep.assignment.items():
        print(f"  v{var} -> {key!r}")
    print(f"  value: {render(rep.value)}")
    return 1


def _cmd_membership(args) -> int:
    ids = _identity_set(args.identities)
    result = membership(parse_expr(args.expr), ids, parse_field(args.field), args.cap)
    print("true" if result else "false")
    return 0


def _cmd_classify(args) -> int:
    f = parse_expr(args.expr)
    cls = classify_multilinear(f, oracle_verify=args.oracle_verify,
                               oracle_field=parse_field(args.field))
    print(f"degree: {cls.degree}")
    print(f"verdict: {cls.verdict}")
    if cls.bound is not None:
        print(f"nilpotency bound: {cls.bound}")
    print(f"normal form: {render(cls.normal_form)}")
    if cls.oracle_confirmed is not None:
        print(f"oracle confirmed: {cls.oracle_confirmed}")
    return 0


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results, all_ok = run_suites(names)
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {name}"
        if detail:
            line += f"  ({detail})"
        print(line)
    print(f"{sum(ok for _, ok, _ in results)}/{len(results)} checks passed")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="metanov",
        description="Exact normal forms, T-ideal dimensions, and identity "
                    "verification for metabelian weakly-Novikov algebras.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("normalize", help="normal form of an expression")
    sp.add_argument("--algebra", choices=("wlc", "wnov"), required=True)
    sp.add_argument("--field", default="q", help="q or fp:<p>")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("expr")
    sp.set_defaults(fn=_cmd_normalize)

    for name, fn, text in (("dim", _cmd_dim, "dimension of a multidegree component"),
                           ("basis", _cmd_basis, "representative words of a component")):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--identities", required=True,
                        help="preset name (e.g. wnov2, wlc2+flex) or identity file")
        sp.add_argument("--multidegree", required=True, help="e.g. 1,1,1")
        sp.add_argument("--field", default="q")
        sp.add_argument("--cap", type=int, default=DEFAULT_DEGREE_CAP)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("check-identity",
                        help="check an identity against a table algebra")
    sp.add_argument("--algebra", choices=("wlc", "wnov"), required=True)
    sp.add_argument("--identity", required=True,
                    help="expression over v-vars, e.g. 'A(v1,v2,v3) - A(v1,v3,v2) = 0'")
    sp.add_argument("--max-degree", type=int, default=7)
    sp.add_argument("--pool", type=int, default=5,
                    help="substitute basis elements over x1..x<pool>")
    sp.add_argument("--field", default="q")
    sp.set_defaults(fn=_cmd_check_identity)

    sp = sub.add_parser("membership", help="T-ideal membership of an expression")
    sp.add_argument("--identities", required=True)
    sp.add_argument("--field", default="q")
    sp.add_argument("--cap", type=int, default=DEFAULT_DEGREE_CAP)
    sp.add_argument("expr")
    sp.set_defaults(fn=_cmd_membership)

    sp = sub.add_parser("classify",
                        help="classify a multilinear identity over x-vars")
    sp.add_argument("--oracle-verify", action="store_true")
    sp.add_argument("--field", default="fp:1009", help="field of --oracle-verify")
    sp.add_argument("expr")
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("--suite", choices=(*SUITES, "all"),
                    default="all")
    sp.set_defaults(fn=_cmd_verify)
    return p


def main(argv=None) -> int:
    """Run one subcommand.  Errors in the input (bad expressions, fields,
    identities or degrees) exit with status 2 and one ``error:`` line on
    stderr, as argparse does for bad arguments."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())
