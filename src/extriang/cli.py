"""Command line front end.

Every subcommand prints a JSON document (top-level "schema": 1) to stdout,
or a human-readable rendering with --pretty.  Exit codes: 0 all checks
passed, 1 a mathematical check failed (report still printed), 2 bad input,
141 stdout closed before the report was written (as for a SIGPIPE kill).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .quivrep import AlgebraFormatError, enumerate_indecomposables, parse_algebra_text
from .excat import (
    enumerate_torsion_pairs,
    is_cluster_tilting,
    quotient,
    torsion_pairs_document,
    verify_torsion_pair,
)
from .fixtures import FixtureBundle, build_example51
from .recol import (
    check_recollement,
    classify_all,
    glue_torsion_pairs,
    quotient_recollement,
    restrict_torsion_pair,
)


class InputError(Exception):
    pass


def _emit(payload: dict, pretty: bool) -> None:
    if pretty:
        _render(payload, indent=0)
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


def _render(obj, indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list)) and value:
                print(f"{pad}{key}:")
                _render(value, indent + 1)
            else:
                print(f"{pad}{key}: {value}")
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                _render(value, indent)
                print(f"{pad}-")
            else:
                print(f"{pad}- {value}")
    else:
        print(f"{pad}{obj}")


def _bundle(args) -> FixtureBundle:
    return build_example51(p=args.field, bound=args.bound)


# category name -> bundle attribute; only the chosen one is built
_CATEGORIES = {"A": "a_ext", "B": "b_ext", "C": "c_ext", "modA": "full_a", "modLambda": "full_b"}


def _excat_by_name(bundle: FixtureBundle, which: str):
    if which not in _CATEGORIES:
        raise InputError(f"unknown category {which!r}; pick one of {sorted(_CATEGORIES)}")
    return getattr(bundle, _CATEGORIES[which])


def _labels_for(bundle: FixtureBundle, catalog) -> dict[str, str]:
    names = bundle.a_names if catalog is bundle.mod_a else bundle.lambda_names
    out: dict[str, str] = {}
    for label, idx in names.items():
        out.setdefault(str(idx), label)
    return out


# -- subcommand handlers ------------------------------------------------------


def cmd_catalog(args) -> int:
    if args.algebra_file:
        try:
            with open(args.algebra_file) as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(str(exc)) from exc
        algebra = parse_algebra_text(text)
        catalog = enumerate_indecomposables(algebra, args.bound, args.field)
        payload = catalog.to_json_dict()
    elif args.example51:
        bundle = _bundle(args)
        catalog = bundle.mod_a if args.example51 == "modA" else bundle.mod_lambda
        payload = catalog.to_json_dict()
        payload["labels"] = _labels_for(bundle, catalog)
        if args.example51 == "modLambda" and bundle.notes:
            payload["notes"] = bundle.notes
    else:
        raise InputError("need an algebra file or --example51")
    payload["count"] = len(catalog)
    _emit(payload, args.pretty)
    return 0


def cmd_torsion(args) -> int:
    bundle = _bundle(args)
    e = _excat_by_name(bundle, args.category)
    if args.action == "enumerate":
        payload = torsion_pairs_document(enumerate_torsion_pairs(e), e)
        payload.update(category=args.category, labels=_labels_for(bundle, e.catalog))
        _emit(payload, args.pretty)
        return 0
    t = bundle.parse_subcat(args.t, e.catalog)
    f = bundle.parse_subcat(args.f, e.catalog)
    res = verify_torsion_pair(t, f, e)
    payload = {
        "schema": 1,
        "kind": "torsion_verify",
        "category": args.category,
        "labels": _labels_for(bundle, e.catalog),
        "result": res.to_json_dict(),
    }
    _emit(payload, args.pretty)
    return 0 if res.ok else 1


def cmd_recollement(args) -> int:
    bundle = _bundle(args)
    r = bundle.restricted if args.which == "restricted" else bundle.full
    if args.action == "check":
        report = check_recollement(r)
        payload = {
            "schema": 1,
            "kind": "recollement_check",
            "which": args.which,
            "report": report.to_json_dict(),
        }
        _emit(payload, args.pretty)
        return 0 if report.ok else 1
    classifications = classify_all(r)
    payload = {
        "schema": 1,
        "kind": "recollement_classify",
        "which": args.which,
        "end_summand_cap": {"middle": r.b_cat.cap, "outer": r.a_cat.cap},
        "classifications": {name: cls.to_json_dict() for name, cls in classifications.items()},
    }
    _emit(payload, args.pretty)
    return 0


def cmd_glue(args) -> int:
    bundle = _bundle(args)
    r = bundle.restricted
    t1 = bundle.parse_subcat(args.t1, bundle.mod_a)
    f1 = bundle.parse_subcat(args.f1, bundle.mod_a)
    t2 = bundle.parse_subcat(args.t2, bundle.mod_a)
    f2 = bundle.parse_subcat(args.f2, bundle.mod_a)
    res1 = verify_torsion_pair(t1, f1, r.a_cat)
    if not res1.ok:
        _emit({"schema": 1, "kind": "glue", "error": "first input is not a torsion pair",
               "detail": res1.to_json_dict()}, args.pretty)
        return 1
    res2 = verify_torsion_pair(t2, f2, r.c_cat)
    if not res2.ok:
        _emit({"schema": 1, "kind": "glue", "error": "second input is not a torsion pair",
               "detail": res2.to_json_dict()}, args.pretty)
        return 1
    g = glue_torsion_pairs(r, res1.pair, res2.pair)
    payload = {
        "schema": 1,
        "kind": "glue",
        "labels": _labels_for(bundle, bundle.mod_lambda),
        "result": g.to_json_dict(),
    }
    _emit(payload, args.pretty)
    return 0 if g.verdict.ok else 1


def cmd_restrict(args) -> int:
    bundle = _bundle(args)
    r = bundle.restricted
    t = bundle.parse_subcat(args.t, bundle.mod_lambda)
    f = bundle.parse_subcat(args.f, bundle.mod_lambda)
    res = verify_torsion_pair(t, f, r.b_cat)
    if not res.ok:
        _emit({"schema": 1, "kind": "restrict", "error": "input is not a torsion pair",
               "detail": res.to_json_dict()}, args.pretty)
        return 1
    rr = restrict_torsion_pair(r, res.pair)
    payload = {
        "schema": 1,
        "kind": "restrict",
        "labels_outer": _labels_for(bundle, bundle.mod_a),
        "result": rr.to_json_dict(),
    }
    _emit(payload, args.pretty)
    return 0 if rr.a_verdict.ok and rr.c_verdict.ok else 1


def cmd_cluster_tilting(args) -> int:
    bundle = _bundle(args)
    e = _excat_by_name(bundle, args.category)
    t = bundle.parse_subcat(args.t, e.catalog)
    report = is_cluster_tilting(t, e)
    payload = {
        "schema": 1,
        "kind": "cluster_tilting",
        "category": args.category,
        "t": t.sorted_members(),
        "labels": _labels_for(bundle, e.catalog),
        "report": report.to_json_dict(),
    }
    _emit(payload, args.pretty)
    return 0 if report.ok else 1


def cmd_quotient(args) -> int:
    bundle = _bundle(args)
    e = _excat_by_name(bundle, args.category)
    t = bundle.parse_subcat(args.t, e.catalog)
    q = quotient(e, t)
    payload = {
        "schema": 1,
        "kind": "quotient",
        "category": args.category,
        "labels": _labels_for(bundle, e.catalog),
        "result": q.to_json_dict(),
    }
    _emit(payload, args.pretty)
    return 0


def cmd_quotient_recollement(args) -> int:
    bundle = _bundle(args)
    t = bundle.parse_subcat(args.t, bundle.mod_lambda)
    res = quotient_recollement(
        bundle.restricted, t, require_cluster_tilting=not args.force)
    payload = {
        "schema": 1,
        "kind": "quotient_recollement",
        "labels": _labels_for(bundle, bundle.mod_lambda),
        "result": res.to_json_dict(),
    }
    _emit(payload, args.pretty)
    if not res.constructed:
        return 1
    checks_ok = all(v for v in res.induced_checks.values() if isinstance(v, bool))
    return 0 if checks_ok else 1


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extriang",
        description="exact torsion-pair / recollement computations on quiver representations",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", type=int, default=2, help="prime field size (default 2)")
    common.add_argument("--bound", type=int, default=2, help="dimension bound for enumeration (default 2)")
    common.add_argument("--pretty", action="store_true", help="human-readable output instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", parents=[common],
                           help="enumerate indecomposables and dump the catalog")
    p_cat.add_argument("algebra_file", nargs="?", help="algebra text file")
    p_cat.add_argument("--example51", choices=["modA", "modLambda"], help="built-in example catalog")
    p_cat.set_defaults(func=cmd_catalog)

    p_tor = sub.add_parser("torsion", parents=[common], help="enumerate or verify torsion pairs")
    p_tor.add_argument("action", choices=["enumerate", "verify"])
    p_tor.add_argument("--example51", dest="category", default="B",
                       help="category: A, B, C, modA, modLambda (default B)")
    p_tor.add_argument("--t", default="-", help="torsion class (labels/indices, comma separated)")
    p_tor.add_argument("--f", default="-", help="torsion-free class")
    p_tor.set_defaults(func=cmd_torsion)

    p_rec = sub.add_parser("recollement", parents=[common], help="check axioms or classify the six functors")
    p_rec.add_argument("action", choices=["check", "classify"])
    p_rec.add_argument("--example51", dest="which", choices=["restricted", "full"],
                       default="restricted")
    p_rec.set_defaults(func=cmd_recollement)

    p_glue = sub.add_parser("glue", parents=[common], help="glue outer torsion pairs to the middle category")
    p_glue.add_argument("--example51", action="store_true", help="use the built-in example")
    p_glue.add_argument("--t1", required=True)
    p_glue.add_argument("--f1", required=True)
    p_glue.add_argument("--t2", required=True)
    p_glue.add_argument("--f2", required=True)
    p_glue.set_defaults(func=cmd_glue)

    p_res = sub.add_parser("restrict", parents=[common], help="restrict a middle torsion pair to the outer categories")
    p_res.add_argument("--example51", action="store_true")
    p_res.add_argument("--t", required=True)
    p_res.add_argument("--f", required=True)
    p_res.set_defaults(func=cmd_restrict)

    p_ct = sub.add_parser("cluster-tilting", parents=[common], help="verify a cluster tilting candidate")
    p_ct.add_argument("action", choices=["verify"])
    p_ct.add_argument("--example51", dest="category", default="B")
    p_ct.add_argument("--t", required=True)
    p_ct.set_defaults(func=cmd_cluster_tilting)

    p_q = sub.add_parser("quotient", parents=[common], help="additive quotient by a subcategory")
    p_q.add_argument("--example51", dest="category", default="B")
    p_q.add_argument("--t", required=True)
    p_q.set_defaults(func=cmd_quotient)

    p_qr = sub.add_parser("quotient-recollement", parents=[common],
                          help="quotient all three categories by a cluster tilting subcategory")
    p_qr.add_argument("--example51", action="store_true")
    p_qr.add_argument("--t", required=True)
    p_qr.add_argument("--force", action="store_true",
                      help="construct even when the preconditions fail")
    p_qr.set_defaults(func=cmd_quotient_recollement)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # flush here, so a closed reader surfaces below and not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone; send what is still buffered to the null
        # device, so the interpreter's final flush stays silent too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except AlgebraFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (InputError, KeyError, ValueError) as exc:
        # user-supplied data violating a precondition (e.g. a subcategory
        # member outside the chosen category) lands here
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
