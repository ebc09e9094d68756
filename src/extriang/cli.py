"""Command line front end.

Every subcommand prints one document to stdout: JSON with top-level
"schema": 1 and a "kind" naming its contents, or a human-readable
rendering with --pretty.  Exit codes: 0 all checks passed, 1 a mathematical
check failed (the document is still printed), 2 bad input (a message on
stderr, nothing on stdout), 141 stdout closed before the document was
written (as for a SIGPIPE kill).  Each handler returns its document and
verdict, and `_emit` alone prints the one and maps the other to 0 or 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .quivrep import enumerate_indecomposables, parse_algebra_text
from .excat import (
    enumerate_torsion_pairs,
    is_cluster_tilting,
    quotient,
    torsion_pairs_document,
    verify_torsion_pair,
)
from .fixtures import build_example51
from .recol import (
    check_recollement,
    classify_all,
    glue_torsion_pairs,
    quotient_recollement,
    restrict_torsion_pair,
)


class InputError(Exception):
    pass


class Refused(Exception):
    """An input failed its check before the command could run: the document
    says why, and the exit code is 1."""

    def __init__(self, document: dict):
        super().__init__(document["error"])
        self.document = document


def _emit(document: dict, ok: bool, pretty: bool) -> int:
    """Print one document and map its verdict to the exit code."""
    document = {"schema": 1, **document}
    if pretty:
        _render(document, indent=0)
    else:
        print(json.dumps(document, sort_keys=True, indent=2))
    # flush here, so a closed reader surfaces in `main` and not at exit
    sys.stdout.flush()
    return 0 if ok else 1


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


# category name -> bundle attribute; only the chosen one is built
_CATEGORIES = {"A": "a_ext", "B": "b_ext", "C": "c_ext", "modA": "full_a", "modLambda": "full_b"}


def _host(args):
    """The bundle, the category named by --example51 and its catalog's labels."""
    if args.category not in _CATEGORIES:
        raise InputError(f"unknown category {args.category!r}; pick one of {sorted(_CATEGORIES)}")
    bundle = build_example51(args.field, args.bound)
    e = getattr(bundle, _CATEGORIES[args.category])
    return bundle, e, bundle.labels(e.catalog)


def _torsion_pair(kind: str, which: str, t, f, e):
    """The pair (t, f) of `e` once verified; refused with its verdict if it fails."""
    res = verify_torsion_pair(t, f, e)
    if not res.ok:
        raise Refused({"kind": kind, "error": f"{which} is not a torsion pair",
                       "detail": res.to_json_dict()})
    return res.pair


# -- subcommand handlers: each returns (document, verdict) -----------------------


def cmd_catalog(args):
    if args.algebra_file:
        try:
            with open(args.algebra_file) as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(str(exc)) from exc
        catalog = enumerate_indecomposables(parse_algebra_text(text), args.bound, args.field)
        doc = catalog.to_json_dict()
    elif args.example51:
        bundle = build_example51(args.field, args.bound)
        catalog = bundle.mod_a if args.example51 == "modA" else bundle.mod_lambda
        doc = catalog.to_json_dict()
        doc["labels"] = bundle.labels(catalog)
        if args.example51 == "modLambda" and bundle.notes:
            doc["notes"] = bundle.notes
    else:
        raise InputError("need an algebra file or --example51")
    doc["count"] = len(catalog)
    return doc, True


def cmd_torsion(args):
    bundle, e, labels = _host(args)
    if args.action == "enumerate":
        doc = torsion_pairs_document(enumerate_torsion_pairs(e), e)
        return dict(doc, category=args.category, labels=labels), True
    t = bundle.parse_subcat(args.t, e.catalog)
    f = bundle.parse_subcat(args.f, e.catalog)
    res = verify_torsion_pair(t, f, e)
    return {"kind": "torsion_verify", "category": args.category, "labels": labels,
            "result": res.to_json_dict()}, res.ok


def cmd_recollement(args):
    bundle = build_example51(args.field, args.bound)
    r = bundle.restricted if args.which == "restricted" else bundle.full
    if args.action == "check":
        report = check_recollement(r)
        return {"kind": "recollement_check", "which": args.which,
                "report": report.to_json_dict()}, report.ok
    classifications = classify_all(r)
    return {"kind": "recollement_classify", "which": args.which,
            "end_summand_cap": {"middle": r.b_cat.cap, "outer": r.a_cat.cap},
            "classifications": {name: cls.to_json_dict()
                                for name, cls in classifications.items()}}, True


def cmd_glue(args):
    bundle = build_example51(args.field, args.bound)
    r = bundle.restricted
    t1, f1, t2, f2 = (bundle.parse_subcat(spec, bundle.mod_a)
                      for spec in (args.t1, args.f1, args.t2, args.f2))
    g = glue_torsion_pairs(r, _torsion_pair("glue", "first input", t1, f1, r.a_cat),
                           _torsion_pair("glue", "second input", t2, f2, r.c_cat))
    return {"kind": "glue", "labels": bundle.labels(bundle.mod_lambda),
            "result": g.to_json_dict()}, g.verdict.ok


def cmd_restrict(args):
    bundle = build_example51(args.field, args.bound)
    r = bundle.restricted
    t = bundle.parse_subcat(args.t, bundle.mod_lambda)
    f = bundle.parse_subcat(args.f, bundle.mod_lambda)
    rr = restrict_torsion_pair(r, _torsion_pair("restrict", "input", t, f, r.b_cat))
    return {"kind": "restrict", "labels_outer": bundle.labels(bundle.mod_a),
            "result": rr.to_json_dict()}, rr.a_verdict.ok and rr.c_verdict.ok


def cmd_cluster_tilting(args):
    bundle, e, labels = _host(args)
    t = bundle.parse_subcat(args.t, e.catalog)
    report = is_cluster_tilting(t, e)
    return {"kind": "cluster_tilting", "category": args.category, "t": t.sorted_members(),
            "labels": labels, "report": report.to_json_dict()}, report.ok


def cmd_quotient(args):
    bundle, e, labels = _host(args)
    q = quotient(e, bundle.parse_subcat(args.t, e.catalog))
    return {"kind": "quotient", "category": args.category, "labels": labels,
            "result": q.to_json_dict()}, True


def cmd_quotient_recollement(args):
    bundle = build_example51(args.field, args.bound)
    t = bundle.parse_subcat(args.t, bundle.mod_lambda)
    res = quotient_recollement(bundle.restricted, t, require_cluster_tilting=not args.force)
    ok = res.constructed and all(v for v in res.induced_checks.values() if isinstance(v, bool))
    return {"kind": "quotient_recollement", "labels": bundle.labels(bundle.mod_lambda),
            "result": res.to_json_dict()}, ok


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
    args = build_parser().parse_args(argv)
    try:
        document, ok = args.func(args)
    except Refused as exc:
        document, ok = exc.document, False
    except (InputError, KeyError, ValueError) as exc:
        # user-supplied data violating a precondition (a malformed algebra
        # file, an unknown label, a subcategory member outside the chosen
        # category) lands here
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        return _emit(document, ok, args.pretty)
    except BrokenPipeError:
        # the reader has gone; send what is still buffered to the null
        # device, so the interpreter's final flush stays silent too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
