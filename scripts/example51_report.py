#!/usr/bin/env python3
"""End-to-end tour of the bundled worked example.

Builds both catalogs, checks both recollements, classifies the six
functors, glues and restricts the standard torsion pairs, and prints the
cluster-tilting / quotient story, including the one candidate that is
provably not cluster tilting.
"""

import sys

from extriang.excat import (
    Subcat,
    enumerate_torsion_pairs,
    is_cluster_tilting,
    quotient,
    verify_torsion_pair,
)
from extriang.fixtures import build_example51
from extriang.recol import (
    check_recollement,
    classify_all,
    glue_torsion_pairs,
    quotient_recollement,
    restrict_torsion_pair,
)


def label_set(bundle, catalog, indices):
    labels = bundle.labels(catalog)
    return "{" + ", ".join(labels[str(i)] for i in sorted(indices)) + "}"


def main() -> int:
    bundle = build_example51()
    print(f"mod A: {len(bundle.mod_a)} indecomposables; "
          f"mod Lambda: {len(bundle.mod_lambda)} indecomposables")
    for note in bundle.notes:
        print(f"note: {note}")

    for which, r in (("restricted", bundle.restricted), ("full", bundle.full)):
        report = check_recollement(r)
        print(f"recollement [{which}]: {'all clauses pass' if report.ok else 'FAILED'}")

    cls = classify_all(bundle.restricted)
    print("functor classification (restricted):",
          {name: c.label for name, c in cls.items()})

    acat = bundle.mod_a
    p1, s2 = bundle.a_names["P1"], bundle.a_names["S2"]
    tp1 = verify_torsion_pair(Subcat.add(acat, [p1]), Subcat.add(acat, [s2]),
                              bundle.a_ext).pair
    tp2 = verify_torsion_pair(Subcat.add(acat, [p1]), Subcat.zero(acat),
                              bundle.c_ext).pair
    g = glue_torsion_pairs(bundle.restricted, tp1, tp2)
    print("glued pair: T =", label_set(bundle, bundle.mod_lambda, g.t.members),
          " F =", label_set(bundle, bundle.mod_lambda, g.f.members),
          " valid =", g.verdict.ok,
          " (i* exact:", str(g.i_upper_star_exact) + ")")

    res = restrict_torsion_pair(bundle.restricted, verify_torsion_pair(
        Subcat.add(bundle.mod_lambda, [bundle.lambda_names["[P1;0]_0"]]),
        Subcat.add(bundle.mod_lambda, [bundle.lambda_names["[0;P1]_0"],
                                       bundle.lambda_names["[S2;0]_0"]]),
        bundle.b_ext).pair)
    print("restricted pairs valid:", res.a_verdict.ok and res.c_verdict.ok,
          "hypotheses:", res.hypotheses)

    pairs = enumerate_torsion_pairs(bundle.b_ext)
    print(f"torsion pairs of the middle subcategory: {len(pairs)}")

    candidate = Subcat.add(bundle.mod_lambda, [
        bundle.lambda_names["[P1;P1]_1"],
        bundle.lambda_names["[0;P1]_0"],
        bundle.lambda_names["[S2;0]_0"],
    ])
    ct = is_cluster_tilting(candidate, bundle.b_ext)
    print("cluster-tilting candidate add([P1;P1]_1 + [0;P1] + [S2;0]):",
          "accepted" if ct.ok else f"rejected (rigid={ct.rigid}, failures={ct.approx_failures})")
    q = quotient(bundle.b_ext, candidate)
    print("additive quotient of the middle subcategory:",
          label_set(bundle, bundle.mod_lambda, q.qindecs))
    forced = quotient_recollement(bundle.restricted, candidate,
                                  require_cluster_tilting=False)
    print("forced quotient recollement survivors:",
          label_set(bundle, bundle.mod_a, forced.a_quotient.qindecs),
          label_set(bundle, bundle.mod_lambda, forced.b_quotient.qindecs),
          label_set(bundle, bundle.mod_a, forced.c_quotient.qindecs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
