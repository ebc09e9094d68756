"""Acceptance suite: one check per stated criterion, printed pass/fail lines.

All tolerances are exact (counts, set equalities, booleans).  Two checks
are strict-xfail: the bundled example's three-summand candidate is provably
not cluster tilting ([P1;0] is projective in the middle category, so every
deflation onto it splits and no right approximation inside the candidate
exists), which also blocks the gated quotient-recollement construction.
The surrounding honest behavior (rejection witness, quotient tables, the
forced trivial quotient recollement) is asserted green elsewhere in the
suite.  Run with -s to see the report lines.
"""

import json
import random
import subprocess
import sys

import pytest

from extriang.exactfield import Mat
from extriang.excat import Subcat, is_cluster_tilting, quotient, verify_torsion_pair
from extriang.homext import ext1_space, five_term_contravariant, five_term_covariant
from extriang.recol import classify_all, check_recollement, glue_torsion_pairs, quotient_recollement, restrict_torsion_pair
from oracles import is_isomorphic

EXPECTED_LAMBDA_DIMS = [
    {"1x": 0, "2x": 0, "1y": 0, "2y": 1},
    {"1x": 0, "2x": 0, "1y": 1, "2y": 0},
    {"1x": 0, "2x": 1, "1y": 0, "2y": 0},
    {"1x": 1, "2x": 0, "1y": 0, "2y": 0},
    {"1x": 0, "2x": 0, "1y": 1, "2y": 1},
    {"1x": 0, "2x": 1, "1y": 0, "2y": 1},
    {"1x": 1, "2x": 0, "1y": 1, "2y": 0},
    {"1x": 1, "2x": 1, "1y": 0, "2y": 0},
    {"1x": 1, "2x": 0, "1y": 1, "2y": 1},
    {"1x": 1, "2x": 1, "1y": 0, "2y": 1},
    {"1x": 1, "2x": 1, "1y": 1, "2y": 1},
]

EXPECTED_A_DIMS = [{"1": 0, "2": 1}, {"1": 1, "2": 0}, {"1": 1, "2": 1}]


def _report(name: str, ok: bool, detail: str = "") -> bool:
    line = f"[{name}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line, flush=True)
    return ok


def _cli_json(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "extriang", *argv],
        capture_output=True, text=True,
    )
    return proc.returncode, json.loads(proc.stdout) if proc.stdout else None


def test_criterion_1_catalog_fidelity():
    code_a, payload_a = _cli_json("catalog", "--example51", "modA", "--bound", "2")
    code_l, payload_l = _cli_json("catalog", "--example51", "modLambda", "--bound", "2")
    ok = (
        code_a == 0 and payload_a["count"] == 3
        and [m["dims"] for m in payload_a["indecs"]] == EXPECTED_A_DIMS
        and code_l == 0 and payload_l["count"] == 11
        and [m["dims"] for m in payload_l["indecs"]] == EXPECTED_LAMBDA_DIMS
    )
    assert _report("criterion 1", ok,
                   f"modA count {payload_a['count']}, modLambda count {payload_l['count']}, "
                   "dimension vectors cross-checked against the exhaustive enumeration")


def test_criterion_2_recollement_axioms(bundle):
    reports = {
        "restricted": check_recollement(bundle.restricted),
        "full": check_recollement(bundle.full),
    }
    clauses_ok = all(rep.ok for rep in reports.values())
    names = [c.clause for c in reports["restricted"].clauses]
    covers = {"R1_triangle_identities", "R1_hom_dimensions", "R2_image_equals_kernel",
              "R3_fully_faithful", "R4_left_exact_sequence", "R5_right_exact_sequence",
              "natural_isomorphisms", "vanishing_compositions"} <= set(names)
    assert _report("criterion 2", clauses_ok and covers,
                   "R1-R5 plus consequence clauses pass on both recollements")


def test_criterion_3_functor_classification(bundle, b_indices):
    cls = classify_all(bundle.restricted)
    tri = bundle.triangular
    witness = cls["i_upper_star"].left_witness
    p1 = bundle.mod_a.indecs[bundle.a_names["P1"]]
    witness_ok = (
        witness is not None
        and witness.a_summands == (b_indices["P1;0"],)
        and witness.middle_summands == (b_indices["P1;P1"],)
        and witness.c_summands == (b_indices["0;P1"],)
        and is_isomorphic(tri.i_upper_star_obj(witness.ses.a), p1)
        and tri.i_upper_star_obj(witness.ses.b).is_zero()
        and tri.i_upper_star_obj(witness.ses.c).is_zero()
    )
    ok = (
        cls["i_lower_star"].label == "exact"
        and cls["j_upper_star"].label == "exact"
        and cls["i_upper_shriek"].label == "exact"
        and cls["i_upper_star"].label == "right_exact"
        and witness_ok
    )
    assert _report("criterion 3", ok,
                   "i_*, j^* exact; i^! exact; i* right-exact with witness mapping to P(1)->0->0")


def test_criterion_4_gluing(bundle, b_indices):
    r = bundle.restricted
    acat = bundle.mod_a
    p1, s2 = bundle.a_names["P1"], bundle.a_names["S2"]
    tp1 = verify_torsion_pair(Subcat.add(acat, [p1]), Subcat.add(acat, [s2]), r.a_cat).pair
    tp2 = verify_torsion_pair(Subcat.add(acat, [p1]), Subcat.zero(acat), r.c_cat).pair
    g = glue_torsion_pairs(r, tp1, tp2)
    ok = (
        g.t.members == {b_indices["P1;0"], b_indices["P1;P1"], b_indices["0;P1"]}
        and g.f.members == {b_indices["S2;0"]}
        and g.verdict.ok
        and not g.i_upper_star_exact
        and g.recovery["equals_inputs"]
    )
    assert _report("criterion 4", ok,
                   "glued (T, F) verified; i* flagged non-exact; recovery identities exact")


def test_criterion_5_restriction(bundle, b_indices):
    r = bundle.restricted
    cat = bundle.mod_lambda
    tp = verify_torsion_pair(
        Subcat.add(cat, [b_indices["P1;0"]]),
        Subcat.add(cat, [b_indices["0;P1"], b_indices["S2;0"]]),
        r.b_cat,
    ).pair
    res = restrict_torsion_pair(r, tp)
    ok = (
        res.a_pair[0].members == {bundle.a_names["P1"]}
        and res.a_pair[1].members == {bundle.a_names["S2"]}
        and res.c_pair[0].members == frozenset()
        and res.c_pair[1].members == {bundle.a_names["P1"]}
        and res.a_verdict.ok and res.c_verdict.ok
        and all(res.hypotheses.values())
    )
    assert _report("criterion 5", ok,
                   "restriction yields (add P1, add S2) and (0, add P1), all hypotheses true")


@pytest.mark.xfail(
    strict=True,
    reason="add([P1;P1]_1 + [0;P1] + [S2;0]) is not cluster tilting: [P1;0] is "
    "projective in the middle category, so every deflation onto it splits and "
    "no right approximation inside the candidate exists (see decisions ledger)",
)
def test_criterion_6a_cluster_tilting_accepts(bundle, b_indices):
    candidate = Subcat.add(
        bundle.mod_lambda,
        [b_indices["P1;P1"], b_indices["0;P1"], b_indices["S2;0"]],
    )
    report = is_cluster_tilting(candidate, bundle.b_ext)
    _report("criterion 6a", report.ok,
            "stated acceptance of the three-summand candidate; fails because "
            f"object {b_indices['P1;0']} has no right approximation")
    assert report.ok


def test_criterion_6b_cluster_tilting_rejects_with_witness(bundle, b_indices):
    small = Subcat.add(bundle.mod_lambda, [b_indices["P1;P1"]])
    report = is_cluster_tilting(small, bundle.b_ext)
    ok = (
        not report.ok and report.rigid
        and {"object": b_indices["S2;0"], "side": "left"} in report.approx_failures
    )
    assert _report("criterion 6b", ok,
                   "add([P1;P1]_1) rejected: rigid but approximation fails at [S2;0]")


def test_criterion_6c_quotients(bundle, b_indices):
    cat = bundle.mod_lambda
    candidate = Subcat.add(cat, [b_indices["P1;P1"], b_indices["0;P1"], b_indices["S2;0"]])
    qb = quotient(bundle.b_ext, candidate)
    i_star_t = Subcat.add(bundle.mod_a, [bundle.a_names["S2"]])
    qa = quotient(bundle.a_ext, i_star_t)
    j_star_t = Subcat.add(bundle.mod_a, [bundle.a_names["P1"]])
    qc = quotient(bundle.c_ext, j_star_t)

    b0 = b_indices["P1;0"]
    expected_b_table = {
        (i, j): (1 if (i, j) == (b0, b0) else 0)
        for i in bundle.b_ext.indec_indices() for j in bundle.b_ext.indec_indices()
    }
    b_table = {(i, j): qb.qdim(i, j)
               for i in bundle.b_ext.indec_indices() for j in bundle.b_ext.indec_indices()}
    p1a = bundle.a_names["P1"]
    a_table = {(i, j): qa.qdim(i, j)
               for i in bundle.a_ext.indec_indices() for j in bundle.a_ext.indec_indices()}
    expected_a_table = {
        (i, j): (1 if (i, j) == (p1a, p1a) else 0)
        for i in bundle.a_ext.indec_indices() for j in bundle.a_ext.indec_indices()
    }
    ok = (
        qb.qindecs == (b0,) and b_table == expected_b_table
        and qa.qindecs == (p1a,) and a_table == expected_a_table
        and qc.qindecs == ()
    )
    assert _report("criterion 6c", ok,
                   "quotients are add P(1), add([P1;0]), 0 with exact Hom tables")


@pytest.mark.xfail(
    strict=True,
    reason="the gated quotient recollement requires the cluster tilting "
    "precondition, which provably fails for the stated candidate; the forced "
    "construction (checked green in test_recol) does produce the trivial "
    "(X, X, 0) quotient recollement",
)
def test_criterion_6d_quotient_recollement(bundle, b_indices):
    candidate = Subcat.add(
        bundle.mod_lambda,
        [b_indices["P1;P1"], b_indices["0;P1"], b_indices["S2;0"]],
    )
    res = quotient_recollement(bundle.restricted, candidate)
    _report("criterion 6d", res.constructed,
            "stated trivial (X, X, 0) construction is gated off by the failed "
            "cluster tilting precondition")
    assert res.constructed
    assert res.b_quotient.qindecs == (b_indices["P1;0"],)


def test_criterion_7a_five_term_exactness(bundle):
    checked = 0
    for rec in bundle.b_ext.conflations:
        for x in bundle.mod_lambda.indecs:
            cov = five_term_covariant(rec.ses, x)
            con = five_term_contravariant(rec.ses, x)
            if not (all(cov.values()) and all(con.values())):
                assert _report("criterion 7a", False,
                               f"failure at conflation {rec.to_json_dict()} vs {x.dims}")
            checked += 2
    assert _report("criterion 7a", True,
                   f"{checked} five-term sequences exact over all conflations x 11 objects")


def test_criterion_7b_end_iso_detection(bundle):
    for e in (bundle.a_ext, bundle.b_ext, bundle.c_ext, bundle.full_a, bundle.full_b):
        for rec in e.conflations:
            assert rec.ses.inc.is_isomorphism() == rec.ses.c.is_zero()
            assert rec.ses.prj.is_isomorphism() == rec.ses.a.is_zero()
    assert _report("criterion 7b", True,
                   "first/second map is an isomorphism exactly when the opposite end vanishes")


def test_criterion_7c_realize_class_round_trip(bundle):
    checked = 0
    for cat in (bundle.mod_a, bundle.mod_lambda):
        for c in cat.indecs:
            for a in cat.indecs:
                space = ext1_space(c, a)
                for cls in space.elements():
                    assert space.class_of(space.realize(cls)) == cls
                    checked += 1
    assert _report("criterion 7c", True, f"{checked} classes round-trip on both algebras")


def test_criterion_7d_random_matrix_properties():
    rng = random.Random(20240202)
    for p in (2, 5):
        for _ in range(1000):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = Mat.from_rows(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
            assert m.rank() + m.kernel_basis().cols == m.cols
            r, piv = m.rref()
            r2, piv2 = r.rref()
            assert r2 == r and piv2 == piv
    assert _report("criterion 7d", True,
                   "rank-nullity and rref idempotence on 1000 random matrices over F_2 and F_5")


def test_criterion_7e_glued_pair_in_golden_list(bundle, b_indices, golden_torsion_pairs):
    acat = bundle.mod_a
    p1, s2 = bundle.a_names["P1"], bundle.a_names["S2"]
    tp1 = verify_torsion_pair(Subcat.add(acat, [p1]), Subcat.add(acat, [s2]),
                              bundle.restricted.a_cat).pair
    tp2 = verify_torsion_pair(Subcat.add(acat, [p1]), Subcat.zero(acat),
                              bundle.restricted.c_cat).pair
    g = glue_torsion_pairs(bundle.restricted, tp1, tp2)
    # the glued free class is perpendicular-maximal, so the pair must appear
    perp = {
        j for j in bundle.b_ext.indec_indices()
        if all(bundle.mod_lambda.dim_hom(i, j) == 0 for i in g.t.members)
    }
    assert g.f.members == frozenset(perp)
    golden = json.loads(golden_torsion_pairs)
    keyed = {(tuple(p["t"]), tuple(p["f"])) for p in golden["pairs"]}
    found = (tuple(sorted(g.t.members)), tuple(sorted(g.f.members))) in keyed
    assert _report("criterion 7e", found,
                   "glued pair with perpendicular-maximal free class is in the golden list")
