"""Each checker accepts a right output and rejects a corrupted copy of it.

    python3 -m pytest perfbench/test_checks.py -q
"""

import copy

import pytest

import checks

# mod A for A = path algebra of 1 -> 2: index 0 = S2 (simple projective),
# 1 = S1 (simple injective), 2 = P1, dimension vectors over (1, 2)
A_DIMS = [(0, 1), (1, 0), (1, 1)]
A_HOM = [[1, 0, 1],
         [0, 1, 0],
         [0, 1, 1]]
A_HOST = [0, 1, 2]
# the torsion pair (add S2, add S1); P1 sits in 0 -> S2 -> P1 -> S1 -> 0
A_PAIR = {"t": [0], "f": [1], "witness": {
    "0": {"t_part": [0], "f_part": []},
    "1": {"t_part": [], "f_part": [1]},
    "2": {"t_part": [0], "f_part": [1]},
}}


def test_positive_roots_of_d4():
    roots = checks.positive_roots(4, ((0, 1), (2, 1), (3, 1)), 2)
    assert len(roots) == 12 and (1, 2, 1, 1) in roots


def test_dynkin_catalog_rejects_a_dropped_indecomposable():
    arrows = ((0, 1), (1, 2))
    dims = sorted(checks.positive_roots(3, arrows, 2))
    assert checks.check_dynkin_catalog(dims, 3, arrows, 2) == []
    assert checks.check_dynkin_catalog(dims[1:], 3, arrows, 2)
    assert checks.check_dynkin_catalog(dims + [dims[0]], 3, arrows, 2)
    assert checks.check_dynkin_catalog(dims[1:] + [(1, 0, 1)], 3, arrows, 2)


def test_dims_agree_rejects_a_prime_that_differs():
    dims = [(1, 0), (0, 1), (1, 1)]
    assert checks.check_dims_agree({2: dims, 3: list(reversed(dims))}, 1) == []
    assert checks.check_dims_agree({2: dims, 3: dims[:2]}, 1)
    assert checks.check_dims_agree({2: dims + [(2, 1)], 3: dims}, 1) == []


def test_directed_catalog_rejects_a_non_brick_and_a_repeated_vector():
    doc = {"algebra": {"vertices": ["1", "2"]}, "count": 3, "hom_dims": A_HOM,
           "indecs": [{"dims": {"1": a, "2": b}} for a, b in A_DIMS]}
    assert checks.check_directed_catalog(doc) == []
    bad = copy.deepcopy(doc)
    bad["hom_dims"][2][2] = 2
    assert checks.check_directed_catalog(bad)
    bad = copy.deepcopy(doc)
    bad["indecs"][0] = bad["indecs"][1]
    assert checks.check_directed_catalog(bad)
    bad = copy.deepcopy(doc)
    bad["count"] = 2
    assert checks.check_directed_catalog(bad)


def test_five_term_rejects_a_flipped_exactness_flag():
    cov = {"at_hom_b": True, "at_hom_c": True, "at_ext_a": True}
    con = {"at_hom_b": True, "at_hom_a": True, "at_ext_c": True}
    assert checks.check_five_term(cov, con) == []
    assert checks.check_five_term(dict(cov, at_ext_a=False), con)
    assert checks.check_five_term(cov, dict(con, at_hom_a=False))
    assert checks.check_five_term({"at_hom_b": True, "at_hom_c": True}, con)


def test_torsion_pair_rejects_a_t_that_is_not_left_perpendicular():
    assert checks.check_torsion_pair(A_PAIR, A_HOST, A_HOM, A_DIMS) == []
    # T = {S2, S1}, F = {S1}: Hom(S1, S1) != 0, so T is not the left perp of F
    bad = copy.deepcopy(A_PAIR)
    bad["t"] = [0, 1]
    assert checks.check_torsion_pair(bad, A_HOST, A_HOM, A_DIMS)
    # F too small: the right perp of {S2} is {S1}, not empty
    bad = copy.deepcopy(A_PAIR)
    bad["f"] = []
    assert checks.check_torsion_pair(bad, A_HOST, A_HOM, A_DIMS)


def test_torsion_pair_rejects_broken_witnesses():
    bad = copy.deepcopy(A_PAIR)
    bad["witness"]["2"] = {"t_part": [0], "f_part": []}  # dims do not add up
    assert checks.check_torsion_pair(bad, A_HOST, A_HOM, A_DIMS)
    bad = copy.deepcopy(A_PAIR)
    bad["witness"]["2"] = {"t_part": [1], "f_part": [0]}  # parts on the wrong sides
    assert checks.check_torsion_pair(bad, A_HOST, A_HOM, A_DIMS)
    bad = copy.deepcopy(A_PAIR)
    del bad["witness"]["1"]
    assert checks.check_torsion_pair(bad, A_HOST, A_HOM, A_DIMS)


def test_torsion_result_rejects_wrong_verdicts():
    ok = {"valid": True, "pair": A_PAIR}
    assert checks.check_torsion_result(ok, [0], [1], A_HOST, A_HOM, A_DIMS) == []
    assert checks.check_torsion_result(ok, [0], [1, 2], A_HOST, A_HOM, A_DIMS)
    rejected = {"valid": False, "clause": "conflation_existence", "detail": {"object": 2}}
    assert checks.check_torsion_result(rejected, [0, 2], [], A_HOST, A_HOM, A_DIMS) == []
    assert checks.check_torsion_result(dict(rejected, clause="hom_vanishing"),
                                       [0, 2], [], A_HOST, A_HOM, A_DIMS)
    # (0, all) and (all, 0) are torsion pairs in every category
    assert checks.check_torsion_result(rejected, [], A_HOST, A_HOST, A_HOM, A_DIMS)
    assert checks.check_torsion_result(rejected, A_HOST, [], A_HOST, A_HOM, A_DIMS)


def test_pair_count():
    assert checks.check_pair_count(5, 5, "full_a") == []
    assert checks.check_pair_count(4, 5, "full_a")


def test_recollement_report_rejects_a_failed_clause():
    doc = {"report": {"pass": True, "clauses": [{"clause": "R1", "pass": True},
                                                {"clause": "R2", "pass": True}]}}
    assert checks.check_recollement_report(doc) == []
    bad = copy.deepcopy(doc)
    bad["report"]["clauses"][1]["pass"] = False
    assert checks.check_recollement_report(bad)
    assert checks.check_recollement_report({"report": {"pass": True, "clauses": []}})


def test_classification_rejects_a_label_weaker_than_demanded():
    doc = {"classifications": {name: {"label": need} for name, need in checks.DEMANDED.items()}}
    assert checks.check_classification(doc) == []
    stronger = copy.deepcopy(doc)
    stronger["classifications"]["i_upper_star"]["label"] = "exact"
    assert checks.check_classification(stronger) == []
    bad = copy.deepcopy(doc)
    bad["classifications"]["i_upper_star"]["label"] = "left_exact"
    assert checks.check_classification(bad)
    bad = copy.deepcopy(doc)
    bad["classifications"]["j_upper_star"]["label"] = "right_exact"
    assert checks.check_classification(bad)


def test_cluster_tilting_report_rejects_other_failures():
    report = {"rigid": True, "cluster_tilting": False,
              "approximation_failures": [{"object": 7, "side": "right"}]}
    assert checks.check_cluster_tilting_report(report, 7) == []
    assert checks.check_cluster_tilting_report(dict(report, rigid=False), 7)
    assert checks.check_cluster_tilting_report(dict(report, cluster_tilting=True), 7)
    assert checks.check_cluster_tilting_report(
        dict(report, approximation_failures=[{"object": 7, "side": "left"}]), 7)


def test_quotient_rejects_a_killed_object_outside_t():
    result = {"killed": [0], "surviving": [1, 2],
              "qhom_dims": {"0,0": 0, "1,1": 1, "2,2": 1, "2,1": 1, "0,2": 0}}
    assert checks.check_quotient(result, [0], A_HOST) == []
    assert checks.check_quotient(dict(result, killed=[0, 1], surviving=[2]), [0], A_HOST)
    bad = copy.deepcopy(result)
    bad["qhom_dims"]["0,2"] = 1
    assert checks.check_quotient(bad, [0], A_HOST)
    bad = copy.deepcopy(result)
    bad["qhom_dims"]["1,1"] = 0
    assert checks.check_quotient(bad, [0], A_HOST)


def test_index_of_needs_a_unique_label():
    assert checks.index_of({"0": "S2", "1": "S1"}, "S1") == 1
    with pytest.raises(KeyError):
        checks.index_of({"0": "S2", "1": "S2"}, "S2")
