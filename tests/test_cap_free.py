"""Verdicts that read no capped conflation list.

Extension closure is decided from the conflations with two indecomposable
ends, and approximations from the universal maps built out of the
catalog's Hom bases; these tests hold both to the capped list searches
they replace, and pin which commands still build a list with
two-summand ends.
"""

import io
import itertools
import json

import numpy as np
import pytest

from extriang import cli, excat
from extriang.excat import (
    ExCat,
    NotExtensionClosedError,
    Subcat,
    approximation_sides,
    is_cluster_tilting,
    is_rigid,
)
from extriang.fixtures import FixtureBundle, build_example51
from extriang.homext import all_conflations
from extriang.quivrep import Algebra, Arrow, enumerate_indecomposables
from oracles import find_approximations

SHAPES = [(2, 2), (3, 1)]
CANDIDATE = ["--t", "[P1;P1]_1,[0;P1]_0,[S2;0]_0"]


def member_subsets(members):
    for k in range(len(members) + 1):
        yield from itertools.combinations(members, k)


def mask(indices) -> int:
    return sum(1 << i for i in set(indices))


def closed_by_list(records, subsets) -> list[bool]:
    """Per subset: no nonsplit record with ends inside has its middle outside."""
    pairs = {(mask(r.a_summands + r.c_summands), mask(r.middle_summands))
             for r in records if not r.split}
    ends, mids = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    out = []
    for s in subsets:
        outside = ~mask(s)
        out.append(not np.any((ends & outside == 0) & (mids & outside != 0)))
    return out


@pytest.mark.parametrize("which, p, bound", [("mod_a", 2, 2), ("mod_a", 3, 1), ("mod_lambda", 2, 2)])
def test_closure_agrees_with_the_two_summand_list(which, p, bound, monkeypatch):
    catalog = getattr(build_example51(p, bound), which)
    lists = {cap: all_conflations(catalog, cap=cap) for cap in (1, 2)}
    requested = []

    def listed(cat, members=None, cap=2):
        # the full list filtered to the members is the members' own list:
        # their end multisets come in the same relative order
        requested.append(cap)
        return [r for r in lists[cap] if set(r.a_summands + r.c_summands) <= members]

    monkeypatch.setattr(excat, "all_conflations", listed)
    subsets = list(member_subsets(range(len(catalog))))
    verdicts, fallbacks = [], 0
    for s in subsets:
        requested.clear()
        try:
            ExCat(catalog, s, cap=2)
            verdicts.append(True)
        except NotExtensionClosedError:
            verdicts.append(False)
        fallbacks += 2 in requested
    assert verdicts == closed_by_list(lists[2], subsets)
    # closed subsets, counting the empty and the full one; and the proper
    # subsets that pass on single-summand ends but fall back on the capped
    # list, because some of those ends' extensions has a decomposable middle
    expected = {"mod_a": (7, 0), "mod_lambda": (293, 82)}[which]
    assert (sum(verdicts), fallbacks) == expected


@pytest.mark.parametrize("p, bound", SHAPES)
def test_filtered_lists_are_the_members_lists(p, bound):
    catalog = build_example51(p, bound).mod_a
    for cap in (1, 2):
        full = all_conflations(catalog, cap=cap)
        for s in member_subsets(range(len(catalog))):
            assert all_conflations(catalog, s, cap=cap) == \
                [r for r in full if set(r.a_summands + r.c_summands) <= set(s)]


def test_fixture_hosts_need_no_two_summand_list(monkeypatch):
    calls = []
    real = excat.all_conflations

    def spy(catalog, members=None, cap=2):
        calls.append(cap)
        return real(catalog, members=members, cap=cap)

    monkeypatch.setattr(excat, "all_conflations", spy)
    bundle = FixtureBundle(2, 2)
    hosts = [bundle.a_ext, bundle.b_ext, bundle.c_ext]
    assert calls == [1, 1, 1]
    assert [h._conflations for h in hosts] == [None] * 3


@pytest.mark.parametrize("p, bound", SHAPES)
def test_universal_maps_agree_with_the_list_search(p, bound):
    bundle = build_example51(p, bound)
    rigid_seen = 0
    for e in (bundle.a_ext, bundle.b_ext, bundle.c_ext, bundle.full_a):
        for s in member_subsets(e.indec_indices()):
            t = Subcat.add(e.catalog, s)
            report = is_cluster_tilting(t, e)
            listed = []
            for c in e.indec_indices():
                left, right = find_approximations(c, t, e)
                listed += [{"object": c, "side": side}
                           for side, found in (("left", left), ("right", right)) if found is None]
            if report.rigid:
                rigid_seen += 1
                assert report.approx_failures == listed, (e.indec_indices(), s)
            assert report.ok == (report.rigid and not listed)
    assert rigid_seen == 24


def test_universal_maps_find_what_one_summand_ends_miss():
    # full mod Lambda lists conflations with single-summand ends only; on
    # its rigid subsets the universal maps fail nowhere the list search
    # succeeds, and succeed on 6 subsets where it failed
    bundle = build_example51(2, 2)
    e = bundle.full_b
    fixed = []
    for s in member_subsets(e.indec_indices()):
        t = Subcat.add(e.catalog, s)
        if not is_rigid(t, e)[0]:
            continue
        report = is_cluster_tilting(t, e)
        listed = {(c, side) for c in e.indec_indices()
                  for side, found in zip(("left", "right"), find_approximations(c, t, e))
                  if found is None}
        got = {(f["object"], f["side"]) for f in report.approx_failures}
        assert got <= listed
        if got != listed:
            fixed.append(s)
    assert len(fixed) == 6


def test_spurious_right_failure_is_gone(bundle, capsys):
    code = cli.main(["cluster-tilting", "verify", "--example51", "modLambda",
                     "--t", "[0;S2]_0,[S1;0]_0,[S1;P1]_f"])
    out = json.loads(capsys.readouterr().out)
    report = out["report"]
    assert code == 1 and report["rigid"] and not report["cluster_tilting"]
    # [0;S1]_0 has the right approximation conflation
    # [0;S2]_0 + [S1;0]_0 >-> [S1;P1]_f ->> [0;S1]_0, whose kernel has two
    # summands, which the single-summand list cannot hold
    assert out["labels"]["1"] == "[0;S1]_0"
    assert {"object": 1, "side": "right"} not in report["approximation_failures"]
    assert {"object": 1, "side": "left"} in report["approximation_failures"]


def test_kernel_outside_the_catalog_is_outside_t():
    # D4 with its centre a sink: at bound 1 the universal map onto the simple
    # at a leaf has the kernel of dimension (2,1,1,1), which only bound 2
    # lists; either way it is not in T, and no error is raised
    algebra = Algebra(("1", "2", "3", "4"), tuple(
        Arrow(f"x{k}", leaf, "1") for k, leaf in enumerate(("2", "3", "4"))))
    answers = []
    for bound in (1, 2):
        catalog = enumerate_indecomposables(algebra, bound, 2)
        index = {m.dims: i for i, m in enumerate(catalog.indecs)}
        t = Subcat.add(catalog, [index[(1, 0, 1, 1)], index[(1, 1, 0, 1)]])
        answers.append(approximation_sides(index[(0, 0, 0, 1)], t))
    assert answers[0] == answers[1] and answers[0][1] is False


COMMANDS = [
    (["torsion", "enumerate", "--example51", "B"], 0),
    (["torsion", "verify", "--example51", "B", "--t", "[P1;0]_0", "--f", "[0;P1]_0,[S2;0]_0"], 0),
    (["quotient", *CANDIDATE], 0),
    (["cluster-tilting", "verify", *CANDIDATE], 0),
    (["recollement", "check", "--example51", "restricted"], 0),
    (["recollement", "classify", "--example51", "restricted"], 1),
]


@pytest.mark.parametrize("argv, b_lists", COMMANDS)
def test_only_classification_builds_two_summand_lists(argv, b_lists, monkeypatch):
    bundle = FixtureBundle(2, 2)  # not the cached bundle
    calls = []
    real = excat.all_conflations

    def spy(catalog, members=None, cap=2):
        calls.append((frozenset(members), cap))
        return real(catalog, members=members, cap=cap)

    monkeypatch.setattr(excat, "all_conflations", spy)
    monkeypatch.setattr(cli, "build_example51", lambda p, bound: bundle)
    monkeypatch.setattr("sys.stdout", io.StringIO())
    cli.main(argv)
    wide = [call for call in calls if call[1] > 1]
    assert wide.count((bundle.b_ext.objects.members, 2)) == b_lists
    if not b_lists:
        assert wide == []
