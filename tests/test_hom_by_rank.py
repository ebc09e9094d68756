"""Hom dimensions, factoring ideals and full faithfulness read off ranks.

`dim_hom` and `span_rank` answer the dimension-only Hom questions of
`excat.quotient` and `recol.check_recollement`; these tests hold them to
the bases and coordinates they replace.
"""

import dataclasses
import itertools

import pytest

from extriang import excat, quivrep
from extriang.excat import Subcat, quotient
from extriang.fixtures import FixtureBundle, build_example51
from extriang.quivrep import Algebra, Module, dim_hom, hom_basis, zero_morphism
from extriang.recol import check_recollement
from oracles import quotient_by_identity_test

SHAPES = [(2, 2), (3, 1)]
CANDIDATE = "[P1;P1]_1,[0;P1]_0,[S2;0]_0"


def r1_pairs(r):
    """Every (source, target) pair whose Hom dimensions R1_hom_dimensions compares."""
    six = {name: fd.obj_map for name, fd in r.six.items()}
    i_up, i_low, i_shk = six["i_upper_star"], six["i_lower_star"], six["i_upper_shriek"]
    j_shk, j_up, j_low = six["j_lower_shriek"], six["j_upper_star"], six["j_lower_star"]
    for b in r.b_cat.indec_indices():
        m = r.b_cat.catalog.indecs[b]
        for a in r.a_cat.indec_indices():
            x = r.a_cat.catalog.indecs[a]
            yield from [(i_up[b], x), (m, i_low[a]), (i_low[a], m), (x, i_shk[b])]
        for c in r.c_cat.indec_indices():
            z = r.c_cat.catalog.indecs[c]
            yield from [(j_shk[c], m), (z, j_up[b]), (m, j_low[c]), (j_up[b], z)]


@pytest.mark.parametrize("p, bound", SHAPES)
def test_dim_hom_is_the_basis_length(p, bound):
    bundle = build_example51(p, bound)
    for cat in (bundle.mod_a, bundle.mod_lambda):
        for m, n in itertools.product(cat.indecs, repeat=2):
            assert dim_hom(m, n) == len(hom_basis(m, n))
    for r in (bundle.restricted, bundle.full):
        for m, n in r1_pairs(r):
            assert dim_hom(m, n) == len(hom_basis(m, n))


def test_dim_hom_of_disjoint_supports_and_across_algebras(bundle):
    s1, s2 = (bundle.mod_a.indecs[bundle.a_names[name]] for name in ("S1", "S2"))
    assert dim_hom(s1, s2) == 0 == len(hom_basis(s1, s2))
    point = Module(Algebra(("1",), ()), bundle.mod_a.p, (1,), {})
    for other in (point, build_example51(3, 1).mod_a.indecs[0]):
        with pytest.raises(ValueError, match="different algebras"):
            dim_hom(s1, other)


def member_subsets(e, most=None):
    members = e.indec_indices()
    for k in range(len(members) + 1 if most is None else most + 1):
        yield from (Subcat.add(e.catalog, t) for t in itertools.combinations(members, k))


@pytest.mark.parametrize("p, bound", SHAPES)
def test_quotient_agrees_with_the_identity_test(p, bound):
    bundle = build_example51(p, bound)
    cases = [(e, t) for e in (bundle.full_a, bundle.a_ext, bundle.b_ext) for t in member_subsets(e)]
    cases += [(bundle.full_b, t) for t in member_subsets(bundle.full_b, most=2)]
    kept = set()
    for e, t in cases:
        q = quotient(e, t)
        assert (q.qhom, q.qindecs) == quotient_by_identity_test(e, t), sorted(t.members)
        kept.add(len(q.qindecs))
    # the cases include kills that keep some objects and lose others
    assert 0 in kept and len(kept) > 2


def count_hom_basis_calls(monkeypatch, run):
    calls = []
    real = quivrep.hom_basis

    def spy(m, n):
        calls.append((m, n))
        return real(m, n)

    monkeypatch.setattr(quivrep, "hom_basis", spy)
    monkeypatch.setattr(excat, "hom_basis", spy)
    run()
    monkeypatch.undo()
    return len(calls)


def test_hom_basis_calls_of_the_rank_questions(monkeypatch):
    bundle = FixtureBundle(2, 2)  # not the cached bundle
    r, b_ext = bundle.full, bundle.b_ext
    candidate = bundle.parse_subcat(CANDIDATE, bundle.mod_lambda)
    # the catalogs solve their own Hom bases on first use; solve them all
    # first, so only the calls the questions make themselves are counted
    for cat in (bundle.mod_a, bundle.mod_lambda):
        for i, j in itertools.product(range(len(cat)), repeat=2):
            cat.hom(i, j)
    # R1 and R3 are ranks (300 calls when they built bases); the 6 left
    # are the decompositions of R2, which try the largest entries first
    # (9 when they tried the smallest first)
    assert count_hom_basis_calls(monkeypatch, lambda: check_recollement(r)) == 6
    # Hom(i, T) and Hom(T, j) of catalog members are the catalog's bases (48
    # calls when they were solved again, 92 when End(i) was tested)
    assert count_hom_basis_calls(monkeypatch, lambda: quotient(b_ext, candidate)) == 0


def test_full_faithfulness_failures_are_named(bundle):
    r = bundle.restricted
    fd = r.six["i_lower_star"]

    def zero_mor(phi):
        image = fd.apply_mor(phi)
        return zero_morphism(image.source, image.target)

    a, b = sorted(fd.obj_map)  # the two members of A_ext
    zero = dataclasses.replace(fd, apply_mor=zero_mor)
    swapped = dataclasses.replace(fd, obj_map={a: fd.obj_map[b], b: fd.obj_map[a]})
    for corrupt, reason in ((zero, "not bijective"), (swapped, "dimension")):
        report = check_recollement(dataclasses.replace(r, six={**r.six, "i_lower_star": corrupt}))
        r3 = next(c for c in report.clauses if c.clause == "R3_fully_faithful")
        assert not r3.ok and {(f[0], f[3]) for f in r3.detail["failures"]} == {("i_lower_star", reason)}
