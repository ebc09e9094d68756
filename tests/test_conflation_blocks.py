"""Conflation lists by additivity: split and block records against the full scan."""

from collections import Counter
from functools import lru_cache

import pytest

from extriang import homext, quivrep
from extriang.excat import ExCat
from extriang.fixtures import build_example51
from extriang.homext import ConflationRecord, _multisets, ext1_space
from extriang.quivrep import Catalog, _decompose_by_splits, decompose
from extriang.recol import SIX_NAMES, classify_functor
from oracles import all_conflations_by_scan, classify_functor_by_scan

BUNDLED = ("a_ext", "b_ext", "c_ext", "full_a", "full_b", "full_c")
SETTINGS = [(2, 2), (3, 1)]


@lru_cache(maxsize=None)
def scanned(p, bound, name):
    """The oracle's conflation list of one bundled category."""
    e = getattr(build_example51(p, bound), name)
    return all_conflations_by_scan(e.catalog, None if e.is_full() else e.objects.members, e.cap)


def scanned_for(bundle, e):
    name = next(n for n in BUNDLED if getattr(bundle, n) is e)
    return scanned(bundle.p, bundle.bound, name)


@pytest.mark.parametrize("p, bound", SETTINGS)
def test_conflations_agree_with_the_scan_oracle(p, bound):
    bundle = build_example51(p, bound)
    for name in BUNDLED:
        got, expected = getattr(bundle, name).conflations, scanned(p, bound, name)
        # equality ignores whether a sequence is built yet: most are not
        assert got == expected, name
        assert [r.to_json_dict() for r in got] == [r.to_json_dict() for r in expected], name
        assert [r.from_blocks for r in got] == [r.from_blocks for r in expected], name
        assert [r.ses for r in got] == [r.ses for r in expected], name


@pytest.mark.parametrize("p, bound", SETTINGS)
def test_pair_spaces_are_the_sums_of_their_blocks(p, bound):
    # dim Ext^1 and dim Z of every pair of ends are the sums over the
    # blocks Ext^1(c_i, a_j), so a pair whose blocks all vanish has only
    # the zero class, with as many coordinates as its built space
    bundle = build_example51(p, bound)
    for name in BUNDLED:
        e = getattr(bundle, name)
        cat = e.catalog
        ends = _multisets(sorted(e.objects.members) if not e.is_full() else range(len(cat)), e.cap)
        for c_ms in ends:
            for a_ms in ends:
                space = ext1_space(cat.sum_of(c_ms), cat.sum_of(a_ms))
                blocks = [ext1_space(cat.indecs[i], cat.indecs[j]) for i in c_ms for j in a_ms]
                assert space.dim == sum(b.dim for b in blocks), (name, c_ms, a_ms)
                assert len(space.zero().coords) == sum(len(b.zero().coords) for b in blocks), (name, c_ms, a_ms)


@pytest.mark.parametrize("p, bound, step", [(2, 2, 1), (3, 1, 3)])
def test_decomposed_middles_agree_with_the_split_loop(p, bound, step):
    # every middle a list decomposes (every third at p = 3), by rank and
    # by the split loop, against the record's middle
    bundle = build_example51(p, bound)
    for name in BUNDLED:
        e = getattr(bundle, name)
        decomposed = [r for r in e.conflations if not r.split and not r.from_blocks]
        for rec in decomposed[::step]:
            expected = Counter(rec.middle_summands)
            assert decompose(rec.ses.b, e.catalog) == _decompose_by_splits(rec.ses.b, e.catalog) == expected, name


@pytest.mark.parametrize("p, bound", SETTINGS)
@pytest.mark.parametrize("which", ["restricted", "full"])
def test_classifications_agree_with_the_scan_oracle(p, bound, which):
    bundle = build_example51(p, bound)
    r = getattr(bundle, which)
    for name in SIX_NAMES:
        fd = r.six[name]
        expected = classify_functor_by_scan(fd, scanned_for(bundle, fd.source))
        got = classify_functor(fd)
        assert got == expected, name
        assert got.to_json_dict() == expected.to_json_dict(), name


def test_b_ext_list_decomposes_only_what_blocks_do_not_give(bundle, monkeypatch):
    # building B_ext's list builds no split sequence, and decomposes the
    # middles of the single-summand nonsplit records and of the classes
    # whose nonzero blocks share a row or a column, nothing else; the
    # bundle's catalog and members are read first, since building them
    # decomposes mod A's objects for the labels
    catalog, members = bundle.mod_lambda, bundle.b_ext.objects.members
    split_calls, decompose_calls, built, split_tests = [], [], [], []
    real_split, real_decompose = homext.split_ses, Catalog.decompose
    real_split_test = quivrep.split_off_summand

    def build(c, a):
        built.append((c, a))
        return homext.Ext1Space(c, a)

    def split_test_spy(u, m):
        split_tests.append((u, m))
        return real_split_test(u, m)

    def split_spy(a, c):
        split_calls.append((a, c))
        return real_split(a, c)

    def decompose_spy(catalog, m):
        decompose_calls.append(m)
        return real_decompose(catalog, m)

    monkeypatch.setattr(homext, "split_ses", split_spy)
    monkeypatch.setattr(Catalog, "decompose", decompose_spy)
    # Ext spaces and decompositions from empty caches
    monkeypatch.setattr(homext, "ext1_space", lru_cache(maxsize=None)(build))
    monkeypatch.setattr(catalog, "_decompose_memo", {})
    monkeypatch.setattr(quivrep, "split_off_summand", split_test_spy)
    e = ExCat(catalog, members, cap=2)
    recs = e.conflations
    nonsplit = [r for r in recs if not r.split]
    base = [r for r in nonsplit if len(r.a_summands) == len(r.c_summands) == 1]
    by_blocks = [r for r in nonsplit if r.from_blocks]
    assert (len(recs), len(nonsplit), len(base), len(by_blocks)) == (280, 55, 1, 37)
    assert not any(r.from_blocks for r in base)
    assert split_calls == []
    assert len(decompose_calls) == len(nonsplit) - len(by_blocks) == 18
    # of the 225 pairs of ends, only those with a nonzero block build their
    # space, and the decompositions run no split test
    assert len(built) == 40 and split_tests == []
    # a split sequence is built when it is read, once
    rec = recs[0]
    assert rec.split and rec.ses is rec.ses and len(split_calls) == 1


def test_classification_grades_only_records_it_cannot_derive(bundle, monkeypatch):
    # per functor of the restricted recollement, the records whose sequence
    # the grading reads are the nonsplit records with no block reading, in order
    read = []
    real = ConflationRecord.ses

    def ses_spy(rec):
        if not read or read[-1] is not rec:
            read.append(rec)
        return real.fget(rec)

    monkeypatch.setattr(ConflationRecord, "ses", property(ses_spy))
    graded = {}
    for name in SIX_NAMES:
        fd = bundle.restricted.six[name]
        read.clear()
        classify_functor.__wrapped__(fd)  # grade afresh, past the cache
        expected = [r for r in fd.source.conflations if not r.split and not r.from_blocks]
        assert [id(r) for r in read] == [id(r) for r in expected], name
        graded[name] = len(read)
    assert graded == {"i_upper_star": 18, "i_lower_star": 0, "i_upper_shriek": 18,
                      "j_lower_shriek": 0, "j_upper_star": 18, "j_lower_star": 0}
