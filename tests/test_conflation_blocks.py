"""Conflation lists by additivity: split and block records against the full scan."""

from collections import Counter
from functools import lru_cache

import pytest

from extriang import homext, quivrep, recol
from extriang.fixtures import build_example51
from extriang.homext import ConflationRecord, _multisets, _spread, _sum_layout, ext1_space
from extriang.quivrep import Catalog, _decompose_by_splits, decompose
from extriang.recol import SIX_NAMES, classify_functor
from oracles import all_conflations_by_scan, block_classes_by_cocycle, class_of, classify_functor_by_scan

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
        # split sequences are the oracle's; a nonsplit one is an equivalent
        # extension on the sorted middle, where the oracle realizes
        assert [r.ses for r in got if r.split] == [r.ses for r in expected if r.split], name
        assert [(r.ses.a, r.ses.c, class_of(r.ses)) for r in got if not r.split] == \
            [(r.ses.a, r.ses.c, class_of(r.ses)) for r in expected if not r.split], name


@pytest.mark.parametrize("p, bound", SETTINGS + [(5, 1)])
def test_lazy_middles_agree_with_the_scan_oracle(p, bound):
    # a list built afresh leaves unread the middle of every nonsplit
    # record but the single-summand and block records': a block record's
    # middle is summed from the single-summand records', with no sequence
    # built; read, each record's JSON is the oracle's, which decomposed
    # every middle when it listed it
    bundle = build_example51(p, bound)
    for name in BUNDLED:
        e = getattr(bundle, name)
        got = homext.all_conflations(e.catalog, None if e.is_full() else e.objects.members, e.cap)
        expected = scanned(p, bound, name)
        # by identity: comparing records reads their middles
        unread = [id(r) for r in got if r._middle is None]
        assert unread == [id(r) for r in got if not r.split and not r.from_blocks
                          and len(r.a_summands) + len(r.c_summands) > 2], name
        assert all(r._ses is None for r in got if r.from_blocks), name
        assert [r.to_json_dict() for r in got] == [r.to_json_dict() for r in expected], name
        assert [r.from_blocks for r in got] == [r.from_blocks for r in expected], name
        assert got == expected, name


@pytest.mark.parametrize("p, bound, name", [(p, bound, "b_ext") for p, bound in SETTINGS + [(5, 1)]]
                         + [(2, 2, "full_a")])
def test_split_middles_are_the_sorted_catalog_sum(p, bound, name):
    # every split record of a fresh list is a >-> b ->> c on the catalog
    # sum of its sorted middle summands, with the zero class, and records
    # with equal middles hold one module: for B_ext at p = 2, bound 2, 70
    # middles for the 225 split records, where summing the ends in their
    # order made 149
    e = getattr(build_example51(p, bound), name)
    recs = homext.all_conflations(e.catalog, None if e.is_full() else e.objects.members, e.cap)
    middles = {}
    for rec in (r for r in recs if r.split):
        ses = rec.ses
        assert ses.b == e.catalog.sum_of(rec.middle_summands), rec
        assert (ses.a, ses.c) == (rec.cls.a, rec.cls.c)
        assert class_of(ses).is_zero() and (ses.prj @ ses.inc).is_zero(), rec
        assert middles.setdefault(rec.middle_summands, ses.b) is ses.b, rec
    if (p, bound, name) == (2, 2, "b_ext"):
        assert (sum(r.split for r in recs), len(middles)) == (225, 70)


@pytest.mark.parametrize("p, bound, name", [(p, bound, name) for p, bound in SETTINGS
                                            for name in ("b_ext", "full_a")])
def test_one_module_per_summand_tuple(p, bound, name):
    # the catalog keeps one module per tuple of entries summed, the entry
    # itself for one index, and a list's ends and split middles are those
    # modules
    e = getattr(build_example51(p, bound), name)
    cat = e.catalog
    assert all(cat.sum_of((i,)) is m for i, m in enumerate(cat.indecs))
    recs = homext.all_conflations(cat, None if e.is_full() else e.objects.members, e.cap)
    for ms in {r.a_summands for r in recs} | {r.middle_summands for r in recs if r.split}:
        assert cat.sum_of(ms) is cat.sum_of(list(ms)) is cat.sum_of(iter(ms)), ms
    for rec in recs:
        assert rec.cls.a is cat.sum_of(rec.a_summands) and rec.cls.c is cat.sum_of(rec.c_summands), rec
        if rec.split:
            assert rec.ses.b is cat.sum_of(rec.middle_summands), rec


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


@pytest.mark.parametrize("p, bound, which", [(p, bound, which) for p, bound in SETTINGS + [(5, 1)]
                                             for which in ("b_ext", "mod_a")] + [(2, 2, "mod_lambda")])
def test_sum_spaces_are_their_blocks_laid_out(p, bound, which):
    # for every pair of nonzero ends, the built Ext^1 of the sums has its
    # Z-free unknowns, coboundary pivots and free coordinates where the
    # layout puts the blocks', lists its classes in the order the list
    # spreads them, and each class's nonzero blocks, solved from its
    # cocycle, are the slices of its coordinates
    bundle = build_example51(p, bound)
    cat = bundle.mod_a if which == "mod_a" else bundle.mod_lambda
    members = sorted(bundle.b_ext.objects.members) if which == "b_ext" else range(len(cat))
    sums = {ms: cat.sum_of(ms) for ms in _multisets(members, 2)[1:]}
    for c_ms, c_mod in sums.items():
        for a_ms, a_mod in sums.items():
            space = ext1_space(c_mod, a_mod)
            blocks = [ext1_space(cat.indecs[i], cat.indecs[j]) for i in c_ms for j in a_ms]
            zfree, places = _sum_layout([cat.indecs[i] for i in c_ms], [cat.indecs[j] for j in a_ms], blocks)

            def placed(attr):
                return sorted(place[t] for place, block in zip(places, blocks) for t in getattr(block, attr))

            free = placed("_free")
            assert (space._zfree, list(space._pivots), space._free) == (zfree, placed("_pivots"), free)
            classes = space.elements()
            assert [cls.coords for cls in classes] == list(_spread(p, free, len(zfree))), (c_ms, a_ms)
            if not any(block.dim for block in blocks):
                continue
            for cls in classes[1:]:
                sliced = [(k // len(a_ms), k % len(a_ms), tuple(cls.coords[t] for t in place))
                          for k, place in enumerate(places)]
                expected = block_classes_by_cocycle(cls, cat, a_ms, c_ms)
                assert [(i, j, sub.coords) for i, j, sub in expected] == [s for s in sliced if any(s[2])]


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
    # building B_ext's list builds no sequence but the realization of the
    # single-summand nonsplit record, whose middle it decomposes, nothing
    # else, and adds up the block records' middles; reading the other
    # middles decomposes those of the classes whose nonzero blocks share a
    # row or a column; the bundle's
    # catalog and members are read first, since building them decomposes
    # mod A's objects for the labels
    catalog, members = bundle.mod_lambda, bundle.b_ext.objects.members
    sequences, decompose_calls, built, split_tests = [], [], [], []
    real_ses, real_decompose = homext.SES, Catalog.decompose
    real_split_test = quivrep.split_off_summand

    def build(c, a):
        built.append((c, a))
        return homext.Ext1Space(c, a)

    def split_test_spy(u, m):
        split_tests.append((u, m))
        return real_split_test(u, m)

    def ses_spy(*terms):
        sequences.append(terms)
        return real_ses(*terms)

    def decompose_spy(catalog, m):
        decompose_calls.append(m)
        return real_decompose(catalog, m)

    monkeypatch.setattr(homext, "SES", ses_spy)
    monkeypatch.setattr(Catalog, "decompose", decompose_spy)
    # Ext spaces and decompositions from empty caches
    monkeypatch.setattr(homext, "ext1_space", lru_cache(maxsize=None)(build))
    monkeypatch.setattr(catalog, "_decompose_memo", {})
    monkeypatch.setattr(quivrep, "split_off_summand", split_test_spy)
    recs = homext.all_conflations(catalog, members, cap=2)
    nonsplit = [r for r in recs if not r.split]
    base = [r for r in nonsplit if len(r.a_summands) == len(r.c_summands) == 1]
    by_blocks = [r for r in nonsplit if r.from_blocks]
    assert (len(recs), len(nonsplit), len(base), len(by_blocks)) == (280, 55, 1, 37)
    assert not any(r.from_blocks for r in base)
    assert len(sequences) == len(decompose_calls) == len(base) == 1
    # only the 16 single-summand pairs build their space: a pair of sums
    # reads its classes off its blocks' spaces; and the decompositions run
    # no split test
    assert len(built) == 16 and split_tests == []
    # the block records' middles are summed from the single-summand
    # record's; every other nonsplit middle is unread
    assert all(r._middle is not None and r._ses is None for r in by_blocks)
    assert all(r._middle is None for r in nonsplit if r is not base[0] and not r.from_blocks)
    middles = [r.middle_summands for r in recs]
    assert len(decompose_calls) == len(nonsplit) - len(by_blocks) == 18 == len(sequences)
    assert middles == [r.middle_summands for r in recs]  # read once, then kept
    assert len(decompose_calls) == 18 and split_tests == []
    # a split sequence is built when it is read, once
    rec = recs[0]
    assert rec.split and rec.ses is rec.ses and len(sequences) == 19
    # a block record's sequence is the sum of its pieces' sequences, which
    # are placed on their sorted middles: two sequences, and no
    # decomposition, since the placement reads the single-summand record's
    # middle off the memo
    rec = by_blocks[0]
    assert rec.ses.b is catalog.sum_of(rec.middle_summands) and len(sequences) == 21
    assert base[0]._ses is not None and len(decompose_calls) == 18 and split_tests == []
    # any other nonsplit sequence is its class's realization carried onto
    # the sorted middle: from a list built afresh, reading it realizes the
    # class and places the realized middle, a pass that decomposes it too
    # and leaves the decomposition in the memo; the class keeps its
    # realization
    fresh = homext.all_conflations(catalog, members, cap=2)
    rec = next(r for r in fresh if not r.split and not r.from_blocks and r._middle is None)
    monkeypatch.setattr(catalog, "_decompose_memo", {})
    monkeypatch.setattr(catalog, "_placements", {})
    decompose_calls.clear()
    sequences.clear()
    assert rec.ses.b is catalog.sum_of(rec.middle_summands)
    assert len(sequences) == 2 and decompose_calls == []
    assert list(catalog._decompose_memo) == [rec.cls.realize().b] and rec.cls.realize().b is not rec.ses.b


def test_classification_grades_only_records_it_cannot_derive(bundle, monkeypatch):
    # per functor of the restricted recollement, the records whose class's
    # realization the grading reads are the nonsplit records with no block
    # reading, in order; no record's sequence is read, so none is placed
    read = []
    real = homext.ExtClass.realize

    def realize_spy(cls):
        if not read or read[-1] is not cls:
            read.append(cls)
        return real(cls)

    def ses_spy(rec):
        raise AssertionError("grading read a record's sequence")

    monkeypatch.setattr(homext.ExtClass, "realize", realize_spy)
    for fd in bundle.restricted.six.values():
        fd.source.conflations  # listing realizes the single-summand classes
    monkeypatch.setattr(ConflationRecord, "ses", property(ses_spy))
    graded = {}
    for name in SIX_NAMES:
        fd = bundle.restricted.six[name]
        read.clear()
        classify_functor.__wrapped__(fd)  # grade afresh, past the cache
        expected = [r.cls for r in fd.source.conflations if not r.split and not r.from_blocks]
        assert [id(c) for c in read] == [id(c) for c in expected], name
        graded[name] = len(read)
    assert graded == {"i_upper_star": 18, "i_lower_star": 0, "i_upper_shriek": 18,
                      "j_lower_shriek": 0, "j_upper_star": 18, "j_lower_star": 0}


def test_classification_tests_each_distinct_image_once(bundle, monkeypatch):
    # the restricted recollement grades 18 records each for i^*, i^! and
    # j^*, with 8, 5 and 3 distinct images: 16 right tests, and 1 + 5 + 3
    # left ones, since i^*'s first image fails the left test (54 and 37 when
    # each record was tested); and grading reads no middle
    tests = {"left": [], "right": []}
    real_left, real_right = recol.is_left_exact_seq, recol.is_right_exact_seq

    def left_spy(f, g, e):
        tests["left"].append((f, g))
        return real_left(f, g, e)

    def right_spy(f, g, e):
        tests["right"].append((f, g))
        return real_right(f, g, e)

    def middle_spy(rec):
        raise AssertionError("grading read a middle")

    monkeypatch.setattr(recol, "is_left_exact_seq", left_spy)
    monkeypatch.setattr(recol, "is_right_exact_seq", right_spy)
    monkeypatch.setattr(recol, "classify_functor", classify_functor.__wrapped__)  # grade afresh
    for fd in bundle.restricted.six.values():
        fd.source.conflations  # listing reads the single-summand middles
    monkeypatch.setattr(ConflationRecord, "middle_summands", property(middle_spy))
    labels = {name: c.label for name, c in recol.classify_all(bundle.restricted).items()}
    assert (len(tests["left"]), len(tests["right"])) == (9, 16)
    assert all(len(set(images)) == len(images) for images in tests.values())
    assert labels == {name: classify_functor(bundle.restricted.six[name]).label for name in SIX_NAMES}
