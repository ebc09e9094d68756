"""Ext^1 computation, realization, class extraction, conflation enumeration."""

import functools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from extriang import homext, quivrep
from extriang.exactfield import Mat
from extriang.fixtures import A2_ALGEBRA, build_example51
from extriang.quivrep import (
    Algebra,
    Arrow,
    Module,
    Morphism,
    _flatten_morphism,
    direct_sum,
    enumerate_indecomposables,
    hom_basis,
    identity_morphism,
    zero_morphism,
)
from extriang.homext import (
    SES,
    ExtClass,
    _exactness,
    _kron_map,
    all_conflations,
    contravariant_block_maps,
    covariant_block_maps,
    ext1_space,
    ext_map_many,
    five_term_contravariant,
    five_term_covariant,
    summand_inclusion,
    summand_projection,
)
from oracles import (
    class_of,
    contravariant_maps,
    contravariant_maps_by_elements,
    covariant_maps,
    covariant_maps_by_elements,
    direct_sum_by_offsets,
    ext_pull,
    ext_push,
    is_isomorphic,
    is_split,
    lift_through_surjection,
    pull_by_cocycle,
    pullback_ses,
    push_by_cocycle,
    pushout_ses,
    reduce_class,
    split_ses,
    summand_inclusion_by_offsets,
    summand_projection_by_offsets,
)


A2 = Algebra(("1", "2"), (Arrow("a", "1", "2"),))
A3 = Algebra(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3")))
D4 = Algebra(("0", "1", "2", "3"),
             (Arrow("a1", "1", "0"), Arrow("a2", "2", "0"), Arrow("a3", "3", "0")))
KRONECKER = Algebra(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2")))
# b.a = c has terms of lengths 2 and 1; the algebra is isomorphic to A3's
MIXED = Algebra(("1", "2", "3"),
                (Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "1", "3")),
                (((1, ("b", "a")), (-1, ("c",))),))
SQUARE = Algebra(("1", "2", "3", "4"),
                 (Arrow("a", "1", "2"), Arrow("b", "2", "4"), Arrow("c", "1", "3"), Arrow("d", "3", "4")),
                 (((1, ("b", "a")), (3, ("d", "c"))),))


def idx_of(catalog, dims):
    return next(i for i, m in enumerate(catalog.indecs) if m.dims == dims)


def test_lift_of_identity_through_nonsplit_deflation_fails(bundle):
    cat = bundle.mod_a
    s1 = cat.indecs[idx_of(cat, (1, 0))]
    s2 = cat.indecs[idx_of(cat, (0, 1))]
    ses = ext1_space(s1, s2).basis()[0].realize()  # S2 >-> P1 ->> S1
    with pytest.raises(ValueError):
        lift_through_surjection(identity_morphism(s1), ses.prj)


def test_equal_modules_share_presentation_and_ext_space(bundle):
    m = bundle.mod_lambda.indecs[-1]
    a = bundle.mod_lambda.indecs[0]
    twin = Module(m.algebra, m.p, m.dims, dict(m.action))
    assert twin is not m and twin == m
    space = ext1_space(m, a)
    hits = ext1_space.cache_info().hits
    assert ext1_space(twin, Module(a.algebra, a.p, a.dims, dict(a.action))) is space
    assert ext1_space.cache_info().hits == hits + 1


def test_ext_dim_anchors(bundle):
    cat = bundle.mod_a
    s1 = cat.indecs[idx_of(cat, (1, 0))]
    s2 = cat.indecs[idx_of(cat, (0, 1))]
    p1 = cat.indecs[idx_of(cat, (1, 1))]
    assert ext1_space(s1, s2).dim == 1
    assert ext1_space(p1, s1).dim == 0
    assert ext1_space(p1, s2).dim == 0
    assert ext1_space(s2, s1).dim == 0


def test_ext_s1_s2_against_brute_force(bundle):
    """Count nonsplit extensions of S1 by S2 by enumerating all sequences.

    Any middle has dimension vector (1,1); for every arrow matrix and every
    injection/surjection pair forming an exact sequence, record whether it
    splits.  Exactly one middle (the indecomposable (1,1) module) admits a
    nonsplit sequence, matching dim Ext = 1 over F_2.
    """
    cat = bundle.mod_a
    s1 = cat.indecs[idx_of(cat, (1, 0))]
    s2 = cat.indecs[idx_of(cat, (0, 1))]
    nonsplit_middles = set()
    for arrow_val in range(2):
        middle = Module(A2_ALGEBRA, 2, (1, 1), {"a": Mat.from_rows(2, [[arrow_val]])})
        for inc_v2 in range(2):
            inc = {"1": Mat.zeros(2, 1, 0), "2": Mat.from_rows(2, [[inc_v2]])}
            for prj_v1 in range(2):
                prj = {"1": Mat.from_rows(2, [[prj_v1]]), "2": Mat.zeros(2, 0, 1)}
                try:
                    from extriang.quivrep import Morphism
                    ses = SES(s2, middle, s1, Morphism(s2, middle, inc),
                              Morphism(middle, s1, prj))
                except ValueError:
                    continue
                if not is_split(ses):
                    nonsplit_middles.add(arrow_val)
    assert nonsplit_middles == {1}


def test_lambda_ext_anchor(bundle, b_indices):
    cat = bundle.mod_lambda
    zero_p1 = cat.indecs[b_indices["0;P1"]]
    p1_zero = cat.indecs[b_indices["P1;0"]]
    space = ext1_space(zero_p1, p1_zero)
    assert space.dim == 1
    nz = [e for e in space.elements() if not e.is_zero()][0]
    ses = nz.realize()
    assert dict(cat.decompose(ses.b)) == {b_indices["P1;P1"]: 1}
    # and the reverse direction vanishes: the head end is projective
    assert ext1_space(p1_zero, zero_p1).dim == 0


def test_lambda_ext_against_brute_force(bundle, b_indices):
    """Independent count of nonsplit sequences [P1;0] >-> ? ->> [0;P1].

    Every candidate middle has dimension vector (1,1,1,1); enumerate all
    relation-satisfying arrow tuples and all injection/surjection pairs
    forming an exact sequence, and count middles carrying a nonsplit one.
    Exactly the identity-connected tuple does, matching dim Ext = 1.
    """
    from extriang.quivrep import Morphism
    cat = bundle.mod_lambda
    alg = bundle.lambda_algebra
    sub = cat.indecs[b_indices["P1;0"]]   # dims (1,1,0,0)
    quot = cat.indecs[b_indices["0;P1"]]  # dims (0,0,1,1)
    import itertools
    nonsplit_middles = set()
    for ax, ay, c1, c2 in itertools.product(range(2), repeat=4):
        if (ax * c1 - c2 * ay) % 2:
            continue
        middle = Module(alg, 2, (1, 1, 1, 1), {
            "ax": Mat.from_rows(2, [[ax]]), "ay": Mat.from_rows(2, [[ay]]),
            "c1": Mat.from_rows(2, [[c1]]), "c2": Mat.from_rows(2, [[c2]]),
        })
        for i1, i2 in itertools.product(range(1, 2), repeat=2):
            inc_comps = {"1x": Mat.from_rows(2, [[i1]]), "2x": Mat.from_rows(2, [[i2]]),
                         "1y": Mat.zeros(2, 1, 0), "2y": Mat.zeros(2, 1, 0)}
            for p1_, p2_ in itertools.product(range(1, 2), repeat=2):
                prj_comps = {"1x": Mat.zeros(2, 0, 1), "2x": Mat.zeros(2, 0, 1),
                             "1y": Mat.from_rows(2, [[p1_]]), "2y": Mat.from_rows(2, [[p2_]])}
                try:
                    ses = SES(sub, middle, quot,
                              Morphism(sub, middle, inc_comps),
                              Morphism(middle, quot, prj_comps))
                except ValueError:
                    continue
                if not is_split(ses):
                    nonsplit_middles.add((ax, ay, c1, c2))
    assert nonsplit_middles == {(1, 1, 1, 1)}


def test_split_iff_zero_class_everywhere(bundle):
    """Two independent routes agree: a retraction exists exactly for the
    zero class, across every class of both bundled algebras."""
    for cat in (bundle.mod_a, bundle.mod_lambda):
        for c in cat.indecs:
            for a in cat.indecs:
                space = ext1_space(c, a)
                for cls in space.elements():
                    assert is_split(space.realize(cls)) == cls.is_zero()


def test_realize_zero_class_splits(bundle):
    cat = bundle.mod_a
    s1 = cat.indecs[idx_of(cat, (1, 0))]
    s2 = cat.indecs[idx_of(cat, (0, 1))]
    ses = ext1_space(s1, s2).zero().realize()
    assert is_split(ses)
    assert dict(cat.decompose(ses.b)) == {idx_of(cat, (1, 0)): 1, idx_of(cat, (0, 1)): 1}


def test_realize_nonzero_class_middle(bundle):
    cat = bundle.mod_a
    s1 = cat.indecs[idx_of(cat, (1, 0))]
    s2 = cat.indecs[idx_of(cat, (0, 1))]
    space = ext1_space(s1, s2)
    nz = [e for e in space.elements() if not e.is_zero()][0]
    ses = nz.realize()
    assert not is_split(ses)
    assert dict(cat.decompose(ses.b)) == {idx_of(cat, (1, 1)): 1}


def test_realize_refuses_a_class_of_another_space(bundle):
    # a class of Ext^1(S1, S2) has the wrong shapes for Ext^1(S1, S1); a
    # class of Ext^1(S1, P1) has the right ones for Ext^1(S1, S1 (+) S2),
    # whose realization would put the wrong module at the front
    cat = bundle.mod_a
    s1, s2, p1 = (cat.indecs[idx_of(cat, dims)] for dims in ((1, 0), (0, 1), (1, 1)))
    nonzero = ext1_space(s1, s2).basis()[0]
    with pytest.raises(ValueError, match="class ends do not match this Ext space"):
        ext1_space(s1, s1).realize(nonzero)
    with pytest.raises(ValueError, match="class ends do not match this Ext space"):
        ext1_space(s1, direct_sum([s1, s2])).realize(ext1_space(s1, p1).zero())
    assert nonzero.realize() == ext1_space(s1, s2).realize(nonzero)


def test_class_of_round_trip_everywhere(bundle):
    """realize then class_of is the identity on every class of both algebras."""
    for cat in (bundle.mod_a, bundle.mod_lambda):
        for c in cat.indecs:
            for a in cat.indecs:
                space = ext1_space(c, a)
                for cls in space.elements():
                    ses = space.realize(cls)
                    assert space.class_of(ses) == cls
                    again = space.class_of(space.realize(space.class_of(ses)))
                    assert again == cls


def test_class_of_split_and_projective_tail(bundle):
    cat = bundle.mod_a
    s1 = cat.indecs[idx_of(cat, (1, 0))]
    s2 = cat.indecs[idx_of(cat, (0, 1))]
    p1 = cat.indecs[idx_of(cat, (1, 1))]
    assert class_of(split_ses(s2, s1)).is_zero()
    # any sequence ending in a projective is split, hence the zero class
    ses = split_ses(s2, p1)
    assert class_of(ses).is_zero()


def test_ses_validation_rejects_non_exact(bundle):
    cat = bundle.mod_a
    s2 = cat.indecs[idx_of(cat, (0, 1))]
    s1 = cat.indecs[idx_of(cat, (1, 0))]
    from extriang.quivrep import zero_morphism
    with pytest.raises(ValueError):
        SES(s2, s2, s1, zero_morphism(s2, s2), zero_morphism(s2, s1))


def test_iso_ends_give_equal_ext_dims(bundle):
    cat = bundle.mod_a
    p1 = cat.indecs[idx_of(cat, (1, 1))]
    other = Module(A2_ALGEBRA, 2, (1, 1), {"a": Mat.from_rows(2, [[1]])})
    assert is_isomorphic(p1, other)
    for m in cat.indecs:
        assert ext1_space(m, p1).dim == ext1_space(m, other).dim
        assert ext1_space(p1, m).dim == ext1_space(other, m).dim


def test_all_conflations_mod_a(bundle):
    cat = bundle.mod_a
    recs = all_conflations(cat, cap=2)
    nonsplit = [r for r in recs if not r.split
                and len(r.a_summands) == 1 and len(r.c_summands) == 1]
    assert len(nonsplit) == 1
    rec = nonsplit[0]
    assert cat.indecs[rec.a_summands[0]].dims == (0, 1)
    assert cat.indecs[rec.c_summands[0]].dims == (1, 0)
    assert [cat.indecs[i].dims for i in rec.middle_summands] == [(1, 1)]
    # all split conflations with single-summand ends are present
    split_pairs = {(r.a_summands, r.c_summands) for r in recs if r.split}
    for i in range(3):
        for j in range(3):
            assert ((i,), (j,)) in split_pairs


def test_b_ext_has_one_nonsplit_indec_conflation(bundle, b_indices):
    # the middle extension-closed subcategory admits exactly one nonsplit
    # conflation with indecomposable ends: [P1;0] >-> [P1;P1]_1 ->> [0;P1].
    # (its mirror cannot exist: [P1;0] is projective, so any surjection
    # onto it splits)
    recs = bundle.b_ext.conflations
    nonsplit = [r for r in recs if not r.split
                and len(r.a_summands) == 1 and len(r.c_summands) == 1]
    assert len(nonsplit) == 1
    rec = nonsplit[0]
    assert rec.a_summands == (b_indices["P1;0"],)
    assert rec.middle_summands == (b_indices["P1;P1"],)
    assert rec.c_summands == (b_indices["0;P1"],)


def test_pullback_pushout_agree_with_cocycle_maps(bundle):
    cat = bundle.mod_a
    s1 = cat.indecs[idx_of(cat, (1, 0))]
    s2 = cat.indecs[idx_of(cat, (0, 1))]
    space = ext1_space(s1, s2)
    cls = [e for e in space.elements() if not e.is_zero()][0]
    ses = space.realize(cls)
    for x in cat.indecs:
        for h in hom_basis(x, s1):
            via_ses = ext1_space(x, s2).class_of(pullback_ses(ses, h))
            via_cocycle = ext_pull(cls, h)
            assert via_ses == via_cocycle
        for g in hom_basis(s2, x):
            via_ses = ext1_space(s1, x).class_of(pushout_ses(ses, g))
            via_cocycle = ext_push(cls, g)
            assert via_ses == via_cocycle


def test_a_realization_looks_its_space_up_once(bundle, monkeypatch):
    # the space realizing a class expands its cocycle and keeps it on the
    # class, and the class keeps its realization
    cat = bundle.mod_a
    space = ext1_space(cat.indecs[idx_of(cat, (1, 0))], cat.indecs[idx_of(cat, (0, 1))])
    lookups = []
    real = homext.ext1_space

    def spy(c, a):
        lookups.append((c, a))
        return real(c, a)

    monkeypatch.setattr(homext, "ext1_space", spy)
    cls = ExtClass(space.c, space.a, space.basis()[0].coords)
    ses = cls.realize()
    assert lookups == [(space.c, space.a)] and cls._cocycle is not None
    assert cls.realize() is ses and cls.cocycle() is cls._cocycle and len(lookups) == 1


def test_five_term_sequences_on_mod_a(bundle):
    cat = bundle.mod_a
    recs = [r for r in bundle.full_a.conflations if not r.split]
    assert recs
    for rec in recs:
        for x in cat.indecs:
            assert all(five_term_covariant(rec.ses, x).values())
            assert all(five_term_contravariant(rec.ses, x).values())


def test_five_term_sequences_need_listed_sequences_and_entries(bundle):
    # the block route reads a sequence's block coordinates and x's catalog
    # index: a bare realization has none, and a sum is no entry
    rec = next(r for r in bundle.full_a.conflations if not r.split)
    bare, x = rec.cls.space.realize(rec.cls), bundle.mod_a.indecs[0]
    assert bare == rec.cls.realize() and bare.blocks is None
    for five_term in (five_term_covariant, five_term_contravariant):
        with pytest.raises(ValueError, match="no block coordinates"):
            five_term(bare, x)
        with pytest.raises(ValueError, match="not an entry"):
            five_term(rec.ses, direct_sum([x, x]))


def test_five_term_sequences_compute_the_class_once(bundle, monkeypatch):
    """The class of a listed sequence is computed once, when the list is
    built: both variances against every x read it off the record's blocks
    and solve no class from a sequence."""
    solved = []
    real = homext.Ext1Space.class_from_cocycle

    def spy(space, phi):
        solved.append(space)
        return real(space, phi)

    monkeypatch.setattr(homext.Ext1Space, "class_from_cocycle", spy)
    monkeypatch.setattr(homext.Ext1Space, "class_of", None)
    for rec in bundle.full_a.conflations:
        for x in bundle.mod_a.indecs:
            five_term_covariant(rec.ses, x)
            five_term_contravariant(rec.ses, x)
    assert solved == []
    rec = next(r for r in bundle.full_a.conflations if not r.split)
    assert {(i, j): list(c) for (i, j), c in rec.ses.blocks.cls.items()} == {(0, 0): [1]}


def _profile(maps):
    """The ranks of the four maps and whether each composite vanishes."""
    return [m.rank() for m in maps] + [(second @ first).is_zero() for first, second in zip(maps, maps[1:])]


def _mats(p, maps):
    """The block maps, each its rows and its column count, as matrices."""
    return [Mat.from_rows(p, rows, cols) for rows, cols in maps]


@pytest.mark.parametrize("p, bound, step", [(2, 2, 1), (3, 1, 1), (5, 1, 15)])
def test_block_maps_agree_with_the_module_route(p, bound, step):
    """The maps assembled from the catalog's tables have the shapes, the
    ranks and the vanishing composites of the module route's, for every
    conflation of B_ext and of full mod A against every entry (every
    fifteenth pair at p = 5).  The bases differ, the block route's being
    summand by summand, so the matrices themselves need not agree."""
    bundle = build_example51(p, bound)
    pairs = [(rec, x) for e, cat in ((bundle.b_ext, bundle.mod_lambda), (bundle.full_a, bundle.mod_a))
             for rec in e.conflations for x in cat.indecs][::step]
    for rec, x in pairs:
        for blocks, modules in ((covariant_block_maps, covariant_maps),
                                (contravariant_block_maps, contravariant_maps)):
            got, expected = _mats(p, blocks(rec.ses, x)), modules(rec.ses, x)
            assert [m.shape for m in got] == [m.shape for m in expected], (rec, x)
            assert _profile(got) == _profile(expected), (rec, x)
    assert len(pairs) == {2: 3_080 + 426, 3: 4_411 + 738, 5: 992}[p]


@pytest.mark.parametrize("name", ["b_ext", "full_a", "full_b"])
def test_listed_sequences_are_catalog_sums_with_the_records_class(bundle, name):
    # every record's sequence has the catalog's sum of its sorted middle
    # summands as its middle and the record's class; its block data name
    # the terms' summands
    e = getattr(bundle, name)
    for rec in e.conflations:
        ses = rec.ses
        assert ses.b is e.catalog.sum_of(rec.middle_summands), rec
        assert ses.a is rec.cls.a and ses.c is rec.cls.c, rec
        assert class_of(ses) == rec.cls, rec
        assert (ses.blocks.a, ses.blocks.b, ses.blocks.c) == (rec.a_summands, rec.middle_summands, rec.c_summands)


@pytest.mark.parametrize("kind", ["_composes", "_pushes", "_pulls"])
def test_a_corrupted_table_flips_a_flag(bundle, kind, monkeypatch):
    # the flags are computed from the tables: zeroing one nonzero entry of
    # a table the five-term pass reads breaks the exactness of some sequence
    cat, objects = bundle.mod_lambda, bundle.mod_lambda.indecs
    sequences = [rec.ses for rec in bundle.b_ext.conflations]

    def flags():
        return [(five_term_covariant(ses, x), five_term_contravariant(ses, x))
                for ses in sequences for x in objects]

    # from an empty table, so it holds only what the pass reads
    monkeypatch.setattr(cat, kind, {})
    exact = flags()
    assert all(all(cov.values()) and all(con.values()) for cov, con in exact)
    tables = getattr(cat, kind)
    key = next(key for key, table in sorted(tables.items()) if np.any(table))
    broken = np.array(tables[key])
    broken.reshape(-1)[np.flatnonzero(broken)[0]] = 0
    monkeypatch.setitem(tables, key, quivrep._tuples(broken))
    assert flags() != exact


@pytest.mark.parametrize("p, bound", [(2, 2), (3, 1)])
def test_five_term_maps_agree_with_the_element_oracle(p, bound, monkeypatch):
    """The two oracles agree: the module route's block products give the
    matrices the element-by-element route gives, for every conflation of
    mod A against every object, every fifth conflation of B_ext against
    every object of mod Lambda, and every other B_ext x mod Lambda pair
    where some map starts at a zero space and so is built without a
    product.  The oracle's Hom bases are solved once per pair of modules.
    test_block_maps_agree_with_the_module_route checks homext's block maps
    against the module route."""
    monkeypatch.setattr(oracles, "hom_basis", functools.lru_cache(maxsize=None)(hom_basis))
    bundle = build_example51(p, bound)
    pairs = [(rec, x) for rec in bundle.full_a.conflations for x in bundle.mod_a.indecs]
    shortcuts = 0
    for k, rec in enumerate(bundle.b_ext.conflations):
        for x in bundle.mod_lambda.indecs:
            cov, con = covariant_maps(rec.ses, x), contravariant_maps(rec.ses, x)
            if k % 5 and all(m.cols for m in cov + con):
                continue
            shortcuts += any(not m.cols for m in cov + con)
            assert cov == covariant_maps_by_elements(rec.ses, x), rec
            assert con == contravariant_maps_by_elements(rec.ses, x), rec
    for rec, x in pairs:
        assert covariant_maps(rec.ses, x) == covariant_maps_by_elements(rec.ses, x), rec
        assert contravariant_maps(rec.ses, x) == contravariant_maps_by_elements(rec.ses, x), rec
    assert any(m.rows and m.cols for rec, x in pairs for m in covariant_maps(rec.ses, x)[2:])
    assert shortcuts > 0.9 * len(bundle.b_ext.conflations) * len(bundle.mod_lambda.indecs)


def test_maps_out_of_a_zero_space_skip_the_kronecker_route(bundle, monkeypatch):
    """One five-term round of the module route (the oracle) over B_ext x
    mod Lambda builds a Kronecker map only for each map whose source is
    nonzero: 10,318 where every map used to build one (24,640).  The
    class of every conflation is still read by both variances against
    every object."""
    recs, objects = bundle.b_ext.conflations, bundle.mod_lambda.indecs
    # Ext spaces built inside the loop would count their relation systems,
    # so every one the loop reads is built first
    for rec in recs:
        ses = rec.ses
        ext1_space(ses.c, ses.a)
        for x in objects:
            for c, a in ((x, ses.a), (x, ses.b), (x, ses.c), (ses.a, x), (ses.b, x), (ses.c, x)):
                ext1_space(c, a)
    kron_maps, reads = [], []
    real_kron_map, real_class_of = oracles._kron_map, oracles.class_of

    def kron_map_spy(*args):
        kron_maps.append(args)
        return real_kron_map(*args)

    def class_of_spy(ses):
        reads.append(ses)
        return real_class_of(ses)

    # the Hom maps are the oracle's, the pushes and pulls homext's
    monkeypatch.setattr(oracles, "_kron_map", kron_map_spy)
    monkeypatch.setattr(homext, "_kron_map", kron_map_spy)
    monkeypatch.setattr(oracles, "class_of", class_of_spy)
    dim_hom = functools.lru_cache(maxsize=None)(quivrep.dim_hom)
    nonzero_sources = 0
    for rec in recs:
        ses = rec.ses
        for x in objects:
            covariant_maps(ses, x)
            contravariant_maps(ses, x)
            # the sources of m1..m4, covariant then contravariant
            sources = (dim_hom(x, ses.a), dim_hom(x, ses.b), dim_hom(x, ses.c), ext1_space(x, ses.a).dim,
                       dim_hom(ses.c, x), dim_hom(ses.b, x), dim_hom(ses.a, x), ext1_space(ses.c, x).dim)
            nonzero_sources += sum(map(bool, sources))
    assert len(kron_maps) == nonzero_sources == 10_318
    expected_reads = [rec.ses for rec in recs for _ in range(2 * len(objects))]
    assert len(reads) == len(expected_reads)
    assert all(read is ses for read, ses in zip(reads, expected_reads))


def test_ext_spaces_carry_their_hom_bases(bundle):
    """Hom(c, a) read off the coboundary elimination is hom_basis(c, a)."""
    ends = [bundle.mod_lambda.sum_of(ms) for ms in ([], [0], [3, 5], [5, 5])]
    for mods in (bundle.mod_a.indecs, bundle.mod_lambda.indecs, ends):
        for c in mods:
            for a in mods:
                space, basis = ext1_space(c, a), hom_basis(c, a)
                assert space.hom.cols == len(basis)
                for k, f in enumerate(basis):
                    assert np.array_equal(space.hom.a[:, k], _flatten_morphism(f))


def test_five_term_at_a_large_prime():
    """At p = 2**31 - 1 a listed sequence is placed and its block maps have
    the module route's ranks and vanishing composites; a contraction whose
    inner sum could wrap int64 is made in Python integers."""
    p = 2**31 - 1
    entries = (Module(A2, p, (1, 0), {}), Module(A2, p, (0, 1), {}),
               Module(A2, p, (1, 1), {"a": Mat.from_rows(p, [[1]])}))
    catalog = quivrep.Catalog(A2, p, 1, entries)
    space = ext1_space(entries[0], entries[1])
    cls = reduce_class(space, [p - 3])
    rec = homext.ConflationRecord(cls, (1,), (0,), catalog)
    assert rec.ses.b is catalog.sum_of(rec.middle_summands) == entries[2]
    assert class_of(rec.ses) == cls
    for x in entries:
        for blocks, modules in ((covariant_block_maps, covariant_maps),
                                (contravariant_block_maps, contravariant_maps)):
            assert _profile(_mats(p, blocks(rec.ses, x))) == _profile(modules(rec.ses, x))
        assert all(five_term_covariant(rec.ses, x).values()) and all(five_term_contravariant(rec.ses, x).values())
    # three left factors of p - 1 against a table of p - 1: 3 (p - 1)**2
    # would wrap int64, and reduces to 3
    assert homext._after(p, (((p - 1,),),) * 3, (p - 1,) * 3) == [[3]]


def test_exactness_asks_image_equal_to_kernel():
    # a map is its rows and its column count
    p = 3
    one, zero = ([[1]], 1), ([[0]], 1)
    # 0 -> F -> F -> 0 is exact at both middle terms; F -0-> F -0-> F is not
    assert _exactness(p, [([[]], 0), one, ([], 1)]) == [True, True]
    assert _exactness(p, [zero, zero]) == [False]
    assert _exactness(p, [one, one]) == [False]
    with pytest.raises(ValueError, match="dimension mismatch"):
        _exactness(p, [one, ([[0, 0]], 2)])


def test_hom_coordinates_refuse_maps_outside_hom(bundle):
    cat = bundle.mod_a
    s2, p1 = cat.indecs[idx_of(cat, (0, 1))], cat.indecs[idx_of(cat, (1, 1))]
    space = ext1_space(s2, p1)  # the inclusion
    assert space.hom_coords(space.hom) == Mat.identity(2, 1)
    space = ext1_space(p1, s2)  # zero: the unit map at vertex 2 does not commute
    assert space.hom.shape == (1, 0)
    with pytest.raises(ValueError, match="not in span"):
        space.hom_coords(Mat.identity(2, 1))


def test_five_term_pair_on_warm_spaces_builds_nothing(bundle, monkeypatch):
    # once a pair's tables and spaces are built, repeating it solves no Hom
    # basis, builds no Ext^1 space and adds no table
    cat = bundle.mod_lambda
    rec = next(r for r in bundle.b_ext.conflations if not r.split and len(r.c_summands) == 2)
    x = cat.indecs[-1]
    expected = five_term_covariant(rec.ses, x), five_term_contravariant(rec.ses, x)
    calls = []

    def spy(m, n):
        calls.append((m, n))
        return hom_basis(m, n)

    monkeypatch.setattr(quivrep, "hom_basis", spy)
    monkeypatch.setattr(homext, "hom_basis", spy, raising=False)
    misses = ext1_space.cache_info().misses
    sizes = [len(t) for t in (cat._homs, cat._composes, cat._pushes, cat._pulls)]
    assert (five_term_covariant(rec.ses, x), five_term_contravariant(rec.ses, x)) == expected
    assert calls == []
    assert ext1_space.cache_info().misses == misses
    assert [len(t) for t in (cat._homs, cat._composes, cat._pushes, cat._pulls)] == sizes


def test_a_warm_five_term_pass_builds_no_matrix(bundle, monkeypatch):
    # once the pass has built its tables, a second pass over B_ext x mod
    # Lambda assembles, composes and ranks every map on rows of Python
    # integers: it builds no Mat, checked or wrapped
    cat = bundle.mod_lambda
    sequences = [rec.ses for rec in bundle.b_ext.conflations]

    def run():
        return [(five_term_covariant(ses, x), five_term_contravariant(ses, x))
                for ses in sequences for x in cat.indecs]

    flags = run()
    assert all(all(cov.values()) and all(con.values()) for cov, con in flags)
    built = []
    real_init, real_wrap = Mat.__init__, Mat._wrap

    def init(self, *args):
        built.append(args)
        real_init(self, *args)

    def wrap(*args):
        built.append(args)
        return real_wrap(*args)

    monkeypatch.setattr(Mat, "__init__", init)
    monkeypatch.setattr(Mat, "_wrap", staticmethod(wrap))
    assert run() == flags
    assert built == []
    Mat.identity(2, 1).rank()
    assert len(built) == 2  # the spies see a Mat built and a wrapped rref


def test_five_term_pass_over_b_ext_builds_each_middle_space_once(bundle, monkeypatch):
    # from empty Ext^1 caches and tables, after B_ext's sequences are read,
    # both five-term sequences of every conflation against every
    # indecomposable of mod Lambda build Ext^1 spaces between catalog
    # entries only, each once, and solve no class: the terms are catalog
    # sums, read block by block (building Ext^1 of the terms' modules
    # built 2,503, and summing the ends in their order 3,911)
    cat = bundle.mod_lambda
    sequences = [rec.ses for rec in bundle.b_ext.conflations]
    built = []

    def build(c, a):
        built.append((c, a))
        return homext.Ext1Space(c, a)

    monkeypatch.setattr(homext, "ext1_space", lru_cache(maxsize=None)(build))
    monkeypatch.setattr(homext.Ext1Space, "class_of", None)
    for name in ("_composes", "_pushes", "_pulls", "_ext1_dims"):
        monkeypatch.setattr(cat, name, {})
    for ses in sequences:
        for x in cat.indecs:
            five_term_covariant(ses, x)
            five_term_contravariant(ses, x)
    assert len(built) == len(set(built)) == 72
    assert all(c in cat.indecs and a in cat.indecs for c, a in built)


def test_five_term_pass_reads_each_ext1_dimension_once(bundle, monkeypatch):
    # the block maps read Ext^1 dimensions of entry pairs off the catalog,
    # where each ordered pair's is kept beside the push and pull tables:
    # from empty tables the pass looks a space up once per pair and twice
    # per table it fills (looking every dimension up gave 29,360 lookups
    # in a traced five-term round), and a second pass looks up none
    cat = bundle.mod_lambda
    sequences = [rec.ses for rec in bundle.b_ext.conflations]
    calls = []

    def spy(c, a):
        calls.append((c, a))
        return ext1_space(c, a)

    monkeypatch.setattr(homext, "ext1_space", spy)
    for name in ("_composes", "_pushes", "_pulls", "_ext1_dims"):
        monkeypatch.setattr(cat, name, {})

    def run():
        for ses in sequences:
            for x in cat.indecs:
                five_term_covariant(ses, x)
                five_term_contravariant(ses, x)

    run()
    filled = sum(np.size(table) > 0 for table in [*cat._pushes.values(), *cat._pulls.values()])
    assert (len(cat._ext1_dims), filled, len(calls)) == (72, 14, 72 + 2 * 14)
    calls.clear()
    run()
    assert calls == []


def test_first_map_iso_iff_third_term_zero(bundle):
    """inc is an isomorphism exactly when the quotient vanishes, and dually."""
    for rec in bundle.b_ext.conflations:
        ses = rec.ses
        assert ses.inc.is_isomorphism() == ses.c.is_zero()
        assert ses.prj.is_isomorphism() == ses.a.is_zero()


@pytest.mark.parametrize("algebra", [A2, A3, D4, KRONECKER], ids=["A2", "A3", "D4", "Kronecker"])
@pytest.mark.parametrize("p, bound", [(2, 2), (3, 1)])
def test_euler_form_on_hereditary_algebras(algebra, p, bound):
    """Ringel's formula, which uses no Ext computation: over a path algebra
    without relations, dim Hom(m, n) - dim Ext^1(m, n) is the Euler form
    sum_v m_v n_v - sum_x m_src(x) n_tgt(x)."""
    catalog = enumerate_indecomposables(algebra, bound, p)
    for m in catalog.indecs:
        for n in catalog.indecs:
            euler = (sum(m.dim(v) * n.dim(v) for v in algebra.vertices)
                     - sum(m.dim(x.src) * n.dim(x.tgt) for x in algebra.arrows))
            assert len(hom_basis(m, n)) - ext1_space(m, n).dim == euler


@pytest.mark.parametrize("p, bound", [(2, 2), (3, 1)])
def test_relations_of_mixed_length(p, bound):
    """c = b.a makes the arrow c redundant, so the algebra is A3 in disguise:
    its indecomposables have A3's dimension vectors and Ext^1 agrees pair by
    pair; every class of the mixed algebra survives realize and class_of."""
    mixed = enumerate_indecomposables(MIXED, bound, p)
    linear = {m.dims: m for m in enumerate_indecomposables(A3, bound, p).indecs}
    assert sorted(m.dims for m in mixed.indecs) == sorted(linear)
    total = 0
    for c in mixed.indecs:
        for a in mixed.indecs:
            space = ext1_space(c, a)
            assert space.dim == ext1_space(linear[c.dims], linear[a.dims]).dim
            total += space.dim
            for cls in space.elements():
                assert space.class_of(space.realize(cls)) == cls
    assert len(mixed) == 6 and total == 5


def test_ext_round_trip_at_a_large_prime():
    """At p = 2**31 - 1 the relation b.a + 3 d.c has products near
    (p-1)**2; Module(check=True) checks the realized relations exactly."""
    p = 2**31 - 1
    s1 = Module(SQUARE, p, (1, 0, 0, 0), {})
    a = Module(SQUARE, p, (0, 1, 1, 1), {"b": Mat.from_rows(p, [[p - 1]]), "d": Mat.from_rows(p, [[p - 2]])})
    space = ext1_space(s1, a)
    assert space.dim == 1
    for basis_cls in space.basis():
        cls = reduce_class(space, [(p - 2) * t for t in basis_cls.coords])
        assert not cls.is_zero()
        ses = space.realize(cls)
        assert space.class_of(ses) == cls


def test_batched_pushes_and_pulls_at_a_large_prime():
    """At p = 2**31 - 1, pushes, pulls and both at once of several classes,
    with large unreduced Z coordinates and maps with large entries, give
    the classes the one-class route and the cocycle oracle give."""
    p = 2**31 - 1
    rng = np.random.default_rng(7)
    s1 = Module(SQUARE, p, (1, 0, 0, 0), {})
    a = Module(SQUARE, p, (0, 1, 1, 1), {"b": Mat.from_rows(p, [[p - 1]]), "d": Mat.from_rows(p, [[p - 2]])})
    aa, ss = direct_sum([a, a]), direct_sum([s1, s1])

    def combination(basis):
        out = basis[0].scale(p - 2)
        for f in basis[1:]:
            out = out + f.scale(int(rng.integers(1, p)))
        return out

    g, h = combination(hom_basis(a, aa)), combination(hom_basis(ss, s1))
    space = ext1_space(s1, a)
    assert space.dim == 1 and ext1_space(s1, aa).dim == 2 and ext1_space(ss, a).dim == 2
    coords = rng.integers(0, p, size=(len(space.zero().coords), 4), dtype=np.int64)
    coords[:, 0] = 0
    for side, one, oracle, f, target in (("g", ext_push, push_by_cocycle, g, ext1_space(s1, aa)),
                                         ("h", ext_pull, pull_by_cocycle, h, ext1_space(ss, a))):
        images = ext_map_many(space, coords, target, **{side: f})
        assert images.shape == (len(target.zero().coords), coords.shape[1])
        assert not images[:, 0].any() and images[:, 1:].any()
        for k in range(coords.shape[1]):
            cls = reduce_class(space, coords[:, k])
            assert one(cls, f) == oracle(cls, f, target) == ExtClass(target.c, target.a, tuple(images[:, k]))
    target = ext1_space(ss, aa)
    images = ext_map_many(space, coords, target, g=g, h=h)
    assert not images[:, 0].any() and images[:, 1:].any()
    for k in range(coords.shape[1]):
        cls = reduce_class(space, coords[:, k])
        expected = push_by_cocycle(pull_by_cocycle(cls, h, ext1_space(ss, a)), g, target)
        assert ExtClass(ss, aa, tuple(images[:, k])) == expected


@pytest.mark.parametrize("left_shape, right_shape", [
    ((0, 0), (0, 0)), ((0, 2), (3, 1)), ((2, 0), (1, 3)), ((2, 3), (0, 2)),
    ((1, 1), (1, 1)), ((2, 3), (3, 2)), ((3, 1), (2, 4)),
])
@pytest.mark.parametrize("p", [2, 2**31 - 1])
def test_kron_by_broadcasting_matches_np_kron(left_shape, right_shape, p):
    """X -> left X right.T is kron(left, right), each copy reduced before
    it is added: three copies of (p-1)**2 would overflow int64 otherwise."""
    rng = np.random.default_rng(sum(left_shape) * 10 + sum(right_shape))
    left = rng.integers(0, p, size=left_shape, dtype=np.int64)
    right = rng.integers(0, p, size=right_shape, dtype=np.int64)
    left.flat[:1] = right.flat[:1] = p - 1
    (r1, c1), (r2, c2) = left_shape, right_shape
    assert _kron_map(p, r1 * r2, c1 * c2, [(0, 0, left, right.T)]) == Mat(p, np.kron(left, right))
    thrice = _kron_map(p, r1 * r2, c1 * c2, [(0, 0, left, right.T)] * 3)
    assert thrice == Mat(p, 3 * (np.kron(left, right) % p))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("relations", [(), (((1, ("c", "b", "a")),),)], ids=["free", "cba"])
def test_a_relation_through_a_path_of_three_arrows(relations, p):
    """Linear A4, 1 -> 2 -> 3 -> 4 by a, b, c.  The corner of c.b.a has the
    term c phi_b a, a factor on each side; c.b.a = 0 kills exactly the
    extensions whose middle is the whole interval M1234."""
    a4 = Algebra(("1", "2", "3", "4"), (Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "3", "4")),
                 relations)

    def interval(lo, hi):
        inside = [x.name for x in a4.arrows if lo <= int(x.src) and int(x.tgt) <= hi]
        return Module(a4, p, tuple(int(lo <= v <= hi) for v in range(1, 5)),
                      {name: Mat.from_rows(p, [[1]]) for name in inside})

    whole = int(not relations)
    for (c, a), dim in {((1, 2), (3, 4)): whole, ((1, 1), (2, 4)): whole, ((1, 3), (4, 4)): whole,
                        ((1, 1), (2, 2)): 1}.items():
        assert ext1_space(interval(*c), interval(*a)).dim == dim, (c, a)


def test_non_cocycles_are_refused():
    """Blocks violating b.a + 3 d.c are no cocycle, alone or in a batch."""
    p = 5
    s1 = Module(SQUARE, p, (1, 0, 0, 0), {})
    a = Module(SQUARE, p, (0, 1, 1, 1), {"b": Mat.from_rows(p, [[p - 1]]), "d": Mat.from_rows(p, [[p - 2]])})
    space = ext1_space(s1, a)
    bad = {"a": Mat.from_rows(p, [[1]]), "b": Mat.zeros(p, 1, 0), "c": Mat.from_rows(p, [[0]]),
           "d": Mat.zeros(p, 1, 0)}
    with pytest.raises(ValueError, match="not a cocycle"):
        space.class_from_cocycle(bad)
    good = space.cocycles(np.ones((len(space.zero().coords), 1), dtype=np.int64))
    assert space.reduce_cocycles(good).shape == (len(space.zero().coords), 1)
    with pytest.raises(ValueError, match="not a cocycle"):
        space.reduce_cocycles(Mat(p, np.hstack([good.a, np.array([[1], [0]])])))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_summand_layout_agrees_with_running_offsets(data):
    # mod A and mod Lambda over F_2 and F_3; entries may repeat
    p, bound = data.draw(st.sampled_from([(2, 2), (3, 1)]))
    bundle = build_example51(p, bound)
    catalog = data.draw(st.sampled_from([bundle.mod_a, bundle.mod_lambda]))
    ks = data.draw(st.lists(st.integers(0, len(catalog) - 1), min_size=1, max_size=3))
    mods = [catalog.indecs[k] for k in ks]
    total = direct_sum(mods)
    assert total == direct_sum_by_offsets(mods)
    incs = [summand_inclusion(mods, k, total) for k in range(len(mods))]
    prjs = [summand_projection(mods, k, total) for k in range(len(mods))]
    for k, (inc, prj) in enumerate(zip(incs, prjs)):
        assert inc == summand_inclusion_by_offsets(mods, k, total)
        assert prj == summand_projection_by_offsets(mods, k, total)
        # both are module maps: the checked constructor accepts them
        assert Morphism(inc.source, inc.target, inc.comps) == inc
        assert Morphism(prj.source, prj.target, prj.comps) == prj
        for j, other in enumerate(prjs):
            expected = identity_morphism(mods[k]) if j == k else zero_morphism(mods[k], mods[j])
            assert other @ inc == expected
    composites = [inc @ prj for inc, prj in zip(incs, prjs)]
    assert functools.reduce(lambda f, g: f + g, composites) == identity_morphism(total)


@lru_cache(maxsize=None)
def _ext_pairs(p, bound, which):
    """The catalog and its pairs (i, j) of entries with Ext^1(i, j) nonzero."""
    catalog = getattr(build_example51(p, bound), which)
    n = len(catalog)
    return catalog, [(i, j) for i in range(n) for j in range(n)
                     if ext1_space(catalog.indecs[i], catalog.indecs[j]).dim]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_ext_is_a_bifunctor(data):
    # Ext^1(h, g) on classes of Ext^1(c, a) is the push along g after the
    # pull along h and the pull after the push, and the cocycle oracle's
    # g_tgt phi h_src; an identity map acts as a missing one.  c and x
    # hold the entry i, a and a2 the entry j, with Ext^1(i, j) nonzero, and
    # h and g are the identity between those summands plus a drawn
    # combination of a Hom basis, so most images are nonzero
    p, bound = data.draw(st.sampled_from([(2, 2), (3, 1)]))
    catalog, pairs = _ext_pairs(p, bound, data.draw(st.sampled_from(["mod_a", "mod_lambda"])))
    entries = st.integers(0, len(catalog) - 1)
    i, j = data.draw(st.sampled_from(pairs))

    def around(k):
        ms = data.draw(st.permutations([k, *data.draw(st.lists(entries, max_size=1))]))
        return ms, catalog.sum_of(ms)

    def through(k, src_ms, src, tgt_ms, tgt):
        out = (summand_inclusion([catalog.indecs[t] for t in tgt_ms], tgt_ms.index(k), tgt)
               @ summand_projection([catalog.indecs[t] for t in src_ms], src_ms.index(k), src))
        for f in hom_basis(src, tgt):
            out = out + f.scale(data.draw(st.integers(0, p - 1)))
        return out

    (c_ms, c), (a_ms, a), (x_ms, x), (a2_ms, a2) = around(i), around(j), around(i), around(j)
    g, h = through(j, a_ms, a, a2_ms, a2), through(i, x_ms, x, c_ms, c)
    space, target = ext1_space(c, a), ext1_space(x, a2)
    size = len(space.zero().coords)
    drawn = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=size, max_size=size), max_size=2))
    coords = np.hstack([space.basis_coords(), np.array(drawn, dtype=np.int64).reshape(-1, size).T])
    both = ext_map_many(space, coords, target, g=g, h=h)
    pushed = ext_map_many(space, coords, ext1_space(c, a2), g=g)
    pulled = ext_map_many(space, coords, ext1_space(x, a), h=h)
    assert (both == ext_map_many(ext1_space(c, a2), pushed, target, h=h)).all()
    assert (both == ext_map_many(ext1_space(x, a), pulled, target, g=g)).all()
    for k in range(coords.shape[1]):
        cls = reduce_class(space, coords[:, k])
        expected = push_by_cocycle(pull_by_cocycle(cls, h, ext1_space(x, a)), g, target)
        assert ExtClass(x, a2, tuple(both[:, k])) == expected
    ones = [ext_map_many(space, coords, space, g=identity_morphism(a), h=identity_morphism(c)),
            ext_map_many(space, coords, space, g=identity_morphism(a)),
            ext_map_many(space, coords, space, h=identity_morphism(c))]
    assert all((one == space.reduce_many(coords)).all() for one in ones)
