"""Ext^1 computation, realization, class extraction, conflation enumeration."""

import pytest

from extriang.exactfield import Mat
from extriang.quivrep import Algebra, Arrow, Module, hom_basis, identity_morphism
from extriang.homext import (
    SES,
    all_conflations,
    class_of,
    ext1_space,
    five_term_contravariant,
    five_term_covariant,
    is_split,
    lift_through_surjection,
    presentation,
    projective_module,
    projective_cover,
    pullback_ses,
    pushout_ses,
    split_ses,
    ext_pull,
    ext_push,
)
from oracles import is_isomorphic


def idx_of(catalog, dims):
    return next(i for i, m in enumerate(catalog.indecs) if m.dims == dims)


def test_projectives_of_a2(bundle):
    p1 = projective_module(bundle.a_algebra, 2, "1")
    p2 = projective_module(bundle.a_algebra, 2, "2")
    assert p1.module.dims_by_vertex == {"1": 1, "2": 1}
    assert p2.module.dims_by_vertex == {"1": 0, "2": 1}


def test_projectives_of_lambda(bundle):
    # P at the y-source vertex is the projective-injective (1,1,1,1) module
    pd = projective_module(bundle.lambda_algebra, 2, "1y")
    assert sum(pd.module.dims) == 4
    assert all(d == 1 for d in pd.module.dims)


def test_projective_cover_surjective(bundle):
    for m in bundle.mod_lambda.indecs:
        cover = projective_cover(m)
        assert cover.is_surjective()


def test_projective_cover_past_the_int64_guard():
    # at p = 2**31 - 1 the path products of a (1, 3, 3) module over 1 -> 2 -> 3
    # have inner dimension 3, past the int64 guard of a single product;
    # Python ints check that the cover commutes with the arrows
    p = 2**31 - 1
    alg = Algebra(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3")))
    a = Mat.from_rows(p, [[p - 1], [p - 2], [p - 3]])
    b = Mat.from_rows(p, [[p - 1, p - 2, p - 1], [p - 3, p - 1, p - 2], [p - 2, p - 2, p - 1]])
    m = Module(alg, p, (1, 3, 3), {"a": a, "b": b})
    cover = projective_cover(m)
    assert cover.is_surjective()
    assert cover.source.dims == (1, 3, 3)

    def exact(x, y):
        return (x.a.astype(object) @ y.a.astype(object)) % p

    for arrow in alg.arrows:
        lhs = exact(cover.comps[arrow.tgt], cover.source.action[arrow.name])
        rhs = exact(m.action[arrow.name], cover.comps[arrow.src])
        assert (lhs == rhs).all()


def test_lift_through_projective_cover(bundle):
    for c in bundle.mod_lambda.indecs:
        cover = projective_cover(c)
        for phi in hom_basis(cover.source, c):
            lam = lift_through_surjection(phi, cover)
            assert lam.source == cover.source and lam.target == cover.source
            assert cover @ lam == phi


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
    assert presentation(twin) is presentation(m)
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
        middle = Module(bundle.a_algebra, 2, (1, 1), {"a": Mat.from_rows(2, [[arrow_val]])})
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
    other = Module(bundle.a_algebra, 2, (1, 1), {"a": Mat.from_rows(2, [[1]])})
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


def test_five_term_sequences_on_mod_a(bundle):
    cat = bundle.mod_a
    s1 = cat.indecs[idx_of(cat, (1, 0))]
    s2 = cat.indecs[idx_of(cat, (0, 1))]
    space = ext1_space(s1, s2)
    ses = [e for e in space.elements() if not e.is_zero()][0].realize()
    for x in cat.indecs:
        assert all(five_term_covariant(ses, x).values())
        assert all(five_term_contravariant(ses, x).values())


def test_five_term_sequences_compute_the_class_once(bundle):
    """Both variances against every x share one class_of computation."""
    cat = bundle.mod_a
    space = ext1_space(cat.indecs[idx_of(cat, (1, 0))], cat.indecs[idx_of(cat, (0, 1))])
    cls = [e for e in space.elements() if not e.is_zero()][0]
    ses, twin = cls.realize(), cls.realize()
    assert twin is not ses and twin == ses and hash(twin) == hash(ses)
    class_of.cache_clear()
    before = class_of.cache_info()
    for x in cat.indecs:
        five_term_covariant(ses, x)
        five_term_contravariant(ses, x)
    after = class_of.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 2 * len(cat.indecs) - 1
    assert class_of(twin) == cls
    assert class_of.cache_info().misses == after.misses


def test_first_map_iso_iff_third_term_zero(bundle):
    """inc is an isomorphism exactly when the quotient vanishes, and dually."""
    for rec in bundle.b_ext.conflations:
        ses = rec.ses
        assert ses.inc.is_isomorphism() == ses.c.is_zero()
        assert ses.prj.is_isomorphism() == ses.a.is_zero()
