"""Triangular doubling, six functors, recollement axioms, gluing, restriction."""

import dataclasses
import itertools

import pytest

from extriang.exactfield import Mat
from extriang.quivrep import (
    Algebra,
    Arrow,
    Morphism,
    cokernel,
    enumerate_indecomposables,
    hom_basis,
    identity_morphism,
    zero_module,
    zero_morphism,
)
from extriang.excat import ExCat, Subcat, enumerate_torsion_pairs, verify_torsion_pair
from extriang.fixtures import build_example51
from extriang.recol import (
    NotRestrictedFunctorError,
    RecollementData,
    build_triangular,
    check_recollement,
    classify_all,
    classify_functor,
    glue_torsion_pairs,
    quotient_recollement,
    restrict_torsion_pair,
    six_functors,
)
from oracles import (
    glue_by_formulas,
    is_isomorphic,
    quotient_recollement_by_formulas,
    restrict_by_formulas,
)

A3_LINEAR = Algebra(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3")))


def lam(bundle, name):
    return bundle.lambda_names[name]


def test_build_triangular_shape(bundle):
    tri = bundle.triangular
    assert len(tri.algebra.vertices) == 4
    assert len(tri.algebra.arrows) == 4  # ax, ay, c1, c2
    assert len(tri.algebra.relations) == 1  # one commutativity square


def test_adapter_round_trip(bundle):
    tri = bundle.triangular
    for m in bundle.mod_lambda.indecs:
        assert tri.glue(tri.x_part(m), tri.y_part(m), tri.connecting_morphism(m).comps) == m


def test_glue_refuses_a_map_that_is_not_y_to_x(bundle):
    tri = bundle.triangular
    p1 = bundle.mod_a.indecs[bundle.a_names["P1"]]
    s2 = bundle.mod_a.indecs[bundle.a_names["S2"]]
    # the identity of P1 has a 1x1 component at vertex 1, where a map
    # P1 -> S2 needs a 0x1 one
    with pytest.raises(ValueError):
        tri.glue(s2, p1, identity_morphism(p1).comps)
    # these shapes fit P1 -> P1, but the square at the arrow breaks
    with pytest.raises(ValueError):
        tri.glue(p1, p1, {"1": Mat.zeros(2, 1, 1), "2": Mat.identity(2, 1)})


def test_recollement_over_linear_a3():
    """The layer formulas off the A2 path: T_2(A3) over F_2 at bound 1."""
    tri = build_triangular(A3_LINEAR)
    mod_a = enumerate_indecomposables(A3_LINEAR, 1, 2)
    mod_b = enumerate_indecomposables(tri.algebra, 1, 2)
    assert (len(mod_a), len(mod_b)) == (6, 27)
    outer = ExCat(mod_a, cap=1)
    # six_functors checks every functor's functoriality on the way
    report = check_recollement(six_functors(outer, ExCat(mod_b, cap=1), outer, tri))
    assert [c.clause for c in report.clauses if not c.ok] == []
    assert len(report.clauses) == 9


def test_adapter_embeds_layers(bundle):
    tri = bundle.triangular
    p1 = bundle.mod_a.indecs[bundle.a_names["P1"]]
    first = tri.i_lower_star_obj(p1)
    assert tri.x_part(first) == p1 and tri.y_part(first).is_zero()
    j_shk = tri.j_lower_shriek_obj(p1)
    assert tri.connecting_morphism(j_shk).is_isomorphism()


def test_functor_formula_anchors(bundle):
    tri = bundle.triangular
    cat = bundle.mod_lambda
    p1 = bundle.mod_a.indecs[bundle.a_names["P1"]]
    s2 = bundle.mod_a.indecs[bundle.a_names["S2"]]

    # i^! extracts the first layer
    m = cat.indecs[lam(bundle, "[P1;S2]_f")]
    assert is_isomorphic(tri.x_part(m), p1)
    # j_! doubles with identity connecting map
    assert cat.decompose(tri.j_lower_shriek_obj(s2)) == {lam(bundle, "[S2;S2]_1"): 1}
    # i* kills modules whose connecting map is onto
    assert tri.i_upper_star_obj(cat.indecs[lam(bundle, "[P1;P1]_1")]).is_zero()


def test_six_functor_tables_cover_catalogs(bundle):
    for name, fd in bundle.restricted.six.items():
        assert set(fd.obj_map) == set(fd.source.indec_indices())
        fd.check_functoriality()


@pytest.mark.parametrize("which", ["restricted", "full"])
def test_functoriality_applies_each_functor_once_per_map(bundle, which):
    for fd in getattr(bundle, which).six.values():
        cat, members = fd.source.catalog, fd.source.indec_indices()
        calls = []

        def spy(phi, apply_mor=fd.apply_mor):
            calls.append(phi)
            return apply_mor(phi)

        dataclasses.replace(fd, apply_mor=spy).check_functoriality()
        basis = sum(cat.dim_hom(i, j) for i in members for j in members)
        composites = sum(cat.dim_hom(i, j) * cat.dim_hom(j, k) for i in members for j in members for k in members)
        # one call per identity, per basis map and per composite of two basis maps
        assert len(calls) == len(members) + basis + composites, fd.name


def test_functoriality_check_catches_a_broken_composite():
    # doubling every map but the identities keeps F(id) = id and breaks
    # F(psi phi) = F(psi) F(phi) over F_3, where 2 != 4, wherever a composite
    # of two basis maps of mod Lambda survives j^*
    fd = build_example51(3, 1).full.six["j_upper_star"]

    def doubled(phi):
        image = fd.apply_mor(phi)
        return image if phi == identity_morphism(phi.source) else image.scale(2)

    with pytest.raises(AssertionError, match="breaks composition"):
        dataclasses.replace(fd, apply_mor=doubled).check_functoriality()


def test_restricted_functor_image_guard(bundle):
    # j_! out of all of mod A would need [S1;S1]_1, which is not a member
    with pytest.raises(NotRestrictedFunctorError):
        six_functors(bundle.full_a, bundle.b_ext, bundle.full_c, bundle.triangular)


def test_check_recollement_passes(bundle):
    small = build_example51(3, 1)
    for r in (bundle.restricted, bundle.full, small.restricted, small.full):
        report = check_recollement(r)
        assert report.ok, report.to_json_dict()


def test_r4_fourth_term_is_the_cokernel_of_vartheta(bundle):
    # R4 reads its fourth term as coker(vartheta): the map coker(theta) ->
    # i_* i^* m that vartheta induces has the image of vartheta
    small = build_example51(3, 1)
    for r in (bundle.restricted, bundle.full, small.restricted, small.full):
        catalog = r.b_cat.catalog
        for m in (catalog.indecs[b] for b in r.b_cat.indec_indices()):
            theta, vartheta = r.triangular.theta_of(m), r.triangular.vartheta_of(m)
            cok, _, sect = cokernel(theta)
            induced = Morphism(cok, vartheta.target,
                               {v: vartheta.comps[v] @ sect[v] for v in vartheta.comps})
            assert catalog.decompose(cokernel(induced)[0]) == catalog.decompose(cokernel(vartheta)[0])


def test_corrupted_recollement_is_caught(bundle):
    r = bundle.restricted
    six = dict(r.six)
    swapped_star = dataclasses.replace(
        six["j_lower_star"],
        obj_map=six["j_lower_shriek"].obj_map,
    )
    swapped_shriek = dataclasses.replace(
        six["j_lower_shriek"],
        obj_map=six["j_lower_star"].obj_map,
    )
    six["j_lower_star"] = swapped_star
    six["j_lower_shriek"] = swapped_shriek
    corrupted = RecollementData(
        a_cat=r.a_cat, b_cat=r.b_cat, c_cat=r.c_cat,
        six=six, triangular=r.triangular,
    )
    report = check_recollement(corrupted)
    assert not report.ok
    failing = {c.clause for c in report.clauses if not c.ok}
    assert failing & {"R1_hom_dimensions", "R2_image_equals_kernel", "vanishing_compositions"}
    witnessed = next(c for c in report.clauses if not c.ok)
    assert witnessed.detail  # a named witness comes along
    # each Hom-dimension failure is (adjunction, left object, right object)
    dims = report.clause("R1_hom_dimensions").detail["failures"]
    assert {f[0] for f in dims} == {"j_! -| j^*", "j^* -| j_*"} and all(len(f) == 3 for f in dims)


@pytest.mark.parametrize("which", ["restricted", "full"])
def test_outer_functors_zero_on_maps_break_r1(bundle, which):
    # i* and j^* are applied to maps only inside the triangle identities
    # and the naturality squares, so a table whose maps are all zero must
    # fail both, named by adjunction and object
    r = getattr(bundle, which)
    members = r.b_cat.indec_indices()
    for name, pairs, transformations in (
        ("i_upper_star", ("(i*,i_*)",), {"nu", "epsilon"}),
        ("j_upper_star", ("(j_!,j^*)", "(j^*,j_*)"), {"id", "upsilon", "vartheta"}),
    ):
        fd = r.six[name]

        def zero_mor(phi, fd=fd):
            image = fd.apply_mor(phi)
            return zero_morphism(image.source, image.target)

        corrupt = dataclasses.replace(fd, apply_mor=zero_mor)
        report = check_recollement(dataclasses.replace(r, six={**r.six, name: corrupt}))
        symbol = "i*" if name == "i_upper_star" else "j^*"
        nonzero = [b for b in members if not fd.obj_map[b].is_zero()]
        triangle = report.clause("R1_triangle_identities")
        assert not triangle.ok
        assert triangle.detail["failures"] == [f"{pair} id on {symbol} at {b}" for pair in pairs for b in nonzero]
        naturality = report.clause("R1_naturality")
        assert not naturality.ok
        assert {f[0] for f in naturality.detail["failures"]} <= transformations
        assert report.clause("R1_hom_dimensions").ok


@pytest.mark.parametrize("which", ["restricted", "full"])
def test_functors_zero_on_objects_fail_r1_with_witnesses(bundle, which):
    # a table whose apply_obj sends every object to 0 leaves its maps' ends
    # where they were, so each triangle identity at an object with a nonzero
    # value has no composite: a failure named by adjunction and object, not
    # a composition error
    r = getattr(bundle, which)
    for name, symbol, pairs, laws in (
        ("i_upper_star", "i*", ("(i*,i_*)",), ("i* i_* ~ Id",)),
        ("j_upper_star", "j^*", ("(j_!,j^*)", "(j^*,j_*)"), ("j^* j_! ~ Id", "j^* j_* ~ Id")),
        ("i_lower_star", "i_*", ("(i*,i_*)", "(i_*,i^!)"), ()),
    ):
        fd = r.six[name]
        zero = zero_module(fd.target.catalog.algebra, fd.target.catalog.p)
        corrupt = dataclasses.replace(fd, apply_obj=lambda m, zero=zero: zero)
        report = check_recollement(dataclasses.replace(r, six={**r.six, name: corrupt}))
        nonzero = [x for x in fd.source.indec_indices() if not fd.obj_map[x].is_zero()]
        triangle = report.clause("R1_triangle_identities")
        assert not triangle.ok
        assert triangle.detail["failures"] == [f"{pair} id on {symbol} at {x}" for pair in pairs for x in nonzero]
        # the consequences apply i* and j^* through the table too, and no
        # value of theirs vanishes on a nonzero outer object
        isos = report.clause("natural_isomorphisms")
        side = r.a_cat if name == "i_upper_star" else r.c_cat
        assert isos.ok == (not laws)
        assert not laws or isos.detail["failures"] == [
            (law, x) for x in side.indec_indices() for law in laws]
        for clause in ("R1_hom_dimensions", "R1_naturality", "vanishing_compositions"):
            assert report.clause(clause).ok, clause


def test_vanishing_composites_apply_the_table(bundle):
    # i^! reading the Y layer instead of the X layer keeps j_* c = [0;c]
    # whole, so i^! j_* no longer vanishes, and i^! i_* a = 0
    r = bundle.restricted
    fd = r.six["i_upper_shriek"]
    corrupt = dataclasses.replace(fd, apply_obj=r.triangular.y_part)
    report = check_recollement(dataclasses.replace(r, six={**r.six, "i_upper_shriek": corrupt}))
    assert report.clause("vanishing_compositions").detail["failures"] == [
        ("i^! j_*", c) for c in r.c_cat.indec_indices()]
    assert report.clause("natural_isomorphisms").detail["failures"] == [
        ("i^! i_* ~ Id", a) for a in r.a_cat.indec_indices()]


@pytest.mark.parametrize("which", ["restricted", "full"])
def test_tabulated_classes_agree_with_the_formula_oracle(which):
    """Glue, restrict and the forced quotient recollement read functor
    classes off the tables; the oracle decomposes every formula value."""
    small = build_example51(3, 1)
    r = getattr(small, which)
    for tp1 in enumerate_torsion_pairs(r.a_cat):
        for tp2 in enumerate_torsion_pairs(r.c_cat):
            assert glue_torsion_pairs(r, tp1, tp2).to_json_dict() == glue_by_formulas(r, tp1, tp2).to_json_dict()
    for tp in enumerate_torsion_pairs(r.b_cat):
        assert restrict_torsion_pair(r, tp).to_json_dict() == restrict_by_formulas(r, tp).to_json_dict()
    members = r.b_cat.indec_indices()
    for t in [*itertools.combinations(members, 1), *itertools.combinations(members, 2)]:
        sub = Subcat.add(r.b_cat.catalog, t)
        assert quotient_recollement(r, sub, require_cluster_tilting=False).to_json_dict() == \
            quotient_recollement_by_formulas(r, sub).to_json_dict(), t


def test_classification_restricted(bundle, b_indices):
    cls = classify_all(bundle.restricted)
    assert cls["i_lower_star"].label == "exact"
    assert cls["j_upper_star"].label == "exact"
    assert cls["i_upper_shriek"].label == "exact"
    assert cls["j_lower_star"].label == "exact"
    assert cls["j_lower_shriek"].label == "exact"
    assert cls["i_upper_star"].label == "right_exact"
    witness = cls["i_upper_star"].left_witness
    assert witness.a_summands == (b_indices["P1;0"],)
    assert witness.middle_summands == (b_indices["P1;P1"],)
    assert witness.c_summands == (b_indices["0;P1"],)


def test_classification_witness_image_is_p1_0_0(bundle, b_indices):
    tri = bundle.triangular
    cls = classify_functor(bundle.restricted.six["i_upper_star"])
    ses = cls.left_witness.ses
    images = [tri.i_upper_star_obj(ses.a), tri.i_upper_star_obj(ses.b), tri.i_upper_star_obj(ses.c)]
    p1 = bundle.mod_a.indecs[bundle.a_names["P1"]]
    assert is_isomorphic(images[0], p1)
    assert images[1].is_zero() and images[2].is_zero()


def test_classification_full(bundle):
    cls = classify_all(bundle.full)
    assert cls["i_lower_star"].label == "exact"
    assert cls["j_upper_star"].label == "exact"
    assert cls["i_upper_star"].label == "right_exact"
    # layer extraction and the two right adjoints are exact on module categories
    for name in ("i_upper_shriek", "j_lower_shriek", "j_lower_star"):
        assert cls[name].label == "exact"


def test_glue_example(bundle, b_indices):
    r = bundle.restricted
    acat = bundle.mod_a
    p1, s2 = bundle.a_names["P1"], bundle.a_names["S2"]
    tp1 = verify_torsion_pair(Subcat.add(acat, [p1]), Subcat.add(acat, [s2]), r.a_cat).pair
    tp2 = verify_torsion_pair(Subcat.add(acat, [p1]), Subcat.zero(acat), r.c_cat).pair
    g = glue_torsion_pairs(r, tp1, tp2)
    assert g.t.members == {b_indices["P1;0"], b_indices["P1;P1"], b_indices["0;P1"]}
    assert g.f.members == {b_indices["S2;0"]}
    assert g.verdict.ok
    assert g.i_upper_shriek_exact and not g.i_upper_star_exact
    assert g.recovery["equals_inputs"]
    assert g.recovery["i_upper_star_T"] == [p1]
    assert g.recovery["i_upper_shriek_F"] == [s2]
    assert g.recovery["j_upper_star_T"] == [p1]
    assert g.recovery["j_upper_star_F"] == []


def test_glue_trivial(bundle):
    r = bundle.restricted
    acat = bundle.mod_a
    all_a = Subcat.add(acat, [bundle.a_names["P1"], bundle.a_names["S2"]])
    all_c = Subcat.add(acat, [bundle.a_names["P1"]])
    tp1 = verify_torsion_pair(Subcat.zero(acat), all_a, r.a_cat).pair
    tp2 = verify_torsion_pair(Subcat.zero(acat), all_c, r.c_cat).pair
    g = glue_torsion_pairs(r, tp1, tp2)
    assert g.t.members == frozenset()
    assert g.f.members == frozenset(bundle.b_ext.indec_indices())
    assert g.verdict.ok


def test_glued_pair_appears_in_enumeration(bundle, b_indices):
    pairs = enumerate_torsion_pairs(bundle.b_ext)
    keyed = {(frozenset(p.t.members), frozenset(p.f.members)) for p in pairs}
    glued = (frozenset({b_indices["P1;0"], b_indices["P1;P1"], b_indices["0;P1"]}),
             frozenset({b_indices["S2;0"]}))
    assert glued in keyed


def test_restrict_example(bundle, b_indices):
    r = bundle.restricted
    cat = bundle.mod_lambda
    tp = verify_torsion_pair(
        Subcat.add(cat, [b_indices["P1;0"]]),
        Subcat.add(cat, [b_indices["0;P1"], b_indices["S2;0"]]),
        r.b_cat,
    ).pair
    res = restrict_torsion_pair(r, tp)
    assert res.a_pair[0].members == {bundle.a_names["P1"]}
    assert res.a_pair[1].members == {bundle.a_names["S2"]}
    assert res.c_pair[0].members == frozenset()
    assert res.c_pair[1].members == {bundle.a_names["P1"]}
    assert res.a_verdict.ok and res.c_verdict.ok
    assert all(res.hypotheses.values())


def test_restrict_trivial(bundle):
    r = bundle.restricted
    cat = bundle.mod_lambda
    every = Subcat.add(cat, bundle.b_ext.indec_indices())
    tp = verify_torsion_pair(Subcat.zero(cat), every, r.b_cat).pair
    res = restrict_torsion_pair(r, tp)
    assert res.a_pair[0].members == frozenset()
    assert res.c_pair[0].members == frozenset()
    assert res.a_verdict.ok and res.c_verdict.ok


def test_restrict_hypothesis_probe(bundle, b_indices):
    """A torsion pair violating one closure hypothesis, found by scanning.

    No enumerated pair of the middle category violates i_* i* T <= T, so
    the probe targets i_* i^! T <= T: the pair with torsion class
    add([P1;P1]_1 + [0;P1]) sends [P1;P1]_1 to i_* i^! = [P1;0], which is
    outside.  Verdicts are still computed and remain verifiable.
    """
    r = bundle.restricted
    tri = bundle.triangular
    cat = bundle.mod_lambda
    pairs = enumerate_torsion_pairs(bundle.b_ext)

    def closure_ok(tp, transform):
        return all(
            tp.t.contains_module(transform(cat.indecs[b]))
            for b in tp.t.sorted_members()
        )

    i_star_violations = [
        tp for tp in pairs
        if not closure_ok(tp, lambda m: tri.i_lower_star_obj(tri.i_upper_star_obj(m)))
    ]
    assert i_star_violations == []  # documented scan result

    probe = next(
        tp for tp in pairs
        if tp.t.members == {b_indices["P1;P1"], b_indices["0;P1"]}
    )
    res = restrict_torsion_pair(r, probe)
    assert not res.hypotheses["i_lower_star_i_upper_shriek_T_in_T"]
    assert res.hypotheses["i_lower_star_i_upper_star_T_in_T"]
    assert res.a_verdict.ok and res.c_verdict.ok
    assert res.a_pair[0].members == frozenset()  # i*T = 0
    assert res.a_pair[1].members == {bundle.a_names["P1"], bundle.a_names["S2"]}


def test_adjunction_dim_identities(bundle):
    tri = bundle.triangular
    r = bundle.restricted
    for a in r.a_cat.indec_indices():
        x = bundle.mod_a.indecs[a]
        for b in r.b_cat.indec_indices():
            m = bundle.mod_lambda.indecs[b]
            assert len(hom_basis(tri.i_upper_star_obj(m), x)) == \
                len(hom_basis(m, tri.i_lower_star_obj(x)))
            assert len(hom_basis(tri.i_lower_star_obj(x), m)) == \
                len(hom_basis(x, tri.x_part(m)))
    for c in r.c_cat.indec_indices():
        z = bundle.mod_a.indecs[c]
        for b in r.b_cat.indec_indices():
            m = bundle.mod_lambda.indecs[b]
            assert len(hom_basis(tri.j_lower_shriek_obj(z), m)) == \
                len(hom_basis(z, tri.y_part(m)))
            assert len(hom_basis(m, tri.j_lower_star_obj(z))) == \
                len(hom_basis(tri.y_part(m), z))


def test_projective_injective_preservation(bundle, b_indices):
    """Outer functors respect projectivity/injectivity on the fixtures.

    i* and j^* preserve projectives (j_* and i^! are exact here), i^! and
    j^* preserve injectives, j_! sends projectives to projectives and j_*
    injectives to injectives, and i_* preserves projectives because i^! is
    exact.  All checked objectwise over both recollements.
    """
    from oracles import is_injective_object, is_projective_object

    for r in (bundle.restricted, bundle.full):
        tri = r.triangular
        bcat = r.b_cat.catalog
        acat = r.a_cat.catalog
        proj_b = [b for b in r.b_cat.indec_indices() if is_projective_object(b, r.b_cat)]
        inj_b = [b for b in r.b_cat.indec_indices() if is_injective_object(b, r.b_cat)]
        proj_a = {a for a in r.a_cat.indec_indices() if is_projective_object(a, r.a_cat)}
        inj_a = {a for a in r.a_cat.indec_indices() if is_injective_object(a, r.a_cat)}
        proj_c = {c for c in r.c_cat.indec_indices() if is_projective_object(c, r.c_cat)}
        inj_c = {c for c in r.c_cat.indec_indices() if is_injective_object(c, r.c_cat)}

        def classes_of(value, catalog):
            return set() if value.is_zero() else set(catalog.decompose(value))

        for b in proj_b:
            assert classes_of(tri.i_upper_star_obj(bcat.indecs[b]), acat) <= proj_a
            assert classes_of(tri.y_part(bcat.indecs[b]), acat) <= proj_c
        for b in inj_b:
            assert classes_of(tri.x_part(bcat.indecs[b]), acat) <= inj_a
            assert classes_of(tri.y_part(bcat.indecs[b]), acat) <= inj_c
        for c in proj_c:
            assert classes_of(tri.j_lower_shriek_obj(acat.indecs[c]), bcat) <= set(proj_b)
        for c in inj_c:
            assert classes_of(tri.j_lower_star_obj(acat.indecs[c]), bcat) <= set(inj_b)
        # i^! is exact on both fixtures, so i_* preserves projectives
        for a in proj_a:
            assert classes_of(tri.i_lower_star_obj(acat.indecs[a]), bcat) <= set(proj_b)

    # the restricted middle category sees these nontrivially
    assert not is_projective_object(b_indices["0;P1"], bundle.b_ext)
    assert not is_injective_object(b_indices["P1;0"], bundle.b_ext)


def test_unit_counit_conflations(bundle, b_indices):
    """theta/vartheta always assemble to a conflation here (i^! is exact);
    upsilon/nu do so exactly where the sufficiency condition predicts,
    failing at [0;P1] because i* is not exact."""
    from extriang.homext import SES
    tri = bundle.triangular
    bad = set()
    for b in bundle.b_ext.indec_indices():
        m = bundle.mod_lambda.indecs[b]
        theta, vartheta = tri.theta_of(m), tri.vartheta_of(m)
        SES(theta.source, m, vartheta.target, theta, vartheta)  # must not raise
        upsilon, nu = tri.upsilon_of(m), tri.nu_of(m)
        try:
            SES(upsilon.source, m, nu.target, upsilon, nu)
        except ValueError:
            bad.add(b)
    assert bad == {b_indices["0;P1"]}


def test_glue_always_valid_on_abelian_recollement(bundle):
    """Every glued pair of full-category torsion pairs is a torsion pair.

    Over the full module categories no exactness hypothesis is needed, so
    all combinations must verify; this exercises the gluing construction
    well beyond the single worked pair.
    """
    outer_pairs = enumerate_torsion_pairs(bundle.full_a)
    assert len(outer_pairs) == 5
    for tp1 in outer_pairs:
        for tp2 in outer_pairs:
            g = glue_torsion_pairs(bundle.full, tp1, tp2)
            assert g.verdict.ok, (sorted(tp1.t.members), sorted(tp2.t.members))
            assert g.recovery["equals_inputs"]


def test_glue_classifies_each_functor_once(bundle):
    # every glue classifies i^! and i^*; the cache keeps one answer per functor
    outer_pairs = enumerate_torsion_pairs(bundle.full_a)
    classify_functor.cache_clear()
    for tp1 in outer_pairs:
        for tp2 in outer_pairs:
            glue_torsion_pairs(bundle.full, tp1, tp2)
    info = classify_functor.cache_info()
    assert (info.misses, info.hits) == (2, 48)


def test_quotient_recollement_gates_by_default(bundle, b_indices):
    cat = bundle.mod_lambda
    candidate = Subcat.add(cat, [b_indices["P1;P1"], b_indices["0;P1"], b_indices["S2;0"]])
    res = quotient_recollement(bundle.restricted, candidate)
    assert not res.constructed
    assert not res.cluster_tilting.ok
    assert res.cluster_tilting.approx_failures == \
        [{"object": b_indices["P1;0"], "side": "right"}]
    assert res.hypotheses["j_lower_star_j_upper_star_T_in_T"]
    assert res.hypotheses["i_lower_star_i_upper_star_T_in_T"]


def test_quotient_recollement_forced_construction(bundle, b_indices):
    """The quotient-level recollement data is the trivial (X, X, 0) shape."""
    cat = bundle.mod_lambda
    candidate = Subcat.add(cat, [b_indices["P1;P1"], b_indices["0;P1"], b_indices["S2;0"]])
    res = quotient_recollement(bundle.restricted, candidate, require_cluster_tilting=False)
    assert res.constructed
    assert res.a_quotient.qindecs == (bundle.a_names["P1"],)
    assert res.b_quotient.qindecs == (b_indices["P1;0"],)
    assert res.c_quotient.qindecs == ()
    assert res.b_quotient.qdim(b_indices["P1;0"], b_indices["P1;0"]) == 1
    assert res.induced_checks["quotient_adjunction_dims"]
    assert res.induced_checks["quotient_fully_faithful"]
    assert res.induced_checks["image_equals_kernel"]
    assert res.induced_checks["j_star_T_cluster_tilting_in_C"]


def test_quotient_level_checks_read_the_tabulated_functor_values(bundle, b_indices):
    # as R1 and R3 do: i_* tabulated as 0 at P1 breaks the quotient adjunction
    # and the full faithfulness of i_bar_*
    r = bundle.restricted
    candidate = Subcat.add(bundle.mod_lambda, [b_indices["P1;P1"], b_indices["0;P1"], b_indices["S2;0"]])
    fd = r.six["i_lower_star"]
    zero = zero_module(bundle.lambda_algebra, bundle.p)
    corrupt = dataclasses.replace(fd, obj_map={**fd.obj_map, bundle.a_names["P1"]: zero})
    res = quotient_recollement(dataclasses.replace(r, six={**r.six, "i_lower_star": corrupt}), candidate,
                               require_cluster_tilting=False)
    assert not res.induced_checks["quotient_adjunction_dims"]
    assert not res.induced_checks["quotient_fully_faithful"]


def test_quotient_recollement_total_kill(bundle):
    # killing everything leaves the zero quotient on all three sides
    cat = bundle.mod_lambda
    everything = Subcat.add(cat, bundle.b_ext.indec_indices())
    res = quotient_recollement(bundle.restricted, everything, require_cluster_tilting=False)
    assert res.constructed
    assert res.a_quotient.qindecs == ()
    assert res.b_quotient.qindecs == ()
    assert res.c_quotient.qindecs == ()
