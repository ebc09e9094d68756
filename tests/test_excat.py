"""Inherited conflation structure, torsion pairs, cluster tilting, quotients."""

import itertools
import random
from collections import Counter

import pytest

from extriang import excat, homext
from extriang.fixtures import A2_ALGEBRA, build_example51
from extriang.quivrep import Catalog, Module, Morphism, hom_basis, zero_morphism, identity_morphism
from extriang.excat import (
    ExCat,
    NotExtensionClosedError,
    Subcat,
    enumerate_torsion_pairs,
    factoring_ideal_rank,
    is_cluster_tilting,
    is_deflation,
    is_inflation,
    is_left_exact_seq,
    is_right_exact_seq,
    is_rigid,
    quotient,
    torsion_pairs_to_json,
    verify_torsion_pair,
)
from oracles import (
    find_approximations,
    find_witness_by_scan,
    morphism_from_coords,
    witness_candidates_by_scan,
)


def a_idx(bundle, name):
    return bundle.a_names[name]


def test_extension_closure_verified(bundle):
    assert bundle.b_ext.extension_closure_failure() is None
    assert bundle.a_ext.extension_closure_failure() is None


def test_not_extension_closed_raises(bundle):
    # add(S2 + S1) in mod A misses the middle P1 of the nonsplit extension
    s1, s2 = a_idx(bundle, "S1"), a_idx(bundle, "S2")
    with pytest.raises(NotExtensionClosedError):
        ExCat(bundle.mod_a, {s1, s2}, cap=2)


def test_identity_is_inflation_and_deflation(bundle, b_indices):
    m = bundle.mod_lambda.indecs[b_indices["P1;0"]]
    ident = identity_morphism(m)
    assert is_inflation(ident, bundle.b_ext)
    assert is_deflation(ident, bundle.b_ext)


def test_mono_with_escaping_cokernel_is_not_inflation(bundle, b_indices):
    # [S2;0] >-> [P1;0] has cokernel [S1;0], which is not a member
    cat = bundle.mod_lambda
    phi = hom_basis(cat.indecs[b_indices["S2;0"]], cat.indecs[b_indices["P1;0"]])[0]
    assert phi.is_injective()
    assert not is_inflation(phi, bundle.b_ext)


def test_same_mono_is_inflation_in_full_category(bundle):
    # S2 >-> P1 in the whole module category has cokernel S1, still inside
    cat = bundle.mod_a
    s2 = cat.indecs[a_idx(bundle, "S2")]
    p1 = cat.indecs[a_idx(bundle, "P1")]
    phi = hom_basis(s2, p1)[0]
    assert is_inflation(phi, bundle.full_a)


def test_every_fixture_morphism_is_compatible(bundle):
    # a morphism that is both an inflation and a deflation is an isomorphism
    for e in (bundle.a_ext, bundle.b_ext, bundle.c_ext):
        cat = e.catalog
        members = e.indec_indices()
        for i in members:
            for j in members:
                basis = cat.hom(i, j)
                for coords in _all_combos(len(basis), cat.p):
                    phi = morphism_from_coords(coords, basis, cat.indecs[i], cat.indecs[j])
                    if is_inflation(phi, e) and is_deflation(phi, e):
                        assert phi.is_isomorphism()


def _all_combos(n, p):
    import itertools
    return itertools.product(range(p), repeat=n)


def test_conflations_are_left_and_right_exact(bundle):
    for rec in bundle.b_ext.conflations[:40]:
        assert is_left_exact_seq(rec.ses.inc, rec.ses.prj, bundle.b_ext)
        assert is_right_exact_seq(rec.ses.inc, rec.ses.prj, bundle.b_ext)


def test_both_sided_exactness_characterizes_conflations(bundle):
    """Over all composable hom-basis pairs with zero composite, the sequences
    that are simultaneously left and right exact are exactly the short exact
    ones (member middles are automatic here)."""
    from extriang.homext import SES
    e = bundle.b_ext
    cat = bundle.mod_lambda
    members = e.indec_indices()
    checked = both = 0
    for i in members:
        for j in members:
            for f in cat.hom(i, j):
                for k in members:
                    for g in cat.hom(j, k):
                        if not (g @ f).is_zero():
                            continue
                        checked += 1
                        both_exact = (is_left_exact_seq(f, g, e)
                                      and is_right_exact_seq(f, g, e))
                        try:
                            SES(f.source, f.target, g.target, f, g)
                            is_conflation = True
                        except ValueError:
                            is_conflation = False
                        assert both_exact == is_conflation
                        both += both_exact
    assert checked > 0 and both > 0  # the scan saw both kinds


def test_projective_to_zero_is_right_not_left_exact(bundle):
    from extriang.quivrep import zero_module
    p1 = bundle.mod_a.indecs[a_idx(bundle, "P1")]
    z = zero_module(A2_ALGEBRA, 2)
    f = zero_morphism(p1, z)
    g = zero_morphism(z, z)
    assert is_right_exact_seq(f, g, bundle.a_ext)
    assert not is_left_exact_seq(f, g, bundle.a_ext)


def test_zero_to_identity_is_left_exact(bundle):
    from extriang.quivrep import zero_module
    p1 = bundle.mod_a.indecs[a_idx(bundle, "P1")]
    z = zero_module(A2_ALGEBRA, 2)
    assert is_left_exact_seq(zero_morphism(z, p1), identity_morphism(p1), bundle.a_ext)


def test_verify_example_pair(bundle, b_indices):
    cat = bundle.mod_lambda
    t = Subcat.add(cat, [b_indices["P1;0"]])
    f = Subcat.add(cat, [b_indices["0;P1"], b_indices["S2;0"]])
    res = verify_torsion_pair(t, f, bundle.b_ext)
    assert res.ok
    # every witness is a genuine member conflation
    for c_index, ses in res.pair.witness.items():
        assert t.contains_module(ses.a)
        assert f.contains_module(ses.c)
        assert cat.decompose(ses.b) == {c_index: 1}


def test_verify_trivial_pairs(bundle, b_indices):
    cat = bundle.mod_lambda
    every = Subcat.add(cat, b_indices.values())
    assert verify_torsion_pair(Subcat.zero(cat), every, bundle.b_ext).ok
    assert verify_torsion_pair(every, Subcat.zero(cat), bundle.b_ext).ok
    res = verify_torsion_pair(every, every, bundle.b_ext)
    assert not res.ok and res.clause == "hom_vanishing"


def test_verify_failure_names_object(bundle, b_indices):
    cat = bundle.mod_lambda
    t = Subcat.add(cat, [b_indices["S2;0"]])
    f = Subcat.add(cat, [b_indices["0;P1"]])
    res = verify_torsion_pair(t, f, bundle.b_ext)
    assert not res.ok and res.clause == "conflation_existence"
    assert res.detail["object"] in b_indices.values()


def test_enumerate_matches_golden(bundle, golden_torsion_pairs):
    pairs = enumerate_torsion_pairs(bundle.b_ext)
    assert torsion_pairs_to_json(pairs, bundle.b_ext) == golden_torsion_pairs
    assert len(pairs) == 7


def test_every_witness_is_a_member_conflation(bundle):
    # SES validity is enforced at construction; membership, the middle
    # being the witnessed object and the parts the JSON writes are checked
    # here for every enumerated pair, the parts against decomposed ends
    cat = bundle.mod_lambda
    for pair in enumerate_torsion_pairs(bundle.b_ext):
        assert sorted(pair.parts) == sorted(pair.witness)
        for c_index, ses in pair.witness.items():
            assert pair.t.contains_module(ses.a)
            assert pair.f.contains_module(ses.c)
            assert cat.decompose(ses.b) == {c_index: 1}
            assert pair.parts[c_index] == (
                tuple(sorted(cat.decompose(ses.a).elements())),
                tuple(sorted(cat.decompose(ses.c).elements())))


def test_torsion_pair_json_decomposes_nothing(bundle, monkeypatch):
    # the witness parts come from the candidate rows, not from the ends
    pairs = [p for h, _ in scan_hosts(bundle) for p in enumerate_torsion_pairs(h)]

    def refuse(self, m):
        raise AssertionError("to_json_dict decomposed a module")

    monkeypatch.setattr(Catalog, "decompose", refuse)
    assert all(p.to_json_dict()["witness"] for p in pairs)


def test_enumerate_contains_degenerate_and_example(bundle, b_indices):
    pairs = enumerate_torsion_pairs(bundle.b_ext)
    keyed = {(tuple(p.t.sorted_members()), tuple(p.f.sorted_members())) for p in pairs}
    all_members = tuple(sorted(b_indices.values()))
    assert ((), all_members) in keyed
    assert (all_members, ()) in keyed
    assert ((b_indices["P1;0"],),
            tuple(sorted([b_indices["0;P1"], b_indices["S2;0"]]))) in keyed


def perp_queries(host, max_size=None):
    """(T, T^perp) for every member subset T of at most max_size members."""
    cat = host.catalog
    members = host.indec_indices()
    sizes = range(len(members) + 1 if max_size is None else max_size + 1)
    return [
        (t, tuple(j for j in members if all(cat.dim_hom(i, j) == 0 for i in t)))
        for size in sizes
        for t in itertools.combinations(members, size)
    ]


def fresh_copy(host):
    """The same host with no candidate rows built or realized yet."""
    members = None if host.is_full() else host.objects.members
    return ExCat(host.catalog, members, cap=host.cap)


def scan_hosts(bundle):
    """(host, queries) for mod A, B_ext and mod Lambda, with every subset."""
    return [(h, perp_queries(h)) for h in (bundle.full_a, bundle.b_ext, bundle.full_b)]


def test_witnesses_agree_with_the_scan_oracle(bundle):
    rng = random.Random(8)
    for host, max_size in ((bundle.full_a, None), (bundle.b_ext, None), (bundle.full_b, 2)):
        cat = host.catalog
        queries = perp_queries(host, max_size)
        rng.shuffle(queries)
        for t_tuple, f_tuple in queries:
            t, f = Subcat.add(cat, t_tuple), Subcat.add(cat, f_tuple)
            res = verify_torsion_pair(t, f, host)
            expected = {c: find_witness_by_scan(c, t, f, host) for c in host.indec_indices()}
            missing = [c for c, ses in expected.items() if ses is None]
            if missing:
                assert not res.ok and res.clause == "conflation_existence"
                assert res.detail == {"object": missing[0]}
                continue
            assert res.ok
            for c, ses in expected.items():
                got = res.pair.witness[c]
                assert (got.a, got.b, got.c, got.inc, got.prj) == (
                    ses.a, ses.b, ses.c, ses.inc, ses.prj)


def assert_conflation_onto(ses, c_mod, t_ms, f_ms, catalog):
    """ses is T -> C -> F with middle C itself, ends the sums of t_ms and
    f_ms, and maps of modules.  SES itself checks exactness as linear maps."""
    assert ses.b == c_mod
    assert catalog.decompose(ses.a) == Counter(t_ms) and catalog.decompose(ses.c) == Counter(f_ms)
    # the checked constructor refuses a square that does not commute
    Morphism(ses.a, ses.b, ses.inc.comps)
    Morphism(ses.b, ses.c, ses.prj.comps)


def check_witnesses(host, max_size):
    """Check a host's witness rows and torsion queries; returns the row
    outcomes and query outcomes seen (found or not) and how many witnesses
    were rebased, their middle realized as a module other than C itself."""
    cat, e = host.catalog, fresh_copy(host)
    rows_decided, queries_decided, rebased = set(), set(), 0
    # each candidate row alone: a witness exactly when some extension class
    # of its ends has a middle that decomposes as C
    for c in host.indec_indices():
        for row in excat._witness_candidates(c, e):
            ses = excat._witness_from_classes(cat, c, row.t_ms, row.f_ms)
            space = homext.ext1_space(cat.sum_of(row.f_ms), cat.sum_of(row.t_ms))
            middles = [space.realize(cls).b for cls in space.elements()]
            onto = [b for b in middles if cat.decompose(b) == {c: 1}]
            assert (ses is not None) == bool(onto)
            rows_decided.add(ses is not None)
            if ses is not None:
                assert_conflation_onto(ses, cat.indecs[c], row.t_ms, row.f_ms, cat)
                rebased += onto[0] != cat.indecs[c]
    # each query: the row _find_witness picks against the scan oracle
    for t_tuple, f_tuple in perp_queries(host, max_size):
        t, f = Subcat.add(cat, t_tuple), Subcat.add(cat, f_tuple)
        for c in host.indec_indices():
            row = excat._find_witness(c, t, f, e)
            expected = find_witness_by_scan(c, t, f, host)
            assert (row is None) == (expected is None)
            queries_decided.add(row is not None)
            if row is None:
                continue
            assert set(row.t_ms) <= t.members and set(row.f_ms) <= f.members
            assert_conflation_onto(row.outcome, cat.indecs[c], row.t_ms, row.f_ms, cat)
            got = row.outcome
            assert (got.a, got.c, got.inc, got.prj) == (expected.a, expected.c, expected.inc, expected.prj)
    return rows_decided, queries_decided, rebased


def test_witness_conflations_are_exact_with_ends_in_t_and_f(bundle):
    seen = [check_witnesses(host, max_size) for host, max_size in (
        (bundle.full_a, None), (bundle.a_ext, None), (bundle.c_ext, None),
        (bundle.b_ext, None), (bundle.full_b, 2))]
    # both outcomes occur, for rows and for queries
    assert set().union(*(rows for rows, _, _ in seen)) == {False, True}
    assert set().union(*(queries for _, queries, _ in seen)) == {False, True}


def test_witnesses_are_rebased_onto_the_catalog_entry():
    # over F_2 with vertex dimensions at most 1 a module has no other form,
    # so every realized middle is the catalog entry itself; moving each
    # entry of a catalog over F_3 by vertex scalars leaves realized middles
    # that only split_off_summand's isomorphism carries onto C
    small = build_example51(p=3, bound=1)
    for host in (small.full_a, small.full_b):
        cat = host.catalog
        p, at = cat.p, cat.algebra.vertex_index
        scalar = {v: 1 + i % (p - 1) for v, i in at.items()}

        def moved(m):
            return Module(cat.algebra, p, m.dims, {
                a.name: m.action[a.name].scale(scalar[a.tgt] * pow(scalar[a.src], p - 2, p))
                for a in cat.algebra.arrows})

        moved_cat = Catalog(cat.algebra, p, cat.bound, tuple(moved(m) for m in cat.indecs))
        assert moved_cat.indecs != cat.indecs
        _, _, rebased = check_witnesses(ExCat(moved_cat, cap=host.cap), 2)
        assert rebased


def test_witnesses_do_not_depend_on_query_order(bundle):
    rng = random.Random(31)
    for host, queries in scan_hosts(bundle):
        shuffled = list(queries)
        rng.shuffle(shuffled)
        answers = []
        for order in (queries, shuffled):
            e = fresh_copy(host)
            sub = lambda ms: Subcat.add(e.catalog, ms)
            answers.append({
                q: verify_torsion_pair(sub(q[0]), sub(q[1]), e).to_json_dict() for q in order
            })
        assert answers[0] == answers[1]


def test_torsion_scan_realizes_each_candidate_once(bundle, monkeypatch):
    # a row's outcome decides only whether it is realized again, never which
    # candidates a query visits, so these counts hold in any query order;
    # each realized class gets one split test and no decomposition
    counts = {"realize": 0, "split": 0}

    def spy(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    hosts = [(fresh_copy(h), queries) for h, queries in scan_hosts(bundle)]
    monkeypatch.setattr(homext.Ext1Space, "realize", spy("realize", homext.Ext1Space.realize))
    monkeypatch.setattr(excat, "split_off_summand", spy("split", excat.split_off_summand))
    for e, queries in hosts:
        for t, f in queries:
            verify_torsion_pair(Subcat.add(e.catalog, t), Subcat.add(e.catalog, f), e)
    assert sum(len(q) for _, q in hosts) == 2072
    assert counts == {"realize": 153, "split": 153}
    assert [sum(row.realized for rows in e._candidate_table.values() for row in rows)
            for e, _ in hosts] == [9, 11, 98]


def test_candidate_table_gives_the_scan_order(bundle):
    # the host lists each object's candidates once over all members; the rows
    # a query keeps must be the oracle's scan over T and F, list for list.
    # That scan lists the pairs of the scan over all members whose parts lie
    # in T and F, so one oracle call serves every query keeping the same pairs
    for host, queries in scan_hosts(bundle):
        cat = host.catalog
        for c in host.indec_indices():
            rows = excat._witness_candidates(c, host)
            full_scan = witness_candidates_by_scan(c, host.objects, host.objects, host)
            scans = {}
            for t_tuple, f_tuple in queries:
                t, f = frozenset(t_tuple), frozenset(f_tuple)
                kept = [(row.t_ms, row.f_ms) for row in rows
                        if row.t_support <= t and row.f_support <= f]
                key = tuple(k for k, (t_ms, f_ms) in enumerate(full_scan)
                            if t.issuperset(t_ms) and f.issuperset(f_ms))
                if key not in scans:
                    scans[key] = witness_candidates_by_scan(
                        c, Subcat.add(cat, t), Subcat.add(cat, f), host)
                assert kept == scans[key], (c, t_tuple, f_tuple)


def test_candidate_tables_are_built_once_per_object(bundle, monkeypatch):
    # bounded multisets are enumerated only while a host builds an object's
    # candidate table, so a second pass over the same queries makes no call
    calls = []
    real = excat._bounded_multisets

    def spy(*args):
        calls.append(args)
        return real(*args)

    hosts = [(fresh_copy(h), queries) for h, queries in scan_hosts(bundle)]
    monkeypatch.setattr(excat, "_bounded_multisets", spy)
    counts = []
    for _ in range(2):
        calls.clear()
        for e, queries in hosts:
            for t, f in queries:
                verify_torsion_pair(Subcat.add(e.catalog, t), Subcat.add(e.catalog, f), e)
        counts.append(len(calls))
    assert counts == [134, 0]
    assert [sorted(e._candidate_table) for e, _ in hosts] == \
        [e.indec_indices() for e, _ in hosts]


def test_approximations(bundle, b_indices):
    cat = bundle.mod_lambda
    big = Subcat.add(cat, [b_indices["P1;P1"], b_indices["0;P1"], b_indices["S2;0"]])
    left, right = find_approximations(b_indices["P1;0"], big, bundle.b_ext)
    assert left is not None
    assert cat.decompose(left.b) == {b_indices["P1;P1"]: 1}
    assert cat.decompose(left.c) == {b_indices["0;P1"]: 1}
    assert right is None  # a surjection onto the projective [P1;0] would split

    # members approximate themselves by split conflations
    left2, right2 = find_approximations(b_indices["S2;0"], big, bundle.b_ext)
    assert left2 is not None and left2.c.is_zero()
    assert right2 is not None and right2.a.is_zero()

    only_proj_inj = Subcat.add(cat, [b_indices["P1;P1"]])
    l3, r3 = find_approximations(b_indices["S2;0"], only_proj_inj, bundle.b_ext)
    assert l3 is None and r3 is None


def test_rigidity(bundle, b_indices):
    cat = bundle.mod_lambda
    assert is_rigid(Subcat.add(cat, [b_indices["P1;P1"]]), bundle.b_ext)[0]
    ok, witness = is_rigid(Subcat.add(cat, b_indices.values()), bundle.b_ext)
    assert not ok
    assert witness == (b_indices["0;P1"], b_indices["P1;0"])


def test_cluster_tilting_verdicts(bundle, b_indices):
    cat = bundle.mod_lambda
    # the three-summand candidate is rigid but has no right approximation
    # of the projective [P1;0]: every deflation onto a projective splits
    candidate = Subcat.add(cat, [b_indices["P1;P1"], b_indices["0;P1"], b_indices["S2;0"]])
    report = is_cluster_tilting(candidate, bundle.b_ext)
    assert report.rigid
    assert not report.ok
    assert report.approx_failures == [{"object": b_indices["P1;0"], "side": "right"}]

    small = is_cluster_tilting(Subcat.add(cat, [b_indices["P1;P1"]]), bundle.b_ext)
    assert small.rigid and not small.ok
    assert {f["object"] for f in small.approx_failures} >= {b_indices["S2;0"]}


def test_cluster_tilting_implies_rigid_over_all_subsets(bundle):
    import itertools
    members = bundle.b_ext.indec_indices()
    cat = bundle.mod_lambda
    for size in range(len(members) + 1):
        for subset in itertools.combinations(members, size):
            rep = is_cluster_tilting(Subcat.add(cat, subset), bundle.b_ext)
            if rep.ok:
                assert rep.rigid


def test_quotient_of_b_by_candidate(bundle, b_indices):
    cat = bundle.mod_lambda
    candidate = Subcat.add(cat, [b_indices["P1;P1"], b_indices["0;P1"], b_indices["S2;0"]])
    q = quotient(bundle.b_ext, candidate)
    assert q.qindecs == (b_indices["P1;0"],)
    assert q.qdim(b_indices["P1;0"], b_indices["P1;0"]) == 1


def test_quotient_by_zero_keeps_hom_data(bundle):
    q = quotient(bundle.b_ext, Subcat.zero(bundle.mod_lambda))
    for i in bundle.b_ext.indec_indices():
        for j in bundle.b_ext.indec_indices():
            assert q.qdim(i, j) == bundle.mod_lambda.dim_hom(i, j)


def test_quotient_a_ext_by_s2(bundle):
    q = quotient(bundle.a_ext, Subcat.add(bundle.mod_a, [a_idx(bundle, "S2")]))
    assert q.qindecs == (a_idx(bundle, "P1"),)
    assert q.qdim(a_idx(bundle, "P1"), a_idx(bundle, "P1")) == 1


def test_quotient_dimension_formula(bundle, b_indices):
    cat = bundle.mod_lambda
    candidate = Subcat.add(cat, [b_indices["P1;P1"], b_indices["0;P1"], b_indices["S2;0"]])
    q = quotient(bundle.b_ext, candidate)
    for i in bundle.b_ext.indec_indices():
        for j in bundle.b_ext.indec_indices():
            ideal_rank = factoring_ideal_rank(cat.indecs[i], cat.indecs[j], candidate)
            assert q.qdim(i, j) + ideal_rank == cat.dim_hom(i, j)
