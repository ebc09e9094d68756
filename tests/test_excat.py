"""Inherited conflation structure, torsion pairs, cluster tilting, quotients."""

import itertools
import random

import pytest

from extriang import excat, homext, quivrep
from extriang.fixtures import A2_ALGEBRA, build_example51
from extriang.quivrep import (
    Catalog, Module, Morphism, hom_basis, identity_morphism, zero_module, zero_morphism,
)
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
    is_left_exact_by_factoring,
    is_right_exact_by_factoring,
    morphism_from_coords,
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


def test_one_sided_exactness_agrees_with_the_factoring_oracle(bundle, monkeypatch):
    # every composable pair of Hom basis maps between members, and the
    # images of every conflation under the six functors, which is what
    # exactness grading tests; the rank route builds no induced morphism
    def no_morphism(*args, **kwargs):
        raise AssertionError("an induced morphism was built")

    # add(P1, S1) is extension closed, and the kernel S2 of P1 ->> S1 is not
    # in it; in the last host some sequences exact at the middle have a
    # ker g or coker f outside it
    p1_s1 = ExCat(bundle.mod_a, {a_idx(bundle, "P1"), a_idx(bundle, "S1")})
    n = bundle.lambda_names
    leaky = ExCat(bundle.mod_lambda, {n["[0;S1]_0"], n["[S2;0]_0"], n["[0;P1]_0"], n["[S2;S2]_1"]})
    cases = []
    for e in (bundle.a_ext, bundle.b_ext, bundle.full_a, p1_s1, leaky):
        members = e.indec_indices()
        mods = e.catalog.indecs
        z = zero_module(e.catalog.algebra, e.catalog.p)
        pairs = [(f, g) for i, j, k in itertools.product(members, repeat=3)
                 for f in e.catalog.hom(i, j) for g in e.catalog.hom(j, k)]
        # a zero end on either side: f is judged alone by the right test,
        # and g alone by the left one
        for i, j in itertools.product(members, repeat=2):
            pairs += [(f, zero_morphism(mods[j], z)) for f in e.catalog.hom(i, j)]
            pairs += [(zero_morphism(z, mods[i]), g) for g in e.catalog.hom(i, j)]
        # X >-> X + X ->> X onto either summand: the ranks fill the middle
        # both times, but only the second composite is zero
        for i in members:
            twice = [mods[i], mods[i]]
            pairs += [(homext.summand_inclusion(twice, 0, quivrep.direct_sum(twice)),
                       homext.summand_projection(twice, k, quivrep.direct_sum(twice))) for k in (0, 1)]
        cases += [(f, g, e) for f, g in pairs]
    for fd in bundle.restricted.six.values():
        cases += [(fd.apply_mor(rec.ses.inc), fd.apply_mor(rec.ses.prj), fd.target)
                  for rec in fd.source.conflations]
    expected = [(is_left_exact_by_factoring(*case), is_right_exact_by_factoring(*case))
                for case in cases]
    monkeypatch.setattr(excat, "Morphism", no_morphism)
    assert [(is_left_exact_seq(*case), is_right_exact_seq(*case)) for case in cases] == expected
    # the scan saw every verdict on each side
    assert {left for left, _ in expected} == {right for _, right in expected} == {True, False}


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
    # the witness parts are kept with each trace, not read off the ends
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
    """The same host with no trace built yet."""
    members = None if host.is_full() else host.objects.members
    return ExCat(host.catalog, members, cap=host.cap)


def scan_hosts(bundle):
    """(host, queries) for mod A, B_ext and mod Lambda, with every subset."""
    return [(h, perp_queries(h)) for h in (bundle.full_a, bundle.b_ext, bundle.full_b)]


def test_witnesses_agree_with_the_scan_oracle(bundle):
    # the witness is the trace conflation tC >-> C ->> C/tC, not the
    # oracle's first extension class, so existence and parts are compared
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
            assert res.pair.parts == {c: sorted_parts(cat, ses) for c, ses in expected.items()}


def sorted_parts(catalog, ses):
    """The sorted decompositions of a conflation's ends."""
    return tuple(tuple(sorted(catalog.decompose(m).elements())) for m in (ses.a, ses.c))


def check_against_scan(host, max_size):
    """Check every query (T, T^perp) and (T, T^perp less its first member)
    of at most max_size members against the scan oracle; returns the set of
    verdicts seen."""
    cat, e = host.catalog, fresh_copy(host)
    verdicts = set()
    queries = perp_queries(host, max_size)
    for t_tuple, f_tuple in queries + [(t, f[1:]) for t, f in queries if f]:
        t, f = Subcat.add(cat, t_tuple), Subcat.add(cat, f_tuple)
        res = verify_torsion_pair(t, f, e)
        verdicts.add(res.ok)
        expected = {}
        for c in host.indec_indices():
            expected[c] = find_witness_by_scan(c, t, f, host)
            if expected[c] is None:
                # the same existence and the same first failing object
                assert not res.ok and res.detail == {"object": c}
                break
        if not res.ok:
            assert None in expected.values()
            continue
        for c, ses in res.pair.witness.items():
            # parts are the sorted decompositions of the oracle's ends
            assert res.pair.parts[c] == sorted_parts(cat, expected[c])
            # the middle is the catalog entry itself, the ends in add T and add F
            assert ses.b is cat.indecs[c]
            assert t.contains_module(ses.a) and f.contains_module(ses.c)
            assert res.pair.parts[c] == sorted_parts(cat, ses)
            # the checked constructor refuses a square that does not commute;
            # SES itself checks exactness as linear maps
            Morphism(ses.a, ses.b, ses.inc.comps)
            Morphism(ses.b, ses.c, ses.prj.comps)
    return verdicts


def test_witness_conflations_are_traces_with_ends_in_t_and_f(bundle):
    seen = [check_against_scan(host, max_size) for host, max_size in (
        (bundle.full_a, None), (bundle.a_ext, None), (bundle.c_ext, None),
        (bundle.b_ext, None), (bundle.full_b, 2))]
    assert set().union(*seen) == {False, True}


def test_witnesses_over_moved_catalogs_agree_with_the_scan_oracle():
    # over F_2 with vertex dimensions at most 1 a module has no other form;
    # over F_3 each entry is moved by vertex scalars, so the oracle's
    # realized middles are other forms of C, while each trace's middle is
    # the moved entry itself
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
        assert check_against_scan(ExCat(moved_cat, cap=host.cap), 2) == {False, True}


def run_scan_passes(bundle, monkeypatch, passes):
    """Run every scan query on fresh hosts passes times, counting calls of
    the universal map, of Ext^1 realization and of summand splitting; returns
    the hosts and each pass's counts."""
    counts = {"universal_map": 0, "realize": 0, "split": 0}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    hosts = [(fresh_copy(h), queries) for h, queries in scan_hosts(bundle)]
    monkeypatch.setattr(excat, "_universal_map", spy("universal_map", excat._universal_map))
    monkeypatch.setattr(homext.Ext1Space, "realize", spy("realize", homext.Ext1Space.realize))
    monkeypatch.setattr(quivrep, "split_off_summand", spy("split", quivrep.split_off_summand))
    passes_seen = []
    for _ in range(passes):
        counts.update(dict.fromkeys(counts, 0))
        for e, queries in hosts:
            for t, f in queries:
                verify_torsion_pair(Subcat.add(e.catalog, t), Subcat.add(e.catalog, f), e)
        passes_seen.append(dict(counts))
    assert sum(len(q) for _, q in hosts) == 2072
    return hosts, passes_seen


def test_torsion_scan_realizes_each_candidate_once(bundle, monkeypatch):
    # each object's one witness candidate for T is its trace, built by one
    # universal map per key (C, members of T mapping into C); no extension
    # class is realized and no summand split off
    hosts, seen = run_scan_passes(bundle, monkeypatch, 1)
    assert seen == [{"universal_map": 145, "realize": 0, "split": 0}]
    assert [len(e._traces) for e, _ in hosts] == [8, 12, 125]


def test_candidate_tables_are_built_once_per_object(bundle, monkeypatch):
    # a host keeps its traces, so a second pass over the same queries builds
    # none, and every object of every host has had a trace built
    hosts, seen = run_scan_passes(bundle, monkeypatch, 2)
    assert [s["universal_map"] for s in seen] == [145, 0]
    assert [sorted({c for c, _ in e._traces}) for e, _ in hosts] == \
        [e.indec_indices() for e, _ in hosts]


def test_trace_with_an_end_outside_the_catalog_has_no_witness(bundle):
    # a hand-built catalog of mod A without S1: the trace of S2 in P1 is S2,
    # and P1/S2 = S1 is no catalog entry, so it lies in no member class
    cat = bundle.mod_a
    partial = Catalog(cat.algebra, cat.p, cat.bound,
                      tuple(cat.indecs[a_idx(bundle, name)] for name in ("S2", "P1")))
    host = ExCat(partial)
    t, f = Subcat.add(partial, [0]), Subcat.zero(partial)
    assert verify_torsion_pair(t, f, host).to_json_dict() == {
        "valid": False, "clause": "conflation_existence", "detail": {"object": 1}}
    assert find_witness_by_scan(1, t, f, host) is None


def test_a_summand_outside_the_catalog_is_no_member(bundle):
    # the hand-built catalog of mod A without S1, as above
    cat = bundle.mod_a
    partial = Catalog(cat.algebra, cat.p, cat.bound,
                      tuple(cat.indecs[a_idx(bundle, name)] for name in ("S2", "P1")))
    s1, p1 = (cat.indecs[a_idx(bundle, name)] for name in ("S1", "P1"))
    everything = Subcat.full(partial)
    assert not everything.contains_module(s1)
    assert not everything.contains_module(quivrep.direct_sum([p1, s1]))
    # the zero module's decomposition is empty, so it lies in every add(S)
    assert everything.contains_module(zero_module(cat.algebra, cat.p))
    assert Subcat.zero(partial).contains_module(zero_module(cat.algebra, cat.p))
    assert not ExCat(partial, {0}).contains(s1)
    # S2 >-> P1 has cokernel S1, outside the partial catalog and outside
    # add(P1) in the full one; with S1 a member the left side holds
    assert excat.approximation_sides(0, Subcat.add(partial, [1])) == (False, False)
    assert excat.approximation_sides(a_idx(bundle, "S2"), Subcat.add(cat, [a_idx(bundle, "P1")])) == (False, False)
    assert excat.approximation_sides(
        a_idx(bundle, "S2"), Subcat.add(cat, [a_idx(bundle, "P1"), a_idx(bundle, "S1")])) == (True, False)


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
