"""Algebras, modules, Hom spaces, isomorphism, decomposition, enumeration."""

import dataclasses
import functools
import itertools
import math
import pathlib
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extriang import quivrep
from extriang.exactfield import Mat
from extriang.quivrep import (
    MAX_GRID_CELLS,
    Algebra,
    AlgebraFormatError,
    Arrow,
    Catalog,
    CatalogIncompleteError,
    Module,
    _dim_vectors,
    _gl_generators,
    _kron_map,
    _primitive_root,
    decompose,
    direct_sum,
    enumerate_indecomposables,
    hom_basis,
    kernel,
    cokernel,
    parse_algebra_text,
    span_rank,
    split_off_summand,
    zero_module,
)
from extriang.fixtures import A2_ALGEBRA
from extriang.recol import build_triangular
from oracles import (
    dump_algebra_text,
    is_indecomposable,
    is_isomorphic,
    morphism_coords,
    morphism_coords_many,
    morphism_from_coords,
    relation_mask_by_totals,
)

A2 = Algebra(("1", "2"), (Arrow("a", "1", "2"),))
D4 = Algebra(("0", "1", "2", "3"),
             (Arrow("a1", "1", "0"), Arrow("a2", "2", "0"), Arrow("a3", "3", "0")))
KRONECKER = Algebra(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2")))
A3_LINEAR = Algebra(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3")))
A3_SINK = Algebra(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "3", "2")))
A4 = Algebra(("1", "2", "3", "4"), (Arrow("a", "1", "2"), Arrow("b", "3", "2"), Arrow("c", "3", "4")))
A4_LINEAR = Algebra(("1", "2", "3", "4"), (Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "3", "4")))
D4_SOURCE = Algebra(("0", "1", "2", "3"),
                    (Arrow("a1", "0", "1"), Arrow("a2", "0", "2"), Arrow("a3", "0", "3")))
D4_MIXED = Algebra(("0", "1", "2", "3"),
                   (Arrow("a1", "1", "0"), Arrow("a2", "0", "2"), Arrow("a3", "0", "3")))
A3_ZERO = Algebra(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3")), (((1, ("b", "a")),),))
LAMBDA = build_triangular(A2).algebra
DUAL_NUMBERS = Algebra(("1",), (Arrow("x", "1", "1"),), (((1, ("x", "x")),),))
POINT = Algebra(("1",), ())
TWO_POINTS = Algebra(("1", "2"), ())
# two copies of A2 side by side: a support can be disconnected with room at every vertex
TWO_ARROWS = Algebra(("1", "2", "3", "4"), (Arrow("a", "1", "2"), Arrow("b", "3", "4")))
# a three-term relation whose first arrow, b, lies in two of its terms
THREE_TERMS = Algebra(("1", "2", "3"),
                      (Arrow("b", "2", "3"), Arrow("a", "1", "2"), Arrow("e", "1", "2"), Arrow("c", "1", "3")),
                      (((1, ("b", "a")), (1, ("b", "e")), (-1, ("c",))),))
A4_PATH3 = Algebra(A4_LINEAR.vertices, A4_LINEAR.arrows, (((1, ("c", "b", "a")),),))
# a 2-cycle with both composites zero; at dims (8, 1), b.a is 8 x 8
CYCLE = Algebra(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1")),
                (((1, ("b", "a")),), ((1, ("a", "b")),)))


@pytest.fixture(scope="module")
def a2_catalog():
    return enumerate_indecomposables(A2, 2, 2)


def by_dims(catalog, dims):
    return next(i for i, m in enumerate(catalog.indecs) if m.dims == dims)


def test_algebra_validation():
    with pytest.raises(ValueError):
        Algebra(("1", "1"), ())
    with pytest.raises(ValueError):
        Algebra(("1",), (Arrow("a", "1", "2"),))
    # relation terms must share endpoints
    with pytest.raises(ValueError):
        Algebra(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1")),
                (((1, ("a",)), (1, ("b",))),))
    with pytest.raises(ValueError, match="unknown arrow 'z'"):
        Algebra(("1", "2"), (Arrow("a", "1", "2"),), (((1, ("z", "a")),),))


def test_algebra_lookups_take_no_part_in_identity():
    again = Algebra(D4.vertices, D4.arrows)
    assert again is not D4 and again == D4 and hash(again) == hash(D4)
    assert D4.vertex_index == {"0": 0, "1": 1, "2": 2, "3": 3}
    assert D4.arrow_by_name["a2"] == Arrow("a2", "2", "0")
    assert "vertex_index" not in repr(D4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        D4.vertex_index = {}


def test_module_relation_check():
    square = Algebra(
        ("1x", "2x", "1y", "2y"),
        (Arrow("ax", "1x", "2x"), Arrow("ay", "1y", "2y"),
         Arrow("c1", "1y", "1x"), Arrow("c2", "2y", "2x")),
        (((1, ("ax", "c1")), (-1, ("c2", "ay"))),),
    )
    one = Mat.identity(2, 1)
    Module(square, 2, (1, 1, 1, 1), {"ax": one, "ay": one, "c1": one, "c2": one})
    with pytest.raises(ValueError):
        Module(square, 2, (1, 1, 1, 1),
               {"ax": one, "ay": one, "c1": one, "c2": Mat.zeros(2, 1, 1)})


def test_mod_a2_catalog(a2_catalog):
    assert len(a2_catalog) == 3
    assert sorted(m.dims for m in a2_catalog.indecs) == [(0, 1), (1, 0), (1, 1)]


def test_hom_dimensions_match_ar_quiver(a2_catalog):
    s2 = by_dims(a2_catalog, (0, 1))
    s1 = by_dims(a2_catalog, (1, 0))
    p1 = by_dims(a2_catalog, (1, 1))
    assert a2_catalog.dim_hom(s2, p1) == 1
    assert a2_catalog.dim_hom(p1, s2) == 0
    assert a2_catalog.dim_hom(p1, s1) == 1
    for i in range(3):
        assert a2_catalog.dim_hom(i, i) >= 1  # contains the identity


def spy_hom_basis(monkeypatch) -> list:
    """The (m, n) of every hom_basis call from now on, the catalog's included."""
    calls = []
    real = quivrep.hom_basis

    def spy(m, n):
        calls.append((m, n))
        return real(m, n)

    monkeypatch.setattr(quivrep, "hom_basis", spy)
    return calls


def test_catalog_solves_each_hom_basis_once_on_first_use(monkeypatch):
    calls = spy_hom_basis(monkeypatch)
    cat = enumerate_indecomposables(D4, 2, 2)
    assert calls == []
    pairs = list(itertools.product(range(len(cat)), repeat=2))
    for _ in range(2):
        bases = {(i, j): cat.hom(i, j) for i, j in pairs}
        assert all(cat.dim_hom(i, j) == len(bases[(i, j)]) for i, j in pairs)
        for i in range(len(cat)):
            cat.top(i)
    assert sorted(calls, key=lambda c: (cat.indecs.index(c[0]), cat.indecs.index(c[1]))) == \
        [(cat.indecs[i], cat.indecs[j]) for i, j in pairs]
    # the bases are the canonical ones, whenever they are solved
    monkeypatch.undo()
    assert all(bases[(i, j)] == tuple(hom_basis(cat.indecs[i], cat.indecs[j])) for i, j in pairs)


def test_decompose_solves_end_only_for_the_entries_it_reaches(monkeypatch):
    cat = enumerate_indecomposables(A2, 2, 2)
    s2 = cat.indecs[by_dims(cat, (0, 1))]
    calls = spy_hom_basis(monkeypatch)
    assert cat.decompose(direct_sum([s2, s2])) == {by_dims(cat, (0, 1)): 2}
    # only S2 fits in dimensions (0, 2): End(S2) for its top, then Hom(S2, m) and Hom(m, S2)
    assert [(m, n) for m, n in calls if m in cat.indecs and n in cat.indecs] == [(s2, s2)]


def test_hom_p1_to_s2_by_exhaustion(a2_catalog):
    # brute force over all (phi_1, phi_2) in F_2 x F_2 with the commuting square
    p1 = a2_catalog.indecs[by_dims(a2_catalog, (1, 1))]
    s2 = a2_catalog.indecs[by_dims(a2_catalog, (0, 1))]
    count = 0
    for phi2 in range(2):
        # arrow a: s2.action (0x1 from vertex 1), p1.action = identity
        # condition: s2_a  @ phi_1 == phi_2 @ p1_a; phi_1 is 0x1, LHS is 0
        if phi2 % 2 == 0:
            count += 1
    assert count == 1  # only the zero morphism
    assert hom_basis(p1, s2) == []


def test_is_isomorphic_basics(a2_catalog):
    s1 = a2_catalog.indecs[by_dims(a2_catalog, (1, 0))]
    s2 = a2_catalog.indecs[by_dims(a2_catalog, (0, 1))]
    assert is_isomorphic(s1, s1)
    assert not is_isomorphic(s1, s2)


def test_decompose_agrees_with_the_isomorphism_oracle(bundle):
    # check_recollement reads "isomorphic to catalog entry k" as a
    # decomposition {k: 1}; the exhaustive Hom walk must agree on every
    # entry and every sum of two entries of both bundled catalogs
    for catalog in (bundle.mod_a, bundle.mod_lambda):
        entries = catalog.indecs
        modules = list(entries) + [direct_sum([x, y]) for x, y in
                                   itertools.combinations_with_replacement(entries, 2)]
        for m in modules:
            dec = catalog.decompose(m)
            for k, u in enumerate(entries):
                assert (dec == {k: 1}) == is_isomorphic(m, u)


def test_indecomposability(a2_catalog):
    s2 = a2_catalog.indecs[by_dims(a2_catalog, (0, 1))]
    p1 = a2_catalog.indecs[by_dims(a2_catalog, (1, 1))]
    assert is_indecomposable(s2)
    assert not is_indecomposable(direct_sum([p1, s2]))
    with pytest.raises(ValueError):
        is_indecomposable(zero_module(A2, 2))


def test_decompose_examples(a2_catalog):
    p1_idx = by_dims(a2_catalog, (1, 1))
    p1 = a2_catalog.indecs[p1_idx]
    assert decompose(zero_module(A2, 2), a2_catalog) == {}
    assert decompose(direct_sum([p1, p1]), a2_catalog) == {p1_idx: 2}
    # the split test's composites have inner dimension 3 here, past the
    # int64 guard of a single product at p = 2**31 - 1
    point = enumerate_indecomposables(POINT, 1, 2**31 - 1)
    s = point.indecs[0]
    assert point.decompose(direct_sum([s, s, s])) == {0: 3}


def test_decompose_catalog_incomplete(a2_catalog):
    tiny = enumerate_indecomposables(A2, 1, 2)
    # restrict the catalog artificially to the two simples
    partial = Catalog(A2, 2, 1, tuple(
        m for m in tiny.indecs if m.dims != (1, 1)))
    p1 = next(m for m in tiny.indecs if m.dims == (1, 1))
    with pytest.raises(CatalogIncompleteError):
        decompose(p1, partial)


def _base_changed(m, rng):
    """m under a random base change at every vertex: an isomorphic module."""
    g = {}
    for v in m.algebra.vertices:
        g[v] = Mat(m.p, rng.integers(0, m.p, size=(m.dim(v), m.dim(v))))
        while g[v].rank() < m.dim(v):
            g[v] = Mat(m.p, rng.integers(0, m.p, size=(m.dim(v), m.dim(v))))
    return Module(m.algebra, m.p, m.dims,
                  {a.name: g[a.tgt] @ m.action[a.name] @ g[a.src].inverse() for a in m.algebra.arrows})


def _modules_to_decompose(catalog, rng, sums):
    """(expected multiset, module): each entry, then seeded random sums of
    one to three entries, all under a random base change."""
    picks = [[i] for i in range(len(catalog))]
    picks += [sorted(rng.integers(0, len(catalog), size=rng.integers(1, 4)).tolist()) for _ in range(sums)]
    return [(Counter(ps), _base_changed(catalog.sum_of(ps), rng)) for ps in picks]


@pytest.mark.parametrize("algebra, p, bound", [
    (A2, 2, 2), (A2, 3, 1), (A2, 5, 1), (LAMBDA, 2, 2), (LAMBDA, 3, 1), (LAMBDA, 5, 1),
    (A3_LINEAR, 3, 2), (A4, 2, 2), (D4, 2, 2), (KRONECKER, 2, 2), (KRONECKER, 3, 2),
], ids=["A-2-2", "A-3-1", "A-5-1", "Lambda-2-2", "Lambda-3-1", "Lambda-5-1",
        "A3", "A4", "D4", "Kronecker-2", "Kronecker-3"])
def test_decompose_by_rank_agrees_with_the_split_loop(algebra, p, bound, monkeypatch):
    # Kronecker modules at (2, 2) include points of degree two over F_p,
    # whose End/rad is F_{p^2}: only those decompositions take the split loop
    catalog = enumerate_indecomposables(algebra, bound, p)
    splits = quivrep._decompose_by_splits
    fallbacks = []

    def spy(m, cat):
        fallbacks.append(m)
        return splits(m, cat)

    monkeypatch.setattr(quivrep, "_decompose_by_splits", spy)
    for expected, m in _modules_to_decompose(catalog, np.random.default_rng(100 * p + bound), 30):
        assert decompose(m, catalog) == splits(m, catalog) == expected
    assert bool(fallbacks) == (algebra is KRONECKER)


@pytest.mark.parametrize("algebra, p, bound", [
    (A2, 2, 2), (A2, 5, 1), (LAMBDA, 2, 2), (LAMBDA, 3, 1), (D4, 2, 2), (KRONECKER, 2, 2),
], ids=["A-2-2", "A-5-1", "Lambda-2-2", "Lambda-3-1", "D4", "Kronecker-2"])
def test_placement_is_an_isomorphism_onto_the_sorted_sum(algebra, p, bound):
    # every entry and seeded sums of entries, under random base changes:
    # the placement is a morphism (its squares commute) and an isomorphism
    # onto the catalog's sum of the sorted summands, found once per module;
    # Kronecker modules with End/rad = F_{p^2} are placed by the split loop
    catalog = enumerate_indecomposables(algebra, bound, p)
    for expected, m in _modules_to_decompose(catalog, np.random.default_rng(7 * p + bound), 20):
        summands, iso = catalog.placement(m)
        assert summands == tuple(sorted(expected.elements()))
        assert iso.source == m and iso.target is catalog.sum_of(summands)
        assert iso.is_isomorphism()
        quivrep.Morphism(m, iso.target, iso.comps, check=True)
        assert catalog.placement(m)[1] is iso
    assert (algebra is KRONECKER) == any(catalog.top(i) is None for i in range(len(catalog)))


def test_placement_at_a_large_prime():
    p = 2**31 - 1
    entries = (Module(A2, p, (1, 0), {}), Module(A2, p, (0, 1), {}),
               Module(A2, p, (1, 1), {"a": Mat.identity(p, 1)}))
    catalog = Catalog(A2, p, 1, entries)
    for expected, m in _modules_to_decompose(catalog, np.random.default_rng(37), 8):
        summands, iso = catalog.placement(m)
        assert summands == tuple(sorted(expected.elements())) and iso.is_isomorphism()
        quivrep.Morphism(m, iso.target, iso.comps, check=True)


def test_placement_by_splits_reports_a_missing_summand():
    # a Kronecker summand with End/rad = F_4 sends the module to the split
    # loop, which says which summand the catalog lacks
    full = enumerate_indecomposables(KRONECKER, 2, 2)
    wide = next(i for i in range(len(full)) if full.top(i) is None)
    gone = next(i for i in range(len(full)) if i != wide and full.top(i) is not None)
    partial = Catalog(KRONECKER, 2, 2, tuple(u for i, u in enumerate(full.indecs) if i != gone))
    m = direct_sum([full.indecs[wide], full.indecs[gone]])
    with pytest.raises(CatalogIncompleteError, match=re.escape(f"{full.indecs[gone].dims_by_vertex} not in catalog")):
        partial.placement(m)
    assert m not in partial._decompose_memo


def test_tables_compose_the_catalogs_hom_bases(bundle):
    # entry [b][c][a] of compose(i, j, k) holds coordinate c of
    # hom(j, k)[b] @ hom(i, j)[a], so the basis maps summed with them give
    # the composite; hom_coords reads a map's coordinates off its entries
    cat = bundle.mod_lambda
    n, checked = len(cat), 0
    for i, j, k in itertools.product(range(n), repeat=3):
        table = cat.compose(i, j, k)
        assert len(table) == cat.dim_hom(j, k)
        assert all(len(rows) == cat.dim_hom(i, k) and all(len(row) == cat.dim_hom(i, j) for row in rows)
                   for rows in table)
        for (b, g), (a, f) in itertools.product(enumerate(cat.hom(j, k)), enumerate(cat.hom(i, j))):
            total = quivrep.zero_morphism(cat.indecs[i], cat.indecs[k])
            for c, h in zip([row[a] for row in table[b]], cat.hom(i, k)):
                total = total + h.scale(int(c))
            assert total == g @ f
            checked += 1
    assert checked == 165


def test_catalog_index_finds_entries_only(bundle):
    cat = bundle.mod_a
    assert [cat.index(m) for m in cat.indecs] == list(range(len(cat)))
    twin = Module(A2, 2, cat.indecs[0].dims, dict(cat.indecs[0].action))
    assert cat.index(twin) == 0
    with pytest.raises(ValueError, match="not an entry"):
        cat.index(direct_sum([cat.indecs[0], cat.indecs[1]]))


def test_a_module_equals_itself_without_building_keys(a2_catalog, monkeypatch):
    # an SES checks its ends against its maps' ends, most often the same
    # objects: identity answers before any key tuple is built
    keys = []
    real = Module.key

    def spy(m):
        keys.append(m)
        return real(m)

    monkeypatch.setattr(Module, "key", spy)
    m = a2_catalog.indecs[0]
    assert m == m and not (m != m)
    assert keys == []
    assert m == Module(A2, 2, m.dims, dict(m.action)) and len(keys) == 2


def test_catalog_incomplete_message_is_the_split_loops():
    # D4 has one indecomposable past bound 1, at (2, 1, 1, 1)
    small, full = enumerate_indecomposables(D4, 1, 2), enumerate_indecomposables(D4, 2, 2)
    m = _base_changed(direct_sum([small.indecs[0], full.indecs[-1], small.indecs[5]]), np.random.default_rng(4))
    messages = []
    for route in (decompose, quivrep._decompose_by_splits):
        with pytest.raises(CatalogIncompleteError) as err:
            route(m, small)
        messages.append(str(err.value))
    assert messages == ["indecomposable summand of dims {'0': 2, '1': 1, '2': 1, '3': 1} not in catalog"] * 2


def test_decompose_by_rank_at_a_large_prime():
    # A2's grid at (1, 1) has p cells past the ceiling here, so the
    # catalog is built by hand; the top of an endomorphism is read off its
    # p-th power, and every product stays exact
    p = 2**31 - 1
    entries = (Module(A2, p, (1, 0), {}), Module(A2, p, (0, 1), {}),
               Module(A2, p, (1, 1), {"a": Mat.identity(p, 1)}))
    catalog = Catalog(A2, p, 1, entries)
    for expected, m in _modules_to_decompose(catalog, np.random.default_rng(31), 12):
        assert decompose(m, catalog) == quivrep._decompose_by_splits(m, catalog) == expected


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_decompose_direct_sum_round_trip(a2_catalog, data):
    indices = data.draw(st.lists(st.integers(0, 2), min_size=0, max_size=4))
    total = direct_sum([a2_catalog.indecs[i] for i in indices], algebra=A2, p=2)
    expected = {}
    for i in indices:
        expected[i] = expected.get(i, 0) + 1
    assert dict(decompose(total, a2_catalog)) == expected


def test_kernel_cokernel_shapes(a2_catalog):
    s2 = a2_catalog.indecs[by_dims(a2_catalog, (0, 1))]
    p1 = a2_catalog.indecs[by_dims(a2_catalog, (1, 1))]
    incl = hom_basis(s2, p1)[0]
    k, _ = kernel(incl)
    assert k.is_zero()
    cok, proj, _ = cokernel(incl)
    assert cok.dims == (1, 0)
    assert proj.is_surjective()


def test_bound_one_counts_on_bundle_algebras(bundle):
    small_a = enumerate_indecomposables(A2_ALGEBRA, 1, 2)
    small_l = enumerate_indecomposables(bundle.lambda_algebra, 1, 2)
    assert len(small_a) == 3
    assert len(small_l) == 11
    # every indecomposable here fits under bound 1, so bound 2 only confirms
    for a, b in zip(small_l.indecs, bundle.mod_lambda.indecs):
        assert a.dims == b.dims and a.action == b.action
    assert all(not m.is_zero() for m in small_l.indecs)


def test_indec_is_not_sum_of_layers(bundle):
    # the (1,1,1,1) module with identity connecting map is not isomorphic
    # to the direct sum of its two layers
    cat = bundle.mod_lambda
    glued = cat.indecs[bundle.lambda_names["[P1;P1]_1"]]
    split = direct_sum([
        cat.indecs[bundle.lambda_names["[P1;0]_0"]],
        cat.indecs[bundle.lambda_names["[0;P1]_0"]],
    ])
    assert glued.dims == split.dims
    assert not is_isomorphic(glued, split)


def test_d4_enumeration_appends():
    c1 = enumerate_indecomposables(D4, 1, 2)
    c2 = enumerate_indecomposables(D4, 2, 2)
    assert len(c1) == 11 and len(c2) == 12
    for a, b in zip(c1.indecs, c2.indecs):
        assert a.dims == b.dims and a.action == b.action
    assert c2.indecs[-1].dims == (2, 1, 1, 1)


def test_kronecker_regulars_count():
    assert len(enumerate_indecomposables(KRONECKER, 1, 2)) == 5
    assert len(enumerate_indecomposables(KRONECKER, 1, 3)) == 6


def _orbit_representatives(algebra, p, dv):
    """One arrow-matrix tuple per isomorphism class at this dimension
    vector: the lexicographically first tuple of each relation-satisfying
    orbit, in ascending order."""
    valid = quivrep._relation_mask(algebra, p, quivrep._arrow_shapes(algebra, dv))
    grid, shapes, cells, label = quivrep._orbit_labels(algebra, p, dv, valid, {})
    reps = cells[quivrep._self_labelled(label)]
    return quivrep._actions(algebra, p, quivrep._matrices_at(p, grid, shapes, reps), len(reps))


def _bfs_orbit_representatives(algebra, p, dv):
    """Reference orbit search: scan matrix tuples one at a time in
    lexicographic order, keep each relation-satisfying tuple not seen yet,
    and mark its whole orbit by breadth-first search under base change."""
    arrows = algebra.arrows
    vidx = {v: i for i, v in enumerate(algebra.vertices)}
    shapes = [(dv[vidx[a.tgt]], dv[vidx[a.src]]) for a in arrows]
    mats, index = [], []
    for r, c in shapes:
        ms = [np.array(flat, dtype=np.int64).reshape(r, c)
              for flat in itertools.product(range(p), repeat=r * c)]
        mats.append(ms)
        index.append({m.tobytes(): i for i, m in enumerate(ms)})
    arrow_pos = {a.name: k for k, a in enumerate(arrows)}
    rel_progs = [[(coeff, [arrow_pos[name] for name in path]) for coeff, path in rel]
                 for rel in algebra.relations
                 if dv[vidx[algebra.path_source(rel[0][1])]] and dv[vidx[algebra.path_target(rel[0][1])]]]

    def relations_ok(combo):
        for prog in rel_progs:
            total = 0
            for coeff, positions in prog:
                acc = mats[positions[0]][combo[positions[0]]]
                for pos in positions[1:]:
                    acc = acc @ mats[pos][combo[pos]]
                total = total + coeff * acc
            if (total % p).any():
                return False
        return True

    # all of GL(d_v): every transvection E_ij(lam) and every diag(lam, 1, ..., 1)
    tables = []
    for v, i in vidx.items():
        d = dv[i]
        gens = []
        for lam in range(1, p):
            for r in range(d):
                for c in range(d):
                    if (r == c == 0 and lam > 1) or (r != c):
                        g = np.eye(d, dtype=np.int64)
                        g[r, c] = lam
                        gens.append(g)
        for g in gens:
            g_inv = Mat(p, g).inverse().a
            tbl = {}
            for k, a in enumerate(arrows):
                if 0 in shapes[k] or v not in (a.src, a.tgt):
                    continue
                mapping = []
                for m in mats[k]:
                    out = m
                    if a.tgt == v:
                        out = g @ out % p
                    if a.src == v:
                        out = out @ g_inv % p
                    mapping.append(index[k][np.ascontiguousarray(out).tobytes()])
                tbl[k] = mapping
            if tbl:
                tables.append(tbl)

    seen, reps = set(), []
    for combo in itertools.product(*[range(len(ms)) for ms in mats]):
        if combo in seen or not relations_ok(combo):
            continue
        reps.append(combo)
        seen.add(combo)
        queue = [combo]
        while queue:
            cur = queue.pop()
            for tbl in tables:
                nxt = tuple(tbl[k][cur[k]] if k in tbl else cur[k] for k in range(len(arrows)))
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return [{a.name: Mat(p, mats[k][combo[k]]) for k, a in enumerate(arrows)} for combo in reps]


@pytest.mark.parametrize("algebra, p, bound", [
    (A2, 3, 2), (A3_LINEAR, 2, 2), (A3_SINK, 2, 2), (KRONECKER, 3, 2), (A3_ZERO, 3, 2),
    (LAMBDA, 2, 1), (LAMBDA, 2, 2), (THREE_TERMS, 2, 2), (THREE_TERMS, 3, 1),
    (DUAL_NUMBERS, 2, 3), (DUAL_NUMBERS, 3, 2),
], ids=["A2", "A3-linear", "A3-sink", "Kronecker", "A3-zero-relation", "Lambda-1", "Lambda-2",
        "three-terms-2", "three-terms-3", "loop-2", "loop-3"])
def test_orbit_representatives_match_the_bfs_oracle(algebra, p, bound):
    for dv in _dim_vectors(len(algebra.vertices), bound):
        assert _orbit_representatives(algebra, p, dv) == _bfs_orbit_representatives(algebra, p, dv), dv


# every dimension vector up to the bound, so vertices of dimension 0 sit
# at a relation's ends and in the middle of its paths
@pytest.mark.parametrize("algebra, p, bound", [
    (THREE_TERMS, 2, 2), (THREE_TERMS, 3, 1), (DUAL_NUMBERS, 2, 3), (DUAL_NUMBERS, 3, 2),
    (A4_PATH3, 2, 2), (A3_ZERO, 3, 2), (LAMBDA, 2, 2), (LAMBDA, 3, 1), (CYCLE, 2, 2),
], ids=["three-terms-2", "three-terms-3", "loop-2", "loop-3", "path-of-length-3",
        "A3-zero-relation", "Lambda-2", "Lambda-3", "cycle"])
def test_relation_mask_matches_the_oracle(algebra, p, bound):
    some_fail = False
    for dv in _dim_vectors(len(algebra.vertices), bound):
        shapes = quivrep._arrow_shapes(algebra, dv)
        got = quivrep._relation_mask(algebra, p, shapes)
        assert np.array_equal(got, relation_mask_by_totals(algebra, p, shapes)), dv
        some_fail = some_fail or not got.all()
    assert some_fail


@pytest.mark.parametrize("n", [8, 9])
def test_relation_mask_compares_rows_where_a_whole_value_code_would_overflow(n):
    # at dims (n, 1), b.a is an n x n outer product, whose code as a whole
    # matrix at p = 2 runs up to 2**(n*n): at n = 8 it wraps int64 (as a bit
    # pattern, still one code per matrix), at n = 9 two matrices share a
    # code.  b.a vanishes iff a or b does, and the 1 x 1 value a.b then does too
    shapes = quivrep._arrow_shapes(CYCLE, (n, 1))
    assert shapes == [(1, n), (n, 1)]
    got = quivrep._relation_mask(CYCLE, 2, shapes)
    assert np.array_equal(got, relation_mask_by_totals(CYCLE, 2, shapes))
    assert got.sum() == 2 * 2 ** n - 1 and got[0].all() and got[:, 0].all()


def test_gl_generators_need_no_loop_over_the_field():
    assert _primitive_root(2147483647) == 7
    assert [_primitive_root(p) for p in (2, 3, 5, 7, 11, 13)] == [1, 2, 2, 3, 2, 2]
    assert len(_gl_generators(2, 2147483647)) == 3
    assert len(_gl_generators(3, 2)) == 6


@pytest.mark.parametrize("p", [2, 3, 7, 2147483647])
def test_gl_generator_inverses_are_inverse(p):
    for d in range(4):
        for g, g_inv in _gl_generators(d, p):
            # object arrays keep Python integers, so nothing overflows at large p
            eye = np.eye(d, dtype=np.int64)
            assert np.array_equal(g.astype(object) @ g_inv.astype(object) % p, eye)
            assert np.array_equal(g_inv.astype(object) @ g.astype(object) % p, eye)


@functools.lru_cache(maxsize=None)
def _split_test_enumeration(algebra, bound, p):
    """Reference enumeration: keep each orbit representative from which no
    earlier indecomposable splits off (a Hom computation per pair)."""
    found = []
    for dv in _dim_vectors(len(algebra.vertices), bound):
        for action in _orbit_representatives(algebra, p, dv):
            m = Module(algebra, p, dv, action, check=False)
            if not any(split_off_summand(u, m) is not None for u in found):
                found.append(m)
    return Catalog(algebra, p, bound, tuple(found))


# the catalog-sweep benchmark's shapes among them: A3 over F_3, and A4 and D4
# over F_2 with a sink, a source and an alternating or mixed orientation
ORACLE_CASES = pytest.mark.parametrize("algebra, p, bound", [
    (A2, 3, 2), (A3_LINEAR, 2, 2), (A3_SINK, 2, 2), (A3_LINEAR, 3, 2), (A3_SINK, 3, 2),
    (A4_LINEAR, 2, 2), (A4, 2, 2), (D4, 2, 2), (D4_SOURCE, 2, 2), (D4_MIXED, 2, 2),
    (KRONECKER, 2, 2), (KRONECKER, 3, 2),
    (A3_ZERO, 3, 2), (DUAL_NUMBERS, 2, 3), (DUAL_NUMBERS, 3, 3), (LAMBDA, 2, 2), (LAMBDA, 3, 1),
    (POINT, 2, 3), (TWO_POINTS, 3, 2), (TWO_ARROWS, 2, 2),
], ids=["A2", "A3-linear", "A3-sink", "A3-linear-3", "A3-sink-3",
        "A4-linear", "A4-alternating", "D4-sink", "D4-source", "D4-mixed", "Kronecker-2", "Kronecker-3",
        "A3-zero-relation", "dual-numbers-2", "dual-numbers-3", "Lambda-2-2", "Lambda-3-1",
        "point", "two-points", "two-arrows"])


@ORACLE_CASES
def test_enumeration_matches_the_split_test_oracle(algebra, p, bound):
    expected = _split_test_enumeration(algebra, bound, p).to_json_dict()
    assert enumerate_indecomposables(algebra, bound, p).to_json_dict() == expected


@ORACLE_CASES
def test_the_support_lemma_skips_only_where_the_oracle_finds_nothing(algebra, p, bound):
    found = {m.dims for m in _split_test_enumeration(algebra, bound, p).indecs}
    for dv in _dim_vectors(len(algebra.vertices), bound):
        if not quivrep._may_hold_indecomposable(algebra, dv):
            assert dv not in found, dv


@pytest.mark.parametrize("n, isolated", [(3, [1]), (3, [0, 2]), (3, [0, 1, 2]), (4, [3])])
def test_dim_vectors_at_isolated_vertices_are_their_units(n, isolated):
    # the full listing, in its order, less the vectors nonzero at an isolated
    # vertex other than its unit vector
    for bound in (1, 2, 3):
        def kept(t):
            return sum(t) == 1 or not any(t[i] for i in isolated)
        expected = [t for t in _dim_vectors(n, bound) if kept(t)]
        assert _dim_vectors(n, bound, isolated) == expected, bound


def test_the_support_lemma_reads_support_and_arrow_room():
    may = quivrep._may_hold_indecomposable
    # simples always; a disconnected support never
    assert may(TWO_POINTS, (1, 0)) and not may(TWO_POINTS, (1, 1)) and not may(POINT, (2,))
    assert may(A3_LINEAR, (1, 1, 1)) and not may(A3_LINEAR, (1, 0, 1))
    assert may(TWO_ARROWS, (1, 1, 0, 0)) and not may(TWO_ARROWS, (1, 1, 1, 1))
    # D4 with a sink centre: 2 at the centre fits 1 + 1 + 1 around it, 2 at a leaf does not fit 1
    assert may(D4, (2, 1, 1, 1)) and not may(D4, (1, 2, 1, 1)) and not may(D4, (2, 1, 0, 0))
    # the Kronecker quiver gives each end twice the room; a loop gives room at its own vertex
    assert may(KRONECKER, (2, 1)) and not may(KRONECKER, (3, 1))
    assert may(DUAL_NUMBERS, (3,))


@pytest.mark.parametrize("algebra, p, bound, dim_vectors, searches, widest, strike_outs", [
    (LAMBDA, 2, 2, 80, 11, 16, 11), (LAMBDA, 3, 1, 15, 11, 81, 11), (A2, 2, 2, 8, 3, 2, 3),
], ids=["Lambda-2-2", "Lambda-3-1", "modA-2-2"])
def test_enumeration_searches_orbits_only_where_an_indecomposable_is_left(
        monkeypatch, algebra, p, bound, dim_vectors, searches, widest, strike_outs):
    labelled, struck = [], []
    orbit_labels, strike_out = quivrep._orbit_labels, quivrep._strike_out

    def label_spy(alg, p, dv, valid, index_maps):
        labelled.append((dv, valid.size))
        return orbit_labels(alg, p, dv, valid, index_maps)

    def strike_spy(alg, p, found, sums, orbits):
        struck.append(orbits)
        return strike_out(alg, p, found, sums, orbits)

    monkeypatch.setattr(quivrep, "_orbit_labels", label_spy)
    monkeypatch.setattr(quivrep, "_strike_out", strike_spy)
    catalog = enumerate_indecomposables(algebra, bound, p)
    dvs = _dim_vectors(len(algebra.vertices), bound)
    assert (len(dvs), len(labelled), len(struck)) == (dim_vectors, searches, strike_outs)
    # the orbit counts certify every other dimension vector, so only those
    # of the entries are labelled (Lambda at p = 2 labelled 48 grids of up
    # to 65,536 cells before they were counted)
    assert [dv for dv, _ in labelled] == [m.dims for m in catalog.indecs]
    assert max(size for _, size in labelled) == widest
    # these catalogs have one indecomposable per dimension vector, and a
    # strike-out runs only where one is left
    assert len(catalog) == len({m.dims for m in catalog.indecs}) == strike_outs


def test_enumeration_builds_each_index_map_once(monkeypatch):
    # the three-term relation's algebra at p = 2, bound 2 labels 14 grids,
    # whose generators move single arrows 66 times in all with only 8
    # different index maps; the spy sees each map's arguments, so a map
    # built twice shows
    built, masked, labelled = [], [], []
    moved_codes, relation_mask, orbit_labels = quivrep._moved_codes, quivrep._relation_mask, quivrep._orbit_labels

    def moved_spy(p, rows, cols, left, right):
        built.append((p, rows, cols, left.tobytes(), right.tobytes()))
        return moved_codes(p, rows, cols, left, right)

    def mask_spy(algebra, p, shapes):
        masked.append(shapes)
        return relation_mask(algebra, p, shapes)

    def label_spy(alg, p, dv, valid, index_maps):
        labelled.append(dv)
        return orbit_labels(alg, p, dv, valid, index_maps)

    monkeypatch.setattr(quivrep, "_moved_codes", moved_spy)
    monkeypatch.setattr(quivrep, "_relation_mask", mask_spy)
    monkeypatch.setattr(quivrep, "_orbit_labels", label_spy)
    assert len(enumerate_indecomposables(THREE_TERMS, 2, 2)) == 35
    assert len(labelled) == 14
    assert len(built) == len(set(built)) == 8
    # with relations, one mask per counted dimension vector, which the
    # labelling reuses: mod Lambda counts 48 and labels 11 of them
    assert len(masked) == 19
    masked.clear()
    assert len(enumerate_indecomposables(LAMBDA, 2, 2)) == 11
    assert len(masked) == 48


@pytest.mark.parametrize("algebra, p, bound, builds", [
    (LAMBDA, 2, 2, [(1, 2)]), (LAMBDA, 3, 1, [(1, 3)]), (A2, 5, 2, [(1, 5)]),
], ids=["Lambda-2-2", "Lambda-3-1", "modA-5-2"])
def test_enumeration_builds_each_gl_generator_set_once(monkeypatch, algebra, p, bound, builds):
    # the generators of GL(d, F_p) are built only where an index map is
    # missing, and then once per (d, p) for the whole enumeration; here
    # every grid with d_v = 2 is certified by its count and never labelled
    built = []
    gl_generators = quivrep._gl_generators

    def spy(d, p):
        built.append((d, p))
        return gl_generators(d, p)

    monkeypatch.setattr(quivrep, "_gl_generators", spy)
    enumerate_indecomposables(algebra, bound, p)
    assert sorted(built) == builds


def _bundled(name):
    return parse_algebra_text((pathlib.Path(__file__).parent / "algebras" / name).read_text())


COUNT_CASES = [(A2, p, bound) for p, bound in ((2, 2), (3, 1), (5, 1))]
COUNT_CASES += [(LAMBDA, p, bound) for p, bound in ((2, 2), (3, 1), (5, 1))]
COUNT_CASES += [(_bundled(name), p, 2) for name in ("a2_isolated.alg", "a4_alternating.alg", "d4_source.alg")
                for p in (2, 3)]
# summands that are no bricks, where the count does not apply
COUNT_CASES += [(KRONECKER, 2, 2), (DUAL_NUMBERS, 2, 3)]


@pytest.mark.parametrize("algebra, p, bound", COUNT_CASES, ids=[
    "modA-2-2", "modA-3-1", "modA-5-1", "Lambda-2-2", "Lambda-3-1", "Lambda-5-1",
    "a2-isolated-2", "a2-isolated-3", "a4-alternating-2", "a4-alternating-3", "d4-source-2", "d4-source-3",
    "Kronecker-2", "dual-numbers-2"])
def test_orbit_sizes_are_the_orbit_stabilizer_counts(algebra, p, bound):
    """The orbit labels check the count at every dimension vector up to the
    bound, those the enumeration certifies by counting included: the orbit
    of each sum S of bricks holds |G_d| / |Aut S| tuples for the |Aut S|
    that _Automorphisms computes, the orbit of each brick entry
    |G_d| / (p - 1), and there is one orbit per class."""
    catalog = enumerate_indecomposables(algebra, bound, p)
    automorphisms = quivrep._Automorphisms(p, catalog.indecs)
    classes, index_maps, refused = {}, {}, 0
    for dv in _dim_vectors(len(algebra.vertices), bound):
        entries = [(k,) for k, m in enumerate(catalog.indecs) if m.dims == dv]
        classes[dv] = quivrep._sums_at(catalog.indecs, classes, dv) + entries
        valid = quivrep._relation_mask(algebra, p, quivrep._arrow_shapes(algebra, dv))
        grid, shapes, cells, label = quivrep._orbit_labels(algebra, p, dv, valid, index_maps)
        sizes = np.bincount(label, minlength=len(cells))
        group = math.prod(quivrep._gl_order(d, p) for d in dv)
        assert len(quivrep._self_labelled(label)) == len(classes[dv]), dv
        for ms in classes[dv]:
            m = catalog.sum_of(ms)
            at = quivrep._cells_at(p, grid, [m.action[a.name].a[None] for a in algebra.arrows], 1)
            size = sizes[label[np.searchsorted(cells, at[0])]]
            order = automorphisms.order(ms)
            bricks = all(catalog.dim_hom(i, i) == 1 for i in ms)
            assert (order is not None) == bricks, (dv, ms)
            refused += not bricks
            if bricks:
                assert size * order == group, (dv, ms)
            if bricks and ms in entries:
                assert size * (p - 1) == group, (dv, ms)
    assert refused if algebra in (KRONECKER, DUAL_NUMBERS) else not refused
    for i in range(len(catalog)):
        for j in range(len(catalog)):
            assert len(catalog.hom(i, j)) == catalog.dim_hom(i, j), (i, j)


def test_a_count_above_the_tuples_raises(monkeypatch):
    # a decomposable count above the tuple count is a broken invariant, not
    # a reason to label: with |GL(d, F_2)| doubled, S1 + S2 of A2 fills 4
    # of the 2 tuples at (1, 1)
    gl_order = quivrep._gl_order
    monkeypatch.setattr(quivrep, "_gl_order", lambda d, p: 2 * gl_order(d, p))
    with pytest.raises(AssertionError, match=r"\(1, 1\) fill 4 of its 2 tuples"):
        enumerate_indecomposables(A2, 1, 2)


def test_enumeration_runs_no_split_test(monkeypatch):
    calls = []

    def spy(u, m):
        calls.append((u, m))
        return split_off_summand(u, m)

    monkeypatch.setattr(quivrep, "split_off_summand", spy)
    catalog = enumerate_indecomposables(LAMBDA, 2, 2)
    assert len(catalog) == 11 and calls == []
    # decomposing reads multiplicities off ranks, with no split test either
    assert catalog.decompose(catalog.sum_of([0, 1])) == {0: 1, 1: 1} and calls == []
    # the spy is live: the split loop goes through it
    quivrep._decompose_by_splits(catalog.sum_of([0, 1]), catalog)
    assert calls


@pytest.mark.parametrize("algebra, p, bound, dims", [
    (POINT, 2, 3, [(1,)]),
    # the split-test oracle cannot run here: Mat refuses its composites
    # with inner dimension 3 at this prime as an int64 overflow risk
    (POINT, 2147483647, 3, [(1,)]),
    (TWO_POINTS, 3, 2, [(0, 1), (1, 0)]),
])
def test_quivers_without_arrows_have_only_simples(algebra, p, bound, dims):
    catalog = enumerate_indecomposables(algebra, bound, p)
    assert sorted(m.dims for m in catalog.indecs) == dims


def test_enumeration_refuses_a_grid_beyond_the_ceiling():
    # A2 at (2, 2) over F_47 has 47**4 > MAX_GRID_CELLS tuples; bound 1 has 47
    assert 47 ** 4 > MAX_GRID_CELLS
    with pytest.raises(ValueError, match=r"\{'1': 2, '2': 2\} has 4879681 arrow-matrix tuples"):
        enumerate_indecomposables(A2, 2, 47)
    assert len(enumerate_indecomposables(A2, 1, 47)) == 3


def test_every_hom_basis_element_commutes(a2_catalog):
    for i in range(3):
        for j in range(3):
            for phi in a2_catalog.hom(i, j):
                src, tgt = phi.source, phi.target
                for arr in A2.arrows:
                    assert tgt.action[arr.name] @ phi.comps[arr.src] == \
                        phi.comps[arr.tgt] @ src.action[arr.name]


@pytest.mark.parametrize("rows, cols, k", [
    (0, 0, 0), (0, 3, 2), (2, 0, 3), (2, 3, 0), (1, 1, 1),
    (1, 4, 1), (3, 1, 2), (2, 3, 4), (4, 4, 3),
])
def test_kron_free_blocks_match_np_kron(rows, cols, k):
    """X -> a X and X -> X b with I_k on the other side, alone and added
    at one block of a wider matrix, give np.kron's blocks."""
    p = 7
    rng = np.random.default_rng(rows * 100 + cols * 10 + k)
    a = rng.integers(-3, 4, size=(rows, cols), dtype=np.int64)
    b = rng.integers(-3, 4, size=(cols, rows), dtype=np.int64)
    eye = np.eye(k, dtype=np.int64)
    for terms, block in (([(1, 2, a, k)], np.kron(a, eye)),
                         ([(1, 2, k, b)], np.kron(eye, b.T)),
                         ([(1, 2, a, k), (1, 2, k, b)], np.kron(a, eye) + np.kron(eye, b.T))):
        expected = np.zeros((rows * k + 1, cols * k + 5), dtype=np.int64)
        expected[1:, 2:2 + cols * k] = block
        assert _kron_map(p, rows * k + 1, cols * k + 5, terms) == Mat(p, expected)


def test_batched_coords_agree_with_the_basis(a2_catalog):
    cat = a2_catalog
    s1 = cat.indecs[by_dims(cat, (1, 0))]
    ss = direct_sum([s1, s1])
    ends = hom_basis(ss, ss)  # 4-dimensional, so sums of basis maps are new images
    spaces = [(m, n, cat.hom(i, j)) for i, m in enumerate(cat.indecs) for j, n in enumerate(cat.indecs)]
    for m, n, basis in spaces + [(ss, ss, ends)]:
        images = list(basis) + [b + c for b, c in zip(basis, basis[1:])]
        coords = morphism_coords_many(images, basis)
        assert coords.shape == (len(basis), len(images))
        for k, phi in enumerate(images):
            assert morphism_from_coords(coords[:, k], basis, m, n) == phi
            assert np.array_equal(morphism_coords(phi, basis), coords[:, k])
        assert morphism_coords_many([], basis).shape == (len(basis), 0)
        # span_rank reads the same rank without solving for coordinates
        for part in (images, images[len(basis):], images[:1], images[1:2] * 2):
            assert span_rank(part) == Mat(cat.p, morphism_coords_many(part, basis)).rank()
    with pytest.raises(ValueError):
        morphism_coords_many(ends[1:], ends[:1])
    with pytest.raises(ValueError):
        morphism_coords_many(ends[:1], [])


def test_hom_dim_is_iso_invariant(a2_catalog):
    # compare Hom dims against a scrambled-basis copy of P1
    p1 = a2_catalog.indecs[by_dims(a2_catalog, (1, 1))]
    other = Module(A2, 2, (1, 1), {"a": Mat.from_rows(2, [[1]])})
    assert is_isomorphic(p1, other)
    for m in a2_catalog.indecs:
        assert len(hom_basis(m, p1)) == len(hom_basis(m, other))
        assert len(hom_basis(p1, m)) == len(hom_basis(other, m))


# -- text format ------------------------------------------------------------


SQUARE_TEXT = """\
vertex 1x
vertex 2x
vertex 1y
vertex 2y
arrow ax 1x 2x
arrow ay 1y 2y
arrow c1 1y 1x
arrow c2 2y 2x
relation 1*ax.c1 + -1*c2.ay
"""


def test_text_round_trip():
    algebra = parse_algebra_text(SQUARE_TEXT)
    assert dump_algebra_text(algebra) == SQUARE_TEXT
    assert parse_algebra_text(dump_algebra_text(algebra)) == algebra


def test_text_comments_and_blanks():
    text = "# a comment\n\nvertex 1\nvertex 2\narrow a 1 2  # trailing\n"
    algebra = parse_algebra_text(text)
    assert algebra.vertices == ("1", "2")


@pytest.mark.parametrize("bad,line", [
    ("vertex\n", 1),
    ("vertex 1\nnonsense 2\n", 2),
    ("vertex 1\nvertex 2\narrow a 1\n", 3),
    ("vertex 1\nvertex 2\narrow a 1 2\nrelation 1*a +\n", 4),
    ("vertex 1\nvertex 2\narrow a 1 2\nrelation a\n", 4),
    ("vertex 1\nvertex 2\nrelation 1*z.a\narrow a 1 2\n", 3),
    ("vertex 1\nvertex 1\n", 2),
    ("vertex 1\nvertex 2\narrow a 1 2\narrow a 2 1\n", 4),
    # an arrow may come before its vertices, but not name a missing one
    ("arrow a 1 2\nvertex 1\narrow b 1 3\nvertex 2\n", 3),
    ("vertex 1\nvertex 2\narrow a 1 2\n\nrelation 1*a.a\n", 5),
    ("vertex 1\nvertex 2\nvertex 3\narrow a 1 2\narrow b 1 3\nrelation 1*a + -1*b\n", 6),
])
def test_text_errors_carry_line_numbers(bad, line):
    with pytest.raises(AlgebraFormatError) as err:
        parse_algebra_text(bad)
    assert err.value.line_no == line
