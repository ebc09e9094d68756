"""Algebras, modules, Hom spaces, isomorphism, decomposition, enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extriang.exactfield import Mat
from extriang.quivrep import (
    Algebra,
    AlgebraFormatError,
    Arrow,
    CatalogIncompleteError,
    Module,
    _add_kron_eye,
    decompose,
    direct_sum,
    dump_algebra_text,
    enumerate_indecomposables,
    hom_basis,
    is_indecomposable,
    is_isomorphic,
    kernel,
    cokernel,
    morphism_coords,
    morphism_coords_many,
    morphism_from_coords,
    parse_algebra_text,
    zero_module,
)

A2 = Algebra(("1", "2"), (Arrow("a", "1", "2"),))
D4 = Algebra(("0", "1", "2", "3"),
             (Arrow("a1", "1", "0"), Arrow("a2", "2", "0"), Arrow("a3", "3", "0")))


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


def test_decompose_catalog_incomplete(a2_catalog):
    tiny = enumerate_indecomposables(A2, 1, 2)
    # restrict the catalog artificially to the two simples
    from extriang.quivrep import Catalog, _with_hom_table
    partial = _with_hom_table(A2, 2, 1, tuple(
        m for m in tiny.indecs if m.dims != (1, 1)))
    p1 = next(m for m in tiny.indecs if m.dims == (1, 1))
    with pytest.raises(CatalogIncompleteError):
        decompose(p1, partial)


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
    small_a = enumerate_indecomposables(bundle.a_algebra, 1, 2)
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
    kron = Algebra(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2")))
    assert len(enumerate_indecomposables(kron, 1, 2)) == 5
    assert len(enumerate_indecomposables(kron, 1, 3)) == 6


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
    rng = np.random.default_rng(rows * 100 + cols * 10 + k)
    a = rng.integers(-3, 4, size=(rows, cols), dtype=np.int64)
    out = np.zeros((rows * k, cols * k), dtype=np.int64)
    _add_kron_eye(out, a, k)
    assert np.array_equal(out, np.kron(a, np.eye(k, dtype=np.int64)))
    out = np.zeros((cols * k, rows * k), dtype=np.int64)
    _add_kron_eye(out, a.T, k, eye_first=True)
    assert np.array_equal(out, np.kron(np.eye(k, dtype=np.int64), a.T))
    # a column slice of a wider array is written in place and adds to it
    wide = np.ones((rows * k, cols * k + 5), dtype=np.int64)
    _add_kron_eye(wide[:, 2:2 + cols * k], a, k)
    assert np.array_equal(wide[:, 2:2 + cols * k], 1 + np.kron(a, np.eye(k, dtype=np.int64)))
    assert (wide[:, :2] == 1).all() and (wide[:, 2 + cols * k:] == 1).all()


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
])
def test_text_errors_carry_line_numbers(bad, line):
    with pytest.raises(AlgebraFormatError) as err:
        parse_algebra_text(bad)
    assert err.value.line_no == line


def test_catalog_json_round_trip(a2_catalog):
    from extriang.quivrep import Catalog
    text = a2_catalog.to_json()
    again = Catalog.from_json(text)
    assert again.to_json() == text
    assert [m.dims for m in again.indecs] == [m.dims for m in a2_catalog.indecs]
