"""Exact F_p linear algebra: worked examples plus randomized properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extriang.exactfield import Mat, is_prime
from oracles import rref_by_columns


def naive_rref(rows, p):
    """Independent straight-line Gaussian elimination oracle."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c] % p), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] % p:
                factor = m[i][c]
                m[i] = [(a - factor * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def matrices(p, max_dim=6):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(0, p - 1), min_size=c, max_size=c),
                min_size=r, max_size=r,
            )
        )
    )


def test_scalar_arithmetic():
    a = Mat.from_rows(5, [[3]])
    b = Mat.from_rows(5, [[4]])
    assert (a + b).tolist() == [[2]]
    assert (a @ b).tolist() == [[2]]
    assert (a @ b.inverse()).tolist() == [[(3 * pow(4, 3, 5)) % 5]]
    with pytest.raises(ValueError):
        Mat.from_rows(6, [[1]])
    assert not is_prime(1)


def test_prime_outside_exact_range_is_refused():
    # (p-1)**2 >= 2**63: int64 products of two residues would wrap; this
    # square used to come out as 4294966863 in every entry instead of 2
    p = 4294967311
    assert is_prime(p)
    with pytest.raises(ValueError, match="too large"):
        Mat.from_rows(p, [[p - 1, p - 1], [p - 1, p - 1]])


def test_product_past_the_int64_guard_is_exact():
    # p = 2**31 - 1 is admitted, but an inner dimension n with
    # n * (p-1)**2 >= 2**63 could wrap the int64 sum of products, so such
    # products sum in slices reduced mod p; Python ints are the reference
    p = 2**31 - 1
    row = Mat.from_rows(p, [[p - 1, p - 1]])
    assert (row @ row.transpose()).tolist() == [[2]]
    row3 = Mat.from_rows(p, [[p - 1] * 3])
    assert (row3 @ row3.transpose()).tolist() == [[3]]
    rng = np.random.default_rng(7)
    a = rng.integers(0, p, size=(3, 7)).tolist()
    b = rng.integers(0, p, size=(7, 4)).tolist()
    exact = [[sum(a[i][k] * b[k][j] for k in range(7)) % p for j in range(4)] for i in range(3)]
    assert (Mat.from_rows(p, a) @ Mat.from_rows(p, b)).tolist() == exact
    empty = Mat.zeros(p, 2, 0) @ Mat.zeros(p, 0, 3)
    assert empty.tolist() == [[0] * 3] * 2


def test_rref_identity_over_f2():
    m = Mat.identity(2, 2)
    r, piv = m.rref()
    assert r == m and piv == (0, 1)


def test_rref_rank_one_over_f2():
    m = Mat.from_rows(2, [[1, 1], [1, 1]])
    r, piv = m.rref()
    assert r == Mat.from_rows(2, [[1, 1], [0, 0]])
    assert piv == (0,)


def test_rref_zero():
    m = Mat.zeros(2, 3, 3)
    r, piv = m.rref()
    assert r == m and piv == ()


def test_solve_identity():
    b = Mat.from_rows(5, [[2], [3]])
    assert Mat.identity(5, 2).solve(b) == b
    assert Mat.identity(5, 2).kernel_basis().cols == 0


def test_solve_underdetermined_f2():
    # all four vectors of F_2^2 confirm the kernel is spanned by (1,1)
    a = Mat.from_rows(2, [[1, 1]])
    x = a.solve(Mat.from_rows(2, [[0]]))
    ker = a.kernel_basis()
    assert x == Mat.from_rows(2, [[0], [0]])
    assert ker.cols == 1
    solutions = {
        (v0, v1)
        for v0 in range(2) for v1 in range(2)
        if (v0 + v1) % 2 == 0
    }
    assert solutions == {(0, 0), (1, 1)}
    assert tuple(ker.a[:, 0]) == (1, 1)


def test_solve_inconsistent():
    a = Mat.zeros(2, 1, 1)
    assert a.solve(Mat.from_rows(2, [[1]])) is None
    assert a.kernel_basis().cols == 1


def test_kernel_image_rank_examples():
    ident = Mat.identity(3, 4)
    assert ident.kernel_basis().cols == 0
    assert ident.rank() == 4

    z = Mat.zeros(2, 3, 4)
    assert z.kernel_basis().cols == 4 and z.rank() == 0

    m = Mat.from_rows(2, [[1, 0], [1, 0]])
    assert m.rank() == 1
    assert m.kernel_basis().cols == 1
    # cross-check by enumerating F_2^2
    kernel_vectors = {
        (v0, v1) for v0 in range(2) for v1 in range(2)
        if (1 * v0 + 0 * v1) % 2 == 0
    }
    assert kernel_vectors == {(0, 0), (0, 1)}
    assert tuple(m.kernel_basis().a[:, 0]) in kernel_vectors


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        Mat.identity(2, 2).solve(Mat.zeros(2, 3, 1))


def test_sum_and_difference_refuse_mismatched_shapes():
    # numpy would broadcast these to a 2x2 and a 1x3 matrix
    with pytest.raises(ValueError, match="shape mismatch"):
        Mat(2, [[1, 1]]) + Mat(2, [[1], [0]])
    with pytest.raises(ValueError, match="shape mismatch"):
        Mat(3, [[1, 2, 0]]) - Mat(3, [[1]])


def test_from_rows_checks_row_lengths_against_cols():
    # the width used to be read off the rows alone: a 1x2 matrix came back
    with pytest.raises(ValueError, match="every row must have 5 entries"):
        Mat.from_rows(2, [[1, 0]], cols=5)
    with pytest.raises(ValueError, match="every row must have 2 entries"):
        Mat.from_rows(3, [[1, 0], [1]], cols=2)
    assert Mat.from_rows(3, [[1, 0], [2, 1]], cols=2).shape == (2, 2)
    assert Mat.from_rows(3, [[], []], cols=0).shape == (2, 0)
    assert Mat.from_rows(3, [], cols=4).shape == (0, 4)


@pytest.mark.parametrize("p", [2, 5])
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_rank_nullity_and_idempotence(p, data):
    rows = data.draw(matrices(p))
    m = Mat.from_rows(p, rows)
    assert m.rank() + m.kernel_basis().cols == m.cols
    r, piv = m.rref()
    r2, piv2 = r.rref()
    assert r2 == r and piv2 == piv
    oracle_rows, oracle_piv = naive_rref(rows, p)
    assert r.tolist() == [row[:] for row in oracle_rows]
    assert list(piv) == oracle_piv


@pytest.mark.parametrize("p", [2, 5])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_solve_exactness(p, data):
    rows = data.draw(matrices(p))
    m = Mat.from_rows(p, rows)
    x_true = data.draw(st.lists(st.integers(0, p - 1), min_size=m.cols, max_size=m.cols))
    xt = Mat(p, np.array(x_true, dtype=np.int64).reshape(-1, 1))
    b = m @ xt
    x = m.solve(b)
    ker = m.kernel_basis()
    assert x is not None
    assert m @ x == b
    _, piv = m.rref()
    assert all(x.a[c, 0] == 0 for c in range(m.cols) if c not in piv)  # free variables are zero
    for k in range(ker.cols):
        v = Mat(p, ker.a[:, k].reshape(-1, 1))
        assert (m @ v).is_zero()


@st.composite
def eliminated(draw, p, max_rows=16, max_cols=24):
    """A matrix of up to max_rows x max_cols, zero rows or columns
    included: half the draws a product of two thin matrices, so of rank
    at most 3."""
    rows, cols = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    entry = st.integers(0, p - 1) | st.just(0)

    def entries(r, c):
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))

    if draw(st.booleans()):
        inner = draw(st.integers(0, 3))
        left, right = entries(rows, inner), entries(inner, cols)
        product = [[sum(x * right[k][j] for k, x in enumerate(row)) % p for j in range(cols)]
                   for row in left]
        return Mat.from_rows(p, product, cols)
    return Mat.from_rows(p, entries(rows, cols), cols)


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_elimination_agrees_with_the_numpy_and_naive_oracles(p, data):
    m = data.draw(eliminated(p))
    cols = m.cols
    r, pivots = m.rref()
    by_columns, by_columns_pivots = rref_by_columns(m)
    assert r == by_columns and pivots == by_columns_pivots
    naive, naive_pivots = naive_rref(m.tolist(), p)
    assert r.tolist() == naive and list(pivots) == naive_pivots
    assert m.rank() == len(by_columns_pivots)
    # the kernel basis the reduced form determines: the identity at the
    # free columns, minus the free columns of the reduced rows at the pivots
    free = [c for c in range(cols) if c not in by_columns_pivots]
    reduced = by_columns.tolist()
    expected = [[0] * len(free) for _ in range(cols)]
    for k, fc in enumerate(free):
        expected[fc][k] = 1
        for row, pc in enumerate(by_columns_pivots):
            expected[pc][k] = -reduced[row][fc] % p
    kernel = m.kernel_basis()
    assert kernel.shape == (cols, len(free)) and kernel.tolist() == expected
    assert (m @ kernel).is_zero()


def test_each_question_is_one_elimination(monkeypatch):
    calls = []
    rref = Mat.rref

    def counted(self):
        calls.append(self.shape)
        return rref(self)

    monkeypatch.setattr(Mat, "rref", counted)
    m = Mat.from_rows(5, [[1, 2, 0], [2, 4, 1], [0, 3, 3]])
    for question in (m.rank, m.kernel_basis, lambda: m.solve(Mat.identity(5, 3)), m.inverse):
        calls.clear()
        question()
        assert len(calls) == 1


def test_float_and_complex_entries_are_refused():
    # int() of 2.9 and -0.5 used to give [[2, 0]]: a silent wrong matrix
    for bad in ([[2.9, -0.5]], [[1.0]], np.array([[2.0]]), np.array([[1 + 0j]])):
        with pytest.raises(ValueError, match="must be integers"):
            Mat(3, bad)
    # integer arrays, bool arrays and lists of Python ints are reduced as before
    assert Mat(3, [[5, -1]]).tolist() == [[2, 2]]
    assert Mat(3, np.array([[7, -7]], dtype=np.int8)).tolist() == [[1, 2]]
    assert Mat(3, np.array([[True, False]])).tolist() == [[1, 0]]
    assert Mat(3, [[]]).shape == (1, 0)
    with pytest.raises(OverflowError):
        Mat(3, [[2**64]])


def mats(p, rows, cols):
    return st.lists(
        st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(lambda entries: Mat.from_rows(p, entries, cols))


def assert_canonical(m, p):
    """A read-only int64 array of residues, equal to and hashing as the
    matrix rebuilt from its entries by the checked constructor."""
    assert isinstance(m, Mat) and m.p == p
    assert m.a.dtype == np.int64 and m.a.ndim == 2
    assert not m.a.flags.writeable
    assert ((m.a >= 0) & (m.a < p)).all()
    twin = Mat.from_rows(p, m.tolist(), m.cols)
    assert m == twin and twin == m and hash(m) == hash(twin)


def results_of(a, b, d, rhs):
    """Every kind of result: a and b of one shape, d composable after a, rhs
    with a's rows."""
    out = [a + b, a - b, -a, a @ d, a.transpose(), a.hstack(b), a.vstack(b),
           a.rref()[0], a.kernel_basis()]
    x = a.solve(rhs)
    if x is not None:
        assert a @ x == rhs
        out.append(x)
    return out


@pytest.mark.parametrize("p", [2, 5])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_results_are_reduced_read_only_and_canonical(p, data):
    rows, inner, cols = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, b = data.draw(mats(p, rows, inner)), data.draw(mats(p, rows, inner))
    d = data.draw(mats(p, inner, cols))
    rhs = data.draw(mats(p, rows, data.draw(st.integers(0, 2))))
    for m in results_of(a, b, d, rhs):
        assert_canonical(m, p)
    assert a.rank() == len(a.rref()[1])
    naive = [[sum(int(a.a[i, k]) * int(d.a[k, j]) for k in range(inner)) % p for j in range(cols)]
             for i in range(rows)]
    assert (a @ d).tolist() == naive


@pytest.mark.parametrize("p", [2, 5])
def test_transpose_view_hashes_as_its_entries(p):
    m = Mat.from_rows(p, [[1, 2 % p, 3 % p], [4 % p, 0, 1]])
    t = m.transpose()
    assert t.a.flags.f_contiguous and not t.a.flags.c_contiguous
    assert_canonical(t, p)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)], ids=["0xn", "nx0", "0x0"])
@pytest.mark.parametrize("p", [2, 5])
def test_empty_shapes(p, shape):
    rows, cols = shape
    m = Mat.zeros(p, rows, cols)
    r, pivots = m.rref()
    assert r == m and pivots == () and m.rank() == 0
    assert m @ Mat.zeros(p, cols, 2) == Mat.zeros(p, rows, 2)
    assert Mat.zeros(p, 2, rows) @ m == Mat.zeros(p, 2, cols)
    x = m.solve(Mat.zeros(p, rows, 1))
    assert x == Mat.zeros(p, cols, 1)
    if rows:
        assert m.solve(Mat.from_rows(p, [[1]] * rows)) is None
    for result in (r, x, m @ Mat.zeros(p, cols, 2), Mat.zeros(p, 2, rows) @ m,
                   *results_of(m, m, Mat.zeros(p, cols, 1), Mat.zeros(p, rows, 1))):
        assert_canonical(result, p)
