"""Exact dense linear algebra over a prime field F_p.

Matrices are wrapped numpy int64 arrays with entries reduced mod p.
Every operation is exact.  Elimination (rref, and through it rank,
kernels, solving and inverses) runs on Python integers, which cannot
wrap, and converts back to int64 once; row_rank ranks rows of Python
integers by the same elimination and builds no Mat.  The int64 bound
concerns matrix products only: primes with (p-1)**2 >= 2**63 are
refused, and a product sums at most (2**63 - 1) // (p-1)**2 residue
products before it reduces mod p, so no int64 sum can wrap.  The only
division ever performed is by modular inverse.  No floats.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

DEFAULT_PRIME = 2
_INT64_LIMIT = 2**63


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@lru_cache(maxsize=None)
def _check_prime(p: int) -> int:
    """p itself, once it is known to be a prime inside the exact range.

    Every Mat and Module construction asks, so the answer is kept per p
    (trial division alone took 10 ms at p = 2**31 - 1).
    """
    if p > 1 and (p - 1) ** 2 >= _INT64_LIMIT:
        raise ValueError(f"modulus {p} is too large for exact int64 arithmetic: need (p-1)**2 < 2**63")
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    return p


def _gauss_jordan(p: int, rows: list[list[int]], cols: int) -> tuple[list[list[int]], tuple[int, ...]]:
    """rows (Python ints in [0, p), each row of length cols) reduced in
    place to reduced row echelon form, and the pivot columns.

    Each column's pivot is its first nonzero entry at or below the current
    row.  The systems eliminated here are small and sparse (in a
    `five-term` benchmark round the median is 2x2 and the largest 16x28),
    where a list comprehension per cleared row costs less than the numpy
    calls a pivot would make.  Dense random matrices at p = 2 break even
    with a numpy column loop near 16x28, and numpy wins beyond.
    """
    n = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        for i in range(r, n):
            if rows[i][c]:
                break
        else:
            continue
        top = rows[i]
        rows[i] = rows[r]
        if top[c] != 1:
            inv = pow(top[c], p - 2, p)
            top = [x * inv % p for x in top]
        rows[r] = top
        for k, row in enumerate(rows):
            f = row[c]
            if f and k != r:
                rows[k] = [(x - f * y) % p for x, y in zip(row, top)]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows, tuple(pivots)


def row_rank(p: int, rows: Sequence[Sequence[int]], cols: int) -> int:
    """The rank of the matrix with these rows of residues in [0, p), each
    of length cols; the rows themselves are left as they are."""
    return len(_gauss_jordan(p, list(rows), cols)[1])


class Mat:
    """Immutable dense matrix over F_p.

    Entries live in a read-only int64 numpy array of shape (rows, cols),
    already reduced mod p.  Shapes with zero rows or columns are legal
    and behave correctly under all operations.

    `Mat(p, array)` checks p and the array and reduces its entries; float
    and complex entries are refused rather than truncated.  Inside this
    module, `Mat._wrap(p, a)` wraps a result without those steps.  Its
    precondition: p is the modulus of an operand, so it was checked, and a
    is a 2-d int64 array with every entry in [0, p) that nothing else
    writes to.
    """

    __slots__ = ("p", "a", "_hash")

    def __init__(self, p: int, array):
        _check_prime(p)
        a = np.asarray(array)
        if a.dtype.kind in "fc" and a.size:
            raise ValueError(f"entries must be integers, got dtype {a.dtype}")
        if a.dtype != np.int64:
            a = np.asarray(array, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError(f"need a 2-d array, got shape {a.shape}")
        a = np.mod(a, p)
        a.setflags(write=False)
        self.p = p
        self.a = a
        self._hash = None

    @staticmethod
    def _wrap(p: int, a: np.ndarray) -> "Mat":
        """A Mat around a result of this module's own operations; see the
        class docstring for what a must satisfy."""
        m = object.__new__(Mat)
        a.setflags(write=False)
        m.p = p
        m.a = a
        m._hash = None
        return m

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(p: int, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "Mat":
        """The matrix with these rows; cols, when given, is every row's
        length, and the width of a matrix without rows."""
        if len(rows) == 0:
            return Mat(p, np.zeros((0, 0 if cols is None else cols), dtype=np.int64))
        if cols is not None and any(len(row) != cols for row in rows):
            raise ValueError(f"every row must have {cols} entries")
        return Mat(p, np.array(rows, dtype=np.int64))

    @staticmethod
    def zeros(p: int, rows: int, cols: int) -> "Mat":
        return Mat(p, np.zeros((rows, cols), dtype=np.int64))

    @staticmethod
    def identity(p: int, n: int) -> "Mat":
        return Mat(p, np.eye(n, dtype=np.int64))

    # -- basic structure ----------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.p == other.p
            and self.a.shape == other.a.shape
            and bool((self.a == other.a).all())
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.p, self.a.shape, self.a.tobytes()))
        return self._hash

    def __repr__(self):
        return f"Mat(p={self.p}, {self.a.tolist()})"

    def is_zero(self) -> bool:
        return not self.a.any()

    def tolist(self) -> list[list[int]]:
        return self.a.tolist()

    # -- arithmetic ----------------------------------------------------

    def _need_same_field(self, other: "Mat"):
        if self.p != other.p:
            raise ValueError("mixed moduli")

    def _need_same_shape(self, other: "Mat", op: str):
        self._need_same_field(other)
        if self.a.shape != other.a.shape:
            raise ValueError(f"shape mismatch {self.shape} {op} {other.shape}")

    def __add__(self, other: "Mat") -> "Mat":
        self._need_same_shape(other, "+")
        return Mat._wrap(self.p, np.mod(self.a + other.a, self.p))

    def __sub__(self, other: "Mat") -> "Mat":
        self._need_same_shape(other, "-")
        return Mat._wrap(self.p, np.mod(self.a - other.a, self.p))

    def __neg__(self) -> "Mat":
        return Mat._wrap(self.p, np.mod(-self.a, self.p))

    def __matmul__(self, other: "Mat") -> "Mat":
        self._need_same_field(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        p = self.p
        if not (self.rows and self.cols and other.cols):
            return Mat._wrap(p, np.zeros((self.rows, other.cols), dtype=np.int64))
        if self.cols * (p - 1) ** 2 < _INT64_LIMIT:
            return Mat._wrap(p, np.mod(self.a @ other.a, p))
        # sum slices of inner terms whose products stay inside int64
        step = (_INT64_LIMIT - 1) // (p - 1) ** 2
        out = np.zeros((self.rows, other.cols), dtype=np.int64)
        for k in range(0, self.cols, step):
            out = (out + (self.a[:, k:k + step] @ other.a[k:k + step]) % p) % p
        return Mat._wrap(p, out)

    def scale(self, c: int) -> "Mat":
        return Mat(self.p, self.a * (c % self.p))

    def transpose(self) -> "Mat":
        return Mat._wrap(self.p, self.a.T)

    def hstack(self, other: "Mat") -> "Mat":
        self._need_same_field(other)
        return Mat._wrap(self.p, np.hstack([self.a, other.a]))

    def vstack(self, other: "Mat") -> "Mat":
        self._need_same_field(other)
        return Mat._wrap(self.p, np.vstack([self.a, other.a]))

    # -- elimination ----------------------------------------------------

    def rref(self) -> tuple["Mat", tuple[int, ...]]:
        """Reduced row echelon form and pivot columns.

        Row operations only, so the row space is preserved; pivots carry
        a leading 1 and are the only nonzero entry of their column.
        """
        rows, cols = self.a.shape
        if not (rows and cols):
            return self, ()
        reduced, pivots = _gauss_jordan(self.p, self.a.tolist(), cols)
        return Mat._wrap(self.p, np.array(reduced, dtype=np.int64)), pivots

    def rank(self) -> int:
        return len(self.rref()[1]) if self.a.size else 0

    def kernel_basis(self) -> "Mat":
        """Basis of the right null space, one vector per column."""
        return Mat.echelon_kernel(*self.rref())

    @staticmethod
    def echelon_kernel(r: "Mat", pivots: Sequence[int]) -> "Mat":
        """The kernel basis read off a reduced echelon form and its pivots.

        One vector per free column, in order: 1 there, 0 at the other free
        columns, minus that column of r at the pivots.
        """
        free = [c for c in range(r.cols) if c not in pivots]
        p, entries = r.p, r.a.tolist()
        basis = np.zeros((r.cols, len(free)), dtype=np.int64)
        for k, fc in enumerate(free):
            basis[fc, k] = 1
            for row, pc in enumerate(pivots):
                basis[pc, k] = -entries[row][fc] % p
        return Mat._wrap(p, basis)

    def solve(self, b: "Mat") -> Optional["Mat"]:
        """One solution x of self @ x = b, or None when there is none.

        Free variables are set to zero, so x is the particular solution
        read off the reduced echelon form; kernel_basis() gives the rest.
        b may have several columns.
        """
        self._need_same_field(b)
        if b.rows != self.rows:
            raise ValueError(f"rhs has {b.rows} rows, expected {self.rows}")
        r, pivots = self.hstack(b).rref()
        if any(pc >= self.cols for pc in pivots):
            return None
        x = np.zeros((self.cols, b.cols), dtype=np.int64)
        x[list(pivots)] = r.a[:len(pivots), self.cols:]
        return Mat(self.p, x)

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("not square")
        ident = Mat.identity(self.p, self.rows)
        x = self.solve(ident)
        if x is None or self @ x != ident:
            raise ValueError("matrix is singular")
        return x
