"""Quivers with relations and their finite-dimensional representations.

A representation (module) assigns an F_p vector space to each vertex and
a matrix to each arrow, with relation combinations evaluating to zero.
Paths compose right to left: the path written "b.a" means apply a, then b,
so its matrix is M_b @ M_a.

The enumeration of indecomposables is exhaustive over dimension vectors:
for each vector it labels the relation-satisfying arrow-matrix tuples with
their base-change orbits by array operations (two representations with the
same dimension vector are isomorphic exactly when a product of GL(d_v)
actions carries one to the other), takes one representative per orbit,
and keeps it unless its orbit holds a direct sum of indecomposables found
at smaller dimension vectors.
The grid has p**(sum of matrix sizes) cells per dimension vector, capped
at MAX_GRID_CELLS, so it is meant for small bounds over small primes.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .exactfield import DEFAULT_PRIME, Mat, _check_prime


class CatalogIncompleteError(ValueError):
    """A module has an indecomposable summand outside the catalog."""


class AlgebraFormatError(ValueError):
    """Malformed algebra text input."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    tgt: str


# A relation is a tuple of (coefficient, path) terms; a path is a tuple of
# arrow names in composition order (("b", "a") means b after a).
RelationTerm = tuple[int, tuple[str, ...]]
Relation = tuple[RelationTerm, ...]


@dataclass(frozen=True)
class Algebra:
    """A quiver with relations presenting a finite-dimensional algebra.

    Vertices and arrows carry string names.  Every relation's terms must
    be composable paths sharing one source and one target vertex.
    """

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[Relation, ...] = ()
    # lookups derived from the fields above, built once; they take no part
    # in equality, hashing or repr
    vertex_index: dict[str, int] = field(init=False, repr=False, compare=False)
    arrow_by_name: dict[str, Arrow] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        object.__setattr__(self, "vertex_index", {v: i for i, v in enumerate(self.vertices)})
        object.__setattr__(self, "arrow_by_name", {a.name: a for a in self.arrows})
        for a in self.arrows:
            if a.src not in self.vertex_index or a.tgt not in self.vertex_index:
                raise ValueError(f"arrow {a.name} references unknown vertex")
        for rel in self.relations:
            if not rel:
                raise ValueError("empty relation")
            endpoints = {(self.path_source(path), self.path_target(path)) for _, path in rel}
            if len(endpoints) != 1:
                raise ValueError(f"relation terms do not share source/target: {rel}")

    def path_source(self, path: tuple[str, ...]) -> str:
        by_name = self.arrow_by_name
        for earlier, later in zip(path[1:], path[:-1]):
            if by_name[earlier].tgt != by_name[later].src:
                raise ValueError(f"path {path} is not composable")
        return by_name[path[-1]].src

    def path_target(self, path: tuple[str, ...]) -> str:
        return self.arrow_by_name[path[0]].tgt


def _coerce_dims(algebra: Algebra, dims) -> tuple[int, ...]:
    if isinstance(dims, Mapping):
        out = tuple(int(dims.get(v, 0)) for v in algebra.vertices)
    else:
        out = tuple(int(d) for d in dims)
        if len(out) != len(algebra.vertices):
            raise ValueError("dimension vector length mismatch")
    if any(d < 0 for d in out):
        raise ValueError("negative dimension")
    return out


class Module:
    """A representation: dimension vector plus one matrix per arrow."""

    __slots__ = ("algebra", "p", "dims", "action", "_hash")

    def __init__(self, algebra: Algebra, p: int, dims, action: Mapping[str, Mat], check: bool = True):
        _check_prime(p)
        self.algebra = algebra
        self.p = p
        self.dims = _coerce_dims(algebra, dims)
        act: dict[str, Mat] = {}
        for a in algebra.arrows:
            r, c = self.dim(a.tgt), self.dim(a.src)
            m = action.get(a.name)
            if m is None:
                m = Mat.zeros(p, r, c)
            if m.p != p or m.shape != (r, c):
                raise ValueError(f"arrow {a.name}: expected {r}x{c} matrix over F_{p}")
            act[a.name] = m
        self.action = act
        self._hash = None
        if check:
            self._check_relations()

    def _check_relations(self):
        for rel in self.algebra.relations:
            val = self.relation_value(rel)
            if val is not None and not val.is_zero():
                raise ValueError(f"relation violated: {rel}")

    def relation_value(self, rel: Relation) -> Optional[Mat]:
        src = self.algebra.path_source(rel[0][1])
        tgt = self.algebra.path_target(rel[0][1])
        if self.dim(src) == 0 or self.dim(tgt) == 0:
            return None
        total = Mat.zeros(self.p, self.dim(tgt), self.dim(src))
        for coeff, path in rel:
            total = total + self.path_matrix(path).scale(coeff)
        return total

    def dim(self, v: str) -> int:
        return self.dims[self.algebra.vertex_index[v]]

    @property
    def dims_by_vertex(self) -> dict[str, int]:
        return dict(zip(self.algebra.vertices, self.dims))

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def path_matrix(self, path: tuple[str, ...]) -> Mat:
        m = self.action[path[0]]
        for name in path[1:]:
            m = m @ self.action[name]
        return m

    def key(self):
        return (self.algebra, self.p, self.dims, tuple(self.action[a.name] for a in self.algebra.arrows))

    def __eq__(self, other):
        return isinstance(other, Module) and self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self):
        return f"Module(dims={self.dims_by_vertex})"


def zero_module(algebra: Algebra, p: int) -> Module:
    return Module(algebra, p, [0] * len(algebra.vertices), {})


def direct_sum(modules: Sequence[Module], algebra: Optional[Algebra] = None, p: Optional[int] = None) -> Module:
    """Block-diagonal direct sum, in the given order."""
    if not modules:
        if algebra is None or p is None:
            raise ValueError("empty sum needs an explicit algebra and prime")
        return zero_module(algebra, p)
    algebra = modules[0].algebra
    p = modules[0].p
    if any(m.algebra != algebra or m.p != p for m in modules):
        raise ValueError("summands over different algebras")
    dims = tuple(sum(m.dims[i] for m in modules) for i in range(len(algebra.vertices)))
    action = {}
    for a in algebra.arrows:
        r = dims[algebra.vertex_index[a.tgt]]
        c = dims[algebra.vertex_index[a.src]]
        block = np.zeros((r, c), dtype=np.int64)
        ro = co = 0
        for m in modules:
            mr, mc = m.action[a.name].shape
            block[ro:ro + mr, co:co + mc] = m.action[a.name].a
            ro += mr
            co += mc
        action[a.name] = Mat(p, block)
    return Module(algebra, p, dims, action, check=False)


class Morphism:
    """Vertexwise matrices commuting with the arrow actions."""

    __slots__ = ("source", "target", "comps", "_hash")

    def __init__(self, source: Module, target: Module, comps: Mapping[str, Mat], check: bool = True):
        if source.algebra != target.algebra or source.p != target.p:
            raise ValueError("morphism endpoints over different algebras")
        self.source = source
        self.target = target
        cs: dict[str, Mat] = {}
        for v in source.algebra.vertices:
            r, c = target.dim(v), source.dim(v)
            m = comps.get(v)
            if m is None:
                m = Mat.zeros(source.p, r, c)
            if m.shape != (r, c) or m.p != source.p:
                raise ValueError(f"component at {v}: expected {r}x{c} over F_{source.p}")
            cs[v] = m
        self.comps = cs
        self._hash = None
        if check:
            for a in source.algebra.arrows:
                lhs = target.action[a.name] @ cs[a.src]
                rhs = cs[a.tgt] @ source.action[a.name]
                if lhs != rhs:
                    raise ValueError(f"square at arrow {a.name} does not commute")

    # -- algebra of morphisms ------------------------------------------

    def __matmul__(self, other: "Morphism") -> "Morphism":
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition mismatch")
        comps = {v: self.comps[v] @ other.comps[v] for v in self.source.algebra.vertices}
        return Morphism(other.source, self.target, comps, check=False)

    def __add__(self, other: "Morphism") -> "Morphism":
        if self.source != other.source or self.target != other.target:
            raise ValueError("addition endpoint mismatch")
        return Morphism(self.source, self.target,
                        {v: self.comps[v] + other.comps[v] for v in self.comps}, check=False)

    def scale(self, c: int) -> "Morphism":
        return Morphism(self.source, self.target,
                        {v: self.comps[v].scale(c) for v in self.comps}, check=False)

    def __neg__(self) -> "Morphism":
        return self.scale(-1)

    def __eq__(self, other):
        return (
            isinstance(other, Morphism)
            and self.source == other.source
            and self.target == other.target
            and all(self.comps[v] == other.comps[v] for v in self.comps)
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.source, self.target, tuple(sorted((v, m) for v, m in self.comps.items()))))
        return self._hash

    def __repr__(self):
        return f"Morphism({self.source!r} -> {self.target!r})"

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.comps.values())

    def is_injective(self) -> bool:
        return all(m.rank() == m.cols for m in self.comps.values())

    def is_surjective(self) -> bool:
        return all(m.rank() == m.rows for m in self.comps.values())

    def is_isomorphism(self) -> bool:
        return all(m.rows == m.cols and m.rank() == m.rows for m in self.comps.values())

    def inverse(self) -> "Morphism":
        if not self.is_isomorphism():
            raise ValueError("not an isomorphism")
        return Morphism(self.target, self.source,
                        {v: m.inverse() for v, m in self.comps.items()}, check=False)


def identity_morphism(m: Module) -> Morphism:
    return Morphism(m, m, {v: Mat.identity(m.p, m.dim(v)) for v in m.algebra.vertices}, check=False)


def zero_morphism(source: Module, target: Module) -> Morphism:
    return Morphism(source, target, {}, check=False)


# -- Hom spaces ----------------------------------------------------------


def _add_kron_eye(out: np.ndarray, a: np.ndarray, k: int, eye_first: bool = False) -> None:
    """Add kron(a, I_k), or kron(I_k, a) when eye_first, into out in place.

    out must have the product's shape; it may be a column slice of a
    larger array, since splitting its axes in reshape gives a view.  Only
    the k diagonal copies of a are touched, by one broadcast assignment.
    """
    r, c = a.shape
    diag = np.arange(k)
    if eye_first:
        out.reshape(k, r, k, c)[diag, :, diag, :] += a
    else:
        out.reshape(r, k, c, k)[:, diag, :, diag] += a


def _commuting_system(m: Module, n: Module) -> tuple[Mat, dict[str, int]]:
    """The commuting squares N_a phi_src - phi_tgt M_a = 0 as one system.

    Unknowns are the row-major entries of each vertex component of
    phi: m -> n, in vertex order; offsets[v] is where the component at v
    starts among them.
    """
    alg = m.algebra
    sizes = {v: n.dim(v) * m.dim(v) for v in alg.vertices}
    offsets = {}
    total = 0
    for v in alg.vertices:
        offsets[v] = total
        total += sizes[v]
    rows: list[np.ndarray] = []
    for a in alg.arrows:
        nr = n.dim(a.tgt) * m.dim(a.src)
        if nr == 0:
            continue
        block = np.zeros((nr, total), dtype=np.int64)
        s, t = offsets[a.src], offsets[a.tgt]
        if sizes[a.src]:
            # vec(N_a @ phi_src) = (N_a kron I) vec(phi_src)
            _add_kron_eye(block[:, s:s + sizes[a.src]], n.action[a.name].a, m.dim(a.src))
        if sizes[a.tgt]:
            # vec(phi_tgt @ M_a) = (I kron M_a^T) vec(phi_tgt)
            _add_kron_eye(block[:, t:t + sizes[a.tgt]], -m.action[a.name].a.T, n.dim(a.tgt), eye_first=True)
        rows.append(block)
    system = np.vstack(rows) if rows else np.zeros((0, total), dtype=np.int64)
    return Mat(m.p, system), offsets


def _morphism_from_vector(vec: np.ndarray, m: Module, n: Module, offsets: Mapping[str, int],
                          check: bool = False) -> Morphism:
    """Inverse of the unknown layout of _commuting_system."""
    comps = {}
    for v in m.algebra.vertices:
        r, c = n.dim(v), m.dim(v)
        comps[v] = Mat(m.p, vec[offsets[v]:offsets[v] + r * c].reshape(r, c))
    return Morphism(m, n, comps, check=check)


def hom_basis(m: Module, n: Module) -> list[Morphism]:
    """Basis of Hom(m, n), the solution space of all commuting squares.

    The basis is canonical (reduced-echelon kernel in a fixed ordering).
    """
    if m.algebra != n.algebra or m.p != n.p:
        raise ValueError("hom_basis endpoints over different algebras")
    if not any(dm * dn for dm, dn in zip(m.dims, n.dims)):
        return []
    system, offsets = _commuting_system(m, n)
    kernel = system.kernel_basis()
    return [_morphism_from_vector(kernel.a[:, k], m, n, offsets) for k in range(kernel.cols)]


def morphism_coords_many(phis: Sequence[Morphism], basis: Sequence[Morphism]) -> np.ndarray:
    """Coordinates of each phi in a Hom basis, one column per phi.

    One elimination of the basis against all right-hand sides at once
    (exact; raises if some phi is not in the span).
    """
    if not basis:
        if all(phi.is_zero() for phi in phis):
            return np.zeros((0, len(phis)), dtype=np.int64)
        raise ValueError("morphism not in span of empty basis")
    if not phis:
        return np.zeros((len(basis), 0), dtype=np.int64)
    p = basis[0].source.p
    system = Mat(p, np.stack([_flatten_morphism(b) for b in basis], axis=1))
    x = system.solve(Mat(p, np.stack([_flatten_morphism(phi) for phi in phis], axis=1)))
    if x is None:
        raise ValueError("morphism not in span of basis")
    return x.a


def morphism_coords(phi: Morphism, basis: Sequence[Morphism]) -> np.ndarray:
    """Coordinates of phi in a Hom basis (exact; raises if not in span)."""
    return morphism_coords_many([phi], basis)[:, 0]


def _flatten_morphism(phi: Morphism) -> np.ndarray:
    parts = [phi.comps[v].a.reshape(-1) for v in phi.source.algebra.vertices]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


# -- kernels, cokernels, images ------------------------------------------


def kernel(phi: Morphism) -> tuple[Module, Morphism]:
    """Kernel subrepresentation with its inclusion."""
    src = phi.source
    alg, p = src.algebra, src.p
    bases = {v: phi.comps[v].kernel_basis() for v in alg.vertices}
    dims = {v: bases[v].cols for v in alg.vertices}
    action = {}
    for a in alg.arrows:
        carried = src.action[a.name] @ bases[a.src]
        sol = bases[a.tgt].solve(carried)
        if sol is None:
            raise AssertionError("kernel not closed under action")
        action[a.name] = sol
    k = Module(alg, p, dims, action, check=False)
    incl = Morphism(k, src, bases, check=False)
    return k, incl


def cokernel(phi: Morphism) -> tuple[Module, Morphism, dict[str, Mat]]:
    """Cokernel representation, its projection, and a vertexwise section.

    The section maps quotient coordinates back into the target using the
    complement coordinates; it is linear per vertex but not a morphism.
    """
    tgt = phi.target
    alg, p = tgt.algebra, tgt.p
    proj: dict[str, Mat] = {}
    sect: dict[str, Mat] = {}
    for v in alg.vertices:
        n = tgt.dim(v)
        image = phi.comps[v].image_basis()  # n x r
        r, pivots = image.transpose().rref()
        pivset = set(pivots)
        free = [j for j in range(n) if j not in pivset]
        pi = np.zeros((len(free), n), dtype=np.int64)
        for k, j in enumerate(free):
            pi[k, j] = 1
        for row, pc in enumerate(pivots):
            for k, j in enumerate(free):
                pi[k, pc] = (-int(r.a[row, j])) % p
        sigma = np.zeros((n, len(free)), dtype=np.int64)
        for k, j in enumerate(free):
            sigma[j, k] = 1
        proj[v] = Mat(p, pi)
        sect[v] = Mat(p, sigma)
    dims = {v: proj[v].rows for v in alg.vertices}
    action = {a.name: proj[a.tgt] @ tgt.action[a.name] @ sect[a.src] for a in alg.arrows}
    c = Module(alg, p, dims, action, check=False)
    pr = Morphism(tgt, c, proj, check=False)
    return c, pr, sect


# -- direct summands ---------------------------------------------------------


def split_off_summand(u: Module, m: Module) -> Optional[tuple[Morphism, Morphism]]:
    """Try to realize the indecomposable u as a direct summand of m.

    Returns (section, g) with g @ section an automorphism of u, or None.
    Then the section splits, and ker(g) is a complement of its image.
    Correctness needs End(u) local, i.e. u indecomposable: u is a summand
    of m iff some composite m -> u of basis morphisms with a basis
    morphism u -> m is invertible (a sum of non-units in a local ring
    cannot be the identity).
    """
    if u.total_dim > m.total_dim or any(du > dm for du, dm in zip(u.dims, m.dims)):
        return None
    into = hom_basis(u, m)
    if not into:
        return None
    back = hom_basis(m, u)
    for h in into:
        for g in back:
            if (g @ h).is_isomorphism():
                return h, g
    return None


# -- catalogs --------------------------------------------------------------


@dataclass
class Catalog:
    """Ordered list of pairwise non-isomorphic indecomposables with Hom data."""

    algebra: Algebra
    p: int
    bound: int
    indecs: tuple[Module, ...]
    hom_table: dict[tuple[int, int], tuple[Morphism, ...]] = field(repr=False)

    def __post_init__(self):
        self._decompose_memo: dict = {}
        self._tops: Optional[list[Optional[tuple[str, Mat, Mat]]]] = None

    def __len__(self):
        return len(self.indecs)

    def hom(self, i: int, j: int) -> tuple[Morphism, ...]:
        return self.hom_table[(i, j)]

    def dim_hom(self, i: int, j: int) -> int:
        return len(self.hom_table[(i, j)])

    def sum_of(self, indices: Iterable[int]) -> Module:
        mods = [self.indecs[i] for i in indices]
        return direct_sum(mods, algebra=self.algebra, p=self.p)

    def decompose(self, m: Module) -> Counter:
        key = m.key()
        hit = self._decompose_memo.get(key)
        if hit is None:
            hit = decompose(m, self)
            self._decompose_memo[key] = hit
        return Counter(hit)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": "catalog",
            "p": self.p,
            "bound": self.bound,
            "algebra": algebra_to_json_dict(self.algebra),
            "indecs": [
                {
                    "dims": dict(zip(self.algebra.vertices, m.dims)),
                    "action": {a.name: m.action[a.name].tolist() for a in self.algebra.arrows},
                }
                for m in self.indecs
            ],
            "hom_dims": [[self.dim_hom(i, j) for j in range(len(self))] for i in range(len(self))],
        }


def _power(x: Mat, e: int) -> Mat:
    """x**e by repeated squaring."""
    out = Mat.identity(x.p, x.rows)
    while e:
        if e & 1:
            out = out @ x
        e >>= 1
        if e:
            x = x @ x
    return out


def _top(u: Module, ends: Sequence[Morphism]) -> Optional[tuple[str, Mat, Mat]]:
    """(v, v0, phi) with top(x) = phi x_v v0 on End(u), or None when
    End(u)/rad is larger than F_p.

    ends is a basis of End(u), which is local since u is indecomposable:
    x = t + r with t a scalar and r in the radical, nilpotent at every
    vertex.  When End(u)/rad = F_p, x**q = t**q + r**q = t for a power
    q = p**s >= max dim u, since the Frobenius fixes F_p; a basis element
    whose power is not a scalar shows a larger residue field, since the
    Frobenius fixes nothing else.  The x - top(x) span the radical, a
    nilpotent ideal, so they all kill some vector v0 != 0 at some vertex
    v, and there x_v v0 = top(x) v0.  phi is a functional with phi v0 = 1.
    """
    p = u.p
    q = p
    while q < max(u.dims):
        q *= p
    live = [v for v in u.algebra.vertices if u.dim(v)]
    tops = []
    for x in ends:
        powers = [_power(x.comps[v], q) for v in live]
        t = int(powers[0].a[0, 0])
        if any(power != Mat.identity(p, power.rows).scale(t) for power in powers):
            return None
        tops.append(t)
    for v in live:
        d = u.dim(v)
        radical = Mat(p, np.vstack([(x.comps[v] - Mat.identity(p, d).scale(t)).a for x, t in zip(ends, tops)]))
        killed = radical.kernel_basis()
        if killed.cols:
            v0 = Mat(p, killed.a[:, :1])
            k = int(np.flatnonzero(v0.a[:, 0])[0])
            phi = np.zeros((1, d), dtype=np.int64)
            phi[0, k] = pow(int(v0.a[k, 0]), p - 2, p)
            return v, v0, Mat(p, phi)
    raise AssertionError("the radical of a local ring kills no vector")


def _multiplicity(u: Module, m: Module, top: tuple[str, Mat, Mat]) -> int:
    """How often u is a summand of m: the rank of (h, g) -> phi g_v h_v v0
    on Hom(u, m) x Hom(m, u), whose matrix is rows phi g_v times columns h_v v0."""
    into = hom_basis(u, m)
    back = hom_basis(m, u) if into else []
    if not back:
        return 0
    v, v0, phi = top
    cols = Mat(m.p, np.hstack([(h.comps[v] @ v0).a for h in into]))
    rows = Mat(m.p, np.vstack([(phi @ g.comps[v]).a for g in back]))
    return (rows @ cols).rank()


def decompose(m: Module, catalog: Catalog) -> Counter:
    """Krull-Schmidt multiset of catalog indices with direct_sum ~ m.

    The multiplicity of a catalog entry u in m is the rank of the pairing
    Hom(u, m) x Hom(m, u) -> End(u)/rad = F_p, (h, g) -> top(g h): a
    composite through an indecomposable summand other than u lies in the
    radical of the local ring End(u), and on the copies of u the pairing
    is the sum of top(g_k) top(h_k) (Auslander-Reiten-Smalo, Representation
    Theory of Artin Algebras, on local endomorphism rings).  Entries are
    tried in catalog order while they fit the dimensions not yet
    accounted for.  When one that fits has a residue field larger than
    F_p, the whole module goes to _decompose_by_splits instead.  Raises
    CatalogIncompleteError when dimensions are left over.
    """
    if m.algebra != catalog.algebra or m.p != catalog.p:
        raise ValueError("module not over the catalog's algebra")
    if catalog._tops is None:
        catalog._tops = [_top(u, catalog.hom(i, i)) for i, u in enumerate(catalog.indecs)]
    result: Counter = Counter()
    left = m.dims
    for idx, u in enumerate(catalog.indecs):
        if not any(left):
            break
        if any(du > dl for du, dl in zip(u.dims, left)):
            continue
        top = catalog._tops[idx]
        if top is None:
            return _decompose_by_splits(m, catalog)
        k = _multiplicity(u, m, top)
        if k:
            result[idx] = k
            left = tuple(dl - k * du for dl, du in zip(left, u.dims))
    if any(left):
        raise CatalogIncompleteError(
            f"indecomposable summand of dims {dict(zip(m.algebra.vertices, left))} not in catalog"
        )
    return result


def _decompose_by_splits(m: Module, catalog: Catalog) -> Counter:
    """decompose by splitting one summand at a time: find a catalog entry u
    with a section h: u -> m and a map g: m -> u such that g @ h is
    invertible, pass to the kernel of g, repeat.  Needs only End(u) local,
    so it serves entries whose residue field is larger than F_p.
    """
    result: Counter = Counter()
    current = m
    while not current.is_zero():
        for idx, u in enumerate(catalog.indecs):
            pair = split_off_summand(u, current)
            if pair is not None:
                _, g = pair
                result[idx] += 1
                current, _ = kernel(g)
                break
        else:
            raise CatalogIncompleteError(
                f"indecomposable summand of dims {current.dims_by_vertex} not in catalog"
            )
    return result


# -- exhaustive enumeration -------------------------------------------------

# The orbit search holds int32 and bool arrays with one cell per
# arrow-matrix tuple of a dimension vector, about 17 bytes per cell in all
# when every tuple satisfies the relations; otherwise about 12 bytes plus 4
# per GL(d_v) generator for each tuple that does, and 1 for each that does not.
# enumerate_indecomposables refuses a larger grid before building any.
MAX_GRID_CELLS = 2 ** 20

# Matrices are decoded and relation values formed this many cells at a
# time, so temporaries stay small whatever the grid size.
_CHUNK_CELLS = 2 ** 12


def _primitive_root(p: int) -> int:
    """Least generator of F_p^x: g**((p-1)/q) != 1 for each prime q dividing p-1."""
    factors = []
    n, q = p - 1, 2
    while q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        factors.append(n)
    return next((g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors)), 1)


def _gl_generators(d: int, p: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Generators of GL(d, F_p), each with its inverse: the unit
    transvections E_ij(1), and diag(w, 1, ..., 1) for a primitive root w
    when p > 2.

    E_ij(1)**c = E_ij(c), so every transvection lies in the group they
    generate, and the transvections with that diagonal generate GL(d, F_p).
    The inverses are closed forms, E_ij(1)**-1 = E_ij(p - 1) and
    diag(w, 1, ...)**-1 = diag(w**(p - 2), 1, ...), so no elimination runs.
    """
    gens = []
    if d == 0:
        return gens
    if p > 2:
        w = _primitive_root(p)
        g, g_inv = np.eye(d, dtype=np.int64), np.eye(d, dtype=np.int64)
        g[0, 0], g_inv[0, 0] = w, pow(w, p - 2, p)
        gens.append((g, g_inv))
    for i in range(d):
        for j in range(d):
            if i != j:
                g, g_inv = np.eye(d, dtype=np.int64), np.eye(d, dtype=np.int64)
                g[i, j], g_inv[i, j] = 1, p - 1
                gens.append((g, g_inv))
    return gens


def _dim_vectors(n: int, bound: int):
    """All nonzero vectors in [0, bound]^n, layered so larger bounds append.

    Order: by max entry, then total, then lexicographic.  A proper direct
    summand always sorts strictly earlier, which the enumeration relies on.
    """
    vecs = [t for t in itertools.product(range(bound + 1), repeat=n) if any(t)]
    vecs.sort(key=lambda t: (max(t), sum(t), t))
    return vecs


def _grid_cells(algebra: Algebra, p: int, dv: tuple[int, ...]) -> int:
    """Number of arrow-matrix tuples at dv: p**(sum over arrows of d_src * d_tgt)."""
    at = algebra.vertex_index
    return p ** sum(dv[at[a.src]] * dv[at[a.tgt]] for a in algebra.arrows)


def _base_p_weights(p: int, n: int) -> np.ndarray:
    return p ** np.arange(n - 1, -1, -1, dtype=np.int64)


def _matrices(p: int, rows: int, cols: int, codes: np.ndarray) -> np.ndarray:
    """The rows x cols matrices over F_p with the given indices, as one
    (len(codes), rows, cols) array.

    Matrices are indexed lexicographically by flat entries, so an index is
    the base-p number the entries spell, first entry most significant.
    """
    return (codes[:, None] // _base_p_weights(p, rows * cols) % p).reshape(len(codes), rows, cols)


def _matrix_codes(p: int, mats: np.ndarray) -> np.ndarray:
    """Index of each matrix of a (k, rows, cols) array; inverse of _matrices."""
    k, rows, cols = mats.shape
    return mats.reshape(k, rows * cols) @ _base_p_weights(p, rows * cols)


def _moved_codes(p: int, rows: int, cols: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """For every rows x cols matrix M in index order, the index of left @ M @ right."""
    n = p ** (rows * cols)
    out = np.empty(n, dtype=np.int32)
    for lo in range(0, n, _CHUNK_CELLS):
        mats = _matrices(p, rows, cols, np.arange(lo, min(n, lo + _CHUNK_CELLS)))
        out[lo:lo + len(mats)] = _matrix_codes(p, (left @ mats % p) @ right % p)
    return out


def _relation_mask(algebra: Algebra, p: int, shapes: list[tuple[int, int]]) -> np.ndarray:
    """Whether each tuple satisfies every relation, on the tuple grid.

    Grid axis k indexes the matrices of arrow k.  A relation's path
    products broadcast the matrices of its arrows over their own axes,
    one slice of its first arrow's axis at a time.  A relation whose
    source or target has dimension 0 has empty values, which never fail.
    """
    grid = tuple(p ** (r * c) for r, c in shapes)
    valid = np.ones(grid, dtype=bool)
    arrow_pos = {a.name: k for k, a in enumerate(algebra.arrows)}

    def axis_view(k: int, lo: int, hi: int) -> np.ndarray:
        lead = (1,) * k + (hi - lo,) + (1,) * (len(grid) - 1 - k)
        return _matrices(p, *shapes[k], np.arange(lo, hi)).reshape(lead + shapes[k])

    for rel in algebra.relations:
        first, *others = sorted({arrow_pos[name] for _, path in rel for name in path})
        views = {k: axis_view(k, 0, grid[k]) for k in others}
        step = max(1, _CHUNK_CELLS // int(np.prod([grid[k] for k in others])))
        for lo in range(0, grid[first], step):
            hi = min(grid[first], lo + step)
            views[first] = axis_view(first, lo, hi)
            total = 0
            for coeff, path in rel:
                term = views[arrow_pos[path[0]]]
                for name in path[1:]:
                    term = term @ views[arrow_pos[name]] % p
                total = total + coeff * term
            valid[(slice(None),) * first + (slice(lo, hi),)] &= ~np.any(total % p, axis=(-2, -1))
    return valid


def _positions(cells: np.ndarray, grid, maps: Sequence[np.ndarray], touching: Sequence[int]) -> np.ndarray:
    """For each cell, the position among cells of its image when grid axis k
    is moved by the index map maps[k], for k in touching."""
    moved = cells.copy()
    for k in touching:
        stride = int(np.prod(grid[k + 1:], dtype=np.int64))
        digit = cells // stride % grid[k]
        moved += (maps[k][digit] - digit) * np.int32(stride)
    return np.searchsorted(cells, moved).astype(np.int32)


def _orbit_labels(algebra: Algebra, p: int, dv: tuple[int, ...]):
    """Orbit labels on the relation-satisfying arrow-matrix tuples at this
    dimension vector.

    The tuples form a grid with one axis per arrow, indexed by matrix
    index, so flat indices order tuples lexicographically (a quiver
    without arrows has a grid of one cell, its only tuple).  Base change
    keeps the relations, so the orbits of relation-satisfying cells stay
    among them, and only those cells are labelled, by their position among
    them.  Every label starts as its own position and drops to the least
    label among its images under the GL(d_v) generators, with pointer
    jumping, until nothing changes; each label is then the position of the
    least flat index of its orbit.  Returns the grid shape, the arrow
    shapes, the ascending flat indices of the relation-satisfying cells
    and their labels.
    """
    arrows = algebra.arrows
    at = algebra.vertex_index
    shapes = [(dv[at[a.tgt]], dv[at[a.src]]) for a in arrows]
    grid = tuple(p ** (r * c) for r, c in shapes)
    valid = _relation_mask(algebra, p, shapes)
    cells = np.flatnonzero(valid).astype(np.int32)
    # with every cell valid, positions are flat indices
    dense = len(cells) == valid.size

    # A generator g at v moves the matrix index of each arrow at v
    # (M -> g M at its target, M -> M g^-1 at its source).  On a dense grid
    # np.ix_ keeps these per-arrow maps as an open mesh; otherwise each
    # move is kept as one int32 position per cell.
    moves = []
    for v, i in at.items():
        touching = [k for k, a in enumerate(arrows) if v in (a.src, a.tgt) and grid[k] > 1]
        if not touching:
            continue
        for g, g_inv in _gl_generators(dv[i], p):
            maps = [np.arange(n, dtype=np.int32) for n in grid]
            for k in touching:
                r, c = shapes[k]
                left = g if arrows[k].tgt == v else np.eye(r, dtype=np.int64)
                right = g_inv if arrows[k].src == v else np.eye(c, dtype=np.int64)
                maps[k] = _moved_codes(p, r, c, left, right)
            moves.append(np.ix_(*maps) if dense else _positions(cells, grid, maps, touching))

    label = np.arange(len(cells), dtype=np.int32)
    changed = bool(moves)
    while changed:
        changed = False
        for move in moves:
            moved = label.reshape(grid)[move].reshape(-1) if dense else label[move]
            if (moved < label).any():
                np.minimum(label, moved, out=label)
                changed = True
        label = label[label]
    return grid, shapes, cells, label


def _self_labelled(label: np.ndarray) -> np.ndarray:
    """The positions that are their own label, ascending: the lexicographically
    first tuple of each orbit."""
    return np.flatnonzero(label == np.arange(len(label)))


def _matrices_at(p: int, grid, shapes, cells: np.ndarray) -> list[np.ndarray]:
    """Per arrow, the matrices of the tuples at these flat grid indices,
    stacked along a first axis."""
    if not shapes:
        return []
    return [_matrices(p, r, c, codes) for (r, c), codes in zip(shapes, np.unravel_index(cells, grid))]


def _cells_at(p: int, grid, stacks: list[np.ndarray], count: int) -> np.ndarray:
    """Flat grid index of each of count stacked tuples; inverse of _matrices_at."""
    if not stacks:
        return np.zeros(count, dtype=np.intp)
    return np.ravel_multi_index([_matrix_codes(p, s) for s in stacks], grid)


def _actions(algebra: Algebra, p: int, stacks: list[np.ndarray], count: int) -> list[dict[str, Mat]]:
    """One arrow-name to matrix dict per stacked tuple."""
    return [{a.name: Mat(p, s[j]) for a, s in zip(algebra.arrows, stacks)} for j in range(count)]


def _orbit_representatives(algebra: Algebra, p: int, dv: tuple[int, ...]):
    """One arrow-matrix tuple per isomorphism class at this dimension
    vector: the lexicographically first tuple of each relation-satisfying
    orbit, in ascending order."""
    grid, shapes, cells, label = _orbit_labels(algebra, p, dv)
    reps = cells[_self_labelled(label)]
    return _actions(algebra, p, _matrices_at(p, grid, shapes, reps), len(reps))


def _direct_sums(found: Sequence[Module], classes: Mapping, dv: tuple[int, ...], shapes):
    """Every decomposable isomorphism class at dv as a block-diagonal sum:
    per arrow the sums' matrices stacked, and each sum's least summand index.

    classes maps each dimension vector below dv to its isomorphism classes
    in the same form, over the indecomposables in found.  By Krull-Schmidt
    a decomposable class at dv is found[i] + Y for exactly one i, its least
    summand index, and one class Y at dv - dims(found[i]) whose least index
    is at least i, so each class is built once, with found[i] first.
    """
    parts = [[np.zeros((0, r, c), dtype=np.int64)] for r, c in shapes]
    least = [np.zeros(0, dtype=np.int64)]
    for i, top in enumerate(found):
        rest = classes.get(tuple(d - e for d, e in zip(dv, top.dims)))
        if rest is None:
            continue
        stacks, first = rest
        keep = first >= i
        n = int(np.count_nonzero(keep))
        for k, a in enumerate(top.algebra.arrows):
            block = top.action[a.name].a
            r, c = block.shape
            out = np.zeros((n,) + shapes[k], dtype=np.int64)
            out[:, :r, :c] = block
            out[:, r:, c:] = stacks[k][keep]
            parts[k].append(out)
        least.append(np.full(n, i, dtype=np.int64))
    return [np.concatenate(ps) for ps in parts], np.concatenate(least)


def _with_hom_table(algebra: Algebra, p: int, bound: int, indecs: tuple[Module, ...]) -> Catalog:
    table = {}
    for i, mi in enumerate(indecs):
        for j, mj in enumerate(indecs):
            table[(i, j)] = tuple(hom_basis(mi, mj))
    return Catalog(algebra=algebra, p=p, bound=bound, indecs=indecs, hom_table=table)


def enumerate_indecomposables(algebra: Algebra, bound: int, p: int = DEFAULT_PRIME) -> Catalog:
    """All indecomposables with every vertex dimension <= bound.

    Exhaustive and exact: at each dimension vector d, array operations over
    the grid of all p**(total matrix entries) arrow-matrix tuples label
    every tuple with its base-change orbit, and each relation-satisfying
    orbit gives one representative.  Every proper summand sorts earlier in
    the layered dimension vector order, so the indecomposables found so far
    contain one of each class below d; by Krull-Schmidt a decomposable
    orbit at d holds exactly one of the block-diagonal sums of two or more
    of them that _direct_sums builds.  The orbits of those sums are struck
    out and the rest kept, so no Hom space is computed before the catalog's
    Hom table.  Before any grid is built, raises
    ValueError when some dimension vector has more than MAX_GRID_CELLS
    tuples.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    _check_prime(p)
    dim_vectors = _dim_vectors(len(algebra.vertices), bound)
    widest = max(dim_vectors, key=lambda dv: _grid_cells(algebra, p, dv), default=())
    cells = _grid_cells(algebra, p, widest)
    if cells > MAX_GRID_CELLS:
        raise ValueError(
            f"dimension vector {dict(zip(algebra.vertices, widest))} has {cells} arrow-matrix "
            f"tuples, more than the {MAX_GRID_CELLS} an exhaustive enumeration may hold; "
            "lower the bound or the prime")
    found: list[Module] = []
    # every isomorphism class at each dimension vector done so far, in the
    # form _direct_sums takes and returns
    classes: dict[tuple[int, ...], tuple[list[np.ndarray], np.ndarray]] = {}
    for dv in dim_vectors:
        grid, shapes, cells, label = _orbit_labels(algebra, p, dv)
        sums, least = _direct_sums(found, classes, dv, shapes)
        decomposable = np.zeros(len(cells), dtype=bool)
        decomposable[label[np.searchsorted(cells, _cells_at(p, grid, sums, len(least)))]] = True
        own = _self_labelled(label)
        reps = cells[own[~decomposable[own]]]
        new = _matrices_at(p, grid, shapes, reps)
        classes[dv] = ([np.concatenate(pair) for pair in zip(sums, new)],
                       np.concatenate([least, np.arange(len(found), len(found) + len(reps))]))
        found += [Module(algebra, p, dv, action, check=False) for action in _actions(algebra, p, new, len(reps))]
    return _with_hom_table(algebra, p, bound, tuple(found))


# -- text format -------------------------------------------------------------

_TERM_RE = re.compile(r"^(-?\d+)\*([^\s*]+)$")


def parse_algebra_text(text: str) -> Algebra:
    """Parse the line-based algebra format.

    Lines: `vertex <id>`, `arrow <id> <src> <tgt>`,
    `relation <c>*<path> + <c>*<path> ...` with dot-separated paths applied
    right to left.  Blank lines and `#` comments are ignored.
    """
    vertices: list[str] = []
    arrows: list[Arrow] = []
    relations: list[Relation] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "vertex":
            if len(parts) != 2:
                raise AlgebraFormatError(line_no, "expected: vertex <id>")
            vertices.append(parts[1])
        elif kind == "arrow":
            if len(parts) != 4:
                raise AlgebraFormatError(line_no, "expected: arrow <id> <src> <tgt>")
            arrows.append(Arrow(parts[1], parts[2], parts[3]))
        elif kind == "relation":
            body = parts[1:]
            if not body:
                raise AlgebraFormatError(line_no, "empty relation")
            terms: list[RelationTerm] = []
            sign = 1
            expect_term = True
            for tok in body:
                if tok in ("+", "-"):
                    if expect_term:
                        raise AlgebraFormatError(line_no, f"misplaced operator {tok!r}")
                    sign = 1 if tok == "+" else -1
                    expect_term = True
                    continue
                if not expect_term:
                    raise AlgebraFormatError(line_no, f"missing operator before {tok!r}")
                m = _TERM_RE.match(tok)
                if not m:
                    raise AlgebraFormatError(line_no, f"bad term {tok!r}, expected <coeff>*<path>")
                coeff = sign * int(m.group(1))
                path = tuple(m.group(2).split("."))
                terms.append((coeff, path))
                sign = 1
                expect_term = False
            if expect_term:
                raise AlgebraFormatError(line_no, "relation ends with an operator")
            relations.append(tuple(terms))
        else:
            raise AlgebraFormatError(line_no, f"unknown directive {kind!r}")
    try:
        return Algebra(tuple(vertices), tuple(arrows), tuple(relations))
    except ValueError as exc:
        raise AlgebraFormatError(0, str(exc)) from exc


def dump_algebra_text(algebra: Algebra) -> str:
    lines = [f"vertex {v}" for v in algebra.vertices]
    lines += [f"arrow {a.name} {a.src} {a.tgt}" for a in algebra.arrows]
    for rel in algebra.relations:
        terms = " + ".join(f"{coeff}*{'.'.join(path)}" for coeff, path in rel)
        lines.append(f"relation {terms}")
    return "\n".join(lines) + "\n"


def algebra_to_json_dict(algebra: Algebra) -> dict:
    return {
        "vertices": list(algebra.vertices),
        "arrows": [[a.name, a.src, a.tgt] for a in algebra.arrows],
        "relations": [[[c, list(path)] for c, path in rel] for rel in algebra.relations],
    }
