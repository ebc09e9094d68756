"""Quivers with relations and their finite-dimensional representations.

A representation (module) assigns an F_p vector space to each vertex and
a matrix to each arrow, with relation combinations evaluating to zero.
Paths compose right to left: the path written "b.a" means apply a, then b,
so its matrix is M_b @ M_a.

The enumeration of indecomposables is exhaustive over dimension vectors:
where one may live, it labels the relation-satisfying arrow-matrix tuples
with their base-change orbits by array operations and keeps the orbits no
direct sum of smaller indecomposables lies in.  The grid has p**(sum of
matrix sizes) cells per dimension vector, capped at MAX_GRID_CELLS.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping, Optional, Sequence

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
            for name in (n for _, path in rel for n in path if n not in self.arrow_by_name):
                raise ValueError(f"relation names unknown arrow {name!r}")
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


def _kron_map(p: int, rows: int, cols: int, terms) -> Mat:
    """The rows x cols matrix over F_p that adds, at each (r, c, left, right)
    of terms, the matrix of X -> left X right at block (r, c).

    An int k on either side stands for I_k.  With row-major vec,
    vec(L X R) = (L kron R^T) vec(X).  An identity factor writes only its
    k diagonal copies of the other, by one broadcast assignment; two real
    factors give their full product, each entry below p**2 and reduced
    mod p before it is added.
    """
    out = np.zeros((rows, cols), dtype=np.int64)
    for r, c, left, right in terms:
        if isinstance(left, np.ndarray) and isinstance(right, np.ndarray):
            (r1, c1), (c2, r2) = left.shape, right.shape
            out[r:r + r1 * r2, c:c + c1 * c2] += (
                left[:, None, :, None] * right.T[None, :, None, :] % p).reshape(r1 * r2, c1 * c2)
            continue
        # I_k kron R^T or L kron I_k, with m the factor that is not I_k
        eye_left = isinstance(right, np.ndarray)
        m, k = (right.T, left) if eye_left else (left, right)
        # one copy, as in most terms, is a plain slice add, far cheaper
        if k == 1:
            out[r:r + m.shape[0], c:c + m.shape[1]] += m
        elif k and m.size:
            block, diag = out[r:r + m.shape[0] * k, c:c + m.shape[1] * k], np.arange(k)
            if eye_left:
                block.reshape(k, m.shape[0], k, m.shape[1])[diag, :, diag, :] += m
            else:
                block.reshape(m.shape[0], k, m.shape[1], k)[:, diag, :, diag] += m
    return Mat(p, out)


def _commuting_system(m: Module, n: Module) -> tuple[Mat, dict[str, int]]:
    """The commuting squares N_a phi_src - phi_tgt M_a = 0 as one system,
    built by one _kron_map.

    Unknowns are the row-major entries of each vertex component of
    phi: m -> n, in vertex order; offsets[v] is where the component at v
    starts among them.  Each arrow gives n.dim(tgt) * m.dim(src) rows.
    """
    alg = m.algebra
    offsets, total, row, terms = {}, 0, 0, []
    for v in alg.vertices:
        offsets[v] = total
        total += n.dim(v) * m.dim(v)
    for a in alg.arrows:
        terms += [(row, offsets[a.src], n.action[a.name].a, m.dim(a.src)),
                  (row, offsets[a.tgt], n.dim(a.tgt), -m.action[a.name].a)]
        row += n.dim(a.tgt) * m.dim(a.src)
    return _kron_map(m.p, row, total, terms), offsets


def _morphism_from_vector(vec: np.ndarray, m: Module, n: Module, offsets: Mapping[str, int],
                          check: bool = False) -> Morphism:
    """Inverse of the unknown layout of _commuting_system."""
    comps = {}
    for v in m.algebra.vertices:
        r, c = n.dim(v), m.dim(v)
        comps[v] = Mat(m.p, vec[offsets[v]:offsets[v] + r * c].reshape(r, c))
    return Morphism(m, n, comps, check=check)


def _hom_system(m: Module, n: Module) -> Optional[tuple[Mat, dict[str, int]]]:
    """_commuting_system(m, n), or None when no vertex has both dimensions nonzero."""
    if m.algebra != n.algebra or m.p != n.p:
        raise ValueError("hom_basis endpoints over different algebras")
    return _commuting_system(m, n) if any(dm * dn for dm, dn in zip(m.dims, n.dims)) else None


def hom_basis(m: Module, n: Module) -> list[Morphism]:
    """Basis of Hom(m, n), the solution space of all commuting squares.

    The basis is canonical (reduced-echelon kernel in a fixed ordering).
    """
    found = _hom_system(m, n)
    if found is None:
        return []
    system, offsets = found
    kernel = system.kernel_basis()
    return [_morphism_from_vector(kernel.a[:, k], m, n, offsets) for k in range(kernel.cols)]


def dim_hom(m: Module, n: Module) -> int:
    """dim Hom(m, n): the unknowns of the commuting system minus its rank."""
    found = _hom_system(m, n)
    return 0 if found is None else found[0].cols - found[0].rank()


def span_rank(phis: Sequence[Morphism]) -> int:
    """Dimension of the span of morphisms that share a source and a target."""
    if not phis:
        return 0
    return Mat(phis[0].source.p, np.stack([_flatten_morphism(phi) for phi in phis], axis=1)).rank()


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
    """Ordered list of pairwise non-isomorphic indecomposables.  Hom bases of
    pairs, End-ring tops of entries and decompositions are found on first use."""

    algebra: Algebra
    p: int
    bound: int
    indecs: tuple[Module, ...]

    def __post_init__(self):
        self._homs: dict[tuple[int, int], tuple[Morphism, ...]] = {}
        self._tops: dict[int, Optional[tuple[str, Mat, Mat]]] = {}
        self._decompose_memo: dict = {}

    def __len__(self):
        return len(self.indecs)

    def hom(self, i: int, j: int) -> tuple[Morphism, ...]:
        """hom_basis(indecs[i], indecs[j]), solved once per pair."""
        basis = self._homs.get((i, j))
        if basis is None:
            basis = self._homs[(i, j)] = tuple(hom_basis(self.indecs[i], self.indecs[j]))
        return basis

    def dim_hom(self, i: int, j: int) -> int:
        return len(self.hom(i, j))

    def top(self, i: int) -> Optional[tuple[str, Mat, Mat]]:
        """_top of entry i on its End basis, found once per entry."""
        if i not in self._tops:
            self._tops[i] = _top(self.indecs[i], self.hom(i, i))
        return self._tops[i]

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
    result: Counter = Counter()
    left = m.dims
    for idx, u in enumerate(catalog.indecs):
        if not any(left):
            break
        if any(du > dl for du, dl in zip(u.dims, left)):
            continue
        top = catalog.top(idx)
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

# the most digits Python writes out an int with by default; a larger grid size is written p**e
_PRINTABLE_DIGITS = 4300

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


def _dim_vectors(n: int, bound: int, isolated: Collection[int] = ()):
    """All nonzero vectors in [0, bound]^n, layered so larger bounds append;
    of those nonzero at an index in `isolated`, only the unit vector there.

    Order: by max entry, then total, then lexicographic.  A proper direct
    summand always sorts strictly earlier, which the enumeration relies on.
    """
    ranges = [range(1) if i in isolated else range(bound + 1) for i in range(n)]
    vecs = [t for t in itertools.product(*ranges) if any(t)]
    vecs += [tuple(int(i == v) for i in range(n)) for v in isolated]
    vecs.sort(key=lambda t: (max(t), sum(t), t))
    return vecs


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
                total = total + coeff % p * term
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


def _may_hold_indecomposable(algebra: Algebra, dv: tuple[int, ...]) -> bool:
    """False when dv is not a simple's and its support is disconnected or
    some d_v exceeds the dimensions at the other ends of v's arrows."""
    if sum(dv) <= 1:
        return True
    at = algebra.vertex_index
    room = [0] * len(dv)
    linked = {i: {i} for i, d in enumerate(dv) if d}
    for a in algebra.arrows:
        s, t = at[a.src], at[a.tgt]
        room[s] += dv[t]
        room[t] += dv[s]
        if dv[s] and dv[t] and linked[s] is not linked[t]:
            merged = linked[s] | linked[t]
            for i in merged:
                linked[i] = merged
    return len(next(iter(linked.values()))) == len(linked) and all(dv[i] <= room[i] for i in linked)


def _sums_at(found: Sequence[Module], classes: Mapping, dv: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every decomposable class at dv as the ascending tuple of its
    summands' indices in found: found[i] + Y for its least index i and each
    class Y at dv - dims(found[i]) in classes whose least index is >= i."""
    sums = []
    for i, top in enumerate(found):
        rest = classes.get(tuple(d - e for d, e in zip(dv, top.dims)), ())
        sums += [(i,) + ms for ms in rest if ms[0] >= i]
    return sums


def _strike_out(algebra: Algebra, p: int, found: Sequence[Module], sums: Sequence[tuple[int, ...]],
                orbits) -> np.ndarray:
    """The self-labelled cells, ascending, whose orbit (from _orbit_labels)
    holds none of the sums, built block-diagonally in index order."""
    grid, shapes, cells, label = orbits
    stacks = [np.zeros((len(sums), r, c), dtype=np.int64) for r, c in shapes]
    for j, ms in enumerate(sums):
        for k, a in enumerate(algebra.arrows):
            ro = co = 0
            for i in ms:
                block = found[i].action[a.name].a
                stacks[k][j, ro:ro + block.shape[0], co:co + block.shape[1]] = block
                ro, co = ro + block.shape[0], co + block.shape[1]
    decomposable = np.zeros(len(cells), dtype=bool)
    decomposable[label[np.searchsorted(cells, _cells_at(p, grid, stacks, len(sums)))]] = True
    own = _self_labelled(label)
    return cells[own[~decomposable[own]]]


def enumerate_indecomposables(algebra: Algebra, bound: int, p: int = DEFAULT_PRIME) -> Catalog:
    """All indecomposables with every vertex dimension <= bound.

    Exhaustive and exact.  Every proper summand sorts earlier in the
    layered order of _dim_vectors, so at each d the indecomposables found
    so far hold one of each class below d, and by Krull-Schmidt the
    decomposable classes at d are the multisets _sums_at lists, one each.

    Where _may_hold_indecomposable(d) is false no grid is built (the support
    lemma; Auslander-Reiten-Smalo; Assem-Simson-Skowronski I.4).  A
    disconnected support splits along its components.  If d_v exceeds the
    dimensions at the other ends of v's arrows, the common kernel K of the
    arrows leaving v is larger than the sum I of the images of the arrows
    entering v; any x in K outside I spans a copy of S_v, and a hyperplane
    at v holding I but not x, with everything at the other vertices, is a
    complement.  The relations take no part.

    Otherwise _orbit_labels gives one orbit per isomorphism class.  When
    there are as many orbits as multisets, no orbit is left for an
    indecomposable and nothing more is built; only when there are more
    does _strike_out build the sums and keep the least tuple of each orbit
    none of them lies in.  No Hom space is computed: the catalog solves
    each one the first time it is asked for.  Before any dimension vector
    is listed, raises ValueError when some dimension vector has more than
    MAX_GRID_CELLS tuples.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    _check_prime(p)
    # The grid at d has p**e cells, e = sum over arrows of d_src * d_tgt, which
    # grows in every d_v with each term at most bound**2: the first widest d in
    # _dim_vectors' order is bound where an arrow touches and 0 elsewhere.
    touched = {v for a in algebra.arrows for v in (a.src, a.tgt)}
    widest = tuple(bound if v in touched else 0 for v in algebra.vertices)
    e = bound * bound * len(algebra.arrows)
    # p**e >= 2**e > MAX_GRID_CELLS from this e on, so p**e is formed only below it
    if e >= MAX_GRID_CELLS.bit_length() or p ** e > MAX_GRID_CELLS:
        cells = p ** e if e * math.log10(p) < _PRINTABLE_DIGITS else f"{p}**{e}"
        raise ValueError(
            f"dimension vector {dict(zip(algebra.vertices, widest))} has {cells} arrow-matrix "
            f"tuples, more than the {MAX_GRID_CELLS} an exhaustive enumeration may hold; "
            "lower the bound or the prime")
    # a module's space at a vertex no arrow touches is a summand, a sum of
    # that vertex's simples, so no other vector nonzero there is listed
    isolated = [i for i, v in enumerate(algebra.vertices) if v not in touched]
    dim_vectors = _dim_vectors(len(algebra.vertices), bound, isolated)
    found: list[Module] = []
    # every isomorphism class at each dimension vector done so far, as the
    # ascending tuple of its summands' indices in found
    classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for dv in dim_vectors:
        sums = _sums_at(found, classes, dv)
        classes[dv] = sums
        if not _may_hold_indecomposable(algebra, dv):
            continue
        orbits = _orbit_labels(algebra, p, dv)
        grid, shapes, _, label = orbits
        if len(_self_labelled(label)) == len(sums):
            continue
        reps = _strike_out(algebra, p, found, sums, orbits)
        new = _matrices_at(p, grid, shapes, reps)
        classes[dv] = sums + [(i,) for i in range(len(found), len(found) + len(reps))]
        found += [Module(algebra, p, dv, action, check=False) for action in _actions(algebra, p, new, len(reps))]
    return Catalog(algebra, p, bound, tuple(found))


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
    relation_lines: list[int] = []
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
            relation_lines.append(line_no)
        else:
            raise AlgebraFormatError(line_no, f"unknown directive {kind!r}")
    # an arrow may be declared after a relation that names it
    known = {a.name for a in arrows}
    for line_no, rel in zip(relation_lines, relations):
        for name in (n for _, path in rel for n in path if n not in known):
            raise AlgebraFormatError(line_no, f"relation names unknown arrow {name!r}")
    try:
        return Algebra(tuple(vertices), tuple(arrows), tuple(relations))
    except ValueError as exc:
        raise AlgebraFormatError(0, str(exc)) from exc


def algebra_to_json_dict(algebra: Algebra) -> dict:
    return {
        "vertices": list(algebra.vertices),
        "arrows": [[a.name, a.src, a.tgt] for a in algebra.arrows],
        "relations": [[[c, list(path)] for c, path in rel] for rel in algebra.relations],
    }
