"""Quivers with relations and their finite-dimensional representations.

A representation (module) assigns an F_p vector space to each vertex and
a matrix to each arrow, with relation combinations evaluating to zero.
Paths compose right to left: the path written "b.a" means apply a, then b,
so its matrix is M_b @ M_a.

The enumeration of indecomposables is exhaustive over dimension vectors:
where one may live, it counts the tuples the direct sums of smaller
indecomposables fill (orbit-stabilizer), and only where tuples are left
over does it label the relation-satisfying arrow-matrix tuples with their
base-change orbits by array operations and keep the orbits no such sum
lies in.  The grid has p**(sum of matrix sizes) cells per dimension
vector, capped at MAX_GRID_CELLS.  Each relation term is evaluated over
its own arrows' axes, and the two sides of a relation are compared row
by row as base-p codes, so only boolean arrays span the grid.  Each
generator's index map on an arrow's matrices is built once per
enumeration, and each arrow's digits of the valid cells once per grid.
Where each summand of a direct sum sits at each vertex is
stated once, in _bounds; sums, summand maps and Ext^1 layouts read it.
"""

from __future__ import annotations

import itertools
import math
import operator
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
        return self is other or (isinstance(other, Module) and self.key() == other.key())

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self):
        return f"Module(dims={self.dims_by_vertex})"


def zero_module(algebra: Algebra, p: int) -> Module:
    return Module(algebra, p, [0] * len(algebra.vertices), {})


def _bounds(mods: Sequence[Module]) -> list[dict[str, int]]:
    """Summand k of direct_sum(mods) spans [out[k][v], out[k + 1][v]) at vertex v."""
    vertices = mods[0].algebra.vertices
    out = [dict.fromkeys(vertices, 0)]
    for m in mods:
        out.append(dict(zip(vertices, map(operator.add, out[-1].values(), m.dims))))
    return out


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
    bounds = _bounds(modules)
    total = bounds[-1]
    action = {}
    for a in algebra.arrows:
        block = np.zeros((total[a.tgt], total[a.src]), dtype=np.int64)
        for m, lo, hi in zip(modules, bounds, bounds[1:]):
            block[lo[a.tgt]:hi[a.tgt], lo[a.src]:hi[a.src]] = m.action[a.name].a
        action[a.name] = Mat(p, block)
    return Module(algebra, p, total, action, check=False)


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
    alg, at = m.algebra, m.algebra.vertex_index
    starts = list(itertools.accumulate(map(operator.mul, n.dims, m.dims), initial=0))
    row, terms = 0, []
    for a in alg.arrows:
        s, t = at[a.src], at[a.tgt]
        terms += [(row, starts[s], n.action[a.name].a, m.dims[s]),
                  (row, starts[t], n.dims[t], -m.action[a.name].a)]
        row += n.dims[t] * m.dims[s]
    return _kron_map(m.p, row, starts[-1], terms), dict(zip(alg.vertices, starts))


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


def _tuples(a: np.ndarray) -> tuple:
    """The entries of an integer array as nested tuples of Python integers."""
    return tuple(map(_tuples, a)) if a.ndim > 1 else tuple(a.tolist())


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
        # the rows of the reduced transpose span the image; the projection
        # kills them and keeps the free coordinates, which the section
        # puts back
        r, pivots = phi.comps[v].transpose().rref()
        free = [j for j in range(tgt.dim(v)) if j not in pivots]
        proj[v] = Mat.echelon_kernel(r, pivots).transpose()
        sect[v] = Mat(p, np.eye(tgt.dim(v), dtype=np.int64)[:, free])
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
    pairs, End-ring tops of entries, sums of entries, decompositions and
    placements are found on first use and kept: one module per tuple of
    entries summed, so equal sums are one object, which the Ext and
    decomposition memos find by identity.  hom_dims holds Hom dimensions,
    ranked by enumerate_indecomposables's orbit counts or by dim_hom.

    The catalog is also the Krull-Schmidt skeleton of its modules: a map
    between sums of entries is a block matrix of coordinates in the Hom
    bases, and the compose table over triples of entries, built on first
    use and kept, composes such blocks.  _pushes and _pulls keep the
    tables that compose them with the blocks of an Ext^1 class, and
    _ext1_dims the Ext^1 dimension of each ordered pair of entries, which
    homext fills (push_table, pull_table, ext1_dim).  Tables and block
    coordinates are tuples of Python integers, converted once when built.
    """

    algebra: Algebra
    p: int
    bound: int
    indecs: tuple[Module, ...]
    hom_dims: dict[tuple[int, int], int] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._homs: dict[tuple[int, int], tuple[Morphism, ...]] = {}
        self._hom_places: dict[tuple[int, int], list[int]] = {}
        self._units: dict[int, tuple[int, ...]] = {}
        self._tops: dict[int, Optional[tuple[str, Mat, Mat]]] = {}
        self._sums: dict[tuple[int, ...], Module] = {}
        self._decompose_memo: dict[Module, Counter] = {}
        self._placements: dict[Module, tuple[tuple[int, ...], Morphism]] = {}
        self._composes: dict[tuple[int, int, int], tuple] = {}
        self._pushes: dict[tuple[int, int, int], tuple] = {}
        self._pulls: dict[tuple[int, int, int], tuple] = {}
        self._ext1_dims: dict[tuple[int, int], int] = {}
        self._index: Optional[dict[Module, int]] = None
        # the order decompositions try the entries in (see decompose)
        self._largest_first = sorted(range(len(self.indecs)), key=lambda i: -self.indecs[i].total_dim)

    def __len__(self):
        return len(self.indecs)

    def index(self, m: Module) -> int:
        """The index of the entry m; ValueError when m is no entry."""
        if self._index is None:
            self._index = {u: i for i, u in enumerate(self.indecs)}
        i = self._index.get(m)
        if i is None:
            raise ValueError(f"{m!r} is not an entry of the catalog")
        return i

    def hom(self, i: int, j: int) -> tuple[Morphism, ...]:
        """hom_basis(indecs[i], indecs[j]), solved once per pair."""
        basis = self._homs.get((i, j))
        if basis is None:
            basis = self._homs[(i, j)] = tuple(hom_basis(self.indecs[i], self.indecs[j]))
        return basis

    def dim_hom(self, i: int, j: int) -> int:
        """dim Hom(indecs[i], indecs[j]), kept in hom_dims: the length of
        hom(i, j) once its basis is solved, else a rank (dim_hom)."""
        dim = self.hom_dims.get((i, j))
        if dim is None:
            basis = self._homs.get((i, j))
            dim = self.hom_dims[(i, j)] = dim_hom(self.indecs[i], self.indecs[j]) if basis is None else len(basis)
        return dim

    def hom_coords(self, i: int, j: int, vecs: np.ndarray) -> np.ndarray:
        """Coordinates in hom(i, j) of maps given as flattened vectors
        (_flatten_morphism), one per column: their entries where the basis
        maps have their last nonzero entry.  hom_basis is a reduced echelon
        kernel, so there one basis map is 1 and the others are 0."""
        places = self._hom_places.get((i, j))
        if places is None:
            places = self._hom_places[(i, j)] = [
                int(np.flatnonzero(_flatten_morphism(f))[-1]) for f in self.hom(i, j)]
        return vecs[places]

    def unit(self, i: int) -> tuple[int, ...]:
        """The coordinates of entry i's identity in hom(i, i), read once per entry."""
        unit = self._units.get(i)
        if unit is None:
            identity = _flatten_morphism(identity_morphism(self.indecs[i]))
            unit = self._units[i] = _tuples(self.hom_coords(i, i, identity))
        return unit

    def top(self, i: int) -> Optional[tuple[str, Mat, Mat]]:
        """_top of entry i on its End basis, found once per entry."""
        if i not in self._tops:
            self._tops[i] = _top(self.indecs[i], self.hom(i, i))
        return self._tops[i]

    def sum_of(self, indices: Iterable[int]) -> Module:
        """The direct sum of the entries at the indices, in their order, one
        module per tuple; one index gives the entry itself."""
        key = tuple(indices)
        m = self._sums.get(key)
        if m is None:
            m = self._sums[key] = (self.indecs[key[0]] if len(key) == 1 else direct_sum(
                [self.indecs[i] for i in key], algebra=self.algebra, p=self.p))
        return m

    def decompose(self, m: Module) -> Counter:
        hit = self._decompose_memo.get(m)
        if hit is None:
            hit = self._decompose_memo[m] = decompose(m, self)
        return Counter(hit)

    def placement(self, m: Module) -> tuple[tuple[int, ...], Morphism]:
        """The sorted summands of m and an isomorphism of m onto their
        sum_of, found once per module.

        For an entry u of multiplicity k, the isomorphism's rows at u's
        places are the k maps m -> u of _summand_maps, whose rows of u's
        pairing are independent.  Stacked over the entries they form
        G: m -> sum, and G H, for H the maps u -> m at independent columns,
        is invertible: modulo the radical it is block diagonal with
        invertible k x k blocks, since a map between distinct
        indecomposables lies in the radical.  So G, between modules of one
        dimension, is invertible.  The pass that finds the maps also
        decomposes m; when m's decomposition is known, only its summands
        are paired.  Entries whose residue field is larger than F_p are
        split off one at a time instead (_placement_by_splits).
        """
        hit = self._placements.get(m)
        if hit is None:
            known = self._decompose_memo.get(m)
            maps = _summand_maps(m, self, sorted(known) if known is not None else self._largest_first)
            if maps is None:
                indices, rows = _placement_by_splits(m, self)
                counts = self._decompose_memo.setdefault(m, Counter(indices))
            else:
                counts = self._decompose_memo.setdefault(m, Counter({i: len(gs) for i, gs in maps.items()}))
                rows = {v: [g.comps[v].a for i in sorted(maps) for g in maps[i]] for v in self.algebra.vertices}
            summands = tuple(sorted(counts.elements()))
            target = self.sum_of(summands)
            iso = Morphism(m, target, {v: Mat(self.p, np.vstack(blocks) if blocks else
                                              np.zeros((0, m.dim(v)), dtype=np.int64))
                                       for v, blocks in rows.items()}, check=False)
            if not iso.is_isomorphism():
                raise AssertionError("the placement of a module is not an isomorphism")
            hit = self._placements[m] = (summands, iso)
        return hit

    def compose(self, i: int, j: int, k: int) -> tuple:
        """Hom(j, k) x Hom(i, j) -> Hom(i, k): entry [b][c][a] holds
        coordinate c of hom(j, k)[b] @ hom(i, j)[a] in hom(i, k)."""
        table = self._composes.get((i, j, k))
        if table is None:
            before = self.hom(i, j)
            table = np.zeros((self.dim_hom(j, k), self.dim_hom(i, k), len(before)), dtype=np.int64)
            for b, g in enumerate(self.hom(j, k) if before else ()):
                table[b] = self.hom_coords(i, k, np.stack([_flatten_morphism(g @ f) for f in before], axis=1))
            table = self._composes[(i, j, k)] = _tuples(table)
        return table

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


def _pairing(u: Module, m: Module, top: tuple[str, Mat, Mat]) -> tuple[list[Morphism], Mat]:
    """Hom(m, u) and the matrix of (g, h) -> top(g h) = phi g_v h_v v0 on
    Hom(m, u) x Hom(u, m): rows phi g_v times columns h_v v0."""
    into = hom_basis(u, m)
    back = hom_basis(m, u) if into else []
    if not back:
        return back, Mat.zeros(m.p, 0, len(into))
    v, v0, phi = top
    cols = Mat(m.p, np.hstack([(h.comps[v] @ v0).a for h in into]))
    rows = Mat(m.p, np.vstack([(phi @ g.comps[v]).a for g in back]))
    return back, rows @ cols


def decompose(m: Module, catalog: Catalog) -> Counter:
    """Krull-Schmidt multiset of catalog indices with direct_sum ~ m.

    The multiplicity of a catalog entry u in m is the rank of the pairing
    Hom(u, m) x Hom(m, u) -> End(u)/rad = F_p, (h, g) -> top(g h): a
    composite through an indecomposable summand other than u lies in the
    radical of the local ring End(u), and on the copies of u the pairing
    is the sum of top(g_k) top(h_k) (Auslander-Reiten-Smalo, Representation
    Theory of Artin Algebras, on local endomorphism rings).  Entries are
    tried largest first while they fit the dimensions not yet accounted
    for, so a few large summands leave no room for the many small entries
    after them.  When one that fits has a residue field larger than F_p,
    the whole module goes to _decompose_by_splits instead.  Raises
    CatalogIncompleteError when dimensions are left over.
    """
    if m.algebra != catalog.algebra or m.p != catalog.p:
        raise ValueError("module not over the catalog's algebra")
    maps = _summand_maps(m, catalog, catalog._largest_first)
    if maps is None:
        return _decompose_by_splits(m, catalog)
    return Counter({idx: len(gs) for idx, gs in maps.items()})


def _summand_maps(m: Module, catalog: Catalog, entries: Iterable[int]) -> Optional[dict[int, list[Morphism]]]:
    """For each of the entries that is a summand of m, the maps of
    Hom(m, u) at a basis of the rows of u's pairing, as many as its
    multiplicity.  The entries are tried in order while they fit the
    dimensions not yet accounted for.  None when one that fits has a
    residue field larger than F_p; CatalogIncompleteError when dimensions
    are left over."""
    maps, left = {}, m.dims
    for idx in entries:
        u = catalog.indecs[idx]
        if not any(left):
            break
        if any(du > dl for du, dl in zip(u.dims, left)):
            continue
        top = catalog.top(idx)
        if top is None:
            return None
        back, pairing = _pairing(u, m, top)
        rows = pairing.transpose().rref()[1]
        if rows:
            maps[idx] = [back[r] for r in rows]
            left = tuple(dl - len(rows) * du for dl, du in zip(left, u.dims))
    if any(left):
        raise CatalogIncompleteError(
            f"indecomposable summand of dims {dict(zip(m.algebra.vertices, left))} not in catalog"
        )
    return maps


def _decompose_by_splits(m: Module, catalog: Catalog) -> Counter:
    """decompose by splitting one summand at a time (_placement_by_splits).
    Needs only End(u) local, so it serves entries whose residue field is
    larger than F_p.
    """
    return Counter(_placement_by_splits(m, catalog)[0])


def _placement_by_splits(m: Module, catalog: Catalog) -> tuple[list[int], dict[str, list[np.ndarray]]]:
    """The summands of m in catalog order and the rows, by vertex, of an
    isomorphism of m onto their sum, split off one at a time: find the
    first catalog entry u with a section h: u -> m and a map g: m -> u such
    that g h is invertible; e = (g h)^-1 g retracts h, and the rest
    m' = ker(e) is reached by 1 - h e, which lands in it; repeat on m'.
    Raises CatalogIncompleteError when no entry splits off a nonzero rest.
    """
    indices: list[int] = []
    rows: dict[str, list[np.ndarray]] = {v: [] for v in m.algebra.vertices}
    rest, to_rest = m, identity_morphism(m)
    while not rest.is_zero():
        for idx, u in enumerate(catalog.indecs):
            pair = split_off_summand(u, rest)
            if pair is not None:
                break
        else:
            raise CatalogIncompleteError(
                f"indecomposable summand of dims {rest.dims_by_vertex} not in catalog"
            )
        h, g = pair
        e = (g @ h).inverse() @ g
        indices.append(idx)
        for v, mat in (e @ to_rest).comps.items():
            rows[v].append(mat.a)
        kept, incl = kernel(e)
        onto = identity_morphism(rest) + -(h @ e)
        to_rest = Morphism(rest, kept, {v: incl.comps[v].solve(onto.comps[v]) for v in rows},
                           check=False) @ to_rest
        rest = kept
    return indices, rows


# -- exhaustive enumeration -------------------------------------------------

# The orbit search holds int32 and bool arrays with one cell per
# arrow-matrix tuple of a dimension vector, about 17 bytes per cell in all
# when every tuple satisfies the relations; otherwise about 12 bytes plus 4
# per GL(d_v) generator and 4 per arrow (its int32 digit) for each tuple
# that does, and 1 for each that does not.  enumerate_indecomposables
# refuses a larger grid before building any.
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

    Grid axis k indexes the matrices of arrow k.  Each term's path product
    broadcasts the matrices of its arrows over their own axes only.  The
    terms touching a relation's first axis are summed one slice of that
    axis at a time; the others are summed once, negated.  The two sums
    agree mod p exactly when every row of one has the base-p code of the
    same row of the other, so the grid is narrowed by one boolean
    comparison per row of the relation value.  A row code is below
    p**d_src, which the grid ceiling keeps small, where the code of a
    whole value matrix could pass 2**63.  A relation whose source or
    target has dimension 0 has empty values, which never fail.
    """
    grid = tuple(p ** (r * c) for r, c in shapes)
    valid = np.ones(grid, dtype=bool)
    arrow_pos = {a.name: k for k, a in enumerate(algebra.arrows)}

    def axis_view(k: int, lo: int, hi: int) -> np.ndarray:
        lead = (1,) * k + (hi - lo,) + (1,) * (len(grid) - 1 - k)
        return _matrices(p, *shapes[k], np.arange(lo, hi)).reshape(lead + shapes[k])

    def row_codes(views: Mapping[int, np.ndarray], terms, rows: int, cols: int) -> np.ndarray:
        # the code of each row of the terms' sum, over the union of their axes
        total = np.zeros((1,) * len(grid) + (rows, cols), dtype=np.int64)
        for coeff, path in terms:
            term = views[arrow_pos[path[0]]]
            for name in path[1:]:
                term = term @ views[arrow_pos[name]] % p
            total = total + coeff % p * term
        return total % p @ _base_p_weights(p, cols)

    for rel in algebra.relations:
        rows, cols = shapes[arrow_pos[rel[0][1][0]]][0], shapes[arrow_pos[rel[0][1][-1]]][1]
        if not rows or not cols:
            continue
        axes = [{arrow_pos[name] for name in path} for _, path in rel]
        first = min(set().union(*axes))
        moving = [term for term, own in zip(rel, axes) if first in own]
        fixed = [(-coeff, path) for (coeff, path), own in zip(rel, axes) if first not in own]
        others = set().union(*axes) - {first}
        views = {k: axis_view(k, 0, grid[k]) for k in others}
        fixed_codes = row_codes(views, fixed, rows, cols)
        wide = set().union(*(own for own in axes if first in own)) - {first}
        step = max(1, _CHUNK_CELLS // int(np.prod([grid[k] for k in wide])))
        for lo in range(0, grid[first], step):
            hi = min(grid[first], lo + step)
            moving_codes = row_codes({**views, first: axis_view(first, lo, hi)}, moving, rows, cols)
            block = valid[(slice(None),) * first + (slice(lo, hi),)]
            for i in range(rows):
                block &= moving_codes[..., i] == fixed_codes[..., i]
    return valid


def _positions(cells: np.ndarray, strides: Sequence[int], digits: Mapping[int, np.ndarray],
               maps: Sequence[np.ndarray], touching: Sequence[int]) -> np.ndarray:
    """For each cell, the position among cells of its image when grid axis k
    is moved by the index map maps[k], for k in touching; digits[k] is each
    cell's index along axis k, whose flat stride is strides[k]."""
    moved = cells.copy()
    for k in touching:
        moved += (maps[k][digits[k]] - digits[k]) * np.int32(strides[k])
    return np.searchsorted(cells, moved).astype(np.int32)


def _arrow_shapes(algebra: Algebra, dv: tuple[int, ...]) -> list[tuple[int, int]]:
    """The (rows, cols) of each arrow's matrices at this dimension vector."""
    at = algebra.vertex_index
    return [(dv[at[a.tgt]], dv[at[a.src]]) for a in algebra.arrows]


def _orbit_labels(algebra: Algebra, p: int, dv: tuple[int, ...], valid: np.ndarray, index_maps: dict):
    """Orbit labels on the relation-satisfying arrow-matrix tuples at this
    dimension vector, which the mask valid (_relation_mask) marks.

    The tuples form a grid with one axis per arrow, indexed by matrix
    index, so flat indices order tuples lexicographically (a quiver
    without arrows has a grid of one cell, its only tuple).  Base change
    keeps the relations, so the orbits of relation-satisfying cells stay
    among them, and only those cells are labelled, by their position among
    them.  Every label starts as its own position and drops to the least
    label among its images under the GL(d_v) generators, with pointer
    jumping, until nothing changes; each label is then the position of the
    least flat index of its orbit.  A generator's index map on an arrow's
    matrices depends only on p, the arrow's shape, the generator and the
    side it acts on, so the maps of all generators are built once and kept
    in index_maps under (p, shape, side); the generators of GL(d, F_p) are
    built only for such a miss, once, and kept under (p, d).
    enumerate_indecomposables passes one dict for all its dimension
    vectors.  Returns the grid shape, the arrow shapes, the ascending flat
    indices of the relation-satisfying cells and their labels.
    """
    arrows = algebra.arrows
    at = algebra.vertex_index
    shapes = _arrow_shapes(algebra, dv)
    grid = valid.shape
    cells = np.flatnonzero(valid).astype(np.int32)
    # with every cell valid, positions are flat indices
    dense = len(cells) == valid.size
    if not dense:
        strides = [int(np.prod(grid[k + 1:], dtype=np.int64)) for k in range(len(grid))]
        digits = {k: cells // strides[k] % n for k, n in enumerate(grid) if n > 1}

    # A generator g at v moves the matrix index of each arrow at v
    # (M -> g M at its target, M -> M g^-1 at its source).  On a dense grid
    # np.ix_ keeps these per-arrow maps as an open mesh; otherwise each
    # move is kept as one int32 position per cell.
    unmoved = [np.arange(n, dtype=np.int32) for n in grid]
    moves = []
    for v, i in at.items():
        touching = [k for k, a in enumerate(arrows) if v in (a.src, a.tgt) and grid[k] > 1]
        if not touching:
            continue
        per_arrow = []
        for k in touching:
            r, c = shapes[k]
            side = (arrows[k].tgt == v, arrows[k].src == v)
            key = (p, (r, c), side)
            if key not in index_maps:
                if (p, dv[i]) not in index_maps:
                    index_maps[p, dv[i]] = _gl_generators(dv[i], p)
                index_maps[key] = [
                    _moved_codes(p, r, c, g if side[0] else np.eye(r, dtype=np.int64),
                                 g_inv if side[1] else np.eye(c, dtype=np.int64))
                    for g, g_inv in index_maps[p, dv[i]]]
            per_arrow.append(index_maps[key])
        for generator_maps in zip(*per_arrow):
            maps = list(unmoved)
            for k, index_map in zip(touching, generator_maps):
                maps[k] = index_map
            moves.append(np.ix_(*maps) if dense else _positions(cells, strides, digits, maps, touching))

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
    class Y at dv - dims(found[i]) in classes whose least index is >= i.
    Only entries whose dimension vector fits under dv can be a summand."""
    sums = []
    for i, top in enumerate(found):
        if all(map(operator.le, top.dims, dv)):
            rest = classes.get(tuple(map(operator.sub, dv, top.dims)), ())
            sums += [(i,) + ms for ms in rest if ms[0] >= i]
    return sums


def _strike_out(algebra: Algebra, p: int, found: Sequence[Module], sums: Sequence[tuple[int, ...]],
                orbits) -> np.ndarray:
    """The self-labelled cells, ascending, whose orbit (from _orbit_labels)
    holds none of the sums, built block-diagonally in index order."""
    grid, shapes, cells, label = orbits
    stacks = [np.zeros((len(sums), r, c), dtype=np.int64) for r, c in shapes]
    for j, ms in enumerate(sums):
        bounds = _bounds([found[i] for i in ms])
        for stack, a in zip(stacks, algebra.arrows):
            for i, lo, hi in zip(ms, bounds, bounds[1:]):
                stack[j, lo[a.tgt]:hi[a.tgt], lo[a.src]:hi[a.src]] = found[i].action[a.name].a
    decomposable = np.zeros(len(cells), dtype=bool)
    decomposable[label[np.searchsorted(cells, _cells_at(p, grid, stacks, len(sums)))]] = True
    own = _self_labelled(label)
    return cells[own[~decomposable[own]]]


def _gl_order(d: int, p: int) -> int:
    """|GL(d, F_p)|: column k has p**d - p**k choices outside the span of the first k."""
    return math.prod(p ** d - p ** k for k in range(d))


class _HomDims(dict):
    """dim Hom(found[i], found[j]) under (i, j), solved as a rank
    (dim_hom) the first time a pair is looked up."""

    def __init__(self, found: Sequence[Module]):
        super().__init__()
        self.found = found

    def __missing__(self, pair: tuple[int, int]) -> int:
        i, j = pair
        dim = self[pair] = dim_hom(self.found[i], self.found[j])
        return dim


class _Automorphisms:
    """|Aut| of the sums of the entries found so far, from ranks of Hom systems.

    When every summand M_i of S = (+) M_i**m_i is a brick, End(S) modulo its
    radical is the product of the rings M_{m_i}(F_p), so
    |Aut S| = p**(dim End S - sum m_i**2) * prod |GL(m_i, F_p)|, with
    dim End S = sum m_i m_j dim Hom(M_i, M_j).  dim Hom of each pair is
    solved once, in hom_dims; |Aut| is kept per class tuple in orders.
    """

    def __init__(self, p: int, found: Sequence[Module]):
        self.p = p
        self.hom_dims = _HomDims(found)
        self.orders: dict[tuple[int, ...], Optional[int]] = {(): 1}

    def order(self, ms: tuple[int, ...]) -> Optional[int]:
        """|Aut| of the sum of the entries ms (ascending), or None when one of
        them is no brick.  It extends its tail's: the m-th copy of i = ms[0]
        adds dim Hom(i, i) + sum over the tail's j of dim Hom(i, j) +
        dim Hom(j, i) to dim End, 2m - 1 to sum m_i**2, and the factor
        p**(m - 1) * (p**m - 1) to |GL(m, F_p)|."""
        if ms in self.orders:
            return self.orders[ms]
        i, tail = ms[0], ms[1:]
        rest, hom = self.order(tail), self.hom_dims
        order = None
        if rest is not None and hom[i, i] == 1:
            m = ms.count(i)
            grow = 1 + sum([hom[i, j] + hom[j, i] for j in tail])
            order = rest * self.p ** (grow - m) * (self.p ** m - 1)
        self.orders[ms] = order
        return order

    def tuples_filled(self, dv: tuple[int, ...], sums: Iterable[tuple[int, ...]]) -> Optional[int]:
        """How many arrow-matrix tuples at dv the classes sums fill, or None
        when a summand of one is no brick.  G_d = prod GL(d_v, F_p) acts by
        base change, and the stabilizer of a tuple is the automorphism group
        of its module, so each class fills |G_d| / |Aut S| tuples."""
        group = math.prod(_gl_order(d, self.p) for d in dv)
        filled = 0
        for ms in sums:
            order = self.order(ms)
            if order is None:
                return None
            filled += group // order
        return filled


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

    Otherwise the decomposable classes are counted before any tuple is
    labelled (orbit-stabilizer, _Automorphisms.tuples_filled; cf. Hua,
    Counting representations of quivers over finite fields, J. Algebra
    2000).  When their orbits fill all the relation-satisfying tuples
    (p**e of them without relations, the mask's count otherwise), d holds
    no indecomposable and nothing is labelled; a count above the tuples
    is a broken invariant and raises AssertionError.  Where tuples are
    left over, or a summand is no brick and the count does not apply,
    _orbit_labels gives one orbit per isomorphism class on the relation
    mask, the count's own where there are relations.  When there are as
    many orbits as multisets, no orbit is left for an indecomposable;
    otherwise _strike_out builds the sums and keeps the least tuple of
    each orbit none of them lies in, as without the count.  The catalog
    keeps the Hom dimensions the count solved as ranks (Catalog.hom_dims);
    no Hom basis is solved.  Before any dimension vector is listed,
    raises ValueError when some dimension vector has more than
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
    automorphisms = _Automorphisms(p, found)
    # the generators and their index maps on arrow matrices, shared by every grid
    index_maps: dict = {}
    for dv in dim_vectors:
        sums = _sums_at(found, classes, dv)
        classes[dv] = sums
        if not _may_hold_indecomposable(algebra, dv):
            continue
        shapes = _arrow_shapes(algebra, dv)
        # without relations every tuple counts, and no mask is built unless
        # the grid is labelled
        valid = _relation_mask(algebra, p, shapes) if algebra.relations else None
        tuples = p ** sum(r * c for r, c in shapes) if valid is None else int(np.count_nonzero(valid))
        filled = automorphisms.tuples_filled(dv, sums)
        if filled is not None and filled > tuples:
            raise AssertionError(f"the decomposable classes at {dv} fill {filled} of its {tuples} tuples")
        if filled == tuples:
            continue
        if valid is None:
            valid = _relation_mask(algebra, p, shapes)
        orbits = _orbit_labels(algebra, p, dv, valid, index_maps)
        grid, _, _, label = orbits
        if len(_self_labelled(label)) == len(sums):
            continue
        reps = _strike_out(algebra, p, found, sums, orbits)
        new = _matrices_at(p, grid, shapes, reps)
        classes[dv] = sums + [(i,) for i in range(len(found), len(found) + len(reps))]
        found += [Module(algebra, p, dv, action, check=False) for action in _actions(algebra, p, new, len(reps))]
    return Catalog(algebra, p, bound, tuple(found), hom_dims=dict(automorphisms.hom_dims))


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
    arrow_lines: list[int] = []
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
            if parts[1] in vertices:
                raise AlgebraFormatError(line_no, f"duplicate vertex {parts[1]!r}")
            vertices.append(parts[1])
        elif kind == "arrow":
            if len(parts) != 4:
                raise AlgebraFormatError(line_no, "expected: arrow <id> <src> <tgt>")
            if any(a.name == parts[1] for a in arrows):
                raise AlgebraFormatError(line_no, f"duplicate arrow {parts[1]!r}")
            arrows.append(Arrow(parts[1], parts[2], parts[3]))
            arrow_lines.append(line_no)
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
    # an arrow may be declared before its vertices and a relation before
    # its arrows, so Algebra checks each on its own line once all are read
    checks = [(line_no, (arrow,), ()) for line_no, arrow in zip(arrow_lines, arrows)]
    checks += [(line_no, tuple(arrows), (rel,)) for line_no, rel in zip(relation_lines, relations)]
    for line_no, some_arrows, some_relations in checks:
        try:
            Algebra(tuple(vertices), some_arrows, some_relations)
        except ValueError as exc:
            raise AlgebraFormatError(line_no, str(exc)) from exc
    return Algebra(tuple(vertices), tuple(arrows), tuple(relations))


def algebra_to_json_dict(algebra: Algebra) -> dict:
    return {
        "vertices": list(algebra.vertices),
        "arrows": [[a.name, a.src, a.tgt] for a in algebra.arrows],
        "relations": [[[c, list(path)] for c, path in rel] for rel in algebra.relations],
    }
