"""Quivers with relations and their finite-dimensional representations.

A representation (module) assigns an F_p vector space to each vertex and
a matrix to each arrow, with relation combinations evaluating to zero.
Paths compose right to left: the path written "b.a" means apply a, then b,
so its matrix is M_b @ M_a.

The enumeration of indecomposables is exhaustive over dimension vectors:
for each vector it walks every relation-satisfying tuple of arrow matrices,
dedupes by base-change orbits (two representations with the same dimension
vector are isomorphic exactly when a product of GL(d_v) actions carries one
to the other), and keeps an orbit representative when no previously found
indecomposable splits off.  Cost grows like p**(sum of matrix sizes) per
dimension vector, so it is meant for small bounds over small primes.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
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


class NotFiniteDimensionalError(ValueError):
    """Path enumeration did not terminate under the relation ideal."""


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
    be composable paths sharing one source and one target vertex.  Whether
    the quotient path algebra is finite dimensional can depend on the
    prime (a coefficient may vanish mod p), so that check runs when
    projectives are first built, not here.
    """

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[Relation, ...] = ()

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.src not in vset or a.tgt not in vset:
                raise ValueError(f"arrow {a.name} references unknown vertex")
        for rel in self.relations:
            if not rel:
                raise ValueError("empty relation")
            endpoints = {(self.path_source(path), self.path_target(path)) for _, path in rel}
            if len(endpoints) != 1:
                raise ValueError(f"relation terms do not share source/target: {rel}")

    @property
    def arrow_by_name(self) -> dict[str, Arrow]:
        return {a.name: a for a in self.arrows}

    def vertex_index(self, v: str) -> int:
        return self.vertices.index(v)

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
        return self.dims[self.algebra.vertex_index(v)]

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
        r = dims[algebra.vertex_index(a.tgt)]
        c = dims[algebra.vertex_index(a.src)]
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
    """Add np.kron(a, I_k), or np.kron(I_k, a) when eye_first, into out in place.

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


def morphism_from_coords(coords, basis: Sequence[Morphism], source: Module, target: Module) -> Morphism:
    out = zero_morphism(source, target)
    for c, b in zip(coords, basis):
        if c % source.p:
            out = out + b.scale(int(c))
    return out


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


# -- isomorphism and indecomposability ------------------------------------


def find_isomorphism(m: Module, n: Module) -> Optional[Morphism]:
    """Exhaustive search for an invertible element of Hom(m, n).

    Walks all F_p combinations of the Hom basis, so it is exponential in
    dim Hom; intended for the small modules this package works with.
    """
    if m.algebra != n.algebra or m.p != n.p:
        raise ValueError("different algebras")
    if m.dims != n.dims:
        return None
    if m.is_zero():
        return zero_morphism(m, n)
    basis = hom_basis(m, n)
    if not basis:
        return None
    for combo in itertools.product(range(m.p), repeat=len(basis)):
        if not any(combo):
            continue
        phi = morphism_from_coords(combo, basis, m, n)
        if phi.is_isomorphism():
            return phi
    return None


def is_isomorphic(m: Module, n: Module) -> bool:
    return find_isomorphism(m, n) is not None


def is_indecomposable(m: Module) -> bool:
    """Idempotent search in End(m), exhaustive over F_p combinations.

    True when the only idempotents are 0 and the identity.  Exponential
    in dim End(m); use the catalog-aware split tests for bulk work.
    """
    if m.is_zero():
        raise ValueError("the zero module is neither decomposable nor indecomposable")
    ident = identity_morphism(m)
    ends = hom_basis(m, m)
    for combo in itertools.product(range(m.p), repeat=len(ends)):
        if not any(combo):
            continue
        phi = morphism_from_coords(combo, ends, m, m)
        if phi == ident:
            continue
        if phi @ phi == phi:
            return False
    return True


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

    def index_of(self, m: Module) -> int:
        """Catalog index of the indecomposable isomorphic to m."""
        dec = self.decompose(m)
        if sum(dec.values()) != 1:
            raise ValueError("module is not indecomposable")
        return next(iter(dec))

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "Catalog":
        obj = json.loads(text)
        algebra = algebra_from_json_dict(obj["algebra"])
        p = obj["p"]
        indecs = []
        for rec in obj["indecs"]:
            dims = rec["dims"]
            action = {}
            for a in algebra.arrows:
                r, c = dims.get(a.tgt, 0), dims.get(a.src, 0)
                action[a.name] = Mat(p, np.array(rec["action"][a.name], dtype=np.int64).reshape(r, c))
            indecs.append(Module(algebra, p, dims, action))
        return _with_hom_table(algebra, p, obj["bound"], tuple(indecs))


def decompose(m: Module, catalog: Catalog) -> Counter:
    """Krull-Schmidt multiset of catalog indices with direct_sum ~ m.

    Splits one summand at a time: find a catalog entry u with a section
    h: u -> m and a map g: m -> u such that g @ h is invertible, pass to
    the kernel of g, repeat.  Raises CatalogIncompleteError when a nonzero
    remainder has no catalog summand.
    """
    if m.algebra != catalog.algebra or m.p != catalog.p:
        raise ValueError("module not over the catalog's algebra")
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


@lru_cache(maxsize=None)
def _all_matrices(p: int, rows: int, cols: int):
    """All rows x cols matrices over F_p, lexicographic by flat entries."""
    mats = []
    index = {}
    for flat in itertools.product(range(p), repeat=rows * cols):
        a = np.array(flat, dtype=np.int64).reshape(rows, cols)
        a.setflags(write=False)
        index[a.tobytes()] = len(mats)
        mats.append(a)
    return mats, index


def _primitive_root(p: int) -> int:
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    return 1


def _gl_generators(d: int, p: int) -> list[np.ndarray]:
    gens = []
    if d == 0:
        return gens
    if p > 2:
        m = np.eye(d, dtype=np.int64)
        m[0, 0] = _primitive_root(p)
        gens.append(m)
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            for lam in range(1, p):
                m = np.eye(d, dtype=np.int64)
                m[i, j] = lam
                gens.append(m)
    return gens


def _dim_vectors(n: int, bound: int):
    """All nonzero vectors in [0, bound]^n, layered so larger bounds append.

    Order: by max entry, then total, then lexicographic.  A proper direct
    summand always sorts strictly earlier, which the enumeration relies on.
    """
    vecs = [t for t in itertools.product(range(bound + 1), repeat=n) if any(t)]
    vecs.sort(key=lambda t: (max(t), sum(t), t))
    return vecs


def _orbit_representatives(algebra: Algebra, p: int, dv: tuple[int, ...]):
    """One arrow-matrix tuple per isomorphism class at this dimension vector."""
    arrows = algebra.arrows
    vidx = {v: i for i, v in enumerate(algebra.vertices)}
    shapes = [(dv[vidx[a.tgt]], dv[vidx[a.src]]) for a in arrows]
    mats = []
    index = []
    for r, c in shapes:
        ms, ix = _all_matrices(p, r, c)
        mats.append(ms)
        index.append(ix)

    rel_progs = []
    for rel in algebra.relations:
        src = algebra.path_source(rel[0][1])
        tgt = algebra.path_target(rel[0][1])
        if dv[vidx[src]] == 0 or dv[vidx[tgt]] == 0:
            continue
        arrow_pos = {a.name: k for k, a in enumerate(arrows)}
        rel_progs.append([(coeff % p, [arrow_pos[name] for name in path]) for coeff, path in rel])

    def relations_ok(combo) -> bool:
        for prog in rel_progs:
            total = None
            for coeff, positions in prog:
                acc = mats[positions[0]][combo[positions[0]]]
                for pos in positions[1:]:
                    acc = acc @ mats[pos][combo[pos]]
                term = coeff * acc
                total = term if total is None else total + term
            if (total % p).any():
                return False
        return True

    # Generator index tables: applying one GL(d_v) generator rewrites only
    # the matrices of arrows touching v.
    tables = []
    for v, i in vidx.items():
        for g in _gl_generators(dv[i], p):
            g_inv = Mat(p, g).inverse().a
            tbl = {}
            for k, a in enumerate(arrows):
                r, c = shapes[k]
                if r == 0 or c == 0:
                    continue
                at_src = a.src == v
                at_tgt = a.tgt == v
                if not (at_src or at_tgt):
                    continue
                mapping = np.empty(len(mats[k]), dtype=np.int64)
                for mi, m in enumerate(mats[k]):
                    out = m
                    if at_tgt:
                        out = g @ out % p
                    if at_src:
                        out = out @ g_inv % p
                    mapping[mi] = index[k][np.ascontiguousarray(out).tobytes()]
                tbl[k] = mapping
            if tbl:
                tables.append(tbl)

    n_arrows = len(arrows)
    seen: set = set()
    reps = []
    for combo in itertools.product(*[range(len(ms)) for ms in mats]):
        if combo in seen:
            continue
        if not relations_ok(combo):
            continue
        reps.append(combo)
        queue = [combo]
        seen.add(combo)
        while queue:
            cur = queue.pop()
            for tbl in tables:
                nxt = tuple(tbl[k][cur[k]] if k in tbl else cur[k] for k in range(n_arrows))
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)

    out = []
    for combo in reps:
        action = {a.name: Mat(p, mats[k][combo[k]]) for k, a in enumerate(arrows)}
        out.append(action)
    return out


def _with_hom_table(algebra: Algebra, p: int, bound: int, indecs: tuple[Module, ...]) -> Catalog:
    table = {}
    for i, mi in enumerate(indecs):
        for j, mj in enumerate(indecs):
            table[(i, j)] = tuple(hom_basis(mi, mj))
    return Catalog(algebra=algebra, p=p, bound=bound, indecs=indecs, hom_table=table)


def enumerate_indecomposables(algebra: Algebra, bound: int, p: int = DEFAULT_PRIME) -> Catalog:
    """All indecomposables with every vertex dimension <= bound.

    Exhaustive and exact: every relation-satisfying matrix tuple is visited
    once, orbit-deduped under base change, and kept when no earlier
    indecomposable splits off (earlier = smaller in the layered dimension
    vector order, which contains every proper summand).  Runtime is
    dominated by p**(total matrix entries) per dimension vector.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    _check_prime(p)
    found: list[Module] = []
    for dv in _dim_vectors(len(algebra.vertices), bound):
        for action in _orbit_representatives(algebra, p, dv):
            m = Module(algebra, p, dv, action, check=False)
            if any(split_off_summand(u, m) is not None for u in found):
                continue
            found.append(m)
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


def algebra_from_json_dict(obj: dict) -> Algebra:
    return Algebra(
        tuple(obj["vertices"]),
        tuple(Arrow(*a) for a in obj["arrows"]),
        tuple(tuple((int(c), tuple(path)) for c, path in rel) for rel in obj["relations"]),
    )
