"""Ext^1 spaces, extension realization, and conflation enumeration.

An extension a >-> e ->> c splits at each vertex as a vector space, so
e_v = a_v (+) c_v and each arrow acts by e_x = [[a_x, phi_x], [0, c_x]]
for a block phi_x: c_src -> a_tgt.  e satisfies a relation exactly when
the upper-right corner of the relation's block matrix vanishes; that
corner is linear in phi, and its solutions are the cocycles Z.  Two such
extensions are equivalent with the ends fixed exactly through a map
[[1, h], [0, 1]], which changes phi by the coboundary
x -> a_x h_src - h_tgt c_x; these make up B, and Ext^1(c, a) = Z / B.
A class is stored as canonical coordinates in a fixed basis of Z,
reduced modulo B.

Extension equivalence is always taken with the ends fixed: two sequences
are equivalent exactly when their reduced coordinates agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .exactfield import Mat
from .quivrep import (
    Catalog,
    Module,
    Morphism,
    _commuting_system,
    _kron_map,
    direct_sum,
)


# -- short exact sequences -----------------------------------------------------


@dataclass(frozen=True)
class SES:
    """Short exact sequence a >-> b ->> c, exactness rank-checked.

    Frozen, so equal sequences hash equal and can key the class_of memo.
    """

    a: Module
    b: Module
    c: Module
    inc: Morphism
    prj: Morphism

    def __post_init__(self):
        if self.inc.source != self.a or self.inc.target != self.b:
            raise ValueError("inc endpoints wrong")
        if self.prj.source != self.b or self.prj.target != self.c:
            raise ValueError("prj endpoints wrong")
        if not self.inc.is_injective():
            raise ValueError("inc not injective")
        if not self.prj.is_surjective():
            raise ValueError("prj not surjective")
        if not (self.prj @ self.inc).is_zero():
            raise ValueError("prj o inc nonzero")
        for v in self.b.algebra.vertices:
            if self.a.dim(v) + self.c.dim(v) != self.b.dim(v):
                raise ValueError("exactness fails at " + v)

    def __repr__(self):
        return f"SES({self.a.dims} -> {self.b.dims} -> {self.c.dims})"


def split_ses(a: Module, c: Module) -> SES:
    """The split sequence a >-> a (+) c ->> c."""
    b = direct_sum([a, c], algebra=a.algebra, p=a.p)
    inc = summand_inclusion([a, c], 0, b)
    prj = summand_projection([a, c], 1, b)
    return SES(a, b, c, inc, prj)


def summand_inclusion(mods: Sequence[Module], k: int, total: Optional[Module] = None) -> Morphism:
    if total is None:
        total = direct_sum(list(mods))
    alg, p = total.algebra, total.p
    comps = {}
    for v in alg.vertices:
        block = np.zeros((total.dim(v), mods[k].dim(v)), dtype=np.int64)
        off = sum(m.dim(v) for m in mods[:k])
        block[off:off + mods[k].dim(v)] = np.eye(mods[k].dim(v), dtype=np.int64)
        comps[v] = Mat(p, block)
    return Morphism(mods[k], total, comps, check=False)


def summand_projection(mods: Sequence[Module], k: int, total: Optional[Module] = None) -> Morphism:
    if total is None:
        total = direct_sum(list(mods))
    alg, p = total.algebra, total.p
    comps = {}
    for v in alg.vertices:
        block = np.zeros((mods[k].dim(v), total.dim(v)), dtype=np.int64)
        off = sum(m.dim(v) for m in mods[:k])
        block[:, off:off + mods[k].dim(v)] = np.eye(mods[k].dim(v), dtype=np.int64)
        comps[v] = Mat(p, block)
    return Morphism(total, mods[k], comps, check=False)


# -- Ext^1 ---------------------------------------------------------------------


def _relation_system(c: Module, a: Module, offsets: Mapping[str, int], total: int) -> Mat:
    """The relations of the extension [[a, phi], [0, c]] as equations in phi,
    built by one _kron_map.

    A term x_k...x_1 has upper-right corner
    sum_i a_{x_k...x_{i+1}} phi_{x_i} c_{x_{i-1}...x_1}, one map term per
    i with the coefficient folded into the left factor.  Each relation
    gives a.dim(tgt) * c.dim(src) rows; unknowns are as in Ext1Space.
    """
    alg, p = c.algebra, c.p
    row, terms = 0, []
    for rel in alg.relations:
        src, tgt = alg.path_source(rel[0][1]), alg.path_target(rel[0][1])
        for coeff, path in rel:
            for i, name in enumerate(path):
                after, before = path[:i], path[i + 1:]
                left = a.path_matrix(after).a if after else np.eye(a.dim(tgt), dtype=np.int64)
                right = c.path_matrix(before).a if before else c.dim(src)
                terms.append((row, offsets[name], coeff % p * left % p, right))
        row += a.dim(tgt) * c.dim(src)
    return _kron_map(p, row, total, terms)


def _column(coords) -> np.ndarray:
    return np.array(coords, dtype=np.int64).reshape(-1, 1)


@dataclass(frozen=True)
class ExtClass:
    """An element of Ext^1(c, a) in canonical reduced coordinates.

    A class is its ends and coordinates; its space is looked up through
    ext1_space only when a cocycle or a realization is asked for, so a
    zero class can be listed without building its space.  The cocycle is
    expanded once and kept.
    """

    c: Module
    a: Module
    coords: tuple[int, ...]
    _cocycle: Optional[dict[str, Mat]] = field(default=None, repr=False, compare=False)

    @property
    def space(self) -> "Ext1Space":
        return ext1_space(self.c, self.a)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def cocycle(self) -> dict[str, Mat]:
        """The blocks phi_x: c_src -> a_tgt of the class's cocycle, by arrow name."""
        if self._cocycle is None:
            object.__setattr__(self, "_cocycle", self.space.cocycle(self.coords))
        return self._cocycle

    def realize(self) -> SES:
        return self.space.realize(self)


class Ext1Space:
    """Ext^1(c, a) = cocycles / coboundaries on the arrows, with fixed coordinates.

    A cocycle's unknowns are the row-major entries of its blocks phi_x,
    in arrow order, subject to _relation_system; the coboundaries of the
    unit vertexwise maps h are the columns of the Hom(c, a)
    commuting-square system, whose rows have the same layout.  A cocycle
    is zero exactly when its coordinates in Z are, so the rows of that
    system at Z's coordinates have Hom(c, a) as their kernel: one
    elimination gives the coboundaries in Z and Hom(c, a), in the basis
    hom_basis(c, a) gives.  Both systems, like the push, pull and
    five-term maps between spaces, are built by _kron_map.

    Batched forms work on many classes at once, one per column: Z
    coordinates (`cocycles`, `reduce_many`), cocycle vectors
    (`reduce_cocycles`) and Hom vectors (`hom_coords`); the one-class
    forms are their one-column cases.
    """

    # thousands are kept by ext1_space, so they carry no instance dict
    __slots__ = ("c", "a", "p", "hom", "_offsets", "_relations", "_z", "_zfree",
                 "_hom_offsets", "_pivots", "_rref_t", "_free", "_hom_free")

    def __init__(self, c: Module, a: Module):
        if c.algebra != a.algebra or c.p != a.p:
            raise ValueError("Ext endpoints over different algebras")
        self.c = c
        self.a = a
        p = self.p = c.p
        offsets, total = {}, 0
        for x in c.algebra.arrows:
            offsets[x.name] = total
            total += a.dim(x.tgt) * c.dim(x.src)
        # where each arrow's block starts among the cocycle unknowns, by
        # arrow index, and likewise each vertex's component among Hom's
        self._offsets = tuple(offsets.values())
        r, held = _relation_system(c, a, offsets, total).rref()
        # the pivot rows span the relations; Z's basis is the identity on
        # the other unknowns, so a cocycle's entries there are its coordinates
        self._relations = Mat(p, r.a[:len(held)])
        self._z = Mat.echelon_kernel(r, held)
        self._zfree = [i for i in range(total) if i not in held]
        boundaries, offsets = _commuting_system(c, a)
        self._hom_offsets = tuple(offsets.values())
        nz, n = len(self._zfree), boundaries.cols
        # [B^T | J], J reversing the unit maps: on top the coboundaries in Z,
        # in echelon form; below, the combinations of unit maps with zero
        # coboundary, in echelon form from the last unit map, which is the
        # reduced-echelon kernel hom_basis reads off the full system
        r, pivots = Mat(p, np.hstack([boundaries.a[self._zfree].T,
                                      np.eye(n, dtype=np.int64)[::-1]])).rref()
        rank = sum(pc < nz for pc in pivots)
        self._pivots = pivots[:rank]
        # the coboundaries' pivot rows, one per column
        self._rref_t = Mat(p, r.a[:rank, :nz].T)
        self._free = [i for i in range(nz) if i not in self._pivots]
        self.hom = Mat(p, r.a[rank:, nz:][::-1, ::-1].T)
        # each Hom basis vector is 1 at its last nonzero unknown and the
        # others are 0 there, so a map's entries there are its coordinates
        self._hom_free = [n - 1 - (pc - nz) for pc in reversed(pivots[rank:])]

    @property
    def dim(self) -> int:
        return len(self._free)

    # -- batched forms: one class or one map per column -------------------

    def cocycles(self, coords: np.ndarray) -> Mat:
        """Cocycle vectors of the columns of Z coordinates."""
        return self._z @ Mat(self.p, coords)

    def reduce_many(self, coords: np.ndarray) -> np.ndarray:
        """Canonical Z coordinates modulo the coboundaries: x - R^T x[pivots]."""
        x = Mat(self.p, coords)
        return (x - self._rref_t @ Mat(self.p, x.a[list(self._pivots)])).a

    def reduce_cocycles(self, vecs: Mat) -> np.ndarray:
        """Reduced Z coordinates of cocycle vectors, after an exact relation check."""
        if not (self._relations @ vecs).is_zero():
            raise ValueError("blocks violate a relation: not a cocycle")
        return self.reduce_many(vecs.a[self._zfree])

    def compress(self, coords: np.ndarray) -> np.ndarray:
        """Reduced Z coordinates -> quotient coordinates, row by row."""
        return np.asarray(coords, dtype=np.int64)[self._free]

    def basis_coords(self) -> np.ndarray:
        """Z coordinates of the basis classes, one per column."""
        return np.eye(len(self._zfree), dtype=np.int64)[:, self._free]

    def hom_coords(self, vecs: Mat) -> Mat:
        """Coordinates in the Hom basis of maps c -> a given as vectors (exact;
        raises if some map is not in the span)."""
        coords = Mat(self.p, vecs.a[self._hom_free])
        if self.hom @ coords != vecs:
            raise ValueError("morphism not in span of basis")
        return coords

    # -- one class ----------------------------------------------------------

    def zero(self) -> ExtClass:
        return ExtClass(self.c, self.a, tuple([0] * len(self._zfree)))

    def basis(self) -> list[ExtClass]:
        return [ExtClass(self.c, self.a, tuple(int(t) for t in col)) for col in self.basis_coords().T]

    def elements(self) -> list[ExtClass]:
        """All p**dim classes, the zero class first."""
        out = []
        for combo in itertools.product(range(self.p), repeat=self.dim):
            coords = [0] * len(self._zfree)
            for value, i in zip(combo, self._free):
                coords[i] = value
            out.append(ExtClass(self.c, self.a, tuple(coords)))
        return out

    def cocycle(self, coords) -> dict[str, Mat]:
        """Blocks phi_x of the cocycle with the given coordinates in Z."""
        vec = self.cocycles(_column(coords)).a[:, 0]
        out = {}
        for x, start in zip(self.c.algebra.arrows, self._offsets):
            r, k = self.a.dim(x.tgt), self.c.dim(x.src)
            out[x.name] = Mat(self.p, vec[start:start + r * k].reshape(r, k))
        return out

    def class_from_cocycle(self, phi: Mapping[str, Mat]) -> ExtClass:
        """Class of the cocycle with blocks phi_x: c_src -> a_tgt, by arrow name."""
        parts = []
        for x in self.c.algebra.arrows:
            if phi[x.name].shape != (self.a.dim(x.tgt), self.c.dim(x.src)):
                raise ValueError(f"cocycle block at arrow {x.name} has the wrong shape")
            parts.append(phi[x.name].a.reshape(-1))
        vec = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        return ExtClass(self.c, self.a, tuple(int(t) for t in self.reduce_cocycles(Mat(self.p, vec.reshape(-1, 1)))[:, 0]))

    def realize(self, cls: ExtClass) -> SES:
        """Short exact sequence a >-> [[a, phi], [0, c]] ->> c realizing the class."""
        a, c = self.a, self.c
        phi = cls.cocycle()
        action = {
            x.name: Mat(self.p, np.block([
                [a.action[x.name].a, phi[x.name].a],
                [np.zeros((c.dim(x.tgt), a.dim(x.src)), dtype=np.int64), c.action[x.name].a],
            ]))
            for x in a.algebra.arrows
        }
        dims = tuple(da + dc for da, dc in zip(a.dims, c.dims))
        e = Module(a.algebra, self.p, dims, action, check=True)
        return SES(a, e, c, summand_inclusion([a, c], 0, e), summand_projection([a, c], 1, e))

    def class_of(self, ses: SES) -> ExtClass:
        """Class of a short exact sequence with ends equal to (a, c).

        With a vertexwise section s of the deflation, e_x s_src - s_tgt c_x
        lands in the subobject, and pulling it back there gives phi_x.
        """
        if ses.a != self.a or ses.c != self.c:
            raise ValueError("sequence ends do not match this Ext space")
        alg = self.c.algebra
        section = {v: ses.prj.comps[v].solve(Mat.identity(self.p, self.c.dim(v))) for v in alg.vertices}
        phi = {
            x.name: ses.inc.comps[x.tgt].solve(
                ses.b.action[x.name] @ section[x.src] - section[x.tgt] @ self.c.action[x.name])
            for x in alg.arrows
        }
        return self.class_from_cocycle(phi)


@lru_cache(maxsize=None)
def ext1_space(c: Module, a: Module) -> Ext1Space:
    return Ext1Space(c, a)


@lru_cache(maxsize=None)
def class_of(ses: SES) -> ExtClass:
    return ext1_space(ses.c, ses.a).class_of(ses)


# -- functoriality of Ext -------------------------------------------------------


def ext_push_many(space: Ext1Space, coords: np.ndarray, g: Morphism,
                  target_space: Optional[Ext1Space] = None) -> np.ndarray:
    """Images of classes of Ext^1(c, a) under Ext^1(c, a) -> Ext^1(c, a') along
    g: a -> a', phi_x -> g_tgt phi_x.

    The classes are the columns of Z coordinates of `space`; so are their
    images, reduced, of the target space.  One product, one relation check
    and one reduction serve all columns; no columns need no map.
    """
    if g.source is not space.a and g.source != space.a:
        raise ValueError("map must start at the class's subobject")
    target = target_space or ext1_space(space.c, g.target)
    if not coords.shape[1]:
        return np.zeros((len(target._zfree), 0), dtype=np.int64)
    push = _kron_map(space.p, target._z.rows, space._z.rows, [
        (target._offsets[i], space._offsets[i], g.comps[x.tgt].a, space.c.dim(x.src))
        for i, x in enumerate(space.c.algebra.arrows)])
    return target.reduce_cocycles(push @ space.cocycles(coords))


def ext_pull_many(space: Ext1Space, coords: np.ndarray, h: Morphism,
                  target_space: Optional[Ext1Space] = None) -> np.ndarray:
    """Images of classes of Ext^1(c, a) under Ext^1(c, a) -> Ext^1(x, a) along
    h: x -> c, phi_x -> phi_x h_src, as in ext_push_many."""
    if h.target is not space.c and h.target != space.c:
        raise ValueError("map must land in the class's quotient")
    target = target_space or ext1_space(h.source, space.a)
    if not coords.shape[1]:
        return np.zeros((len(target._zfree), 0), dtype=np.int64)
    pull = _kron_map(space.p, target._z.rows, space._z.rows, [
        (target._offsets[i], space._offsets[i], space.a.dim(x.tgt), h.comps[x.src].a)
        for i, x in enumerate(space.c.algebra.arrows)])
    return target.reduce_cocycles(pull @ space.cocycles(coords))


# -- five-term exact sequences ---------------------------------------------------


def covariant_maps(ses: SES, x: Module) -> list[Mat]:
    """The maps Hom(x,a) -> Hom(x,b) -> Hom(x,c) -> Ext(x,a) -> Ext(x,b) as
    matrices in the spaces' bases, each computed on a whole basis at once.

    A map out of a zero space is the empty matrix, built without a product;
    the sequence's class is read all the same."""
    ext_a, ext_b, ext_c = ext1_space(x, ses.a), ext1_space(x, ses.b), ext1_space(x, ses.c)
    alg, p = x.algebra, x.p
    cls = class_of(ses)

    def after(g: Morphism, src: Ext1Space, tgt: Ext1Space) -> Mat:
        # f -> g f on Hom(x, -), vertex by vertex
        if not src.hom.cols:
            return Mat.zeros(p, tgt.hom.cols, 0)
        return tgt.hom_coords(_kron_map(p, tgt.hom.rows, src.hom.rows, [
            (tgt._hom_offsets[i], src._hom_offsets[i], g.comps[v].a, x.dims[i])
            for i, v in enumerate(alg.vertices)]) @ src.hom)

    # the connecting map pulls the class along each f: x -> c, phi_y f_src
    if ext_c.hom.cols:
        phi = cls.cocycle()
        pull = _kron_map(p, ext_a._z.rows, ext_c.hom.rows, [
            (ext_a._offsets[i], ext_c._hom_offsets[alg.vertex_index[y.src]], phi[y.name].a, x.dim(y.src))
            for i, y in enumerate(alg.arrows)])
        m3 = Mat(p, ext_a.compress(ext_a.reduce_cocycles(pull @ ext_c.hom)))
    else:
        m3 = Mat.zeros(p, ext_a.dim, 0)
    m4 = ext_push_many(ext_a, ext_a.basis_coords(), ses.inc, ext_b)
    return [after(ses.inc, ext_a, ext_b), after(ses.prj, ext_b, ext_c),
            m3, Mat(p, ext_b.compress(m4))]


def contravariant_maps(ses: SES, x: Module) -> list[Mat]:
    """The maps Hom(c,x) -> Hom(b,x) -> Hom(a,x) -> Ext(c,x) -> Ext(b,x) as
    matrices in the spaces' bases, each computed on a whole basis at once;
    maps out of a zero space as in covariant_maps."""
    ext_a, ext_b, ext_c = ext1_space(ses.a, x), ext1_space(ses.b, x), ext1_space(ses.c, x)
    alg, p = x.algebra, x.p
    cls = class_of(ses)

    def before(h: Morphism, src: Ext1Space, tgt: Ext1Space) -> Mat:
        # f -> f h on Hom(-, x), vertex by vertex
        if not src.hom.cols:
            return Mat.zeros(p, tgt.hom.cols, 0)
        return tgt.hom_coords(_kron_map(p, tgt.hom.rows, src.hom.rows, [
            (tgt._hom_offsets[i], src._hom_offsets[i], x.dims[i], h.comps[v].a)
            for i, v in enumerate(alg.vertices)]) @ src.hom)

    # the connecting map pushes the class along each f: a -> x, f_tgt phi_y
    if ext_a.hom.cols:
        phi = cls.cocycle()
        push = _kron_map(p, ext_c._z.rows, ext_a.hom.rows, [
            (ext_c._offsets[i], ext_a._hom_offsets[alg.vertex_index[y.tgt]], x.dim(y.tgt), phi[y.name].a)
            for i, y in enumerate(alg.arrows)])
        m3 = Mat(p, ext_c.compress(ext_c.reduce_cocycles(push @ ext_a.hom)))
    else:
        m3 = Mat.zeros(p, ext_c.dim, 0)
    m4 = ext_pull_many(ext_c, ext_c.basis_coords(), ses.prj, ext_b)
    return [before(ses.prj, ext_c, ext_b), before(ses.inc, ext_b, ext_a),
            m3, Mat(p, ext_b.compress(m4))]


def _exactness(maps: Sequence[Mat]) -> list[bool]:
    """Exactness at each inner term of a chain of maps, im(first) = ker(second),
    with each map's rank computed once."""
    ranks = [m.rank() for m in maps]
    out = []
    for i in range(1, len(maps)):
        first, second = maps[i - 1], maps[i]
        if second.cols != first.rows:
            raise ValueError("dimension mismatch")
        out.append((second @ first).is_zero() and ranks[i - 1] + ranks[i] == second.cols)
    return out


def five_term_covariant(ses: SES, x: Module) -> dict:
    """Hom(x,a) -> Hom(x,b) -> Hom(x,c) -> Ext(x,a) -> Ext(x,b), exactness
    checked at the three middle terms."""
    return dict(zip(("at_hom_b", "at_hom_c", "at_ext_a"), _exactness(covariant_maps(ses, x))))


def five_term_contravariant(ses: SES, x: Module) -> dict:
    """Hom(c,x) -> Hom(b,x) -> Hom(a,x) -> Ext(c,x) -> Ext(b,x)."""
    return dict(zip(("at_hom_b", "at_hom_a", "at_ext_c"), _exactness(contravariant_maps(ses, x))))


# -- conflation enumeration -------------------------------------------------------


@dataclass(eq=False)
class ConflationRecord:
    """A conflation with catalog bookkeeping for its three terms.

    The sequence is built from the class the first time `ses` is read: the
    split sequence for the zero class, the class's realization otherwise.
    A middle left unknown is found the first time `middle_summands` is
    read, by `_middle_of(record)`; so a middle outside the catalog raises
    CatalogIncompleteError when it is read, not when the list is built.
    Records whose middle was decomposed keep the realization they built.
    `from_blocks` marks a nonsplit record whose middle is read off the
    single-summand records of its nonzero blocks.  Equality compares the
    class, the ends and the middle, which it reads.
    """

    cls: ExtClass
    a_summands: tuple[int, ...]
    c_summands: tuple[int, ...]
    _middle: Optional[tuple[int, ...]] = None
    from_blocks: bool = False
    _ses: Optional[SES] = field(default=None, repr=False)
    _middle_of: Optional[Callable[["ConflationRecord"], Iterable[int]]] = field(default=None, repr=False)

    @property
    def coords(self) -> tuple[int, ...]:
        return self.cls.coords

    @property
    def split(self) -> bool:
        return self.cls.is_zero()

    @property
    def ses(self) -> SES:
        if self._ses is None:
            self._ses = split_ses(self.cls.a, self.cls.c) if self.split else self.cls.realize()
        return self._ses

    @property
    def middle_summands(self) -> tuple[int, ...]:
        if self._middle is None:
            self._middle = tuple(sorted(self._middle_of(self)))
        return self._middle

    def __eq__(self, other):
        if not isinstance(other, ConflationRecord):
            return NotImplemented
        return ((self.cls, self.a_summands, self.c_summands, self.middle_summands)
                == (other.cls, other.a_summands, other.c_summands, other.middle_summands))

    def to_json_dict(self) -> dict:
        return {
            "a": list(self.a_summands),
            "middle": list(self.middle_summands),
            "c": list(self.c_summands),
            "class": list(self.coords),
            "split": self.split,
        }


def _multisets(members: Sequence[int], cap: int):
    out = []
    for size in range(cap + 1):
        out.extend(itertools.combinations_with_replacement(members, size))
    return out


def _bounds(mods: Sequence[Module]) -> list[dict[str, int]]:
    """Summand k of direct_sum(mods) spans [out[k][v], out[k + 1][v]) at vertex v."""
    out = [dict.fromkeys(mods[0].algebra.vertices, 0)]
    for m in mods:
        out.append({v: start + m.dim(v) for v, start in out[-1].items()})
    return out


def _block_classes(cls: ExtClass, catalog: Catalog, a_ms, c_ms) -> list[tuple[int, int, ExtClass]]:
    """(i, j, class) for the nonzero blocks of a class in Ext^1(sum c_i, sum a_j).

    The relations and the coboundaries of a sum of ends act block by
    block, so block (i, j) of a cocycle is a cocycle of Ext^1(c_i, a_j)
    and the class is the sum of the block classes.
    """
    phi = cls.cocycle()
    a_mods, c_mods = [catalog.indecs[k] for k in a_ms], [catalog.indecs[k] for k in c_ms]
    rows, cols = _bounds(a_mods), _bounds(c_mods)
    out = []
    for i, c_mod in enumerate(c_mods):
        for j, a_mod in enumerate(a_mods):
            block = {
                x.name: Mat(catalog.p, phi[x.name].a[rows[j][x.tgt]:rows[j + 1][x.tgt],
                                                     cols[i][x.src]:cols[i + 1][x.src]])
                for x in catalog.algebra.arrows
            }
            sub = ext1_space(c_mod, a_mod).class_from_cocycle(block)
            if not sub.is_zero():
                out.append((i, j, sub))
    return out


def all_conflations(
    catalog: Catalog,
    members: Optional[Iterable[int]] = None,
    cap: int = 2,
) -> list[ConflationRecord]:
    """Every conflation (up to fixed-end equivalence) over the given members.

    Ends run over direct sums of member indecomposables with at most `cap`
    summands each (the zero object included); one record per Ext^1 class,
    the split class among them.  Middles must decompose in the catalog.

    Only the middles of the single-summand nonsplit records are decomposed
    here.  A split middle is the sum of the ends.  When the nonzero blocks
    (i, j) of a class lie in distinct rows and columns, the sequence is the
    sum of its blocks' sequences and split pieces, so its middle is the sum
    of the blocks' middles, read off the single-summand records, and of the
    unused summands; it is added up when it is read.  Every other class
    keeps only its class: its sequence is realized when `ses` is read and
    its middle decomposed when `middle_summands` is.

    Ext^1 and its cocycles Z are sums over the blocks, so a pair of ends
    whose blocks Ext^1(c_i, a_j) all vanish has only the zero class, with
    as many coordinates as the blocks' Z together; its space is not built.
    """
    member_list = sorted(members) if members is not None else list(range(len(catalog)))
    ends = _multisets(member_list, cap)
    records: list[ConflationRecord] = []
    # middles of the single-summand records, by class
    base_middles: dict[ExtClass, tuple[int, ...]] = {}

    def decomposed(rec: ConflationRecord) -> Iterable[int]:
        return catalog.decompose(rec.ses.b).elements()

    def summed_blocks(blocks, unused: tuple[int, ...]) -> Callable[[ConflationRecord], tuple[int, ...]]:
        return lambda rec: sum((base_middles[sub] for _, _, sub in blocks), unused)

    # one module per end, so records and Ext lookups with equal ends share it
    sums = [catalog.sum_of(ms) for ms in ends]
    # the blocks of every pair of ends: Ext^1(c_i, a_j) by (i, j)
    singles = {(i, j): ext1_space(catalog.indecs[i], catalog.indecs[j])
               for i in member_list for j in member_list}
    for c_ms, c_mod in zip(ends, sums):
        for a_ms, a_mod in zip(ends, sums):
            base = len(a_ms) == len(c_ms) == 1
            blocks = [singles[i, j] for i in c_ms for j in a_ms]
            if any(space.dim for space in blocks):
                classes = ext1_space(c_mod, a_mod).elements()
            else:
                classes = [ExtClass(c_mod, a_mod, (0,) * sum(len(space._zfree) for space in blocks))]
            for cls in classes:
                rec = ConflationRecord(cls, tuple(a_ms), tuple(c_ms), _middle_of=decomposed)
                if cls.is_zero():
                    rec._middle = tuple(sorted(a_ms + c_ms))
                elif base:
                    base_middles[cls] = rec.middle_summands
                else:
                    blocks = _block_classes(cls, catalog, a_ms, c_ms)
                    c_used, a_used = {i for i, _, _ in blocks}, {j for _, j, _ in blocks}
                    if len(c_used) == len(a_used) == len(blocks):
                        unused = tuple(a for j, a in enumerate(a_ms) if j not in a_used)
                        unused += tuple(c for i, c in enumerate(c_ms) if i not in c_used)
                        rec.from_blocks, rec._middle_of = True, summed_blocks(blocks, unused)
                records.append(rec)
    return records
