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

Ext^1 is a bifunctor: Ext^1(h, g) maps a class along g: a -> a' and
h: x -> c by phi_y -> g_tgt phi_y h_src (ext_map_many), and Hom(h, g)
maps f -> g f h (_hom_map); the five-term maps are these and the
connecting maps.

Ext^1 of direct sums is the sum of the blocks Ext^1(c_i, a_j), and so are
its coordinates, interleaved: conflation lists read each class on
two-summand ends off its blocks' coordinates and build no space of a sum
to list it.  A list's ends and split middles are the catalog's sums
(Catalog.sum_of), one module per tuple of summands, so equal terms are one
object and share their Ext^1 spaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .exactfield import Mat
from .quivrep import (
    Catalog,
    Module,
    Morphism,
    _bounds,
    _commuting_system,
    _kron_map,
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


def summand_inclusion(mods: Sequence[Module], k: Union[int, Sequence[int]], total: Module,
                      part: Optional[Module] = None) -> Morphism:
    """The inclusion into total = direct_sum(mods) of summand k, or of
    `part`, the sum of the summands at the positions k in that order: at
    each vertex, the identity's columns at those summands' places in
    _bounds(mods)."""
    if isinstance(k, int):
        k, part = [k], mods[k]
    bounds = _bounds(mods) if mods else []  # the zero sum has no summand to place
    comps = {}
    for v in total.algebra.vertices:
        places = [u for i in k for u in range(bounds[i][v], bounds[i + 1][v])]
        comps[v] = Mat(total.p, np.eye(total.dim(v), dtype=np.int64).take(places, axis=1))
    return Morphism(part, total, comps, check=False)


def summand_projection(mods: Sequence[Module], k: Union[int, Sequence[int]], total: Module,
                       part: Optional[Module] = None) -> Morphism:
    """The projection of total = direct_sum(mods) onto summand k, or onto
    `part`, the sum of the summands at the positions k: the identity's
    rows at their places, the inclusion transposed."""
    inc = summand_inclusion(mods, k, total, part)
    return Morphism(total, inc.source, {v: m.transpose() for v, m in inc.comps.items()}, check=False)


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


def _spread(p: int, free: Sequence[int], size: int) -> Iterator[tuple[int, ...]]:
    """Every vector of the given size that vanishes off the positions `free`,
    their entries running over F_p in itertools.product order: the zero
    vector first, the last position fastest."""
    coords = [0] * size
    for combo in itertools.product(range(p), repeat=len(free)):
        for value, i in zip(combo, free):
            coords[i] = value
        yield tuple(coords)


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
        return [ExtClass(self.c, self.a, coords) for coords in _spread(self.p, self._free, len(self._zfree))]

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
        if (cls.a is not a and cls.a != a) or (cls.c is not c and cls.c != c):
            raise ValueError("class ends do not match this Ext space")
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


# -- functoriality of Ext and Hom -----------------------------------------------


def ext_map_many(space: Ext1Space, coords: np.ndarray, target_space: Ext1Space,
                 g: Optional[Morphism] = None, h: Optional[Morphism] = None) -> np.ndarray:
    """Images of classes of Ext^1(c, a) under Ext^1(h, g): Ext^1(c, a) ->
    Ext^1(x, a') along g: a -> a' and h: x -> c, phi_y -> g_tgt phi_y h_src,
    a missing map the identity.

    The classes are the columns of Z coordinates of `space`; so are their
    images, reduced, of the target space.  One product, one relation check
    and one reduction serve all columns; no columns need no map.
    """
    if g is not None and g.source is not space.a and g.source != space.a:
        raise ValueError("map must start at the class's subobject")
    if h is not None and h.target is not space.c and h.target != space.c:
        raise ValueError("map must land in the class's quotient")
    if not coords.shape[1]:
        return np.zeros((len(target_space._zfree), 0), dtype=np.int64)
    along = _kron_map(space.p, target_space._z.rows, space._z.rows, [
        (target_space._offsets[i], space._offsets[i], space.a.dim(y.tgt) if g is None else g.comps[y.tgt].a,
         space.c.dim(y.src) if h is None else h.comps[y.src].a)
        for i, y in enumerate(space.c.algebra.arrows)])
    return target_space.reduce_cocycles(along @ space.cocycles(coords))


def _hom_map(src: Ext1Space, tgt: Ext1Space, g: Optional[Morphism] = None,
             h: Optional[Morphism] = None) -> Mat:
    """Hom(h, g): Hom(c, a) -> Hom(c', a'), f -> g f h vertex by vertex, a
    missing map the identity, in the Hom bases of the two spaces."""
    if not src.hom.cols:
        return Mat.zeros(src.p, tgt.hom.cols, 0)
    return tgt.hom_coords(_kron_map(src.p, tgt.hom.rows, src.hom.rows, [
        (tgt._hom_offsets[i], src._hom_offsets[i], src.a.dims[i] if g is None else g.comps[v].a,
         src.c.dims[i] if h is None else h.comps[v].a)
        for i, v in enumerate(src.c.algebra.vertices)]) @ src.hom)


# -- five-term exact sequences ---------------------------------------------------


def covariant_maps(ses: SES, x: Module) -> list[Mat]:
    """The maps Hom(x,a) -> Hom(x,b) -> Hom(x,c) -> Ext(x,a) -> Ext(x,b) as
    matrices in the spaces' bases, each computed on a whole basis at once.

    A map out of a zero space is the empty matrix, built without a product;
    the sequence's class is read all the same."""
    ext_a, ext_b, ext_c = ext1_space(x, ses.a), ext1_space(x, ses.b), ext1_space(x, ses.c)
    alg, p = x.algebra, x.p
    cls = class_of(ses)
    # the connecting map pulls the class along each f: x -> c, phi_y f_src
    if ext_c.hom.cols:
        phi = cls.cocycle()
        pull = _kron_map(p, ext_a._z.rows, ext_c.hom.rows, [
            (ext_a._offsets[i], ext_c._hom_offsets[alg.vertex_index[y.src]], phi[y.name].a, x.dim(y.src))
            for i, y in enumerate(alg.arrows)])
        m3 = Mat(p, ext_a.compress(ext_a.reduce_cocycles(pull @ ext_c.hom)))
    else:
        m3 = Mat.zeros(p, ext_a.dim, 0)
    m4 = ext_map_many(ext_a, ext_a.basis_coords(), ext_b, g=ses.inc)
    return [_hom_map(ext_a, ext_b, g=ses.inc), _hom_map(ext_b, ext_c, g=ses.prj),
            m3, Mat(p, ext_b.compress(m4))]


def contravariant_maps(ses: SES, x: Module) -> list[Mat]:
    """The maps Hom(c,x) -> Hom(b,x) -> Hom(a,x) -> Ext(c,x) -> Ext(b,x) as
    matrices in the spaces' bases, each computed on a whole basis at once;
    maps out of a zero space as in covariant_maps."""
    ext_a, ext_b, ext_c = ext1_space(ses.a, x), ext1_space(ses.b, x), ext1_space(ses.c, x)
    alg, p = x.algebra, x.p
    cls = class_of(ses)
    # the connecting map pushes the class along each f: a -> x, f_tgt phi_y
    if ext_a.hom.cols:
        phi = cls.cocycle()
        push = _kron_map(p, ext_c._z.rows, ext_a.hom.rows, [
            (ext_c._offsets[i], ext_a._hom_offsets[alg.vertex_index[y.tgt]], x.dim(y.tgt), phi[y.name].a)
            for i, y in enumerate(alg.arrows)])
        m3 = Mat(p, ext_c.compress(ext_c.reduce_cocycles(push @ ext_a.hom)))
    else:
        m3 = Mat.zeros(p, ext_c.dim, 0)
    m4 = ext_map_many(ext_c, ext_c.basis_coords(), ext_b, h=ses.prj)
    return [_hom_map(ext_c, ext_b, h=ses.prj), _hom_map(ext_b, ext_a, h=ses.inc),
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

    The sequence is built from the class the first time `ses` is read: for
    the zero class, a >-> b ->> c on the catalog's one module b of the
    sorted middle summands, including each end at its summands' places
    there; the class's realization otherwise.
    A middle left unknown is found the first time `middle_summands` is
    read, by decomposing the sequence's middle in the catalog; so a middle
    outside the catalog raises CatalogIncompleteError when it is read, not
    when the list is built.  Records whose middle was decomposed keep the
    realization they built.  `from_blocks` marks a nonsplit record whose
    middle is read off the single-summand records of its nonzero blocks.
    Equality compares the class, the ends and the middle, which it reads.
    """

    cls: ExtClass
    a_summands: tuple[int, ...]
    c_summands: tuple[int, ...]
    catalog: Catalog = field(repr=False)
    _middle: Optional[tuple[int, ...]] = None
    from_blocks: bool = False
    _ses: Optional[SES] = field(default=None, repr=False)

    @property
    def coords(self) -> tuple[int, ...]:
        return self.cls.coords

    @property
    def split(self) -> bool:
        return self.cls.is_zero()

    @property
    def ses(self) -> SES:
        if self._ses is None:
            self._ses = self._split_ses() if self.split else self.cls.realize()
        return self._ses

    def _split_ses(self) -> SES:
        ms = self.middle_summands
        b = self.catalog.sum_of(ms)
        # the places of a's summands, then c's, in the sorted middle, a's
        # first among equal ones
        both = self.a_summands + self.c_summands
        order = sorted(range(len(both)), key=both.__getitem__)
        places = sorted(range(len(both)), key=order.__getitem__)
        mods, n = [self.catalog.indecs[k] for k in ms], len(self.a_summands)
        return SES(self.cls.a, b, self.cls.c, summand_inclusion(mods, places[:n], b, self.cls.a),
                   summand_projection(mods, places[n:], b, self.cls.c))

    @property
    def middle_summands(self) -> tuple[int, ...]:
        if self._middle is None:
            self._middle = tuple(sorted(self.catalog.decompose(self.ses.b).elements()))
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


def _sum_layout(c_mods: Sequence[Module], a_mods: Sequence[Module],
                blocks: Sequence[Ext1Space]) -> tuple[list[int], list[list[int]]]:
    """Z's unknowns in Ext^1(sum c_i, sum a_j), and where the Z coordinates
    of each block Ext^1(c_i, a_j) sit among the sum's, blocks i-major.

    Entry (r, s) of a block phi_x of the sum lies in block (i, j) when row
    r lies in a_j and column s in c_i.  The relations and the coboundaries
    act block by block, and a reduced echelon form is unique, so the sum's
    Z-free unknowns, coboundary pivots and free coordinates are the
    blocks', placed by this layout, and a reduced class of the sum is the
    tuple of its reduced block classes.
    """
    arrows = c_mods[0].algebra.arrows
    rows, cols = _bounds(a_mods), _bounds(c_mods)
    starts = list(itertools.accumulate((rows[-1][x.tgt] * cols[-1][x.src] for x in arrows), initial=0))
    unknowns = []
    for k, space in enumerate(blocks):
        i, j = divmod(k, len(a_mods))
        placed = [start + (rows[j][x.tgt] + r) * cols[-1][x.src] + cols[i][x.src] + s
                  for x, start in zip(arrows, starts)
                  for r in range(rows[j + 1][x.tgt] - rows[j][x.tgt])
                  for s in range(cols[i + 1][x.src] - cols[i][x.src])]
        unknowns.append([placed[u] for u in space._zfree])
    zfree = sorted(itertools.chain.from_iterable(unknowns))
    where = {u: t for t, u in enumerate(zfree)}
    return zfree, [[where[u] for u in us] for us in unknowns]


def all_conflations(
    catalog: Catalog,
    members: Optional[Iterable[int]] = None,
    cap: int = 2,
) -> list[ConflationRecord]:
    """Every conflation (up to fixed-end equivalence) over the given members.

    Ends run over direct sums of member indecomposables with at most `cap`
    summands each (the zero object included), each the catalog's one
    module of its summands; one record per Ext^1 class, the split class
    among them.  Middles must decompose in the catalog.

    Only the middles of the single-summand nonsplit records are decomposed
    here.  A split middle's summands are the ends' summands, sorted, and
    its module is the catalog's sum of them: records with equal middles
    share it, so their Ext^1 spaces are built once.  A split sequence is
    built when `ses` is read.  When the nonzero blocks (i, j) of a class
    lie in distinct rows and columns, the sequence is the sum of its
    blocks' sequences and split pieces, so its middle is the sum of the
    blocks' middles, read off the single-summand records listed before
    it, and of the unused summands.  Every other class keeps only its
    class: its sequence is realized when `ses` is read and its middle
    decomposed when `middle_summands` is.

    Ext^1 and its cocycles Z are sums over the blocks Ext^1(c_i, a_j), so
    a class of a pair of ends is read off its blocks' coordinates: the
    classes are spread over the blocks' free coordinates as laid out in
    the sum (_sum_layout), in the order Ext1Space.elements lists them, and
    a block's class is the slice of the coordinates at its place.  No
    space of a sum is built to list it; a class's space is built when its
    sequence is read.
    """
    member_list = sorted(members) if members is not None else list(range(len(catalog)))
    ends = _multisets(member_list, cap)
    records: list[ConflationRecord] = []
    # middles of the single-summand records, by class
    base_middles: dict[ExtClass, tuple[int, ...]] = {}
    # the blocks of every pair of ends: Ext^1(c_i, a_j) by (i, j)
    singles = {(i, j): ext1_space(catalog.indecs[i], catalog.indecs[j])
               for i in member_list for j in member_list}
    for c_ms in ends:
        c_mod = catalog.sum_of(c_ms)
        for a_ms in ends:
            a_mod, base = catalog.sum_of(a_ms), len(a_ms) == len(c_ms) == 1
            pairs = [(i, j) for i in range(len(c_ms)) for j in range(len(a_ms))]
            blocks = [singles[c_ms[i], a_ms[j]] for i, j in pairs]
            if any(space.dim for space in blocks):
                zfree, places = _sum_layout([catalog.indecs[k] for k in c_ms],
                                            [catalog.indecs[k] for k in a_ms], blocks)
                size = len(zfree)
                free = sorted(place[t] for place, space in zip(places, blocks) for t in space._free)
            else:
                size, free = sum(len(space._zfree) for space in blocks), []
            for coords in _spread(catalog.p, free, size):
                cls = ExtClass(c_mod, a_mod, coords)
                rec = ConflationRecord(cls, a_ms, c_ms, catalog)
                if cls.is_zero():
                    rec._middle = tuple(sorted(a_ms + c_ms))
                elif base:
                    base_middles[cls] = rec.middle_summands
                else:
                    # (i, j, class) for the nonzero blocks, read off their coordinates
                    nonzero = []
                    for (i, j), space, place in zip(pairs, blocks, places):
                        sub = ExtClass(space.c, space.a, tuple(coords[t] for t in place))
                        if not sub.is_zero():
                            nonzero.append((i, j, sub))
                    c_used, a_used = {i for i, _, _ in nonzero}, {j for _, j, _ in nonzero}
                    if len(c_used) == len(a_used) == len(nonzero):
                        unused = tuple(a for j, a in enumerate(a_ms) if j not in a_used)
                        unused += tuple(c for i, c in enumerate(c_ms) if i not in c_used)
                        rec.from_blocks = True
                        rec._middle = tuple(sorted(sum((base_middles[sub] for _, _, sub in nonzero), unused)))
                records.append(rec)
    return records
