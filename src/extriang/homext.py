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
h: x -> c by phi_y -> g_tgt phi_y h_src (ext_map_many).

Ext^1 of direct sums is the sum of the blocks Ext^1(c_i, a_j), and so are
its coordinates, interleaved: conflation lists read each class on
two-summand ends off its blocks' coordinates and build no space of a sum
to list it.  A list's ends and middles are the catalog's sums
(Catalog.sum_of), one module per tuple of summands: a realized middle is
carried onto the sum of its sorted summands along the catalog's
placement.  So every listed sequence is a sequence of catalog sums, and
it carries its block coordinates (Blocks): the Hom coordinates of each
block of its maps and the class of each block.  The five-term maps are
assembled block by block from those, from the tables over triples of
catalog entries (Catalog.compose, push_table and pull_table) and from
the Ext^1 dimensions of entry pairs (ext1_dim); they build Ext^1 only
between catalog entries and solve no Hom or Ext^1 system of a sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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


@dataclass(frozen=True, eq=False)
class Blocks:
    """A sequence a >-> b ->> c of catalog sums in the catalog's block
    coordinates: a, b and c are the terms' summand tuples; inc[k, j] holds
    the coordinates of inc's block a_j -> b_k in catalog.hom(a[j], b[k]),
    prj[i, k] those of prj's block b_k -> c_i, and cls[i, j] the quotient
    coordinates of the class's block in Ext^1(c_i, a_j); zero blocks are
    left out."""

    catalog: Catalog
    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]
    inc: dict[tuple[int, int], np.ndarray]
    prj: dict[tuple[int, int], np.ndarray]
    cls: dict[tuple[int, int], np.ndarray]


@dataclass(frozen=True)
class SES:
    """Short exact sequence a >-> b ->> c, exactness rank-checked.

    Frozen, so equal sequences hash equal.  A listed sequence carries its
    block coordinates, which equality and hashing leave out.
    """

    a: Module
    b: Module
    c: Module
    inc: Morphism
    prj: Morphism
    blocks: Optional[Blocks] = field(default=None, repr=False, compare=False)

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


def summand_inclusion(mods: Sequence[Module], k: int, total: Module) -> Morphism:
    """The inclusion of summand k into total = direct_sum(mods): at each
    vertex, the identity's columns at the summand's place in _bounds(mods)."""
    bounds = _bounds(mods)
    comps = {v: Mat(total.p, np.eye(total.dim(v), dtype=np.int64)[:, bounds[k][v]:bounds[k + 1][v]])
             for v in total.algebra.vertices}
    return Morphism(mods[k], total, comps, check=False)


def summand_projection(mods: Sequence[Module], k: int, total: Module) -> Morphism:
    """The projection of total = direct_sum(mods) onto summand k: the
    identity's rows at its place, the inclusion transposed."""
    inc = summand_inclusion(mods, k, total)
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
    zero class can be listed without building its space.  The cocycle and
    the realization are built once and kept.
    """

    c: Module
    a: Module
    coords: tuple[int, ...]
    _cocycle: Optional[dict[str, Mat]] = field(default=None, repr=False, compare=False)
    _realization: Optional[SES] = field(default=None, repr=False, compare=False)

    @property
    def space(self) -> "Ext1Space":
        return ext1_space(self.c, self.a)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def cocycle(self, space: Optional["Ext1Space"] = None) -> dict[str, Mat]:
        """The blocks phi_x: c_src -> a_tgt of the class's cocycle, by arrow
        name, expanded on `space` (the class's own, looked up when not
        given)."""
        if self._cocycle is None:
            object.__setattr__(self, "_cocycle", (space or self.space).cocycle(self.coords))
        return self._cocycle

    def realize(self) -> SES:
        """The sequence Ext1Space.realize builds for the class, built once and kept."""
        if self._realization is None:
            object.__setattr__(self, "_realization", self.space.realize(self))
        return self._realization


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
        phi = cls.cocycle(self)
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


# -- five-term exact sequences ---------------------------------------------------


def ext1_dim(catalog: Catalog, i: int, j: int) -> int:
    """dim Ext^1(indecs[i], indecs[j]), read off the space once per ordered
    pair and kept in catalog._ext1_dims beside the push and pull tables."""
    dim = catalog._ext1_dims.get((i, j))
    if dim is None:
        dim = catalog._ext1_dims[(i, j)] = ext1_space(catalog.indecs[i], catalog.indecs[j]).dim
    return dim


def push_table(catalog: Catalog, i: int, j: int, k: int) -> np.ndarray:
    """Hom(j, k) x Ext^1(i, j) -> Ext^1(i, k) over catalog entries: entry
    [b, :, e] holds the quotient coordinates of basis class e pushed along
    hom(j, k)[b].  Built once per triple and kept in catalog._pushes."""
    table = catalog._pushes.get((i, j, k))
    if table is None:
        table = np.zeros((catalog.dim_hom(j, k), ext1_dim(catalog, i, k), ext1_dim(catalog, i, j)), dtype=np.int64)
        if table.size:
            indecs = catalog.indecs
            src, tgt = ext1_space(indecs[i], indecs[j]), ext1_space(indecs[i], indecs[k])
            for b, g in enumerate(catalog.hom(j, k)):
                table[b] = tgt.compress(ext_map_many(src, src.basis_coords(), tgt, g=g))
        catalog._pushes[(i, j, k)] = table
    return table


def pull_table(catalog: Catalog, i: int, j: int, k: int) -> np.ndarray:
    """Ext^1(j, k) x Hom(i, j) -> Ext^1(i, k) over catalog entries: entry
    [e, :, a] holds the quotient coordinates of basis class e pulled along
    hom(i, j)[a].  Built once per triple and kept in catalog._pulls."""
    table = catalog._pulls.get((i, j, k))
    if table is None:
        table = np.zeros((ext1_dim(catalog, j, k), ext1_dim(catalog, i, k), catalog.dim_hom(i, j)), dtype=np.int64)
        if table.size:
            indecs = catalog.indecs
            src, tgt = ext1_space(indecs[j], indecs[k]), ext1_space(indecs[i], indecs[k])
            for a, h in enumerate(catalog.hom(i, j)):
                table[:, :, a] = tgt.compress(ext_map_many(src, src.basis_coords(), tgt, h=h)).T
        catalog._pulls[(i, j, k)] = table
    return table


def _terms(ses: SES, x: Module) -> tuple[Blocks, int]:
    """The sequence's block data and the catalog index of x."""
    if ses.blocks is None:
        raise ValueError("the sequence carries no block coordinates: read it off a conflation list")
    return ses.blocks, ses.blocks.catalog.index(x)


def _dot(p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b mod p for arrays of residues, in Python integers where int64 could wrap."""
    if a.shape[-1] * (p - 1) ** 2 >= 2 ** 63:
        return (a.astype(object) @ b.astype(object) % p).astype(np.int64)
    return a @ b % p


def _after(p: int, table: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The map right -> left o right of a table [left, out, right], for the
    left factor with the given coordinates."""
    n, rows, cols = table.shape
    return _dot(p, coords.reshape(1, n), table.reshape(n, rows * cols)).reshape(rows, cols)


def _before(p: int, table: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The map left -> left o right of a table [left, out, right], for the
    right factor with the given coordinates."""
    n, rows, cols = table.shape
    return _dot(p, table.reshape(n * rows, cols), coords.reshape(cols, 1)).reshape(n, rows).T


def _block_matrix(p: int, rows: Sequence[int], cols: Sequence[int], blocks) -> Mat:
    """The matrix with row and column blocks of the given sizes, zero but at
    the given ((r, c), block) pairs."""
    ro, co = list(itertools.accumulate(rows, initial=0)), list(itertools.accumulate(cols, initial=0))
    out = np.zeros((ro[-1], co[-1]), dtype=np.int64)
    for (r, c), block in blocks:
        out[ro[r]:ro[r + 1], co[c]:co[c + 1]] = block
    return Mat(p, out)


def covariant_block_maps(ses: SES, x: Module) -> list[Mat]:
    """The maps Hom(x,a) -> Hom(x,b) -> Hom(x,c) -> Ext(x,a) -> Ext(x,b) of a
    listed sequence and a catalog entry x, assembled block by block from
    the catalog's tables: composing with inc and prj, pulling the class's
    blocks along maps x -> c_i (the connecting map) and pushing along inc.
    The bases are the blocks' bases, summand by summand."""
    bl, t = _terms(ses, x)
    cat = bl.catalog
    p = cat.p
    ha, hb, hc = ([cat.dim_hom(t, i) for i in ms] for ms in (bl.a, bl.b, bl.c))
    ea, eb = ([ext1_dim(cat, t, i) for i in ms] for ms in (bl.a, bl.b))
    return [
        _block_matrix(p, hb, ha, [((k, j), _after(p, cat.compose(t, bl.a[j], bl.b[k]), f))
                                  for (k, j), f in bl.inc.items() if hb[k] and ha[j]]),
        _block_matrix(p, hc, hb, [((i, k), _after(p, cat.compose(t, bl.b[k], bl.c[i]), g))
                                  for (i, k), g in bl.prj.items() if hc[i] and hb[k]]),
        _block_matrix(p, ea, hc, [((j, i), _after(p, pull_table(cat, t, bl.c[i], bl.a[j]), d))
                                  for (i, j), d in bl.cls.items() if ea[j] and hc[i]]),
        _block_matrix(p, eb, ea, [((k, j), _after(p, push_table(cat, t, bl.a[j], bl.b[k]), f))
                                  for (k, j), f in bl.inc.items() if eb[k] and ea[j]]),
    ]


def contravariant_block_maps(ses: SES, x: Module) -> list[Mat]:
    """The maps Hom(c,x) -> Hom(b,x) -> Hom(a,x) -> Ext(c,x) -> Ext(b,x) of a
    listed sequence and a catalog entry x, as in covariant_block_maps:
    composing with prj and inc, pushing the class's blocks along maps
    a_j -> x (the connecting map) and pulling along prj."""
    bl, t = _terms(ses, x)
    cat = bl.catalog
    p = cat.p
    ha, hb, hc = ([cat.dim_hom(i, t) for i in ms] for ms in (bl.a, bl.b, bl.c))
    eb, ec = ([ext1_dim(cat, i, t) for i in ms] for ms in (bl.b, bl.c))
    return [
        _block_matrix(p, hb, hc, [((k, i), _before(p, cat.compose(bl.b[k], bl.c[i], t), g))
                                  for (i, k), g in bl.prj.items() if hb[k] and hc[i]]),
        _block_matrix(p, ha, hb, [((j, k), _before(p, cat.compose(bl.a[j], bl.b[k], t), f))
                                  for (k, j), f in bl.inc.items() if ha[j] and hb[k]]),
        _block_matrix(p, ec, ha, [((i, j), _before(p, push_table(cat, bl.c[i], bl.a[j], t), d))
                                  for (i, j), d in bl.cls.items() if ec[i] and ha[j]]),
        _block_matrix(p, eb, ec, [((k, i), _before(p, pull_table(cat, bl.b[k], bl.c[i], t), g))
                                  for (i, k), g in bl.prj.items() if eb[k] and ec[i]]),
    ]


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
    return dict(zip(("at_hom_b", "at_hom_c", "at_ext_a"), _exactness(covariant_block_maps(ses, x))))


def five_term_contravariant(ses: SES, x: Module) -> dict:
    """Hom(c,x) -> Hom(b,x) -> Hom(a,x) -> Ext(c,x) -> Ext(b,x)."""
    return dict(zip(("at_hom_b", "at_hom_a", "at_ext_c"), _exactness(contravariant_block_maps(ses, x))))


# -- conflation enumeration -------------------------------------------------------


@dataclass(eq=False)
class ConflationRecord:
    """A conflation with catalog bookkeeping for its three terms.

    The sequence is built the first time `ses` is read, on the catalog's
    one module b of the sorted middle summands, and carries its block
    coordinates (Blocks).  A `from_blocks` record is a nonsplit record
    whose nonzero blocks lie in distinct rows and columns: its sequence is
    the sum of those blocks' single-summand records' sequences, its
    `pieces`, and of split pieces for the unused summands, placed by the
    permutation that sorts their middles' summands.  The zero class's
    sequence is summed the same way, of split pieces alone.  Every other
    class is realized: its middle summands are the catalog's decomposition
    of the realized middle, found when `middle_summands` is read, and its
    sequence is the realization carried onto b along the catalog's
    placement of that middle.  So a middle outside the catalog raises
    CatalogIncompleteError when it is read, not when the list is built.
    Equality compares the class, the ends and the middle, which it reads.
    """

    cls: ExtClass
    a_summands: tuple[int, ...]
    c_summands: tuple[int, ...]
    catalog: Catalog = field(repr=False)
    _middle: Optional[tuple[int, ...]] = None
    from_blocks: bool = False
    _ses: Optional[SES] = field(default=None, repr=False)
    # (i, j, single-summand record) for a from_blocks record's nonzero blocks
    pieces: tuple[tuple[int, int, "ConflationRecord"], ...] = field(default=(), repr=False)

    @property
    def coords(self) -> tuple[int, ...]:
        return self.cls.coords

    @property
    def split(self) -> bool:
        return self.cls.is_zero()

    @property
    def ses(self) -> SES:
        if self._ses is None:
            if self.split or self.from_blocks:
                self._ses = self._summed_ses()
            else:
                realized, cat = self.cls.realize(), self.catalog
                self._middle, iso = cat.placement(realized.b)
                inc, prj = iso @ realized.inc, realized.prj @ iso.inverse()
                a_ms, b_ms, c_ms = self.a_summands, self._middle, self.c_summands
                self._ses = SES(realized.a, iso.target, realized.c, inc, prj, Blocks(
                    cat, a_ms, b_ms, c_ms, _map_blocks(cat, inc, a_ms, b_ms), _map_blocks(cat, prj, b_ms, c_ms),
                    _class_blocks(cat, self.cls, a_ms, c_ms)))
        return self._ses

    def _summed_ses(self) -> SES:
        """A from_blocks or split record's sequence: the sum of the pieces'
        sequences and of a_j >-> a_j ->> 0 and 0 >-> c_i ->> c_i for the
        unused summands (all of them when the record is split), in that
        order, each summand at its place in the sorted middle, earlier parts
        first among equal summands.  Its blocks are the pieces' blocks and
        identities, moved to those places."""
        cat, a_ms, c_ms = self.catalog, self.a_summands, self.c_summands
        # (middle summands, a position, c position, sequence, or None for identities)
        parts = [(rec.middle_summands, j, i, rec.ses) for i, j, rec in self.pieces]
        parts += [((a,), j, None, None) for j, a in enumerate(a_ms) if all(j != q for _, q, _ in self.pieces)]
        parts += [((c,), None, i, None) for i, c in enumerate(c_ms) if all(i != q for q, _, _ in self.pieces)]
        both = [k for part in parts for k in part[0]]
        order = sorted(range(len(both)), key=both.__getitem__)
        places = sorted(range(len(both)), key=order.__getitem__)
        self._middle = tuple(both[q] for q in order)
        b = cat.sum_of(self._middle)
        bb, ba, bc = (_bounds([cat.indecs[k] for k in ms]) if ms else None for ms in (self._middle, a_ms, c_ms))
        vertices = cat.algebra.vertices
        inc = {v: np.zeros((b.dim(v), self.cls.a.dim(v)), dtype=np.int64) for v in vertices}
        prj = {v: np.zeros((self.cls.c.dim(v), b.dim(v)), dtype=np.int64) for v in vertices}
        inc_blocks, prj_blocks, cls_blocks = {}, {}, {}
        start = 0
        for ms, j, i, piece in parts:
            at = places[start:start + len(ms)]
            start += len(ms)
            for v in vertices:
                rows = [r for q in at for r in range(bb[q][v], bb[q + 1][v])]
                eye = None if piece else np.eye(len(rows), dtype=np.int64)
                if j is not None:
                    inc[v][rows, ba[j][v]:ba[j + 1][v]] = eye if piece is None else piece.inc.comps[v].a
                if i is not None:
                    prj[v][bc[i][v]:bc[i + 1][v], rows] = eye if piece is None else piece.prj.comps[v].a
            if piece is None:
                unit = cat.unit(ms[0])
                if j is not None:
                    inc_blocks[at[0], j] = unit
                else:
                    prj_blocks[i, at[0]] = unit
            else:
                inc_blocks.update(((at[k], j), coords) for (k, _), coords in piece.blocks.inc.items())
                prj_blocks.update(((i, at[k]), coords) for (_, k), coords in piece.blocks.prj.items())
                cls_blocks[i, j] = piece.blocks.cls[0, 0]
        return SES(self.cls.a, b, self.cls.c,
                   Morphism(self.cls.a, b, {v: Mat(cat.p, m) for v, m in inc.items()}, check=False),
                   Morphism(b, self.cls.c, {v: Mat(cat.p, m) for v, m in prj.items()}, check=False),
                   Blocks(cat, a_ms, self._middle, c_ms, inc_blocks, prj_blocks, cls_blocks))

    @property
    def middle_summands(self) -> tuple[int, ...]:
        if self._middle is None:
            self._middle = tuple(sorted(self.catalog.decompose(self.cls.realize().b).elements()))
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


def _map_blocks(catalog: Catalog, f: Morphism, src: Sequence[int], tgt: Sequence[int]) -> dict:
    """The nonzero blocks of a map between catalog sums: (k, j) -> the
    coordinates of its block src[j] -> tgt[k] in the catalog's Hom basis."""
    if not src or not tgt:
        return {}
    cols, rows = _bounds([catalog.indecs[j] for j in src]), _bounds([catalog.indecs[k] for k in tgt])
    out = {}
    for k, t in enumerate(tgt):
        for j, s in enumerate(src):
            if catalog.dim_hom(s, t):
                vec = np.concatenate([f.comps[v].a[rows[k][v]:rows[k + 1][v], cols[j][v]:cols[j + 1][v]].reshape(-1)
                                      for v in catalog.algebra.vertices])
                coords = catalog.hom_coords(s, t, vec)
                if coords.any():
                    out[k, j] = coords
    return out


def _class_blocks(catalog: Catalog, cls: ExtClass, a_ms: Sequence[int], c_ms: Sequence[int]) -> dict:
    """The nonzero blocks of a class on catalog sums: (i, j) -> its quotient
    coordinates in Ext^1(c_i, a_j), the slice of its coordinates at the
    block's place (_sum_layout)."""
    if cls.is_zero():
        return {}
    spaces = [ext1_space(catalog.indecs[i], catalog.indecs[j]) for i in c_ms for j in a_ms]
    _, places = _sum_layout([catalog.indecs[i] for i in c_ms], [catalog.indecs[j] for j in a_ms], spaces)
    out = {}
    for k, (space, place) in enumerate(zip(spaces, places)):
        coords = space.compress([cls.coords[t] for t in place])
        if coords.any():
            out[divmod(k, len(a_ms))] = coords
    return out


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
    # the single-summand nonsplit records, by class
    base_records: dict[ExtClass, ConflationRecord] = {}
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
                    rec.middle_summands
                    base_records[cls] = rec
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
                        rec.pieces = tuple((i, j, base_records[sub]) for i, j, sub in nonzero)
                        rec._middle = tuple(sorted(sum((piece.middle_summands for _, _, piece in rec.pieces),
                                                       unused)))
                records.append(rec)
    return records
