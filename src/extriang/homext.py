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
    direct_sum,
    hom_basis,
    morphism_coords_many,
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
    """The relations of the extension [[a, phi], [0, c]] as equations in phi.

    A term x_k...x_1 has upper-right corner
    sum_i a_{x_k...x_{i+1}} phi_{x_i} c_{x_{i-1}...x_1}, and
    vec(L phi R) = (L kron R^T) vec(phi) for row-major vec.  Unknowns are
    laid out as in Ext1Space.  Every Kronecker product and every multiple
    by a coefficient is reduced mod p at once, so entries stay below
    (p-1)**2.
    """
    alg, p = c.algebra, c.p
    rows: list[np.ndarray] = []
    for rel in alg.relations:
        src, tgt = alg.path_source(rel[0][1]), alg.path_target(rel[0][1])
        block = np.zeros((a.dim(tgt) * c.dim(src), total), dtype=np.int64)
        for coeff, path in rel:
            for i, name in enumerate(path):
                after, before = path[:i], path[i + 1:]
                left = a.path_matrix(after).a if after else np.eye(a.dim(tgt), dtype=np.int64)
                right = c.path_matrix(before).a if before else np.eye(c.dim(src), dtype=np.int64)
                term = np.kron(left, right.T) % p * (coeff % p) % p
                cols = slice(offsets[name], offsets[name] + term.shape[1])
                block[:, cols] = (block[:, cols] + term) % p
        rows.append(block)
    return Mat(p, np.vstack(rows)) if rows else Mat.zeros(p, 0, total)


@dataclass(frozen=True)
class ExtClass:
    """An element of Ext^1(c, a) in canonical reduced coordinates."""

    space: "Ext1Space"
    coords: tuple[int, ...]

    @property
    def c(self) -> Module:
        return self.space.c

    @property
    def a(self) -> Module:
        return self.space.a

    def is_zero(self) -> bool:
        return not any(self.coords)

    def cocycle(self) -> dict[str, Mat]:
        """The blocks phi_x: c_src -> a_tgt of the class's cocycle, by arrow name."""
        return self.space.cocycle(self.coords)

    def realize(self) -> SES:
        return self.space.realize(self)

    def __eq__(self, other):
        return (
            isinstance(other, ExtClass)
            and self.space.c == other.space.c
            and self.space.a == other.space.a
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.space.c, self.space.a, self.coords))


class Ext1Space:
    """Ext^1(c, a) = cocycles / coboundaries on the arrows, with fixed coordinates.

    A cocycle's unknowns are the row-major entries of its blocks phi_x,
    in arrow order; the coboundaries of the unit vertexwise maps h are the
    columns of the Hom(c, a) commuting-square system, whose rows have the
    same layout.
    """

    def __init__(self, c: Module, a: Module):
        if c.algebra != a.algebra or c.p != a.p:
            raise ValueError("Ext endpoints over different algebras")
        self.c = c
        self.a = a
        self.p = c.p
        self._offsets: dict[str, int] = {}
        total = 0
        for x in c.algebra.arrows:
            self._offsets[x.name] = total
            total += a.dim(x.tgt) * c.dim(x.src)
        self._relations = _relation_system(c, a, self._offsets, total)
        held = set(self._relations.rref()[1])
        # kernel_basis() is the identity on the free unknowns of the
        # relations, so a cocycle's entries there are its coordinates in Z
        self._zfree = [i for i in range(total) if i not in held]
        self._z = self._relations.kernel_basis()
        boundaries, _ = _commuting_system(c, a)
        # one row of Z coordinates per coboundary
        self._rref, self._pivots = Mat(self.p, boundaries.a[self._zfree].T).rref()
        self._free = [i for i in range(len(self._zfree)) if i not in self._pivots]

    @property
    def dim(self) -> int:
        return len(self._free)

    def reduce(self, coords) -> tuple[int, ...]:
        x = np.array(coords, dtype=np.int64) % self.p
        for row, pc in enumerate(self._pivots):
            if x[pc]:
                x = (x - x[pc] * self._rref.a[row]) % self.p
        return tuple(int(t) for t in x)

    def compress(self, coords) -> np.ndarray:
        """Reduced full-length coordinates -> quotient coordinates."""
        x = np.array(coords, dtype=np.int64)
        return x[self._free] if len(x) else np.zeros(0, dtype=np.int64)

    def zero(self) -> ExtClass:
        return ExtClass(self, tuple([0] * len(self._zfree)))

    def basis(self) -> list[ExtClass]:
        out = []
        for i in self._free:
            coords = [0] * len(self._zfree)
            coords[i] = 1
            out.append(ExtClass(self, tuple(coords)))
        return out

    def elements(self) -> list[ExtClass]:
        """All p**dim classes, the zero class first."""
        out = []
        for combo in itertools.product(range(self.p), repeat=self.dim):
            coords = [0] * len(self._zfree)
            for value, i in zip(combo, self._free):
                coords[i] = value
            out.append(ExtClass(self, tuple(coords)))
        return out

    def cocycle(self, coords) -> dict[str, Mat]:
        """Blocks phi_x of the cocycle with the given coordinates in Z."""
        vec = (self._z @ Mat(self.p, np.array(coords, dtype=np.int64).reshape(-1, 1))).a[:, 0]
        out = {}
        for x in self.c.algebra.arrows:
            r, k = self.a.dim(x.tgt), self.c.dim(x.src)
            start = self._offsets[x.name]
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
        if not (self._relations @ Mat(self.p, vec.reshape(-1, 1))).is_zero():
            raise ValueError("blocks violate a relation: not a cocycle")
        return ExtClass(self, self.reduce(vec[self._zfree]))

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


def ext_push(cls: ExtClass, g: Morphism, target_space: Optional[Ext1Space] = None) -> ExtClass:
    """Image of a class under Ext^1(c, a) -> Ext^1(c, a') along g: a -> a',
    phi_x -> g_tgt phi_x."""
    if g.source != cls.a:
        raise ValueError("map must start at the class's subobject")
    space = target_space or ext1_space(cls.c, g.target)
    phi = cls.cocycle()
    return space.class_from_cocycle({x.name: g.comps[x.tgt] @ phi[x.name] for x in g.source.algebra.arrows})


def ext_pull(cls: ExtClass, h: Morphism, target_space: Optional[Ext1Space] = None) -> ExtClass:
    """Image of a class under Ext^1(c, a) -> Ext^1(x, a) along h: x -> c,
    phi_x -> phi_x h_src."""
    if h.target != cls.c:
        raise ValueError("map must land in the class's quotient")
    space = target_space or ext1_space(h.source, cls.a)
    phi = cls.cocycle()
    return space.class_from_cocycle({x.name: phi[x.name] @ h.comps[x.src] for x in h.source.algebra.arrows})


# -- five-term exact sequences ---------------------------------------------------


def _map_matrix(src_basis, tgt_coords: Callable, p: int, tgt_dim: int) -> Mat:
    cols = [np.asarray(tgt_coords(b), dtype=np.int64) for b in src_basis]
    if not cols:
        return Mat.zeros(p, tgt_dim, 0)
    return Mat(p, np.stack(cols, axis=1))


def _exact_at(first: Mat, second: Mat) -> bool:
    # exactness at the middle space: im(first) = ker(second)
    if second.cols != first.rows:
        raise ValueError("dimension mismatch")
    comp = second @ first
    if not comp.is_zero():
        return False
    return first.rank() + second.rank() == second.cols


def five_term_covariant(ses: SES, x: Module) -> dict:
    """Hom(x,a) -> Hom(x,b) -> Hom(x,c) -> Ext(x,a) -> Ext(x,b), exactness
    checked at the three middle terms."""
    p = x.p
    hom_a = hom_basis(x, ses.a)
    hom_b = hom_basis(x, ses.b)
    hom_c = hom_basis(x, ses.c)
    ext_a = ext1_space(x, ses.a)
    ext_b = ext1_space(x, ses.b)
    delta_cls = class_of(ses)

    m1 = Mat(p, morphism_coords_many([ses.inc @ f for f in hom_a], hom_b))
    m2 = Mat(p, morphism_coords_many([ses.prj @ f for f in hom_b], hom_c))
    m3 = _map_matrix(hom_c, lambda f: ext_a.compress(ext_pull(delta_cls, f, ext_a).coords), p, ext_a.dim)
    m4 = _map_matrix(ext_a.basis(), lambda e: ext_b.compress(ext_push(e, ses.inc, ext_b).coords), p, ext_b.dim)
    return {
        "at_hom_b": _exact_at(m1, m2),
        "at_hom_c": _exact_at(m2, m3),
        "at_ext_a": _exact_at(m3, m4),
    }


def five_term_contravariant(ses: SES, x: Module) -> dict:
    """Hom(c,x) -> Hom(b,x) -> Hom(a,x) -> Ext(c,x) -> Ext(b,x)."""
    p = x.p
    hom_c = hom_basis(ses.c, x)
    hom_b = hom_basis(ses.b, x)
    hom_a = hom_basis(ses.a, x)
    ext_c = ext1_space(ses.c, x)
    ext_b = ext1_space(ses.b, x)
    delta_cls = class_of(ses)

    m1 = Mat(p, morphism_coords_many([f @ ses.prj for f in hom_c], hom_b))
    m2 = Mat(p, morphism_coords_many([f @ ses.inc for f in hom_b], hom_a))
    m3 = _map_matrix(hom_a, lambda f: ext_c.compress(ext_push(delta_cls, f, ext_c).coords), p, ext_c.dim)
    m4 = _map_matrix(ext_c.basis(), lambda e: ext_b.compress(ext_pull(e, ses.prj, ext_b).coords), p, ext_b.dim)
    return {
        "at_hom_b": _exact_at(m1, m2),
        "at_hom_a": _exact_at(m2, m3),
        "at_ext_c": _exact_at(m3, m4),
    }


# -- conflation enumeration -------------------------------------------------------


@dataclass
class ConflationRecord:
    """A conflation with catalog bookkeeping for its three terms.

    The sequence is built from the class the first time `ses` is read: the
    split sequence for the zero class, the class's realization otherwise.
    Records whose middle was decomposed keep the realization they built.
    `from_blocks` marks a nonsplit record whose middle was read off the
    single-summand records of its nonzero blocks.  Neither takes part in
    equality.
    """

    cls: ExtClass
    a_summands: tuple[int, ...]
    c_summands: tuple[int, ...]
    middle_summands: tuple[int, ...]
    from_blocks: bool = field(default=False, compare=False)
    _ses: Optional[SES] = field(default=None, repr=False, compare=False)

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
                x.name: Mat(cls.space.p, phi[x.name].a[rows[j][x.tgt]:rows[j + 1][x.tgt],
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

    Only some middles are decomposed.  A split middle is the sum of the
    ends.  When the nonzero blocks (i, j) of a class lie in distinct rows
    and columns, the sequence is the sum of its blocks' sequences and split
    pieces, so its middle is the sum of the blocks' middles, read off the
    single-summand records listed before it, and of the unused summands.
    """
    member_list = sorted(members) if members is not None else list(range(len(catalog)))
    ends = _multisets(member_list, cap)
    records: list[ConflationRecord] = []
    # middles of the single-summand records, by class
    base_middles: dict[ExtClass, tuple[int, ...]] = {}
    for c_ms in ends:
        c_mod = catalog.sum_of(c_ms)
        for a_ms in ends:
            a_mod = catalog.sum_of(a_ms)
            base = len(a_ms) == len(c_ms) == 1
            for cls in ext1_space(c_mod, a_mod).elements():
                ses, mid, from_blocks = None, None, False
                if cls.is_zero():
                    mid = a_ms + c_ms
                elif not base:
                    blocks = _block_classes(cls, catalog, a_ms, c_ms)
                    c_used, a_used = {i for i, _, _ in blocks}, {j for _, j, _ in blocks}
                    if len(c_used) == len(a_used) == len(blocks):
                        mid = sum((base_middles[sub] for _, _, sub in blocks), ())
                        mid += tuple(a for j, a in enumerate(a_ms) if j not in a_used)
                        mid += tuple(c for i, c in enumerate(c_ms) if i not in c_used)
                        from_blocks = True
                if mid is None:
                    ses = cls.realize()
                    mid = tuple(catalog.decompose(ses.b).elements())
                    if base:
                        base_middles[cls] = mid
                records.append(ConflationRecord(
                    cls=cls,
                    a_summands=tuple(a_ms),
                    c_summands=tuple(c_ms),
                    middle_summands=tuple(sorted(mid)),
                    from_blocks=from_blocks,
                    _ses=ses,
                ))
    return records
