"""Ext^1 spaces, extension realization, and conflation enumeration.

Ext^1(C, A) is computed from a projective presentation: with K the kernel
of a projective cover P0 -> C, the long exact sequence identifies
Ext^1(C, A) with Hom(K, A) modulo morphisms extending to P0.  A class is
stored as canonical reduced coordinates in the fixed Hom(K, A) basis;
realization is the pushout of K -> P0 -> C along the cocycle, and reading
a class off a short exact sequence lifts the cover through its surjection.

Extension equivalence is always taken with the ends fixed: two sequences
are equivalent exactly when their reduced coordinates agree.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .exactfield import Mat
from .quivrep import (
    Algebra,
    Catalog,
    Module,
    Morphism,
    NotFiniteDimensionalError,
    _add_kron_eye,
    _commuting_system,
    _morphism_from_vector,
    cokernel,
    direct_sum,
    hom_basis,
    identity_morphism,
    kernel,
    morphism_coords,
    morphism_coords_many,
    morphism_from_coords,
)

_MAX_PATHS = 200_000


# -- projectives --------------------------------------------------------------


@dataclass
class ProjectiveData:
    """Indecomposable projective at a vertex, with its monomial path basis."""

    module: Module
    vertex: str
    basis_paths: tuple[tuple[tuple[str, ...], str], ...]  # (path, target vertex)


@lru_cache(maxsize=None)
def projective_module(algebra: Algebra, p: int, v: str) -> ProjectiveData:
    """Build P(v) = (kQ/I)e_v from paths out of v.

    Works degree by degree: the relation ideal is graded because every
    relation must be length homogeneous (all terms of equal length), so the
    quotient piece in each degree is span(paths)/span(padded relations) and
    path enumeration stops at the first empty degree.  Raises
    NotFiniteDimensionalError when no empty degree appears within a safety
    budget of paths.
    """
    for rel in algebra.relations:
        lengths = {sum(1 for _ in path) for _, path in rel}
        if len(lengths) != 1:
            raise NotImplementedError(
                "projectives need length-homogeneous relations; "
                f"got mixed term lengths in {rel}"
            )

    by_name = algebra.arrow_by_name
    out_arrows: dict[str, list] = {w: [] for w in algebra.vertices}
    for a in algebra.arrows:
        out_arrows[a.src].append(a)

    def extend(paths_with_tgt):
        nxt = []
        for path, tgt in paths_with_tgt:
            for a in out_arrows[tgt]:
                nxt.append(((a.name,) + path, a.tgt))
        return nxt

    # raw paths from every vertex, per degree (left pads need all sources)
    raw: dict[str, list[list]] = {u: [[((), u)]] for u in algebra.vertices}

    def raw_upto(u: str, d: int):
        lst = raw[u]
        while len(lst) <= d:
            lst.append(extend(lst[-1]))
            if sum(len(level) for level in lst) > _MAX_PATHS:
                raise NotFiniteDimensionalError(
                    f"path count from {u} exceeded {_MAX_PATHS}; "
                    "algebra is not (or not recognizably) finite dimensional"
                )
        return lst

    basis: list[tuple[tuple[str, ...], str]] = []
    # reduction data per (degree, target vertex): (paths, index, rref rows, pivots)
    reduction: dict[tuple[int, str], dict] = {}
    degree = 0
    while True:
        level = raw_upto(v, degree)[degree]
        if not level and degree > 0:
            break
        # relation instances of this exact degree, grouped by target vertex
        inst_by_tgt: dict[str, list[np.ndarray]] = {w: [] for w in algebra.vertices}
        paths_by_tgt: dict[str, list[tuple[str, ...]]] = {w: [] for w in algebra.vertices}
        for path, tgt in level:
            paths_by_tgt[tgt].append(path)
        pos = {
            w: {path: k for k, path in enumerate(paths_by_tgt[w])}
            for w in algebra.vertices
        }
        for rel in algebra.relations:
            rel_src = algebra.path_source(rel[0][1])
            rel_tgt = algebra.path_target(rel[0][1])
            rel_len = len(rel[0][1])
            for q_len in range(0, degree - rel_len + 1):
                p_len = degree - rel_len - q_len
                for q_path, q_tgt in raw_upto(v, q_len)[q_len]:
                    if q_tgt != rel_src:
                        continue
                    for p_path, p_tgt in raw_upto(rel_tgt, p_len)[p_len]:
                        vec = np.zeros(len(paths_by_tgt[p_tgt]), dtype=np.int64)
                        ok = True
                        for coeff, term in rel:
                            full = p_path + term + q_path
                            idx = pos[p_tgt].get(full)
                            if idx is None:
                                ok = False  # term died inside another relation pad
                                break
                            vec[idx] = (vec[idx] + coeff) % p
                        if ok and vec.any():
                            inst_by_tgt[p_tgt].append(vec)
        new_dims = 0
        for w in algebra.vertices:
            paths = paths_by_tgt[w]
            if not paths:
                continue
            if inst_by_tgt[w]:
                mat = Mat(p, np.stack(inst_by_tgt[w]))
                r, pivots = mat.rref()
            else:
                r, pivots = Mat.zeros(p, 0, len(paths)), ()
            reduction[(degree, w)] = {
                "paths": paths,
                "index": pos[w],
                "rref": r,
                "pivots": pivots,
            }
            pivset = set(pivots)
            for k, path in enumerate(paths):
                if k not in pivset:
                    basis.append((path, w))
                    new_dims += 1
        if degree > 0 and new_dims == 0:
            break
        degree += 1

    basis_pos = {path: k for k, (path, _) in enumerate(basis)}
    per_vertex = {w: [k for k, (_, tgt) in enumerate(basis) if tgt == w] for w in algebra.vertices}
    dims = {w: len(per_vertex[w]) for w in algebra.vertices}
    local = {w: {k: i for i, k in enumerate(per_vertex[w])} for w in algebra.vertices}

    def reduce_path(path: tuple[str, ...], tgt: str) -> np.ndarray:
        """Coordinates of a path's class in the basis at its target vertex."""
        out = np.zeros(dims[tgt], dtype=np.int64)
        data = reduction.get((len(path), tgt))
        if data is None:
            return out  # empty degree: path is zero in the quotient
        x = np.zeros(len(data["paths"]), dtype=np.int64)
        x[data["index"][path]] = 1
        r = data["rref"]
        for row, pc in enumerate(data["pivots"]):
            if x[pc]:
                x = (x - x[pc] * r.a[row]) % p
        for k, path2 in enumerate(data["paths"]):
            if x[k]:
                out[local[tgt][basis_pos[path2]]] = x[k]
        return out

    action = {}
    for a in algebra.arrows:
        r, c = dims[a.tgt], dims[a.src]
        m = np.zeros((r, c), dtype=np.int64)
        for col, k in enumerate(per_vertex[a.src]):
            path, _ = basis[k]
            m[:, col] = reduce_path((a.name,) + path, a.tgt)
        action[a.name] = Mat(p, m)
    module = Module(algebra, p, dims, action)
    return ProjectiveData(module=module, vertex=v, basis_paths=tuple(basis))


def projective_cover(m: Module) -> Morphism:
    """Surjection from a direct sum of indecomposable projectives onto m.

    One projective summand per basis vector of the top m/rad(m); lifts are
    standard basis vectors chosen greedily outside the radical.
    """
    alg, p = m.algebra, m.p
    generators: list[tuple[str, np.ndarray]] = []
    for v in alg.vertices:
        n = m.dim(v)
        if n == 0:
            continue
        incoming = [m.action[a.name].a for a in alg.arrows if a.tgt == v and m.dim(a.src)]
        rad = np.hstack(incoming) if incoming else np.zeros((n, 0), dtype=np.int64)
        span = rad
        for i in range(n):
            e = np.zeros((n, 1), dtype=np.int64)
            e[i, 0] = 1
            candidate = np.hstack([span, e])
            if Mat(p, candidate).rank() > Mat(p, span).rank():
                generators.append((v, e[:, 0]))
                span = candidate
    pieces = [projective_module(alg, p, v) for v, _ in generators]
    p0 = direct_sum([pd.module for pd in pieces], algebra=alg, p=p)
    comps = {w: np.zeros((m.dim(w), p0.dim(w)), dtype=np.int64) for w in alg.vertices}
    offsets = {w: 0 for w in alg.vertices}
    for (v, x), pd in zip(generators, pieces):
        per_vertex: dict[str, list] = {w: [] for w in alg.vertices}
        for path, tgt in pd.basis_paths:
            per_vertex[tgt].append(path)
        for w in alg.vertices:
            for j, path in enumerate(per_vertex[w]):
                vec = x
                for name in reversed(path):
                    vec = m.action[name].a @ vec % p
                comps[w][:, offsets[w] + j] = vec
            offsets[w] += len(per_vertex[w])
    cover = Morphism(p0, m, {w: Mat(p, comps[w]) for w in alg.vertices})
    if not cover.is_surjective():
        raise AssertionError("projective cover failed to be surjective")
    return cover


@lru_cache(maxsize=None)
def presentation(m: Module) -> tuple[Module, Morphism, Morphism]:
    """(K, incl, cover) with K -> P0 -> m exact, P0 projective."""
    cover = projective_cover(m)
    k, incl = kernel(cover)
    return k, incl, cover


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


@lru_cache(maxsize=None)
def lift_through_surjection(target_map: Morphism, surjection: Morphism) -> Morphism:
    """Find lam with surjection @ lam = target_map; source must be projective.

    Solves one linear system over F_p: the commuting squares of lam plus
    the composition rows (surj_v kron I) vec(lam_v) = vec(target_v).
    Raises when inconsistent.  Lifts repeat heavily along the five-term
    maps, so they are memoized by value (a failed lift is not cached).
    """
    p0 = target_map.source
    b = surjection.source
    if target_map.target != surjection.target:
        raise ValueError("codomain mismatch")
    p = p0.p
    squares, offsets = _commuting_system(p0, b)
    rows = [squares.a]
    rhs = [np.zeros(squares.rows, dtype=np.int64)]
    for v in p0.algebra.vertices:
        block = np.zeros((target_map.target.dim(v) * p0.dim(v), squares.cols), dtype=np.int64)
        width = b.dim(v) * p0.dim(v)
        _add_kron_eye(block[:, offsets[v]:offsets[v] + width], surjection.comps[v].a, p0.dim(v))
        rows.append(block)
        rhs.append(target_map.comps[v].a.reshape(-1))
    x = Mat(p, np.vstack(rows)).solve(Mat(p, np.concatenate(rhs).reshape(-1, 1)))
    if x is None:
        raise ValueError("no lift exists (source not projective over this surjection?)")
    return _morphism_from_vector(x.a[:, 0], p0, b, offsets, check=True)


def is_split(ses: SES) -> bool:
    """A retraction of inc exists iff the sequence splits (linear solve)."""
    try:
        lift_through_surjection(identity_morphism(ses.c), ses.prj)
        return True
    except ValueError:
        return False


def pushout_ses(ses: SES, h: Morphism) -> SES:
    """Push a >-> b ->> c forward along h: a -> y, giving y >-> e ->> c."""
    if h.source != ses.a:
        raise ValueError("pushout map must start at the subobject")
    y = h.target
    alg, p = y.algebra, y.p
    by = direct_sum([ses.b, y])
    w_comps = {v: ses.inc.comps[v].vstack(-h.comps[v]) for v in alg.vertices}
    w = Morphism(ses.a, by, w_comps, check=False)
    e, proj, sect = cokernel(w)
    inc = proj @ summand_inclusion([ses.b, y], 1, by)
    prj_comps = {}
    for v in alg.vertices:
        wide = ses.prj.comps[v].hstack(Mat.zeros(p, ses.c.dim(v), y.dim(v)))
        prj_comps[v] = wide @ sect[v]
    prj = Morphism(e, ses.c, prj_comps)
    return SES(y, e, ses.c, inc, prj)


def pullback_ses(ses: SES, h: Morphism) -> SES:
    """Pull a >-> b ->> c back along h: x -> c, giving a >-> d ->> x."""
    if h.target != ses.c:
        raise ValueError("pullback map must land in the quotient")
    x = h.source
    alg, p = x.algebra, x.p
    bx = direct_sum([ses.b, x])
    u_comps = {v: ses.prj.comps[v].hstack(-h.comps[v]) for v in alg.vertices}
    u = Morphism(bx, ses.c, u_comps, check=False)
    d, incl = kernel(u)
    inc_comps = {}
    prj_comps = {}
    for v in alg.vertices:
        lifted = ses.inc.comps[v].vstack(Mat.zeros(p, x.dim(v), ses.a.dim(v)))
        sol = incl.comps[v].solve(lifted)
        if sol is None:
            raise AssertionError("pullback inclusion failed")
        inc_comps[v] = sol
        prj_comps[v] = incl.comps[v].a[ses.b.dim(v):, :]
    inc = Morphism(ses.a, d, inc_comps)
    prj = Morphism(d, x, {v: Mat(p, prj_comps[v]) for v in alg.vertices})
    return SES(ses.a, d, x, inc, prj)


# -- Ext^1 ---------------------------------------------------------------------


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

    def cocycle(self) -> Morphism:
        return morphism_from_coords(self.coords, self.space.hom_k_a, self.space.k, self.space.a)

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
    """Ext^1(c, a) = Hom(K, a) / restrictions from P0, with fixed coordinates."""

    def __init__(self, c: Module, a: Module):
        if c.algebra != a.algebra or c.p != a.p:
            raise ValueError("Ext endpoints over different algebras")
        self.c = c
        self.a = a
        self.p = c.p
        self.k, self.incl, self.cover = presentation(c)
        self.presentation_ses = SES(self.k, self.incl.target, c, self.incl, self.cover)
        self.hom_k_a = hom_basis(self.k, a)
        restricted = [phi @ self.incl for phi in hom_basis(self.incl.target, a)]
        # one row of hom_k_a coordinates per restriction
        coords = morphism_coords_many(restricted, self.hom_k_a).T
        self._rref, self._pivots = Mat(self.p, coords).rref()
        self._free = [i for i in range(len(self.hom_k_a)) if i not in self._pivots]

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
        return ExtClass(self, tuple([0] * len(self.hom_k_a)))

    def basis(self) -> list[ExtClass]:
        out = []
        for i in self._free:
            coords = [0] * len(self.hom_k_a)
            coords[i] = 1
            out.append(ExtClass(self, tuple(coords)))
        return out

    def elements(self) -> list[ExtClass]:
        """All p**dim classes, the zero class first."""
        out = []
        for combo in itertools.product(range(self.p), repeat=self.dim):
            coords = [0] * len(self.hom_k_a)
            for value, i in zip(combo, self._free):
                coords[i] = value
            out.append(ExtClass(self, tuple(coords)))
        return out

    def class_from_cocycle(self, xi: Morphism) -> ExtClass:
        if xi.source != self.k or xi.target != self.a:
            raise ValueError("cocycle endpoints wrong")
        if not self.hom_k_a:
            return self.zero()
        return ExtClass(self, self.reduce(morphism_coords(xi, self.hom_k_a)))

    def realize(self, cls: ExtClass) -> SES:
        """Short exact sequence with ends (a, c) realizing the class."""
        return pushout_ses(self.presentation_ses, cls.cocycle())

    def class_of(self, ses: SES) -> ExtClass:
        """Class of a short exact sequence with ends equal to (a, c)."""
        if ses.a != self.a or ses.c != self.c:
            raise ValueError("sequence ends do not match this Ext space")
        lam = lift_through_surjection(self.cover, ses.prj)
        composed = lam @ self.incl
        xi_comps = {}
        for v in self.k.algebra.vertices:
            sol = ses.inc.comps[v].solve(composed.comps[v])
            if sol is None:
                raise AssertionError("lift did not land in the subobject")
            xi_comps[v] = sol
        xi = Morphism(self.k, self.a, xi_comps)
        return self.class_from_cocycle(xi)


@lru_cache(maxsize=None)
def ext1_space(c: Module, a: Module) -> Ext1Space:
    return Ext1Space(c, a)


@lru_cache(maxsize=None)
def class_of(ses: SES) -> ExtClass:
    return ext1_space(ses.c, ses.a).class_of(ses)


def realize(cls: ExtClass) -> SES:
    return cls.realize()


# -- functoriality of Ext -------------------------------------------------------


def ext_push(cls: ExtClass, g: Morphism, target_space: Optional[Ext1Space] = None) -> ExtClass:
    """Image of a class under Ext^1(c, a) -> Ext^1(c, a') along g: a -> a'."""
    if g.source != cls.a:
        raise ValueError("map must start at the class's subobject")
    space = target_space or ext1_space(cls.c, g.target)
    return space.class_from_cocycle(g @ cls.cocycle())


def ext_pull(cls: ExtClass, h: Morphism, target_space: Optional[Ext1Space] = None) -> ExtClass:
    """Image of a class under Ext^1(c, a) -> Ext^1(x, a) along h: x -> c.

    Lifts h through the projective covers; the induced map on syzygies
    composes with the cocycle.
    """
    if h.target != cls.c:
        raise ValueError("map must land in the class's quotient")
    space = target_space or ext1_space(h.source, cls.a)
    src_space = cls.space
    h0 = lift_through_surjection(h @ space.cover, src_space.cover)
    composed = h0 @ space.incl
    h1_comps = {}
    for v in space.k.algebra.vertices:
        sol = src_space.incl.comps[v].solve(composed.comps[v])
        if sol is None:
            raise AssertionError("syzygy map did not restrict")
        h1_comps[v] = sol
    h1 = Morphism(space.k, src_space.k, h1_comps)
    return space.class_from_cocycle(cls.cocycle() @ h1)


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
    """A conflation with catalog bookkeeping for its three terms."""

    ses: SES
    a_summands: tuple[int, ...]
    c_summands: tuple[int, ...]
    middle_summands: tuple[int, ...]
    coords: tuple[int, ...]

    @property
    def split(self) -> bool:
        return not any(self.coords)

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


def all_conflations(
    catalog: Catalog,
    members: Optional[Iterable[int]] = None,
    cap: int = 2,
    middle_filter=None,
) -> list[ConflationRecord]:
    """Every conflation (up to fixed-end equivalence) over the given members.

    Ends run over direct sums of member indecomposables with at most `cap`
    summands each (the zero object included); one record per Ext^1 class,
    the split class among them.  Middles must decompose in the catalog;
    middle_filter (an index set or an additive subcategory) keeps only
    records whose middle lies inside it.
    """
    if middle_filter is not None and hasattr(middle_filter, "members"):
        middle_filter = set(middle_filter.members)
    member_list = sorted(members) if members is not None else list(range(len(catalog)))
    ends = _multisets(member_list, cap)
    records: list[ConflationRecord] = []
    for c_ms in ends:
        c_mod = catalog.sum_of(c_ms)
        for a_ms in ends:
            a_mod = catalog.sum_of(a_ms)
            space = ext1_space(c_mod, a_mod)
            for cls in space.elements():
                if cls.is_zero():
                    # canonical representative of the split class
                    ses = split_ses(a_mod, c_mod)
                    mid = tuple(sorted(a_ms + c_ms))
                else:
                    ses = space.realize(cls)
                    mid = tuple(sorted(catalog.decompose(ses.b).elements()))
                if middle_filter is not None and not set(mid) <= middle_filter:
                    continue
                records.append(ConflationRecord(
                    ses=ses,
                    a_summands=tuple(a_ms),
                    c_summands=tuple(c_ms),
                    middle_summands=mid,
                    coords=cls.coords,
                ))
    return records


def conflations_to_json(records: Sequence[ConflationRecord], cap: int) -> str:
    return json.dumps(
        {
            "schema": 1,
            "kind": "conflations",
            "end_summand_cap": cap,
            "conflations": [r.to_json_dict() for r in records],
        },
        sort_keys=True,
        indent=2,
    ) + "\n"
