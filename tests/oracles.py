"""Exhaustive reference answers that the program computes another way.

The isomorphism and indecomposability oracles walk all p**dim F_p
combinations of a Hom basis, so they are exponential in dim Hom and meant
only for the small modules of the tests, where they check the
catalog-based answers of `quivrep`.  `find_witness_by_scan` searches
torsion witnesses from scratch on every call, where `excat` keeps each
candidate's outcome per host.  The short-exact-sequence references
(`lift_through_surjection`, `is_split`, `pushout_ses`, `pullback_ses`)
answer by solving for morphisms and forming pushouts and pullbacks,
where `homext` reads everything off arrow cocycles.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from extriang.excat import ExCat, Subcat, _bounded_multisets
from extriang.exactfield import Mat
from extriang.homext import SES, ext1_space, summand_inclusion
from extriang.quivrep import (
    Module,
    Morphism,
    _add_kron_eye,
    _commuting_system,
    _morphism_from_vector,
    cokernel,
    direct_sum,
    hom_basis,
    identity_morphism,
    kernel,
    morphism_from_coords,
    split_off_summand,
    zero_morphism,
)


def find_isomorphism(m: Module, n: Module) -> Optional[Morphism]:
    """An invertible element of Hom(m, n), or None."""
    if m.algebra != n.algebra or m.p != n.p:
        raise ValueError("different algebras")
    if m.dims != n.dims:
        return None
    if m.is_zero():
        return zero_morphism(m, n)
    basis = hom_basis(m, n)
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
    """True when the only idempotents of End(m) are 0 and the identity."""
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


def find_witness_by_scan(c_index: int, t: Subcat, f: Subcat, e: ExCat) -> Optional[SES]:
    """First conflation T -> C -> F in the torsion witness scan order, or None.

    Realizes every candidate class afresh: torsion part by size then
    lexicographic, then the free part of complementary dimension vector,
    then extension classes.
    """
    catalog = e.catalog
    c_mod = catalog.indecs[c_index]
    for t_ms in _bounded_multisets(t.sorted_members(), catalog, c_mod.dims):
        t_mod = catalog.sum_of(t_ms)
        comp_dims = tuple(c - d for c, d in zip(c_mod.dims, t_mod.dims))
        for f_ms in _bounded_multisets(f.sorted_members(), catalog, comp_dims):
            f_mod = catalog.sum_of(f_ms)
            if tuple(a + b for a, b in zip(t_mod.dims, f_mod.dims)) != c_mod.dims:
                continue
            space = ext1_space(f_mod, t_mod)
            for cls in space.elements():
                ses = space.realize(cls)
                if catalog.decompose(ses.b) != {c_index: 1}:
                    continue
                _, g = split_off_summand(c_mod, ses.b)
                return SES(ses.a, c_mod, ses.c, g @ ses.inc, ses.prj @ g.inverse())
    return None


def lift_through_surjection(target_map: Morphism, surjection: Morphism) -> Morphism:
    """Find lam with surjection @ lam = target_map, or raise ValueError.

    Solves one linear system over F_p: the commuting squares of lam plus
    the composition rows (surj_v kron I) vec(lam_v) = vec(target_v).
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
        raise ValueError("no lift exists")
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
