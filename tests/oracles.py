"""Exhaustive reference answers that the program computes another way.

The isomorphism and indecomposability oracles walk all p**dim F_p
combinations of a Hom basis, so they are exponential in dim Hom and meant
only for the small modules of the tests, where they check the
catalog-based answers of `quivrep`.  `find_witness_by_scan` searches
torsion witnesses from scratch on every call, where `excat` keeps each
candidate's outcome per host.
"""

from __future__ import annotations

import itertools
from typing import Optional

from extriang.excat import ExCat, Subcat, _bounded_multisets
from extriang.homext import SES, ext1_space
from extriang.quivrep import (
    Module,
    Morphism,
    hom_basis,
    identity_morphism,
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
