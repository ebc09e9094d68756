"""Exhaustive reference answers that the program computes another way.

Each function walks all p**dim F_p combinations of a Hom basis, so it is
exponential in dim Hom and meant only for the small modules of the tests,
where it checks the catalog-based answers of `quivrep`.
"""

from __future__ import annotations

import itertools
from typing import Optional

from extriang.quivrep import (
    Module,
    Morphism,
    hom_basis,
    identity_morphism,
    morphism_from_coords,
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
