"""Extension-closed subcategories carrying their inherited conflation structure.

An ExCat wraps a catalog together with a set of member indecomposables whose
additive closure is extension closed in the ambient module category; its
conflations are all short exact sequences with every term decomposing among
the members (ends capped at a configurable summand count, reported in JSON
output).  Inflations, deflations, one-sided exact sequences, torsion pairs,
approximations, rigidity, cluster tilting, and additive quotients are all
decided by finite linear algebra over the catalog.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .exactfield import Mat
from .quivrep import (
    Catalog,
    Module,
    Morphism,
    hom_basis,
    identity_morphism,
    kernel,
    cokernel,
    morphism_coords,
    morphism_coords_many,
    split_off_summand,
)
from .homext import (
    ConflationRecord,
    SES,
    all_conflations,
    ext1_space,
)


@dataclass(frozen=True)
class Subcat:
    """Additive subcategory given by indecomposable catalog indices.

    Closed under isomorphism and finite direct sums by construction:
    membership of an arbitrary module is decided on its indecomposable
    summands.
    """

    catalog: Catalog
    members: frozenset[int]

    def __post_init__(self):
        if not all(0 <= i < len(self.catalog) for i in self.members):
            raise ValueError("member index out of range")

    @staticmethod
    def full(catalog: Catalog) -> "Subcat":
        return Subcat(catalog, frozenset(range(len(catalog))))

    @staticmethod
    def add(catalog: Catalog, indices: Iterable[int]) -> "Subcat":
        return Subcat(catalog, frozenset(indices))

    @staticmethod
    def zero(catalog: Catalog) -> "Subcat":
        return Subcat(catalog, frozenset())

    def sorted_members(self) -> list[int]:
        return sorted(self.members)

    def contains_index_multiset(self, indices: Iterable[int]) -> bool:
        return set(indices) <= self.members

    def contains_module(self, m: Module) -> bool:
        if m.is_zero():
            return True
        return set(self.catalog.decompose(m)) <= self.members

    def is_subset_of(self, other: "Subcat") -> bool:
        return self.members <= other.members

    def __le__(self, other: "Subcat") -> bool:
        return self.is_subset_of(other)


class NotExtensionClosedError(ValueError):
    """A conflation with ends inside the subcategory has a middle outside."""


class ExCat:
    """Extension-closed subcategory with its complete conflation list."""

    def __init__(
        self,
        catalog: Catalog,
        members: Optional[Iterable[int]] = None,
        cap: int = 2,
        verify_closed: bool = True,
    ):
        self.catalog = catalog
        if members is None:
            self.objects = Subcat.full(catalog)
        else:
            self.objects = Subcat.add(catalog, members)
        self.cap = cap
        self._conflations: Optional[list[ConflationRecord]] = None
        if verify_closed and not self.is_full():
            bad = self.extension_closure_failure()
            if bad is not None:
                raise NotExtensionClosedError(
                    f"middle {bad.middle_summands} escapes members "
                    f"{sorted(self.objects.members)}"
                )

    def is_full(self) -> bool:
        return self.objects.members == frozenset(range(len(self.catalog)))

    @property
    def conflations(self) -> list[ConflationRecord]:
        if self._conflations is None:
            self._conflations = all_conflations(
                self.catalog, members=self.objects.members, cap=self.cap
            )
        return self._conflations

    def extension_closure_failure(self) -> Optional[ConflationRecord]:
        """First conflation with member ends whose middle escapes, if any."""
        for rec in self.conflations:
            if not self.objects.contains_index_multiset(rec.middle_summands):
                return rec
        return None

    def contains(self, m: Module) -> bool:
        if self.is_full():
            return True  # whole module category: no decomposition needed
        return self.objects.contains_module(m)

    def indec_indices(self) -> list[int]:
        return self.objects.sorted_members()

    def indec(self, i: int) -> Module:
        return self.catalog.indecs[i]


# -- inflations, deflations, one-sided exactness -----------------------------


def is_inflation(m: Morphism, e: ExCat) -> bool:
    """Vertexwise injective with cokernel inside the subcategory."""
    if not (e.contains(m.source) and e.contains(m.target)):
        raise ValueError("morphism endpoints outside the subcategory")
    if not m.is_injective():
        return False
    coker, _, _ = cokernel(m)
    return e.contains(coker)


def is_deflation(m: Morphism, e: ExCat) -> bool:
    """Vertexwise surjective with kernel inside the subcategory."""
    if not (e.contains(m.source) and e.contains(m.target)):
        raise ValueError("morphism endpoints outside the subcategory")
    if not m.is_surjective():
        return False
    ker, _ = kernel(m)
    return e.contains(ker)


def is_right_exact_seq(f: Morphism, g: Morphism, e: ExCat) -> bool:
    """g is a deflation, g o f = 0, and A ->> ker(g) is again a deflation."""
    if f.target != g.source:
        raise ValueError("sequence not composable")
    if not is_deflation(g, e):
        return False
    if not (g @ f).is_zero():
        return False
    ker_mod, incl = kernel(g)
    comps = {}
    for v in f.source.algebra.vertices:
        sol = incl.comps[v].solve(f.comps[v])
        if sol is None:
            raise AssertionError("factorization through the kernel failed")
        comps[v] = sol
    h1 = Morphism(f.source, ker_mod, comps)
    return is_deflation(h1, e)


def is_left_exact_seq(f: Morphism, g: Morphism, e: ExCat) -> bool:
    """f is an inflation, g o f = 0, and coker(f) >-> C is again an inflation."""
    if f.target != g.source:
        raise ValueError("sequence not composable")
    if not is_inflation(f, e):
        return False
    if not (g @ f).is_zero():
        return False
    cok_mod, proj, sect = cokernel(f)
    comps = {v: g.comps[v] @ sect[v] for v in f.source.algebra.vertices}
    h1 = Morphism(cok_mod, g.target, comps)
    return is_inflation(h1, e)


# -- torsion pairs -------------------------------------------------------------


@dataclass
class TorsionPair:
    host: ExCat
    t: Subcat
    f: Subcat
    witness: dict[int, SES]  # catalog index of each host object -> T -> C -> F

    def to_json_dict(self) -> dict:
        return {
            "t": self.t.sorted_members(),
            "f": self.f.sorted_members(),
            "witness": {
                str(c): {
                    "t_part": sorted(self.host.catalog.decompose(s.a).elements()),
                    "f_part": sorted(self.host.catalog.decompose(s.c).elements()),
                }
                for c, s in self.witness.items()
            },
        }


@dataclass
class TorsionPairResult:
    ok: bool
    pair: Optional[TorsionPair] = None
    clause: Optional[str] = None
    detail: Optional[dict] = None

    def to_json_dict(self) -> dict:
        if self.ok:
            return {"valid": True, "pair": self.pair.to_json_dict()}
        return {"valid": False, "clause": self.clause, "detail": self.detail}


def _bounded_multisets(members: Sequence[int], catalog: Catalog, max_dims: tuple[int, ...]):
    """Multisets of member indices whose summed dimension vector fits under max_dims."""
    out: list[tuple[int, ...]] = []

    def rec(start: int, remaining: tuple[int, ...], chosen: tuple[int, ...]):
        out.append(chosen)
        for k in range(start, len(members)):
            dims = catalog.indecs[members[k]].dims
            nxt = tuple(r - d for r, d in zip(remaining, dims))
            if all(x >= 0 for x in nxt):
                rec(k, nxt, chosen + (members[k],))

    rec(0, max_dims, ())
    out.sort(key=lambda t: (len(t), t))
    return out


def _find_witness(c_index: int, t: Subcat, f: Subcat, e: ExCat) -> Optional[SES]:
    """Canonical conflation T -> C -> F for one host object, if one exists.

    Candidates are scanned in a fixed order (torsion part by size then
    lexicographic, then the free part of complementary dimension vector,
    then extension classes), so the witness is deterministic.
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
                # ses.b ~ c_mod splits off itself; with equal dimension
                # vectors the retraction g is an isomorphism ses.b -> c_mod
                _, g = split_off_summand(c_mod, ses.b)
                return SES(ses.a, c_mod, ses.c, g @ ses.inc, ses.prj @ g.inverse())
    return None


def verify_torsion_pair(t: Subcat, f: Subcat, e: ExCat) -> TorsionPairResult:
    """Check Hom(T, F) = 0 and per-object torsion conflations.

    Witnesses on indecomposables suffice: conflations add, so every direct
    sum inherits one.  Failure is a value naming the violated clause and a
    counterexample.
    """
    if not (t <= e.objects and f <= e.objects):
        raise ValueError("torsion candidates must lie inside the subcategory")
    for i in t.sorted_members():
        for j in f.sorted_members():
            if e.catalog.dim_hom(i, j):
                return TorsionPairResult(
                    ok=False, clause="hom_vanishing",
                    detail={"from": i, "to": j, "dim_hom": e.catalog.dim_hom(i, j)},
                )
    witness: dict[int, SES] = {}
    for c_index in e.indec_indices():
        ses = _find_witness(c_index, t, f, e)
        if ses is None:
            return TorsionPairResult(
                ok=False, clause="conflation_existence", detail={"object": c_index},
            )
        witness[c_index] = ses
    return TorsionPairResult(ok=True, pair=TorsionPair(host=e, t=t, f=f, witness=witness))


def enumerate_torsion_pairs(e: ExCat) -> list[TorsionPair]:
    """All torsion pairs of the form (T, Hom-perpendicular of T).

    Scans every subset of the member indecomposables, takes F maximal with
    Hom(T, F) = 0, and keeps verified pairs.  Output order is canonical
    (torsion class size, then indices); arbitrary pairs stay checkable via
    verify_torsion_pair.
    """
    catalog = e.catalog
    members = e.indec_indices()
    out = []
    for size in range(len(members) + 1):
        for t_tuple in itertools.combinations(members, size):
            perp = frozenset(
                j for j in members
                if all(catalog.dim_hom(i, j) == 0 for i in t_tuple)
            )
            res = verify_torsion_pair(
                Subcat.add(catalog, t_tuple), Subcat(catalog, perp), e
            )
            if res.ok:
                out.append(res.pair)
    return out


def torsion_pairs_to_json(pairs: Sequence[TorsionPair], e: ExCat) -> str:
    return json.dumps(
        {
            "schema": 1,
            "kind": "torsion_pairs",
            "members": e.indec_indices(),
            "end_summand_cap": e.cap,
            "scan": "perpendicular-maximal free classes only",
            "pairs": [p.to_json_dict() for p in pairs],
        },
        sort_keys=True,
        indent=2,
    ) + "\n"


# -- approximations and cluster tilting ----------------------------------------


def find_approximations(c_index: int, t: Subcat, e: ExCat) -> tuple[Optional[SES], Optional[SES]]:
    """(left, right) approximation conflations of one object through t.

    left: C -> T1 -> T2, right: T3 -> T4 -> C, both searched exhaustively
    over the subcategory's conflation list (first match in list order).
    """
    if not t <= e.objects:
        raise ValueError("approximating subcategory must lie inside")
    left = right = None
    for rec in e.conflations:
        if left is None and rec.a_summands == (c_index,):
            if t.contains_index_multiset(rec.middle_summands) and t.contains_index_multiset(rec.c_summands):
                left = rec.ses
        if right is None and rec.c_summands == (c_index,):
            if t.contains_index_multiset(rec.middle_summands) and t.contains_index_multiset(rec.a_summands):
                right = rec.ses
        if left is not None and right is not None:
            break
    return left, right


def is_projective_object(i: int, e: ExCat) -> bool:
    """No extensions out of i: every deflation onto it splits."""
    return all(
        ext1_space(e.catalog.indecs[i], e.catalog.indecs[j]).dim == 0
        for j in e.indec_indices()
    )


def is_injective_object(i: int, e: ExCat) -> bool:
    """No extensions into i: every inflation out of it splits."""
    return all(
        ext1_space(e.catalog.indecs[j], e.catalog.indecs[i]).dim == 0
        for j in e.indec_indices()
    )


def is_rigid(t: Subcat, e: ExCat) -> tuple[bool, Optional[tuple[int, int]]]:
    """No extensions between members; returns a witness pair on failure."""
    if not t <= e.objects:
        raise ValueError("subcategory must lie inside")
    for i in t.sorted_members():
        for j in t.sorted_members():
            if ext1_space(e.catalog.indecs[i], e.catalog.indecs[j]).dim:
                return False, (i, j)
    return True, None


@dataclass
class ClusterTiltingReport:
    ok: bool
    rigid: bool
    rigid_witness: Optional[tuple[int, int]]
    approx_failures: list[dict]
    approximations: dict[int, tuple[Optional[SES], Optional[SES]]] = field(repr=False, default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "cluster_tilting": self.ok,
            "rigid": self.rigid,
            "rigid_witness": list(self.rigid_witness) if self.rigid_witness else None,
            "approximation_failures": self.approx_failures,
        }


def is_cluster_tilting(t: Subcat, e: ExCat) -> ClusterTiltingReport:
    """Rigid plus two-sided approximation conflations for every object."""
    rigid, rigid_witness = is_rigid(t, e)
    failures = []
    approximations = {}
    for c_index in e.indec_indices():
        left, right = find_approximations(c_index, t, e)
        approximations[c_index] = (left, right)
        if left is None:
            failures.append({"object": c_index, "side": "left"})
        if right is None:
            failures.append({"object": c_index, "side": "right"})
    return ClusterTiltingReport(
        ok=rigid and not failures,
        rigid=rigid,
        rigid_witness=rigid_witness,
        approx_failures=failures,
        approximations=approximations,
    )


# -- additive quotients ----------------------------------------------------------


@dataclass
class QuotientHom:
    dimension: int
    basis: tuple[Morphism, ...]


@dataclass
class QuotientCat:
    """Additive quotient: same objects, morphisms modulo maps through `killed`."""

    host: ExCat
    killed: Subcat
    qindecs: tuple[int, ...]
    qhom: dict[tuple[int, int], QuotientHom] = field(repr=False)

    def qdim(self, i: int, j: int) -> int:
        return self.qhom[(i, j)].dimension

    def to_json_dict(self) -> dict:
        members = self.host.indec_indices()
        return {
            "killed": self.killed.sorted_members(),
            "surviving": list(self.qindecs),
            "qhom_dims": {f"{i},{j}": self.qdim(i, j) for i in members for j in members},
        }


def factoring_ideal_coords(i_mod: Module, j_mod: Module, through: Subcat) -> Optional[Mat]:
    """Span of composites i -> T -> j over members T, as Hom-basis rows."""
    basis = hom_basis(i_mod, j_mod)
    if not basis:
        return None
    catalog = through.catalog
    composites = []
    for k in through.sorted_members():
        t_mod = catalog.indecs[k]
        back = hom_basis(t_mod, j_mod)
        composites.extend(g @ f for f in hom_basis(i_mod, t_mod) for g in back)
    return Mat(i_mod.p, morphism_coords_many(composites, basis).T)


def quotient_hom_dim(i_mod: Module, j_mod: Module, through: Subcat) -> int:
    """dim Hom(i, j) minus the dimension of the factoring ideal."""
    basis_dim = len(hom_basis(i_mod, j_mod))
    ideal = factoring_ideal_coords(i_mod, j_mod, through)
    return basis_dim - (ideal.rank() if ideal is not None else 0)


def quotient(e: ExCat, t: Subcat) -> QuotientCat:
    """Quotient Hom spaces for every member pair; survivors keep a nonzero identity."""
    if not t <= e.objects:
        raise ValueError("killed subcategory must lie inside")
    catalog = e.catalog
    members = e.indec_indices()
    qhom: dict[tuple[int, int], QuotientHom] = {}
    survivors = []
    for i in members:
        for j in members:
            basis = catalog.hom(i, j)
            ideal = factoring_ideal_coords(catalog.indecs[i], catalog.indecs[j], t)
            if ideal is None or ideal.rows == 0:
                pivots: tuple[int, ...] = ()
            else:
                _, pivots = ideal.rref()
            keep = tuple(b for k, b in enumerate(basis) if k not in pivots)
            qhom[(i, j)] = QuotientHom(dimension=len(basis) - len(pivots), basis=keep)
        ident_survives = _identity_survives(catalog, i, t)
        if ident_survives:
            survivors.append(i)
    return QuotientCat(host=e, killed=t, qindecs=tuple(survivors), qhom=qhom)


def _identity_survives(catalog: Catalog, i: int, t: Subcat) -> bool:
    m = catalog.indecs[i]
    ideal = factoring_ideal_coords(m, m, t)
    if ideal is None:
        return False  # zero Hom space cannot carry an identity
    ident_coords = morphism_coords(identity_morphism(m), catalog.hom(i, i))
    if ideal.rows == 0:
        return True
    stacked = ideal.vstack(Mat(m.p, ident_coords.reshape(1, -1)))
    return stacked.rank() > ideal.rank()
