"""Extension-closed subcategories carrying their inherited conflation structure.

An ExCat wraps a catalog together with a set of member indecomposables whose
additive closure is extension closed in the ambient module category; its
conflations are the short exact sequences with every term decomposing among
the members.  Inflations, deflations, one-sided exact sequences, torsion
pairs, approximations, rigidity, cluster tilting, and additive quotients are
all decided by finite linear algebra over the catalog.  A torsion pair's
conflation for an object C is read off the trace of T in C, the image of
the universal map onto C from the members of T, so no extension class is
searched.  Two questions read conflation lists: the extension-closure
check on construction reads the list with indecomposable ends and may fall
back on the full one, and exactness classification reads the full one,
whose ends are capped at a configurable summand count (reported in JSON
output).  Membership in add(S) is decided once, by Subcat.contains_module:
a summand missing from the catalog lies outside, so the answer is no.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .exactfield import Mat
from .quivrep import (
    Catalog,
    CatalogIncompleteError,
    Module,
    Morphism,
    dim_hom,
    hom_basis,
    kernel,
    cokernel,
    span_rank,
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
        """Whether m lies in add(members): every summand of its decomposition
        is a member.  The zero module's decomposition is empty, so it lies
        in every add(members); a summand missing from the catalog is none."""
        try:
            return set(self.catalog.decompose(m)) <= self.members
        except CatalogIncompleteError:
            return False

    def __le__(self, other: "Subcat") -> bool:
        return self.members <= other.members


class NotExtensionClosedError(ValueError):
    """A conflation with ends inside the subcategory has a middle outside."""


# the trace conflation tC >-> C ->> C/tC of a subcategory t in C, with the
# sorted decompositions of its ends
Trace = tuple[SES, tuple[int, ...], tuple[int, ...]]


class ExCat:
    """Extension-closed subcategory, closure checked on construction.

    `conflations` lists the conflations whose ends have at most `cap`
    summands.  It is built on first use.  Exactness classification reads
    it, and so does `extension_closure_failure` when a conflation with
    indecomposable ends has a decomposable middle.
    """

    def __init__(
        self,
        catalog: Catalog,
        members: Optional[Iterable[int]] = None,
        cap: int = 2,
    ):
        self.catalog = catalog
        if members is None:
            self.objects = Subcat.full(catalog)
        else:
            self.objects = Subcat.add(catalog, members)
        self.cap = cap
        self._conflations: Optional[list[ConflationRecord]] = None
        # (object C, members of T mapping nonzero into C, or C alone when C
        # is in T) -> the trace conflation of T in C and its ends' summands
        self._traces: dict[tuple[int, frozenset[int]], Optional[Trace]] = {}
        if not self.is_full():
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
        """First conflation with member ends whose middle escapes, if any.

        A split middle is the sum of the ends, so only nonsplit records
        count.  The records with two indecomposable ends come first.  When
        none of them escapes and each has an indecomposable middle,
        X = add(members) is closed under all extensions:

        1. a*C lies in X for a member a and C in X, by induction on the
           summands of C.  Write C = c + C'.  If the class vanishes on c,
           then c splits off the middle E, and E = c + E' with E' in a*C'.
           Otherwise the pullback along c -> C gives F >-> E ->> C', where
           F, the middle of a nonsplit extension of c by a, is in X and
           indecomposable, hence a member.  Either way C' has fewer
           summands.
        2. A*C lies in X for A, C in X, by induction on the summands of A.
           Write A = A1 + a.  The pushout along A ->> a gives
           a >-> E/A1 ->> C, so E/A1 is in X by 1, and A1 >-> E ->> E/A1
           has fewer summands on the left.

        A decomposable F stops step 1, and no proof that two
        indecomposable ends suffice then is known here, so the check
        falls back on the conflation list capped at `cap` summands.
        """
        single = [rec for rec in all_conflations(self.catalog, members=self.objects.members, cap=1)
                  if not rec.split]
        bad = self._first_escape(single)
        if bad is None and any(len(rec.middle_summands) > 1 for rec in single):
            bad = self._first_escape(self.conflations)
        return bad

    def _first_escape(self, records: Iterable[ConflationRecord]) -> Optional[ConflationRecord]:
        return next((rec for rec in records if not rec.split
                     and not self.objects.contains_index_multiset(rec.middle_summands)), None)

    def contains(self, m: Module) -> bool:
        if self.is_full():
            return True  # whole module category: no decomposition needed
        return self.objects.contains_module(m)

    def indec_indices(self) -> list[int]:
        return self.objects.sorted_members()


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


def _exact_in_middle(f: Morphism, g: Morphism, e: ExCat) -> bool:
    """A -f-> B -g-> C has g o f = 0 and im f = ker g.

    With g o f = 0, im f lies in ker g, so the two are equal exactly when
    rank f_v + rank g_v = dim B_v at every vertex v.  Raises ValueError when
    the maps do not compose or an end lies outside e.
    """
    if f.target != g.source:
        raise ValueError("sequence not composable")
    if not all(e.contains(m) for m in (f.source, f.target, g.target)):
        raise ValueError("morphism endpoints outside the subcategory")
    return (g @ f).is_zero() and all(
        f.comps[v].rank() + g.comps[v].rank() == f.target.dim(v) for v in f.comps)


def is_right_exact_seq(f: Morphism, g: Morphism, e: ExCat) -> bool:
    """g is a deflation, g o f = 0, and A ->> ker(g) is again a deflation:
    f maps onto ker g, and the induced map's kernel, ker f, lies in e."""
    return (_exact_in_middle(f, g, e) and g.is_surjective()
            and e.contains(kernel(g)[0]) and e.contains(kernel(f)[0]))


def is_left_exact_seq(f: Morphism, g: Morphism, e: ExCat) -> bool:
    """f is an inflation, g o f = 0, and coker(f) >-> C is again an inflation:
    ker g is im f, and the induced map's cokernel, coker g, lies in e."""
    return (_exact_in_middle(f, g, e) and f.is_injective()
            and e.contains(cokernel(f)[0]) and e.contains(cokernel(g)[0]))


# -- torsion pairs -------------------------------------------------------------


@dataclass
class TorsionPair:
    host: ExCat
    t: Subcat
    f: Subcat
    witness: dict[int, SES]  # catalog index of each host object -> tC >-> C ->> C/tC
    # the same objects -> the sorted decompositions of the witness's ends,
    # found once when the host first builds the trace
    parts: dict[int, tuple[tuple[int, ...], tuple[int, ...]]]

    def to_json_dict(self) -> dict:
        return {
            "t": self.t.sorted_members(),
            "f": self.f.sorted_members(),
            "witness": {
                str(c): {"t_part": list(t_ms), "f_part": list(f_ms)}
                for c, (t_ms, f_ms) in self.parts.items()
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


def _trace(c_index: int, t: Subcat, e: ExCat) -> Optional[Trace]:
    """The trace of t in C, built once per host and key.

    tC is the image of the universal map onto C from the members of t.  It
    depends only on the members with a nonzero map into C, or on C alone
    when C is in t, so the host keeps it under that key.  None when an end
    has a summand outside the catalog, and so outside every member class.
    """
    if c_index in t.members:
        sources = frozenset((c_index,))
    else:
        sources = frozenset(k for k in t.members if e.catalog.dim_hom(k, c_index))
    key = (c_index, sources)
    if key not in e._traces:
        f_mod, prj, _ = cokernel(_universal_map(c_index, Subcat(e.catalog, sources), into=True))
        t_mod, inc = kernel(prj)
        try:
            t_ms, f_ms = (tuple(sorted(e.catalog.decompose(m).elements())) for m in (t_mod, f_mod))
        except CatalogIncompleteError:
            e._traces[key] = None
        else:
            e._traces[key] = (SES(t_mod, e.catalog.indecs[c_index], f_mod, inc, prj), t_ms, f_ms)
    return e._traces[key]


def verify_torsion_pair(t: Subcat, f: Subcat, e: ExCat) -> TorsionPairResult:
    """Check Hom(T, F) = 0 and per-object torsion conflations.

    Witnesses on indecomposables suffice: conflations add, so every direct
    sum inherits one.  Once Hom(T, F) = 0, a conflation T' >-> C ->> F'
    with T' in add T and F' in add F has T' = tC, the trace of T in C:
    T' is a sum of members, so it lies in tC, and every map from a member
    into C dies in F', so tC lies in T'.  C has a witness exactly when the
    trace's ends lie in add T and add F (Assem-Simson-Skowronski, Elements
    of the Representation Theory of Associative Algebras, VI.1; the
    argument holds in any extension-closed host, whose conflations are the
    exact sequences with all three terms inside).  Failure is a value
    naming the violated clause and a counterexample.
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
    parts: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for c_index in e.indec_indices():
        trace = _trace(c_index, t, e)
        if trace is None or not (t.contains_index_multiset(trace[1])
                                 and f.contains_index_multiset(trace[2])):
            return TorsionPairResult(
                ok=False, clause="conflation_existence", detail={"object": c_index},
            )
        witness[c_index], t_ms, f_ms = trace
        parts[c_index] = (t_ms, f_ms)
    return TorsionPairResult(
        ok=True, pair=TorsionPair(host=e, t=t, f=f, witness=witness, parts=parts))


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


def torsion_pairs_document(pairs: Sequence[TorsionPair], e: ExCat) -> dict:
    return {
        "schema": 1,
        "kind": "torsion_pairs",
        "members": e.indec_indices(),
        "end_summand_cap": e.cap,
        "scan": "perpendicular-maximal free classes only",
        "pairs": [p.to_json_dict() for p in pairs],
    }


def torsion_pairs_to_json(pairs: Sequence[TorsionPair], e: ExCat) -> str:
    return json.dumps(torsion_pairs_document(pairs, e), sort_keys=True, indent=2) + "\n"


# -- approximations and cluster tilting ----------------------------------------


def _universal_map(c_index: int, t: Subcat, into: bool) -> Morphism:
    """The map onto C from the sum of t's members (into) or from C into that
    sum, one copy of a member k per basis map of Hom(k, C), or of Hom(C, k)."""
    catalog = t.catalog
    c_mod = catalog.indecs[c_index]
    maps = [(k, phi) for k in t.sorted_members()
            for phi in (catalog.hom(k, c_index) if into else catalog.hom(c_index, k))]
    other = catalog.sum_of(k for k, _ in maps)
    comps = {}
    for v in catalog.algebra.vertices:
        empty = np.zeros((c_mod.dim(v), 0) if into else (0, c_mod.dim(v)), dtype=np.int64)
        comps[v] = Mat(catalog.p, np.concatenate(
            [empty, *(phi.comps[v].a for _, phi in maps)], axis=1 if into else 0))
    source, target = (other, c_mod) if into else (c_mod, other)
    return Morphism(source, target, comps, check=False)


def approximation_sides(c_index: int, t: Subcat) -> tuple[bool, bool]:
    """(left, right): whether C has an approximation conflation
    C >-> T1 ->> T2, and one T3 >-> T4 ->> C, with every T_i in add(t).

    The universal map u from the members of t onto C, one copy of k per
    basis map of Hom(k, C), is a right add(t)-approximation.  The right side
    holds exactly when u is surjective with kernel in add(t).  Every right
    approximation is a right minimal one plus a zero map from a summand in
    add(t), so this asks whether some deflation that is a right
    approximation has its kernel in add(t).  For a rigid t every deflation
    g with kernel in add(t) is such an approximation, because
    Ext^1(T, ker g) = 0.  The left side is the dual, with the map from C
    into the members and its cokernel.
    """
    right = _universal_map(c_index, t, into=True)
    left = _universal_map(c_index, t, into=False)
    return (left.is_injective() and t.contains_module(cokernel(left)[0]),
            right.is_surjective() and t.contains_module(kernel(right)[0]))


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
    for c_index in e.indec_indices():
        left, right = approximation_sides(c_index, t)
        if not left:
            failures.append({"object": c_index, "side": "left"})
        if not right:
            failures.append({"object": c_index, "side": "right"})
    return ClusterTiltingReport(
        ok=rigid and not failures,
        rigid=rigid,
        rigid_witness=rigid_witness,
        approx_failures=failures,
    )


# -- additive quotients ----------------------------------------------------------


@dataclass
class QuotientCat:
    """Additive quotient: same objects, morphisms modulo maps through `killed`."""

    host: ExCat
    killed: Subcat
    qindecs: tuple[int, ...]
    qhom: dict[tuple[int, int], int] = field(repr=False)  # quotient Hom dimensions

    def qdim(self, i: int, j: int) -> int:
        return self.qhom[(i, j)]

    def to_json_dict(self) -> dict:
        members = self.host.indec_indices()
        return {
            "killed": self.killed.sorted_members(),
            "surviving": list(self.qindecs),
            "qhom_dims": {f"{i},{j}": self.qdim(i, j) for i in members for j in members},
        }


def _composites_rank(pairs: Iterable[tuple[Sequence[Morphism], Sequence[Morphism]]]) -> int:
    """Dimension of the span of the composites g f over pairs of bases
    (Hom(i, T), Hom(T, j)), one pair per object T."""
    return span_rank([g @ f for into, back in pairs for f in into for g in back])


def factoring_ideal_rank(i_mod: Module, j_mod: Module, through: Subcat) -> int:
    """Dimension of the span of the composites i -> T -> j over members T."""
    catalog = through.catalog
    return _composites_rank(
        (hom_basis(i_mod, catalog.indecs[k]), hom_basis(catalog.indecs[k], j_mod))
        for k in through.sorted_members())


def quotient_hom_dim(i_mod: Module, j_mod: Module, through: Subcat) -> int:
    """dim Hom(i, j) minus the dimension of the factoring ideal."""
    dim = dim_hom(i_mod, j_mod)
    return dim - factoring_ideal_rank(i_mod, j_mod, through) if dim else 0


def quotient(e: ExCat, t: Subcat) -> QuotientCat:
    """Quotient Hom spaces for every member pair; survivors keep a nonzero End.

    The maps of End(i) through t form a two-sided ideal, which holds the
    identity exactly when it is all of End(i): i survives exactly when its
    quotient End is nonzero.
    """
    if not t <= e.objects:
        raise ValueError("killed subcategory must lie inside")
    catalog = e.catalog
    members = e.indec_indices()
    qhom: dict[tuple[int, int], int] = {}
    for i in members:
        for j in members:
            dim = catalog.dim_hom(i, j)
            qhom[(i, j)] = dim - _composites_rank(
                (catalog.hom(i, k), catalog.hom(k, j)) for k in t.sorted_members()) if dim else 0
    survivors = tuple(i for i in members if qhom[(i, i)] > 0)
    return QuotientCat(host=e, killed=t, qindecs=survivors, qhom=qhom)
