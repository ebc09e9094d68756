"""Six-functor recollements for triangular matrix algebras.

A module over the one-arrow-per-vertex doubling of an algebra is the same
thing as a triple (X, Y, f: Y -> X); the six functors between the outer
module categories and the middle one are the usual ones

    i*[X;Y]_f = coker f      i_*X = [X;0]      i^![X;Y]_f = X
    j_!Y = [Y;Y]_1           j^*[X;Y]_f = Y    j_*Y = [0;Y]

tabulated over catalogs so that every recollement axiom reduces to finite
linear algebra.  Hypothesis flags (functor exactness, closure scans) are
computed and reported next to every verdict rather than silently gating it,
except where a construction is meaningless without them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .exactfield import Mat
from .quivrep import (
    Algebra,
    Arrow,
    Catalog,
    Module,
    Morphism,
    cokernel,
    hom_basis,
    identity_morphism,
    is_isomorphic,
    kernel,
    morphism_coords_many,
    zero_module,
    zero_morphism,
)
from .homext import ConflationRecord
from .excat import (
    ExCat,
    Subcat,
    TorsionPair,
    TorsionPairResult,
    ClusterTiltingReport,
    is_cluster_tilting,
    is_left_exact_seq,
    is_right_exact_seq,
    quotient,
    QuotientCat,
    quotient_hom_dim,
    verify_torsion_pair,
)


class NotRestrictedFunctorError(ValueError):
    """A functor value escapes the designated target subcategory."""


@dataclass(frozen=True)
class Triple:
    """A module over the doubled algebra in (X, Y, f: Y -> X) form."""

    x: Module
    y: Module
    f: Morphism

    def __post_init__(self):
        if self.f.source != self.y or self.f.target != self.x:
            raise ValueError("connecting map must run Y -> X")


@dataclass
class TriangularData:
    """The doubled algebra with its vertex/arrow naming and adapters."""

    base: Algebra
    algebra: Algebra
    x_vertex: dict[str, str]
    y_vertex: dict[str, str]
    x_arrow: dict[str, str]
    y_arrow: dict[str, str]
    connecting: dict[str, str]  # base vertex -> connecting arrow name

    def __post_init__(self):
        self._coker_cache: dict = {}

    # -- adapters -------------------------------------------------------

    def triple_to_module(self, t: Triple) -> Module:
        p = t.x.p
        dims = {}
        action = {}
        for v in self.base.vertices:
            dims[self.x_vertex[v]] = t.x.dim(v)
            dims[self.y_vertex[v]] = t.y.dim(v)
            action[self.connecting[v]] = t.f.comps[v]
        for a in self.base.arrows:
            action[self.x_arrow[a.name]] = t.x.action[a.name]
            action[self.y_arrow[a.name]] = t.y.action[a.name]
        return Module(self.algebra, p, dims, action)

    def module_to_triple(self, m: Module) -> Triple:
        x = self.x_part(m)
        y = self.y_part(m)
        f = Morphism(y, x, {v: m.action[self.connecting[v]] for v in self.base.vertices})
        return Triple(x=x, y=y, f=f)

    def x_part(self, m: Module) -> Module:
        return Module(
            self.base, m.p,
            {v: m.dim(self.x_vertex[v]) for v in self.base.vertices},
            {a.name: m.action[self.x_arrow[a.name]] for a in self.base.arrows},
            check=False,
        )

    def y_part(self, m: Module) -> Module:
        return Module(
            self.base, m.p,
            {v: m.dim(self.y_vertex[v]) for v in self.base.vertices},
            {a.name: m.action[self.y_arrow[a.name]] for a in self.base.arrows},
            check=False,
        )

    def connecting_morphism(self, m: Module) -> Morphism:
        return Morphism(
            self.y_part(m), self.x_part(m),
            {v: m.action[self.connecting[v]] for v in self.base.vertices},
        )

    def _coker_data(self, m: Module):
        key = m.key()
        hit = self._coker_cache.get(key)
        if hit is None:
            hit = cokernel(self.connecting_morphism(m))
            self._coker_cache[key] = hit
        return hit

    # -- the six functors as direct formulas ------------------------------

    def i_upper_star_obj(self, m: Module) -> Module:
        return self._coker_data(m)[0]

    def i_upper_star_mor(self, phi: Morphism) -> Morphism:
        _, proj_s, sect_s = self._coker_data(phi.source)
        cok_t, proj_t, _ = self._coker_data(phi.target)
        comps = {
            v: proj_t.comps[v] @ phi.comps[self.x_vertex[v]] @ sect_s[v]
            for v in self.base.vertices
        }
        return Morphism(self.i_upper_star_obj(phi.source), cok_t, comps)

    def i_lower_star_obj(self, x: Module) -> Module:
        f = zero_morphism(zero_module(self.base, x.p), x)
        return self.triple_to_module(Triple(x=x, y=f.source, f=f))

    def i_lower_star_mor(self, phi: Morphism) -> Morphism:
        src = self.i_lower_star_obj(phi.source)
        tgt = self.i_lower_star_obj(phi.target)
        comps = {self.x_vertex[v]: phi.comps[v] for v in self.base.vertices}
        return Morphism(src, tgt, comps)

    def i_upper_shriek_obj(self, m: Module) -> Module:
        return self.x_part(m)

    def i_upper_shriek_mor(self, phi: Morphism) -> Morphism:
        return Morphism(
            self.x_part(phi.source), self.x_part(phi.target),
            {v: phi.comps[self.x_vertex[v]] for v in self.base.vertices},
        )

    def j_lower_shriek_obj(self, y: Module) -> Module:
        f = identity_morphism(y)
        return self.triple_to_module(Triple(x=y, y=y, f=f))

    def j_lower_shriek_mor(self, phi: Morphism) -> Morphism:
        comps = {}
        for v in self.base.vertices:
            comps[self.x_vertex[v]] = phi.comps[v]
            comps[self.y_vertex[v]] = phi.comps[v]
        return Morphism(self.j_lower_shriek_obj(phi.source), self.j_lower_shriek_obj(phi.target), comps)

    def j_upper_star_obj(self, m: Module) -> Module:
        return self.y_part(m)

    def j_upper_star_mor(self, phi: Morphism) -> Morphism:
        return Morphism(
            self.y_part(phi.source), self.y_part(phi.target),
            {v: phi.comps[self.y_vertex[v]] for v in self.base.vertices},
        )

    def j_lower_star_obj(self, y: Module) -> Module:
        f = zero_morphism(y, zero_module(self.base, y.p))
        return self.triple_to_module(Triple(x=f.target, y=y, f=f))

    def j_lower_star_mor(self, phi: Morphism) -> Morphism:
        comps = {self.y_vertex[v]: phi.comps[v] for v in self.base.vertices}
        return Morphism(self.j_lower_star_obj(phi.source), self.j_lower_star_obj(phi.target), comps)

    # -- unit and counit morphisms per middle-category object ---------------

    def theta_of(self, m: Module) -> Morphism:
        """i_* i^! m -> m, identity on the X layer."""
        src = self.i_lower_star_obj(self.x_part(m))
        comps = {
            self.x_vertex[v]: Mat.identity(m.p, m.dim(self.x_vertex[v]))
            for v in self.base.vertices
        }
        return Morphism(src, m, comps)

    def vartheta_of(self, m: Module) -> Morphism:
        """m -> j_* j^* m, identity on the Y layer."""
        tgt = self.j_lower_star_obj(self.y_part(m))
        comps = {
            self.y_vertex[v]: Mat.identity(m.p, m.dim(self.y_vertex[v]))
            for v in self.base.vertices
        }
        return Morphism(m, tgt, comps)

    def upsilon_of(self, m: Module) -> Morphism:
        """j_! j^* m -> m: the connecting map on X, identity on Y."""
        src = self.j_lower_shriek_obj(self.y_part(m))
        comps = {}
        for v in self.base.vertices:
            comps[self.x_vertex[v]] = m.action[self.connecting[v]]
            comps[self.y_vertex[v]] = Mat.identity(m.p, m.dim(self.y_vertex[v]))
        return Morphism(src, m, comps)

    def nu_of(self, m: Module) -> Morphism:
        """m -> i_* i^* m: cokernel projection on X."""
        cok, proj, _ = self._coker_data(m)
        tgt = self.i_lower_star_obj(cok)
        comps = {self.x_vertex[v]: proj.comps[v] for v in self.base.vertices}
        return Morphism(m, tgt, comps)


def build_triangular(base: Algebra) -> TriangularData:
    """Doubled quiver of the upper triangular matrix algebra over `base`.

    Two copies of the quiver (suffix x and y), one connecting arrow per
    vertex running from the y copy to the x copy, the base relations in
    each copy, and one commutativity square per base arrow.
    """
    x_vertex = {v: f"{v}x" for v in base.vertices}
    y_vertex = {v: f"{v}y" for v in base.vertices}
    x_arrow = {a.name: f"{a.name}x" for a in base.arrows}
    y_arrow = {a.name: f"{a.name}y" for a in base.arrows}
    connecting = {v: f"c{v}" for v in base.vertices}
    vertices = tuple(x_vertex[v] for v in base.vertices) + tuple(y_vertex[v] for v in base.vertices)
    arrows = (
        tuple(Arrow(x_arrow[a.name], x_vertex[a.src], x_vertex[a.tgt]) for a in base.arrows)
        + tuple(Arrow(y_arrow[a.name], y_vertex[a.src], y_vertex[a.tgt]) for a in base.arrows)
        + tuple(Arrow(connecting[v], y_vertex[v], x_vertex[v]) for v in base.vertices)
    )

    def rename(path, table):
        return tuple(table[name] for name in path)

    relations = []
    for rel in base.relations:
        relations.append(tuple((c, rename(path, x_arrow)) for c, path in rel))
        relations.append(tuple((c, rename(path, y_arrow)) for c, path in rel))
    for a in base.arrows:
        relations.append((
            (1, (x_arrow[a.name], connecting[a.src])),
            (-1, (connecting[a.tgt], y_arrow[a.name])),
        ))
    algebra = Algebra(vertices, arrows, tuple(relations))
    return TriangularData(
        base=base, algebra=algebra,
        x_vertex=x_vertex, y_vertex=y_vertex,
        x_arrow=x_arrow, y_arrow=y_arrow, connecting=connecting,
    )


# -- tabulated functors ----------------------------------------------------------


@dataclass
class FunctorData:
    """A functor between catalogs: tables plus the direct formulas behind them."""

    name: str
    source: ExCat
    target: ExCat
    obj_map: dict[int, Module] = field(repr=False)
    mor_map: dict[tuple[int, int], tuple[Morphism, ...]] = field(repr=False)
    apply_obj: Callable[[Module], Module] = field(repr=False, default=None)
    apply_mor: Callable[[Morphism], Morphism] = field(repr=False, default=None)

    def check_functoriality(self) -> None:
        """F(id) = id and F(psi o phi) = F(psi) o F(phi) over hom bases."""
        cat = self.source.catalog
        for i in self.source.indec_indices():
            fid = self.apply_mor(identity_morphism(cat.indecs[i]))
            if fid != identity_morphism(self.obj_map[i]):
                raise AssertionError(f"{self.name} breaks identities at {i}")
        members = self.source.indec_indices()
        for i in members:
            for j in members:
                for phi in cat.hom(i, j):
                    for k in members:
                        for psi in cat.hom(j, k):
                            if self.apply_mor(psi @ phi) != self.apply_mor(psi) @ self.apply_mor(phi):
                                raise AssertionError(
                                    f"{self.name} breaks composition on ({i},{j},{k})"
                                )


SIX_NAMES = (
    "i_upper_star", "i_lower_star", "i_upper_shriek",
    "j_lower_shriek", "j_upper_star", "j_lower_star",
)


@dataclass
class RecollementData:
    """Three extriangulated categories, six tabulated functors, unit/counit tables."""

    a_cat: ExCat
    b_cat: ExCat
    c_cat: ExCat
    six: dict[str, FunctorData]
    units_counits: dict[str, dict[int, Morphism]]
    triangular: TriangularData

    def functor(self, name: str) -> FunctorData:
        return self.six[name]


def six_functors(a_cat: ExCat, b_cat: ExCat, c_cat: ExCat, triangular: TriangularData) -> RecollementData:
    """Tabulate the six functors over the given catalogs.

    Raises NotRestrictedFunctorError when the image of an object escapes
    the designated target subcategory; checks functoriality of every table.
    """
    if b_cat.catalog.algebra != triangular.algebra:
        raise ValueError("middle category must live over the doubled algebra")
    if a_cat.catalog.algebra != triangular.base or c_cat.catalog.algebra != triangular.base:
        raise ValueError("outer categories must live over the base algebra")

    specs = {
        "i_upper_star": (b_cat, a_cat, triangular.i_upper_star_obj, triangular.i_upper_star_mor),
        "i_lower_star": (a_cat, b_cat, triangular.i_lower_star_obj, triangular.i_lower_star_mor),
        "i_upper_shriek": (b_cat, a_cat, triangular.i_upper_shriek_obj, triangular.i_upper_shriek_mor),
        "j_lower_shriek": (c_cat, b_cat, triangular.j_lower_shriek_obj, triangular.j_lower_shriek_mor),
        "j_upper_star": (b_cat, c_cat, triangular.j_upper_star_obj, triangular.j_upper_star_mor),
        "j_lower_star": (c_cat, b_cat, triangular.j_lower_star_obj, triangular.j_lower_star_mor),
    }
    six: dict[str, FunctorData] = {}
    for name, (src, tgt, f_obj, f_mor) in specs.items():
        obj_map = {}
        for i in src.indec_indices():
            value = f_obj(src.catalog.indecs[i])
            if not tgt.contains(value):
                raise NotRestrictedFunctorError(
                    f"{name} sends object {i} (dims {src.catalog.indecs[i].dims_by_vertex}) "
                    "outside the target subcategory"
                )
            obj_map[i] = value
        mor_map = {}
        for i in src.indec_indices():
            for j in src.indec_indices():
                mor_map[(i, j)] = tuple(f_mor(phi) for phi in src.catalog.hom(i, j))
        fd = FunctorData(name=name, source=src, target=tgt, obj_map=obj_map,
                         mor_map=mor_map, apply_obj=f_obj, apply_mor=f_mor)
        fd.check_functoriality()
        six[name] = fd

    units_counits = {"theta": {}, "vartheta": {}, "upsilon": {}, "nu": {}}
    for b in b_cat.indec_indices():
        m = b_cat.catalog.indecs[b]
        units_counits["theta"][b] = triangular.theta_of(m)
        units_counits["vartheta"][b] = triangular.vartheta_of(m)
        units_counits["upsilon"][b] = triangular.upsilon_of(m)
        units_counits["nu"][b] = triangular.nu_of(m)
    return RecollementData(
        a_cat=a_cat, b_cat=b_cat, c_cat=c_cat,
        six=six, units_counits=units_counits, triangular=triangular,
    )


# -- the axiom checker -------------------------------------------------------------


@dataclass
class ClauseResult:
    clause: str
    ok: bool
    detail: Optional[dict] = None

    def to_json_dict(self) -> dict:
        out = {"clause": self.clause, "pass": self.ok}
        if self.detail:
            out["witness"] = self.detail
        return out


@dataclass
class RecollementReport:
    clauses: list[ClauseResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.clauses)

    def clause(self, name: str) -> ClauseResult:
        return next(c for c in self.clauses if c.clause == name)

    def to_json_dict(self) -> dict:
        return {"pass": self.ok, "clauses": [c.to_json_dict() for c in self.clauses]}


def _adjunction_triangle_clause(r: RecollementData) -> list[ClauseResult]:
    tri = r.triangular
    results = []

    def eps_i_star(x: Module) -> Morphism:
        # counit i* i_* X -> X; the connecting map of [X;0] is zero, so the
        # cokernel projection is invertible vertexwise
        m = tri.i_lower_star_obj(x)
        _, proj, _ = tri._coker_data(m)
        return proj.inverse()

    failures = []

    def check(label: str, ok: bool):
        if not ok:
            failures.append(label)

    # (i*, i_*): unit nu, counit eps_i_star
    for b in r.b_cat.indec_indices():
        m = r.b_cat.catalog.indecs[b]
        lhs = eps_i_star(tri.i_upper_star_obj(m)) @ tri.i_upper_star_mor(tri.nu_of(m))
        check(f"(i*,i_*) id on i* at {b}", lhs == identity_morphism(tri.i_upper_star_obj(m)))
    for a in r.a_cat.indec_indices():
        x = r.a_cat.catalog.indecs[a]
        lx = tri.i_lower_star_obj(x)
        lhs = tri.i_lower_star_mor(eps_i_star(x)) @ tri.nu_of(lx)
        check(f"(i*,i_*) id on i_* at {a}", lhs == identity_morphism(lx))
    # (i_*, i^!): unit identity, counit theta
    for a in r.a_cat.indec_indices():
        x = r.a_cat.catalog.indecs[a]
        lx = tri.i_lower_star_obj(x)
        check(f"(i_*,i^!) id on i_* at {a}", tri.theta_of(lx) @ tri.i_lower_star_mor(identity_morphism(x)) == identity_morphism(lx))
    for b in r.b_cat.indec_indices():
        m = r.b_cat.catalog.indecs[b]
        check(f"(i_*,i^!) id on i^! at {b}", tri.i_upper_shriek_mor(tri.theta_of(m)) == identity_morphism(tri.x_part(m)))
    # (j_!, j^*): unit identity, counit upsilon
    for c in r.c_cat.indec_indices():
        z = r.c_cat.catalog.indecs[c]
        lz = tri.j_lower_shriek_obj(z)
        check(f"(j_!,j^*) id on j_! at {c}", tri.upsilon_of(lz) @ tri.j_lower_shriek_mor(identity_morphism(z)) == identity_morphism(lz))
    for b in r.b_cat.indec_indices():
        m = r.b_cat.catalog.indecs[b]
        check(f"(j_!,j^*) id on j^* at {b}", tri.j_upper_star_mor(tri.upsilon_of(m)) == identity_morphism(tri.y_part(m)))
    # (j^*, j_*): unit vartheta, counit identity
    for b in r.b_cat.indec_indices():
        m = r.b_cat.catalog.indecs[b]
        check(f"(j^*,j_*) id on j^* at {b}", tri.j_upper_star_mor(tri.vartheta_of(m)) == identity_morphism(tri.y_part(m)))
    for c in r.c_cat.indec_indices():
        z = r.c_cat.catalog.indecs[c]
        sz = tri.j_lower_star_obj(z)
        check(f"(j^*,j_*) id on j_* at {c}", tri.j_lower_star_mor(identity_morphism(z)) @ tri.vartheta_of(sz) == identity_morphism(sz))
    results.append(ClauseResult("R1_triangle_identities", not failures,
                                {"failures": failures} if failures else None))

    # hom-dimension form of the adjunctions over all object pairs, read off
    # the tabulated functor values so corrupted tables are caught
    dim_fail = []
    i_up = r.six["i_upper_star"].obj_map
    i_low = r.six["i_lower_star"].obj_map
    i_shk = r.six["i_upper_shriek"].obj_map
    j_shk = r.six["j_lower_shriek"].obj_map
    j_up = r.six["j_upper_star"].obj_map
    j_low = r.six["j_lower_star"].obj_map
    for a in r.a_cat.indec_indices():
        x = r.a_cat.catalog.indecs[a]
        for b in r.b_cat.indec_indices():
            m = r.b_cat.catalog.indecs[b]
            if len(hom_basis(i_up[b], x)) != len(hom_basis(m, i_low[a])):
                dim_fail.append(("i* -| i_*", b, a))
            if len(hom_basis(i_low[a], m)) != len(hom_basis(x, i_shk[b])):
                dim_fail.append(("i_* -| i^!", a, b))
    for c in r.c_cat.indec_indices():
        z = r.c_cat.catalog.indecs[c]
        for b in r.b_cat.indec_indices():
            m = r.b_cat.catalog.indecs[b]
            if len(hom_basis(j_shk[c], m)) != len(hom_basis(z, j_up[b])):
                dim_fail.append(("j_! -| j^*", c, b))
            if len(hom_basis(m, j_low[c])) != len(hom_basis(j_up[b], z)):
                dim_fail.append(("j^* -| j_*", b, c))
    results.append(ClauseResult("R1_hom_dimensions", not dim_fail,
                                {"failures": dim_fail[:5]} if dim_fail else None))

    # naturality of the four unit/counit families over B hom bases
    nat_fail = []
    tables = {
        "theta": (lambda m: tri.i_lower_star_mor(tri.i_upper_shriek_mor(m)), tri.theta_of, True),
        "vartheta": (lambda m: tri.j_lower_star_mor(tri.j_upper_star_mor(m)), tri.vartheta_of, False),
        "upsilon": (lambda m: tri.j_lower_shriek_mor(tri.j_upper_star_mor(m)), tri.upsilon_of, True),
        "nu": (lambda m: tri.i_lower_star_mor(tri.i_upper_star_mor(m)), tri.nu_of, False),
    }
    for name, (composite_mor, nat, towards) in tables.items():
        for i in r.b_cat.indec_indices():
            for j in r.b_cat.indec_indices():
                for phi in r.b_cat.catalog.hom(i, j):
                    mi = r.b_cat.catalog.indecs[i]
                    mj = r.b_cat.catalog.indecs[j]
                    if towards:  # natural transformation F => Id
                        ok = phi @ nat(mi) == nat(mj) @ composite_mor(phi)
                    else:  # Id => F
                        ok = nat(mj) @ phi == composite_mor(phi) @ nat(mi)
                    if not ok:
                        nat_fail.append((name, i, j))
    results.append(ClauseResult("R1_naturality", not nat_fail,
                                {"failures": nat_fail[:5]} if nat_fail else None))
    return results


def check_recollement(r: RecollementData) -> RecollementReport:
    """Verify (R1)-(R5) plus the natural-isomorphism and vanishing consequences.

    Every clause is decided objectwise over the catalogs; failures carry
    witnesses instead of raising.
    """
    tri = r.triangular
    clauses: list[ClauseResult] = []
    clauses.extend(_adjunction_triangle_clause(r))

    # R2: Im i_* = Ker j^* on indecomposables, from the tabulated values
    image = set()
    for a in r.a_cat.indec_indices():
        dec = r.b_cat.catalog.decompose(r.six["i_lower_star"].obj_map[a])
        image.update(dec)
    kernel_set = {
        b for b in r.b_cat.indec_indices()
        if r.six["j_upper_star"].obj_map[b].is_zero()
    }
    clauses.append(ClauseResult(
        "R2_image_equals_kernel", image == kernel_set,
        None if image == kernel_set else {"image": sorted(image), "kernel": sorted(kernel_set)},
    ))

    # R3: i_*, j_!, j_* fully faithful
    ff_fail = []
    for name in ("i_lower_star", "j_lower_shriek", "j_lower_star"):
        fd = r.six[name]
        src = fd.source
        for i in src.indec_indices():
            for j in src.indec_indices():
                src_basis = src.catalog.hom(i, j)
                tgt_basis = hom_basis(fd.obj_map[i], fd.obj_map[j])
                if len(src_basis) != len(tgt_basis):
                    ff_fail.append((name, i, j, "dimension"))
                    continue
                if not src_basis:
                    continue
                mat = Mat(src.catalog.p, morphism_coords_many(fd.mor_map[(i, j)], tgt_basis))
                if not mat.is_invertible():
                    ff_fail.append((name, i, j, "not bijective"))
    clauses.append(ClauseResult("R3_fully_faithful", not ff_fail,
                                {"failures": ff_fail[:5]} if ff_fail else None))

    # R4: left exact four-term sequence per object
    r4_fail = []
    im_i_star = image
    for b in r.b_cat.indec_indices():
        m = r.b_cat.catalog.indecs[b]
        theta = tri.theta_of(m)
        vartheta = tri.vartheta_of(m)
        if not is_left_exact_seq(theta, vartheta, r.b_cat):
            r4_fail.append((b, "three-term part not left exact"))
            continue
        cok_mod, _, sect = cokernel(theta)
        induced = Morphism(cok_mod, vartheta.target,
                           {v: vartheta.comps[v] @ sect[v] for v in m.algebra.vertices})
        tail, _, _ = cokernel(induced)
        if not tail.is_zero():
            dec = r.b_cat.catalog.decompose(tail)
            if not set(dec) <= im_i_star:
                r4_fail.append((b, "fourth term outside Im i_*"))
    clauses.append(ClauseResult("R4_left_exact_sequence", not r4_fail,
                                {"failures": r4_fail} if r4_fail else None))

    # R5: right exact four-term sequence per object
    r5_fail = []
    for b in r.b_cat.indec_indices():
        m = r.b_cat.catalog.indecs[b]
        upsilon = tri.upsilon_of(m)
        nu = tri.nu_of(m)
        if not is_right_exact_seq(upsilon, nu, r.b_cat):
            r5_fail.append((b, "three-term part not right exact"))
            continue
        head, _ = kernel(upsilon)
        if not head.is_zero():
            dec = r.b_cat.catalog.decompose(head)
            if not set(dec) <= im_i_star:
                r5_fail.append((b, "first term outside Im i_*"))
    clauses.append(ClauseResult("R5_right_exact_sequence", not r5_fail,
                                {"failures": r5_fail} if r5_fail else None))

    # consequences: natural isomorphisms and vanishing composites, applying
    # the formulas to the tabulated values
    nat_iso_fail = []
    for a in r.a_cat.indec_indices():
        x = r.a_cat.catalog.indecs[a]
        lx = r.six["i_lower_star"].obj_map[a]
        if not is_isomorphic(tri.i_upper_star_obj(lx), x):
            nat_iso_fail.append(("i* i_* ~ Id", a))
        if not is_isomorphic(tri.x_part(lx), x):
            nat_iso_fail.append(("i^! i_* ~ Id", a))
    for c in r.c_cat.indec_indices():
        z = r.c_cat.catalog.indecs[c]
        if not is_isomorphic(tri.y_part(r.six["j_lower_shriek"].obj_map[c]), z):
            nat_iso_fail.append(("j^* j_! ~ Id", c))
        if not is_isomorphic(tri.y_part(r.six["j_lower_star"].obj_map[c]), z):
            nat_iso_fail.append(("j^* j_* ~ Id", c))
    clauses.append(ClauseResult("natural_isomorphisms", not nat_iso_fail,
                                {"failures": nat_iso_fail} if nat_iso_fail else None))

    vanish_fail = []
    for c in r.c_cat.indec_indices():
        if not tri.i_upper_star_obj(r.six["j_lower_shriek"].obj_map[c]).is_zero():
            vanish_fail.append(("i* j_!", c))
        if not tri.x_part(r.six["j_lower_star"].obj_map[c]).is_zero():
            vanish_fail.append(("i^! j_*", c))
    clauses.append(ClauseResult("vanishing_compositions", not vanish_fail,
                                {"failures": vanish_fail} if vanish_fail else None))

    return RecollementReport(clauses=clauses)


# -- exactness classification -----------------------------------------------------


@dataclass
class Classification:
    name: str
    label: str  # exact | left_exact | right_exact | neither
    left_witness: Optional[ConflationRecord] = None
    right_witness: Optional[ConflationRecord] = None

    def to_json_dict(self) -> dict:
        def w(rec):
            return None if rec is None else rec.to_json_dict()
        return {
            "functor": self.name,
            "label": self.label,
            "left_exact_failure": w(self.left_witness),
            "right_exact_failure": w(self.right_witness),
        }


def classify_functor(fd: FunctorData, src: Optional[ExCat] = None, tgt: Optional[ExCat] = None) -> Classification:
    """Apply the functor to every conflation of its source and grade the images.

    The strongest label holding for all conflations wins; a witness
    conflation is kept for each failed stronger label.
    """
    src = src or fd.source
    tgt = tgt or fd.target
    all_left = all_right = True
    left_witness = right_witness = None
    for rec in src.conflations:
        f_img = fd.apply_mor(rec.ses.inc)
        g_img = fd.apply_mor(rec.ses.prj)
        if all_left and not is_left_exact_seq(f_img, g_img, tgt):
            all_left = False
            left_witness = rec
        if all_right and not is_right_exact_seq(f_img, g_img, tgt):
            all_right = False
            right_witness = rec
        if not all_left and not all_right:
            break
    if all_left and all_right:
        label = "exact"
    elif all_left:
        label = "left_exact"
    elif all_right:
        label = "right_exact"
    else:
        label = "neither"
    return Classification(name=fd.name, label=label,
                          left_witness=left_witness, right_witness=right_witness)


def classify_all(r: RecollementData) -> dict[str, Classification]:
    return {name: classify_functor(r.six[name]) for name in SIX_NAMES}


# -- gluing (outer pairs -> middle pair) --------------------------------------------


def _closure_indices(values, catalog: Catalog) -> frozenset[int]:
    out: set[int] = set()
    for m in values:
        if not m.is_zero():
            out.update(catalog.decompose(m))
    return frozenset(out)


@dataclass
class GlueResult:
    t: Subcat
    f: Subcat
    verdict: TorsionPairResult
    i_upper_shriek_exact: bool
    i_upper_star_exact: bool
    recovery: dict

    def to_json_dict(self) -> dict:
        return {
            "t": self.t.sorted_members(),
            "f": self.f.sorted_members(),
            "verdict": self.verdict.to_json_dict(),
            "hypothesis": {
                "i_upper_shriek_exact": self.i_upper_shriek_exact,
                "i_upper_star_exact": self.i_upper_star_exact,
                "both_exact": self.i_upper_shriek_exact and self.i_upper_star_exact,
            },
            "recovery": self.recovery,
        }


def glue_torsion_pairs(r: RecollementData, tp1: TorsionPair, tp2: TorsionPair) -> GlueResult:
    """Glue outer torsion pairs to the middle category.

    T = {B : i*B in T1 and j*B in T2}, F = {B : i^!B in F1 and j*B in F2},
    computed objectwise on indecomposables.  The exactness hypothesis on
    i^! and i* is reported but never gates the verdict.
    """
    tri = r.triangular
    bcat = r.b_cat.catalog
    t_members = set()
    f_members = set()
    for b in r.b_cat.indec_indices():
        m = bcat.indecs[b]
        istar = tri.i_upper_star_obj(m)
        ishriek = tri.x_part(m)
        jstar = tri.y_part(m)
        if tp1.t.contains_module(istar) and tp2.t.contains_module(jstar):
            t_members.add(b)
        if tp1.f.contains_module(ishriek) and tp2.f.contains_module(jstar):
            f_members.add(b)
    t_sub = Subcat.add(bcat, t_members)
    f_sub = Subcat.add(bcat, f_members)
    verdict = verify_torsion_pair(t_sub, f_sub, r.b_cat)

    cls_shriek = classify_functor(r.six["i_upper_shriek"])
    cls_star = classify_functor(r.six["i_upper_star"])

    acat = r.a_cat.catalog
    ccat = r.c_cat.catalog
    rec_t1 = _closure_indices((tri.i_upper_star_obj(bcat.indecs[b]) for b in t_members), acat)
    rec_f1 = _closure_indices((tri.x_part(bcat.indecs[b]) for b in f_members), acat)
    rec_t2 = _closure_indices((tri.y_part(bcat.indecs[b]) for b in t_members), ccat)
    rec_f2 = _closure_indices((tri.y_part(bcat.indecs[b]) for b in f_members), ccat)
    recovery = {
        "i_upper_star_T": sorted(rec_t1),
        "i_upper_shriek_F": sorted(rec_f1),
        "j_upper_star_T": sorted(rec_t2),
        "j_upper_star_F": sorted(rec_f2),
        "equals_inputs": (
            rec_t1 == tp1.t.members and rec_f1 == tp1.f.members
            and rec_t2 == tp2.t.members and rec_f2 == tp2.f.members
        ),
    }
    return GlueResult(
        t=t_sub, f=f_sub, verdict=verdict,
        i_upper_shriek_exact=cls_shriek.label == "exact",
        i_upper_star_exact=cls_star.label == "exact",
        recovery=recovery,
    )


# -- restriction (middle pair -> outer pairs) ----------------------------------------


@dataclass
class RestrictResult:
    a_pair: tuple[Subcat, Subcat]
    c_pair: tuple[Subcat, Subcat]
    a_verdict: TorsionPairResult
    c_verdict: TorsionPairResult
    hypotheses: dict

    def to_json_dict(self) -> dict:
        return {
            "a_pair": {
                "t": self.a_pair[0].sorted_members(),
                "f": self.a_pair[1].sorted_members(),
                "verdict": self.a_verdict.to_json_dict(),
            },
            "c_pair": {
                "t": self.c_pair[0].sorted_members(),
                "f": self.c_pair[1].sorted_members(),
                "verdict": self.c_verdict.to_json_dict(),
            },
            "hypotheses": self.hypotheses,
        }


def restrict_torsion_pair(r: RecollementData, tp: TorsionPair) -> RestrictResult:
    """Restrict a middle torsion pair to (i*T, i^!F) and (j*T, j*F).

    All stated hypotheses (exactness of i^!, the four closure scans) are
    finite membership scans reported next to the verdicts; both candidate
    pairs are verified regardless.
    """
    tri = r.triangular
    bcat = r.b_cat.catalog
    acat = r.a_cat.catalog
    ccat = r.c_cat.catalog
    t_mods = [bcat.indecs[b] for b in tp.t.sorted_members()]
    f_mods = [bcat.indecs[b] for b in tp.f.sorted_members()]

    a_t = Subcat(acat, _closure_indices((tri.i_upper_star_obj(m) for m in t_mods), acat))
    a_f = Subcat(acat, _closure_indices((tri.x_part(m) for m in f_mods), acat))
    c_t = Subcat(ccat, _closure_indices((tri.y_part(m) for m in t_mods), ccat))
    c_f = Subcat(ccat, _closure_indices((tri.y_part(m) for m in f_mods), ccat))

    a_verdict = verify_torsion_pair(a_t, a_f, r.a_cat)
    c_verdict = verify_torsion_pair(c_t, c_f, r.c_cat)

    def scan(mods, transform, target: Subcat) -> bool:
        return all(target.contains_module(transform(m)) for m in mods)

    hypotheses = {
        "i_upper_shriek_exact": classify_functor(r.six["i_upper_shriek"]).label == "exact",
        "i_lower_star_i_upper_shriek_T_in_T": scan(
            t_mods, lambda m: tri.i_lower_star_obj(tri.x_part(m)), tp.t),
        "i_lower_star_i_upper_star_T_in_T": scan(
            t_mods, lambda m: tri.i_lower_star_obj(tri.i_upper_star_obj(m)), tp.t),
        "j_lower_shriek_j_upper_star_T_in_T": scan(
            t_mods, lambda m: tri.j_lower_shriek_obj(tri.y_part(m)), tp.t),
        "j_lower_star_j_upper_star_F_in_F": scan(
            f_mods, lambda m: tri.j_lower_star_obj(tri.y_part(m)), tp.f),
    }
    return RestrictResult(
        a_pair=(a_t, a_f), c_pair=(c_t, c_f),
        a_verdict=a_verdict, c_verdict=c_verdict,
        hypotheses=hypotheses,
    )


# -- quotient recollement --------------------------------------------------------------


@dataclass
class QuotientRecollementResult:
    cluster_tilting: ClusterTiltingReport
    hypotheses: dict
    constructed: bool
    a_quotient: Optional[QuotientCat] = None
    b_quotient: Optional[QuotientCat] = None
    c_quotient: Optional[QuotientCat] = None
    induced_checks: Optional[dict] = None

    def to_json_dict(self) -> dict:
        out = {
            "cluster_tilting": self.cluster_tilting.to_json_dict(),
            "hypotheses": self.hypotheses,
            "constructed": self.constructed,
        }
        if self.constructed:
            out["quotients"] = {
                "a": self.a_quotient.to_json_dict(),
                "b": self.b_quotient.to_json_dict(),
                "c": self.c_quotient.to_json_dict(),
            }
            out["induced_checks"] = self.induced_checks
        return out


def quotient_recollement(
    r: RecollementData,
    t: Subcat,
    require_cluster_tilting: bool = True,
) -> QuotientRecollementResult:
    """Quotient all three categories by a cluster-tilting subcategory.

    With require_cluster_tilting (the default) a failed precondition or
    closure hypothesis yields a structured report and no construction.
    Passing False forces the construction anyway so that quotient-level
    phenomena can be inspected when the sufficient conditions fail.
    """
    tri = r.triangular
    bcat = r.b_cat.catalog
    acat = r.a_cat.catalog
    ccat = r.c_cat.catalog
    ct = is_cluster_tilting(t, r.b_cat)
    t_mods = [bcat.indecs[b] for b in t.sorted_members()]

    def scan(transform, target: Subcat) -> bool:
        return all(target.contains_module(transform(m)) for m in t_mods)

    hypotheses = {
        "j_lower_star_j_upper_star_T_in_T": scan(
            lambda m: tri.j_lower_star_obj(tri.y_part(m)), t),
        "i_lower_star_i_upper_star_T_in_T": scan(
            lambda m: tri.i_lower_star_obj(tri.i_upper_star_obj(m)), t),
        "i_lower_star_i_upper_shriek_T_in_T": scan(
            lambda m: tri.i_lower_star_obj(tri.x_part(m)), t),
        "i_upper_star_exact": classify_functor(r.six["i_upper_star"]).label == "exact",
        "i_upper_shriek_exact": classify_functor(r.six["i_upper_shriek"]).label == "exact",
    }
    gate = ct.ok and hypotheses["j_lower_star_j_upper_star_T_in_T"] and \
        hypotheses["i_lower_star_i_upper_star_T_in_T"]
    if require_cluster_tilting and not gate:
        return QuotientRecollementResult(
            cluster_tilting=ct, hypotheses=hypotheses, constructed=False)

    i_star_t = Subcat(acat, _closure_indices(
        (tri.i_upper_star_obj(m) for m in t_mods), acat))
    j_star_t = Subcat(ccat, _closure_indices(
        (tri.y_part(m) for m in t_mods), ccat))
    aq = quotient(r.a_cat, i_star_t)
    bq = quotient(r.b_cat, t)
    cq = quotient(r.c_cat, j_star_t)

    induced = {
        "i_star_T_cluster_tilting_in_A": is_cluster_tilting(i_star_t, r.a_cat).ok,
        "j_star_T_cluster_tilting_in_C": is_cluster_tilting(j_star_t, r.c_cat).ok,
        "i_lower_star_kills": all(
            t.contains_module(tri.i_lower_star_obj(acat.indecs[a]))
            for a in i_star_t.sorted_members()),
        "j_lower_shriek_kills": all(
            t.contains_module(tri.j_lower_shriek_obj(ccat.indecs[c]))
            for c in j_star_t.sorted_members()),
        "j_lower_star_kills": all(
            t.contains_module(tri.j_lower_star_obj(ccat.indecs[c]))
            for c in j_star_t.sorted_members()),
        "i_upper_shriek_lands_in_killed": all(
            i_star_t.contains_module(tri.x_part(m)) for m in t_mods),
    }

    # quotient-level adjunction and fully-faithfulness via Hom dimensions
    adj_fail = []
    for a in aq.qindecs:
        x = acat.indecs[a]
        for b in bq.qindecs:
            m = bcat.indecs[b]
            lhs = quotient_hom_dim(tri.i_lower_star_obj(x), m, t)
            rhs = quotient_hom_dim(x, tri.x_part(m), i_star_t)
            if lhs != rhs:
                adj_fail.append(("i_bar_* -| i_bar^!", a, b))
            lhs = quotient_hom_dim(tri.i_upper_star_obj(m), x, i_star_t)
            rhs = quotient_hom_dim(m, tri.i_lower_star_obj(x), t)
            if lhs != rhs:
                adj_fail.append(("i_bar^* -| i_bar_*", b, a))
    for c in cq.qindecs:
        z = ccat.indecs[c]
        for b in bq.qindecs:
            m = bcat.indecs[b]
            lhs = quotient_hom_dim(tri.j_lower_shriek_obj(z), m, t)
            rhs = quotient_hom_dim(z, tri.y_part(m), j_star_t)
            if lhs != rhs:
                adj_fail.append(("j_bar_! -| j_bar^*", c, b))
            lhs = quotient_hom_dim(m, tri.j_lower_star_obj(z), t)
            rhs = quotient_hom_dim(tri.y_part(m), z, j_star_t)
            if lhs != rhs:
                adj_fail.append(("j_bar^* -| j_bar_*", b, c))
    induced["quotient_adjunction_dims"] = not adj_fail

    ff_fail = []
    for a1 in aq.qindecs:
        for a2 in aq.qindecs:
            x1, x2 = acat.indecs[a1], acat.indecs[a2]
            if quotient_hom_dim(x1, x2, i_star_t) != quotient_hom_dim(
                    tri.i_lower_star_obj(x1), tri.i_lower_star_obj(x2), t):
                ff_fail.append(("i_bar_*", a1, a2))
    for c1 in cq.qindecs:
        for c2 in cq.qindecs:
            z1, z2 = ccat.indecs[c1], ccat.indecs[c2]
            if quotient_hom_dim(z1, z2, j_star_t) != quotient_hom_dim(
                    tri.j_lower_shriek_obj(z1), tri.j_lower_shriek_obj(z2), t):
                ff_fail.append(("j_bar_!", c1, c2))
            if quotient_hom_dim(z1, z2, j_star_t) != quotient_hom_dim(
                    tri.j_lower_star_obj(z1), tri.j_lower_star_obj(z2), t):
                ff_fail.append(("j_bar_*", c1, c2))
    induced["quotient_fully_faithful"] = not ff_fail

    # Im i_bar_* = Ker j_bar^* on surviving classes
    im_bar = set()
    for a in aq.qindecs:
        value = tri.i_lower_star_obj(acat.indecs[a])
        dec = bcat.decompose(value)
        im_bar.update(i for i in dec if i in bq.qindecs)
    ker_bar = {
        b for b in bq.qindecs
        if quotient_hom_dim(
            tri.y_part(bcat.indecs[b]), tri.y_part(bcat.indecs[b]), j_star_t) == 0
    }
    induced["image_equals_kernel"] = im_bar == ker_bar

    return QuotientRecollementResult(
        cluster_tilting=ct, hypotheses=hypotheses, constructed=True,
        a_quotient=aq, b_quotient=bq, c_quotient=cq, induced_checks=induced,
    )
