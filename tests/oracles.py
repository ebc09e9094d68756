"""Exhaustive reference answers that the program computes another way.

The isomorphism and indecomposability oracles walk all p**dim F_p
combinations of a Hom basis, so they are exponential in dim Hom and meant
only for the small modules of the tests, where they check the
catalog-based answers of `quivrep`.  `find_witness_by_scan` enumerates
candidate torsion and free multisets and searches their extension classes
for a torsion witness on every call, accepting a class when the whole
middle decomposes as C, where `excat` reads the witness off the trace of
T in C, the image of the universal map onto C from the members of T.  The short-exact-sequence
references (`lift_through_surjection`, `is_split`, `pushout_ses`, `pullback_ses`)
answer by solving for morphisms and forming pushouts and pullbacks,
where `homext` reads everything off arrow cocycles.
`covariant_maps` and `contravariant_maps` build the five-term maps on
the modules of the terms, from the Hom and Ext^1 spaces of the sums and
the class `class_of` solves from the sequence, each map on a whole basis
at once, where `homext` assembles them block by block from the catalog's
tables and the sequence's block coordinates.
`covariant_maps_by_elements` and `contravariant_maps_by_elements` build
them one basis element at a time, from `hom_basis`, a coordinate solve
per map and one cocycle push or pull per element.
`all_conflations_by_scan` builds every sequence of a conflation list and
decomposes every nonsplit middle, and `classify_functor_by_scan` grades
every record, split ones included, where `homext` and `recol` read split
and block records off their ends and earlier records.  The scan's split
sequences are `split_ses` on a (+) c carried onto the sorted sum of the
summands by a block permutation (`sorted_split_ses`), where `homext`
includes each end at its summands' places in that sum.
`block_classes_by_cocycle` reads the block classes of a class whose ends are
direct sums by expanding its cocycle and solving each block's class, where
`homext.all_conflations` reads them off the class's coordinates.
`morphism_coords_many` solves for the coordinates of maps in a Hom basis,
and `quotient_by_identity_test` ranks each factoring ideal in those
coordinates and keeps an object when its identity lies outside the
ideal, where `excat.quotient` reads span ranks and keeps an object when
its quotient End is nonzero.
`find_approximations` searches a host's conflation list for approximation
conflations, where `excat.approximation_sides` tests the universal maps
built from the catalog's Hom bases.  `is_projective_object` and
`is_injective_object` test the vanishing of Ext^1 from or into an object,
one Ext space per member.
`glue_by_formulas`, `restrict_by_formulas` and
`quotient_recollement_by_formulas` apply the `TriangularData` object
formulas to every module and decompose each value (`closure_indices`),
where `recol` reads the classes off the tabulated functors.
`relation_mask_by_totals` forms each relation's whole value on every
tuple of a chunk, recomputing every term in every chunk, and tests it for
zero, where `quivrep._relation_mask` evaluates each term over its own axes
and compares row codes.
`is_right_exact_by_factoring` and `is_left_exact_by_factoring` build the
map A ->> ker g or coker f >-> C that f and g induce and test it for a
deflation or an inflation, where `excat` reads exactness at the middle off
ranks and tests ker f or coker g for membership.
`rref_by_columns` eliminates with numpy calls, one column at a time,
where `Mat.rref` works on rows of Python integers.
`direct_sum_by_offsets`, `summand_inclusion_by_offsets` and
`summand_projection_by_offsets` place each summand by running row and
column offsets, where `quivrep.direct_sum` and the `homext` summand maps
read its place off `quivrep._bounds`.
`ext_push`, `ext_pull` and `reduce_class` are the one-class forms of
`homext`'s batched pushes and pulls (`ext_map_many`) and reductions, and
`dump_algebra_text` writes the text format `quivrep.parse_algebra_text`
reads.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from extriang.excat import (
    ExCat,
    Subcat,
    is_cluster_tilting,
    is_deflation,
    is_inflation,
    is_left_exact_seq,
    is_right_exact_seq,
    quotient,
    quotient_hom_dim,
    verify_torsion_pair,
)
from extriang.exactfield import Mat
from extriang.homext import (
    SES,
    ConflationRecord,
    ExtClass,
    Ext1Space,
    _column,
    _kron_map,
    ext1_space,
    ext_map_many,
    summand_inclusion,
    summand_projection,
)
from extriang.quivrep import (
    _CHUNK_CELLS,
    Algebra,
    Module,
    Morphism,
    _bounds,
    _commuting_system,
    _flatten_morphism,
    _matrices,
    _morphism_from_vector,
    cokernel,
    direct_sum,
    hom_basis,
    identity_morphism,
    kernel,
    split_off_summand,
    zero_morphism,
)
from extriang.recol import (
    Classification,
    FunctorData,
    GlueResult,
    QuotientRecollementResult,
    RecollementData,
    RestrictResult,
    _adjunction_dim_failures,
    _hom_dims_kept,
    classify_functor,
)


def rref_by_columns(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns of m by one numpy pass
    per column: the first nonzero entry at or below the current row is the
    pivot, scaled to 1 and cleared from every other row at once."""
    p = m.p
    a = m.a.copy()
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
        pivots.append(c)
        r += 1
    return Mat(p, a), tuple(pivots)


def morphism_coords_many(phis: Sequence[Morphism], basis: Sequence[Morphism]) -> np.ndarray:
    """Coordinates of each phi in a Hom basis, one column per phi.

    One elimination of the basis against all right-hand sides at once
    (exact; raises if some phi is not in the span).
    """
    if not basis:
        if all(phi.is_zero() for phi in phis):
            return np.zeros((0, len(phis)), dtype=np.int64)
        raise ValueError("morphism not in span of empty basis")
    if not phis:
        return np.zeros((len(basis), 0), dtype=np.int64)
    p = basis[0].source.p
    system = Mat(p, np.stack([_flatten_morphism(b) for b in basis], axis=1))
    x = system.solve(Mat(p, np.stack([_flatten_morphism(phi) for phi in phis], axis=1)))
    if x is None:
        raise ValueError("morphism not in span of basis")
    return x.a


def morphism_coords(phi: Morphism, basis: Sequence[Morphism]) -> np.ndarray:
    """Coordinates of phi in a Hom basis (exact; raises if not in span)."""
    return morphism_coords_many([phi], basis)[:, 0]


def morphism_from_coords(coords, basis: Sequence[Morphism], source: Module, target: Module) -> Morphism:
    """The combination of basis morphisms with the given F_p coordinates."""
    out = zero_morphism(source, target)
    for c, b in zip(coords, basis):
        if c % source.p:
            out = out + b.scale(int(c))
    return out


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


def quotient_by_identity_test(e: ExCat, t: Subcat) -> tuple[dict, tuple[int, ...]]:
    """(qhom, qindecs) of e modulo t; i survives when its identity is outside the ideal."""
    catalog = e.catalog
    members = e.indec_indices()
    qhom = {}
    for i, j in itertools.product(members, repeat=2):
        ideal = factoring_ideal_coords(catalog.indecs[i], catalog.indecs[j], t)
        qhom[(i, j)] = catalog.dim_hom(i, j) - (0 if ideal is None else ideal.rank())
    survivors = []
    for i in members:
        m = catalog.indecs[i]
        ideal = factoring_ideal_coords(m, m, t)
        ident = Mat(m.p, morphism_coords(identity_morphism(m), catalog.hom(i, i)).reshape(1, -1))
        if ideal.rows == 0 or ideal.vstack(ident).rank() > ideal.rank():
            survivors.append(i)
    return qhom, tuple(survivors)


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


def direct_sum_by_offsets(modules: Sequence[Module]) -> Module:
    """The block-diagonal sum of a nonempty list, each block placed at the
    running row and column offsets of the blocks before it."""
    algebra, p = modules[0].algebra, modules[0].p
    dims = tuple(sum(m.dims[i] for m in modules) for i in range(len(algebra.vertices)))
    action = {}
    for a in algebra.arrows:
        block = np.zeros((dims[algebra.vertex_index[a.tgt]], dims[algebra.vertex_index[a.src]]), dtype=np.int64)
        ro = co = 0
        for m in modules:
            mr, mc = m.action[a.name].shape
            block[ro:ro + mr, co:co + mc] = m.action[a.name].a
            ro += mr
            co += mc
        action[a.name] = Mat(p, block)
    return Module(algebra, p, dims, action, check=False)


def summand_inclusion_by_offsets(mods: Sequence[Module], k: int, total: Module) -> Morphism:
    """The inclusion of summand k, an identity block below the earlier summands' dimensions."""
    comps = {}
    for v in total.algebra.vertices:
        block = np.zeros((total.dim(v), mods[k].dim(v)), dtype=np.int64)
        off = sum(m.dim(v) for m in mods[:k])
        block[off:off + mods[k].dim(v)] = np.eye(mods[k].dim(v), dtype=np.int64)
        comps[v] = Mat(total.p, block)
    return Morphism(mods[k], total, comps, check=False)


def summand_projection_by_offsets(mods: Sequence[Module], k: int, total: Module) -> Morphism:
    """The projection onto summand k, an identity block right of the earlier summands' dimensions."""
    comps = {}
    for v in total.algebra.vertices:
        block = np.zeros((mods[k].dim(v), total.dim(v)), dtype=np.int64)
        off = sum(m.dim(v) for m in mods[:k])
        block[:, off:off + mods[k].dim(v)] = np.eye(mods[k].dim(v), dtype=np.int64)
        comps[v] = Mat(total.p, block)
    return Morphism(total, mods[k], comps, check=False)


def split_ses(a: Module, c: Module) -> SES:
    """The split sequence a >-> a (+) c ->> c."""
    b = direct_sum([a, c])
    return SES(a, b, c, summand_inclusion([a, c], 0, b), summand_projection([a, c], 1, b))


def sorted_split_ses(catalog, a_ms, c_ms, a: Module, c: Module) -> SES:
    """split_ses(a, c), a and c the catalog sums of a_ms and c_ms, carried
    along the block permutation of a (+) c onto the catalog sum of the
    sorted summands: each summand of a, then of c, goes to the first place
    of its entry there not yet taken.  The permutation is checked as a
    module isomorphism."""
    ses = split_ses(a, c)
    both = list(a_ms) + list(c_ms)
    mid = sorted(both)
    b = catalog.sum_of(mid)
    places: list[int] = []
    for k in both:
        places.append(next(s for s, m in enumerate(mid) if m == k and s not in places))
    parts, mods = [catalog.indecs[k] for k in both], [catalog.indecs[k] for k in mid]
    sigma = zero_morphism(ses.b, b)
    for t, s in enumerate(places):
        sigma = sigma + summand_inclusion_by_offsets(mods, s, b) @ summand_projection_by_offsets(parts, t, ses.b)
    sigma = Morphism(ses.b, b, sigma.comps)  # checks every square
    assert sigma.is_isomorphism()
    return SES(a, b, c, sigma @ ses.inc, ses.prj @ sigma.inverse())


def witness_candidates_by_scan(c_index: int, t: Subcat, f: Subcat, e: ExCat) -> list[tuple]:
    """(torsion multiset, free multiset) pairs in the torsion witness scan order.

    Torsion part by size then lexicographic over t's members, then the free
    part over f's members, kept when the two dimension vectors add up to C's.
    """
    catalog = e.catalog
    c_dims = catalog.indecs[c_index].dims
    zero = (0,) * len(c_dims)
    member_dims = [m.dims for m in catalog.indecs]

    def dims(ms):
        return tuple(map(sum, zip(zero, *map(member_dims.__getitem__, ms))))

    def bounded(members, bound):
        # dropping a summand keeps a multiset under the bound, so every
        # summand fits alone, and once no multiset of some size fits, none
        # of a larger size does
        def fits(ms):
            return all(map(operator.le, dims(ms), bound))

        members = [i for i in members if fits((i,))]
        out = []
        for size in itertools.count():
            sized = [ms for ms in itertools.combinations_with_replacement(members, size) if fits(ms)]
            if not sized:
                return out
            out += sized

    out = []
    for t_ms in bounded(t.sorted_members(), c_dims):
        comp_dims = tuple(c - d for c, d in zip(c_dims, dims(t_ms)))
        out.extend((t_ms, f_ms) for f_ms in bounded(f.sorted_members(), comp_dims)
                   if dims(f_ms) == comp_dims)
    return out


def find_witness_by_scan(c_index: int, t: Subcat, f: Subcat, e: ExCat) -> Optional[SES]:
    """First conflation T -> C -> F in the torsion witness scan order, or None.

    Realizes every candidate class afresh, candidate by candidate in
    `witness_candidates_by_scan` order, then extension class by class.
    """
    catalog = e.catalog
    c_mod = catalog.indecs[c_index]
    for t_ms, f_ms in witness_candidates_by_scan(c_index, t, f, e):
        space = ext1_space(catalog.sum_of(f_ms), catalog.sum_of(t_ms))
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
        block[:, offsets[v]:offsets[v] + width] = np.kron(surjection.comps[v].a, np.eye(p0.dim(v), dtype=np.int64))
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


def _reads_off_blocks(cls: ExtClass, a_ms, c_ms, catalog) -> bool:
    """Whether a nonsplit class on two or more summands has its nonzero
    blocks in distinct rows and columns, block (i, j) being the class
    pushed along the projection onto a_j and pulled along the inclusion of c_i."""
    if len(a_ms) == len(c_ms) == 1:
        return False
    a_mods, c_mods = [catalog.indecs[k] for k in a_ms], [catalog.indecs[k] for k in c_ms]
    rows, cols, count = set(), set(), 0
    for j, a_j in enumerate(a_mods):
        pushed = push_by_cocycle(cls, summand_projection(a_mods, j, cls.a), ext1_space(cls.c, a_j))
        for i, c_i in enumerate(c_mods):
            block = pull_by_cocycle(pushed, summand_inclusion(c_mods, i, cls.c), ext1_space(c_i, a_j))
            if not block.is_zero():
                rows.add(i)
                cols.add(j)
                count += 1
    return len(rows) == len(cols) == count


def block_classes_by_cocycle(cls: ExtClass, catalog, a_ms, c_ms) -> list[tuple[int, int, ExtClass]]:
    """(i, j, class) for the nonzero blocks of a class in Ext^1(sum c_i, sum a_j),
    block (i, j) being the class of the block of its cocycle between c_i and a_j."""
    phi = cls.cocycle()
    a_mods, c_mods = [catalog.indecs[k] for k in a_ms], [catalog.indecs[k] for k in c_ms]
    rows, cols = _bounds(a_mods), _bounds(c_mods)
    out = []
    for i, c_mod in enumerate(c_mods):
        for j, a_mod in enumerate(a_mods):
            block = {
                x.name: Mat(catalog.p, phi[x.name].a[rows[j][x.tgt]:rows[j + 1][x.tgt],
                                                     cols[i][x.src]:cols[i + 1][x.src]])
                for x in catalog.algebra.arrows
            }
            sub = ext1_space(c_mod, a_mod).class_from_cocycle(block)
            if not sub.is_zero():
                out.append((i, j, sub))
    return out


def all_conflations_by_scan(catalog, members=None, cap: int = 2) -> list[ConflationRecord]:
    """Every conflation over the members, as `homext.all_conflations` lists them.

    Each record carries its sequence: the split sequence of the zero class
    on the sorted sum of its summands, the realization of every other
    class, whose middle is decomposed.  A nonsplit record is marked
    `from_blocks` when its blocks, read by pushing and pulling along the
    summand maps, lie in distinct rows and columns.
    """
    member_list = sorted(members) if members is not None else list(range(len(catalog)))
    ends = [ms for size in range(cap + 1)
            for ms in itertools.combinations_with_replacement(member_list, size)]
    records = []
    for c_ms in ends:
        c_mod = catalog.sum_of(c_ms)
        for a_ms in ends:
            a_mod = catalog.sum_of(a_ms)
            space = ext1_space(c_mod, a_mod)
            for cls in space.elements():
                if cls.is_zero():
                    ses = sorted_split_ses(catalog, a_ms, c_ms, a_mod, c_mod)
                    mid = tuple(sorted(a_ms + c_ms))
                else:
                    ses = space.realize(cls)
                    mid = tuple(sorted(catalog.decompose(ses.b).elements()))
                records.append(ConflationRecord(
                    cls, a_ms, c_ms, catalog, mid, _ses=ses,
                    from_blocks=not cls.is_zero() and _reads_off_blocks(cls, a_ms, c_ms, catalog)))
    return records


def classify_functor_by_scan(fd: FunctorData, conflations: Sequence[ConflationRecord]) -> Classification:
    """The functor's label from its image of every conflation, with the first failures."""
    all_left = all_right = True
    left_witness = right_witness = None
    for rec in conflations:
        f_img = fd.apply_mor(rec.ses.inc)
        g_img = fd.apply_mor(rec.ses.prj)
        if all_left and not is_left_exact_seq(f_img, g_img, fd.target):
            all_left = False
            left_witness = rec
        if all_right and not is_right_exact_seq(f_img, g_img, fd.target):
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


def closure_indices(values, catalog) -> frozenset[int]:
    """The catalog classes of the summands of the given modules."""
    out: set[int] = set()
    for m in values:
        if not m.is_zero():
            out.update(catalog.decompose(m))
    return frozenset(out)


def glue_by_formulas(r: RecollementData, tp1, tp2) -> GlueResult:
    """`recol.glue_torsion_pairs`, each functor value computed by its formula."""
    tri = r.triangular
    bcat = r.b_cat.catalog
    t_members, f_members = set(), set()
    for b in r.b_cat.indec_indices():
        m = bcat.indecs[b]
        jstar = tri.y_part(m)
        if tp1.t.contains_module(tri.i_upper_star_obj(m)) and tp2.t.contains_module(jstar):
            t_members.add(b)
        if tp1.f.contains_module(tri.x_part(m)) and tp2.f.contains_module(jstar):
            f_members.add(b)
    t_sub, f_sub = Subcat.add(bcat, t_members), Subcat.add(bcat, f_members)
    acat, ccat = r.a_cat.catalog, r.c_cat.catalog
    rec_t1 = closure_indices((tri.i_upper_star_obj(bcat.indecs[b]) for b in t_members), acat)
    rec_f1 = closure_indices((tri.x_part(bcat.indecs[b]) for b in f_members), acat)
    rec_t2 = closure_indices((tri.y_part(bcat.indecs[b]) for b in t_members), ccat)
    rec_f2 = closure_indices((tri.y_part(bcat.indecs[b]) for b in f_members), ccat)
    recovery = {
        "i_upper_star_T": sorted(rec_t1),
        "i_upper_shriek_F": sorted(rec_f1),
        "j_upper_star_T": sorted(rec_t2),
        "j_upper_star_F": sorted(rec_f2),
        "equals_inputs": (rec_t1 == tp1.t.members and rec_f1 == tp1.f.members
                          and rec_t2 == tp2.t.members and rec_f2 == tp2.f.members),
    }
    return GlueResult(
        t=t_sub, f=f_sub, verdict=verify_torsion_pair(t_sub, f_sub, r.b_cat),
        i_upper_shriek_exact=classify_functor(r.six["i_upper_shriek"]).label == "exact",
        i_upper_star_exact=classify_functor(r.six["i_upper_star"]).label == "exact",
        recovery=recovery,
    )


def _closure_by_formulas(tri, names, mods, target: Subcat, side: str) -> dict:
    composites = {
        "i_lower_star_i_upper_shriek": lambda m: tri.i_lower_star_obj(tri.x_part(m)),
        "i_lower_star_i_upper_star": lambda m: tri.i_lower_star_obj(tri.i_upper_star_obj(m)),
        "j_lower_shriek_j_upper_star": lambda m: tri.j_lower_shriek_obj(tri.y_part(m)),
        "j_lower_star_j_upper_star": lambda m: tri.j_lower_star_obj(tri.y_part(m)),
    }
    return {f"{name}_{side}_in_{side}": all(target.contains_module(composites[name](m)) for m in mods)
            for name in names}


def restrict_by_formulas(r: RecollementData, tp) -> RestrictResult:
    """`recol.restrict_torsion_pair`, each functor value computed by its formula."""
    tri = r.triangular
    bcat, acat, ccat = r.b_cat.catalog, r.a_cat.catalog, r.c_cat.catalog
    t_mods = [bcat.indecs[b] for b in tp.t.sorted_members()]
    f_mods = [bcat.indecs[b] for b in tp.f.sorted_members()]
    a_t = Subcat(acat, closure_indices((tri.i_upper_star_obj(m) for m in t_mods), acat))
    a_f = Subcat(acat, closure_indices((tri.x_part(m) for m in f_mods), acat))
    c_t = Subcat(ccat, closure_indices((tri.y_part(m) for m in t_mods), ccat))
    c_f = Subcat(ccat, closure_indices((tri.y_part(m) for m in f_mods), ccat))
    hypotheses = {
        "i_upper_shriek_exact": classify_functor(r.six["i_upper_shriek"]).label == "exact",
        **_closure_by_formulas(tri, ("i_lower_star_i_upper_shriek", "i_lower_star_i_upper_star",
                                     "j_lower_shriek_j_upper_star"), t_mods, tp.t, "T"),
        **_closure_by_formulas(tri, ("j_lower_star_j_upper_star",), f_mods, tp.f, "F"),
    }
    return RestrictResult(
        a_pair=(a_t, a_f), c_pair=(c_t, c_f),
        a_verdict=verify_torsion_pair(a_t, a_f, r.a_cat), c_verdict=verify_torsion_pair(c_t, c_f, r.c_cat),
        hypotheses=hypotheses,
    )


def quotient_recollement_by_formulas(r: RecollementData, t: Subcat) -> QuotientRecollementResult:
    """`recol.quotient_recollement` forced, each functor value computed by its
    formula; the quotient Hom dimensions read the tables, as there."""
    tri = r.triangular
    bcat, acat, ccat = r.b_cat.catalog, r.a_cat.catalog, r.c_cat.catalog
    t_mods = [bcat.indecs[b] for b in t.sorted_members()]
    hypotheses = {
        **_closure_by_formulas(tri, ("j_lower_star_j_upper_star", "i_lower_star_i_upper_star",
                                     "i_lower_star_i_upper_shriek"), t_mods, t, "T"),
        "i_upper_star_exact": classify_functor(r.six["i_upper_star"]).label == "exact",
        "i_upper_shriek_exact": classify_functor(r.six["i_upper_shriek"]).label == "exact",
    }
    i_star_t = Subcat(acat, closure_indices((tri.i_upper_star_obj(m) for m in t_mods), acat))
    j_star_t = Subcat(ccat, closure_indices((tri.y_part(m) for m in t_mods), ccat))
    aq, bq, cq = quotient(r.a_cat, i_star_t), quotient(r.b_cat, t), quotient(r.c_cat, j_star_t)

    def maps_into(mods, transform, target: Subcat) -> bool:
        return all(target.contains_module(transform(m)) for m in mods)

    killed_a = [acat.indecs[a] for a in i_star_t.sorted_members()]
    killed_c = [ccat.indecs[c] for c in j_star_t.sorted_members()]
    induced = {
        "i_star_T_cluster_tilting_in_A": is_cluster_tilting(i_star_t, r.a_cat).ok,
        "j_star_T_cluster_tilting_in_C": is_cluster_tilting(j_star_t, r.c_cat).ok,
        "i_lower_star_kills": maps_into(killed_a, tri.i_lower_star_obj, t),
        "j_lower_shriek_kills": maps_into(killed_c, tri.j_lower_shriek_obj, t),
        "j_lower_star_kills": maps_into(killed_c, tri.j_lower_star_obj, t),
        "i_upper_shriek_lands_in_killed": maps_into(t_mods, tri.x_part, i_star_t),
    }

    def dims(killed: Subcat):
        return lambda u, v: quotient_hom_dim(u, v, killed)

    induced["quotient_adjunction_dims"] = not _adjunction_dim_failures(
        r, {"a": aq.qindecs, "b": bq.qindecs, "c": cq.qindecs},
        {"a": dims(i_star_t), "b": dims(t), "c": dims(j_star_t)})
    induced["quotient_fully_faithful"] = all(
        kept
        for name, killed, survivors in (("i_lower_star", i_star_t, aq.qindecs),
                                        ("j_lower_shriek", j_star_t, cq.qindecs),
                                        ("j_lower_star", j_star_t, cq.qindecs))
        for _, _, kept in _hom_dims_kept(r.six[name], survivors, dims(killed), dims(t)))
    im_bar = {i for a in aq.qindecs for i in bcat.decompose(tri.i_lower_star_obj(acat.indecs[a]))
              if i in bq.qindecs}
    ker_bar = {b for b in bq.qindecs
               if quotient_hom_dim(tri.y_part(bcat.indecs[b]), tri.y_part(bcat.indecs[b]), j_star_t) == 0}
    induced["image_equals_kernel"] = im_bar == ker_bar
    return QuotientRecollementResult(
        cluster_tilting=is_cluster_tilting(t, r.b_cat), hypotheses=hypotheses, constructed=True,
        a_quotient=aq, b_quotient=bq, c_quotient=cq, induced_checks=induced,
    )


def push_by_cocycle(cls: ExtClass, g: Morphism, target: Ext1Space) -> ExtClass:
    """The class of g_tgt phi_x, g: a -> a', from the class's cocycle blocks."""
    phi = cls.cocycle()
    return target.class_from_cocycle({x.name: g.comps[x.tgt] @ phi[x.name] for x in g.source.algebra.arrows})


def pull_by_cocycle(cls: ExtClass, h: Morphism, target: Ext1Space) -> ExtClass:
    """The class of phi_x h_src, h: x -> c, from the class's cocycle blocks."""
    phi = cls.cocycle()
    return target.class_from_cocycle({x.name: phi[x.name] @ h.comps[x.src] for x in h.source.algebra.arrows})


def ext_push(cls: ExtClass, g: Morphism, target_space: Optional[Ext1Space] = None) -> ExtClass:
    """Image of one class along g: a -> a' (see homext.ext_map_many)."""
    target = target_space or ext1_space(cls.c, g.target)
    coords = ext_map_many(cls.space, _column(cls.coords), target, g=g)
    return ExtClass(target.c, target.a, tuple(int(t) for t in coords[:, 0]))


def ext_pull(cls: ExtClass, h: Morphism, target_space: Optional[Ext1Space] = None) -> ExtClass:
    """Image of one class along h: x -> c (see homext.ext_map_many)."""
    target = target_space or ext1_space(h.source, cls.a)
    coords = ext_map_many(cls.space, _column(cls.coords), target, h=h)
    return ExtClass(target.c, target.a, tuple(int(t) for t in coords[:, 0]))


def reduce_class(space: Ext1Space, coords) -> ExtClass:
    """The class of one column of Z coordinates, in canonical reduced coordinates."""
    return ExtClass(space.c, space.a, tuple(int(t) for t in space.reduce_many(_column(coords))[:, 0]))


def dump_algebra_text(algebra: Algebra) -> str:
    lines = [f"vertex {v}" for v in algebra.vertices]
    lines += [f"arrow {a.name} {a.src} {a.tgt}" for a in algebra.arrows]
    for rel in algebra.relations:
        terms = " + ".join(f"{coeff}*{'.'.join(path)}" for coeff, path in rel)
        lines.append(f"relation {terms}")
    return "\n".join(lines) + "\n"


def _map_matrix(images: Sequence, space: Ext1Space) -> Mat:
    """One column of quotient coordinates per image class."""
    cols = [space.compress(np.array(cls.coords, dtype=np.int64)) for cls in images]
    return Mat(space.p, np.stack(cols, axis=1)) if cols else Mat.zeros(space.p, space.dim, 0)


@lru_cache(maxsize=None)
def class_of(ses: SES) -> ExtClass:
    """The class of a sequence, solved from a section of its deflation and
    kept per sequence."""
    return ext1_space(ses.c, ses.a).class_of(ses)


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


def covariant_maps(ses: SES, x: Module) -> list[Mat]:
    """The maps Hom(x,a) -> Hom(x,b) -> Hom(x,c) -> Ext(x,a) -> Ext(x,b) on
    the modules of the terms, in the bases of their Hom and Ext^1 spaces,
    each computed on a whole basis at once.

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
    """The maps Hom(c,x) -> Hom(b,x) -> Hom(a,x) -> Ext(c,x) -> Ext(b,x) on
    the modules of the terms, as in covariant_maps."""
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


def covariant_maps_by_elements(ses: SES, x: Module) -> list[Mat]:
    """Hom(x,a) -> Hom(x,b) -> Hom(x,c) -> Ext(x,a) -> Ext(x,b), element by element."""
    p = x.p
    hom_a, hom_b, hom_c = hom_basis(x, ses.a), hom_basis(x, ses.b), hom_basis(x, ses.c)
    ext_a, ext_b = ext1_space(x, ses.a), ext1_space(x, ses.b)
    delta = class_of(ses)
    return [
        Mat(p, morphism_coords_many([ses.inc @ f for f in hom_a], hom_b)),
        Mat(p, morphism_coords_many([ses.prj @ f for f in hom_b], hom_c)),
        _map_matrix([pull_by_cocycle(delta, f, ext_a) for f in hom_c], ext_a),
        _map_matrix([push_by_cocycle(e, ses.inc, ext_b) for e in ext_a.basis()], ext_b),
    ]


def contravariant_maps_by_elements(ses: SES, x: Module) -> list[Mat]:
    """Hom(c,x) -> Hom(b,x) -> Hom(a,x) -> Ext(c,x) -> Ext(b,x), element by element."""
    p = x.p
    hom_c, hom_b, hom_a = hom_basis(ses.c, x), hom_basis(ses.b, x), hom_basis(ses.a, x)
    ext_c, ext_b = ext1_space(ses.c, x), ext1_space(ses.b, x)
    delta = class_of(ses)
    return [
        Mat(p, morphism_coords_many([f @ ses.prj for f in hom_c], hom_b)),
        Mat(p, morphism_coords_many([f @ ses.inc for f in hom_b], hom_a)),
        _map_matrix([push_by_cocycle(delta, f, ext_c) for f in hom_a], ext_c),
        _map_matrix([pull_by_cocycle(e, ses.prj, ext_b) for e in ext_c.basis()], ext_b),
    ]


def find_approximations(c_index: int, t: Subcat, e: ExCat) -> tuple[Optional[SES], Optional[SES]]:
    """(left, right) approximation conflations of one object through t.

    left: C -> T1 -> T2, right: T3 -> T4 -> C, both searched exhaustively
    over the host's conflation list (first match in list order), so only
    ends of at most `e.cap` summands are seen.
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


def relation_mask_by_totals(algebra: Algebra, p: int, shapes: list[tuple[int, int]]) -> np.ndarray:
    """Whether each tuple satisfies every relation, on the tuple grid: each
    relation's value on every tuple of a slice of its first arrow's axis,
    tested for zero."""
    grid = tuple(p ** (r * c) for r, c in shapes)
    valid = np.ones(grid, dtype=bool)
    arrow_pos = {a.name: k for k, a in enumerate(algebra.arrows)}

    def axis_view(k: int, lo: int, hi: int) -> np.ndarray:
        lead = (1,) * k + (hi - lo,) + (1,) * (len(grid) - 1 - k)
        return _matrices(p, *shapes[k], np.arange(lo, hi)).reshape(lead + shapes[k])

    for rel in algebra.relations:
        first, *others = sorted({arrow_pos[name] for _, path in rel for name in path})
        views = {k: axis_view(k, 0, grid[k]) for k in others}
        step = max(1, _CHUNK_CELLS // int(np.prod([grid[k] for k in others])))
        for lo in range(0, grid[first], step):
            hi = min(grid[first], lo + step)
            views[first] = axis_view(first, lo, hi)
            total = 0
            for coeff, path in rel:
                term = views[arrow_pos[path[0]]]
                for name in path[1:]:
                    term = term @ views[arrow_pos[name]] % p
                total = total + coeff % p * term
            valid[(slice(None),) * first + (slice(lo, hi),)] &= ~np.any(total % p, axis=(-2, -1))
    return valid


def is_right_exact_by_factoring(f: Morphism, g: Morphism, e: ExCat) -> bool:
    """g is a deflation, g o f = 0, and the map A ->> ker(g) that f factors
    through is again a deflation."""
    if f.target != g.source:
        raise ValueError("sequence not composable")
    if not is_deflation(g, e) or not (g @ f).is_zero():
        return False
    ker_mod, incl = kernel(g)
    comps = {v: incl.comps[v].solve(f.comps[v]) for v in f.source.algebra.vertices}
    return is_deflation(Morphism(f.source, ker_mod, comps), e)


def is_left_exact_by_factoring(f: Morphism, g: Morphism, e: ExCat) -> bool:
    """f is an inflation, g o f = 0, and the map coker(f) >-> C that g
    factors through is again an inflation."""
    if f.target != g.source:
        raise ValueError("sequence not composable")
    if not is_inflation(f, e) or not (g @ f).is_zero():
        return False
    cok_mod, _, sect = cokernel(f)
    comps = {v: g.comps[v] @ sect[v] for v in f.source.algebra.vertices}
    return is_inflation(Morphism(cok_mod, g.target, comps), e)
