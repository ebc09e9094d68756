"""Property checks on the outputs of the benchmark's operations.

Every check follows from the mathematics, never from a stored copy of an
earlier output.  A check returns a list of problems; an empty list means
the output passed.  The functions take plain data (JSON documents or
tuples), so tests can feed them corrupted outputs.
"""

from __future__ import annotations

import itertools


# -- catalogs ---------------------------------------------------------------------


def positive_roots(n: int, arrows, bound: int) -> set[tuple[int, ...]]:
    """Positive roots of the Tits form q(x) = sum x_i^2 - sum_{i->j} x_i x_j
    with every entry at most `bound`; vertices are 0..n-1."""
    roots = set()
    for x in itertools.product(range(bound + 1), repeat=n):
        if any(x) and sum(v * v for v in x) - sum(x[s] * x[t] for s, t in arrows) == 1:
            roots.add(x)
    return roots


def check_dynkin_catalog(dims: list[tuple[int, ...]], n: int, arrows, bound: int) -> list[str]:
    """Gabriel: the indecomposables of a Dynkin quiver are in bijection with
    the positive roots, through their dimension vectors."""
    problems = []
    if len(set(dims)) != len(dims):
        problems.append("two indecomposables share a dimension vector")
    roots = positive_roots(n, arrows, bound)
    if set(dims) - roots:
        problems.append(f"dimension vectors that are not roots: {sorted(set(dims) - roots)}")
    if roots - set(dims):
        problems.append(f"roots without an indecomposable: {sorted(roots - set(dims))}")
    return problems


def check_dims_agree(by_prime: dict[int, list[tuple[int, ...]]], bound: int) -> list[str]:
    """One algebra over several primes: the dimension vectors of its
    indecomposables (entries at most `bound`) must not depend on the field."""
    sets = {p: sorted(d for d in dims if max(d) <= bound) for p, dims in by_prime.items()}
    if len({tuple(s) for s in sets.values()}) > 1:
        return [f"dimension vectors differ between primes: {sets}"]
    return []


def catalog_dims(doc: dict) -> list[tuple[int, ...]]:
    """Dimension vectors of a catalog document, in the algebra's vertex order."""
    vertices = doc["algebra"]["vertices"]
    return [tuple(m["dims"][v] for v in vertices) for m in doc["indecs"]]


def check_directed_catalog(doc: dict) -> list[str]:
    """A representation-directed algebra (the commutative square is one):
    every indecomposable is a brick, and no two share a dimension vector."""
    problems = []
    dims = catalog_dims(doc)
    if doc.get("count") != len(dims):
        problems.append("count disagrees with the number of indecomposables")
    if len(set(dims)) != len(dims):
        problems.append("two indecomposables share a dimension vector")
    hom = doc["hom_dims"]
    bad = [i for i in range(len(dims)) if hom[i][i] != 1]
    if bad:
        problems.append(f"indecomposables whose endomorphism ring is not the field: {bad}")
    return problems


# -- five-term sequences --------------------------------------------------------------

COVARIANT_TERMS = ("at_hom_b", "at_hom_c", "at_ext_a")
CONTRAVARIANT_TERMS = ("at_hom_b", "at_hom_a", "at_ext_c")


def check_five_term(cov: dict, con: dict) -> list[str]:
    """Both long exact sequences are exact at all three middle terms."""
    problems = []
    for label, flags, terms in (("covariant", cov, COVARIANT_TERMS),
                                ("contravariant", con, CONTRAVARIANT_TERMS)):
        if sorted(flags) != sorted(terms):
            problems.append(f"{label}: terms {sorted(flags)}, expected {sorted(terms)}")
        missing = [t for t in terms if not flags.get(t)]
        if missing:
            problems.append(f"{label}: not exact at {missing}")
    return problems


# -- torsion pairs --------------------------------------------------------------------


def left_perp(f, host, hom) -> set[int]:
    return {i for i in host if all(hom[i][j] == 0 for j in f)}


def right_perp(t, host, hom) -> set[int]:
    return {j for j in host if all(hom[i][j] == 0 for i in t)}


def check_torsion_pair(pair: dict, host, hom, dims) -> list[str]:
    """An accepted pair: T = left perp of F and F = right perp of T inside the
    host; every host object has a witness whose torsion part lies in T, whose
    free part lies in F, and whose dimension vectors add up to the object's."""
    problems = []
    host = set(host)
    t, f = set(pair["t"]), set(pair["f"])
    if not (t <= host and f <= host):
        problems.append("torsion or free class leaves the host")
    if t != left_perp(f, host, hom):
        problems.append(f"T={sorted(t)} is not the left perpendicular of F={sorted(f)}")
    if f != right_perp(t, host, hom):
        problems.append(f"F={sorted(f)} is not the right perpendicular of T={sorted(t)}")
    witness = {int(k): v for k, v in pair["witness"].items()}
    if set(witness) != host:
        problems.append(f"witnesses for {sorted(witness)}, host is {sorted(host)}")
    for c, w in witness.items():
        if not set(w["t_part"]) <= t or not set(w["f_part"]) <= f:
            problems.append(f"witness of {c} has parts outside T or F")
        total = [0] * len(dims[c])
        for i in list(w["t_part"]) + list(w["f_part"]):
            total = [a + b for a, b in zip(total, dims[i])]
        if tuple(total) != tuple(dims[c]):
            problems.append(f"witness parts of {c} do not add up to its dimension vector")
    return problems


def check_torsion_result(result: dict, t, f, host, hom, dims) -> list[str]:
    """Verdict on the candidate (T, F = right perp of T).

    Hom(T, F) = 0 holds by construction, so a rejection can only name the
    conflation clause; a T that is not the left perpendicular of its F can
    never be a torsion class, so such a candidate must be rejected.
    """
    if result.get("valid"):
        pair = result["pair"]
        if sorted(pair["t"]) != sorted(t) or sorted(pair["f"]) != sorted(f):
            return ["accepted pair differs from the candidate"]
        return check_torsion_pair(pair, host, hom, dims)
    problems = []
    if result.get("clause") != "conflation_existence":
        problems.append(f"rejected by clause {result.get('clause')!r} although Hom(T, F) = 0")
    if not t or set(t) == set(host):
        problems.append("a trivial pair (0, all) or (all, 0) was rejected")
    return problems


def check_pair_count(accepted: int, expected: int, host: str) -> list[str]:
    if accepted != expected:
        return [f"{host}: {accepted} torsion pairs, expected {expected}"]
    return []


# -- the example session ------------------------------------------------------------


# the strength a recollement demands of each functor: i_*, j^* exact;
# i^*, j_! right exact; i^!, j_* left exact
DEMANDED = {
    "i_lower_star": "exact",
    "j_upper_star": "exact",
    "i_upper_star": "right_exact",
    "j_lower_shriek": "right_exact",
    "i_upper_shriek": "left_exact",
    "j_lower_star": "left_exact",
}
# the demands each label satisfies
_SATISFIES = {
    "exact": {"exact", "left_exact", "right_exact", "neither"},
    "left_exact": {"left_exact", "neither"},
    "right_exact": {"right_exact", "neither"},
    "neither": {"neither"},
}


def index_of(labels: dict, label: str) -> int:
    hits = [int(k) for k, v in labels.items() if v == label]
    if len(hits) != 1:
        raise KeyError(f"label {label} names {len(hits)} objects")
    return hits[0]


def check_recollement_report(doc: dict) -> list[str]:
    problems = []
    failed = [c["clause"] for c in doc["report"]["clauses"] if c["pass"] is not True]
    if failed or doc["report"]["pass"] is not True:
        problems.append(f"recollement clauses fail: {failed}")
    if not doc["report"]["clauses"]:
        problems.append("no clauses checked")
    return problems


def check_classification(doc: dict) -> list[str]:
    problems = []
    labels = {name: c["label"] for name, c in doc["classifications"].items()}
    if set(labels) != set(DEMANDED):
        problems.append(f"classified {sorted(labels)}")
    for name, need in DEMANDED.items():
        if name in labels and need not in _SATISFIES.get(labels[name], ()):
            problems.append(f"{name} is {labels[name]}, the recollement needs {need}")
    return problems


def check_cluster_tilting_report(report: dict, projective: int) -> list[str]:
    """The candidate is rigid, and the only failure is the right
    approximation of [P1;0], which is projective in the middle category so
    that every deflation onto it splits."""
    problems = []
    if report["rigid"] is not True:
        problems.append("candidate is not rigid")
    if report["cluster_tilting"] is not False:
        problems.append("candidate accepted as cluster tilting")
    expected = [{"object": projective, "side": "right"}]
    if report["approximation_failures"] != expected:
        problems.append(f"approximation failures {report['approximation_failures']}, "
                        f"expected {expected}")
    return problems


def check_quotient(result: dict, t: list[int], host: list[int]) -> list[str]:
    """Quotient by add(T): an indecomposable dies exactly when it lies in T,
    morphisms touching a killed object vanish, and survivors keep their
    identity."""
    problems = []
    if sorted(result["killed"]) != sorted(t):
        problems.append(f"killed {result['killed']}, expected T={sorted(t)}")
    survivors = sorted(set(host) - set(t))
    if sorted(result["surviving"]) != survivors:
        problems.append(f"surviving {result['surviving']}, expected {survivors}")
    for key, dim in result["qhom_dims"].items():
        i, j = (int(s) for s in key.split(","))
        if (i in t or j in t) and dim != 0:
            problems.append(f"quotient Hom({i},{j}) = {dim} through a killed object")
        if i == j and i in survivors and dim < 1:
            problems.append(f"identity of surviving {i} vanishes")
    return problems
