"""Built-in worked example: the A2 path algebra and its triangular matrix algebra.

A is the path algebra of 1 -> 2; its doubling is the commutative-square
algebra whose modules are triples [X;Y]_f.  The bundle carries both full
module categories, the three extension-closed subcategories

    A_ext = add(P1 + S2),  B_ext = add([P1;0] + [P1;P1]_1 + [S2;0] + [0;P1]),
    C_ext = add(P1),

and the restricted and full six-functor recollements between them, each
built on first use, with every object resolvable by an ASCII label such
as "[P1;P1]_1".
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .quivrep import Algebra, Arrow, Catalog, Module, enumerate_indecomposables
from .excat import ExCat, Subcat
from .recol import RecollementData, TriangularData, build_triangular, six_functors

A2_ALGEBRA = Algebra(("1", "2"), (Arrow("a", "1", "2"),))

_A_NAMES = {(0, 1): "S2", (1, 0): "S1", (1, 1): "P1"}


class FixtureBundle:
    """The worked example over F_p at one dimension bound.

    Every catalog, category and recollement is built on first use from the
    pieces it reads, so a question about mod A never enumerates mod Lambda.
    """

    def __init__(self, p: int = 2, bound: int = 2):
        self.p = p
        self.bound = bound

    @cached_property
    def mod_a(self) -> Catalog:
        return enumerate_indecomposables(A2_ALGEBRA, self.bound, self.p)

    @cached_property
    def a_names(self) -> dict[str, int]:
        names = {}
        for i, m in enumerate(self.mod_a.indecs):
            if m.dims in _A_NAMES:
                names[_A_NAMES[m.dims]] = i
        for alias, name in (("P(1)", "P1"), ("S(1)", "S1"), ("S(2)", "S2")):
            if name in names:
                names[alias] = names[name]
        return names

    @cached_property
    def triangular(self) -> TriangularData:
        return build_triangular(A2_ALGEBRA)

    @property
    def lambda_algebra(self) -> Algebra:
        return self.triangular.algebra

    @cached_property
    def mod_lambda(self) -> Catalog:
        return enumerate_indecomposables(self.lambda_algebra, self.bound, self.p)

    @cached_property
    def lambda_names(self) -> dict[str, int]:
        names = {}
        for i, m in enumerate(self.mod_lambda.indecs):
            names[_lambda_label(self.mod_a, self.triangular, m)] = i
        if "[S1;P1]_f" in names:
            # the epimorphism P1 ->> S1 is often written with its own letter
            names["[S1;P1]_g"] = names["[S1;P1]_f"]
        return names

    @cached_property
    def notes(self) -> list[str]:
        if "[S2;S2]_1" in self.lambda_names and "[S2;S2]_0" not in self.lambda_names:
            return [
                "the indecomposable with dimension vector (0,1,0,1) is [S2;S2]_1; "
                "a module [S2;S2]_0 would decompose as [S2;0] + [0;S2]"
            ]
        return []

    @cached_property
    def full_a(self) -> ExCat:
        return ExCat(self.mod_a, cap=2)

    @cached_property
    def full_b(self) -> ExCat:
        # the full middle category keeps its conflation list tractable with
        # single-indecomposable ends; the restricted categories use cap 2
        return ExCat(self.mod_lambda, cap=1)

    @property
    def full_c(self) -> ExCat:
        return self.full_a

    @cached_property
    def a_ext(self) -> ExCat:
        return ExCat(self.mod_a, {self.a_names["P1"], self.a_names["S2"]}, cap=2)

    @cached_property
    def b_ext(self) -> ExCat:
        n = self.lambda_names
        members = {n["[P1;0]_0"], n["[P1;P1]_1"], n["[S2;0]_0"], n["[0;P1]_0"]}
        return ExCat(self.mod_lambda, members, cap=2)

    @cached_property
    def c_ext(self) -> ExCat:
        return ExCat(self.mod_a, {self.a_names["P1"]}, cap=2)

    @cached_property
    def restricted(self) -> RecollementData:
        return six_functors(self.a_ext, self.b_ext, self.c_ext, self.triangular)

    @cached_property
    def full(self) -> RecollementData:
        return six_functors(self.full_a, self.full_b, self.full_c, self.triangular)

    def _names(self, catalog: Catalog) -> dict[str, int]:
        return self.a_names if catalog is self.mod_a else self.lambda_names

    def labels(self, catalog: Catalog) -> dict[str, str]:
        """Each index of `catalog` (as a string, the JSON key form) -> its first label."""
        out: dict[str, str] = {}
        for label, idx in self._names(catalog).items():
            out.setdefault(str(idx), label)
        return out

    def resolve(self, token: str, catalog: Catalog) -> int:
        """Catalog index from a label, an integer, or a (d1,d2,...) pattern."""
        names = self._names(catalog)
        if token in names:
            return names[token]
        if token.startswith("(") and token.endswith(")"):
            try:
                dims = tuple(int(t) for t in token[1:-1].split(","))
            except ValueError:
                raise ValueError(
                    f"dimension vector {token!r} is not a list of integers") from None
            hits = [i for i, m in enumerate(catalog.indecs) if m.dims == dims]
            if len(hits) == 1:
                return hits[0]
            raise ValueError(
                f"dimension vector {token} matches {len(hits)} indecomposables")
        try:
            idx = int(token)
        except ValueError:
            raise ValueError(f"unknown object label {token!r}") from None
        if not 0 <= idx < len(catalog):
            raise ValueError(f"catalog index {idx} out of range")
        return idx

    def parse_subcat(self, spec: str, catalog: Catalog) -> Subcat:
        """Comma-separated labels/indices/patterns; '-' or '' is the zero subcategory.

        Commas inside a (d1,d2,...) dimension-vector pattern do not split.
        """
        spec = spec.strip()
        if spec in ("-", ""):
            return Subcat.zero(catalog)
        tokens = []
        depth = 0
        current = ""
        for ch in spec:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == "," and depth == 0:
                tokens.append(current)
                current = ""
            else:
                current += ch
        tokens.append(current)
        indices = {self.resolve(tok.strip(), catalog) for tok in tokens if tok.strip()}
        return Subcat.add(catalog, indices)


def _a_label(catalog: Catalog, m: Module) -> str:
    if m.is_zero():
        return "0"
    parts = []
    for idx, mult in sorted(catalog.decompose(m).items()):
        parts.extend([_A_NAMES[catalog.indecs[idx].dims]] * mult)
    return "+".join(parts)


def _lambda_label(bundle_mod_a: Catalog, tri: TriangularData, m: Module) -> str:
    f = tri.connecting_morphism(m)
    xname = _a_label(bundle_mod_a, f.target)
    yname = _a_label(bundle_mod_a, f.source)
    if f.is_zero():
        sub = "0"
    elif f.is_isomorphism():
        sub = "1"
    else:
        sub = "f"
    return f"[{xname};{yname}]_{sub}"


def build_example51(p: int = 2, bound: int = 2) -> FixtureBundle:
    """The worked example's bundle, one per (p, bound) however the call is
    written; nothing is built yet."""
    return _bundle(p, bound)


@lru_cache(maxsize=None)
def _bundle(p: int, bound: int) -> FixtureBundle:
    return FixtureBundle(p, bound)
