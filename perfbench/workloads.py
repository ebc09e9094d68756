"""The four workloads: their inputs, their operations and their checks.

A workload is built from a seed alone.  `load` imports the program and
`build` makes the state every operation shares; both count as set-up.
`round` lists the operations of one whole round, in a seed-chosen order;
every round holds the same operations.  `run` performs one operation and
returns its output as plain data.  `check` returns the problems of one
output (an empty list when it is right); `check_round` returns the problems
that only a whole round's outputs can show.

Workloads with `forked = True` run each operation in a child forked from a
harness that has only imported the program, so every operation starts with
the program's caches empty, as a fresh command-line process would.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from pathlib import Path

import checks


def _orient(rng: random.Random, edges):
    """Each edge of a Dynkin tree gets a seed-chosen direction."""
    return tuple((s, t) if rng.random() < 0.5 else (t, s) for s, t in edges)


# Dynkin trees on vertices 0..n-1
A2 = (2, ((0, 1),))
A3 = (3, ((0, 1), (1, 2)))
A4 = (4, ((0, 1), (1, 2), (2, 3)))
D4 = (4, ((0, 1), (1, 2), (1, 3)))


def _algebra_text(n: int, arrows) -> str:
    lines = [f"vertex {v + 1}" for v in range(n)]
    lines += [f"arrow a{k} {s + 1} {t + 1}" for k, (s, t) in enumerate(arrows)]
    return "\n".join(lines) + "\n"


class Workload:
    name = ""
    forked = False

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir

    def load(self) -> None:
        pass

    def build(self) -> None:
        pass

    def round(self) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out, context) -> list[str]:
        return []

    def context(self, results) -> dict:
        """Data from a whole round that single checks need."""
        return {}

    def check_round(self, results) -> list[str]:
        return []

    def _shuffled(self, ops: list) -> list:
        ops = list(ops)
        self.rng.shuffle(ops)
        return ops


# -- example51-session --------------------------------------------------------------------

CANDIDATE = "[P1;P1]_1,[0;P1]_0,[S2;0]_0"
B_MEMBERS = ("[P1;0]_0", "[P1;P1]_1", "[S2;0]_0", "[0;P1]_0")


class Session(Workload):
    """Every README command once per round, each through `cli.main` in a
    forked child; two of them exit 1 by design."""

    name = "example51-session"
    forked = True

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.dynkin = (D4[0], _orient(self.rng, D4[1]))
        self.algebra_file = workdir / f"d4-seed{seed}.alg"

    def load(self):
        from extriang import cli
        self.cli = cli

    def round(self):
        self.algebra_file.parent.mkdir(parents=True, exist_ok=True)
        self.algebra_file.write_text(_algebra_text(*self.dynkin))
        commands = [
            ("catalog", ["catalog", "--example51", "modLambda"], 0),
            ("catalog-file", ["catalog", str(self.algebra_file), "--bound", "2"], 0),
            ("torsion-enumerate", ["torsion", "enumerate", "--example51", "B"], 0),
            ("torsion-verify", ["torsion", "verify", "--example51", "B", "--t", "[P1;0]_0",
                                "--f", "[0;P1]_0,[S2;0]_0"], 0),
            ("recollement-check", ["recollement", "check", "--example51", "restricted"], 0),
            ("recollement-classify", ["recollement", "classify", "--example51", "restricted"], 0),
            ("glue", ["glue", "--example51", "--t1", "P1", "--f1", "S2", "--t2", "P1",
                      "--f2", "-"], 0),
            ("restrict", ["restrict", "--example51", "--t", "[P1;0]_0",
                          "--f", "[0;P1]_0,[S2;0]_0"], 0),
            ("cluster-tilting", ["cluster-tilting", "verify", "--t", CANDIDATE], 1),
            ("quotient", ["quotient", "--t", CANDIDATE], 0),
            ("quotient-recollement", ["quotient-recollement", "--t", CANDIDATE, "--force"], 1),
        ]
        return self._shuffled(commands)

    def run(self, op):
        _, argv, _ = op
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = self.cli.main(argv)
        return {"rc": rc, "doc": json.loads(out.getvalue())}

    def context(self, results):
        for op, out in results:
            if op[0] == "catalog" and "doc" in out and not checks.check_directed_catalog(out["doc"]):
                doc = out["doc"]
                return {"dims": checks.catalog_dims(doc), "hom": doc["hom_dims"]}
        return {}

    def check(self, op, out, context):
        kind, _, expected_rc = op
        rc, doc = out["rc"], out["doc"]
        problems = [] if rc == expected_rc else [f"exit code {rc}, expected {expected_rc}"]
        if kind == "catalog":
            return problems + checks.check_directed_catalog(doc)
        if kind == "catalog-file":
            n, arrows = self.dynkin
            return problems + checks.check_dynkin_catalog(checks.catalog_dims(doc), n, arrows, 2)
        if kind == "recollement-check":
            return problems + checks.check_recollement_report(doc)
        if kind == "recollement-classify":
            return problems + checks.check_classification(doc)
        if kind == "restrict":
            result = doc["result"]
            for side in ("a_pair", "c_pair"):
                if result[side]["verdict"].get("valid") is not True:
                    problems.append(f"restricted {side} is not a torsion pair")
            return problems
        labels = doc["labels"]
        b_host = [checks.index_of(labels, name) for name in B_MEMBERS]
        candidate = [checks.index_of(labels, name) for name in CANDIDATE.split(",")]
        projective = checks.index_of(labels, "[P1;0]_0")
        if kind == "cluster-tilting":
            return problems + checks.check_cluster_tilting_report(doc["report"], projective)
        if kind == "quotient":
            return problems + checks.check_quotient(doc["result"], candidate, b_host)
        if kind == "quotient-recollement":
            result = doc["result"]
            if result["constructed"] is not True:
                problems.append("forced quotient recollement not constructed")
            problems += checks.check_cluster_tilting_report(result["cluster_tilting"], projective)
            return problems + checks.check_quotient(result["quotients"]["b"], candidate, b_host)
        if not context:
            return problems + ["no checked modLambda catalog in this round"]
        hom, dims = context["hom"], context["dims"]
        if kind == "torsion-enumerate":
            pairs = doc["pairs"]
            for pair in pairs:
                problems += checks.check_torsion_pair(pair, b_host, hom, dims)
            found = {(tuple(sorted(p["t"])), tuple(sorted(p["f"]))) for p in pairs}
            for trivial in ((), tuple(sorted(b_host))):
                if not any(t == trivial for t, _ in found):
                    problems.append(f"trivial pair with T={list(trivial)} missing")
            if len(found) != len(pairs):
                problems.append("a pair is listed twice")
            return problems
        if kind == "torsion-verify":
            result = doc["result"]
            if result.get("valid") is not True:
                return problems + ["README torsion pair rejected"]
            return problems + checks.check_torsion_pair(result["pair"], b_host, hom, dims)
        if kind == "glue":
            verdict = doc["result"]["verdict"]
            if verdict.get("valid") is not True:
                return problems + ["glued pair is not a torsion pair"]
            return problems + checks.check_torsion_pair(verdict["pair"], b_host, hom, dims)
        return problems + [f"unknown command kind {kind}"]


# -- five-term -----------------------------------------------------------------------


class FiveTerm(Workload):
    """Both five-term Hom/Ext sequences for every (conflation of B_ext,
    indecomposable of mod Lambda) pair."""

    name = "five-term"

    def load(self):
        from extriang import fixtures, homext
        self.fixtures, self.homext = fixtures, homext

    def build(self):
        bundle = self.fixtures.build_example51(2, 2)
        self.ses = [rec.ses for rec in bundle.b_ext.conflations]
        self.objects = list(bundle.mod_lambda.indecs)

    def round(self):
        return self._shuffled(
            (c, x) for c in range(len(self.ses)) for x in range(len(self.objects)))

    def run(self, op):
        ses, x = self.ses[op[0]], self.objects[op[1]]
        return (self.homext.five_term_covariant(ses, x),
                self.homext.five_term_contravariant(ses, x))

    def check(self, op, out, context):
        return checks.check_five_term(*out)


# -- catalog-sweep -------------------------------------------------------------------


class CatalogSweep(Workload):
    """Each operation enumerates one catalog from empty caches.

    A2 over F_7 spends its time in the orbit search; A3 over F_3 and A4,
    D4 and Lambda over F_2 spend it in split tests; Lambda over F_3 and F_5
    at bound 1 let the dimension vectors be compared across primes.  A2
    over F_11 (about 3.5 s, over half of a round) made the figures twice as
    unsteady: one long operation cannot be calibrated inside, and fewer
    rounds fit a run.
    """

    name = "catalog-sweep"
    forked = True
    LAMBDA_PRIMES = ((2, 2), (3, 1), (5, 1))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        dynkin = (("A2", A2, 7), ("A3", A3, 3), ("A4", A4, 2), ("D4", D4, 2))
        self.ops = [("dynkin", name, n, _orient(self.rng, edges), p, 2)
                    for name, (n, edges), p in dynkin]
        self.ops += [("lambda", "Lambda", 4, (), p, bound) for p, bound in self.LAMBDA_PRIMES]

    def load(self):
        from extriang import fixtures, quivrep, recol
        self.fixtures, self.quivrep, self.recol = fixtures, quivrep, recol

    def round(self):
        return self._shuffled(self.ops)

    def run(self, op):
        kind, _, n, arrows, p, bound = op
        q = self.quivrep
        if kind == "lambda":
            algebra = self.recol.build_triangular(self.fixtures.A2_ALGEBRA).algebra
        else:
            algebra = q.Algebra(tuple(str(v + 1) for v in range(n)),
                                tuple(q.Arrow(f"a{k}", str(s + 1), str(t + 1))
                                      for k, (s, t) in enumerate(arrows)))
        catalog = q.enumerate_indecomposables(algebra, bound, p)
        return [list(m.dims) for m in catalog.indecs]

    def check(self, op, out, context):
        kind, _, n, arrows, _, bound = op
        dims = [tuple(d) for d in out]
        if kind == "dynkin":
            return checks.check_dynkin_catalog(dims, n, arrows, bound)
        if len(set(dims)) != len(dims):
            return ["two indecomposables share a dimension vector"]
        return []

    def check_round(self, results):
        by_prime = {op[4]: [tuple(d) for d in out] for op, out in results if op[0] == "lambda"}
        if len(by_prime) != len(self.LAMBDA_PRIMES):
            return ["a Lambda catalog is missing from the round"]
        return checks.check_dims_agree(by_prime, min(b for _, b in self.LAMBDA_PRIMES))


# -- torsion-scan --------------------------------------------------------------------


class TorsionScan(Workload):
    """verify_torsion_pair(T, right perp of T) for every member subset T of
    mod Lambda, B_ext and mod A."""

    name = "torsion-scan"
    # number of torsion pairs of mod A (A = path algebra of A2): the Catalan number C_3
    PAIR_COUNTS = {"full_a": 5}

    def load(self):
        from extriang import excat, fixtures
        self.excat, self.fixtures = excat, fixtures

    def build(self):
        bundle = self.fixtures.build_example51(2, 2)
        self.hosts = {"full_b": bundle.full_b, "b_ext": bundle.b_ext, "full_a": bundle.full_a}
        self.facts = {}
        self.ops = []
        for name, host in self.hosts.items():
            cat = host.catalog
            n = len(cat)
            hom = [[cat.dim_hom(i, j) for j in range(n)] for i in range(n)]
            members = host.indec_indices()
            self.facts[name] = (members, hom, [m.dims for m in cat.indecs])
            for size in range(len(members) + 1):
                for t in itertools.combinations(members, size):
                    f = tuple(sorted(checks.right_perp(t, members, hom)))
                    self.ops.append((name, t, f))

    def round(self):
        return self._shuffled(self.ops)

    def run(self, op):
        name, t, f = op
        host = self.hosts[name]
        sub = self.excat.Subcat.add
        return self.excat.verify_torsion_pair(
            sub(host.catalog, t), sub(host.catalog, f), host).to_json_dict()

    def check(self, op, out, context):
        name, t, f = op
        members, hom, dims = self.facts[name]
        return checks.check_torsion_result(out, t, f, members, hom, dims)

    def check_round(self, results):
        problems = []
        for name, count in self.PAIR_COUNTS.items():
            accepted = sum(1 for op, out in results if op[0] == name and out.get("valid"))
            problems += checks.check_pair_count(accepted, count, name)
        return problems


WORKLOADS = {w.name: w for w in (Session, FiveTerm, CatalogSweep, TorsionScan)}
