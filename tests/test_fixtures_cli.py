"""Fixture bundle determinism and the command line surface."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from extriang import cli, fixtures, quivrep
from extriang.cli import main
from extriang.excat import Subcat, enumerate_torsion_pairs
from extriang.fixtures import FixtureBundle, build_example51
from oracles import dump_algebra_text, is_indecomposable


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_cli_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_bundle_is_deterministic(bundle):
    again = FixtureBundle(p=2, bound=2)  # not the cached bundle
    assert again.mod_a.to_json_dict() == bundle.mod_a.to_json_dict()
    assert again.mod_lambda.to_json_dict() == bundle.mod_lambda.to_json_dict()
    assert again.lambda_names == bundle.lambda_names


def test_every_call_form_gives_the_one_bundle(bundle):
    forms = [build_example51(), build_example51(2, 2), build_example51(p=2, bound=2),
             build_example51(bound=2, p=2), build_example51(2, bound=2)]
    assert all(b is bundle for b in forms)
    assert build_example51(3, 1) is build_example51(bound=1, p=3) is not bundle


def test_bundle_builds_only_what_is_read(monkeypatch):
    enumerated = []
    real = fixtures.enumerate_indecomposables

    def spy(algebra, *args):
        enumerated.append(algebra)
        return real(algebra, *args)

    monkeypatch.setattr(fixtures, "enumerate_indecomposables", spy)
    bundle = FixtureBundle(3, 2)
    assert enumerated == []
    # torsion pairs of mod A (A the path algebra of A2): the Catalan number C_3
    assert len(enumerate_torsion_pairs(bundle.full_a)) == 5
    assert enumerated == [fixtures.A2_ALGEBRA]


def test_named_objects_resolve(bundle):
    m = bundle.mod_lambda.indecs[bundle.lambda_names["[P1;P1]_1"]]
    assert m.dims == (1, 1, 1, 1)
    assert is_indecomposable(m)
    # every display label of the worked example resolves
    for label in ("[P1;0]_0", "[0;S2]_0", "[S1;S1]_1", "[S2;0]_0", "[P1;S2]_f",
                  "[P1;P1]_1", "[S1;P1]_g", "[0;S1]_0", "[S1;0]_0", "[0;P1]_0",
                  "[S2;S2]_1"):
        assert label in bundle.lambda_names
    # the one display label that cannot name an indecomposable is documented
    assert "[S2;S2]_0" not in bundle.lambda_names
    assert any("[S2;S2]_1" in note for note in bundle.notes)


def test_c_ext_has_one_indec(bundle):
    assert len(bundle.c_ext.indec_indices()) == 1


def test_lambda_algebra_text_round_trip(bundle, tmp_path):
    text = dump_algebra_text(bundle.lambda_algebra)
    from extriang.quivrep import parse_algebra_text
    assert parse_algebra_text(text) == bundle.lambda_algebra
    assert dump_algebra_text(parse_algebra_text(text)) == text


def test_cli_catalog_example(capsys):
    code, payload = run_cli_json(capsys, "catalog", "--example51", "modLambda")
    assert code == 0
    assert payload["schema"] == 1
    assert payload["count"] == 11
    code, payload = run_cli_json(capsys, "catalog", "--example51", "modA")
    assert code == 0 and payload["count"] == 3


def test_cli_catalog_from_file(capsys, tmp_path, bundle):
    path = tmp_path / "lambda.alg"
    path.write_text(dump_algebra_text(bundle.lambda_algebra))
    code, payload = run_cli_json(capsys, "catalog", str(path))
    assert code == 0 and payload["count"] == 11


def test_cli_catalog_bad_file(tmp_path):
    path = tmp_path / "bad.alg"
    path.write_text("vertex 1\nvertex 2\narrow a 1 2\nbogus\n")
    proc = subprocess.run(
        [sys.executable, "-m", "extriang", "catalog", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "line 4" in proc.stderr


def test_cli_exits_quietly_when_its_reader_has_gone():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "extriang", "catalog", "--example51", "modA"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_cli_recollement_check(capsys):
    for which in ("restricted", "full"):
        code, payload = run_cli_json(capsys, "recollement", "check", "--example51", which)
        assert code == 0
        assert payload["report"]["pass"] is True


def test_cli_recollement_classify(capsys):
    code, payload = run_cli_json(capsys, "recollement", "classify", "--example51", "restricted")
    assert code == 0
    labels = {name: rec["label"] for name, rec in payload["classifications"].items()}
    assert labels["i_upper_star"] == "right_exact"
    assert labels["i_upper_shriek"] == "exact"


def test_cli_glue(capsys, bundle):
    code, payload = run_cli_json(
        capsys, "glue", "--example51", "--t1", "P1", "--f1", "S2", "--t2", "P1", "--f2", "-")
    assert code == 0
    result = payload["result"]
    names = bundle.lambda_names
    assert sorted(result["t"]) == sorted(
        [names["[P1;0]_0"], names["[P1;P1]_1"], names["[0;P1]_0"]])
    assert result["f"] == [names["[S2;0]_0"]]
    assert result["verdict"]["valid"] is True
    assert result["hypothesis"]["i_upper_star_exact"] is False


def test_cli_glue_rejects_non_pair(capsys):
    code, payload = run_cli_json(
        capsys, "glue", "--example51", "--t1", "P1", "--f1", "P1", "--t2", "P1", "--f2", "-")
    assert code == 1
    assert "error" in payload


def test_cli_torsion_enumerate_and_verify(capsys, golden_torsion_pairs):
    code, payload = run_cli_json(capsys, "torsion", "enumerate", "--example51", "B")
    assert code == 0
    golden = json.loads(golden_torsion_pairs)
    assert payload["pairs"] == golden["pairs"]
    code, _ = run_cli_json(
        capsys, "torsion", "verify", "--example51", "B",
        "--t", "[P1;0]_0", "--f", "[0;P1]_0,[S2;0]_0")
    assert code == 0
    code, _ = run_cli_json(
        capsys, "torsion", "verify", "--example51", "B",
        "--t", "[S2;0]_0", "--f", "[0;P1]_0")
    assert code == 1


def test_cli_restrict(capsys, bundle):
    code, payload = run_cli_json(
        capsys, "restrict", "--example51",
        "--t", "[P1;0]_0", "--f", "[0;P1]_0,[S2;0]_0")
    assert code == 0
    res = payload["result"]
    assert res["a_pair"]["t"] == [bundle.a_names["P1"]]
    assert res["a_pair"]["f"] == [bundle.a_names["S2"]]
    assert res["c_pair"]["t"] == []
    assert res["c_pair"]["f"] == [bundle.a_names["P1"]]
    assert all(res["hypotheses"].values())


def test_cli_cluster_tilting(capsys):
    code, payload = run_cli_json(
        capsys, "cluster-tilting", "verify",
        "--t", "[P1;P1]_1,[0;P1]_0,[S2;0]_0")
    assert code == 1
    assert payload["report"]["rigid"] is True
    assert payload["report"]["approximation_failures"]


def test_cli_quotient(capsys, bundle):
    code, payload = run_cli_json(
        capsys, "quotient", "--t", "[P1;P1]_1,[0;P1]_0,[S2;0]_0")
    assert code == 0
    assert payload["result"]["surviving"] == [bundle.lambda_names["[P1;0]_0"]]


def test_cli_quotient_recollement(capsys):
    code, payload = run_cli_json(
        capsys, "quotient-recollement", "--t", "[P1;P1]_1,[0;P1]_0,[S2;0]_0")
    assert code == 1
    assert payload["result"]["constructed"] is False
    code, payload = run_cli_json(
        capsys, "quotient-recollement", "--force", "--t", "[P1;P1]_1,[0;P1]_0,[S2;0]_0")
    assert payload["result"]["constructed"] is True


def test_cli_unknown_label(capsys):
    code = main(["torsion", "verify", "--example51", "B", "--t", "NOPE", "--f", "-"])
    assert code == 2


@pytest.mark.parametrize("which, token, message", [
    ("--f", "nonsense", "unknown object label 'nonsense'"),
    ("--t", "99", "catalog index 99 out of range"),
    ("--t", "(a,b)", "dimension vector '(a,b)' is not a list of integers"),
])
def test_cli_object_label_errors_are_plain(capsys, which, token, message):
    argv = {"--t": "[P1;0]_0", "--f": "-"}
    argv[which] = token
    code = main(["restrict", "--example51", "--t", argv["--t"], "--f", argv["--f"]])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"input error: {message}\n")


def test_cli_member_outside_category(capsys):
    # [S1;0] exists in the catalog but is not a member of the middle subcategory
    code = main(["torsion", "verify", "--example51", "B", "--t", "[S1;0]_0", "--f", "-"])
    assert code == 2


def test_cli_catalog_other_fields(capsys):
    # the indecomposable counts of both bundled algebras are field independent
    code, payload = run_cli_json(capsys, "catalog", "--example51", "modA", "--field", "3")
    assert code == 0 and payload["count"] == 3
    code, payload = run_cli_json(capsys, "catalog", "--example51", "modLambda",
                                 "--field", "3", "--bound", "1")
    assert code == 0 and payload["count"] == 11


def test_cli_refuses_prime_outside_exact_range(capsys):
    code = main(["catalog", "--example51", "modA", "--field", "4294967311", "--bound", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "too large" in captured.err


def test_cli_refuses_a_tuple_grid_beyond_the_ceiling(capsys):
    # the prime is inside the exact range, but the (1, 1) grid has p cells
    code = main(["catalog", "--example51", "modA", "--field", "2147483647", "--bound", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "{'1': 1, '2': 1} has 2147483647 arrow-matrix tuples" in captured.err


def test_cli_refuses_a_huge_bound_at_once(capsys, tmp_path):
    algebra_file = tmp_path / "a2.alg"
    algebra_file.write_text("vertex 1\nvertex 2\narrow a 1 2\n")
    start = time.perf_counter()
    code = main(["catalog", str(algebra_file), "--bound", "1000"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and elapsed < 1
    # 2**1000000 has too many digits for Python to write out
    assert "{'1': 1000, '2': 1000} has 2**1000000 arrow-matrix tuples" in captured.err


def test_cli_catalog_of_isolated_vertices_at_a_huge_bound(capsys, tmp_path):
    # a vertex no arrow touches holds only its simple, so no vector with
    # more than one nonzero entry is listed: not the 1001**3 of them
    algebra_file = tmp_path / "points.alg"
    algebra_file.write_text("vertex 1\nvertex 2\nvertex 3\n")
    start = time.perf_counter()
    code, payload = run_cli_json(capsys, "catalog", str(algebra_file), "--bound", "1000")
    elapsed = time.perf_counter() - start
    assert code == 0 and elapsed < 2
    assert payload["count"] == 3
    assert [m["dims"] for m in payload["indecs"]] == [
        {"1": 0, "2": 0, "3": 1}, {"1": 0, "2": 1, "3": 0}, {"1": 1, "2": 0, "3": 0}]


@pytest.mark.parametrize("text, expected", [
    ("vertex 0\nvertex 1\nvertex 2\narrow a 1 2\n", "{'0': 0, '1': 5, '2': 5} has 33554432"),
    ("vertex 1\nvertex 2\nvertex 3\narrow a 1 2\narrow b 1 2\n",
     "{'1': 5, '2': 5, '3': 0} has 1125899906842624"),
], ids=["A2-isolated-first", "Kronecker-isolated-last"])
def test_cli_refusal_names_the_first_widest_vector(capsys, tmp_path, text, expected):
    # the vector the search over every dimension vector named; an isolated
    # vertex stays at 0 however large the bound
    algebra_file = tmp_path / "iso.alg"
    algebra_file.write_text(text)
    code = main(["catalog", str(algebra_file), "--bound", "5"])
    captured = capsys.readouterr()
    assert code == 2 and f"dimension vector {expected} arrow-matrix tuples" in captured.err


def test_catalog_command_solves_each_hom_basis_once(capsys, monkeypatch):
    calls, ranks = [], []
    real, real_rank = quivrep.hom_basis, quivrep.dim_hom

    def spy(m, n):
        calls.append((m, n))
        return real(m, n)

    def rank_spy(m, n):
        ranks.append((m, n))
        return real_rank(m, n)

    monkeypatch.setattr(quivrep, "hom_basis", spy)
    monkeypatch.setattr(quivrep, "dim_hom", rank_spy)
    monkeypatch.setattr(cli, "build_example51", FixtureBundle)  # not the cached bundle
    code, payload = run_cli_json(capsys, "catalog", "--example51", "modLambda")
    assert code == 0 and payload["count"] == 11
    # hom_dims reads the dimension of every pair of mod Lambda's
    # indecomposables off the ranks the enumeration's orbit counts solved,
    # one per pair, and solves no basis (it solved 121); the other calls
    # decompose mod A objects for the labels
    on_lambda = [(m, n) for m, n in calls if len(m.dims) == 4]
    ranks_on_lambda = [(m, n) for m, n in ranks if len(m.dims) == 4]
    assert on_lambda == []
    assert len(ranks_on_lambda) == len(set(ranks_on_lambda)) == 121


def test_cli_catalog_one_vertex_at_a_large_prime(capsys, tmp_path):
    algebra_file = tmp_path / "point.alg"
    algebra_file.write_text("vertex 1\n")
    code, payload = run_cli_json(capsys, "catalog", str(algebra_file),
                                 "--field", "2147483647", "--bound", "1")
    assert code == 0 and payload["count"] == 1


def test_cli_torsion_on_mod_a_leaves_mod_lambda_unbuilt(capsys):
    # mod Lambda's grids over F_3 at bound 2 are past the ceiling; mod A's are not
    code, payload = run_cli_json(capsys, "torsion", "enumerate", "--example51", "modA",
                                 "--field", "3", "--bound", "2")
    assert code == 0 and len(payload["pairs"]) == 5


def test_readme_commands_match_golden(capsys, golden_readme_commands):
    for entry in golden_readme_commands:
        code = main(entry["argv"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == \
            (entry["exit_code"], entry["stdout"], entry["stderr"]), entry["argv"]


def test_full_recollement_commands_match_golden(capsys, golden_recollement_full):
    # classify and check on the full recollement, witnesses included
    assert [entry["argv"][1] for entry in golden_recollement_full] == ["classify", "check"]
    for entry in golden_recollement_full:
        code = main(entry["argv"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == \
            (entry["exit_code"], entry["stdout"], entry["stderr"]), entry["argv"]


def test_file_catalogs_match_golden(capsys, monkeypatch, golden_catalog_dynkin):
    # A4 and D4 from algebra files; their paths are relative to the repository root
    monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
    assert [json.loads(entry["stdout"])["count"] for entry in golden_catalog_dynkin] == [10, 12]
    for entry in golden_catalog_dynkin:
        code = main(entry["argv"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == \
            (entry["exit_code"], entry["stdout"], entry["stderr"]), entry["argv"]


def test_isolated_vertex_catalog_matches_golden(capsys, monkeypatch, golden_catalog_isolated):
    # A2 beside a vertex no arrow touches: the golden file was written by
    # the enumeration that listed every dimension vector
    monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
    (entry,) = golden_catalog_isolated
    assert json.loads(entry["stdout"])["count"] == 4
    code = main(entry["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (entry["exit_code"], entry["stdout"], entry["stderr"])


def test_cli_catalog_modlambda_matches_golden(capsys, golden_catalog_modlambda):
    code, out = run_cli(capsys, "catalog", "--example51", "modLambda")
    assert code == 0 and out == golden_catalog_modlambda


def test_cli_torsion_enumerate_modlambda_matches_golden(capsys, golden_torsion_pairs_mod_lambda):
    # every member subset of mod Lambda, with the witness of each object
    code, out = run_cli(capsys, "torsion", "enumerate", "--example51", "modLambda")
    assert code == 0 and out == golden_torsion_pairs_mod_lambda


def test_torsion_enumerate_over_f3_matches_golden(capsys, golden_torsion_pairs_f3b1):
    # over F_3 a module has forms other than its catalog entry, so the
    # witnesses' parts must come from decompositions of their ends
    assert [entry["argv"][3] for entry in golden_torsion_pairs_f3b1] == ["B", "modLambda"]
    for entry in golden_torsion_pairs_f3b1:
        code = main(entry["argv"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == \
            (entry["exit_code"], entry["stdout"], entry["stderr"]), entry["argv"]


def test_cli_error_paths_match_golden(capsys, golden_cli_errors):
    # inputs that are not torsion pairs print an error document and exit 1;
    # an unknown name is read before any pair is verified, and exits 2
    assert [entry["exit_code"] for entry in golden_cli_errors] == [1, 1, 2, 1, 2, 2, 2, 0]
    for entry in golden_cli_errors:
        code = main(entry["argv"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == \
            (entry["exit_code"], entry["stdout"], entry["stderr"]), entry["argv"]


def test_example51_report_matches_golden(capsys, golden_example51_report):
    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "example51_report.py"
    spec = importlib.util.spec_from_file_location("example51_report", script)
    report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report)
    assert report.main() == 0
    assert capsys.readouterr().out == golden_example51_report


def test_subcat_spec_dimension_vector_patterns(bundle):
    sub = bundle.parse_subcat("(1,1,0,0),(0,0,1,1)", bundle.mod_lambda)
    assert sub.members == {bundle.lambda_names["[P1;0]_0"], bundle.lambda_names["[0;P1]_0"]}
    sub2 = bundle.parse_subcat("(1,1)", bundle.mod_a)
    assert sub2.members == {bundle.a_names["P1"]}


def test_index_zero_is_an_object_not_the_zero_subcategory(bundle):
    cat = bundle.mod_lambda
    assert bundle.parse_subcat("0", cat) == bundle.parse_subcat("0,0", cat) == Subcat.add(cat, [0])
    assert bundle.parse_subcat("-", cat) == bundle.parse_subcat("", cat) == Subcat.zero(cat)


def _square_file(tmp_path, coeff: int) -> str:
    """The commutative square with relation coeff*(b.a - d.c)."""
    path = tmp_path / f"square{coeff}.alg"
    path.write_text("vertex 1\nvertex 2\nvertex 3\nvertex 4\narrow a 1 2\narrow b 2 4\n"
                    f"arrow c 1 3\narrow d 3 4\nrelation {coeff}*b.a + -{coeff}*d.c\n")
    return str(path)


@pytest.mark.parametrize("p", [3, 7])
def test_relation_coefficients_are_read_mod_p(capsys, tmp_path, p):
    # coefficients whose products with a matrix entry pass int64, and ones past it
    for coeff in (6000000000000000000, 6000000000000000001, 10**19, 10**19 + 1):
        code, got = run_cli_json(capsys, "catalog", _square_file(tmp_path, coeff),
                                 "--field", str(p), "--bound", "1")
        code_reduced, want = run_cli_json(capsys, "catalog", _square_file(tmp_path, coeff % p),
                                          "--field", str(p), "--bound", "1")
        assert code == code_reduced == 0
        assert {k: v for k, v in got.items() if k != "algebra"} == \
            {k: v for k, v in want.items() if k != "algebra"}, coeff
    # 6000000000000000001 is 0 mod 7: the square then has no relation at all
    _, killed = run_cli_json(capsys, "catalog", _square_file(tmp_path, 6000000000000000001),
                             "--field", "7", "--bound", "1")
    _, free = run_cli_json(capsys, "catalog", _square_file(tmp_path, 0), "--field", "7", "--bound", "1")
    assert killed["count"] == free["count"] == 22


def test_cli_pretty_renders(capsys):
    code, out = run_cli(capsys, "catalog", "--example51", "modA", "--pretty")
    assert code == 0
    assert "count: 3" in out
