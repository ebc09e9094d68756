#!/usr/bin/env python3
"""Regenerate the golden files under tests/golden/.

Each file in `STDOUT_FILES` holds the stdout of one CLI command, and each
file in `COMMAND_FILES` holds the exit code, stdout and stderr of every
command listed for it; the commands run from the repository root.  Two
files stand apart: `torsion_pairs_b_ext.json`, the exhaustively computed
torsion-pair list of the middle extension-closed subcategory, and
`example51_report.txt`, the stdout of scripts/example51_report.py.
Rewriting any of them is an explicit, reviewed act, so this script is the
only thing that touches the files.
"""

import contextlib
import io
import json
import os
import pathlib
import sys

import example51_report
from extriang.cli import main as cli_main
from extriang.excat import enumerate_torsion_pairs, torsion_pairs_to_json
from extriang.fixtures import build_example51

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

B_PAIR = ["--t", "[P1;0]_0", "--f", "[0;P1]_0,[S2;0]_0"]
CANDIDATE = ["--t", "[P1;P1]_1,[0;P1]_0,[S2;0]_0"]
F3_BOUND1 = ["--field", "3", "--bound", "1"]

STDOUT_FILES = {
    "catalog_modlambda.json": ["catalog", "--example51", "modLambda"],
    "torsion_pairs_mod_lambda.json": ["torsion", "enumerate", "--example51", "modLambda"],
}

COMMAND_FILES = {
    # the README's command block, less the file-based `catalog`
    "readme_commands.json": [
        ["catalog", "--example51", "modLambda"],
        ["torsion", "enumerate", "--example51", "B"],
        ["torsion", "verify", "--example51", "B", *B_PAIR],
        ["recollement", "check", "--example51", "restricted"],
        ["recollement", "classify", "--example51", "restricted"],
        ["glue", "--example51", "--t1", "P1", "--f1", "S2", "--t2", "P1", "--f2", "-"],
        ["restrict", "--example51", *B_PAIR],
        ["cluster-tilting", "verify", *CANDIDATE],
        ["quotient", *CANDIDATE],
        ["quotient-recollement", *CANDIDATE],
        ["quotient-recollement", *CANDIDATE, "--force"],
    ],
    # the full recollement, whose witnesses the README commands never show
    "recollement_full.json": [
        ["recollement", "classify", "--example51", "full"],
        ["recollement", "check", "--example51", "full"],
    ],
    # file-based catalogs beyond the bundled algebras
    "catalog_dynkin.json": [
        ["catalog", "tests/algebras/a4_alternating.alg", "--bound", "2"],
        ["catalog", "tests/algebras/d4_source.alg", "--bound", "2"],
    ],
    # the same catalogs over F_3, where counting orbits leaves the most grids
    # unlabelled: D4's widest grid alone has 3**12 tuples
    "catalog_dynkin_f3.json": [
        ["catalog", "tests/algebras/a4_alternating.alg", "--field", "3", "--bound", "2"],
        ["catalog", "tests/algebras/d4_source.alg", "--field", "3", "--bound", "2"],
    ],
    # a vertex no arrow touches holds only its simple, which enumeration lists
    # apart from the vectors of the other vertices
    "catalog_isolated.json": [
        ["catalog", "tests/algebras/a2_isolated.alg", "--bound", "2"],
    ],
    # the recollement commands over F_3 at bound 1, where the six tables are
    # smaller but the field is not F_2
    "recollement_f3b1.json": [
        ["recollement", "check", "--example51", "restricted", *F3_BOUND1],
        ["recollement", "classify", "--example51", "restricted", *F3_BOUND1],
        ["recollement", "check", "--example51", "full", *F3_BOUND1],
        ["recollement", "classify", "--example51", "full", *F3_BOUND1],
        ["glue", "--example51", "--t1", "P1", "--f1", "S2", "--t2", "P1", "--f2", "-", *F3_BOUND1],
        ["restrict", "--example51", *B_PAIR, *F3_BOUND1],
    ],
    # the torsion-pair scans over F_3 at bound 1, where catalog entries are
    # not the only form of a module with their dimension vector
    "torsion_pairs_f3b1.json": [
        ["torsion", "enumerate", "--example51", "B", *F3_BOUND1],
        ["torsion", "enumerate", "--example51", "modLambda", *F3_BOUND1],
    ],
    # the paths the README commands miss: inputs that are not torsion pairs
    # (exit 1), unknown names (exit 2) and the --pretty rendering
    "cli_errors.json": [
        ["glue", "--example51", "--t1", "P1", "--f1", "P1", "--t2", "P1", "--f2", "-"],
        ["glue", "--example51", "--t1", "P1", "--f1", "S2", "--t2", "-", "--f2", "-"],
        ["glue", "--example51", "--t1", "P1", "--f1", "P1", "--t2", "nosuch", "--f2", "-"],
        ["restrict", "--example51", "--t", "[P1;0]_0", "--f", "-"],
        ["torsion", "enumerate", "--example51", "X"],
        ["torsion", "verify", "--example51", "B", "--t", "nosuch"],
        ["quotient", "--example51", "modA", "--t", "[P1;P1]_1"],
        ["catalog", "--example51", "modA", "--pretty"],
    ],
}


def run_command(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one CLI invocation, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    bundle = build_example51(p=2, bound=2)
    pairs = enumerate_torsion_pairs(bundle.b_ext)
    (GOLDEN / "torsion_pairs_b_ext.json").write_text(torsion_pairs_to_json(pairs, bundle.b_ext))
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        example51_report.main()
    (GOLDEN / "example51_report.txt").write_text(report.getvalue())
    # os.chdir rather than contextlib.chdir, which needs Python 3.11
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for name, argv in STDOUT_FILES.items():
            (GOLDEN / name).write_text(run_command(argv)["stdout"])
        for name, commands in COMMAND_FILES.items():
            runs = [run_command(argv) for argv in commands]
            (GOLDEN / name).write_text(json.dumps(runs, indent=2) + "\n")
    finally:
        os.chdir(cwd)
    names = ["torsion_pairs_b_ext.json", "example51_report.txt", *STDOUT_FILES, *COMMAND_FILES]
    print(f"wrote {len(names)} files under {GOLDEN}: {', '.join(names)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
