#!/usr/bin/env python3
"""Regenerate the golden files under tests/golden/.

The torsion-pair list for the middle extension-closed subcategory is an
exhaustively computed oracle, the mod Lambda catalog and the torsion
pairs of the whole mod Lambda are the outputs of `extriang catalog
--example51 modLambda` and `extriang torsion enumerate --example51
modLambda`, the README commands file holds the exit code, stdout and
stderr of every command in the README's command block, and the
full-recollement file holds the same for `classify` and `check` on the
full recollement, and the Dynkin-catalog file holds the same for the
file-based `catalog` on the A4 and D4 algebras under tests/algebras, and
the isolated-vertex file holds the same for the file-based `catalog` on
A2 beside a vertex no arrow touches, and the F_3 recollement file holds
the same for `recollement check` and `classify` on both recollements and
the README's `glue` and `restrict` over F_3 at bound 1, and the F_3
torsion-pair file holds the same for `torsion enumerate` on B and on mod
Lambda over F_3 at bound 1, where catalog entries are not the only form of
a module with their dimension vector;
rewriting any of them is an explicit, reviewed act, so
this script is the only thing that touches the files.
"""

import contextlib
import io
import json
import pathlib
import sys

from extriang.cli import main as cli_main
from extriang.excat import enumerate_torsion_pairs, torsion_pairs_to_json
from extriang.fixtures import build_example51

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

B_PAIR = ["--t", "[P1;0]_0", "--f", "[0;P1]_0,[S2;0]_0"]
CANDIDATE = ["--t", "[P1;P1]_1,[0;P1]_0,[S2;0]_0"]

# the README's command block, less the file-based `catalog`
README_COMMANDS = [
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
]

# the full recollement, whose witnesses the README commands never show
FULL_RECOLLEMENT_COMMANDS = [
    ["recollement", "classify", "--example51", "full"],
    ["recollement", "check", "--example51", "full"],
]

# file-based catalogs beyond the bundled algebras; paths are relative to
# the repository root, where they are run
DYNKIN_CATALOG_COMMANDS = [
    ["catalog", "tests/algebras/a4_alternating.alg", "--bound", "2"],
    ["catalog", "tests/algebras/d4_source.alg", "--bound", "2"],
]

# a vertex no arrow touches holds only its simple, which enumeration lists
# apart from the vectors of the other vertices
ISOLATED_CATALOG_COMMANDS = [
    ["catalog", "tests/algebras/a2_isolated.alg", "--bound", "2"],
]

# the recollement commands over F_3 at bound 1, where the six tables are
# smaller but the field is not F_2
F3_BOUND1 = ["--field", "3", "--bound", "1"]
RECOLLEMENT_F3B1_COMMANDS = [
    ["recollement", "check", "--example51", "restricted", *F3_BOUND1],
    ["recollement", "classify", "--example51", "restricted", *F3_BOUND1],
    ["recollement", "check", "--example51", "full", *F3_BOUND1],
    ["recollement", "classify", "--example51", "full", *F3_BOUND1],
    ["glue", "--example51", "--t1", "P1", "--f1", "S2", "--t2", "P1", "--f2", "-", *F3_BOUND1],
    ["restrict", "--example51", *B_PAIR, *F3_BOUND1],
]

# the torsion-pair scans over F_3 at bound 1
TORSION_F3B1_COMMANDS = [
    ["torsion", "enumerate", "--example51", "B", *F3_BOUND1],
    ["torsion", "enumerate", "--example51", "modLambda", *F3_BOUND1],
]


def run_command(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one CLI invocation, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def commands_json(commands: list[list[str]]) -> str:
    return json.dumps([run_command(argv) for argv in commands], indent=2) + "\n"


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    bundle = build_example51(p=2, bound=2)
    pairs = enumerate_torsion_pairs(bundle.b_ext)
    out = GOLDEN / "torsion_pairs_b_ext.json"
    out.write_text(torsion_pairs_to_json(pairs, bundle.b_ext))
    print(f"wrote {out} ({len(pairs)} pairs)")
    out = GOLDEN / "catalog_modlambda.json"
    out.write_text(run_command(["catalog", "--example51", "modLambda"])["stdout"])
    print(f"wrote {out}")
    out = GOLDEN / "torsion_pairs_mod_lambda.json"
    out.write_text(run_command(["torsion", "enumerate", "--example51", "modLambda"])["stdout"])
    print(f"wrote {out}")
    out = GOLDEN / "readme_commands.json"
    out.write_text(commands_json(README_COMMANDS))
    print(f"wrote {out} ({len(README_COMMANDS)} commands)")
    out = GOLDEN / "recollement_full.json"
    out.write_text(commands_json(FULL_RECOLLEMENT_COMMANDS))
    print(f"wrote {out} ({len(FULL_RECOLLEMENT_COMMANDS)} commands)")
    out = GOLDEN / "catalog_dynkin.json"
    with contextlib.chdir(ROOT):
        out.write_text(commands_json(DYNKIN_CATALOG_COMMANDS))
    print(f"wrote {out} ({len(DYNKIN_CATALOG_COMMANDS)} commands)")
    out = GOLDEN / "catalog_isolated.json"
    with contextlib.chdir(ROOT):
        out.write_text(commands_json(ISOLATED_CATALOG_COMMANDS))
    print(f"wrote {out} ({len(ISOLATED_CATALOG_COMMANDS)} commands)")
    out = GOLDEN / "recollement_f3b1.json"
    out.write_text(commands_json(RECOLLEMENT_F3B1_COMMANDS))
    print(f"wrote {out} ({len(RECOLLEMENT_F3B1_COMMANDS)} commands)")
    out = GOLDEN / "torsion_pairs_f3b1.json"
    out.write_text(commands_json(TORSION_F3B1_COMMANDS))
    print(f"wrote {out} ({len(TORSION_F3B1_COMMANDS)} commands)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
