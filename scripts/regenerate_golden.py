#!/usr/bin/env python3
"""Regenerate the golden files under tests/golden/.

The torsion-pair list for the middle extension-closed subcategory is an
exhaustively computed oracle, and the mod Lambda catalog is the output of
`extriang catalog --example51 modLambda`; rewriting either is an explicit,
reviewed act, so this script is the only thing that touches the files.
"""

import contextlib
import io
import pathlib
import sys

from extriang.cli import main as cli_main
from extriang.excat import enumerate_torsion_pairs, torsion_pairs_to_json
from extriang.fixtures import build_example51

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    bundle = build_example51(p=2, bound=2)
    pairs = enumerate_torsion_pairs(bundle.b_ext)
    out = GOLDEN / "torsion_pairs_b_ext.json"
    out.write_text(torsion_pairs_to_json(pairs, bundle.b_ext))
    print(f"wrote {out} ({len(pairs)} pairs)")
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        cli_main(["catalog", "--example51", "modLambda"])
    out = GOLDEN / "catalog_modlambda.json"
    out.write_text(text.getvalue())
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
