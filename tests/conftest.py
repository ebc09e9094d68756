import json
import pathlib

import pytest

from extriang.fixtures import build_example51

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def bundle():
    return build_example51(p=2, bound=2)


@pytest.fixture(scope="session")
def b_indices(bundle):
    n = bundle.lambda_names
    return {
        "P1;0": n["[P1;0]_0"],
        "P1;P1": n["[P1;P1]_1"],
        "S2;0": n["[S2;0]_0"],
        "0;P1": n["[0;P1]_0"],
    }


@pytest.fixture(scope="session")
def golden_torsion_pairs():
    return (GOLDEN_DIR / "torsion_pairs_b_ext.json").read_text()


@pytest.fixture(scope="session")
def golden_catalog_modlambda():
    return (GOLDEN_DIR / "catalog_modlambda.json").read_text()


@pytest.fixture(scope="session")
def golden_torsion_pairs_mod_lambda():
    return (GOLDEN_DIR / "torsion_pairs_mod_lambda.json").read_text()


@pytest.fixture(scope="session")
def golden_readme_commands():
    return json.loads((GOLDEN_DIR / "readme_commands.json").read_text())


@pytest.fixture(scope="session")
def golden_recollement_full():
    return json.loads((GOLDEN_DIR / "recollement_full.json").read_text())


@pytest.fixture(scope="session")
def golden_catalog_dynkin():
    return json.loads((GOLDEN_DIR / "catalog_dynkin.json").read_text())


@pytest.fixture(scope="session")
def golden_catalog_isolated():
    return json.loads((GOLDEN_DIR / "catalog_isolated.json").read_text())


@pytest.fixture(scope="session")
def golden_torsion_pairs_f3b1():
    return json.loads((GOLDEN_DIR / "torsion_pairs_f3b1.json").read_text())


@pytest.fixture(scope="session")
def golden_cli_errors():
    return json.loads((GOLDEN_DIR / "cli_errors.json").read_text())


@pytest.fixture(scope="session")
def golden_example51_report():
    return (GOLDEN_DIR / "example51_report.txt").read_text()
