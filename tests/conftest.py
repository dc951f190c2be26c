import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "gridsim" / "data"
CASES = DATA / "cases"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# one PASS/FAIL line per acceptance criterion, appended as each runs
VERDICTS: list[str] = []


@pytest.fixture
def case_path():
    def _path(name: str) -> pathlib.Path:
        return CASES / f"{name}.m"

    return _path
