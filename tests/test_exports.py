import importlib

import pytest

PACKAGES = [
    "gridsim.core",
    "gridsim.network",
    "gridsim.powerflow",
    "gridsim.opf",
    "gridsim.simlib",
    "gridsim.simulation",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
