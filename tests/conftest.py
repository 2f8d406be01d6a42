import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def oracle():
    """The benchmark's scipy reference, ``perfbench/oracle.py`` (Shieh 2020),
    loaded by path: ``perfbench`` is a directory of scripts, not a package."""
    pytest.importorskip("scipy")
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
