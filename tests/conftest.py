import os
from pathlib import Path

import pytest

from techcycle.config import default_data_dir, load_reference
from techcycle.report import load_dataset


@pytest.fixture(scope="session")
def data_dir():
    return default_data_dir()


@pytest.fixture(scope="session")
def dataset(data_dir):
    return load_dataset(data_dir / "riaa_revenue.csv", data_dir / "cpi.csv", data_dir / "groups.cfg")


@pytest.fixture(scope="session")
def reference(data_dir):
    return load_reference(data_dir / "reference.cfg")


@pytest.fixture()
def checkout_env():
    """Environment for a child interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
