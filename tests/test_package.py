"""The package namespace: lazy public names that load only what they need."""

import importlib
import subprocess
import sys

import pytest

import techcycle


def test_public_names_are_the_submodule_objects():
    assert len(techcycle.__all__) == 40
    for name in techcycle.__all__:
        value = getattr(techcycle, name)
        assert value.__module__.startswith("techcycle.")
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_from_import_of_every_public_name():
    namespace = {}
    exec("from techcycle import *", namespace)
    assert set(techcycle.__all__) <= set(namespace)


def test_dir_lists_the_public_names():
    assert set(techcycle.__all__) <= set(dir(techcycle))


@pytest.mark.parametrize("name", ["serialize_revenue_table", "no_such_name"])
def test_unknown_attribute_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(techcycle, name)


def test_config_import_loads_no_analysis_module(checkout_env):
    code = "import sys, techcycle.config; print(*sorted(m for m in sys.modules if 'techcycle' in m))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=checkout_env, check=True)
    assert result.stdout.split() == [
        "techcycle", "techcycle._record", "techcycle.config", "techcycle.errors",
        "techcycle.market_data",
    ]
