"""The package root, which defines no analysis name, so importing one
submodule loads only what that one needs; the few places that catch the
package's own errors; the one place the CLI prints; and the one way a
config reader names its file."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import techcycle
from techcycle import errors


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


def test_cli_import_loads_no_heavy_module(checkout_env):
    # dataclasses alone pulls in inspect, ast, dis and tokenize; every CLI
    # run pays for what this import loads
    code = "import sys, techcycle.cli; print(*sorted(sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=checkout_env, check=True)
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "statistics", "decimal",
             "fractions", "numpy", "scipy"}
    assert heavy & set(result.stdout.split()) == set()


ERROR_NAMES = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.TechCycleError)}


def _error_handlers(node, scope):
    """The ``module.function`` scope of each ``except`` below ``node`` that
    names one of the package's error classes."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        if isinstance(child, ast.ExceptHandler) and child.type is not None:
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(child.type)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if names & ERROR_NAMES:
                yield scope
        yield from _error_handlers(child, inner)


def test_package_errors_are_caught_in_three_places_only():
    # located() prefixes where an error came from, main() maps it to an exit
    # code, and recovery_experiment() turns a failed fit into a WindowError
    package = Path(techcycle.__file__).parent
    found = {where for path in sorted(package.glob("*.py"))
             for where in _error_handlers(ast.parse(path.read_text()), path.stem)}
    assert found == {"cli.main", "errors.located", "synthlab.recovery_experiment"}


def _calls(node):
    """The name of each function or method called below ``node``."""
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, (ast.Name, ast.Attribute))}


def test_cli_output_leaves_through_main_only():
    # handlers return their text, main prints it, and report.py writes every file
    tree = ast.parse((Path(techcycle.__file__).parent / "cli.py").read_text())
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert {name for name, node in functions.items() if "print" in _calls(node)} == {"main"}
    handlers = [node for name, node in functions.items() if name.startswith("cmd_")]
    assert len(handlers) == 6
    for node in handlers:
        assert not _calls(node) & {"write_text", "write_bytes", "mkdir", "open"}, node.name


def test_config_messages_leave_the_file_name_to_located():
    # each reader wraps its checks in located(path), which prefixes the file;
    # a message that wrote path itself would name the file twice
    tree = ast.parse((Path(techcycle.__file__).parent / "config.py").read_text())
    raises = [node for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc]
    assert raises
    assert [node.lineno for node in raises
            if any(isinstance(name, ast.Name) and name.id == "path"
                   for name in ast.walk(node.exc))] == []
