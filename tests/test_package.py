"""What the package ships: its public names resolve, the process-sequence
reference stays on the test side, and every function the benchmark's
tracer wraps still exists."""

import ast
import importlib
from pathlib import Path

import pytest

import netbisim

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_functions() -> list[tuple[str, str]]:
    """The (module, function) pairs of the tracer's TRACED table, read
    from its source without running it."""
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED" for t in node.targets)):
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError(f"no TRACED table in {TRACING}")


def test_every_public_name_resolves():
    assert len(set(netbisim.__all__)) == len(netbisim.__all__)
    missing = [name for name in netbisim.__all__ if not hasattr(netbisim, name)]
    assert not missing


def test_process_sequences_are_not_shipped():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("netbisim.processes")


def test_every_traced_function_resolves():
    """The tracer looks each function up with getattr on the imported
    package, so a missing one breaks every traced benchmark run."""
    traced = traced_functions()
    assert traced
    for modname, fname in traced:
        assert callable(getattr(getattr(netbisim, modname), fname)), (modname, fname)
