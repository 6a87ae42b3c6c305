"""The benchmark's traced mode wraps library functions by name; keep them there."""

import importlib.util
from pathlib import Path

TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"


def test_traced_names_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)  # imports only; main runs under __main__
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr in traced_cli.WRAPPED
        if not callable(getattr(module, attr, None))
    ]
    assert not missing
