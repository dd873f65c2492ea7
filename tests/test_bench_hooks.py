"""The benchmark's tracer still finds every function it times."""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_tracer_hook_resolves():
    # a hook whose target is renamed away silently drops its per-layer
    # metrics; run_path compiles the file without writing bytecode
    # beside it
    hooks = runpy.run_path(str(TRACER))["HOOKS"]
    assert len(hooks) >= 10
    missing = [f"{module}.{name}" for module, name, _ in hooks
               if not callable(getattr(
                   importlib.import_module(f"cellpp.{module}"), name, None))]
    assert missing == []
