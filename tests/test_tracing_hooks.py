"""The benchmark's per-layer trace hooks name functions that exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_trace_hook_resolves_to_a_callable():
    # a refactor that renames or removes a hooked function would turn the
    # per-layer metrics that depend on it into nulls without failing a run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.HOOKS
    for module, attribute, *_ in tracing.HOOKS:
        assert callable(getattr(importlib.import_module(module), attribute, None)), (
            module,
            attribute,
        )
