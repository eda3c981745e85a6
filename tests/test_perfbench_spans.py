"""The traced benchmark run wraps package attributes by name; each one must
still be defined where ``perfbench/spans.py`` looks for it."""

import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Executed from its source text, so nothing is written next to it.
spans = types.ModuleType("perfbench_spans")
exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), vars(spans))


@pytest.mark.parametrize("name, owner, attr", [t[:3] for t in spans._TARGETS], ids=[t[0] for t in spans._TARGETS])
def test_trace_target_is_defined_on_its_owner(name, owner, attr):
    assert attr in vars(spans._owners()[owner]), f"{name}: {owner}.{attr} is gone"
