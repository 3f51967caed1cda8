"""The benchmark in perfbench/ patches tilewalsh functions by name and
clears the walsh() cache between set-ups; a rename in the library must
fail here rather than crash a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "mod, attr", spans.OP_TARGETS + spans.SETUP_TARGETS, ids=lambda x: str(x)
)
def test_traced_target_resolves(mod, attr):
    obj = importlib.import_module(f"tilewalsh.{mod}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_walsh_cache_can_be_cleared():
    import tilewalsh.walsh

    assert callable(tilewalsh.walsh.walsh.cache_clear)
