"""The benchmark in perfbench/ patches tilewalsh functions by name, clears
the walsh() cache between set-ups and checks each result against a
recorded digest; a rename in the library or a drift in its output bytes
must fail here rather than in a benchmark run."""

import importlib
import importlib.util
import json
import sys
import warnings
from pathlib import Path

import pytest

from tilewalsh.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


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


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed0_digests(workload, tmp_path):
    """Instances 0 and 1 of the default seed through the CLI, checked as
    the benchmark checks them against perfbench/digests.json."""
    recorded = json.loads((BENCH / "digests.json").read_text())
    assert recorded["seed"] == 0
    wl = workloads.WORKLOADS[workload]
    for i in (0, 1):
        inst_seed = wl.instance_seed(0, i)
        inst_dir = tmp_path / f"inst{i}"
        assert main(list(wl.gen_args(inst_seed, inst_dir)), standalone_mode=False) in (0, None)
        for op in wl.ops(inst_dir, i, inst_seed):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for args in op.calls:
                    assert main(list(args), standalone_mode=False) in (0, None)
            problems, digest, _ = workloads.inspect(op)
            assert not problems
            assert digest == recorded["workloads"][workload][i][op.kind], (op.kind, i)
