"""Checks of the benchmark's own machinery, on one small instance each.

    python3 perfbench/selftest.py

- a hung operation times out, counts as failed, and the next one runs;
- a wrong digest, a broken round trip and a failed oracle flag are failures;
- traced self times plus cli.self_s add up to the traced operation time;
- runs report exactly the metrics and workloads BENCHMARK.json names;
- run.py exits nonzero, printing no result, where src/ is missing.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run
from spans import Tracer
from workloads import WORKLOADS, inspect


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        raise SystemExit(1)


def instances(runner, name, seed=5):
    wl = dataclasses.replace(WORKLOADS[name], instances=1)
    work = run.OUT_DIR / "work" / f"selftest-{name}"
    shutil.rmtree(work, ignore_errors=True)
    return wl, run.make_instances(runner, wl, seed, work)


def test_timeout(runner, ops) -> None:
    saved = run.OP_TIMEOUT_S
    run.OP_TIMEOUT_S = 0.05
    try:
        hung = runner.run(ops[0])
    finally:
        run.OP_TIMEOUT_S = saved
    check(not hung.ok and "timed out" in hung.problems[0], "a hung operation times out")
    check(hung.seconds < 1.0, f"the timeout stops it promptly ({hung.seconds:.3f} s)")
    again = runner.run(ops[0])
    check(again.ok, "the next operation runs normally")


def test_failures(runner, mix_ops, cert_op) -> None:
    bad = run.Runner(runner.cli_main, expected={(0, "certify"): "0" * 64})
    check(not bad.run(cert_op).ok, "a digest mismatch is a failure")
    transform, carleson = mix_ops[0], mix_ops[1]
    transform.outputs[1].write_text("{}\n")
    check(bool(inspect(transform)[0]), "a broken inverse round trip is a failure")
    rep = json.loads(carleson.outputs[0].read_text())
    rep["identical"] = False
    carleson.outputs[0].write_text(json.dumps(rep))
    check(bool(inspect(carleson)[0]), "carleson identical: false is a failure")


def test_trace_sum(runner, wl, ops) -> None:
    from tilewalsh.dyadic import universe_size

    tracer, gen_tracer = Tracer(), Tracer()
    plain, traced, ids, _ = run.run_passes(runner, ops, 0.0, tracer)
    m = run.per_layer(tracer, traced, ids, plain, gen_tracer,
                      universe_size(wl.params["levels"]))
    parts = sum(v for k, (v, _) in m.items() if k.endswith(".self_s") and k != "gen.self_s")
    total = m["trace.op_s"][0]
    check(abs(parts - total) <= 1e-9 * max(1.0, total),
          f"self times add up to the traced op time ({parts:.6f} vs {total:.6f} s)")
    check(m["timefreq.local_density.calls"][0] > 0, "local_density calls are counted")
    check(not tracer._patches, "the tracer puts the original functions back")
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(list(m) == [x["name"] for x in bench["per_layer"]],
          "a traced run reports exactly the per_layer metrics of BENCHMARK.json")
    e2e, _ = run.end_to_end(plain, 1.0, 1.0)
    check(list(e2e) == [x["name"] for x in bench["end_to_end"]],
          "an untraced run reports exactly the end_to_end metrics of BENCHMARK.json")
    check([(w["name"], w["why"]) for w in bench["workloads"]]
          == [(w.name, w.why) for w in WORKLOADS.values()],
          "BENCHMARK.json lists the workloads with their why")


def test_missing_src() -> None:
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-hilbert",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"run.py fails without src/ (exit {proc.returncode})")


def main() -> int:
    cli_main, _ = run.load_program()
    runner = run.Runner(cli_main)
    cert_wl, cert_ops = instances(runner, "certify-hilbert")
    test_timeout(runner, cert_ops)
    _, mix_ops = instances(runner, "operators-mix")
    for op in mix_ops[:2]:
        check(runner.run(op).ok, f"{op.kind} passes its checks")
    test_failures(runner, mix_ops, cert_ops[0])
    test_trace_sum(runner, cert_wl, cert_ops)
    test_missing_src()
    shutil.rmtree(run.OUT_DIR / "work", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
