"""tilewalsh benchmark.

    python3 perfbench/run.py --workload certify-hilbert --seed 1 --seconds 40 --trace 0

Runs the ``tilewalsh`` CLI in-process (``tilewalsh.cli.main``) from
``src/`` of the checkout that holds this file, as a closed loop with one
client, over instances generated in set-up from ``--seed``.  Single
process, single thread: ``TILEWALSH_THREADS=1`` and one-thread BLAS.

A set-up is instance generation plus one untimed warm-up operation, with
the ``walsh()`` cache cleared first.  A run sets up, then runs whole
passes over the instance list while the next pass is predicted to end
within ``--seconds`` (at least one pass), then sets up twice more;
``setup_s`` is the import time plus the median set-up.  A traced run sets
up once.

Times in the end-to-end metrics are scaled seconds: wall seconds times
``REFERENCE_S`` over the wall time of a fixed Fraction loop measured right
before and after (see ``reference_s``).  A shared 2-vCPU VM can change
speed by up to 2x over minutes; the scaled times cancel that while still
moving one for one with the program's own speed.  Raw wall
times are printed and saved too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass and prints per-layer metrics, per operation,
from spans recorded around the public functions of each module
(see ``spans.py``); the spans go to ``.perfbench/`` as JSON lines.

Every operation is checked: it must not raise, exit nonzero or time out;
``carleson`` must report ``identical: true``; the inverse transform must
give back the input signal's bytes.  On the default seed each result's
digest must also match ``digests.json``.  The last line of standard output
is one JSON object with keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a full result with provenance goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal as os_signal
import statistics
import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from spans import (OP_TARGETS, SETUP_TARGETS, Tracer, per_op_totals, self_times,
                   span_name)
from workloads import PREDICTIONS, WORKLOADS, Op, inspect

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
DIGESTS = BENCH_DIR / "digests.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 3
OP_TIMEOUT_S = 30.0
# Operations stop being started this long after the process began, so a
# run ends within three minutes even when operations hang.
RUN_DEADLINE_S = 150.0

PROCESS_START = perf_counter()

# Scaled seconds equal wall seconds on a machine that runs reference_s()
# in this time; about what a quiet 2-vCPU VM takes.
REFERENCE_S = 0.035
_REFERENCE_VALUES = [Fraction(i, 1 << 16) for i in range(-300, 300)]


def reference_s() -> float:
    """Wall time of a fixed loop of exact Fraction arithmetic, the kind of
    work tilewalsh does, as a gauge of how fast the machine runs now."""
    t0 = perf_counter()
    acc = Fraction(0)
    for _ in range(15):
        for x in _REFERENCE_VALUES:
            acc += x * x
    return perf_counter() - t0


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation; a BaseException so that no
    handler in the program can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def load_program():
    """Import tilewalsh from the checkout's src/; returns (cli main, seconds)."""
    src = ROOT / "src"
    if not (src / "tilewalsh" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tilewalsh package under {src}")
    for var in ("TILEWALSH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import tilewalsh.cli
    import_s = perf_counter() - t0
    if not Path(tilewalsh.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: imported tilewalsh from {tilewalsh.cli.__file__}")
    return tilewalsh.cli.main, import_s


@dataclass
class OpResult:
    kind: str
    instance: int
    seconds: float
    problems: list[str]
    ref: float = REFERENCE_S  # reference_s() around the operation
    digest: str | None = None
    certificates: int = 0
    theorem_backed_failed: int = 0
    warnings: int = 0
    bytes_out: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def scaled(self) -> float:
        return self.seconds * REFERENCE_S / self.ref


@dataclass
class Runner:
    """Runs operations with a timeout, captured warnings and checks."""

    cli_main: object
    expected: dict | None = None  # (instance, kind) -> digest
    tracer: Tracer | None = None
    op_count: int = 0
    last_ref: float | None = None
    checks: set = field(default_factory=lambda: {"no_exception", "exit_code", "timeout"})

    def call(self, calls) -> str | None:
        remaining = RUN_DEADLINE_S - (perf_counter() - PROCESS_START)
        if remaining <= 0.01:
            return "run deadline reached before the operation started"
        timeout = min(OP_TIMEOUT_S, remaining)
        os_signal.signal(os_signal.SIGALRM, _on_alarm)
        try:
            os_signal.setitimer(os_signal.ITIMER_REAL, timeout)
            try:
                for args in calls:
                    try:
                        code = self.cli_main(list(args), standalone_mode=False)
                    except SystemExit as exc:
                        code = exc.code
                    if code not in (0, None):
                        return f"exit code {code}"
            finally:
                os_signal.setitimer(os_signal.ITIMER_REAL, 0)
        except OpTimeout:
            return f"timed out after {timeout:.1f} s"
        except Exception as exc:  # the op failed; the run goes on
            return f"raised {type(exc).__name__}: {exc}"
        return None

    def reference(self) -> float:
        self.last_ref = reference_s()
        return self.last_ref

    def run(self, op: Op) -> OpResult:
        gc.collect()
        before = self.last_ref if self.last_ref is not None else self.reference()
        op_id = self.op_count
        self.op_count += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            root = self.tracer.begin("cli", op_id) if self.tracer else None
            t0 = perf_counter()
            problem = self.call(op.calls)
            seconds = perf_counter() - t0
            if root is not None:
                self.tracer.end(root)
        res = OpResult(op.kind, op.instance, seconds, [problem] if problem else [],
                       ref=(before + self.reference()) / 2, warnings=len(caught))
        res.bytes_out = sum(p.stat().st_size for p in op.outputs if p.exists())
        if problem:
            return res
        try:
            problems, res.digest, certs = inspect(op)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            res.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
            return res
        res.problems += problems
        res.certificates = len(certs)
        res.theorem_backed_failed = sum(
            1 for c in certs if c["theorem_backed"] and not c["pass"]
        )
        if res.theorem_backed_failed:
            res.problems.append(f"{res.theorem_backed_failed} theorem-backed certificates failed")
        if op.kind == "carleson":
            self.checks.add("carleson_identical")
        if op.kind == "transform":
            self.checks.add("inverse_roundtrip")
        if op.kind in ("certify", "rwt"):
            self.checks.add("theorem_backed_certificates")
        if self.expected is not None:
            self.checks.add("digest")
            want = self.expected.get((op.instance, op.kind))
            if want != res.digest:
                res.problems.append("result digest differs from the recorded one")
        return res


def expected_digests(workload: str, seed: int) -> dict | None:
    if not DIGESTS.is_file():
        return None
    recorded = json.loads(DIGESTS.read_text())
    if recorded["seed"] != seed or workload not in recorded["workloads"]:
        return None
    return {
        (i, kind): d
        for i, per_kind in enumerate(recorded["workloads"][workload])
        for kind, d in per_kind.items()
    }


def make_instances(runner: Runner, wl, seed: int, work: Path) -> list[Op]:
    ops = []
    for i in range(wl.instances):
        s = wl.instance_seed(seed, i)
        d = work / f"inst{i}"
        problem = runner.call([wl.gen_args(s, d)])
        if problem:
            raise SystemExit(f"perfbench: instance generation failed: {problem}")
        ops += wl.ops(d, i, s)
    return ops


def setup(runner: Runner, wl, seed: int, work: Path, gen_tracer: Tracer | None):
    """One set-up: cold walsh() cache, instance generation, one warm-up op."""
    import tilewalsh.walsh

    tilewalsh.walsh.walsh.cache_clear()
    if work.exists():
        shutil.rmtree(work)
    ref = runner.reference()
    t0 = perf_counter()
    if gen_tracer is not None:
        gen_tracer.install(SETUP_TARGETS)
    try:
        ops = make_instances(runner, wl, seed, work)
    finally:
        if gen_tracer is not None:
            gen_tracer.uninstall()
    gen_s = perf_counter() - t0
    warm = runner.run(next(op for op in ops if op.kind == wl.warmup_kind))
    wall = gen_s + warm.seconds
    scaled = gen_s * REFERENCE_S / ref + warm.scaled
    return wall, scaled, ops, warm


def run_passes(runner: Runner, ops: list[Op], seconds: float, traced: Tracer | None):
    """Whole passes while the next one should fit in `seconds`.  With a
    tracer, each round is an untraced pass followed by a traced one."""
    plain: list[OpResult] = []
    traced_res: list[OpResult] = []
    traced_ids: list[int] = []
    passes = 0
    start = perf_counter()
    while True:
        t0 = perf_counter()
        plain += [runner.run(op) for op in ops]
        if traced is not None:
            traced.install(OP_TARGETS)
            runner.tracer = traced
            try:
                for op in ops:
                    traced_ids.append(runner.op_count)
                    traced_res.append(runner.run(op))
            finally:
                runner.tracer = None
                traced.uninstall()
        passes += 1
        last = perf_counter() - t0
        now = perf_counter()
        if (now - start + last > seconds
                or now - PROCESS_START + last > RUN_DEADLINE_S):
            break
    return plain, traced_res, traced_ids, passes


# ---------------------------------------------------------------------------
# metrics

KIND_METRICS = {
    "certify": "certify_s_p50",
    "carleson": "carleson_s_p50",
    "transform": "transform_s_p50",
    "rwt": "rwt_s_p50",
}


def end_to_end(results: list[OpResult], setup_s: float, setup_wall_s: float
               ) -> tuple[dict, dict]:
    """(metrics for the result line, extra figures printed and saved);
    times in the first are scaled seconds, in the second also wall."""
    times = [r.seconds for r in results]
    scaled = [r.scaled for r in results]
    correct = sum(1 for r in results if r.ok)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_scaled_s": (correct / sum(scaled), "1/s"),
        "op_scaled_s_p50": (statistics.median(scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (correct / len(results), "ratio"),
    }
    extra = {
        "failed_frac": (1.0 - correct / len(results), "ratio"),
        "op_s_p50.samples": (len(times), "count"),
        "setup_wall_s": (setup_wall_s, "s"),
        "ops_per_s": (correct / sum(times), "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "reference_ms_p50": (1000 * statistics.median(r.ref for r in results), "ms"),
    }
    for kind, name in KIND_METRICS.items():
        kind_results = [r for r in results if r.kind == kind]
        if kind_results:
            extra[name] = (statistics.median(r.seconds for r in kind_results), "s")
            extra[name.replace("_s_", "_scaled_s_")] = (
                statistics.median(r.scaled for r in kind_results), "s")
            extra[f"{name}.samples"] = (len(kind_results), "count")
    return metrics, extra


# lq_norm_pow is reported together with lq_norm
SELF_METRICS = [span_name(m, a) for m, a in OP_TARGETS if a != "lq_norm_pow"]
CALL_METRICS = [
    "timefreq.local_density", "timefreq.DensityCounter", "timefreq.density",
    "timefreq.hilbert_top_sums", "timefreq.size_pow", "timefreq.down_coefficients_inf",
    "decompose.density_decompose", "decompose.size_decompose",
    "operators.carleson_bitile", "walsh.fwht", "dyadic.bitile_universe",
]


def per_layer(tracer: Tracer, traced: list[OpResult], traced_ids: list[int],
              plain: list[OpResult], gen_tracer: Tracer, universe: int) -> dict:
    """Per-operation means over the traced passes."""
    totals = per_op_totals(tracer.spans)
    n = len(traced)

    def total(name, col=0):
        return sum(totals[i][name][col] for i in traced_ids)

    m: dict[str, tuple[float, str]] = {}
    for name in SELF_METRICS:
        v = total(name)
        if name == "signal.lq_norm":
            v += total("signal.lq_norm_pow")
        m[f"{name}.self_s"] = (v / n, "s")
    m["cli.self_s"] = (total("cli") / n, "s")
    for name in CALL_METRICS:
        m[f"{name}.calls"] = (total(name, 1) / n, "count")
    m["timefreq.local_density.calls_per_universe"] = (
        total("timefreq.local_density", 1) / n / universe, "ratio")
    bitiles = sum(sum(totals[i]["timefreq.down_coefficients_inf"][2]) for i in traced_ids)
    m["timefreq.down_coefficients_inf.bitiles_per_universe"] = (bitiles / n / universe, "ratio")
    forests = [w for i in traced_ids for w in totals[i]["decompose.full_decompose"][2]]
    m["decompose.levels"] = (sum(lv for lv, _ in forests) / n, "count")
    m["decompose.trees"] = (sum(t for _, t in forests) / n, "count")
    m["cli.bytes_out"] = (sum(r.bytes_out for r in traced) / n, "B")
    m["certificates.count"] = (sum(r.certificates for r in traced) / n, "count")
    m["certificates.theorem_backed_failed"] = (
        sum(r.theorem_backed_failed for r in traced) / n, "count")
    m["certificates.warnings"] = (sum(r.warnings for r in traced) / n, "count")
    m["gen.self_s"] = (sum(self_times(gen_tracer.spans)), "s")
    roots = [end - start for _, start, end, parent, *_ in tracer.spans if parent < 0]
    m["trace.op_s"] = (sum(roots) / n, "s")
    m["trace.overhead_frac"] = (
        sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0, "ratio")
    return m


# ---------------------------------------------------------------------------


def versions() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    cli_main, import_s = load_program()
    import_scaled = import_s * REFERENCE_S / reference_s()
    wl = WORKLOADS[args.workload]
    runner = Runner(cli_main, expected_digests(wl.name, args.seed))
    work = OUT_DIR / "work" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    gen_tracer = Tracer() if args.trace else None

    wall, scaled, ops, w = setup(runner, wl, args.seed, work, gen_tracer)
    setups, setups_scaled, warm = [wall], [scaled], [w]
    tracer = Tracer() if args.trace else None
    plain, traced, traced_ids, passes = run_passes(runner, ops, args.seconds, tracer)
    # The other set-ups follow the measured passes, so that their median
    # samples the machine at different times.  A traced run reports no
    # setup_s and sets up once.
    for _ in range(0 if args.trace else SETUP_REPEATS - 1):
        wall, scaled, _, w = setup(runner, wl, args.seed, work, None)
        setups.append(wall)
        setups_scaled.append(scaled)
        warm.append(w)
    setup_s = import_scaled + statistics.median(setups_scaled)
    setup_wall_s = import_s + statistics.median(setups)
    everything = plain + traced
    failures = [r for r in everything + warm if not r.ok]

    if args.trace:
        from tilewalsh.dyadic import universe_size

        metrics = per_layer(tracer, traced, traced_ids, plain, gen_tracer,
                            universe_size(wl.params["levels"]))
        extra = {}
    else:
        metrics, extra = end_to_end(plain, setup_s, setup_wall_s)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_jsonl(OUT_DIR / f"spans-{wl.name}.jsonl")  # latest traced run only
    provenance = {
        "workload": wl.name, "why": wl.why, "params": wl.params,
        "instances": wl.instances, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "setup_runs_s": setups,
        "setup_runs_scaled_s": setups_scaled, "reference_s_nominal": REFERENCE_S,
        "import_s": import_s, "checks": sorted(runner.checks), **versions(),
        "predictions": [dict(zip(("layer_metric", "moves", "workload"), p))
                        for p in PREDICTIONS],
    }
    result = {
        "correct": not failures,
        "attempted": len(everything),
        "failed": sum(1 for r in everything if not r.ok),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    full = {**result, "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
            "provenance": provenance,
            "failures": [{"kind": r.kind, "instance": r.instance, "problems": r.problems}
                         for r in failures],
            "ops": [{"kind": r.kind, "instance": r.instance, "seconds": r.seconds,
                     "reference_s": r.ref, "traced": is_traced}
                    for rs, is_traced in ((plain, False), (traced, True)) for r in rs]}
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(full, indent=2) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} passes={passes} "
          f"nproc={provenance['nproc']} python={provenance['python']} "
          f"numpy={provenance['numpy']}")
    print(f"  params: {json.dumps(wl.params, sort_keys=True)}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<56} {value:>14.6g} {unit}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    print(f"  checks: {', '.join(sorted(runner.checks))}")
    for r in failures:
        print(f"  FAILED {r.kind} instance {r.instance}: {'; '.join(r.problems)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
