"""In-memory span tracer that wraps tilewalsh functions from outside.

The tracer replaces each traced function in every ``tilewalsh`` module
namespace that bound it (``decompose`` imports ``local_density`` from
``timefreq``, for instance), records one span per call, and puts the
originals back on ``uninstall``.  Nothing inside ``src/`` changes.

Per-element helpers (``DensityCounter.count``, ``up_ancestors``,
``bitile_ancestors``, ``walsh``, ``value_norm``) are deliberately not
traced: their call volume would swamp the run.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute) pairs traced inside operations.  Self times of these
# spans plus the root span's self time add up to the operation's wall time.
OP_TARGETS = [
    ("timefreq", "local_density"),
    ("timefreq", "DensityCounter.__init__"),
    ("timefreq", "density"),
    ("timefreq", "hilbert_top_sums"),
    ("timefreq", "size_pow"),
    ("timefreq", "down_coefficients_inf"),
    ("timefreq", "member_form_products"),
    ("decompose", "full_decompose"),
    ("decompose", "density_decompose"),
    ("decompose", "size_decompose"),
    ("decompose", "carleson_form_certificate"),
    ("decompose", "restricted_weak_type"),
    ("operators", "carleson_direct"),
    ("operators", "carleson_bitile"),
    ("operators", "walsh_coefficients"),
    ("signal", "maximal_function"),
    ("signal", "load_json"),
    ("signal", "signal_from_json"),
    ("signal", "signal_to_json"),
    ("signal", "dump_json"),
    ("signal", "lq_norm"),
    ("signal", "lq_norm_pow"),
    ("walsh", "fwht"),
    ("walsh", "ifwht"),
    ("dyadic", "bitile_universe"),
]

# Traced only while instances are generated in set-up.
SETUP_TARGETS = [
    ("gen", "gen_signal"),
    ("gen", "gen_dual_function"),
    ("gen", "gen_levelset"),
    ("gen", "gen_nfun"),
]


def span_name(mod: str, attr: str) -> str:
    """``timefreq.local_density``; a method is named after its class."""
    return f"{mod}.{attr.split('.')[0]}"


def _work(name, args, result):
    """Work counters recorded on a span, beyond the call itself."""
    if name == "timefreq.down_coefficients_inf":
        return len(args[1])
    if name == "decompose.full_decompose":
        return (len(result.levels), sum(len(rec.trees) for rec in result.levels))
    return None


class Tracer:
    """Spans are lists [name, start, end, parent index, op id, work]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1

    # -- patching ---------------------------------------------------------

    def install(self, targets) -> None:
        tw_modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "tilewalsh" or n.startswith("tilewalsh."))
        ]
        for mod, attr in targets:
            module = sys.modules[f"tilewalsh.{mod}"]
            if "." in attr:  # a method: patch it once, on its class
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(span_name(mod, attr), orig))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(span_name(mod, attr), orig)
            for m in tw_modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, orig, wrapper)

    def _patch(self, owner, key, orig, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1], self.op, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[5] = _work(name, args, result)
            return result

        return traced

    # -- root spans -------------------------------------------------------

    def begin(self, name: str, op: int) -> list:
        """Open a root span (one operation) and make it the current parent."""
        self.op = op
        span = [name, 0.0, 0.0, -1, op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def end(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()
        self.op = -1

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, work) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "op": op, "name": name, "parent": parent,
                    "start_s": start - t0, "end_s": end - t0, "work": work,
                }) + "\n")


def self_times(spans) -> list[float]:
    """Span duration minus the time its child spans cover (children run
    one after another on a single thread, so their durations add)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, work in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def per_op_totals(spans) -> dict[int, dict[str, list]]:
    """op id -> span name -> [self seconds, calls, work recorded on spans]."""
    selfs = self_times(spans)
    out: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0, []]))
    for i, (name, start, end, parent, op, work) in enumerate(spans):
        row = out[op][name]
        row[0] += selfs[i]
        row[1] += 1
        if work is not None:
            row[2].append(work)
    return out
