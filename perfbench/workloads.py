"""Workload definitions: parameters, instances, operations and their checks.

Each workload is a fixed list of instances made in set-up from the run's
seed (instance ``i`` of seed ``s`` uses the generator seed ``s * 1000 + i``).
A pass runs every operation of every instance once, in a fixed order, so
every run has the same mix of operations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

# Theorem-backed certificates as named at the commit that recorded the
# digests.  Only these enter a digest, so dropping or adding an empirical
# diagnostic does not change it.
DIGEST_CERTS = frozenset(
    {
        "density_mass",
        "density_sparse",
        "down_tile_disjointness",
        "level_density",
        "level_size",
        "major_subset",
        "residual_zero_contribution",
        "size_small",
    }
)


@dataclass(frozen=True)
class Op:
    """One timed operation: CLI calls run back to back, the files they
    write, and the instance directory they read from."""

    kind: str
    instance: int
    calls: tuple[tuple[str, ...], ...]
    outputs: tuple[Path, ...]
    inst_dir: Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    instances: int
    warmup_kind: str

    def instance_seed(self, seed: int, i: int) -> int:
        return seed * 1000 + i

    def gen_args(self, inst_seed: int, inst_dir: Path) -> tuple[str, ...]:
        """`tilewalsh gen` call that writes one instance's input files."""
        p = self.params
        return ("gen", "--levels", str(p["levels"]), "--dim", str(p["dim"]),
                "--kind", p["kind"], "--norm", p["norm"], "--measure", p["measure"],
                "--seed", str(inst_seed), "--out", str(inst_dir))

    def ops(self, inst_dir: Path, i: int, inst_seed: int) -> list[Op]:
        p = self.params
        d = inst_dir

        def op(kind, calls, outputs):
            return Op(kind, i, tuple(tuple(str(a) for a in c) for c in calls),
                      tuple(outputs), d)

        if self.name == "certify-hilbert":
            out = d / "certify.json"
            return [
                op(
                    "certify",
                    [["certify", "--in", d / "signal.json", "--dual", d / "dual.json",
                      "--set", d / "set.json", "--nfun", d / "nfun.json",
                      "--norm", p["norm"], "--q", str(p["q"]), "--out", out]],
                    [out, out.with_suffix(".csv")],
                )
            ]
        coef, back = d / "coefficients.json", d / "inverse.json"
        carl, rwt = d / "carleson.json", d / "rwt.json"
        return [
            op(
                "transform",
                [["transform", "--in", d / "signal.json", "--out", coef],
                 ["transform", "--inverse", "--in", coef, "--out", back]],
                [coef, back],
            ),
            op(
                "carleson",
                [["carleson", "--in", d / "signal.json", "--nfun", d / "nfun.json",
                  "--out", carl]],
                [carl],
            ),
            op(
                "rwt",
                [["rwt", "--levels", str(p["levels"]), "--dim", str(p["dim"]),
                  "--kind", p["kind"], "--norm", p["norm"], "--q", str(p["q"]),
                  "--seed", str(inst_seed), "--out", rwt]],
                [rwt, rwt.with_suffix(".csv")],
            ),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="certify-hilbert",
            why=("certify L=7 d=1 vector euclidean q=2 |E|=1/2, 16 instances: the paper's headline "
                 "pipeline, dominated by density, Parseval size sums and the greedy forest"),
            params={"levels": 7, "dim": 1, "kind": "vector", "norm": "euclidean", "q": 2,
                    "measure": "1/2"},
            instances=16,
            warmup_kind="certify",
        ),
        Workload(
            name="operators-mix",
            why=("transform+inverse, carleson, rwt schatten:3 q=3 on L=9 d=2 matrix values, 8 instances: "
                 "operators, FWHT, maximal function, JSON; bypasses density and size"),
            params={"levels": 9, "dim": 2, "kind": "matrix", "norm": "schatten:3",
                    "q": 3, "measure": "1/2",
                    "ops": ["transform+inverse", "carleson", "rwt"]},
            instances=8,
            # rwt runs carleson_bitile, so it fills the walsh() cache
            warmup_kind="rwt",
        ),
    )
}

# Layer metric -> end-to-end metric it should move -> workloads it acts on.
PREDICTIONS = [
    ("timefreq.local_density.*, timefreq.DensityCounter.*, timefreq.density.*",
     "certify_s_p50, ops_per_s", "certify-hilbert (zero on operators-mix)"),
    ("timefreq.hilbert_top_sums.*, timefreq.size_pow.*", "certify_s_p50", "certify-hilbert only"),
    ("timefreq.down_coefficients_inf.*, timefreq.member_form_products.self_s",
     "certify_s_p50", "certify-hilbert"),
    ("decompose.{full_decompose,density_decompose,size_decompose,carleson_form_certificate}.*, "
     "decompose.levels, decompose.trees", "certify_s_p50", "certify-hilbert"),
    ("operators.carleson_direct.self_s, operators.carleson_bitile.*, operators.walsh_coefficients.self_s",
     "carleson_s_p50, rwt_s_p50", "operators-mix"),
    ("decompose.restricted_weak_type.self_s, signal.maximal_function.self_s", "rwt_s_p50",
     "operators-mix"),
    ("walsh.fwht.*, walsh.ifwht.self_s", "transform_s_p50", "operators-mix"),
    ("signal.{load_json,signal_from_json,signal_to_json,dump_json}.self_s, cli.self_s, cli.bytes_out",
     "transform_s_p50, carleson_s_p50", "operators-mix"),
    ("signal.lq_norm.self_s", "certify_s_p50", "certify-hilbert"),
    ("dyadic.bitile_universe.*", "op_s_p50", "both; a few percent of each operation"),
    ("certificates.count, certificates.theorem_backed_failed, certificates.warnings",
     "failed_frac (the first two)", "all"),
    ("gen.self_s", "setup_s", "all"),
    ("trace.overhead_frac", "none: traced minus untraced time, over untraced", "all"),
]


# ---------------------------------------------------------------------------
# checks


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _theorem_certs(report: dict) -> list:
    return [
        [c["name"], c["lhs"], c["rhs"]]
        for c in report["certificates"]
        if c["theorem_backed"] and c["name"] in DIGEST_CERTS
    ]


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def inspect(op: Op) -> tuple[list[str], str, list]:
    """Oracle checks on an operation's output files.

    Returns (problems, digest of the mathematical result, certificates).
    """
    problems: list[str] = []
    if op.kind == "transform":
        coef, back = op.outputs
        if back.read_bytes() != (op.inst_dir / "signal.json").read_bytes():
            problems.append("inverse transform does not reproduce the input bytes")
        return problems, digest(_load(coef)["coefficients"]), []
    rep = _load(op.outputs[0])
    if op.kind == "carleson":
        if rep["identical"] is not True:
            problems.append("carleson direct and bitile forms differ")
        return problems, digest(rep["direct"]["values"]), []
    certs = rep["certificates"]
    if op.kind == "certify":
        form = rep["form"]
        result = {
            "form_total": form["form_total"],
            "levels": [
                [lv["n"], [[t["top"], t["members"]] for t in lv["trees"]]]
                for lv in form["levels"]
            ],
            "certificates": _theorem_certs(rep),
        }
    else:
        r = rep["rwt"]
        result = {
            "form": r["form"],
            "exceptional": r["exceptional"],
            "major_subset": r["major_subset"],
        }
    return problems, digest(result), certs
