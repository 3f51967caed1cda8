"""Acceptance criteria, one test per criterion, one printed line each.

Every theorem-backed inequality is checked exactly (rational arithmetic);
empirical statistics are compared against the archived baseline in
tests/data/stability_baseline.json.
"""

import functools
import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tilewalsh.dyadic import (
    Bitile,
    DyadicInterval,
    bitile_le,
    bitile_le_u,
    bitile_universe,
    universe_size,
)
from tilewalsh.gen import (
    SplitMix64,
    gen_collection,
    gen_dual_function,
    gen_levelset,
    gen_nfun,
    gen_signal,
    gen_tree_family,
)
from tilewalsh.operators import carleson_bitile, carleson_direct
from tilewalsh.signal import FrequencyChoice, NormPlugin, Signal
from tilewalsh.timefreq import Tree, tree_form_sum, verify_tree_identity, gj_certificate
from tilewalsh.decompose import (
    density_decompose,
    restricted_weak_type,
    size_decompose,
    tile_type_constant,
)
from tilewalsh.walsh import bit_reverse, fwht, walsh
from reference import gen_tree_members

EUCL = NormPlugin("euclidean")
DATA = Path(__file__).parent / "data"
BASELINE = DATA / "stability_baseline.json"


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:2d}] FAIL: {desc}")
                raise
            print(f"[criterion {num:2d}] PASS: {desc}")

        return wrapper

    return deco


@criterion(1, "fwht equals the naive O(4^L) oracle on 100 signals per L=1..10, < 10 s")
def test_01_fwht_oracle():
    start = time.perf_counter()
    for L in range(1, 11):
        size = 1 << L
        # independent construction: Sylvester Hadamard + bit-reversal columns
        H = np.array([[1]], dtype=np.int64)
        for _ in range(L):
            H = np.kron(H, np.array([[1, 1], [1, -1]], dtype=np.int64))
        perm = [bit_reverse(j, L) for j in range(size)]
        W = H[:, perm]
        rng = SplitMix64(1000 + L)
        for _ in range(100):
            f = gen_signal(L, 1, "vector", rng)
            vals = f.scalar_samples()
            nums = np.array([v.numerator * ((1 << 16) // v.denominator) for v in vals], dtype=np.int64)
            naive = W @ nums  # coefficient n scaled by 2^16 * 2^L
            got = fwht(vals)
            denom = (1 << 16) * size
            assert all(
                c == Fraction(int(n), denom) for c, n in zip(got, naive)
            ), f"fwht mismatch at L={L}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 10s"


@criterion(2, "carleson_bitile == carleson_direct: exhaustive L=2 + 200 seeded per L=3..8, < 60 s")
def test_02_bitile_identity_oracle():
    start = time.perf_counter()
    # exhaustive at L=2 over all N-functions and a coefficient basis of f
    L = 2
    U = bitile_universe(L)
    basis = [Signal.scalar([Fraction(s) for s in walsh(n, L)]) for n in range(4)]
    for values in itertools.product(range(5), repeat=4):
        N = FrequencyChoice(L, values)
        for f in basis:
            assert carleson_direct(f, N).samples == carleson_bitile(f, N, U).samples
    # seeded instances at larger resolutions
    for L in range(3, 9):
        U = bitile_universe(L)
        rng = SplitMix64(2000 + L)
        for _ in range(200):
            f = gen_signal(L, 1, "vector", rng)
            N = gen_nfun(L, rng)
            assert carleson_direct(f, N).samples == carleson_bitile(f, N, U).samples
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 2 runtime {elapsed:.1f}s exceeds 60s"


@criterion(3, "tree identity exhaustive over all up-ordered pairs in universe(L), L <= 6")
def test_03_tree_identity():
    checked = 0
    for L in range(2, 7):
        U = list(bitile_universe(L).items)
        inU = set(U)
        from tilewalsh.timefreq import up_ancestors

        for P in U:
            if P.time.k >= L:
                continue
            for T in up_ancestors(P):
                if T == P or T not in inU:
                    continue
                if (2 * T.m + 1) >= (1 << (L - T.time.k)):
                    continue  # boundary packet oscillates below cell scale
                assert verify_tree_identity(P, T, L), f"identity failed for {P} <= {T} at L={L}"
                checked += 1
    assert checked > 500


@criterion(4, "Hilbert tile-type ratio <= 1 + 1e-12 on 500 seeded families, d in {1,2,4}")
def test_04_hilbert_tile_type():
    count = 0
    i = 0
    while count < 500:
        rng = SplitMix64(4000 + i)
        i += 1
        L = 3 + (i % 3)
        d = (1, 2, 4)[i % 3]
        family = gen_tree_family(L, rng)
        if not family.trees:
            continue
        f = gen_signal(L, d, "vector", rng)
        ratio, certs = tile_type_constant(family, f, 2, EUCL)
        assert ratio <= 1 + 1e-12, f"tile-type ratio {ratio} exceeds 1 (seed {i - 1})"
        assert all(c.passed for c in certs)
        count += 1


@criterion(5, "density lemma certificates exact on 300 seeded instances, q in {2,3,4}")
def test_05_density_lemma():
    for i in range(300):
        rng = SplitMix64(5000 + i)
        L = 2 + (i % 5)  # L in 2..6
        q = 2 + (i % 3)
        coll = gen_collection(L, 20, rng)
        E = gen_levelset(L, Fraction(1 + (i % 3), 4), rng)
        N = gen_nfun(L, rng)
        res = density_decompose(coll, E, N, q)
        for c in res.certificates:
            assert c.mode == "exact" and c.passed, f"{c.name} failed (seed {i})"


@criterion(6, "size lemma disjointness and size(small) <= sigma/2 exact on 300 instances")
def test_06_size_lemma():
    for i in range(300):
        rng = SplitMix64(6000 + i)
        L = 2 + (i % 4)  # L in 2..5
        f = gen_signal(L, 1, "vector", rng)
        coll = gen_collection(L, 16, rng)
        res = size_decompose(coll, f, 2, EUCL)
        for c in res.certificates:
            assert c.mode == "exact" and c.passed, f"{c.name} failed (seed {i})"


@criterion(7, "G_J certificates |G_J| <= 2 density |J| exact on 300 seeded trees")
def test_07_gj_certificates():
    count = 0
    i = 0
    while count < 300:
        rng = SplitMix64(7000 + i)
        i += 1
        L = 4
        U = list(bitile_universe(L).items)
        top = U[rng.below(len(U))]
        members = gen_tree_members(L, top, 8, rng)
        if not members:
            continue
        tree = Tree.build(top, members)
        E = gen_levelset(L, Fraction(1, 2), rng)
        N = gen_nfun(L, rng)
        certs = gj_certificate(tree, E, N)
        for c in certs:
            assert c.mode == "exact" and c.passed, f"G_J failed (seed {i - 1})"
        count += 1


@criterion(8, "major subset |E-tilde| >= |E|/2 exact on 300 seeded pairs with |E| > |F|")
def test_08_major_subset():
    for i in range(300):
        rng = SplitMix64(8000 + i)
        L = 3 + (i % 2)
        Fset = gen_levelset(L, Fraction(1, 4), rng)
        Eset = gen_levelset(L, Fraction(3, 4), rng)
        N = gen_nfun(L, rng)
        f0 = gen_dual_function(L, 1, "vector", EUCL, rng)
        g0 = gen_dual_function(L, 1, "vector", EUCL, rng)
        f = f0.with_components(
            [[x if j in Fset else Fraction(0) for j, x in enumerate(c)] for c in f0.comps]
        )
        g = g0.with_components(
            [[x if j in Eset else Fraction(0) for j, x in enumerate(c)] for c in g0.comps]
        )
        rep = restricted_weak_type(Fset, Eset, f, g, N, 2.0, 2, EUCL)
        assert rep["regime"] == "E>F"
        majors = [c for c in rep["certificates"] if c.name == "major_subset"]
        assert len(majors) == 1
        assert majors[0].mode == "exact" and majors[0].passed, f"seed {i}"


def _stability_corpus(L):
    """200 seeded instances; returns the three empirical maxima."""
    import warnings

    max_tree_ratio = 0.0
    max_mass_constant = 0.0
    max_rwt_ratio = 0.0
    U = list(bitile_universe(L).items)
    for i in range(200):
        rng = SplitMix64(9000 * L + i)
        # tree-lemma ratio on a dense random subtree of a unit-interval top
        top = Bitile(DyadicInterval(0, 0), rng.below(1 << (L - 1)))
        below = [P for P in U if bitile_le(P, top)]
        members = [P for P in below if rng.below(2) == 0]
        f = gen_signal(L, 1, "vector", rng)
        g = gen_dual_function(L, 1, "vector", EUCL, rng)
        E = gen_levelset(L, Fraction(1, 2), rng)
        N = gen_nfun(L, rng)
        if members:
            tree = Tree.build(top, members)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _, diag = tree_form_sum(tree, f, g, E, N)
            if math.isfinite(diag["ratio"]):
                max_tree_ratio = max(max_tree_ratio, diag["ratio"])
        # size-lemma mass constant on a collection proportional to the grid
        coll = gen_collection(L, universe_size(L) // 3, rng)
        res = size_decompose(coll, f, 2, EUCL)
        max_mass_constant = max(max_mass_constant, res.stats["mass_constant"])
        # restricted weak-type ratio
        Fset = gen_levelset(L, Fraction(1, 4), rng)
        Eset = gen_levelset(L, Fraction(3, 4), rng)
        ff = f.with_components(
            [[x if j in Fset else Fraction(0) for j, x in enumerate(c)] for c in f.comps]
        )
        gg = g.with_components(
            [[x if j in Eset else Fraction(0) for j, x in enumerate(c)] for c in g.comps]
        )
        rep = restricted_weak_type(Fset, Eset, ff, gg, N, 2.0, 2, EUCL)
        max_rwt_ratio = max(max_rwt_ratio, rep["log_ratio"])
    return {
        "max_tree_lemma_ratio": max_tree_ratio,
        "max_size_mass_constant": max_mass_constant,
        "max_rwt_log_ratio": max_rwt_ratio,
    }


@criterion(9, "empirical constants stable (factor < 2 across L=4..7) and match the archived baseline")
def test_09_stability():
    stats = {str(L): _stability_corpus(L) for L in (4, 5, 6, 7)}
    if not BASELINE.exists():
        # first run establishes the baseline for regression
        DATA.mkdir(exist_ok=True)
        BASELINE.write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    baseline = json.loads(BASELINE.read_text())
    assert stats == baseline, "empirical constants drifted from the archived baseline"
    for key in ("max_tree_lemma_ratio", "max_size_mass_constant", "max_rwt_log_ratio"):
        for La, Lb in ((4, 5), (5, 6), (6, 7)):
            a, b = stats[str(La)][key], stats[str(Lb)][key]
            assert a > 0 and b > 0, f"{key} degenerate at L={La}/{Lb}"
            factor = max(a, b) / min(a, b)
            assert factor < 2.0, f"{key} changed by {factor:.2f}x between L={La} and L={Lb}"


@criterion(10, "every cmd_* invocation is byte-identical across TILEWALSH_THREADS in {1,4,8}")
def test_10_determinism(tmp_path):
    def run(args, env_threads, tag):
        outdir = tmp_path / f"t{env_threads}_{tag}"
        outdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, TILEWALSH_THREADS=str(env_threads))
        cmd = [sys.executable, "-m", "tilewalsh.cli"] + [
            a.replace("@OUT@", str(outdir)) for a in args
        ]
        subprocess.run(cmd, check=False, env=env, capture_output=True)
        return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

    inst = tmp_path / "inst"
    subprocess.run(
        [sys.executable, "-m", "tilewalsh.cli", "gen", "--levels", "3", "--seed", "3", "--out", str(inst)],
        check=True,
        capture_output=True,
    )
    commands = {
        "gen": ["gen", "--levels", "3", "--seed", "5", "--out", "@OUT@"],
        "transform": ["transform", "--in", str(inst / "signal.json"), "--out", "@OUT@/coef.json"],
        "carleson": ["carleson", "--in", str(inst / "signal.json"), "--nfun", str(inst / "nfun.json"), "--out", "@OUT@/carl.json"],
        "decompose": ["decompose", "--in", str(inst / "signal.json"), "--set", str(inst / "set.json"), "--nfun", str(inst / "nfun.json"), "--out", "@OUT@/dec.json"],
        "certify": ["certify", "--levels", "3", "--seed", "7", "--out", "@OUT@/cert.json"],
        "tiletype": ["tiletype", "--levels", "3", "--seed", "7", "--out", "@OUT@/tt.json"],
        "rwt": ["rwt", "--levels", "3", "--seed", "7", "--out", "@OUT@/rwt.json"],
    }
    for tag, args in commands.items():
        outputs = [run(args, threads, tag) for threads in (1, 4, 8)]
        assert outputs[0], f"{tag} produced no output"
        assert outputs[0] == outputs[1] == outputs[2], f"{tag} not byte-identical"
