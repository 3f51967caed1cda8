"""Density/size decompositions, leveled forests, tile-type, weak type."""

import warnings

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from tilewalsh.certificates import all_theorem_backed_pass
from tilewalsh.decompose import (
    carleson_form_certificate,
    density_decompose,
    full_decompose,
    restricted_weak_type,
    size_decompose,
    tile_type_constant,
)
from tilewalsh.dyadic import Bitile, DyadicInterval, bitile_le, bitile_universe
from tilewalsh.gen import (
    SplitMix64,
    gen_collection,
    gen_dual_function,
    gen_levelset,
    gen_nfun,
    gen_signal,
    gen_tree_family,
)
from tilewalsh.signal import FrequencyChoice, LevelSet, NormPlugin, Signal
from tilewalsh.timefreq import Tree, TreeFamily, density

EUCL = NormPlugin("euclidean")


def multiset(bitiles):
    return sorted(bitiles, key=Bitile.key)


class TestDensityDecompose:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_partition_and_certificates(self, data):
        rng = SplitMix64(data.draw(st.integers(0, 10**6)))
        L = data.draw(st.integers(2, 4))
        q = data.draw(st.sampled_from([2, 3, 4]))
        coll = gen_collection(L, 14, rng)
        E = gen_levelset(L, Fraction(1, 2), rng)
        N = gen_nfun(L, rng)
        res = density_decompose(coll, E, N, q)
        out = list(res.sparse) + [P for t in res.trees for P in t.members]
        assert multiset(out) == multiset(coll)
        for c in res.certificates:
            assert c.mode == "exact" and c.passed
        # trees only contain members below their tops
        for t in res.trees:
            for P in t.members:
                assert bitile_le(P, t.top)

    def test_empty_set_all_sparse(self):
        L = 3
        coll = list(bitile_universe(L).items)
        E = LevelSet.empty(L)
        N = FrequencyChoice(L, (0,) * 8)
        res = density_decompose(coll, E, N, 2)
        assert multiset(res.sparse) == multiset(coll)
        assert res.trees == ()
        assert res.density == 0

    def test_single_bitile_hand_case(self):
        # one bitile whose own window is always hit on a full E: density 1
        L = 2
        P = Bitile(DyadicInterval(0, 0), 0)  # window [0, 2)
        E = LevelSet.full(L)
        N = FrequencyChoice(L, (1, 1, 1, 1))
        res = density_decompose([P], E, N, 2)
        assert res.density == 1
        assert len(res.trees) == 1 and res.sparse == ()
        mass = res.trees[0].time.length
        assert mass <= 4 * E.measure  # 2^q density^-1 |E| with q=2

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_sparse_density_drops(self, data):
        rng = SplitMix64(data.draw(st.integers(0, 10**6)))
        L = 3
        coll = gen_collection(L, 12, rng)
        E = gen_levelset(L, Fraction(1, 2), rng)
        N = gen_nfun(L, rng)
        res = density_decompose(coll, E, N, 2)
        assert density(res.sparse, E, N) <= res.density / 4


class TestSizeDecompose:
    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_partition_and_certificates(self, data):
        rng = SplitMix64(data.draw(st.integers(0, 10**6)))
        L = data.draw(st.integers(2, 4))
        f = gen_signal(L, 1, "vector", rng)
        coll = gen_collection(L, 12, rng)
        res = size_decompose(coll, f, 2, EUCL)
        out = list(res.small) + [P for t in res.trees for P in t.members]
        assert multiset(out) == multiset(coll)
        for c in res.certificates:
            assert c.mode == "exact" and c.passed

    def test_zero_signal_all_small(self):
        L = 3
        f = Signal.scalar([Fraction(0)] * 8)
        coll = gen_collection(L, 10, SplitMix64(3))
        res = size_decompose(coll, f, 2, EUCL)
        assert res.trees == ()
        assert multiset(res.small) == multiset(coll)
        assert res.size_pow == 0

    @given(st.data())
    @settings(max_examples=10, deadline=None)
    def test_stats_reported(self, data):
        rng = SplitMix64(data.draw(st.integers(0, 10**6)))
        f = gen_signal(3, 1, "vector", rng)
        coll = gen_collection(3, 10, rng)
        res = size_decompose(coll, f, 2, EUCL)
        assert set(res.stats) >= {"top_length_sum", "mass_constant", "trees"}
        assert res.stats["trees"] == len(res.trees)


class TestFullDecompose:
    @given(st.data())
    @settings(max_examples=10, deadline=None)
    def test_partition_and_certificates(self, data):
        rng = SplitMix64(data.draw(st.integers(0, 10**6)))
        L = 3
        f = gen_signal(L, 1, "vector", rng)
        E = gen_levelset(L, Fraction(1, 2), rng)
        N = gen_nfun(L, rng)
        coll = list(bitile_universe(L).items)
        forest = full_decompose(coll, f, E, N, 2, EUCL)
        out = [P for _, t in forest.all_trees() for P in t.members]
        out += list(forest.residual)
        assert multiset(out) == multiset(coll)
        assert all_theorem_backed_pass(forest.all_certificates())
        # levels strictly decrease
        ns = [rec.n for rec in forest.levels]
        assert ns == sorted(ns, reverse=True)

    def test_rejects_empty_set_and_zero_signal(self):
        L = 2
        coll = list(bitile_universe(L).items)
        N = FrequencyChoice(L, (0,) * 4)
        f = gen_signal(L, 1, "vector", SplitMix64(1))
        with pytest.raises(ValueError):
            full_decompose(coll, f, LevelSet.empty(L), N, 2, EUCL)
        zero = Signal.scalar([Fraction(0)] * 4)
        with pytest.raises(ValueError):
            full_decompose(coll, zero, LevelSet.full(L), N, 2, EUCL)

    def test_residual_zero_contribution(self):
        rng = SplitMix64(9)
        L = 3
        f = gen_signal(L, 1, "vector", rng)
        E = gen_levelset(L, Fraction(1, 2), rng)
        N = gen_nfun(L, rng)
        forest = full_decompose(list(bitile_universe(L).items), f, E, N, 2, EUCL)
        from tilewalsh.timefreq import down_coefficients_inf

        coeffs = down_coefficients_inf(f, forest.residual)
        assert all(all(c == 0 for c in coeffs[P]) for P in forest.residual)


class TestCarlesonForm:
    @given(st.data())
    @settings(max_examples=5, deadline=None)
    def test_scalar_ratios_finite(self, data):
        rng = SplitMix64(data.draw(st.integers(0, 10**6)))
        L = 3
        f = gen_signal(L, 1, "vector", rng)
        g = gen_dual_function(L, 1, "vector", EUCL, rng)
        E = gen_levelset(L, Fraction(1, 2), rng)
        N = gen_nfun(L, rng)
        rep = carleson_form_certificate(f, g, E, N, 2, EUCL)
        assert rep["ratio"] >= 0.0 and rep["ratio"] < float("inf")
        assert all_theorem_backed_pass(rep["certificates"])

    def test_report_shape(self):
        rng = SplitMix64(2)
        L = 3
        f = gen_signal(L, 1, "vector", rng)
        g = gen_dual_function(L, 1, "vector", EUCL, rng)
        E = gen_levelset(L, Fraction(1, 2), rng)
        N = gen_nfun(L, rng)
        rep = carleson_form_certificate(f, g, E, N, 2, EUCL)
        assert {"form_total", "bound", "ratio", "majorant", "levels"} <= set(rep)
        for row in rep["levels"]:
            for t in row["trees"]:
                assert t["tree_lemma_ratio"] >= 0.0


class TestTileType:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_hilbert_bound(self, data):
        rng = SplitMix64(data.draw(st.integers(0, 10**6)))
        L = data.draw(st.integers(3, 5))
        d = data.draw(st.sampled_from([1, 2]))
        fam = gen_tree_family(L, rng)
        f = gen_signal(L, d, "vector", rng)
        ratio, certs = tile_type_constant(fam, f, 2, EUCL)
        assert ratio <= 1 + 1e-12
        assert all(c.passed for c in certs)

    def test_rejects_overlapping_family(self):
        P = Bitile(DyadicInterval(1, 0), 0)
        fam = TreeFamily(
            (
                Tree.build(Bitile(DyadicInterval(1, 0), 0), [P]),
                Tree.build(Bitile(DyadicInterval(0, 0), 0), [P]),
            )
        )
        f = gen_signal(3, 1, "vector", SplitMix64(1))
        with pytest.raises(ValueError):
            tile_type_constant(fam, f, 2, EUCL)

    def test_haar_sum_rejects_finest_scale(self):
        L = 2
        f = gen_signal(L, 1, "vector", SplitMix64(1))
        P = Bitile(DyadicInterval(L, 0), 0)
        fam = TreeFamily((Tree.build(P, [P]),))
        with pytest.raises(ValueError, match="finest-scale"):
            tile_type_constant(fam, f, 2, EUCL)

    def test_lp_ratio_can_exceed_one(self):
        # non-Hilbert norms are only reported; the certificate must not gate
        rng = SplitMix64(5)
        fam = gen_tree_family(4, rng)
        f = gen_signal(4, 3, "vector", rng)
        plugin = NormPlugin("lp", Fraction(4))
        ratio, certs = tile_type_constant(fam, f, 2, plugin)
        assert ratio >= 0.0
        for c in certs:
            if c.name == "tile_type_ratio_pow":
                assert not c.theorem_backed


class TestRestrictedWeakType:
    def _instance(self, seed, L=3):
        rng = SplitMix64(seed)
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
        return Fset, Eset, f, g, N

    def test_major_subset_certificate(self):
        Fset, Eset, f, g, N = self._instance(13)
        rep = restricted_weak_type(Fset, Eset, f, g, N, 2.0, 2, EUCL)
        assert rep["regime"] == "E>F"
        certs = rep["certificates"]
        assert any(c.name == "major_subset" and c.passed and c.mode == "exact" for c in certs)
        # the surviving subset is at least half of E, checked independently
        assert 2 * len(rep["major_subset"]) >= Eset.count

    def test_rejects_empty_sets(self):
        Fset, Eset, f, g, N = self._instance(13)
        L = Eset.L
        with pytest.raises(ValueError):
            restricted_weak_type(LevelSet.empty(L), Eset, f.zero_like(), g, N, 2.0, 2, EUCL)

    def test_rejects_support_violation(self):
        Fset, Eset, f, g, N = self._instance(13)
        bad = Signal.scalar([Fraction(1)] * f.cells)  # not supported on F
        with pytest.raises(ValueError):
            restricted_weak_type(Fset, Eset, bad, g, N, 2.0, 2, EUCL)

    def test_ratios_reported(self):
        Fset, Eset, f, g, N = self._instance(29)
        rep = restricted_weak_type(Fset, Eset, f, g, N, 2.0, 2, EUCL)
        for key in ("log_bound", "log_ratio", "lorentz_bound", "lorentz_ratio"):
            assert float(rep[key]) >= 0.0
