"""Partial sums, the Carleson operator oracle pair, Haar transforms."""

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from tilewalsh.dyadic import DyadicInterval, bitile_universe
from tilewalsh.gen import SplitMix64, gen_nfun, gen_signal
from tilewalsh.operators import (
    carleson_bitile,
    carleson_direct,
    haar_intervals,
    martingale_transform,
    maximal_partial_sum,
    partial_sum,
    stopped_haar_sum,
    walsh_coefficients,
)
from tilewalsh.signal import FrequencyChoice, NormPlugin, Signal, lq_norm_pow

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=1 << 10)


def scalar_signal(L):
    return st.lists(rationals, min_size=1 << L, max_size=1 << L).map(Signal.scalar)


class TestPartialSum:
    @given(scalar_signal(3))
    def test_full_cutoff_is_identity(self, f):
        assert partial_sum(f, f.cells).samples == f.samples

    @given(scalar_signal(3))
    def test_zero_cutoff(self, f):
        assert all(v == (0,) for v in partial_sum(f, 0).samples)

    @given(scalar_signal(3), st.integers(0, 7))
    def test_increment_adds_one_mode(self, f, N):
        coef = walsh_coefficients(f).comps[0]
        a = partial_sum(f, N).scalar_samples()
        b = partial_sum(f, N + 1).scalar_samples()
        from tilewalsh.walsh import walsh

        w = walsh(N, f.L)
        assert all(y - x == coef[N] * s for x, y, s in zip(a, b, w))

    def test_out_of_range(self):
        f = Signal.scalar([Fraction(1)] * 4)
        with pytest.raises(ValueError):
            partial_sum(f, 5)


class TestCarleson:
    @given(scalar_signal(3), st.data())
    @settings(max_examples=30, deadline=None)
    def test_bitile_equals_direct(self, f, data):
        values = tuple(
            data.draw(st.integers(0, f.cells)) for _ in range(f.cells)
        )
        N = FrequencyChoice(f.L, values)
        d = carleson_direct(f, N)
        b = carleson_bitile(f, N, bitile_universe(f.L))
        assert d.samples == b.samples

    def test_full_cutoff_reproduces_input(self):
        rng = SplitMix64(5)
        f = gen_signal(3, 1, "vector", rng)
        N = FrequencyChoice(3, (8,) * 8)
        assert carleson_direct(f, N).samples == f.samples
        assert carleson_bitile(f, N, bitile_universe(3)).samples == f.samples

    @given(scalar_signal(3), st.integers(0, 8))
    def test_constant_cutoff_is_partial_sum(self, f, N):
        Nf = FrequencyChoice(f.L, (N,) * f.cells)
        assert carleson_direct(f, Nf).samples == partial_sum(f, N).samples

    def test_resolution_mismatch(self):
        f = Signal.scalar([Fraction(1)] * 4)
        N = FrequencyChoice(3, (0,) * 8)
        with pytest.raises(ValueError):
            carleson_direct(f, N)
        with pytest.raises(ValueError):
            carleson_bitile(f, N, bitile_universe(2))

    def test_matrix_valued_oracle(self):
        rng = SplitMix64(11)
        f = gen_signal(3, 2, "matrix", rng)
        N = gen_nfun(3, rng)
        d = carleson_direct(f, N)
        b = carleson_bitile(f, N, bitile_universe(3))
        assert d.samples == b.samples

    @pytest.mark.parametrize("L", [10, 12])
    def test_matrix_valued_oracle_large_grid(self, L):
        rng = SplitMix64(1000 + L)
        f = gen_signal(L, 2, "matrix", rng)
        N = gen_nfun(L, rng)
        assert carleson_direct(f, N).samples == carleson_bitile(f, N, bitile_universe(L)).samples

    @given(scalar_signal(2), st.data())
    @settings(max_examples=20, deadline=None)
    def test_truncation_soundness(self, f, data):
        # refining the grid must not change the operator on coarse signals
        values = tuple(data.draw(st.integers(0, f.cells)) for _ in range(f.cells))
        N = FrequencyChoice(f.L, values)
        L2 = f.L + 3
        width = 1 << (L2 - f.L)
        f2 = f.refine(L2)
        N2 = FrequencyChoice(L2, tuple(v for v in values for _ in range(width)))
        coarse = carleson_direct(f, N).refine(L2)
        fine = carleson_direct(f2, N2)
        assert coarse.samples == fine.samples
        assert carleson_bitile(f2, N2, bitile_universe(L2)).samples == fine.samples


class TestMaximalPartialSum:
    @given(scalar_signal(3))
    def test_dominates_every_cutoff(self, f):
        M = maximal_partial_sum(f, NormPlugin("euclidean"))
        for N in range(f.cells + 1):
            s = partial_sum(f, N).scalar_samples()
            for m, v in zip(M, s):
                assert m >= abs(v)

    @given(scalar_signal(3))
    def test_attained(self, f):
        M = maximal_partial_sum(f, NormPlugin("euclidean"))
        attained = [max(abs(partial_sum(f, N).scalar_samples()[j]) for N in range(f.cells + 1)) for j in range(f.cells)]
        assert M == attained


class TestHaar:
    @given(scalar_signal(3))
    def test_full_family_reproduces_mean_free_part(self, f):
        g = martingale_transform(f, 1)
        avg = f.average()[0]
        assert all(x - avg == y for x, y in zip(f.scalar_samples(), g.scalar_samples()))

    @given(scalar_signal(3), st.data())
    def test_hilbert_isometry(self, f, data):
        # Parseval: the L2 norm of the transform is sign-independent
        family = haar_intervals(f.L)
        signs = {I: data.draw(st.sampled_from([-1, 1])) for I in family}
        plugin = NormPlugin("euclidean")
        g = martingale_transform(f, signs)
        h = martingale_transform(f, 1)
        assert lq_norm_pow(g, 2, plugin) == lq_norm_pow(h, 2, plugin)

    @given(scalar_signal(3))
    def test_involution(self, f):
        g = martingale_transform(martingale_transform(f, 1), 1)
        assert g.samples == martingale_transform(f, 1).samples

    def test_missing_sign(self):
        f = Signal.scalar([Fraction(1), Fraction(2)])
        with pytest.raises(KeyError):
            martingale_transform(f, {}, haar_intervals(1))

    def test_bad_sign(self):
        f = Signal.scalar([Fraction(1), Fraction(2)])
        with pytest.raises(ValueError):
            martingale_transform(f, 2)


class TestStoppedHaarSum:
    def test_basic(self):
        rng = SplitMix64(17)
        f = gen_signal(4, 1, "vector", rng)
        plugin = NormPlugin("euclidean")
        K = DyadicInterval(0, 0)
        g, cert = stopped_haar_sum(f, Fraction(1, 2), K, plugin, 2)
        assert cert.name == "stopped_haar_lp"
        assert not cert.theorem_backed  # empirical constant, never gating
        assert g.L == f.L

    def test_rejects_nonpositive_threshold(self):
        f = Signal.scalar([Fraction(1)] * 4)
        with pytest.raises(ValueError):
            stopped_haar_sum(f, 0, DyadicInterval(0, 0), NormPlugin("euclidean"), 2)

    def test_support_inside_k(self):
        rng = SplitMix64(23)
        f = gen_signal(3, 1, "vector", rng)
        K = DyadicInterval(1, 0)
        g, _ = stopped_haar_sum(f, Fraction(1, 4), K, NormPlugin("euclidean"), 2)
        outside = [g.scalar_samples()[j] for j in range(4, 8)]
        assert all(v == 0 for v in outside)
