"""Walsh system oracles: naive transforms, orthonormality, wave packets."""

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from tilewalsh.dyadic import DyadicInterval, Tile
from tilewalsh.walsh import (
    bit_reverse,
    fwht,
    ifwht,
    rademacher,
    walsh,
    walsh_value,
)
from reference import (
    Root2Scaled,
    haar_pattern,
    pairing_inf,
    values_exact,
    wave_packet,
    wave_packet_pattern,
)

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=1 << 12
)


def naive_coefficients(samples):
    """Independent O(4^L) oracle straight from the definition."""
    size = len(samples)
    L = size.bit_length() - 1
    return [
        sum(samples[j] * walsh_value(n, j, L) for j in range(size)) * Fraction(1, size)
        for n in range(size)
    ]


class TestWalshFunctions:
    def test_rademacher_periods(self):
        # r_0 at L=2: left half +1, right half -1; r_1 alternates per cell
        assert [rademacher(0, j, 2) for j in range(4)] == [1, 1, -1, -1]
        assert [rademacher(1, j, 2) for j in range(4)] == [1, -1, 1, -1]

    def test_rademacher_bounds(self):
        with pytest.raises(ValueError):
            rademacher(2, 0, 2)
        with pytest.raises(ValueError):
            rademacher(0, 4, 2)

    def test_w3_hand_example(self):
        assert walsh(3, 2) == (1, -1, -1, 1)

    def test_w0_constant(self):
        assert walsh(0, 3) == (1,) * 8

    @given(st.integers(1, 6), st.data())
    def test_walsh_is_rademacher_product(self, L, data):
        n = data.draw(st.integers(0, (1 << L) - 1))
        j = data.draw(st.integers(0, (1 << L) - 1))
        prod = 1
        for i in range(L):
            if (n >> i) & 1:
                prod *= rademacher(i, j, L)
        assert walsh_value(n, j, L) == prod

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
    def test_orthonormality_gram(self, L):
        size = 1 << L
        rows = [walsh(n, L) for n in range(size)]
        for a in range(size):
            for b in range(a, size):
                gram = sum(x * y for x, y in zip(rows[a], rows[b]))
                assert gram == (size if a == b else 0)

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_multiplicative_group(self, n, m):
        L = 6
        wn, wm, wx = walsh(n, L), walsh(m, L), walsh(n ^ m, L)
        assert all(a * b == c for a, b, c in zip(wn, wm, wx))


class TestTransform:
    @given(st.integers(1, 5).flatmap(lambda L: st.lists(rationals, min_size=1 << L, max_size=1 << L)))
    def test_fwht_matches_naive(self, samples):
        assert fwht(samples) == naive_coefficients(samples)

    @given(st.integers(1, 5).flatmap(lambda L: st.lists(rationals, min_size=1 << L, max_size=1 << L)))
    def test_roundtrip_exact(self, samples):
        assert ifwht(fwht(samples)) == list(samples)
        assert fwht(ifwht(samples)) == list(samples)

    @given(
        st.integers(1, 4).flatmap(
            lambda L: st.tuples(
                st.lists(rationals, min_size=1 << L, max_size=1 << L),
                st.lists(rationals, min_size=1 << L, max_size=1 << L),
                st.just(L),
            )
        ),
        rationals,
    )
    def test_linearity(self, fg, c):
        f, g, L = fg
        lhs = fwht([a * c + b for a, b in zip(f, g)])
        rhs = [a * c + b for a, b in zip(fwht(f), fwht(g))]
        assert lhs == rhs

    def test_constant_signal(self):
        assert fwht([Fraction(5)] * 8) == [Fraction(5)] + [Fraction(0)] * 7

    def test_l1_pair(self):
        a, b = Fraction(3), Fraction(7)
        assert fwht([a, b]) == [(a + b) / 2, (a - b) / 2]

    def test_bad_length(self):
        with pytest.raises(ValueError):
            fwht([1, 2, 3])
        with pytest.raises(ValueError):
            ifwht([])

    @given(st.lists(rationals, min_size=8, max_size=8))
    def test_parseval(self, samples):
        coef = fwht(samples)
        assert sum(x * x for x in samples) * Fraction(1, 8) == sum(c * c for c in coef)


class TestWavePackets:
    def test_pattern_support(self):
        P = Tile(DyadicInterval(1, 1), 1)
        pat = wave_packet_pattern(P, 3)
        assert pat[:4] == (0, 0, 0, 0)
        assert pat[4:] == (1, 1, -1, -1)

    def test_l2_normalization(self):
        wp = wave_packet(Tile(DyadicInterval(2, 0), 0), 3, mode="l2")
        vals = values_exact(wp)
        # |I| = 1/4 so the packet height is 2 = 2^(2/2); exact norm check
        norm_sq = sum(Fraction(v.frac) ** 2 * (2 if v.half_exp else 1) for v in vals)
        assert norm_sq * Fraction(1, 8) == 1

    def test_rejects_out_of_grid(self):
        with pytest.raises(ValueError):
            wave_packet_pattern(Tile(DyadicInterval(4, 0), 0), 3)
        with pytest.raises(ValueError):
            wave_packet_pattern(Tile(DyadicInterval(1, 0), 4), 3)
        with pytest.raises(ValueError):
            wave_packet_pattern(Tile(DyadicInterval(1, 2), 0), 3)

    def test_haar_pattern(self):
        assert haar_pattern(DyadicInterval(0, 0), 2) == (1, 1, -1, -1)
        assert haar_pattern(DyadicInterval(1, 1), 2) == (0, 0, 1, -1)

    @given(st.integers(1, 4), st.data())
    def test_packet_orthogonality_same_interval(self, L, data):
        k = data.draw(st.integers(0, L - 1))
        pos = data.draw(st.integers(0, (1 << k) - 1))
        local = L - k
        n1 = data.draw(st.integers(0, (1 << local) - 1))
        n2 = data.draw(st.integers(0, (1 << local) - 1))
        p1 = wave_packet_pattern(Tile(DyadicInterval(k, pos), n1), L)
        p2 = wave_packet_pattern(Tile(DyadicInterval(k, pos), n2), L)
        dot = sum(a * b for a, b in zip(p1, p2))
        assert dot == (0 if n1 != n2 else (1 << local))

    @given(st.lists(rationals, min_size=8, max_size=8))
    def test_pairing_inf_is_restricted_integral(self, samples):
        P = Tile(DyadicInterval(1, 0), 2)
        pat = wave_packet_pattern(P, 3)
        direct = sum(s * p for s, p in zip(samples, pat)) * Fraction(1, 8)
        assert pairing_inf(samples, P, 3) == direct


class TestRoot2Scaled:
    def test_normalization(self):
        x = Root2Scaled.make(Fraction(3), 4)
        assert (x.frac, x.half_exp) == (Fraction(12), 0)
        y = Root2Scaled.make(Fraction(3), 3)
        assert (y.frac, y.half_exp) == (Fraction(6), 1)

    def test_product_rationalizes(self):
        r = Root2Scaled.make(Fraction(1), 1)
        sq = r * r
        assert sq.is_rational() and sq.frac == 2

    def test_float(self):
        assert float(Root2Scaled.make(Fraction(1), 1)) == pytest.approx(2 ** 0.5)


@given(st.integers(0, 255))
def test_bit_reverse_involution(x):
    assert bit_reverse(bit_reverse(x, 8), 8) == x
