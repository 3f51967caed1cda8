"""Order laws, dichotomy, and universe enumeration for the dyadic layer."""

import itertools

import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from tilewalsh.dyadic import (
    Bitile,
    DyadicInterval,
    Tile,
    bitile_le,
    bitile_le_d,
    bitile_le_u,
    bitile_universe,
    tile_le,
    unit_intervals,
    universe_size,
)
from reference import bitile_lt, bitiles_overlap, tiles_disjoint


def intervals(max_k=5):
    return st.integers(0, max_k).flatmap(
        lambda k: st.builds(DyadicInterval, st.just(k), st.integers(0, (1 << k) - 1))
    )


def bitiles(max_k=4):
    return st.integers(0, max_k).flatmap(
        lambda k: st.builds(
            Bitile,
            st.builds(DyadicInterval, st.just(k), st.integers(0, (1 << k) - 1)),
            st.integers(0, 7),
        )
    )


class TestDyadicInterval:
    def test_endpoints(self):
        I = DyadicInterval(2, 3)
        assert I.left == Fraction(3, 4)
        assert I.right == 1
        assert I.length == Fraction(1, 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DyadicInterval(-1, 0)
        with pytest.raises(ValueError):
            DyadicInterval(0, -1)

    @given(intervals(), intervals())
    def test_dichotomy(self, I, J):
        # two dyadic intervals are nested or disjoint, never partially overlapping
        assert I.contains(J) or J.contains(I) or I.disjoint_from(J)

    @given(intervals())
    def test_halves_partition(self, I):
        a, b = I.halves()
        assert I.contains(a) and I.contains(b)
        assert a.disjoint_from(b)
        assert a.length + b.length == I.length

    @given(intervals(max_k=4))
    def test_cells_roundtrip(self, I):
        cells = list(I.cells(5))
        assert len(cells) == (1 << (5 - I.k))
        for j in cells:
            assert I.contains(DyadicInterval(5, j))

    def test_parent_of_root_rejected(self):
        with pytest.raises(ValueError):
            DyadicInterval(0, 0).parent()

    @given(intervals(max_k=5).filter(lambda I: I.k > 0))
    def test_parent_contains(self, I):
        assert I.parent().strictly_contains(I)

    def test_unit_intervals_count(self):
        assert sum(1 for _ in unit_intervals(3)) == 1 + 2 + 4 + 8


class TestTileOrder:
    def test_freq_window(self):
        p = Tile(DyadicInterval(2, 1), 3)
        assert (p.freq_lo, p.freq_hi) == (12, 16)

    @given(bitiles(), bitiles(), bitiles())
    def test_partial_order_laws(self, a, b, c):
        assert bitile_le(a, a)
        if bitile_le(a, b) and bitile_le(b, a):
            assert a == b
        if bitile_le(a, b) and bitile_le(b, c):
            assert bitile_le(a, c)

    @given(bitiles(), bitiles())
    def test_le_iff_overlap_and_coarser(self, a, b):
        # the order is exactly overlap plus time containment
        assert bitile_le(a, b) == (bitiles_overlap(a, b) and b.time.contains(a.time))

    @given(bitiles(), bitiles())
    def test_sub_orders_refine_full_order(self, a, b):
        if bitile_le_d(a, b) or bitile_le_u(a, b):
            assert bitile_le(a, b)

    @given(bitiles(), bitiles())
    def test_down_up_tiles_consistent(self, a, b):
        assert tile_le(a.down, b.down) == bitile_le_d(a, b)
        assert tile_le(a.up, b.up) == bitile_le_u(a, b)

    def test_index_orders_match_windows_exhaustive(self):
        items = [
            Bitile(DyadicInterval(k, pos), m)
            for k in range(4)
            for pos in range(1 << k)
            for m in range(20 >> k)
        ]
        for a, b in itertools.product(items, items):
            windows = a.freq_lo <= b.freq_lo and b.freq_hi <= a.freq_hi
            assert bitile_le(a, b) == (b.time.contains(a.time) and windows)
            assert bitile_le_d(a, b) == tile_le(a.down, b.down)
            assert bitile_le_u(a, b) == tile_le(a.up, b.up)

    @given(bitiles(), bitiles())
    def test_tiles_disjoint_symmetric(self, a, b):
        assert tiles_disjoint(a.down, b.down) == tiles_disjoint(b.down, a.down)

    def test_down_up_split(self):
        P = Bitile(DyadicInterval(1, 0), 2)
        assert (P.down.n, P.up.n) == (4, 5)
        assert P.freq_lo == P.down.freq_lo
        assert P.freq_hi == P.up.freq_hi
        assert P.freq_center == P.down.freq_hi == P.up.freq_lo


class TestUniverse:
    @pytest.mark.parametrize("L,count", [(1, 3), (2, 8), (3, 20), (4, 48)])
    def test_counts(self, L, count):
        U = bitile_universe(L)
        assert len(U.items) == count == universe_size(L)

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_completeness_brute_force(self, L):
        # exactly the bitiles inside [0,1) whose up-tile window meets [0, 2^L]
        U = set(bitile_universe(L).items)
        brute = set()
        for k in range(L + 1):
            for pos in range(1 << k):
                for m in range(0, 1 << (L + 2)):
                    P = Bitile(DyadicInterval(k, pos), m)
                    if P.up.freq_lo <= (1 << L):
                        brute.add(P)
        assert U == brute

    def test_membership_and_order(self):
        U = bitile_universe(3)
        assert list(U.items) == sorted(U.items, key=Bitile.key)
        assert U.items[0] in U
        assert Bitile(DyadicInterval(0, 0), 1 << 10) not in U

    def test_l1_example(self):
        U = bitile_universe(1)
        assert [P.key() for P in U.items] == [(0, 0, 0), (1, 0, 0), (1, 1, 0)]

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            bitile_universe(0)
        with pytest.raises(ValueError):
            bitile_universe(21)

    @given(bitiles(max_k=3), bitiles(max_k=3))
    def test_lt_strict(self, a, b):
        assert bitile_lt(a, b) == (bitile_le(a, b) and a != b)
