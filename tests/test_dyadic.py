"""Order laws, dichotomy, and universe enumeration for the dyadic layer."""

import itertools

import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from tilewalsh.dyadic import (
    Bitile,
    BitileIndex,
    DyadicInterval,
    Tile,
    bitile_le,
    bitile_le_d,
    bitile_le_u,
    bitile_universe,
    cell_codes,
    cell_keys,
    cells_above,
    in_grid,
    key_arrays,
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

    @given(st.integers(1, 6), st.data())
    def test_membership_is_the_enumeration_rule(self, L, data):
        U = bitile_universe(L)
        # keys inside the universe and one past it in each of k, pos and m
        k = data.draw(st.integers(0, L + 1))
        pos = data.draw(st.integers(0, 1 << k))
        m = data.draw(st.integers(0, (((1 << L) >> k) + 1) // 2))
        P = Bitile(DyadicInterval(k, pos), m)
        assert (P in U) == (P in set(U.items))

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


class TestCellGrid:
    @pytest.mark.parametrize("L", range(1, 6))
    def test_codes_sort_as_keys(self, L):
        U = bitile_universe(L).items
        codes = [cell_codes(*P.key(), L) for P in U]
        assert codes == sorted(codes) and len(set(codes)) == len(codes)
        assert all(cell_keys(c, L) == P.key() for c, P in zip(codes, U))
        assert in_grid(*key_arrays([P.key() for P in U]), L).all()
        past = [(L + 1, 0, 0), *((k, 1 << k, 0) for k in range(L + 1)), *((k, 0, 1 << (L - k)) for k in range(L + 1))]
        assert not in_grid(*key_arrays(past), L).any()

    @given(st.integers(1, 5), st.data())
    def test_cells_above_are_the_tile_order_ancestors(self, L, data):
        U = bitile_universe(L).items
        P = data.draw(st.sampled_from(U))
        k, pos, m = P.key()
        above = [c for d in range(k + 1) for c in range(*cells_above(k, pos, m, d, L))]
        assert len(above) == len(set(above))
        # the cells of the ranges are the grid's bitiles above P
        assert all(bitile_le(P, Bitile.from_key(cell_keys(c, L))) for c in above)
        for T in U:
            assert (cell_codes(*T.key(), L) in above) == bitile_le(P, T)

    def test_select_rejects_keys_past_the_grid(self):
        # depth 1: (1, 0, 0) and (1, 1, 0) at the codes 2 and 3
        coll = [Bitile(DyadicInterval(1, 0), 0), Bitile(DyadicInterval(1, 1), 0)]
        index = BitileIndex(coll)
        assert index.depth == 1
        assert index.select(coll[::-1] + coll).tolist() == [0, 1]
        assert index.select([]).tolist() == []
        # (1, 0, 1) and (0, 0, 2) would share the codes 3 and 2; the rest
        # lie past the grid or outside the index
        for key in [(1, 0, 1), (0, 0, 2), (2, 0, 0), (1, 2, 0), (0, 0, 0)]:
            with pytest.raises(KeyError):
                index.select([coll[0], Bitile.from_key(key)])
