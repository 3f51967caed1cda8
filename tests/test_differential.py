"""The density table, the packet table and the kernels built on it
(carleson_bitile, down_coefficients_inf, member_form_products), the
vectorized carleson_direct, the integer Hilbert up-sums and their dense
grids, the incremental density and size splits, the down-tile sweep, and
packet synthesis with the cutoff walk (tree_form_sum's split sums, the gap
sets, martingale_transform, tile_type_constant) against the retained
references in tests/reference.py."""

import json
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import reference
from tilewalsh import decompose, operators, timefreq
from tilewalsh.cli import main
from tilewalsh.decompose import (
    density_decompose,
    first_maximal_top,
    full_decompose,
    size_decompose,
    tile_type_constant,
)
from tilewalsh.dyadic import (
    Bitile,
    DyadicInterval,
    Tile,
    bitile_le,
    bitile_universe,
    unit_intervals,
)
from tilewalsh.gen import (
    SplitMix64,
    gen_collection,
    gen_levelset,
    gen_nfun,
    gen_signal,
    gen_tree_family,
)
from tilewalsh.operators import (
    carleson_bitile,
    carleson_direct,
    haar_intervals,
    martingale_transform,
)
from tilewalsh.signal import FrequencyChoice, NormPlugin, Signal, signal_from_json, value_is_zero
from tilewalsh.timefreq import (
    DensityCounter,
    Tree,
    TreeFamily,
    UpSumGrid,
    down_coefficients_inf,
    gap_set,
    gj_certificate,
    hilbert_member_weights,
    hilbert_top_sums,
    hilbert_tree_pows,
    local_density,
    meeting_tile_pairs,
    member_form_products,
    size_pow,
    tree_form_sum,
)
from tilewalsh.walsh import packet_table
from reference import bitile_lt, gen_tree_members, tiles_disjoint

EUCL = NormPlugin("euclidean")


@st.composite
def set_and_cutoffs(draw):
    """(E, N) at L in 1..6 from the seeded generators, including empty E,
    full E and N identically 2^L."""
    L = draw(st.integers(1, 6))
    rng = SplitMix64(draw(st.integers(0, 10**6)))
    E = gen_levelset(L, draw(st.sampled_from(["0", "1/4", "1/2", "1"])), rng)
    N = gen_nfun(L, rng)
    if draw(st.integers(0, 3)) == 0:
        N = FrequencyChoice(L, (1 << L,) * (1 << L))
    return E, N


class TestDensityTable:
    @given(set_and_cutoffs())
    @settings(max_examples=40, deadline=None)
    def test_value_and_witness_match_walk(self, EN):
        E, N = EN
        L = E.L
        table = DensityCounter(E, N)
        ref = reference.HistogramCounter(E, N)
        beyond = [
            Bitile(DyadicInterval(k, pos), m)
            for k in range(L + 1)
            for pos in (0, (1 << k) - 1)
            for m in (table.width[k], table.width[k] + 3)
        ]
        for P in list(bitile_universe(L).items) + beyond:
            assert local_density(P, table) == reference.local_density_walk(P, ref)

    @given(set_and_cutoffs())
    @settings(max_examples=20, deadline=None)
    def test_outside_unit_interval_is_empty(self, EN):
        E, N = EN
        table = DensityCounter(E, N)
        for k in range(E.L + 1):
            P = Bitile(DyadicInterval(k, 1 << k), 0)
            assert local_density(P, table) == (Fraction(0), P)


def _fraction_sums(coll, f):
    coeffs = down_coefficients_inf(f, coll)
    weights = hilbert_member_weights(coll, coeffs)
    sums = hilbert_top_sums(coll, weights)
    return weights, {Bitile.from_key(T): weights.value(s) for T, s in sums.items()}


def _reference_sums(coll, f):
    coeffs = reference.down_coefficients(f, coll)
    return reference.hilbert_top_sums(coll, reference.member_weights(coll, coeffs))


signal_shapes = st.sampled_from([(1, "vector"), (3, "vector"), (1, "matrix"), (2, "matrix")])


class TestHilbertSums:
    @given(st.integers(1, 5), signal_shapes, st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_integer_sums_match_fractions(self, L, shape, seed):
        rng = SplitMix64(seed)
        d, kind = shape
        f = gen_signal(L, d, kind, rng)
        coll = gen_collection(L, rng.below(30) + 1, rng)
        assert down_coefficients_inf(f, coll) == reference.down_coefficients(f, coll)
        weights, sums = _fraction_sums(coll, f)
        assert all(isinstance(w, int) for w in weights.num.values())
        assert sums == _reference_sums(coll, f)

    @given(
        st.integers(1, 4),
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=30), min_size=16, max_size=16),
    )
    @settings(max_examples=30, deadline=None)
    def test_non_dyadic_json_signal(self, L, pool):
        values = [[str(pool[(2 * j) % 16]), str(pool[(2 * j + 1) % 16])] for j in range(1 << L)]
        text = json.dumps({"levels": L, "dim": 2, "kind": "vector", "values": values})
        f = signal_from_json(json.loads(text))
        coll = list(bitile_universe(L).items)
        assert down_coefficients_inf(f, coll) == reference.down_coefficients(f, coll)
        _, sums = _fraction_sums(coll, f)
        assert sums == _reference_sums(coll, f)

    def test_thirds(self):
        f = signal_from_json(
            {"levels": 2, "dim": 1, "kind": "vector", "values": ["1/3", "-2/7", "5/9", "0"]}
        )
        coll = list(bitile_universe(2).items)
        weights, sums = _fraction_sums(coll, f)
        assert weights.den % 3 == 0 and weights.den % 7 == 0
        assert sums == _reference_sums(coll, f)

    @given(st.integers(1, 4), st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_float_signal_sums_identical(self, L, seed):
        rng = SplitMix64(seed)
        exact = gen_signal(L, 2, "vector", rng)
        values = [[float(x) / 3 for x in v] for v in exact.samples]
        f = signal_from_json({"levels": L, "dim": 2, "kind": "vector", "values": values})
        coll = gen_collection(L, rng.below(20) + 1, rng)
        assert down_coefficients_inf(f, coll) == reference.down_coefficients(f, coll)
        weights, sums = _fraction_sums(coll, f)
        assert weights.den == 1
        assert sums == _reference_sums(coll, f)


class TestSizeDecompose:
    @given(st.integers(2, 5), signal_shapes, st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_same_trees_as_reference(self, L, shape, seed):
        rng = SplitMix64(seed)
        d, kind = shape
        f = gen_signal(L, d, kind, rng)
        coll = gen_collection(L, rng.below(40) + 1, rng)
        res = size_decompose(coll, f, 2, EUCL)
        trees, small = reference.size_decompose_hilbert(coll, f)
        assert list(res.trees) == trees
        assert list(res.small) == small


# ---------------------------------------------------------------------------
# the packet table and the kernels on it

LEVELS = pytest.mark.parametrize("L", range(1, 9))


class TestPacketTable:
    @LEVELS
    @given(st.integers(0, 10**6), st.sampled_from([16, 40, 80]))
    @settings(max_examples=4, deadline=None)
    def test_entries_match_packet_sums(self, L, seed, bits):
        rng = random.Random(seed)
        terms = [rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(1 << L)]
        rows = packet_table(terms, L)
        assert len(rows) == L + 1 and rows[L] == terms
        for k in range(L + 1):
            local = L - k
            assert rows[k] == [
                reference.packet_sum(terms, L, k, i >> local, i & ((1 << local) - 1))
                for i in range(1 << L)
            ]


def _instance(L, shape, seed):
    rng = SplitMix64(seed)
    d, kind = shape
    f = gen_signal(L, d, kind, rng)
    g = gen_signal(L, d, kind, rng)
    E = gen_levelset(L, ["1/4", "1/2", "1"][rng.below(3)], rng)
    N = gen_nfun(L, rng)
    if rng.below(4) == 0:
        N = FrequencyChoice(L, (1 << L,) * (1 << L))
    return f, g, E, N


def _thirds(L, pool, kind="vector"):
    """A non-dyadic signal with dim 2 read through JSON."""
    if kind == "matrix":
        values = [[[str(pool[(4 * j + i) % 16]) for i in (0, 1)],
                   [str(pool[(4 * j + i) % 16]) for i in (2, 3)]] for j in range(1 << L)]
    else:
        values = [[str(pool[(2 * j) % 16]), str(pool[(2 * j + 1) % 16])] for j in range(1 << L)]
    text = json.dumps({"levels": L, "dim": 2, "kind": kind, "values": values})
    return signal_from_json(json.loads(text))


def _floats(f):
    """f's values divided by 3 in float: sums depend on their order."""
    def scale(v):
        return tuple(scale(x) for x in v) if isinstance(v, tuple) else float(v) / 3
    return Signal.from_values([scale(v) for v in f.samples], kind=f.kind)


class TestCarlesonKernels:
    @LEVELS
    @given(signal_shapes, st.integers(0, 10**6))
    @settings(max_examples=5, deadline=None)
    def test_bitile_and_direct_match_reference(self, L, shape, seed):
        f, _, _, N = _instance(L, shape, seed)
        ref = reference.carleson_direct(f, N).samples
        assert reference.carleson_bitile(f, N).samples == ref
        assert carleson_direct(f, N).samples == ref
        assert carleson_bitile(f, N, bitile_universe(L)).samples == ref

    @given(
        st.integers(1, 6),
        st.sampled_from(["vector", "matrix"]),
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=30), min_size=16, max_size=16),
        st.integers(0, 10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_non_dyadic_signal(self, L, kind, pool, seed):
        f = _thirds(L, pool, kind)
        N = gen_nfun(L, SplitMix64(seed))
        ref = reference.carleson_direct(f, N).samples
        assert carleson_direct(f, N).samples == ref
        assert carleson_bitile(f, N, bitile_universe(L)).samples == ref

    @given(st.integers(1, 7), signal_shapes, st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_float_bits_identical(self, L, shape, seed):
        f, _, _, N = _instance(L, shape, seed)
        f = _floats(f)
        assert repr(carleson_direct(f, N).samples) == repr(reference.carleson_direct(f, N).samples)
        assert repr(carleson_bitile(f, N, bitile_universe(L)).samples) == repr(
            reference.carleson_bitile(f, N).samples
        )

    @pytest.mark.parametrize("L", [3, 6])
    def test_wide_numerators_take_python_path(self, L, monkeypatch):
        rng = SplitMix64(L)
        f = Signal.scalar([Fraction((1 << 70) + rng.below(1 << 20), 3) for _ in range(1 << L)])
        N = gen_nfun(L, rng)

        def refuse(*args):
            raise AssertionError("int64 path taken for numerators past 2^62")

        monkeypatch.setattr(operators, "_cutoff_row_sums", refuse)
        ref = reference.carleson_direct(f, N).samples
        assert carleson_direct(f, N).samples == ref
        assert carleson_bitile(f, N, bitile_universe(L)).samples == ref

    def test_narrow_numerators_take_int64_path(self, monkeypatch):
        f, _, _, N = _instance(5, (2, "matrix"), 3)

        def refuse(*args):
            raise AssertionError("Python loop taken for int64-sized numerators")

        monkeypatch.setattr(operators, "_cutoff_row_sums_python", refuse)
        assert carleson_direct(f, N).samples == reference.carleson_direct(f, N).samples


class TestMemberFormProducts:
    @LEVELS
    @given(signal_shapes, st.integers(0, 10**6), st.booleans())
    @settings(max_examples=4, deadline=None)
    def test_matches_reference(self, L, shape, seed, whole):
        f, g, E, N = _instance(L, shape, seed)
        coll = (
            list(bitile_universe(L).items) if whole
            else gen_collection(L, SplitMix64(seed).below(40) + 1, SplitMix64(seed + 1))
        )
        got = member_form_products(coll, f, g, E, N)
        ref = reference.member_form_products(coll, f, g, E, N)
        assert list(got.items()) == list(ref.items())

    @given(
        st.integers(1, 5),
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=30), min_size=16, max_size=16),
        st.integers(0, 10**6),
    )
    @settings(max_examples=20, deadline=None)
    def test_non_dyadic_signal(self, L, pool, seed):
        f = _thirds(L, pool)
        g = _thirds(L, pool[::-1])
        rng = SplitMix64(seed)
        E, N = gen_levelset(L, "1/2", rng), gen_nfun(L, rng)
        coll = list(bitile_universe(L).items)
        assert member_form_products(coll, f, g, E, N) == reference.member_form_products(coll, f, g, E, N)

    @given(st.integers(1, 6), signal_shapes, st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_float_bits_identical(self, L, shape, seed):
        f, g, E, N = _instance(L, shape, seed)
        f, g = _floats(f), _floats(g)
        coll = list(bitile_universe(L).items)
        got = member_form_products(coll, f, g, E, N)
        ref = reference.member_form_products(coll, f, g, E, N)
        assert repr(list(got.items())) == repr(list(ref.items()))


# ---------------------------------------------------------------------------
# the greedy splits and the down-tile sweep

fractions_pool = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=30), min_size=16, max_size=16
)


def _split_signal(L, shape, seed, variant, pool):
    """f of the instance (L, shape, seed): exact, with non-dyadic
    denominators from pool, or in float."""
    f, _, E, N = _instance(L, shape, seed)
    if variant == "float":
        f = _floats(f)
    elif variant == "non-dyadic":
        it = iter(range(10**9))

        def scale(v):
            return tuple(scale(x) for x in v) if isinstance(v, tuple) else v * pool[next(it) % 16]
        f = Signal.from_values([scale(v) for v in f.samples], kind=f.kind)
    return f, E, N


def _collection(L, seed, whole):
    if whole:
        return list(bitile_universe(L).items)
    return gen_collection(L, SplitMix64(seed).below(60) + 1, SplitMix64(seed + 1))


variants = st.sampled_from(["exact", "non-dyadic", "float"])


class TestGreedySplits:
    @pytest.mark.parametrize("L", range(1, 8))
    @given(signal_shapes, st.integers(0, 10**6), variants, fractions_pool, st.booleans())
    @settings(max_examples=6, deadline=None)
    def test_hilbert_size_split(self, L, shape, seed, variant, pool, whole):
        f, _, _ = _split_signal(L, shape, seed, variant, pool)
        coll = _collection(L, seed, whole and L <= 6)
        got = size_decompose(coll, f, 2, EUCL)
        ref = reference.size_decompose(coll, f, 2, EUCL)
        # trees, small, certificates, tree_pows and stats, float bits included
        assert repr(got) == repr(ref)

    @given(
        st.integers(1, 3),
        st.sampled_from([(3, NormPlugin("lp", Fraction(3))), (3, EUCL), (4, EUCL)]),
        st.integers(0, 10**6),
        st.sampled_from(["exact", "float"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_generic_size_split(self, L, qp, seed, variant):
        q, plugin = qp
        f, _, _ = _split_signal(L, (1 if plugin.name == "lp" else 2, "vector"), seed, variant, None)
        coll = _collection(L, seed, L <= 2)
        assert repr(size_decompose(coll, f, q, plugin)) == repr(
            reference.size_decompose(coll, f, q, plugin)
        )

    @pytest.mark.parametrize("L", range(1, 8))
    @given(st.integers(0, 10**6), st.sampled_from([2, 3]), st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_density_split(self, L, seed, q, whole):
        _, _, E, N = _instance(L, (1, "vector"), seed)
        coll = _collection(L, seed, whole)
        assert density_decompose(coll, E, N, q) == reference.density_decompose(coll, E, N, q)

    @pytest.mark.parametrize("L", range(1, 7))
    @given(signal_shapes, st.integers(0, 10**6), variants, fractions_pool)
    @settings(max_examples=3, deadline=None)
    def test_level_tree_pows(self, L, shape, seed, variant, pool):
        f, E, N = _split_signal(L, shape, seed, variant, pool)
        if E.count == 0 or all(value_is_zero(v) for v in f.samples):
            return
        forest = full_decompose(list(bitile_universe(L).items), f, E, N, 2, EUCL)
        for rec in forest.levels:
            assert repr(rec.size_pows) == repr(
                tuple(size_pow(t.members, f, 2, EUCL) for t in rec.trees)
            )

    def test_one_up_sum_sweep_per_level(self, monkeypatch, tmp_path):
        calls = {"hilbert_top_sums": 0, "size_pow": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            wrapped = counted(name, getattr(timefreq, name))
            for module in (timefreq, decompose):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapped)
        out = tmp_path / "certify.json"
        result = CliRunner().invoke(
            main, ["certify", "--levels", "6", "--seed", "5", "--out", str(out)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        levels = len(json.loads(out.read_text())["form"]["levels"])
        assert levels >= 3
        assert calls["hilbert_top_sums"] <= levels + 1
        assert calls["size_pow"] <= 1


# ---------------------------------------------------------------------------
# the up-sum grids


def _fraction_pow(sums):
    """The q = 2 size power of Fraction up-sums keyed by Bitile."""
    best = max((s * (1 << T.time.k) for T, s in sums.items()), default=Fraction(0))
    return best if best > 0 else Fraction(0)


def _fraction_tree_pow(members, f):
    coeffs = reference.down_coefficients(f, members)
    return _fraction_pow(
        reference.hilbert_top_sums(members, reference.member_weights(members, coeffs))
    )


def _grid_bitiles(grid):
    """The bitiles of the nonzero cells of a grid, in canonical order."""
    D = grid.shape[0] - 1
    return sorted(
        Bitile(DyadicInterval(k, col >> (D - k)), col & ((1 << (D - k)) - 1))
        for k, col in zip(*(a.tolist() for a in np.nonzero(grid)))
    )


def _grid_dict(grid):
    """The nonzero up-sums of an UpSumGrid as Fractions keyed by Bitile."""
    D = grid.depth
    return {
        T: Fraction(int(grid.sums[T.time.k, (T.time.pos << (D - T.time.k)) + T.m]), grid.weights.den)
        for T in _grid_bitiles(grid.sums)
    }


def _first_maximal_reference(tops):
    """The tile-order maximal top of least frequency center, ties by key."""
    maximal = [T for T in tops if not any(bitile_lt(T, T2) for T2 in tops)]
    return min(maximal, key=lambda T: (T.freq_center, T.key()), default=None)


def _trees_over(coll, L, rng, count):
    """Trees with random tops from the universe and random members of coll
    below them in the tile order."""
    items = bitile_universe(L).items
    trees = []
    for _ in range(count):
        top = items[rng.below(len(items))]
        below = [P for P in coll if bitile_le(P, top) and rng.below(3)]
        if below:
            trees.append(Tree.build(top, below))
    return trees


def _huge_signal(L, seed):
    """An exact signal whose every nonzero mass passes 2^64: each component
    has its own 32-bit prime denominator, so each nonzero coefficient's
    numerator over the common denominator carries the other prime."""
    rng = SplitMix64(seed)
    return Signal.from_values(
        [(Fraction(rng.below(1 << 20) + 1, 4294967291), Fraction(rng.below(1 << 20) + 1, 4294967279))
         for _ in range(1 << L)]
    )


class TestUpSumGrids:
    @given(st.integers(1, 7), signal_shapes, st.integers(0, 10**6),
           st.sampled_from(["exact", "non-dyadic"]), fractions_pool, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_grid_matches_fraction_sums(self, L, shape, seed, variant, pool, whole):
        f, E, N = _split_signal(L, shape, seed, variant, pool)
        rng = SplitMix64(seed + 7)
        coll = _collection(L, seed, whole and L <= 6)
        weights = hilbert_member_weights(coll, down_coefficients_inf(f, coll))
        grid = UpSumGrid(coll, weights)
        ref = reference.hilbert_top_sums(
            coll, reference.member_weights(coll, reference.down_coefficients(f, coll))
        )
        assert _grid_dict(grid) == {T: s for T, s in ref.items() if s}
        sigma = grid.pow()
        assert sigma == _fraction_pow(ref)

        # a removal mask, as the greedy's decrement takes trees out
        gone = [P for P in coll if rng.below(3) == 0]
        grid.remove(gone)
        kept = [P for P in coll if P not in set(gone)]
        ref = reference.hilbert_top_sums(
            kept, reference.member_weights(kept, reference.down_coefficients(f, kept))
        )
        assert _grid_dict(grid) == {T: s for T, s in ref.items() if s}
        assert grid.pow() == _fraction_pow(ref)

        for bound in (sigma / 4, sigma * Fraction(rng.below(5), 7), Fraction(0)):
            mask = grid.exceeding(bound)
            tops = sorted(T for T, s in ref.items() if s * (1 << T.time.k) > bound)
            assert _grid_bitiles(mask) == tops
            expected = _first_maximal_reference(tops)
            assert first_maximal_top(mask) == (expected.key() if expected else None)

        trees = _trees_over(coll, L, rng, 6)
        assert hilbert_tree_pows(trees, weights) == [_fraction_tree_pow(t.members, f) for t in trees]
        dres = density_decompose(coll, E, N, 2)
        assert hilbert_tree_pows(dres.trees, weights) == [
            _fraction_tree_pow(t.members, f) for t in dres.trees
        ]

    @given(st.integers(1, 5), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_float_masses_keep_sweep_bits(self, L, seed):
        f, E, N = _split_signal(L, (2, "vector"), seed, "float", None)
        rng = SplitMix64(seed + 7)
        coll = _collection(L, seed, L <= 4)
        weights = hilbert_member_weights(coll, down_coefficients_inf(f, coll))
        assert not weights.exact
        assert repr(UpSumGrid(coll, weights).pow()) == repr(reference.sweep_pow(coll, weights))
        trees = _trees_over(coll, L, rng, 6) + list(density_decompose(coll, E, N, 2).trees)
        assert repr(hilbert_tree_pows(trees, weights)) == repr(
            [reference.sweep_pow(t.members, weights) for t in trees]
        )

    @pytest.mark.parametrize("L", [3, 5])
    def test_wide_masses_take_python_ints(self, L, monkeypatch):
        f = _huge_signal(L, L)
        _, _, E, N = _instance(L, (2, "vector"), L)
        choose = timefreq._mass_dtype

        def refuse_int64(total):
            dtype = choose(total)
            if total and dtype is not object:
                raise AssertionError("int64 grid for masses past 2^62")
            return dtype

        monkeypatch.setattr(timefreq, "_mass_dtype", refuse_int64)
        coll = list(bitile_universe(L).items)
        weights, sums = _fraction_sums(coll, f)
        assert min(w for w in weights.num.values() if w).bit_length() > 62
        assert sums == _reference_sums(coll, f)
        res = size_decompose(coll, f, 2, EUCL)
        trees, small = reference.size_decompose_hilbert(coll, f)
        assert (list(res.trees), list(res.small)) == (trees, small)
        assert list(res.tree_pows) == [_fraction_tree_pow(t.members, f) for t in trees]
        forest = full_decompose(coll, f, E, N, 2, EUCL)
        assert forest.levels
        for rec in forest.levels:
            assert list(rec.size_pows) == [_fraction_tree_pow(t.members, f) for t in rec.trees]

    def test_seeded_masses_take_int64(self, monkeypatch):
        chosen = []
        choose = timefreq._mass_dtype

        def record(total):
            chosen.append(choose(total))
            return chosen[-1]

        monkeypatch.setattr(timefreq, "_mass_dtype", record)
        f, _, E, N = _instance(6, (2, "vector"), 11)
        full_decompose(list(bitile_universe(6).items), f, E, N, 2, EUCL)
        assert chosen and all(dtype is np.int64 for dtype in chosen)

    def test_exact_certify_walks_no_ancestor_keys(self, monkeypatch, tmp_path):
        calls = []
        walk = timefreq.up_ancestor_keys

        def counted(*key):
            calls.append(key)
            return walk(*key)

        monkeypatch.setattr(timefreq, "up_ancestor_keys", counted)
        out = tmp_path / "certify.json"
        result = CliRunner().invoke(
            main, ["certify", "--levels", "7", "--seed", "2", "--out", str(out)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        assert json.loads(out.read_text())["form"]["levels"]
        assert calls == []


# ---------------------------------------------------------------------------
# packet synthesis and the cutoff walk

synthesis_shapes = st.sampled_from([(1, "vector"), (2, "vector"), (1, "matrix"), (2, "matrix")])


def _plugin(kind, generic):
    """euclidean, or the kind's generic norm: lp:3 or schatten:3."""
    if not generic:
        return EUCL
    return NormPlugin("schatten" if kind == "matrix" else "lp", Fraction(3))


class TestGapSets:
    @given(st.integers(1, 6), synthesis_shapes, st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_gap_sets_match_up_window_test(self, L, shape, seed):
        f, g, E, N = _instance(L, shape, seed)
        rng = SplitMix64(seed + 2)
        items = bitile_universe(L).items
        # cutoffs at the center of the top (0, 0, 2^(L-1) - 1) hit its up
        # members at several scales
        if rng.below(4):
            top = Bitile(DyadicInterval(0, 0), (1 << (L - 1)) - 1)
        else:
            top = items[rng.below(len(items))]
        center = (2 * top.m + 1) << top.time.k
        N = FrequencyChoice(L, tuple(center if rng.below(4) else n for n in N.values))
        tree = Tree.build(top, [P for P in items if bitile_le(P, top) and rng.below(2)])
        for J in unit_intervals(L):
            assert gap_set(J, tree.members, E, N) == reference.gap_set(J, tree.members, E, N)
        assert repr(gj_certificate(tree, E, N)) == repr(reference.gj_certificate(tree, E, N))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, diag = tree_form_sum(tree, f, g, E, N, 2, EUCL)
        assert repr(diag["split_sums"]) == repr(reference.split_sums(tree, f, g, E, N, EUCL))


class TestPacketSynthesis:
    @given(st.integers(1, 6), synthesis_shapes, st.integers(0, 10**6), variants, fractions_pool,
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_split_sums(self, L, shape, seed, variant, pool, generic):
        f, E, N = _split_signal(L, shape, seed, variant, pool)
        g, _, _ = _split_signal(L, shape, seed + 1, variant, pool[::-1])
        rng = SplitMix64(seed + 2)
        items = bitile_universe(L).items
        # below the top (0, 0, 2^(L-1) - 1), a cutoff at the top's center lies
        # in the up-windows of up members at every scale, so float sums of
        # three or more terms show their order
        if rng.below(4):
            top = Bitile(DyadicInterval(0, 0), (1 << (L - 1)) - 1)
        else:
            top = items[rng.below(len(items))]
        center = (2 * top.m + 1) << top.time.k
        N = FrequencyChoice(L, tuple(center if rng.below(4) else n for n in N.values))
        tree = Tree.build(top, [P for P in items if bitile_le(P, top) and rng.below(2)])
        plugin = _plugin(shape[1], generic)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, diag = tree_form_sum(tree, f, g, E, N, 2, plugin)
        assert repr(diag["split_sums"]) == repr(reference.split_sums(tree, f, g, E, N, plugin))

    @given(st.integers(1, 6), synthesis_shapes, st.integers(0, 10**6), variants, fractions_pool)
    @settings(max_examples=30, deadline=None)
    def test_martingale_transform(self, L, shape, seed, variant, pool):
        f, _, _ = _split_signal(L, shape, seed, variant, pool)
        rng = SplitMix64(seed)
        family = [I for I in haar_intervals(L) if rng.below(4)]
        rng.shuffle(family)
        signs = {I: 1 - 2 * rng.below(2) for I in family}
        assert repr(martingale_transform(f, signs, family)) == repr(
            reference.martingale_transform(f, signs, family)
        )

    @given(st.integers(1, 6), synthesis_shapes, st.integers(0, 10**6), variants, fractions_pool,
           st.sampled_from([2, 3]), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_tile_type_constant(self, L, shape, seed, variant, pool, q, generic):
        f, _, _ = _split_signal(L, shape, seed, variant, pool)
        fam = gen_tree_family(L, SplitMix64(seed))
        plugin = _plugin(shape[1], generic)
        assert repr(tile_type_constant(fam, f, q, plugin)) == repr(
            reference.tile_type_constant(fam, f, q, plugin)
        )


def _random_family(L, seed, trees):
    """Trees with overlapping tops and shared members, so that down-tiles
    meet."""
    rng = SplitMix64(seed)
    items = bitile_universe(L).items
    family = []
    for _ in range(trees):
        top = items[rng.below(len(items))]
        family.append(Tree.build(top, gen_tree_members(L, top, rng.below(8) + 1, rng)))
    return TreeFamily(tuple(family))


class TestDownTileSweep:
    @given(st.integers(1, 5), st.integers(0, 10**6), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_family_violations_match_pairwise_scan(self, L, seed, trees):
        fam = _random_family(L, seed, trees)
        entries = [(P, i) for i, t in enumerate(fam.trees) for P in t.members]
        assert fam.down_disjointness_violations() == reference.down_tile_violations(entries)

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 20), st.integers(0, 5)), max_size=40
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_meeting_pairs_match_pairwise_scan(self, raw):
        tiles = [(k, pos % (1 << k), n) for k, pos, n in raw]
        objs = [Tile(DyadicInterval(k, pos), n) for k, pos, n in tiles]
        expected = [
            (a, b)
            for a in range(len(objs))
            for b in range(a + 1, len(objs))
            if not tiles_disjoint(objs[a], objs[b])
        ]
        assert meeting_tile_pairs(tiles) == expected

    def test_overlapping_tiles_are_counted(self):
        # a tile, its duplicate, one below it, and one disjoint from all
        tiles = [(1, 0, 2), (1, 0, 2), (2, 1, 1), (2, 2, 1)]
        assert meeting_tile_pairs(tiles) == [(0, 1), (0, 2), (1, 2)]
        fam = _random_family(4, 7, 5)
        assert len(fam.down_disjointness_violations()) > 0
