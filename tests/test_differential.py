"""The density table, the packet table and the kernels built on it
(carleson_bitile, down_coefficients_inf, member_form_products), the
vectorized carleson_direct, the integer Hilbert up-sums and their dense
grids, the incremental density and size splits, the down-tile sweep, and
packet synthesis with the cutoff walk (tree_form_sum's split sums, the gap
sets, martingale_transform, tile_type_constant) against the retained
references in tests/reference.py."""

import itertools
import json
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import reference
from tilewalsh import decompose, operators, signal, timefreq
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
    walsh_coefficients,
    walsh_synthesis,
)
from tilewalsh.signal import FrequencyChoice, NormPlugin, Signal, signal_from_json, value_is_zero
from tilewalsh.timefreq import (
    DensityCounter,
    SizeEvaluator,
    Tree,
    TreeDeltaGrid,
    TreeFamily,
    UpSumGrid,
    _pow_gt,
    down_coefficients_inf,
    gap_set,
    gj_certificate,
    hilbert_top_sums,
    hilbert_tree_pows,
    local_density,
    maximal_gap_intervals,
    meeting_tile_count,
    meeting_tile_pairs,
    member_form_products,
    size_pow,
    tree_form_sum,
)
from tilewalsh import walsh as walsh_module
from tilewalsh.walsh import cutoff_hits, fwht, ifwht, packet_synthesis, packet_table, walsh
from reference import bitile_lt, gen_tree_members, hilbert_member_weights, tiles_disjoint

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
            for m in (((1 << L) >> (k + 1)) + 1, ((1 << L) >> (k + 1)) + 4, 1 << (L - k))
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
    sums = hilbert_top_sums(coll, reference.index_weights(coll, weights))
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
    @example(1, 526)
    @settings(max_examples=15, deadline=None)
    def test_decimal_signal_sums_identical(self, L, seed):
        rng = SplitMix64(seed)
        f = _decimals(gen_signal(L, 2, "vector", rng))
        coll = gen_collection(L, rng.below(20) + 1, rng)
        assert down_coefficients_inf(f, coll) == reference.down_coefficients(f, coll)
        weights, sums = _fraction_sums(coll, f)
        # the decimals' factor 5 reaches the masses; a draw whose values
        # all divide by 3 (seed 526 at L = 1) reads back dyadic, with no 5
        assert (weights.den % 5 == 0) == (f.den % 5 == 0)
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



def _terms(rng, L, bits):
    """2^L integers of at most `bits` bits, either sign."""
    return [rng.getrandbits(bits) * rng.choice((-1, 1)) for _ in range(1 << L)]


# numerator widths: int64 with room to spare, at the int64 edge of the
# transforms (62 - L) and one bit past it, and Python ints
def _widths(L):
    return st.sampled_from([16, 40, 61 - L, 62 - L, 80])


ALL_LEVELS = pytest.mark.parametrize("L", range(1, 10))


class TestArrayKernels:
    """walsh's packet-table recurrence on int64 and object arrays against
    the list kernels it replaced."""

    @ALL_LEVELS
    @given(st.data(), st.integers(0, 10**6))
    @settings(max_examples=6, deadline=None)
    def test_transforms_and_table_match_list_kernels(self, L, data, seed):
        rng = random.Random(seed)
        bits = data.draw(_widths(L))
        # a random vector, and one whose coefficient n is 2^L (2^bits - 1),
        # the largest sum of these widths
        n = rng.randrange(1 << L)
        extreme = [((1 << bits) - 1) * s for s in walsh(n, L)]
        for terms in (_terms(rng, L, bits), extreme):
            assert fwht(terms, normalize=False) == reference.butterfly_fwht(terms, normalize=False)
            assert fwht(terms) == reference.butterfly_fwht(terms)
            assert ifwht(terms) == reference.butterfly_ifwht(terms)
            assert packet_table(terms, L) == reference.packet_table(terms, L)
        assert fwht(extreme, normalize=False)[n] == ((1 << bits) - 1) << L

    @ALL_LEVELS
    @given(st.data(), st.integers(0, 10**6), st.sampled_from([1, 4]))
    @settings(max_examples=4, deadline=None)
    def test_carleson_bitile_matches_direct(self, L, data, seed, ncols):
        rng = random.Random(seed)
        bits = data.draw(_widths(L) | st.sampled_from([60 - L - (L + 1).bit_length(), 61 - L - (L + 1).bit_length()]))
        kind = "matrix" if ncols == 4 else "vector"
        f = Signal(L, 2 if ncols == 4 else 1, kind, [_terms(rng, L, bits) for _ in range(ncols)], 1)
        N = FrequencyChoice(L, tuple(rng.randint(0, 1 << L) for _ in range(1 << L)))
        assert carleson_bitile(f, N, bitile_universe(L)) == carleson_direct(f, N)

    @ALL_LEVELS
    @given(st.integers(0, 10**6))
    @settings(max_examples=5, deadline=None)
    def test_cutoff_hits_match_cell_walk(self, L, seed):
        rng = random.Random(seed)
        cutoffs = [rng.randint(0, 1 << L) for _ in range(1 << L)]
        assert cutoff_hits(cutoffs, L) == reference.cutoff_hits(cutoffs, L)

    def test_benchmark_shaped_input_takes_int64(self, monkeypatch):
        chosen = _record_dtypes(monkeypatch, walsh_module)
        rng = SplitMix64(7)
        f = gen_signal(9, 2, "matrix", rng)
        N = gen_nfun(9, rng)
        coef = operators.walsh_coefficients(f)
        carleson_bitile(f, N, bitile_universe(9))
        assert operators.walsh_synthesis(coef) == f
        # the four columns forward in one call, carleson_bitile's table and
        # the four columns back in one call
        assert chosen == [np.int64] * 3

    @pytest.mark.parametrize("L", [3, 9])
    def test_wide_numerators_take_python_ints(self, L, monkeypatch):
        chosen = _record_dtypes(monkeypatch, walsh_module)
        rng = random.Random(L)
        f = Signal(L, 1, "vector", [_terms(rng, L, 63 - L)], 1)
        N = FrequencyChoice(L, tuple(rng.randint(0, 1 << L) for _ in range(1 << L)))
        assert carleson_bitile(f, N, bitile_universe(L)) == carleson_direct(f, N)
        assert walsh_module.ifwht(list(f.cols[0])) == reference.butterfly_ifwht(f.cols[0])
        # walsh_coefficients in carleson_direct, carleson_bitile's table and ifwht
        assert chosen == [object] * 3

    @pytest.mark.parametrize("L", [1, 5, 9])
    def test_cutoff_kernels_need_no_bitwise_count(self, L, monkeypatch):
        # np.bitwise_count is numpy 2.0 and later; the project takes 1.24
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        rng = SplitMix64(L)
        f = gen_signal(L, 2, "vector", rng)
        N = gen_nfun(L, rng)
        assert cutoff_hits(N.values, L) == reference.cutoff_hits(N.values, L)
        assert carleson_bitile(f, N, bitile_universe(L)).samples == reference.carleson_bitile(f, N).samples


def _record_dtypes(monkeypatch, module):
    """The dtypes that module.int_dtype picks from now on, in call order."""
    chosen = []
    choose = module.int_dtype

    def record(bits):
        chosen.append(choose(bits))
        return chosen[-1]

    monkeypatch.setattr(module, "int_dtype", record)
    return chosen


def _direct_dtypes(monkeypatch):
    """The dtypes of the columns operators._cutoff_row_sums gets from now
    on, in call order."""
    chosen = []
    run = operators._cutoff_row_sums

    def record(columns, cutoffs, L):
        chosen.append(columns.dtype)
        return run(columns, cutoffs, L)

    monkeypatch.setattr(operators, "_cutoff_row_sums", record)
    return chosen


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


def _decimals(f):
    """f's values divided by 3 in float, written as decimal strings and
    read through JSON: exact, with wide non-dyadic denominators."""
    def scale(v):
        return [scale(x) for x in v] if isinstance(v, tuple) else repr(float(v) / 3)
    text = json.dumps({"levels": f.L, "dim": f.d, "kind": f.kind, "values": [scale(v) for v in f.samples]})
    return signal_from_json(json.loads(text))


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
    def test_decimal_signal(self, L, shape, seed):
        f, _, _, N = _instance(L, shape, seed)
        f = _decimals(f)
        ref = reference.carleson_direct(f, N).samples
        assert carleson_direct(f, N).samples == ref
        assert carleson_bitile(f, N, bitile_universe(L)).samples == ref

    @pytest.mark.parametrize("L", [3, 6])
    def test_wide_numerators_take_python_path(self, L, monkeypatch):
        chosen = _record_dtypes(monkeypatch, operators)
        rng = SplitMix64(L)
        f = Signal.scalar([Fraction((1 << 70) + rng.below(1 << 20), 3) for _ in range(1 << L)])
        N = gen_nfun(L, rng)
        ref = reference.carleson_direct(f, N).samples
        assert carleson_direct(f, N).samples == ref
        assert chosen == [object]
        assert carleson_bitile(f, N, bitile_universe(L)).samples == ref

    def test_benchmark_shape_takes_float64_path(self, monkeypatch):
        chosen = _direct_dtypes(monkeypatch)
        f, _, _, N = _instance(9, (2, "matrix"), 3)
        assert carleson_direct(f, N).samples == reference.carleson_direct(f, N).samples
        assert chosen == [np.float64]

    @pytest.mark.parametrize("bits, dtype", [(53, np.float64), (54, np.int64), (62, np.int64), (63, object)])
    @pytest.mark.parametrize("L", [1, 4, 7])
    def test_dtype_tiers_at_their_bounds(self, L, bits, dtype, monkeypatch):
        # coefficient numerators below 2^(bits - L) over den 2^L, the top
        # one odd, so max|numerator| 2^L just fits bits; column 0 is all
        # top, and with the full cutoff at cell 0 its sum is 2^bits - 2^L
        chosen = _direct_dtypes(monkeypatch)
        rng = random.Random(bits * 8 + L)
        top = (1 << (bits - L)) - 1
        cols = [[top] * (1 << L), [top] + [rng.randint(-top, top) for _ in range(1, 1 << L)]]
        f = walsh_synthesis(Signal(L, 2, "vector", cols, 1 << L))
        assert walsh_coefficients(f).cols == tuple(map(tuple, cols))
        cutoffs = gen_nfun(L, SplitMix64(bits)).values
        N = FrequencyChoice(L, (1 << L,) + cutoffs[1:])
        got = carleson_direct(f, N)
        assert got.samples == reference.carleson_direct(f, N).samples
        assert chosen == [dtype]
        assert got.comps[0][0] == top


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
    def test_decimal_signal(self, L, shape, seed):
        f, g, E, N = _instance(L, shape, seed)
        f, g = _decimals(f), _decimals(g)
        coll = list(bitile_universe(L).items)
        got = member_form_products(coll, f, g, E, N)
        ref = reference.member_form_products(coll, f, g, E, N)
        assert list(got.items()) == list(ref.items())


# ---------------------------------------------------------------------------
# the greedy splits and the down-tile sweep

fractions_pool = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=30), min_size=16, max_size=16
)


def _split_signal(L, shape, seed, variant, pool):
    """f of the instance (L, shape, seed): exact, divided by 3, with
    non-dyadic denominators from pool, or read from decimal strings."""
    f, _, E, N = _instance(L, shape, seed)
    if variant == "decimal":
        f = _decimals(f)
    elif variant == "third":
        f = _rescaled(f, "third", pool)
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


variants = st.sampled_from(["exact", "non-dyadic", "decimal"])

# (q, norm, signal shape) on the generic size path
generic_cases = st.sampled_from(
    [
        (3, NormPlugin("lp", Fraction(3)), (1, "vector")),
        (3, EUCL, (2, "vector")),
        (4, EUCL, (2, "vector")),
        (3, NormPlugin("lp", Fraction(3)), (2, "vector")),
        (3, NormPlugin("schatten", Fraction(3)), (2, "matrix")),
        (2, NormPlugin("schatten", Fraction(3, 2)), (2, "matrix")),
        (2.5, NormPlugin("lp", Fraction(3)), (1, "vector")),
        (2.5, EUCL, (2, "vector")),
    ]
)


@st.composite
def forest_cases(draw):
    """(variant, L, shape, q, norm, seed, whole collection): exact, divided
    by 3, decimal or wide input (the masses pass 62 bits), the Hilbert case
    up to L = 7 and the generic sizes up to L = 5."""
    variant = draw(st.sampled_from(["exact", "third", "decimal", "wide"]))
    shape = draw(st.sampled_from([(1, "vector"), (2, "vector"), (2, "matrix")]))
    norms = ["euclidean", "lp:3"] + (["schatten:2", "schatten:3"] if shape[1] == "matrix" else [])
    q, norm = draw(st.sampled_from([2, 3, 2.5])), draw(st.sampled_from(norms))
    hilbert = q == 2 and norm in ("euclidean", "schatten:2")
    L = draw(st.integers(1, 7 if hilbert else 5))
    return variant, L, shape, q, norm, draw(st.integers(0, 10**6)), draw(st.booleans())


def _wide(f):
    """f with its entries divided in turn by two 32-bit primes: the common
    denominator carries both, so every nonzero mass passes 2^62."""
    primes = itertools.cycle([4294967291, 4294967279])

    def scale(v):
        return tuple(scale(x) for x in v) if isinstance(v, tuple) else v / next(primes)
    return Signal.from_values([scale(v) for v in f.samples], kind=f.kind)


def _outcome(fn, *args):
    """repr of fn's result, or the type of the error it raises."""
    try:
        return repr(fn(*args))
    except (ValueError, RuntimeError) as exc:
        return type(exc)


class TestGreedySplits:
    @pytest.mark.parametrize("L", range(1, 8))
    @given(signal_shapes, st.integers(0, 10**6), variants, fractions_pool, st.booleans())
    @settings(max_examples=6, deadline=None)
    def test_hilbert_size_split(self, L, shape, seed, variant, pool, whole):
        f, _, _ = _split_signal(L, shape, seed, variant, pool)
        coll = _collection(L, seed, whole and L <= 6)
        got = size_decompose(coll, f, 2, EUCL)
        ref = reference.size_decompose(coll, f, 2, EUCL)
        # trees, small, certificates, tree_pows and stats, float ratios included
        assert repr(got) == repr(ref)

    @given(generic_cases, st.integers(0, 10**6), st.sampled_from(["exact", "decimal"]))
    @settings(max_examples=12, deadline=None)
    def test_generic_size_split(self, case, seed, variant):
        q, plugin, shape = case
        for L in range(1, 6):
            f, _, _ = _split_signal(L, shape, seed, variant, None)
            coll = _collection(L, seed, L <= 2)
            assert repr(size_decompose(coll, f, q, plugin)) == repr(
                reference.size_decompose(coll, f, q, plugin)
            ), L

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

    @given(forest_cases())
    @example(("wide", 5, (2, "vector"), 2, "euclidean", 7, True))
    @settings(max_examples=40, deadline=None)
    def test_leveled_forest_matches_bitile_loop(self, case):
        """full_decompose on one index per run against the level loop on
        Bitile collections: trees, residual, certificates, size powers and
        densities, float bits included."""
        variant, L, shape, q, norm, seed, whole = case
        f, E, N = _split_signal(L, shape, seed, "exact" if variant == "wide" else variant, None)
        if variant == "wide":
            f = _wide(f)
        plugin = NormPlugin.parse(norm, q=q)
        coll = _collection(L, seed, whole)
        assert _outcome(full_decompose, coll, f, E, N, q, plugin) == _outcome(
            reference.full_decompose, coll, f, E, N, q, plugin
        )

    @given(forest_cases())
    @example(("wide", 5, (1, "vector"), 2, "euclidean", 7, True))
    @settings(max_examples=15, deadline=None)
    def test_lazy_level_trees_match_eager_trees(self, case):
        """Each level's TreeView: len() makes no Tree, and the Trees it
        makes equal the eager, checked Trees of the Bitile level loop."""
        variant, L, shape, q, norm, seed, whole = case
        f, E, N = _split_signal(L, shape, seed, "exact" if variant == "wide" else variant, None)
        if variant == "wide":
            f = _wide(f)
        plugin = NormPlugin.parse(norm, q=q)
        coll = _collection(L, seed, whole)
        try:
            forest = full_decompose(coll, f, E, N, q, plugin)
        except (ValueError, RuntimeError):
            return
        ref = reference.full_decompose(coll, f, E, N, q, plugin)
        assert len(forest.levels) == len(ref.levels)
        for rec, ref_rec in zip(forest.levels, ref.levels):
            assert isinstance(rec.trees, timefreq.TreeView)
            assert len(rec.trees) == len(ref_rec.trees) and "trees" not in vars(rec.trees)
            assert tuple(rec.trees) == ref_rec.trees == rec.trees
            assert [Tree(t.top, t.members) for t in rec.trees] == list(ref_rec.trees)

    @pytest.mark.parametrize("variant", ["exact", "wide"])
    def test_certify_report_bytes_match_json_dump(self, variant):
        """carleson_form_certificate's report, its form numerators past
        int64 on wide input, written as json.dumps writes its values."""
        f, g, E, N = _instance(6, (1, "vector"), 5)
        if variant == "wide":
            f = _wide(f)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = decompose.carleson_form_certificate(f, g, E, N, 2, EUCL)
        forms = rep["levels"].columns["trees"].records.columns["form"]
        assert (forms.nums.dtype == object) == (variant == "wide")
        assert signal.json_text(rep) == json.dumps(reference.jsonable(rep), indent=2, sort_keys=True)

    def test_one_tree_pow_batch_per_run(self, monkeypatch, tmp_path):
        calls = _count_calls(monkeypatch, ["hilbert_tree_pows", "density"])
        out = _certify_l6(tmp_path)
        levels = len(json.loads(out.read_text())["form"]["levels"])
        assert levels >= 3
        assert calls["hilbert_tree_pows"] == 1
        assert calls["density"] <= 1

    def test_generic_tops_synthesize_on_their_own_cells(self, monkeypatch, tmp_path):
        gen = CliRunner().invoke(
            main, ["gen", "--levels", "5", "--seed", "3", "--out", str(tmp_path)],
            catch_exceptions=False,
        )
        assert gen.exit_code == 0
        delta, synthesis = timefreq.tree_delta_pow, timefreq.packet_synthesis
        # L - k_T of the top being evaluated, and (L - k_T, resolution) of
        # each synthesis made meanwhile
        tops, resolutions = [], []
        calls = 0

        def counted_delta(tree, f, *args, **kwargs):
            nonlocal calls
            calls += 1
            tops.append(f.L - tree.top.time.k)
            try:
                return delta(tree, f, *args, **kwargs)
            finally:
                tops.pop()

        def recorded_synthesis(entries, ncomp, L):
            cols = synthesis(entries, ncomp, L)
            if tops:
                resolutions.append((tops[-1], L))
                # the exact signal's coefficients stay integers over one den
                assert all(type(x) is int for col in cols for x in col)
            return cols

        monkeypatch.setattr(timefreq, "tree_delta_pow", counted_delta)
        monkeypatch.setattr(timefreq, "packet_synthesis", recorded_synthesis)
        result = CliRunner().invoke(
            main,
            ["decompose", "--in", str(tmp_path / "signal.json"), "--set", str(tmp_path / "set.json"),
             "--nfun", str(tmp_path / "nfun.json"), "--norm", "lp:3", "--q", "3",
             "--out", str(tmp_path / "dec.json")],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        assert 0 < len(resolutions) <= calls <= 871
        assert all(local == L for local, L in resolutions)

    def test_per_run_inputs_computed_once(self, monkeypatch, tmp_path):
        calls = _count_calls(
            monkeypatch,
            ["down_coefficient_rows", "member_masses", "member_form_ints", "lq_norm_pow"],
        )
        counted = _counted(calls, "DensityCounter.__init__", DensityCounter.__init__)
        monkeypatch.setattr(DensityCounter, "__init__", counted)
        # the exact path makes no Fraction per member, and no map by key
        views = _count_calls(
            monkeypatch, ["down_coefficients", "down_coefficients_inf", "member_form_products"]
        )
        _certify_l6(tmp_path)
        assert calls == dict.fromkeys(calls, 1)
        assert views == dict.fromkeys(views, 0)


def _counted(calls, name, fn):
    calls[name] = 0

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _count_calls(monkeypatch, names):
    """Call counts of the named timefreq functions, wrapped in every module
    that bound them."""
    calls = {}
    for name in names:
        wrapped = _counted(calls, name, getattr(timefreq, name))
        for module in (signal, timefreq, decompose):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    return calls


def _certify_l6(tmp_path):
    out = tmp_path / "certify.json"
    result = CliRunner().invoke(
        main, ["certify", "--levels", "6", "--seed", "5", "--out", str(out)],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    return out


def _up_sum_grid(weights):
    """The UpSumGrid of every member of the weights' index."""
    return UpSumGrid(weights, np.arange(len(weights.index.keys)))


def _mass_map(weights):
    """timefreq.HilbertWeights as (masses keyed by (k, pos, m), den), the
    fields of reference.HilbertWeights."""
    return dict(zip(weights.index.keys, weights.masses.tolist())), weights.den


class _Resynthesizing(SizeEvaluator):
    """A Hilbert-case evaluator whose grids resynthesize every top."""

    def grid(self, coll):
        return TreeDeltaGrid(coll, self)


class TestSizeEvaluator:
    @given(st.integers(1, 5), signal_shapes, st.integers(0, 10**6),
           st.sampled_from(["exact", "non-dyadic"]), fractions_pool, st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_resynthesis_matches_parseval(self, L, shape, seed, variant, pool, whole):
        f, _, _ = _split_signal(L, shape, seed, variant, pool)
        coll = _collection(L, seed, whole and L <= 4)
        sizes = SizeEvaluator(coll, f, 2, EUCL)
        parseval, resynthesis = _up_sum_grid(sizes.weights), TreeDeltaGrid(coll, sizes)
        sigma = parseval.pow()
        assert resynthesis.pow() == sigma
        frac = Fraction(SplitMix64(seed + 7).below(8), 7)
        for bound in (sigma / 4, Fraction(0), sigma * frac):
            assert np.array_equal(resynthesis.exceeding(bound), parseval.exceeding(bound))
        # by Parseval the greedy takes the same trees with the same sizes
        generic = size_decompose(coll, f, 2, EUCL, sizes=_Resynthesizing(coll, f, 2, EUCL))
        assert repr(generic) == repr(size_decompose(coll, f, 2, EUCL))

    @pytest.mark.parametrize("L", range(1, 6))
    @given(generic_cases, st.integers(0, 10**6), st.sampled_from(["exact", "third", "decimal"]))
    @settings(max_examples=4, deadline=None)
    def test_delta_grid_after_removals(self, L, case, seed, variant):
        q, plugin, shape = case
        f, _, _ = _split_signal(L, shape, seed, variant, None)
        coll = _collection(L, seed, L <= 3)
        rng = SplitMix64(seed + 5)
        grid = SizeEvaluator(coll, f, q, plugin).grid(coll)
        left = sorted(set(coll), key=Bitile.key)
        for _ in range(4):
            # some members left and, now and then, some already gone
            gone = [P for P in coll if rng.below(4) == 0]
            grid.remove(gone)
            left = [P for P in left if P not in gone]
            tops = {
                T: reference.tree_delta_pow(reference.complete_up_tree(T, left), f, q, plugin)
                for T in reference.candidate_tops(left)
            }
            sigma = reference.resynthesized_pow(left, f, q, plugin)
            assert repr(grid.pow()) == repr(sigma)
            for bound in (Fraction(0), sigma * Fraction(rng.below(8), 7)):
                expected, D = np.zeros_like(grid.exceeding(bound)), grid.depth
                for T, v in tops.items():
                    if _pow_gt(v, bound):
                        expected[T.time.k, (T.time.pos << (D - T.time.k)) + T.m] = True
                assert np.array_equal(grid.exceeding(bound), expected)


# ---------------------------------------------------------------------------
# certify's integer tail: masses, form products and tree forms


def _rescaled(f, variant, pool, start=0):
    """f exact as generated, times 1/3, or times pool's fractions entry by
    entry (non-dyadic denominators)."""
    if variant == "exact":
        return f
    factors = itertools.count(start)

    def scale(v):
        if isinstance(v, tuple):
            return tuple(scale(x) for x in v)
        return v / 3 if variant == "third" else v * pool[next(factors) % 16]

    return Signal.from_values([scale(v) for v in f.samples], kind=f.kind)


tail_variants = st.sampled_from(["exact", "third", "non-dyadic"])


class TestIntegerTail:
    @pytest.mark.parametrize("L", range(1, 8))
    @given(signal_shapes, st.integers(0, 10**6), tail_variants, fractions_pool)
    @settings(max_examples=4, deadline=None)
    def test_products_and_forms_match_fraction_sums(self, L, shape, seed, variant, pool):
        f, g, E, N = _instance(L, shape, seed)
        f, g = _rescaled(f, variant, pool), _rescaled(g, variant, pool, 5)
        coll = list(bitile_universe(L).items)
        ref = reference.member_form_products(coll, f, g, E, N)
        sizes = SizeEvaluator(coll, f, 2, EUCL)
        nums, den = sizes.form_products(g, E, N)
        assert sizes.index.items == coll
        assert [Fraction(int(x), den) for x in nums] == [ref[P] for P in coll]
        if E.count == 0 or value_is_zero(f.cols):
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = decompose.carleson_form_certificate(f, g, E, N, 2, EUCL)
        forest = full_decompose(coll, f, E, N, 2, EUCL)
        forms = [
            [sum((abs(ref[P]) for P in t.members), Fraction(0)) for t in rec.trees]
            for rec in forest.levels
        ]
        assert [[t["form"] for t in row["trees"]] for row in rep["levels"]] == forms
        total = rep["form_total"]
        assert type(total) is Fraction
        assert total == sum((abs(v) for v in ref.values()), Fraction(0))

    @pytest.mark.parametrize("L", range(1, 8))
    @given(signal_shapes, st.integers(0, 10**6), tail_variants, fractions_pool, st.booleans())
    @settings(max_examples=4, deadline=None)
    def test_masses_match_fraction_weights(self, L, shape, seed, variant, pool, whole):
        f, E, N = _split_signal(L, shape, seed, "exact", None)
        f = _rescaled(f, variant, pool)
        coll = _collection(L, seed, whole)
        weights = SizeEvaluator(coll, f, 2, EUCL).weights
        coeffs = reference.down_coefficients(f, coll)
        ref = hilbert_member_weights(coll, coeffs)
        # the same numerators over the same den: the squared lcm of the
        # reduced coefficient denominators
        assert _mass_map(weights) == (ref.num, ref.den)
        masses = reference.member_weights(coll, coeffs)
        assert {P: Fraction(x, weights.den) for P, x in zip(weights.index.items, weights.masses.tolist())} == masses
        sums = reference.hilbert_top_sums(coll, masses)
        grid = _up_sum_grid(weights)
        sigma = grid.pow()
        assert sigma == _fraction_pow(sums)
        for bound in (sigma / 4, Fraction(0), sigma * Fraction(SplitMix64(seed).below(8), 7)):
            tops = sorted(T for T, s in sums.items() if s * (1 << T.time.k) > bound)
            assert _grid_bitiles(grid.exceeding(bound)) == tops
        assert repr(size_decompose(coll, f, 2, EUCL)) == repr(reference.size_decompose(coll, f, 2, EUCL))

    @pytest.mark.parametrize("L", [1, 3, 5])
    def test_common_gcd_divided_out(self, L):
        # the coefficients of a constant 1/3 are 0 or 2^-k / 3, numerators
        # 2^(L-k) over f.den 2^L = 3 2^L: without the finest scale, the
        # reduced denominators' lcm is 3 2^(L-1), not 3 2^L
        f = Signal.scalar([Fraction(1, 3)] * (1 << L))
        coll = [P for P in bitile_universe(L).items if P.time.k < L]
        weights = SizeEvaluator(coll, f, 2, EUCL).weights
        ref = hilbert_member_weights(coll, reference.down_coefficients(f, coll))
        assert _mass_map(weights) == (ref.num, ref.den)
        assert weights.den == (3 << (L - 1)) ** 2

    def test_seeded_certify_takes_int64(self, monkeypatch, tmp_path):
        chosen = []
        choose = timefreq._mass_dtype

        def record(total):
            chosen.append(choose(total))
            return chosen[-1]

        monkeypatch.setattr(timefreq, "_mass_dtype", record)
        out = tmp_path / "certify.json"
        result = CliRunner().invoke(
            main, ["certify", "--levels", "7", "--seed", "3", "--out", str(out)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        assert chosen and all(dtype is np.int64 for dtype in chosen)


index_shapes = st.sampled_from([(1, "vector"), (2, "vector"), (1, "matrix"), (2, "matrix")])


class TestIndexEvaluator:
    @given(st.integers(1, 7), index_shapes, st.integers(0, 10**6),
           st.sampled_from(["exact", "third", "non-dyadic", "wide"]), fractions_pool)
    @example(5, (2, "vector"), 7, "wide", [Fraction(1)] * 16)
    @settings(max_examples=20, deadline=None)
    def test_arrays_match_reference(self, L, shape, seed, variant, pool):
        """The certify run's per-member arrays in index order against the
        Fraction oracles: masses by value and den, the nonzero mask, the
        form products, each tree's form and the form total, and each
        tree's size power."""
        f, g, E, N = _instance(L, shape, seed)
        if variant == "wide":
            f = _wide(f)
        else:
            f, g = _rescaled(f, variant, pool), _rescaled(g, variant, pool, 5)
        coll = bitile_universe(L).items
        sizes = SizeEvaluator(coll, f, 2, EUCL)
        assert sizes.index.items == list(coll)
        coeffs = reference.down_coefficients(f, coll)
        ref = hilbert_member_weights(coll, coeffs)
        assert _mass_map(sizes.weights) == (ref.num, ref.den)
        if variant == "wide" and any(ref.num.values()):
            assert sizes.weights.masses.dtype == object
        assert sizes.nonzero.tolist() == [any(c != 0 for c in coeffs[P]) for P in coll]
        products = reference.member_form_products(coll, f, g, E, N)
        nums, den = sizes.form_products(g, E, N)
        assert [Fraction(int(x), den) for x in nums] == [products[P] for P in coll]
        if E.count == 0 or value_is_zero(f.cols):
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = decompose.carleson_form_certificate(f, g, E, N, 2, EUCL)
        assert rep["form_total"] == sum((abs(v) for v in products.values()), Fraction(0))
        forest = full_decompose(coll, f, E, N, 2, EUCL)
        forms = [
            [sum((abs(products[P]) for P in t.members), Fraction(0)) for t in rec.trees]
            for rec in forest.levels
        ]
        assert [[t["form"] for t in row["trees"]] for row in rep["levels"]] == forms
        for rec in forest.levels:
            assert list(rec.size_pows) == [_fraction_tree_pow(t.members, f) for t in rec.trees]


# starting levels: exact and float sizes, |f|_q^q over wide ranges, and
# ratios that put the level outside [-16L - 64, 16L + 64]
def _scaled_fraction(draw, low=-700, high=700):
    x = draw(st.fractions(min_value=0, max_value=10, max_denominator=1000))
    return x * Fraction(2) ** draw(st.integers(low, high))


@st.composite
def level_inputs(draw):
    L = draw(st.integers(1, 20))
    dens0 = draw(st.sampled_from([Fraction(0), Fraction(1)]) | st.fractions(0, 1, max_denominator=1 << L))
    measure = Fraction(draw(st.integers(1, 1 << min(L, 12))), 1 << min(L, 12))
    size0 = _scaled_fraction(draw)
    fq = _scaled_fraction(draw) + Fraction(1, 1 << 900)
    if draw(st.booleans()):
        size0, fq = float(size0), float(fq) or 5e-324
    q = draw(st.sampled_from([2, 3, 4, 7, 2.5, 3.0]))
    return dens0, size0, fq, measure, q, L


def _level_or_error(fn, *args):
    try:
        return fn(*args)
    except (RuntimeError, OverflowError) as exc:
        return type(exc)


class TestStartingLevel:
    @given(level_inputs())
    @settings(max_examples=200, deadline=None)
    def test_matches_scan(self, args):
        assert _level_or_error(decompose.starting_level, *args) == _level_or_error(
            reference.starting_level, *args
        )

    def test_out_of_range_raises(self):
        huge = Fraction(2) ** (2 * (16 * 3 + 70))
        with pytest.raises(RuntimeError, match="starting level"):
            decompose.starting_level(Fraction(1, 2), huge, Fraction(1), Fraction(1, 2), 2, 3)
        # below the range, the scan's first level
        assert decompose.starting_level(Fraction(0), Fraction(0), Fraction(1), Fraction(1), 2, 3) == -16 * 3 - 64


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
           st.sampled_from(["exact", "non-dyadic", "decimal"]), fractions_pool, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_grid_matches_fraction_sums(self, L, shape, seed, variant, pool, whole):
        f, E, N = _split_signal(L, shape, seed, variant, pool)
        rng = SplitMix64(seed + 7)
        coll = _collection(L, seed, whole and L <= 6)
        weights = reference.index_weights(coll, hilbert_member_weights(coll, down_coefficients_inf(f, coll)))
        grid = _up_sum_grid(weights)
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
        assert hilbert_tree_pows(reference.tree_positions(weights.index, trees), weights) == [
            _fraction_tree_pow(t.members, f) for t in trees
        ]
        dres = density_decompose(coll, E, N, 2)
        assert hilbert_tree_pows(reference.tree_positions(weights.index, dres.trees), weights) == [
            _fraction_tree_pow(t.members, f) for t in dres.trees
        ]

    def test_first_maximal_top_of_greedy_masks(self, monkeypatch, tmp_path):
        # at L = 10 the set cells of least center often have set cells
        # above them, so that the pick is often far down the order
        masks = []

        def recorded(mask):
            masks.append(mask.copy())
            return first_maximal_top(mask)

        monkeypatch.setattr(decompose, "first_maximal_top", recorded)
        result = CliRunner().invoke(
            main, ["certify", "--levels", "10", "--seed", "1", "--out", str(tmp_path / "c.json")],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        later = 0
        for mask in masks:
            pick = first_maximal_top(mask)
            assert pick == reference.first_maximal_top(mask)
            if pick is None:
                continue
            D = mask.shape[0] - 1
            rows, cols = np.nonzero(mask)
            keys = ((2 * (cols & ((1 << (D - rows)) - 1)) + 1) << rows << D) | (cols >> (D - rows))
            k, pos, m = pick
            later += int((keys < (((2 * m + 1) << k << D) | pos)).sum() >= 4)
        assert later >= 10

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
        # the integer masses from the packet table, as the Fraction ones
        assert _mass_map(SizeEvaluator(coll, f, 2, EUCL).weights) == (weights.num, weights.den)
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


class TestGapIntervals:
    @given(st.integers(1, 7), st.integers(0, 10**6), st.integers(0, 60))
    @settings(max_examples=80, deadline=None)
    def test_match_member_scan(self, L, seed, count):
        members = gen_collection(L, count, SplitMix64(seed))
        assert maximal_gap_intervals(members, L) == reference.maximal_gap_intervals(members, L)


synthesis_variants = st.sampled_from(["exact", "third", "non-dyadic", "decimal"])


class TestPacketSynthesis:
    @given(st.integers(1, 6), synthesis_shapes, st.integers(0, 10**6), synthesis_variants,
           fractions_pool, st.booleans(), st.sampled_from([2, 3, 2.5]))
    @settings(max_examples=60, deadline=None)
    def test_split_sums(self, L, shape, seed, variant, pool, generic, q):
        f, E, N = _split_signal(L, shape, seed, variant, pool)
        g, _, _ = _split_signal(L, shape, seed + 1, variant, pool[::-1])
        rng = SplitMix64(seed + 2)
        items = bitile_universe(L).items
        # below the top (0, 0, 2^(L-1) - 1), a cutoff at the top's center lies
        # in the up-windows of up members at every scale
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
            lhs, diag = tree_form_sum(tree, f, g, E, N, q, plugin)
        assert repr(diag["split_sums"]) == repr(reference.split_sums(tree, f, g, E, N, plugin))
        # the tree's form, from SizeEvaluator.form_products on every input
        products = reference.member_form_products(tree.members, f, g, E, N)
        assert repr(lhs) == repr(sum((abs(products[P]) for P in tree.members), Fraction(0)))
        if not timefreq._is_hilbert_case(q, plugin):
            # the size, resynthesized from the same coefficient map
            sigma = reference.resynthesized_pow(tree.members, f, q, plugin)
            assert repr(diag["size"]) == repr(float(sigma) ** (1.0 / float(q)))

    @given(st.integers(1, 6), synthesis_shapes, st.integers(0, 10**6), synthesis_variants,
           fractions_pool)
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

    @given(st.integers(1, 6), synthesis_shapes, st.integers(0, 10**6), synthesis_variants,
           fractions_pool, st.sampled_from([2, 3, 2.5]), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_tile_type_constant(self, L, shape, seed, variant, pool, q, generic):
        f, _, _ = _split_signal(L, shape, seed, variant, pool)
        fam = gen_tree_family(L, SplitMix64(seed))
        plugin = _plugin(shape[1], generic)
        assert repr(tile_type_constant(fam, f, q, plugin)) == repr(
            reference.tile_type_constant(fam, f, q, plugin)
        )

    @given(st.integers(0, 6), st.integers(1, 4), st.integers(1, 60), st.data())
    @settings(max_examples=60, deadline=None)
    def test_integer_coefficients_over_one_den(self, L, ncomp, den, data):
        # packets (k, pos, n) on the 2^L grid, integer coefficients, zeros included
        entries = []
        for _ in range(data.draw(st.integers(0, 12))):
            k = data.draw(st.integers(0, L))
            pos = data.draw(st.integers(0, (1 << k) - 1))
            n = data.draw(st.integers(0, (1 << (L - k)) - 1))
            coefs = data.draw(st.lists(st.integers(-40, 40), min_size=ncomp, max_size=ncomp))
            entries.append((k, pos, n, coefs))
        ints = packet_synthesis(entries, ncomp, L)
        fracs = packet_synthesis(
            [(k, pos, n, [Fraction(c, den) for c in coefs]) for k, pos, n, coefs in entries], ncomp, L
        )
        assert all(type(x) is int for col in ints for x in col)
        assert [[Fraction(x, den) for x in col] for col in ints] == fracs


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


def _pairwise_meetings(tiles) -> list[tuple[int, int]]:
    """meeting_tile_pairs by testing every pair of rectangles."""
    objs = [Tile(DyadicInterval(k, pos), n) for k, pos, n in tiles]
    return [
        (a, b)
        for a in range(len(objs))
        for b in range(a + 1, len(objs))
        if not tiles_disjoint(objs[a], objs[b])
    ]


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
        assert meeting_tile_count(*np.array(tiles).T) == 3
        fam = _random_family(4, 7, 5)
        assert len(fam.down_disjointness_violations()) > 0

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=80, deadline=None)
    def test_meeting_count_matches_pairs(self, L, data):
        """The count from grid codes against the pairs, over the down- and
        up-tiles of random sub-collections of the universe, repeats
        included."""
        items = bitile_universe(L).items
        picks = data.draw(st.lists(st.integers(0, len(items) - 1), max_size=60))
        ups = data.draw(st.lists(st.booleans(), min_size=len(picks), max_size=len(picks)))
        tiles = [(*items[i].key()[:2], 2 * items[i].m + up) for i, up in zip(picks, ups)]
        k, pos, n = np.array(tiles, np.int64).reshape(-1, 3).T
        assert meeting_tile_count(k, pos, n) == len(meeting_tile_pairs(tiles))

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=80, deadline=None)
    def test_universe_tiles_match_pairwise_scan(self, L, data):
        """The pairs and the count against the pairwise scan, over the tiles
        certify counts: down- and up-tiles of random picks from the
        universe, repeats included, and of an ancestor of each pick, so
        that many tiles meet."""
        items = bitile_universe(L).items
        index = {P.key(): i for i, P in enumerate(items)}
        size = data.draw(st.integers(0, 40))
        picks = data.draw(st.lists(st.integers(0, len(items) - 1), min_size=size, max_size=size))
        for i in list(picks):
            k, pos, m = items[i].key()
            d = data.draw(st.integers(0, k))
            above = (k - d, pos >> d, (m << d) + data.draw(st.integers(0, (1 << d) - 1)))
            picks += [index[above]] if above in index else []
        ups = data.draw(st.lists(st.booleans(), min_size=len(picks), max_size=len(picks)))
        tiles = [(*items[i].key()[:2], 2 * items[i].m + up) for i, up in zip(picks, ups)]
        expected = _pairwise_meetings(tiles)
        assert meeting_tile_pairs(tiles) == expected
        k, pos, n = np.array(tiles, np.int64).reshape(-1, 3).T
        assert meeting_tile_count(k, pos, n) == len(expected)

    def test_tiles_off_the_unit_interval_keep_apart(self):
        # as cells of one grid of depth 1, (0, 1, 0) and (1, 0, 0) share a code
        tiles = [(0, 1, 0), (1, 0, 0), (1, 2, 0)]
        assert meeting_tile_pairs(tiles) == _pairwise_meetings(tiles) == [(0, 2)]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_meeting_pairs_off_the_unit_interval(self, data):
        """Tiles outside [0, 1), with codes past int64, against the pairwise
        scan: a few base tiles and tiles d scales finer or coarser that
        meet them or miss them by a bit."""
        base = st.tuples(st.integers(0, 70), st.integers(0, 2**40), st.integers(0, 2**40))
        relative = st.tuples(st.integers(0, 5), st.integers(0, 63), st.booleans())
        tiles = []
        for k, pos, n in data.draw(st.lists(base, min_size=1, max_size=4)):
            tiles.append((k, pos, n))
            for d, low, fine in data.draw(st.lists(relative, max_size=6)):
                low %= 1 << d
                if fine:
                    tiles.append((k + d, (pos << d) + low, (n >> d) ^ (low & 1)))
                elif d <= k:
                    tiles.append((k - d, pos >> d, (n << d) + low))
        tiles = data.draw(st.permutations(tiles))
        expected = _pairwise_meetings(tiles)
        assert meeting_tile_pairs(tiles) == expected
