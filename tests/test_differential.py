"""The density table, the integer packet pairings and the integer Hilbert
up-sums against the retained Fraction references in tests/reference.py."""

import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import reference
from tilewalsh.decompose import size_decompose
from tilewalsh.dyadic import Bitile, DyadicInterval, bitile_universe
from tilewalsh.gen import SplitMix64, gen_collection, gen_levelset, gen_nfun, gen_signal
from tilewalsh.signal import FrequencyChoice, NormPlugin, signal_from_json
from tilewalsh.timefreq import (
    DensityCounter,
    down_coefficients_inf,
    hilbert_member_weights,
    hilbert_top_sums,
    local_density,
)

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
