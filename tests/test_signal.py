"""Norm plugins, signals, level sets, frequency choices, JSON round-trips."""

import math

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from tilewalsh.dyadic import DyadicInterval
from tilewalsh.signal import (
    FrequencyChoice,
    LevelSet,
    NormPlugin,
    Signal,
    bmo_norm,
    cell_norms,
    dual_pair,
    levelset_from_json,
    levelset_to_json,
    load_json,
    lq_norm,
    lq_norm_pow,
    maximal_function,
    nfun_from_json,
    nfun_to_json,
    num_from_json,
    signal_from_json,
    signal_to_json,
    value_norm,
)
import reference
from reference import levelset_cells, value_norm_pow

# JSON number literals: an optional minus, digits without leading zeros,
# optional fraction digits ("7.0" among them) and an optional exponent
json_numbers = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["", "-"]),
        st.integers(0, 10**20).map(str),
        st.sampled_from(["", ".0", ".5"]) | st.integers(0, 10**12).map(".{}".format),
        st.sampled_from(["", "e0"])
        | st.tuples(st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), st.integers(0, 500).map(str)).map("".join),
    ),
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=1 << 10)


def scalar_signal(L):
    return st.lists(rationals, min_size=1 << L, max_size=1 << L).map(Signal.scalar)


class TestNormPlugin:
    def test_euclidean_pythagoras(self):
        assert value_norm((Fraction(3), Fraction(4)), NormPlugin("euclidean")) == 5.0

    def test_parse(self):
        assert NormPlugin.parse("euclidean").name == "euclidean"
        p = NormPlugin.parse("lp:1.5")
        assert (p.name, p.p) == ("lp", 1.5)
        s = NormPlugin.parse("schatten:3")
        assert (s.name, s.p) == ("schatten", 3.0)
        with pytest.raises(ValueError):
            NormPlugin.parse("banach")
        with pytest.raises(ValueError):
            NormPlugin.parse("lp:1")  # p must exceed 1

    def test_dual_exponent(self):
        p = NormPlugin.parse("lp:3")
        assert p.dual().p == pytest.approx(1.5)
        assert NormPlugin.parse("euclidean").dual().name == "euclidean"

    @given(st.lists(rationals, min_size=3, max_size=3), st.lists(rationals, min_size=3, max_size=3))
    def test_holder_for_dual_pair(self, a, b):
        p = NormPlugin.parse("lp:2.5")
        lhs = abs(float(dual_pair(tuple(a), tuple(b))))
        rhs = value_norm(tuple(a), p) * value_norm(tuple(b), p.dual())
        assert lhs <= rhs * (1 + 1e-9) + 1e-12

    def test_schatten2_is_frobenius(self):
        m = ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(-4)))
        frob = math.sqrt(float(sum(x * x for row in m for x in row)))
        assert value_norm(m, NormPlugin("schatten", 2.0)) == pytest.approx(frob, rel=1e-12)

    def test_exact_power_paths(self):
        v = (Fraction(3), Fraction(4))
        assert value_norm_pow(v, NormPlugin("euclidean"), 2) == 25
        assert value_norm_pow((Fraction(-2),), NormPlugin("euclidean"), 3) == 8
        m = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2)))
        assert value_norm_pow(m, NormPlugin("schatten", 2.0), 2) == 5


class TestSignal:
    def test_scalar_roundtrip(self):
        f = Signal.scalar([Fraction(1), Fraction(-2)])
        assert f.L == 1 and f.d == 1 and f.scalar_samples() == [1, -2]

    def test_components_reshape(self):
        f = Signal.from_values(
            [((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))] * 2,
            kind="matrix",
        )
        comps = f.comps
        assert len(comps) == 4
        assert f.with_components(comps).samples == f.samples

    @given(scalar_signal(3))
    def test_lq_exact_matches_float(self, f):
        plugin = NormPlugin("euclidean")
        exact = lq_norm_pow(f, 2, plugin)
        assert exact is not None
        assert math.sqrt(float(exact)) == pytest.approx(lq_norm(f, 2, plugin), rel=1e-12)

    @given(scalar_signal(3))
    def test_lq_monotone_in_q(self, f):
        plugin = NormPlugin("euclidean")
        # normalized measure: L^q norms increase in q
        n2, n4 = lq_norm(f, 2, plugin), lq_norm(f, 4, plugin)
        ninf = lq_norm(f, math.inf, plugin)
        assert n2 <= n4 * (1 + 1e-9) + 1e-12
        assert n4 <= ninf * (1 + 1e-9) + 1e-12

    @given(scalar_signal(3))
    def test_refine_preserves_norm(self, f):
        g = f.refine(f.L + 2)
        plugin = NormPlugin("euclidean")
        assert g.cells == f.cells * 4
        assert lq_norm_pow(g, 2, plugin) == lq_norm_pow(f, 2, plugin)
        assert g.average() == f.average()

    @given(scalar_signal(2))
    def test_average_is_mean(self, f):
        vals = f.scalar_samples()
        assert f.average()[0] == sum(vals) / len(vals)


class TestMaximalFunction:
    @given(scalar_signal(3))
    def test_dominates_pointwise(self, f):
        M = maximal_function(f, NormPlugin("euclidean"))
        for m, v in zip(M, f.scalar_samples()):
            assert m >= abs(v)

    @given(scalar_signal(3))
    def test_bounded_by_sup(self, f):
        sup = max(abs(v) for v in f.scalar_samples())
        M = maximal_function(f, NormPlugin("euclidean"))
        assert all(m <= sup for m in M)

    def test_indicator_weak_one_one(self):
        # dyadic maximal function: |{M 1_F > lam}| <= |F| / lam, constant 1
        L = 4
        F = LevelSet.from_cells(L, [0, 3, 5, 6, 12])
        M = maximal_function(F.indicator(), NormPlugin("euclidean"))
        for num in range(1, 16):
            lam = Fraction(num, 16)
            above = sum(1 for m in M if m > lam) * Fraction(1, 1 << L)
            assert above <= F.measure / lam

    @given(scalar_signal(3))
    def test_exact_values_brute_force(self, f):
        # oracle: max average over all dyadic intervals containing the cell
        vals = f.scalar_samples()
        M = maximal_function(f, NormPlugin("euclidean"))
        for j in range(f.cells):
            best = Fraction(0)
            for k in range(f.L + 1):
                I = DyadicInterval(k, j >> (f.L - k))
                cells = list(I.cells(f.L))
                avg = sum(abs(vals[c]) for c in cells) / len(cells)
                best = max(best, avg)
            assert M[j] == best

    @given(scalar_signal(3))
    def test_bmo_vanishes_on_constants(self, f):
        c = Signal.scalar([Fraction(7, 3)] * 8)
        assert bmo_norm(c, NormPlugin("euclidean")) == 0.0
        assert bmo_norm(f, NormPlugin("euclidean")) >= 0.0


class TestLevelSet:
    @given(st.lists(st.integers(0, 15), max_size=16))
    def test_algebra(self, cells):
        E = LevelSet.from_cells(4, cells)
        assert E.count == len(set(cells))
        assert E.measure == Fraction(E.count, 16)
        assert E.complement().count == 16 - E.count
        assert E.intersect(E.complement()).count == 0
        assert E.minus(E).count == 0
        assert sorted(E.cells()) == sorted(set(cells))

    @given(st.integers(0, 10), st.data())
    def test_cells_match_mask_scan(self, L, data):
        full = (1 << (1 << L)) - 1
        E = LevelSet(L, data.draw(st.sampled_from([0, full]) | st.integers(0, full)))
        assert E.cells() == levelset_cells(E)

    def test_indicator(self):
        E = LevelSet.from_cells(2, [1, 3])
        assert E.indicator().scalar_samples() == [0, 1, 0, 1]

    @given(st.integers(0, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_mask_bytes_match_cell_loops(self, L, data):
        full = (1 << (1 << L)) - 1
        E = LevelSet(L, data.draw(st.sampled_from([0, full]) | st.integers(0, full)))
        cells = E.cells()
        assert LevelSet.from_cells(L, cells) == reference.levelset_from_cells(L, cells) == E
        # repeats and any order
        shuffled = data.draw(st.permutations(cells + cells[: len(cells) // 2]))
        assert LevelSet.from_cells(L, iter(shuffled)) == E
        assert E.indicator() == reference.levelset_indicator(E)
        f = Signal(L, 1, "matrix", [[3 * j - 7 for j in range(1 << L)]], 5)
        assert f.restrict(E) == reference.signal_restrict(f, E)

    @pytest.mark.parametrize("L", [0, 1, 3, 12])
    def test_empty_and_full_sets(self, L):
        f = Signal(L, 2, "vector", [[j + 1 for j in range(1 << L)], [-j for j in range(1 << L)]], 3)
        for E in (LevelSet.empty(L), LevelSet.full(L)):
            assert LevelSet.from_cells(L, E.cells()) == E
            assert E.indicator() == reference.levelset_indicator(E)
            assert f.restrict(E) == reference.signal_restrict(f, E)
        assert f.restrict(LevelSet.full(L)) == f
        assert f.restrict(LevelSet.empty(L)) == f.zero_like()

    @pytest.mark.parametrize("cells", [[4], [-1], [0, 1 << 70]])
    def test_from_cells_rejects_cells_off_the_grid(self, cells):
        with pytest.raises(ValueError):
            LevelSet.from_cells(2, cells)


class TestFrequencyChoice:
    def test_closed_range(self):
        FrequencyChoice(2, (0, 4, 3, 2))  # 2^L itself is allowed
        with pytest.raises(ValueError):
            FrequencyChoice(2, (0, 5, 0, 0))
        with pytest.raises(ValueError):
            FrequencyChoice(2, (0, -1, 0, 0))
        with pytest.raises(ValueError):
            FrequencyChoice(2, (0, 0, 0))  # wrong length


class TestJson:
    @given(scalar_signal(2))
    def test_signal_roundtrip(self, f):
        assert signal_from_json(signal_to_json(f)).samples == f.samples

    def test_matrix_roundtrip(self):
        f = Signal.from_values(
            [((Fraction(1, 3), Fraction(2)), (Fraction(0), Fraction(-5, 7)))] * 4,
            kind="matrix",
        )
        assert signal_from_json(signal_to_json(f)) == f

    def test_levelset_roundtrip(self):
        E = LevelSet.from_cells(3, [0, 2, 7])
        assert levelset_from_json(levelset_to_json(E)) == E

    def test_nfun_roundtrip(self):
        N = FrequencyChoice(2, (0, 1, 4, 2))
        assert nfun_from_json(nfun_to_json(N)) == N

    @given(json_numbers, st.sampled_from(["", "+"]))
    def test_decimals_read_exactly(self, text, plus):
        # a string may carry a plus sign, a JSON number not
        text = text if text.startswith("-") else plus + text
        assert num_from_json(text) == Fraction(text)

    @given(texts=st.lists(json_numbers, min_size=1, max_size=4))
    def test_bare_json_numbers_read_exactly(self, texts, tmp_path_factory):
        path = tmp_path_factory.mktemp("numbers") / "n.json"
        path.write_text("[" + ", ".join(texts) + "]")
        assert load_json(path) == [Fraction(t) for t in texts]

    def test_numbers_are_strings(self):
        obj = signal_to_json(Signal.scalar([Fraction(1, 3), Fraction(2, 3)]))
        flat = obj["values"]
        assert all(isinstance(v[0], str) and "/" in v[0] for v in flat)


class TestCellNorms:
    @given(scalar_signal(2))
    def test_matches_value_norm(self, f):
        plugin = NormPlugin("euclidean")
        norms = cell_norms(f, plugin)
        for n, v in zip(norms, f.samples):
            assert float(n) == pytest.approx(value_norm(v, plugin), rel=1e-12)
