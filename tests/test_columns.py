"""Exact signals as integer columns over one canonical denominator: every
kernel that reads or writes them against its Fraction-per-entry form in
tests/reference.py, on signals built from exact numbers, floats (their
exact binary values) or both; exact |f|_q^q in
integers against the cell-by-cell sum; the bulk reader of signal and
coefficient files against the per-entry one on adversarial entries; and
the report writer, with its branch for uniform arrays of strings, against
json.dump of the report copied into plain JSON values."""

import json
import math
import random
import warnings
from fractions import Fraction

import pytest
import numpy as np
from hypothesis import example, given, settings, strategies as st

import reference
from tilewalsh import signal as signal_module
from tilewalsh.certificates import Certificate
from tilewalsh.cli import _signal_from_coefficients
from tilewalsh.decompose import restricted_weak_type
from tilewalsh.dyadic import Bitile, DyadicInterval, bitile_le, bitile_universe
from tilewalsh.gen import SplitMix64, gen_levelset, gen_nfun
from tilewalsh.operators import carleson_bitile, carleson_direct, walsh_coefficients
from tilewalsh.signal import (
    NormPlugin,
    Signal,
    columns_to_json,
    dump_json,
    json_text,
    lq_norm_pow,
    maximal_function,
    num_to_json,
    signal_from_json,
    signal_to_json,
    value_norm,
    value_norms,
)
from tilewalsh.timefreq import Tree

DENOMINATORS = [1, 3, 1 << 16, 7 << 5, 10**9 + 7]


def _entry(rng: random.Random, mode: str):
    if mode == "mixed":
        mode = rng.choice(["exact", "float"])
    if rng.random() < 0.15:
        return Fraction(0) if mode == "exact" else 0.0
    x = Fraction(rng.randint(-(1 << 20), 1 << 20), rng.choice(DENOMINATORS))
    return x if mode == "exact" else float(x) / 3


LEVELS = pytest.mark.parametrize("L", range(1, 8))


@st.composite
def signals(draw, L, modes=("exact", "float", "mixed"), kinds=("vector", "matrix")):
    """(signal, mode) on 2^L cells: random kind and dimension; built from
    exact entries over assorted denominators, floats, or both mixed cell
    by cell."""
    kind = draw(st.sampled_from(kinds))
    d = draw(st.integers(1, 2 if kind == "matrix" else 3))
    mode = draw(st.sampled_from(modes))
    rng = random.Random(draw(st.integers(0, 2**32)))
    width = d * d if kind == "matrix" else d
    cols = [[_entry(rng, mode) for _ in range(1 << L)] for _ in range(width)]
    return Signal(L, d, kind, cols), mode


def _plugins(kind):
    out = [NormPlugin("euclidean"), NormPlugin("lp", Fraction(3))]
    if kind == "matrix":
        out += [NormPlugin("schatten", Fraction(p)) for p in ("3", "3/2", "2", "4")]
    return out


class TestCanonicalColumns:
    @LEVELS
    @given(data=st.data(), scale=st.integers(1, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_one_canonical_form(self, L, data, scale):
        f, _ = data.draw(signals(L, modes=("exact",)))
        assert f.den > 0 and math.gcd(f.den, *(n for c in f.cols for n in c)) == 1
        assert all(type(n) is int for c in f.cols for n in c)
        assert f.comps == tuple(tuple(Fraction(n, f.den) for n in c) for c in f.cols)
        # the same values over any multiple of the denominator
        g = Signal(f.L, f.d, f.kind, [[n * scale for n in c] for c in f.cols], f.den * scale)
        assert (g.cols, g.den) == (f.cols, f.den)
        assert g == f and hash(g) == hash(f) and repr(g) == repr(f)
        assert Signal(f.L, f.d, f.kind, f.comps) == f

    @LEVELS
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_floats_become_binary_fractions(self, L, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        mode = data.draw(st.sampled_from(["float", "mixed"]))
        cols = [[_entry(rng, mode) for _ in range(1 << L)] for _ in range(2)]
        f = Signal(L, 2, "vector", cols)
        # a float entry is its exact binary value, Fraction(x)
        assert f.comps == tuple(tuple(map(Fraction, c)) for c in cols)
        assert all(type(n) is int for c in f.cols for n in c)
        assert Signal(L, 2, "vector", f.comps) == f
        with pytest.raises((ValueError, OverflowError)):
            Signal(L, 2, "vector", [[math.inf] + c[1:] for c in cols])


class TestJsonColumns:
    @LEVELS
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_round_trip_bytes(self, L, data, tmp_path_factory):
        f, _ = data.draw(signals(L))
        obj = signal_to_json(f)
        text = json.dumps(obj, sort_keys=True)
        assert text == json.dumps(reference.signal_to_json(f), sort_keys=True)
        back = signal_from_json(json.loads(text))
        ref = reference.signal_from_json(json.loads(text))
        assert back == f and repr(back) == repr(ref)
        assert json.dumps(signal_to_json(back), sort_keys=True) == text
        out = tmp_path_factory.mktemp("json")
        dump_json(obj, out / "new.json")
        reference.dump_json(obj, out / "old.json")
        assert (out / "new.json").read_bytes() == (out / "old.json").read_bytes()

    def test_unreduced_and_signed_denominators(self):
        obj = {"levels": 1, "dim": 1, "kind": "vector", "values": ["2/4", "3/-6"]}
        f = signal_from_json(obj)
        assert (f.cols, f.den) == (((1, -1),), 2)
        assert signal_to_json(f)["values"] == [["1/2"], ["-1/2"]]


# entries of signal and coefficient files: "n/d" strings the bulk parse
# takes, next to everything it must hand to the per-entry reader unread:
# signs and spaces around the digits, leading zeros, digits int() takes
# that are no ASCII digits, integers at and past the 18-digit bound of
# int64, zero and signed denominators, more or fewer slashes, decimals
# and bare JSON numbers (ints, and Fractions as load_json reads decimals)
edge_ints = st.sampled_from(
    [0, 1, 7, 10**17, 10**18 - 1, 10**18, 2**63 - 1, 2**63, 10**19 - 1, 10**19, 10**40 + 3]
)
digit_strings = st.one_of(
    st.integers(0, 10**20).map(str),
    edge_ints.map(str),
    st.tuples(st.integers(1, 20), st.integers(0, 10**18)).map(lambda t: "0" * t[0] + str(t[1])),
)
ratio_entries = st.builds(
    "{}{}/{}".format, st.sampled_from(["", "-"]), digit_strings, digit_strings
)
short_ratios = st.builds(
    "{}/{}".format, st.integers(-(10**18) + 1, 10**18 - 1), st.integers(1, 10**18 - 1)
)
odd_entries = st.sampled_from(
    [
        "+1/2", " 1/2", "1/2 ", "1 /2", "1/ 2", "1/2 3/4", "-0/5", "007/0003", "0/0001",
        "1_0/3", "1/1_0", "\u0661/2", "1/\u0663", "\uff11/2", "\u0661\u0662/\u0663",
        "3/-6", "-3/-6", "1/+2", "1/0", "0/0", "-1/000", "--1/2", "-/2", "/2", "1/", "1//2",
        "1/2/3", "", " ", "-", "1.5", "-0.25", "1e3", "1E-2", "7", "-7", "0x10/2", "1/2\n",
    ]
)
json_entries = st.one_of(
    short_ratios,
    ratio_entries,
    odd_entries,
    st.integers(-(10**20), 10**20),
    st.fractions(max_denominator=10**6),
    st.text(alphabet="0123456789-/ +._e", max_size=8),
)


def _outcome(read, obj):
    """The signal read (its shape, columns and den), or the error raised."""
    try:
        f = read(obj)
    except Exception as exc:
        return type(exc), str(exc)
    return f.L, f.d, f.kind, f.cols, f.den


@st.composite
def signal_files(draw, entries):
    """A signal file's object on 2^L cells, L <= 3: short "n/d" strings,
    which the bulk parse takes, with up to three of them replaced by
    draws from entries."""
    L = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["vector", "matrix"]))
    d = draw(st.integers(1, 2))
    width = d * d if kind == "matrix" else d
    flat = draw(st.lists(short_ratios, min_size=width << L, max_size=width << L))
    for _ in range(draw(st.integers(0, 3))):
        flat[draw(st.integers(0, len(flat) - 1))] = draw(entries)
    values = [flat[j : j + width] for j in range(0, len(flat), width)]
    if kind == "matrix":
        values = [[v[r * d : (r + 1) * d] for r in range(d)] for v in values]
    return {"levels": L, "dim": d, "kind": kind, "values": values}


class TestBulkReader:
    """signal_from_json and columns_from_json, which parse short "n/d"
    strings in bulk, against the reader that takes each value and each
    entry on its own (reference): the same signal, or the same error."""

    @given(obj=signal_files(json_entries))
    @example(obj={"levels": 1, "dim": 1, "kind": "vector", "values": [["3/-6"], ["1/2"]]})
    @example(obj={"levels": 1, "dim": 1, "kind": "vector", "values": [["1/2"], ["1/0"]]})
    @example(obj={"levels": 1, "dim": 1, "kind": "vector", "values": [["1/2 3/4"], ["1/2"]]})
    @example(obj={"levels": 0, "dim": 1, "kind": "vector", "values": [["9" * 18 + "/" + "9" * 18]]})
    @example(obj={"levels": 0, "dim": 1, "kind": "vector", "values": [["9" * 19 + "/1"]]})
    @example(obj={"levels": 1, "dim": 1, "kind": "vector",
                  "values": [["999999999999999989/2"], ["1/999999999999999989"]]})
    @settings(max_examples=400, deadline=None)
    def test_same_signal_or_error(self, obj):
        assert _outcome(signal_from_json, obj) == _outcome(reference.signal_from_json_entries, obj)

    @given(obj=signal_files(json_entries), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_shape_errors(self, obj, data):
        # one value, row or entry of the wrong shape or kind
        values = obj["values"]
        j = data.draw(st.integers(0, len(values) - 1))
        values[j] = data.draw(
            st.sampled_from(
                [
                    "1/2",
                    [],
                    ["1/2"],
                    ["1/2", "1/3", "1/4"],
                    [["1/2"], ["1/3"]],
                    [["1/2", "1/3"], "1/4"],
                    [["1/2", ["1/3"]], ["1/4", "1/5"]],
                    ("1/2", "1/3"),
                    {"a": "1/2"},
                    None,
                ]
            )
        )
        assert _outcome(signal_from_json, obj) == _outcome(reference.signal_from_json_entries, obj)

    @given(obj=signal_files(json_entries))
    @settings(max_examples=150, deadline=None)
    def test_coefficient_columns(self, obj):
        L, d, kind = obj["levels"], obj["dim"], obj["kind"]
        cols = [list(c) for c in zip(*[_flat(v) for v in obj["values"]])]

        def read(module):
            return lambda cols: module.columns_from_json(L, d, kind, cols)

        assert _outcome(read(signal_module), cols) == _outcome(read(reference), cols)

    def test_int64_edges(self):
        # products past int64 after scaling to the lcm fall back to Python ints
        big = 999999999999999989  # prime, 18 digits
        obj = {"levels": 1, "dim": 1, "kind": "vector", "values": [[f"{big}/2"], [f"1/{big}"]]}
        f = signal_from_json(obj)
        assert (f.cols, f.den) == (((big * big, 2),), 2 * big)
        assert all(type(n) is int for n in f.cols[0])


def _flat(v):
    return [x for row in v for x in row] if v and isinstance(v[0], list) else v


class TestArrayWriter:
    """json_text's branch for uniform arrays of strings against json.dump,
    and every array it must leave to the item-by-item writer."""

    @pytest.mark.parametrize("L", [0, 1, 4, 9])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["vector", "matrix"])
    def test_signal_and_coefficient_files(self, L, d, kind, tmp_path):
        rng = random.Random(L * 100 + d * 10 + len(kind))
        width = d * d if kind == "matrix" else d
        f = Signal(L, d, kind, [[_entry(rng, "mixed") for _ in range(1 << L)] for _ in range(width)])
        for obj in (signal_to_json(f), {"levels": L, "coefficients": columns_to_json(f)}):
            dump_json(obj, tmp_path / "new.json")
            reference.dump_json(obj, tmp_path / "old.json")
            assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()

    @pytest.mark.parametrize(
        "obj",
        [
            [["a", "b"], ["c"]],
            [["a"], []],
            [[], []],
            [[], ["a"]],
            [[[]], [[]]],
            [("a", "b"), ("c", "d")],
            [["a", "b"], ("c", "d")],
            (["a", "b"], ["c", "d"]),
            [["a", 1], ["b", "c"]],
            [["a", "b"], ["c", None]],
            [["a", "b"], ["c", ["d"]]],
            [[["a"]], ["b"]],
            [[["a", "b"]], [["c"]]],
            ["a", ["b"]],
            [["a"], "b"],
            ["a", 1],
            [["a", "b"], {"c": "d"}],
            [["a", "é\n\"{}"], ["{0}", "\ud800"]],
            {"values": [[["{}", "}"], ["{", "{{"]]]},
        ],
        ids=repr,
    )
    def test_irregular_arrays_match_json_dump(self, obj):
        assert json_text(obj) == json.dumps(reference.jsonable(obj), indent=2, sort_keys=True)

    @given(
        shape=st.lists(st.integers(1, 3), min_size=1, max_size=4),
        text=st.text(alphabet='ab{}"\\/\n é😀', max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_uniform_arrays_match_json_dump(self, shape, text):
        obj = text
        for n in reversed(shape):
            obj = [obj] * n
        assert json_text(obj) == json.dumps(obj, indent=2)
        assert json_text({"k": [obj]}) == json.dumps({"k": [obj]}, indent=2)


class TestWalshColumns:
    @LEVELS
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_fwht_and_ifwht(self, L, data):
        f, _ = data.draw(signals(L))
        coef = walsh_coefficients(f)
        ref = reference.walsh_coefficients(f)
        assert repr([list(c) for c in coef.comps]) == repr(ref)
        obj = {"levels": f.L, "dim": f.d, "kind": f.kind, "coefficients": columns_to_json(coef)}
        text = json.dumps(obj)
        assert json.loads(text)["coefficients"] == [
            [num_to_json(x) for x in c] for c in ref
        ]
        back = _signal_from_coefficients(json.loads(text))
        assert repr(back) == repr(reference.signal_from_coefficients(json.loads(text)))


class TestCarlesonColumns:
    @LEVELS
    @given(data=st.data(), seed=st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_direct_and_bitile(self, L, data, seed):
        f, _ = data.draw(signals(L))
        N = gen_nfun(f.L, SplitMix64(seed))
        direct = carleson_direct(f, N)
        bitile = carleson_bitile(f, N, bitile_universe(f.L))
        assert repr(direct) == repr(reference.carleson_direct(f, N))
        assert repr(bitile) == repr(reference.carleson_bitile(f, N))
        assert direct == bitile


class TestRwtColumns:
    @LEVELS
    @given(data=st.data(), seed=st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_form_masks_and_warnings(self, L, data, seed):
        raw, _ = data.draw(signals(L))
        rng = SplitMix64(seed)
        F = gen_levelset(L, data.draw(st.sampled_from(["1/4", "1/2", "1"])), rng)
        E = gen_levelset(L, data.draw(st.sampled_from(["1/4", "3/4", "1"])), rng)
        if F.count == 0 or E.count == 0:
            return
        N = gen_nfun(L, rng)
        plugin = data.draw(st.sampled_from(_plugins(raw.kind)))
        f = raw.restrict(F)
        g = Signal(L, raw.d, raw.kind, [list(reversed(c)) for c in raw.comps]).restrict(E)
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            rep = restricted_weak_type(F, E, f, g, N, 2.0, 3, plugin)
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            ref = reference.restricted_weak_type(F, E, f, g, N, 2.0, 3, plugin)
        assert repr(rep) == repr(ref)
        assert [str(w.message) for w in got] == [str(w.message) for w in want]


class TestMaximalColumns:
    @LEVELS
    @given(data=st.data(), generic=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_matches_fraction_form(self, L, data, generic):
        f, _ = data.draw(signals(L, kinds=("vector",)))
        plugin = NormPlugin("lp", Fraction(3)) if generic else NormPlugin("euclidean")
        M = maximal_function(f, plugin)
        assert repr(M) == repr(reference.maximal_function(f, plugin))
        # exact for one coordinate, float norms otherwise
        assert {type(x) for x in M} == {Fraction if f.d == 1 else float}


class TestBatchedNorms:
    @LEVELS
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_equal_value_norm_by_repr(self, L, data):
        f, _ = data.draw(signals(L))
        plugin = data.draw(st.sampled_from(_plugins(f.kind)))
        assert repr(value_norms(f, plugin)) == repr([value_norm(v, plugin) for v in f.samples])

    @pytest.mark.parametrize("p", ["3/2", "3"])
    @pytest.mark.parametrize("d", [2, 3])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_schatten_bits(self, p, d, data):
        L = data.draw(st.integers(0, 6))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        mode = data.draw(st.sampled_from(["exact", "float", "mixed"]))
        f = Signal(L, d, "matrix", [[_entry(rng, mode) for _ in range(1 << L)] for _ in range(d * d)])
        plugin = NormPlugin("schatten", Fraction(p))
        assert repr(value_norms(f, plugin)) == repr([value_norm(v, plugin) for v in f.samples])

    def test_schatten_overflow(self):
        # cell 0: s**3 past the largest float; cell 1: two powers whose
        # sum is past it; both give inf with numpy's RuntimeWarnings
        big, near = 10**110, 56 * 10**101
        f = Signal(1, 2, "matrix", [[big, near], [1, 0], [0, 0], [5, near]])
        plugin = NormPlugin("schatten", Fraction(3))
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            norms = value_norms(f, plugin)
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            ref = [value_norm(v, plugin) for v in f.samples]
        assert repr(norms) == repr(ref) and norms == [math.inf, math.inf]
        assert [str(w.message) for w in got] == [str(w.message) for w in want] != []


class TestExactNormPowers:
    @LEVELS
    @given(
        data=st.data(),
        q=st.sampled_from([2, 3, 4, Fraction(2), Fraction(3), 2.5, 0, 1]),
    )
    @settings(max_examples=12, deadline=None)
    def test_integer_sums_match_cell_sums(self, L, data, q):
        f, _ = data.draw(signals(L))
        plugin = data.draw(st.sampled_from(_plugins(f.kind)))
        got = lq_norm_pow(f, q, plugin)
        assert repr(got) == repr(reference.lq_norm_pow(f, q, plugin))

    def test_one_dimensional_exact_powers(self):
        f = Signal.scalar([Fraction(1, 3), Fraction(-2, 3), 0, Fraction(5, 7)])
        expected = (Fraction(1, 3) ** 3 + Fraction(2, 3) ** 3 + Fraction(5, 7) ** 3) / 4
        assert lq_norm_pow(f, 3, NormPlugin("lp", Fraction(3))) == expected


# the values reports hold: exact and float numbers of every kind, with
# the floats json.dumps would write as words, big ints, strings, bitiles
numbers = st.one_of(
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.fractions(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 1e-300, float("nan"), float("inf"), float("-inf"), 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
bitiles = st.builds(
    Bitile, st.builds(DyadicInterval, st.integers(0, 8), st.integers(0, 255)), st.integers(0, 255)
)


@st.composite
def trees(draw):
    items = bitile_universe(draw(st.integers(1, 3))).items
    top = draw(st.sampled_from(items))
    below = [P for P in items if bitile_le(P, top)]
    return Tree.build(top, draw(st.lists(st.sampled_from(below), max_size=4)))


report_leaves = st.one_of(
    st.none(),
    st.booleans(),
    numbers,
    st.text(),
    st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f é€😀\ud800'),
    bitiles,
    trees(),
)


def _report_containers(children):
    keys = st.text(max_size=6)
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.text(max_size=4), max_size=5),
        st.lists(st.integers(), max_size=5),
        st.dictionaries(keys, children, max_size=4),
        st.builds(
            Certificate.make, keys, numbers, numbers,
            theorem_backed=st.booleans(), context=st.dictionaries(keys, children, max_size=3),
        ),
    )


report_values = st.recursive(report_leaves, _report_containers, max_leaves=30)


class TestReportWriter:
    @given(obj=report_values)
    @example(obj=["a", Fraction(1, 2)])
    @example(obj={"k": (np.float64(2.5), -0.0, float("nan"), 10**40, True, None)})
    @settings(max_examples=150, deadline=None)
    def test_bytes_match_json_dump(self, obj):
        assert json_text(obj) == json.dumps(reference.jsonable(obj), indent=2, sort_keys=True)

    def test_nested_empty_containers(self):
        obj = {"a": [], "b": {}, "c": [[], {}, [[]], {"d": {}}], "e": ()}
        assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "obj",
        [
            np.int64(3),
            [1, np.int64(3)],
            {"k": {"j": np.int32(1)}},
            {(1, 2): "tuple key"},
            {"a": 1, 2: "mixed key types"},
            {10: "x", 9: "y", -1: [1, 2]},
            {float("inf"): 1, -0.0: 3},
            {float("nan"): [float("nan")]},
            {True: "t", False: "f"},
            {None: None},
            {"c": Certificate.make("c", 1, 2, context={3: "int key"})},
            ("s", b"bytes"),
            {1, 2},
        ],
        ids=repr,
    )
    def test_unsupported_values_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            json_text(obj)
