"""Grid signals with vector or matrix values, pluggable norms with dual
pairings, L^q norms, the dyadic maximal function and dyadic BMO.

A signal is piecewise constant on the 2^L cells of [0,1).  It is stored
component-major: one column of 2^L entries per coordinate of the value
space, d columns for a vector and d^2 for a matrix (entries row by row).
Every signal is exact: Python-int numerator columns over one positive
common denominator, made canonical (its gcd with all the numerators is 1)
so that equal signals store equal integers; its kernels (JSON, the Walsh
transform, the Carleson operators, the maximal function) read and write
those integers and make no Fraction per entry.  A float given to a signal
becomes its exact binary value, Fraction(x); a decimal read from JSON
becomes its exact decimal value (num_from_json).

`Signal.comps` (the entries as Fractions) and
`Signal.samples` (the nested per-cell value: a length-d tuple for a
vector, d rows of d for a matrix) are read-only views, built on first use
for the norms, which need a whole value, and for the certificates.
Scalars are dimension-1 vectors.
"""

from __future__ import annotations

import json
import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Sequence

import numpy as np

from .dyadic import DyadicInterval, unit_intervals

Number = Fraction  # canonical exact scalar


# ---------------------------------------------------------------------------
# value helpers (nested tuples)

def nest(flat: Sequence, d: int, kind: str) -> tuple:
    """The nested value of one cell from its entries in column order."""
    if kind == "matrix":
        return tuple(tuple(flat[r * d : (r + 1) * d]) for r in range(d))
    return tuple(flat)


def value_is_zero(a) -> bool:
    if isinstance(a, tuple):
        return all(value_is_zero(x) for x in a)
    return a == 0


def int_dtype(bits: int):
    """The array dtype for integers of at most `bits` bits: int64 up to 62
    bits, so that one more addition cannot overflow; Python ints (dtype
    object) past that, running the same array code exactly."""
    return np.int64 if bits <= 62 else object


def flatten_value(a) -> list:
    if isinstance(a, tuple):
        out = []
        for x in a:
            out.extend(flatten_value(x))
        return out
    return [a]


def dual_pair(a, b):
    """Duality: dot product for vectors, trace pairing tr(A^T B) for
    matrices; a and b may be nested values or their flat entries."""
    fa, fb = flatten_value(a), flatten_value(b)
    if len(fa) != len(fb):
        raise ValueError("shape mismatch in dual pairing")
    acc = Fraction(0)
    for x, y in zip(fa, fb):
        acc = acc + x * y
    return acc


# ---------------------------------------------------------------------------
# norms

@dataclass(frozen=True)
class NormPlugin:
    """A named norm with its dual pairing and a working exponent q >= 2."""

    name: str  # "euclidean" | "lp" | "schatten"
    p: Fraction | None = None
    q: float = 2.0

    def __post_init__(self) -> None:
        if self.name not in ("euclidean", "lp", "schatten"):
            raise ValueError(f"unknown norm plugin {self.name!r}")
        if self.name in ("lp", "schatten"):
            if self.p is None or not 1 < self.p:
                raise ValueError(f"{self.name} norm needs exponent p in (1, inf)")
        if not 2 <= self.q < math.inf:
            raise ValueError(f"tile-type exponent q={self.q} must be finite and >= 2")

    def dual(self) -> "NormPlugin":
        if self.name == "euclidean":
            return self
        p = Fraction(self.p)
        return NormPlugin(self.name, p / (p - 1), self.q)

    def spec(self) -> str:
        if self.name == "euclidean":
            return "euclidean"
        return f"{self.name}:{self.p}"

    @staticmethod
    def parse(text: str, q: float = 2.0) -> "NormPlugin":
        if text == "euclidean":
            return NormPlugin("euclidean", None, q)
        name, _, pstr = text.partition(":")
        if name in ("lp", "schatten") and pstr:
            try:
                return NormPlugin(name, Fraction(pstr), q)
            except ZeroDivisionError:
                pass
        raise ValueError(f"cannot parse norm spec {text!r}")


def singular_values(mat: Sequence[Sequence]) -> list[float]:
    arr = np.array([[float(x) for x in row] for row in mat], dtype=float)
    return list(np.linalg.svd(arr, compute_uv=False))


def value_norm(v, plugin: NormPlugin) -> float:
    """Norm of a single value under the plugin; float."""
    if plugin.name == "schatten":
        if not (isinstance(v, tuple) and v and isinstance(v[0], tuple)):
            raise ValueError("schatten norm requires a matrix value")
        if len(v) == 1:
            sv = [abs(float(v[0][0]))]
        else:
            sv = singular_values(v)
        p = float(plugin.p)
        return sum(s**p for s in sv) ** (1.0 / p)
    flat = [float(x) for x in flatten_value(v)]
    if plugin.name == "euclidean":
        return math.sqrt(sum(x * x for x in flat))
    p = float(plugin.p)
    return sum(abs(x) ** p for x in flat) ** (1.0 / p)


def _frobenius_like(plugin: NormPlugin) -> bool:
    """The norm of a value is the Euclidean norm of its entries."""
    return plugin.name == "euclidean" or (plugin.name == "schatten" and plugin.p == 2)


# ---------------------------------------------------------------------------
# signals

def _check_shape(L: int, d: int, kind: str, cols: Sequence[Sequence]) -> None:
    if kind not in ("vector", "matrix"):
        raise ValueError(f"unknown signal kind {kind!r}")
    if d < 1:
        raise ValueError(f"signal dimension d={d} must be at least 1")
    width = d * d if kind == "matrix" else d
    if len(cols) != width or any(len(c) != 1 << L for c in cols):
        raise ValueError(
            f"a {d}-dimensional {kind} on 2^{L} cells needs "
            f"{width} components of {1 << L} samples, got "
            f"{len(cols)} of {sorted({len(c) for c in cols})}"
        )


@dataclass(frozen=True, eq=False, repr=False)
class Signal:
    """A function constant on each cell [j 2^-L, (j+1) 2^-L), j < 2^L.

    cols[i][j] / den is entry i of the value on cell j: d columns for a
    vector, d^2 for a matrix with its entries row by row.  Built as
    Signal(L, d, kind, integer numerator columns, den > 0), or with den
    left at 1 from columns of numbers: ints, Fractions, or floats, each
    its exact binary value Fraction(x).  A signal holds Python-int
    numerators over den, reduced until the gcd of den and all of them is
    1."""

    L: int
    d: int
    kind: str  # "vector" | "matrix"
    cols: tuple
    den: int = 1

    def __post_init__(self) -> None:
        cols, den = tuple(tuple(c) for c in self.cols), self.den
        _check_shape(self.L, self.d, self.kind, cols)
        try:
            # a TypeError unless every entry is an int
            g = math.gcd(den, *(math.gcd(*c) for c in cols))
        except TypeError:
            # numbers: numerators over the lcm of their reduced denominators
            cols = tuple(tuple(map(Fraction, c)) for c in cols)
            lcm = math.lcm(*{x.denominator for c in cols for x in c})
            cols = tuple(tuple(x.numerator * (lcm // x.denominator) for x in c) for c in cols)
            den *= lcm
            g = math.gcd(den, *(math.gcd(*c) for c in cols))
        if g > 1:
            den //= g
            cols = tuple(tuple(n // g for n in c) for c in cols)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "den", den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Signal):
            return NotImplemented
        return (self.L, self.d, self.kind, self.den, self.cols) == (
            other.L, other.d, other.kind, other.den, other.cols
        )

    def __hash__(self) -> int:
        return hash((self.L, self.d, self.kind, self.den, self.cols))

    def __repr__(self) -> str:
        return f"Signal(L={self.L!r}, d={self.d!r}, kind={self.kind!r}, comps={self.comps!r})"

    @property
    def cells(self) -> int:
        return 1 << self.L

    @cached_property
    def comps(self) -> tuple:
        """The entries as Fractions, column by column."""
        den = self.den
        return tuple(tuple(Fraction(n, den) for n in c) for c in self.cols)

    @cached_property
    def samples(self) -> tuple:
        """The nested value on each cell (see nest)."""
        return tuple(nest(flat, self.d, self.kind) for flat in zip(*self.comps))

    def rebuild(self, sums: Sequence[Sequence], scale: int = 1) -> "Signal":
        """The signal of this shape whose columns are integer sums of the
        numerators, divided by scale: exact over den scale, with no
        Fraction per entry."""
        return Signal(self.L, self.d, self.kind, sums, self.den * scale)

    @staticmethod
    def scalar(values: Iterable) -> "Signal":
        col = tuple(values)
        return Signal(len(col).bit_length() - 1, 1, "vector", (col,))

    @staticmethod
    def from_values(values: Sequence, kind: str = "vector") -> "Signal":
        d = len(values[0])
        return Signal(len(values).bit_length() - 1, d, kind, _columns(values, d, kind))

    def scalar_samples(self) -> list:
        if self.d != 1 or self.kind != "vector":
            raise ValueError("not a scalar signal")
        return list(self.comps[0])

    def with_components(self, comps: Sequence[Sequence]) -> "Signal":
        """A signal of the same shape with the given columns of numbers."""
        return Signal(self.L, self.d, self.kind, comps)

    def zero_like(self) -> "Signal":
        return Signal(self.L, self.d, self.kind, [[0] * self.cells for _ in self.cols])

    def restrict(self, E: "LevelSet") -> "Signal":
        """The signal times the indicator of E: zero on the cells outside E."""
        keep = E.bits().tolist()
        return self.rebuild([[x if k else 0 for x, k in zip(c, keep)] for c in self.cols])

    def refine(self, L2: int) -> "Signal":
        """Same function sampled on a finer grid."""
        if L2 < self.L:
            raise ValueError("refinement must not lose resolution")
        rep = 1 << (L2 - self.L)
        return Signal(L2, self.d, self.kind, [[x for x in c for _ in range(rep)] for c in self.cols], self.den)

    def average(self, I: DyadicInterval | None = None):
        """Mean value over a dyadic interval (default: all of [0,1))."""
        if I is None:
            I = DyadicInterval(0, 0)
        cells = I.cells(self.L)
        means = []
        for c in self.comps:
            acc = Fraction(0)
            for j in cells:
                acc = acc + c[j]
            means.append(acc * Fraction(1, len(cells)))
        return nest(means, self.d, self.kind)


def _columns(values: Sequence, d: int, kind: str) -> list:
    """Columns of nested per-cell values (lists or tuples); ValueError
    unless every value is d numbers (vector) or d rows of d numbers
    (matrix).  Whole-list type and length tests and one transpose; only
    when a test fails is the first bad value looked for."""

    def seqs(xs) -> list[bool]:
        return [issubclass(t, (list, tuple)) for t in set(map(type, xs))]

    def shaped(vs, depth: int) -> bool:
        """Every item a list or tuple of d items, depth deep."""
        if not all(seqs(vs)) or not set(map(len, vs)) <= {d}:
            return False
        return depth == 1 or shaped(list(chain.from_iterable(vs)), depth - 1)

    def columns(vs) -> list | None:
        """vs's columns; None unless each value has the shape and leaves that
        are no list or tuple."""
        if not shaped(vs, 2 if kind == "matrix" else 1):
            return None
        cols = [c for r in zip(*vs) for c in zip(*r)] if kind == "matrix" else list(zip(*vs))
        return None if any(seqs(chain.from_iterable(cols))) else cols

    cols = columns(values)
    if cols is None:
        j = next(j for j, v in enumerate(values) if columns([v]) is None)
        raise ValueError(f"value {j} is not a {d}-dimensional {kind}")
    return cols


def lq_norm_pow(f: Signal, q, plugin: NormPlugin) -> Fraction | None:
    """Exact q-th power of the L^q norm, when representable as a rational:
    integer q >= 0 with 1-dimensional values, or q = 2 with a
    euclidean/schatten-2 norm; else None.  It sums integer
    powers of the numerators and makes one Fraction."""
    whole = isinstance(q, int) or (isinstance(q, Fraction) and q.denominator == 1)
    if not whole or q < 0:
        return None
    qi = int(q)
    if len(f.cols) == 1:
        total = sum(abs(n) ** qi for n in f.cols[0])
    elif qi == 2 and _frobenius_like(plugin):
        total = sum(n * n for c in f.cols for n in c)
    else:
        return None
    return Fraction(total, f.den**qi << f.L)

def lq_norm(f: Signal, q, plugin: NormPlugin) -> float:
    """(2^-L sum_j |f_j|^q)^(1/q); q may be math.inf for the sup norm."""
    if q == math.inf:
        return max(value_norms(f, plugin))
    exact = lq_norm_pow(f, q, plugin)
    if exact is not None:
        return float(exact) ** (1.0 / float(q))
    qf = float(q)
    total = sum(x**qf for x in value_norms(f, plugin))
    return (total / f.cells) ** (1.0 / qf)


def value_norms(f: Signal, plugin: NormPlugin) -> list[float]:
    """value_norm of every cell's value, bit for bit, from one stacked SVD
    for a schatten norm on matrices larger than 1x1.  The entries become
    floats as n / den, which is correctly rounded like float(Fraction)."""
    den = f.den
    cols = [[n / den for n in c] for c in f.cols]
    if plugin.name == "schatten" and f.kind == "matrix" and f.d > 1:
        stack = np.array(cols, dtype=float).T.reshape(f.cells, f.d, f.d)
        p = float(plugin.p)
        sv = np.linalg.svd(stack, compute_uv=False)
        norms = _power_sum_roots(sv.T.tolist(), p)
        if norms is not None:
            return list(np.array(norms))
        return [sum(s**p for s in row) ** (1.0 / p) for row in sv]
    return [value_norm(nest(flat, f.d, f.kind), plugin) for flat in zip(*cols)]


def _power_sum_roots(columns: list[list[float]], p: float) -> list[float] | None:
    """Per cell, (sum of x**p over the columns) ** (1/p) on Python floats,
    one C-level map per column: the bits of the same loop on numpy
    scalars, which add in the same order.  None on an overflow, where
    numpy's scalars give inf with a RuntimeWarning but a float's ** raises
    and its + gives inf silently."""
    try:
        acc = list(map(pow, columns[0], repeat(p)))
        for col in columns[1:]:
            acc = list(map(operator.add, acc, map(pow, col, repeat(p))))
    except OverflowError:
        return None
    return None if math.inf in acc else list(map(pow, acc, repeat(1.0 / p)))


def cell_norms(f: Signal, plugin: NormPlugin) -> list:
    """Per-cell norms: exact Fractions |x| for 1-dimensional values, else
    the floats of value_norms."""
    if len(f.cols) == 1:
        return [abs(x) for x in f.comps[0]]
    return value_norms(f, plugin)


def maximal_numerators(f: Signal) -> tuple[list[int], int]:
    """The dyadic maximal function of a one-coordinate f (see
    maximal_function) as integer numerators over den 2^L: each cell starts
    at |n| 2^L, and a block of 2^t cells averages to a multiple of
    2^(L-t), so halving a pair's sum stays exact."""
    if len(f.cols) != 1:
        raise ValueError("integer maximal function of a one-coordinate signal only")
    best = _maximal_averages([abs(n) << f.L for n in f.cols[0]], lambda a, b: (a + b) >> 1)
    return best, f.den << f.L


def maximal_function(f: Signal, plugin: NormPlugin) -> list:
    """Dyadic maximal function of |f|: per cell, the largest average of the
    pointwise norm over dyadic intervals inside [0,1) containing the cell.

    One coordinate, whose norm is |x| under every plugin, gives exact
    Fractions averaged in integers (maximal_numerators); other values give
    floats from the cell norms of value_norms."""
    if len(f.cols) == 1:
        nums, den = maximal_numerators(f)
        return [Fraction(n, den) for n in nums]
    return _maximal_averages(value_norms(f, plugin), lambda a, b: (a + b) / 2)


def _maximal_averages(level: list, halve) -> list:
    """Per cell, the first largest of level's value and the averages
    halve(a, b) of the dyadic blocks above the cell, taken pairwise
    bottom-up and compared fine to coarse: O(2^L)."""
    levels = [level]
    while len(level) > 1:
        level = [halve(a, b) for a, b in zip(level[::2], level[1::2])]
        levels.append(level)
    best = level
    for avgs in reversed(levels[:-1]):
        best = [b if b > a else a for a, b in zip(avgs, (b for b in best for _ in (0, 1)))]
    return best


def bmo_norm(f: Signal, plugin: NormPlugin) -> float:
    """Dyadic BMO with L^1 mean oscillation:
    max over dyadic K of (1/|K|) int_K |f - avg_K f|."""
    worst = 0.0
    for K in unit_intervals(f.L):
        cells = K.cells(f.L)
        mean = flatten_value(f.average(K))
        osc = 0.0
        for j in cells:
            diff = [c[j] - m for c, m in zip(f.comps, mean)]
            osc += value_norm(nest(diff, f.d, f.kind), plugin)
        osc /= len(cells)
        if osc > worst:
            worst = osc
    return worst


# ---------------------------------------------------------------------------
# level sets and frequency choices

@dataclass(frozen=True)
class LevelSet:
    """Union of grid cells, stored as a bitmask over the 2^L cells."""

    L: int
    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> (1 << self.L):
            raise ValueError("cell mask out of range for resolution")

    @staticmethod
    def from_cells(L: int, cells: Iterable[int]) -> "LevelSet":
        """The set of the given cells, repeats allowed: the mask's bytes
        packed from one flag per cell, O(2^L + #cells)."""
        cells = list(cells)
        bad = [j for j in cells if not 0 <= j < (1 << L)]
        if bad:
            raise ValueError(f"cell index {bad[0]} out of range")
        bits = np.zeros(1 << L, np.uint8)
        bits[cells] = 1
        return LevelSet(L, int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little"))

    @staticmethod
    def full(L: int) -> "LevelSet":
        return LevelSet(L, (1 << (1 << L)) - 1)

    @staticmethod
    def empty(L: int) -> "LevelSet":
        return LevelSet(L, 0)

    def __contains__(self, cell: int) -> bool:
        return bool((self.mask >> cell) & 1)

    def bits(self) -> np.ndarray:
        """One 0/1 uint8 flag per cell: the bits of the mask's bytes,
        O(2^L)."""
        size = ((1 << self.L) + 7) >> 3
        raw = np.frombuffer(self.mask.to_bytes(size, "little"), np.uint8)
        return np.unpackbits(raw, count=1 << self.L, bitorder="little")

    def cells(self) -> list[int]:
        """The cells of the set, ascending."""
        return np.flatnonzero(self.bits()).tolist()

    @property
    def count(self) -> int:
        return self.mask.bit_count()

    @property
    def measure(self) -> Fraction:
        return Fraction(self.count, 1 << self.L)

    def complement(self) -> "LevelSet":
        return LevelSet(self.L, self.mask ^ ((1 << (1 << self.L)) - 1))

    def minus(self, other: "LevelSet") -> "LevelSet":
        return LevelSet(self.L, self.mask & ~other.mask)

    def intersect(self, other: "LevelSet") -> "LevelSet":
        return LevelSet(self.L, self.mask & other.mask)

    def indicator(self) -> Signal:
        return Signal(self.L, 1, "vector", [self.bits().tolist()], 1)


@dataclass(frozen=True)
class FrequencyChoice:
    """A measurable cutoff choice: one integer N in [0, 2^L] per cell.

    The closed upper endpoint 2^L selects the full reconstruction.
    """

    L: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != 1 << self.L:
            raise ValueError("need one cutoff per grid cell")
        top = 1 << self.L
        for n in self.values:
            if not 0 <= n <= top:
                raise ValueError(f"cutoff {n} outside [0, 2^{self.L}]")

    def __getitem__(self, cell: int) -> int:
        return self.values[cell]


# ---------------------------------------------------------------------------
# JSON serialization

def num_to_json(x) -> str:
    """The one number encoding: "num/den" for rationals, repr for floats."""
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return repr(float(x))


def num_from_json(s) -> Fraction:
    """Inverse of num_to_json, exact: an "n/d" string, an integer or
    decimal string (Fraction("0.1") is 1/10), or a number, a float as its
    exact binary value.  ValueError for a zero denominator, a non-finite
    value, or a decimal exponent past sys.get_int_max_str_digits(), the
    limit Python puts on the digits of an integer."""
    if type(s) is not str:
        return Fraction(s)
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(int(num), int(den))
    _, e, exp = s.lower().partition("e")
    limit = sys.get_int_max_str_digits()
    if e and limit and abs(int(exp)) > limit:
        raise ValueError(f"exponent of {s!r} exceeds {limit} digits")
    return Fraction(s)


def _non_finite(name: str):
    raise ValueError(f"non-finite number {name}")


def _exact_numbers(entries: Sequence) -> tuple[list[int], int]:
    """(numerators, den) of JSON numbers (num_from_json) over their least
    common denominator: in bulk (_int64_ratios) when they are all short
    "n/d" strings, else entry by entry."""
    bulk = _int64_ratios(entries)
    if bulk is not None:
        return bulk
    nums, dens = [], []
    for s in entries:
        if type(s) is str:
            n, slash, q = s.partition("/")
            if slash and int(q) > 0:
                nums.append(int(n))
                dens.append(int(q))
                continue
        # JSON numbers, integer and decimal strings, signed or zero denominators
        x = num_from_json(s)
        nums.append(x.numerator)
        dens.append(x.denominator)
    distinct = set(dens)
    den = math.lcm(*distinct)
    if len(distinct) > 1:
        mult = {q: den // q for q in distinct}
        nums = [n * mult[q] for n, q in zip(nums, dens)]
    return nums, den


# "n/d" with ASCII digits, at most 18 of them in n and in d (so both fit
# int64) and d > 0; a joined list of such entries, one space between two,
# matched possessively, which keeps no backtracking state per entry
_RATIO = "-?[0-9]{1,18}/0*[1-9][0-9]{0,17}"
_RATIOS = re.compile(f"{_RATIO}(?: {_RATIO})*+")


def _int64_ratios(entries: Sequence) -> tuple[list[int], int] | None:
    """_exact_numbers of entries that are all "n/d" strings matching
    _RATIO, in one pass: their text joined by spaces is checked by one
    full match and parsed by one np.fromstring, and the numerators are
    scaled to the lcm in int64 (int_dtype); None for any other entries."""
    if not entries:
        return None
    try:
        text = " ".join(entries)
    except TypeError:  # an entry that is no string
        return None
    # an entry holding a space would pass for two
    if text.count(" ") != len(entries) - 1 or _RATIOS.fullmatch(text) is None:
        return None
    ints = np.fromstring(text.replace("/", " "), dtype=np.int64, sep=" ")
    nums, dens = ints[0::2], ints[1::2]
    distinct = set(dens.tolist())
    den = math.lcm(*distinct)
    if len(distinct) > 1:
        top = int(np.abs(nums).max())
        dtype = int_dtype(max(den.bit_length(), top.bit_length() + (den // min(distinct)).bit_length()))
        nums = nums.astype(dtype) * (den // dens.astype(dtype))
    return nums.tolist(), den


def columns_to_json(f: Signal) -> Ratios:
    """The columns as one exact array, column by column."""
    top = max([f.den, *(max(max(c), -min(c)) for c in f.cols)])
    return Ratios(np.array(f.cols, int_dtype(top.bit_length())), f.den)


@dataclass(frozen=True, eq=False)
class Ratios:
    """An array of exact numbers: integer numerators nums, an int64 or
    object array of any shape, over one positive den.  Indexing its first
    axis gives an entry's Fraction, or the Ratios of a sub-array;
    json_text writes it as nested arrays of "n/d" strings, each entry
    reduced by its gcd with den (_ratio_pairs)."""

    nums: np.ndarray
    den: int

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, i: int):
        if self.nums.ndim == 1:
            return Fraction(int(self.nums[i]), self.den)
        return Ratios(self.nums[i], self.den)


class Records:
    """A JSON array of objects that share their keys, held as columns:
    each key maps to one entry per object, in a Ratios, a Records (one
    nested object per object), a Groups (one array of nested objects per
    object) or a list of any values json_text takes.  json_text writes it
    from one template per Records (_records_text); reading an object
    gives a dict of its values, a Ratios entry as its Fraction and a
    Groups entry as a list of dicts."""

    def __init__(self, columns: dict) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def __getitem__(self, i: int) -> dict:
        return {key: col[i] for key, col in self.columns.items()}

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @staticmethod
    def of(dicts: Iterable[dict]) -> "Records":
        """The Records of dicts that share their keys."""
        rows = list(dicts)
        return Records({key: [row[key] for row in rows] for key in rows[0]} if rows else {})


@dataclass(frozen=True, eq=False)
class Groups:
    """A Records column of arrays of objects: entry i is the objects
    bounds[i]:bounds[i + 1] of records."""

    records: Records
    bounds: list[int]

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, i: int) -> list[dict]:
        return [self.records[j] for j in range(self.bounds[i], self.bounds[i + 1])]


def columns_from_json(L: int, d: int, kind: str, columns) -> Signal:
    """Inverse of columns_to_json: integer columns over one denominator,
    from a Ratios or from a JSON array of arrays of numbers."""
    if isinstance(columns, Ratios):
        return Signal(L, d, kind, columns.nums.tolist(), columns.den)
    # JSON arrays, or the tuples of signal_from_json's transpose
    if type(columns) not in (list, tuple) or not set(map(type, columns)) <= {list, tuple}:
        raise ValueError("coefficients must be an array of arrays of numbers")
    _check_shape(L, d, kind, columns)
    nums, den = _exact_numbers(list(chain.from_iterable(columns)))
    n = 1 << L
    return Signal(L, d, kind, [nums[i : i + n] for i in range(0, len(nums), n)], den)


def json_int(x, field: str) -> int:
    """An integer field: a JSON integer or an integer string, never a float
    or a boolean; ValueError otherwise."""
    if type(x) is int or (type(x) is str and x.strip().lstrip("+-").isdecimal()):
        return int(x)
    raise ValueError(f"{field} must be an integer, got {x!r}")


def json_ints(values, field: str) -> list[int]:
    """A list of integer fields, with one type test for JSON integers."""
    if type(values) is not list:
        raise ValueError(f"{field} must be a list of integers, got {values!r}")
    return values if set(map(type, values)) <= {int} else [json_int(x, field) for x in values]


def signal_to_json(f: Signal) -> dict:
    """The signal file's object: its values one Ratios, cell by cell."""
    cols = columns_to_json(f)
    shape = (f.cells, f.d, f.d) if f.kind == "matrix" else (f.cells, f.d)
    values = Ratios(cols.nums.T.reshape(shape), f.den)
    return {"levels": f.L, "dim": f.d, "kind": f.kind, "values": values}


def signal_from_json(obj: dict) -> Signal:
    L = json_int(obj["levels"], "levels")
    d = json_int(obj["dim"], "dim")
    kind = obj["kind"]
    values = obj["values"]
    if isinstance(values, Ratios):
        return columns_from_json(L, d, kind, Ratios(values.nums.reshape(len(values), -1).T, values.den))
    if type(values) is not list:
        raise ValueError("values must be an array")
    if set(map(type, values)) - {list}:
        values = [v if type(v) is list else [v] for v in values]
    return columns_from_json(L, d, kind, _columns(values, d, kind))


def levelset_to_json(E: LevelSet) -> dict:
    return {"levels": E.L, "cells": E.cells()}


def levelset_from_json(obj: dict) -> LevelSet:
    L = json_int(obj["levels"], "levels")
    if "cells" in obj:
        return LevelSet.from_cells(L, json_ints(obj["cells"], "cells"))
    bits = obj["bits"]
    if type(bits) is not str or not set(bits) <= {"0", "1"}:
        raise ValueError("bits must be a string of '0' and '1' characters")
    if len(bits) != 1 << L:
        raise ValueError("bitstring length must equal the cell count")
    return LevelSet.from_cells(L, (j for j, b in enumerate(bits) if b == "1"))


def nfun_to_json(N: FrequencyChoice) -> dict:
    return {"levels": N.L, "N": list(N.values)}


def nfun_from_json(obj: dict) -> FrequencyChoice:
    return FrequencyChoice(json_int(obj["levels"], "levels"), tuple(json_ints(obj["N"], "N")))


def load_json(path) -> dict:
    """The JSON file at path with every number exact: a decimal is read by
    num_from_json, and NaN or an infinity raises ValueError."""
    with open(path) as fh:
        return json.load(fh, parse_float=num_from_json, parse_constant=_non_finite)


def dump_json(obj: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(json_text(obj))
        fh.write("\n")


def json_text(obj) -> str:
    """obj as JSON with a two-space indent and sorted keys.

    Strings, ints, bools and None are written as JSON; Fractions and floats
    (numpy's float64 too) as the quoted num_to_json string; lists and
    tuples as arrays; dicts, whose keys must be strings, with their keys
    sorted; a Ratios as its nested arrays of "n/d" strings and a Records
    as the array of its rows, each from one template (_ratios_text,
    _records_text); any other object as what its to_json() returns.
    Anything else, a key that is no string included, raises TypeError.

    One call per container, which copies its items' text at most twice: a
    dict's keys, values and separators go through one str.join; a list's
    items through the separator's join, and that with the brackets through
    a five-piece join.  Strings are quoted with the C-level
    encode_basestring_ascii."""
    return _json_value(obj, "\n")


def _json_value(o, newline: str) -> str:
    """o as JSON at the depth whose line break and indent is newline."""
    t = type(o)
    if t is str:
        return _quote(o)
    if t is int:
        return int.__repr__(o)
    if t is dict:
        if not o:
            return "{}"
        inner = newline + "  "
        sep = "," + inner
        parts = []
        for k, v in sorted(o.items()):
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {k.__class__.__name__}")
            parts += (sep, _quote(k), ": ", _json_value(v, inner))
        parts[0] = "{" + inner
        parts.append(newline + "}")
        return "".join(parts)
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = newline + "  "
        return "".join(("[", inner, ("," + inner).join([_json_value(x, inner) for x in o]), newline, "]"))
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, (Fraction, float)):
        return _quote(num_to_json(o))
    if isinstance(o, Ratios):
        return _ratios_text(o, newline)
    if isinstance(o, Records):
        return _records_text(o, newline)
    to_json = getattr(o, "to_json", None)
    if to_json is None:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    return _json_value(to_json(), newline)


# the slot of one exact entry, filled by its reduced numerator and denominator
_RATIO_SLOT = '"%d/%d"'


def _ratio_pairs(o: Ratios) -> np.ndarray:
    """Each entry n / den of o reduced by gcd(n, den), as the array of
    o's shape with one more axis holding (numerator, denominator): one
    np.gcd, in int64 when den and every n fit (int_dtype), else in Python
    ints."""
    nums, den = o.nums, o.den
    if nums.dtype != object and den.bit_length() > 62:
        nums = nums.astype(object)
    g = np.gcd(nums, den)
    return np.stack((nums // g, den // g), axis=-1)


def _ratios_text(o: Ratios, newline: str) -> str:
    """o as JSON (see _json_value): one template of its brackets, commas
    and indents with a _RATIO_SLOT per entry (_array_template), filled by
    one % over the reduced pairs."""
    return _array_template(o.nums.shape, newline, _RATIO_SLOT) % tuple(_ratio_pairs(o).ravel().tolist())


def _array_template(shape: Sequence[int], newline: str, item: str) -> str:
    """The text of arrays nested to the given shape at the depth of
    newline, with item for each entry."""
    for depth in reversed(range(len(shape))):
        outer = newline + "  " * depth
        inner = outer + "  "
        n = shape[depth]
        item = "".join(("[", inner, ("," + inner).join([item] * n), outer, "]")) if n else "[]"
    return item


def _records_text(o: Records, newline: str) -> str:
    """o as JSON (see _json_value), as a Groups of one array."""
    return _column_slot(Groups(o, [0, len(o)]), newline)[1][0][0]


def _record_template(o: Records, newline: str) -> tuple[str, list[list]]:
    """The %-template of the text of one object of o at the depth of
    newline, and the values of o's leaf columns in the order of its slots
    (_column_slot)."""
    if not o.columns:
        return "{}", []
    inner = newline + "  "
    parts, columns = [], []
    for key, col in sorted(o.columns.items()):
        if type(key) is not str:
            raise TypeError(f"keys must be str, not {key.__class__.__name__}")
        name = _quote(key).replace("%", "%%") + ": "
        if isinstance(col, Records):
            template, cols = _record_template(col, inner)
            parts.append(name + template)
            columns += cols
        else:
            slot, values = _column_slot(col, inner)
            parts.append(name + slot)
            columns += values
    return "".join(("{", inner, ("," + inner).join(parts), newline, "}")), columns


def _column_slot(col, newline: str) -> tuple[str, list[list]]:
    """The template slot of a leaf column at the depth of newline and the
    columns of values that fill it, as json_text writes them: an entry of
    a one-axis Ratios as its _RATIO_SLOT, from two columns (_ratio_pairs);
    a list of ints, of Python floats or of strings as JSON ints, quoted
    reprs or quoted strings; a Groups entry as the text of the array of
    its objects, all of whose objects fill one template; any other column
    value by value (_json_value)."""
    if isinstance(col, Groups):
        inner = newline + "  "
        template, cols = _record_template(col.records, inner)
        rows = list(map(template.__mod__, zip(*cols)))
        sep = "," + inner
        return "%s", [[
            "".join(("[", inner, sep.join(rows[a:b]), newline, "]")) if b > a else "[]"
            for a, b in zip(col.bounds, col.bounds[1:])
        ]]
    if isinstance(col, Ratios) and col.nums.ndim == 1:
        return _RATIO_SLOT, _ratio_pairs(col).T.tolist()
    kinds = set(map(type, col))
    if kinds <= {int}:
        return "%d", [col]
    if kinds == {float}:
        return '"%r"', [col]
    if kinds == {str}:
        return "%s", [list(map(_quote, col))]
    return "%s", [[_json_value(x, newline) for x in col]]
