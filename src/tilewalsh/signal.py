"""Grid signals with vector or matrix values, pluggable norms with dual
pairings, L^q norms, the dyadic maximal function and dyadic BMO.

A signal is piecewise constant on the 2^L cells of [0,1).  It is stored
component-major: one column of 2^L entries per coordinate of the value
space, d columns for a vector and d^2 for a matrix (entries row by row).
An exact signal stores Python-int numerator columns over one positive
common denominator, made canonical (its gcd with all the numerators is 1)
so that equal signals store equal integers; its kernels (JSON, the Walsh
transform, the Carleson operators, the maximal function) read and write
those integers and make no Fraction per entry.  A signal holding any float
keeps the columns it was given, so float sums keep their bits.

`Signal.comps` (the entries as Fractions, floats as given) and
`Signal.samples` (the nested per-cell value: a length-d tuple for a
vector, d rows of d for a matrix) are read-only views, built on first use
for the norms, which need a whole value, and for the certificates.
Scalars are dimension-1 vectors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Sequence

import numpy as np

from .dyadic import DyadicInterval, unit_intervals

Number = Fraction  # canonical exact scalar; floats are accepted everywhere


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


def exact_terms(values: Sequence, scale: int = 1):
    """(terms, zero, finish) for signed sums of values divided by scale.

    When every value is a Fraction the terms are integer numerators over
    the lcm of their denominators, sums stay in integers and finish(sum)
    makes the only Fraction.  Otherwise the terms are the values and
    finish(sum) = sum / scale.
    """
    if all(isinstance(x, Fraction) for x in values):
        den = math.lcm(*(x.denominator for x in values))
        terms = [x.numerator * (den // x.denominator) for x in values]
        return terms, 0, lambda acc: Fraction(acc, den * scale)
    return list(values), Fraction(0), _divide_by(scale)


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
            return NormPlugin(name, Fraction(pstr), q)
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


def value_norm_exact(v, plugin: NormPlugin) -> Fraction | None:
    """Exact norm when available: any 1-dimensional value (all plugins agree
    on |x|), otherwise None."""
    flat = flatten_value(v)
    if len(flat) == 1 and isinstance(flat[0], Fraction):
        return abs(flat[0])
    return None


def _frobenius_like(plugin: NormPlugin) -> bool:
    """The norm of a value is the Euclidean norm of its entries."""
    return plugin.name == "euclidean" or (plugin.name == "schatten" and plugin.p == 2)


# ---------------------------------------------------------------------------
# signals

def _check_shape(L: int, d: int, kind: str, cols: Sequence[Sequence]) -> None:
    if kind not in ("vector", "matrix"):
        raise ValueError(f"unknown signal kind {kind!r}")
    width = d * d if kind == "matrix" else d
    if len(cols) != width or any(len(c) != 1 << L for c in cols):
        raise ValueError(
            f"a {d}-dimensional {kind} on 2^{L} cells needs "
            f"{width} components of {1 << L} samples, got "
            f"{len(cols)} of {sorted({len(c) for c in cols})}"
        )


def _divide_by(scale: int):
    """x -> x / scale for exact values or floats, the identity for 1."""
    if scale == 1:
        return lambda acc: acc
    weight = Fraction(1, scale)
    return lambda acc: acc * weight


@dataclass(frozen=True, eq=False, repr=False)
class Signal:
    """A function constant on each cell [j 2^-L, (j+1) 2^-L), j < 2^L.

    cols[i][j] is entry i of the value on cell j: d columns for a vector,
    d^2 for a matrix with its entries row by row.  Built as
    Signal(L, d, kind, columns of exact numbers or floats), or as
    Signal(L, d, kind, integer numerator columns, den > 0).  An exact
    signal then holds Python-int numerators over den, reduced until the gcd
    of den and all of them is 1; a signal holding a float keeps the entries
    it was given and has den None."""

    L: int
    d: int
    kind: str  # "vector" | "matrix"
    cols: tuple
    den: int | None = None

    def __post_init__(self) -> None:
        cols, den = tuple(tuple(c) for c in self.cols), self.den
        _check_shape(self.L, self.d, self.kind, cols)
        if den is not None:
            g = math.gcd(den, *(math.gcd(*c) for c in cols))
            if g > 1:
                den //= g
                cols = tuple(tuple(n // g for n in c) for c in cols)
        elif all(isinstance(x, (int, Fraction)) for c in cols for x in c):
            # reduced Fractions over the lcm of their denominators: canonical
            dens = {x.denominator for c in cols for x in c}
            den = math.lcm(*dens)
            mult = {q: den // q for q in dens}
            cols = tuple(tuple(x.numerator * mult[x.denominator] for x in c) for c in cols)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "den", den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Signal):
            return NotImplemented
        if (self.L, self.d, self.kind) != (other.L, other.d, other.kind):
            return False
        if self.den is not None and other.den is not None:
            return self.den == other.den and self.cols == other.cols
        return self.comps == other.comps

    def __hash__(self) -> int:
        return hash((self.L, self.d, self.kind, self.comps))

    def __repr__(self) -> str:
        return f"Signal(L={self.L!r}, d={self.d!r}, kind={self.kind!r}, comps={self.comps!r})"

    @property
    def cells(self) -> int:
        return 1 << self.L

    @cached_property
    def comps(self) -> tuple:
        """The entries as Fractions (floats as given), column by column."""
        if self.den is None:
            return self.cols
        den = self.den
        return tuple(tuple(Fraction(n, den) for n in c) for c in self.cols)

    @cached_property
    def samples(self) -> tuple:
        """The nested value on each cell (see nest)."""
        return tuple(nest(flat, self.d, self.kind) for flat in zip(*self.comps))

    def terms(self, scale: int = 1):
        """(columns, zero, finish), as exact_terms gives them, for kernels
        that add and subtract entries from zero and divide the sums by
        scale: the integer numerators from 0 with finish(sum) =
        Fraction(sum, den scale), or, holding a float, the entries as given
        from Fraction(0).  rebuild(sums, scale) finishes whole columns."""
        if self.den is not None:
            den = self.den * scale
            return self.cols, 0, lambda acc: Fraction(acc, den)
        return self.cols, Fraction(0), _divide_by(scale)

    def rebuild(self, sums: Sequence[Sequence], scale: int = 1) -> "Signal":
        """The signal of this shape whose columns are sums of terms()
        divided by scale: exact over den scale, with no Fraction per entry,
        when this signal is exact."""
        if self.den is not None:
            return Signal(self.L, self.d, self.kind, sums, self.den * scale)
        finish = _divide_by(scale)
        return self.with_components([[finish(x) for x in c] for c in sums])

    @staticmethod
    def scalar(values: Iterable) -> "Signal":
        col = tuple(x if isinstance(x, (Fraction, float)) else Fraction(x) for x in values)
        return Signal(len(col).bit_length() - 1, 1, "vector", (col,))

    @staticmethod
    def from_values(values: Sequence, kind: str = "vector") -> "Signal":
        vals = [_canon_value(v) for v in values]
        d = len(vals[0])
        return Signal(len(vals).bit_length() - 1, d, kind, _columns(vals, d, kind))

    def scalar_samples(self) -> list:
        if self.d != 1 or self.kind != "vector":
            raise ValueError("not a scalar signal")
        return list(self.comps[0])

    def with_components(self, comps: Sequence[Sequence]) -> "Signal":
        """A signal of the same shape with the given columns."""
        return Signal(self.L, self.d, self.kind, comps)

    def zero_like(self) -> "Signal":
        return Signal(self.L, self.d, self.kind, [[0] * self.cells for _ in self.cols], 1)

    def restrict(self, E: "LevelSet") -> "Signal":
        """The signal times the indicator of E: zero on the cells outside E."""
        keep = [j in E for j in range(self.cells)]
        cols, zero, _ = self.terms()
        return self.rebuild([[x if k else zero for x, k in zip(c, keep)] for c in cols])

    def refine(self, L2: int) -> "Signal":
        """Same function sampled on a finer grid."""
        if L2 < self.L:
            raise ValueError("refinement must not lose resolution")
        rep = 1 << (L2 - self.L)
        return Signal(L2, self.d, self.kind, [[x for x in c for _ in range(rep)] for c in self.comps])

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


def _canon_value(v):
    if isinstance(v, (list, tuple)):
        return tuple(_canon_value(x) for x in v)
    return v if isinstance(v, float) else Fraction(v)


def _columns(values: Sequence, d: int, kind: str) -> tuple:
    """Columns of nested per-cell values (tuples or lists); ValueError
    unless every value is d numbers (vector) or d rows of d numbers
    (matrix)."""

    def is_row(r) -> bool:
        return (
            isinstance(r, (tuple, list))
            and len(r) == d
            and not any(isinstance(x, (tuple, list)) for x in r)
        )

    def has_shape(v) -> bool:
        if kind == "matrix":
            return len(v) == d and all(is_row(r) for r in v)
        return is_row(v)

    for j, v in enumerate(values):
        if not has_shape(v):
            raise ValueError(f"value {j} is not a {d}-dimensional {kind}")
    if kind == "matrix":
        values = [[x for row in v for x in row] for v in values]
    return tuple(zip(*values))


def lq_norm_pow(f: Signal, q, plugin: NormPlugin) -> Fraction | None:
    """Exact q-th power of the L^q norm, when representable as a rational:
    an exact signal with integer q >= 0 whose values are 1-dimensional, or
    with q = 2 and a euclidean/schatten-2 norm; else None.  It sums integer
    powers of the numerators and makes one Fraction."""
    whole = isinstance(q, int) or (isinstance(q, Fraction) and q.denominator == 1)
    if f.den is None or not whole or q < 0:
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
    for a schatten norm on matrices larger than 1x1.  Exact entries become
    floats as n / den, which is correctly rounded like float(Fraction)."""
    if f.den is not None:
        den = f.den
        cols = [[n / den for n in c] for c in f.cols]
    else:
        cols = [[float(x) for x in c] for c in f.cols]
    if plugin.name == "schatten" and f.kind == "matrix" and f.d > 1:
        stack = np.array(cols, dtype=float).T.reshape(f.cells, f.d, f.d)
        p = float(plugin.p)
        return [
            sum(s**p for s in row) ** (1.0 / p)
            for row in np.linalg.svd(stack, compute_uv=False)
        ]
    return [value_norm(nest(flat, f.d, f.kind), plugin) for flat in zip(*cols)]


def cell_norms(f: Signal, plugin: NormPlugin) -> list:
    """Per-cell norms; exact Fractions for 1-dimensional values, else floats."""
    out = []
    for v in f.samples:
        e = value_norm_exact(v, plugin)
        out.append(e if e is not None else value_norm(v, plugin))
    return out


def maximal_function(f: Signal, plugin: NormPlugin) -> Signal:
    """Dyadic maximal function of |f|: per cell, the largest average of the
    pointwise norm over dyadic intervals inside [0,1) containing the cell.

    Averages are taken pairwise bottom-up, then each cell keeps the first
    largest of its own norm and its ancestors' averages, fine to coarse:
    O(2^L).  An exact signal with one coordinate, whose norm is |x| under
    every plugin, is averaged in integers over den 2^L; otherwise the cell
    norms are those of cell_norms."""
    exact = f.den is not None and len(f.cols) == 1
    if exact:
        # |n| 2^L over den 2^L; a block of 2^t cells averages to a multiple
        # of 2^(L-t), so halving a pair's sum stays exact
        level = [abs(n) << f.L for n in f.cols[0]]
        halve = lambda a, b: (a + b) >> 1
    else:
        level = cell_norms(f, plugin)
        half = Fraction(1, 2)
        halve = lambda a, b: (a + b) * half
    levels = [level]
    while len(level) > 1:
        level = [halve(a, b) for a, b in zip(level[::2], level[1::2])]
        levels.append(level)
    best = level
    for avgs in reversed(levels[:-1]):
        best = [b if b > a else a for a, b in zip(avgs, (b for b in best for _ in (0, 1)))]
    if exact:
        return Signal(f.L, 1, "vector", [best], f.den << f.L)
    return Signal(f.L, 1, "vector", (best,))


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
        mask = 0
        for j in cells:
            if not 0 <= j < (1 << L):
                raise ValueError(f"cell index {j} out of range")
            mask |= 1 << j
        return LevelSet(L, mask)

    @staticmethod
    def full(L: int) -> "LevelSet":
        return LevelSet(L, (1 << (1 << L)) - 1)

    @staticmethod
    def empty(L: int) -> "LevelSet":
        return LevelSet(L, 0)

    def __contains__(self, cell: int) -> bool:
        return bool((self.mask >> cell) & 1)

    def cells(self) -> list[int]:
        return [j for j in range(1 << self.L) if (self.mask >> j) & 1]

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
        return Signal(self.L, 1, "vector", [[(self.mask >> j) & 1 for j in range(1 << self.L)]], 1)


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


def num_from_json(s) -> Fraction | float:
    """Inverse of num_to_json; JSON numbers and bare integers pass too."""
    if isinstance(s, (int, float)):
        return Fraction(s) if isinstance(s, int) else float(s)
    text = str(s)
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return Fraction(int(text))


def _exact_numbers(entries: Sequence):
    """(numerators, den) of JSON numbers ("n/d" or integer strings, JSON
    integers) over their least common denominator, or None when any entry
    is a float."""
    nums, dens = [], []
    for s in entries:
        if type(s) is str:
            n, slash, q = s.partition("/")
            if slash and int(q) > 0:
                nums.append(int(n))
                dens.append(int(q))
                continue
        # JSON numbers, integer and float strings, signed or zero denominators
        x = num_from_json(s)
        if isinstance(x, float):
            return None
        nums.append(x.numerator)
        dens.append(x.denominator)
    distinct = set(dens)
    den = math.lcm(*distinct)
    if len(distinct) > 1:
        mult = {q: den // q for q in distinct}
        nums = [n * mult[q] for n, q in zip(nums, dens)]
    return nums, den


def columns_to_json(f: Signal) -> list[list[str]]:
    """Each column's entries in the one number encoding (num_to_json); an
    exact entry n / den is reduced by gcd(n, den)."""
    if f.den is None:
        return [[num_to_json(x) for x in c] for c in f.cols]
    den = f.den
    out = []
    for c in f.cols:
        row = []
        for n in c:
            g = math.gcd(n, den)
            row.append(f"{n // g}/{den // g}")
        out.append(row)
    return out


def columns_from_json(L: int, d: int, kind: str, columns: Sequence[Sequence]) -> Signal:
    """Inverse of columns_to_json: integer columns over one denominator
    unless some entry is a float, when the signal keeps the parsed entries."""
    cols = [list(c) for c in columns]
    _check_shape(L, d, kind, cols)
    parsed = _exact_numbers([x for c in cols for x in c])
    if parsed is None:
        return Signal(L, d, kind, [[num_from_json(x) for x in c] for c in cols])
    nums, den = parsed
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
    cols = columns_to_json(f)
    if f.kind == "matrix":
        d = f.d
        values = [[list(v[r * d : (r + 1) * d]) for r in range(d)] for v in zip(*cols)]
    else:
        values = [list(v) for v in zip(*cols)]
    return {"levels": f.L, "dim": f.d, "kind": f.kind, "values": values}


def signal_from_json(obj: dict) -> Signal:
    L = json_int(obj["levels"], "levels")
    d = json_int(obj["dim"], "dim")
    kind = obj["kind"]
    values = [v if isinstance(v, list) else [v] for v in obj["values"]]
    return columns_from_json(L, d, kind, _columns(values, d, kind))


def levelset_to_json(E: LevelSet) -> dict:
    return {"levels": E.L, "cells": E.cells()}


def levelset_from_json(obj: dict) -> LevelSet:
    L = json_int(obj["levels"], "levels")
    if "cells" in obj:
        return LevelSet.from_cells(L, json_ints(obj["cells"], "cells"))
    bits = str(obj["bits"])
    if len(bits) != 1 << L:
        raise ValueError("bitstring length must equal the cell count")
    return LevelSet.from_cells(L, (j for j, b in enumerate(bits) if b == "1"))


def nfun_to_json(N: FrequencyChoice) -> dict:
    return {"levels": N.L, "N": list(N.values)}


def nfun_from_json(obj: dict) -> FrequencyChoice:
    return FrequencyChoice(json_int(obj["levels"], "levels"), tuple(json_ints(obj["N"], "N")))


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def dump_json(obj: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(json_text(obj) + "\n")


def json_text(obj) -> str:
    """obj as JSON with a two-space indent and sorted keys.

    Strings, ints, bools and None are written as JSON; Fractions and floats
    (numpy's float64 too) as the quoted num_to_json string; lists and
    tuples as arrays; dicts, whose keys must be strings, with their keys
    sorted; any other object as what its to_json() returns.  Anything else,
    a key that is no string included, raises TypeError.

    One call per container: strings are quoted with the C-level
    encode_basestring_ascii and the pieces joined with str.join; a list of
    plain strings is one join."""
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
        parts = []
        for k, v in sorted(o.items()):
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {k.__class__.__name__}")
            parts.append(_quote(k) + ": " + _json_value(v, inner))
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = newline + "  "
        sep = "," + inner
        if type(o[0]) is str:
            try:
                # _quote takes str (and its subclasses) only
                return "[" + inner + sep.join(map(_quote, o)) + newline + "]"
            except TypeError:
                pass
        return "[" + inner + sep.join([_json_value(x, inner) for x in o]) + newline + "]"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, (Fraction, float)):
        return _quote(num_to_json(o))
    to_json = getattr(o, "to_json", None)
    if to_json is None:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    return _json_value(to_json(), newline)
