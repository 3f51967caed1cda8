"""Grid signals with vector or matrix values, pluggable norms with dual
pairings, L^q norms, the dyadic maximal function and dyadic BMO.

A signal is piecewise constant on the 2^L cells of [0,1).  It is stored
component-major: one column of 2^L Fractions (or floats) per coordinate of
the value space, d columns for a vector and d^2 for a matrix (entries row
by row).  Every operator acts on the columns.  The nested per-cell view
(`Signal.samples`: a length-d tuple for a vector, d rows of d for a
matrix) exists for the norms, which need a whole value, and for JSON.
Scalars are dimension-1 vectors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    if scale == 1:
        return list(values), Fraction(0), lambda acc: acc
    weight = Fraction(1, scale)
    return list(values), Fraction(0), lambda acc: acc * weight


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
        if self.q < 2:
            raise ValueError(f"tile-type exponent q={self.q} must be >= 2")

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
    on |x|), otherwise None.  Even powers are handled by value_norm_pow."""
    flat = flatten_value(v)
    if len(flat) == 1 and isinstance(flat[0], Fraction):
        return abs(flat[0])
    return None


def value_norm_pow(v, plugin: NormPlugin, q) -> Fraction | None:
    """Exact q-th power of the norm when representable as a rational:
    1-dimensional values with integer q, or euclidean/schatten-2 with q = 2."""
    if not (isinstance(q, int) or (isinstance(q, Fraction) and q.denominator == 1)):
        return None
    qi = int(q)
    flat = flatten_value(v)
    if any(not isinstance(x, Fraction) for x in flat):
        return None
    if len(flat) == 1:
        return abs(flat[0]) ** qi
    frobenius_like = plugin.name == "euclidean" or (
        plugin.name == "schatten" and plugin.p == 2
    )
    if frobenius_like and qi == 2:
        acc = Fraction(0)
        for x in flat:
            acc += x * x
        return acc
    return None


# ---------------------------------------------------------------------------
# signals

@dataclass(frozen=True)
class Signal:
    """A function constant on each cell [j 2^-L, (j+1) 2^-L), j < 2^L.

    comps[i][j] is entry i of the value on cell j: d columns for a vector,
    d^2 for a matrix with its entries row by row."""

    L: int
    d: int
    kind: str  # "vector" | "matrix"
    comps: tuple

    def __post_init__(self) -> None:
        if self.kind not in ("vector", "matrix"):
            raise ValueError(f"unknown signal kind {self.kind!r}")
        width = self.d * self.d if self.kind == "matrix" else self.d
        comps = tuple(tuple(c) for c in self.comps)
        if len(comps) != width or any(len(c) != 1 << self.L for c in comps):
            raise ValueError(
                f"a {self.d}-dimensional {self.kind} on 2^{self.L} cells needs "
                f"{width} components of {1 << self.L} samples, got "
                f"{len(comps)} of {sorted({len(c) for c in comps})}"
            )
        object.__setattr__(self, "comps", comps)

    @property
    def cells(self) -> int:
        return 1 << self.L

    @cached_property
    def samples(self) -> tuple:
        """The nested value on each cell (see nest)."""
        return tuple(nest(flat, self.d, self.kind) for flat in zip(*self.comps))

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
        return self.with_components([(Fraction(0),) * self.cells for _ in self.comps])

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


def _columns(values: Sequence[tuple], d: int, kind: str) -> tuple:
    """Columns of nested per-cell values; ValueError unless every value is
    d numbers (vector) or d rows of d numbers (matrix)."""

    def is_row(r) -> bool:
        return isinstance(r, tuple) and len(r) == d and not any(isinstance(x, tuple) for x in r)

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
    """Exact q-th power of the L^q norm, when representable; else None."""
    acc = Fraction(0)
    for v in f.samples:
        nv = value_norm_pow(v, plugin, q)
        if nv is None:
            return None
        acc += nv
    return acc * Fraction(1, f.cells)

def lq_norm(f: Signal, q, plugin: NormPlugin) -> float:
    """(2^-L sum_j |f_j|^q)^(1/q); q may be math.inf for the sup norm."""
    if q == math.inf:
        return max(value_norm(v, plugin) for v in f.samples)
    exact = lq_norm_pow(f, q, plugin)
    if exact is not None:
        return float(exact) ** (1.0 / float(q))
    qf = float(q)
    total = sum(value_norm(v, plugin) ** qf for v in f.samples)
    return (total / f.cells) ** (1.0 / qf)


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

    Bottom-up in O(L 2^L); exact when the cell norms are exact.
    """
    norms = cell_norms(f, plugin)
    best = list(norms)
    level = norms
    size = len(norms)
    half = Fraction(1, 2)
    while size > 1:
        nxt = []
        for i in range(size // 2):
            avg = (level[2 * i] + level[2 * i + 1]) * half
            nxt.append(avg)
        width = len(norms) // len(nxt)
        for i, avg in enumerate(nxt):
            for j in range(i * width, (i + 1) * width):
                if avg > best[j]:
                    best[j] = avg
        level = nxt
        size //= 2
    return Signal(f.L, 1, "vector", (tuple(best),))


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
        return Signal.scalar(
            [Fraction(1) if j in self else Fraction(0) for j in range(1 << self.L)]
        )


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
    if isinstance(x, (Fraction, int)):
        x = Fraction(x)
        return f"{x.numerator}/{x.denominator}"
    return repr(float(x))


def num_from_json(s) -> Fraction | float:
    """Inverse of num_to_json; JSON numbers and bare integers pass too."""
    if isinstance(s, (int, float)):
        return Fraction(s) if isinstance(s, int) else float(s)
    text = str(s)
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return Fraction(int(text))


def _value_to_json(v):
    if isinstance(v, tuple):
        return [_value_to_json(x) for x in v]
    return num_to_json(v)


def _value_from_json(v):
    if isinstance(v, list):
        return tuple(_value_from_json(x) for x in v)
    return num_from_json(v)


def signal_to_json(f: Signal) -> dict:
    return {
        "levels": f.L,
        "dim": f.d,
        "kind": f.kind,
        "values": [_value_to_json(v) for v in f.samples],
    }


def signal_from_json(obj: dict) -> Signal:
    L = int(obj["levels"])
    d = int(obj["dim"])
    kind = obj["kind"]
    values = [_value_from_json(v) for v in obj["values"]]
    values = [v if isinstance(v, tuple) else (v,) for v in values]
    return Signal(L, d, kind, _columns(values, d, kind))


def levelset_to_json(E: LevelSet) -> dict:
    return {"levels": E.L, "cells": E.cells()}


def levelset_from_json(obj: dict) -> LevelSet:
    L = int(obj["levels"])
    if "cells" in obj:
        return LevelSet.from_cells(L, (int(j) for j in obj["cells"]))
    bits = str(obj["bits"])
    if len(bits) != 1 << L:
        raise ValueError("bitstring length must equal the cell count")
    return LevelSet.from_cells(L, (j for j, b in enumerate(bits) if b == "1"))


def nfun_to_json(N: FrequencyChoice) -> dict:
    return {"levels": N.L, "N": list(N.values)}


def nfun_from_json(obj: dict) -> FrequencyChoice:
    return FrequencyChoice(int(obj["levels"]), tuple(int(n) for n in obj["N"]))


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def dump_json(obj: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
