"""Grid signals with vector or matrix values, pluggable norms with dual
pairings, L^q norms, the dyadic maximal function and dyadic BMO.

A signal is piecewise constant on the 2^L cells of [0,1).  Values are
nested tuples of Fractions (or floats): a length-d tuple for vectors, a
d x d tuple-of-tuples for matrices.  Scalars are dimension-1 vectors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .dyadic import DyadicInterval, unit_intervals

Number = Fraction  # canonical exact scalar; floats are accepted everywhere


# ---------------------------------------------------------------------------
# value helpers (nested tuples)

def value_add(a, b):
    if isinstance(a, tuple):
        return tuple(value_add(x, y) for x, y in zip(a, b))
    return a + b


def value_sub(a, b):
    if isinstance(a, tuple):
        return tuple(value_sub(x, y) for x, y in zip(a, b))
    return a - b


def value_scale(a, c):
    if isinstance(a, tuple):
        return tuple(value_scale(x, c) for x in a)
    return a * c


def value_zero(d: int, kind: str):
    if kind == "matrix":
        return tuple(tuple(Fraction(0) for _ in range(d)) for _ in range(d))
    return tuple(Fraction(0) for _ in range(d))


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
    """Duality: dot product for vectors, trace pairing tr(A^T B) for matrices."""
    fa, fb = flatten_value(a), flatten_value(b)
    if len(fa) != len(fb):
        raise ValueError("shape mismatch in dual pairing")
    acc = Fraction(0)
    for x, y in zip(fa, fb):
        acc = acc + x * y
    return acc


# ---------------------------------------------------------------------------
# norms

FLOAT_RTOL = 1e-9


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
    """A function constant on each cell [j 2^-L, (j+1) 2^-L), j < 2^L."""

    L: int
    d: int
    kind: str  # "vector" | "matrix"
    samples: tuple

    def __post_init__(self) -> None:
        if self.kind not in ("vector", "matrix"):
            raise ValueError(f"unknown signal kind {self.kind!r}")
        if len(self.samples) != 1 << self.L:
            raise ValueError(
                f"expected 2^{self.L} samples, got {len(self.samples)}"
            )

    @property
    def cells(self) -> int:
        return 1 << self.L

    @staticmethod
    def scalar(values: Iterable) -> "Signal":
        vals = tuple(
            (x if isinstance(x, (Fraction, float)) else Fraction(x),) for x in values
        )
        L = len(vals).bit_length() - 1
        return Signal(L, 1, "vector", vals)

    @staticmethod
    def from_values(values: Sequence, kind: str = "vector") -> "Signal":
        vals = tuple(_canon_value(v) for v in values)
        L = len(vals).bit_length() - 1
        first = vals[0]
        d = len(first)
        return Signal(L, d, kind, vals)

    def scalar_samples(self) -> list:
        if self.d != 1 or self.kind != "vector":
            raise ValueError("not a scalar signal")
        return [v[0] for v in self.samples]

    def components(self) -> list[list]:
        """Flatten each value; returns one sample list per component."""
        flat0 = flatten_value(self.samples[0])
        comps = [[None] * self.cells for _ in flat0]
        for j, v in enumerate(self.samples):
            for i, x in enumerate(flatten_value(v)):
                comps[i][j] = x
        return comps

    def with_components(self, comps: Sequence[Sequence]) -> "Signal":
        """Rebuild a signal of the same shape from flattened components."""
        vals = []
        for j in range(self.cells):
            flat = [c[j] for c in comps]
            vals.append(_reshape_like(self.samples[0], iter(flat)))
        return Signal(self.L, self.d, self.kind, tuple(vals))

    def zero_like(self) -> "Signal":
        z = value_zero(self.d, self.kind)
        return Signal(self.L, self.d, self.kind, tuple(z for _ in range(self.cells)))

    def refine(self, L2: int) -> "Signal":
        """Same function sampled on a finer grid."""
        if L2 < self.L:
            raise ValueError("refinement must not lose resolution")
        rep = 1 << (L2 - self.L)
        vals = tuple(v for v in self.samples for _ in range(rep))
        return Signal(L2, self.d, self.kind, vals)

    def average(self, I: DyadicInterval | None = None):
        """Mean value over a dyadic interval (default: all of [0,1))."""
        if I is None:
            I = DyadicInterval(0, 0)
        cells = I.cells(self.L)
        acc = value_zero(self.d, self.kind)
        for j in cells:
            acc = value_add(acc, self.samples[j])
        return value_scale(acc, Fraction(1, len(cells)))


def _canon_value(v):
    if isinstance(v, (list, tuple)):
        return tuple(_canon_value(x) for x in v)
    return v if isinstance(v, float) else Fraction(v)


def _reshape_like(template, flat_iter):
    if isinstance(template, tuple):
        return tuple(_reshape_like(t, flat_iter) for t in template)
    return next(flat_iter)


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
    return Signal(f.L, 1, "vector", tuple((x,) for x in best))


def bmo_norm(f: Signal, plugin: NormPlugin) -> float:
    """Dyadic BMO with L^1 mean oscillation:
    max over dyadic K of (1/|K|) int_K |f - avg_K f|."""
    worst = 0.0
    for K in unit_intervals(f.L):
        cells = K.cells(f.L)
        mean = f.average(K)
        osc = 0.0
        for j in cells:
            osc += value_norm(value_sub(f.samples[j], mean), plugin)
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

def _num_to_json(x) -> str:
    if isinstance(x, (Fraction, int)):
        x = Fraction(x)
        return f"{x.numerator}/{x.denominator}"
    return repr(float(x))


def _num_from_json(s) -> Fraction | float:
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
    return _num_to_json(v)


def _value_from_json(v):
    if isinstance(v, list):
        return tuple(_value_from_json(x) for x in v)
    return _num_from_json(v)


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
    values = tuple(_value_from_json(v) for v in obj["values"])
    values = tuple(v if isinstance(v, tuple) else (v,) for v in values)
    for j, v in enumerate(values):
        if not _has_shape(v, d, kind):
            raise ValueError(f"value {j} is not a {d}-dimensional {kind}")
    return Signal(L, d, kind, values)


def _has_shape(v: tuple, d: int, kind: str) -> bool:
    """v is d numbers (vector) or d rows of d numbers (matrix)."""

    def is_row(r) -> bool:
        return isinstance(r, tuple) and len(r) == d and not any(
            isinstance(x, tuple) for x in r
        )

    if kind == "matrix":
        return len(v) == d and all(is_row(r) for r in v)
    return is_row(v)


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
