"""Deterministic pseudo-random instance generation.

All randomness flows through a splitmix64 stream so that instances are
reproducible bit-for-bit from a seed, independently of Python's hash
randomization or platform.  Signal values are rationals with denominator
2^16.

splitmix64 is counter-based: output i of a stream at state s is
mix(s + i gamma) modulo 2^64.  So a block of draws is one wrapping uint64
array expression (SplitMix64.below_each), and it gives the same values,
and leaves the same state, as the same draws made one at a time with
next_u64 and below.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, lcm

import numpy as np

from .dyadic import Bitile, bitile_universe
from .signal import FrequencyChoice, LevelSet, NormPlugin, Signal, value_norms

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
VALUE_DENOM_BITS = 16


class SplitMix64:
    """splitmix64: 64-bit state advanced by the golden-gamma increment."""

    def __init__(self, seed: int) -> None:
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, for n in [1, 2^64): the
        rule rejects every draw of a larger bound."""
        if not 0 < n <= MASK64:
            raise ValueError("bounds must lie in [1, 2^64)")
        limit = MASK64 - (MASK64 % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def below_each(self, bounds) -> np.ndarray:
        """below(n) for each bound n in turn, as a uint64 array, drawn in
        blocks.  A block draws one output per bound left and accepts the
        prefix before its first rejected draw x >= limit; that draw is
        consumed, and the next block starts at the bound it rejected."""
        try:
            bounds = np.asarray(bounds, np.uint64).reshape(-1)
        except OverflowError:
            raise ValueError("bounds must lie in [1, 2^64)") from None
        if not bounds.all():
            raise ValueError("bounds must lie in [1, 2^64)")
        limits = MASK64 - np.uint64(MASK64) % bounds
        out = np.empty_like(bounds)
        done = 0
        while done < len(bounds):
            z = np.arange(1, len(bounds) - done + 1, dtype=np.uint64) * GAMMA + np.uint64(self.state)
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB
            z ^= z >> 31
            rejected = np.flatnonzero(z >= limits[done:])
            take = int(rejected[0]) if len(rejected) else len(z)
            out[done : done + take] = z[:take] % bounds[done : done + take]
            used = take + 1 if len(rejected) else take
            self.state = (self.state + used * GAMMA) & MASK64
            done += take
        return out

    def shuffle(self, items: list) -> None:
        """Fisher-Yates from the last position down, item i swapped with
        item below(i + 1)."""
        picks = self.below_each(range(len(items), 1, -1)).tolist()
        for i, j in zip(range(len(items) - 1, 0, -1), picks):
            items[i], items[j] = items[j], items[i]


def gen_signal(L: int, d: int, kind: str, rng: SplitMix64) -> Signal:
    """Uniform rationals in [-1, 1) with denominator 2^16, drawn cell by
    cell, each value's entries in column order (a matrix row by row)."""
    width = d * d if kind == "matrix" else d
    top = 1 << VALUE_DENOM_BITS
    draws = rng.below_each(np.full(width << L, 2 * top, np.uint64)).astype(np.int64) - top
    return Signal(L, d, kind, draws.reshape(1 << L, width).T.tolist(), top)


def gen_dual_function(
    L: int, d: int, kind: str, plugin: NormPlugin, rng: SplitMix64
) -> Signal:
    """Random signal scaled cellwise so the pointwise dual norm is <= 1.

    The scale is the rational 1/ceil(norm) so values stay exact: cell j
    is divided by s_j, so its numerators are multiplied by lcm(s) / s_j
    over the denominator times lcm(s).
    """
    raw = gen_signal(L, d, kind, rng)
    divisors = [max(1, ceil(x * (1 + 1e-12))) for x in value_norms(raw, plugin.dual())]
    common = lcm(*set(divisors))
    mult = [common // s for s in divisors]
    cols = [[n * m for n, m in zip(c, mult)] for c in raw.cols]
    return Signal(L, d, kind, cols, raw.den * common)


def gen_levelset(L: int, measure, rng: SplitMix64) -> LevelSet:
    """Cell union with popcount floor(measure * 2^L), cells chosen by a
    seeded shuffle."""
    cells = list(range(1 << L))
    rng.shuffle(cells)
    count = int(Fraction(measure) * (1 << L))
    return LevelSet.from_cells(L, cells[:count])


def gen_nfun(L: int, rng: SplitMix64) -> FrequencyChoice:
    """Uniform cutoffs over the closed range [0, 2^L]."""
    draws = rng.below_each(np.full(1 << L, (1 << L) + 1, np.uint64))
    return FrequencyChoice(L, tuple(draws.tolist()))


def gen_collection(L: int, count: int, rng: SplitMix64) -> list[Bitile]:
    """Random subset of the bitile universe, canonical order, no repeats."""
    items = list(bitile_universe(L).items)
    rng.shuffle(items)
    picked = items[: min(count, len(items))]
    picked.sort(key=Bitile.key)
    return picked


def gen_up_tree_members(L: int, top: Bitile, count: int, rng: SplitMix64) -> list[Bitile]:
    """Random members below `top` in the up-tile order, drawn from the
    universe at resolution L."""
    from .dyadic import bitile_le_u

    pool = [P for P in bitile_universe(L).items if bitile_le_u(P, top)]
    rng.shuffle(pool)
    picked = pool[: min(count, len(pool))]
    picked.sort(key=Bitile.key)
    return picked


def gen_tree_family(L: int, rng: SplitMix64, members_per_tree: int = 6):
    """Random family of up-trees over a random dyadic partition of [0,1).

    Tops sit on pairwise disjoint time intervals, and members of a single
    up-tree automatically have pairwise disjoint down-tiles, so the family
    is always admissible for tile-type estimation.  Members at the finest
    scale are excluded so every Haar pattern stays grid-constant.
    """
    from .dyadic import DyadicInterval
    from .timefreq import Tree, TreeFamily

    parts: list[DyadicInterval] = []

    def split(I: DyadicInterval) -> None:
        if I.k < L - 1 and rng.below(2) == 0:
            left, right = I.halves()
            split(left)
            split(right)
        else:
            parts.append(I)

    split(DyadicInterval(0, 0))
    trees = []
    for I in parts:
        m_count = 1 << (L - I.k - 1) if I.k < L else 1
        top = Bitile(I, rng.below(m_count))
        members = [
            P
            for P in gen_up_tree_members(L, top, members_per_tree, rng)
            if P.time.k < L
        ]
        if members:
            trees.append(Tree.build(top, members))
    return TreeFamily(tuple(trees))
