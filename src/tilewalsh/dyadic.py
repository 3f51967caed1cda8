"""Integer-indexed dyadic intervals, tiles and bitiles on the unit interval.

Everything here is exact: intervals are (scale, position) pairs, frequency
windows are integer ranges, and all order relations reduce to integer shifts
and comparisons.  No floating point enters this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """The half-open interval [pos * 2^-k, (pos + 1) * 2^-k)."""

    k: int
    pos: int

    def __post_init__(self) -> None:
        if self.k < 0 or self.pos < 0:
            raise ValueError(f"invalid dyadic interval (k={self.k}, pos={self.pos})")

    @property
    def length(self) -> Fraction:
        return Fraction(1, 1 << self.k)

    @property
    def left(self) -> Fraction:
        return Fraction(self.pos, 1 << self.k)

    @property
    def right(self) -> Fraction:
        return Fraction(self.pos + 1, 1 << self.k)

    def contains(self, other: "DyadicInterval") -> bool:
        """True iff other is a subset of self."""
        return other.k >= self.k and (other.pos >> (other.k - self.k)) == self.pos

    def strictly_contains(self, other: "DyadicInterval") -> bool:
        return self.contains(other) and self != other

    def disjoint_from(self, other: "DyadicInterval") -> bool:
        return not (self.contains(other) or other.contains(self))

    def parent(self) -> "DyadicInterval":
        if self.k == 0:
            raise ValueError("interval at scale 0 has no parent inside [0,1)")
        return DyadicInterval(self.k - 1, self.pos >> 1)

    def halves(self) -> tuple["DyadicInterval", "DyadicInterval"]:
        return (
            DyadicInterval(self.k + 1, 2 * self.pos),
            DyadicInterval(self.k + 1, 2 * self.pos + 1),
        )

    def cells(self, levels: int) -> range:
        """Grid cell indices covered at resolution 2^levels."""
        if levels < self.k:
            raise ValueError(f"interval finer than grid: k={self.k} > L={levels}")
        width = 1 << (levels - self.k)
        return range(self.pos * width, (self.pos + 1) * width)

    def in_unit_interval(self) -> bool:
        return self.pos < (1 << self.k)


def unit_intervals(max_k: int) -> Iterator[DyadicInterval]:
    """All dyadic subintervals of [0,1) with scale exponent at most max_k."""
    for k in range(max_k + 1):
        for pos in range(1 << k):
            yield DyadicInterval(k, pos)


@dataclass(frozen=True, order=True)
class Tile:
    """Area-1 rectangle: time interval I and frequency window |I|^-1 [n, n+1)."""

    time: DyadicInterval
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"negative frequency index {self.n}")

    # Frequency endpoints n * 2^k and (n+1) * 2^k as exact integers.
    @property
    def freq_lo(self) -> int:
        return self.n << self.time.k

    @property
    def freq_hi(self) -> int:
        return (self.n + 1) << self.time.k


def _freq_superset(lo1: int, hi1: int, lo2: int, hi2: int) -> bool:
    """[lo1, hi1) contains [lo2, hi2)."""
    return lo1 <= lo2 and hi2 <= hi1


def tile_le(p: Tile, p2: Tile) -> bool:
    """Time-frequency order: I_p inside I_p2 while the frequency window widens."""
    return p2.time.contains(p.time) and _freq_superset(
        p.freq_lo, p.freq_hi, p2.freq_lo, p2.freq_hi
    )


@dataclass(frozen=True, order=True)
class Bitile:
    """Area-2 rectangle: I x |I|^-1 [2m, 2m+2), split into down- and up-tiles."""

    time: DyadicInterval
    m: int

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError(f"negative frequency pair index {self.m}")

    @property
    def down(self) -> Tile:
        return Tile(self.time, 2 * self.m)

    @property
    def up(self) -> Tile:
        return Tile(self.time, 2 * self.m + 1)

    @property
    def freq_lo(self) -> int:
        return (2 * self.m) << self.time.k

    @property
    def freq_hi(self) -> int:
        return (2 * self.m + 2) << self.time.k

    @property
    def freq_center(self) -> int:
        """Center of the frequency window; exact integer (2m+1) * 2^k."""
        return (2 * self.m + 1) << self.time.k

    def key(self) -> tuple[int, int, int]:
        """Canonical total order used for all deterministic tie-breaks."""
        return (self.time.k, self.time.pos, self.m)

    @staticmethod
    def from_key(key: tuple[int, int, int]) -> "Bitile":
        k, pos, m = key
        return Bitile(DyadicInterval(k, pos), m)

    def to_json(self) -> dict:
        return {"k": self.time.k, "pos": self.time.pos, "m": self.m}

    @staticmethod
    def from_json(obj: dict) -> "Bitile":
        return Bitile(DyadicInterval(int(obj["k"]), int(obj["pos"])), int(obj["m"]))


# The orders below compare integer indices.  With d = k_P - k_P2 >= 0 and
# I_P inside I_P2, the frequency window of P at scale k_P2 is
# [n 2^d, (n+1) 2^d) for its index n (bitile m, down-tile 2m, up-tile
# 2m+1); it contains the window of index n2 of P2 iff n2 >> d == n.

def _time_le(P: Bitile, P2: Bitile) -> int | None:
    """d = k_P - k_P2 when I_P lies inside I_P2, else None."""
    d = P.time.k - P2.time.k
    return d if d >= 0 and P.time.pos >> d == P2.time.pos else None


def bitile_le(P: Bitile, P2: Bitile) -> bool:
    d = _time_le(P, P2)
    return d is not None and P2.m >> d == P.m


def bitile_le_d(P: Bitile, P2: Bitile) -> bool:
    d = _time_le(P, P2)
    return d is not None and (2 * P2.m) >> d == 2 * P.m


def bitile_le_u(P: Bitile, P2: Bitile) -> bool:
    d = _time_le(P, P2)
    return d is not None and (2 * P2.m + 1) >> d == 2 * P.m + 1


MAX_LEVELS = 20


@dataclass(frozen=True)
class BitileUniverse:
    """All bitiles relevant at resolution 2^L, in canonical (k, pos, m) order.

    A bitile qualifies when its time interval sits inside [0,1) with
    |I| >= 2^-L and its up-tile frequency window meets [0, 2^L]; the closed
    right endpoint keeps the bitiles whose up-tiles fire exactly at the full
    cutoff N = 2^L, so that reconstruction at the top cutoff stays inside
    the universe.
    """

    L: int
    items: tuple[Bitile, ...]

    def __contains__(self, P: Bitile) -> bool:
        """The rule bitile_universe enumerates by: k <= L, pos < 2^k and
        (2m + 1) 2^k <= 2^L."""
        k, pos, m = P.key()
        return k <= self.L and pos < 1 << k and (2 * m + 1) << k <= 1 << self.L


@lru_cache(maxsize=8)
def bitile_universe(L: int) -> BitileUniverse:
    """Enumerate the finite bitile universe at resolution exponent L; one
    shared immutable instance per L."""
    if not 1 <= L <= MAX_LEVELS:
        raise ValueError(f"resolution exponent L={L} outside [1, {MAX_LEVELS}]")
    items: list[Bitile] = []
    top = 1 << L
    for k in range(L + 1):
        for pos in range(1 << k):
            m = 0
            # up-tile window [(2m+1)*2^k, (2m+2)*2^k) must meet [0, 2^L]
            while (2 * m + 1) << k <= top:
                items.append(Bitile(DyadicInterval(k, pos), m))
                m += 1
    items.sort(key=Bitile.key)
    return BitileUniverse(L, tuple(items))


def universe_size(L: int) -> int:
    """Closed-form count: scales k < L give 2^(L-1) each, k = L gives 2^L."""
    return L * (1 << (L - 1)) + (1 << L)


# A grid of depth D has a row for each scale k <= D and 2^D columns: the
# bitile (k, pos, m), m < 2^(D-k), is the cell (k, pos 2^(D-k) + m), at the
# flat code k 2^D + pos 2^(D-k) + m.  Codes sort as the keys do.

def key_arrays(keys: Sequence[tuple[int, int, int]]) -> np.ndarray:
    """The keys (k, pos, m) as the int64 arrays k, pos and m."""
    return np.fromiter(chain.from_iterable(keys), np.int64, 3 * len(keys)).reshape(-1, 3).T


def in_grid(k, pos, m, depth: int):
    """Whether the keys (k, pos, m), arrays, are cells of a grid of the
    given depth: k <= depth, the interval inside [0, 1), m < 2^(depth-k)."""
    return (k <= depth) & (pos >> k == 0) & (m >> np.maximum(depth - k, 0) == 0)


def cell_codes(k, pos, m, depth: int):
    """The flat codes of the cells (k, pos, m), integers or arrays, of a
    grid of the given depth."""
    return (k << depth) + (pos << (depth - k)) + m


def cell_keys(code, depth: int):
    """The keys (k, pos, m) of flat codes of a grid of the given depth."""
    k, col = code >> depth, code & ((1 << depth) - 1)
    return k, col >> (depth - k), col & ((1 << (depth - k)) - 1)


def cells_above(k, pos, m, d, depth: int):
    """The flat codes [lo, hi) of the cells d <= k scales above the cell
    (k, pos, m) in the tile order: the columns [m 2^d, (m + 1) 2^d) of row
    k - d in block pos >> d."""
    lo = cell_codes(k - d, pos >> d, m << d, depth)
    return lo, lo + (1 << d)


class BitileIndex:
    """The distinct bitiles of a collection in canonical order, with their
    keys as integer arrays k, pos and m: every collection of a run is a
    sorted array of positions in it."""

    def __init__(self, coll: Iterable[Bitile]) -> None:
        found = sorted({P.key(): P for P in coll}.items())
        self.keys = [key for key, _ in found]
        self.items = [P for _, P in found]
        self.k, self.pos, self.m = key_arrays(self.keys)
        # k + m.bit_length(): the least grid depth that holds the key
        self.extent = np.array([k + m.bit_length() for k, _, m in self.keys], np.int64)
        self.depth = int(self.extent.max(initial=0))
        # a tuple cannot change, so it selects every position again
        self.source = coll if isinstance(coll, tuple) else None

    @cached_property
    def code(self) -> np.ndarray:
        """The keys' flat codes in a grid of the index's depth, ascending."""
        return self.cells(np.arange(len(self.keys)), self.depth)

    def select(self, coll) -> np.ndarray:
        """The sorted positions of coll's bitiles; positions are kept.
        KeyError for a bitile not in the index."""
        if isinstance(coll, np.ndarray):
            return coll
        if coll is self.source:
            return np.arange(len(self.keys))
        k, pos, m = key_arrays([P.key() for P in coll])
        # a key past the index's grid could share a code with one inside it
        if not in_grid(k, pos, m, self.depth).all():
            raise KeyError("bitile not in the index")
        code = cell_codes(k, pos, m, self.depth)
        at = np.searchsorted(self.code, code)
        if (at == len(self.code)).any() or (self.code[at] != code).any():
            raise KeyError("bitile not in the index")
        at.sort(kind="stable")
        return at[np.diff(at, prepend=-1) != 0]

    def bitiles(self, sel: np.ndarray) -> list[Bitile]:
        return [self.items[i] for i in sel.tolist()]

    def cells(self, sel: np.ndarray, depth: int) -> np.ndarray:
        """The flat codes of the positions sel in a grid of the given depth."""
        k, pos, m = self.k[sel], self.pos[sel], self.m[sel]
        if not in_grid(k, pos, m, depth).all():
            raise ValueError("bitile outside the grid")
        return cell_codes(k, pos, m, depth)

    @cached_property
    def at_cell(self) -> np.ndarray:
        """The position of each cell of a grid of the index's depth, -1
        where the index has no bitile."""
        D = self.depth
        at = np.full((D + 1) << D, -1, np.int32)
        at[self.code] = np.arange(len(self.keys))
        return at.reshape(D + 1, 1 << D)

    def below(self, top: tuple[int, int, int]) -> np.ndarray:
        """The positions below top in the tile order, in canonical order:
        d scales down they are (k_T + d, [pos_T 2^d, (pos_T + 1) 2^d),
        m_T >> d), every 2^(D - k_T - d)-th cell of one block of a row."""
        kT, posT, mT = top
        D, at = self.depth, self.at_cell
        block = posT << (D - kT)
        found = np.concatenate([
            at[kT + d, block + (mT >> d) : block + (1 << (D - kT)) : 1 << (D - kT - d)]
            for d in range(D - kT + 1)
        ])
        return found[found >= 0]
