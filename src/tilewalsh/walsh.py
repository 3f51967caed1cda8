"""Rademacher, Walsh and Haar evaluation on the dyadic grid, wave packets,
and the fast Walsh-Hadamard transform in Walsh-Paley ordering.

All +-1 sign patterns are exact integers.  The only irrational scale that
ever appears is |I|^(-1/2), the L2 normalization of a packet; it is kept
as a power of sqrt(2) (WavePacket.half_exp) next to the exact pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .dyadic import DyadicInterval, Tile
from .signal import exact_terms


def bit_reverse(x: int, bits: int) -> int:
    r = 0
    for _ in range(bits):
        r = (r << 1) | (x & 1)
        x >>= 1
    return r


def rademacher(i: int, cell: int, L: int) -> int:
    """Value of the square wave of frequency 2^i on grid cell `cell`.

    Constant on cells only when i <= L-1; +1 on the left half of each
    period, -1 on the right half.
    """
    if not 0 <= i < L:
        raise ValueError(f"rademacher index i={i} not constant on 2^-{L} cells")
    if not 0 <= cell < (1 << L):
        raise ValueError(f"cell {cell} outside grid of 2^{L} cells")
    return -1 if (cell >> (L - 1 - i)) & 1 else 1


def walsh_value(n: int, cell: int, L: int) -> int:
    """w_n on one cell: product of Rademacher signs over the set bits of n."""
    if not 0 <= n < (1 << L):
        raise ValueError(f"walsh index n={n} outside [0, 2^{L})")
    return -1 if (n & bit_reverse(cell, L)).bit_count() & 1 else 1


@lru_cache(maxsize=4096)
def walsh(n: int, L: int) -> tuple[int, ...]:
    """Sample vector of the Walsh function w_n on the 2^L grid (Paley order)."""
    if not 0 <= n < (1 << L):
        raise ValueError(f"walsh index n={n} outside [0, 2^{L})")
    return tuple(walsh_value(n, j, L) for j in range(1 << L))


@lru_cache(maxsize=32)
def bit_reversal(L: int) -> tuple[int, ...]:
    """bit_reverse(j, L) for every cell j of the 2^L grid."""
    rev = [0] * (1 << L)
    for j in range(1, 1 << L):
        rev[j] = (rev[j >> 1] >> 1) | ((j & 1) << (L - 1))
    return tuple(rev)


def packet_table(terms: Sequence[int], L: int) -> list[list[int]]:
    """Walsh wave-packet table of one grid component (Coifman and
    Wickerhauser, "Entropy-based algorithms for best basis selection",
    IEEE Trans. IT 1992).

    With l = L - k, rows[k][pos * 2^l + n] is the signed sum of the terms
    over the 2^l cells of the dyadic interval (k, pos) against w_n on l
    levels.  rows[L] holds the terms; a coarser row pairs the two halves
    of each interval, splitting n = 2a + b:

        rows[k][pos 2^l + 2a + b] = rows[k+1][2pos 2^(l-1) + a]
                                    +- rows[k+1][(2pos+1) 2^(l-1) + a],

    + for b = 0 and - for b = 1.  O(L 2^L) additions, exact on Python ints.
    """
    row = list(terms)
    size = len(row)
    rows = [row]
    for k in range(L - 1, -1, -1):
        half = 1 << (L - k - 1)
        width = 2 * half
        nxt = [0] * size
        # walk whichever is shorter: offsets inside a block, or blocks
        if half <= size // width:
            for a in range(half):
                left, right = row[a::width], row[a + half :: width]
                nxt[2 * a :: width] = [x + y for x, y in zip(left, right)]
                nxt[2 * a + 1 :: width] = [x - y for x, y in zip(left, right)]
        else:
            for start in range(0, size, width):
                left, right = row[start : start + half], row[start + half : start + width]
                nxt[start : start + width : 2] = [x + y for x, y in zip(left, right)]
                nxt[start + 1 : start + width : 2] = [x - y for x, y in zip(left, right)]
        rows.append(nxt)
        row = nxt
    rows.reverse()
    return rows


class _CellOrderRow:
    """One row of packet sums for non-integer terms, each entry summed on
    demand from `zero`, cell by cell in ascending order, and memoized.  A
    float sum depends on its order, so every entry adds its samples in cell
    order whichever kernel reads it."""

    def __init__(self, terms: Sequence, zero, levels: int) -> None:
        self.terms, self.zero, self.levels = terms, zero, levels
        self.memo: dict[int, object] = {}

    def __getitem__(self, idx: int):
        acc = self.memo.get(idx)
        if acc is None:
            l = self.levels
            base, n = idx >> l << l, idx & ((1 << l) - 1)
            terms = self.terms
            acc = self.zero
            for jl, s in enumerate(walsh(n, l) if l else (1,)):
                acc = acc + terms[base + jl] if s > 0 else acc - terms[base + jl]
            self.memo[idx] = acc
        return acc


def packet_rows(terms: Sequence, zero, L: int):
    """Rows indexed like packet_table: the table itself for Python-int
    terms (see signal.exact_terms), otherwise rows that sum in cell order
    on demand (see _CellOrderRow)."""
    if all(type(x) is int for x in terms):
        return packet_table(terms, L)
    return [_CellOrderRow(terms, zero, L - k) for k in range(L + 1)]


@dataclass(frozen=True)
class WavePacket:
    """Walsh function rescaled to a tile's time interval, zero elsewhere.

    `pattern` holds the exact {-1, 0, +1} samples of the L-infinity
    normalized packet on the full grid; the L2-normalized packet multiplies
    it by 2^(k/2) where 2^-k is the time interval length.
    """

    tile: Tile
    L: int
    mode: str  # "inf" | "l2"
    pattern: tuple[int, ...]

    @property
    def half_exp(self) -> int:
        """L2 normalization as a power of sqrt(2): values = pattern * 2^(k/2)."""
        return self.tile.time.k if self.mode == "l2" else 0


def wave_packet_pattern(P: Tile, L: int) -> tuple[int, ...]:
    """Exact sign pattern of the L-infinity normalized packet of tile P."""
    I = P.time
    if I.k > L:
        raise ValueError(f"tile time interval finer than grid: k={I.k} > L={L}")
    if not I.in_unit_interval():
        raise ValueError("tile time interval outside [0,1)")
    local_levels = L - I.k
    if P.n != 0 and P.n >= (1 << local_levels):
        raise ValueError(
            f"frequency index n={P.n} beyond grid resolution for |I|=2^-{I.k} at L={L}"
        )
    out = [0] * (1 << L)
    base = I.pos << local_levels
    if local_levels == 0:
        out[base] = 1  # single-cell tile, necessarily n = 0
    else:
        for j in range(1 << local_levels):
            out[base + j] = walsh_value(P.n, j, local_levels)
    return tuple(out)


def wave_packet(P: Tile, L: int, mode: str = "inf") -> WavePacket:
    if mode not in ("inf", "l2"):
        raise ValueError(f"unknown normalization mode {mode!r}")
    return WavePacket(P, L, mode, wave_packet_pattern(P, L))


def haar_pattern(I: DyadicInterval, L: int) -> tuple[int, ...]:
    """L-infinity normalized Haar pattern: +1 on the left half, -1 on the right."""
    return wave_packet_pattern(Tile(I, 1), L)


def fwht(samples: Sequence, normalize: bool = True) -> list:
    """Walsh coefficients of a sample vector, in Walsh-Paley order.

    coefficient[n] = 2^-L sum_j samples[j] * w_n(cell j), computed by an
    in-place butterfly after a bit-reversal permutation; exact for rational
    input.  With normalize=False the 2^-L weight is skipped.
    """
    size = len(samples)
    if size == 0 or size & (size - 1):
        raise ValueError(f"sample count {size} is not a power of two")
    L = size.bit_length() - 1
    terms, _, finish = exact_terms(samples, size if normalize else 1)
    buf = [terms[r] for r in bit_reversal(L)]
    _butterflies(buf)
    return [finish(x) for x in buf]


def ifwht(coefficients: Sequence) -> list:
    """Inverse of fwht: samples[j] = sum_n coefficient[n] * w_n(cell j)."""
    size = len(coefficients)
    if size == 0 or size & (size - 1):
        raise ValueError(f"coefficient count {size} is not a power of two")
    L = size.bit_length() - 1
    buf, _, finish = exact_terms(coefficients)
    _butterflies(buf)
    return [finish(buf[r]) for r in bit_reversal(L)]


def _butterflies(buf: list) -> None:
    """Unnormalized Walsh-Hadamard butterflies on a power-of-two list, in
    place: (a, b) -> (a + b, a - b) at spans 1, 2, 4, ..."""
    size = len(buf)
    h = 1
    while h < size:
        for start in range(0, size, 2 * h):
            for j in range(start, start + h):
                a, b = buf[j], buf[j + h]
                buf[j], buf[j + h] = a + b, a - b
        h *= 2

