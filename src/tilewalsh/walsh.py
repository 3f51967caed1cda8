"""Rademacher and Walsh evaluation on the dyadic grid, the Walsh
wave-packet table with its synthesis, the bitiles a cutoff lands in, and
the fast Walsh-Hadamard transform in Walsh-Paley ordering.

All +-1 sign patterns are exact integers.  A packet of the dyadic interval
(k, pos) with frequency index n is w_n on the 2^(L-k) cells of the
interval, zero elsewhere; the Haar pattern of the interval is the packet
with n = 1.  Analysis reads the packet table (packet_table;
packet_coefficients for a signal's coefficients over one denominator),
synthesis adds coefficient times packet cell by cell (packet_synthesis),
and cutoff_hits names, per cell, the bitile of each scale whose up-tile
window holds the cell's cutoff.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .signal import Signal, exact_terms


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


def packet_coefficients(f: Signal, cells: Sequence[tuple[int, int]]) -> tuple[list[list[int]], int]:
    """f's packet coefficients at the table cells (k, i): rows[k][i] 2^-L
    of every component's packet table, as the pair (values, den) of the
    Python-int entries, numerators over den = f.den 2^L."""
    tables = [packet_table(c, f.L) for c in f.cols]
    return [[rows[k][i] for rows in tables] for k, i in cells], f.den << f.L


def packet_synthesis(entries: Sequence, ncomp: int, L: int) -> list[list]:
    """Columns of the sum of coefs[i] w_n over the cells of the dyadic
    interval (k, pos), for entries (k, pos, n, coefs) with ncomp
    coefficients each: the inverse of reading the packet table.

    Each cell adds its entries from 0 in the given order, skipping zero
    coefficients: integer coefficients (numerators over a common
    denominator) give integer cells."""
    out = [[0] * (1 << L) for _ in range(ncomp)]
    for k, pos, n, coefs in entries:
        l = L - k
        base = pos << l
        pattern = walsh(n, l)
        for row, c in zip(out, coefs):
            if not c:
                continue
            for jl, s in enumerate(pattern):
                j = base + jl
                row[j] = row[j] + c if s > 0 else row[j] - c
    return out


def cutoff_hits(cutoffs: Sequence[int], L: int) -> list[list[tuple[int, int, int]]]:
    """Per cell j, the bitiles whose up-tile window holds the cutoff
    N(j) = cutoffs[j] in [0, 2^L]: (k, m, neg) for every scale k,
    ascending, at which N(j) >> k = 2m + 1 is odd.  The bitile is
    (k, j >> (L - k), m), at most one per scale, and neg is the sign bit of
    its down packet w_2m at j."""
    rev = bit_reversal(L)
    hits = []
    for j, n in enumerate(cutoffs):
        # n = N(j) >> k and r = rev(j) >> k, the reversed offset of j in
        # its interval of scale k
        cell = []
        r = rev[j]
        k = 0
        while n:
            if n & 1:
                cell.append((k, n >> 1, ((n - 1) & r).bit_count() & 1))
            n >>= 1
            r >>= 1
            k += 1
        hits.append(cell)
    return hits


def fwht(samples: Sequence, normalize: bool = True) -> list:
    """Walsh coefficients of a sample vector, in Walsh-Paley order.

    coefficient[n] = 2^-L sum_j samples[j] * w_n(cell j), computed by an
    in-place butterfly after a bit-reversal permutation; exact on ints and
    Fractions.  With normalize=False the 2^-L weight is skipped, and Python-int
    samples (an exact signal's numerators) give their Python-int sums.
    """
    size = len(samples)
    if size == 0 or size & (size - 1):
        raise ValueError(f"sample count {size} is not a power of two")
    L = size.bit_length() - 1
    terms, finish = exact_terms(samples, size if normalize else 1)
    buf = [terms[r] for r in bit_reversal(L)]
    _butterflies(buf)
    return [finish(x) for x in buf]


def ifwht(coefficients: Sequence) -> list:
    """Inverse of fwht: samples[j] = sum_n coefficient[n] * w_n(cell j)."""
    size = len(coefficients)
    if size == 0 or size & (size - 1):
        raise ValueError(f"coefficient count {size} is not a power of two")
    L = size.bit_length() - 1
    buf, finish = exact_terms(coefficients)
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

