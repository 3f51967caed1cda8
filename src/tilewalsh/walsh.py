"""Rademacher and Walsh evaluation on the dyadic grid, the Walsh
wave-packet table with its synthesis, the bitiles a cutoff lands in, and
the fast Walsh-Hadamard transform in Walsh-Paley ordering.

All +-1 sign patterns are exact integers.  A packet of the dyadic interval
(k, pos) with frequency index n is w_n on the 2^(L-k) cells of the
interval, zero elsewhere; the Haar pattern of the interval is the packet
with n = 1.  Analysis reads the packet table, one recurrence over integer
arrays (packet_rows; packet_coefficients for a signal's coefficients over
one denominator), in int64 behind a bit-length guard and in Python ints
past it.  The transforms are the table's coarsest row (walsh_sums) over
all of a signal's columns at once: the Walsh-Paley matrix is symmetric,
so the inverse is the same sum without the 2^-L weight, and fwht and
ifwht are that sum on one column, fwht(t, normalize=False) == ifwht(t) ==
packet_table(t, L)[0] on integers.  Synthesis adds coefficient times
packet cell by cell (packet_synthesis), and cutoff_scales names, scale by
scale, the bitile whose up-tile window holds each cell's cutoff
(cutoff_hits lists them per cell)."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .signal import Signal, int_dtype


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
def bit_reversal(L: int) -> np.ndarray:
    """bit_reverse(j, L) for every cell j of the 2^L grid, as a read-only
    int64 array."""
    j = np.arange(1 << L, dtype=np.int64)
    rev = np.zeros_like(j)
    for b in range(L):
        rev |= ((j >> b) & 1) << (L - 1 - b)
    rev.flags.writeable = False
    return rev


@lru_cache(maxsize=32)
def bit_parity(L: int) -> np.ndarray:
    """The parity of the set bits of every j < 2^L, as a read-only int64
    array."""
    par = np.zeros(1, dtype=np.int64)
    for _ in range(L):
        par = np.concatenate((par, 1 - par))
    par.flags.writeable = False
    return par


def _int_array(cols: Sequence[Sequence[int]], headroom: int) -> np.ndarray:
    """Integer columns as an array of shape (ncols, len), in int64 when
    sums that grow them by headroom bits still fit (int_dtype), and in
    Python ints (dtype object) otherwise."""
    top = max((max(max(c), -min(c)) for c in cols if len(c)), default=0)
    return np.array(cols, int_dtype(top.bit_length() + headroom))


def _coarsen(row: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """Row k of the packet tables from row k + 1, shape (ncols, 2^L):
    the two halves of each interval of scale k side by side,
    (left, right) -> (left + right, left - right) at offsets 2a, 2a + 1."""
    ncols, size = row.shape
    half = size >> (k + 1)
    pairs = row.reshape(ncols, 1 << k, 2, half)
    if out is None:
        out = np.empty_like(row)
    blocks = out.reshape(ncols, 1 << k, half, 2)
    np.add(pairs[:, :, 0], pairs[:, :, 1], out=blocks[..., 0])
    np.subtract(pairs[:, :, 0], pairs[:, :, 1], out=blocks[..., 1])
    return out


def packet_rows(cols: Sequence[Sequence[int]], L: int, headroom: int = 0) -> np.ndarray:
    """Walsh wave-packet tables of integer columns (Coifman and
    Wickerhauser, "Entropy-based algorithms for best basis selection",
    IEEE Trans. IT 1992), as one array of shape (L + 1, ncols, 2^L).

    With l = L - k, rows[k, c, pos * 2^l + n] is the signed sum of column
    c over the 2^l cells of the dyadic interval (k, pos) against w_n on l
    levels.  rows[L] holds the columns; a coarser row pairs the two halves
    of each interval, splitting n = 2a + b:

        rows[k][pos 2^l + 2a + b] = rows[k+1][2pos 2^(l-1) + a]
                                    +- rows[k+1][(2pos+1) 2^(l-1) + a],

    + for b = 0 and - for b = 1: L array passes of O(2^L) additions.  The
    entries are int64 when |entry| 2^(L + headroom) stays below 2^62 and
    Python ints otherwise (_int_array), so a caller can sum up to
    2^headroom entries, each times at most 2^k at scale k, in place."""
    row = _int_array(cols, L + headroom)
    rows = np.empty((L + 1, *row.shape), row.dtype)
    rows[L] = row
    for k in range(L - 1, -1, -1):
        _coarsen(rows[k + 1], k, rows[k])
    return rows


def packet_table(terms: Sequence[int], L: int) -> list[list[int]]:
    """The packet table of one column (packet_rows) as lists of Python
    ints, rows[k][pos * 2^(L-k) + n]."""
    return packet_rows([terms], L)[:, 0].tolist()


def walsh_sums(cols: Sequence[Sequence[int]], L: int) -> np.ndarray:
    """Row 0 of the packet tables alone, shape (ncols, 2^L): entry n of a
    column is sum_j column[j] w_n(cell j).  The finer rows are dropped as
    the recurrence passes them."""
    row = _int_array(cols, L)
    for k in range(L - 1, -1, -1):
        row = _coarsen(row, k)
    return row


def packet_coefficients(f: Signal, cells: Sequence[tuple[int, int]]) -> tuple[list[list[int]], int]:
    """f's packet coefficients at the table cells (k, i): rows[k][i] 2^-L
    of every component's packet table, as the pair (values, den) of the
    Python-int entries, numerators over den = f.den 2^L."""
    rows = packet_rows(f.cols, f.L)
    ks = np.fromiter((k for k, _ in cells), np.int64, len(cells))
    idx = np.fromiter((i for _, i in cells), np.int64, len(cells))
    return rows[ks, :, idx].tolist(), f.den << f.L


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


def cutoff_scales(cutoffs: Sequence[int], L: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """The bitiles a cutoff lands in, one scale at a time: for k = 0, ...,
    L, the int64 arrays (cells, m, neg) of the cells j at which
    N(j) >> k = 2m + 1 is odd, N(j) = cutoffs[j] in [0, 2^L].  The bitile
    (k, j >> (L - k), m) is then the one of scale k whose up-tile window
    holds N(j), and neg is the sign bit of its down packet w_2m at j: the
    parity (bit_parity) of 2m & (rev(j) >> k), rev(j) >> k being the
    reversed offset of j in its interval of scale k."""
    n = np.asarray(cutoffs, np.int64)
    rev, parity = bit_reversal(L), bit_parity(L)
    for k in range(L + 1):
        nk = n >> k
        cells = np.flatnonzero(nk & 1)
        even = nk[cells] - 1
        neg = parity[even & (rev[cells] >> k)]
        yield k, cells, even >> 1, neg


def cutoff_hits(cutoffs: Sequence[int], L: int) -> list[list[tuple[int, int, int]]]:
    """Per cell j, the bitiles whose up-tile window holds the cutoff
    N(j): (k, m, neg) for every scale k, ascending, at which the cell is
    hit (cutoff_scales).  The bitile is (k, j >> (L - k), m), at most one
    per scale."""
    hits: list[list[tuple[int, int, int]]] = [[] for _ in cutoffs]
    for k, cells, m, neg in cutoff_scales(cutoffs, L):
        for j, mj, s in zip(cells.tolist(), m.tolist(), neg.tolist()):
            hits[j].append((k, mj, s))
    return hits


def fwht(samples: Sequence, normalize: bool = True) -> list:
    """Walsh coefficients of a sample vector, in Walsh-Paley order.

    coefficient[n] = 2^-L sum_j samples[j] * w_n(cell j): walsh_sums of
    the samples read as a one-column Signal (ints, Fractions, or floats at
    their exact binary value).  With normalize=False the 2^-L weight is
    skipped, and Python-int samples (an exact signal's numerators) give
    their Python-int sums; every other result is a list of Fractions.
    """
    return _column_sums(samples, normalize, "sample")


def ifwht(coefficients: Sequence) -> list:
    """Inverse of fwht: samples[j] = sum_n coefficient[n] * w_n(cell j).
    The Walsh-Paley matrix is symmetric, so this is the unnormalized
    forward sum."""
    return _column_sums(coefficients, False, "coefficient")


def _column_sums(values: Sequence, normalize: bool, what: str) -> list:
    """sum_j values[j] w_n(cell j), times 2^-L when normalize, for every n."""
    size = len(values)
    if size == 0 or size & (size - 1):
        raise ValueError(f"{what} count {size} is not a power of two")
    L = size.bit_length() - 1
    f = Signal(L, 1, "vector", (values,))
    sums = walsh_sums(f.cols, L)[0].tolist()
    den = f.den << L if normalize else f.den
    return sums if den == 1 else [Fraction(x, den) for x in sums]
