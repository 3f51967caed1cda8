"""A signal's Walsh transform and its inverse, each one walsh_sums call
over all of its columns; partial sums, the linearized Carleson operator
(direct and bitile forms), the maximal partial-sum operator, and Haar
martingale transforms."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .certificates import Certificate
from .dyadic import BitileUniverse, DyadicInterval, unit_intervals
from .signal import (
    FrequencyChoice,
    NormPlugin,
    Signal,
    int_dtype,
    lq_norm,
    maximal_function,
    nest,
    value_norm,
)
from .walsh import bit_reverse, cutoff_scales, packet_coefficients, packet_rows, packet_synthesis, walsh_sums


def walsh_coefficients(f: Signal) -> Signal:
    """The Walsh coefficients of every component, as a signal of f's shape
    whose cell n holds coefficient n, exact: integer sums (walsh_sums) of
    the numerators over den 2^L."""
    return f.rebuild(walsh_sums(f.cols, f.L).tolist(), f.cells)


def walsh_synthesis(coef: Signal) -> Signal:
    """The inverse of walsh_coefficients: cell j holds
    sum_n coefficient[n] w_n(cell j), the same integer sums without the
    2^-L weight, since the Walsh-Paley matrix is symmetric."""
    return coef.rebuild(walsh_sums(coef.cols, coef.L).tolist())


def partial_sum(f: Signal, N: int) -> Signal:
    """Reconstruction from the first N Walsh coefficients."""
    if not 0 <= N <= f.cells:
        raise ValueError(f"partial sum cutoff N={N} outside [0, 2^{f.L}]")
    coef = walsh_coefficients(f)
    return walsh_synthesis(coef.rebuild([c[:N] + (0,) * (f.cells - N) for c in coef.cols]))


def carleson_direct(f: Signal, Nfun: FrequencyChoice) -> Signal:
    """Partial sum with a per-cell cutoff, evaluated coefficient by
    coefficient: output(cell) = S_{N(cell)} f (cell).

    The oracle for carleson_bitile, so it shares no packet arithmetic with
    it: the coefficient numerators are summed against the masked Walsh
    matrix in blocks of rows, in int64 when |numerator| 2^L fits and in
    Python ints (dtype object) past that (int_dtype)."""
    if Nfun.L != f.L:
        raise ValueError("resolution mismatch between signal and cutoff choice")
    L = f.L
    coef = walsh_coefficients(f)
    top = max(max(max(c), -min(c)) for c in coef.cols)
    columns = np.array(coef.cols, int_dtype(top.bit_length() + L))
    return coef.rebuild(_cutoff_row_sums(columns, Nfun.values, L))


# entries of the Walsh sign block held at once (rows x 2^L): 64 KiB per
# int64 temporary, so the oracle's peak memory stays small at every L
_DIRECT_BLOCK = 1 << 13


def _cutoff_row_sums(columns: np.ndarray, cutoffs: Sequence[int], L: int) -> list[list[int]]:
    """sum_{n < N(j)} columns[c, n] w_n(j) for every column c and cell j:
    blocks of rows of the masked Walsh matrix times the columns, in the
    columns' dtype.  w_n(j) = (-1)^parity(n & rev(j)), read from a parity
    table."""
    size = 1 << L
    idx = np.arange(size, dtype=np.int64)
    parity = np.zeros(size, dtype=np.int64)
    rev = np.zeros(size, dtype=np.int64)
    for b in range(L):
        bit = (idx >> b) & 1
        parity ^= bit
        rev |= bit << (L - 1 - b)
    sign = 1 - 2 * parity
    coef = columns.T
    limit = np.asarray(cutoffs, dtype=np.int64)
    out = np.empty((size, len(columns)), dtype=columns.dtype)
    step = max(1, _DIRECT_BLOCK >> L)
    for lo in range(0, size, step):
        rows = slice(lo, lo + step)
        block = sign[idx & rev[rows, None]]
        block[idx >= limit[rows, None]] = 0
        out[rows] = block @ coef
    return out.T.tolist()


def carleson_bitile(f: Signal, Nfun: FrequencyChoice, U: BitileUniverse) -> Signal:
    """Bitile form of the linearized operator: each bitile contributes its
    down-packet component on the cells where the cutoff lands in the up-tile
    frequency window.  Equals carleson_direct exactly on rational input.

    A cell j meets at most one bitile (k, j >> l, m) per scale k, with
    l = L - k (walsh.cutoff_scales); it contributes
    rows[k][(j >> l << l) + 2m] 2^k w_2m(j mod 2^l) from the components'
    packet tables (walsh.packet_rows): one array pass per scale, adding
    the signed, scaled entries of every cell hit there.  The L + 1 terms
    of a cell, each below 2^L max|numerator| in size, fit the table's
    headroom of (L + 1).bit_length() bits."""
    if Nfun.L != f.L or U.L != f.L:
        raise ValueError("resolution mismatch between signal, cutoff and universe")
    L = f.L
    # sums of signed numerators, scaled by 2^k, over den 2^L
    rows = packet_rows(f.cols, L, (L + 1).bit_length())
    out = np.zeros_like(rows[L])
    for k, cells, m, neg in cutoff_scales(Nfun.values, L):
        l = L - k
        out[:, cells] += rows[k][:, (cells >> l << l) + 2 * m] * ((1 - 2 * neg) << k)
    return f.rebuild(out.tolist(), f.cells)


def maximal_partial_sum(f: Signal, plugin: NormPlugin) -> list:
    """Per cell, the largest norm of any partial sum S_N f, N in [0, 2^L]:
    exact Fractions for one coordinate, floats otherwise; the running sums
    are integer numerators over the coefficients' den."""
    coef = walsh_coefficients(f)
    cols, den = coef.cols, coef.den
    one = len(cols) == 1
    out = []
    for j in range(f.cells):
        rj = bit_reverse(j, f.L)
        running = [0] * len(cols)
        best = 0 if one else 0.0
        for n in range(f.cells):
            neg = (n & rj).bit_count() & 1
            for i, col in enumerate(cols):
                running[i] = running[i] - col[n] if neg else running[i] + col[n]
            if one:
                norm = abs(running[0])
            else:
                norm = value_norm(nest([x / den for x in running], f.d, f.kind), plugin)
            if norm > best:
                best = norm
        out.append(Fraction(best, den) if one else best)
    return out


def haar_intervals(L: int) -> list[DyadicInterval]:
    """All dyadic intervals inside [0,1) whose Haar pattern is grid-constant."""
    return [I for I in unit_intervals(L - 1)] if L >= 1 else []


def martingale_transform(
    f: Signal,
    signs: Mapping[DyadicInterval, int] | int,
    family: Iterable[DyadicInterval] | None = None,
) -> Signal:
    """Haar expansion with per-interval +-1 multipliers:
    sum over the family of eps_I <f, h_I> h_I.  Exact.

    `signs` may be a mapping or a single +-1 applied to every interval.
    """
    L = f.L
    intervals = list(family) if family is not None else haar_intervals(L)
    const = signs if isinstance(signs, int) else None
    factors = []
    for I in intervals:
        if I.k >= L:
            raise ValueError(f"Haar interval finer than grid: k={I.k} >= L={L}")
        if const is not None:
            eps = const
        else:
            try:
                eps = signs[I]
            except KeyError:
                raise KeyError(f"missing sign for interval {I}") from None
        if eps not in (-1, 1):
            raise ValueError(f"sign for {I} must be +-1, got {eps}")
        factors.append(eps * (1 << I.k))
    # <f, h_I> is the packet table entry of I with n = 1, the Haar pattern
    coeffs, den = packet_coefficients(f, [(I.k, (I.pos << (L - I.k)) + 1) for I in intervals])
    entries = [
        (I.k, I.pos, 1, [c * factor for c in cs]) for I, factor, cs in zip(intervals, factors, coeffs)
    ]
    return Signal(L, f.d, f.kind, packet_synthesis(entries, len(f.cols), L), den)


def stopped_haar_sum(
    f: Signal,
    lam,
    K: DyadicInterval,
    plugin: NormPlugin,
    p,
) -> tuple[Signal, Certificate]:
    """Haar sum over the intervals where the maximal function dips below lam.

    Builds the family {I : inf_I Mf <= lam}, sums <f, h_I> h_I over members
    inside K, and reports the L^p norm against lam |K|^(1/p).  The constant
    in that comparison is not pinned by theory, so the certificate is
    empirical (reported, never gating).
    """
    if not lam > 0:
        raise ValueError("threshold lam must be positive")
    Mf = maximal_function(f, plugin)
    admitted = []
    for I in haar_intervals(f.L):
        if not K.contains(I):
            continue
        if min(Mf[j] for j in I.cells(f.L)) <= lam:
            admitted.append(I)
    g = martingale_transform(f, 1, admitted)
    norm = lq_norm(g, p, plugin)
    bound = float(lam) * float(K.length) ** (1.0 / float(p))
    cert = Certificate.make(
        "stopped_haar_lp",
        norm,
        bound,
        theorem_backed=False,
        context={
            "lambda": lam,
            "K": {"k": K.k, "pos": K.pos},
            "p": p,
            "admitted": len(admitted),
            "ratio": norm / bound if bound else math.inf,
        },
    )
    return g, cert
