"""Partial sums, the linearized Carleson operator (direct and bitile forms),
the maximal partial-sum operator, and Haar martingale transforms."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .certificates import Certificate
from .dyadic import Bitile, BitileUniverse, DyadicInterval, unit_intervals
from .signal import (
    FrequencyChoice,
    NormPlugin,
    Signal,
    exact_terms,
    lq_norm,
    maximal_function,
    value_norm,
)
from .walsh import bit_reverse, fwht, ifwht, walsh


def walsh_coefficients(f: Signal) -> list[list]:
    """Per-component Walsh coefficient tables, exact for rational signals."""
    return [fwht(comp) for comp in f.components()]


def partial_sum(f: Signal, N: int) -> Signal:
    """Reconstruction from the first N Walsh coefficients."""
    if not 0 <= N <= f.cells:
        raise ValueError(f"partial sum cutoff N={N} outside [0, 2^{f.L}]")
    out_comps = []
    for coef in walsh_coefficients(f):
        trunc = list(coef[:N]) + [Fraction(0)] * (f.cells - N)
        out_comps.append(ifwht(trunc))
    return f.with_components(out_comps)


def carleson_direct(f: Signal, Nfun: FrequencyChoice) -> Signal:
    """Partial sum with a per-cell cutoff, evaluated coefficient by
    coefficient: output(cell) = S_{N(cell)} f (cell)."""
    if Nfun.L != f.L:
        raise ValueError("resolution mismatch between signal and cutoff choice")
    out_comps = []
    for coef in walsh_coefficients(f):
        terms, zero, finish = exact_terms(coef)
        comp = [Fraction(0)] * f.cells
        for j in range(f.cells):
            rj = bit_reverse(j, f.L)
            acc = zero
            for n in range(Nfun[j]):
                if (n & rj).bit_count() & 1:
                    acc = acc - terms[n]
                else:
                    acc = acc + terms[n]
            comp[j] = finish(acc)
        out_comps.append(comp)
    return f.with_components(out_comps)


def carleson_bitile(f: Signal, Nfun: FrequencyChoice, U: BitileUniverse) -> Signal:
    """Bitile form of the linearized operator: each bitile contributes its
    down-packet component on the cells where the cutoff lands in the up-tile
    frequency window.  Equals carleson_direct exactly on rational input."""
    if Nfun.L != f.L or U.L != f.L:
        raise ValueError("resolution mismatch between signal, cutoff and universe")
    L = f.L
    # sums of signed samples, scaled by 2^k, finished with the 2^-L weight
    comps, zeros, finishes = zip(
        *(exact_terms(comp, f.cells) for comp in f.components())
    )
    out_comps = [[zero] * f.cells for zero in zeros]
    cutoffs = Nfun.values
    for P in U.items:
        k = P.time.k
        local_levels = L - k
        n_d = 2 * P.m
        if n_d != 0 and n_d >= (1 << local_levels):
            # down packet oscillates below cell scale; its pairing with any
            # grid-constant signal vanishes
            continue
        base = P.time.pos << local_levels
        if local_levels == 0:
            pattern = (1,)
        else:
            pattern = walsh(n_d, local_levels)
        lo, hi = (2 * P.m + 1) << k, (2 * P.m + 2) << k
        hit = [
            jl for jl in range(1 << local_levels) if lo <= cutoffs[base + jl] < hi
        ]
        if not hit:
            continue
        for comp, zero, out in zip(comps, zeros, out_comps):
            acc = zero
            for jl, s in enumerate(pattern):
                acc = acc + comp[base + jl] if s > 0 else acc - comp[base + jl]
            if acc == 0:
                continue
            c = acc * (1 << k)
            for jl in hit:
                j = base + jl
                out[j] = out[j] + (c if pattern[jl] > 0 else -c)
    return f.with_components(
        [[finish(x) for x in out] for finish, out in zip(finishes, out_comps)]
    )


def maximal_partial_sum(f: Signal, plugin: NormPlugin) -> Signal:
    """Per cell, the largest norm of any partial sum S_N f, N in [0, 2^L]."""
    coefs = walsh_coefficients(f)
    ncomp = len(coefs)
    exact = f.d == 1 and f.kind == "vector"
    out = []
    for j in range(f.cells):
        rj = bit_reverse(j, f.L)
        running = [Fraction(0)] * ncomp
        best = Fraction(0) if exact else 0.0
        for n in range(f.cells):
            neg = (n & rj).bit_count() & 1
            for i in range(ncomp):
                c = coefs[i][n]
                running[i] = running[i] - c if neg else running[i] + c
            if exact:
                norm = abs(running[0])
            else:
                value = _reshape(f.samples[0], running)
                norm = value_norm(value, plugin)
            if norm > best:
                best = norm
        out.append((best,))
    return Signal(f.L, 1, "vector", tuple(out))


def _reshape(template, flat):
    it = iter(flat)

    def go(t):
        if isinstance(t, tuple):
            return tuple(go(x) for x in t)
        return next(it)

    return go(template)


def haar_intervals(L: int) -> list[DyadicInterval]:
    """All dyadic intervals inside [0,1) whose Haar pattern is grid-constant."""
    return [I for I in unit_intervals(L - 1)] if L >= 1 else []


def _haar_coefficient_inf(comp: Sequence, I: DyadicInterval, L: int) -> Fraction:
    """2^-L-weighted integral against the +-1 Haar pattern of I."""
    left, right = I.halves()
    acc = Fraction(0)
    for j in left.cells(L):
        acc = acc + comp[j]
    for j in right.cells(L):
        acc = acc - comp[j]
    return acc * Fraction(1, 1 << L)


def martingale_transform(
    f: Signal,
    signs: Mapping[DyadicInterval, int] | int,
    family: Iterable[DyadicInterval] | None = None,
) -> Signal:
    """Haar expansion with per-interval +-1 multipliers:
    sum over the family of eps_I <f, h_I> h_I.  Exact.

    `signs` may be a mapping or a single +-1 applied to every interval.
    """
    intervals = list(family) if family is not None else haar_intervals(f.L)
    const = signs if isinstance(signs, int) else None
    comps = f.components()
    out_comps = [[Fraction(0)] * f.cells for _ in comps]
    for I in intervals:
        if I.k >= f.L:
            raise ValueError(f"Haar interval finer than grid: k={I.k} >= L={f.L}")
        if const is not None:
            eps = const
        else:
            try:
                eps = signs[I]
            except KeyError:
                raise KeyError(f"missing sign for interval {I}") from None
        if eps not in (-1, 1):
            raise ValueError(f"sign for {I} must be +-1, got {eps}")
        factor = Fraction(eps * (1 << I.k))
        left, right = I.halves()
        for comp, out in zip(comps, out_comps):
            c = _haar_coefficient_inf(comp, I, f.L) * factor
            if c == 0:
                continue
            for j in left.cells(f.L):
                out[j] = out[j] + c
            for j in right.cells(f.L):
                out[j] = out[j] - c
    return f.with_components(out_comps)


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
    Mf = maximal_function(f, plugin).scalar_samples()
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
