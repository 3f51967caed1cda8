"""Retained reference implementations, kept as oracles for the fast paths.

- HistogramCounter / local_density_walk: the cumulative-histogram density
  counter (O(4^L) memory) and the walk over every ancestor of a bitile,
  coarse scales first and m ascending, keeping the first strict maximum.
- down_coefficients: the down-packet pairings summed in Fraction (or
  float) arithmetic, sample by sample.
- member_weights / hilbert_top_sums: the q = 2 Parseval masses and their
  up-sums in Fraction arithmetic, keyed by Bitile.
- size_decompose_hilbert: the greedy size split of the Hilbert case on
  those Fraction sums.
"""

from __future__ import annotations

from fractions import Fraction

from tilewalsh.dyadic import Bitile, DyadicInterval, bitile_le, bitile_lt
from tilewalsh.timefreq import Tree
from tilewalsh.walsh import walsh


class HistogramCounter:
    """Per-interval cumulative histograms of the cutoff values over the
    cells of a level set; O(1) exact window counts."""

    def __init__(self, E, Nfun) -> None:
        self.L = E.L
        top = (1 << self.L) + 1  # cutoffs live in [0, 2^L]
        self.top = top
        # cum[(k, pos)][t] = #cells in I, in E, with N < t
        self.cum: dict[tuple[int, int], list[int]] = {}
        level = []
        for j in range(1 << self.L):
            h = [0] * (top + 1)
            if j in E:
                for t in range(Nfun[j] + 1, top + 1):
                    h[t] = 1
            level.append(h)
            self.cum[(self.L, j)] = h
        k = self.L
        while k > 0:
            nxt = []
            for i in range(len(level) // 2):
                h = [x + y for x, y in zip(level[2 * i], level[2 * i + 1])]
                nxt.append(h)
                self.cum[(k - 1, i)] = h
            level = nxt
            k -= 1

    def count(self, I: DyadicInterval, freq_lo: int, freq_hi: int) -> int:
        lo = min(freq_lo, self.top)
        hi = min(freq_hi, self.top)
        if hi <= lo:
            return 0
        h = self.cum[(I.k, I.pos)]
        return h[hi] - h[lo]


def bitile_ancestors(P: Bitile):
    """All bitiles above P in the tile order with I in [0,1), coarse
    scales first, then m ascending."""
    k, pos, m = P.time.k, P.time.pos, P.m
    for kp in range(k + 1):
        delta = k - kp
        first = m << delta
        for mp in range(first, first + (1 << delta)):
            yield Bitile(DyadicInterval(kp, pos >> delta), mp)


def local_density_walk(P: Bitile, counter: HistogramCounter):
    best = Fraction(0)
    witness = P
    for Pp in bitile_ancestors(P):
        cnt = counter.count(Pp.time, Pp.freq_lo, Pp.freq_hi)
        if cnt == 0:
            continue
        frac = Fraction(cnt, 1 << (counter.L - Pp.time.k))
        if frac > best:
            best = frac
            witness = Pp
    return best, witness


def up_ancestors(P: Bitile):
    """Bitiles T with P below T in the up-tile order, by odd up-indices."""
    k, pos, m = P.time.k, P.time.pos, P.m
    for kp in range(k + 1):
        delta = k - kp
        posp = pos >> delta
        if delta == 0:
            yield Bitile(DyadicInterval(kp, posp), m)
            continue
        o = ((2 * m + 1) << delta) + 1
        end = ((2 * m + 2) << delta) - 1
        while o <= end:
            yield Bitile(DyadicInterval(kp, posp), (o - 1) // 2)
            o += 2


def down_coefficients(f, members) -> dict[Bitile, list]:
    comps = f.components()
    weight = Fraction(1, f.cells)
    out = {}
    for P in members:
        local = f.L - P.time.k
        base = P.time.pos << local
        pattern = walsh(2 * P.m, local) if local else (1,)
        coeffs = []
        for comp in comps:
            acc = Fraction(0)
            for jl, s in enumerate(pattern):
                acc = acc + comp[base + jl] if s > 0 else acc - comp[base + jl]
            coeffs.append(acc * weight)
        out[P] = coeffs
    return out


def member_weights(coll, coeffs) -> dict[Bitile, Fraction]:
    return {
        P: sum((c * c for c in coeffs[P]), Fraction(0)) * (1 << P.time.k)
        for P in coll
    }


def hilbert_top_sums(coll, weights) -> dict[Bitile, Fraction]:
    sums: dict[Bitile, Fraction] = {}
    for P in sorted(coll, key=Bitile.key):
        w = weights[P]
        for T in up_ancestors(P):
            sums[T] = sums.get(T, Fraction(0)) + w
    return sums


def size_decompose_hilbert(coll, f):
    """(trees, small) of the q = 2 greedy size split, exact signals only."""
    coll = sorted(set(coll), key=Bitile.key)
    coeffs = down_coefficients(f, coll)
    active = [P for P in coll if any(c != 0 for c in coeffs[P])]
    zero = [P for P in coll if all(c == 0 for c in coeffs[P])]
    weights = member_weights(active, coeffs)
    sums = hilbert_top_sums(active, weights)
    sigma = max(
        (s * (1 << T.time.k) for T, s in sums.items()), default=Fraction(0)
    )
    threshold = sigma / 4
    trees = []
    remaining = list(active)
    while remaining:
        qualifying = [
            T
            for T in sorted(sums, key=Bitile.key)
            if sums[T] > 0 and sums[T] * (1 << T.time.k) > threshold
        ]
        if not qualifying:
            break
        maximal = [
            T for T in qualifying if not any(bitile_lt(T, T2) for T2 in qualifying)
        ]
        pick = min(maximal, key=lambda T: (T.freq_center, T.key()))
        members = [P for P in remaining if bitile_le(P, pick)]
        trees.append(Tree.build(pick, members))
        for P in members:
            for T in up_ancestors(P):
                sums[T] -= weights[P]
        removed = set(members)
        remaining = [P for P in remaining if P not in removed]
    small = sorted(set(remaining) | set(zero), key=Bitile.key)
    return trees, small
