"""Retained reference implementations, kept as oracles for the fast paths,
and helpers that only the tests use.

- bitile_lt / tiles_disjoint / bitiles_overlap, member_form_terms,
  pairing_inf, Root2Scaled with the exact values of a WavePacket,
  gen_tree_members: small helpers the library itself no longer calls.
- candidate_tops / complete_up_tree / tree_delta_pow / resynthesized_pow /
  size: the generic size by a scan of every member per candidate top and
  a synthesis of each top's up-part over all 2^L cells (down_packet_sum
  below), which timefreq.TreeDeltaGrid's up-ancestor index and synthesis
  on I_T replaced.
- WavePacket / wave_packet / wave_packet_pattern / haar_pattern: packets
  as full-grid {-1, 0, +1} sign patterns.
- HistogramCounter / local_density_walk: the cumulative-histogram density
  counter (O(4^L) memory) and the walk over every ancestor of a bitile,
  coarse scales first and m ascending, keeping the first strict maximum.
- down_coefficients: the down-packet pairings summed in Fraction (or
  float) arithmetic, sample by sample.
- member_weights / hilbert_top_sums: the q = 2 Parseval masses and their
  up-sums in Fraction arithmetic, keyed by Bitile.
- HilbertWeights / hilbert_member_weights / int_top_sums / nonzero_keys:
  the masses from the Fraction down coefficients, taken apart into
  numerators over their lcm and keyed by (k, pos, m), their integer
  up-sums and the keys of the members with a nonzero coefficient, which
  timefreq.member_masses and SizeEvaluator.nonzero on the packet table's
  integers, in index order, replaced; index_weights puts such masses in
  the order of an index, as timefreq.HilbertWeights.
- starting_level: full_decompose's starting level by a scan over the whole
  range of levels, which a bit-length estimate replaced for integer q.
- lq_norm_pow / value_norm_pow: |f|_q^q summed cell by cell in
  Fractions, one exact norm power per value, which integer sums over an
  exact signal's numerators replaced; the oracles here use it.
- size_decompose_hilbert: the greedy size split of the Hilbert case on
  those Fraction sums.
- packet_sum: one entry of the Walsh packet table, summed sample by
  sample against the packet's sign pattern.
- carleson_direct / carleson_bitile / member_form_products: the
  per-cell, per-bitile and per-member loops the packet table replaced,
  summing each packet's samples in cell order from 0 (exact_terms);
  carleson_direct's per-cell loop is also the Python-int loop that
  operators.carleson_direct's object-dtype blocks replaced past 62 bits.
- exact_terms: signed sums of ints and Fractions over the lcm of their
  denominators, with one Fraction per result; the library's transforms
  read their values as a Signal instead.
- down_packet_sum (with per-member signs and cell masks) /
  haar_packet_sum / martingale_transform / split_sums /
  tile_type_constant: the synthesis loops that walsh.packet_synthesis and
  walsh.cutoff_hits replaced, adding Fraction (or float) multiples of
  each packet's sign pattern cell by cell, with a masked full-grid
  synthesis per gap interval and part for tree_form_sum's split sums.
- gap_set / gj_certificate: the gap set by the up-window test of every
  member on every cell of J, which walsh.cutoff_hits replaced.
- maximal_gap_intervals: the gap intervals by testing every member
  interval at every node of the walk, over the covered cells as a set.
- density_decompose / size_decompose / down_tile_violations: the greedy
  splits that re-test every top each round and find maximal tops by
  pairwise comparison, with a fresh up-sum sweep for the size of the
  collection, of the remainder and of every tree, and the pairwise scan
  for meeting down-tiles.
- first_maximal_top: the pick of the size split by one pass over the
  scales of the whole grid, marking the cells below a set one, which
  decompose's test of the set cells in order of center replaced.
- full_decompose / bitile_density_decompose / bitile_size_decompose /
  TopIndex / take_below: the leveled decomposition on Bitile collections,
  which decompose's one BitileIndex per run replaced: a canonical sort of
  every collection, a density lookup per member and level and again per
  tree, witnesses held per interval in sorted lists, trees taken out by
  dictionary pops, and two tree size batches per level.
- _columns / _exact_numbers / columns_from_json / signal_from_json_entries:
  the signal reader that checks each value's shape and parses each JSON
  number on its own, which the library keeps for any file its bulk
  parse of "n/d" strings does not take.
- walsh_coefficients / signal_from_coefficients / signal_to_json /
  signal_from_json / dump_json / maximal_function / restricted_weak_type:
  the Fraction-per-entry forms that integer signal columns replaced: a
  Fraction per coefficient, per JSON number and per maximal average, a
  support test per cell, one value_norm per cell and the form summed by
  dual_pair; dump_json streams through json.dump.
- levelset_cells: the cells of a LevelSet by a test of its mask per
  cell, O(4^L / 64) word operations, which the set bits of the mask's
  bytes replaced.
- bit_reversal / butterfly_fwht / butterfly_ifwht / packet_table /
  cutoff_hits: the list kernels that walsh's array recurrence replaced:
  the transforms one column at a time (the library sums all of a
  signal's columns in one walsh_sums call) by a bit-reversal permutation
  and in-place butterflies, the packet table by list slices, and the
  bitiles a cutoff lands in by a walk over the bits of each cell's
  cutoff.
- levelset_from_cells / levelset_indicator / signal_restrict: the level
  set operations by a test or a set of one mask bit per cell, O(4^L / 64)
  word operations, which the mask's bytes replaced.
- numerator / shuffle / gen_signal / gen_nfun: the draws one below() at
  a time, which SplitMix64.below_each's blocks replaced.
- jsonable: a report copied into the values json.dumps takes (objects as
  their to_json, tuples as lists, dict keys as strings, Fractions and
  floats in the num_to_json encoding), the walk that ran before the
  writer until signal.json_text took the library's values itself.
"""

from __future__ import annotations

import json
import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from tilewalsh import timefreq
from tilewalsh.certificates import Certificate
from tilewalsh.decompose import (
    DensityDecomposition,
    LeveledForest,
    LevelRecord,
    SizeDecomposition,
    _le,
    _min_one,
    _two_pow,
)
from tilewalsh.dyadic import Bitile, DyadicInterval, Tile, bitile_le, bitile_le_u, bitile_universe
from tilewalsh.gen import VALUE_DENOM_BITS, SplitMix64
from tilewalsh.signal import (
    FrequencyChoice,
    LevelSet,
    Signal,
    _check_shape,
    cell_norms,
    dual_pair,
    json_int,
    lq_norm,
    num_from_json,
    _frobenius_like,
    flatten_value,
    num_to_json,
    value_norm,
)
from tilewalsh.timefreq import (
    DensityCounter,
    SizeEvaluator,
    Tree,
    _is_hilbert_case,
    _pow_gt,
    density,
    down_coefficients_inf,
    meeting_tile_pairs,
    local_density,
    size_pow,
    up_ancestor_keys,
)
from tilewalsh.walsh import bit_reverse, fwht, ifwht, walsh, walsh_value


# ---------------------------------------------------------------------------
# helpers only the tests use


def exact_terms(values, scale=1):
    """(terms, finish) for signed sums of exact values (ints and
    Fractions) divided by scale: the terms are integer numerators over the
    lcm of the values' denominators, sums stay in integers and finish(sum)
    makes the only Fraction, or leaves the int when lcm scale is 1."""
    try:
        # a TypeError unless every value is an int
        math.gcd(*values)
        terms, lcm = list(values), 1
    except TypeError:
        lcm = math.lcm(*(x.denominator for x in values))
        terms = [x.numerator * (lcm // x.denominator) for x in values]
    den = lcm * scale
    return terms, (lambda acc: acc) if den == 1 else (lambda acc: Fraction(acc, den))


def bitile_lt(P: Bitile, P2: Bitile) -> bool:
    return bitile_le(P, P2) and P != P2


def tiles_disjoint(p: Tile, p2: Tile) -> bool:
    """Disjointness of the rectangles in the phase plane."""
    if p.time.disjoint_from(p2.time):
        return True
    return p.freq_hi <= p2.freq_lo or p2.freq_hi <= p.freq_lo


def bitiles_overlap(P: Bitile, P2: Bitile) -> bool:
    return not (
        P.time.disjoint_from(P2.time)
        or P.freq_hi <= P2.freq_lo
        or P2.freq_hi <= P.freq_lo
    )


def candidate_tops(coll):
    """All grid bitiles that dominate some collection member in the up-tile
    order, in canonical order."""
    tops = set()
    for P in coll:
        tops.update(up_ancestors(P))
    return sorted(tops, key=Bitile.key)


def complete_up_tree(top, coll):
    return Tree.build(top, (P for P in coll if bitile_le_u(P, top)))


def tree_delta_pow(tree, f, q, plugin, coeffs=None):
    """q-th power of the normalized L^q mass of the up-part packet sum,
    synthesized over all 2^L cells; exact Fraction where representable,
    float otherwise."""
    up = tree.up_part()
    if not up:
        return Fraction(0)
    if coeffs is None:
        coeffs = down_coefficients_inf(f, up)
    g = down_packet_sum(up, f, coeffs=coeffs)
    scale = Fraction(1 << tree.top.time.k, f.cells)
    acc_exact = Fraction(0)
    for v in g.samples:
        nv = value_norm_pow(v, plugin, q)
        if nv is None:
            break
        acc_exact += nv
    else:
        return acc_exact * scale
    total = 0.0
    qf = float(q)
    for v in g.samples:
        total += value_norm(v, plugin) ** qf
    return total * float(scale)


def resynthesized_pow(coll, f, q, plugin):
    """The size power: the first largest tree_delta_pow over the complete
    up-trees below every candidate top; Fraction(0) unless one is
    positive."""
    coll = list(coll)
    best = Fraction(0)
    for T in candidate_tops(coll):
        val = tree_delta_pow(complete_up_tree(T, coll), f, q, plugin)
        if _pow_gt(val, best):
            best = val
    return best


def size(coll, f, q, plugin):
    """The size: the q-th root of resynthesized_pow."""
    return float(resynthesized_pow(coll, f, q, plugin)) ** (1.0 / float(q))


def member_form_terms(tree_members, f, g, E, Nfun):
    """Absolute values of timefreq.member_form_products."""
    return {
        P: abs(v)
        for P, v in timefreq.member_form_products(tree_members, f, g, E, Nfun).items()
    }


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


def pairing_inf(samples, P: Tile, L: int):
    """Integral of a sample vector against the L-infinity normalized packet.

    Returns 2^-L * sum over the tile's cells of samples[j] * pattern[j];
    exact for rational samples.
    """
    I = P.time
    pattern = wave_packet_pattern(P, L)
    acc = None
    for j in I.cells(L):
        s = pattern[j]
        if s == 0:
            continue
        term = samples[j] if s > 0 else -samples[j]
        acc = term if acc is None else acc + term
    if acc is None:
        return Fraction(0)
    return acc * Fraction(1, 1 << L)


@dataclass(frozen=True)
class Root2Scaled:
    """Exact value frac * 2^(half_exp / 2); half_exp is normalized to {0, 1}."""

    frac: Fraction
    half_exp: int = 0

    @staticmethod
    def make(frac: Fraction, half_exp: int = 0) -> "Root2Scaled":
        frac = Fraction(frac)
        if frac == 0:
            return Root2Scaled(frac, 0)
        if half_exp & 1:
            shift = (half_exp - 1) // 2
            return Root2Scaled(frac * Fraction(2) ** shift, 1)
        return Root2Scaled(frac * Fraction(2) ** (half_exp // 2), 0)

    def __mul__(self, other):
        if isinstance(other, Root2Scaled):
            return Root2Scaled.make(self.frac * other.frac, self.half_exp + other.half_exp)
        return Root2Scaled.make(self.frac * other, self.half_exp)

    __rmul__ = __mul__

    def __float__(self) -> float:
        return float(self.frac) * (2.0 ** 0.5 if self.half_exp else 1.0)

    def is_rational(self) -> bool:
        return self.half_exp == 0 or self.frac == 0


def values_exact(wp: WavePacket) -> tuple[Root2Scaled, ...]:
    """The packet's samples, exact with their power of sqrt(2)."""
    return tuple(Root2Scaled.make(Fraction(s), wp.half_exp) for s in wp.pattern)


def gen_tree_members(L: int, top: Bitile, count: int, rng: SplitMix64) -> list[Bitile]:
    """Random members below `top` in the full tile order."""
    pool = [P for P in bitile_universe(L).items if bitile_le(P, top)]
    rng.shuffle(pool)
    picked = pool[: min(count, len(pool))]
    picked.sort(key=Bitile.key)
    return picked


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
    comps = f.comps
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


@dataclass(frozen=True)
class HilbertWeights:
    """The masses as integer numerators over one den, keyed by (k, pos, m)."""

    num: dict
    den: int

    def value(self, x: int) -> Fraction:
        return Fraction(x, self.den)


def index_weights(coll, weights: HilbertWeights) -> timefreq.HilbertWeights:
    """The masses of coll in the order of its BitileIndex, in the array of
    the total's mass dtype."""
    index = timefreq.BitileIndex(coll)
    num = [weights.num[key] for key in index.keys]
    return timefreq.HilbertWeights(index, np.array(num, timefreq._mass_dtype(sum(num))), weights.den)


def int_top_sums(coll, weights: HilbertWeights) -> dict:
    """The up-sums S(T) of the masses of coll keyed by (k, pos, m), zero
    sums included, as numerators over weights.den."""
    sums = {}
    for key in sorted(P.key() for P in coll):
        w = weights.num[key]
        for T in up_ancestor_keys(*key):
            sums[T] = sums.get(T, 0) + w
    return sums


def nonzero_keys(coeffs) -> set:
    """The keys of the coefficients keyed by (k, pos, m) with a nonzero
    entry."""
    return {key for key, cs in coeffs.items() if any(cs)}


def tree_positions(index, trees) -> list:
    """Trees as (top key, member positions in a BitileIndex)."""
    return [(t.top.key(), index.select(t.members)) for t in trees]


def hilbert_member_weights(coll, coeffs) -> HilbertWeights:
    """The masses w_P of the members of coll from their Fraction down
    coefficients, as numerators over the squared lcm of the coefficient
    denominators, each coefficient taken apart again."""
    lcm = math.lcm(*(c.denominator for P in coll for c in coeffs[P]))
    num = {
        P.key(): sum((c.numerator * (lcm // c.denominator)) ** 2 for c in coeffs[P])
        << P.time.k
        for P in coll
    }
    return HilbertWeights(num, lcm * lcm)


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


def packet_sum(terms, L, k, pos, n):
    """sum over the cells jl of the interval (k, pos) of terms * w_n(jl)."""
    local = L - k
    base = pos << local
    pattern = walsh(n, local) if local else (1,)
    return sum(s * terms[base + jl] for jl, s in enumerate(pattern))


def carleson_direct(f, Nfun):
    out_comps = []
    for coef in (fwht(comp) for comp in f.comps):
        terms, finish = exact_terms(coef)
        comp = []
        for j in range(f.cells):
            rj = bit_reverse(j, f.L)
            acc = 0
            for n in range(Nfun[j]):
                if (n & rj).bit_count() & 1:
                    acc = acc - terms[n]
                else:
                    acc = acc + terms[n]
            comp.append(finish(acc))
        out_comps.append(comp)
    return f.with_components(out_comps)


def carleson_bitile(f, Nfun):
    """Every universe bitile in canonical order adds its scaled down-packet
    sum on the cells whose cutoff lies in its up-tile window."""
    L = f.L
    comps, finishes = zip(*(exact_terms(comp, f.cells) for comp in f.comps))
    out_comps = [[0] * f.cells for _ in comps]
    for P in bitile_universe(L).items:
        k = P.time.k
        local = L - k
        base = P.time.pos << local
        pattern = walsh(2 * P.m, local) if local else (1,)
        lo, hi = P.up.freq_lo, P.up.freq_hi
        hit = [jl for jl in range(1 << local) if lo <= Nfun[base + jl] < hi]
        if not hit:
            continue
        for comp, out in zip(comps, out_comps):
            acc = 0
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


def member_form_products(members, f, g, E, Nfun):
    fco = down_coefficients(f, members)
    flat, finish = exact_terms([x for comp in g.comps for x in comp], g.cells)
    gcomps = [flat[i : i + g.cells] for i in range(0, len(flat), g.cells)]
    terms = {}
    for P in members:
        local = g.L - P.time.k
        base = P.time.pos << local
        pattern = walsh(2 * P.m, local) if local else (1,)
        lo, hi = P.up.freq_lo, P.up.freq_hi
        gvec = []
        for comp in gcomps:
            acc = 0
            for jl, s in enumerate(pattern):
                j = base + jl
                if j in E and lo <= Nfun[j] < hi:
                    acc = acc + comp[j] if s > 0 else acc - comp[j]
            gvec.append(finish(acc))
        prod = Fraction(0)
        for a, b in zip(fco[P], gvec):
            prod += a * b
        terms[P] = prod * (1 << P.time.k)
    return terms


def down_tile_violations(entries):
    """(Pa, ia, Pb, ib) for the pairs a < b of (bitile, tree) entries whose
    down-tiles meet, by the pairwise scan."""
    bad = []
    for a in range(len(entries)):
        Pa, ia = entries[a]
        for b in range(a + 1, len(entries)):
            Pb, ib = entries[b]
            if not tiles_disjoint(Pa.down, Pb.down):
                bad.append((Pa, ia, Pb, ib))
    return bad


def density_decompose(coll, E, Nfun, q, counter=None):
    coll = sorted(set(coll), key=Bitile.key)
    if counter is None:
        counter = DensityCounter(E, Nfun)
    local = {P: local_density(P, counter) for P in coll}
    dens = max((v[0] for v in local.values()), default=Fraction(0))
    threshold = dens * _two_pow(-q) if dens else Fraction(0)

    sparse = [P for P in coll if local[P][0] <= threshold]
    rest = [P for P in coll if local[P][0] > threshold]
    witnesses = sorted({local[P][1] for P in rest}, key=Bitile.key)
    tops = [W for W in witnesses if not any(bitile_lt(W, W2) for W2 in witnesses)]

    trees = []
    remaining = set(rest)
    for T in tops:
        members = [P for P in sorted(remaining, key=Bitile.key) if bitile_le(P, T)]
        if not members:
            continue
        remaining.difference_update(members)
        trees.append(Tree.build(T, members))
    if remaining:
        raise RuntimeError("density split failed to assign every dense bitile")

    sparse_density = max((local[P][0] for P in sparse), default=Fraction(0))
    certs = [
        Certificate.make(
            "density_sparse", sparse_density, threshold,
            theorem_backed=True, context={"q": q, "density": dens},
        )
    ]
    if dens > 0:
        mass = sum((t.time.length for t in trees), Fraction(0))
        bound = _two_pow(q) / dens * E.measure
        certs.append(
            Certificate.make(
                "density_mass", mass, bound, theorem_backed=True,
                context={"q": q, "trees": len(trees), "set_measure": E.measure},
            )
        )
    return DensityDecomposition(tuple(sparse), tuple(trees), tuple(certs), dens)


def size_decompose(coll, f, q, plugin):
    """The size split with a fresh size for the collection, the remainder
    and every tree: size_pow in the Hilbert case, resynthesized_pow
    otherwise."""
    coll = sorted(set(coll), key=Bitile.key)
    coeffs = down_coefficients_inf(f, coll)
    zero = [P for P in coll if all(c == 0 for c in coeffs[P])]
    active = [P for P in coll if any(c != 0 for c in coeffs[P])]

    hilbert = _is_hilbert_case(q, plugin)
    weights = hilbert_member_weights(coll, coeffs) if hilbert else None
    pow_of = size_pow if hilbert else resynthesized_pow
    sigma_pow = pow_of(active, f, q, plugin)
    threshold_pow = sigma_pow * _two_pow(-q)

    if hilbert:
        sums = int_top_sums(active, weights)
    trees = []
    remaining = list(active)
    rounds = 0
    while remaining:
        rounds += 1
        if rounds > len(coll) + 1:
            raise RuntimeError("size split failed to terminate")
        if hilbert:
            qualifying = [
                Bitile.from_key(T)
                for T in sorted(sums)
                if sums[T] > 0 and _pow_gt(weights.value(sums[T] * (1 << T[0])), threshold_pow)
            ]
        else:
            qualifying = []
            for T in candidate_tops(remaining):
                tree = complete_up_tree(T, remaining)
                if not tree.members:
                    continue
                if _pow_gt(tree_delta_pow(tree, f, q, plugin, coeffs=coeffs), threshold_pow):
                    qualifying.append(T)
        if not qualifying:
            break
        maximal = [T for T in qualifying if not any(bitile_lt(T, T2) for T2 in qualifying)]
        pick = min(maximal, key=lambda T: (T.freq_center, T.key()))
        members = [P for P in remaining if bitile_le(P, pick)]
        trees.append(Tree.build(pick, members))
        if hilbert:
            for P in members:
                key = P.key()
                w = weights.num[key]
                if w:
                    for T in up_ancestor_keys(*key):
                        sums[T] -= w
        removed = set(members)
        remaining = [P for P in remaining if P not in removed]

    small = sorted(set(remaining) | set(zero), key=Bitile.key)
    small_pow = pow_of(small, f, q, plugin)
    entries = [(P, i) for i, t in enumerate(trees) for P in t.up_part()]
    certs = [
        Certificate.make(
            "size_small", small_pow, threshold_pow, theorem_backed=True,
            context={"q": q, "note": "q-th powers of size; threshold is (size/2)^q"},
        ),
        Certificate.make(
            "down_tile_disjointness", len(down_tile_violations(entries)), 0,
            theorem_backed=True,
            context={"pairs_checked": len(entries) * (len(entries) - 1) // 2},
        ),
    ]

    mass = sum((t.time.length for t in trees), Fraction(0))
    fq_pow = lq_norm_pow(f, q, plugin)
    if fq_pow is None:
        fq_pow = lq_norm(f, q, plugin) ** float(q)
    if fq_pow and float(fq_pow) > 0:
        mass_constant = float(mass) * float(sigma_pow) / float(fq_pow)
    else:
        mass_constant = 0.0
    stats = {
        "top_length_sum": mass,
        "size_pow": sigma_pow,
        "mass_constant": mass_constant,
        "trees": len(trees),
    }
    tree_pows = tuple(pow_of(t.members, f, q, plugin) for t in trees)
    return SizeDecomposition(
        tuple(small), tuple(trees), tuple(certs), sigma_pow, tree_pows, stats
    )


def starting_level(dens0, size0_pow, fq_pow, measure, q, L):
    """full_decompose's starting level by the scan over every n in
    [-16L - 64, 16L + 64], smallest first."""
    for n in range(-16 * L - 64, 16 * L + 65):
        tag = _two_pow(n * q) if isinstance(q, int) else 2.0 ** (n * float(q))
        ok_d = _le(dens0, _min_one(tag * measure))
        ok_s = _le(size0_pow, tag * fq_pow)
        if ok_d and ok_s:
            return n
    raise RuntimeError("could not locate a starting level")


def value_norm_pow(v, plugin, q):
    """Exact q-th power of the norm of one value when representable as a
    rational: 1-dimensional values with integer q, or euclidean/schatten-2
    with q = 2; else None."""
    if not (isinstance(q, int) or (isinstance(q, Fraction) and q.denominator == 1)):
        return None
    qi = int(q)
    flat = flatten_value(v)
    if any(not isinstance(x, Fraction) for x in flat):
        return None
    if len(flat) == 1:
        return abs(flat[0]) ** qi
    if _frobenius_like(plugin) and qi == 2:
        acc = Fraction(0)
        for x in flat:
            acc += x * x
        return acc
    return None


def lq_norm_pow(f, q, plugin):
    """|f|_q^q summed cell by cell in Fractions (value_norm_pow), or None."""
    acc = Fraction(0)
    for v in f.samples:
        nv = value_norm_pow(v, plugin, q)
        if nv is None:
            return None
        acc += nv
    return acc * Fraction(1, f.cells)


# ---------------------------------------------------------------------------
# the synthesis loops


def up_cells(P, E, Nfun):
    """Cells of E inside I_P whose cutoff lands in the up-tile window of P."""
    lo, hi = P.up.freq_lo, P.up.freq_hi
    return [j for j in P.time.cells(E.L) if j in E and lo <= Nfun[j] < hi]


def down_packet_sum(members, f, coeffs=None, signs=None, cell_mask=None):
    """sum over members of <f, down packet> * down packet, optionally with
    per-member signs and per-member cell restrictions."""
    if coeffs is None:
        coeffs = down_coefficients_inf(f, members)
    ncomp = len(f.comps)
    out = [[Fraction(0)] * f.cells for _ in range(ncomp)]
    for P in members:
        k = P.time.k
        local = f.L - k
        base = P.time.pos << local
        pattern = walsh(2 * P.m, local) if local else (1,)
        eps = 1 if signs is None else signs[P]
        factor = Fraction(eps * (1 << k))
        mask = cell_mask.get(P) if cell_mask is not None else None
        for i in range(ncomp):
            c = coeffs[P][i] * factor
            if c == 0:
                continue
            row = out[i]
            for jl, s in enumerate(pattern):
                j = base + jl
                if mask is not None and j not in mask:
                    continue
                row[j] = row[j] + c if s > 0 else row[j] - c
    return f.with_components(out)


def haar_packet_sum(members, f, coeffs=None):
    """sum over members of <f, down packet> h_{I_P}."""
    if coeffs is None:
        coeffs = down_coefficients_inf(f, members)
    ncomp = len(f.comps)
    out = [[Fraction(0)] * f.cells for _ in range(ncomp)]
    for P in members:
        k = P.time.k
        if k >= f.L:
            raise ValueError("Haar pattern of a finest-scale member is not grid-constant")
        pattern = haar_pattern(P.time, f.L)
        factor = Fraction(1 << k)
        for i in range(ncomp):
            c = coeffs[P][i] * factor
            if c == 0:
                continue
            row = out[i]
            for j in P.time.cells(f.L):
                row[j] = row[j] + c if pattern[j] > 0 else row[j] - c
    return f.with_components(out)


def martingale_transform(f, signs, family):
    """sum over the family of signs[I] <f, h_I> h_I, with <f, h_I> summed
    over the left half, then subtracted over the right half."""
    out_comps = [[Fraction(0)] * f.cells for _ in f.comps]
    for I in family:
        factor = Fraction(signs[I] * (1 << I.k))
        left, right = I.halves()
        for comp, out in zip(f.comps, out_comps):
            acc = Fraction(0)
            for j in left.cells(f.L):
                acc = acc + comp[j]
            for j in right.cells(f.L):
                acc = acc - comp[j]
            c = acc * Fraction(1, 1 << f.L) * factor
            if c == 0:
                continue
            for j in left.cells(f.L):
                out[j] = out[j] + c
            for j in right.cells(f.L):
                out[j] = out[j] - c
    return f.with_components(out_comps)


def gap_set(J, members, E, Nfun):
    """Cells of J covered by some E_{P_u} with I_P strictly containing J."""
    mask = 0
    for P in members:
        if not P.time.strictly_contains(J):
            continue
        lo, hi = P.up.freq_lo, P.up.freq_hi
        for j in J.cells(E.L):
            if j in E and lo <= Nfun[j] < hi:
                mask |= 1 << j
    return LevelSet(E.L, mask)


def gj_certificate(tree, E, Nfun):
    """For every maximal gap interval J, |G_J| <= 2 density(tree) |J|."""
    dens = timefreq.density(tree.members, E, Nfun)
    certs = []
    for J in timefreq.maximal_gap_intervals(tree.members, E.L):
        GJ = gap_set(J, tree.members, E, Nfun)
        certs.append(
            Certificate.make(
                "gap_interval_measure", GJ.measure, 2 * dens * J.length, theorem_backed=True,
                context={"J": {"k": J.k, "pos": J.pos}, "cells": GJ.count},
            )
        )
    return certs


def split_sums(tree, f, g, E, Nfun, plugin):
    """tree_form_sum's split sums: per gap interval J and part, the L^1
    mass over J of the signed down-packet sum of the part's members whose
    interval strictly contains J, each restricted to the cells of
    E_{P_u}, synthesized over the full grid."""
    fco = down_coefficients_inf(f, tree.members)
    products = member_form_products(tree.members, f, g, E, Nfun)
    down, rest = tree.split()
    rows = []
    for J in timefreq.maximal_gap_intervals(tree.members, f.L):
        GJ = gap_set(J, tree.members, E, Nfun)
        row = {"J": {"k": J.k, "pos": J.pos}, "gap_cells": GJ.count}
        for label, part in (("down", down), ("up", rest)):
            active = [P for P in part if P.time.strictly_contains(J)]
            if not active:
                row[f"{label}_l1"] = 0.0
                continue
            signs = {P: 1 if products[P] >= 0 else -1 for P in active}
            masks = {P: LevelSet.from_cells(E.L, up_cells(P, E, Nfun)) for P in active}
            h = down_packet_sum(active, f, coeffs=fco, signs=signs, cell_mask=masks)
            l1 = 0.0
            for j in J.cells(f.L):
                l1 += value_norm(h.samples[j], plugin)
            row[f"{label}_l1"] = l1 / f.cells
        rows.append(row)
    return rows


def tile_type_constant(family, f, q, plugin):
    """decompose.tile_type_constant with one packet table per tree and the
    packet and Haar sums from the loops above."""
    if family.down_disjointness_violations():
        raise ValueError("down-tile disjointness violations in family")
    # the packet and Haar norms agree by orthogonality in the Hilbert case
    hilbert = _is_hilbert_case(q, plugin)
    certs = []
    total_pow = Fraction(0)
    exact_total = True
    for idx, tree in enumerate(family.trees):
        coeffs = down_coefficients_inf(f, tree.members)
        u = down_packet_sum(tree.members, f, coeffs=coeffs)
        u_haar = haar_packet_sum(tree.members, f, coeffs=coeffs)
        upow = lq_norm_pow(u, q, plugin)
        hpow = lq_norm_pow(u_haar, q, plugin)
        if upow is None or hpow is None:
            upow_f = lq_norm(u, q, plugin) ** float(q)
            hpow_f = lq_norm(u_haar, q, plugin) ** float(q)
            certs.append(
                Certificate.make(
                    "packet_haar_norm_equality", abs(upow_f - hpow_f),
                    1e-9 * max(1.0, abs(upow_f)), theorem_backed=hilbert, context={"tree": idx},
                )
            )
            total_pow = float(total_pow) + upow_f
            exact_total = False
        else:
            certs.append(
                Certificate.make(
                    "packet_haar_norm_equality", abs(upow - hpow), Fraction(0),
                    theorem_backed=hilbert, context={"tree": idx},
                )
            )
            total_pow = total_pow + upow if exact_total else float(total_pow) + float(upow)
    fq_pow = lq_norm_pow(f, q, plugin)
    if fq_pow is None:
        fq_pow = lq_norm(f, q, plugin) ** float(q)
    ratio = (
        (float(total_pow) / float(fq_pow)) ** (1.0 / float(q)) if float(fq_pow) > 0 else 0.0
    )
    certs.append(
        Certificate.make(
            "tile_type_ratio_pow", total_pow, fq_pow,
            theorem_backed=_is_hilbert_case(q, plugin),
            context={
                "q": q,
                "norm": plugin.spec(),
                "ratio": ratio,
                "note": "ratio <= 1 is a theorem only in the Hilbert q=2 case",
            },
        )
    )
    return ratio, certs


def maximal_gap_intervals(members, L):
    """The gap intervals by testing every member interval at every node of
    the walk, with the covered cells as a set."""
    times = {P.time for P in members}
    covered = set()
    for I in times:
        covered.update(I.cells(L))
    out = []

    def walk(J):
        cells = set(J.cells(L))
        if not cells & covered:
            return
        if cells <= covered and not any(J.contains(I) for I in times):
            out.append(J)
            return
        if J.k == L:
            return
        a, b = J.halves()
        walk(a)
        walk(b)

    walk(DyadicInterval(0, 0))
    return sorted(out)


# ---------------------------------------------------------------------------
# the Fraction-per-entry forms of the integer-column kernels


def walsh_coefficients(f):
    """Per-component coefficient lists, each entry a Fraction (or float)."""
    return [fwht(comp) for comp in f.comps]


def signal_from_coefficients(obj):
    comps = [ifwht([num_from_json(c) for c in comp]) for comp in obj["coefficients"]]
    return Signal(int(obj["levels"]), int(obj["dim"]), obj["kind"], comps)


def _value_to_json(v):
    if isinstance(v, tuple):
        return [_value_to_json(x) for x in v]
    return num_to_json(v)


def _value_from_json(v):
    if isinstance(v, list):
        return tuple(_value_from_json(x) for x in v)
    return num_from_json(v)


def signal_to_json(f):
    return {
        "levels": f.L,
        "dim": f.d,
        "kind": f.kind,
        "values": [_value_to_json(v) for v in f.samples],
    }


def _columns(values, d, kind):
    """Columns of nested per-cell values (tuples or lists); ValueError
    unless every value is d numbers (vector) or d rows of d numbers
    (matrix)."""

    def is_row(r):
        return (
            isinstance(r, (tuple, list))
            and len(r) == d
            and not any(isinstance(x, (tuple, list)) for x in r)
        )

    def has_shape(v):
        if kind == "matrix":
            return len(v) == d and all(is_row(r) for r in v)
        return is_row(v)

    for j, v in enumerate(values):
        if not has_shape(v):
            raise ValueError(f"value {j} is not a {d}-dimensional {kind}")
    if kind == "matrix":
        values = [[x for row in v for x in row] for v in values]
    return tuple(zip(*values))


def _exact_numbers(entries):
    """(numerators, den) of JSON numbers (num_from_json) over their least
    common denominator, one entry at a time."""
    nums, dens = [], []
    for s in entries:
        if type(s) is str:
            n, slash, q = s.partition("/")
            if slash and int(q) > 0:
                nums.append(int(n))
                dens.append(int(q))
                continue
        x = num_from_json(s)
        nums.append(x.numerator)
        dens.append(x.denominator)
    distinct = set(dens)
    den = math.lcm(*distinct)
    if len(distinct) > 1:
        mult = {q: den // q for q in distinct}
        nums = [n * mult[q] for n, q in zip(nums, dens)]
    return nums, den


def columns_from_json(L, d, kind, columns):
    """signal.columns_from_json with every number read by _exact_numbers."""
    cols = [list(c) for c in columns]
    _check_shape(L, d, kind, cols)
    nums, den = _exact_numbers([x for c in cols for x in c])
    n = 1 << L
    return Signal(L, d, kind, [nums[i : i + n] for i in range(0, len(nums), n)], den)


def signal_from_json_entries(obj):
    """signal.signal_from_json checked and read value by value and entry
    by entry (_columns, columns_from_json): the same signal, or the same
    error, as the library's reader."""
    L = json_int(obj["levels"], "levels")
    d = json_int(obj["dim"], "dim")
    kind = obj["kind"]
    values = [v if isinstance(v, list) else [v] for v in obj["values"]]
    return columns_from_json(L, d, kind, _columns(values, d, kind))


def signal_from_json(obj):
    L, d, kind = int(obj["levels"]), int(obj["dim"]), obj["kind"]
    values = [_value_from_json(v) for v in obj["values"]]
    values = [v if isinstance(v, tuple) else (v,) for v in values]
    return Signal(L, d, kind, _columns(values, d, kind))


def dump_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def levelset_cells(E):
    return [j for j in range(1 << E.L) if (E.mask >> j) & 1]


_LEAVES = frozenset({str, int, bool, type(None)})


def jsonable(obj):
    """obj ready for json.dump: objects with a to_json as what it returns,
    tuples as lists, dict keys as strings, and Fractions and floats
    (numpy's too) in the num_to_json encoding; ints, bools, None and
    strings stay."""
    if type(obj) in _LEAVES:
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, (Fraction, float)):
        return num_to_json(obj)
    if hasattr(obj, "to_json"):
        return jsonable(obj.to_json())
    return obj


def maximal_function(f, plugin):
    """Cell norms (cell_norms), then every level's pairwise averages raise
    the best value of each cell under them."""
    norms = cell_norms(f, plugin)
    best = list(norms)
    level = norms
    size = len(norms)
    half = Fraction(1, 2)
    while size > 1:
        nxt = []
        for i in range(size // 2):
            nxt.append((level[2 * i] + level[2 * i + 1]) * half)
        width = len(norms) // len(nxt)
        for i, avg in enumerate(nxt):
            for j in range(i * width, (i + 1) * width):
                if avg > best[j]:
                    best[j] = avg
        level = nxt
        size //= 2
    return best


def restricted_weak_type(F, E, f, g, Nfun, p, q, plugin):
    """decompose.restricted_weak_type with a support test per cell, one
    value_norm per cell for the warnings, the Fraction maximal function
    above and the form summed by dual_pair per cell in Fractions."""
    if E.count == 0 or F.count == 0:
        raise ValueError("both sets must be nonempty")
    for j in range(f.cells):
        if j not in F and any(c[j] != 0 for c in f.comps):
            raise ValueError("signal not supported on F")
        if j not in E and any(c[j] != 0 for c in g.comps):
            raise ValueError("dual function not supported on E")
    if any(value_norm(v, plugin) > 1 + 1e-9 for v in f.samples):
        warnings.warn("signal exceeds pointwise norm one", stacklevel=2)
    if any(value_norm(v, plugin.dual()) > 1 + 1e-9 for v in g.samples):
        warnings.warn("dual function exceeds pointwise norm one", stacklevel=2)
    certs = []
    eF, eE = F.measure, E.measure
    if eE > eF:
        M = maximal_function(F.indicator(), plugin)
        thresh = 2 * eF / eE
        G = LevelSet.from_cells(E.L, (j for j in range(len(M)) if M[j] > thresh))
        Etilde = E.minus(G)
        certs.append(
            Certificate.make(
                "major_subset",
                eE,
                2 * Etilde.measure,
                theorem_backed=True,
                context={"exceptional_measure": G.measure},
            )
        )
        gt = g.with_components(
            [[x if j in Etilde else Fraction(0) for j, x in enumerate(comp)] for comp in g.comps]
        )
        regime = "E>F"
        log_bound = float(eF) * (1.0 + math.log(float(eE) / float(eF)))
    else:
        G = LevelSet.empty(E.L)
        Etilde = E
        gt = g
        regime = "E<=F"
        log_bound = float(eE) * (1.0 + math.log(float(eF) / float(eE)))
    Cf = carleson_bitile(f, Nfun)
    form = Fraction(0)
    for a, b in zip(zip(*Cf.comps), zip(*gt.comps)):
        form += dual_pair(a, b)
    form = abs(form * Fraction(1, f.cells))
    pf = float(p)
    pprime = pf / (pf - 1.0)
    lorentz_bound = float(eF) ** (1.0 / pf) * float(eE) ** (1.0 / pprime)
    return {
        "regime": regime,
        "form": form,
        "log_bound": log_bound,
        "log_ratio": float(form) / log_bound if log_bound > 0 else 0.0,
        "lorentz_bound": lorentz_bound,
        "lorentz_ratio": float(form) / lorentz_bound if lorentz_bound > 0 else 0.0,
        "exceptional": G.cells(),
        "major_subset": Etilde.cells(),
        "certificates": certs,
    }


# ---------------------------------------------------------------------------
# the leveled decomposition on Bitile collections

def _canonical(coll):
    return [P for _, P in sorted({P.key(): P for P in coll}.items())]


class TopIndex:
    """A set of bitile keys (k, pos, m) held per interval (k, pos) as a
    sorted list of m; the keys above (k, pos, m) in the tile order are, d
    scales up, the range (k - d, pos >> d, [m 2^d, (m+1) 2^d))."""

    def __init__(self, keys) -> None:
        self.rows = {}
        for k, pos, m in sorted(keys):
            self.rows.setdefault((k, pos), []).append(m)

    def first_above(self, k, pos, m):
        for d in range(k, -1, -1):
            row = self.rows.get((k - d, pos >> d))
            if row:
                i = bisect_left(row, m << d)
                if i < len(row) and row[i] < (m + 1) << d:
                    return (k - d, pos >> d, row[i])
        return None


def bitile_density_decompose(coll, E, Nfun, q, counter=None):
    """The density split: each dense bitile joins the first witness above
    it in canonical order."""
    coll = _canonical(coll)
    if counter is None:
        counter = DensityCounter(E, Nfun)
    found = [counter.lookup(*P.key()) for P in coll]
    scale = 1 << counter.L
    dens = Fraction(max((num for num, _ in found), default=0), scale)
    threshold = dens * _two_pow(-q) if dens else Fraction(0)
    cut = math.floor(Fraction(threshold) * scale)
    sparse = [P for P, (num, _) in zip(coll, found) if num <= cut]
    rest = [P for P, (num, _) in zip(coll, found) if num > cut]
    witnesses = TopIndex({key for num, key in found if num > cut})
    members = {}
    for P in rest:
        T = witnesses.first_above(*P.key())
        if T is None:
            raise RuntimeError("density split failed to assign every dense bitile")
        members.setdefault(T, []).append(P)
    trees = [Tree(Bitile.from_key(T), tuple(ms)) for T, ms in sorted(members.items())]
    sparse_density = Fraction(max((num for num, _ in found if num <= cut), default=0), scale)
    certs = [
        Certificate.make(
            "density_sparse", sparse_density, threshold,
            theorem_backed=True, context={"q": q, "density": dens},
        )
    ]
    if dens > 0:
        mass = sum((t.time.length for t in trees), Fraction(0))
        certs.append(
            Certificate.make(
                "density_mass", mass, _two_pow(q) / dens * E.measure, theorem_backed=True,
                context={"q": q, "trees": len(trees), "set_measure": E.measure},
            )
        )
    return DensityDecomposition(tuple(sparse), tuple(trees), tuple(certs), dens)


def take_below(remaining, top, finest):
    """Remove and return, in canonical order, the members of remaining
    (keyed by (k, pos, m)) below top in the tile order."""
    k, pos, m = top
    out = []
    for d in range(finest - k + 1):
        for p in range(pos << d, (pos + 1) << d):
            P = remaining.pop((k + d, p, m >> d), None)
            if P is not None:
                out.append(P)
    return out


def bitile_size_decompose(coll, f, q, plugin, sizes=None):
    """The size split on one grid of the evaluator, trees taken out by
    dictionary pops."""
    coll = _canonical(coll)
    if sizes is None:
        sizes = SizeEvaluator(coll, f, q, plugin)
    nonzero = nonzero_keys(sizes.coeffs)
    zero = [P for P in coll if P.key() not in nonzero]
    active = [P for P in coll if P.key() in nonzero]
    grid = sizes.grid(active)
    sigma_pow = grid.pow()
    threshold_pow = sigma_pow * _two_pow(-q)
    remaining = {P.key(): P for P in active}
    finest = max((P.time.k for P in coll), default=0)
    trees = []
    rounds = 0
    while remaining:
        rounds += 1
        if rounds > len(coll) + 1:
            raise RuntimeError("size split failed to terminate")
        pick = first_maximal_top(grid.exceeding(threshold_pow))
        if pick is None:
            break
        tree = Tree(Bitile.from_key(pick), tuple(take_below(remaining, pick, finest)))
        trees.append(tree)
        grid.remove(tree.members)
    small = sorted([*remaining.values(), *zero], key=Bitile.key)
    tiles = [(P.time.k, P.time.pos, 2 * P.m) for t in trees for P in t.up_part()]
    certs = [
        Certificate.make(
            "size_small", grid.pow(), threshold_pow, theorem_backed=True,
            context={"q": q, "note": "q-th powers of size; threshold is (size/2)^q"},
        ),
        Certificate.make(
            "down_tile_disjointness", len(meeting_tile_pairs(tiles)), 0, theorem_backed=True,
            context={"pairs_checked": len(tiles) * (len(tiles) - 1) // 2},
        ),
    ]
    mass = sum((t.time.length for t in trees), Fraction(0))
    fq_pow = sizes.fq_pow
    mass_constant = float(mass) * float(sigma_pow) / float(fq_pow) if fq_pow and float(fq_pow) > 0 else 0.0
    stats = {"top_length_sum": mass, "size_pow": sigma_pow, "mass_constant": mass_constant,
             "trees": len(trees)}
    return SizeDecomposition(
        tuple(small), tuple(trees), tuple(certs), sigma_pow, tuple(sizes.tree_pows(tree_positions(sizes.index, trees))),
        stats,
    )


def full_decompose(coll, f, E, Nfun, q, plugin, sizes=None):
    """The leveled decomposition level by level on Bitile collections:
    bitile_density_decompose, then bitile_size_decompose of the sparse
    part, each tree's density by a lookup of its members."""
    if E.count == 0:
        raise ValueError("empty level set: level exponents undefined")
    coll = _canonical(coll)
    if sizes is None:
        sizes = SizeEvaluator(coll, f, q, plugin)
    fq_pow = sizes.fq_pow
    if not float(fq_pow) > 0:
        raise ValueError("zero signal: level exponents undefined")
    nonzero = nonzero_keys(sizes.coeffs)
    counter = DensityCounter(E, Nfun)
    dens0 = density(coll, E, Nfun, counter=counter)
    n_max = starting_level(dens0, sizes.grid(coll).pow(), fq_pow, E.measure, q, f.L)
    levels = []
    active = list(coll)
    n = n_max
    while any(P.key() in nonzero for P in active):
        dres = bitile_density_decompose(active, E, Nfun, q, counter=counter)
        sres = bitile_size_decompose(dres.sparse, f, q, plugin, sizes=sizes)
        level_trees = tuple(dres.trees) + tuple(sres.trees)
        tag = _two_pow(n * q) if isinstance(q, int) else 2.0 ** (n * float(q))
        certs = list(dres.certificates) + list(sres.certificates)
        densities = tuple(density(t.members, E, Nfun, counter=counter) for t in level_trees)
        certs.append(
            Certificate.make(
                "level_density", max(densities, default=Fraction(0)), _min_one(tag * E.measure),
                theorem_backed=True, context={"n": n},
            )
        )
        tree_pows = tuple(sizes.tree_pows(tree_positions(sizes.index, dres.trees))) + sres.tree_pows
        level_size_pow = Fraction(0)
        for v in tree_pows:
            if _pow_gt(v, level_size_pow):
                level_size_pow = v
        certs.append(
            Certificate.make(
                "level_size", level_size_pow, tag * fq_pow,
                theorem_backed=_is_hilbert_case(q, plugin), context={"n": n, "note": "q-th powers"},
            )
        )
        mass = sum((t.time.length for t in level_trees), Fraction(0))
        certs.append(
            Certificate.make(
                "level_mass", mass, mass, theorem_backed=False,
                context={"n": n, "mass_constant": float(mass) * float(tag)},
            )
        )
        levels.append(LevelRecord(n, level_trees, tuple(certs), tree_pows, densities))
        active = list(sres.small)
        n -= 1
    residual = tuple(_canonical(active))
    top_certs = [
        Certificate.make(
            "residual_zero_contribution", sum(1 for P in residual if P.key() in nonzero), 0,
            theorem_backed=True, context={"residual": len(residual)},
        ),
        Certificate.make(
            "level_span", n_max - (levels[-1].n if levels else n_max), 4 * f.L,
            theorem_backed=False, context={"n_max": n_max, "levels": len(levels)},
        ),
    ]
    return LeveledForest(tuple(levels), residual, tuple(top_certs))


def first_maximal_top(mask):
    """The key of the set cell of a boolean grid below no other set cell in
    the tile order, of least frequency center, ties by key; None when no
    cell is set.  The cells above (k, pos, m) are its two parents
    (k - 1, pos >> 1, 2m) and (k - 1, pos >> 1, 2m + 1) and theirs, so one
    pass from the coarsest scale with a set cell to the finest finds the
    cells below a set one."""
    scales = np.flatnonzero(mask.any(axis=1))
    if not len(scales):
        return None
    D = mask.shape[0] - 1
    free = mask.copy()
    covered = mask[scales[0]]
    for k in range(scales[0] + 1, scales[-1] + 1):
        cols = 1 << (D - k)
        parents = covered.reshape(1 << (k - 1), cols, 2)
        below = np.empty((1 << (k - 1), 2, cols), bool)
        below[:] = (parents[..., 0] | parents[..., 1])[:, None, :]
        below = below.reshape(-1)
        free[k] &= ~below
        covered = mask[k] | below
    rows, cols = np.nonzero(free)
    shift = D - rows
    pos, m = cols >> shift, cols & ((1 << shift) - 1)
    i = ((((2 * m + 1) << rows) << D) | pos).argmin()
    return int(rows[i]), int(pos[i]), int(m[i])


# ---------------------------------------------------------------------------
# the list kernels that walsh's packet-table recurrence, LevelSet's mask
# bytes and the block draws of SplitMix64 replaced


def bit_reversal(L):
    rev = [0] * (1 << L)
    for j in range(1, 1 << L):
        rev[j] = (rev[j >> 1] >> 1) | ((j & 1) << (L - 1))
    return tuple(rev)


def _butterflies(buf):
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


def butterfly_fwht(samples, normalize=True):
    """fwht by a bit-reversal permutation and in-place butterflies."""
    size = len(samples)
    terms, finish = exact_terms(samples, size if normalize else 1)
    buf = [terms[r] for r in bit_reversal(size.bit_length() - 1)]
    _butterflies(buf)
    return [finish(x) for x in buf]


def butterfly_ifwht(coefficients):
    """ifwht by in-place butterflies and a bit-reversal permutation."""
    size = len(coefficients)
    buf, finish = exact_terms(coefficients)
    _butterflies(buf)
    return [finish(buf[r]) for r in bit_reversal(size.bit_length() - 1)]


def packet_table(terms, L):
    """The packet table as lists, each coarser row from the finer one by
    list slices: whichever is shorter of the offsets inside a block and
    the blocks."""
    row = list(terms)
    size = len(row)
    rows = [row]
    for k in range(L - 1, -1, -1):
        half = 1 << (L - k - 1)
        width = 2 * half
        nxt = [0] * size
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


def cutoff_hits(cutoffs, L):
    """The hit rule cell by cell: (k, m, neg) for every scale k at which
    N(j) >> k = 2m + 1 is odd, neg the parity of 2m & (rev(j) >> k)."""
    rev = bit_reversal(L)
    hits = []
    for j, n in enumerate(cutoffs):
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


def levelset_from_cells(L, cells):
    mask = 0
    for j in cells:
        if not 0 <= j < (1 << L):
            raise ValueError(f"cell index {j} out of range")
        mask |= 1 << j
    return LevelSet(L, mask)


def levelset_indicator(E):
    return Signal(E.L, 1, "vector", [[(E.mask >> j) & 1 for j in range(1 << E.L)]], 1)


def signal_restrict(f, E):
    keep = [j in E for j in range(f.cells)]
    return f.rebuild([[x if k else 0 for x, k in zip(c, keep)] for c in f.cols])


def numerator(rng):
    """Numerator of a uniform rational in [-1, 1) with denominator 2^16."""
    return rng.below(1 << (VALUE_DENOM_BITS + 1)) - (1 << VALUE_DENOM_BITS)


def shuffle(rng, items):
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


def gen_signal(L, d, kind, rng):
    """gen.gen_signal with one below() per value entry."""
    width = d * d if kind == "matrix" else d
    cells = [[numerator(rng) for _ in range(width)] for _ in range(1 << L)]
    return Signal(L, d, kind, list(zip(*cells)), 1 << VALUE_DENOM_BITS)


def gen_nfun(L, rng):
    """gen.gen_nfun with one below() per cell."""
    top = (1 << L) + 1
    return FrequencyChoice(L, tuple(rng.below(top) for _ in range(1 << L)))
