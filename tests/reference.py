"""Retained reference implementations, kept as oracles for the fast paths,
and helpers that only the tests use.

- bitile_lt / tiles_disjoint / bitiles_overlap, size, member_form_terms,
  pairing_inf, Root2Scaled with the exact values of a WavePacket,
  gen_tree_members: small helpers the library itself no longer calls.
- HistogramCounter / local_density_walk: the cumulative-histogram density
  counter (O(4^L) memory) and the walk over every ancestor of a bitile,
  coarse scales first and m ascending, keeping the first strict maximum.
- down_coefficients: the down-packet pairings summed in Fraction (or
  float) arithmetic, sample by sample.
- member_weights / hilbert_top_sums: the q = 2 Parseval masses and their
  up-sums in Fraction arithmetic, keyed by Bitile.
- size_decompose_hilbert: the greedy size split of the Hilbert case on
  those Fraction sums.
- packet_sum: one entry of the Walsh packet table, summed sample by
  sample against the packet's sign pattern.
- carleson_direct / carleson_bitile / member_form_products: the
  per-cell, per-bitile and per-member loops the packet table replaced,
  summing each packet's samples in cell order from exact_terms' zero.
- density_decompose / size_decompose / down_tile_violations: the greedy
  splits that re-test every top each round and find maximal tops by
  pairwise comparison, with a fresh up-sum sweep for the size of the
  collection, of the remainder and of every tree, and the pairwise scan
  for meeting down-tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from tilewalsh import timefreq
from tilewalsh.certificates import Certificate
from tilewalsh.decompose import DensityDecomposition, SizeDecomposition, _two_pow
from tilewalsh.dyadic import Bitile, DyadicInterval, Tile, bitile_le, bitile_universe
from tilewalsh.gen import SplitMix64
from tilewalsh.operators import walsh_coefficients
from tilewalsh.signal import exact_terms, lq_norm, lq_norm_pow
from tilewalsh.timefreq import (
    DensityCounter,
    Tree,
    _is_hilbert_case,
    _pow_gt,
    candidate_tops,
    complete_up_tree,
    down_coefficients_inf,
    hilbert_member_weights,
    hilbert_top_sums as int_top_sums,
    local_density,
    size_pow,
    tree_delta_pow,
    up_ancestor_keys,
)
from tilewalsh.walsh import WavePacket, bit_reverse, walsh, wave_packet_pattern


# ---------------------------------------------------------------------------
# helpers only the tests use


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


def size(coll, f, q, plugin, tops=None):
    """(size, witness tree) from size_pow."""
    pow_val, witness = size_pow(coll, f, q, plugin, tops)
    return float(pow_val) ** (1.0 / float(q)), witness


def member_form_terms(tree_members, f, g, E, Nfun):
    """Absolute values of timefreq.member_form_products."""
    return {
        P: abs(v)
        for P, v in timefreq.member_form_products(tree_members, f, g, E, Nfun).items()
    }


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
    for coef in walsh_coefficients(f):
        terms, zero, finish = exact_terms(coef)
        comp = []
        for j in range(f.cells):
            rj = bit_reverse(j, f.L)
            acc = zero
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
    comps, zeros, finishes = zip(*(exact_terms(comp, f.cells) for comp in f.comps))
    out_comps = [[zero] * f.cells for zero in zeros]
    for P in bitile_universe(L).items:
        k = P.time.k
        local = L - k
        base = P.time.pos << local
        pattern = walsh(2 * P.m, local) if local else (1,)
        lo, hi = P.up.freq_lo, P.up.freq_hi
        hit = [jl for jl in range(1 << local) if lo <= Nfun[base + jl] < hi]
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


def member_form_products(members, f, g, E, Nfun):
    fco = down_coefficients(f, members)
    flat, zero, finish = exact_terms([x for comp in g.comps for x in comp], g.cells)
    gcomps = [flat[i : i + g.cells] for i in range(0, len(flat), g.cells)]
    terms = {}
    for P in members:
        local = g.L - P.time.k
        base = P.time.pos << local
        pattern = walsh(2 * P.m, local) if local else (1,)
        lo, hi = P.up.freq_lo, P.up.freq_hi
        gvec = []
        for comp in gcomps:
            acc = zero
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
    """The size split with tree_pows from size_pow on every tree."""
    coll = sorted(set(coll), key=Bitile.key)
    coeffs = down_coefficients_inf(f, coll)
    zero = [P for P in coll if all(c == 0 for c in coeffs[P])]
    active = [P for P in coll if any(c != 0 for c in coeffs[P])]

    hilbert = _is_hilbert_case(q, plugin)
    weights = hilbert_member_weights(coll, coeffs) if hilbert else None
    sigma_pow, _ = size_pow(active, f, q, plugin, coeffs=coeffs, weights=weights)
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
                if sums[T] > 0 and weights.exceeds(sums[T] * (1 << T[0]), threshold_pow)
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
    small_pow, _ = size_pow(small, f, q, plugin, coeffs=coeffs, weights=weights)
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
    tree_pows = tuple(
        size_pow(t.members, f, q, plugin, coeffs=coeffs, weights=weights)[0] for t in trees
    )
    return SizeDecomposition(
        tuple(small), tuple(trees), tuple(certs), sigma_pow, tree_pows, stats
    )
