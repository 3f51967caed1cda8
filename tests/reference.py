"""Retained reference implementations, kept as oracles for the fast paths,
and helpers that only the tests use.

- bitile_lt / tiles_disjoint / bitiles_overlap, size, member_form_terms,
  pairing_inf, Root2Scaled with the exact values of a WavePacket,
  gen_tree_members: small helpers the library itself no longer calls.
- WavePacket / wave_packet / wave_packet_pattern / haar_pattern: packets
  as full-grid {-1, 0, +1} sign patterns.
- HistogramCounter / local_density_walk: the cumulative-histogram density
  counter (O(4^L) memory) and the walk over every ancestor of a bitile,
  coarse scales first and m ascending, keeping the first strict maximum.
- down_coefficients: the down-packet pairings summed in Fraction (or
  float) arithmetic, sample by sample.
- member_weights / hilbert_top_sums: the q = 2 Parseval masses and their
  up-sums in Fraction arithmetic, keyed by Bitile.
- sweep_pow: the q = 2 size power from the dictionary sweep over
  up_ancestor_keys that the dense up-sum grids replaced for exact masses,
  taking the first largest sum in the sweep's key order.
- size_decompose_hilbert: the greedy size split of the Hilbert case on
  those Fraction sums.
- packet_sum: one entry of the Walsh packet table, summed sample by
  sample against the packet's sign pattern.
- carleson_direct / carleson_bitile / member_form_products: the
  per-cell, per-bitile and per-member loops the packet table replaced,
  summing each packet's samples in cell order from exact_terms' zero.
- down_packet_sum (with per-member signs and cell masks) /
  haar_packet_sum / martingale_transform / split_sums /
  tile_type_constant: the synthesis loops that walsh.packet_synthesis and
  walsh.cutoff_hits replaced, adding Fraction (or float) multiples of
  each packet's sign pattern cell by cell, with a masked full-grid
  synthesis per gap interval and part for tree_form_sum's split sums.
- gap_set / gj_certificate: the gap set by the up-window test of every
  member on every cell of J, which walsh.cutoff_hits replaced.
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
from tilewalsh.signal import LevelSet, exact_terms, lq_norm, lq_norm_pow, value_norm
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
from tilewalsh.walsh import bit_reverse, walsh, walsh_value


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


def size(coll, f, q, plugin):
    """The size: the q-th root of the largest tree_delta_pow over the
    complete up-trees below every candidate top."""
    coll = list(coll)
    best = Fraction(0)
    for T in candidate_tops(coll):
        val = tree_delta_pow(complete_up_tree(T, coll), f, q, plugin)
        if _pow_gt(val, best):
            best = val
    return float(best) ** (1.0 / float(q))


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


def hilbert_top_sums(coll, weights) -> dict[Bitile, Fraction]:
    sums: dict[Bitile, Fraction] = {}
    for P in sorted(coll, key=Bitile.key):
        w = weights[P]
        for T in up_ancestors(P):
            sums[T] = sums.get(T, Fraction(0)) + w
    return sums


def sweep_pow(coll, weights):
    """max_T S(T) 2^k_T / den over a dictionary of up-sums filled member by
    member in canonical order; Fraction(0) when no sum is positive."""
    sums = {}
    for key in sorted(P.key() for P in coll):
        w = weights.num[key]
        for T in up_ancestor_keys(*key):
            sums[T] = sums.get(T, 0) + w
    best = max((s * (1 << T[0]) for T, s in sums.items()), default=0)
    return weights.value(best) if best > 0 else Fraction(0)


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
    sigma_pow = size_pow(active, f, q, plugin, coeffs=coeffs, weights=weights)
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
    small_pow = size_pow(small, f, q, plugin, coeffs=coeffs, weights=weights)
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
        size_pow(t.members, f, q, plugin, coeffs=coeffs, weights=weights) for t in trees
    )
    return SizeDecomposition(
        tuple(small), tuple(trees), tuple(certs), sigma_pow, tree_pows, stats
    )


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
                    1e-9 * max(1.0, abs(upow_f)), theorem_backed=True, context={"tree": idx},
                )
            )
            total_pow = float(total_pow) + upow_f
            exact_total = False
        else:
            certs.append(
                Certificate.make(
                    "packet_haar_norm_equality", abs(upow - hpow), Fraction(0),
                    theorem_backed=True, context={"tree": idx},
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
