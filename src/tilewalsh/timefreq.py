"""Trees of bitiles, the up-tree sign identity, density and size
functionals, and the tree-lemma sums with their interval diagnostics."""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Container, Iterable, Iterator, Sequence

import numpy as np

from .certificates import Certificate
from .dyadic import (
    Bitile,
    BitileIndex,
    DyadicInterval,
    bitile_le,
    bitile_le_d,
    bitile_le_u,
    cell_codes,
    cell_keys,
    in_grid,
    key_arrays,
)
from .signal import (
    FrequencyChoice,
    LevelSet,
    NormPlugin,
    Signal,
    _frobenius_like,
    int_dtype,
    lq_norm,
    lq_norm_pow,
    nest,
    value_norm,
    value_norms,
)
from .walsh import (
    _int_array,
    bit_reverse,
    cutoff_hits,
    cutoff_scales,
    packet_rows,
    packet_synthesis,
    walsh_value,
)


# ---------------------------------------------------------------------------
# trees

@dataclass(frozen=True)
class Tree:
    """A top bitile together with member bitiles below it in the tile order.

    The top need not be a member.  up_part() filters members below the top
    in the up-tile order (used by the size functional); split() separates
    the down-ordered members from the rest (used by the tree-lemma sums).
    """

    top: Bitile
    members: tuple[Bitile, ...]

    def __post_init__(self) -> None:
        for P in self.members:
            if not bitile_le(P, self.top):
                raise ValueError(f"member {P} not below top {self.top}")

    @staticmethod
    def build(top: Bitile, members: Iterable[Bitile]) -> "Tree":
        return Tree(top, tuple(sorted(set(members), key=Bitile.key)))

    def up_part(self) -> tuple[Bitile, ...]:
        return tuple(P for P in self.members if bitile_le_u(P, self.top))

    def split(self) -> tuple[tuple[Bitile, ...], tuple[Bitile, ...]]:
        """(down members, remaining members); the top itself counts as down."""
        down = tuple(P for P in self.members if bitile_le_d(P, self.top))
        down_set = set(down)
        rest = tuple(P for P in self.members if P not in down_set)
        return down, rest

    @property
    def time(self) -> DyadicInterval:
        return self.top.time

    def to_json(self) -> dict:
        return {
            "top": self.top.to_json(),
            "members": [P.to_json() for P in self.members],
        }

    @staticmethod
    def from_json(obj: dict) -> "Tree":
        return Tree.build(
            Bitile.from_json(obj["top"]),
            (Bitile.from_json(p) for p in obj["members"]),
        )


@dataclass(frozen=True)
class TreeFamily:
    """A list of trees; tile-type estimation requires all down-tiles of all
    (member, tree) pairs to be pairwise disjoint."""

    trees: tuple[Tree, ...]

    def down_disjointness_violations(self) -> list[tuple[Bitile, int, Bitile, int]]:
        """(Pa, ia, Pb, ib) for every pair of (member, tree) entries, in
        member order, whose down-tiles meet."""
        pairs = [
            (P, idx) for idx, tree in enumerate(self.trees) for P in tree.members
        ]
        tiles = [(P.time.k, P.time.pos, 2 * P.m) for P, _ in pairs]
        return [(*pairs[a], *pairs[b]) for a, b in meeting_tile_pairs(tiles)]


def meeting_tile_pairs(tiles: Sequence[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """Index pairs (a, b), a < b, in ascending order, of the tiles that meet;
    a tile is (k, pos, n), the time interval (k, pos) with frequency index n.

    Two dyadic tiles meet iff the finer one lies below the coarser one in the
    tile order: d = k - k' >= 0 scales up, its interval lies in
    (k', pos >> d) and n' >> d == n.  So each tile looks up, per scale, the
    range [n 2^d, (n+1) 2^d) in the tiles of (k', pos >> d) sorted by index:
    O(n L log n) plus the pairs found."""
    rows: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, (k, pos, n) in enumerate(tiles):
        rows.setdefault((k, pos), []).append((n, i))
    for row in rows.values():
        row.sort()
    pairs = []
    for a, (k, pos, n) in enumerate(tiles):
        for d in range(k + 1):
            row = rows.get((k - d, pos >> d))
            if row is None:
                continue
            hi = (n + 1) << d
            for i in range(bisect_left(row, (n << d, -1)), len(row)):
                nb, b = row[i]
                if nb >= hi:
                    break
                # equal tiles (d = 0) would otherwise be found from both ends
                if d or b > a:
                    pairs.append((a, b) if a < b else (b, a))
    pairs.sort()
    return pairs


# ---------------------------------------------------------------------------
# ancestor enumeration

def up_ancestor_keys(k: int, pos: int, m: int) -> Iterator[tuple[int, int, int]]:
    """Keys (k', pos', m') of all bitiles T with the bitile (k, pos, m)
    below T in the up-tile order, I_T in [0,1), coarser scales first.

    d scales up, the up-tile windows inside [(2m+1) 2^k, (2m+2) 2^k) are
    those of m' in [(2m+1) 2^(d-1), (m+1) 2^d): an integer range, so no
    bitile objects are built.
    """
    for d in range(k, 0, -1):
        posp = pos >> d
        for mp in range((2 * m + 1) << (d - 1), (m + 1) << d):
            yield (k - d, posp, mp)
    yield (k, pos, m)


def up_ancestors(P: Bitile) -> Iterator[Bitile]:
    """All bitiles T with P below T in the up-tile order, I_T in [0,1)."""
    for key in up_ancestor_keys(*P.key()):
        yield Bitile.from_key(key)


# ---------------------------------------------------------------------------
# the up-tree sign identity

def epsilon_pt(P: Bitile, T: Bitile) -> int:
    """Constant sign relating the down packet of P to the up packet of T
    times the Haar pattern of I_P, for P below T in the up-tile order.

    Evaluates the finished digit product at the left endpoint of I_P; any
    interior point gives the same value.
    """
    if not bitile_le_u(P, T):
        raise ValueError(f"{P} is not below {T} in the up-tile order")
    k = P.time.k - T.time.k
    if k == 0:
        return 1
    p_loc = P.time.pos - (T.time.pos << k)
    n_t = 2 * T.m + 1
    bits = (n_t & ((1 << k) - 1)) & bit_reverse(p_loc, k)
    return -1 if bits.bit_count() & 1 else 1


def verify_tree_identity(P: Bitile, T: Bitile, L: int) -> bool:
    """Pointwise exact check that the down packet of P equals
    epsilon_pt * (up packet of T, sup-normalized) * (Haar function of I_P)
    on every grid cell."""
    if not bitile_le_u(P, T):
        raise ValueError(f"{P} is not below {T} in the up-tile order")
    if P.time.k >= L:
        raise ValueError("Haar pattern of I_P not grid-constant at this resolution")
    n_t = 2 * T.m + 1
    if n_t >= (1 << (L - T.time.k)):
        raise ValueError("up packet of T oscillates below cell scale")
    eps = epsilon_pt(P, T)
    kP, kT = P.time.k, T.time.k
    n_d = 2 * P.m
    if n_d >= (1 << (L - kP)):
        raise ValueError("down packet of P oscillates below cell scale")
    baseP = P.time.pos << (L - kP)
    baseT = T.time.pos << (L - kT)
    half = 1 << (L - kP - 1)
    for jl in range(1 << (L - kP)):
        j = baseP + jl
        lhs = walsh_value(n_d, jl, L - kP) if L > kP else 1
        wT = walsh_value(n_t, j - baseT, L - kT)
        haar = 1 if jl < half else -1
        if lhs != eps * wT * haar:
            return False
    return True


# ---------------------------------------------------------------------------
# wave packet sums over member sets

def down_coefficient_rows(f: Signal, k: np.ndarray, pos: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, int]:
    """Sup-normalized pairings of every component of f with the down
    packets of the bitiles with key arrays k, pos and m, as (rows, den):
    row i holds entry (k, pos 2^(L-k) + 2m) of each component's packet
    table (walsh.packet_rows, one fancy index), over den = f.den 2^L."""
    L = f.L
    bad = np.flatnonzero((k > L) | ((2 * m) >> np.maximum(L - k, 0) != 0))
    if len(bad):
        P = Bitile.from_key((int(k[bad[0]]), int(pos[bad[0]]), int(m[bad[0]])))
        raise ValueError(f"down packet of {P} oscillates below cell scale at L={L}")
    return packet_rows(f.cols, L)[k, :, (pos << (L - k)) + 2 * m], f.den << L


def down_coefficients(f: Signal, members: Sequence[Bitile]) -> tuple[dict[tuple[int, int, int], list[int]], int]:
    """down_coefficient_rows of members keyed by (k, pos, m), as the pair
    (values, den) of Python-int numerators over den."""
    keys = [P.key() for P in members]
    rows, den = down_coefficient_rows(f, *key_arrays(keys))
    return dict(zip(keys, rows.tolist())), den


def down_coefficients_inf(f: Signal, members: Sequence[Bitile]) -> dict[Bitile, list[Fraction]]:
    """down_coefficients keyed by member, exact values as Fractions."""
    values, den = down_coefficients(f, members)
    return {P: [Fraction(n, den) for n in values[P.key()]] for P in members}


# ---------------------------------------------------------------------------
# density

class DensityCounter:
    """Local density of every grid bitile relative to a set E and a cutoff
    choice N, as one table on the cell grid of depth L (see dyadic), built
    in O(L 2^L).  The occupied fraction of a bitile is an integer numerator
    over 2^L,

        own(k, pos, m) = #{j in E : j >> (L-k) = pos, N(j) >> (k+1) = m} << k,

    one bincount of the cells of E per scale; it is 0 where the window
    starts above the top cutoff, 2m 2^k > 2^L.  The ancestors of a bitile
    are itself and the ancestors of its two coarser parents
    (k-1, pos>>1, 2m) and (k-1, pos>>1, 2m+1), which split its window in
    halves; so, scale by scale from the coarsest,

        best(k, pos, m) = max(own(k, pos, m), best of the two parents).

    A cell packs the numerator and the witness's flat code as
    num << B | (C - code), C = 2^B - 1.  The ancestors of one bitile have
    one pos' per scale, so a smaller code is a smaller (k', m'), and the
    maximum breaks ties towards it: the first strict maximum of a walk over
    the ancestors with coarse scales first and m ascending.  num has at
    most L + 1 bits and code at most B = L + 5, so L is at most 28.
    """

    def __init__(self, E: LevelSet, Nfun: FrequencyChoice) -> None:
        if E.L != Nfun.L:
            raise ValueError("resolution mismatch between set and cutoff choice")
        L = self.L = E.L
        if 2 * L + 6 > 63:
            raise ValueError(f"density table of L={L} does not fit int64: 2L + 6 > 63 bits")
        B = self.bits = L + 5
        j = np.array(E.cells(), np.int64)
        n = np.array(Nfun.values, np.int64)[j]
        cols = np.arange(1 << L)
        self.table = np.empty((L + 1, 1 << L), np.int64)
        for k in range(L + 1):
            own = np.bincount(((j >> (L - k)) << (L - k)) + (n >> (k + 1)), minlength=1 << L)
            best = (own << (k + B)) | (((1 << B) - 1 - (k << L)) - cols)
            if k:
                pairs = self.table[k - 1].reshape(1 << (k - 1), 1 << (L - k), 2).max(axis=2)
                np.maximum(best, np.repeat(pairs, 2, axis=0).reshape(-1), out=best)
            self.table[k] = best

    def gather(self, k: np.ndarray, pos: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(numerators over 2^L, witness codes in the grid of depth L) of
        the local densities of the bitiles with key arrays k, pos and m.
        The numerator is 0 for a bitile outside the table, whose interval
        lies outside [0,1) or whose m is past the grid, and a witness code
        means nothing where its numerator is 0."""
        L = self.L
        if (k > L).any():
            raise ValueError(f"bitile finer than the grid: k={int(k.max())} > L={L}")
        inside = in_grid(k, pos, m, L)
        packed = np.zeros(k.shape, np.int64)
        packed[inside] = self.table.reshape(-1)[cell_codes(k[inside], pos[inside], m[inside], L)]
        low = (1 << self.bits) - 1
        return packed >> self.bits, low - (packed & low)

    def lookup(self, k: int, pos: int, m: int) -> tuple[int, tuple[int, int, int]]:
        """(numerator over 2^L, witness key) of the local density of the
        bitile (k, pos, m) (gather); (0, its own key) when every ancestor
        is empty, as for a bitile outside the table."""
        nums, codes = self.gather(*key_arrays([(k, pos, m)]))
        num = int(nums[0])
        return (num, cell_keys(int(codes[0]), self.L)) if num else (0, (k, pos, m))


def local_density(
    P: Bitile, counter: DensityCounter
) -> tuple[Fraction, Bitile]:
    """Largest occupied fraction over the ancestors of P, with the first
    maximizing ancestor (coarse scales first, then m ascending) as
    witness; P itself when every ancestor is empty.  A table lookup (see
    DensityCounter.lookup)."""
    num, key = counter.lookup(*P.key())
    return Fraction(num, 1 << counter.L), (Bitile.from_key(key) if num else P)


def density(
    coll: Iterable[Bitile],
    E: LevelSet,
    Nfun: FrequencyChoice,
    counter: DensityCounter | None = None,
) -> Fraction:
    """Density of a bitile collection relative to the set E and cutoff N:
    the largest numerator of one gather, made a Fraction once."""
    if counter is None:
        counter = DensityCounter(E, Nfun)
    nums, _ = counter.gather(*key_arrays([P.key() for P in coll]))
    return Fraction(int(nums.max(initial=0)), 1 << counter.L)


# ---------------------------------------------------------------------------
# size

def _is_hilbert_case(q, plugin: NormPlugin) -> bool:
    """q = 2 with a Hilbert-space norm: Delta^2 is a coefficient sum."""
    return q == 2 and _frobenius_like(plugin)


def _pow_gt(a, b) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a > b
    return float(a) > float(b)


def tree_delta_pow(
    tree: Tree,
    f: Signal,
    q,
    plugin: NormPlugin,
    coeffs: tuple[dict, int] | None = None,
):
    """q-th power of the normalized L^q mass of the up-part packet sum:
    the sum vanishes off I_T, so it is synthesized on the 2^l cells of I_T,
    l = L - k_T, from the down_coefficients pair coeffs (integers over its
    den), and its mass is the mean over them; exact
    (lq_norm_pow) where representable, else float norms added in cell
    order."""
    up = tree.up_part()
    if not up:
        return Fraction(0)
    values, den = coeffs if coeffs is not None else down_coefficients(f, up)
    kT, posT = tree.top.time.k, tree.top.time.pos
    l = f.L - kT
    entries = []
    for P in up:
        k, pos, m = key = P.key()
        entries.append((k - kT, pos - (posT << (k - kT)), 2 * m, [c * (1 << k) for c in values[key]]))
    g = Signal(l, f.d, f.kind, packet_synthesis(entries, len(f.cols), l), den)
    exact = lq_norm_pow(g, q, plugin)
    if exact is not None:
        return exact
    total = 0.0
    qf = float(q)
    for x in value_norms(g, plugin):
        total += x**qf
    return total / g.cells


@dataclass(frozen=True, eq=False)
class HilbertWeights:
    """Per-member quadratic masses w_P = 2^k_P sum_i c_i^2 over the down
    coefficients c_i of P, in index order, for the q = 2 Parseval
    evaluation Delta(T)^2 = 2^k_T sum_{P <=_u T} w_P (UpSumGrid): integer
    numerators in the _mass_dtype of their total, over one den, the
    squared lcm of the reduced coefficient denominators."""

    index: BitileIndex
    masses: np.ndarray
    den: int

    def pow_of(self, best: int) -> Fraction:
        """A largest S(T) 2^k_T as the size power best / den; Fraction(0)
        unless it is positive."""
        return Fraction(best, self.den) if best > 0 else Fraction(0)


def _bits(a: np.ndarray) -> int:
    """The bit length of the largest magnitude in an integer array."""
    return int(np.abs(a).max(initial=0)).bit_length()


def member_masses(index: BitileIndex, rows: np.ndarray, den: int) -> HilbertWeights:
    """The exact masses of the members of index whose down coefficients
    are the numerators rows over den (down_coefficient_rows):
    (sum_i n_i^2) 2^k over den^2, with the gcd g of den and every
    numerator divided out, summed in int64 when their total has room.
    den / g is the lcm of the reduced coefficient denominators, since
    lcm(den / a, den / b) = den / gcd(a, b) for divisors a, b of den."""
    common = int(np.gcd.reduce(rows, axis=None, initial=0))
    g = math.gcd(den, common)
    # all zero: g = den, which need not fit the rows' dtype
    n, k = rows // g if common else rows, index.k
    if 2 * _bits(n) + int(k.max(initial=0)) + rows.size.bit_length() > 62:
        n, k = n.astype(object), k.astype(object)
    masses = (n * n).sum(axis=1) << k
    return HilbertWeights(index, masses.astype(_mass_dtype(int(masses.sum()))), (den // g) ** 2)


def _mass_dtype(total: int):
    """The int_dtype of a total mass, which bounds every partial sum of
    it."""
    return int_dtype(total.bit_length())


def up_sum_grids(mass: np.ndarray) -> np.ndarray:
    """Up-sums of a batch of mass grids of depth D, shape (n, D + 1, 2^D):
    row k of a grid holds the cells (k, pos, m), pos < 2^k and m < 2^(D-k),
    at column pos 2^(D-k) + m, and the result holds at each cell the sum of
    the masses at or below it in the up-tile order.

    d scales down, the cells below (k, pos, m) are the 2^d positions under
    pos at m >> d, and only when bit d-1 of m is set.  So the part strictly
    below, Z_k = S_k - W_k, comes from scale k + 1 with B adding the two
    positions under pos: Z_k(pos, 2c) = B Z_{k+1}(pos, c) and
    Z_k(pos, 2c + 1) = B S_{k+1}(pos, c).  O(D 2^D) additions per grid,
    exact in the array's integer or object dtype."""
    n, levels, width = mass.shape
    sums = mass.copy()
    below = np.zeros((n, width), mass.dtype)
    for k in range(levels - 2, -1, -1):
        # scale k + 1 as 2^k pairs of rows, each pair side by side
        cols = width >> (k + 1)
        strict = below.reshape(n, 1 << k, 2 * cols)
        full = sums[:, k + 1].reshape(n, 1 << k, 2 * cols)
        below = np.empty((n, 1 << k, cols, 2), mass.dtype)
        np.add(strict[..., :cols], strict[..., cols:], out=below[..., 0])
        np.add(full[..., :cols], full[..., cols:], out=below[..., 1])
        below = below.reshape(n, width)
        sums[:, k] += below
    return sums


def top_mask(tops: Sequence[tuple[int, int, int]], depth: int) -> np.ndarray:
    """Boolean grid of the given depth with the cells of the keys tops set."""
    mask = np.zeros((depth + 1) << depth, bool)
    mask[cell_codes(*key_arrays(tops), depth)] = True
    return mask.reshape(depth + 1, 1 << depth)


class UpSumGrid:
    """The up-sums S(T) of the masses of a collection over every top T at
    once, on dense per-scale grids of the collection's depth (up_sum_grids,
    BitileIndex.extent); Delta(T)^2 = S(T) 2^k_T / den is the q = 2
    Hilbert size of the complete up-tree below T.

    The masses sit in int64 cells when the total mass has at most 62
    bits, so that no partial sum overflows, and in Python ints (dtype
    object) otherwise (HilbertWeights.masses); both run the same code.  It
    holds the positions sel of the weights' index with their cells, and
    removing bitiles or positions of sel zeroes their cells and sums
    again."""

    def __init__(self, weights: HilbertWeights, sel: np.ndarray):
        self.weights, index = weights, weights.index
        self.depth = D = int(index.extent[sel].max(initial=0))
        self.codes = np.zeros(len(index.keys), np.int64)
        self.codes[sel] = index.cells(sel, D)
        self.mass = np.zeros((1, D + 1, 1 << D), weights.masses.dtype)
        self.mass.reshape(-1)[self.codes[sel]] = weights.masses[sel]
        self.sums = up_sum_grids(self.mass)[0]
        self.cuts = (None, None)

    def remove(self, members) -> None:
        """Take members of the collection out of it."""
        self.mass.reshape(-1)[self.codes[self.weights.index.select(members)]] = 0
        self.sums = up_sum_grids(self.mass)[0]

    def pow(self) -> Fraction:
        """The q = 2 size power max_T S(T) 2^k_T / den of the members left;
        Fraction(0) when no sum is positive."""
        best = max(x << k for k, x in enumerate(self.sums.max(axis=1).tolist()))
        return self.weights.pow_of(best)

    def exceeding(self, bound) -> np.ndarray:
        """Boolean grid of the tops T with S(T) 2^k_T / den > bound, the
        sums compared per scale with the integer floor(bound den / 2^k), so
        that no product S 2^k is formed in int64; the cuts are made once
        per bound."""
        if self.cuts[0] != bound:
            cuts = [
                bound.numerator * self.weights.den // (bound.denominator << k)
                for k in range(self.depth + 1)
            ]
            if self.sums.dtype != object:
                # sums stay below 2^62
                cuts = [min(c, 1 << 62) for c in cuts]
            self.cuts = (bound, np.array(cuts, self.sums.dtype)[:, None])
        return self.sums > self.cuts[1]


def hilbert_top_sums(
    coll: Sequence[Bitile], weights: HilbertWeights
) -> dict[tuple[int, int, int], int]:
    """For every candidate top T, an up-ancestor of a bitile of coll (in
    the weights' index), keyed by (k, pos, m), the sum S(T) of the masses
    below it in the up-tile order over weights.den, zero sums included,
    from a sweep in canonical order; Delta(T)^2 = S(T) 2^k_T / den.  The
    library's own sizes come from UpSumGrid."""
    index = weights.index
    sel = index.select(coll)
    sums: dict[tuple[int, int, int], int] = {}
    for i, w in zip(sel.tolist(), weights.masses[sel].tolist()):
        for T in up_ancestor_keys(*index.keys[i]):
            sums[T] = sums.get(T, 0) + w
    return sums


def hilbert_tree_pows(trees: Sequence[tuple], weights: HilbertWeights) -> list[Fraction]:
    """size_pow of the members of each tree in the Hilbert case, the trees
    as (top key, member positions in the weights' index).

    The members of a tree with top (k_T, pos_T, m_T) lie d scales below it
    at m_T >> d.  Their up-ancestors e scales below the top lie under pos_T
    and agree with m_T >> e in every bit from D - e up, D the members'
    greatest depth below the top; an up-ancestor u scales above the top,
    with m >> u = x, has at most the up-sum of (k_T, pos_T, x) and a
    smaller 2^k.  So each tree takes a grid of depth D of its own, the cell
    (k_T + d, pos, m) at (d, pos - pos_T 2^d, m mod 2^(D-d)), and the trees
    of one depth go through up_sum_grids together."""
    out = [Fraction(0)] * len(trees)
    if not trees:
        return out
    index, members = weights.index, np.concatenate([ms for _, ms in trees])
    owner = np.repeat(np.arange(len(trees)), [len(ms) for _, ms in trees])
    top_k, top_pos, _ = key_arrays([top for top, _ in trees])
    d = index.k[members] - top_k[owner]
    pos, m, masses = index.pos[members] - (top_pos[owner] << d), index.m[members], weights.masses[members]
    depth = np.full(len(trees), -1)
    np.maximum.at(depth, owner, d)
    top_k = top_k.tolist()
    for D in sorted(set(depth.tolist()) - {-1}):
        group = np.flatnonzero(depth == D)
        # at most 2^20 cells at once
        step = max(1, (1 << 20) // ((D + 1) << D))
        for start in range(0, len(group), step):
            batch = group[start : start + step]
            slot = np.full(len(trees), -1)
            slot[batch] = np.arange(len(batch))
            at = np.flatnonzero(slot[owner] >= 0)
            e = d[at]
            cols = (pos[at] << (D - e)) + (m[at] & ((1 << (D - e)) - 1))
            mass = np.zeros((len(batch), D + 1, 1 << D), masses.dtype)
            mass[slot[owner[at]], e, cols] = masses[at]
            for row, i in zip(up_sum_grids(mass).max(axis=2).tolist(), batch.tolist()):
                out[i] = weights.pow_of(max(x << (top_k[i] + e) for e, x in enumerate(row)))
    return out


def _lq_pow(f: Signal, q, plugin: NormPlugin):
    """|f|_q^q; exact when representable, else from the float norm."""
    fq_pow = lq_norm_pow(f, q, plugin)
    return fq_pow if fq_pow is not None else lq_norm(f, q, plugin) ** float(q)


class TreeDeltaGrid:
    """UpSumGrid's interface for every norm and q: the tree_delta_pow of
    the complete up-tree below each top of the members left, bitiles or
    positions in the evaluator's index.  One pass over the members'
    up_ancestor_keys, in canonical order, lists the members below each top;
    a removal takes anew the values of the tops above the members removed."""

    def __init__(self, coll, sizes: SizeEvaluator) -> None:
        self.sizes = sizes
        index = sizes.index
        sel = index.select(coll)
        self.below: dict[tuple[int, int, int], dict[tuple[int, int, int], Bitile]] = {}
        for i in sel.tolist():
            key = index.keys[i]
            for T in up_ancestor_keys(*key):
                self.below.setdefault(T, {})[key] = index.items[i]
        # an up-ancestor's extent never exceeds its member's
        self.depth = int(index.extent[sel].max(initial=0))
        # in canonical order of the tops, which updates keep
        self.values: dict = {}
        for T in sorted(self.below):
            self._evaluate(T)

    def _evaluate(self, T: tuple[int, int, int]) -> None:
        s = self.sizes
        tree = Tree(Bitile.from_key(T), tuple(self.below[T].values()))
        self.values[T] = tree_delta_pow(tree, s.f, s.q, s.plugin, coeffs=(s.coeffs, s.den))

    def remove(self, members) -> None:
        """Take members out of the collection."""
        keys = self.sizes.index.keys
        touched = set()
        for i in self.sizes.index.select(members).tolist():
            for T in up_ancestor_keys(*keys[i]):
                if self.below.get(T, {}).pop(keys[i], None) is not None:
                    touched.add(T)
        for T in sorted(touched):
            if self.below[T]:
                self._evaluate(T)
            else:
                del self.below[T], self.values[T]

    def pow(self):
        """The first largest value; Fraction(0) unless one is positive."""
        best = Fraction(0)
        for val in self.values.values():
            if _pow_gt(val, best):
                best = val
        return best

    def exceeding(self, bound) -> np.ndarray:
        """Boolean grid of the tops whose value exceeds bound."""
        return top_mask([T for T, val in self.values.items() if _pow_gt(val, bound)], self.depth)


class SizeEvaluator:
    """The sizes of one run, built once from a collection, the signal f,
    q and the norm: the members' BitileIndex and, in index order, their
    down coefficients (coef, numerators over den), the mask of those with
    one nonzero (nonzero) and, in the q = 2 Hilbert case, their masses
    (weights), whose Parseval up-sums give every size there; other norms
    and q resynthesize the packet sum below each top (coeffs)."""

    def __init__(self, coll: Sequence[Bitile], f: Signal, q, plugin: NormPlugin) -> None:
        self.f, self.q, self.plugin = f, q, plugin
        self.index = index = BitileIndex(coll)
        self.coef, self.den = down_coefficient_rows(f, index.k, index.pos, index.m)
        self.nonzero = (self.coef != 0).any(axis=1)
        self.weights = member_masses(index, self.coef, self.den) if _is_hilbert_case(q, plugin) else None

    @cached_property
    def fq_pow(self):
        return _lq_pow(self.f, self.q, self.plugin)

    @cached_property
    def coeffs(self) -> dict[tuple[int, int, int], list[int]]:
        """The coefficients as Python-int lists keyed by (k, pos, m)."""
        return dict(zip(self.index.keys, self.coef.tolist()))

    def grid(self, coll) -> UpSumGrid | TreeDeltaGrid:
        """The sizes of the complete up-trees of coll, bitiles or positions
        in the index: pow() of the members left, exceeding(bound) and
        remove(members)."""
        if self.weights is None:
            return TreeDeltaGrid(coll, self)
        return UpSumGrid(self.weights, self.index.select(coll))

    def tree_pows(self, trees: Sequence[tuple]) -> list:
        """The size power of the members of each tree, the trees as (top
        key, member positions in the index)."""
        if self.weights is None:
            return [self.grid(ms).pow() for _, ms in trees]
        return hilbert_tree_pows(trees, self.weights)

    def form_products(self, g: Signal, E: LevelSet, Nfun: FrequencyChoice) -> tuple[np.ndarray, int]:
        """(products, den): member_form_products of the index's members in
        index order, integer numerators over den (member_form_ints)."""
        return member_form_ints(self.index, self.coef, g, E, Nfun), self.den * (g.den << g.L)


def size_pow(coll: Sequence[Bitile], f: Signal, q, plugin: NormPlugin):
    """q-th power of the size: the largest tree_delta_pow over the complete
    up-tree below every candidate top (SizeEvaluator.grid).  In the
    Hilbert q = 2 case the size equals the supremum over all up-subtrees."""
    return SizeEvaluator(coll, f, q, plugin).grid(coll).pow()


# ---------------------------------------------------------------------------
# tree-lemma machinery

def member_form_ints(
    index: BitileIndex,
    coef: np.ndarray,
    g: Signal,
    E: LevelSet,
    Nfun: FrequencyChoice,
) -> np.ndarray:
    """member_form_products in integers, in index order: with f's down
    coefficient numerators F = coef over D_f, the product
    (sum_i F_i G_i) 2^k over D_f g.den 2^L, G_i the signed sum of g's
    numerators over the cells of E in the up-window against the down
    packet.  Cell j is in the up-window of (k, j >> (L - k), m) exactly
    when hit there (walsh.cutoff_scales), where the down packet is w_2m:
    one add.at per scale.  int64 when the magnitudes' sum fits."""
    L, D = g.L, index.depth
    cols = _int_array(g.cols, L)
    in_E = E.bits().astype(bool)
    at_cell = index.at_cell.reshape(-1)
    G = np.zeros((len(index.keys), len(cols)), cols.dtype)
    for k, cells, m, neg in cutoff_scales(Nfun.values, L):
        if k > D:
            break
        keep = in_E[cells] & (m >> (D - k) == 0)
        cells, m, neg = cells[keep], m[keep], neg[keep]
        at = at_cell[cell_codes(k, cells >> (L - k), m, D)]
        hit = at >= 0
        terms = cols[:, cells[hit]].T
        np.negative(terms, out=terms, where=neg[hit, None] == 1)
        np.add.at(G, at[hit], terms)
    k = index.k
    dtype = int_dtype(_bits(coef) + _bits(G) + len(cols).bit_length() + L + len(k).bit_length())
    return (coef.astype(dtype) * G.astype(dtype)).sum(axis=1) << k.astype(dtype)


def member_form_products(
    tree_members: Sequence[Bitile],
    f: Signal,
    g: Signal,
    E: LevelSet,
    Nfun: FrequencyChoice,
) -> dict[Bitile, Fraction]:
    """Signed per-member bilinear terms
    < <f, down packet>, <down packet, g restricted to E_{P_u}> >; exact.

    member_form_ints as one Fraction per member, its numerator over
    f.den g.den 4^L."""
    index = BitileIndex(tree_members)
    coef, den = down_coefficient_rows(f, index.k, index.pos, index.m)
    products = dict(zip(index.keys, member_form_ints(index, coef, g, E, Nfun).tolist()))
    den *= g.den << g.L
    return {P: Fraction(products[P.key()], den) for P in tree_members}


def maximal_gap_intervals(members: Sequence[Bitile], L: int) -> list[DyadicInterval]:
    """Maximal dyadic intervals inside the union of member time intervals
    that contain no member time interval.

    A walk down from [0,1) that reads, at each node, how many cells under
    it are covered from a prefix count, and whether it holds a member
    interval from the set of the members' intervals and their ancestors:
    O(1) per node."""
    size = 1 << L
    marks = [0] * (size + 1)  # +1 where a member interval starts, -1 past its end
    holders: set[tuple[int, int]] = set()
    for I in {P.time for P in members}:
        cells = I.cells(L)
        marks[cells.start] += 1
        marks[cells.stop] -= 1
        k, pos = I.k, I.pos
        while (k, pos) not in holders:
            holders.add((k, pos))
            if not k:
                break
            k, pos = k - 1, pos >> 1
    covered = [0] * (size + 1)  # covered[j]: covered cells among the first j
    depth = 0
    for j in range(size):
        depth += marks[j]
        covered[j + 1] = covered[j] + (depth > 0)
    out: list[DyadicInterval] = []

    def walk(k: int, pos: int) -> None:
        width = 1 << (L - k)
        count = covered[(pos + 1) * width] - covered[pos * width]
        if not count:
            return
        if count == width and (k, pos) not in holders:
            out.append(DyadicInterval(k, pos))
            return
        if k < L:
            walk(k + 1, 2 * pos)
            walk(k + 1, 2 * pos + 1)

    walk(0, 0)
    return sorted(out)


def gap_set(
    J: DyadicInterval,
    members: Sequence[Bitile],
    E: LevelSet,
    Nfun: FrequencyChoice,
) -> LevelSet:
    """Cells of J covered by some E_{P_u} with I_P strictly containing J."""
    return _gap_set(J, {P.key() for P in members}, E, cutoff_hits(Nfun.values, E.L))


def _gap_set(J: DyadicInterval, keys: Container, E: LevelSet, hits: list) -> LevelSet:
    """gap_set for the member keys and cutoff_hits: the cells j of J in E
    hit by a member at a scale k < J.k, whose interval (k, j >> (L - k))
    then strictly contains J."""
    L = E.L
    mask = 0
    for j in J.cells(L):
        if j in E and any(
            k < J.k and (k, j >> (L - k), m) in keys for k, m, _ in hits[j]
        ):
            mask |= 1 << j
    return LevelSet(L, mask)


def gj_certificate(
    tree: Tree, E: LevelSet, Nfun: FrequencyChoice
) -> list[Certificate]:
    """For every maximal gap interval J, the exact check
    |G_J| <= 2 density(tree) |J|."""
    dens = density(tree.members, E, Nfun)
    keys = {P.key() for P in tree.members}
    hits = cutoff_hits(Nfun.values, E.L)
    certs = []
    for J in maximal_gap_intervals(tree.members, E.L):
        GJ = _gap_set(J, keys, E, hits)
        certs.append(
            Certificate.make(
                "gap_interval_measure",
                GJ.measure,
                2 * dens * J.length,
                theorem_backed=True,
                context={"J": {"k": J.k, "pos": J.pos}, "cells": GJ.count},
            )
        )
    return certs


def tree_form_sum(
    tree: Tree,
    f: Signal,
    g: Signal,
    E: LevelSet,
    Nfun: FrequencyChoice,
    q=2,
    plugin: NormPlugin | None = None,
) -> tuple[Fraction, dict]:
    """Exact bilinear tree sum plus the interval diagnostics used to bound
    it: gap intervals, their occupied subsets, and the down/up split sums."""
    if plugin is None:
        plugin = NormPlugin("euclidean")
    dual = plugin.dual()
    if any(x > 1 + 1e-9 for x in value_norms(g, dual)):
        warnings.warn("dual function exceeds pointwise norm one", stacklevel=2)
    sizes = SizeEvaluator(tree.members, f, q, plugin)
    products, den = sizes.form_products(g, E, Nfun)
    lhs = Fraction(int(np.abs(products).sum()), den)

    dens = density(tree.members, E, Nfun)
    size_val = float(sizes.grid(tree.members).pow()) ** (1.0 / float(q))
    top_len = tree.time.length
    rhs = size_val * float(dens) * float(top_len)
    ratio = float(lhs) / rhs if rhs > 0 else (0.0 if lhs == 0 else float("inf"))

    # split sums: on a gap interval J, h is the sum over the part's members
    # whose interval strictly contains J, i.e. those hit at a scale k < J.k,
    # of sign * <f, down packet> * down packet on the cells of E_{P_u}
    L = f.L
    jays = maximal_gap_intervals(tree.members, L)
    hits = cutoff_hits(Nfun.values, L)
    ncomp = len(f.cols)
    # signed coefficients of the one map, numerators over sizes.den
    den = sizes.den
    coefs = {
        key: [c * ((1 if p >= 0 else -1) << key[0]) for c in cs]
        for (key, cs), p in zip(sizes.coeffs.items(), products.tolist())
    }
    parts = [
        (label, part, {P.key() for P in part})
        for label, part in zip(("down", "up"), tree.split())
    ]
    split_norms = []
    for J in jays:
        GJ = _gap_set(J, coefs.keys(), E, hits)
        row = {"J": {"k": J.k, "pos": J.pos}, "gap_cells": GJ.count}
        for label, part, keys in parts:
            if not any(P.time.strictly_contains(J) for P in part):
                row[f"{label}_l1"] = 0.0
                continue
            l1 = 0.0
            for j in J.cells(L):
                acc = [0] * ncomp
                for k, m, neg in hits[j] if j in E else ():
                    key = (k, j >> (L - k), m)
                    if k >= J.k or key not in keys:
                        continue
                    for i, c in enumerate(coefs[key]):
                        if c:
                            acc[i] = acc[i] - c if neg else acc[i] + c
                l1 += value_norm(nest([Fraction(n, den) for n in acc], f.d, f.kind), plugin)
            row[f"{label}_l1"] = l1 / f.cells
        split_norms.append(row)

    diagnostics = {
        "density": dens,
        "size": size_val,
        "top_length": top_len,
        "ratio": ratio,
        "gap_intervals": [{"k": J.k, "pos": J.pos} for J in jays],
        "split_sums": split_norms,
    }
    return lhs, diagnostics
