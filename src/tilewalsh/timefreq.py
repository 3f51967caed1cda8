"""Trees of bitiles, the up-tree sign identity, density and size
functionals, and the tree-lemma sums with their interval diagnostics."""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Container, Iterable, Iterator, Sequence

import numpy as np

from .certificates import Certificate
from .dyadic import (
    Bitile,
    DyadicInterval,
    bitile_le,
    bitile_le_d,
    bitile_le_u,
)
from .signal import (
    FrequencyChoice,
    LevelSet,
    NormPlugin,
    Signal,
    exact_terms,
    nest,
    value_norm,
    value_norm_pow,
)
from .walsh import bit_reverse, cutoff_hits, packet_rows, packet_synthesis, walsh_value


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

def _packet_accumulator(f: Signal):
    """(components, zero, finish) for pairing f with packets: signed sample
    sums start at zero and finish(sum) is the pairing, sum * 2^-L.  With
    rational samples the components are integer numerators over their
    common denominator, and finish makes the only Fraction."""
    n = f.cells
    flat, zero, finish = exact_terms([x for comp in f.comps for x in comp], n)
    return [flat[i : i + n] for i in range(0, len(flat), n)], zero, finish


def down_coefficients_inf(f: Signal, members: Sequence[Bitile]) -> dict[Bitile, list[Fraction]]:
    """Sup-normalized pairings of every component of f with each member's
    down packet; exact rationals.  Each is the entry (k, pos 2^(L-k) + 2m)
    of the component's packet table (walsh.packet_rows)."""
    comps, zero, finish = _packet_accumulator(f)
    tables = [packet_rows(comp, zero, f.L) for comp in comps]
    out: dict[Bitile, list[Fraction]] = {}
    for P in members:
        k, pos, m = P.key()
        local = f.L - k
        if (2 * m) >> local:
            raise ValueError(f"down packet of {P} oscillates below cell scale at L={f.L}")
        i = (pos << local) + 2 * m
        out[P] = [finish(rows[k][i]) for rows in tables]
    return out


def down_packet_sum(
    members: Sequence[Bitile],
    f: Signal,
    coeffs: dict[Bitile, list[Fraction]] | None = None,
) -> Signal:
    """sum over members of <f, down packet> * down packet; exact."""
    if coeffs is None:
        coeffs = down_coefficients_inf(f, members)
    entries = [
        (P.time.k, P.time.pos, 2 * P.m, [c * (1 << P.time.k) for c in coeffs[P]])
        for P in members
    ]
    return f.with_components(packet_synthesis(entries, len(f.comps), f.L))


# ---------------------------------------------------------------------------
# density

class DensityCounter:
    """Local density of every grid bitile relative to a set E and a cutoff
    choice N, as a dynamic-programming table built in O(L 2^L).

    The table covers the grid bitiles (k, pos, m) whose window starts at or
    below the top cutoff, 2m 2^k <= 2^L.  The occupied fraction of a bitile
    is an integer numerator over 2^L,

        own(k, pos, m) = #{j in E : j >> (L-k) = pos, N(j) >> (k+1) = m} << k,

    filled by one pass over the cells of E per scale.  The ancestors of a
    bitile are itself and the ancestors of its two coarser parents
    (k-1, pos>>1, 2m) and (k-1, pos>>1, 2m+1), which split its window in
    halves; so, scale by scale from the coarsest,

        best(k, pos, m) = max(own(k, pos, m), best of the two parents).

    Entries are tuples (numerator, -k', -m') naming the witness (k', m');
    its position is pos >> (k - k').  Taking the tuple maximum breaks ties
    towards the smaller (k', m'), which is the first strict maximum of a
    walk over the ancestors with coarse scales first and m ascending.
    """

    def __init__(self, E: LevelSet, Nfun: FrequencyChoice) -> None:
        if E.L != Nfun.L:
            raise ValueError("resolution mismatch between set and cutoff choice")
        L = self.L = E.L
        self.E, self.Nfun = E, Nfun
        cells = E.cells()
        # scale k holds 2^k rows of width[k] entries, at pos * width[k] + m
        self.width = [((1 << L) >> (k + 1)) + 1 for k in range(L + 1)]
        self.table: list[list[tuple[int, int, int]]] = []
        for k, w in enumerate(self.width):
            own = [0] * (w << k)
            for j in cells:
                own[(j >> (L - k)) * w + (Nfun[j] >> (k + 1))] += 1
            best = [(c << k, -k, -(i % w)) for i, c in enumerate(own)]
            if k:
                above, pw = self.table[-1], self.width[k - 1]
                for i in range(len(best)):
                    pos, m = divmod(i, w)
                    row = (pos >> 1) * pw
                    for pm in (2 * m, 2 * m + 1):
                        if pm < pw and above[row + pm] > best[i]:
                            best[i] = above[row + pm]
            self.table.append(best)

    def count(self, I: DyadicInterval, freq_lo: int, freq_hi: int) -> int:
        """Number of cells of I in E whose cutoff lies in [freq_lo, freq_hi)."""
        E, N = self.E, self.Nfun
        return sum(1 for j in I.cells(self.L) if j in E and freq_lo <= N[j] < freq_hi)

    def lookup(self, k: int, pos: int, m: int) -> tuple[int, tuple[int, int, int]]:
        """(numerator over 2^L, witness key) of the local density of the
        bitile (k, pos, m); (0, its own key) when every ancestor is empty,
        as for a bitile outside the table, whose window starts above 2^L or
        whose interval lies outside [0,1)."""
        if k > self.L:
            raise ValueError(f"bitile finer than the grid: k={k} > L={self.L}")
        w = self.width[k]
        if pos >> k or m >= w:
            return 0, (k, pos, m)
        num, nk, nm = self.table[k][pos * w + m]
        if not num:
            return 0, (k, pos, m)
        return num, (-nk, pos >> (k + nk), -nm)


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
    the largest table numerator, made a Fraction once."""
    if counter is None:
        counter = DensityCounter(E, Nfun)
    best = max((counter.lookup(*P.key())[0] for P in coll), default=0)
    return Fraction(best, 1 << counter.L)


# ---------------------------------------------------------------------------
# size

def _is_hilbert_case(q, plugin: NormPlugin) -> bool:
    """q = 2 with a Hilbert-space norm: Delta^2 is a coefficient sum."""
    return q == 2 and (
        plugin.name == "euclidean" or (plugin.name == "schatten" and plugin.p == 2)
    )


def _pow_gt(a, b) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a > b
    return float(a) > float(b)


def tree_delta_pow(
    tree: Tree,
    f: Signal,
    q,
    plugin: NormPlugin,
    coeffs: dict[Bitile, list[Fraction]] | None = None,
):
    """q-th power of the normalized L^q mass of the up-part packet sum;
    exact Fraction where representable, float otherwise."""
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


@dataclass(frozen=True)
class HilbertWeights:
    """Per-member quadratic masses w_P = 2^k_P sum_i c_i^2 over the down
    coefficients c_i of P, keyed by (k, pos, m); the building block of the
    q = 2 Parseval evaluation Delta(T)^2 = 2^k_T sum_{P <=_u T} w_P.

    With exact coefficients each mass is a Python-int numerator over one
    common denominator den, the squared lcm of the coefficient
    denominators, so that sums and comparisons stay in integers; the up-sums
    come from dense grids (UpSumGrid).  With float coefficients the masses
    are the plain numbers, den is 1 and exact is False; their up-sums keep
    the canonical-order sweep, whose bits another order would change.
    """

    num: dict[tuple[int, int, int], int | Fraction | float]
    den: int
    exact: bool = True

    def value(self, x):
        """x / den; a Fraction for an integer numerator."""
        return Fraction(x, self.den) if isinstance(x, int) else x

    def exceeds(self, x, bound) -> bool:
        """x / den > bound, by cross-multiplication when both are exact."""
        if isinstance(x, int) and isinstance(bound, Fraction):
            return x * bound.denominator > bound.numerator * self.den
        return _pow_gt(self.value(x), bound)

    def pow_of(self, best):
        """A largest S(T) 2^k_T as the size power best / den; Fraction(0)
        unless it is positive."""
        return self.value(best) if best > 0 else Fraction(0)


def hilbert_member_weights(
    coll: Sequence[Bitile], coeffs: dict[Bitile, list[Fraction]]
) -> HilbertWeights:
    """The masses w_P of the members of coll (see HilbertWeights)."""
    if not all(isinstance(c, Fraction) for P in coll for c in coeffs[P]):
        return HilbertWeights(
            {
                P.key(): sum((c * c for c in coeffs[P]), Fraction(0)) * (1 << P.time.k)
                for P in coll
            },
            1,
            exact=False,
        )
    lcm = math.lcm(*(c.denominator for P in coll for c in coeffs[P]))
    num = {
        P.key(): sum((c.numerator * (lcm // c.denominator)) ** 2 for c in coeffs[P])
        << P.time.k
        for P in coll
    }
    return HilbertWeights(num, lcm * lcm)


def _mass_dtype(total: int):
    """int64 when a total mass, and so every partial sum of it, has at most
    62 bits; Python ints (dtype object) otherwise."""
    return np.int64 if total.bit_length() <= 62 else object


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


def grid_depth(keys: Iterable[tuple[int, int, int]]) -> int:
    """The least D with (m + 1) 2^k <= 2^D for every key (k, pos, m): the
    grid of depth D holds every up-ancestor of every key."""
    return max((k + m.bit_length() for k, _, m in keys), default=0)


def grid_cells(keys: Sequence[tuple[int, int, int]], depth: int) -> tuple[list, list]:
    """(rows, columns) of the keys (k, pos, m) in a grid of the given depth."""
    if any(pos >> k for k, pos, _ in keys):
        raise ValueError("bitile outside [0, 1)")
    return [k for k, _, _ in keys], [(pos << (depth - k)) + m for k, pos, m in keys]


class UpSumGrid:
    """The up-sums S(T) of the masses of a collection over every top T at
    once, on dense per-scale grids of the collection's depth (up_sum_grids,
    grid_depth); Delta(T)^2 = S(T) 2^k_T / den is the q = 2 Hilbert size of
    the complete up-tree below T.

    Exact masses sit in int64 cells when the collection's total mass has at
    most 62 bits, so that no partial sum overflows, and in Python ints
    (dtype object) otherwise; both run the same code, and removing members
    zeroes their cells and sums again.  Float masses keep the canonical-order
    sweep (_up_sums) and lose removed members one by one, in the given
    order, so that every sum has the bits of the same sweep and decrements
    done on dictionaries."""

    def __init__(self, coll: Iterable[Bitile], weights: HilbertWeights) -> None:
        self.weights = weights
        self.keys = keys = sorted(P.key() for P in coll)
        self.depth = D = grid_depth(keys)
        rows, cols = grid_cells(keys, D)
        if not weights.exact:
            self.mass = None
            self.sums = np.zeros((D + 1, 1 << D), object)
            for key, s in _up_sums(keys, weights.num).items():
                self.sums[self._cell(key)] = s
            return
        num = weights.num
        self.mass = np.zeros((1, D + 1, 1 << D), _mass_dtype(sum(num[key] for key in keys)))
        if keys:
            self.mass[0, rows, cols] = [num[key] for key in keys]
        self.sums = up_sum_grids(self.mass)[0]

    def _cell(self, key: tuple[int, int, int]) -> tuple[int, int]:
        k, pos, m = key
        return k, (pos << (self.depth - k)) + m

    def remove(self, members: Iterable[Bitile]) -> None:
        """Take members out of the collection."""
        if self.mass is not None:
            for P in members:
                self.mass[(0, *self._cell(P.key()))] = 0
            self.sums = up_sum_grids(self.mass)[0]
            return
        for P in members:
            key = P.key()
            w = self.weights.num[key]
            if w:
                for T in up_ancestor_keys(*key):
                    self.sums[self._cell(T)] -= w

    def pow(self):
        """The q = 2 size power max_T S(T) 2^k_T / den; Fraction(0) when no
        sum is positive."""
        if self.mass is not None:
            best = max(x << k for k, x in enumerate(self.sums.max(axis=1).tolist()))
        else:
            best = max(x * (1 << k) for k, row in enumerate(self.sums.tolist()) for x in row)
        return self.weights.pow_of(best)

    def exceeding(self, bound) -> np.ndarray:
        """Boolean grid of the tops T with S(T) 2^k_T / den > bound
        (HilbertWeights.exceeds).  Exact sums are compared per scale with
        the integer floor(bound den / 2^k), so that no product S 2^k is
        formed in int64."""
        if self.mass is None:
            exceeds = self.weights.exceeds
            return np.array(
                [
                    [x != 0 and exceeds(x * (1 << k), bound) for x in row]
                    for k, row in enumerate(self.sums.tolist())
                ],
                dtype=bool,
            )
        cuts = [
            bound.numerator * self.weights.den // (bound.denominator << k)
            for k in range(self.depth + 1)
        ]
        if self.sums.dtype != object:
            # sums stay below 2^62
            cuts = [min(c, 1 << 62) for c in cuts]
        return self.sums > np.array(cuts, self.sums.dtype)[:, None]


def hilbert_top_sums(
    coll: Sequence[Bitile], weights: HilbertWeights
) -> dict[tuple[int, int, int], int | Fraction | float]:
    """For every candidate top T, keyed by (k, pos, m), the sum S(T) of the
    member masses below it in the up-tile order, as a numerator over
    weights.den.  Delta(T)^2 of the complete up-tree is S(T) 2^k_T / den.

    The candidate tops are the up-ancestors of the members, zero sums
    included.  Exact sums are read off an UpSumGrid, the key set off the
    same sums over member counts; float masses are added in canonical
    order, each to the integer ranges of up_ancestor_keys."""
    if not weights.exact:
        return _up_sums(sorted(P.key() for P in coll), weights.num)
    grid = UpSumGrid(coll, weights)
    count = np.zeros(grid.mass.shape, np.int64)
    count[(0, *grid_cells(grid.keys, grid.depth))] = 1
    rows, cols = np.nonzero(up_sum_grids(count)[0])
    shift = grid.depth - rows
    keys = zip(rows.tolist(), (cols >> shift).tolist(), (cols & ((1 << shift) - 1)).tolist())
    return dict(zip(keys, grid.sums[rows, cols].tolist()))


def _up_sums(keys, num) -> dict[tuple[int, int, int], int | Fraction | float]:
    """The canonical-order sweep: the masses num of the sorted keys added,
    one member after another, to each of its up_ancestor_keys."""
    sums: dict[tuple[int, int, int], int | Fraction | float] = {}
    for key in keys:
        w = num[key]
        for T in up_ancestor_keys(*key):
            sums[T] = sums.get(T, 0) + w
    return sums


def hilbert_tree_pows(trees: Sequence[Tree], weights: HilbertWeights) -> list:
    """size_pow(tree.members) of each tree in the Hilbert case.

    The members of a tree with top (k_T, pos_T, m_T) lie d scales below it
    at m_T >> d.  Their up-ancestors e scales below the top lie under pos_T
    and agree with m_T >> e in every bit from D - e up, D the members'
    greatest depth below the top; an up-ancestor u scales above the top,
    with m >> u = x, has at most the up-sum of (k_T, pos_T, x) and a
    smaller 2^k.  So each tree takes a grid of depth D of its own, the cell
    (k_T + d, pos, m) at (d, pos - pos_T 2^d, m mod 2^(D-d)), and the trees
    of one depth go through up_sum_grids together.  Float masses keep one
    canonical-order sweep per tree."""
    if not weights.exact:
        return [UpSumGrid(t.members, weights).pow() for t in trees]
    num = weights.num
    by_depth: dict[int, list[int]] = {}
    for i, t in enumerate(trees):
        if t.members:
            k = t.top.time.k
            by_depth.setdefault(max(P.time.k - k for P in t.members), []).append(i)
    dtype = _mass_dtype(sum(num[P.key()] for t in trees for P in t.members))
    out = [Fraction(0)] * len(trees)
    for D, group in by_depth.items():
        # at most 2^20 cells at once
        step = max(1, (1 << 20) // ((D + 1) << D))
        for start in range(0, len(group), step):
            batch = group[start : start + step]
            mass = np.zeros((len(batch), D + 1, 1 << D), dtype)
            index: tuple[list, list, list] = ([], [], [])
            vals = []
            for b, i in enumerate(batch):
                kT, posT = trees[i].top.time.k, trees[i].top.time.pos
                for P in trees[i].members:
                    key = k, pos, m = P.key()
                    d = k - kT
                    index[0].append(b)
                    index[1].append(d)
                    index[2].append(((pos - (posT << d)) << (D - d)) + (m & ((1 << (D - d)) - 1)))
                    vals.append(num[key])
            mass[index] = vals
            best = up_sum_grids(mass).max(axis=2).tolist()
            for b, i in enumerate(batch):
                kT = trees[i].top.time.k
                out[i] = weights.pow_of(max(x << (kT + e) for e, x in enumerate(best[b])))
    return out


def candidate_tops(coll: Iterable[Bitile]) -> list[Bitile]:
    """All grid bitiles that dominate some collection member in the up-tile
    order, in canonical order."""
    tops: set[Bitile] = set()
    for P in coll:
        tops.update(up_ancestors(P))
    return sorted(tops, key=Bitile.key)


def complete_up_tree(top: Bitile, coll: Iterable[Bitile]) -> Tree:
    return Tree.build(top, (P for P in coll if bitile_le_u(P, top)))


def size_pow(
    coll: Sequence[Bitile],
    f: Signal,
    q,
    plugin: NormPlugin,
    coeffs: dict[Bitile, list[Fraction]] | None = None,
    weights: HilbertWeights | None = None,
):
    """q-th power of the size: the largest tree_delta_pow over the complete
    up-tree below every candidate top.  In the Hilbert q = 2 case one
    UpSumGrid gives them all, and the size equals the supremum over all
    up-subtrees."""
    coll = list(coll)
    if not coll:
        return Fraction(0)
    hilbert = _is_hilbert_case(q, plugin)
    if coeffs is None and not (hilbert and weights is not None):
        coeffs = down_coefficients_inf(f, coll)
    if hilbert:
        if weights is None:
            weights = hilbert_member_weights(coll, coeffs)
        return UpSumGrid(coll, weights).pow()
    best = Fraction(0)
    for T in candidate_tops(coll):
        val = tree_delta_pow(complete_up_tree(T, coll), f, q, plugin, coeffs=coeffs)
        if _pow_gt(val, best):
            best = val
    return best


# ---------------------------------------------------------------------------
# tree-lemma machinery

def member_form_products(
    tree_members: Sequence[Bitile],
    f: Signal,
    g: Signal,
    E: LevelSet,
    Nfun: FrequencyChoice,
    coeffs: dict[Bitile, list[Fraction]] | None = None,
) -> dict[Bitile, Fraction]:
    """Signed per-member bilinear terms
    < <f, down packet>, <down packet, g restricted to E_{P_u}> >; exact.

    The pairings with g come from one pass over the cells of E: cell j
    lies in the up-window of the bitile (k, j >> (L - k), m) exactly when
    it is hit there (walsh.cutoff_hits), and its down packet is w_2m there.
    Cells are visited in ascending order, so each pairing sums its samples
    in cell order."""
    fco = coeffs if coeffs is not None else down_coefficients_inf(f, tree_members)
    gcomps, zero, finish = _packet_accumulator(g)
    L = g.L
    wanted = {P.key() for P in tree_members}
    hits = cutoff_hits(Nfun.values, L)
    sums: dict[tuple[int, int, int], list] = {}
    for j in E.cells():
        for k, m, neg in hits[j]:
            key = (k, j >> (L - k), m)
            if key not in wanted:
                continue
            acc = sums.setdefault(key, [zero] * len(gcomps))
            for i, comp in enumerate(gcomps):
                acc[i] = acc[i] - comp[j] if neg else acc[i] + comp[j]
    empty = [zero] * len(gcomps)
    terms: dict[Bitile, Fraction] = {}
    for P in tree_members:
        gvec = [finish(acc) for acc in sums.get(P.key(), empty)]
        prod = Fraction(0)
        for a, b in zip(fco[P], gvec):
            prod += a * b
        terms[P] = prod * (1 << P.time.k)
    return terms


def maximal_gap_intervals(members: Sequence[Bitile], L: int) -> list[DyadicInterval]:
    """Maximal dyadic intervals inside the union of member time intervals
    that contain no member time interval."""
    times = {P.time for P in members}
    covered = set()
    for I in times:
        covered.update(I.cells(L))
    out: list[DyadicInterval] = []

    def walk(J: DyadicInterval) -> None:
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
    if any(value_norm(v, dual) > 1 + 1e-9 for v in g.samples):
        warnings.warn("dual function exceeds pointwise norm one", stacklevel=2)
    fco = down_coefficients_inf(f, tree.members)
    products = member_form_products(tree.members, f, g, E, Nfun, coeffs=fco)
    lhs = sum((abs(v) for v in products.values()), Fraction(0))

    dens = density(tree.members, E, Nfun)
    size_val = float(size_pow(tree.members, f, q, plugin, coeffs=fco)) ** (1.0 / float(q))
    top_len = tree.time.length
    rhs = size_val * float(dens) * float(top_len)
    ratio = float(lhs) / rhs if rhs > 0 else (0.0 if lhs == 0 else float("inf"))

    # split sums: on a gap interval J, h is the sum over the part's members
    # whose interval strictly contains J, i.e. those hit at a scale k < J.k,
    # of sign * <f, down packet> * down packet on the cells of E_{P_u}
    L = f.L
    jays = maximal_gap_intervals(tree.members, L)
    hits = cutoff_hits(Nfun.values, L)
    ncomp = len(f.comps)
    flat, zero, finish = exact_terms(
        [c * ((1 if products[P] >= 0 else -1) << P.time.k) for P in tree.members for c in fco[P]]
    )
    coefs = {P.key(): flat[i * ncomp : (i + 1) * ncomp] for i, P in enumerate(tree.members)}
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
                acc = [zero] * ncomp
                for k, m, neg in hits[j] if j in E else ():
                    key = (k, j >> (L - k), m)
                    if k >= J.k or key not in keys:
                        continue
                    for i, c in enumerate(coefs[key]):
                        if c:
                            acc[i] = acc[i] - c if neg else acc[i] + c
                l1 += value_norm(nest([finish(x) for x in acc], f.d, f.kind), plugin)
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
