"""Greedy tree decompositions with exact certificates: the density split,
the minimal-center size split, the leveled full decomposition, tile-type
estimation, and restricted weak-type experiments."""

from __future__ import annotations

import math
import warnings
from functools import lru_cache
from itertools import accumulate, chain
from operator import mul
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .certificates import Certificate
from .dyadic import Bitile, bitile_universe, cell_keys, cells_above
from .operators import carleson_bitile
from .signal import (
    FrequencyChoice,
    LevelSet,
    NormPlugin,
    Signal,
    lq_norm,
    lq_norm_pow,
    maximal_numerators,
    value_norms,
)
from .timefreq import (
    BitileIndex,
    DensityCounter,
    SizeEvaluator,
    Tree,
    TreeFamily,
    _is_hilbert_case,
    _lq_pow,
    _pow_gt,
    down_coefficients,
    meeting_tile_pairs,
)
from .walsh import packet_synthesis


# ---------------------------------------------------------------------------
# results

@dataclass(frozen=True)
class DensityDecomposition:
    sparse: tuple[Bitile, ...]
    trees: tuple[Tree, ...]
    certificates: tuple[Certificate, ...]
    density: Fraction


@dataclass(frozen=True)
class SizeDecomposition:
    small: tuple[Bitile, ...]
    trees: tuple[Tree, ...]
    certificates: tuple[Certificate, ...]
    size_pow: Fraction | float
    # q-th power of each tree's size, in the order of trees
    tree_pows: tuple[Fraction | float, ...]
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LevelRecord:
    n: int
    trees: tuple[Tree, ...]
    certificates: tuple[Certificate, ...]
    # q-th power of each tree's size, in the order of trees
    size_pows: tuple[Fraction | float, ...]
    # density of each tree, in the order of trees
    densities: tuple[Fraction, ...]


@dataclass(frozen=True)
class LeveledForest:
    levels: tuple[LevelRecord, ...]
    residual: tuple[Bitile, ...]
    certificates: tuple[Certificate, ...]
    # each tree's member positions in the run's SizeEvaluator.index
    members: tuple[np.ndarray, ...] = field(default=(), repr=False, compare=False)

    def all_certificates(self) -> list[Certificate]:
        out = list(self.certificates)
        for rec in self.levels:
            out.extend(rec.certificates)
        return out

    def all_trees(self) -> list[tuple[int, Tree]]:
        return [(rec.n, tree) for rec in self.levels for tree in rec.trees]


# ---------------------------------------------------------------------------
# density lemma

def _two_pow(n: int | float):
    """2^n as an exact Fraction for integer n, float otherwise."""
    if isinstance(n, int) or (isinstance(n, Fraction) and n.denominator == 1):
        n = int(n)
        return Fraction(1 << n) if n >= 0 else Fraction(1, 1 << -n)
    return 2.0 ** float(n)


def _length_sum(tops) -> Fraction:
    """The total length of the time intervals of the keys tops, summed as
    integers over 2^k for their finest scale k."""
    finest = max((k for k, _, _ in tops), default=0)
    return Fraction(sum(1 << (finest - k) for k, _, _ in tops), 1 << finest)


def _trees(index: BitileIndex, trees) -> list[Tree]:
    """The Trees of (top key, member positions in index) pairs."""
    return [Tree(Bitile.from_key(top), tuple(index.bitiles(ms))) for top, ms in trees]


def _density_split(index: BitileIndex, nums, codes, sel: np.ndarray, E: LevelSet, q, L: int):
    """The density lemma's split of the positions sel, by the run's
    numerators over 2^L and witness codes in the grid of depth L
    (DensityCounter.gather): the sparse positions, the trees as (top key,
    member positions), the certificates, the density.

    The tops are the maximal witnesses of the dense bitiles, and each
    dense bitile joins the first top above it in canonical order.  That is
    the first witness above it: a witness with a strict tile-order
    ancestor among the witnesses is not, since the ancestor is coarser and
    so comes first.  A dense bitile lies in the table, so in the grid."""
    scale = 1 << L
    num = nums[sel]
    dens = Fraction(int(num.max()) if len(sel) else 0, scale)
    threshold = dens * _two_pow(-q) if dens else Fraction(0)
    # num / 2^L > threshold exactly when num > cut, for a Fraction or float
    cut = math.floor(Fraction(threshold) * scale)
    dense = num > cut
    rest, tops, members = sel[dense], [], []
    if len(rest):
        # the witnesses above each dense bitile: one search per scale up
        cells = np.sort(codes[rest], kind="stable")
        k = index.k[rest]
        d = np.arange(L + 1)[:, None]
        lo, hi = cells_above(k, index.pos[rest], index.m[rest], np.minimum(d, k), L)
        at = cells[np.minimum(np.searchsorted(cells, lo), len(cells) - 1)]
        none = np.iinfo(np.int64).max
        first = np.where((d <= k) & (at >= lo) & (at < hi), at, none).min(axis=0)
        if (first == none).any():
            raise RuntimeError("density split failed to assign every dense bitile")
        order = np.argsort(first, kind="stable")
        rest, first = rest[order], first[order]
        starts = [0, *(np.flatnonzero(first[1:] != first[:-1]) + 1).tolist()]
        tops = [cell_keys(int(first[a]), L) for a in starts]
        members = [rest[a:b] for a, b in zip(starts, [*starts[1:], len(rest)])]

    sparse = num[~dense]
    certs = [
        Certificate.make(
            "density_sparse", Fraction(int(sparse.max()) if len(sparse) else 0, scale), threshold,
            theorem_backed=True, context={"q": q, "density": dens},
        )
    ]
    if dens > 0:
        certs.append(
            Certificate.make(
                "density_mass", _length_sum(tops), _two_pow(q) / dens * E.measure,
                theorem_backed=True, context={"q": q, "trees": len(tops), "set_measure": E.measure},
            )
        )
    return sel[~dense], list(zip(tops, members)), certs, dens


def density_decompose(
    coll: Sequence[Bitile],
    E: LevelSet,
    Nfun: FrequencyChoice,
    q,
    counter: DensityCounter | None = None,
) -> DensityDecomposition:
    """Split a collection into a sparse part whose density drops by 2^-q
    and trees whose top time intervals carry at most 2^q / density |E|
    total length; the constructive greedy from the density lemma
    (_density_split)."""
    index = BitileIndex(coll)
    if counter is None:
        counter = DensityCounter(E, Nfun)
    nums, codes = counter.gather(index.k, index.pos, index.m)
    sel = np.arange(len(index.keys))
    sparse, trees, certs, dens = _density_split(index, nums, codes, sel, E, q, counter.L)
    return DensityDecomposition(
        tuple(index.bitiles(sparse)), tuple(_trees(index, trees)), tuple(certs), dens
    )


# ---------------------------------------------------------------------------
# size lemma

@lru_cache(maxsize=2)
def _center_keys(D: int) -> np.ndarray:
    """The cells of a grid of depth D (see dyadic), flat, as
    ((2m + 1) 2^k 2^D) | pos: an odd multiple of 2^k, the frequency center
    fixes (k, m), so the keys sort as the centers, ties by key."""
    k, pos, m = cell_keys(np.arange((D + 1) << D), D)
    return (((2 * m + 1) << k) << D) | pos


def first_maximal_top(mask: np.ndarray) -> tuple[int, int, int] | None:
    """The key of the cell of a boolean grid (see dyadic) that is set, lies
    below no other set cell in the tile order, and has the least frequency
    center (2m + 1) 2^k, ties by key; None when no cell is set.  The set
    cells are tried in that order, each against the cells above it
    (dyadic.cells_above), a slice of one row per scale."""
    D = mask.shape[0] - 1
    flat = mask.reshape(-1)
    cells = np.flatnonzero(flat)
    for i in cells[_center_keys(D)[cells].argsort(kind="stable")].tolist():
        k, pos, m = cell_keys(i, D)
        if not any(flat[slice(*cells_above(k, pos, m, d, D))].any() for d in range(1, k + 1)):
            return k, pos, m
    return None


def _size_split(sizes: SizeEvaluator, sel: np.ndarray, q):
    """The size lemma's greedy on the positions sel of the evaluator's
    index: the small positions, the trees as (top key, member positions),
    the certificates and the collection's size power.  One grid over the
    members with a nonzero coefficient gives the collection size and the
    qualifying tops of every round, and loses each tree taken out."""
    index = sizes.index
    active = sel[sizes.nonzero[sel]]
    grid = sizes.grid(active)
    sigma_pow = grid.pow()
    threshold_pow = sigma_pow * _two_pow(-q)

    left = np.zeros(len(index.keys), bool)
    left[active] = True
    trees = []
    rounds = 0
    while left.any():
        rounds += 1
        if rounds > len(sel) + 1:
            raise RuntimeError("size split failed to terminate")
        pick = first_maximal_top(grid.exceeding(threshold_pow))
        if pick is None:
            break
        members = index.below(pick)
        members = members[left[members]]
        left[members] = False
        trees.append((pick, members))
        grid.remove(members)

    tiles = []
    for (kT, _, mT), members in trees:
        # the up-part: (2 m_T + 1) >> d = 2m + 1, d scales down
        up = members[((2 * mT + 1) >> (index.k[members] - kT)) == 2 * index.m[members] + 1]
        tiles += zip(index.k[up].tolist(), index.pos[up].tolist(), (2 * index.m[up]).tolist())
    certs = [
        # the zero-coefficient members add nothing to any size
        Certificate.make(
            "size_small", grid.pow(), threshold_pow, theorem_backed=True,
            context={"q": q, "note": "q-th powers of size; threshold is (size/2)^q"},
        ),
        Certificate.make(
            "down_tile_disjointness", len(meeting_tile_pairs(tiles)), 0, theorem_backed=True,
            context={"pairs_checked": len(tiles) * (len(tiles) - 1) // 2},
        ),
    ]
    # the zero-coefficient members and those left, in canonical order
    return sel[~sizes.nonzero[sel] | left[sel]], trees, certs, sigma_pow


def size_decompose(
    coll: Sequence[Bitile],
    f: Signal,
    q,
    plugin: NormPlugin,
    sizes: SizeEvaluator | None = None,
) -> SizeDecomposition:
    """Greedy extraction of trees whose up-part mass exceeds half the
    collection size, choosing the qualifying maximal tree with the minimal
    top frequency center; ties fall back to the canonical bitile order
    (_size_split).  Every size comes from sizes, the run's SizeEvaluator,
    built over coll when absent."""
    if sizes is None:
        sizes = SizeEvaluator(coll, f, q, plugin)
    small, trees, certs, sigma_pow = _size_split(sizes, sizes.index.select(coll), q)
    mass = _length_sum([top for top, _ in trees])
    fq = float(sizes.fq_pow)
    mass_constant = float(mass) * float(sigma_pow) / fq if fq > 0 else 0.0
    stats = {"top_length_sum": mass, "size_pow": sigma_pow, "mass_constant": mass_constant,
             "trees": len(trees)}
    return SizeDecomposition(
        tuple(sizes.index.bitiles(small)), tuple(_trees(sizes.index, trees)), tuple(certs), sigma_pow,
        tuple(sizes.tree_pows(trees)), stats,
    )


# ---------------------------------------------------------------------------
# full leveled decomposition

def full_decompose(
    coll: Sequence[Bitile],
    f: Signal,
    E: LevelSet,
    Nfun: FrequencyChoice,
    q,
    plugin: NormPlugin,
    sizes: SizeEvaluator | None = None,
) -> LeveledForest:
    """Alternate the density and size splits level by level, tagging the
    extracted trees with the level exponent n and emitting the density,
    size and mass certificates at every level.

    sizes, the run's SizeEvaluator (built over coll when absent), holds the
    index every collection of the loop is a sorted array of positions in;
    the density numerators and witnesses of its members are looked up once.
    The trees become Trees after the loop, where one tree_pows call gives
    every tree's size power, and each level's certificates follow."""
    if E.count == 0:
        raise ValueError("empty level set: level exponents undefined")
    if sizes is None:
        sizes = SizeEvaluator(coll, f, q, plugin)
    fq_pow = sizes.fq_pow
    if not float(fq_pow) > 0:
        raise ValueError("zero signal: level exponents undefined")

    index = sizes.index
    sel = index.select(coll)
    counter = DensityCounter(E, Nfun)
    nums, codes = counter.gather(index.k, index.pos, index.m)
    scale = 1 << counter.L
    dens0 = Fraction(int(nums[sel].max()) if len(sel) else 0, scale)
    size0_pow = sizes.grid(sel).pow()

    L = f.L
    n_max = starting_level(dens0, size0_pow, fq_pow, E.measure, q, L)

    # per level: n, its trees as (top key, member positions), the density
    # and size certificates and each tree's density
    levels = []
    n = n_max
    while sizes.nonzero[sel].any():
        sparse, dtrees, certs, _ = _density_split(index, nums, codes, sel, E, q, counter.L)
        sel, strees, scerts, _ = _size_split(sizes, sparse, q)
        trees = dtrees + strees
        members = [ms for _, ms in trees]
        starts = list(accumulate(map(len, members[:-1]), initial=0))
        best = np.maximum.reduceat(nums[np.concatenate(members)], starts).tolist() if trees else []
        levels.append((n, trees, certs + scerts, tuple(Fraction(x, scale) for x in best)))
        n -= 1

    forest = [_trees(index, trees) for _, trees, _, _ in levels]
    pairs = [pair for _, trees, _, _ in levels for pair in trees]
    pows = iter(sizes.tree_pows(pairs))
    records = []
    for (n, trees, certs, densities), level_trees in zip(levels, forest):
        tag = _two_pow(n * q)
        tree_pows = tuple(next(pows) for _ in trees)
        level_size_pow = Fraction(0)
        for v in tree_pows:
            if _pow_gt(v, level_size_pow):
                level_size_pow = v
        mass = _length_sum([top for top, _ in trees])
        certs += [
            Certificate.make(
                "level_density", max(densities, default=Fraction(0)), _min_one(tag * E.measure),
                theorem_backed=True, context={"n": n},
            ),
            Certificate.make(
                "level_size", level_size_pow, tag * fq_pow,
                theorem_backed=_is_hilbert_case(q, plugin), context={"n": n, "note": "q-th powers"},
            ),
            Certificate.make(
                "level_mass", mass, mass, theorem_backed=False,
                context={"n": n, "mass_constant": float(mass) * float(tag)},
            ),
        ]
        records.append(LevelRecord(n, tuple(level_trees), tuple(certs), tree_pows, densities))

    residual = tuple(index.bitiles(sel))
    top_certs = [
        Certificate.make(
            "residual_zero_contribution", int(sizes.nonzero[sel].sum()), 0, theorem_backed=True,
            context={"residual": len(residual)},
        ),
        Certificate.make(
            "level_span", n_max - (records[-1].n if records else n_max), 4 * L,
            theorem_backed=False, context={"n_max": n_max, "levels": len(records)},
        ),
    ]
    return LeveledForest(tuple(records), residual, tuple(top_certs), tuple(ms for _, ms in pairs))


def starting_level(dens0, size0_pow, fq_pow, measure: Fraction, q, L: int) -> int:
    """The smallest integer n in [-16L - 64, 16L + 64] with
    dens0 <= min(1, 2^(nq) |E|) and size0_pow <= 2^(nq) |f|_q^q;
    RuntimeError when no n there qualifies.

    Both tests only get easier as n grows, for integer and float q alike.
    A bit-length estimate of log2 of each ratio, within one of it, gives a
    start that steps down while n - 1 qualifies and up until n does."""
    lo, hi = -16 * L - 64, 16 * L + 64

    def ok(n: int) -> bool:
        tag = _two_pow(n * q)
        return _le(dens0, _min_one(tag * measure)) and _le(size0_pow, tag * fq_pow)

    # n q >= log2(dens0 / |E|) and n q >= log2(size0_pow / fq_pow)
    starts = [
        int(-((_log2_estimate(b) - _log2_estimate(a)) // q))
        for a, b in ((dens0, measure), (size0_pow, fq_pow))
        if a > 0
    ]
    n = min(max([lo, *starts]), hi + 1)
    while n > lo and ok(n - 1):
        n -= 1
    while n <= hi and not ok(n):
        n += 1
    if n > hi:
        raise RuntimeError("could not locate a starting level")
    return n


def _log2_estimate(x) -> int:
    """An integer within one of log2 x, for x > 0 (a Fraction or a float)."""
    if isinstance(x, Fraction):
        return x.numerator.bit_length() - x.denominator.bit_length()
    return math.frexp(float(x))[1]


def _min_one(x):
    if isinstance(x, Fraction):
        return x if x < 1 else Fraction(1)
    return min(1.0, float(x))


def _le(a, b) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a <= b
    return float(a) <= float(b) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# the bilinear form over the full universe

def carleson_form_certificate(
    f: Signal,
    g: Signal,
    E: LevelSet,
    Nfun: FrequencyChoice,
    q,
    plugin: NormPlugin,
) -> dict:
    """Decompose the whole bitile universe, evaluate the bilinear form
    grouped by level and tree, and report the ratio against
    |E|^(1/q') |f|_q together with per-tree tree-lemma ratios."""
    if any(x > 1 + 1e-9 for x in value_norms(g, plugin.dual())):
        warnings.warn("dual function exceeds pointwise norm one", stacklevel=2)
    coll = bitile_universe(f.L).items
    sizes = SizeEvaluator(coll, f, q, plugin)
    forest = full_decompose(coll, f, E, Nfun, q, plugin, sizes=sizes)
    products, den = sizes.form_products(g, E, Nfun)
    fq_pow = sizes.fq_pow

    size = np.abs(products)
    total = Fraction(int(size.sum()), den)
    # each tree's form, numerators over den in the order of all_trees()
    members = forest.members
    starts = list(accumulate(map(len, members[:-1]), initial=0))
    forms = iter(np.add.reduceat(size[np.concatenate(members)], starts).tolist() if members else [])
    qf = float(q)
    qprime = qf / (qf - 1.0)
    # the same bits as lq_norm on the exact path
    fq = float(fq_pow) ** (1.0 / qf) if isinstance(fq_pow, Fraction) else lq_norm(f, q, plugin)
    bound = float(E.measure) ** (1.0 / qprime) * fq
    ratio = float(total) / bound if bound > 0 else 0.0

    level_rows = []
    majorant = 0.0
    for rec in forest.levels:
        tag = 2.0 ** (rec.n * qf)
        tree_rows = []
        level_mass = 0.0
        for tree, spow, dens in zip(rec.trees, rec.size_pows, rec.densities):
            form = Fraction(next(forms), den)
            size_val = float(spow) ** (1.0 / qf)
            # 2^-k_T, the float of |I_T|
            rhs = size_val * float(dens) * 2.0 ** -tree.time.k
            tree_rows.append(
                {
                    "top": tree.top,
                    "members": len(tree.members),
                    "form": form,
                    "tree_lemma_ratio": float(form) / rhs if rhs > 0 else 0.0,
                }
            )
            level_mass += 2.0 ** -tree.time.k
        level_rows.append({"n": rec.n, "trees": tree_rows})
        majorant += min(1.0, tag * float(E.measure)) * 2.0 ** rec.n * fq * level_mass

    return {
        "form_total": total,
        "bound": bound,
        "ratio": ratio,
        "majorant": majorant,
        "levels": level_rows,
        "certificates": forest.all_certificates(),
        "residual": len(forest.residual),
    }


# ---------------------------------------------------------------------------
# tile-type estimation

def tile_type_constant(
    family: TreeFamily,
    f: Signal,
    q,
    plugin: NormPlugin,
) -> tuple[float, list[Certificate]]:
    """Ratio (sum over trees of |packet sum|_q^q)^(1/q) / |f|_q for a family
    with pairwise disjoint down-tiles; also compares per tree the L^q norms
    of the packet form and its Haar form.  They differ by the signs of the
    tree identity, which keep the norm by orthogonality only in the Hilbert
    q = 2 case, where alone that certificate is theorem-backed."""
    violations = family.down_disjointness_violations()
    if violations:
        raise ValueError(
            f"{len(violations)} down-tile disjointness violations in family"
        )
    members = [P for tree in family.trees for P in tree.members]
    if any(P.time.k >= f.L for P in members):
        raise ValueError("Haar pattern of a finest-scale member is not grid-constant")
    coeffs, den = down_coefficients(f, members)

    def synthesis(tree: Tree, n_of) -> Signal:
        entries = [
            (P.time.k, P.time.pos, n_of(P), [c * (1 << P.time.k) for c in coeffs[P.key()]])
            for P in tree.members
        ]
        return Signal(f.L, f.d, f.kind, packet_synthesis(entries, len(f.cols), f.L), den)

    certs: list[Certificate] = []
    total_pow = Fraction(0)
    for idx, tree in enumerate(family.trees):
        # the down packet of P is w_2m on I_P, its Haar pattern w_1 on I_P
        u, u_haar = synthesis(tree, lambda P: 2 * P.m), synthesis(tree, lambda P: 1)
        upow, hpow = lq_norm_pow(u, q, plugin), lq_norm_pow(u_haar, q, plugin)
        if upow is None or hpow is None:
            upow, hpow = lq_norm(u, q, plugin) ** float(q), lq_norm(u_haar, q, plugin) ** float(q)
            tolerance = 1e-9 * max(1.0, abs(upow))
        else:
            tolerance = Fraction(0)
        certs.append(
            Certificate.make(
                "packet_haar_norm_equality",
                abs(upow - hpow),
                tolerance,
                theorem_backed=_is_hilbert_case(q, plugin),
                context={"tree": idx},
            )
        )
        # a Fraction plus a float is float(Fraction) plus the float
        total_pow += upow

    fq_pow = _lq_pow(f, q, plugin)
    ratio = (
        (float(total_pow) / float(fq_pow)) ** (1.0 / float(q))
        if float(fq_pow) > 0
        else 0.0
    )
    certs.append(
        Certificate.make(
            "tile_type_ratio_pow",
            total_pow,
            fq_pow,
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


# ---------------------------------------------------------------------------
# restricted weak type

def restricted_weak_type(
    F: LevelSet,
    E: LevelSet,
    f: Signal,
    g: Signal,
    Nfun: FrequencyChoice,
    p,
    q,
    plugin: NormPlugin,
) -> dict:
    """Evaluate the bilinear form against the restricted weak-type bounds.

    When |E| > |F|, removes the set where the maximal function of 1_F
    exceeds 2|F|/|E| and certifies exactly that at least half of E
    survives; the form is then tested against |F| (1 + log|E|/|F|), and in
    the opposite regime against |E| (1 + log|F|/|E|).
    """
    if E.count == 0 or F.count == 0:
        raise ValueError("both sets must be nonempty")
    if f.restrict(F) != f:
        raise ValueError("signal not supported on F")
    if g.restrict(E) != g:
        raise ValueError("dual function not supported on E")
    if any(x > 1 + 1e-9 for x in value_norms(f, plugin)):
        warnings.warn("signal exceeds pointwise norm one", stacklevel=2)
    if any(x > 1 + 1e-9 for x in value_norms(g, plugin.dual())):
        warnings.warn("dual function exceeds pointwise norm one", stacklevel=2)

    certs: list[Certificate] = []
    eF, eE = F.measure, E.measure
    if eE > eF:
        # M 1_F > thresh, compared in integers over M's denominator
        M, den = maximal_numerators(F.indicator())
        thresh = 2 * eF / eE
        bound = thresh.numerator * den
        G = LevelSet.from_cells(E.L, (j for j, n in enumerate(M) if n * thresh.denominator > bound))
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
        gt = g.restrict(Etilde)
        regime = "E>F"
        log_bound = float(eF) * (1.0 + math.log(float(eE) / float(eF)))
    else:
        G = LevelSet.empty(E.L)
        Etilde = E
        gt = g
        regime = "E<=F"
        log_bound = float(eE) * (1.0 + math.log(float(eF) / float(eE)))

    U = bitile_universe(f.L)
    Cf = carleson_bitile(f, Nfun, U)
    # one integer dot product over every entry
    dot = sum(map(mul, chain.from_iterable(Cf.cols), chain.from_iterable(gt.cols)))
    form = Fraction(abs(dot), Cf.den * gt.den * f.cells)

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
