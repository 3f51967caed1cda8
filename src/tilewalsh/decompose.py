"""Greedy tree decompositions with exact certificates: the density split,
the minimal-center size split, the leveled full decomposition, tile-type
estimation, and restricted weak-type experiments."""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from itertools import chain
from operator import mul
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .certificates import Certificate
from .dyadic import Bitile, bitile_universe
from .operators import carleson_bitile
from .signal import (
    FrequencyChoice,
    LevelSet,
    NormPlugin,
    Signal,
    dual_pair,
    lq_norm,
    lq_norm_pow,
    maximal_function,
    value_norms,
)
from .timefreq import (
    DensityCounter,
    SizeEvaluator,
    Tree,
    TreeFamily,
    _is_hilbert_case,
    _lq_pow,
    _pow_gt,
    abs_sum,
    density,
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

    def all_certificates(self) -> list[Certificate]:
        out = list(self.certificates)
        for rec in self.levels:
            out.extend(rec.certificates)
        return out

    def all_trees(self) -> list[tuple[int, Tree]]:
        return [(rec.n, tree) for rec in self.levels for tree in rec.trees]


# ---------------------------------------------------------------------------
# density lemma

def _canonical(coll) -> list[Bitile]:
    """The bitiles of coll without repeats, in canonical order; keyed by
    Bitile.key, whose integer tuples hash faster than bitiles."""
    return [P for _, P in sorted({P.key(): P for P in coll}.items())]


def _two_pow(n: int | float):
    """2^n as an exact Fraction for integer n, float otherwise."""
    if isinstance(n, int) or (isinstance(n, Fraction) and n.denominator == 1):
        n = int(n)
        return Fraction(1 << n) if n >= 0 else Fraction(1, 1 << -n)
    return 2.0 ** float(n)


class _TopIndex:
    """A set of bitile keys (k, pos, m) held per interval (k, pos) as a
    sorted list of m.  The bitiles above (k, pos, m) in the tile order are,
    d scales up, the integer range (k - d, pos >> d, [m 2^d, (m+1) 2^d)),
    so each scale is one bisection."""

    def __init__(self, keys) -> None:
        self.rows: dict[tuple[int, int], list[int]] = {}
        for k, pos, m in sorted(keys):
            self.rows.setdefault((k, pos), []).append(m)

    def first_above(self, k: int, pos: int, m: int):
        """The first key T in canonical order with (k, pos, m) <= T in the
        tile order, or None."""
        for d in range(k, -1, -1):
            row = self.rows.get((k - d, pos >> d))
            if row:
                i = bisect_left(row, m << d)
                if i < len(row) and row[i] < (m + 1) << d:
                    return (k - d, pos >> d, row[i])
        return None


def density_decompose(
    coll: Sequence[Bitile],
    E: LevelSet,
    Nfun: FrequencyChoice,
    q,
    counter: DensityCounter | None = None,
) -> DensityDecomposition:
    """Split a collection into a sparse part whose density drops by 2^-q
    and trees whose top time intervals carry at most 2^q / density |E|
    total length; the constructive greedy from the density lemma.

    The tops are the maximal witnesses of the dense bitiles, and each
    dense bitile joins the first top above it in canonical order.  That is
    the first witness above it: a witness with a strict tile-order
    ancestor among the witnesses is not, since the ancestor is coarser and
    so comes first."""
    coll = _canonical(coll)
    if counter is None:
        counter = DensityCounter(E, Nfun)
    # integer numerators over 2^L (DensityCounter.lookup) and witness keys
    found = [counter.lookup(*P.key()) for P in coll]
    scale = 1 << counter.L
    dens = Fraction(max((num for num, _ in found), default=0), scale)
    threshold = dens * _two_pow(-q) if dens else Fraction(0)
    # num / 2^L > threshold exactly when num > cut, for a Fraction or float
    cut = math.floor(Fraction(threshold) * scale)

    sparse = [P for P, (num, _) in zip(coll, found) if num <= cut]
    rest = [P for P, (num, _) in zip(coll, found) if num > cut]
    witnesses = _TopIndex({key for num, key in found if num > cut})
    members: dict[tuple[int, int, int], list[Bitile]] = {}
    for P in rest:
        T = witnesses.first_above(*P.key())
        if T is None:
            raise RuntimeError("density split failed to assign every dense bitile")
        members.setdefault(T, []).append(P)
    trees = [Tree(Bitile.from_key(T), tuple(ms)) for T, ms in sorted(members.items())]

    sparse_density = Fraction(max((num for num, _ in found if num <= cut), default=0), scale)
    certs = [
        Certificate.make(
            "density_sparse",
            sparse_density,
            threshold,
            theorem_backed=True,
            context={"q": q, "density": dens},
        )
    ]
    if dens > 0:
        mass = sum((t.time.length for t in trees), Fraction(0))
        bound = _two_pow(q) / dens * E.measure
        certs.append(
            Certificate.make(
                "density_mass",
                mass,
                bound,
                theorem_backed=True,
                context={"q": q, "trees": len(trees), "set_measure": E.measure},
            )
        )
    return DensityDecomposition(tuple(sparse), tuple(trees), tuple(certs), dens)


# ---------------------------------------------------------------------------
# size lemma

def _take_below(remaining: dict, top: tuple[int, int, int], finest: int) -> list[Bitile]:
    """Remove and return, in canonical order, the members of remaining
    (keyed by (k, pos, m)) below top in the tile order: d scales down they
    are (k + d, [pos 2^d, (pos+1) 2^d), m >> d)."""
    k, pos, m = top
    out = []
    for d in range(finest - k + 1):
        md = m >> d
        for p in range(pos << d, (pos + 1) << d):
            P = remaining.pop((k + d, p, md), None)
            if P is not None:
                out.append(P)
    return out


def first_maximal_top(mask: np.ndarray) -> tuple[int, int, int] | None:
    """The key of the cell of a boolean grid (see timefreq.up_sum_grids)
    that is set, lies below no other set cell in the tile order, and has the
    least frequency center (2m + 1) 2^k, ties by key; None when no cell is
    set.  The cells above (k, pos, m) are its two parents
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
    # an odd multiple of 2^k, the center fixes (k, m): ties are broken by pos
    i = ((((2 * m + 1) << rows) << D) | pos).argmin()
    return int(rows[i]), int(pos[i]), int(m[i])


def size_decompose(
    coll: Sequence[Bitile],
    f: Signal,
    q,
    plugin: NormPlugin,
    sizes: SizeEvaluator | None = None,
) -> SizeDecomposition:
    """Greedy extraction of trees whose up-part mass exceeds half the
    collection size, choosing the qualifying maximal tree with the minimal
    top frequency center; ties fall back to the canonical bitile order.

    Every size comes from sizes, the run's SizeEvaluator, built over coll
    when absent.  One of its grids over the members with a nonzero
    coefficient gives the collection size and the qualifying tops of every
    round, and loses each tree as it is taken out."""
    coll = _canonical(coll)
    if sizes is None:
        sizes = SizeEvaluator(coll, f, q, plugin)
    zero = [P for P in coll if P.key() not in sizes.nonzero]
    active = [P for P in coll if P.key() in sizes.nonzero]

    grid = sizes.grid(active)
    sigma_pow = grid.pow()
    threshold_pow = sigma_pow * _two_pow(-q)

    remaining = {P.key(): P for P in active}
    finest = max((P.time.k for P in coll), default=0)
    trees: list[Tree] = []
    rounds = 0
    while remaining:
        rounds += 1
        if rounds > len(coll) + 1:
            raise RuntimeError("size split failed to terminate")
        pick = first_maximal_top(grid.exceeding(threshold_pow))
        if pick is None:
            break
        tree = Tree(Bitile.from_key(pick), tuple(_take_below(remaining, pick, finest)))
        trees.append(tree)
        grid.remove(tree.members)

    small = sorted([*remaining.values(), *zero], key=Bitile.key)
    tree_pows = sizes.tree_pows(trees)
    # the zero-coefficient members add nothing to any size
    small_pow = grid.pow()

    certs = [
        Certificate.make(
            "size_small",
            small_pow,
            threshold_pow,
            theorem_backed=True,
            context={"q": q, "note": "q-th powers of size; threshold is (size/2)^q"},
        )
    ]

    tiles = [(P.time.k, P.time.pos, 2 * P.m) for t in trees for P in t.up_part()]
    certs.append(
        Certificate.make(
            "down_tile_disjointness",
            len(meeting_tile_pairs(tiles)),
            0,
            theorem_backed=True,
            context={"pairs_checked": len(tiles) * (len(tiles) - 1) // 2},
        )
    )

    mass = sum((t.time.length for t in trees), Fraction(0))
    fq_pow = sizes.fq_pow
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
    return SizeDecomposition(
        tuple(small), tuple(trees), tuple(certs), sigma_pow, tuple(tree_pows), stats
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

    The density table of (E, N) is built once, and sizes, the run's
    SizeEvaluator (built over coll when absent), serves every level."""
    if E.count == 0:
        raise ValueError("empty level set: level exponents undefined")
    coll = _canonical(coll)
    if sizes is None:
        sizes = SizeEvaluator(coll, f, q, plugin)
    fq_pow = sizes.fq_pow
    if not float(fq_pow) > 0:
        raise ValueError("zero signal: level exponents undefined")

    counter = DensityCounter(E, Nfun)
    dens0 = density(coll, E, Nfun, counter=counter)
    size0_pow = sizes.grid(coll).pow()

    L = f.L
    n_max = starting_level(dens0, size0_pow, fq_pow, E.measure, q, L)

    levels: list[LevelRecord] = []
    active = list(coll)
    n = n_max
    while True:
        if not any(P.key() in sizes.nonzero for P in active):
            break
        dres = density_decompose(active, E, Nfun, q, counter=counter)
        sres = size_decompose(dres.sparse, f, q, plugin, sizes=sizes)
        level_trees = tuple(dres.trees) + tuple(sres.trees)
        tag = _two_pow(n * q) if isinstance(q, int) else 2.0 ** (n * float(q))
        tag_size = tag * fq_pow

        certs: list[Certificate] = list(dres.certificates) + list(sres.certificates)
        densities = tuple(density(t.members, E, Nfun, counter=counter) for t in level_trees)
        certs.append(
            Certificate.make(
                "level_density",
                max(densities, default=Fraction(0)),
                _min_one(tag * E.measure),
                theorem_backed=True,
                context={"n": n},
            )
        )
        tree_pows = tuple(sizes.tree_pows(dres.trees)) + sres.tree_pows
        level_size_pow = Fraction(0)
        for v in tree_pows:
            if _pow_gt(v, level_size_pow):
                level_size_pow = v
        certs.append(
            Certificate.make(
                "level_size",
                level_size_pow,
                tag_size,
                theorem_backed=_is_hilbert_case(q, plugin),
                context={"n": n, "note": "q-th powers"},
            )
        )
        mass = sum((t.time.length for t in level_trees), Fraction(0))
        certs.append(
            Certificate.make(
                "level_mass",
                mass,
                mass,
                theorem_backed=False,
                context={"n": n, "mass_constant": float(mass) * float(tag)},
            )
        )
        levels.append(LevelRecord(n, level_trees, tuple(certs), tree_pows, densities))
        active = list(sres.small)
        n -= 1

    residual = tuple(_canonical(active))
    top_certs = [
        Certificate.make(
            "residual_zero_contribution",
            sum(1 for P in residual if P.key() in sizes.nonzero),
            0,
            theorem_backed=True,
            context={"residual": len(residual)},
        )
    ]
    span = n_max - (levels[-1].n if levels else n_max)
    top_certs.append(
        Certificate.make(
            "level_span",
            span,
            4 * L,
            theorem_backed=False,
            context={"n_max": n_max, "levels": len(levels)},
        )
    )
    return LeveledForest(tuple(levels), residual, tuple(top_certs))


def starting_level(dens0, size0_pow, fq_pow, measure: Fraction, q, L: int) -> int:
    """The smallest integer n in [-16L - 64, 16L + 64] with
    dens0 <= min(1, 2^(nq) |E|) and size0_pow <= 2^(nq) |f|_q^q;
    RuntimeError when no n there qualifies.

    Both tests only get easier as n grows, for integer and float q alike.
    A bit-length estimate of log2 of each ratio, within one of it, gives a
    start that steps down while n - 1 qualifies and up until n does."""
    lo, hi = -16 * L - 64, 16 * L + 64

    def ok(n: int) -> bool:
        tag = _two_pow(n * q) if isinstance(q, int) else 2.0 ** (n * float(q))
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
    coll = list(bitile_universe(f.L).items)
    sizes = SizeEvaluator(coll, f, q, plugin)
    forest = full_decompose(coll, f, E, Nfun, q, plugin, sizes=sizes)
    products, den = sizes.form_products(g, E, Nfun)
    fq_pow = sizes.fq_pow

    total = abs_sum(products.values(), den)
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
            form = abs_sum([products[P.key()] for P in tree.members], den)
            size_val = float(spow) ** (1.0 / qf)
            rhs = size_val * float(dens) * float(tree.time.length)
            tree_rows.append(
                {
                    "top": tree.top.to_json(),
                    "members": len(tree.members),
                    "form": form,
                    "tree_lemma_ratio": float(form) / rhs if rhs > 0 else 0.0,
                }
            )
            level_mass += float(tree.time.length)
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
    with pairwise disjoint down-tiles; also certifies per tree that the
    packet form and its Haar form have equal L^q norms."""
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
                theorem_backed=True,
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
        M = maximal_function(F.indicator(), plugin)
        thresh = 2 * eF / eE
        bound = thresh.numerator * M.den
        G = LevelSet.from_cells(
            E.L, (j for j, n in enumerate(M.cols[0]) if n * thresh.denominator > bound)
        )
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
    if Cf.den is not None and gt.den is not None:
        # one integer dot product over every entry
        dot = sum(map(mul, chain.from_iterable(Cf.cols), chain.from_iterable(gt.cols)))
        form = Fraction(abs(dot), Cf.den * gt.den * f.cells)
    else:
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
