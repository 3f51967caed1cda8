"""Greedy tree decompositions with exact certificates: the density split,
the minimal-center size split, the leveled full decomposition, tile-type
estimation, and restricted weak-type experiments."""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
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
    value_norm,
)
from .timefreq import (
    DensityCounter,
    HilbertWeights,
    Tree,
    TreeFamily,
    UpSumGrid,
    _is_hilbert_case,
    _pow_gt,
    candidate_tops,
    complete_up_tree,
    density,
    down_coefficients_inf,
    down_packet_sum,
    grid_cells,
    grid_depth,
    hilbert_member_weights,
    hilbert_tree_pows,
    meeting_tile_pairs,
    member_form_products,
    size_pow,
    tree_delta_pow,
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

def _lq_pow(f: Signal, q, plugin: NormPlugin):
    """|f|_q^q; exact when representable, else from the float norm."""
    fq_pow = lq_norm_pow(f, q, plugin)
    return fq_pow if fq_pow is not None else lq_norm(f, q, plugin) ** float(q)


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


def nonzero_keys(coll: Sequence[Bitile], coeffs: dict[Bitile, list[Fraction]]) -> set:
    """Keys of the members with a nonzero down coefficient.  From the
    coefficients, not the masses: a float c c can underflow to 0.0."""
    return {P.key() for P in coll if any(c != 0 for c in coeffs[P])}


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
    coeffs: dict[Bitile, list[Fraction]] | None = None,
    weights: HilbertWeights | None = None,
    fq_pow=None,
    nonzero: set | None = None,
) -> SizeDecomposition:
    """Greedy extraction of trees whose up-part mass exceeds half the
    collection size, choosing the qualifying maximal tree with the minimal
    top frequency center; ties fall back to the canonical bitile order.

    In the Hilbert case one UpSumGrid holds the up-sums of the masses; it
    gives the collection size, the qualifying tops of every round and,
    after the trees are taken out, the remainder's size.  The trees' sizes
    come from hilbert_tree_pows.  fq_pow is |f|_q^q and nonzero the keys of
    the members with a nonzero coefficient (nonzero_keys), computed when
    absent."""
    coll = _canonical(coll)
    if coeffs is None:
        coeffs = down_coefficients_inf(f, coll)
    if nonzero is None:
        nonzero = nonzero_keys(coll, coeffs)
    zero = [P for P in coll if P.key() not in nonzero]
    active = [P for P in coll if P.key() in nonzero]

    hilbert = _is_hilbert_case(q, plugin)
    if hilbert:
        if weights is None:
            weights = hilbert_member_weights(coll, coeffs)
        grid = UpSumGrid(active, weights)
        sigma_pow = grid.pow()
    else:
        sigma_pow = size_pow(active, f, q, plugin, coeffs=coeffs)
        depth = grid_depth(P.key() for P in active)
    threshold_pow = sigma_pow * _two_pow(-q)

    remaining = {P.key(): P for P in active}
    finest = max((P.time.k for P in coll), default=0)
    trees: list[Tree] = []
    rounds = 0
    while remaining:
        rounds += 1
        if rounds > len(coll) + 1:
            raise RuntimeError("size split failed to terminate")
        if hilbert:
            qualifying = grid.exceeding(threshold_pow)
        else:
            rest = list(remaining.values())
            tops = [
                T.key()
                for T in candidate_tops(rest)
                if _pow_gt(
                    tree_delta_pow(complete_up_tree(T, rest), f, q, plugin, coeffs=coeffs),
                    threshold_pow,
                )
            ]
            qualifying = np.zeros((depth + 1, 1 << depth), bool)
            qualifying[grid_cells(tops, depth)] = True
        pick = first_maximal_top(qualifying)
        if pick is None:
            break
        tree = Tree(Bitile.from_key(pick), tuple(_take_below(remaining, pick, finest)))
        trees.append(tree)
        if hilbert:
            grid.remove(tree.members)

    small = sorted([*remaining.values(), *zero], key=Bitile.key)
    if not hilbert:
        tree_pows = [size_pow(t.members, f, q, plugin, coeffs=coeffs) for t in trees]
        small_pow = size_pow(small, f, q, plugin, coeffs=coeffs)
    else:
        tree_pows = hilbert_tree_pows(trees, weights)
        # float sums after decrements differ in the last bits from a sweep
        small_pow = grid.pow() if weights.exact else UpSumGrid(small, weights).pow()

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
    if fq_pow is None:
        fq_pow = _lq_pow(f, q, plugin)
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
    coeffs: dict[Bitile, list[Fraction]] | None = None,
    counter: DensityCounter | None = None,
    weights: HilbertWeights | None = None,
    fq_pow=None,
) -> LeveledForest:
    """Alternate the density and size splits level by level, tagging the
    extracted trees with the level exponent n and emitting the density,
    size and mass certificates at every level.

    The down coefficients, the density table of (E, N), |f|_q^q, the keys
    of the members with a nonzero coefficient and, in the Hilbert case, the
    member masses are computed once over coll (or passed in) and shared by
    every level."""
    if E.count == 0:
        raise ValueError("empty level set: level exponents undefined")
    if fq_pow is None:
        fq_pow = _lq_pow(f, q, plugin)
    if not float(fq_pow) > 0:
        raise ValueError("zero signal: level exponents undefined")

    coll = _canonical(coll)
    if coeffs is None:
        coeffs = down_coefficients_inf(f, coll)
    if counter is None:
        counter = DensityCounter(E, Nfun)
    hilbert = _is_hilbert_case(q, plugin)
    if hilbert and weights is None:
        weights = hilbert_member_weights(coll, coeffs)
    nonzero = nonzero_keys(coll, coeffs)
    dens0 = density(coll, E, Nfun, counter=counter)
    size0_pow = size_pow(coll, f, q, plugin, coeffs=coeffs, weights=weights)

    # smallest integer n with density <= min(1, 2^(nq) |E|)
    # and size^q <= 2^(nq) |f|_q^q
    L = f.L
    n_max = None
    for n in range(-16 * L - 64, 16 * L + 65):
        tag = _two_pow(n * q) if isinstance(q, int) else 2.0 ** (n * float(q))
        ok_d = _le(dens0, _min_one(tag * E.measure))
        ok_s = _le(size0_pow, tag * fq_pow)
        if ok_d and ok_s:
            n_max = n
            break
    if n_max is None:
        raise RuntimeError("could not locate a starting level")

    levels: list[LevelRecord] = []
    active = list(coll)
    n = n_max
    while True:
        if not any(P.key() in nonzero for P in active):
            break
        dres = density_decompose(active, E, Nfun, q, counter=counter)
        sres = size_decompose(
            dres.sparse, f, q, plugin,
            coeffs=coeffs, weights=weights, fq_pow=fq_pow, nonzero=nonzero,
        )
        level_trees = tuple(dres.trees) + tuple(sres.trees)
        tag = _two_pow(n * q) if isinstance(q, int) else 2.0 ** (n * float(q))
        tag_size = tag * fq_pow

        certs: list[Certificate] = list(dres.certificates) + list(sres.certificates)
        members = [P for t in level_trees for P in t.members]
        level_density = density(members, E, Nfun, counter=counter)
        certs.append(
            Certificate.make(
                "level_density",
                level_density,
                _min_one(tag * E.measure),
                theorem_backed=True,
                context={"n": n},
            )
        )
        if hilbert:
            tree_pows = tuple(hilbert_tree_pows(dres.trees, weights))
        else:
            tree_pows = tuple(size_pow(t.members, f, q, plugin, coeffs=coeffs) for t in dres.trees)
        tree_pows += sres.tree_pows
        level_size_pow = Fraction(0)
        for v in tree_pows:
            if _pow_gt(v, level_size_pow):
                level_size_pow = v
        certs.append(
            Certificate.make(
                "level_size",
                level_size_pow,
                tag_size,
                theorem_backed=hilbert,
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
        levels.append(LevelRecord(n, level_trees, tuple(certs), tree_pows))
        active = list(sres.small)
        n -= 1

    residual = tuple(_canonical(active))
    top_certs = [
        Certificate.make(
            "residual_zero_contribution",
            sum(1 for P in residual if P.key() in nonzero),
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
    if any(value_norm(v, plugin.dual()) > 1 + 1e-9 for v in g.samples):
        warnings.warn("dual function exceeds pointwise norm one", stacklevel=2)
    coll = list(bitile_universe(f.L).items)
    coeffs = down_coefficients_inf(f, coll)
    counter = DensityCounter(E, Nfun)
    weights = hilbert_member_weights(coll, coeffs) if _is_hilbert_case(q, plugin) else None
    fq_pow = _lq_pow(f, q, plugin)
    forest = full_decompose(
        coll, f, E, Nfun, q, plugin,
        coeffs=coeffs, counter=counter, weights=weights, fq_pow=fq_pow,
    )
    products = member_form_products(coll, f, g, E, Nfun, coeffs=coeffs)

    total = sum((abs(v) for v in products.values()), Fraction(0))
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
        for tree, spow in zip(rec.trees, rec.size_pows):
            form = sum((abs(products[P]) for P in tree.members), Fraction(0))
            dens = density(tree.members, E, Nfun, counter=counter)
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
    coeffs = down_coefficients_inf(f, members)
    certs: list[Certificate] = []
    hilbert = _is_hilbert_case(q, plugin)
    total_pow = Fraction(0)
    exact_total = True
    for idx, tree in enumerate(family.trees):
        u = down_packet_sum(tree.members, f, coeffs=coeffs)
        # the Haar pattern of I_P is the packet of I_P with n = 1
        haar = [
            (P.time.k, P.time.pos, 1, [c * (1 << P.time.k) for c in coeffs[P]])
            for P in tree.members
        ]
        u_haar = f.with_components(packet_synthesis(haar, len(f.comps), f.L))
        upow = lq_norm_pow(u, q, plugin)
        hpow = lq_norm_pow(u_haar, q, plugin)
        if upow is None or hpow is None:
            upow_f = lq_norm(u, q, plugin) ** float(q)
            hpow_f = lq_norm(u_haar, q, plugin) ** float(q)
            certs.append(
                Certificate.make(
                    "packet_haar_norm_equality",
                    abs(upow_f - hpow_f),
                    1e-9 * max(1.0, abs(upow_f)),
                    theorem_backed=True,
                    context={"tree": idx},
                )
            )
            total_pow = float(total_pow) + upow_f
            exact_total = False
        else:
            certs.append(
                Certificate.make(
                    "packet_haar_norm_equality",
                    abs(upow - hpow),
                    Fraction(0),
                    theorem_backed=True,
                    context={"tree": idx},
                )
            )
            if exact_total:
                total_pow = total_pow + upow
            else:
                total_pow = float(total_pow) + float(upow)

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
            theorem_backed=hilbert,
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
    for j in range(f.cells):
        if j not in F and any(c[j] != 0 for c in f.comps):
            raise ValueError("signal not supported on F")
        if j not in E and any(c[j] != 0 for c in g.comps):
            raise ValueError("dual function not supported on E")
    if any(value_norm(v, plugin) > 1 + 1e-9 for v in f.samples):
        warnings.warn("signal exceeds pointwise norm one", stacklevel=2)
    if any(value_norm(v, plugin.dual()) > 1 + 1e-9 for v in g.samples):
        warnings.warn("dual function exceeds pointwise norm one", stacklevel=2)

    certs: list[Certificate] = []
    eF, eE = F.measure, E.measure
    if eE > eF:
        M = maximal_function(F.indicator(), plugin).scalar_samples()
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
            [
                [x if j in Etilde else Fraction(0) for j, x in enumerate(comp)]
                for comp in g.comps
            ]
        )
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
