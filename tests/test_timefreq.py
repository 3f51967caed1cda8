"""Tree machinery: identities, density counting, the size functional."""

import itertools
from types import SimpleNamespace

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from tilewalsh.dyadic import (
    Bitile,
    DyadicInterval,
    bitile_le,
    bitile_le_u,
    bitile_universe,
)
from tilewalsh.gen import (
    SplitMix64,
    gen_collection,
    gen_levelset,
    gen_nfun,
    gen_signal,
)
from tilewalsh.signal import FrequencyChoice, LevelSet, NormPlugin, Signal, lq_norm_pow
from tilewalsh.timefreq import (
    DensityCounter,
    Tree,
    TreeFamily,
    density,
    down_coefficients_inf,
    epsilon_pt,
    gap_set,
    gj_certificate,
    hilbert_top_sums,
    local_density,
    maximal_gap_intervals,
    size_pow,
    tree_delta_pow,
    tree_form_sum,
    up_ancestors,
    verify_tree_identity,
)

from reference import (
    bitile_ancestors,
    hilbert_member_weights,
    index_weights,
    candidate_tops,
    complete_up_tree,
    down_packet_sum,
    gen_tree_members,
    member_form_terms,
    pairing_inf,
    size,
)

EUCL = NormPlugin("euclidean")


class TestTree:
    def test_build_rejects_non_members(self):
        top = Bitile(DyadicInterval(0, 0), 0)
        bad = Bitile(DyadicInterval(1, 0), 3)
        with pytest.raises(ValueError):
            Tree(top, (bad,))

    def test_up_part_and_split_partition(self):
        top = Bitile(DyadicInterval(0, 0), 0)
        members = [P for P in bitile_universe(2).items if bitile_le(P, top)]
        tree = Tree.build(top, members)
        down, rest = tree.split()
        assert sorted(down + rest, key=Bitile.key) == sorted(members, key=Bitile.key)
        for P in tree.up_part():
            assert bitile_le_u(P, top)

    def test_json_roundtrip(self):
        top = Bitile(DyadicInterval(0, 0), 1)
        tree = Tree.build(top, gen_tree_members(3, top, 5, SplitMix64(4)))
        assert Tree.from_json(tree.to_json()) == tree


class TestAncestors:
    @given(st.integers(0, 3), st.data())
    def test_up_ancestors_are_up_order(self, k, data):
        pos = data.draw(st.integers(0, (1 << k) - 1))
        m = data.draw(st.integers(0, 7))
        P = Bitile(DyadicInterval(k, pos), m)
        for T in up_ancestors(P):
            assert bitile_le_u(P, T)

    @given(st.integers(0, 3), st.data())
    def test_bitile_ancestors_are_full_order(self, k, data):
        pos = data.draw(st.integers(0, (1 << k) - 1))
        m = data.draw(st.integers(0, 7))
        P = Bitile(DyadicInterval(k, pos), m)
        for T in bitile_ancestors(P):
            assert bitile_le(P, T)

    @pytest.mark.parametrize("L", [2, 3])
    def test_up_ancestors_complete(self, L):
        # brute force: every T with P <=_u T in the universe is enumerated
        U = list(bitile_universe(L).items)
        for P in U:
            brute = {T for T in U if bitile_le_u(P, T)}
            listed = {T for T in up_ancestors(P) if T in set(U)}
            assert brute == listed


class TestTreeIdentity:
    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_exhaustive(self, L):
        U = list(bitile_universe(L).items)
        pairs = 0
        for P, T in itertools.product(U, U):
            if P == T or not bitile_le_u(P, T):
                continue
            if P.time.k >= L:
                continue  # Haar pattern of I_P below cell scale
            if (2 * T.m + 1) >= (1 << (L - T.time.k)):
                continue  # boundary up packet below cell scale
            assert verify_tree_identity(P, T, L)
            pairs += 1
        assert pairs > 0

    def test_epsilon_is_sign(self):
        U = list(bitile_universe(3).items)
        for P, T in itertools.product(U, U):
            if P != T and bitile_le_u(P, T):
                assert epsilon_pt(P, T) in (-1, 1)


class TestCoefficients:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_pairing_inf(self, data):
        rng = SplitMix64(data.draw(st.integers(0, 10**6)))
        f = gen_signal(3, 1, "vector", rng)
        coll = gen_collection(3, 8, rng)
        coeffs = down_coefficients_inf(f, coll)
        for P in coll:
            expect = pairing_inf(f.scalar_samples(), P.down, f.L)
            assert coeffs[P] == [expect]


class TestDensity:
    def test_table_bit_bound(self):
        # numerator and witness code pack into 2L + 6 bits of an int64
        for L in (29, 40):
            stub = SimpleNamespace(L=L)
            with pytest.raises(ValueError, match="does not fit"):
                DensityCounter(stub, stub)

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_local_density_brute_force(self, data):
        rng = SplitMix64(data.draw(st.integers(0, 10**6)))
        L = 3
        E = gen_levelset(L, Fraction(1, 2), rng)
        N = gen_nfun(L, rng)
        counter = DensityCounter(E, N)
        def frac(T):
            # fraction of I_T lying in E with N in the full bitile window
            hits = sum(
                1
                for j in T.time.cells(L)
                if j in E and T.freq_lo <= N[j] < T.freq_hi
            )
            return Fraction(hits, 1 << (L - T.time.k))

        U = list(bitile_universe(L).items)
        for P in U:
            val, witness = local_density(P, counter)
            brute = max((frac(T) for T in bitile_ancestors(P)), default=Fraction(0))
            assert val == brute
            assert bitile_le(P, witness)
            assert frac(witness) == val

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_E_and_coll(self, data):
        rng = SplitMix64(data.draw(st.integers(0, 10**6)))
        L = 3
        E1 = gen_levelset(L, Fraction(1, 4), rng)
        extra = gen_levelset(L, Fraction(1, 4), rng)
        E2 = LevelSet(L, E1.mask | extra.mask)
        N = gen_nfun(L, rng)
        coll = gen_collection(L, 10, rng)
        sub = coll[:5]
        assert density(sub, E1, N) <= density(coll, E1, N)
        assert density(coll, E1, N) <= density(coll, E2, N)

    def test_empty_set(self):
        L = 3
        E = LevelSet.empty(L)
        N = FrequencyChoice(L, (0,) * 8)
        assert density(list(bitile_universe(L).items), E, N) == 0


class TestSizeFunctional:
    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_parseval_cross_check(self, data):
        # the Parseval up-sum at T vs the L2 mass of the synthesized up-part
        rng = SplitMix64(data.draw(st.integers(0, 10**6)))
        L = 3
        f = gen_signal(L, data.draw(st.sampled_from([1, 2])), "vector", rng)
        coll = gen_collection(L, 10, rng)
        coeffs = down_coefficients_inf(f, coll)
        weights = hilbert_member_weights(coll, coeffs)
        sums = hilbert_top_sums(coll, index_weights(coll, weights))
        for T in candidate_tops(coll):
            tree = complete_up_tree(T, coll)
            g = down_packet_sum(tree.up_part(), f, coeffs)
            direct = lq_norm_pow(g, 2, EUCL) / tree.time.length
            assert weights.value(sums[T.key()] * (1 << T.time.k)) == direct

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_exhaustive_subtree_oracle_hilbert(self, data):
        # computed size equals the sup over ALL up-subtrees when q=2 euclidean
        rng = SplitMix64(data.draw(st.integers(0, 10**6)))
        L = 3
        f = gen_signal(L, 1, "vector", rng)
        coll = gen_collection(L, 6, rng)
        computed = size_pow(coll, f, 2, EUCL)
        best = Fraction(0)
        for T in candidate_tops(coll):
            members = [P for P in coll if bitile_le_u(P, T)]
            for r in range(1, len(members) + 1):
                for subset in itertools.combinations(members, r):
                    val = tree_delta_pow(Tree.build(T, subset), f, 2, EUCL)
                    best = max(best, val)
        assert computed == best

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_coll_hilbert(self, data):
        rng = SplitMix64(data.draw(st.integers(0, 10**6)))
        L = 3
        f = gen_signal(L, 1, "vector", rng)
        coll = gen_collection(L, 12, rng)
        small = size_pow(coll[:6], f, 2, EUCL)
        large = size_pow(coll, f, 2, EUCL)
        assert small <= large

    def test_empty_collection(self):
        f = Signal.scalar([Fraction(1)] * 8)
        assert size_pow([], f, 2, EUCL) == 0

    def test_size_is_qth_root(self):
        rng = SplitMix64(3)
        f = gen_signal(3, 1, "vector", rng)
        coll = gen_collection(3, 8, rng)
        pw = size_pow(coll, f, 2, EUCL)
        val = size(coll, f, 2, EUCL)
        assert val == pytest.approx(float(pw) ** 0.5, rel=1e-12)


class TestGapIntervals:
    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_gap_interval_properties(self, data):
        rng = SplitMix64(data.draw(st.integers(0, 10**6)))
        L = 4
        top = Bitile(DyadicInterval(0, 0), data.draw(st.integers(0, 3)))
        members = gen_tree_members(L, top, 8, rng)
        if not members:
            return
        jays = maximal_gap_intervals(members, L)
        times = {P.time for P in members}
        covered = set()
        for I in times:
            covered.update(I.cells(L))
        gap_cells = set()
        for J in jays:
            # no member interval inside J, but J sits inside the union
            assert not any(J.contains(I) for I in times)
            assert set(J.cells(L)) <= covered
            assert gap_cells.isdisjoint(J.cells(L))
            gap_cells.update(J.cells(L))
        # gap intervals tile the union except cells that are themselves
        # finest-scale member intervals (no strictly finer dyadic interval
        # exists on the grid)
        blocked = {j for j in covered if DyadicInterval(L, j) in times}
        assert gap_cells == covered - blocked

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_gj_certificates_exact_pass(self, data):
        rng = SplitMix64(data.draw(st.integers(0, 10**6)))
        L = 4
        top = Bitile(DyadicInterval(0, 0), data.draw(st.integers(0, 3)))
        members = gen_tree_members(L, top, 8, rng)
        if not members:
            return
        tree = Tree.build(top, members)
        E = gen_levelset(L, Fraction(1, 2), rng)
        N = gen_nfun(L, rng)
        for cert in gj_certificate(tree, E, N):
            assert cert.mode == "exact"
            assert cert.passed

    def test_gap_set_requires_strict_containment(self):
        L = 3
        P = Bitile(DyadicInterval(1, 0), 0)
        E = LevelSet.full(L)
        N = FrequencyChoice(L, (P.up.freq_lo,) * 8)
        # J equal to the member's own interval is not strictly contained
        assert gap_set(P.time, [P], E, N).count == 0
        assert gap_set(DyadicInterval(2, 0), [P], E, N).count == 2


class TestTreeForm:
    @given(st.data())
    @settings(max_examples=10, deadline=None)
    def test_form_sum_matches_terms(self, data):
        rng = SplitMix64(data.draw(st.integers(0, 10**6)))
        L = 3
        f = gen_signal(L, 1, "vector", rng)
        g = gen_signal(L, 1, "vector", rng)
        E = gen_levelset(L, Fraction(1, 2), rng)
        N = gen_nfun(L, rng)
        top = Bitile(DyadicInterval(0, 0), 0)
        members = gen_tree_members(L, top, 6, rng)
        if not members:
            return
        tree = Tree.build(top, members)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lhs, diag = tree_form_sum(tree, f, g, E, N)
        terms = member_form_terms(members, f, g, E, N)
        assert lhs == sum(terms.values(), Fraction(0))
        assert diag["ratio"] >= 0.0


class TestTreeFamily:
    def test_violations_detected(self):
        P = Bitile(DyadicInterval(1, 0), 0)
        t1 = Tree.build(Bitile(DyadicInterval(1, 0), 0), [P])
        t2 = Tree.build(Bitile(DyadicInterval(0, 0), 0), [P])
        fam = TreeFamily((t1, t2))
        assert fam.down_disjointness_violations()

    def test_up_tree_members_are_disjoint(self):
        # members of a single up-tree automatically have disjoint down-tiles
        from tilewalsh.gen import gen_tree_family

        for seed in range(10):
            fam = gen_tree_family(4, SplitMix64(seed))
            assert fam.down_disjointness_violations() == []
