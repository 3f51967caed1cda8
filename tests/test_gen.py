"""Block draws of the splitmix64 stream against the same draws made one
below() at a time: the same values and the same state afterwards."""

import pytest
from hypothesis import given, settings, strategies as st

import reference
from tilewalsh.gen import MASK64, SplitMix64, gen_levelset, gen_nfun, gen_signal

BOUNDS = {
    "2^17": lambda n: [1 << 17] * n,
    "513": lambda n: [513] * n,
    "n..2": lambda n: range(n, 1, -1),
    # rejection about one draw in two, so most blocks stop early
    "2^63+1": lambda n: [(1 << 63) + 1] * n,
    "2^64-1": lambda n: [MASK64] * n,
}


@pytest.mark.parametrize("kind", sorted(BOUNDS))
@given(st.integers(0, MASK64), st.integers(0, 300))
@settings(max_examples=25, deadline=None)
def test_block_matches_one_at_a_time(kind, seed, n):
    bounds = list(BOUNDS[kind](n))
    block, single = SplitMix64(seed), SplitMix64(seed)
    draws = block.below_each(bounds)
    assert draws.tolist() == [single.below(b) for b in bounds]
    assert block.state == single.state


@given(st.integers(0, MASK64), st.lists(st.integers(1, MASK64), max_size=40))
@settings(max_examples=50, deadline=None)
def test_mixed_bounds(seed, bounds):
    block, single = SplitMix64(seed), SplitMix64(seed)
    assert block.below_each(bounds).tolist() == [single.below(b) for b in bounds]
    assert block.state == single.state


def test_rejections_are_consumed():
    """A seed whose stream rejects draws under the bound 2^63 + 1."""
    bound = (1 << 63) + 1
    rng = SplitMix64(5)
    assert any(rng.next_u64() >= bound for _ in range(8))
    block, single = SplitMix64(5), SplitMix64(5)
    assert block.below_each([bound] * 8).tolist() == [single.below(bound) for _ in range(8)]
    assert block.state == single.state


@pytest.mark.parametrize("bounds", [[3, 0, 2], [1 << 64], [-1]])
def test_bad_bounds(bounds):
    with pytest.raises(ValueError):
        SplitMix64(1).below_each(bounds)


@pytest.mark.parametrize("bound", [0, -1, 1 << 64])
def test_bad_single_bound(bound):
    # a bound past 2^64 - 1 would reject every draw and never return
    with pytest.raises(ValueError):
        SplitMix64(1).below(bound)


@given(st.integers(0, MASK64), st.integers(0, 7), st.sampled_from([(1, "vector"), (2, "vector"), (2, "matrix")]))
@settings(max_examples=30, deadline=None)
def test_generators_match_single_draws(seed, L, shape):
    d, kind = shape
    block, single = SplitMix64(seed), SplitMix64(seed)
    assert gen_signal(L, d, kind, block) == reference.gen_signal(L, d, kind, single)
    assert gen_nfun(L, block) == reference.gen_nfun(L, single)
    items = list(range(1 << L))
    block.shuffle(items)
    expected = list(range(1 << L))
    reference.shuffle(single, expected)
    assert items == expected
    assert block.state == single.state
    assert gen_levelset(L, "1/2", block) == reference.levelset_from_cells(
        L, _shuffled(single, 1 << L)[: 1 << L >> 1]
    )
    assert block.state == single.state


def _shuffled(rng, n):
    items = list(range(n))
    reference.shuffle(rng, items)
    return items
