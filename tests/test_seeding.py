"""The block-seeding rule, implemented once by ``seeding._streams`` and
``seeding._draw_rows``: item t draws from make(t // B), right after the
earlier items of its block, however the items are split into takes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqcolor import SolveConfig, generate_random, mc_estimate, solve_equitable
from eqcolor.seeding import _draw_rows, _streams, derive

WIDTH = 3
# block sizes 1-70 and up to 10 takes of up to 30 items: up to 300 items,
# crossing blocks inside a take and at its edges
BLOCKS = st.integers(1, 70)
TAKES = st.lists(st.integers(1, 30), min_size=1, max_size=10)


@settings(max_examples=200, deadline=None)
@given(block=BLOCKS, takes=TAKES, seed=st.integers(0, 2**64 - 1))
def test_each_item_draws_its_row_of_its_blocks_whole_draw(block, takes, seed):
    calls = []

    def draw(rng, k):
        calls.append(k)
        return rng.random((k, WIDTH))

    streams = _streams(lambda b: derive(seed, b, 5), block)
    rows, start = [], 0
    for k in takes:
        calls.clear()
        got = _draw_rows(streams, k, draw)
        assert got.shape == (k, WIDTH)
        rows.append(got)
        # one draw per block the take touches, in item order
        assert len(calls) == (start + k - 1) // block - start // block + 1 and sum(calls) == k
        start += k
    rows = np.concatenate(rows)
    whole = {}
    for t in range(len(rows)):
        b = t // block
        if b not in whole:
            whole[b] = derive(seed, b, 5).random((block, WIDTH))
        assert np.array_equal(rows[t], whole[b][t % block]), t


@settings(max_examples=200, deadline=None)
@given(block=BLOCKS, takes=TAKES)
def test_each_block_is_made_once_when_its_first_item_is_taken(block, takes):
    made = []

    def make(b):
        made.append(b)
        return np.random.default_rng(b)

    streams = _streams(make, block)
    assert made == []
    taken = 0
    for k in takes:
        _draw_rows(streams, k, lambda rng, k: rng.random((k, WIDTH)))
        taken += k
        # items 0..taken-1 lie in blocks 0..(taken-1) // block, each made once
        assert made == list(range((taken - 1) // block + 1))


@pytest.mark.parametrize("seed", [1.7, 1.0, True, "1", None])
def test_derive_refuses_seeds_it_would_truncate(seed):
    # int() read 1.7 and true as 1 and parsed "1"
    with pytest.raises(ValueError, match="seed .* is not an integer"):
        derive(seed, 0)
    with pytest.raises(ValueError, match="seed .* is not an integer"):
        derive(0, seed)


def test_every_seed_passes_through_derive():
    # SolveConfig(seed=1.7) solved as seed 1, and mc_estimate(seed=1.5)
    # estimated as seed 1
    h = generate_random(200, 4, 20, 1)
    with pytest.raises(ValueError, match="not an integer"):
        solve_equitable(h, 2, SolveConfig(seed=1.7))
    with pytest.raises(ValueError, match="not an integer"):
        mc_estimate("mono-edge", h, 2, trials=10, seed=1.5, compare=False)
    # numpy integers are integers, and give the Python integer's stream
    assert derive(np.int64(7), np.uint8(2)).random() == derive(7, 2).random()
    same = solve_equitable(h, 2, SolveConfig(seed=np.int32(3)))
    assert same.coloring == solve_equitable(h, 2, SolveConfig(seed=3)).coloring


@pytest.mark.parametrize("m", [1, 2, 10, 120, 2000, 20_000])
def test_permuted_rows_are_successive_permutations(m):
    # intervals._balanced_colors draws a batch of balanced attempts with one
    # Generator.permuted call over tiled aranges; the solver's reports stay
    # those of one permutation(m) call per attempt only while numpy keeps
    # the two equal, row for row and in the state they leave the generator
    tiled, single = np.random.default_rng(m), np.random.default_rng(m)
    rows = tiled.permuted(np.tile(np.arange(m), (5, 1)), axis=1)
    assumption = "numpy's Generator.permuted over tiled aranges "
    assert np.array_equal(rows, [single.permutation(m) for _ in range(5)]), (
        assumption + "no longer gives the rows of successive permutation(m) calls"
    )
    assert tiled.bit_generator.state == single.bit_generator.state, (
        assumption + "leaves the generator in another state than permutation(m) calls"
    )
