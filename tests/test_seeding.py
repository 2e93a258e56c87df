"""The block-seeding rule, implemented once by ``seeding._streams`` and
``seeding._draw_rows``: item t draws from make(t // B), right after the
earlier items of its block, however the items are split into takes."""

import numpy as np
from hypothesis import given, settings, strategies as st

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
