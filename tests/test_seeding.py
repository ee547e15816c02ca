"""Chunked uniform and normal draws: the same stream as one whole draw."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdpass import seeding
from qkdpass.seeding import _add_normal, _uniform_below

CHUNKS = st.sampled_from([1, 7, 64])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=40), max_size=6),
    probs=st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.999, 1.0]), min_size=6,
                   max_size=6),
    chunk=CHUNKS, seed=SEEDS,
)
def test_uniform_below_is_one_draw(sizes, probs, chunk, seed):
    bounds = np.concatenate([[0], np.cumsum(sizes, dtype=np.intp)])
    p = probs[:len(sizes)]
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = want_rng.random(bounds[-1]) < np.repeat(p, sizes)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(seeding, "_DRAW_CHUNK", chunk)
        got = _uniform_below(got_rng, p, bounds)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("n", [0, seeding._DRAW_CHUNK - 1, seeding._DRAW_CHUNK,
                               3 * seeding._DRAW_CHUNK + 5])
def test_add_normal_is_one_draw(n):
    values = np.linspace(0.0, 450.0, n)
    want_rng, got_rng = np.random.default_rng(9), np.random.default_rng(9)
    want = values + want_rng.normal(0.0, 1e-10, n)
    got = values.copy()
    _add_normal(got_rng, got, 1e-10)
    assert got.tobytes() == want.tobytes()
    assert got_rng.random() == want_rng.random()
