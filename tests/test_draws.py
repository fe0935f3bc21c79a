"""The one reader of PCG64 words: every value it draws, and where it leaves
the generator, against a twin generator making numpy's own calls."""

import numpy as np
import pytest

from vancast.draws import Reader, replayer, uniform
from vancast.engine import ChunkStore, exchange
from vancast.mobility import assign_trips, deferred_router
from vancast.roadnet import generate_manhattan_grid

# 2**31 + 1 rejects about half its products; 2**32 is the widest bound below takes
BOUNDS = [2, 3, 7, 400, 2**31 + 1, 2**32 - 2, 2**32 - 1, 2**32]


def same_own_call(rng, ref, plan, closed):
    """One of the generator's own calls, made on rng and on its twin, with
    the same results: a whole-word draw, or, with the reader closed, a
    32-bit one (``integers``, ``choice``) too."""
    calls = [("poisson", (3.0,), {}), ("uniform", (), {"size": 3}), ("random", (), {})]
    if closed:
        calls += [("integers", (int(plan.choice(BOUNDS)),), {}),
                  ("choice", (400,), {"size": int(plan.integers(1, 12)), "replace": False})]
    name, args, kwargs = calls[int(plan.integers(len(calls)))]
    assert np.array_equal(getattr(rng, name)(*args, **kwargs), getattr(ref, name)(*args, **kwargs))


@pytest.mark.parametrize("kept", [False, True])
def test_the_reader_draws_what_the_generator_draws_between_its_own_calls(kept):
    """below, take (and uniform), read, give_back and close in a random
    order, with the generator's own calls after each give-back and close:
    every value and the final state are the twin's, with or without a kept
    half at the start, and on bounds that force rejections."""
    for seed in range(60):
        plan = np.random.default_rng(1000 + seed)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        if kept:
            assert rng.integers(5) == ref.integers(5)
        assert rng.bit_generator.state["has_uint32"] == kept
        reader = Reader(rng)
        for _ in range(int(plan.integers(1, 120))):
            what = int(plan.integers(5))
            if what == 0:
                bound = int(plan.choice(BOUNDS))
                assert reader.below(bound) == ref.integers(bound)
            elif what == 1:
                n = int(plan.choice([0, 1, 2, 5, 64, 65, 200]))
                words = reader.take(n)
                if plan.integers(2):
                    assert words.dtype == np.uint64
                    assert words.tolist() == ref.integers(2**64, size=n, dtype=np.uint64).tolist()
                else:
                    assert uniform(words, -2.0, 5.0).tolist() == ref.uniform(-2.0, 5.0, n).tolist()
            elif what == 2:  # reads ahead, draws nothing
                reader.read(int(plan.integers(0, 40)), halves=int(plan.integers(0, 9)))
            elif what == 3:
                reader.give_back()
                same_own_call(rng, ref, plan, closed=False)
            else:
                reader.close()
                assert rng.bit_generator.state == ref.bit_generator.state
                same_own_call(rng, ref, plan, closed=True)
        reader.close()
        assert rng.bit_generator.state == ref.bit_generator.state


def test_replayer_reads_again_the_words_taken_after_a_mark():
    """The words take gives after drawn() words from mark()'s state, read
    again without drawing from the generator."""
    rng = np.random.default_rng(4)
    reader = Reader(rng)
    reader.below(9)  # keeps a half, which mark leaves kept
    block = reader.mark()
    reader.read(10, halves=5)
    for bound in (3, 2**31 + 1, 400, 2**31 + 1, 6):
        reader.below(bound)
    drawn, words = reader.drawn(), reader.take(70)
    reader.close()
    state = rng.bit_generator.state
    assert replayer(rng)(block, drawn, 70).tolist() == words.tolist()
    assert rng.bit_generator.state == state


def _assign_trips(rng):
    g = generate_manhattan_grid(3, 3, 100.0, ())
    return assign_trips(g, [0, 4, 8], 3.0, 500.0, rng)


def _exchange(rng):
    a, b = ChunkStore(10), ChunkStore(10)
    a.add_all()
    try:
        exchange(a, b, 1, 1, rng)
    finally:
        assert a.count == 10 and b.count == 0 and not b.mask.any()  # no chunk moved


def _deferred_router(rng):
    deferred_router(generate_manhattan_grid(3, 3, 100.0, ()), rng)


@pytest.mark.parametrize("bits", [np.random.MT19937, np.random.Philox, np.random.SFC64],
                         ids=lambda bits: bits.__name__)
@pytest.mark.parametrize("caller", [_assign_trips, _exchange, _deferred_router],
                         ids=["assign_trips", "exchange", "deferred_router"])
def test_a_generator_that_is_not_pcg64_is_refused_before_any_draw(caller, bits):
    """The reader splits, advances and writes back PCG64's words: another
    bit generator would give other draws and end elsewhere, or fail
    partway, so each caller refuses it by name, having drawn nothing."""
    rng, ref = np.random.Generator(bits(6)), np.random.Generator(bits(6))
    with pytest.raises(ValueError, match=f"PCG64's raw words, got a {bits.__name__} generator"):
        caller(rng)
    # no draw made: the generator goes on as its untouched twin
    assert rng.integers(2**62, size=8).tolist() == ref.integers(2**62, size=8).tolist()
