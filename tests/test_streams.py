"""The vectorised streams of ``thermosci._streams`` against numpy's own generators.

Sampled ledgers and ``RandomPolicy`` choices promise the bits of
``np.random.default_rng(np.random.SeedSequence(...))``. These tests compare
the module with numpy itself on random seeds, spawn keys and entropy words,
so a numpy release that changed its streams would fail here instead of
quietly moving the ledgers.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from thermosci import RandomPolicy, _streams
from thermosci.verify import random_environment

SEEDS = st.integers(min_value=0, max_value=2**130)
#: spawn keys at and above 2**32 take two words
KEYS = st.integers(min_value=0, max_value=2**64 - 1) | st.sampled_from(
    [0, 1, 2**32 - 1, 2**32, 2**32 + 1])
#: bounds near 2**31 and 2**32 make Lemire's method reject, and draw again
BOUNDS = st.integers(min_value=1, max_value=2**32 - 1) | st.sampled_from(
    [1, 2, 3, 2**31 - 1, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1])
WORD = st.integers(min_value=0, max_value=2**32 - 1)


def _randoms(s, m):
    return np.stack([_streams.random(s) for _ in range(m)], axis=1)


def test_words_are_the_ones_numpy_makes_of_an_int():
    for n in (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**97 + 3):
        as_words = np.array(_streams.words(n), dtype=np.uint32)
        assert np.array_equal(np.random.SeedSequence(as_words).generate_state(4),
                              np.random.SeedSequence(n).generate_state(4)), n


@given(SEEDS, st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=12))
@settings(max_examples=25, deadline=None)
def test_spawned_children_match_numpy(seed, n, m):
    got = _randoms(_streams.spawned(seed, n), m)
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(n)):
        assert np.array_equal(got[k], np.random.default_rng(child).random(m)), k


@given(SEEDS, KEYS, st.integers(min_value=1, max_value=9))
@settings(max_examples=25, deadline=None)
def test_any_spawn_key_matches_numpy(seed, key, m):
    run = _streams.words(seed)
    entropy = np.array([run + [0] * (4 - len(run)) + _streams.words(key)], dtype=np.uint32)
    want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,))).random(m)
    assert np.array_equal(_randoms(_streams.streams(entropy), m)[0], want)


@given(st.integers(min_value=0, max_value=40).flatmap(
           lambda width: st.lists(st.lists(WORD, min_size=width, max_size=width),
                                  min_size=1, max_size=6)),
       BOUNDS, st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_entropy_words_match_numpy(rows, bound, m):
    entropy = np.array(rows, dtype=np.uint32).reshape(len(rows), -1)
    picks = _streams.integers(_streams.streams(entropy), bound)
    draws = _randoms(_streams.streams(entropy), m)
    for row, pick, drawn in zip(rows, picks, draws):
        assert pick == np.random.default_rng(np.random.SeedSequence(row)).integers(bound)
        assert np.array_equal(drawn, np.random.default_rng(np.random.SeedSequence(row)).random(m))


@given(st.integers(min_value=0, max_value=2**97), st.integers(min_value=0, max_value=60),
       st.integers(min_value=0, max_value=2**16), st.data())
@settings(max_examples=20, deadline=None)
def test_random_policy_batch_choice_equals_per_row_choice(seed, t, env_seed, data):
    env = random_environment(np.random.default_rng(env_seed), max_interventions=9)
    rows = data.draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(env_seed)
    paths = np.stack((rng.integers(0, env.intervention_count, size=(rows, t)),
                      rng.integers(0, env.n_outcomes, size=(rows, t))), axis=2).astype(np.int32)
    beliefs = np.tile(env.prior.probs, (rows, 1))
    policy = RandomPolicy(seed)
    batch = policy.choose_rows(beliefs, env, t, paths)
    assert batch.tolist() == [policy.choose(b, env, t, tuple(map(tuple, p.tolist())))
                              for b, p in zip(beliefs, paths)]
