"""The vectorised random numbers of ``thermosci._streams``.

``RandomPolicy`` choices promise the bits of
``np.random.default_rng(np.random.SeedSequence(...))``. These tests compare
the PCG64 streams with numpy itself on random seeds, spawn keys and entropy
words, so a numpy release that changed its streams would fail here instead
of quietly moving the ledgers. Sampled-mode uniforms are counter-based
SplitMix64 outputs; they are compared with the pure-Python reference of
``oracle_engine``, and shown not to depend on which other trials draw.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermosci import RandomPolicy, _streams

from helpers import random_environment
from oracle_engine import reference_random_choice, reference_uniform

SEEDS = st.integers(min_value=0, max_value=2**130)
#: spawn keys at and above 2**32 take two words
KEYS = st.integers(min_value=0, max_value=2**64 - 1) | st.sampled_from(
    [0, 1, 2**32 - 1, 2**32, 2**32 + 1])
#: bounds near 2**31 and 2**32 make Lemire's method reject, and draw again
BOUNDS = st.integers(min_value=1, max_value=2**32 - 1) | st.sampled_from(
    [1, 2, 3, 2**31 - 1, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1])
WORD = st.integers(min_value=0, max_value=2**32 - 1)


def _randoms(s, m):
    """The next ``m`` ``Generator.random()`` doubles of each stream: an output's top 53 bits."""
    return np.stack([(_streams._next64(s) >> 11) * 2.0**-53 for _ in range(m)], axis=1)


def _spawned(seed, n):
    """The streams of the first ``n`` children of ``SeedSequence(seed)``: the seed's words,
    padded with zeros to 4, then the spawn key ``k``."""
    run = _streams.words(seed)
    entropy = np.empty((n, max(len(run), 4) + 1), dtype=np.uint32)
    entropy[:, :-1] = run + [0] * (4 - len(run))
    entropy[:, -1] = np.arange(n)
    return _streams.streams(entropy)


def test_words_are_the_ones_numpy_makes_of_an_int():
    for n in (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**97 + 3):
        as_words = np.array(_streams.words(n), dtype=np.uint32)
        assert np.array_equal(np.random.SeedSequence(as_words).generate_state(4),
                              np.random.SeedSequence(n).generate_state(4)), n


@given(SEEDS, st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=12))
@settings(max_examples=25, deadline=None)
def test_spawned_children_match_numpy(seed, n, m):
    got = _randoms(_spawned(seed, n), m)
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
    batch = RandomPolicy(seed).choose(beliefs, env, t, paths)
    assert batch.tolist() == [
        reference_random_choice(seed, t, tuple(map(tuple, p)), env.intervention_count)
        for p in paths.tolist()]


@pytest.mark.parametrize("seed", [0, 2**31, 2**64 + 5, 10**30])
def test_uniforms_equal_the_python_reference(seed):
    index = np.array([0, 1, 2, 7, 3, 1000, 2**31 + 9, 2**40, 2**63 - 1])  # not contiguous
    for t in (0, 1, 2, 39, 2**32 + 1):
        got = _streams.uniforms(seed, t, index)
        assert got.dtype == np.float64
        assert got.tolist() == [reference_uniform(seed, t, int(k)) for k in index], t
        assert ((got >= 0.0) & (got < 1.0)).all()


@given(SEEDS, st.integers(min_value=0, max_value=2**32),
       st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=30))
@settings(max_examples=30, deadline=None)
def test_a_trials_uniform_does_not_depend_on_the_other_trials(seed, t, trials):
    alone = {k: _streams.uniforms(seed, t, np.array([k]))[0] for k in trials}
    together = _streams.uniforms(seed, t, np.array(trials))
    assert together.tolist() == [alone[k] for k in trials]
    assert together.tolist() == [reference_uniform(seed, t, k) for k in trials]


def test_uniforms_tell_seeds_and_rounds_apart():
    # seeds of 1, 2, 3 and 4 words, each at three rounds: no two share their draws
    pairs = [(seed, t) for seed in (0, 1, 2**32, 2**64 + 5, 5, 10**30) for t in (0, 1, 2)]
    draws = {tuple(_streams.uniforms(seed, t, np.arange(4)).tolist()) for seed, t in pairs}
    assert len(draws) == len(pairs)
