"""How ``_Frontier.advance`` groups children, against ``np.lexsort`` as the reference.

A merging frontier packs each child's count vector into float64 words before
it sorts; a history-keyed one numbers its ``parent * Y + y`` keys through a
presence array. Both must give the rows, the row order and the first child
of each run of equal keys that a lexsort over the raw keys gives. The
frontiers here are built by hand: one belief state per parent row encodes the
parent's index and, after the update, the child's outcome, so the surviving
children can be read back from the new beliefs.
"""

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from thermosci import RoundRobin
from thermosci.cycle_sim import _Frontier


def _frontier(parents: int, n_outcomes: int, interventions: int, counts, rounds: int):
    """A frontier of ``parents`` rows; ``advance`` needs every count <= ``rounds``."""
    # belief row p is (p, 1); table[u, :, y] = (1, y); pred is 1: a child's belief is (p, y)
    table = np.ones((interventions, 2, n_outcomes))
    table[:, 1, :] = np.arange(n_outcomes)
    env = SimpleNamespace(n_outcomes=n_outcomes, intervention_count=interventions,
                          likelihood=SimpleNamespace(table=table),
                          prior=SimpleNamespace(probs=np.ones(2)))
    # RoundRobin is history-free: its expected-mode frontier merges, its sampled one does not
    frontier = _Frontier(env, RoundRobin(), counts is None, math.inf)
    frontier.beliefs = np.stack([np.arange(parents, dtype=float), np.ones(parents)], axis=1)
    frontier.rounds = rounds
    if counts is not None:  # packed as the frontier packs them before that round
        frontier.words = frontier._pack(rounds.bit_length(), counts)
    return frontier


def _reference(keys: np.ndarray):
    """Rows and the first child of each run, from a lexsort over the key columns."""
    order = np.lexsort(keys.T)
    sorted_keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)
    rows = np.empty(len(keys), dtype=np.intp)
    rows[order] = first.cumsum() - 1
    return rows, order[first], sorted_keys[first]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), columns=st.integers(1, 64),
       max_count=st.sampled_from([1, 2, 3, 7, 100, 1999]))
def test_packed_count_keys_group_as_lexsort(seed, columns, max_count):
    rng = np.random.default_rng(seed)
    # a few distinct count rows, repeated, so that many children share a key
    distinct = rng.integers(0, max_count + 1, size=(int(rng.integers(1, 6)), columns))
    counts = distinct[rng.integers(0, len(distinct), size=int(rng.integers(2, 40)))]
    counts = counts.astype(np.int32)
    children = int(rng.integers(1, 300))
    # columns = U * Y; each parent row plays one intervention, each child adds one outcome
    interventions = int(rng.choice([d for d in range(1, columns + 1) if columns % d == 0]))
    n_outcomes = columns // interventions
    us = rng.integers(0, min(interventions, 2), size=len(counts))  # few edges in use
    parent = rng.integers(0, len(counts), size=children)
    y = rng.integers(0, min(n_outcomes, int(rng.integers(1, 4))), size=children)
    frontier = _frontier(len(counts), n_outcomes, interventions, counts.copy(), max_count)
    keys = counts[parent]
    keys[np.arange(children), us[parent] * n_outcomes + y] += 1
    want_rows, want_first, want_keys = _reference(keys)

    rows = frontier.advance(us, np.ones((len(counts), n_outcomes)), parent, y)
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(frontier.words, want_keys @ frontier.packing[1])  # exact, so 1:1
    assert np.array_equal(frontier.beliefs[:, 0], parent[want_first])
    assert np.array_equal(frontier.beliefs[:, 1], y[want_first])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_outcomes=st.integers(1, 6),
       parents=st.integers(1, 200), children=st.integers(1, 400))
def test_presence_numbered_history_keys_group_as_lexsort(seed, n_outcomes, parents, children):
    rng = np.random.default_rng(seed)
    # trials on few rows draw few outcomes: many repeated, unsorted (parent, y) pairs
    parent = rng.integers(0, parents, size=children)
    y = rng.integers(0, n_outcomes, size=children)
    if rng.random() < 0.3:  # and sometimes distinct keys in increasing order, as expected mode
        parent, y = np.divmod(np.unique(parent * n_outcomes + y), n_outcomes)
    frontier = _frontier(parents, n_outcomes, 1, None, rounds=0)
    keys = parent * n_outcomes + y
    want_rows, want_first, _ = _reference(keys[:, None])

    pred = np.ones((parents, n_outcomes))
    rows = frontier.advance(np.zeros(parents, int), pred, parent, y)
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(frontier.beliefs[:, 0], parent[want_first])
    assert np.array_equal(frontier.beliefs[:, 1], y[want_first])
