"""Test-side oracle for contact detection: the simplest candidate pairs."""

import numpy as np

from vancast.engine import detect_contacts


def same_tick_pairs(rows):
    """Every pair of rows at a common tick, as an int array of shape (2, m)
    of row indices i < j, ordered by tick, then i, then j: given these,
    ``detect_contacts`` checks every pair of rows that could be in contact."""
    tick = np.asarray(rows, dtype=float).reshape(-1, 4)[:, 0]
    order = np.argsort(tick, kind="stable")
    _, starts, counts = np.unique(tick[order], return_index=True, return_counts=True)
    pairs = [order[start + np.array(np.triu_indices(n, 1), dtype=np.int64)]
             for start, n in zip(starts.tolist(), counts.tolist())]
    return np.concatenate(pairs, axis=1) if pairs else np.zeros((2, 0), dtype=np.int64)


def all_contacts(rows, comm_range):
    """``detect_contacts`` over every pair of rows at a common tick."""
    return detect_contacts(rows, comm_range, same_tick_pairs(rows))
