"""Test-side oracles: the simplest candidate pairs for contact detection,
every radio row of a span, placed without the join, and a chunk exchange
whose every pick is the generator's own ``choice``."""

import numpy as np

from vancast.engine import detect_contacts
from vancast.mobility import leg_segments, place_segments


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


def radio_rows(day, g, t0, t1):
    """Every radio row of timetable ``day`` in ticks t0 to t1 - 1, as (tick,
    vehicle, x, y): one per driving vehicle per tick, from its departure
    tick up to the tick before its arrival, cut into the route segments it
    is on by ``leg_segments`` and placed by ``place_segments``, then one per
    stay per tick at its node; drives first, each in tick order.
    ``Timetable.radio_pairs`` places some of these rows, with these floats."""
    vids, dep, arrive = day.drives.T
    on = np.flatnonzero(np.maximum(dep, t0) < np.minimum(arrive, t1))
    dep = dep[on]
    leg, first, end, *ends = leg_segments([day.routes[i] for i in on.tolist()], dep,
                                          np.maximum(dep, t0), np.minimum(arrive[on], t1),
                                          day.odo)
    ticks, x, y = place_segments(g, dep[leg], day.odo, first, end, *ends)
    drives = np.column_stack((ticks, np.repeat(vids[on][leg], end - first), x, y))
    stays = [(t, v, g.node_x[node], g.node_y[node]) for v, node, f, e in day.stays.tolist()
             for t in range(max(f, t0), min(e, t1))]
    return np.concatenate((drives, np.array(stays, dtype=float).reshape(-1, 4)))


class PassThrough:
    """A stand-in for ``vancast.draws.Reader`` that reads nothing ahead: its
    ``choice`` is the generator's own, and with ``vancast.engine._pick``
    swapped for :func:`choice_pick`, so is every small pick."""

    def __init__(self, rng):
        self.rng = rng
        self.choice = rng.choice

    def close(self):
        pass


def choice_pick(ids, k, draws):
    """The k of ids that ``vancast.engine._pick`` picks, by the generator's
    own ``choice``, sorted."""
    picks = draws.choice(ids, size=k, replace=False)
    picks.sort()
    return picks
