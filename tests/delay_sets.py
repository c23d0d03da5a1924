"""Observation sets built from delays alone.

The distance estimators read only the delays and observer ids of an
``Observations`` set, so tests that start from delays give every row the
same fixed unit direction.
"""

import numpy as np

from uwbrel.geom import Observations

UNIT = np.array([1.0, 0.0, 0.0])


def delay_set(a_groups, b_groups):
    """One observer per pair of A-side and B-side delay groups (ids 0, 1, ...),
    rows observer by observer, every direction ``UNIT``."""
    tau_a = np.concatenate([np.atleast_1d(np.asarray(g, dtype=float)) for g in a_groups])
    tau_b = np.concatenate([np.atleast_1d(np.asarray(g, dtype=float)) for g in b_groups])
    observer = np.repeat(np.arange(len(a_groups)), [np.size(g) for g in a_groups])
    dirs = np.tile(UNIT, (tau_a.size, 1))
    return Observations(tau_a=tau_a, tau_b=tau_b, dir_a=dirs, dir_b=dirs, observer=observer)


def diff_set(*groups):
    """Delay differences as a set: A-side delays 0 and B-side delays the
    differences, so tau_b - tau_a gives them back bit for bit."""
    return delay_set([np.zeros(np.size(g)) for g in groups], groups)
