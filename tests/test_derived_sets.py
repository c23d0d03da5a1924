"""Sets made of rows of a checked ``Observations`` set.

A set is checked where it enters: its constructor and ``dataclasses.replace``.
Rows taken from a checked set (``obs[rows]``, ``chansim.scramble_association``,
``assoc.apply_assignment``) are kept without a second check, so each must still
come out as the constructor would build it: read-only, C-contiguous columns with
the same bits, and a grouping equal to ``group_by_observer`` of its observer ids.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from uwbrel.assoc import Assignment, apply_assignment, associate, associate_by_sorting
from uwbrel.chansim import NoiseParams, SvParams, observe, sample_scenario, scramble_association
from uwbrel.errors import InvalidParams
from uwbrel.geom import Observations, group_by_observer

COLUMNS = tuple(f.name for f in fields(Observations))


def _measured(seed, counts=(4, 3, 5)):
    rng = np.random.default_rng([seed, 23])
    scenario = sample_scenario(2.0, SvParams(), len(counts), list(counts), rng)
    return observe(scenario, NoiseParams(sigma=0.2e-9, sigma_dir=np.radians(4.0), eps=5e-9,
                                         eps_a_per_observer=(10e-9, 40e-9, 70e-9)[:len(counts)]),
                   rng)


def _interleaved(seed):
    """A checked set whose observers' rows are not contiguous."""
    obs = _measured(seed)
    order = np.random.default_rng([seed, 29]).permutation(len(obs))
    return Observations(**{c: getattr(obs, c)[order] for c in COLUMNS})


def _assert_as_checked(derived):
    """``derived`` matches the checked constructor on its own columns."""
    checked = Observations(**{c: getattr(derived, c) for c in COLUMNS})
    for c in COLUMNS:
        column = getattr(derived, c)
        assert not column.flags.writeable, c
        assert column.flags.c_contiguous, c
        assert column.dtype == getattr(checked, c).dtype, c
        assert column.tobytes() == getattr(checked, c).tobytes(), c
        with pytest.raises(ValueError):
            column[...] = 0
    groups, want = derived.groups, group_by_observer(derived.observer)
    assert list(groups) == list(want)
    for o in want:
        assert groups[o].dtype == want[o].dtype
        np.testing.assert_array_equal(groups[o], want[o])
        assert not groups[o].flags.writeable


@pytest.mark.parametrize("make", [_measured, _interleaved])
@pytest.mark.parametrize("rows", [slice(2, 9), slice(None, None, 3), slice(0, 0),
                                  np.array([11, 0, 4, 4, 7]), np.arange(12) % 3 == 1])
def test_selected_rows(make, rows):
    obs = make(1)
    obs.groups  # noqa: B018 -- cache the parent's grouping first
    part = obs[rows]
    _assert_as_checked(part)
    for c in COLUMNS:
        np.testing.assert_array_equal(getattr(part, c), getattr(obs, c)[rows])


def test_an_integer_is_not_a_set_of_rows():
    with pytest.raises(InvalidParams, match="rows are selected by"):
        _measured(1)[3]  # noqa: B018


@pytest.mark.parametrize("make", [_measured, _interleaved])
@pytest.mark.parametrize("seed", range(4))
def test_scrambled_rows(make, seed):
    obs = make(seed)
    scrambled, perms = scramble_association(obs, seed)
    _assert_as_checked(scrambled)
    # the observer column is unchanged, so its grouping is carried over
    assert scrambled.groups is obs.groups
    for c in ("tau_a", "dir_a", "observer"):
        np.testing.assert_array_equal(getattr(scrambled, c), getattr(obs, c))
    for o, rows in obs.groups.items():
        np.testing.assert_array_equal(scrambled.tau_b[rows], obs.tau_b[rows[perms[o]]])


@pytest.mark.parametrize("make", [_measured, _interleaved])
@pytest.mark.parametrize("pairing", ["sorting", "full", "gated"])
def test_re_paired_rows(make, pairing):
    scrambled, _ = scramble_association(make(2), 2)
    if pairing == "sorting":
        assignment = associate_by_sorting(scrambled, scrambled)
    else:
        assignment = associate(scrambled, scrambled, force_full=pairing == "full")
    _assert_as_checked(apply_assignment(scrambled, scrambled, assignment))


def test_unmatched_rows_are_dropped():
    obs = _measured(3)
    perm = {o: np.arange(rows.size) for o, rows in obs.groups.items()}
    perm[1] = np.array([-1, 2, -1])
    merged = apply_assignment(obs, obs, Assignment(permutation=perm, matched={}))
    _assert_as_checked(merged)
    keep = np.r_[0:4, 5, 7:12]
    np.testing.assert_array_equal(merged.tau_a, obs.tau_a[keep])
    np.testing.assert_array_equal(merged.tau_b, obs.tau_b[np.r_[0:4, 6, 7:12]])


@pytest.mark.parametrize("bad", [
    dict(tau_a=np.nan), dict(tau_b=np.inf), dict(dir_a=np.array([1.0, 1e-5, 0.0])),
    dict(dir_b=np.array([0.0, 0.0, 2.0])),
])
def test_entering_sets_are_still_checked(bad):
    (name, value), = bad.items()
    obs = _measured(4)
    derived = scramble_association(obs, 4)[0][1:]
    for base in (obs, derived):
        column = getattr(base, name).copy()
        column[0] = value
        with pytest.raises(InvalidParams):
            Observations(**{c: column if c == name else getattr(base, c) for c in COLUMNS})
        with pytest.raises(InvalidParams):
            replace(base, **{name: column})


@pytest.mark.parametrize("perms, match", [
    ({0: [0, 1, 2], 1: [0, 1, 2], 2: [0, 1, 2, 3, 4]}, "observer 0: .* one entry per A-side MPC"),
    ({0: [0, 1, 2, 3], 1: [-2, 1, 2], 2: [0, 1, 2, 3, 4]}, "observer 1: .* below 3"),
    ({0: [0, 1, 2, 3], 1: [0, 1, 2], 2: [0, 1, 2, 3, 5]}, "observer 2: .* below 5"),
    ({0: [0, 1, 2, 3], 1: [0, 1, 1], 2: [0, 1, 2, 3, 4]}, "two A-side MPCs"),
    ({0: [0, 1, 2, 3], 7: [0, 1, 2]}, r"observers \[7\]"),
])
def test_bad_assignments_raise(perms, match):
    obs = _measured(5)
    with pytest.raises(InvalidParams, match=match):
        apply_assignment(obs, obs, Assignment(permutation=perms, matched={}))


@pytest.mark.parametrize("perm", [[0.5, 1, 2], [0.0, 1.0, 2.0], [True, False, True],
                                  np.array([2, 0, 1], dtype=float)])
def test_non_integer_permutations_raise(perm):
    # a fractional index would be truncated to a B row, and a boolean read as 0/1 indices
    obs = _measured(5)
    perms = {0: [0, 1, 2, 3], 1: perm, 2: [0, 1, 2, 3, 4]}
    with pytest.raises(InvalidParams, match="observer 1: .* integer B index"):
        apply_assignment(obs, obs, Assignment(permutation=perms, matched={}))


def test_the_first_bad_observer_is_named():
    obs = _measured(5)
    perms = {0: [0, 1, 2, 3], 1: [0, 1, 9], 2: [0, 1]}
    with pytest.raises(InvalidParams, match="observer 1:"):
        apply_assignment(obs, obs, Assignment(permutation=perms, matched={}))


@pytest.mark.parametrize("ids", [[], [3], [0, 0, 1, 1, 1, 2], [2, 2, 0, 1, 1], [0, 1, 0],
                                 [5, 5, 5], [1, 0, 0, 1], list(np.arange(40) // 7),
                                 list(np.random.default_rng(1).integers(0, 4, 30))])
def test_grouping_matches_the_scan_per_observer(ids):
    want_ids = np.asarray(ids, dtype=int)
    want = {o: np.flatnonzero(want_ids == o) for o in dict.fromkeys(want_ids.tolist())}
    got = group_by_observer(ids)
    assert list(got) == list(want)
    for o in want:
        assert got[o].dtype == want[o].dtype
        np.testing.assert_array_equal(got[o], want[o])
