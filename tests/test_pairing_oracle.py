"""The stacked pairings against the one-set association, bit for bit.

A sweep builds its sorted and assigned sets on the stack of a point's
observations: ``assoc.associate_stack`` finds each set's (T, K) sources on the
scrambled stack, and ``Observations.paired`` gathers the B columns.  Each set of
such a stack must equal what the one-set path makes of that set alone:
``associate_by_sorting`` or ``associate(force_full=True)``, then
``apply_assignment``.  The sets cover 1-9 MPCs per observer, direction errors
of 0-90 degrees (at the larger ones whole observer blocks are gated and take
the no-match cost), exactly tied delays (which only a stable sort orders the
same way twice) and hand-built blocks with every pair gated.  A set's pairing
must not change when its stack is permuted or cut down, and a source that is
not a permutation within each observer must raise.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from uwbrel import assoc, chansim
from uwbrel.errors import InvalidParams
from uwbrel.geom import Observations

COLUMNS = ("tau_a", "tau_b", "dir_a", "dir_b")
SIZES = (1, 2, 7, 50)


def _scrambled(obs, seed):
    """``obs``, its scrambled set and the scramble's sources, drawn at ``seed``."""
    source, _ = chansim.scramble_sources(obs.groups, seed)
    scrambled, _ = chansim.scramble_association(obs, seed)
    assert scrambled.tau_b.tobytes() == obs.tau_b[source].tobytes()
    paired = obs.paired(source)  # the checked gather of one set: the same bits
    for c in (*COLUMNS, "observer"):
        assert getattr(paired, c).tobytes() == getattr(scrambled, c).tobytes(), c
    return obs, scrambled, source


def _sets(m, k, sigma_dir_deg, count, seed, tied=False):
    """``count`` observed sets of ``m`` observers x ``k`` MPCs, each with its scrambled
    set and scramble sources; ``tied`` rounds the delays to 5 ns, so that many tie."""
    out = []
    for i in range(count):
        rng = np.random.default_rng([seed, m, k, i])
        scenario = chansim.sample_scenario(2.0, chansim.SvParams(), m, [k] * m, rng)
        obs = chansim.observe(scenario, chansim.NoiseParams(
            sigma=0.2e-9, sigma_dir=math.radians(sigma_dir_deg), eps=5e-9,
            eps_a_per_observer=tuple(rng.uniform(0.0, 100e-9, m))), rng)
        if tied:
            obs = replace(obs, tau_a=np.round(obs.tau_a / 5e-9) * 5e-9,
                          tau_b=np.round(obs.tau_b / 5e-9) * 5e-9)
        out.append(_scrambled(obs, [seed, m, k, i, 2]))
    return out


def _gated(m, k, count, seed):
    """Sets whose first observer block has every pair gated: all its A directions +x,
    all its B directions -x."""
    out = []
    for i, (obs, _, _) in enumerate(_sets(m, k, 5.0, count, seed)):
        rows = obs.groups[0]
        dir_a, dir_b = obs.dir_a.copy(), obs.dir_b.copy()
        dir_a[rows], dir_b[rows] = [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]
        out.append(_scrambled(replace(obs, dir_a=dir_a, dir_b=dir_b), [seed, i, 3]))
    return out


def _one_set(scrambled, by_sorting):
    """The one-set pairing of a scrambled set, as ``apply_assignment`` builds it."""
    found = (assoc.associate_by_sorting(scrambled, scrambled) if by_sorting
             else assoc.associate(scrambled, scrambled, force_full=True))
    return assoc.apply_assignment(scrambled, scrambled, found)


def _stacked(sets, by_sorting):
    """The stacked pairing of ``sets`` (observed, scrambled, scramble source) as a sweep
    builds it: the sources found on the scrambled stack, composed with the scramble's."""
    observed = Observations.stack([obs for obs, _, _ in sets])
    scrambles = np.array([source for _, _, source in sets])
    found = assoc.associate_stack(observed.paired(scrambles), by_sorting)
    return observed.paired(np.take_along_axis(scrambles, found, 1))


def _assert_same(stack, t, want):
    for c in COLUMNS:
        assert getattr(stack, c)[t].tobytes() == getattr(want, c).tobytes(), (t, c)


def _fully_gated_blocks(sets):
    """Observer blocks of the scrambled sets in which no pair is ungated."""
    count = 0
    for _, scrambled, _ in sets:
        cost = assoc.pair_cost(scrambled, scrambled, assoc.AssocConfig(), 0.0, 0.0)
        count += sum(not np.isfinite(cost[np.ix_(rows, rows)]).any()
                     for rows in scrambled.groups.values())
    return count


@pytest.mark.parametrize("by_sorting", [True, False], ids=["sorted", "assigned"])
@pytest.mark.parametrize("k", range(1, 10))
@pytest.mark.parametrize("sigma_dir_deg", [0.0, 10.0, 45.0, 90.0])
def test_stacks_match_the_one_set_pairing(by_sorting, k, sigma_dir_deg):
    sets = _sets(3 if k < 6 else 2, k, sigma_dir_deg, max(SIZES), seed=1)
    want = [_one_set(scrambled, by_sorting) for _, scrambled, _ in sets]
    for size in SIZES:
        stack = _stacked(sets[:size], by_sorting)
        for t in range(size):
            _assert_same(stack, t, want[t])


def test_heavy_direction_error_reaches_fully_gated_blocks():
    # the case above at 90 degrees takes the no-match cost on whole blocks
    assert _fully_gated_blocks(_sets(3, 1, 90.0, max(SIZES), seed=1)) > 0
    assert _fully_gated_blocks(_sets(3, 3, 90.0, max(SIZES), seed=1)) > 0


@pytest.mark.parametrize("by_sorting", [True, False], ids=["sorted", "assigned"])
@pytest.mark.parametrize("k", [2, 4, 9])
def test_hand_built_fully_gated_blocks(by_sorting, k):
    sets = _gated(2, k, 7, seed=2)
    assert _fully_gated_blocks(sets) >= len(sets)
    stack = _stacked(sets, by_sorting)
    for t, (_, scrambled, _) in enumerate(sets):
        _assert_same(stack, t, _one_set(scrambled, by_sorting))


@pytest.mark.parametrize("by_sorting", [True, False], ids=["sorted", "assigned"])
@pytest.mark.parametrize("k", [3, 4, 8])
def test_tied_delays(by_sorting, k):
    sets = _sets(2, k, 20.0, max(SIZES), seed=3, tied=True)
    ties = sum(np.unique(obs.tau_a[rows]).size < rows.size
               for obs, _, _ in sets for rows in obs.groups.values())
    assert ties > 0
    stack = _stacked(sets, by_sorting)
    for t, (_, scrambled, _) in enumerate(sets):
        _assert_same(stack, t, _one_set(scrambled, by_sorting))


@pytest.mark.parametrize("by_sorting", [True, False], ids=["sorted", "assigned"])
def test_permuted_and_cut_stacks(by_sorting):
    sets = _sets(3, 4, 45.0, 50, seed=4) + _gated(3, 4, 5, seed=4)
    whole = _stacked(sets, by_sorting)
    order = np.random.default_rng(4).permutation(len(sets))
    permuted = _stacked([sets[i] for i in order], by_sorting)
    for position, t in enumerate(order):
        for c in COLUMNS:
            assert getattr(permuted, c)[position].tobytes() == getattr(whole, c)[t].tobytes()
    for t in (0, 17, len(sets) - 1):
        alone = _stacked(sets[t:t + 1], by_sorting)
        for c in COLUMNS:
            assert getattr(alone, c)[0].tobytes() == getattr(whole, c)[t].tobytes()


def _interleaved_stack():
    """Two sets of one layout whose observers' rows are not contiguous."""
    sets = [obs for obs, _, _ in _sets(3, 3, 5.0, 2, seed=5)]
    order = np.array([0, 3, 6, 1, 4, 7, 2, 5, 8])
    return Observations.stack([Observations(**{c: getattr(obs, c)[order]
                                               for c in (*COLUMNS, "observer")}) for obs in sets])


def test_paired_gathers_each_sets_b_rows():
    stack = _interleaved_stack()
    sources = np.tile(np.arange(9), (2, 1))
    sources[1, [0, 3, 6]] = [3, 6, 0]  # within observer 0, whose rows are 0, 3 and 6
    paired = stack.paired(sources)
    for t in range(2):
        np.testing.assert_array_equal(paired.tau_a[t], stack.tau_a[t])
        np.testing.assert_array_equal(paired.tau_b[t], stack.tau_b[t][sources[t]])
        np.testing.assert_array_equal(paired.dir_b[t], stack.dir_b[t][sources[t]])
    assert paired.groups is stack.groups
    # every column read-only and C-contiguous, as every set's: a write raises
    for built in (stack, paired):
        for c in (*COLUMNS, "observer"):
            column = getattr(built, c)
            assert not column.flags.writeable and column.flags.c_contiguous, c
            with pytest.raises(ValueError, match="read-only"):
                column[..., 0] = 0


@pytest.mark.parametrize("where, value", [
    ((1, 3), 6),      # row 6 twice in set 1, row 3 never: a duplicated row
    ((0, 0), 1),      # row 1 is observer 1's: a row of another observer
    ((1, 8), 9),      # past the last row
    ((0, 4), -5),     # a negative index, which numpy would wrap
])
def test_bad_sources_raise(where, value):
    stack = _interleaved_stack()
    sources = np.tile(np.arange(9), (2, 1))
    sources[where] = value
    with pytest.raises(InvalidParams, match="permute every observer's rows"):
        stack.paired(sources)


@pytest.mark.parametrize("sources", [np.tile(np.arange(9.0), (2, 1)),
                                     np.ones((2, 9), dtype=bool), np.arange(9),
                                     np.tile(np.arange(9), (3, 1))])
def test_sources_of_another_type_or_shape_raise(sources):
    with pytest.raises(InvalidParams):
        _interleaved_stack().paired(sources)


def test_interleaved_layouts_pair_the_same_rows():
    # rows stay in place in a stack, where apply_assignment walks observer by observer;
    # the pairs, as (A row, B row) of the set, are the same
    stack = _interleaved_stack()
    for by_sorting in (True, False):
        found = assoc.associate_stack(stack, by_sorting)
        for t in range(2):
            one = Observations(stack.tau_a[t], stack.tau_b[t], stack.dir_a[t],
                               stack.dir_b[t], np.array([0, 1, 2] * 3))
            assignment = (assoc.associate_by_sorting(one, one) if by_sorting
                          else assoc.associate(one, one, force_full=True))
            want = {(rows[k], rows[j]) for o, rows in one.groups.items()
                    for k, j in assignment.pairs(o)}
            assert set(enumerate(found[t].tolist())) == want
