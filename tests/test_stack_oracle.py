"""The stacked closed-form solvers against a one-set recomputation, bit for bit.

``posest.solve_by_delta``, ``posest.solve_by_tau`` and ``distest.mvue_async_stack``
solve every set of a stack (``Observations.stack``) at once.  Each set's outcome
is checked against the one-set solver written out plainly below (its system, one
SVD, the checks in order) and against the public one-set estimator: the bits of
its value, or the class of the error it raised.  The stacks mix ordinary sets with hand-built ones
that fail: a nearly antiparallel direction pair, an exactly singular raw-delay
system (d = 0 with dir_b = dir_a) and an ill-conditioned one.  A set's outcome
must not change when its stack is permuted or cut down to that set, and nothing
may warn on the way.
"""

import math

import numpy as np
import pytest

from uwbrel import chansim, distest, posest
from uwbrel.errors import AntiparallelDirections, InvalidParams, RankDeficient, UwbrelError
from uwbrel.evalcli import ExperimentConfig, run_sweep
from uwbrel.geom import SPEED_OF_LIGHT as C
from uwbrel.geom import Observations

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

METHODS = ("lse_by_delta", "lse_by_delta_pwa", "lse_by_tau")


def _reference(method, obs, cond_limit=posest.COND_LIMIT):
    """One set solved on its own, as the solvers did before they took stacks:
    ``(x, cond)`` in length units, or the class of the error it fails with."""
    try:
        if method == "lse_by_tau":
            k, groups = len(obs), obs.groups
            G = np.zeros((k, 3, 4 + len(groups)))
            G[:, :, 0:3] = np.eye(3)
            G[:, :, 3] = obs.dir_b
            for j, rows in enumerate(groups.values()):
                G[rows, :, 4 + j] = obs.dir_b[rows] - obs.dir_a[rows]
            A = G.reshape(3 * k, -1)
            b = (C * obs.tau_b[:, None] * obs.dir_b - C * obs.tau_a[:, None] * obs.dir_a).ravel()
            if A.shape[0] < A.shape[1]:
                raise RankDeficient("too few rows")
        else:
            if len(obs) < 4:
                raise RankDeficient("K < 4")
            s = obs.dir_a
            if method == "lse_by_delta":
                denom = 1.0 + np.einsum("ij,ij->i", obs.dir_a, obs.dir_b)
                if (denom <= 1e-6).any():
                    raise AntiparallelDirections("antiparallel")
                s = (obs.dir_a + obs.dir_b) / denom[:, None]
            A = np.concatenate([s.T, np.ones((1, len(obs)))]).T
            b = C * (obs.tau_b - obs.tau_a)
        u, sv, vt = np.linalg.svd(A, full_matrices=False)
        if sv[-1] <= 0:
            raise RankDeficient("singular")
        cond = float((sv[0] / sv[-1]) ** 2)
        if cond > cond_limit:
            raise RankDeficient("condition")
        x = vt.T @ ((u.T @ b) / sv)
        if not np.isfinite(x[:3]).all():
            raise RankDeficient("non-finite")
        return x.tobytes(), np.float64(cond).tobytes()
    except UwbrelError as exc:
        return type(exc)


def _stacked(method, sets, cond_limit=posest.COND_LIMIT):
    """Each set's outcome from one stacked solve, in ``_reference``'s form."""
    stack = Observations.stack(sets)
    if method == "lse_by_tau":
        x, cond, failures = posest.solve_by_tau(stack, cond_limit)
    else:
        x, cond, failures = posest.solve_by_delta(stack, method, cond_limit)
    return [type(f) if f is not None else (x[i].tobytes(), cond[i].tobytes())
            for i, f in enumerate(failures)]


def _public(method, obs, cond_limit=posest.COND_LIMIT):
    """The public one-set estimator's outcome: position bits, offsets and condition
    bits, or the class of its error."""
    try:
        est = getattr(posest, method)(obs, cond_limit)
    except UwbrelError as exc:
        return type(exc)
    return (est.d_vec.tobytes(), (est.eps_hat, *est.eps_a_hats),
            np.float64(est.condition_number).tobytes())


def _as_public(outcome):
    """A ``_reference`` outcome in ``_public``'s form."""
    if isinstance(outcome, type):
        return outcome
    x = np.frombuffer(outcome[0])
    return x[:3].tobytes(), tuple(v / C for v in x[3:].tolist()), outcome[1]


def _ordinary(rng, d=2.0, sigma_dir=math.radians(3.0)):
    scenario = chansim.sample_scenario(d, chansim.SvParams(), 3, [4, 4, 4], rng)
    noise = chansim.NoiseParams(sigma=0.2e-9, sigma_dir=sigma_dir, eps=5e-9,
                                eps_a_per_observer=tuple(rng.uniform(0, 100e-9, 3)))
    return chansim.observe(scenario, noise, rng)


def _sets(seed):
    """Ordinary sets and three that fail, all 3 observers x 4 MPCs; returns the
    sets and the index of each failing one."""
    rng = np.random.default_rng(seed)
    ordinary = [_ordinary(rng) for _ in range(6)]
    base = ordinary[0]
    # row 2's B direction flipped against its A direction: DD fails, PWA and TAU run
    dir_b = base.dir_b.copy()
    dir_b[2] = -base.dir_a[2]
    antiparallel = Observations(base.tau_a, base.tau_b, base.dir_a, dir_b, base.observer)
    # d = 0 and identical directions: the offset columns of the raw-delay system are 0
    still = _ordinary(rng, d=0.0, sigma_dir=0.0)
    singular = Observations(still.tau_a, still.tau_b, still.dir_a, still.dir_a, still.observer)
    # every direction inside a 1e-3 rad cone: far above the condition limit
    cone = np.array([0.0, 0.0, 1.0]) + 1e-3 * rng.normal(size=(12, 3))
    cone /= np.linalg.norm(cone, axis=1, keepdims=True)
    ill = Observations(base.tau_a, base.tau_b, cone, cone, base.observer)
    sets = [*ordinary[:2], antiparallel, ordinary[2], singular, *ordinary[3:5], ill, ordinary[5]]
    return sets, {"antiparallel": 2, "singular": 4, "ill": 7}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("method", METHODS)
def test_each_set_as_alone(method, seed):
    sets, _ = _sets(seed)
    got = _stacked(method, sets)
    for i, obs in enumerate(sets):
        want = _reference(method, obs)
        assert got[i] == want, (method, i)
        assert _public(method, obs) == _as_public(want), (method, i)


def test_failures_are_the_constructed_ones():
    sets, at = _sets(0)
    delta, pwa, tau = (_stacked(method, sets) for method in METHODS)
    assert delta[at["antiparallel"]] is AntiparallelDirections
    assert not isinstance(pwa[at["antiparallel"]], type)
    assert tau[at["singular"]] is RankDeficient
    stack = Observations.stack([sets[at["singular"]]])
    G, _ = posest._tau_system(stack)
    assert np.linalg.svd(G, compute_uv=False)[0, -1] == 0.0  # exactly singular
    assert delta[at["ill"]] is RankDeficient and tau[at["ill"]] is RankDeficient
    ordinary = [i for i in range(len(sets)) if i not in at.values()]
    assert all(not isinstance(delta[i], type) for i in ordinary)


@pytest.mark.parametrize("method", METHODS)
def test_a_lower_condition_limit_fails_sets_one_by_one(method):
    sets, _ = _sets(1)
    conds = sorted(np.frombuffer(out[1])[0] for out in _stacked(method, sets)
                   if not isinstance(out, type))
    limit = conds[len(conds) // 2]  # about half the solvable sets pass it
    got = _stacked(method, sets, limit)
    assert got == [_reference(method, obs, limit) for obs in sets]
    assert list(map(_as_public, got)) == [_public(method, obs, limit) for obs in sets]
    assert RankDeficient in got and any(not isinstance(out, type) for out in got)


@pytest.mark.parametrize("method", METHODS)
def test_permuted_and_cut_stacks(method):
    sets, _ = _sets(2)
    whole = _stacked(method, sets)
    order = np.random.default_rng(9).permutation(len(sets))
    permuted = _stacked(method, [sets[i] for i in order])
    assert [permuted[list(order).index(i)] for i in range(len(sets))] == whole
    assert [_stacked(method, [obs])[0] for obs in sets] == whole


def test_mvue_stack_matches_each_set():
    sets, _ = _sets(3)
    d_hat, mid = distest.mvue_async_stack(Observations.stack(sets))
    for i, obs in enumerate(sets):
        est = distest.mvue_async(obs)
        delta = obs.tau_b - obs.tau_a
        want = 13 / 11 * (C / 2.0) * float(delta.max() - delta.min())
        assert (est.d_hat, est.eps_hat) == (d_hat[i], mid[i]) and est.d_hat == want
        assert type(est.d_hat) is float


def test_stack_level_errors():
    rng = np.random.default_rng(4)
    small = _ordinary(rng)[:3]  # 3 MPCs: observers 0 only
    with pytest.raises(RankDeficient, match="K >= 4"):
        posest.solve_by_delta(Observations.stack([small, small]))
    with pytest.raises(RankDeficient, match="K >= 4"):
        posest.lse_by_delta(small)
    one = _ordinary(rng)
    with pytest.raises(UwbrelError, match="one observer layout"):
        Observations.stack([one, one[:11]])
    shuffled = Observations(one.tau_a, one.tau_b, one.dir_a, one.dir_b, one.observer[::-1])
    with pytest.raises(UwbrelError, match="one observer layout"):
        Observations.stack([one, shuffled])
    stack = Observations.stack([one, one])
    for sets in ([stack], [one, stack], [stack, one]):  # a stack is not a set
        with pytest.raises(InvalidParams, match="one observer layout"):
            Observations.stack(sets)
    for rows in (slice(0, 3), np.arange(3), np.ones(12, dtype=bool), 0):
        with pytest.raises(InvalidParams, match="one set's rows"):
            stack[rows]


@pytest.mark.parametrize("method", ["lse_by_dleta", "lse_by_tau", "LSE_BY_DELTA", ""])
def test_solve_by_delta_rejects_a_mode_it_does_not_solve(method):
    stack = Observations.stack([_ordinary(np.random.default_rng(5))])
    with pytest.raises(InvalidParams, match="lse_by_delta, lse_by_delta_pwa or gls_by_delta"):
        posest.solve_by_delta(stack, method)


def test_an_empty_stack_is_rejected():
    with pytest.raises(InvalidParams, match="one or more sets"):
        Observations.stack([])


def test_sweep_with_a_point_where_every_closed_form_fails():
    # one observer with 1 MPC: every closed-form trial fails at the first
    # point, and none warns; at 4 MPCs they run
    cfg = ExperimentConfig(sweep="mpc_count", d=(2.0,), m_observers=1, k_per_observer=(1, 4),
                           trials=6, estimators=("MV", "SO", "DD", "PWA", "TAU", "DDN", "TNA"))
    result = run_sweep(cfg)
    for tag in cfg.estimators:
        assert result.lookup(1, tag)["failures"] == 6
        assert result.lookup(4, tag)["failures"] < 6
