"""The form picks the route: the full-state names serve the delay routes too.

On a form with a delayed input or state, :func:`steer_to_target` and
:func:`null_controller` build the controller of the named delay entry
point, and :func:`member_of_S` and :func:`backward_solve` solve the
delayed backward equation, all bit for bit. The named entry points still
refuse a form without their channel.
"""
import numpy as np
import pytest

from stochctrl import (
    NoiseModel,
    PathTree,
    backward_solve,
    backward_solve_state_delay,
    input_delay_controller,
    member_of_S,
    member_of_S_state_delay,
    null_controller,
    random_attainable_terminal,
    random_controllable,
    state_delay_controller,
    steer_to_target,
)
from stochctrl.errors import DimensionMismatch
from test_delay import delayed_attainable_terminal

LAWS = {"two-point": NoiseModel.rademacher(), "three-point": NoiseModel.symmetric_three_point()}
NAMED = {"tau": input_delay_controller, "d": state_delay_controller}


def assert_same_controller(got, want):
    assert got.kind == want.kind
    assert len(got.law.L) == len(want.law.L)
    assert all(np.array_equal(g, w) for g, w in zip(got.law.L, want.law.L))
    assert got.law.c.depths == want.law.c.depths
    assert all(np.array_equal(got.law.c.at(k), want.law.c.at(k)) for k in want.law.c.values)
    if want.law.u1_pre is None:
        assert got.law.u1_pre is None
    else:
        assert np.array_equal(got.law.u1_pre, want.law.u1_pre)
    assert got.x.depths == want.x.depths
    assert all(np.array_equal(got.x.at(k), want.x.at(k)) for k in want.x.values)
    assert np.array_equal(got.gramian, want.gramian)


@pytest.mark.parametrize("target", ["null", "constant", "path"])
@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("lag", ["tau1", "tau2", "d1", "d2"])
def test_steer_to_target_on_a_delay_route_is_the_named_controller(lag, law, target):
    channel, lag_value = lag[:-1], int(lag[-1])
    noise = LAWS[law]
    rng = np.random.default_rng([lag_value, len(noise.support), channel == "tau"])
    for n in (1, 2):
        N = lag_value + 1
        ts = random_controllable(rng, n, n + 1, N, noise=noise, **{channel: lag_value})
        tree = PathTree(noise, N)
        x0 = rng.normal(size=n)
        if target == "null":
            goal = None
        elif target == "constant":
            goal = rng.normal(size=n)
        elif channel == "tau":
            goal = random_attainable_terminal(rng, tree, ts.form)
        else:
            goal = delayed_attainable_terminal(rng, tree, ts.form, lag_value)
        want = NAMED[channel](ts, tree, x0, goal)
        assert want.kind == ("input-delay" if channel == "tau" else "state-delay")
        assert_same_controller(steer_to_target(ts, tree, x0, goal), want)
        if goal is None:
            assert_same_controller(null_controller(ts, tree, x0), want)


def test_member_of_S_solves_the_delayed_equation():
    rng = np.random.default_rng(1)
    ts = random_controllable(rng, 2, 3, 3, d=1, noise=NoiseModel.symmetric_three_point())
    tree = PathTree(ts.spec.noise, 3)
    terminal = rng.normal(size=(81, 2))
    got, want = member_of_S(tree, ts.form, terminal), member_of_S_state_delay(tree, ts.form, terminal)
    assert np.array_equal(got.x0, want.x0)
    assert got.max_residual == want.max_residual and got.member == want.member
    for k in range(tree.horizon + 2):
        assert np.array_equal(got.solution.x.at(k), want.solution.x.at(k))
    solved, eliminated = backward_solve(tree, ts.form, terminal), backward_solve_state_delay(tree, ts.form, terminal)
    for k in range(tree.horizon + 1):
        assert np.array_equal(solved.x.at(k), eliminated.x.at(k))
        assert np.array_equal(solved.z.at(k), eliminated.z.at(k))


def test_state_delay_entry_points_need_the_channel():
    ts = random_controllable(np.random.default_rng(2), 2, 3, 2)
    tree = PathTree(ts.spec.noise, 2)
    with pytest.raises(DimensionMismatch):
        member_of_S_state_delay(tree, ts.form, np.ones(2))
    with pytest.raises(DimensionMismatch):
        backward_solve_state_delay(tree, ts.form, np.ones(2))


def test_a_state_delay_controller_eliminates_twice_and_its_target_once_more(monkeypatch):
    # One elimination for the Gramian sequence and one for the law (pivots and lag gains);
    # a target's membership solve runs the third.
    import stochctrl.pathspace as pathspace
    import stochctrl.synthesis as synthesis

    calls = []
    eliminate = pathspace._state_delay_gains
    for module in (pathspace, synthesis):
        monkeypatch.setattr(module, "_state_delay_gains", lambda form, N: calls.append(N) or eliminate(form, N))
    rng = np.random.default_rng(4)
    ts = random_controllable(rng, 2, 3, 3, d=2)
    tree = PathTree(ts.spec.noise, 3)
    x0 = rng.normal(size=2)
    steer_to_target(ts, tree, x0, None)
    assert calls == [3, 3]
    calls.clear()
    ctrl = steer_to_target(ts, tree, x0, delayed_attainable_terminal(rng, tree, ts.form, 2))
    assert ctrl.kind == "state-delay" and calls == [3, 3, 3]
