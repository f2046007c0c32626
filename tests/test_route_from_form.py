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
    input_delay_decide,
    input_delay_gramian_oracle,
    member_of_S,
    member_of_S_state_delay,
    null_controller,
    random_attainable_terminal,
    random_controllable,
    state_delay_controller,
    state_delay_decide,
    state_delay_gramian_oracle,
    steer_to_target,
)
from stochctrl.errors import DimensionMismatch
from stochctrl.partial import output_form
from crosschecks import controller_levels
from test_delay import delayed_attainable_terminal

LAWS = {"two-point": NoiseModel.rademacher(), "three-point": NoiseModel.symmetric_three_point()}
NAMED = {"tau": input_delay_controller, "d": state_delay_controller}


def assert_same_controller(got, want):
    assert got.kind == want.kind
    assert len(got.law.L) == len(want.law.L)
    assert all(np.array_equal(g, w) for g, w in zip(got.law.L, want.law.L))
    assert len(got.law.c) == len(want.law.c)
    assert all(np.array_equal(g, w) for g, w in zip(got.law.c, want.law.c))
    if want.law.u1_pre is None:
        assert got.law.u1_pre is None
    else:
        assert np.array_equal(got.law.u1_pre, want.law.u1_pre)
    got_x, want_x = controller_levels(got)[1], controller_levels(want)[1]
    assert sorted(got_x) == sorted(want_x)
    assert all(np.array_equal(got_x[k], want_x[k]) for k in want_x)
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
        assert np.array_equal(got.solution[k], want.solution[k])
    solved, eliminated = backward_solve(tree, ts.form, terminal), backward_solve_state_delay(tree, ts.form, terminal)
    assert sorted(solved) == sorted(eliminated) == list(range(tree.horizon + 2))
    for k in range(tree.horizon + 2):  # and so z(k), a function of x(k+1)
        assert np.array_equal(solved[k], eliminated[k])


def test_state_delay_entry_points_need_the_channel():
    # Every delay entry point, and the output map's form, refuses a form without its channel
    # with the package's own DimensionMismatch.
    ts = random_controllable(np.random.default_rng(2), 2, 3, 2)
    tree = PathTree(ts.spec.noise, 2)
    refusals = {
        "form has no delayed input channel D1": [
            lambda: input_delay_gramian_oracle(ts.form, 2, ts.spec.noise),
            lambda: input_delay_controller(ts, tree, np.ones(2)),
            lambda: input_delay_decide(ts, 2),
        ],
        "form has no delayed state channel C1": [
            lambda: state_delay_gramian_oracle(ts.form, 2, ts.spec.noise),
            lambda: member_of_S_state_delay(tree, ts.form, np.ones(2)),
            lambda: state_delay_controller(ts, tree, np.ones(2)),
            lambda: state_delay_decide(ts, 2),
            lambda: backward_solve_state_delay(tree, ts.form, np.ones(2)),
        ],
        "system has no output map H": [lambda: output_form(ts)],
    }
    for message, calls in refusals.items():
        for call in calls:
            with pytest.raises(DimensionMismatch, match=f"^{message}$"):
                call()


def test_a_state_delay_controller_eliminates_twice_and_its_target_once_more(monkeypatch):
    # One pivot loop (state_delay_P) for the Gramian sequence and one for the law, whose lag
    # gains are the one gain build; a target's membership solve runs a third pivot loop and
    # a second gain build.
    import stochctrl.criteria as criteria
    import stochctrl.pathspace as pathspace
    import stochctrl.synthesis as synthesis

    pivots, gains = [], []
    pivot_loop, eliminate = pathspace.state_delay_P, pathspace._state_delay_gains
    for module in (pathspace, criteria):
        monkeypatch.setattr(module, "state_delay_P", lambda form, N: pivots.append(N) or pivot_loop(form, N))
    for module in (pathspace, synthesis):
        monkeypatch.setattr(module, "_state_delay_gains", lambda form, N: gains.append(N) or eliminate(form, N))
    rng = np.random.default_rng(4)
    ts = random_controllable(rng, 2, 3, 3, d=2)
    tree = PathTree(ts.spec.noise, 3)
    x0 = rng.normal(size=2)
    steer_to_target(ts, tree, x0, None)
    assert (pivots, gains) == ([3, 3], [3])
    pivots.clear()
    gains.clear()
    ctrl = steer_to_target(ts, tree, x0, delayed_attainable_terminal(rng, tree, ts.form, 2))
    assert ctrl.kind == "state-delay" and (pivots, gains) == ([3, 3, 3], [3, 3])
