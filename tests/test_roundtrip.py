"""Property: every steerable route's table survives the write, read and replay.

For the full, input-delay and state-delay routes, a synthesized controller
is written with ``write_controller_csv``, read back with
``read_controller_table`` and replayed with ``forward_simulate``; the
replay must end on the target within 1e-10 of the problem's scale, at
horizons up to 10 (two-point noise) and 6 (three-point noise). Every
controller, a path target's included, is also a law: written with
``law_text``, read back with ``read_feedback_law`` (which rebuilds a
path target's offsets from the target its law names) and run with
``feedback_loop``, it reproduces the plant-step loop's states bit for
bit.
At the horizons that fill the default cap (two-point N = 19, 2^20
leaves; three-point N = 11, 3^12) ``synthesize`` and ``verify`` round
the null law through the CLI, and a constant target is steered onto.
"""
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochctrl import (
    NoiseModel,
    PathTree,
    ProblemInstance,
    feedback_loop,
    forward_simulate,
    law_text,
    read_controller_table,
    read_feedback_law,
    serialize_instance,
    steer_to_target,
    write_controller_csv,
)
from stochctrl.cli import ROUTES, main
from stochctrl.errors import SingularGramian
from stochctrl.sampling import random_attainable_terminal, random_controllable, random_x0
from crosschecks import controller_levels, loop_levels
from test_delay import delayed_attainable_terminal

LAWS = {"two-point": (NoiseModel.rademacher(), 10), "three-point": (NoiseModel.symmetric_three_point(), 6)}
LAG = {"full": {}, "input-delay": {"tau": 1}, "state-delay": {"d": 1}}


@st.composite
def problems(draw):
    law = draw(st.sampled_from(sorted(LAWS)))
    noise, N_max = LAWS[law]
    route = draw(st.sampled_from(sorted(LAG)))
    lag = {key: draw(st.integers(1, 2)) for key in LAG[route]}
    return noise, route, lag, draw(st.integers(0, N_max)), draw(st.sampled_from(("null", "constant", "path")))


@settings(deadline=None, max_examples=200)
@given(problems(), st.integers(0, 2**32 - 1))
def test_written_table_replays_onto_the_target(problem, seed):
    noise, route, lag, N, target = problem
    rng = np.random.default_rng(seed)
    n = 2
    tree = PathTree(noise, N)
    for _ in range(20):
        ts = random_controllable(rng, n, 2 * n if N == 0 else n + 1, N, noise=noise, **lag)
        x0 = random_x0(rng, n)
        if target == "null":
            goal = None
        elif target == "constant":
            goal = rng.normal(size=n)
        elif route == "state-delay":
            goal = delayed_attainable_terminal(rng, tree, ts.form, lag["d"])
        else:
            goal = random_attainable_terminal(rng, tree, ts.form)
        try:
            ctrl = ROUTES[route].controller(ts, tree, x0, goal, 1e-8)
            break
        except SingularGramian:
            continue
    else:
        raise RuntimeError(f"no steerable {route} draw")

    spec = ts.spec
    table = io.StringIO()
    write_controller_csv(table, ctrl)
    table.seek(0)
    u, u1 = read_controller_table(table, tree, spec)
    final = forward_simulate(tree, spec, x0, u, u1=u1)[N + 1]
    want = 0.0 if goal is None else goal
    scale = max(1.0, float(np.abs(x0).max()), float(np.abs(want).max()))
    assert np.abs(final - want).max() <= 1e-10 * scale

    law = read_feedback_law(io.StringIO(law_text(ctrl)), tree, ts, goal)
    x = loop_levels(tree, spec, x0, law)[1]
    ctrl_x = controller_levels(ctrl)[1]
    for k in range(N + 2):
        assert np.array_equal(x[k], ctrl_x[k])


@pytest.mark.parametrize("noise, N", [(NoiseModel.rademacher(), 19), (NoiseModel.symmetric_three_point(), 11)])
def test_cap_horizon_round_trips_through_the_cli(tmp_path, capsys, noise, N):
    rng = np.random.default_rng(0)
    ts = random_controllable(rng, 3, 4, N, noise=noise)
    x0 = random_x0(rng, 3)
    inst, law = tmp_path / "instance.json", tmp_path / "law.json"
    inst.write_text(serialize_instance(ProblemInstance(ts.spec, N, x0=x0)))
    reports = []
    for argv in (["synthesize", "--out", str(law)], ["verify", "--controller", str(law)]):
        assert main([*argv, "--instance", str(inst)]) == 0
        reports.append(dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines()))
    assert reports[0]["paths"] == str(len(noise.support) ** (N + 1))
    assert reports[0]["terminal_deviation"] == reports[1]["terminal_deviation"]
    assert float(reports[0]["terminal_deviation"]) <= 1e-10 * max(1.0, float(np.abs(x0).max()))

    target = rng.normal(size=3)
    ctrl = steer_to_target(ts, PathTree(noise, N), x0, target)
    for _, _, final in feedback_loop(ctrl.tree, ctrl.spec, ctrl.x0, ctrl.law):  # keeps only the last level
        pass
    assert np.abs(final - target).max() <= 1e-10 * max(1.0, float(np.abs(x0).max()), float(np.abs(target).max()))
