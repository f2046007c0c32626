"""Property: every steerable route's table survives the write, read and replay.

For the full, input-delay and state-delay routes, a synthesized controller
is written with ``write_controller_csv``, read back with
``read_controller_table`` and replayed with ``forward_simulate``; the
replay must end on the target within 1e-10 of the problem's scale, at
horizons up to 10 (two-point noise) and 6 (three-point noise). On every
route a controller for the origin or a constant target is also a law:
written with ``law_text``, read back with ``read_feedback_law`` and run
with ``feedback_loop``, it reproduces the synthesized states bit for bit.
"""
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stochctrl import (
    NoiseModel,
    PathTree,
    feedback_loop,
    forward_simulate,
    law_text,
    read_controller_table,
    read_feedback_law,
    write_controller_csv,
)
from stochctrl.cli import ROUTES
from stochctrl.errors import SingularGramian
from stochctrl.sampling import random_attainable_terminal, random_controllable, random_x0
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
    u, u1 = read_controller_table(table.getvalue(), tree, spec)
    final = forward_simulate(tree, spec, x0, u, u1=u1).at(N + 1)
    want = 0.0 if goal is None else goal
    scale = max(1.0, float(np.abs(x0).max()), float(np.abs(want).max()))
    assert np.abs(final - want).max() <= 1e-10 * scale

    law = law_text(ctrl)
    if target != "path":
        assert law is not None  # every offset is one row: a law, not a table
    if law is not None:
        _, x, _ = feedback_loop(tree, spec, x0, read_feedback_law(io.StringIO(law), tree, spec))
        for k in range(N + 2):
            assert np.array_equal(x.at(k), ctrl.x.at(k))

