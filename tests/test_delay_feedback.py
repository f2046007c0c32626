"""The delay routes' feedback laws against the earlier open-loop construction.

``reference_input_delay_controller`` and ``reference_state_delay_controller``
are the open-loop delay controllers as they stood before the delay routes
became feedback laws, with the helpers they called that have since gone
or changed (``reference_steering_start``, ``reference_check_gramian``,
``reference_stage_products``, ``reference_free_input``,
``reference_controller`` and ``reference_backward_solve``, the backward
solve with its delayed-input branch), copied verbatim apart from their
names, their docstrings and the record they return, and but for stage
levels held in plain dicts, stage j at depth max(0, j), with z read off
x by ``pathspace.z_level``. The feedback's
inputs must agree with theirs to rounding, replay bit for bit, and stay
exact at depths where the open-loop tables drifted.
"""
from types import SimpleNamespace

import numpy as np
import pytest

from stochctrl import NoiseModel, PathTree, ProblemInstance, forward_simulate, serialize_instance
from stochctrl.cli import main
from stochctrl.criteria import gramian, gramian_invertible
from stochctrl.delay import (
    input_delay_controller,
    member_of_S_state_delay,
    state_delay_controller,
)
from stochctrl.errors import DimensionMismatch, SingularGramian, StageMismatch, TargetNotInS
from stochctrl.pathspace import (
    _check_input,
    _stage_map,
    _stage_step,
    backward_solve_state_delay,
    member_of_S,
    path_products,
    terminal_from_map,
    z_level,
)
from stochctrl.sampling import random_attainable_terminal, random_controllable, random_x0
from crosschecks import controller_levels, lift
from test_delay import delayed_attainable_terminal


def reference_check_gramian(G, what, N):
    ok, smin = gramian_invertible(G)
    if not ok:
        raise SingularGramian(what, N, smin)


def reference_steering_start(tree, form, x0, target, membership):
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (form.n,):
        raise DimensionMismatch(f"x0 must have length {form.n}, got {x0.shape}")
    if target is None:
        return x0, None, None
    terminal = terminal_from_map(tree, form.n, target)
    result = membership(terminal)
    if not result.member:
        raise TargetNotInS(f"terminal residual {result.max_residual:.3e} exceeds tolerance {result.tol}")
    return x0, terminal, result.solution


def reference_stage_products(tree, form, upto):
    return list(path_products(form, tree.support, upto))


def reference_free_input(tree, form, prods, g):
    vals = {}
    for k in range(tree.horizon + 1):
        y = np.einsum("hab,a->hb", prods[k], g)  # (C(k-1)...C(0))' g per history
        vals[k] = y @ form.D
    return vals


def reference_controller(kind, ts, tree, G, v, x, u1=None):
    spec = ts.spec
    u = {}
    for k in range(tree.horizon + 1):
        q = z_level(tree, x[k + 1]) - x[k] @ spec.Abar.T
        u[k] = np.hstack([q, v[k]]) @ ts.M.T
    return SimpleNamespace(kind=kind, tree=tree, u=u, solution=x, gramian=G, u1=u1)


def reference_backward_solve(tree, form, terminal, v=None, *, u1=None, tau=None):
    n, N = form.n, tree.horizon
    if (u1 is None) != (tau is None):
        raise StageMismatch("u1 and tau must be supplied together")
    if u1 is not None and form.D1 is None:
        raise DimensionMismatch("form has no delayed input channel D1")
    W = _stage_map(tree, form)
    x_vals = {N + 1: terminal_from_map(tree, n, terminal)}
    for k in range(N, -1, -1):
        xk = _stage_step(tree, form, W, x_vals[k + 1], v, k)
        if u1 is not None:
            u1k = lift(tree, _check_input(tree, u1, k - tau, form.D1.shape[1], "u1"), max(0, k - tau), k)
            xk = xk + u1k @ form.D1.T
        x_vals[k] = xk
    return x_vals


def reference_input_delay_controller(ts, tree, x0, target=None, tol=1e-8):
    spec, form = ts.spec, ts.form
    if spec.B1 is None or spec.tau is None:
        raise ValueError("system has no delayed input channel")
    tau, N = spec.tau, tree.horizon
    x0, terminal, hom = reference_steering_start(
        tree, form, x0, target, lambda t: member_of_S(tree, form, t, tol=tol)
    )
    G = gramian(form, N)
    reference_check_gramian(G, "delayed-input Gramian", N)
    g = np.linalg.solve(G, x0 if hom is None else x0 - hom[0][0])
    prods = reference_stage_products(tree, form, N)
    v = reference_free_input(tree, form, prods, g)
    u1 = {}
    for i in range(N + 1):
        depth = max(0, i - tau)
        Phi = prods[depth] @ np.linalg.matrix_power(form.C, min(i, tau))
        y = np.einsum("hab,a->hb", Phi, g)
        u1[i - tau] = y @ form.D1
    x = reference_backward_solve(tree, form, terminal, v, u1=u1, tau=tau)
    return reference_controller("input-delay", ts, tree, G, v, x, u1)


def reference_state_delay_controller(ts, tree, x0, target=None, tol=1e-8):
    spec, form = ts.spec, ts.form
    if spec.A1 is None or spec.d is None:
        raise ValueError("system has no delayed state channel")
    d, N = spec.d, tree.horizon
    x0, terminal, hom = reference_steering_start(
        tree, form, x0, target, lambda t: member_of_S_state_delay(tree, form, t, tol=tol)
    )
    G = gramian(form, N)
    reference_check_gramian(G, "delayed-state Gramian", N)
    g = np.linalg.solve(G, x0 if hom is None else x0 - hom[0][0])
    prods = reference_stage_products(tree, form, N)
    v = reference_free_input(tree, form, prods, g)
    x = backward_solve_state_delay(tree, form, terminal, v)
    return reference_controller("state-delay", ts, tree, G, v, x)


LAWS = {"two-point": (NoiseModel.rademacher(), 5), "three-point": (NoiseModel.symmetric_three_point(), 4)}
ROUTES = {
    "input-delay": ("tau", input_delay_controller, reference_input_delay_controller),
    "state-delay": ("d", state_delay_controller, reference_state_delay_controller),
}
TARGETS = ("null", "constant", "path")
CASES = [
    (law, route, n, N)
    for law, (_, N_max) in LAWS.items()
    for route in ROUTES
    for n in (1, 2, 3)
    for N in range(N_max + 1)
]


def _draw(law, route, n, N, lag, target):
    """A system of the route that both constructions can steer, with x0 and a target."""
    noise = LAWS[law][0]
    keys = (list(LAWS).index(law), list(ROUTES).index(route), TARGETS.index(target))
    rng = np.random.default_rng([n, N, lag, *keys])
    tree = PathTree(noise, N)
    m = 2 * n if N == 0 else n + 1  # G_0 = D D' needs n free columns on the state-delay route
    for _ in range(20):
        ts = random_controllable(rng, n, m, N, noise=noise, **{ROUTES[route][0]: lag})
        x0 = random_x0(rng, n)
        if target == "null":
            goal = None
        elif target == "constant":
            goal = rng.normal(size=n)
        elif route == "input-delay":
            goal = random_attainable_terminal(rng, tree, ts.form)
        else:
            goal = delayed_attainable_terminal(rng, tree, ts.form, lag)
        try:
            ref = ROUTES[route][2](ts, tree, x0, goal)
        except SingularGramian:
            continue
        return ts, tree, x0, goal, ref
    raise RuntimeError(f"no steerable {route} draw")


def _close(got, want):
    return (np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want))).all()


@pytest.mark.parametrize("law,route,n,N", CASES)
def test_feedback_inputs_match_open_loop(law, route, n, N):
    for lag in (1, 2):
        for target in TARGETS:
            ts, tree, x0, goal, ref = _draw(law, route, n, N, lag, target)
            ctrl = ROUTES[route][1](ts, tree, x0, goal)
            assert ctrl.kind == ref.kind == route
            np.testing.assert_array_equal(ctrl.gramian, ref.gramian)
            u, x, u1 = controller_levels(ctrl)
            for k in range(N + 1):
                assert u[k].shape == ref.u[k].shape == (tree.n_nodes(k), ts.spec.m)
                assert _close(u[k], ref.u[k]), (lag, target, k)
            if route == "input-delay":
                assert sorted(u1) == sorted(ref.u1) == list(range(-lag, N - lag + 1))
                for j in sorted(ref.u1):
                    assert u1[j].shape == ref.u1[j].shape == (tree.n_nodes(max(0, j)), ts.spec.B1.shape[1])
                    assert _close(u1[j], ref.u1[j]), (lag, target, j)
            else:
                assert u1 is None
            # The table replays the closed loop's own states.
            sim = forward_simulate(tree, ts.spec, x0, u, u1=u1)
            for k in range(N + 2):
                assert np.array_equal(sim[k], x[k]), (lag, target, k)
            assert np.array_equal(x[0][0], x0)


@pytest.mark.parametrize(
    "route,seed,N",
    [
        ("tau", [7, 15], 15),  # the open-loop table ended 3.7e-4 off
        ("d", [4, 13], 13),  # the open-loop table ended 2.5e-7 off
    ],
)
def test_deep_delay_routes_stay_exact_through_the_cli(capsys, tmp_path, route, seed, N):
    rng = np.random.default_rng(seed)
    ts = random_controllable(rng, 2, 3, N, **{route: 1})
    inst = tmp_path / "deep.json"
    inst.write_text(serialize_instance(ProblemInstance(ts.spec, N, x0=random_x0(rng, 2))))
    table = str(tmp_path / "deep.csv")
    deviations = []
    for argv in (("synthesize", "--out", table), ("verify", "--controller", table)):
        code = main([argv[0], "--instance", str(inst), "--format", "csv", *argv[1:]])
        report = dict(line.split(",", 1) for line in capsys.readouterr().out.split())
        assert code == 0
        deviations.append(float(report["terminal_deviation"]))
    assert max(deviations) <= 1e-12, deviations
