"""The full route's feedback controller against the earlier open-loop construction.

``reference_steer_to_target`` and ``reference_controller`` are the
open-loop ``steer_to_target`` and ``_controller`` as they stood before the
full route became a state feedback, with the helpers they called
(``reference_steering_start``, ``reference_invert_gramian``,
``reference_free_input``), copied verbatim apart from their names, their
docstrings and the record they return, and but for stage levels held in
plain dicts, stage k at depth k, with z read off x by
``pathspace.z_level``. The feedback's inputs must agree
with theirs to rounding, replay bit for bit, and stay exact at depths
where the open-loop table drifted.
"""
from types import SimpleNamespace

import numpy as np
import pytest

from stochctrl import NoiseModel, PathTree, ProblemInstance, forward_simulate, serialize_instance
from stochctrl.cli import main
from stochctrl.criteria import gramian, gramian_invertible
from stochctrl.errors import DimensionMismatch, SingularGramian, TargetNotInS
from stochctrl.pathspace import backward_solve, member_of_S, terminal_from_map, z_level
from stochctrl.sampling import random_attainable_terminal, random_controllable, random_x0
from stochctrl.synthesis import stage_products, steer_to_target
from crosschecks import controller_levels


def reference_invert_gramian(G, x0, what, N):
    ok, smin = gramian_invertible(G)
    if not ok:
        raise SingularGramian(what, N, smin)
    return np.linalg.solve(G, x0)


def reference_steering_start(tree, form, x0, target, membership):
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (form.n,):
        raise DimensionMismatch(f"x0 must have length {form.n}, got {x0.shape}")
    if target is None:
        return x0, None, np.zeros(form.n)
    terminal = terminal_from_map(tree, form.n, target)
    result = membership(terminal)
    if not result.member:
        raise TargetNotInS(f"terminal residual {result.max_residual:.3e} exceeds tolerance {result.tol}")
    return x0, terminal, result.x0


def reference_free_input(tree, form, prods, g):
    vals = {}
    for k in range(tree.horizon + 1):
        y = np.einsum("hab,a->hb", prods[k], g)  # (C(k-1)...C(0))' g per history
        vals[k] = y @ form.D
    return vals


def reference_controller(kind, ts, tree, x0, G, v, x, terminal, u1=None):
    spec = ts.spec
    q, u = {}, {}
    for k in range(tree.horizon + 1):
        xk = x[k]
        qk = z_level(tree, x[k + 1]) - xk @ spec.Abar.T
        vk = v[k]
        q[k] = qk
        u[k] = np.hstack([qk, vk]) @ ts.M.T
    return SimpleNamespace(
        kind=kind, tree=tree, x0=x0, v=v, q=q, u=u, solution=x, gramian=G, u1=u1, target=terminal
    )


def reference_steer_to_target(ts, tree, x0, target, tol=1e-8):
    form = ts.form
    x0, terminal, offset = reference_steering_start(
        tree, form, x0, target, lambda t: member_of_S(tree, form, t, tol=tol)
    )
    G = gramian(form, tree.horizon)
    g = reference_invert_gramian(G, x0 - offset, "Gramian", tree.horizon)
    prods = stage_products(tree, form, tree.horizon)
    v = reference_free_input(tree, form, prods, g)
    x = backward_solve(tree, form, terminal, v)  # superposition of both parts
    return reference_controller("null" if terminal is None else "target", ts, tree, x0, G, v, x, terminal)


LAWS = {"two-point": (NoiseModel.rademacher(), 6), "three-point": (NoiseModel.symmetric_three_point(), 4)}


def _cases():
    for law, (_, N_max) in LAWS.items():
        for n in (1, 2, 3):
            for N in range(N_max + 1):
                for target in ("null", "constant", "path"):
                    yield law, n, N, target


def _draw(law, n, N, target):
    noise = LAWS[law][0]
    rng = np.random.default_rng([n, N, list(LAWS).index(law), ("null", "constant", "path").index(target)])
    ts = random_controllable(rng, n, 2 * n if N == 0 else n + 1, N, noise=noise)  # G_0 = D D' needs n columns
    tree = PathTree(noise, N)
    goal = {
        "null": None,
        "constant": rng.normal(size=n),
        "path": random_attainable_terminal(rng, tree, ts.form),
    }[target]
    return ts, tree, random_x0(rng, n), goal


@pytest.mark.parametrize("law,n,N,target", list(_cases()))
def test_feedback_inputs_match_open_loop(law, n, N, target):
    ts, tree, x0, goal = _draw(law, n, N, target)
    ctrl = steer_to_target(ts, tree, x0, goal)
    ref = reference_steer_to_target(ts, tree, x0, goal)
    assert ctrl.kind == ref.kind
    np.testing.assert_array_equal(ctrl.gramian, ref.gramian)
    u = controller_levels(ctrl)[0]
    for k in range(N + 1):
        want = ref.u[k]
        got = u[k]
        assert got.shape == want.shape == (tree.n_nodes(k), ts.spec.m)
        assert (np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want))).all(), k


@pytest.mark.parametrize("law,n,N,target", [c for c in _cases() if c[2] == LAWS[c[0]][1]])
def test_table_replays_the_closed_loop_bit_for_bit(law, n, N, target):
    ts, tree, x0, goal = _draw(law, n, N, target)
    ctrl = steer_to_target(ts, tree, x0, goal)
    u, x, _ = controller_levels(ctrl)
    sim = forward_simulate(tree, ts.spec, x0, u)
    for k in range(N + 2):
        assert np.array_equal(sim[k], x[k]), k
    assert np.array_equal(x[0][0], x0)


def test_deep_full_route_stays_exact_through_the_cli(capsys, tmp_path):
    # The benchmark's full_deep draw for seed 2, where the open-loop table ended 6e-6 off.
    rng = np.random.default_rng([2, 0])
    ts = random_controllable(rng, 3, 4, 17)
    inst = tmp_path / "deep.json"
    inst.write_text(serialize_instance(ProblemInstance(ts.spec, 17, x0=random_x0(rng, 3))))
    table = str(tmp_path / "deep.csv")
    deviations = []
    for argv in (("synthesize", "--out", table), ("verify", "--controller", table)):
        code = main([argv[0], "--instance", str(inst), "--format", "csv", *argv[1:]])
        report = dict(line.split(",", 1) for line in capsys.readouterr().out.split())
        assert code == 0
        deviations.append(float(report["terminal_deviation"]))
    assert max(deviations) <= 1e-12, deviations
