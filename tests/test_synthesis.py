"""Controller construction, closed-loop checks, and the table format."""
import numpy as np
import pytest

from stochctrl import (
    AdaptedProcess,
    NoiseModel,
    PathTree,
    SchemaError,
    SingularGramian,
    TargetNotInS,
    TransformedSystem,
    controller_csv_text,
    forward_simulate,
    null_controller,
    q_expanded,
    random_attainable_terminal,
    random_controllable,
    random_free_input,
    random_x0,
    read_controller_table,
    split_u,
    steer_to_target,
)


def closed_loop_gap(ts, tree, x0, ctrl, target=None):
    sim = forward_simulate(tree, ts.spec, x0, ctrl.u, u1=ctrl.u1)
    xN1 = sim.at(tree.horizon + 1)
    return np.abs(xN1 - (0.0 if target is None else target)).max()


def test_null_controller_benchmark(bench_full_ts, bench_full):
    _, expected = bench_full
    tree = PathTree(bench_full_ts.spec.noise, 2)
    ctrl = null_controller(bench_full_ts, tree, expected["x0"])
    assert np.abs(ctrl.solution.x0 - expected["x0"]).max() < 1e-10
    assert closed_loop_gap(bench_full_ts, tree, expected["x0"], ctrl) < 1e-8


def test_null_controller_random(rng):
    for noise in (NoiseModel.rademacher(), NoiseModel.symmetric_three_point()):
        for _ in range(5):
            n = int(rng.integers(1, 4))
            N = int(rng.integers(max(1, n - 1), 5))
            ts = random_controllable(rng, n, n + 1, N, noise=noise)
            tree = PathTree(noise, N)
            x0 = random_x0(rng, n)
            ctrl = null_controller(ts, tree, x0)
            assert closed_loop_gap(ts, tree, x0, ctrl) < 1e-8


def test_steer_roundtrip(rng):
    noise = NoiseModel.symmetric_three_point()
    ts = random_controllable(rng, 2, 3, 3, noise=noise)
    tree = PathTree(noise, 3)
    x0 = random_x0(rng, 2)
    target = random_attainable_terminal(rng, tree, ts.form)
    ctrl = steer_to_target(ts, tree, x0, target)
    assert closed_loop_gap(ts, tree, x0, ctrl, target) < 1e-8


def test_steer_to_constant_vector(rng):
    # A deterministic terminal is the mapping constant over paths.
    ts = random_controllable(rng, 2, 3, 2)
    tree = PathTree(ts.spec.noise, 2)
    x0 = random_x0(rng, 2)
    goal = np.array([1.0, -1.0])
    ctrl = steer_to_target(ts, tree, x0, goal)
    assert closed_loop_gap(ts, tree, x0, ctrl, goal[None, :]) < 1e-8


def test_steer_rejects_unattainable(rng):
    noise = NoiseModel.symmetric_three_point()
    ts = random_controllable(rng, 2, 3, 2, noise=noise)
    tree = PathTree(noise, 2)
    w_last = tree.support[[h[-1] for h in tree.histories(3)]]
    bad = (w_last**2)[:, None] * np.array([1.0, 0.5])[None, :]
    with pytest.raises(TargetNotInS):
        steer_to_target(ts, tree, random_x0(rng, 2), bad)


def test_singular_gramian_refused(bench_uncontrollable):
    ts = TransformedSystem.build(bench_uncontrollable)
    tree = PathTree(ts.spec.noise, 3)
    with pytest.raises(SingularGramian):
        null_controller(ts, tree, np.array([1.0, 1.0]))


def test_q_expanded_cross_check(rng):
    # Two routes to the absorbed input must agree: the feedback's q vs the
    # expanded tail sum under the feedback's v, both split from u = M [q; v].
    ts = random_controllable(rng, 2, 3, 2)
    tree = PathTree(ts.spec.noise, 2)
    ctrl = null_controller(ts, tree, random_x0(rng, 2))
    q, v = zip(*(split_u(ts.transform, ctrl.u.at_depth(k, k)) for k in range(3)))
    alt = q_expanded(ts, tree, AdaptedProcess(tree, dict(enumerate(v)), {k: k for k in range(3)}))
    for k in range(3):
        np.testing.assert_allclose(q[k], alt.at(k), atol=1e-10)


def test_csv_roundtrip_exact(rng, tmp_path):
    ts = random_controllable(rng, 2, 3, 2)
    tree = PathTree(ts.spec.noise, 2)
    ctrl = null_controller(ts, tree, random_x0(rng, 2))
    path = tmp_path / "ctrl.csv"
    from stochctrl import write_controller_csv

    write_controller_csv(path, ctrl)
    u, u1 = read_controller_table(path, tree, 3)
    assert u1 is None
    for k in range(3):
        np.testing.assert_array_equal(u.at(k), ctrl.u.at_depth(k, u.depth(k)))
    # %.17g reproduces doubles exactly, so a rewrite is byte-identical
    text = path.read_text()
    assert text == controller_csv_text(ctrl)


def test_csv_roundtrip_with_delay_channel(rng):
    from stochctrl import input_delay_controller, random_system

    ts = TransformedSystem.build(random_system(rng, 2, 3, tau=1))
    tree = PathTree(ts.spec.noise, 2)
    ctrl = input_delay_controller(ts, tree, np.array([1.0, -1.0]))
    text = controller_csv_text(ctrl)
    u, u1 = read_controller_table(text, tree, 3, m1=3, tau=1)
    assert u1 is not None
    assert sorted(u1.stages()) == sorted(ctrl.u1.stages())
    sim = forward_simulate(tree, ts.spec, np.array([1.0, -1.0]), u, u1=u1)
    assert np.abs(sim.at(3)).max() < 1e-8


@pytest.mark.parametrize(
    "mangle",
    [
        lambda lines: ["stage,path,u_0,u_1,u_2"] + lines[1:],  # bad header
        lambda lines: lines[:1] + ["0,,1.0,2.0"],  # short row
        lambda lines: lines[:1] + ["0,,1.0,2.0,oops"],  # non-numeric
        lambda lines: lines[:1] + lines[2:],  # a stage loses a history
        lambda lines: lines + [lines[-1]],  # duplicate history
        lambda lines: lines[:1],  # no data rows at all
    ],
)
def test_malformed_tables_rejected(rng, mangle):
    ts = random_controllable(np.random.default_rng(3), 2, 3, 2)
    tree = PathTree(ts.spec.noise, 2)
    ctrl = null_controller(ts, tree, np.array([1.0, 0.0]))
    lines = controller_csv_text(ctrl).strip().split("\n")
    bad = "\n".join(mangle(lines)) + "\n"
    with pytest.raises(SchemaError):
        read_controller_table(bad, tree, 3)


def test_table_history_depth_checked(rng):
    # histories longer than the stage admits violate adaptedness
    ts = random_controllable(np.random.default_rng(5), 2, 3, 1)
    tree = PathTree(ts.spec.noise, 1)
    ctrl = null_controller(ts, tree, np.array([0.5, 0.5]))
    lines = controller_csv_text(ctrl).strip().split("\n")
    lines = [lines[0]] + ["0,000,1.0,1.0,1.0"] + lines[2:]
    with pytest.raises(SchemaError):
        read_controller_table("\n".join(lines) + "\n", tree, 3)
