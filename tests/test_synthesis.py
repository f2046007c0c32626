"""Controller construction, closed-loop checks, and the table format."""
import io
import itertools

import numpy as np
import pytest

from stochctrl import (
    NoiseModel,
    PathTree,
    SchemaError,
    SingularGramian,
    TargetNotInS,
    TransformedSystem,
    folded_loop,
    forward_simulate,
    null_controller,
    read_controller_table,
    steer_to_target,
)
from stochctrl.sampling import random_attainable_terminal, random_controllable, random_free_input, random_x0
from stochctrl.criteria import _pinv, gramian_invertible
from conftest import table_text
from crosschecks import controller_levels, q_expanded, split_u


def closed_loop_gap(ts, tree, x0, ctrl, target=None):
    u, _, u1 = controller_levels(ctrl)
    sim = forward_simulate(tree, ts.spec, x0, u, u1=u1)
    xN1 = sim[tree.horizon + 1]
    return np.abs(xN1 - (0.0 if target is None else target)).max()


def test_null_controller_benchmark(bench_full_ts, bench_full):
    _, expected = bench_full
    tree = PathTree(bench_full_ts.spec.noise, 2)
    ctrl = null_controller(bench_full_ts, tree, expected["x0"])
    assert np.abs(controller_levels(ctrl)[1][0][0] - expected["x0"]).max() < 1e-10
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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pinv_of_a_stack_is_each_matrix_pinv_bit_for_bit(n):
    # S(0..N), N = 17, with a singular S(j) and, for n >= 2, one whose smallest singular value lies
    # between n eps sigma_max, the cut, and (N + 1) eps sigma_max, the cut of an rtol read from the stack length.
    eps, N = np.finfo(float).eps, 17
    rng = np.random.default_rng([n, 32])

    def symmetric(svals):
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        return Q @ np.diag(svals) @ Q.T

    stack = np.array([symmetric(rng.uniform(0.5, 2.0, size=n)) for _ in range(N + 1)])
    stack[3] = symmetric([1.0] * (n - 1) + [0.0])
    if n > 1:
        stack[11] = symmetric([1.0] * (n - 1) + [10 * eps])
        svals = np.linalg.svd(stack[11], compute_uv=False)
        assert n * eps * svals[0] < svals[-1] < (N + 1) * eps * svals[0]
    want = np.array([np.linalg.pinv(S, rtol=n * eps) for S in stack])
    assert _pinv(stack).tobytes() == want.tobytes()
    assert all(_pinv(S).tobytes() == W.tobytes() for S, W in zip(stack, want))
    if n > 1:
        assert not np.array_equal(np.linalg.pinv(stack, rtol=(N + 1) * eps)[11], want[11])


def test_pinv_zeros_exactly_the_directions_gramian_invertible_calls_singular():
    # Diagonal S(j) have exact singular values. sigma_min sits just above and just below the cut
    # n eps sigma_max (exact too: n = 3, sigma_max = 4), so a pseudo-inverse cut by any other rule
    # keeps or drops a direction gramian_invertible does not.
    cut = 3 * np.finfo(float).eps * 4.0
    S = np.stack([np.diag([4.0, 0.5, cut * (1 + 2.0**-20)]), np.diag([4.0, 0.5, cut * (1 - 2.0**-20)])])
    P = _pinv(S)
    for j, want in enumerate([True, False]):
        assert gramian_invertible(S[j])[0] == want
        kept = np.diag(P[j]) != 0
        assert kept.tolist() == [True, True, want]
        np.testing.assert_array_equal(P[j] - np.diag(np.diag(P[j])), 0.0)


@pytest.mark.xfail(strict=True, reason="the gains lose cond(S(j)) eps: cond S(1) = 6.5e7 here (ROADMAP item 7)")
def test_an_ill_conditioned_intermediate_gramian_still_steers_to_the_origin():
    # random_controllable screens only G_5 (cond 6); S(1)^+ loses about cond(S(1)) eps, and the loop ends
    # 4.646e-9 from the origin. A square-root Gramian is expected to bring it under 1e-12.
    ts = random_controllable(np.random.default_rng(2036), 3, 4, 5)
    tree, x0 = PathTree(ts.spec.noise, 5), np.ones(3)
    ctrl = steer_to_target(ts, tree, x0, None)
    assert max(float(np.abs(final).max()) for _, final in folded_loop(tree, ts.spec, x0, ctrl.law)) <= 1e-12


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
    w_last = tree.support[[h[-1] for h in itertools.product(range(tree.s), repeat=3)]]
    bad = (w_last**2)[:, None] * np.array([1.0, 0.5])[None, :]
    with pytest.raises(TargetNotInS):
        steer_to_target(ts, tree, random_x0(rng, 2), bad)


def test_singular_gramian_refused(bench_uncontrollable):
    ts = TransformedSystem.build(bench_uncontrollable)
    tree = PathTree(ts.spec.noise, 3)
    with pytest.raises(SingularGramian, match=r"^Gramian at N = 3 has min singular value ") as exc:
        null_controller(ts, tree, np.array([1.0, 1.0]))
    assert exc.value.N == 3


def test_q_expanded_cross_check(rng):
    # Two routes to the absorbed input must agree: the feedback's q vs the
    # expanded tail sum under the feedback's v, both split from u = M [q; v].
    ts = random_controllable(rng, 2, 3, 2)
    tree = PathTree(ts.spec.noise, 2)
    ctrl = null_controller(ts, tree, random_x0(rng, 2))
    u = controller_levels(ctrl)[0]
    q, v = zip(*(split_u(ts, u[k]) for k in range(3)))
    alt = q_expanded(ts, tree, dict(enumerate(v)))
    for k in range(3):
        np.testing.assert_allclose(q[k], alt[k], atol=1e-10)


def test_csv_roundtrip_exact(rng, tmp_path):
    ts = random_controllable(rng, 2, 3, 2)
    tree = PathTree(ts.spec.noise, 2)
    ctrl = null_controller(ts, tree, random_x0(rng, 2))
    path = tmp_path / "ctrl.csv"
    from stochctrl import write_controller_csv

    write_controller_csv(path, ctrl)
    u, u1 = read_controller_table(path, tree, ts.spec)
    assert u1 is None
    ctrl_u = controller_levels(ctrl)[0]
    assert sorted(u) == sorted(ctrl_u) == [0, 1, 2]
    for k in range(3):
        np.testing.assert_array_equal(u[k], ctrl_u[k])
    # %.17g reproduces doubles exactly, so a rewrite is byte-identical
    text = path.read_text()
    assert text == table_text(ctrl)


def test_csv_roundtrip_with_delay_channel(rng):
    from stochctrl import input_delay_controller
    from stochctrl.sampling import random_system

    ts = TransformedSystem.build(random_system(rng, 2, 3, tau=1))
    tree = PathTree(ts.spec.noise, 2)
    ctrl = input_delay_controller(ts, tree, np.array([1.0, -1.0]))
    u, u1 = read_controller_table(io.StringIO(table_text(ctrl)), tree, ts.spec)
    assert u1 is not None
    assert sorted(u1) == sorted(controller_levels(ctrl)[2])
    sim = forward_simulate(tree, ts.spec, np.array([1.0, -1.0]), u, u1=u1)
    assert np.abs(sim[3]).max() < 1e-8


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
    lines = table_text(ctrl).strip().split("\n")
    bad = "\n".join(mangle(lines)) + "\n"
    with pytest.raises(SchemaError):
        read_controller_table(io.StringIO(bad), tree, ts.spec)


def test_table_history_depth_checked(rng):
    # histories longer than the stage admits violate adaptedness
    ts = random_controllable(np.random.default_rng(5), 2, 3, 1)
    tree = PathTree(ts.spec.noise, 1)
    ctrl = null_controller(ts, tree, np.array([0.5, 0.5]))
    lines = table_text(ctrl).strip().split("\n")
    lines = [lines[0]] + ["0,000,1.0,1.0,1.0"] + lines[2:]
    with pytest.raises(SchemaError):
        read_controller_table(io.StringIO("\n".join(lines) + "\n"), tree, ts.spec)
