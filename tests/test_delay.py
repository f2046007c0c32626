"""Lagged input and lagged state: Gramians, P sequence, controllers."""
import itertools

import numpy as np
import pytest

from stochctrl import (
    NoiseModel,
    PathTree,
    ProblemInstance,
    SchemaError,
    SingularPBracket,
    SystemSpec,
    TransformedSystem,
    backward_solve_state_delay,
    forward_simulate,
    gramian,
    gramian_invertible,
    input_delay_controller,
    input_delay_decide,
    input_delay_gramian_oracle,
    member_of_S_state_delay,
    random_attainable_terminal,
    random_controllable,
    random_free_input,
    random_system,
    random_x0,
    serialize_instance,
    state_delay_P,
    state_delay_controller,
    state_delay_decide,
    state_delay_gramian_oracle,
)
from stochctrl.cli import main
from stochctrl.transform import BsdeForm
from crosschecks import controller_levels, lift


def test_input_delay_benchmark_gramian(bench_input_delay):
    spec, expected = bench_input_delay
    ts = TransformedSystem.build(spec)
    G = gramian(ts.form, 2)
    np.testing.assert_allclose(G, expected["G2"], atol=1e-12)
    assert np.linalg.matrix_rank(G) == 2


def test_input_delay_decide_benchmark(bench_input_delay):
    spec, _ = bench_input_delay
    report = input_delay_decide(spec, N_max=2)
    assert report.kind == "input-delay"
    assert report.controllable and report.witness_N == 0
    assert report.rank_R is None and report.criteria_agree is None


def test_input_delay_gramian_matches_enumeration(rng):
    for noise in (NoiseModel.rademacher(), NoiseModel.symmetric_three_point()):
        for _ in range(4):
            n = int(rng.integers(1, 3))
            tau = int(rng.integers(1, 3))
            ts = TransformedSystem.build(random_system(rng, n, n + 1, noise=noise, tau=tau))
            N = int(rng.integers(0, 4))
            G = gramian(ts.form, N)
            Go = input_delay_gramian_oracle(ts.form, N, noise)
            assert np.linalg.norm(G - Go) < 1e-9


def test_zero_delayed_channel_collapses(rng):
    # B1 = 0 must reproduce the undelayed Gramian exactly
    spec = random_system(rng, 2, 3, tau=2)
    spec = SystemSpec(
        A=spec.A, B=spec.B, Abar=spec.Abar, Bbar=spec.Bbar,
        B1=np.zeros((2, 3)), tau=2,
    )
    ts = TransformedSystem.build(spec)
    for N in range(4):
        np.testing.assert_allclose(
            gramian(ts.form, N), gramian(BsdeForm(ts.form.C, ts.form.Cbar, ts.form.D), N), atol=1e-12
        )


def test_delay_longer_than_horizon(rng):
    # every delayed summand stays in its deterministic regime
    ts = TransformedSystem.build(random_system(rng, 2, 3, tau=4))
    G = gramian(ts.form, 2)
    Go = input_delay_gramian_oracle(ts.form, 2, ts.spec.noise)
    assert np.linalg.norm(G - Go) < 1e-12


def test_input_delay_controller_benchmark(bench_input_delay):
    spec, expected = bench_input_delay
    ts = TransformedSystem.build(spec)
    tree = PathTree(spec.noise, 2)
    ctrl = input_delay_controller(ts, tree, expected["x0"])
    u, _, u1 = controller_levels(ctrl)
    sim = forward_simulate(tree, spec, expected["x0"], u, u1=u1)
    assert np.abs(sim[3]).max() < 1e-8
    # pre-horizon decisions are part of the controller
    assert min(u1) == -1


def test_input_delay_steer_to_target(rng):
    from stochctrl import random_attainable_terminal

    spec = random_system(rng, 2, 3, tau=1)
    ts = TransformedSystem.build(spec)
    tree = PathTree(spec.noise, 3)
    x0 = np.array([1.0, 2.0])
    target = random_attainable_terminal(rng, tree, ts.form, scale=0.5)
    ctrl = input_delay_controller(ts, tree, x0, target=target)
    u, _, u1 = controller_levels(ctrl)
    sim = forward_simulate(tree, spec, x0, u, u1=u1)
    assert np.abs(sim[4] - target).max() < 1e-8


def test_state_delay_P_benchmark(bench_state_delay):
    spec, expected = bench_state_delay
    ts = TransformedSystem.build(spec)
    pseq = state_delay_P(ts.form, 2)
    np.testing.assert_allclose(pseq[2], np.eye(2), atol=1e-12)
    np.testing.assert_allclose(pseq[1], expected["P1"], atol=1e-9)
    np.testing.assert_allclose(pseq[0], expected["P0"], atol=1e-9)


def test_state_delay_benchmark_gramian(bench_state_delay):
    spec, expected = bench_state_delay
    ts = TransformedSystem.build(spec)
    G = gramian(ts.form, 2)
    np.testing.assert_allclose(G, expected["G2"], atol=1e-9)
    assert np.linalg.matrix_rank(G) == 2


def test_state_delay_gramian_matches_enumeration(rng):
    for _ in range(6):
        n = int(rng.integers(1, 3))
        ts = TransformedSystem.build(random_system(rng, n, n + 1, d=1))
        N = int(rng.integers(0, 4))
        G = gramian(ts.form, N)
        Go = state_delay_gramian_oracle(ts.form, N, ts.spec.noise)
        assert np.linalg.norm(G - Go) < 1e-9


def test_zero_delayed_state_collapses(rng):
    spec = random_system(rng, 2, 3, d=1)
    spec = SystemSpec(
        A=spec.A, B=spec.B, Abar=spec.Abar, Bbar=spec.Bbar,
        A1=np.zeros((2, 2)), d=1,
    )
    ts = TransformedSystem.build(spec)
    pseq = state_delay_P(ts.form, 3)
    for k in range(4):
        np.testing.assert_allclose(pseq[k], np.eye(2), atol=1e-12)
    for N in range(4):
        np.testing.assert_allclose(
            gramian(ts.form, N), gramian(BsdeForm(ts.form.C, ts.form.Cbar, ts.form.D), N), atol=1e-12
        )


def test_state_delay_longer_than_horizon(rng):
    # the lagged term never activates inside the window
    spec = random_system(rng, 2, 3, d=4)
    ts = TransformedSystem.build(spec)
    np.testing.assert_allclose(
        gramian(ts.form, 2), gramian(BsdeForm(ts.form.C, ts.form.Cbar, ts.form.D), 2), atol=1e-12
    )


def test_singular_bracket_reported():
    # C = I and C1 = I make the first bracket exactly zero
    form = BsdeForm(
        C=np.eye(2),
        Cbar=np.zeros((2, 2)),
        D=np.array([[1.0], [0.0]]),
        C1=np.eye(2),
        d=1,
    )
    with pytest.raises(SingularPBracket) as info:
        state_delay_P(form, 2)
    assert info.value.k == 1


@pytest.mark.parametrize(
    "C1", [np.eye(2), np.diag([1.0 - 1e-14, 0.5])], ids=["singular", "near-singular"]
)
def test_solve_and_membership_report_the_bracket_stage(C1):
    # the coupled solve's pivots are the brackets, so it fails at the
    # same stage as the P-sequence, near-singular brackets included
    form = BsdeForm(C=np.eye(2), Cbar=np.zeros((2, 2)), D=np.array([[1.0], [0.0]]), C1=C1, d=1)
    tree = PathTree(NoiseModel.rademacher(), 2)
    v = random_free_input(np.random.default_rng(0), tree, 1)
    with pytest.raises(SingularPBracket) as info:
        backward_solve_state_delay(tree, form, np.ones(2), v)
    assert info.value.k == 1
    with pytest.raises(SingularPBracket) as info:
        member_of_S_state_delay(tree, form, np.ones(2))
    assert info.value.k == 1


def test_state_delay_decide_benchmark(bench_state_delay):
    spec, _ = bench_state_delay
    report = state_delay_decide(spec, N_max=2)
    assert report.kind == "state-delay"
    assert report.controllable and report.witness_N == 1
    assert abs(report.min_singular[2] - 0.063550705672848526) < 1e-9


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "noise", [NoiseModel.rademacher(), NoiseModel.symmetric_three_point()], ids=["two-point", "three-point"]
)
def test_state_delay_scan_equals_each_horizon_built_alone(noise, n, d):
    # The scan pivots one sequence by the P-sequence of N_max; each horizon's
    # own P-sequence is that one's tail, so the figures match bit for bit.
    spec = random_system(np.random.default_rng(10 * n + d), n, n + 1, d=d, noise=noise)
    ts = TransformedSystem.build(spec)
    report = state_delay_decide(ts, N_max=12)
    for N in range(13):
        assert report.min_singular[N] == gramian_invertible(gramian(ts.form, N))[1], N


def test_state_delay_scan_raises_on_a_singular_bracket():
    # A = I, Abar = 0 and A1 = -I give C = C1 = I: every bracket I - C C1 is zero.
    spec = SystemSpec(
        A=np.eye(2),
        B=np.array([[0.5, 0.0, 1.0], [0.0, 0.5, 0.0]]),
        Abar=np.zeros((2, 2)),
        Bbar=np.hstack([np.eye(2), np.zeros((2, 1))]),
        noise=NoiseModel.rademacher(),
        A1=-np.eye(2),
        d=1,
    )
    assert len(state_delay_decide(spec, N_max=0).min_singular) == 1  # no bracket inside N = 0
    with pytest.raises(SingularPBracket):
        state_delay_decide(spec, N_max=12)


def test_state_delay_controller_benchmark(bench_state_delay):
    spec, expected = bench_state_delay
    ts = TransformedSystem.build(spec)
    tree = PathTree(spec.noise, 2)
    ctrl = state_delay_controller(ts, tree, expected["x0"])
    sim = forward_simulate(tree, spec, expected["x0"], controller_levels(ctrl)[0])
    assert np.abs(sim[3]).max() < 1e-8


def delayed_attainable_terminal(rng, tree, form, d, scale=1.0):
    """Forward-run the lagged homogeneous equation; in the attainable
    set by construction. Pre-horizon states are zero, mirroring the
    plant's convention."""
    n = form.n
    Cinv = np.linalg.inv(form.C)
    xs = {0: scale * rng.normal(size=(1, n))}
    for k in range(tree.horizon + 1):
        z = scale * rng.normal(size=(tree.n_nodes(k), n))
        lag = xs[k - d] if k - d >= 0 else np.zeros((1, n))
        lag = lift(tree, lag, max(0, k - d), k)
        a = (xs[k] - z @ form.Cbar.T - lag @ form.C1.T) @ Cinv.T
        xs[k + 1] = (a[:, None, :] + tree.support[None, :, None] * z[:, None, :]).reshape(-1, n)
    return xs[tree.horizon + 1]


def test_state_delay_membership_three_point(rng):
    noise = NoiseModel.symmetric_three_point()
    spec = random_system(rng, 2, 3, d=1, noise=noise)
    ts = TransformedSystem.build(spec)
    tree = PathTree(noise, 2)
    good = delayed_attainable_terminal(rng, tree, ts.form, 1, scale=0.5)
    assert member_of_S_state_delay(tree, ts.form, good).member
    w_last = tree.support[[h[-1] for h in itertools.product(range(tree.s), repeat=3)]]
    bad = (w_last**2)[:, None] * np.array([0.4, -0.2])[None, :]
    assert not member_of_S_state_delay(tree, ts.form, bad).member


@pytest.mark.parametrize("d", [1, 2])
def test_sampling_draws_attainable_state_delay_targets(tmp_path, capsys, d):
    # Under three-point noise a terminal run forward without C1 x(k - d) is not attainable on a
    # state-delay form, and synthesize rejects it (exit 4).
    noise = NoiseModel.symmetric_three_point()
    for seed in range(5):
        rng = np.random.default_rng([seed, 7, d])
        ts = random_controllable(rng, 3, 4, 6, noise=noise, d=d)
        tree = PathTree(noise, 6)
        x0 = random_x0(rng, 3)
        goal = random_attainable_terminal(rng, tree, ts.form)
        assert member_of_S_state_delay(tree, ts.form, goal).member, seed
        path = tmp_path / "instance.json"
        path.write_text(serialize_instance(ProblemInstance(ts.spec, 6, x0=x0, target=goal)))
        assert main(["synthesize", "--instance", str(path), "--out", str(tmp_path / "law.json")]) == 0, seed
        capsys.readouterr()


def test_state_delay_steer_to_target(rng):
    spec = random_system(rng, 2, 3, d=1)
    ts = TransformedSystem.build(spec)
    tree = PathTree(spec.noise, 3)
    x0 = np.array([-1.0, 0.5])
    target = delayed_attainable_terminal(rng, tree, ts.form, 1, scale=0.5)
    ctrl = state_delay_controller(ts, tree, x0, target=target)
    sim = forward_simulate(tree, spec, x0, controller_levels(ctrl)[0])
    assert np.abs(sim[4] - target).max() < 1e-8


def test_no_public_function_takes_a_lag():
    # The form (and the spec) carry each delay channel's lag; nothing takes it again.
    import inspect

    import stochctrl

    lag_names = {"tau", "d", "delayed", "pivots", "m1"}
    # random_system draws a spec, so it sets the lag the spec then carries.
    functions = [
        (name, obj) for name, obj in vars(stochctrl).items()
        if inspect.isfunction(obj) and not name.startswith("_") and name != "random_system"
    ]
    assert len(functions) > 30
    for name, fn in functions:
        assert not lag_names & set(inspect.signature(fn).parameters), name


def test_bsde_form_pairs_each_channel_with_its_lag():
    C, Cbar, D = np.eye(2), np.zeros((2, 2)), np.ones((2, 1))
    for bad in (
        {"D1": np.ones((2, 1))},
        {"C1": np.eye(2)},
        {"tau": 1},
        {"d": 1},
        {"D1": np.ones((2, 1)), "tau": 0},
        {"C1": np.eye(2), "d": 0},
        {"C1": np.eye(2), "d": -2},
    ):
        with pytest.raises(SchemaError):
            BsdeForm(C, Cbar, D, **bad)
    form = BsdeForm(C, Cbar, D, D1=np.ones((2, 1)), tau=2)
    assert (form.tau, form.d) == (2, None)


@pytest.mark.parametrize("lag", [1, 2])
@pytest.mark.parametrize("channel", ["tau", "d"])
@pytest.mark.parametrize(
    "noise", [NoiseModel.rademacher(), NoiseModel.symmetric_three_point()], ids=["two-point", "three-point"]
)
def test_decide_on_a_delayed_system_decides_that_system(noise, channel, lag):
    from stochctrl import decide

    spec = random_system(np.random.default_rng(lag), 2, 3, noise=noise, **{channel: lag})
    by_route = (input_delay_decide if channel == "tau" else state_delay_decide)(spec, N_max=6)
    report = decide(spec, N_max=6)
    assert report.min_singular == by_route.min_singular
    assert report.kind == by_route.kind
