"""Path tree, adapted processes, backward solve, and attainability."""
import numpy as np
import pytest

from stochctrl import (
    AdaptedProcess,
    EnumerationTooLarge,
    NoiseModel,
    PathTree,
    ProblemInstance,
    SchemaError,
    StageMismatch,
    TransformedSystem,
    backward_solve,
    cond_expect,
    expected_terminal_product,
    forward_simulate,
    member_of_S,
    random_attainable_terminal,
    random_free_input,
    random_system,
    representation_residual,
    terminal_from_map,
)
from stochctrl.model import check_level, path_labels
from conftest import path_expectation, simulate_paths


def test_tree_counts_and_probs():
    tree = PathTree(NoiseModel.symmetric_three_point(), 2)
    assert tree.s == 3
    assert [tree.n_nodes(k) for k in range(4)] == [1, 3, 9, 27]
    for k in range(4):
        assert abs(tree.node_probs(k).sum() - 1.0) < 1e-12
    assert len(list(tree.histories(2))) == 9


def test_tree_cap():
    with pytest.raises(EnumerationTooLarge):
        PathTree(NoiseModel.rademacher(), 4, cap=16)  # needs 2^5 leaves


def test_label_roundtrip():
    tree = PathTree(NoiseModel.symmetric_three_point(), 2)
    labels = path_labels(tree.s, 2)
    assert labels == ["".join(map(str, h)) for h in tree.histories(2)]
    assert labels == [tree.index_label(2, idx) for idx in range(tree.n_nodes(2))]
    check_level(labels, tree.s, 2, "level")
    assert path_labels(tree.s, 0) == [""]


def test_lift_repeats_per_child(rng):
    tree = PathTree(NoiseModel.rademacher(), 3)
    vals = rng.normal(size=(2, 2))  # depth 1
    lifted = tree.lift(vals, 1, 3)
    assert lifted.shape == (8, 2)
    for idx, h in enumerate(tree.histories(3)):
        np.testing.assert_array_equal(lifted[idx], vals[h[0]])


def test_cond_expect_tower(rng):
    tree = PathTree(NoiseModel.symmetric_three_point(1.5), 3)
    proc = AdaptedProcess(tree, {3: rng.normal(size=(27, 2))}, {3: 3})
    fine = cond_expect(proc, 3, 2)
    coarse_direct = cond_expect(proc, 3, 0)
    step = AdaptedProcess(tree, {3: fine}, {3: 2})
    coarse_two_step = cond_expect(step, 3, 0)
    np.testing.assert_allclose(coarse_direct, coarse_two_step, atol=1e-12)
    # and the unconditional mean matches plain path enumeration
    by_paths = path_expectation(
        tree.noise, {h: proc.value(3, h) for h in tree.histories(3)}
    )
    np.testing.assert_allclose(coarse_direct[0], by_paths, atol=1e-12)


def test_adapted_process_guards(rng):
    tree = PathTree(NoiseModel.rademacher(), 2)
    proc = AdaptedProcess(tree, {0: rng.normal(size=(1, 2))}, {0: 0})
    with pytest.raises(StageMismatch):
        proc.at(1)
    from stochctrl import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        AdaptedProcess(tree, {0: rng.normal(size=(3, 2))}, {0: 0})  # wrong node count


def test_terminal_from_map(bench_full):
    spec, _ = bench_full
    mapping = {"00": [1.0, 0.0], "01": [0.0, 1.0], "10": [2.0, 0.0], "11": [0.0, 2.0]}
    leaves = ProblemInstance(spec, 1, target=mapping).target
    arr = terminal_from_map(PathTree(spec.noise, 1), 2, leaves)
    assert arr.shape == (4, 2)
    np.testing.assert_array_equal(arr[2], [2.0, 0.0])  # node order: "10" is leaf 2
    with pytest.raises(SchemaError):  # a horizon override that does not fit the target
        terminal_from_map(PathTree(spec.noise, 2), 2, leaves)


def test_backward_solve_z_is_weighted_mean(rng):
    ts = TransformedSystem.build(random_system(rng, 2, 3))
    tree = PathTree(ts.spec.noise, 2)
    terminal = rng.normal(size=(tree.n_nodes(3), 2))
    v = random_free_input(rng, tree, ts.form.m_free)
    sol = backward_solve(tree, ts.form, terminal, v)
    for k in range(3):
        xk1 = sol.x.at(k + 1).reshape(-1, tree.s, 2)
        z_manual = np.einsum("j,j,hjb->hb", tree.probs, tree.support, xk1)
        np.testing.assert_allclose(sol.z.at(k), z_manual, atol=1e-12)
        # and x(k) satisfies the one-step equation it was built from
        xbar = np.einsum("j,hjb->hb", tree.probs, xk1)
        rhs = xbar @ ts.form.C.T + sol.z.at(k) @ ts.form.Cbar.T + v.at_depth(k, k) @ ts.form.D.T
        np.testing.assert_allclose(sol.x.at(k), rhs, atol=1e-12)


def test_two_point_noise_accepts_everything(rng):
    # With two atoms the conditional system for (mean, z) is square.
    ts = TransformedSystem.build(random_system(rng, 2, 3))
    tree = PathTree(ts.spec.noise, 2)
    for _ in range(5):
        terminal = rng.normal(size=(tree.n_nodes(3), 2))
        m = member_of_S(tree, ts.form, terminal)
        assert m.member and m.max_residual < 1e-10


def test_three_point_membership_accept_and_reject(rng):
    noise = NoiseModel.symmetric_three_point()
    ts = TransformedSystem.build(random_system(rng, 2, 3, noise=noise))
    tree = PathTree(noise, 2)
    good = random_attainable_terminal(rng, tree, ts.form)
    m_good = member_of_S(tree, ts.form, good)
    assert m_good.member
    # quadratic dependence on the last digit cannot be represented
    w_last = tree.support[[h[-1] for h in tree.histories(3)]]
    bad = (w_last**2)[:, None] * rng.normal(size=2)[None, :]
    m_bad = member_of_S(tree, ts.form, bad)
    assert not m_bad.member and m_bad.max_residual > 1e-3


def test_membership_x0_matches_product_formula(rng):
    ts = TransformedSystem.build(random_system(rng, 2, 3))
    tree = PathTree(ts.spec.noise, 2)
    terminal = random_attainable_terminal(rng, tree, ts.form)
    m = member_of_S(tree, ts.form, terminal)
    direct = expected_terminal_product(tree, ts.form, terminal)
    np.testing.assert_allclose(m.x0, direct, atol=1e-9)


def test_forward_simulate_matches_plain_loops(rng, bench_full):
    spec, expected = bench_full
    tree = PathTree(spec.noise, 2)
    u = random_free_input(rng, tree, 3)
    sim = forward_simulate(tree, spec, expected["x0"], u)
    ref = simulate_paths(spec, expected["x0"], lambda k, pre: u.value(k, pre), 2)
    for idx, h in enumerate(tree.histories(3)):
        np.testing.assert_allclose(sim.at(3)[idx], ref[h], atol=1e-10)


def test_forward_simulate_with_delays_matches_plain_loops(rng, bench_input_delay, bench_state_delay):
    spec_in, exp_in = bench_input_delay
    tree = PathTree(spec_in.noise, 2)
    u = random_free_input(rng, tree, 3)
    # delayed channel decided one stage early, stages -1..1
    u1_vals = {k: rng.normal(size=(tree.n_nodes(max(0, k)), 3)) for k in range(-1, 2)}
    u1 = AdaptedProcess(tree, u1_vals, {k: max(0, k) for k in u1_vals})
    sim = forward_simulate(tree, spec_in, exp_in["x0"], u, u1=u1)
    ref = simulate_paths(
        spec_in, exp_in["x0"], lambda k, pre: u.value(k, pre), 2,
        u1_fn=lambda k, pre: u1.value(k, pre),
    )
    for idx, h in enumerate(tree.histories(3)):
        np.testing.assert_allclose(sim.at(3)[idx], ref[h], atol=1e-10)

    spec_st, exp_st = bench_state_delay
    sim_st = forward_simulate(tree, spec_st, exp_st["x0"], u)
    ref_st = simulate_paths(spec_st, exp_st["x0"], lambda k, pre: u.value(k, pre), 2)
    for idx, h in enumerate(tree.histories(3)):
        np.testing.assert_allclose(sim_st.at(3)[idx], ref_st[h], atol=1e-10)


def test_duality_pairing(rng):
    # Adjoint propagation Y(k+1) = (C + w(k) Cbar)' Y(k) against any
    # backward solution x: the expected pairing decrement at stage k
    # equals the expected work of the free input at that stage.
    for _ in range(5):
        ts = TransformedSystem.build(random_system(rng, 2, 3))
        form = ts.form
        tree = PathTree(ts.spec.noise, 2)
        terminal = rng.normal(size=(tree.n_nodes(3), 2))
        v = random_free_input(rng, tree, form.m_free)
        sol = backward_solve(tree, form, terminal, v)
        Y = {0: rng.normal(size=(1, 2))}
        for k in range(3):
            Yk = Y[k]
            step = np.stack([(form.C + w * form.Cbar).T for w in tree.support])
            Y[k + 1] = np.einsum("hb,jba->hja", Yk, np.transpose(step, (0, 2, 1))).reshape(-1, 2)
        for k in range(3):
            pk = tree.node_probs(k)
            pk1 = tree.node_probs(k + 1)
            lhs = np.einsum("h,hb,hb->", pk, Y[k], sol.x.at(k)) - np.einsum(
                "h,hb,hb->", pk1, Y[k + 1], sol.x.at(k + 1)
            )
            rhs = np.einsum("h,hb,hb->", pk, Y[k], v.at_depth(k, k) @ form.D.T)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))
