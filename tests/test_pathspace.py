"""Path tree, stage levels, backward solve, and attainability."""
import itertools

import numpy as np
import pytest

from stochctrl import (
    DimensionMismatch,
    EnumerationTooLarge,
    NoiseModel,
    PathTree,
    ProblemInstance,
    StageMismatch,
    TransformedSystem,
    backward_solve,
    expected_terminal_product,
    forward_simulate,
    member_of_S,
    representation_residual,
    steer_to_target,
    terminal_from_map,
    z_level,
)
from stochctrl.sampling import random_attainable_terminal, random_free_input, random_system
from stochctrl.model import check_level, path_labels
from crosschecks import cond_expect, node_value
from conftest import path_expectation, simulate_paths, uniform_noise


def test_tree_counts_and_probs():
    tree = PathTree(NoiseModel.symmetric_three_point(), 2)
    assert tree.s == 3
    assert [tree.n_nodes(k) for k in range(4)] == [1, 3, 9, 27]
    for k in range(4):
        assert abs(tree.node_probs(k).sum() - 1.0) < 1e-12


def test_tree_cap():
    with pytest.raises(EnumerationTooLarge, match=r"^2\^5 leaves exceed cap 16$") as exc:
        PathTree(NoiseModel.rademacher(), 4, cap=16)  # needs 2^5 leaves
    assert (exc.value.s, exc.value.horizon, exc.value.cap) == (2, 4, 16)


def test_label_roundtrip():
    tree = PathTree(NoiseModel.symmetric_three_point(), 2)
    labels = path_labels(tree.s, 2)
    assert labels == ["".join(map(str, h)) for h in itertools.product(range(tree.s), repeat=2)]
    check_level(labels, tree.s, 2, "level")
    assert path_labels(tree.s, 0) == [""]


@pytest.mark.parametrize("s, depth", [(2, 14), (3, 9), (10, 5)])
def test_index_label_is_path_labels_at_every_node(s, depth):
    """Depth 0 up to past the 4096-label tail table: one table, then a head and a tail."""
    tree = PathTree(uniform_noise(s), depth - 1)
    for k in range(depth + 1):
        bad = next((i for i, label in enumerate(path_labels(tree.s, k)) if tree.index_label(k, i) != label), None)
        assert bad is None, (k, bad, tree.index_label(k, bad))


def test_index_label_past_two_tail_tables():
    """A depth-7 label over ten points is a head and two 1000-label tails: decimal digits, zero-padded."""
    tree = PathTree(uniform_noise(10), 6, cap=10**7)
    for index in (0, 1, 999, 1000, 1234567, 7654321, 10**7 - 1):
        assert tree.index_label(7, index) == f"{index:07d}"


@pytest.mark.parametrize("depth, index", [(2, 4), (2, 5), (2, -1), (0, 1), (-1, 0), (4, 0)])
def test_index_label_refuses_a_node_outside_the_tree(depth, index):
    tree = PathTree(NoiseModel.rademacher(), 2)
    with pytest.raises(StageMismatch):
        tree.index_label(depth, index)


def test_cond_expect_tower(rng):
    tree = PathTree(NoiseModel.symmetric_three_point(1.5), 3)
    level = rng.normal(size=(27, 2))
    fine = cond_expect(tree, level, 3, 2)
    coarse_direct = cond_expect(tree, level, 3, 0)
    coarse_two_step = cond_expect(tree, fine, 2, 0)
    np.testing.assert_allclose(coarse_direct, coarse_two_step, atol=1e-12)
    # and the unconditional mean matches plain path enumeration
    by_paths = path_expectation(
        tree.noise, {h: node_value(tree, level, 3, h) for h in itertools.product(range(tree.s), repeat=3)}
    )
    np.testing.assert_allclose(coarse_direct[0], by_paths, atol=1e-12)


def _levels(rng, tree, stages, dim):
    """Random levels of ``stages``, stage k at depth max(0, k)."""
    return {k: rng.normal(size=(tree.n_nodes(max(0, k)), dim)) for k in stages}


@pytest.mark.parametrize(
    "change, error, message",
    [
        ({1: None}, StageMismatch, "u has no stage 1"),
        ({1: (4, 3)}, DimensionMismatch, r"u at stage 1 has shape \(4, 3\), expected \(2, 3\)"),  # finer
        ({2: (2, 3)}, DimensionMismatch, r"u at stage 2 has shape \(2, 3\), expected \(4, 3\)"),  # coarser
        ({0: (1, 2)}, DimensionMismatch, r"u at stage 0 has shape \(1, 2\), expected \(1, 3\)"),  # width
    ],
    ids=["missing", "finer", "coarser", "width"],
)
def test_forward_simulate_checks_each_stage_is_its_level(rng, bench_full, change, error, message):
    spec, expected = bench_full
    tree = PathTree(spec.noise, 2)
    u = _levels(rng, tree, range(3), 3)
    for k, shape in change.items():
        if shape is None:
            del u[k]
        else:
            u[k] = np.zeros(shape)
    with pytest.raises(error, match=f"^{message}$"):
        forward_simulate(tree, spec, expected["x0"], u)


def test_an_x0_of_another_length_is_refused(rng, bench_full):
    # by the plant's forward simulation and by every route's controller build
    spec, _ = bench_full
    tree = PathTree(spec.noise, 2)
    u = _levels(rng, tree, range(3), 3)
    for x0 in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(DimensionMismatch, match=rf"^x0 must have length 2, got \({len(x0)},\)$"):
            forward_simulate(tree, spec, x0, u)
        with pytest.raises(DimensionMismatch, match=rf"^x0 must have length 2, got \({len(x0)},\)$"):
            steer_to_target(TransformedSystem.build(spec), tree, x0, None)


def test_forward_simulate_checks_the_delayed_input(rng, bench_input_delay):
    spec, expected = bench_input_delay  # tau 1: u1 stages -1..1, stage -1 at depth 0
    tree = PathTree(spec.noise, 2)
    u = _levels(rng, tree, range(3), 3)
    with pytest.raises(StageMismatch, match="^u1 has no stage -1$"):
        forward_simulate(tree, spec, expected["x0"], u)
    u1 = _levels(rng, tree, range(-1, 2), 3)
    forward_simulate(tree, spec, expected["x0"], u, u1=u1)
    u1[-1] = np.zeros((2, 3))  # a pre-horizon stage one level finer than depth 0
    with pytest.raises(DimensionMismatch, match=r"^u1 at stage -1 has shape \(2, 3\), expected \(1, 3\)$"):
        forward_simulate(tree, spec, expected["x0"], u, u1=u1)


def test_backward_solve_checks_each_stage_of_v(rng):
    ts = TransformedSystem.build(random_system(rng, 2, 3))
    tree = PathTree(ts.spec.noise, 2)
    v = random_free_input(rng, tree, ts.form.m_free)
    del v[2]
    with pytest.raises(StageMismatch, match="^v has no stage 2$"):
        backward_solve(tree, ts.form, None, v)
    v[2] = np.zeros((2, ts.form.m_free))  # depth 1, not 2
    with pytest.raises(DimensionMismatch, match=r"^v at stage 2 has shape \(2, 1\), expected \(4, 1\)$"):
        backward_solve(tree, ts.form, None, v)


def test_terminal_from_map(bench_full):
    spec, _ = bench_full
    mapping = {"00": [1.0, 0.0], "01": [0.0, 1.0], "10": [2.0, 0.0], "11": [0.0, 2.0]}
    leaves = ProblemInstance(spec, 1, target=mapping).target
    arr = terminal_from_map(PathTree(spec.noise, 1), 2, leaves)
    assert arr.shape == (4, 2)
    np.testing.assert_array_equal(arr[2], [2.0, 0.0])  # node order: "10" is leaf 2
    with pytest.raises(DimensionMismatch, match=r"^target leaf array has shape \(4, 2\); depth 3 needs \(8, 2\)$"):
        terminal_from_map(PathTree(spec.noise, 2), 2, leaves)  # a horizon override that does not fit the target


def test_backward_solve_z_is_weighted_mean(rng):
    ts = TransformedSystem.build(random_system(rng, 2, 3))
    tree = PathTree(ts.spec.noise, 2)
    terminal = rng.normal(size=(tree.n_nodes(3), 2))
    v = random_free_input(rng, tree, ts.form.m_free)
    x = backward_solve(tree, ts.form, terminal, v)
    assert sorted(x) == [0, 1, 2, 3] and all(x[k].shape == (tree.n_nodes(k), 2) for k in x)
    for k in range(3):
        xk1 = x[k + 1].reshape(-1, tree.s, 2)
        z = z_level(tree, x[k + 1])
        np.testing.assert_allclose(z, np.einsum("j,j,hjb->hb", tree.probs, tree.support, xk1), atol=1e-12)
        # and x(k) satisfies the one-step equation it was built from
        xbar = np.einsum("j,hjb->hb", tree.probs, xk1)
        rhs = xbar @ ts.form.C.T + z @ ts.form.Cbar.T + v[k] @ ts.form.D.T
        np.testing.assert_allclose(x[k], rhs, atol=1e-12)


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
    w_last = tree.support[[h[-1] for h in itertools.product(range(tree.s), repeat=3)]]
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
    ref = simulate_paths(spec, expected["x0"], lambda k, pre: node_value(tree, u[k], k, pre), 2)
    for idx, h in enumerate(itertools.product(range(tree.s), repeat=3)):
        np.testing.assert_allclose(sim[3][idx], ref[h], atol=1e-10)


def test_forward_simulate_with_delays_matches_plain_loops(rng, bench_input_delay, bench_state_delay):
    spec_in, exp_in = bench_input_delay
    tree = PathTree(spec_in.noise, 2)
    u = random_free_input(rng, tree, 3)
    # delayed channel decided one stage early, stages -1..1
    u1 = _levels(rng, tree, range(-1, 2), 3)
    sim = forward_simulate(tree, spec_in, exp_in["x0"], u, u1=u1)
    ref = simulate_paths(
        spec_in, exp_in["x0"], lambda k, pre: node_value(tree, u[k], k, pre), 2,
        u1_fn=lambda k, pre: node_value(tree, u1[k], max(0, k), pre),
    )
    for idx, h in enumerate(itertools.product(range(tree.s), repeat=3)):
        np.testing.assert_allclose(sim[3][idx], ref[h], atol=1e-10)

    spec_st, exp_st = bench_state_delay
    sim_st = forward_simulate(tree, spec_st, exp_st["x0"], u)
    ref_st = simulate_paths(spec_st, exp_st["x0"], lambda k, pre: node_value(tree, u[k], k, pre), 2)
    for idx, h in enumerate(itertools.product(range(tree.s), repeat=3)):
        np.testing.assert_allclose(sim_st[3][idx], ref_st[h], atol=1e-10)


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
        x = backward_solve(tree, form, terminal, v)
        Y = {0: rng.normal(size=(1, 2))}
        for k in range(3):
            Yk = Y[k]
            step = np.stack([(form.C + w * form.Cbar).T for w in tree.support])
            Y[k + 1] = np.einsum("hb,jba->hja", Yk, np.transpose(step, (0, 2, 1))).reshape(-1, 2)
        for k in range(3):
            pk = tree.node_probs(k)
            pk1 = tree.node_probs(k + 1)
            lhs = np.einsum("h,hb,hb->", pk, Y[k], x[k]) - np.einsum("h,hb,hb->", pk1, Y[k + 1], x[k + 1])
            rhs = np.einsum("h,hb,hb->", pk, Y[k], v[k] @ form.D.T)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))
