"""The membership test reads its target once and decides as the residual's first form did.

:func:`representation_residual` multiplies each block of x(k+1), a row of
s children per parent, by kron(Pi', I_n), Pi = I - 1 p' - w (p w)' the
projection off span{1, w}. Against the exact residual
(``crosschecks.exact_representation_residual``) it errs by at most

    (s + 3) eps max_{h, j, a} sum_i |Pi|_ji |x_{h i a}|,   |Pi| = I + 1 p' + |w| (p |w|)'

per stage: Pi's entries round at most three times (gamma_3 |Pi|), and
each residual entry is a sum of s products with them (gamma_s), where
gamma_m = m u / (1 - m u), u = eps / 2 and the products with kron's exact
0s add nothing. Its verdicts match the first form's
(``crosschecks.kron_representation_residual``) on every steerable route.
On two-point noise Pi = 0, and the residual is 0.0 with no matmul.
:func:`member_of_S` reads its bound off the solve's own x(N+1), which is
the target itself when that is read-only, and its peak memory stays
within the solve's x levels plus one block-sized array: no z level is
built. Steering to a path target builds z block by block where the
offsets read it, so its peak stays within the x levels, the per-node
offsets and two blocks.
"""
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from stochctrl import (
    DimensionMismatch,
    NoiseModel,
    PathTree,
    backward_solve,
    member_of_S,
    representation_residual,
    steer_to_target,
    terminal_from_map,
)
from stochctrl.pathspace import BLOCK_ENTRIES
from stochctrl.sampling import random_attainable_terminal, random_transformed, random_x0
from crosschecks import exact_representation_residual, kron_representation_residual
from test_delay import delayed_attainable_terminal

LAWS = {"two-point": NoiseModel.rademacher(), "three-point": NoiseModel.symmetric_three_point()}
# s = 2, 3 and 4; the four-point law has mean 0 and variance 8(0.1) + 0.5(0.4) = 1.
REFEREE_LAWS = {**LAWS, "four-point": NoiseModel((-2.0, -0.5, 0.5, 2.0), (0.1, 0.4, 0.4, 0.1))}
LAGS = [{}, {"tau": 1}, {"tau": 2}, {"d": 1}, {"d": 2}]
EPS = np.finfo(float).eps


def attainable(rng, tree, form, lag):
    if "d" in lag:
        return delayed_attainable_terminal(rng, tree, form, lag["d"])
    return random_attainable_terminal(rng, tree, form)


def projection_bound(tree, x) -> dict[int, float]:
    """(s + 3) eps max sum_i |Pi|_ji |x_i| per stage: the residual's rounding bound (module docstring)."""
    s, p, w = tree.s, tree.probs, np.abs(tree.support)
    weight = np.eye(s) + p + np.outer(w, p * w)  # |Pi|
    bound = {}
    for k in range(tree.horizon + 1):
        children = np.abs(x[k + 1]).reshape(-1, s, x[k + 1].shape[1])  # |x_i| of each parent's children
        bound[k] = (s + 3) * EPS * float((weight @ children).max(initial=0.0))
    return bound


def assert_within_the_exact_bound(tree, x, context):
    residual, exact = representation_residual(tree, x), exact_representation_residual(tree, x)
    bound = projection_bound(tree, x)
    for k in residual:
        assert abs(Fraction(residual[k]) - exact[k]) <= Fraction(bound[k]), (context, k)


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("lag", LAGS, ids=str)
def test_residual_verdict_matches_the_kron_form(law, lag):
    rng = np.random.default_rng(21)
    noise = LAWS[law]
    for N in range(7):
        form = random_transformed(rng, 2, 3, noise=noise, **lag).form
        tree = PathTree(noise, N)
        for terminal in (attainable(rng, tree, form, lag), rng.normal(size=(tree.n_nodes(N + 1), form.n))):
            result = member_of_S(tree, form, terminal, tol=1e-8)
            kron = kron_representation_residual(tree, result.solution)
            assert result.member == (max(kron.values()) <= result.bound), (N, lag)
            assert_within_the_exact_bound(tree, result.solution, (N, lag))


@pytest.mark.parametrize("law", sorted(REFEREE_LAWS))
@pytest.mark.parametrize("lag", LAGS, ids=str)
def test_residual_is_within_the_projection_bound_of_the_exact_residual(law, lag):
    rng = np.random.default_rng(22)
    noise = REFEREE_LAWS[law]
    for N in range(4):
        form = random_transformed(rng, 2, 3, noise=noise, **lag).form
        tree = PathTree(noise, N)
        leaves = tree.n_nodes(N + 1)
        scaled = rng.normal(size=(leaves, form.n)) * 10.0 ** rng.uniform(-3, 3, size=(leaves, 1))  # six decades
        for terminal in (attainable(rng, tree, form, lag), scaled):
            assert_within_the_exact_bound(tree, backward_solve(tree, form, terminal), (N, lag))


@pytest.mark.parametrize("law", sorted(LAWS))
def test_residual_makes_one_matmul_per_block_and_none_on_two_point_noise(law, monkeypatch):
    rng = np.random.default_rng(23)
    noise = LAWS[law]
    tree = PathTree(noise, 6)
    form = random_transformed(rng, 2, 3, noise=noise).form
    result = member_of_S(tree, form, rng.normal(size=(tree.n_nodes(7), form.n)))
    calls, matmul = [], np.matmul

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    residual = representation_residual(tree, result.solution)
    if tree.s == 2:
        assert calls == [] and residual == dict.fromkeys(range(7), 0.0)
        assert result.member and result.max_residual == 0.0 and result.stage == 0
    else:  # one matmul per block of parents; these levels fit one block each
        assert calls == [(tree.n_nodes(k), tree.s * form.n) for k in range(7)]
        assert not result.member and min(residual.values()) > 0.0


def test_terminal_forms_share_one_conversion():
    tree = PathTree(NoiseModel.symmetric_three_point(), 1)
    origin, constant = terminal_from_map(tree, 2, None), terminal_from_map(tree, 2, [1.0, -2.0])
    for view, row in ((origin, [0.0, 0.0]), (constant, [1.0, -2.0])):
        assert view.shape == (9, 2) and not view.flags.writeable
        np.testing.assert_array_equal(view, np.tile(row, (9, 1)))
    with pytest.raises(DimensionMismatch, match=r"^target leaf array has shape \(3,\); depth 2 needs \(9, 2\)$"):
        terminal_from_map(tree, 2, np.ones(3))


def test_membership_bound_reads_the_solves_copy(rng):
    noise = NoiseModel.symmetric_three_point()
    form = random_transformed(rng, 2, 3, noise=noise).form
    tree = PathTree(noise, 2)
    terminal = random_attainable_terminal(rng, tree, form)
    frozen = terminal.copy()
    frozen.setflags(write=False)
    for leaves, shared in ((terminal, False), (frozen, True)):  # writable leaf rows are copied, read-only shared
        result = member_of_S(tree, form, leaves, tol=1e-8)
        x_final = result.solution[3]
        assert np.array_equal(x_final, terminal) and np.shares_memory(x_final, leaves) == shared
        assert result.bound == 1e-8 * max(1.0, float(np.abs(terminal).max()))


def _held_x_bytes(tree, n):
    """Bytes of the x levels x(0..N) a solve holds besides a shared read-only target as x(N+1)."""
    return 8 * n * sum(tree.n_nodes(k) for k in range(tree.horizon + 1))


def test_membership_peak_stays_within_the_solve_and_two_leaf_arrays():
    # The solve holds x(0..N), shares the read-only target as x(N+1) and builds no z; the residual
    # adds one block-sized array on three-point noise and none on two-point noise. Measured above
    # the held levels: 4.4 KB at two-point N = 17 (2^18 leaves), 164 KB at three-point N = 10 (3^11).
    # The solve that also built z(0..N) peaked a whole z level above them.
    for noise, N in ((NoiseModel.rademacher(), 17), (NoiseModel.symmetric_three_point(), 10)):
        rng = np.random.default_rng(5)
        form = random_transformed(rng, 3, 4, noise=noise).form
        tree = PathTree(noise, N)
        terminal = random_attainable_terminal(rng, tree, form)
        terminal.setflags(write=False)
        tracemalloc.start()
        try:
            result = member_of_S(tree, form, terminal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = _held_x_bytes(tree, form.n)
        assert result.member
        assert peak <= held + BLOCK_ENTRIES * 8, (N, peak, held)


@pytest.mark.parametrize("noise,N", [(NoiseModel.rademacher(), 17), (NoiseModel.symmetric_three_point(), 10)],
                         ids=["two-point", "three-point"])
def test_steering_to_a_path_target_holds_no_z_level(noise, N):
    # Beyond the read-only target, which the solve shares as x(N+1), steering holds x(0..N), which the law
    # keeps to read its offsets from, and builds c_0 and c_1 alone, block by block, to find that stage 1's rows
    # differ; the other temporaries are block-sized. Measured above x: 0.03 MB at two-point N = 17, 0.16 MB
    # at three-point N = 10, where the steering that built every per-node c_k peaked 8.9 and 3.2 MB above x;
    # the solve that also built z(0..N) exceeded the bound by a z level.
    rng = np.random.default_rng(5)
    ts = random_transformed(rng, 3, 4, noise=noise)
    tree = PathTree(noise, N)
    terminal = random_attainable_terminal(rng, tree, ts.form)
    terminal.setflags(write=False)
    x0 = random_x0(rng, 3)
    tracemalloc.start()
    try:
        ctrl = steer_to_target(ts, tree, x0, terminal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ctrl.law.c is None and all(ctrl.law.hom[k].shape == (tree.n_nodes(k), 3) for k in range(N + 1))
    held = _held_x_bytes(tree, 3)
    assert peak <= held + BLOCK_ENTRIES * 8, (peak, held)
