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
within the solve's levels plus one block-sized array.
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
    random_attainable_terminal,
    representation_residual,
    terminal_from_map,
)
from stochctrl.pathspace import BLOCK_ENTRIES
from stochctrl.sampling import random_transformed
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


def projection_bound(sol) -> dict[int, float]:
    """(s + 3) eps max sum_i |Pi|_ji |x_i| per stage: the residual's rounding bound (module docstring)."""
    tree, s = sol.tree, sol.tree.s
    p, w = tree.probs, np.abs(tree.support)
    weight = np.eye(s) + p + np.outer(w, p * w)  # |Pi|
    bound = {}
    for k in range(tree.horizon + 1):
        children = np.abs(sol.x.at(k + 1)).reshape(-1, s, sol.x.dim)  # |x_i| of each parent's children
        bound[k] = (s + 3) * EPS * float((weight @ children).max(initial=0.0))
    return bound


def assert_within_the_exact_bound(sol, context):
    residual, exact, bound = representation_residual(sol), exact_representation_residual(sol), projection_bound(sol)
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
            kron = kron_representation_residual(result.solution)
            assert result.member == (max(kron.values()) <= result.bound), (N, lag)
            assert_within_the_exact_bound(result.solution, (N, lag))


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
            assert_within_the_exact_bound(backward_solve(tree, form, terminal), (N, lag))


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
    residual = representation_residual(result.solution)
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
        x_final = result.solution.x.at(3)
        assert np.array_equal(x_final, terminal) and np.shares_memory(x_final, leaves) == shared
        assert result.bound == 1e-8 * max(1.0, float(np.abs(terminal).max()))


def test_membership_peak_stays_within_the_solve_and_two_leaf_arrays():
    # The solve holds x(0..N) and z(0..N), and shares the read-only target as x(N+1); the residual
    # adds one block-sized array on three-point noise and none on two-point noise. Measured above
    # the held levels: 10.6 KB at two-point N = 17 (2^18 leaves), 168 KB at three-point N = 10 (3^11).
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
        held = sum(a.nbytes for proc in (result.solution.x, result.solution.z) for a in proc.values.values()
                   if not np.shares_memory(a, terminal))
        assert result.member
        assert peak <= held + BLOCK_ENTRIES * 8, (N, peak, held)
