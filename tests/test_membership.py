"""The membership test reads its target once and keeps the residual's bits.

:func:`representation_residual` forms each child's gap on its own; the
products of the first form (``crosschecks.kron_representation_residual``)
multiply by exact 0s, 1s and w_j, so the two agree bit for bit on every
steerable route. :func:`member_of_S` reads its bound off the solve's own
x(N+1), which is the target itself when that is read-only, and its peak
memory stays within the solve's levels plus three block-sized arrays.
"""
import tracemalloc

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
from crosschecks import kron_representation_residual
from test_delay import delayed_attainable_terminal

LAWS = {"two-point": NoiseModel.rademacher(), "three-point": NoiseModel.symmetric_three_point()}
LAGS = [{}, {"tau": 1}, {"tau": 2}, {"d": 1}, {"d": 2}]


def attainable(rng, tree, form, lag):
    if "d" in lag:
        return delayed_attainable_terminal(rng, tree, form, lag["d"])
    return random_attainable_terminal(rng, tree, form)


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("lag", LAGS, ids=str)
def test_residual_matches_the_kron_form_bit_for_bit(law, lag):
    rng = np.random.default_rng(21)
    noise = LAWS[law]
    for N in range(7):
        form = random_transformed(rng, 2, 3, noise=noise, **lag).form
        tree = PathTree(noise, N)
        for terminal in (attainable(rng, tree, form, lag), rng.normal(size=(tree.n_nodes(N + 1), form.n))):
            sol = backward_solve(tree, form, terminal)
            assert representation_residual(sol) == kron_representation_residual(sol), (N, lag)


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
    # Two-point N = 17: 2^18 leaves. The solve holds x(0..17) and z(0..17), and
    # shares the read-only target as x(18); the residual and the bound add at
    # most three block-sized temporaries on top of them.
    rng = np.random.default_rng(5)
    noise = NoiseModel.rademacher()
    form = random_transformed(rng, 3, 4, noise=noise).form
    tree = PathTree(noise, 17)
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
    assert peak <= held + 3 * BLOCK_ENTRIES * 8, (peak, held)
