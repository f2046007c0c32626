"""The per-atom matmul kernels of ``pathspace`` agree with their broadcast and einsum forms.

Both forms sum the same terms in a different order, so each entry may
differ by rounding only: within 8 eps times its entrywise bound
sum |coefficient| |input|. Checked on every steerable route (full,
tau 1/2, d 1/2) under both noise laws, for N <= 8, with inputs whose
entries span six decades.
"""
import numpy as np
import pytest

from stochctrl import NoiseModel, PathTree, backward_solve, representation_residual
from stochctrl.pathspace import _stage_map, _stage_step, plant_maps, plant_step, z_level
from stochctrl.sampling import random_free_input, random_system, random_transformed
from crosschecks import broadcast_plant_step, einsum_representation_residual, einsum_stage_mean, einsum_z, lift

EPS = np.finfo(float).eps
LAWS = {"two-point": NoiseModel.rademacher(), "three-point": NoiseModel.symmetric_three_point()}
LAGS = [{}, {"tau": 1}, {"tau": 2}, {"d": 1}, {"d": 2}]
N_MAX = 8


def scaled(rng, shape):
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)


def forward_bound(tree, spec, xs, k, uk, u1k):
    """sum |coef| |input| per entry of the step, with |A| + |w| |Abar| as the coefficient of x."""
    ax, au = np.abs(xs[k]), np.abs(uk)
    drift = ax @ np.abs(spec.A.T) + au @ np.abs(spec.B.T)
    if u1k is not None:
        drift += np.abs(u1k) @ np.abs(spec.B1.T)
    if spec.A1 is not None and k - spec.d >= 0:
        drift += np.abs(lift(tree, xs[k - spec.d], k - spec.d, k)) @ np.abs(spec.A1.T)
    diffusion = ax @ np.abs(spec.Abar.T) + au @ np.abs(spec.Bbar.T)
    return (drift[:, None, :] + np.abs(tree.support)[None, :, None] * diffusion[:, None, :]).reshape(-1, spec.n)


def children_sum(tree, x_next, weights):
    """sum_j |weights[j]| |x(child j)| per parent node."""
    return np.abs(x_next).reshape(-1, tree.s, x_next.shape[1]).transpose(0, 2, 1) @ np.abs(weights)


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("lag", LAGS, ids=str)
def test_plant_step_matches_the_broadcast_step(law, lag):
    rng = np.random.default_rng(11)
    noise = LAWS[law]
    for N in range(N_MAX + 1):
        spec = random_system(rng, 3, 4, noise=noise, **lag)
        tree = PathTree(noise, N)
        xs = {k: scaled(rng, (tree.n_nodes(k), spec.n)) for k in range(N + 1)}
        for k in range(N + 1):
            uk = scaled(rng, (tree.n_nodes(k), spec.m))
            u1k = None if spec.B1 is None else scaled(rng, (tree.n_nodes(k), spec.B1.shape[1]))
            got = plant_step(tree, spec, plant_maps(tree, spec), xs, k, uk, u1k)
            want = broadcast_plant_step(tree, spec, xs, k, uk, u1k)
            assert np.all(np.abs(got - want) <= 8 * EPS * forward_bound(tree, spec, xs, k, uk, u1k)), (N, k)


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("lag", LAGS, ids=str)
def test_backward_kernels_match_the_einsum_forms(law, lag):
    rng = np.random.default_rng(12)
    noise = LAWS[law]
    for N in range(N_MAX + 1):
        form = random_transformed(rng, 3, 4, noise=noise, **lag).form
        tree = PathTree(noise, N)
        W = _stage_map(tree, form)
        for k in range(N + 1):
            x_next = scaled(rng, (tree.n_nodes(k + 1), form.n))
            got = _stage_step(tree, form, W, x_next, None, k)
            bound = np.abs(x_next).reshape(-1, tree.s * form.n) @ np.abs(W)
            assert np.all(np.abs(got - einsum_stage_mean(tree, form, x_next)) <= 8 * EPS * bound), (N, k)

        terminal = scaled(rng, (tree.n_nodes(N + 1), form.n))
        x = backward_solve(tree, form, terminal, random_free_input(rng, tree, form.m_free))
        residual, want_residual = representation_residual(tree, x), einsum_representation_residual(tree, x)
        for k in range(N + 1):
            x_next = x[k + 1]
            z = z_level(tree, x_next)
            bound = children_sum(tree, x_next, tree.probs * tree.support)
            assert np.all(np.abs(z - einsum_z(tree, x_next)) <= 8 * EPS * bound), (N, k)
            mean = children_sum(tree, x_next, tree.probs)
            spread = mean[:, None, :] + np.abs(tree.support)[None, :, None] * np.abs(z)[:, None, :]
            assert abs(residual[k] - want_residual[k]) <= 8 * EPS * spread.max(), (N, k)
