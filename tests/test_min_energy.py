"""Every route steers by the minimum-energy law: its inputs spend exactly e0' G^{-1} e0.

With [q; v] = M^{-1} u, the free inputs are v and, on a delayed input,
u1, the pre-horizon rows ``law.u1_pre`` included. The law's expected
energy E sum_k |v(k)|^2 + E sum_j |u1(j)|^2, summed over the nodes of
``synthesis.feedback_loop``'s stages with ``PathTree.node_probs``,
equals e0' G^{-1} e0 with G the controller's Gramian and e0 = x0 minus
the target's homogeneous solution at stage 0 (x0 itself for the origin).
Checked on every steerable route (full, tau 1/2, d 1/2), under both noise
laws, with null, constant and path targets, within
64 cond(G) eps e0' G^{-1} e0. On these draws (n 3, m 4, N 5, four seeds
a case, cond G up to 116) the gap is at most 2.1e-14 relative, 0.8
cond(G) eps; one stage's gain scaled by 1 + 1e-6 fails every case.
"""
import numpy as np
import pytest

from stochctrl import NoiseModel, feedback_loop, member_of_S
from test_delay_law import draw

EPS = np.finfo(float).eps
LAWS = {"two-point": NoiseModel.rademacher(), "three-point": NoiseModel.symmetric_three_point()}
ROUTES = [("full", 0), ("tau", 1), ("tau", 2), ("d", 1), ("d", 2)]


def law_energy(ts, tree, ctrl) -> float:
    """E sum_k |v(k)|^2 + E sum_j |u1(j)|^2 of the controller's closed loop, u1's pre-horizon rows included."""
    m, n = ts.spec.m, ts.spec.n
    v_of_u = np.linalg.inv(ts.M)[n:].T  # u @ v_of_u = v, the free part of M^{-1} u
    energy = 0.0 if ctrl.law.u1_pre is None else float((ctrl.law.u1_pre**2).sum())
    for k, inputs, _ in feedback_loop(tree, ts.spec, ctrl.x0, ctrl.law):
        free = np.hstack([inputs[:, :m] @ v_of_u, inputs[:, m:]])
        energy += float(tree.node_probs(k) @ (free**2).sum(axis=1))
    return energy


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("route,lag", ROUTES)
@pytest.mark.parametrize("target", [None, "constant", "path"], ids=["null", "constant", "path"])
def test_law_spends_the_minimum_energy(law, route, lag, target):
    for seed in range(4):
        rng = np.random.default_rng([seed, lag, len(law), len(route), 0 if target is None else len(target)])
        ts, tree, x0, goal, ctrl = draw(rng, LAWS[law], route, lag, 3, 5, target)
        e0 = x0 if goal is None else x0 - member_of_S(tree, ts.form, goal).x0
        G = ctrl.gramian
        want = float(e0 @ np.linalg.solve(G, e0))
        got = law_energy(ts, tree, ctrl)
        assert abs(got - want) <= 64 * np.linalg.cond(G) * EPS * want, (seed, got, want)
