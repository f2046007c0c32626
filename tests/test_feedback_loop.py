"""The closed loop keeps only what a later stage reads, and computes what the loop as first written did.

``synthesis.feedback_loop`` evaluates each level's inputs into one
buffer, multiplies each lag at its own depth, and yields each stage's
inputs and next state, keeping no u(k) and of the states and delayed
inputs only the lags a later stage reads. Its stages, collected by
``crosschecks.loop_levels``, are checked against
``crosschecks.reference_feedback_loop``, which stacks the lifted
regressor and stores every u(k): on the full route bit for bit; on the
delay routes, where the lag products are summed in another order, each
stage's inputs and step within 8 eps times their entrywise bound
sum |coefficient| |input|. Checked on every steerable route (full,
tau 1/2, d 1/2) under both noise laws, with null, constant and path
targets, for N <= 8. On the same draws, the law evaluated on a target's
own solution (its states, a zero u1) gives the target's input
[(z_h - x_h Abar') M_q', 0] within rounding (a path target's law, whose
folded step adds terms of that solution, gives the plant step of that
input), and ``target_offsets``,
which builds the offsets from L and that solution, matches the build
from the gains before the predictor map (``crosschecks.reference_offsets``)
within the same rounding bound. ``tracemalloc`` bounds the loop's peak
at N = 17, its stages consumed and dropped, by its two buffers, x(N),
x(N+1), the lags it still reads at stage N and 0.5 MB, and
``write_controller_csv``'s peak by the same and 1 MB: the loop that kept
every level, and the writer that read it, exceeded both, as did, on a
delayed state, the loop that kept the states past N - d, which no later
stage reads.
"""
import json
import tracemalloc

import numpy as np
import pytest

from stochctrl import (
    NoiseModel,
    PathTree,
    feedback_loop,
    law_text,
    member_of_S,
    steer_to_target,
    target_offsets,
    write_controller_csv,
)
from stochctrl.model import _label_tables
from stochctrl.pathspace import _state_delay_gains, plant_maps, plant_step, z_level
from stochctrl.synthesis import _regressor_product, _stage_maps, _start_values
from stochctrl.sampling import random_controllable, random_x0
from crosschecks import (
    controller_levels,
    folded_step,
    law_offsets,
    lift,
    lifted_regressor,
    lifting_plant_step,
    loop_levels,
    reference_feedback_loop,
    reference_offsets,
)
from test_delay_law import draw
from test_folded_loop import C_BOUND, fold_bound
from test_tree_kernels import forward_bound

EPS = np.finfo(float).eps
LAWS = {"two-point": NoiseModel.rademacher(), "three-point": NoiseModel.symmetric_three_point()}
ROUTES = [("full", 0), ("tau", 1), ("tau", 2), ("d", 1), ("d", 2)]
N_MAX = 8


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("route,lag", ROUTES)
@pytest.mark.parametrize("target", [None, "constant", "path"], ids=["null", "constant", "path"])
def test_loop_matches_the_reference_loop(law, route, lag, target):
    rng = np.random.default_rng([lag, len(law), len(route), 0 if target is None else len(target)])
    for N in range(N_MAX + 1):
        ts, tree, x0, _, ctrl = draw(rng, LAWS[law], route, lag, 2, N, target)
        spec = ts.spec
        u, x, u1 = loop_levels(tree, spec, x0, ctrl.law)
        ctrl_u, ctrl_x, _ = controller_levels(ctrl)
        for k in range(N + 2):
            assert np.array_equal(x[k], ctrl_x[k]), (N, k)
        for k in range(N + 1):
            assert np.array_equal(u[k], ctrl_u[k]), (N, k)
            assert u[k].shape == (tree.n_nodes(k), spec.m)
        if route == "full":
            ref_u, ref_x, ref_u1 = reference_feedback_loop(tree, spec, x0, ctrl.law)
            assert u1 is None and ref_u1 is None
            for k in range(N + 2):
                assert np.array_equal(x[k], ref_x[k]), (N, k)
            for k in range(N + 1):
                assert np.array_equal(u[k], ref_u[k]), (N, k)
            continue
        # Stage by stage from the loop's own states: the stacked regressor's inputs, then the lifting step.
        m = spec.m
        u1s = u1 if u1 is not None else {}
        for k, (Lk, ck) in enumerate(zip(ctrl.law.L, law_offsets(tree, spec, ctrl.law))):
            r = lifted_regressor(tree, spec, N, k, x, u1s)
            want = r @ Lk.T + ck
            bound = 8 * EPS * (np.abs(r) @ np.abs(Lk.T) + np.abs(ck))
            assert np.all(np.abs(u[k] - want[:, :m]) <= bound[:, :m]), (N, k)
            if u1 is not None and k in u1s:
                assert np.all(np.abs(u1[k] - want[:, m:]) <= bound[:, m:]), (N, k)
            u1k = lift(tree, u1[k - lag], max(0, k - lag), k) if u1 is not None else None
            step = lifting_plant_step(tree, spec, x, k, u[k], u1k)
            step_bound = 8 * EPS * forward_bound(tree, spec, x, k, u[k], u1k)
            assert np.all(np.abs(x[k + 1] - step) <= step_bound), (N, k)


def _own_solution(law, route, lag, target, seed):
    """For N = 0..N_MAX, a draw's controller, the target's solution (states, a zero u1) and, per stage, the
    entrywise rounding terms of the law on that solution against the target's input: the loop's terms
    |r_h| |L_k'| and |c_k|, and those of the products with K_k and M_q, (|r_h| |Pi_k'|) |K_k'| and
    (|z_h| + |x_h| |Abar'|) |M_q'|. A zero u1 meets no block of Pi_k, and Pi_k's first block is I, so
    K_k = L_k's first n columns + [M_q Abar; 0]."""
    rng = np.random.default_rng([lag, len(law), len(route), len(target), seed])
    for N in range(N_MAX + 1):
        ts, tree, x0, goal, ctrl = draw(rng, LAWS[law], route, lag, 2, N, target)
        spec, n, m = ts.spec, ts.spec.n, ts.spec.m
        xs = hom = member_of_S(tree, ts.form, goal).solution
        u1s = {}
        if route == "tau":
            u1s = {j: np.zeros((tree.n_nodes(max(0, j)), spec.B1.shape[1])) for j in range(-lag, N - lag + 1)}
        Q = _state_delay_gains(ts.form, N)[1] if route == "d" else [{}] * (N + 1)
        Mq = ts.M[:, :n]
        terms = []
        for k, (Lk, ck) in enumerate(zip(ctrl.law.L, law_offsets(tree, spec, ctrl.law))):
            r = lifted_regressor(tree, spec, N, k, xs, u1s)
            K = Lk[:, :n].copy()
            K[:m] += Mq @ spec.Abar
            r_pi = np.abs(xs[k]) + sum(lift(tree, np.abs(xs[k - j]), k - j, k) @ np.abs(Qj.T) for j, Qj in Q[k].items())
            terms.append(np.abs(r) @ np.abs(Lk.T) + np.abs(ck) + r_pi @ np.abs(K.T))
            terms[k][:, :m] += (np.abs(z_level(tree, xs[k + 1])) + np.abs(xs[k]) @ np.abs(spec.Abar.T)) @ np.abs(Mq.T)
        yield N, ts, tree, ctrl, hom, u1s, terms


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("route,lag", ROUTES)
@pytest.mark.parametrize("target", ["constant", "path"])
def test_law_on_the_targets_own_solution_gives_the_targets_input(law, route, lag, target):
    # L_k = K_k Pi_k - [M_q Abar, 0] and c_k = [z_h M_q', 0] - (r_h Pi_k') K_k', so at r(k) = r_h(k),
    # the target's states with a zero u1, the law gives [(z_h - x_h Abar') M_q', 0]. The two
    # products with K_k cancel, so the rounding bound sums the loop's terms and theirs. A law that lists
    # its c_k is evaluated as the plant-step loop evaluates it. A path target's law adds its offset as terms
    # of the target's solution instead (synthesis._stage_maps), so its folded step from that solution is
    # the plant step of the target's input within the step's bound, and its u1(k) is zero within rounding.
    for N, ts, tree, ctrl, hom, u1s, terms in _own_solution(law, route, lag, target, 1):
        spec, m, Mq, tau = ts.spec, ts.spec.m, ts.M[:, : ts.spec.n], ts.spec.tau or 0
        xs = hom
        stages = _stage_maps(tree, spec, ctrl.law)
        vals = _start_values(hom[0][0], ctrl.law, tau)
        vals.update({("x", j): level for j, level in xs.items()} | {("u1", j): level for j, level in u1s.items()})
        for k, Lk in enumerate(ctrl.law.L):
            want = np.zeros((tree.n_nodes(k), len(Lk)))
            want[:, :m] = (z_level(tree, xs[k + 1]) - xs[k] @ spec.Abar.T) @ Mq.T
            if ctrl.law.c is not None:
                got = _regressor_product(spec, ctrl.law.L, k, xs, u1s, np.empty_like(want))
                got += ctrl.law.c[k]
                assert np.all(np.abs(got - want) <= 8 * EPS * terms[k]), (N, k)
                continue
            got, u1k = folded_step(tree, stages[k], dict(vals))
            step = plant_step(tree, spec, plant_maps(tree, spec), xs, k, want[:, :m], u1s[k - tau] if tau else None)
            bound, u1_bound = fold_bound(tree, spec, ctrl.law, k, xs, u1s, None)
            assert np.all(np.abs(got - step) <= C_BOUND * EPS * bound), (N, k)
            assert u1k is None if len(Lk) == m else np.all(np.abs(u1k) <= C_BOUND * EPS * u1_bound), (N, k)


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("route,lag", ROUTES)
@pytest.mark.parametrize("target", ["constant", "path"])
def test_offsets_from_L_match_the_gain_based_build(law, route, lag, target):
    # target_offsets forms c_k = [(z_h - x_h Abar') M_q', 0] - r_h L_k'; the build it replaced formed
    # [z_h M_q', 0] - (r_h Pi_k') K_k' (crosschecks.reference_offsets). The two are equal in exact
    # arithmetic, so they differ by the rounding of the same terms. A stage that is one row serves every node.
    # The controller lists the helper's offsets, or holds the solution they are built from.
    for N, ts, tree, ctrl, hom, _, terms in _own_solution(law, route, lag, target, 1):
        got = list(target_offsets(tree, ts.spec, ts.M[:, : ts.spec.n], ctrl.law.L, hom))
        if ctrl.law.c is None:
            assert all(np.array_equal(ctrl.law.hom[k], level) for k, level in hom.items())
            assert np.array_equal(ctrl.law.Mq, ts.M[:, : ts.spec.n]) and any(len(ck) > 1 for ck in got)
        else:
            assert all(np.array_equal(ck, want) for ck, want in zip(got, ctrl.law.c)) and len(got) == N + 1
        for k, (ck, ref) in enumerate(zip(got, reference_offsets(ts, tree, ctrl.law, hom))):
            assert len(ck) in (1, tree.n_nodes(k)) and ck.shape[1] == ref.shape[1]
            assert np.all(np.abs(ck - ref) <= 8 * EPS * terms[k]), (N, k)
        if target == "constant":
            assert all(len(ck) == 1 for ck in got) and "target" not in json.loads(law_text(ctrl))


def _loop_bound(N, lag):
    """A law for the N = 17 draw, and the bytes of the loop's two buffers, x(N), x(N+1) and the lags it
    keeps at stage N: x(N-d) on a delayed state (x(N-d+1..N-1) act at no later stage), u1(N-tau) on a
    delayed input."""
    n, m = 3, 4
    rng = np.random.default_rng(1)
    ts = random_controllable(rng, n, m, N, **lag)
    tree = PathTree(NoiseModel.rademacher(), N)
    x0 = random_x0(rng, n)
    ctrl = steer_to_target(ts, tree, x0, None)
    s, d, tau = tree.s, lag.get("d", 0), lag.get("tau", 0)
    m1 = 0 if ts.spec.B1 is None else ts.spec.B1.shape[1]
    inputs = max(tree.n_nodes(k) * len(Lk) for k, Lk in enumerate(ctrl.law.L))
    work = max(s**N * s * n, s ** (N - 1) * len(ctrl.law.L[0]))
    lags = (tree.n_nodes(N - d) * n if d else 0) + (tree.n_nodes(N - tau) * m1 if tau else 0)
    return ctrl, 8 * (inputs + work + (s**N + s ** (N + 1)) * n + lags)


def _peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("lag", [{}, {"d": 2}, {"tau": 2}], ids=["full", "d2", "tau2"])
def test_loop_keeps_only_what_it_returns(lag):
    # Full route: 19.9 MB of buffers and the last two levels, 20.4 MB with the slack; the loop that
    # kept every level peaked at 23.1 MB. d = 2: 21.2 MB with the slack; the loop that also kept
    # x(N-1), which no stage after N - 1 reads, peaked at 22.35 MB.
    ctrl, bound = _loop_bound(17, lag)

    def consume():
        for _ in feedback_loop(ctrl.tree, ctrl.spec, ctrl.x0, ctrl.law):
            pass

    peak = _peak(consume)
    assert peak <= bound + 0.5e6, (peak, bound)


@pytest.mark.parametrize("lag", [{}, {"d": 2}, {"tau": 2}], ids=["full", "d2", "tau2"])
def test_table_writer_streams_the_loop(tmp_path, lag):
    # The writer formats a level in blocks of the 4096-label tail table, one block of Python floats
    # (0.8 MB at m 4) at a time. Full route: 20.9 MB with the slack, for a 28 MB table; the writer
    # that read every level peaked at 28.1 MB. The label tables are built once per process, so they
    # are built before the measurement.
    ctrl, bound = _loop_bound(17, lag)
    _label_tables(ctrl.tree.s)
    peak = _peak(lambda: write_controller_csv(tmp_path / "table.csv", ctrl))
    assert peak <= bound + 1e6, (peak, bound)
