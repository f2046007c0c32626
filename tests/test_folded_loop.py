"""The folded closed loop: one matmul per stage, only the levels a later stage reads.

``synthesis.folded_loop`` multiplies x(k) by the stage's closed-loop map
[(A + w_j Abar)' + L_k,x' (B + w_j Bbar)']_j and adds the offset and each
acting lag at its own depth. Stage by stage, from the plant-step loop's
own states, its step is checked against ``pathspace.plant_step`` fed by
``synthesis._law_inputs`` on every steerable route (full, tau 1/2,
d 1/2), both noise laws, null, constant and path targets and N <= 8,
within c eps times the entrywise bound of both sums:
|x| |A_w| + |x| |L_x'| |B_w| + |c| |B_w| + each lag's |lag| (|L_lag'| |B_w|
+ |A1'| or |B1'|). ``tracemalloc`` bounds its peak at N = 17 on the full
route by x(N), x(N+1) and 0.5 MB, on a delay route by the lags it keeps
and one lag product more; and synthesize and verify of a law never run
the plant-step loop.
"""
import tracemalloc

import numpy as np
import pytest

from stochctrl import NoiseModel, PathTree, folded_loop, law_text, steer_to_target, synthesis
from stochctrl.pathspace import _acting_lags, plant_step
from stochctrl.sampling import random_controllable, random_x0
from stochctrl.synthesis import _folded_step, _law_inputs
from test_delay_law import draw, report, run, write_instance

EPS = np.finfo(float).eps
LAWS = {"two-point": NoiseModel.rademacher(), "three-point": NoiseModel.symmetric_three_point()}
ROUTES = [("full", 0), ("tau", 1), ("tau", 2), ("d", 1), ("d", 2)]
N_MAX = 8
C_BOUND = 4


def fold_bound(tree, spec, law, k, xs, u1s):
    """Entrywise |x| |A_w| + |x| |L_x'| |B_w| + |c| |B_w| + sum over lags |lag| (|L_lag'| |B_w| + |A1'| or |B1'|),
    lags lifted to depth k, as rows of x(k+1); and |r| |L_u1'| + |c_u1| for u1(k)."""
    m, n, N = spec.m, spec.n, len(law.L) - 1
    Lk, c = np.abs(law.L[k]), np.abs(law.c[k])
    Aw = np.hstack([np.abs(spec.A.T) + abs(w) * np.abs(spec.Abar.T) for w in tree.support])
    Bw = np.hstack([np.abs(spec.B.T) + abs(w) * np.abs(spec.Bbar.T) for w in tree.support])
    x = np.abs(xs[k])
    step = x @ Aw + (x @ Lk[:m, :n].T) @ Bw + c[:, :m] @ Bw
    u1 = x @ Lk[m:, :n].T + c[:, m:]
    xlags, ulags = _acting_lags(N, k, spec.d or 0, spec.tau or 0)
    lags = [(xs[k - j], k - j, spec.A1 if j == spec.d else None) for j in xlags]
    lags += [(u1s[k - i], max(0, k - i), spec.B1 if i == spec.tau else None) for i in ulags]
    col = n
    for lag, depth, direct in lags:
        cols = slice(col, col + lag.shape[1])
        lifted = tree.lift(np.abs(lag), depth, k)
        step = step + (lifted @ Lk[:m, cols].T) @ Bw
        if direct is not None:
            step = step + lifted @ np.tile(np.abs(direct.T), tree.s)
        u1 = u1 + lifted @ Lk[m:, cols].T
        col = cols.stop
    return step.reshape(-1, n), u1


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("route,lag", ROUTES)
@pytest.mark.parametrize("target", [None, "constant", "path"], ids=["null", "constant", "path"])
def test_folded_step_matches_the_plant_step_of_the_laws_inputs(law, route, lag, target):
    rng = np.random.default_rng([lag, len(law), len(route), 0 if target is None else len(target), 2])
    for N in range(N_MAX + 1):
        ts, tree, x0, _, ctrl = draw(rng, LAWS[law], route, lag, 2, N, target)
        spec, m, tau = ts.spec, ts.spec.m, ts.spec.tau or 0
        xs, u1s = ctrl.x.values, ctrl.u1.values if ctrl.u1 is not None else {}
        for k, Lk in enumerate(ctrl.law.L):
            v = _law_inputs(spec, ctrl.law, k, xs, u1s, np.empty((tree.n_nodes(k), len(Lk))))
            want = plant_step(tree, spec, xs, k, v[:, :m], u1s[k - tau] if tau else None)
            got, u1k = _folded_step(tree, spec, ctrl.law, k, xs, u1s)
            bound, u1_bound = fold_bound(tree, spec, ctrl.law, k, xs, u1s)
            assert got.shape == want.shape and got.flags.c_contiguous
            assert np.all(np.abs(got - want) <= C_BOUND * EPS * bound), (N, k)
            if len(Lk) > m:
                assert np.all(np.abs(u1k - v[:, m:]) <= C_BOUND * EPS * u1_bound), (N, k)
            else:
                assert u1k is None


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("route,lag", ROUTES)
def test_folded_loop_ends_where_its_steps_end(law, route, lag):
    # The loop is its steps run from x0, with the levels no later stage reads dropped.
    rng = np.random.default_rng([lag, len(law), len(route), 3])
    for N in range(5):
        ts, tree, x0, _, ctrl = draw(rng, LAWS[law], route, lag, 2, N, "path")
        first, final = folded_loop(tree, ts.spec, x0, ctrl.law)
        xs = {0: x0[None, :]}
        u1s = {} if ctrl.law.u1_pre is None else {i - lag: row[None] for i, row in enumerate(ctrl.law.u1_pre)}
        for k in range(N + 1):
            xs[k + 1], u1k = _folded_step(tree, ts.spec, ctrl.law, k, xs, u1s)
            if u1k is not None:
                u1s[k] = u1k
        assert np.array_equal(first, x0[None, :]) and first is not x0
        assert np.array_equal(final, xs[N + 1]), N


@pytest.mark.parametrize("lag", [{}, {"d": 2}, {"tau": 2}], ids=["full", "d2", "tau2"])
def test_folded_loop_keeps_only_the_levels_it_reads(lag):
    # Full route: x(N) is 3.1 MB and x(N+1) 6.3 MB, 9.9 MB with the slack; the plant-step loop
    # peaks at 23.1 MB there. A delay route adds the lags it keeps and one lag product.
    N, n, m = 17, 3, 4
    rng = np.random.default_rng(1)
    ts = random_controllable(rng, n, m, N, **lag)
    tree = PathTree(NoiseModel.rademacher(), N)
    x0 = random_x0(rng, n)
    law = steer_to_target(ts, tree, x0, None).law
    tracemalloc.start()
    try:
        _, final = folded_loop(tree, ts.spec, x0, law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    s, d, tau = tree.s, lag.get("d", 0), lag.get("tau", 0)
    m1 = 0 if ts.spec.B1 is None else ts.spec.B1.shape[1]
    levels = sum(tree.n_nodes(N + 1 - j) for j in range(d + 2)) * n * 8  # x(N-d..N+1)
    pipeline = tau * tree.n_nodes(N - tau) * m1 * 8  # u1(N-2tau+1..N-tau)
    product = tree.n_nodes(N - 1) * s * n * 8 if lag else 0  # a lag times its block, at depth <= N-1
    assert final.shape == (tree.n_nodes(N + 1), n)
    assert peak <= levels + pipeline + product + 0.5e6, (peak, levels, pipeline, product)


@pytest.mark.parametrize("route,lag", ROUTES)
def test_synthesize_and_verify_of_a_law_never_run_the_plant_step_loop(capsys, tmp_path, monkeypatch, route, lag):
    rng = np.random.default_rng([lag, len(route), 4])
    ts, tree, x0, goal, ctrl = draw(rng, LAWS["three-point"], route, lag, 2, lag + 2, "path")
    inst = write_instance(tmp_path, ts, tree, x0, goal)
    law = tmp_path / "law.json"

    def refuse(*args):
        raise AssertionError("the plant-step loop ran")

    monkeypatch.setattr(synthesis, "feedback_loop", refuse)
    code, out, _ = run(capsys, "synthesize", "--instance", inst, "--out", str(law))
    assert code == 0 and report(out)["x0_error"] == "0"
    assert law.read_text() == law_text(ctrl)
    code, out, _ = run(capsys, "verify", "--instance", inst, "--controller", str(law))
    assert code == 0 and report(out)["verdict"] == "ok"
    with pytest.raises(AssertionError, match="plant-step loop"):
        steer_to_target(ts, tree, x0, goal).x
