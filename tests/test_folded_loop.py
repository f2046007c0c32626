"""The folded closed loop: one matmul per stage, run subtree by subtree.

``synthesis.folded_loop`` multiplies x(k) by the stage's closed-loop map
[(A + w_j Abar)' + L_k,x' (B + w_j Bbar)']_j and adds the offset and each
acting lag at its own depth. Stage by stage, from the plant-step loop's
own states, its step is checked against ``pathspace.plant_step`` fed by
``synthesis._regressor_product`` plus c_k on every steerable route (full, tau 1/2,
d 1/2), both noise laws, null, constant and path targets and N <= 8,
within c eps times the entrywise bound of both sums:
|x| |A_w| + |x| |L_x'| |B_w| + |c| |B_w| + each lag's |lag| (|L_lag'| |B_w|
+ |A1'| or |B1'|), where a path target's law, which adds terms of the
target's solution (x_h, z_h) in place of c, has those terms' bound in
place of |c| |B_w|. The loop yields x(N+1) in runs of leaves; concatenated,
they are ``crosschecks.breadth_first_folded_loop``'s level bit for bit, on
the same routes, laws and targets, also with ``pathspace.BLOCK_ENTRIES``
cut small so that runs start below the lags they read; every run is
written into the same array, allocated once per loop, so a run is copied
before the next is requested. ``pathspace.RunCut`` counts the n entries
a node holds, and at the real ``BLOCK_ENTRIES`` its runs are the
breadth-first level bit for bit where the cut in rows made none or fewer
(n = 3 at N = 14, three-point n = 2 at N = 9), at n = 1 and on a d = 2
route. A null law's
zero offsets make no product: its leaves equal (==) those of the loop
that adds them (``crosschecks.breadth_first_folded_loop`` with
``offsets``), as adding 0.0 can
change only the sign of a zero, while zeroing a constant target's
offsets or a path target's solution changes its leaves. Every term is
added in one contiguous add but a listed one-row c_k, whose u1 columns
are each stage's last term, as a reference that adds them on their own
gives x(N+1) bit for bit; synthesize of a
path target builds c_0 and c_1 only and verify none; and a delay route's
path target ends within rounding of the plant-step loop. ``tracemalloc``
bounds its peak at N = 17 and 19 by the top level and one run, whatever
N: 1 MB on the full route, and on a delay route the lags and u1 pipeline
each keeps; synthesize and verify of a law at the 2^20-leaf cap stay
under a bound the breadth-first loop alone exceeds; and they never run
the plant-step loop.
"""
import tracemalloc

import numpy as np
import pytest

from stochctrl import (
    FeedbackLaw,
    NoiseModel,
    PathTree,
    ProblemInstance,
    folded_loop,
    law_text,
    pathspace,
    serialize_instance,
    steer_to_target,
    synthesis,
)
from stochctrl.pathspace import _acting_lags, plant_maps, plant_step
from stochctrl.sampling import random_attainable_terminal, random_controllable, random_x0
from stochctrl.synthesis import _regressor_product, _stage_maps, _start_values
from crosschecks import breadth_first_folded_loop, controller_levels, folded_step, law_offsets, lift
from test_delay_law import draw, report, run, write_instance

EPS = np.finfo(float).eps
LAWS = {"two-point": NoiseModel.rademacher(), "three-point": NoiseModel.symmetric_three_point()}
ROUTES = [("full", 0), ("tau", 1), ("tau", 2), ("d", 1), ("d", 2)]
N_MAX = 8
C_BOUND = 4


def fold_bound(tree, spec, law, k, xs, u1s, ck):
    """Entrywise |x| |A_w| + |x| |L_x'| |B_w| + the offset's + sum over lags |lag| (|L_lag'| |B_w| + |A1'| or |B1'|),
    lags lifted to depth k, as rows of x(k+1); and |r| |L_u1'| + the offset's for u1(k). A listed offset c_k's
    is |c| |B_w| and |c_u1|. A path target's, whose terms the folded step adds and whose per-node ``ck`` the
    plant step adds, is that of the terms, which also bounds the rounding of ck:
    (|x_h(k+1)| |Z| + |x_h(k)| |Abar'|) |M_q'| |B_w| + (|r_h| |L_u'|) |B_w| and |r_h| |L_u1'|, with
    Z = [p_j w_j I_n]_j, x_h(k+1) as rows of s n and r_h x_h(k) with its state lags lifted to depth k."""
    m, n, N = spec.m, spec.n, len(law.L) - 1
    Lk = np.abs(law.L[k])
    Aw = np.hstack([np.abs(spec.A.T) + abs(w) * np.abs(spec.Abar.T) for w in tree.support])
    Bw = np.hstack([np.abs(spec.B.T) + abs(w) * np.abs(spec.Bbar.T) for w in tree.support])
    x = np.abs(xs[k])
    step = x @ Aw + (x @ Lk[:m, :n].T) @ Bw
    u1 = x @ Lk[m:, :n].T
    xlags, ulags = _acting_lags(N, k, spec.d or 0, spec.tau or 0)
    if law.c is None:
        hom = {j: np.abs(level) for j, level in law.hom.items()}
        Z = np.kron(np.abs(tree.probs * tree.support)[:, None], np.eye(n))
        q = hom[k + 1].reshape(len(hom[k]), -1) @ Z + hom[k] @ np.abs(spec.Abar.T)
        r_h = np.hstack([hom[k], *(lift(tree, hom[k - j], k - j, k) for j in xlags)])
        cols = r_h.shape[1]
        step = step + (q @ np.abs(law.Mq.T)) @ Bw + (r_h @ Lk[:m, :cols].T) @ Bw
        u1 = u1 + r_h @ Lk[m:, :cols].T
    else:
        c = np.abs(ck)
        step, u1 = step + c[:, :m] @ Bw, u1 + c[:, m:]
    lags = [(xs[k - j], k - j, spec.A1 if j == spec.d else None) for j in xlags]
    lags += [(u1s[k - i], max(0, k - i), spec.B1 if i == spec.tau else None) for i in ulags]
    col = n
    for lag, depth, direct in lags:
        cols = slice(col, col + lag.shape[1])
        lifted = lift(tree, np.abs(lag), depth, k)
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
        _, x, u1 = controller_levels(ctrl)
        xs, u1s = x, u1 if u1 is not None else {}
        stages = _stage_maps(tree, spec, ctrl.law)
        vals = _start_values(x0, ctrl.law, tau)
        vals.update({("x", j): level for j, level in xs.items()} | {("u1", j): level for j, level in u1s.items()})
        for k, (Lk, ck) in enumerate(zip(ctrl.law.L, law_offsets(tree, spec, ctrl.law))):
            v = _regressor_product(spec, ctrl.law.L, k, xs, u1s, np.empty((tree.n_nodes(k), len(Lk))))
            v += ck
            want = plant_step(tree, spec, plant_maps(tree, spec), xs, k, v[:, :m], u1s[k - tau] if tau else None)
            got, u1k = folded_step(tree, stages[k], dict(vals))  # a copy: the step writes u1(k) and x(k+1) into it
            bound, u1_bound = fold_bound(tree, spec, ctrl.law, k, xs, u1s, ck)
            assert got.shape == want.shape and got.flags.c_contiguous
            assert np.all(np.abs(got - want) <= C_BOUND * EPS * bound), (N, k)
            if len(Lk) > m:
                assert np.all(np.abs(u1k - v[:, m:]) <= C_BOUND * EPS * u1_bound), (N, k)
            else:
                assert u1k is None


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("route,lag", ROUTES)
@pytest.mark.parametrize("target", [None, "constant", "path"], ids=["null", "constant", "path"])
@pytest.mark.parametrize("block", [2, 3, None], ids=["s^2", "s^3", "default"])
def test_folded_loop_runs_are_the_breadth_first_loop_bit_for_bit(monkeypatch, law, route, lag, target, block):
    # With BLOCK_ENTRIES = n s^2 or n s^3 the top level sits two or three stages above the leaves, and each
    # run spans s^(lag+1) of its rows, so a run reads x(k-j) and u1(k-i) as a slice of a level it cuts.
    noise = LAWS[law]
    if block is not None:
        monkeypatch.setattr(pathspace, "BLOCK_ENTRIES", 2 * len(noise.support) ** block)  # n = 2
    rng = np.random.default_rng([lag, len(law), len(route), 0 if target is None else len(target), 3])
    for N in range(8 if law == "two-point" else 6):
        ts, tree, x0, _, ctrl = draw(rng, noise, route, lag, 2, N, target)
        runs = []
        for first, x in folded_loop(tree, ts.spec, x0, ctrl.law):
            assert x.flags.c_contiguous
            runs.append((first, x.copy()))  # a run is valid until the next is requested
        firsts = [first for first, _ in runs]
        assert firsts == [sum(len(x) for _, x in runs[:i]) for i in range(len(runs))], N
        want = breadth_first_folded_loop(tree, ts.spec, x0, ctrl.law)
        assert np.concatenate([x for _, x in runs]).tobytes() == want.tobytes(), N
        if block is not None and N >= max(2 * block - 1, block + lag):  # top level at depth N + 1 - block
            assert len(runs) == tree.s ** (N - block - lag), N


@pytest.mark.parametrize(
    "law,n,N,lag,target,runs",
    [("two-point", 3, 14, {}, "path", 4), ("three-point", 2, 9, {}, "path", 9), ("two-point", 1, 15, {}, None, 2),
     ("two-point", 2, 15, {"d": 2}, None, 4)],
    ids=["n3-N14", "three-point-n2-N9", "n1-N15", "d2-n2-N15"],
)
def test_the_cut_in_entries_gives_the_breadth_first_loop_bit_for_bit(law, n, N, lag, target, runs):
    # At the real BLOCK_ENTRIES: n = 3 at N = 14 had one run when the cut counted rows and now has 4;
    # three-point n = 2 at N = 9 had 3 and now has 9; n = 1 cuts as rows did.
    rng = np.random.default_rng([n, N, 9])
    noise = LAWS[law]
    ts = random_controllable(rng, n, n + 1, N, noise=noise, **lag)
    tree = PathTree(noise, N)
    x0 = random_x0(rng, n)
    goal = None if target is None else random_attainable_terminal(rng, tree, ts.form)
    law_ = steer_to_target(ts, tree, x0, goal).law
    assert len(pathspace.RunCut(tree, n, max(lag.values(), default=0)).firsts) == runs
    got = [(first, x.copy()) for first, x in folded_loop(tree, ts.spec, x0, law_)]
    assert [first for first, _ in got] == [i * tree.n_nodes(N + 1) // runs for i in range(runs)]
    want = breadth_first_folded_loop(tree, ts.spec, x0, law_)
    assert np.concatenate([x for _, x in got]).tobytes() == want.tobytes()


@pytest.mark.parametrize("target", [None, "path"], ids=["null", "path"])
@pytest.mark.parametrize("lag", [{}, {"d": 2}, {"tau": 2}], ids=["full", "d2", "tau2"])
def test_successive_runs_are_written_into_one_array(monkeypatch, lag, target):
    # Every run is held, so runs allocated afresh could not share an address; the bit-for-bit test above
    # checks each run's values as it comes.
    n, m, N = 2, 3, 8
    monkeypatch.setattr(pathspace, "BLOCK_ENTRIES", n * 2**4)
    rng = np.random.default_rng(8)
    ts = random_controllable(rng, n, m, N, **lag)
    tree = PathTree(NoiseModel.rademacher(), N)
    x0 = random_x0(rng, n)
    goal = None if target is None else random_attainable_terminal(rng, tree, ts.form)
    runs = list(folded_loop(tree, ts.spec, x0, steer_to_target(ts, tree, x0, goal).law))
    assert len(runs) > 1
    assert len({x.ctypes.data for _, x in runs}) == 1


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("tau", [1, 2, 3])
def test_a_listed_offsets_u1_columns_are_each_stages_last_term(monkeypatch, law, tau):
    # On a constant target's law, ("c1", k) with I_m1 is the last term of each stage with u1 rows, after the
    # u1 lags. With the top level cut into runs, the loop's x(N+1) is bit for bit that of a breadth-first
    # reference that adds c_k's u1 columns to u1(k) on their own, after the stage's other terms.
    noise = LAWS[law]
    monkeypatch.setattr(pathspace, "BLOCK_ENTRIES", 2 * len(noise.support) ** 2)  # n = 2
    rng = np.random.default_rng([tau, len(law), 13])
    for N in range(tau, tau + 6):
        ts, tree, x0, _, ctrl = draw(rng, noise, "tau", tau, 2, N, "constant")
        vals, listed = _start_values(x0, ctrl.law, tau), 0
        for k, fold, u1_map, terms in _stage_maps(tree, ts.spec, ctrl.law):
            keys = [key for key, *_ in terms]
            if u1_map is not None:
                assert keys.count(("c1", k)) == 1 and keys[-1] == ("c1", k) and terms[-1][2], (N, k)
                assert np.array_equal(terms[-1][1], np.eye(u1_map.shape[1])) and terms[-1][3] == k, (N, k)
                terms, listed = terms[:-1], listed + 1
            else:
                assert ("c1", k) not in keys, (N, k)
            _, u1k = folded_step(tree, (k, fold, u1_map, terms), vals)
            if u1k is not None:
                u1k += vals["c1", k]  # u1(k) in place, as vals holds it
        runs = [x.copy() for _, x in folded_loop(tree, ts.spec, x0, ctrl.law)]
        assert listed == N - tau + 1 and (len(runs) > 1) == (N >= tau + 3), N
        assert np.concatenate(runs).tobytes() == vals["x", N + 1].tobytes(), N


def leaves(tree, spec, x0, law):
    return np.concatenate([x.copy() for _, x in folded_loop(tree, spec, x0, law)])  # each before the next run


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("route,lag", ROUTES)
def test_a_null_laws_leaves_are_those_of_the_loop_that_adds_its_zero_offsets(law, route, lag):
    # == rather than bytes: adding a row of 0.0 changes no finite value, NaN or inf, only the sign of a zero.
    rng = np.random.default_rng([lag, len(law), len(route), 5])
    for N in range(8 if law == "two-point" else 6):
        ts, tree, x0, _, ctrl = draw(rng, LAWS[law], route, lag, 2, N, None)
        assert all(len(ck) == 1 and not ck.any() for ck in ctrl.law.c)
        want = breadth_first_folded_loop(tree, ts.spec, x0, ctrl.law, offsets=True)
        assert np.array_equal(leaves(tree, ts.spec, x0, ctrl.law), want), N


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("route,lag", ROUTES)
@pytest.mark.parametrize("target", ["constant", "path"])
def test_zeroing_a_target_laws_offsets_changes_its_leaves(law, route, lag, target):
    # A one-row nonzero c_k (a constant target) is still applied, and so are a path target's solution terms:
    # the same law on a zero solution steers elsewhere.
    rng = np.random.default_rng([lag, len(law), len(route), len(target), 6])
    for N in range(5):
        ts, tree, x0, goal, ctrl = draw(rng, LAWS[law], route, lag, 2, N, target)
        got = leaves(tree, ts.spec, x0, ctrl.law)
        assert np.allclose(got, goal, atol=1e-8), N
        L, u1_pre = ctrl.law.L, ctrl.law.u1_pre
        if ctrl.law.c is not None:  # a constant target, or a path target at N = 0, whose one stage is one node
            zeroed = FeedbackLaw(L, [np.zeros((1, ck.shape[1])) for ck in ctrl.law.c], u1_pre)
        else:
            zero = {k: np.zeros_like(level) for k, level in ctrl.law.hom.items()}
            zeroed = FeedbackLaw(L, None, u1_pre, zero, ctrl.law.Mq)
        assert not np.array_equal(got, leaves(tree, ts.spec, x0, zeroed)), N


@pytest.mark.parametrize("route,lag", ROUTES)
@pytest.mark.parametrize("target", [None, "constant", "path"], ids=["null", "constant", "path"])
def test_only_a_nonzero_offset_makes_an_offset_product(monkeypatch, route, lag, target):
    # BLOCK_ENTRIES = n s^2 cuts the top level into runs, so the count covers both phases of the loop.
    monkeypatch.setattr(pathspace, "BLOCK_ENTRIES", 2 * 4)  # n = 2
    rng = np.random.default_rng([lag, len(route), 0 if target is None else len(target), 7])
    ts, tree, x0, _, ctrl = draw(rng, LAWS["two-point"], route, lag, 2, 6, target)
    # The walk forms one product per term of each stage it walks, so the walked terms are its products.
    walk, steps = synthesis._walk, []
    monkeypatch.setattr(synthesis, "_walk", lambda plan, *args: steps.extend(plan) or walk(plan, *args))
    runs = list(folded_loop(tree, ts.spec, x0, ctrl.law))
    assert len(runs) > 1 and len(steps) > len(ctrl.law.L)
    for k, _, _, _, u1_map, _, terms in steps:
        offsets = [key for key, *_ in terms if key[0] in ("c", "zh", "xh")]
        u1 = u1_map is not None
        if target == "path":
            # The solution's terms: x_h(k+1) and x_h(k), then x_h(k) on u1 rows, then the state lags' x_h(k-j).
            assert offsets[:2] == [("zh", k), ("xh", k)] and offsets.count(("xh", k)) == 1 + u1, k
            assert all(key[0] == "xh" and key[1] < k for key in offsets[2 + u1 :]), k
        else:
            assert offsets == ([] if target is None else [("c", k)]), k
        # a listed c_k's u1 columns are a term exactly on a constant target law's stages with u1 rows
        assert (("c1", k) in [key for key, *_ in terms]) == (target == "constant" and u1), k


@pytest.mark.parametrize("N", [17, 19])
@pytest.mark.parametrize(
    "lag,target", [({}, None), ({}, "path"), ({"d": 2}, None), ({"tau": 2}, None)], ids=["full", "full-path", "d2", "tau2"]
)
def test_folded_loop_keeps_only_the_levels_it_reads(lag, target, N):
    # The top level holds at most BLOCK_ENTRIES entries, as does each run's x(N+1), so the bound holds at
    # any N; a path target's per-node offset meets its map one run at a time. Measured: 0.51 MB on the full
    # route, 0.71 with the path target, 0.86 at d = 2 and 0.91 at tau = 2, at N = 17 and 19 alike. On the full route the
    # breadth-first loop peaks at 9.5 and 37.8 MB (N = 17, 19), with the path target at 15.7 and 62.9 MB.
    n, m = 3, 4
    rng = np.random.default_rng(1)
    ts = random_controllable(rng, n, m, N, **lag)
    tree = PathTree(NoiseModel.rademacher(), N)
    x0 = random_x0(rng, n)
    goal = None if target is None else random_attainable_terminal(rng, tree, ts.form)
    law = steer_to_target(ts, tree, x0, goal).law
    del goal
    leaves = 0
    tracemalloc.start()
    try:
        for first, final in folded_loop(tree, ts.spec, x0, law):
            assert first == leaves
            leaves += len(final)
            del final
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert leaves == tree.n_nodes(N + 1)
    B, d, tau = pathspace.BLOCK_ENTRIES, lag.get("d", 0), lag.get("tau", 0)
    m1 = 0 if ts.spec.B1 is None else ts.spec.B1.shape[1]
    if not lag:
        assert peak <= 1e6, peak
        return
    nodes = B // n  # of a level of at most B entries, n a node
    top = ((d + 1) * n + tau * m1) * nodes * 8  # x(top-d..top) and u1(top-tau..top-1), at most B / n nodes each
    one_run = ((d + 2) * n + tau * m1) * nodes * 8  # x(N-d..N+1) and the u1 pipeline, at most B / n nodes each
    product = B * 8  # a lag times its block, s n wide, at depth <= N - 1: at most B entries
    assert peak <= top + one_run + product + 0.5e6, (peak, top, one_run, product)


def test_synthesize_and_verify_at_the_cap_hold_no_leaf_level(capsys, tmp_path):
    # Full route, two-point noise, N = 19: 2^20 leaves, 25.2 MB a level; the breadth-first loop alone
    # peaks at 37.8 MB. Parsing, the law and the runs stay far below one level.
    N, n, m = 19, 3, 4
    rng = np.random.default_rng(1)
    ts = random_controllable(rng, n, m, N)
    inst = tmp_path / "instance.json"
    inst.write_text(serialize_instance(ProblemInstance(ts.spec, N, x0=random_x0(rng, n))))
    law = tmp_path / "law.json"
    tracemalloc.start()
    try:
        synthesized = run(capsys, "synthesize", "--instance", str(inst), "--out", str(law))
        verified = run(capsys, "verify", "--instance", str(inst), "--controller", str(law))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert synthesized[0] == 0 and verified[0] == 0
    assert report(synthesized[1])["paths"] == str(2**20)
    assert report(verified[1])["terminal_deviation"] == report(synthesized[1])["terminal_deviation"]
    assert peak <= 5e6, peak


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
    assert code == 0 and "x0_error" not in report(out)
    assert law.read_text() == law_text(ctrl)
    code, out, _ = run(capsys, "verify", "--instance", inst, "--controller", str(law))
    assert code == 0 and report(out)["verdict"] == "ok"


def test_folded_loop_builds_each_stage_map_once(monkeypatch):
    # Full route, N = 19, n = 3: 2^20 leaves in 128 runs of 2^13 below a top level at depth 13, so
    # 13 + 128 x 7 = 909 stage steps. The atom stacks and each stage's closed-loop map are built once
    # per loop, not once per run.
    N, n, m = 19, 3, 4
    rng = np.random.default_rng(1)
    ts = random_controllable(rng, n, m, N)
    tree = PathTree(NoiseModel.rademacher(), N)
    x0 = random_x0(rng, n)
    law = steer_to_target(ts, tree, x0, None).law
    stage_maps, walk = synthesis._stage_maps, synthesis._walk
    built, read = [], []
    monkeypatch.setattr(synthesis, "_stage_maps", lambda *args: built.append(stage_maps(*args)) or built[-1])
    monkeypatch.setattr(synthesis, "_walk", lambda plan, *args: read.extend(plan) or walk(plan, *args))
    runs = [first for first, _ in folded_loop(tree, ts.spec, x0, law)]
    assert len(runs) == 128 and len(read) == 909
    assert len(built) == 1 and len(built[0]) == N + 1
    assert all(fold is built[0][k][1] for k, fold, *_ in read)


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("route,lag", [("full", 0), ("tau", 1), ("tau", 3), ("d", 2)])
def test_synthesize_and_verify_of_a_path_target_build_no_per_node_offsets(capsys, tmp_path, monkeypatch, law, route,
                                                                         lag):
    # synthesize builds c_0, one node, and c_1, whose s rows differ, and stops there: the law names its target
    # and the loop reads the target's solution. verify builds none.
    rng = np.random.default_rng([lag, len(law), len(route), 10])
    ts, tree, x0, goal, ctrl = draw(rng, LAWS[law], route, lag, 2, lag + 3, "path")
    inst = write_instance(tmp_path, ts, tree, x0, goal)
    target_offsets, built = synthesis.target_offsets, []

    def counted(*args):
        for ck in target_offsets(*args):
            built.append(len(ck))
            yield ck

    monkeypatch.setattr(synthesis, "target_offsets", counted)
    law_path = tmp_path / "law.json"
    code, out, _ = run(capsys, "synthesize", "--instance", inst, "--out", str(law_path))
    assert code == 0 and built == [1, tree.s]
    assert law_path.read_text() == law_text(ctrl)
    code, verified, _ = run(capsys, "verify", "--instance", inst, "--controller", str(law_path))
    assert code == 0 and built == [1, tree.s]
    assert report(verified)["terminal_deviation"] == report(out)["terminal_deviation"]


@pytest.mark.parametrize("route,lag", ROUTES + [("tau", 3)])
@pytest.mark.parametrize("target", [None, "constant", "path"], ids=["null", "constant", "path"])
@pytest.mark.parametrize("N", [7, 15])
def test_every_term_is_one_contiguous_add_but_a_one_row_offset(monkeypatch, route, lag, target, N):
    # Every term adds its product, as (rows, 1, width), into a (rows, descendants, width) view. A lag's value,
    # x(k-j), u1(k-i) or x_h(k-j), meets its block tiled s^min(j, k) times, so its product covers its one
    # descendant there, and the add is one C-contiguous pass; so do the terms of a path target's solution. Only
    # a listed one-row c_k is spread over more descendants. At N = 15 (n = 2, two-point) the loop runs in runs
    # below its top level. (A block is tiled only while its copies hold at most BLOCK_ENTRIES entries, which
    # no lag here reaches; the bit-for-bit tests above, with BLOCK_ENTRIES cut small, run past that.)
    rng = np.random.default_rng([lag, len(route), 0 if target is None else len(target), N, 12])
    ts, tree, x0, _, ctrl = draw(rng, LAWS["two-point"], route, lag, 2, N, target)
    walk, steps = synthesis._walk, []
    monkeypatch.setattr(synthesis, "_walk", lambda plan, *args: steps.extend(plan) or walk(plan, *args))
    runs = list(folded_loop(tree, ts.spec, x0, ctrl.law))
    assert (len(runs) > 1) == (N == 15)
    added = [(key, prod, into, spread) for *_, terms in steps for key, _, prod, into, spread in terms]
    assert added or target is None and route == "full"
    for key, prod, into, spread in added:
        rows, width = prod.shape
        assert spread.shape == (rows, 1, width) and spread.ctypes.data == prod.ctypes.data, key
        assert into.ndim == 3 and (into.shape[0], into.shape[2]) == (rows, width), key
        if into.shape[1] == 1:
            assert into.flags.c_contiguous and spread.flags.c_contiguous, key
        else:
            assert key[0] in ("c", "c1") and rows == 1, key


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("route,lag", [("tau", 1), ("tau", 2), ("tau", 3), ("d", 1), ("d", 2)])
def test_a_delay_route_path_target_ends_within_rounding_of_the_plant_step_loop(law, route, lag):
    # The folded loop adds the target's solution terms and tiled lag products; the plant-step loop adds
    # per-node offsets and lags through broadcasts. Their x(N+1) agree within 256 eps of the state's scale
    # (measured: 23 eps at most, at N = 0 on tau 3).
    rng = np.random.default_rng([lag, len(law), len(route), 11])
    for N in range(lag + 3):
        ts, tree, x0, goal, ctrl = draw(rng, LAWS[law], route, lag, 2, N, "path")
        assert (ctrl.law.c is None) == (N > 0)
        got = leaves(tree, ts.spec, x0, ctrl.law)
        *_, (_, _, want) = synthesis.feedback_loop(tree, ts.spec, x0, ctrl.law)
        scale = max(1.0, np.abs(want).max(), np.abs(goal).max())
        assert np.abs(got - want).max() <= 256 * EPS * scale, N
