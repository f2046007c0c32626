"""The folded closed loop: one matmul per stage, run subtree by subtree.

``synthesis.folded_loop`` multiplies x(k) by the stage's closed-loop map
[(A + w_j Abar)' + L_k,x' (B + w_j Bbar)']_j and adds the offset and each
acting lag at its own depth. Stage by stage, from the plant-step loop's
own states, its step is checked against ``pathspace.plant_step`` fed by
``synthesis._law_inputs`` on every steerable route (full, tau 1/2,
d 1/2), both noise laws, null, constant and path targets and N <= 8,
within c eps times the entrywise bound of both sums:
|x| |A_w| + |x| |L_x'| |B_w| + |c| |B_w| + each lag's |lag| (|L_lag'| |B_w|
+ |A1'| or |B1'|). The loop yields x(N+1) in runs of leaves; concatenated,
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
change only the sign of a zero, while zeroing a constant or path
target's offsets changes its leaves. ``tracemalloc``
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
from stochctrl.synthesis import _law_inputs, _stage_maps, _start_values
from crosschecks import breadth_first_folded_loop, controller_levels, folded_step, lift
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
        for k, Lk in enumerate(ctrl.law.L):
            v = _law_inputs(spec, ctrl.law, k, xs, u1s, np.empty((tree.n_nodes(k), len(Lk))))
            want = plant_step(tree, spec, plant_maps(tree, spec), xs, k, v[:, :m], u1s[k - tau] if tau else None)
            got, u1k = folded_step(stages[k], dict(vals))  # a copy: the step writes u1(k) and kept lags into it
            bound, u1_bound = fold_bound(tree, spec, ctrl.law, k, xs, u1s)
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
    # A one-row nonzero c_k (a constant target) and a per-node one (a path target) are still applied.
    rng = np.random.default_rng([lag, len(law), len(route), len(target), 6])
    for N in range(5):
        ts, tree, x0, goal, ctrl = draw(rng, LAWS[law], route, lag, 2, N, target)
        got = leaves(tree, ts.spec, x0, ctrl.law)
        assert np.allclose(got, goal, atol=1e-8), N
        zeroed = FeedbackLaw(ctrl.law.L, [np.zeros((1, ck.shape[1])) for ck in ctrl.law.c], ctrl.law.u1_pre)
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
    offsets = [key for k, *_, terms, _, _ in steps for key, *_ in terms if key[0] == "c"]
    assert offsets == ([] if target is None else [("c", k) for k, *_ in steps])
    # c_k's u1 columns are added exactly on a target law's stages with u1 rows
    assert all((c1 is not None) == (target is not None and u1_map is not None) for _, _, _, _, u1_map, _, _, c1, _ in steps)


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
