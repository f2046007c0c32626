"""The delay routes' controller artifact: the feedback law over the lagged regressor.

The law reads r(k), x(k) and the lags that act at stage k: on a delayed
state x(k-j) with j <= k and k - j + d <= N (a state before stage 0 is
zero, and a lag whose effect would enter after stage N has a zero gain),
on a delayed input u1(k-i), ..., u1(k-tau) with i = max(1, k + tau - N),
those entering by stage N. It decides
[u(k), u1(k)] = r(k) L_k' + c_k, u1(k) only while it enters by stage N
(k <= N - tau), so a law with u1 rows or entries past that, as earlier
versions wrote, exits 5; the pre-horizon inputs u1(-tau..) travel
in the law as its "u1" key. synthesize writes every controller as its
law, each c_k one row when every node shares it (the origin and constant
targets), else the target's digest, from which verify rebuilds the
offsets (a path target), and verify replays it bit for bit. verify still takes a table written by
``write_controller_csv``.
"""
import io
import json

import numpy as np
import pytest

from stochctrl import (
    NoiseModel,
    PathTree,
    ProblemInstance,
    folded_loop,
    law_text,
    read_feedback_law,
    serialize_instance,
    steer_to_target,
    write_controller_csv,
)
from stochctrl.cli import main
from stochctrl.criteria import gramian
from stochctrl.delay import input_delay_controller, state_delay_controller
from stochctrl.errors import SingularGramian
from stochctrl.model import path_labels
from stochctrl.sampling import random_attainable_terminal, random_controllable, random_x0
from stochctrl.synthesis import FLOAT_FMT
from conftest import INSTANCE_DIR
from crosschecks import controller_levels, loop_levels
from test_delay import delayed_attainable_terminal

IN_DELAY = str(INSTANCE_DIR / "input_delay_tau1.json")  # n 2, m 3, m1 3, tau 1, N 2
ST_DELAY = str(INSTANCE_DIR / "state_delay_d1.json")  # n 2, m 3, d 1, N 2
LAWS = {"two-point": NoiseModel.rademacher(), "three-point": NoiseModel.symmetric_three_point()}
ROUTES = {"full": steer_to_target, "tau": input_delay_controller, "d": state_delay_controller}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(out):
    return dict(line.split(": ", 1) for line in out.strip().split("\n"))


def table_deviation(ctrl, goal) -> str:
    """The terminal deviation of the plant-step loop a table is written from, as a report prints it."""
    final = controller_levels(ctrl)[1][ctrl.tree.horizon + 1]
    return FLOAT_FMT % np.abs(final if goal is None else final - goal).max()


def draw(rng, noise, route, lag, n, N, target):
    """A steerable system of the route (lag 0 on "full") with x0 and a target (None, "constant" or "path")."""
    tree = PathTree(noise, N)
    for _ in range(20):
        ts = random_controllable(rng, n, 2 * n if N == 0 else n + 1, N, noise=noise, **({route: lag} if lag else {}))
        x0 = random_x0(rng, n)
        if target is None:
            goal = None
        elif target == "constant":
            goal = rng.normal(size=n)
        elif route != "d":
            goal = random_attainable_terminal(rng, tree, ts.form)
        else:
            goal = delayed_attainable_terminal(rng, tree, ts.form, lag)
        try:
            return ts, tree, x0, goal, ROUTES[route](ts, tree, x0, goal)
        except SingularGramian:
            continue
    raise RuntimeError(f"no steerable {route} draw")


def write_instance(tmp_path, ts, tree, x0, goal):
    if goal is not None and np.ndim(goal) == 1:
        goal = np.tile(goal, (tree.n_nodes(tree.horizon + 1), 1))
    target = None if goal is None else dict(zip(path_labels(tree.s, tree.horizon + 1), goal.tolist()))
    path = tmp_path / "instance.json"
    path.write_text(serialize_instance(ProblemInstance(ts.spec, tree.horizon, x0=x0, target=target)))
    return str(path)


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("route,lag", [("tau", 1), ("tau", 2), ("d", 1), ("d", 2)])
def test_law_text_reads_back_and_replays_bit_for_bit(law, n, route, lag):
    rng = np.random.default_rng([n, lag, len(law), len(route)])
    for N in range(lag + 3):  # N < tau included
        for target in (None, "constant"):
            ts, tree, x0, _, ctrl = draw(rng, LAWS[law], route, lag, n, N, target)
            spec = ts.spec
            text = law_text(ctrl)
            assert text is not None, (N, target)
            doc = json.loads(text)
            assert ("u1" in doc) == (route == "tau")
            read = read_feedback_law(io.StringIO(text), tree, ts)
            m1 = spec.B1.shape[1] if route == "tau" else 0
            # Stage k keeps the lags that act: x(k-j) for j <= k whose effect enters by stage N,
            # u1(k-i) entering by stage N.
            widths = [
                n * (1 + len([j for j in range(1, k + 1) if j <= lag and k - j + lag <= N]))
                if route == "d"
                else n + m1 * min(lag, N - k + 1)
                for k in range(N + 1)
            ]
            rows = [spec.m + m1 * (k + lag <= N) for k in range(N + 1)]  # u1(k) rows while it enters by N
            assert [Lk.shape for Lk in read.L] == list(zip(rows, widths))
            assert len(ctrl.law.L) == N + 1
            for got, want in zip(read.L, ctrl.law.L):
                np.testing.assert_array_equal(got, want)
            if route == "tau":
                assert read.u1_pre.shape == (min(lag, N + 1), m1)
                np.testing.assert_array_equal(read.u1_pre, ctrl.law.u1_pre)
            u, x, u1 = loop_levels(tree, spec, x0, read)
            ctrl_u, ctrl_x, ctrl_u1 = controller_levels(ctrl)
            for k in range(N + 2):
                assert np.array_equal(x[k], ctrl_x[k]), (N, target, k)
            for k in range(N + 1):
                assert np.array_equal(u[k], ctrl_u[k]), (N, target, k)
            if route == "tau":
                assert sorted(u1) == sorted(ctrl_u1) == list(range(-lag, N - lag + 1))
                for j in sorted(u1):
                    assert u1[j].shape == (tree.n_nodes(max(0, j)), m1)
                    assert np.array_equal(u1[j], ctrl_u1[j]), (N, target, j)
            else:
                assert u1 is None and ctrl_u1 is None


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("route,lag", [("tau", 1), ("tau", 2), ("d", 1), ("d", 2)])
def test_synthesize_writes_the_law_that_verify_replays(capsys, tmp_path, law, route, lag):
    rng = np.random.default_rng([lag, len(law), len(route)])
    for N, target in ((lag - 1, None), (lag + 1, None), (lag + 1, "constant")):
        ts, tree, x0, goal, _ = draw(rng, LAWS[law], route, lag, 2, N, target)
        inst = write_instance(tmp_path, ts, tree, x0, goal)
        law_path = tmp_path / "law.json"
        code, out, _ = run(capsys, "synthesize", "--instance", inst, "--out", str(law_path))
        assert code == 0
        synthesized = report(out)
        text = law_path.read_text()
        assert json.loads(text)["kind"] == "feedback"
        code, out, _ = run(capsys, "verify", "--instance", inst, "--controller", str(law_path))
        assert code == 0
        assert report(out)["terminal_deviation"] == synthesized["terminal_deviation"]
        # Without --out the same law goes to stdout.
        code, out, _ = run(capsys, "synthesize", "--instance", inst)
        assert code == 0 and out == text


@pytest.mark.parametrize("route,lag", [("tau", 1), ("tau", 2), ("d", 1), ("d", 2)])
def test_path_target_writes_a_law_and_verify_takes_a_written_table(capsys, tmp_path, route, lag):
    rng = np.random.default_rng([lag, len(route)])
    ts, tree, x0, goal, ctrl = draw(rng, LAWS["two-point"], route, lag, 2, lag + 1, "path")
    assert any(len(ck) > 1 for ck in ctrl.law.c)  # offsets that differ by node
    inst = write_instance(tmp_path, ts, tree, x0, goal)
    law = tmp_path / "law.json"
    code, out, _ = run(capsys, "synthesize", "--instance", inst, "--out", str(law))
    assert code == 0
    synthesized = report(out)
    assert law.read_text() == law_text(ctrl)
    code, out, _ = run(capsys, "verify", "--instance", inst, "--controller", str(law))
    assert code == 0
    assert report(out)["terminal_deviation"] == synthesized["terminal_deviation"]
    table = tmp_path / "table.csv"
    write_controller_csv(table, ctrl)
    assert table.read_text().startswith("stage,history,u_0")
    code, out, _ = run(capsys, "verify", "--instance", inst, "--controller", str(table))
    assert code == 0
    assert report(out)["terminal_deviation"] == table_deviation(ctrl, goal)
    # A table written for the null controller verifies too, ending where the plant-step loop ends.
    ts, tree, x0, _, ctrl = draw(rng, LAWS["two-point"], route, lag, 2, lag + 1, None)
    inst = write_instance(tmp_path, ts, tree, x0, None)
    write_controller_csv(table, ctrl)
    law = tmp_path / "law.json"
    law.write_text(law_text(ctrl))
    verified = []
    for artifact in (table, law):
        code, out, _ = run(capsys, "verify", "--instance", inst, "--controller", str(artifact))
        assert code == 0 and report(out)["verdict"] == "ok"
        verified.append(report(out)["terminal_deviation"])
    assert verified[0] == table_deviation(ctrl, None)
    final = np.concatenate([leaves.copy() for _, leaves in folded_loop(tree, ts.spec, x0, ctrl.law)])
    assert verified[1] == FLOAT_FMT % np.abs(final).max()


def _edit(key, value):
    def edit(doc):
        if value is None:
            del doc[key]
        else:
            doc[key] = value

    return edit


MALFORMED = {
    # (instance, edit of its own law, reason)
    "u1-missing": (IN_DELAY, _edit("u1", None), "missing ['u1']"),
    "u1-extra": (ST_DELAY, _edit("u1", [[0.0, 0.0, 0.0]]), "unknown ['u1']"),
    "u1-two-stages": (IN_DELAY, _edit("u1", [[0.0] * 3] * 2), "u1 must be nested lists of shape (1, 3)"),
    "u1-short-row": (IN_DELAY, _edit("u1", [[0.0] * 2]), "u1 must be nested lists of shape (1, 3)"),
    "u1-NaN": (IN_DELAY, _edit("u1", [[0.0, float("nan"), 0.0]]), "u1 entries must be finite"),
    "u1-string": (IN_DELAY, _edit("u1", [[0.0, "1", 0.0]]), "u1 entries must be JSON numbers"),
    # Stage 0 of a d = 1 law has no lag column (x(-1) is zero), so a full-route width fails at stage 1.
    "L-full-route-width": (ST_DELAY, _edit("L", [[[0.0] * 2] * 3] * 3), "L stage 1 must be nested lists of shape (3, 4)"),
    "L-without-u1-rows": (IN_DELAY, _edit("L", [[[0.0] * 5] * 3] * 3), "L stage 0 must be nested lists of shape (6, 5)"),
    # A law written with every lag column at every stage, as earlier versions wrote it.
    "L-never-acting-lag": (
        ST_DELAY,
        lambda doc: doc["L"].__setitem__(0, [row + [0.0, 0.0] for row in doc["L"][0]]),
        "L stage 0 must be nested lists of shape (3, 2)",
    ),
    "c-without-u1-columns": (
        IN_DELAY,
        _edit("c", [[0.0] * 3] * 3),
        "c stage 0 must list 6 numbers (one row)",
    ),
    # tau 1, N 2: u1(2) would enter at stage 3, so stage 2 has no u1 rows of L and no u1 entries of c;
    # earlier versions wrote m1 = 3 of each, all zero.
    "L-u1-rows-after-N": (
        IN_DELAY,
        lambda doc: doc["L"][2].extend([[0.0] * 5] * 3),
        "L stage 2 must be nested lists of shape (3, 5)",
    ),
    "c-u1-entries-after-N": (
        IN_DELAY,
        lambda doc: doc["c"][2].extend([0.0] * 3),
        "c stage 2 must list 3 numbers (one row)",
    ),
    "c-u1-entries-after-N-negative-zero": (
        IN_DELAY,
        lambda doc: doc["c"][2].extend([-0.0] * 3),
        "c stage 2 must list 3 numbers (one row)",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_delay_law_exits_5_with_its_reason(capsys, tmp_path, case):
    inst, edit, reason = MALFORMED[case]
    code, out, _ = run(capsys, "synthesize", "--instance", inst)
    assert code == 0
    doc = json.loads(out)
    edit(doc)
    law = tmp_path / "law.json"
    law.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--instance", inst, "--controller", str(law))
    assert code == 5 and out == ""
    assert err.startswith("bad controller law: ") and reason in err, err


def test_a_long_input_delay_stores_only_the_lags_that_act(capsys, tmp_path):
    # tau = 20,000 at N = 2: u1(k - i) acts only if it enters by stage N, so stage k keeps
    # n + m1 min(tau, N - k + 1) columns, not n + m1 tau = 60,002, and no u1(k) enters by N,
    # so no stage has u1 rows.
    doc = json.loads(open(IN_DELAY).read())
    doc["tau"] = 20_000
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps(doc))
    law = tmp_path / "law.json"
    code, out, _ = run(capsys, "synthesize", "--instance", str(inst), "--out", str(law))
    assert code == 0
    assert law.stat().st_size < 4096
    n, m1, N = 2, 3, 2
    L = json.loads(law.read_text())["L"]
    assert [np.shape(Lk) for Lk in L] == [(3, n + m1 * min(20_000, N - k + 1)) for k in range(N + 1)]
    code, verified, _ = run(capsys, "verify", "--instance", str(inst), "--controller", str(law))
    assert code == 0
    assert report(verified)["terminal_deviation"] == report(out)["terminal_deviation"]


@pytest.mark.parametrize("tau", [1, 2, 3])
def test_input_delay_gramian_adds_the_pre_horizon_terms_to_the_gains_scan(tau):
    # The gains' one Gramian scan plus the pre-horizon sums is gramian(form, N) to the bit, below,
    # at and past tau: synthesize decides on it without a second scan.
    rng = np.random.default_rng(7)
    for N in range(1, 6):  # the draw screens G_N without D1, rank one at N = 0
        ts = random_controllable(rng, 2, 3, N, tau=tau)
        ctrl = input_delay_controller(ts, PathTree(NoiseModel.rademacher(), N), random_x0(rng, 2))
        assert np.array_equal(ctrl.gramian, gramian(ts.form, N)), N


def test_a_state_delay_law_keeps_the_lags_that_act_stage_by_stage():
    # d = 3, N = 6: x(k-j) acts for j <= k with k - j + 3 <= 6, so stages 0..6 hold
    # 1, 2, 3, 4, 4, 3, 2 blocks of n columns.
    rng = np.random.default_rng(3)
    ts, tree, x0, _, ctrl = draw(rng, LAWS["two-point"], "d", 3, 2, 6, None)
    assert [Lk.shape for Lk in ctrl.law.L] == [(ts.spec.m, 2 * blocks) for blocks in (1, 2, 3, 4, 4, 3, 2)]
    read = read_feedback_law(io.StringIO(law_text(ctrl)), tree, ts)
    x, ctrl_x = loop_levels(tree, ts.spec, x0, read)[1], controller_levels(ctrl)[1]
    for k in range(8):
        assert np.array_equal(x[k], ctrl_x[k]), k


def test_a_state_delay_past_the_horizon_is_the_plant_without_it(capsys, tmp_path):
    # d = 10^18 at N = 2: no lag acts, so every command runs as at d = 3 (also past N), and the
    # law is the one for the plant without A1 x(k - d).
    doc = json.loads(open(ST_DELAY).read())
    outputs = {}
    for d in (3, 10**18, None):
        if d is None:
            del doc["A1"], doc["d"]
        else:
            doc["d"] = d
        inst = tmp_path / f"instance_{d}.json"
        inst.write_text(json.dumps(doc))
        for command in ("analyze", "oracle-check"):
            code, outputs[d, command], _ = run(capsys, command, "--instance", str(inst))
            assert code == 0, (d, command)
        law = tmp_path / f"law_{d}.json"
        code, _, _ = run(capsys, "synthesize", "--instance", str(inst), "--out", str(law))
        assert code == 0, d
        code, outputs[d, "verify"], _ = run(capsys, "verify", "--instance", str(inst), "--controller", str(law))
        assert code == 0, d
        outputs[d, "law"] = law.read_text()
    for command in ("analyze", "oracle-check"):
        assert outputs[10**18, command] == outputs[3, command]
    assert outputs[10**18, "law"] == outputs[None, "law"]
    assert report(outputs[10**18, "verify"])["terminal_deviation"] == report(outputs[None, "verify"])["terminal_deviation"]


@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["zero", "negative-zero"])
def test_u1_rows_that_would_enter_after_N_are_not_written_and_refused(capsys, tmp_path, zero):
    # tau 2, N 3: u1(k) enters by stage N for k <= 1 only, so stages 2 and 3 have m rows of L
    # and m entries per row of c, for the origin and a path target alike.
    rng = np.random.default_rng(7)
    m, m1 = 3, 3
    for target in (None, "path"):
        ts, tree, x0, goal, ctrl = draw(rng, LAWS["two-point"], "tau", 2, 2, 3, target)
        assert (ts.spec.m, ts.spec.B1.shape[1]) == (m, m1)
        assert [len(Lk) for Lk in ctrl.law.L] == [m + m1, m + m1, m, m]
        assert [ck.shape[1] for ck in ctrl.law.c] == [m + m1, m + m1, m, m]
    # The law as earlier versions wrote it, with u1 rows and u1 entries of zeros past N - tau, exits 5.
    code, _, _ = run(capsys, "synthesize", "--instance", IN_DELAY, "--out", str(tmp_path / "law.json"))
    assert code == 0
    doc = json.loads((tmp_path / "law.json").read_text())
    assert [len(Lk) for Lk in doc["L"]] == [m + m1, m + m1, m] and len(doc["c"][2]) == m
    doc["L"][2] += [[zero] * len(doc["L"][2][0])] * m1
    doc["c"][2] += [zero] * m1
    law = tmp_path / "old_width.json"
    law.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--instance", IN_DELAY, "--controller", str(law))
    assert code == 5 and out == ""
    assert err.startswith("bad controller law: L stage 2 must be nested lists of shape (3, 5)"), err
