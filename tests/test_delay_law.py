"""The delay routes' controller artifact: the feedback law over the lagged regressor.

On a delayed state the law reads r(k) = [x(k), x(k-1), ..., x(k-min(d, k))],
on a delayed input r(k) = [x(k), u1(k-i), ..., u1(k-tau)] with
i = max(1, k + tau - N), the lags that act, and decides
[u(k), u1(k)] = r(k) L_k' + c_k; the pre-horizon inputs u1(-tau..) travel
in the law as its "u1" key. synthesize writes every controller as its
law, each c_k one row when every node shares it (the origin and constant
targets) and one row per depth-k node otherwise (a path target), and
verify replays it bit for bit. verify still takes a table written by
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
    feedback_loop,
    law_text,
    read_feedback_law,
    serialize_instance,
    steer_to_target,
    write_controller_csv,
)
from stochctrl.cli import main
from stochctrl.delay import input_delay_controller, state_delay_controller
from stochctrl.errors import SingularGramian
from stochctrl.model import path_labels
from stochctrl.sampling import random_attainable_terminal, random_controllable, random_x0
from conftest import INSTANCE_DIR
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
            read = read_feedback_law(io.StringIO(text), tree, spec)
            m1 = spec.B1.shape[1] if route == "tau" else 0
            # Stage k keeps the lags that act: x(k-j) for j <= k, u1(k-i) entering by stage N.
            widths = [n * (1 + min(lag, k)) if route == "d" else n + m1 * min(lag, N - k + 1) for k in range(N + 1)]
            assert [Lk.shape for Lk in read.L] == [(spec.m + m1, w) for w in widths]
            assert len(ctrl.law.L) == N + 1
            for got, want in zip(read.L, ctrl.law.L):
                np.testing.assert_array_equal(got, want)
            if route == "tau":
                assert read.u1_pre.shape == (min(lag, N + 1), m1)
                np.testing.assert_array_equal(read.u1_pre, ctrl.law.u1_pre)
            u, x, u1 = feedback_loop(tree, spec, x0, read)
            for k in range(N + 2):
                assert np.array_equal(x.at(k), ctrl.x.at(k)), (N, target, k)
            for k in range(N + 1):
                assert np.array_equal(u.at(k), ctrl.u.at(k)), (N, target, k)
            if route == "tau":
                assert u1.stages() == ctrl.u1.stages() == list(range(-lag, N - lag + 1))
                for j in u1.stages():
                    assert u1.depth(j) == ctrl.u1.depth(j) == max(0, j)
                    assert np.array_equal(u1.at(j), ctrl.u1.at(j)), (N, target, j)
            else:
                assert u1 is None and ctrl.u1 is None


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
    assert any(ctrl.law.c.depths.values())  # offsets that differ by node
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
    assert report(out)["terminal_deviation"] == synthesized["terminal_deviation"]
    # A table written for the null controller verifies too, ending where its law ends.
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
    assert verified[0] == verified[1]


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
        "c stage 0 must list 6 numbers (one row) or 1 x 6 (one row per depth-0 node)",
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
    # n + m1 min(tau, N - k + 1) columns, not n + m1 tau = 60,002.
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
    assert [np.shape(Lk) for Lk in L] == [(3 + m1, n + m1 * min(20_000, N - k + 1)) for k in range(N + 1)]
    code, verified, _ = run(capsys, "verify", "--instance", str(inst), "--controller", str(law))
    assert code == 0
    assert report(verified)["terminal_deviation"] == report(out)["terminal_deviation"]

