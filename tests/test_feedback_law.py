"""The full route's controller artifact: the feedback law u(k) = x(k) L_k' + c_k.

synthesize writes every controller as its law in JSON, each offset c_k
one row when every node shares it (the origin and any constant target),
else one row per depth-k node; verify tells a law from a CSV table by the
file's first byte after any whitespace and replays a law through the
same loop synthesize ran, so its states and its reported deviation equal
synthesize's exactly. A malformed law exits 5 with the reason named.
"""
import io
import json

import numpy as np
import pytest

from stochctrl import (
    NoiseModel,
    PathTree,
    ProblemInstance,
    SchemaError,
    feedback_loop,
    law_text,
    parse_instance_file,
    random_attainable_terminal,
    random_controllable,
    random_x0,
    read_feedback_law,
    serialize_instance,
    steer_to_target,
)
from stochctrl.cli import main
from stochctrl.model import path_labels
from conftest import INSTANCE_DIR

FULL = str(INSTANCE_DIR / "fullrank_2x3.json")  # n 2, m 3, N 2
IN_DELAY = str(INSTANCE_DIR / "input_delay_tau1.json")
LAWS = {"two-point": NoiseModel.rademacher(), "three-point": NoiseModel.symmetric_three_point()}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(out):
    return dict(line.split(": ", 1) for line in out.strip().split("\n"))


def write_instance(tmp_path, rng, noise, n, N, target):
    """A controllable full-route instance; ``target`` is None, "constant" or "path"."""
    ts = random_controllable(rng, n, 2 * n if N == 0 else n + 1, N, noise=noise)
    tree = PathTree(noise, N)
    if target is None:
        goal = None
    else:
        leaves = random_attainable_terminal(rng, tree, ts.form) if target == "path" else np.tile(
            rng.normal(size=n), (tree.n_nodes(N + 1), 1)
        )
        goal = dict(zip(path_labels(tree.s, N + 1), leaves.tolist()))
    path = tmp_path / "instance.json"
    path.write_text(serialize_instance(ProblemInstance(ts.spec, N, x0=random_x0(rng, n), target=goal)))
    return str(path)


def synthesize_and_verify(capsys, tmp_path, inst):
    out_path = tmp_path / "controller"
    code, out, _ = run(capsys, "synthesize", "--instance", inst, "--out", str(out_path))
    assert code == 0
    synthesized = report(out)
    code, out, _ = run(capsys, "verify", "--instance", inst, "--controller", str(out_path))
    assert code == 0
    return out_path.read_text(), synthesized, report(out)


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("target", [None, "constant"], ids=["null", "constant"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_null_and_constant_targets_write_a_law_that_verify_replays_exactly(capsys, tmp_path, law, target, n):
    rng = np.random.default_rng([n, len(law), target is None])
    for N in (0, 2, 4):
        inst = write_instance(tmp_path, rng, LAWS[law], n, N, target)
        text, synthesized, verified = synthesize_and_verify(capsys, tmp_path, inst)
        doc = json.loads(text)
        assert doc["kind"] == "feedback" and doc["N"] == N
        assert verified["terminal_deviation"] == synthesized["terminal_deviation"]
        # Without --out the same law goes to stdout.
        code, out, _ = run(capsys, "synthesize", "--instance", inst)
        assert code == 0 and out == text


def test_law_has_one_gain_and_one_offset_per_stage(capsys, tmp_path):
    # fullrank_2x3 at N = 4: (N+1)(m n + m) = 5 (6 + 3) numbers.
    code, out, _ = run(capsys, "synthesize", "--instance", FULL, "--N", "4")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["L", "N", "c", "kind"]
    assert np.asarray(doc["L"]).shape == (5, 3, 2) and np.asarray(doc["c"]).shape == (5, 3)
    assert np.asarray(doc["L"]).size + np.asarray(doc["c"]).size == 5 * (3 * 2 + 3)


@pytest.mark.parametrize("law", sorted(LAWS))
def test_path_target_with_node_varying_offsets_writes_a_law(capsys, tmp_path, law):
    rng = np.random.default_rng(len(law))
    inst = write_instance(tmp_path, rng, LAWS[law], 2, 3, "path")
    text, synthesized, verified = synthesize_and_verify(capsys, tmp_path, inst)
    doc = json.loads(text)
    assert doc["kind"] == "feedback"
    s = len(LAWS[law].support)
    # m = 3: each c_k is one row of 3 or s^k rows of 3, and some stage has one row per node.
    assert all(len(stage) in (3, s**k * 3) for k, stage in enumerate(doc["c"]))
    assert any(len(stage) > 3 for stage in doc["c"])
    assert verified["terminal_deviation"] == synthesized["terminal_deviation"]


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("target", [None, "constant"], ids=["null", "constant"])
def test_read_law_reproduces_the_synthesized_states_bit_for_bit(rng, law, target):
    noise = LAWS[law]
    N, n = 5, 3
    ts = random_controllable(rng, n, n + 1, N, noise=noise)
    tree = PathTree(noise, N)
    goal = None if target is None else rng.normal(size=n)
    ctrl = steer_to_target(ts, tree, random_x0(rng, n), goal)
    text = law_text(ctrl)
    assert text is not None
    law = read_feedback_law(io.StringIO(text), tree, ts.spec)
    assert len(law.L) == len(ctrl.law.L) == N + 1
    for got, want in zip(law.L, ctrl.law.L):
        np.testing.assert_array_equal(got, want)
    u, x, u1 = feedback_loop(tree, ts.spec, ctrl.x.at(0)[0], law)
    assert u1 is None
    for k in range(N + 2):
        np.testing.assert_array_equal(x.at(k), ctrl.x.at(k))
    for k in range(N + 1):
        np.testing.assert_array_equal(u.at(k), ctrl.u.at(k))


def _full_law(capsys):
    """FULL's law at its own horizon N = 2: L is 3 x 3 x 2, c is 3 x 3."""
    code, out, _ = run(capsys, "synthesize", "--instance", FULL)
    assert code == 0
    return out


DROP = object()


def _edit(key, value):
    """Replace one key of the law (or drop it when ``value`` is ``DROP``)."""

    def edit(text):
        doc = json.loads(text)
        if value is DROP:
            del doc[key]
        else:
            doc[key] = value
        return json.dumps(doc)

    return edit


def _entry(key, token):
    """Put a raw JSON token in the first entry of L or c."""

    def edit(text):
        doc = json.loads(text)
        first = doc[key][0]
        while isinstance(first[0], list):
            first = first[0]
        first[0] = "@@"
        return json.dumps(doc).replace('"@@"', token)

    return edit


ZEROS_L = [[[0.0] * 2] * 3] * 3
MALFORMED = {
    "not-json": (lambda text: "{oops", "not valid JSON"),
    "integer-too-long": (lambda text: text.replace('"N": 2', '"N": 1' + "0" * 5000), "not valid JSON"),
    "not-utf8": (lambda text: text[:-2] + "\udcff}", "not UTF-8 text: byte 0xff, invalid start byte"),
    "nested-too-deep": (lambda text: '{"L": ' + "[" * 100_000 + "]" * 100_000 + "}", "not valid JSON: maximum recursion"),
    "missing-key": (_edit("c", DROP), "missing ['c']"),
    "extra-key": (_edit("gain", 1.0), "unknown ['gain']"),
    "kind-table": (_edit("kind", "table"), "kind must be 'feedback'"),
    "N-other-horizon": (_edit("N", 3), "law N is 3, the horizon being verified is 2"),
    "N-true": (_edit("N", True), "law N is True"),
    "N-float": (_edit("N", 2.0), "law N is 2.0"),
    "L-one-stage-short": (_edit("L", ZEROS_L[:2]), "L must be a list of N + 1 = 3 stages"),
    "L-transposed": (_edit("L", [[[0.0] * 3] * 2] * 3), "L stage 0 must be nested lists of shape (3, 2)"),
    "L-flat": (_edit("L", [0.0] * 18), "L must be a list of N + 1 = 3 stages"),
    "L-flat-stage": (_edit("L", [[0.0] * 6] * 3), "L stage 0 must be nested lists of shape (3, 2)"),
    "c-one-stage-long": (_edit("c", [[0.0] * 3] * 4), "c must be a list of N + 1 = 3 stages"),
    "c-ragged": (
        _edit("c", [[0.0] * 3, [0.0] * 2, [0.0] * 3]),
        "c stage 1 must list 3 numbers (one row) or 2 x 3 (one row per depth-1 node)",
    ),
    "L-true": (_entry("L", "true"), "L stage 0 entries must be JSON numbers"),
    "L-string": (_entry("L", '"1"'), "L stage 0 entries must be JSON numbers"),
    "c-null": (_entry("c", "null"), "c entries must be JSON numbers"),
    "L-NaN": (_entry("L", "NaN"), "L stage 0 entries must be finite"),
    "c-Infinity": (_entry("c", "Infinity"), "c entries must be finite"),
    "c-minus-Infinity": (_entry("c", "-Infinity"), "c entries must be finite"),
    "L-1e400": (_entry("L", "1e400"), "L stage 0 entries must be finite"),
    "c-huge-integer": (_entry("c", "1" + "0" * 400), "c entries must be finite"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_law_exits_5_with_its_reason(capsys, tmp_path, case):
    edit, reason = MALFORMED[case]
    law = tmp_path / "law.json"
    law.write_text(edit(_full_law(capsys)), encoding="utf-8", errors="surrogateescape")
    code, out, err = run(capsys, "verify", "--instance", FULL, "--controller", str(law))
    assert code == 5 and out == ""
    assert err.startswith("bad controller law: ") and reason in err, err


def test_law_for_another_horizon_exits_5_under_N(capsys, tmp_path):
    law = tmp_path / "law.json"
    code, _, _ = run(capsys, "synthesize", "--instance", FULL, "--N", "3", "--out", str(law))
    assert code == 0
    code, _, _ = run(capsys, "verify", "--instance", FULL, "--N", "3", "--controller", str(law))
    assert code == 0
    code, _, err = run(capsys, "verify", "--instance", FULL, "--N", "4", "--controller", str(law))
    assert code == 5
    assert "law N is 3, the horizon being verified is 4" in err
    code, _, err = run(capsys, "verify", "--instance", FULL, "--controller", str(law))
    assert code == 5
    assert "law N is 3, the horizon being verified is 2" in err


def test_law_for_a_delay_route_exits_5(capsys, tmp_path):
    # input_delay_tau1 has n 2, m 3 and N 2, as fullrank_2x3: its law also carries the pre-horizon u1.
    law = tmp_path / "law.json"
    law.write_text(_full_law(capsys))
    code, _, err = run(capsys, "verify", "--instance", IN_DELAY, "--controller", str(law))
    assert code == 5
    assert "missing ['u1']" in err


def test_top_level_must_be_an_object():
    # A file starting with '[' is read as a table; the law reader itself names the fault.
    tree = PathTree(NoiseModel.rademacher(), 2)
    spec = parse_instance_file(FULL).system
    with pytest.raises(SchemaError, match="top level must be a JSON object"):
        read_feedback_law(io.StringIO("[1, 2]"), tree, spec)
