"""A path target's law: offsets c_k that differ by node, one row per depth-k node.

On every steerable route (full, delayed input with tau 1 and 2, delayed
state with d 1 and 2), under both noise laws and n 1 to 3, synthesize
writes the law of a path target, each c_k a flat row-major list of m+m1
numbers (one row) or s^k (m+m1) (one row per node), with m1 = 0 at a
stage whose u1(k) would enter after stage N. verify replays that
law to synthesize's ``terminal_deviation`` bit for bit, and the table
``write_controller_csv`` writes for the same controller verifies to the
bits of the plant-step loop (``synthesis.feedback_loop``) it was written
from. A stage of any other length, a deep-stage entry that is not a
finite JSON number, and a ``c`` that is not N+1 stages exit 5.
"""
import json

import numpy as np
import pytest

from stochctrl import law_text, write_controller_csv
from test_delay_law import LAWS, draw, report, run, table_deviation, write_instance

ROUTES = [("full", 0), ("tau", 1), ("tau", 2), ("d", 1), ("d", 2)]


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("route,lag", ROUTES)
def test_path_target_law_verifies_to_the_synthesized_deviation_as_its_table_does(
    capsys, tmp_path, law, n, route, lag
):
    rng = np.random.default_rng([n, lag, len(law), len(route)])
    ts, tree, x0, goal, ctrl = draw(rng, LAWS[law], route, lag, n, lag + 2, "path")
    inst = write_instance(tmp_path, ts, tree, x0, goal)
    law_path = tmp_path / "law.json"
    code, out, _ = run(capsys, "synthesize", "--instance", inst, "--out", str(law_path))
    assert code == 0
    synthesized = report(out)["terminal_deviation"]
    text = law_path.read_text()
    assert text == law_text(ctrl)  # the controller the table below is written from
    # u1(k) has entries only while it enters by stage N.
    m1, N = ts.spec.B1.shape[1] if route == "tau" else 0, tree.horizon
    widths = [ts.spec.m + m1 * (k + lag <= N) for k in range(N + 1)]
    stages = json.loads(text)["c"]
    assert all(len(ck) in (1, tree.n_nodes(k)) for k, ck in enumerate(ctrl.law.c))
    assert [len(stage) for stage in stages] == [len(ck) * width for ck, width in zip(ctrl.law.c, widths)]
    assert any(len(stage) > width for stage, width in zip(stages, widths))
    table = tmp_path / "table.csv"
    write_controller_csv(table, ctrl)
    # The law replays synthesize's folded loop; the table, the plant-step loop it was written from.
    for artifact, want in ((law_path, synthesized), (table, table_deviation(ctrl, goal))):
        code, out, _ = run(capsys, "verify", "--instance", inst, "--controller", str(artifact))
        assert code == 0
        assert report(out)["terminal_deviation"] == want, artifact.name


@pytest.fixture(scope="module")
def path_laws(tmp_path_factory):
    """route -> (instance, its path-target law as a dict, c's width m+m1); two-point noise, n 2, N 2."""
    tmp_path = tmp_path_factory.mktemp("path_laws")
    laws = {}
    for route, lag in (("full", 0), ("tau", 1)):
        rng = np.random.default_rng([lag, 5])
        ts, tree, x0, goal, ctrl = draw(rng, LAWS["two-point"], route, lag, 2, 2, "path")
        (tmp_path / route).mkdir()
        inst = write_instance(tmp_path / route, ts, tree, x0, goal)
        doc = json.loads(law_text(ctrl))
        assert len(doc["c"][2]) > len(doc["c"][0])  # stage 2 is deep
        laws[route] = (inst, doc, len(doc["c"][0]))
    return laws


def _stage(k, edit):
    """Replace stage k of c by ``edit(c, width)``."""

    def apply(c, width):
        c[k] = edit(c, width)
        return c

    return apply


def _deep_mark(c, width):
    """Mark the last entry of the deepest stage, for a raw JSON token to replace."""
    c[-1][-1] = "@@"
    return c


def _stages(n_stages):
    return lambda c, width: (c * 2)[:n_stages]


MALFORMED = {
    # case: (route, edit of c, raw JSON token for the "@@" mark, reason)
    "stage-one-short": ("full", _stage(1, lambda c, w: c[1][:-1]), None, "must list 3 numbers (one row) or 2 x 3"),
    "stage-one-row-long": ("full", _stage(2, lambda c, w: c[2] + [0.0] * w), None, "c stage 2 must list 3 numbers"),
    "stage-of-the-next-depth": ("full", _stage(1, lambda c, w: c[2]), None, "c stage 1 must list 3 numbers"),
    "stage-two-rows": ("full", _stage(0, lambda c, w: [0.0] * 2 * w), None, "c stage 0 must list 3 numbers"),
    "stage-nested-rows": ("full", _stage(1, lambda c, w: [[0.0] * w] * 2), None, "c stage 1 must list 3 numbers"),
    "stage-not-a-list": ("full", _stage(1, lambda c, w: 0.0), None, "c stage 1 must list 3 numbers"),
    # m 3, m1 3, tau 1, N 2: stage 1 has u1 columns, so one row of u columns only is short; stage 2
    # has none, as u1(2) would enter after stage N, so a depth-2 stage with them is long.
    "stage-without-u1-columns": ("tau", _stage(1, lambda c, w: [0.0] * 3), None, "or 2 x 6 (one row per depth-1"),
    "stage-with-u1-columns-after-N": (
        "tau", _stage(2, lambda c, w: [0.0] * 4 * 6), None, "or 4 x 3 (one row per depth-2"
    ),
    "deep-true": ("full", _deep_mark, "true", "c entries must be JSON numbers"),
    "deep-null": ("full", _deep_mark, "null", "c entries must be JSON numbers"),
    "deep-string": ("full", _deep_mark, '"1"', "c entries must be JSON numbers"),
    "deep-NaN": ("full", _deep_mark, "NaN", "c entries must be finite"),
    "deep-1e400": ("full", _deep_mark, "1e400", "c entries must be finite"),
    "deep-huge-integer": ("tau", _deep_mark, "1" + "0" * 400, "c entries must be finite"),
    "c-object": ("full", lambda c, w: dict(enumerate(c)), None, "c must be a list of N + 1 = 3 stages"),
    "c-number": ("full", lambda c, w: 0.0, None, "c must be a list of N + 1 = 3 stages"),
    "c-N-stages": ("full", _stages(2), None, "c must be a list of N + 1 = 3 stages"),
    "c-N-plus-2-stages": ("tau", _stages(4), None, "c must be a list of N + 1 = 3 stages"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_path_law_exits_5_with_its_reason(capsys, tmp_path, path_laws, case):
    route, edit, token, reason = MALFORMED[case]
    inst, doc, width = path_laws[route]
    doc = json.loads(json.dumps(doc))
    code, _, _ = run(capsys, "verify", "--instance", inst, "--controller", _write(tmp_path, json.dumps(doc)))
    assert code == 0  # the law as written verifies
    doc["c"] = edit(doc["c"], width)
    text = json.dumps(doc).replace('"@@"', token or '"@@"')
    code, out, err = run(capsys, "verify", "--instance", inst, "--controller", _write(tmp_path, text))
    assert code == 5 and out == ""
    assert err.startswith("bad controller law: ") and reason in err, err


def _write(tmp_path, text: str) -> str:
    path = tmp_path / "law.json"
    path.write_text(text)
    return str(path)
