"""A path target's law names its target by digest; its offsets are rebuilt from L and the target.

On every steerable route (full, delayed input with tau 1 and 2, delayed
state with d 1 and 2), under both noise laws and n 1 to 3, synthesize
writes the law of a path target as kind, N and L (plus u1 on a delayed
input) and ``target``, the SHA-256 digest of the instance's leaf rows;
the offsets c_k, which differ by node, are not written. verify checks
the digest, rebuilds the offsets from the law's own L and the target's
homogeneous solution as synthesize built them, and replays the law to
synthesize's ``terminal_deviation`` bit for bit; the table
``write_controller_csv`` writes for the same controller verifies to the
bits of the plant-step loop (``synthesis.feedback_loop``) it was written
from. So the law holds (N+1) m n numbers on the full route, however
many leaves the target has. A digest that does not match or is not 64
lowercase hex characters, a digest law for an instance without a
leaf-row target, a law with both c and target and a law with a per-node
c, as earlier versions wrote, exit 5. A leaf-row target that does not fit
a ``--N`` override is the instance's fault, not the law's: verify exits 6
with synthesize's error. So do one-row offsets c of any
other length, entries that are not finite JSON numbers, and a c that is
not N+1 stages.
"""
import hashlib
import io
import json

import numpy as np
import pytest

from stochctrl import (
    NoiseModel,
    PathTree,
    ProblemInstance,
    law_text,
    parse_instance_file,
    random_attainable_terminal,
    random_controllable,
    random_x0,
    read_feedback_law,
    serialize_instance,
    target_digest,
    validate,
    write_controller_csv,
)
from test_delay_law import LAWS, draw, report, run, table_deviation, write_instance

ROUTES = [("full", 0), ("tau", 1), ("tau", 2), ("d", 1), ("d", 2)]


def _numbers(value) -> int:
    """How many numbers nested lists hold."""
    return sum(map(_numbers, value)) if type(value) is list else 1


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
    # The offsets differ by node, so the law holds its gains (and u1) and the target's digest only.
    assert any(len(ck) > 1 for ck in ctrl.law.c)
    doc = json.loads(text)
    assert sorted(doc) == sorted(["kind", "N", "L", "target"] + (["u1"] if route == "tau" else []))
    assert doc["target"] == ctrl.law.target == target_digest(parse_instance_file(inst).target)
    u1_size = 0 if ctrl.law.u1_pre is None else ctrl.law.u1_pre.size
    assert _numbers(doc["L"]) + _numbers(doc.get("u1", [])) == sum(Lk.size for Lk in ctrl.law.L) + u1_size
    table = tmp_path / "table.csv"
    write_controller_csv(table, ctrl)
    # The law replays synthesize's folded loop; the table, the plant-step loop it was written from.
    for artifact, want in ((law_path, synthesized), (table, table_deviation(ctrl, goal))):
        code, out, _ = run(capsys, "verify", "--instance", inst, "--controller", str(artifact))
        assert code == 0
        assert report(out)["terminal_deviation"] == want, artifact.name


@pytest.mark.parametrize("noise,N", [(NoiseModel.symmetric_three_point(), 9), (NoiseModel.rademacher(), 12)],
                         ids=["three-point-N9", "two-point-N12"])
def test_a_path_target_law_does_not_grow_with_the_tree(capsys, tmp_path, noise, N):
    # n 2, m 3, full route: 59,049 or 8,192 leaves, and a law of (N+1) m n numbers and a 64-character
    # digest either way; the law that listed the offsets held 29,524 or 8,191 rows of them more.
    n, m = 2, 3
    rng = np.random.default_rng([N, 27])
    ts = random_controllable(rng, n, m, N, noise=noise)
    tree = PathTree(noise, N)
    leaves = random_attainable_terminal(rng, tree, ts.form)
    inst = tmp_path / "instance.json"
    inst.write_text(serialize_instance(ProblemInstance(ts.spec, N, x0=random_x0(rng, n), target=leaves)))
    law = tmp_path / "law.json"
    code, out, _ = run(capsys, "synthesize", "--instance", str(inst), "--out", str(law))
    assert code == 0
    doc = json.loads(law.read_text())
    assert sorted(doc) == ["L", "N", "kind", "target"]
    assert _numbers(doc["L"]) == (N + 1) * m * n
    assert len(doc["target"]) == 64 and doc["target"] == target_digest(leaves)
    code, verified, _ = run(capsys, "verify", "--instance", str(inst), "--controller", str(law))
    assert code == 0
    assert report(verified)["terminal_deviation"] == report(out)["terminal_deviation"]


@pytest.mark.parametrize("noise,N", [(NoiseModel.symmetric_three_point(), 9), (NoiseModel.rademacher(), 12)],
                         ids=["three-point-N9", "two-point-N12"])
def test_leaf_rows_as_a_list_and_as_hex_give_the_same_commands(capsys, tmp_path, noise, N):
    # The writer's hex string and the same leaves as a flat list of numbers: synthesize and verify
    # print, exit and write alike, for an attainable target and a random one (not attainable under
    # three-point noise). The law's digest is the SHA-256 of the string's decoded bytes.
    n, m = 2, 3
    rng = np.random.default_rng([N, 31])
    ts = random_controllable(rng, n, m, N, noise=noise)
    tree = PathTree(noise, N)
    x0 = random_x0(rng, n)
    attainable = random_attainable_terminal(rng, tree, ts.form)
    targets = {"attainable": attainable, "random": rng.normal(size=attainable.shape)}
    inst, law, other = tmp_path / "instance.json", tmp_path / "law.json", tmp_path / "other.json"
    commands = {}
    for form in ("hex", "list"):
        for name, leaves in targets.items():
            text = serialize_instance(ProblemInstance(ts.spec, N, x0=x0, target=leaves))
            doc = json.loads(text)
            assert type(doc["target"]) is str
            inst.write_text(text if form == "hex" else json.dumps({**doc, "target": leaves.ravel().tolist()}))
            law.unlink(missing_ok=True)
            synthesized = run(capsys, "synthesize", "--instance", str(inst), "--out", str(law))
            written = law.read_bytes() if law.exists() else None
            if name == "attainable":
                other.write_bytes(written)
                assert json.loads(written)["target"] == hashlib.sha256(bytes.fromhex(doc["target"])).hexdigest()
            # Against the attainable target's law, each instance verifies or its digest does not match.
            verified = run(capsys, "verify", "--instance", str(inst), "--controller", str(other))
            commands[form, name] = (synthesized, written, verified)
    assert commands["hex", "attainable"][0][0] == commands["hex", "attainable"][2][0] == 0
    assert commands["hex", "random"][0][0] == (4 if tree.s == 3 else 0)
    assert commands["hex", "random"][2][0] == 5
    for name in targets:
        assert commands["hex", name] == commands["list", name], name


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("route,lag", ROUTES)
def test_a_digest_law_reads_back_with_synthesizes_offsets_bit_for_bit(law, route, lag):
    # The reader rebuilds a digest law's offsets itself, from a validated system it transforms only then,
    # so what it returns is the law synthesize built, every per-node c_k included, to the last bit.
    rng = np.random.default_rng([lag, len(law), len(route), 45])
    ts, tree, x0, goal, ctrl = draw(rng, LAWS[law], route, lag, 2, lag + 2, "path")
    assert ctrl.law.target is not None and any(len(ck) > 1 for ck in ctrl.law.c)
    read = read_feedback_law(io.StringIO(law_text(ctrl)), tree, validate(ts.spec), goal)
    assert read.target == ctrl.law.target
    assert [ck.shape for ck in read.c] == [ck.shape for ck in ctrl.law.c]
    assert all(got.tobytes() == want.tobytes() for got, want in zip(read.c, ctrl.law.c))


@pytest.fixture(scope="module")
def path_laws(tmp_path_factory):
    """route -> (instance path, its document, the path-target law as a dict); two-point noise, n 2, N 2."""
    tmp_path = tmp_path_factory.mktemp("path_laws")
    laws = {}
    for route, lag in (("full", 0), ("tau", 1)):
        rng = np.random.default_rng([lag, 5])
        ts, tree, x0, goal, ctrl = draw(rng, LAWS["two-point"], route, lag, 2, 2, "path")
        (tmp_path / route).mkdir()
        inst = write_instance(tmp_path / route, ts, tree, x0, goal)
        doc = json.loads(law_text(ctrl))
        assert "target" in doc and "c" not in doc
        # The law as earlier versions wrote it: the offsets, stage 2 one row per depth-2 node.
        per_node = {k: v for k, v in doc.items() if k != "target"}
        per_node["c"] = [ck.ravel().tolist() for ck in ctrl.law.c]
        assert len(per_node["c"][2]) == tree.n_nodes(2) * len(ctrl.law.L[2])
        laws[route] = (inst, json.loads(open(inst).read()), doc, per_node)
    return laws


def _digest(edit):
    return lambda law, per_node: {**law, "target": edit(law["target"])}


DIGEST_LAWS = {
    # case: (route, edit of the law, edit of the instance document or None, reason)
    "digest-of-another-target": (
        "full", _digest(lambda t: ("0" if t[0] != "0" else "1") + t[1:]), None, "does not match the instance's target"
    ),
    "digest-uppercase": ("full", _digest(str.upper), None, "target must be a SHA-256 digest, 64 lowercase hex"),
    "digest-63-characters": ("full", _digest(lambda t: t[:-1]), None, "target must be a SHA-256 digest"),
    "digest-65-characters": ("tau", _digest(lambda t: t + "0"), None, "target must be a SHA-256 digest"),
    "digest-not-hex": ("full", _digest(lambda t: "g" + t[1:]), None, "target must be a SHA-256 digest"),
    "digest-a-number": ("full", _digest(lambda t: 0), None, "target must be a SHA-256 digest"),
    "digest-null": ("full", _digest(lambda t: None), None, "target must be a SHA-256 digest"),
    "instance-without-target": (
        "full", lambda law, per_node: law, lambda doc: doc.pop("target"), "the instance has no target"
    ),
    "instance-with-an-n-vector-target": (
        "tau", lambda law, per_node: law, lambda doc: doc.update(target=[0.5, -0.5]),
        "the instance has a constant (n-vector) target",
    ),
    "both-c-and-target": (
        "full", lambda law, per_node: {**law, "c": [[0.0] * 3] * 3}, None, "law has both c and target"
    ),
    "per-node-c": (
        "full", lambda law, per_node: per_node, None,
        "c stage 1 must list 3 numbers (one row); one row per depth-1 node is an earlier version's form",
    ),
    "per-node-c-with-u1": (
        "tau", lambda law, per_node: per_node, None,
        "c stage 1 must list 6 numbers (one row); one row per depth-1 node is an earlier version's form",
    ),
}


@pytest.mark.parametrize("case", sorted(DIGEST_LAWS))
def test_a_digest_law_that_does_not_name_the_instances_leaf_rows_exits_5(capsys, tmp_path, path_laws, case):
    route, edit_law, edit_instance, reason = DIGEST_LAWS[case]
    inst, inst_doc, law, per_node = path_laws[route]
    code, _, _ = run(capsys, "verify", "--instance", inst, "--controller", _write(tmp_path, json.dumps(law)))
    assert code == 0  # the law as written verifies
    if edit_instance is not None:
        inst_doc = json.loads(json.dumps(inst_doc))
        edit_instance(inst_doc)
        inst = tmp_path / "instance.json"
        inst.write_text(json.dumps(inst_doc))
    text = json.dumps(edit_law(law, per_node))
    code, out, err = run(capsys, "verify", "--instance", str(inst), "--controller", _write(tmp_path, text))
    assert code == 5 and out == ""
    assert err.startswith("bad controller law: ") and reason in err, err


def test_a_target_written_for_another_horizon_fails_verify_as_it_fails_synthesize(capsys, tmp_path, path_laws):
    # The instance's target lists N = 1's four leaf rows and --N 2 asks for eight. The law names those
    # very rows by digest, so the instance is at fault, not the law: verify exits 6 with synthesize's error.
    inst, inst_doc, law, _ = path_laws["full"]
    doc = {**inst_doc, "N": 1, "target": parse_instance_file(inst).target[:4].ravel().tolist()}
    short = tmp_path / "instance.json"
    short.write_text(json.dumps(doc))
    named = _write(tmp_path, json.dumps({**law, "target": target_digest(parse_instance_file(str(short)).target)}))
    synthesized = run(capsys, "synthesize", "--instance", str(short), "--N", "2")
    assert synthesized == (6, "", "error: target leaf array has shape (4, 2); depth 3 needs (8, 2)\n")
    assert run(capsys, "verify", "--instance", str(short), "--N", "2", "--controller", named) == synthesized


@pytest.fixture(scope="module")
def one_row_laws(tmp_path_factory):
    """route -> (instance, its constant-target law as a dict, c's width m+m1); two-point noise, n 2, N 2."""
    tmp_path = tmp_path_factory.mktemp("one_row_laws")
    laws = {}
    for route, lag in (("full", 0), ("tau", 1)):
        rng = np.random.default_rng([lag, 5])
        ts, tree, x0, goal, ctrl = draw(rng, LAWS["two-point"], route, lag, 2, 2, "constant")
        (tmp_path / route).mkdir()
        inst = write_instance(tmp_path / route, ts, tree, x0, goal)
        doc = json.loads(law_text(ctrl))
        assert all(len(stage) == len(Lk) for stage, Lk in zip(doc["c"], ctrl.law.L))
        assert any(x != 0.0 for stage in doc["c"] for x in stage)
        laws[route] = (inst, doc, len(doc["c"][0]))
    return laws


def _stage(k, edit):
    """Replace stage k of c by ``edit(c, width)``."""

    def apply(c, width):
        c[k] = edit(c, width)
        return c

    return apply


def _last_mark(c, width):
    """Mark the last entry of the last stage, for a raw JSON token to replace."""
    c[-1][-1] = "@@"
    return c


def _stages(n_stages):
    return lambda c, width: (c * 2)[:n_stages]


MALFORMED = {
    # case: (route, edit of c, raw JSON token for the "@@" mark, reason)
    "stage-one-short": ("full", _stage(1, lambda c, w: c[1][:-1]), None, "c stage 1 must list 3 numbers (one row)"),
    "stage-one-row-long": ("full", _stage(2, lambda c, w: c[2] + [0.0] * w), None, "c stage 2 must list 3 numbers"),
    "stage-per-node": ("full", _stage(1, lambda c, w: c[1] * 2), None, "one row per depth-1 node is an earlier"),
    "stage-two-rows": ("full", _stage(0, lambda c, w: [0.0] * 2 * w), None, "c stage 0 must list 3 numbers"),
    "stage-nested-rows": ("full", _stage(1, lambda c, w: [[0.0] * w] * 2), None, "c stage 1 must list 3 numbers"),
    "stage-not-a-list": ("full", _stage(1, lambda c, w: 0.0), None, "c stage 1 must list 3 numbers"),
    # m 3, m1 3, tau 1, N 2: stage 1 has u1 columns, so one row of u columns only is short; stage 2
    # has none, as u1(2) would enter after stage N, so a row with them is long.
    "stage-without-u1-columns": ("tau", _stage(1, lambda c, w: [0.0] * 3), None, "c stage 1 must list 6 numbers"),
    "stage-with-u1-columns-after-N": ("tau", _stage(2, lambda c, w: [0.0] * 6), None, "c stage 2 must list 3 numbers"),
    "last-true": ("full", _last_mark, "true", "c entries must be JSON numbers"),
    "last-null": ("full", _last_mark, "null", "c entries must be JSON numbers"),
    "last-string": ("full", _last_mark, '"1"', "c entries must be JSON numbers"),
    "last-NaN": ("full", _last_mark, "NaN", "c entries must be finite"),
    "last-1e400": ("full", _last_mark, "1e400", "c entries must be finite"),
    "last-huge-integer": ("tau", _last_mark, "1" + "0" * 400, "c entries must be finite"),
    "c-object": ("full", lambda c, w: dict(enumerate(c)), None, "c must be a list of N + 1 = 3 stages"),
    "c-number": ("full", lambda c, w: 0.0, None, "c must be a list of N + 1 = 3 stages"),
    "c-N-stages": ("full", _stages(2), None, "c must be a list of N + 1 = 3 stages"),
    "c-N-plus-2-stages": ("tau", _stages(4), None, "c must be a list of N + 1 = 3 stages"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_one_row_offsets_exit_5_with_their_reason(capsys, tmp_path, one_row_laws, case):
    route, edit, token, reason = MALFORMED[case]
    inst, doc, width = one_row_laws[route]
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
