"""Command-line contract: verdicts, exit codes, formats, determinism."""
import inspect
import json
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochctrl import (
    NoiseModel,
    PathTree,
    ProblemInstance,
    SystemSpec,
    TransformedSystem,
    gramian,
    gramian_oracle,
    parse_instance_file,
    random_attainable_terminal,
    serialize_instance,
    validate,
    write_controller_csv,
)
from stochctrl.cli import ROUTES, _deviation, _route, main
from stochctrl.sampling import random_controllable, random_x0
from conftest import INSTANCE_DIR

FULL = str(INSTANCE_DIR / "fullrank_2x3.json")
OUTPUT = str(INSTANCE_DIR / "output_1of2.json")
IN_DELAY = str(INSTANCE_DIR / "input_delay_tau1.json")
ST_DELAY = str(INSTANCE_DIR / "state_delay_d1.json")
UNCTRL = str(INSTANCE_DIR / "uncontrollable_2x3.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def as_dict(out):
    pairs = {}
    for line in out.strip().split("\n"):
        key, _, value = line.partition(": ")
        pairs[key] = value
    return pairs


def written_table(tmp_path, instance=FULL, N=None, name="controller.csv"):
    """The instance's null controller as a CSV table (synthesize writes its law instead)."""
    inst = parse_instance_file(instance)
    vs = validate(inst.system)
    tree = PathTree(inst.system.noise, inst.N if N is None else N)
    table = tmp_path / name
    write_controller_csv(table, ROUTES[_route(vs)].controller(TransformedSystem.build(vs), tree, inst.x0, None, 1e-8))
    return table


def test_analyze_full(capsys):
    code, out, _ = run(capsys, "analyze", "--instance", FULL)
    assert code == 0
    got = as_dict(out)
    assert got["verdict"] == "exactly controllable"
    assert got["witness_N"] == "1"
    assert got["rank_R"] == "2"
    assert got["gramian_0_0"] == "2.04296875"
    assert got["transform"] == "user"


def test_analyze_partial(capsys):
    code, out, _ = run(capsys, "analyze", "--instance", OUTPUT)
    assert code == 0
    got = as_dict(out)
    assert got["verdict"] == "H-partially exactly controllable"
    assert got["dim"] == "1"
    assert got["gramian_0_0"] == "31"


def test_analyze_delays(capsys):
    code, out, _ = run(capsys, "analyze", "--instance", IN_DELAY)
    assert code == 0
    assert as_dict(out)["verdict"] == "exactly controllable (input delay)"
    code, out, _ = run(capsys, "analyze", "--instance", ST_DELAY)
    assert code == 0
    got = as_dict(out)
    assert got["verdict"] == "exactly controllable (state delay)"
    assert got["witness_N"] == "1"


def test_analyze_uncontrollable(capsys):
    code, out, _ = run(capsys, "analyze", "--instance", UNCTRL)
    assert code == 1
    got = as_dict(out)
    assert got["verdict"] == "not exactly controllable"
    assert got["witness_N"] == "none"


def test_analyze_of_a_state_in_small_units_agrees_with_itself(capsys, tmp_path):
    # x -> s x leaves C and Cbar as they are and scales D by s. The form is mapped back to
    # (A, B, Abar, Bbar) as sampling.random_system does: A = S + L Abar and B = [L F] M^-1,
    # with S = C^-1, L = -S Cbar and F = -S D. At s = 1e-16 the rank test must still find
    # the span the Gramian finds.
    ts = random_controllable(np.random.default_rng(44), 2, 3, 2)
    spec, form = ts.spec, ts.form
    S = np.linalg.inv(form.C)
    reports = []
    for s in (1.0, 1e-16):
        L, F = -S @ form.Cbar, -S @ (s * form.D)
        system = SystemSpec(A=S + L @ spec.Abar, B=np.hstack([L, F]) @ np.linalg.inv(ts.M), Abar=spec.Abar, Bbar=spec.Bbar)
        inst = tmp_path / f"scaled_{s}.json"
        inst.write_text(serialize_instance(ProblemInstance(system, 2)))
        code, out, _ = run(capsys, "analyze", "--instance", str(inst))
        assert code == 0
        reports.append(as_dict(out))
    for got in reports:
        assert got["verdict"] == "exactly controllable" and got["criteria_agree"] == "yes"
        assert (got["rank_R"], got["span_depth"], got["witness_N"]) == (reports[0]["rank_R"], reports[0]["span_depth"], reports[0]["witness_N"])


def test_analyze_horizon_override(capsys):
    code, out, _ = run(capsys, "analyze", "--instance", FULL, "--N", "5")
    assert code == 0
    got = as_dict(out)
    assert got["N_max"] == "5"
    assert "min_singular_5" in got


def test_analyze_deterministic(capsys):
    first = run(capsys, "analyze", "--instance", FULL)
    second = run(capsys, "analyze", "--instance", FULL)
    assert first == second


def test_csv_format(capsys):
    code, out, _ = run(capsys, "analyze", "--instance", FULL, "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "command,analyze"
    assert any(line.startswith("gramian_0_0,") for line in lines)


def test_report_to_file(capsys, tmp_path):
    dest = tmp_path / "report.txt"
    code, out, _ = run(capsys, "analyze", "--instance", FULL, "--out", str(dest))
    assert code == 0
    assert dest.read_text() == out


def test_synthesize_and_verify_roundtrip(capsys, tmp_path):
    table = tmp_path / "controller.csv"
    code, out, _ = run(capsys, "synthesize", "--instance", FULL, "--out", str(table))
    assert code == 0
    got = as_dict(out)
    assert float(got["terminal_deviation"]) < 1e-8
    assert got["controller"] == str(table)

    code, out, _ = run(capsys, "verify", "--instance", FULL, "--controller", str(table))
    assert code == 0
    assert as_dict(out)["verdict"] == "ok"


def test_synthesize_streams_csv_without_out(capsys):
    # Every route streams its law: each bundled target is the origin.
    for inst in (FULL, IN_DELAY, ST_DELAY):
        code, out, _ = run(capsys, "synthesize", "--instance", inst)
        assert code == 0
        assert json.loads(out)["kind"] == "feedback"
        assert "verdict" not in out


def test_synthesize_delay_routes(capsys, tmp_path):
    for inst in (IN_DELAY, ST_DELAY):
        table = tmp_path / "c.csv"
        code, out, _ = run(capsys, "synthesize", "--instance", inst, "--out", str(table))
        assert code == 0
        code, _, _ = run(capsys, "verify", "--instance", inst, "--controller", str(table))
        assert code == 0


@pytest.mark.parametrize("inst", [FULL, IN_DELAY, ST_DELAY])
def test_synthesize_fails_past_its_own_tolerance(capsys, tmp_path, inst):
    # Each closed loop ends within 1e-13 of the origin, but not on it.
    table = tmp_path / "c.csv"
    code, out, _ = run(capsys, "synthesize", "--instance", inst, "--tol", "1e-30", "--out", str(table))
    got = as_dict(out)
    assert code == 1
    assert 1e-30 < float(got["terminal_deviation"]) < 1e-13
    assert got["tolerance"] == "1.0000000000000001e-30"
    artifact = '{"kind": "feedback"'
    assert table.read_text().startswith(artifact)
    code, out, _ = run(capsys, "synthesize", "--instance", inst, "--tol", "1e-30")
    assert code == 1
    assert out.startswith(artifact)


def test_synthesize_inapplicable_routes(capsys):
    code, _, err = run(capsys, "synthesize", "--instance", OUTPUT)
    assert code == 2
    assert "inapplicable" in err


def test_synthesize_singular_gramian(capsys):
    code, _, err = run(capsys, "synthesize", "--instance", UNCTRL)
    assert code == 3
    assert "singular" in err


def test_synthesize_unattainable_target(capsys, tmp_path):
    # three-atom noise with a terminal that is quadratic in the last digit
    doc = json.loads((INSTANCE_DIR / "fullrank_2x3.json").read_text())
    doc["N"] = 1
    doc["noise"] = {"support": [-2.0, 0.0, 2.0], "probs": [0.125, 0.75, 0.125]}
    support = doc["noise"]["support"]
    doc["target"] = [v for i in range(3) for j in range(3) for v in (support[j] ** 2, 0.0)]  # leaf "ij"
    inst = tmp_path / "unattainable.json"
    inst.write_text(json.dumps(doc))
    code, _, err = run(capsys, "synthesize", "--instance", str(inst))
    assert code == 4
    # x(2) = [w^2, 0] leaves |w^2 - E w^2| = 3 at w = +-2 unrepresented at stage 1, against
    # 1e-8 x max |target| = 4e-8.
    assert err == (
        "target not attainable: representation residual 3.000e+00 at stage 1 exceeds 4.000e-08 "
        "(tolerance 1e-08 x max(1, max |target|))\n"
    )


def test_verify_rejects_wrong_controller(capsys, tmp_path):
    table = written_table(tmp_path)
    code, out, _ = run(capsys, "verify", "--instance", FULL, "--controller", str(table))
    assert code == 0
    # zero out every input: the loop no longer reaches the origin
    lines = table.read_text().strip().split("\n")
    header, rows = lines[0], lines[1:]
    zeroed = [",".join(r.split(",")[:2] + ["0", "0", "0"]) for r in rows]
    table.write_text("\n".join([header] + zeroed) + "\n")
    code, out, _ = run(capsys, "verify", "--instance", FULL, "--controller", str(table))
    assert code == 1
    assert as_dict(out)["verdict"] == "failed"


def test_verify_malformed_table(capsys, tmp_path):
    table = tmp_path / "broken.csv"
    table.write_text("stage,history,u_0,u_1,u_2\n0,,1.0,oops,3.0\n")
    code, _, err = run(capsys, "verify", "--instance", FULL, "--controller", str(table))
    assert code == 5
    assert "bad controller table" in err


@pytest.mark.parametrize("lead", ["\n", " \t\r\n"], ids=["newline", "json-whitespace"])
def test_verify_reads_a_law_after_leading_whitespace(capsys, tmp_path, lead):
    law = tmp_path / "law.json"
    code, out, _ = run(capsys, "synthesize", "--instance", IN_DELAY, "--out", str(law))
    assert code == 0
    law.write_text(lead + law.read_text())
    code, verified, err = run(capsys, "verify", "--instance", IN_DELAY, "--controller", str(law))
    assert code == 0 and err == ""
    assert as_dict(verified)["terminal_deviation"] == as_dict(out)["terminal_deviation"]


@pytest.mark.parametrize("text", ["", " \n\t\r\n"], ids=["empty", "whitespace-only"])
def test_verify_reads_an_empty_or_blank_file_as_a_table(capsys, tmp_path, text):
    blank = tmp_path / "blank"
    blank.write_text(text)
    code, out, err = run(capsys, "verify", "--instance", FULL, "--controller", str(blank))
    assert code == 5 and out == ""
    assert err.startswith("bad controller table: ")


def test_verify_stage_gap_is_table_error(capsys, tmp_path):
    table = written_table(tmp_path, name="gap.csv")
    lines = table.read_text().strip().split("\n")
    kept = [l for l in lines if not l.startswith("0,")]
    table.write_text("\n".join(kept) + "\n")
    code, out, err = run(capsys, "verify", "--instance", FULL, "--controller", str(table))
    assert (code, out, err) == (5, "", "bad controller table: controller table lacks u rows for stages [0]\n")
    # u1 stage 0 shares its rows with u stage 0: blank its cells there, and the replay finds no stage 0 of u1
    table = written_table(tmp_path, IN_DELAY, name="delayed.csv")
    u0 = table.read_text().splitlines()[2].split(",")[2:5]
    _restaged(table, 0, [""], ",".join(u0) + ",,,")
    code, out, err = run(capsys, "verify", "--instance", IN_DELAY, "--controller", str(table))
    assert (code, out, err) == (5, "", "bad controller table: u1 has no stage 0\n")


def test_verify_rejects_u_rows_outside_the_horizon(capsys, tmp_path):
    table = written_table(tmp_path, N=3, name="n3.csv")
    code, _, _ = run(capsys, "verify", "--instance", FULL, "--N", "3", "--controller", str(table))
    assert code == 0
    # a horizon-3 table replayed at horizon 2 carries stage-3 rows
    code, _, err = run(capsys, "verify", "--instance", FULL, "--N", "2", "--controller", str(table))
    assert code == 5
    assert "stage 3" in err
    # an extra row past the horizon does not slip through either
    with table.open("a") as fh:
        fh.write("9,,1,2,3\n")
    code, _, err = run(capsys, "verify", "--instance", FULL, "--N", "3", "--controller", str(table))
    assert code == 5
    assert "stage 9" in err


@pytest.mark.parametrize("row", ["9,,,,,1,2,3", "-5,,,,,1,2,3"])
def test_verify_rejects_u1_rows_outside_the_delayed_range(capsys, tmp_path, row):
    # tau 1, N 2: the delayed channel's stages are -1..1, u1(-1) at depth 0 with no u cells
    table = written_table(tmp_path, IN_DELAY, name="delayed.csv")
    assert table.read_text().splitlines()[1].startswith("-1,,,,,")
    code, _, _ = run(capsys, "verify", "--instance", IN_DELAY, "--controller", str(table))
    assert code == 0
    with table.open("a") as fh:
        fh.write(row + "\n")
    code, _, err = run(capsys, "verify", "--instance", IN_DELAY, "--controller", str(table))
    assert code == 5
    assert f"stage {row.split(',')[0]}" in err


def _restaged(table, stage, labels, cells=None):
    """The table with the rows of ``stage`` replaced by one row per label, each with the cells of the stage's
    first row (or ``cells``); returns the file line of the first replacement row."""
    lines = table.read_text().splitlines()
    rows = [i for i, line in enumerate(lines) if line.split(",", 1)[0] == str(stage)]
    cells = lines[rows[0]].split(",", 2)[2] if cells is None else cells
    lines[rows[0] : rows[-1] + 1] = [f"{stage},{label},{cells}" for label in labels]
    table.write_text("\n".join(lines) + "\n")
    return rows[0] + 1


@pytest.mark.parametrize(
    "instance, stage, labels, what",
    [
        (FULL, 1, ["00", "01", "10", "11"], "u stage 1 (from line {}) histories: 4 labels, but a depth-1 level has 2 paths"),
        (FULL, 2, ["0", "1"], "u stage 2 (from line {}) histories: 2 labels, but a depth-2 level has 4 paths"),
        (IN_DELAY, -1, ["0", "1"], "u1 stage -1 (from line {}) histories: 2 labels, but a depth-0 level has 1 paths"),
    ],
    ids=["finer", "coarser", "finer-pre-horizon"],
)
def test_verify_reads_stage_k_only_at_depth_max_0_k(capsys, tmp_path, instance, stage, labels, what):
    # A finer level is not measurable at its stage; a coarser one, which write_controller_csv never
    # writes, was replayed before stage k's level had to be the depth-max(0, k) one.
    table = written_table(tmp_path, instance)
    line = _restaged(table, stage, labels)
    code, out, err = run(capsys, "verify", "--instance", instance, "--controller", str(table))
    assert (code, out, err) == (5, "", f"bad controller table: {what.format(line)}\n")


def test_oracle_check_all_instances(capsys):
    for inst in (FULL, OUTPUT, IN_DELAY, ST_DELAY, UNCTRL):
        code, out, _ = run(capsys, "oracle-check", "--instance", inst)
        assert code == 0, inst
        assert as_dict(out)["verdict"] == "ok"


def shrunk_full_deep_draw(tmp_path):
    """A draw whose Gramian at N = 12 has Frobenius norm 2.3e7: full_deep's seed-1 system,
    A and Abar divided by 2.25."""
    spec = random_controllable(np.random.default_rng([1, 0]), 3, 4, 17).spec
    shrunk = SystemSpec(A=spec.A / 2.25, B=spec.B, Abar=spec.Abar / 2.25, Bbar=spec.Bbar)
    inst = tmp_path / "shrunk.json"
    inst.write_text(serialize_instance(ProblemInstance(shrunk, 12)))
    return inst


def test_oracle_check_tolerance_scales_with_the_gramian(capsys, tmp_path):
    # Rounding alone puts the two Gramians about 1.1e-8 apart, over the absolute 1e-9.
    inst = shrunk_full_deep_draw(tmp_path)
    code, out, _ = run(capsys, "oracle-check", "--instance", str(inst))
    got = as_dict(out)
    assert code == 0 and got["verdict"] == "ok"
    keys = list(got)
    assert keys[keys.index("tolerance") + 1] == "scale"
    vs = validate(parse_instance_file(inst).system)
    scale = float(np.linalg.norm(gramian(ROUTES["full"].form(vs), 12)))
    assert float(got["scale"]) == scale > 1e6
    assert 1e-9 < float(got["frobenius_error"]) <= 1e-9 * scale


def test_oracle_check_scale_still_catches_a_wrong_oracle(capsys, tmp_path, monkeypatch):
    import stochctrl.cli as cli

    def perturbed(form, N, noise, cap):
        return gramian_oracle(form, N, noise, cap=cap) * (1 + 1e-6)

    monkeypatch.setattr(cli, "gramian_oracle", perturbed)
    code, out, _ = run(capsys, "oracle-check", "--instance", str(shrunk_full_deep_draw(tmp_path)))
    assert code == 1 and as_dict(out)["verdict"] == "mismatch"


def test_oracle_check_scale_is_at_least_one(capsys, tmp_path):
    # Halving the free input column halves D, so G_0 = D D' has norm 1/4.
    doc = json.loads((INSTANCE_DIR / "uncontrollable_2x3.json").read_text())
    for row in doc["B"]:
        row[2] /= 2
    inst = tmp_path / "small.json"
    inst.write_text(json.dumps(doc))
    vs = validate(parse_instance_file(inst).system)
    assert np.linalg.norm(gramian(ROUTES[_route(vs)].form(vs), 0)) == 0.25
    code, out, _ = run(capsys, "oracle-check", "--instance", str(inst), "--N", "0")
    assert code == 0 and as_dict(out)["scale"] == "1"


@pytest.mark.parametrize("noise, N", [(NoiseModel.rademacher(), 19), (NoiseModel.symmetric_three_point(), 11)])
@pytest.mark.parametrize("route, lag", [("full", {}), ("input-delay", {"tau": 1}), ("state-delay", {"d": 1})])
def test_oracle_check_at_the_cap(capsys, tmp_path, noise, N, route, lag):
    ts = random_controllable(np.random.default_rng(0), 3, 4, N, noise=noise, **lag)
    inst = tmp_path / "instance.json"
    inst.write_text(serialize_instance(ProblemInstance(ts.spec, N)))
    code, out, _ = run(capsys, "oracle-check", "--instance", str(inst))
    got = as_dict(out)
    assert code == 0
    assert (got["kind"], got["N"], got["verdict"]) == (route, str(N), "ok")
    assert len(noise.support) ** (N + 1) <= 2**20 < len(noise.support) ** (N + 2)


def test_a_path_target_at_depth_holds_its_leaf_rows_once(capsys, tmp_path):
    """Two-point N = 17 (2^18 leaves, n 3, m 4): the target's rows are x(N+1) of the solve, and the residual
    and the offsets work in blocks, so each command peaks at the target, the solution and the per-node
    offsets (28 MB traced here); with a copy of the target and level-sized temporaries it was 45 MB."""
    rng = np.random.default_rng(5)
    ts = random_controllable(rng, 3, 4, 17, noise=NoiseModel.rademacher())
    target = random_attainable_terminal(rng, PathTree(ts.spec.noise, 17), ts.form)
    inst, law = tmp_path / "instance.json", tmp_path / "law.json"
    inst.write_text(serialize_instance(ProblemInstance(ts.spec, 17, x0=random_x0(rng, 3), target=target)))
    del target
    for argv in (["synthesize", "--out", str(law)], ["verify", "--controller", str(law)]):
        tracemalloc.start()
        try:
            code = main([*argv, "--instance", str(inst)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr()
        assert peak <= 32e6, (argv[0], peak)


def test_oracle_check_respects_cap(capsys, tmp_path):
    doc = json.loads((INSTANCE_DIR / "fullrank_2x3.json").read_text())
    doc["N"] = 6
    inst = tmp_path / "deep.json"
    inst.write_text(json.dumps(doc))
    code, _, err = run(capsys, "oracle-check", "--instance", str(inst), "--cap", "64")
    assert code == 6
    assert "error" in err


def test_bad_instance_json(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    code, _, err = run(capsys, "analyze", "--instance", str(broken))
    assert code == 6

    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "analyze", "--instance", str(missing))
    assert code == 6


def test_instance_with_a_byte_that_is_not_utf8_exits_6(capsys, tmp_path):
    inst = tmp_path / "latin.json"
    inst.write_bytes(b"\xff" + (INSTANCE_DIR / "fullrank_2x3.json").read_bytes())
    code, out, err = run(capsys, "analyze", "--instance", str(inst))
    assert code == 6 and out == ""
    assert err.startswith("error: not UTF-8 text")


def test_instance_with_an_integer_too_long_to_read_exits_6(capsys, tmp_path):
    # Python refuses to convert more than 4300 digits; 401 are already out of float range.
    doc = json.loads((INSTANCE_DIR / "fullrank_2x3.json").read_text())
    doc["A"][0][0] = "@@"
    inst = tmp_path / "long.json"
    inst.write_text(json.dumps(doc).replace('"@@"', "1" + "0" * 5000))
    code, out, err = run(capsys, "analyze", "--instance", str(inst))
    assert code == 6 and out == ""
    assert err.startswith("error: not valid JSON") and "4300 digits" in err


@pytest.mark.parametrize("command", ["analyze", "synthesize", "verify", "oracle-check"])
def test_instance_nested_too_deep_exits_6(capsys, tmp_path, command):
    inst = tmp_path / "nested.json"
    inst.write_text("[" * 100_000 + "]" * 100_000)
    extra = ["--controller", str(written_table(tmp_path))] if command == "verify" else []
    code, out, err = run(capsys, command, "--instance", str(inst), *extra)
    assert code == 6 and out == ""
    assert err.startswith("error: not valid JSON: maximum recursion depth exceeded")


def test_verify_table_with_a_cell_over_the_field_limit_exits_5(capsys, tmp_path):
    table = tmp_path / "controller.csv"
    table.write_text("stage,history,u_0,u_1,u_2\n0," + "1" * 200_000 + ",1,2\n")
    code, out, err = run(capsys, "verify", "--instance", FULL, "--controller", str(table))
    assert code == 5 and out == ""
    assert err == "bad controller table: line 2: field larger than field limit (131072)\n"


def test_verify_table_with_a_byte_that_is_not_utf8_exits_5(capsys, tmp_path):
    table = tmp_path / "controller.csv"
    table.write_bytes(b"stage,history,u_0,u_1,u_2\n0,,1,\xff,3\n")
    code, out, err = run(capsys, "verify", "--instance", FULL, "--controller", str(table))
    assert code == 5 and out == ""
    assert err == "bad controller table: not UTF-8 text: byte 0xff, invalid start byte\n"


def test_singular_pencil_inapplicable(capsys, tmp_path):
    doc = {
        "n": 2, "m": 3, "N": 2,
        "A": [[1.0, 1.0], [1.0, 1.0]],
        "B": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        "Abar": [[1.0, 0.0], [0.0, 1.0]],
        "Bbar": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    }
    inst = tmp_path / "pencil.json"
    inst.write_text(json.dumps(doc))
    code, _, err = run(capsys, "analyze", "--instance", str(inst))
    assert code == 2
    assert "inapplicable" in err


def rotated_output_system(tmp_path, seed):
    """output_1of2.json's (A, B, Abar, Bbar) without its M and H, so on the full route, in the state frame
    x' = Q x, Q orthogonal from ``np.linalg.qr`` of a normal draw."""
    doc = json.loads(pathlib.Path(OUTPUT).read_text())
    Q = np.linalg.qr(np.random.default_rng(seed).normal(size=(2, 2)))[0]
    A, Abar, B, Bbar = (np.array(doc[key], dtype=float) for key in ("A", "Abar", "B", "Bbar"))
    rotated = {"A": Q @ A @ Q.T, "Abar": Q @ Abar @ Q.T, "B": Q @ B, "Bbar": Q @ Bbar}
    inst = tmp_path / f"rotated-{seed[1]}.json"
    inst.write_text(json.dumps({"n": 2, "m": 3, "N": 2, **{key: value.tolist() for key, value in rotated.items()}}))
    return str(inst)


@pytest.mark.parametrize(
    "seed",
    [pytest.param([20, 0], marks=pytest.mark.xfail(
        strict=True, reason="compute_M's pivot follows the frame and makes A - L Abar singular (ROADMAP item 20)")),
     [20, 2]],
    ids=["pivot-singular-frame", "control-frame"],
)
def test_a_rotated_state_frame_keeps_the_verdict(capsys, tmp_path, seed):
    # Unrotated, the system is exactly controllable with witness 1. In the first frame analyze exits 2
    # (SingularPencil) today; in the control frame it already agrees.
    code, out, _ = run(capsys, "analyze", "--instance", rotated_output_system(tmp_path, seed))
    assert code == 0
    assert as_dict(out)["witness_N"] == "1"


def test_singular_reduced_block_inapplicable(capsys, tmp_path):
    # A - B Abar has a zero second row, so the reduced route's script-A block matrix is singular
    doc = {
        "n": 2, "m": 2, "N": 2,
        "A": [[0.5, 0.3], [0.0, 0.0]],
        "B": [[1.0, 0.0], [0.0, 1.0]],
        "Abar": [[0.5, 0.3], [1.0, 0.0]],
        "Bbar": [[1.0, 0.0], [0.0, 0.0]],
    }
    inst = tmp_path / "block.json"
    inst.write_text(json.dumps(doc))
    for command in ("analyze", "oracle-check"):
        code, out, err = run(capsys, command, "--instance", str(inst))
        assert (code, out) == (2, "")
        assert err == "inapplicable: script-A block matrix has min singular value 0.000e+00; not invertible\n"


@pytest.mark.parametrize("N", [10**12, 10**20])
def test_analyze_at_an_N_whose_gramian_stack_cannot_be_allocated_exits_6(capsys, N):
    # Only on fullrank_2x3, whose Gramian overflows at horizon 856: where the allocation
    # succeeds after all (memory overcommit), the scan stops there and touches a few pages.
    code, out, err = run(capsys, "analyze", "--instance", FULL, "--N", str(N))
    assert (code, out) == (6, "")
    assert err in (
        f"error: cannot allocate the Gramians of horizons 0..{N}\n",
        "error: Gramian is not finite at horizon 856; the moment recursion overflows\n",
    )


# every package error class -> (exit code, stderr prefix) of main
EXIT_BY_ERROR = {
    "StochctrlError": (6, "error"),
    "DimensionMismatch": (6, "error"),
    "NoiseMomentViolation": (6, "error"),
    "SchemaError": (6, "error"),
    "UnsupportedReducedStructure": (2, "inapplicable"),
    "StructureUnsupported": (2, "inapplicable"),
    "RankDeficient": (6, "error"),
    "BadUserM": (6, "error"),
    "SingularPencil": (2, "inapplicable"),
    "EnumerationTooLarge": (6, "error"),
    "StageMismatch": (6, "error"),
    "CriteriaDisagreement": (6, "error"),
    "SingularGramian": (3, "singular gramian"),
    "NonFiniteGramian": (6, "error"),
    "TargetNotInS": (4, "target not attainable"),
    "NoIntertwiner": (2, "inapplicable"),
    "SingularBlock": (2, "inapplicable"),
    "SingularPBracket": (2, "inapplicable"),
}
ERROR_ARGS = {
    "EnumerationTooLarge": (2, 20, 1024),
    "SingularGramian": ("G_N", 3, 0.0),
    "NonFiniteGramian": (7,),
    "SingularPBracket": (4,),
}


def test_every_error_class_has_its_exit_code(capsys, monkeypatch):
    import stochctrl.cli as cli
    import stochctrl.errors as errors

    classes = {name: cls for name, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.StochctrlError)}
    assert set(classes) == set(EXIT_BY_ERROR)
    for name, cls in classes.items():
        exc = cls(*ERROR_ARGS.get(name, ("boom",)))

        def raise_it(args, exc=exc):
            raise exc

        monkeypatch.setitem(cli._HANDLERS, "analyze", raise_it)
        code, out, err = run(capsys, "analyze", "--instance", FULL)
        want_code, prefix = EXIT_BY_ERROR[name]
        assert (code, out, err) == (want_code, "", f"{prefix}: {exc}\n"), name


REDUCED_DOC = {
    "n": 2, "m": 3, "N": 3,
    "A": [[2.0, 0.5], [1.0, 1.0]],
    "B": [[2.0, 1.0, 0.0], [1.0, 0.0, 1.0]],
    "Abar": [[0.5, 0.25], [1.0, 0.0]],
    "Bbar": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
}


def test_reduced_route_analyze(capsys, tmp_path):
    inst = tmp_path / "reduced.json"
    inst.write_text(json.dumps(REDUCED_DOC))
    code, out, _ = run(capsys, "analyze", "--instance", str(inst))
    assert code == 0
    got = as_dict(out)
    assert got["kind"] == "reduced"
    assert got["verdict"] == "leading-block exactly controllable"
    assert got["dim"] == "1"
    code, _, err = run(capsys, "synthesize", "--instance", str(inst))
    assert code == 2


def test_every_route_through_every_command(capsys, tmp_path):
    reduced = tmp_path / "reduced.json"
    reduced.write_text(json.dumps(REDUCED_DOC))
    # route -> (instance, exit codes of analyze, oracle-check, synthesize, verify)
    cases = {
        "full": (FULL, (0, 0, 0, 0)),
        "partial": (OUTPUT, (0, 0, 2, 2)),
        "reduced": (str(reduced), (0, 0, 2, 2)),
        "input-delay": (IN_DELAY, (0, 0, 0, 0)),
        "state-delay": (ST_DELAY, (0, 0, 0, 0)),
    }
    for route, (inst, want) in cases.items():
        table = tmp_path / f"{route}.csv"
        got = []
        code, out, _ = run(capsys, "analyze", "--instance", inst)
        got.append(code)
        assert as_dict(out)["kind"] == route
        code, out, _ = run(capsys, "oracle-check", "--instance", inst)
        got.append(code)
        assert as_dict(out)["kind"] == route and as_dict(out)["verdict"] == "ok"
        code, _, err = run(capsys, "synthesize", "--instance", inst, "--out", str(table))
        got.append(code)
        code, out, err = run(capsys, "verify", "--instance", inst, "--controller", str(table))
        got.append(code)
        if code == 0:
            assert as_dict(out)["kind"] == route and as_dict(out)["verdict"] == "ok"
        else:
            assert "inapplicable" in err
        assert tuple(got) == want, route


def test_reduced_oracle_check_runs_no_criteria(capsys, tmp_path, monkeypatch):
    import stochctrl.cli as cli

    def no_criteria(*args, **kwargs):
        raise AssertionError("oracle-check ran the reduced-route criteria")

    monkeypatch.setattr(cli, "reduced_rank_setup", no_criteria)
    inst = tmp_path / "reduced.json"
    inst.write_text(json.dumps(REDUCED_DOC))
    code, out, _ = run(capsys, "oracle-check", "--instance", str(inst))
    assert code == 0 and as_dict(out)["verdict"] == "ok"


def _two_stage_target(tmp_path, key):
    # fullrank_2x3 at N = 1 steered to the origin on every leaf, one of them under the key given
    doc = json.loads((INSTANCE_DIR / "fullrank_2x3.json").read_text())
    doc["N"] = 1
    doc["target"] = {label: [0.0, 0.0] for label in ("00", "10", "11")}
    doc["target"][key] = [0.0, 0.0]
    inst = tmp_path / "target.json"
    inst.write_text(json.dumps(doc))
    return str(inst)


LABEL_MAP_ERROR = (
    "error: target must be a flat list of n = 2 numbers (a constant target) or s^(N+1)*n = 2^2*2 = 8 "
    "(one row per leaf, in node order), or a hex string of their little-endian float64 bytes; "
    "a {label: vector} map is not read: list its rows in label order\n"
)


@pytest.mark.parametrize("key", ["0²", "0١"])  # superscript two; Arabic-Indic one
@pytest.mark.parametrize("command", ["analyze", "synthesize"])
def test_non_ascii_target_digits_are_schema_errors(capsys, tmp_path, command, key):
    # A file's target is a flat list or a hex string: a label map exits 6 naming every form, with any keys.
    for label in (key, "01"):
        code, out, err = run(capsys, command, "--instance", _two_stage_target(tmp_path, label))
        assert (code, out, err) == (6, "", LABEL_MAP_ERROR)
    doc = json.loads(open(_two_stage_target(tmp_path, "01")).read())
    target = doc["target"]
    doc["target"] = [v for label in sorted(target) for v in target[label]]  # README's migration
    (tmp_path / "flat.json").write_text(json.dumps(doc))
    code, _, _ = run(capsys, command, "--instance", str(tmp_path / "flat.json"))
    assert code == 0


@pytest.mark.parametrize("instance", [FULL, IN_DELAY, ST_DELAY])
def test_constant_target_is_its_tiled_rows_at_any_horizon(capsys, tmp_path, instance):
    # n numbers give the stdout and law bytes of the same vector tiled on every leaf, at the
    # file's N and under --N; a path target is tied to its N.
    doc = json.loads(open(instance).read())
    vector = [0.75, -1.5]
    law = tmp_path / "law.json"
    for N in (doc["N"], 0, 3):
        constant, tiled = tmp_path / "constant.json", tmp_path / "tiled.json"
        constant.write_text(json.dumps(dict(doc, target=vector)))  # run under --N
        tiled.write_text(json.dumps(dict(doc, N=N, target=vector * 2 ** (N + 1))))  # written at N
        outputs = []
        for inst, flags in ((constant, ["--N", str(N)]), (tiled, [])):
            law.unlink(missing_ok=True)
            synthesized = run(capsys, "synthesize", "--instance", str(inst), "--out", str(law), *flags)
            if not law.exists():
                outputs.append((synthesized, None, None))
                continue
            verified = run(capsys, "verify", "--instance", str(inst), "--controller", str(law), *flags)
            outputs.append((synthesized, verified, law.read_text()))
        assert outputs[0] == outputs[1], N
        (code, out, _), verified, _ = outputs[0]
        if N:  # at N = 0 the bundled Gramians are singular (exit 3)
            assert code == 0 and verified[0] == 0 and as_dict(verified[1])["verdict"] == "ok", N
            assert as_dict(out)["paths"] == str(2 ** (N + 1))
    doc["target"] = vector * 2 ** (doc["N"] + 1)
    inst = tmp_path / "path.json"
    inst.write_text(json.dumps(doc))
    code, _, err = run(capsys, "synthesize", "--instance", str(inst), "--N", "3")
    assert code == 6 and err == f"error: target leaf array has shape ({2 ** (doc['N'] + 1)}, 2); depth 4 needs (16, 2)\n"


# Edits of fullrank_2x3.json whose numbers json reads but no criterion can use.
NON_FINITE = {
    "nan-in-A": ('"A": [[1, 1]', '"A": [[NaN, 1]'),
    "1e400-in-A": ('"A": [[1, 1]', '"A": [[1e400, 1]'),  # read as inf
    "int-1e400-in-A": ('"A": [[1, 1]', '"A": [[1' + "0" * 400 + ", 1]"),
    "infinity-in-x0": ('"x0": [3, -1]', '"x0": [Infinity, -1]'),
    "nan-probs": ('"x0"', '"noise": {"support": [-1, 1], "probs": [NaN, NaN]}, "x0"'),
    "nan-atom-without-mass": ('"x0"', '"noise": {"support": [-1, NaN, 1], "probs": [0.5, 0, 0.5]}, "x0"'),
}


@pytest.mark.parametrize("command", ["analyze", "synthesize", "oracle-check", "verify"])
@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_numbers_are_errors(capsys, tmp_path, case, command):
    text = (INSTANCE_DIR / "fullrank_2x3.json").read_text()
    old, new = NON_FINITE[case]
    assert old in text
    inst = tmp_path / "bad.json"
    inst.write_text(text.replace(old, new))
    table = tmp_path / "controller.csv"
    code, _, _ = run(capsys, "synthesize", "--instance", FULL, "--out", str(table))
    assert code == 0
    extra = ["--controller", str(table)] if command == "verify" else []
    code, _, err = run(capsys, command, "--instance", str(inst), *extra)
    assert code == 6
    assert "finite" in err or "numeric" in err


def _edited_table(capsys, tmp_path, edit):
    table = written_table(tmp_path)
    code, _, _ = run(capsys, "verify", "--instance", FULL, "--controller", str(table))
    assert code == 0
    lines = table.read_text().strip().split("\n")
    table.write_text("\n".join([lines[0]] + edit(lines[1:])) + "\n")
    return str(table)


@pytest.mark.parametrize(
    "edit",
    [
        lambda rows: [r.replace(",01,", ",0²,") for r in rows],
        lambda rows: [r.replace(",01,", ",0١,") for r in rows],
        lambda rows: rows[::-1],
        lambda rows: rows[:-1] + [rows[-1].replace("2,11,", "2,110,")],
        lambda rows: [rows[0].replace("0,,", "0," + "1" * 40 + ",")] + rows[1:],
    ],
    ids=["superscript-two", "arabic-indic-one", "rows-reversed", "one-extra-digit", "forty-digits"],
)
def test_verify_wants_each_stage_in_node_order(capsys, tmp_path, monkeypatch, edit):
    import stochctrl.model as model

    built = []
    level_labels = model._level_labels
    monkeypatch.setattr(model, "_level_labels", lambda s, depth: built.append(depth) or level_labels(s, depth))
    table = _edited_table(capsys, tmp_path, edit)
    code, _, err = run(capsys, "verify", "--instance", FULL, "--controller", table)
    assert code == 5
    assert "bad controller table" in err
    assert max(built) <= 3  # N + 1: no level of a longer label is ever built


def _first_value(rows, edit):
    """The rows with the first row's first value cell (by position, not by its digits) edited."""
    cells = rows[0].split(",")
    cells[2] = edit(cells[2])
    return [",".join(cells)] + rows[1:]


@pytest.mark.parametrize(
    "edit",
    [
        lambda rows: [rows[0].replace("0,", "\u0660,", 1)] + rows[1:],
        lambda rows: [" " + r if r.startswith("1,") else r for r in rows],
        lambda rows: _first_value(rows, lambda cell: " " + cell),
        lambda rows: _first_value(rows, lambda cell: cell[:-1] + "\u0665"),
        lambda rows: _first_value(rows, lambda cell: cell[:-1] + "_" + cell[-1]),
        lambda rows: _first_value(rows, lambda cell: "nan"),
    ],
    ids=["stage-arabic-indic-zero", "stage-blank", "value-blank", "value-arabic-indic-five", "value-underscore", "value-nan"],
)
def test_verify_wants_plain_finite_cells(capsys, tmp_path, edit):
    table = _edited_table(capsys, tmp_path, edit)  # an edit that missed would verify ok
    code, _, err = run(capsys, "verify", "--instance", FULL, "--controller", table)
    assert code == 5
    assert "bad controller table" in err


BUNDLED = [FULL, OUTPUT, IN_DELAY, ST_DELAY, UNCTRL]
COMMANDS = {
    "analyze": [],
    "synthesize": [],
    "verify": ["--controller", "unread.csv"],
    "oracle-check": [],
}


@pytest.mark.parametrize("inst", BUNDLED, ids=lambda p: p.rsplit("/", 1)[-1])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_bad_overrides_exit_6_before_any_work(capsys, monkeypatch, command, inst):
    import stochctrl.cli as cli

    def no_work(path):
        raise AssertionError(f"{command} read {path} despite a bad override")

    monkeypatch.setattr(cli, "parse_instance_file", no_work)
    overrides = [["--N", "-1"]]
    if command != "analyze":
        overrides += [["--tol", bad] for bad in ("-1e-8", "inf", "-inf", "nan")]
    for override in overrides:
        with pytest.raises(SystemExit) as info:
            main([command, "--instance", inst, *COMMANDS[command], *override])
        assert info.value.code == 6, override
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "instance,edit,message",
    [
        (IN_DELAY, {"B1": None}, "B1 and tau must be given together"),
        (ST_DELAY, {"A1": None}, "A1 and d must be given together"),
        (IN_DELAY, {"tau": 0}, "tau must be an integer >= 1, got 0"),
    ],
    ids=["tau-without-B1", "d-without-A1", "tau-0"],
)
@pytest.mark.parametrize("command", list(COMMANDS))
def test_unpaired_or_out_of_range_delay_fields_exit_6(capsys, tmp_path, command, instance, edit, message):
    doc = json.loads(pathlib.Path(instance).read_text())
    for key, value in edit.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    inst = tmp_path / "unpaired.json"
    inst.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--instance", str(inst), *COMMANDS[command])
    assert (code, out, err) == (6, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],
        ["analyze", "--instance", FULL, "--format", "xml"],
        ["analyze", "--instance", FULL, "--N", "abc"],
        ["analyze", "--instance", FULL, "--tol", "1e-3"],
        ["analyze", "--instance", FULL, "--cap", "1"],
        ["verify", "--instance", FULL],
        ["transmogrify", "--instance", FULL],
    ],
    ids=["no-instance", "format-xml", "N-abc", "analyze-tol", "analyze-cap", "verify-no-controller", "no-such-command"],
)
def test_usage_errors_exit_6(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 6
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("command", ["synthesize", "verify", "oracle-check"])
def test_cap_below_1_is_a_usage_error(capsys, tmp_path, command, cap):
    # Refused before the instance is read, as a negative --N is: the missing file goes unreported.
    argv = [command, "--instance", str(tmp_path / "nope.json"), f"--cap={cap}", *COMMANDS[command]]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 6
    err = capsys.readouterr().err
    assert "usage:" in err and f"argument --cap: expected a finite value >= 1, got '{cap}'" in err
    assert "nope.json" not in err


def test_parser_is_built_once_and_keeps_no_parsed_state(capsys, monkeypatch):
    import stochctrl.cli as cli

    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        first = run(capsys, "analyze", "--instance", FULL, "--N", "5", "--format", "csv")
        second = run(capsys, "analyze", "--instance", FULL)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert first[0] == second[0] == 0
    assert "N_max,5\n" in first[1]
    assert as_dict(second[1])["N_max"] == "2"  # the instance's N, in the default text format


COMMAND_WORDS = ["analyze", "synthesize", "verify", "oracle-check", "analyse", "-h"]
FLAG_WORDS = ["--instance", "--N", "--tol", "--format", "--cap", "--out", "--controller", "--inst", "--N=3", "-h", "--"]
VALUE_WORDS = ["x.json", "3", "0", "-1", "1_0", " 5", "1e-3", "inf", "nan", "abc", "csv", "text", "xml", "", "--N"]
WORDS = COMMAND_WORDS + FLAG_WORDS + VALUE_WORDS
FLAG_VALUES = [("--N", "3"), ("--N", " 5"), ("--N", "1_0"), ("--tol", "1e-3"), ("--cap", "64"), ("--format", "csv"),
               ("--out", "report.txt")]


@st.composite
def flag_lists(draw):
    """A command, its required flags (mostly), and flag-value pairs (mostly well formed), in any order."""
    command = draw(st.sampled_from(list(COMMANDS)))
    pairs = [("--instance", "x.json")] + ([("--controller", "law.json")] if command == "verify" else [])
    pairs = draw(st.sampled_from([pairs, pairs, pairs[1:]]))
    pairs += draw(st.lists(st.sampled_from(FLAG_VALUES) | st.tuples(st.sampled_from(FLAG_WORDS), st.sampled_from(VALUE_WORDS)),
                           max_size=3))
    return [command, *(word for pair in draw(st.permutations(pairs)) for word in pair)]


@settings(deadline=None, max_examples=500)
@given(flag_lists() | st.lists(st.sampled_from(WORDS), max_size=9))
def test_plain_args_are_parse_args_where_they_read_the_arguments(argv):
    # The quick read of "command --flag value ..." gives parse_args's namespace or leaves the list to it.
    import stochctrl.cli as cli

    args = cli._plain_args(argv)
    if args is not None:
        assert args == cli._parser()[0].parse_args(argv)


@pytest.mark.parametrize("argv", [
    ["analyze", "--instance", "x.json"],
    ["oracle-check", "--instance", "x.json", "--N", "4", "--tol", "1e-6", "--cap", "64", "--format", "csv"],
    ["synthesize", "--out", "law.json", "--instance", "x.json", "--N", "3"],
    ["verify", "--instance", "x.json", "--controller", "law.json", "--out", "report.txt"],
])
def test_plain_args_read_the_commands_as_written(argv):
    import stochctrl.cli as cli

    assert cli._plain_args(argv) == cli._parser()[0].parse_args(argv)
    assert cli._plain_args(argv) is not cli._plain_args(argv)  # a fresh namespace each time


def test_help_exits_0(capsys):
    for argv in (["--help"], ["analyze", "--help"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert "usage:" in capsys.readouterr().out


def test_overflowing_gramian_exits_6_with_its_horizon(capsys):
    # The moment operator of this instance has spectral radius 2.3: its Gramian leaves
    # float range near N = 855. That is an error (exit 6), not a negative verdict (exit 1).
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would escape as an exception
        code, out, err = run(capsys, "analyze", "--instance", FULL, "--N", "3000")
    assert code == 6 and out == ""
    assert err.startswith("error: Gramian is not finite at horizon ")
    horizon = int(err.split("horizon ")[1].split(";")[0])
    assert 0 < horizon < 3000


@pytest.mark.parametrize("command", ["synthesize", "verify", "oracle-check"])
def test_over_cap_horizon_exits_6(capsys, command):
    # 2^20001 leaves: the refusal must not form or print that number.
    code, out, err = run(capsys, command, "--instance", FULL, *COMMANDS[command], "--N", "20000")
    assert code == 6 and out == ""
    assert err == "error: 2^20001 leaves exceed cap 1048576\n"


def test_oracle_check_refuses_over_cap_before_the_closed_form(capsys, monkeypatch):
    import stochctrl.cli as cli

    def no_closed_form(*args, **kwargs):
        raise AssertionError("oracle-check built the closed-form Gramian past the cap")

    monkeypatch.setattr(cli, "gramian", no_closed_form)
    for inst in BUNDLED:
        code, _, err = run(capsys, "oracle-check", "--instance", inst, "--N", "1000000")
        assert code == 6 and "exceed cap" in err, inst


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


DEVIATION_LEAVES = {
    "signed": [[1.5, -2.5], [0.25, 2.5]],
    "negative-max": [[-3.0, 1.0], [2.0, 0.5]],
    "negative-zeros": [[-0.0, -0.0], [-0.0, -0.0]],
    "mixed-zeros": [[0.0, -0.0], [-0.0, 0.0]],
    "NaN": [[1.0, np.nan], [-2.0, 0.0]],
    "negative-NaN": [[1.0, -np.nan], [np.nan, 0.0]],
    "inf": [[1.0, np.inf], [-2.0, 0.0]],
    "negative-inf": [[1.0, -np.inf], [-2.0, 0.0]],
    "both-infs": [[np.inf, -np.inf], [np.nan, 0.0]],
    "tiny": [[-5e-324, 0.0], [0.0, -0.0]],
}


def runs_of(final, cuts=()):
    """``final`` as runs of leaves (first leaf index, rows) cut before each row in ``cuts``, as the loop yields them."""
    bounds = [0, *cuts, len(final)]
    return [(a, final[a:b]) for a, b in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("case", sorted(DEVIATION_LEAVES))
def test_null_target_deviation_is_the_largest_magnitude_bit_for_bit(case):
    final = np.array(DEVIATION_LEAVES[case])
    assert _bits(_deviation(runs_of(final.copy()), None)) == _bits(np.abs(final).max())


@pytest.mark.parametrize("target_case", sorted(DEVIATION_LEAVES))
def test_target_deviation_is_the_largest_gap_bit_for_bit(target_case):
    # The gap is formed in place in the terminal array, then scanned as a null target's states are.
    target = np.array(DEVIATION_LEAVES[target_case])
    for case, leaves in sorted(DEVIATION_LEAVES.items()):
        final = np.array(leaves)
        gap = final.copy()
        with np.errstate(invalid="ignore"):  # inf - inf
            want = np.abs(final - target).max()
            assert _bits(_deviation(runs_of(gap), target)) == _bits(want), case
            assert _bits(gap) == _bits(final - target), case


SPECIAL = {"NaN": np.nan, "-NaN": -np.nan, "inf": np.inf, "-inf": -np.inf, "-0.0": -0.0, "tiny": 5e-324, "-tiny": -5e-324}


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("value", sorted(SPECIAL))
def test_deviation_over_runs_is_one_scan_of_the_leaves_bit_for_bit(value, where):
    # Five runs of four leaves; the value lands in one run, the others hold ordinary numbers or zeros.
    # Python's max over the runs' maxima would drop a NaN in a later run; np.maximum keeps it.
    rng = np.random.default_rng(7)
    row = {"first": 1, "middle": 9, "last": 18}[where]
    for scale in (0.0, 1.0):
        for target in (None, rng.normal(size=(20, 3))):
            final = rng.normal(size=(20, 3)) * scale
            final[row, 1] = SPECIAL[value]
            gap = final.copy()
            with np.errstate(invalid="ignore"):  # inf - inf
                want = np.abs(final if target is None else final - target).max()
                got = _deviation(runs_of(gap, (4, 8, 12, 16)), target)
            assert _bits(got) == _bits(want), (scale, target is None)
            assert _bits(got) == _bits(_deviation(runs_of(final.copy()), target))


def test_null_target_deviation_matches_abs_max_on_random_leaves():
    rng = np.random.default_rng(5)
    for _ in range(200):
        final = rng.normal(size=(16, 3)) * 10.0 ** rng.integers(-300, 300)
        final[rng.random(final.shape) < 0.1] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan])
        cuts = sorted(set(rng.integers(1, 16, size=rng.integers(0, 4)).tolist()))
        assert _bits(_deviation(runs_of(final.copy(), cuts), None)) == _bits(np.abs(final).max())


def test_target_deviation_matches_abs_max_of_the_gap_on_random_leaves():
    rng = np.random.default_rng(6)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan]
    for _ in range(200):
        final, target = (rng.normal(size=(16, 3)) * 10.0 ** rng.integers(-300, 300) for _ in range(2))
        for arr in (final, target):
            arr[rng.random(arr.shape) < 0.1] = rng.choice(special)
        cuts = sorted(set(rng.integers(1, 16, size=rng.integers(0, 4)).tolist()))
        with np.errstate(invalid="ignore"):  # inf - inf
            want = np.abs(final - target).max()
            assert _bits(_deviation(runs_of(final, cuts), target)) == _bits(want)


@pytest.mark.parametrize("drop_M", [False, True], ids=["user-M", "constructed-M"])
def test_a_command_makes_one_svd_of_bbar(monkeypatch, tmp_path, capsys, drop_M):
    # validate's SVD of Bbar gives the rank and the cut the constructed M pivots by, so analyze and
    # oracle-check each decompose Bbar once, with the instance's M or without it.
    doc = json.loads(pathlib.Path(FULL).read_text())
    if drop_M:
        del doc["M"]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    bbar = np.array(doc["Bbar"], dtype=float)
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a) == bbar.shape and np.array_equal(a, bbar))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    for command in ("analyze", "oracle-check"):
        calls.clear()
        assert main([command, "--instance", str(path)]) == 0, command
        assert sum(calls) == 1 and len(calls) > 1, command
    capsys.readouterr()
