"""Command-line contract: verdicts, exit codes, formats, determinism."""
import json

import numpy as np
import pytest

from stochctrl import PathTree, TransformedSystem, parse_instance_file, validate, write_controller_csv
from stochctrl.cli import ROUTES, _route, main
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
    doc["target"] = {
        f"{i}{j}": [support[j] ** 2, 0.0] for i in range(3) for j in range(3)
    }
    inst = tmp_path / "unattainable.json"
    inst.write_text(json.dumps(doc))
    code, _, err = run(capsys, "synthesize", "--instance", str(inst))
    assert code == 4
    assert "not attainable" in err


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
    code, _, _ = run(capsys, "verify", "--instance", FULL, "--controller", str(table))
    assert code == 5


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
    # tau 1, N 2: the delayed channel's stages are -1..1
    table = written_table(tmp_path, IN_DELAY, name="delayed.csv")
    code, _, _ = run(capsys, "verify", "--instance", IN_DELAY, "--controller", str(table))
    assert code == 0
    with table.open("a") as fh:
        fh.write(row + "\n")
    code, _, err = run(capsys, "verify", "--instance", IN_DELAY, "--controller", str(table))
    assert code == 5
    assert f"stage {row.split(',')[0]}" in err


def test_oracle_check_all_instances(capsys):
    for inst in (FULL, OUTPUT, IN_DELAY, ST_DELAY, UNCTRL):
        code, out, _ = run(capsys, "oracle-check", "--instance", inst)
        assert code == 0, inst
        assert as_dict(out)["verdict"] == "ok"


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
    # fullrank_2x3 at N = 1 steered to the origin on every leaf but one relabelled key
    doc = json.loads((INSTANCE_DIR / "fullrank_2x3.json").read_text())
    doc["N"] = 1
    doc["target"] = {label: [0.0, 0.0] for label in ("00", "10", "11")}
    doc["target"][key] = [0.0, 0.0]
    inst = tmp_path / "target.json"
    inst.write_text(json.dumps(doc))
    return str(inst)


@pytest.mark.parametrize("key", ["0²", "0١"])  # superscript two; Arabic-Indic one
@pytest.mark.parametrize("command", ["analyze", "synthesize"])
def test_non_ascii_target_digits_are_schema_errors(capsys, tmp_path, command, key):
    code, _, err = run(capsys, command, "--instance", _two_stage_target(tmp_path, key))
    assert code == 6
    assert repr(key) in err
    code, _, _ = run(capsys, command, "--instance", _two_stage_target(tmp_path, "01"))
    assert code == 0


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
    level_text = model._level_text
    monkeypatch.setattr(model, "_level_text", lambda s, depth: built.append(depth) or level_text(s, depth))
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
