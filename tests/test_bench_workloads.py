"""The benchmark's workloads must keep running on the package as it is.

``bench/workloads.py`` builds each workload's instance files through the
package's own writer and fixes each op's exit code from how its input was
drawn. A change to the file format, the CLI or an exit code that would
stop the benchmark fails here, at tiny horizons (``small=True``), with
every op run through ``cli.main`` as the benchmark's worker runs it.
"""
import contextlib
import importlib.util
import io
import json
import re
import sys
from pathlib import Path

import pytest

import stochctrl.cli as cli
from stochctrl import parse_instance_file

_WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS_PATH)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclasses look their module up there
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_small_workload_op_exits_as_expected(tmp_path, name):
    ops = workloads.build(name, 1, str(tmp_path), small=True)
    assert ops
    codes = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes.append(cli.main(op.argv()))
        assert codes[-1] == op.expect, (op, out.getvalue(), err.getvalue())
    assert len(codes) == len(ops)


def test_steer_mix_writes_its_leaf_rows_as_hex(tmp_path):
    # The path-target ops read a hex string, in the layout the split read takes, not number text: a writer
    # that falls back to a list or to another layout would pass the ops above and only show as a slower
    # benchmark.
    ops = workloads.build("steer_mix", 1, str(tmp_path), small=True)
    paths = sorted({op.instance for op in ops})
    leaf_rows = [path for path in paths if type(json.loads(Path(path).read_text()).get("target")) is str]
    assert len(leaf_rows) == 2
    for path in leaf_rows:
        text = Path(path).read_text()
        hex_digits = json.loads(text)["target"]
        assert re.fullmatch("[0-9a-f]+", hex_digits) and text.endswith(f',\n  "target": "{hex_digits}"\n}}\n')
        inst = parse_instance_file(path)
        assert inst.target.tobytes() == bytes.fromhex(hex_digits)
        leaves = len(inst.system.noise.support) ** (inst.N + 1)
        assert inst.target.shape == (leaves, inst.system.n) and not inst.target.flags.writeable
    for path in set(paths) - set(leaf_rows):
        assert parse_instance_file(path).target is None


def test_full_deep_and_the_steer_mix_delay_ops_steer_to_the_origin(tmp_path):
    # Their laws' offsets are rows of zeros, which the folded loop never applies: a workload that stopped
    # steering to the origin would stop measuring that path.
    origin = {"full_deep": ("N2", "N3", "N4"), "steer_mix": ("state", "input")}
    for name, tables in origin.items():
        ops = workloads.build(name, 1, str(tmp_path), small=True)
        names = tuple(f"{name}-{table}.csv" for table in tables)
        laws = [op for op in ops if op.command == "synthesize" and op.table.endswith(names)]
        assert len(laws) == len(tables)
        for op in laws:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(op.argv()) == 0
            c = json.loads(Path(op.table).read_text())["c"]
            assert len(c) == op.N + 1 and all(x == 0 for ck in c for x in ck), op
