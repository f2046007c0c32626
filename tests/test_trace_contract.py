"""The benchmark's traced mode must keep seeing the package's layers.

``bench/spans.py`` wraps functions by module and name from outside the
package, and its counters read the wrapped calls' arguments by name. A
rename, a moved function, or a call that binds a function object at
import time would make it report zero seconds for a layer without any
error. These tests pin that contract.
"""
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
from pathlib import Path

import stochctrl.cli as cli
from conftest import INSTANCE_DIR

_SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
_spec = importlib.util.spec_from_file_location("bench_spans", _SPANS_PATH)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

# Argument names each counter (and the controller-table hook) reads.
READS = {
    "gramian_oracle": {"noise", "N"},
    "input_delay_gramian_oracle": {"noise", "N"},
    "state_delay_gramian_oracle": {"noise", "N"},
    "backward_solve_state_delay": {"tree", "form"},
    "__init__": {"self"},
    "write_controller_csv": {"dest"},
}


def _parameters(fn) -> set[str]:
    return set(inspect.signature(fn).parameters)


def test_traced_names_resolve_with_the_arguments_their_counters_read():
    assert set(spans.COUNTERS) | {"write_controller_csv"} == set(READS)
    for _, module, attr in spans.TRACED:
        fn = getattr(importlib.import_module(module), attr)
        assert callable(fn), (module, attr)
        assert READS.get(attr, set()) <= _parameters(fn), (module, attr)
    for _, module, cls_name, attr in spans.TRACED_METHODS:
        raw = vars(getattr(importlib.import_module(module), cls_name))[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        assert READS.get(attr, set()) <= _parameters(fn), (module, cls_name, attr)


def test_tracer_records_every_route_layer(tmp_path):
    bundled = sorted(str(p) for p in INSTANCE_DIR.glob("*.json"))
    steered = [str(INSTANCE_DIR / name) for name in
               ("fullrank_2x3.json", "input_delay_tau1.json", "state_delay_d1.json")]
    # Path targets that differ by node: membership runs each route's homogeneous backward
    # solve, and the offsets differ by node, so synthesize writes a table. Two-point noise
    # makes every leaf array attainable.
    for name in ("fullrank_2x3.json", "state_delay_d1.json"):
        doc = json.loads((INSTANCE_DIR / name).read_text())
        doc["N"], doc["target"] = 1, {label: [float(i), 0.0] for i, label in enumerate(("00", "01", "10", "11"))}
        path_target = tmp_path / f"path_target_{name}"
        path_target.write_text(json.dumps(doc))
        steered.append(str(path_target))
    original = cli.gramian_oracle
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [cli.main([command, "--instance", inst])
                     for inst in bundled for command in ("analyze", "oracle-check")]
            for inst in steered:
                table = str(tmp_path / "c.csv")
                codes.append(cli.main(["synthesize", "--instance", inst, "--out", table]))
                codes.append(cli.main(["verify", "--instance", inst, "--controller", table]))
    finally:
        tracer.uninstall()
    assert cli.gramian_oracle is original
    assert max(codes) <= 1
    layers = {layer for layer, *_ in tracer.spans}
    want = {
        "criteria.decide",
        "partial.decide",
        "delay.decide",
        "criteria.gramian_oracle",
        "delay.oracle",
        "delay.controller",
        "delay.state_delay_P",
        "pathspace.backward_solve_state_delay",
        "synthesis.controller",
        "model.parse_instance",
        "pathspace.terminal_from_map",
        "synthesis.write_controller_csv",
        "synthesis.read_controller_table",
    }
    assert want <= layers, sorted(want - layers)
    counts = tracer.counts_in(0, len(tracer.spans))
    assert counts["criteria.oracle_products"] > 0
    assert counts["pathspace.state_delay_unknowns"] > 0
    assert counts["synthesis.table_rows"] > 0
