"""Controller tables against the earlier row-by-row writer.

``reference_write_controller_csv``, ``reference_index_label`` and
``_reference_opened`` are the writer, the label encoder (then a
``PathTree`` method, here a function of the tree) and the file opener as
they stood before the path-label codec moved into ``model``, copied
verbatim apart from their names and, in the writer, but for stage levels
held in plain dicts, stage j at depth max(0, j). The reference writer reads a
controller's every level of u and u1, which ``_levels`` collects from
the plant-step loop. Tables from the current writer must be byte-equal
to theirs and read back exactly.
"""
import contextlib
import csv
import io
from types import SimpleNamespace

import numpy as np
import pytest

from stochctrl import NoiseModel, PathTree, SingularGramian, read_controller_table
from stochctrl.delay import input_delay_controller, state_delay_controller
from stochctrl.model import LABEL_TABLE_MAX, path_labels
from stochctrl.sampling import random_attainable_terminal, random_controllable, random_x0
from stochctrl.synthesis import FLOAT_FMT, steer_to_target
from conftest import table_text
from crosschecks import controller_levels


def reference_index_label(self, depth: int, index: int) -> str:
    digits = []
    for _ in range(depth):
        digits.append(str(index % self.s))
        index //= self.s
    return "".join(reversed(digits))


def _reference_opened(target, mode: str):
    """A file opened on a path (closed on exit), or an open stream as it is."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        return open(target, mode, encoding="utf-8", newline="")
    return contextlib.nullcontext(target)


def reference_write_controller_csv(dest, ctrl) -> None:
    """One row per (stage, history): stage, history, u columns, u1 columns.

    Stages appear in increasing order; for a delayed input channel the
    pre-horizon stages carry only u1 values, and trailing stages past the
    delayed channel's range leave the u1 cells empty.
    """
    with _reference_opened(dest, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        m = ctrl.u[0].shape[1]
        m1 = next(iter(ctrl.u1.values())).shape[1] if ctrl.u1 is not None else 0
        header = ["stage", "history"] + [f"u_{i}" for i in range(m)] + [f"u1_{i}" for i in range(m1)]
        writer.writerow(header)
        stages = sorted(set(ctrl.u) | (set(ctrl.u1) if ctrl.u1 else set()))
        for stage in stages:
            has_u = stage in ctrl.u
            has_u1 = ctrl.u1 is not None and stage in ctrl.u1
            depth = max(0, stage)
            u_rows = ctrl.u[stage] if has_u else None
            u1_rows = ctrl.u1[stage] if has_u1 else None
            for idx in range(ctrl.tree.n_nodes(depth)):
                label = reference_index_label(ctrl.tree, depth, idx)
                row = [str(stage), label]
                row += [FLOAT_FMT % x for x in u_rows[idx]] if has_u else [""] * m
                row += [FLOAT_FMT % x for x in u1_rows[idx]] if has_u1 else [""] * m1
                writer.writerow(row)


def _levels(ctrl):
    """The controller's tree with the u and u1 of its plant-step loop at every level."""
    u, _, u1 = controller_levels(ctrl)
    return SimpleNamespace(tree=ctrl.tree, u=u, u1=u1)


LAWS = {"two-point": NoiseModel.rademacher(), "three-point": NoiseModel.symmetric_three_point()}
CASES = [
    (law, N, route)
    for law in LAWS
    for N in range(6 if law == "two-point" else 5)
    for route in ("null", "path target", "input delay", "state delay")
]


def _controller(rng, noise, N, route):
    """A synthesized controller of the route, redrawing systems the route cannot steer."""
    extra = {"input delay": {"tau": 1 + N % 2}, "state delay": {"d": 1 + N % 2}}.get(route, {})
    build = {"input delay": input_delay_controller, "state delay": state_delay_controller}
    n = 1 if N == 0 else 2  # one free input column steers only a scalar state in one step
    for _ in range(20):
        ts = random_controllable(rng, n, n + 1, N, noise=noise, **extra)
        tree = PathTree(noise, N)
        target = random_attainable_terminal(rng, tree, ts.form) if route == "path target" else None
        try:
            return ts, tree, build.get(route, steer_to_target)(ts, tree, random_x0(rng, n), target)
        except SingularGramian:
            continue
    raise RuntimeError(f"no steerable {route} system at N = {N}")


@pytest.mark.parametrize("law,N,route", CASES)
def test_tables_match_the_row_by_row_writer(law, N, route):
    rng = np.random.default_rng(1000 * N + len(route) + len(law))
    ts, tree, ctrl = _controller(rng, LAWS[law], N, route)
    levels = _levels(ctrl)
    buf = io.StringIO()
    reference_write_controller_csv(buf, levels)
    text = table_text(ctrl)
    assert text == buf.getvalue()
    if route == "input delay":  # pre-horizon u1 rows at depth 0 with empty u cells
        assert min(levels.u1) == -ts.spec.tau
        assert f"\n-1,,{',' * (ts.spec.m - 1)}," in text

    u, u1 = read_controller_table(io.StringIO(text), tree, ts.spec)
    for got, want in ((u, levels.u), (u1, levels.u1)):
        if want is None:
            assert got is None
            continue
        assert sorted(got) == sorted(want)
        for k in want:
            assert got[k].shape == want[k].shape
            np.testing.assert_array_equal(got[k], want[k])


@pytest.mark.parametrize("law,N,route", [("three-point", 8, "input delay"), ("two-point", 13, "null")])
def test_levels_deeper_than_the_tail_table_match_the_row_by_row_writer(law, N, route):
    # 3^8 and 2^13 labels exceed the LABEL_TABLE_MAX-label tail table, so stage N is written
    # in blocks, one per head label.
    rng = np.random.default_rng(N)
    ts, tree, ctrl = _controller(rng, LAWS[law], N, route)
    assert tree.n_nodes(N) > LABEL_TABLE_MAX
    buf = io.StringIO()
    reference_write_controller_csv(buf, _levels(ctrl))
    text = table_text(ctrl)
    assert text == buf.getvalue()
    rows = [line.split(",", 2)[:2] for line in text.splitlines()[1:]]
    for k in range(N + 1):
        assert [label for stage, label in rows if stage == str(k)] == path_labels(tree.s, k), k
