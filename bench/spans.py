"""Traced mode: wrap stochctrl's public functions from outside and keep spans.

Nothing in ``src/`` is edited. Each traced function is replaced by a
wrapper at every module binding that holds it: ``cli`` and ``delay``
import with ``from ... import ...``, so patching only the defining module
would miss their calls. Only functions that run a bounded number of
times per op are wrapped (not, for example, ``PathTree.label_to_index``,
which runs once per leaf label).

Spans (name, start, end, parent) stay in memory and are written out when
the worker exits. A layer's self time is its spans' durations minus the
parts covered by their direct child spans.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# (layer, defining module, function) for every traced function. The
# layer is the per-layer metric's name without its "_s" suffix.
TRACED = (
    ("cli.self", "stochctrl.cli", "main"),
    ("model.parse_instance", "stochctrl.model", "parse_instance_file"),
    ("model.validate", "stochctrl.model", "validate"),
    ("criteria.decide", "stochctrl.criteria", "decide"),
    ("criteria.gramian_oracle", "stochctrl.criteria", "gramian_oracle"),
    ("partial.decide", "stochctrl.partial", "partial_decide"),
    ("partial.decide", "stochctrl.partial", "reduced_rank_setup"),
    ("delay.decide", "stochctrl.delay", "input_delay_decide"),
    ("delay.decide", "stochctrl.delay", "state_delay_decide"),
    ("delay.oracle", "stochctrl.delay", "input_delay_gramian_oracle"),
    ("delay.oracle", "stochctrl.delay", "state_delay_gramian_oracle"),
    ("delay.controller", "stochctrl.delay", "input_delay_controller"),
    ("delay.controller", "stochctrl.delay", "state_delay_controller"),
    ("delay.state_delay_P", "stochctrl.delay", "state_delay_P"),
    ("pathspace.backward_solve", "stochctrl.pathspace", "backward_solve"),
    ("pathspace.backward_solve_state_delay", "stochctrl.pathspace", "backward_solve_state_delay"),
    ("pathspace.forward_simulate", "stochctrl.pathspace", "forward_simulate"),
    ("pathspace.member_of_S", "stochctrl.pathspace", "member_of_S"),
    ("pathspace.member_of_S", "stochctrl.delay", "member_of_S_state_delay"),
    ("pathspace.expected_terminal_product", "stochctrl.pathspace", "expected_terminal_product"),
    ("pathspace.terminal_from_map", "stochctrl.pathspace", "terminal_from_map"),
    ("synthesis.stage_products", "stochctrl.synthesis", "stage_products"),
    ("synthesis.controller", "stochctrl.synthesis", "null_controller"),
    ("synthesis.controller", "stochctrl.synthesis", "steer_to_target"),
    ("synthesis.write_controller_csv", "stochctrl.synthesis", "write_controller_csv"),
    ("synthesis.read_controller_table", "stochctrl.synthesis", "read_controller_table"),
    ("sampling.draw", "stochctrl.sampling", "random_system"),
    ("sampling.draw", "stochctrl.sampling", "random_controllable"),
    ("sampling.draw", "stochctrl.sampling", "random_x0"),
    ("sampling.draw", "stochctrl.sampling", "random_attainable_terminal"),
)
# Methods, patched on the class so every binding of the class sees them.
TRACED_METHODS = (
    ("transform.build", "stochctrl.transform", "TransformedSystem", "build"),
    ("pathspace.PathTree", "stochctrl.pathspace", "PathTree", "__init__"),
)
LAYERS = tuple(dict.fromkeys(name for name, *_ in TRACED + TRACED_METHODS))
COUNTS = (
    "criteria.oracle_products",
    "pathspace.tree_nodes",
    "pathspace.state_delay_unknowns",
    "pathspace.state_delay_lhs_mb",
    "synthesis.table_rows",
    "synthesis.table_mb",
)


def _geometric(s: int, top: int) -> int:
    """sum_{k=0}^{top} s^k: nodes of a tree with depths 0..top."""
    return sum(s**k for k in range(top + 1))


def _oracle_products(args) -> dict:
    """Paths an enumeration oracle multiplies out: sum_{i<=N} s^i."""
    return {"criteria.oracle_products": _geometric(len(args["noise"].support), args["N"])}


def _tree_nodes(args) -> dict:
    tree = args["self"]
    return {"pathspace.tree_nodes": _geometric(tree.s, tree.horizon + 1)}


def _state_delay_size(args) -> dict:
    tree, form = args["tree"], args["form"]
    unknowns = form.n * _geometric(tree.s, tree.horizon)
    return {
        "pathspace.state_delay_unknowns": unknowns,
        "pathspace.state_delay_lhs_mb": unknowns * unknowns * 8 / 1e6,
    }


# Counters computed from a traced call's arguments, after it returns.
COUNTERS = {
    "gramian_oracle": _oracle_products,
    "input_delay_gramian_oracle": _oracle_products,
    "state_delay_gramian_oracle": _oracle_products,
    "__init__": _tree_nodes,
    "backward_solve_state_delay": _state_delay_size,
}


class Tracer:
    """Installs span-recording wrappers and aggregates what they record."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.counts: list[tuple[int, dict]] = []  # (span index, counter values)
        self.tables: list[tuple[int, str]] = []  # (span index, controller CSV path)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []  # (owner, attr, original)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, fn, counter=None, table=False):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if counter is not None or table:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    if counter is not None:
                        self.counts.append((index, counter(bound.arguments)))
                    if table:
                        self.tables.append((index, os.fspath(bound.arguments["dest"])))

        return traced

    def install(self) -> None:
        """Wrap every traced function at each stochctrl module binding."""
        modules = [m for name, m in sys.modules.items() if name.startswith("stochctrl")]
        for layer, module, attr in TRACED:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(
                layer, original, COUNTERS.get(attr), table=attr == "write_controller_csv"
            )
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, value))
                        setattr(mod, name, wrapper)
        for layer, module, cls_name, attr in TRACED_METHODS:
            cls = getattr(sys.modules[module], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, raw.__func__))
            else:
                wrapped = self._wrap(layer, raw, COUNTERS.get(attr))
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ------------------------------------------------------

    def self_times(self, first: int, last: int) -> dict[str, float]:
        """Self seconds per layer over spans first..last-1 (one op's spans)."""
        child = defaultdict(float)
        for layer, start, end, parent in self.spans[first:last]:
            if parent >= first:
                child[parent] += end - start
        out = defaultdict(float)
        for i in range(first, last):
            layer, start, end, _ = self.spans[i]
            out[layer] += end - start - child[i]
        return out

    def inclusive_time(self, layer: str, first: int, last: int) -> float:
        """Seconds inside outermost spans of one layer over a span range."""
        total = 0.0
        for layer_i, start, end, parent in self.spans[first:last]:
            if layer_i == layer and (parent < first or self.spans[parent][0] != layer):
                total += end - start
        return total

    def counts_in(self, first: int, last: int) -> dict[str, float]:
        """Counter totals for spans first..last-1, controller tables included.

        Table sizes are read from the written files, so call this after
        the op returns, outside its timed region.
        """
        out = defaultdict(float)
        for index, values in self.counts:
            if first <= index < last:
                for key, value in values.items():
                    out[key] += value
        for index, path in self.tables:
            if first <= index < last:
                with open(path, "rb") as fh:
                    out["synthesis.table_rows"] += sum(1 for _ in fh) - 1  # minus the header
                out["synthesis.table_mb"] += os.path.getsize(path) / 1e6
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for layer, start, end, parent in self.spans:
                fh.write(json.dumps({"name": layer, "start": start, "end": end, "parent": parent}) + "\n")
