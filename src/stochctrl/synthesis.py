"""Steering controller construction and controller artifact I/O.

Every route steers by the minimum-energy law of its backward equation,
run as a state feedback. With j = N - k, along that equation's solution
a predictor p(k) equals S(j) y(k), with S(j) the route's Gramian over
stages k..N from :func:`criteria.gramian_sequence` and y the costate
carried from y(0) = S(N)^{-1} x0 by the stage factors; v and
z = E[w x(k+1) | past] are fixed matrices times y. Each stage reads
y = S(j)^+ p(k) off the states and applies u = M [z - Abar x; v] =
K_k p(k), with the one gain law
K_k = M [S(j-1) Cbar'; D'] P(j)' S(j)^+ (S(-1) = 0, P the state-delay
pivots, else I). The full route has p = x, v = D' y and
z = S(j-1) Cbar' y, exact as range D and range Cbar S(j-1) lie in
range S(j); the delay routes' predictors are derived in ``delay``. A
target adds the homogeneous solution (x_h, z_h) reached with zero free
input: the law acts on e = x - x_h and z gains z_h. One body,
:func:`_steer`, builds every route's controller, gains included, the
route read from the form: one state-delay elimination gives the pivots
P and the lag gains, one ladder C^i D1 the input-delay gains' u1 rows,
predictor and pre-horizon inputs. ``delay``'s controllers are channel
checks in front of it.

So every controller is one law (:class:`FeedbackLaw`) in the regressor
r(k) of x(k) and the lags that act at stage k (a state before stage 0 is
zero, an input entering after stage N never acts; no law grows with tau
past N + 1 stages). With p(k) = (r(k) - r_h(k)) Pi_k', Pi_k = I on the
full route, L_k = K_k Pi_k - [M_q Abar, 0] (M_q the first n columns of
M) and c_k = [z_h(k) M_q', 0] - (r_h(k) Pi_k') K_k', each c_k at its
coarsest depth (one row for the origin and any constant target). The one
closed loop, :func:`feedback_loop`, steps through
:func:`pathspace.plant_step`, the step of forward simulation, so a
replay of the written controller reproduces its states bit for bit.
Every controller is written as its law, JSON {"kind": "feedback", "N",
"L", "c"} plus "u1" on a delayed input, with floats in ``repr`` (exact
for float64); each c_k is one flat row-major list, of m + m1 numbers
when one row serves every node, else of s^k (m + m1) in node order; a
delay-route law with a column for a lag that never acts, as earlier
versions wrote, is malformed. The table of one row per (stage, history),
17 digits a value, stays a library format that verify also reads.
"""
from __future__ import annotations

import contextlib
import csv
import json
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .criteria import gramian, gramian_invertible, gramian_sequence
from .errors import DimensionMismatch, SchemaError, SingularGramian, TargetNotInS
from .model import _JSON_NUMBERS, SystemSpec, check_level, path_labels
from .pathspace import (
    AdaptedProcess,
    PathTree,
    member_of_S,
    path_products,
    plant_step,
    _state_delay_gains,
)
from .transform import TransformedSystem

FLOAT_FMT = "%.17g"
_ROWS_PER_WRITE = 4096
_CHARS_PER_READ = 1 << 16
# Data lines hold printable ASCII but blank and '_', plus line ends: int() and float()
# would also take blanks, '_' and non-ASCII digits.
_LINE_CHARS = bytes(c for c in range(0x21, 0x7F) if c != ord("_")) + b"\r\n"
_LAW_KEYS = ("kind", "N", "L", "c")


def stage_products(tree: PathTree, form, upto: int) -> list[np.ndarray]:
    """Per-history products C(0) ... C(k-1), k = 0..upto; no controller uses them."""
    return list(path_products(form, tree.support, upto))


@dataclass(eq=False)
class FeedbackLaw:
    """[u(k), u1(k)] = r(k) L_k' + c_k for k = 0..N, r(k) from :func:`_regressor`.

    ``L`` holds N+1 arrays, L_k (m+m1, n(1+min(d, k)) + m1 min(tau, N-k+1)),
    a column per regressor entry that acts (d, tau, m1 zero without the
    channel). ``c`` holds each c_k as one row (depth 0) when it is the same
    on every node, else at depth k; the written law stores it flat at that
    depth (:func:`law_text`).
    ``u1_pre`` holds u1(-tau), u1(1-tau), ... that enter by stage N, one
    row each (None without a delayed input).
    """

    L: list[np.ndarray]
    c: AdaptedProcess
    u1_pre: np.ndarray | None = None


@dataclass(eq=False)
class ControllerProcess:
    """Steering inputs, the law that decides them and the closed-loop states x(0..N+1)."""

    kind: str
    tree: PathTree
    u: AdaptedProcess
    x: AdaptedProcess
    gramian: np.ndarray
    law: FeedbackLaw
    u1: AdaptedProcess | None = None


def _pinv(S: np.ndarray) -> np.ndarray:
    """Pseudo-inverse cut where :func:`gramian_invertible` cuts, at n eps sigma_max."""
    return np.linalg.pinv(S, rtol=S.shape[0] * np.finfo(float).eps)


def _steer(ts: TransformedSystem, tree: PathTree, x0, target, tol: float) -> ControllerProcess:
    """Steer x0 to ``target`` (None: the origin) by the law of this module's docstring, and run it.

    The form picks the membership solve, the Gramian, the kind and, per
    delay channel, the gains' u1 rows or pivots P(j), the maps Pi_k (I on
    the full route; the Smith predictor or the lag gains of ``delay``) and
    the pre-horizon inputs ``u1_pre``. r_h is the regressor of the
    target's solution, zero without one and in its u1 blocks.
    """
    form, spec, n, N = ts.form, ts.spec, ts.form.n, tree.horizon
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise DimensionMismatch(f"x0 must have length {n}, got {x0.shape}")
    hom = None
    if target is not None:
        result = member_of_S(tree, form, target, tol=tol)
        if not result.member:
            raise TargetNotInS(f"terminal residual {result.max_residual:.3e} exceeds tolerance {result.tol}")
        hom = result.solution
    S = [np.zeros((n, n)), *gramian_sequence(form, N)]  # S(j-1)
    K = [ts.transform.M @ np.vstack([S[N - k] @ form.Cbar.T, form.D.T]) for k in range(N + 1)]
    G, Pi, u1_pre, u1_h = S[-1], [np.eye(n)] * (N + 1), None, {}
    if form.D1 is not None:
        kind, what, tau = "input-delay", "delayed-input Gramian", form.tau
        G = gramian(form, N)  # a delayed input adds its pre-horizon terms
        CD1 = [np.linalg.matrix_power(form.C, i) @ form.D1 for i in range(min(tau, N) + 1)]  # C^i D1
        # u1(k) has rows D1' C^tau' S(j)^+, zero if it enters after N; the lags u1(k - i) on
        # their way are those that enter by stage N (:func:`_regressor`).
        K = [np.vstack([Kk, CD1[tau].T if k <= N - tau else np.zeros_like(form.D1.T)]) for k, Kk in enumerate(K)]
        Pi = [np.hstack([np.eye(n)] + [-CD1[tau - i] for i in range(max(1, k + tau - N), tau + 1)])
              for k in range(N + 1)]
        u1_h = {j: np.zeros((tree.n_nodes(max(0, j)), form.D1.shape[1])) for j in range(-tau, N - tau + 1)}
    elif form.C1 is not None:
        kind, what = "state-delay", "delayed-state Gramian"
        P, Q = _state_delay_gains(form, N)
        K = [Kk @ Pk.T for Kk, Pk in zip(K, P)]
        Pi = [np.hstack([np.eye(n)] + [-Qj for Qj in Q[k][:k]]) for k in range(N + 1)]
    else:
        kind, what = "null" if hom is None else "target", "Gramian"
    ok, smin = gramian_invertible(G)
    if not ok:
        raise SingularGramian(f"{what} at N = {N} has min singular value {smin:.3e}; cannot invert")
    if form.D1 is not None:
        g = np.linalg.solve(G, x0 if hom is None else x0 - hom.x0)
        u1_pre = np.array([g @ CD1[i] for i in range(min(tau, N + 1))])
    K = [Kk @ _pinv(S[N - k + 1]) for k, Kk in enumerate(K)]
    Mq, rows = ts.transform.M[:, :n], len(K[0])
    pad = (0, rows - spec.m)
    Mq_Abar = Mq @ spec.Abar
    L, vals, depths = [], {}, {}
    for k, (Kk, P) in enumerate(zip(K, Pi)):
        L.append(Kk @ P)
        L[k][: spec.m, :n] -= Mq_Abar
        c = np.zeros((1, rows))
        if hom is not None:
            r = _regressor(tree, spec, N, k, hom.x.values, u1_h)
            c = np.pad(hom.z.at(k) @ Mq.T, ((0, 0), pad)) - (r @ P.T) @ Kk.T
        vals[k], depths[k] = (c[:1], 0) if (c == c[0]).all() else (c, k)
    law = FeedbackLaw(L, AdaptedProcess(tree, vals, depths), u1_pre)
    u, x, u1 = feedback_loop(tree, spec, x0, law)
    return ControllerProcess(kind=kind, tree=tree, u=u, x=x, gramian=G, law=law, u1=u1)


def null_controller(ts: TransformedSystem, tree: PathTree, x0: np.ndarray) -> ControllerProcess:
    """Steer x0 to the origin over the tree's horizon, on any full-state route.

    Raises :class:`SingularGramian` when the Gramian at that horizon is not
    invertible at the scale-aware threshold.
    """
    return _steer(ts, tree, x0, None, 1e-8)


def steer_to_target(
    ts: TransformedSystem,
    tree: PathTree,
    x0: np.ndarray,
    target,
    tol: float = 1e-8,
) -> ControllerProcess:
    """Steer x0 to an attainable terminal value over the tree's horizon, on any full-state route.

    The terminal may be a vector (constant over paths) or a full leaf
    array; None steers to the origin and gives the null controller.
    Rejects terminals outside the attainable set with
    :class:`TargetNotInS`. The inputs come from one pass of the route's
    :class:`FeedbackLaw` (this module's docstring), whose N+1 gains are
    built in O(N n^3), no tree; on a delay route it is ``delay``'s controller.
    """
    return _steer(ts, tree, x0, target, tol)


def _regressor(tree: PathTree, spec: SystemSpec, N: int, k: int, xs: dict, u1s: dict) -> np.ndarray:
    """r(k) at depth k: x(k), then the lags that act, x(k-1), ..., x(k - min(d, k)) or
    u1(k-i) for i = max(1, k + tau - N)..tau, those that enter by stage N.

    ``xs`` and ``u1s`` map a stage j to its values at depth max(0, j).
    """
    lags = [(xs, k - j) for j in range(1, min(spec.d or 0, k) + 1)]
    if spec.tau:
        lags += [(u1s, k - i) for i in range(max(1, k + spec.tau - N), spec.tau + 1)]
    if not lags:
        return xs[k]
    return np.hstack([xs[k], *(tree.lift(vals[j], max(0, j), k) for vals, j in lags)])


def feedback_loop(
    tree: PathTree, spec: SystemSpec, x0: np.ndarray, law: FeedbackLaw
) -> tuple[AdaptedProcess, AdaptedProcess, AdaptedProcess | None]:
    """Run [u(k), u1(k)] = r(k) L_k' + c_k through :func:`pathspace.plant_step` from x0.

    Returns u (stages 0..N) and x (0..N+1), stage k at depth k, and u1
    (-tau..N-tau, at depth max(0, j); None without a delayed input).
    Synthesis and verification both run a law here, bit for bit alike.
    """
    m, N, tau = spec.m, len(law.L) - 1, spec.tau if spec.B1 is not None else 0
    xs, u_vals = {0: np.asarray(x0, dtype=float)[None, :].copy()}, {}
    u1s = {i - tau: law.u1_pre[i : i + 1] for i in range(len(law.u1_pre))} if tau else {}
    for k, Lk in enumerate(law.L):
        v = _regressor(tree, spec, N, k, xs, u1s) @ Lk.T + law.c.at_depth(k, k)
        u_vals[k] = np.ascontiguousarray(v[:, :m]) if tau else v  # laid out as a table reads back
        if tau and k <= N - tau:
            u1s[k] = np.ascontiguousarray(v[:, m:])
        u1k = tree.lift(u1s[k - tau], max(0, k - tau), k) if tau else None
        xs[k + 1] = plant_step(tree, spec, xs, k, u_vals[k], u1k)
    u, x = (AdaptedProcess(tree, vals, {k: k for k in vals}) for vals in (u_vals, xs))
    return u, x, AdaptedProcess(tree, u1s, {j: max(0, j) for j in u1s}) if tau else None


def law_text(ctrl: ControllerProcess) -> str:
    """The controller's law as JSON, each c_k flat in row-major order at its own depth."""
    law = ctrl.law
    c = [law.c.at(k).ravel().tolist() for k in range(len(law.L))]
    doc = {"kind": "feedback", "N": len(law.L) - 1, "L": [Lk.tolist() for Lk in law.L], "c": c}
    if law.u1_pre is not None:
        doc["u1"] = law.u1_pre.tolist()
    return json.dumps(doc) + "\n"


def read_feedback_law(source, tree: PathTree, spec: SystemSpec) -> FeedbackLaw:
    """Parse a law written by :func:`law_text` for the system ``spec`` at the tree's horizon.

    Raises :class:`SchemaError` for text that is not a JSON object with
    exactly the keys kind, N, L and c, plus u1 exactly on a delayed input;
    a kind other than "feedback"; an N other than the tree's horizon; an L
    not N+1 stages of the instance's shapes (:class:`FeedbackLaw`: no
    column for a lag that never acts) or a u1 not (min(tau, N+1), m1); a c
    that is not N+1 flat stages, stage k of m+m1 numbers (depth 0) or
    s^k (m+m1) (depth k); and entries that are not finite JSON numbers.
    """
    try:
        with _opened(source, "r") as fh:
            doc = json.loads(fh.read())
    except (ValueError, RecursionError) as exc:  # bad JSON, an integer too long, nesting too deep
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    keys = _LAW_KEYS + (("u1",) if spec.B1 is not None else ())
    if set(doc) != set(keys):
        missing, extra = sorted(set(keys) - set(doc)), sorted(set(doc) - set(keys))
        raise SchemaError(f"law keys must be {', '.join(keys)} (missing {missing}, unknown {extra})")
    if doc["kind"] != "feedback":
        raise SchemaError(f"kind must be 'feedback', got {doc['kind']!r}")
    N = doc["N"]
    if type(N) is not int or N != tree.horizon:
        raise SchemaError(f"law N is {N!r}, the horizon being verified is {tree.horizon}")
    (m1, tau), d = (0, 0) if spec.B1 is None else (spec.B1.shape[1], spec.tau), spec.d or 0
    if type(doc["L"]) is not list or len(doc["L"]) != N + 1:
        raise SchemaError(f"L must be a list of N + 1 = {N + 1} stages")
    L = [_law_array(f"L stage {k}", Lk, (spec.m + m1, spec.n * (1 + min(d, k)) + m1 * min(tau, N - k + 1)))
         for k, Lk in enumerate(doc["L"])]
    c = _law_offsets(doc["c"], tree, spec.m + m1)
    u1_pre = _law_array("u1", doc["u1"], (min(tau, N + 1), m1)) if m1 else None
    return FeedbackLaw(L, c, u1_pre)


def _law_offsets(value, tree: PathTree, width: int) -> AdaptedProcess:
    """The offsets c_k of a law: stage k one row of ``width`` numbers, or one per depth-k node."""
    if type(value) is not list or len(value) != tree.horizon + 1:
        raise SchemaError(f"c must be a list of N + 1 = {tree.horizon + 1} stages")
    for k, stage in enumerate(value):
        if type(stage) is not list or len(stage) not in (width, tree.s**k * width):
            raise SchemaError(
                f"c stage {k} must list {width} numbers (one row) or {tree.s**k} x {width} "
                f"(one row per depth-{k} node)"
            )
    flat = _finite_floats("c", [x for stage in value for x in stage])
    parts = np.split(flat, np.cumsum([len(stage) for stage in value[:-1]]))
    depths = {k: 0 if len(part) == width else k for k, part in enumerate(parts)}
    return AdaptedProcess(tree, {k: part.reshape(-1, width) for k, part in enumerate(parts)}, depths)


def _law_array(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` as a float array, or :class:`SchemaError` unless nested lists of finite numbers of ``shape``."""
    entries = [value]
    for size in shape:
        if not all(type(v) is list and len(v) == size for v in entries):
            raise SchemaError(f"{name} must be nested lists of shape {shape}")
        entries = [x for v in entries for x in v]
    return _finite_floats(name, entries).reshape(shape)


def _finite_floats(name: str, entries: list) -> np.ndarray:
    """A flat list of finite JSON numbers as a float array, else :class:`SchemaError`."""
    if not set(map(type, entries)) <= _JSON_NUMBERS:
        raise SchemaError(f"{name} entries must be JSON numbers")
    try:
        arr = np.array(entries, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise SchemaError(f"{name} entries must be finite") from None
    if not np.isfinite(arr).all():
        raise SchemaError(f"{name} entries must be finite")
    return arr


@contextlib.contextmanager
def _opened(target, mode: str):
    """A file opened on a path (closed on exit), or an open stream as it is; text read
    through it that is not UTF-8 raises :class:`SchemaError` naming the byte (the
    decoder counts positions from its chunk, not the file)."""
    try:
        if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
            with open(target, mode, encoding="utf-8", newline="") as fh:
                yield fh
        else:
            yield target
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text: byte {exc.object[exc.start]:#04x}, {exc.reason}") from None


def write_controller_csv(dest, ctrl: ControllerProcess) -> None:
    """One row per (stage, history): stage, history, u columns, u1 columns.

    Stages appear in increasing order, each with one tree level's labels in
    node order (``model.path_labels``); for a delayed input channel the
    pre-horizon stages carry only u1 values, and trailing stages past the
    delayed channel's range leave the u1 cells empty.
    """
    channels = [p for p in (ctrl.u, ctrl.u1) if p is not None]
    header = ["stage", "history"] + [f"u_{i}" for i in range(ctrl.u.dim)]
    header += [f"u1_{i}" for i in range(ctrl.u1.dim)] if ctrl.u1 is not None else []
    s = ctrl.tree.s
    with _opened(dest, "w") as fh:
        fh.write(",".join(header) + "\n")
        for stage in sorted(set().union(*(p.values for p in channels))):
            present = [p for p in channels if stage in p.values]
            depth = max(p.depth(stage) for p in present)
            cells = [FLOAT_FMT if p in present else "" for p in channels for _ in range(p.dim)]
            row = f"{stage},%s%s," + ",".join(cells) + "\n"
            values = np.hstack([p.at_depth(stage, depth) for p in present])
            # Blocks of s^tail_depth rows, label = head + tail: only one block's floats are Python objects.
            tail_depth = min(depth, int(math.log(_ROWS_PER_WRITE, s)))
            tails = path_labels(s, tail_depth)
            for i, head in enumerate(path_labels(s, depth - tail_depth)):
                block = values[i * len(tails) : (i + 1) * len(tails)].tolist()
                fh.writelines(row % (head, tail, *numbers) for tail, numbers in zip(tails, block))


def read_controller_table(
    source, tree: PathTree, spec: SystemSpec
) -> tuple[AdaptedProcess, AdaptedProcess | None]:
    """Parse a controller table, from a path or an open text stream, into adapted processes u and u1.

    The input widths, and the delayed input channel's lag where there is
    one, are the system ``spec``'s. Each stage's histories must be one tree
    level in node order, as :func:`write_controller_csv` writes them.
    Malformed tables (wrong header, ragged rows, u rows at stages outside
    0..N, u1 rows outside -tau..N-tau, text that is not UTF-8, cells that
    are not ASCII, hold blanks or '_' or exceed the csv field limit, values
    that are not finite numbers, histories that are not one level in node
    order) raise :class:`SchemaError`.
    """
    N, m, m1 = tree.horizon, spec.m, 0 if spec.B1 is None else spec.B1.shape[1]
    # channel -> (its columns, first and last stage, stage -> (first line, labels, values))
    channels = {"u": (slice(2, 2 + m), 0, N, {})}
    if m1:
        channels["u1"] = (slice(2 + m, None), -spec.tau, N - spec.tau, {})
    with _opened(source, "r") as fh:
        reader = csv.reader(_checked_lines(fh))
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError("controller table is empty")
            want = ["stage", "history"] + [f"u_{i}" for i in range(m)]
            want += [f"u1_{i}" for i in range(m1)]
            if header != want:
                raise SchemaError(f"controller header {header!r} does not match expected {want!r}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(want):
                    raise SchemaError(f"line {lineno}: expected {len(want)} cells, got {len(row)}")
                try:
                    stage = int(row[0])
                except ValueError:
                    raise SchemaError(f"line {lineno}: stage {row[0]!r} is not an integer") from None
                for what, (cols, first, last, stages) in channels.items():
                    part = row[cols]
                    if not any(part):
                        continue
                    if not first <= stage <= last:
                        raise SchemaError(f"line {lineno}: {what} row at stage {stage} outside {first}..{last}")
                    _, labels, values = stages.setdefault(stage, (lineno, [], array("d")))
                    labels.append(row[1])
                    try:
                        values.extend(map(float, part))
                    except ValueError as exc:
                        raise SchemaError(f"line {lineno}: {exc}") from None
        except csv.Error as exc:  # a cell over the csv module's field size limit
            raise SchemaError(f"line {reader.line_num}: {exc}") from None
    missing = sorted(set(range(N + 1)) - set(channels["u"][3]))
    if missing:
        raise SchemaError(f"controller table lacks u rows for stages {missing}")
    u = _stages_to_process(tree, channels["u"][3], m, "u")
    u1 = _stages_to_process(tree, channels["u1"][3], m1, "u1") if m1 else None
    return u, u1


def _plain(text: str) -> bool:
    return text.isascii() and not text.encode().translate(None, _LINE_CHARS)


def _checked_lines(fh):
    """The lines of a table, each block of data lines checked at once to hold only ``_LINE_CHARS``."""
    yield from fh.readlines(1)  # the header, compared with the expected one
    lineno = 2
    while block := fh.readlines(_CHARS_PER_READ):
        if not _plain("".join(block)):
            bad = lineno + next(i for i, line in enumerate(block) if not _plain(line))
            raise SchemaError(f"line {bad}: cells must be ASCII, without blanks or '_'")
        lineno += len(block)
        yield from block


def _stages_to_process(tree, stages, dim, what) -> AdaptedProcess:
    if not stages:
        raise SchemaError(f"controller table has no {what} rows")
    vals, depths = {}, {}
    for stage, (lineno, labels, values) in stages.items():
        where = f"{what} stage {stage} (from line {lineno})"
        depth = len(labels[0])
        if depth > tree.horizon + 1:  # before the level is built
            raise SchemaError(f"{where}: history length {depth} exceeds the tree's {tree.horizon + 1}")
        check_level(labels, tree.s, depth, f"{where} histories")
        vals[stage] = np.frombuffer(values).reshape(-1, dim)
        if not np.isfinite(vals[stage]).all():
            raise SchemaError(f"{where}: values must be finite")
        depths[stage] = depth
    return AdaptedProcess(tree, vals, depths)
