"""Steering controller construction and controller artifact I/O.

Every route steers by the minimum-energy law of its backward equation,
run as a state feedback. With j = N - k, along that equation's solution
a predictor p(k) equals S(j) y(k), with S(j) the route's Gramian over
stages k..N from :func:`criteria.gramian_sequence` and y the costate
carried from y(0) = S(N)^{-1} x0 by the stage factors; v and
z = E[w x(k+1) | past] are fixed matrices times y. Each stage reads
y = S(j)^+ p(k) off the states and applies u = M [z - Abar x; v] =
K_k p(k), with the one gain law of :func:`_gains`,
K_k = M [S(j-1) Cbar'; D'] P(j)' S(j)^+ (S(-1) = 0, P the state-delay
pivots, else I). The full route has p = x, v = D' y and
z = S(j-1) Cbar' y, exact as range D and range Cbar S(j-1) lie in
range S(j); the delay routes' predictors are in ``delay``. A target adds
the homogeneous solution (x_h, z_h) reached with zero free input: the
law acts on e = x - x_h and z gains z_h.

So every controller is one law (:class:`FeedbackLaw`) in the regressor
r(k), p(k) = (r(k) - r_h(k)) Pi_k' with Pi_k = I on the full route:
L_k = K_k Pi_k - [M_q Abar, 0] (M_q the first n columns of M) and
c_k = [z_h(k) M_q', 0] - (r_h(k) Pi_k') K_k', each c_k at its coarsest
depth (one row for the origin and any constant target). The one closed
loop, :func:`feedback_loop`, steps through :func:`pathspace.plant_step`,
the step of forward simulation, so a replay of the written controller
reproduces its states bit for bit. A law whose offsets are all one row is
written as JSON, {"kind": "feedback", "N", "L", "c"} plus "u1" on a
delayed input, with floats in ``repr`` (exact for float64); every other
controller is a table of one row per (stage, history), 17 digits a value.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .criteria import gramian_invertible, gramian_sequence
from .errors import DimensionMismatch, SchemaError, SingularGramian, TargetNotInS
from .model import _JSON_NUMBERS, SystemSpec, check_level, path_labels
from .pathspace import (
    AdaptedProcess,
    PathTree,
    member_of_S,
    path_products,
    plant_step,
    state_delay_P,
    _terminal_array,
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

    ``L`` is (N+1, m+m1, n(1+d)+m1 tau). ``c`` holds each c_k as one row
    (depth 0) when it is the same on every node, else at depth k.
    ``u1_pre`` holds u1(-tau), u1(1-tau), ... that enter by stage N, one
    row each (None without a delayed input).
    """

    L: np.ndarray
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


def _check_gramian(G: np.ndarray, what: str) -> None:
    ok, smin = gramian_invertible(G)
    if not ok:
        raise SingularGramian(f"{what} has min singular value {smin:.3e}; cannot invert")


def _pinv(S: np.ndarray) -> np.ndarray:
    """Pseudo-inverse cut where :func:`gramian_invertible` cuts, at n eps sigma_max."""
    return np.linalg.pinv(S, rtol=S.shape[0] * np.finfo(float).eps)


def _gains(ts: TransformedSystem, S) -> list[np.ndarray]:
    """Every route's gains K_k = M [S(j-1) Cbar'; D'] P(j)' S(j)^+, k = 0..N, j = N - k.

    ``S`` lists S(-1) = 0, S(0), ..., S(N); P(j) is the state-delay pivot at
    stage k when the form has a delayed state, else I. On a delayed input
    the rows D1' C^tau' S(j)^+ of u1(k) follow (zero if it enters after N).
    """
    N, form = len(S) - 2, ts.form
    K = [ts.transform.M @ np.vstack([S[N - k] @ form.Cbar.T, form.D.T]) for k in range(N + 1)]
    if form.C1 is not None:
        K = [Kk @ Pk.T for Kk, Pk in zip(K, state_delay_P(form, N))]
    if form.D1 is not None:
        CD1 = (np.linalg.matrix_power(form.C, form.tau) @ form.D1).T
        K = [np.vstack([Kk, CD1 if k <= N - form.tau else 0 * CD1]) for k, Kk in enumerate(K)]
    return [Kk @ _pinv(S[N - k + 1]) for k, Kk in enumerate(K)]


def _steering_start(tree: PathTree, form, x0, target, membership):
    """Shared start of every steering controller.

    Checks x0 and, for a target, runs ``membership`` on its leaf array and
    rejects it with :class:`TargetNotInS` when it is not attainable.
    Returns x0 and the target's zero-free-input solution (None without a target).
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (form.n,):
        raise DimensionMismatch(f"x0 must have length {form.n}, got {x0.shape}")
    if target is None:
        return x0, None
    result = membership(_terminal_array(tree, form.n, target))
    if not result.member:
        raise TargetNotInS(f"terminal residual {result.max_residual:.3e} exceeds tolerance {result.tol}")
    return x0, result.solution


def _steer(kind, ts: TransformedSystem, tree: PathTree, x0, hom, G, K, Pi=None, u1_pre=None) -> ControllerProcess:
    """Build the law L_k, c_k of this module's docstring from gains ``K`` and maps ``Pi``, and run it.

    ``K[k]`` maps p(k) to M [z - z_h; v] and, on a delayed input, to u1(k);
    ``Pi`` is None on the full route (Pi_k = I). r_h is the regressor of
    the target's solution ``hom``, zero without one and in its u1 blocks.
    """
    spec, n, rows = ts.spec, ts.form.n, len(K[0])
    Pi = Pi or [None] * len(K)
    Mq = ts.transform.M[:, :n]
    pad, width = (0, rows - spec.m), n if Pi[0] is None else Pi[0].shape[1]
    Mq_Abar = np.pad(Mq @ spec.Abar, (pad, (0, width - n)))
    L = np.stack([(Kk if P is None else Kk @ P) - Mq_Abar for Kk, P in zip(K, Pi)])
    vals, depths = {}, {}
    for k, (Kk, P) in enumerate(zip(K, Pi)):
        c = np.zeros((1, rows))
        if hom is not None:
            r = _regressor(tree, spec, k, hom.x.values, {})
            c = np.pad(hom.z.at(k) @ Mq.T, ((0, 0), pad)) - (r if P is None else r @ P.T) @ Kk.T
        vals[k], depths[k] = (c[:1], 0) if (c == c[0]).all() else (c, k)
    law = FeedbackLaw(L, AdaptedProcess(tree, vals, depths), u1_pre)
    u, x, u1 = feedback_loop(tree, spec, x0, law)
    return ControllerProcess(kind=kind, tree=tree, u=u, x=x, gramian=G, law=law, u1=u1)


def null_controller(ts: TransformedSystem, tree: PathTree, x0: np.ndarray) -> ControllerProcess:
    """Steer x0 to the origin over the tree's horizon.

    Raises :class:`SingularGramian` when the Gramian at that horizon is not
    invertible at the scale-aware threshold.
    """
    return steer_to_target(ts, tree, x0, None)


def steer_to_target(
    ts: TransformedSystem,
    tree: PathTree,
    x0: np.ndarray,
    target,
    tol: float = 1e-8,
) -> ControllerProcess:
    """Steer x0 to an attainable terminal value over the tree's horizon.

    The terminal may be a vector (constant over paths) or a full leaf
    array; None steers to the origin and gives the null controller.
    Rejects terminals outside the attainable set with
    :class:`TargetNotInS`. The inputs come from one pass of the full
    route's :class:`FeedbackLaw` (this module's docstring), whose N+1
    gains K_k = M [G_{N-k-1} Cbar'; D'] G_{N-k}^+ are built in O(N n^3),
    no tree.
    """
    form, n, N = ts.form, ts.form.n, tree.horizon
    x0, hom = _steering_start(tree, form, x0, target, lambda t: member_of_S(tree, form, t, tol=tol))
    G = [np.zeros((n, n)), *gramian_sequence(form, N)]  # G_{j-1}
    _check_gramian(G[-1], f"Gramian at N = {N}")
    return _steer("null" if hom is None else "target", ts, tree, x0, hom, G[-1], _gains(ts, G))


def _regressor(tree: PathTree, spec: SystemSpec, k: int, xs: dict, u1s: dict) -> np.ndarray:
    """r(k) at depth k: x(k), then x(k-1), ..., x(k-d) or u1(k-1), ..., u1(k-tau).

    ``xs`` and ``u1s`` map a stage j to its values at depth max(0, j); a
    stage they lack (before stage 0, or entering after stage N) is zero.
    """
    lags = [(xs, k - j, spec.n) for j in range(1, (spec.d or 0) + 1)]
    lags += [(u1s, k - j, spec.B1.shape[1]) for j in range(1, (spec.tau or 0) + 1)]
    if not lags:
        return xs[k]
    blocks = [tree.lift(vals[j], max(0, j), k) if j in vals else np.zeros((tree.n_nodes(k), dim))
              for vals, j, dim in lags]
    return np.hstack([xs[k], *blocks])


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
        v = _regressor(tree, spec, k, xs, u1s) @ Lk.T + law.c.at_depth(k, k)
        u_vals[k] = np.ascontiguousarray(v[:, :m]) if tau else v  # laid out as a table reads back
        if tau and k <= N - tau:
            u1s[k] = np.ascontiguousarray(v[:, m:])
        u1k = tree.lift(u1s[k - tau], max(0, k - tau), k) if tau else None
        xs[k + 1] = plant_step(tree, spec, xs, k, u_vals[k], u1k)
    u, x = (AdaptedProcess(tree, vals, {k: k for k in vals}) for vals in (u_vals, xs))
    return u, x, AdaptedProcess(tree, u1s, {j: max(0, j) for j in u1s}) if tau else None


def law_text(ctrl: ControllerProcess) -> str | None:
    """The controller's law as JSON when every c_k is one row, else None (write the table)."""
    law = ctrl.law
    if any(law.c.depths.values()):
        return None
    c = [law.c.at(k)[0].tolist() for k in range(len(law.L))]
    doc = {"kind": "feedback", "N": len(law.L) - 1, "L": law.L.tolist(), "c": c}
    if law.u1_pre is not None:
        doc["u1"] = law.u1_pre.tolist()
    return json.dumps(doc) + "\n"


def read_feedback_law(source, tree: PathTree, spec: SystemSpec) -> FeedbackLaw:
    """Parse a law written by :func:`law_text` for the system ``spec`` at the tree's horizon.

    Raises :class:`SchemaError` for text that is not a JSON object with
    exactly the keys kind, N, L and c, plus u1 exactly on a delayed input;
    a kind other than "feedback"; an N other than the tree's horizon; an L,
    c or u1 not of the instance's shapes (:class:`FeedbackLaw`; u1 is
    (min(tau, N+1), m1)); and entries that are not finite JSON numbers.
    """
    try:
        with _opened(source, "r") as fh:
            doc = json.loads(fh.read())
    except ValueError as exc:  # bad UTF-8, bad JSON, an integer too long to read
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
    m1, tau = (0, 0) if spec.B1 is None else (spec.B1.shape[1], spec.tau)
    L = _law_array("L", doc["L"], (N + 1, spec.m + m1, spec.n * (1 + (spec.d or 0)) + m1 * tau))
    c = _law_array("c", doc["c"], (N + 1, spec.m + m1))
    u1_pre = _law_array("u1", doc["u1"], (min(tau, N + 1), m1)) if m1 else None
    rows = {k: c[k : k + 1] for k in range(N + 1)}
    return FeedbackLaw(L, AdaptedProcess(tree, rows, dict.fromkeys(rows, 0)), u1_pre)


def _law_array(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` as a float array, or :class:`SchemaError` unless nested lists of finite numbers of ``shape``."""
    entries = [value]
    for size in shape:
        if not all(type(v) is list and len(v) == size for v in entries):
            raise SchemaError(f"{name} must be nested lists of shape {shape}")
        entries = [x for v in entries for x in v]
    if not set(map(type, entries)) <= _JSON_NUMBERS:
        raise SchemaError(f"{name} entries must be JSON numbers")
    try:
        arr = np.array(entries, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise SchemaError(f"{name} entries must be finite") from None
    if not np.isfinite(arr).all():
        raise SchemaError(f"{name} entries must be finite")
    return arr.reshape(shape)


def _opened(target, mode: str):
    """A file opened on a path (closed on exit), or an open stream as it is."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        return open(target, mode, encoding="utf-8", newline="")
    return contextlib.nullcontext(target)


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


def controller_csv_text(ctrl: ControllerProcess) -> str:
    buf = io.StringIO()
    write_controller_csv(buf, ctrl)
    return buf.getvalue()


def read_controller_table(
    source, tree: PathTree, spec: SystemSpec
) -> tuple[AdaptedProcess, AdaptedProcess | None]:
    """Parse a controller table of the system ``spec`` back into adapted processes.

    The input widths, and the delayed input channel's lag where there is
    one, are the spec's. Each stage's histories must be one tree level in
    node order, as :func:`write_controller_csv` writes them. Malformed
    tables (wrong header, ragged rows, u rows at stages outside 0..N, u1
    rows outside -tau..N-tau, cells that are not ASCII or hold blanks or
    '_', values that are not finite numbers, histories that are not one
    level in node order) raise :class:`SchemaError`.
    """
    N, m, m1 = tree.horizon, spec.m, 0 if spec.B1 is None else spec.B1.shape[1]
    # channel -> (its columns, first and last stage, stage -> (first line, labels, values))
    channels = {"u": (slice(2, 2 + m), 0, N, {})}
    if m1:
        channels["u1"] = (slice(2 + m, None), -spec.tau, N - spec.tau, {})
    if isinstance(source, str) and "\n" in source:
        source = io.StringIO(source)
    with _opened(source, "r") as fh:
        reader = csv.reader(_checked_lines(fh))
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("controller table is empty") from None
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
    try:
        yield from fh.readlines(1)  # the header, compared with the expected one
        lineno = 2
        while block := fh.readlines(_CHARS_PER_READ):
            if not _plain("".join(block)):
                bad = lineno + next(i for i, line in enumerate(block) if not _plain(line))
                raise SchemaError(f"line {bad}: cells must be ASCII, without blanks or '_'")
            lineno += len(block)
            yield from block
    except UnicodeDecodeError as exc:  # its position counts from the decoder's chunk, not the file
        raise SchemaError(f"not UTF-8 text: byte {exc.object[exc.start]:#04x}, {exc.reason}") from None


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
