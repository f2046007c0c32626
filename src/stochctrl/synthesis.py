"""Steering controller construction and controller table I/O.

On the full route the minimum-energy controller is a state feedback. With
G_j the Gramian over horizon j (G_{-1} = 0), the backward equation gives
x(k) = G_{N-k} y(k) for y(k) = (C(k-1) ... C(0))' G_N^{-1} x0, so

    u(k) = M [q(k); v(k)] = K_k x(k),  K_k = M [G_{N-k-1} Cbar' G_{N-k}^+ - Abar; D' G_{N-k}^+]

with v = D' y and q = z - Abar x, z(k) = G_{N-k-1} Cbar' y(k). The
pseudo-inverse is exact: range D lies in range G_j, and Cbar' maps null
G_j into null G_{j-1}. One closed-loop pass, through the plant step of
:func:`pathspace.forward_simulate`, writes u; x(0) = x0 by construction.
An attainable terminal adds the homogeneous solution (x_h, z_h) reached
with zero free input: u(k) = K_k (x(k) - x_h(k)) + M [z_h(k) - Abar x_h(k); 0].

The delay routes stay open loop: v(i) = D' (C(i-1) ... C(0))' G^{-1} x0
per history, the backward equation solved under it, and u = M [q; v].

Controller tables serialize one row per (stage, history) with 17
significant digits, which round-trips float64 exactly.
"""
from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .criteria import _moment_terms, _running_sums, gramian_invertible
from .errors import DimensionMismatch, SchemaError, SingularGramian, StageMismatch, TargetNotInS
from .model import check_level, path_labels
from .pathspace import (
    AdaptedProcess,
    BsdeSolution,
    PathTree,
    backward_solve,
    member_of_S,
    path_products,
    plant_step,
    _solution,
    _terminal_array,
)
from .transform import TransformedSystem

FLOAT_FMT = "%.17g"
_ROWS_PER_WRITE = 4096
_CHARS_PER_READ = 1 << 16
# Data lines hold printable ASCII but blank and '_', plus line ends: int() and float()
# would also take blanks, '_' and non-ASCII digits.
_LINE_CHARS = bytes(c for c in range(0x21, 0x7F) if c != ord("_")) + b"\r\n"


def stage_products(tree: PathTree, form, upto: int, P=None) -> list[np.ndarray]:
    """Per-history products C(0) ... C(k-1) for k = 0..upto.

    Entry k has shape (s^k, n, n); entry 0 is the identity. With a
    P-sequence the entries are P(0) C(0) P(1) ... C(k-1) P(k), as the
    delayed-state controller needs.
    """
    return list(path_products(form, tree.support, upto, P))


@dataclass(eq=False)
class ControllerProcess:
    """Steering inputs plus their states: closed loop (full route) or backward solution (delay routes)."""

    kind: str
    tree: PathTree
    u: AdaptedProcess
    solution: BsdeSolution
    gramian: np.ndarray
    u1: AdaptedProcess | None = None


def _check_gramian(G: np.ndarray, what: str) -> None:
    ok, smin = gramian_invertible(G)
    if not ok:
        raise SingularGramian(f"{what} has min singular value {smin:.3e}; cannot invert")


def _steering_start(tree: PathTree, form, x0, target, membership):
    """Shared start of every steering controller.

    Checks x0 and, for a target, runs ``membership`` on its leaf array and
    rejects it with :class:`TargetNotInS` when it is not attainable.
    Returns (x0, terminal leaf array, its zero-free-input solution), both None without a target.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (form.n,):
        raise DimensionMismatch(f"x0 must have length {form.n}, got {x0.shape}")
    if target is None:
        return x0, None, None
    terminal = _terminal_array(tree, form.n, target)
    result = membership(terminal)
    if not result.member:
        raise TargetNotInS(f"terminal residual {result.max_residual:.3e} exceeds tolerance {result.tol}")
    return x0, terminal, result.solution


def _free_input_from_products(tree, form, prods, g) -> AdaptedProcess:
    vals = {}
    for k in range(tree.horizon + 1):
        y = np.einsum("hab,a->hb", prods[k], g)  # (C(k-1)...C(0))' g per history
        vals[k] = y @ form.D
    return AdaptedProcess(tree, vals, {k: k for k in vals})


def _controller(
    kind: str, ts: TransformedSystem, G, v: AdaptedProcess, sol: BsdeSolution, u1=None
) -> ControllerProcess:
    """u = M [z - Abar x; v] stage by stage from the solved pair, bundled with the rest."""
    spec, tree = ts.spec, sol.tree
    u_vals = {}
    for k in range(tree.horizon + 1):
        q = sol.z.at(k) - sol.x.at(k) @ spec.Abar.T
        u_vals[k] = np.hstack([q, v.at_depth(k, k)]) @ ts.transform.M.T
    u = AdaptedProcess(tree, u_vals, {k: k for k in u_vals})
    return ControllerProcess(kind=kind, tree=tree, u=u, solution=sol, gramian=G, u1=u1)


def _feedback_gains(ts: TransformedSystem, N: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The full route's gains K_0..K_N and G_N; pseudo-inverses cut where :func:`gramian_invertible` does."""
    form, n = ts.form, ts.form.n
    G = [np.zeros((n, n)), *itertools.islice(_running_sums(_moment_terms(form), n), N + 1)]  # G_{j-1}
    _check_gramian(G[-1], f"Gramian at N = {N}")
    gains = []
    for j in range(N, -1, -1):  # j = N - k
        G_plus = np.linalg.pinv(G[j + 1], rtol=n * np.finfo(float).eps)
        q_gain = G[j] @ form.Cbar.T @ G_plus - ts.spec.Abar
        gains.append(ts.transform.M @ np.vstack([q_gain, form.D.T @ G_plus]))
    return gains, G[-1]


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
    :class:`TargetNotInS`. The inputs come from one closed-loop pass of
    the feedback law in this module's docstring.
    """
    form, spec = ts.form, ts.spec
    x0, terminal, hom = _steering_start(
        tree, form, x0, target, lambda t: member_of_S(tree, form, t, tol=tol)
    )
    gains, G = _feedback_gains(ts, tree.horizon)
    Mq = ts.transform.M[:, : form.n]
    xs, u_vals = {0: x0[None, :].copy()}, {}
    for k, K in enumerate(gains):
        if hom is None:
            u_vals[k] = xs[k] @ K.T
        else:
            xh = hom.x.at(k)
            u_vals[k] = (xs[k] - xh) @ K.T + (hom.z.at(k) - xh @ spec.Abar.T) @ Mq.T
        xs[k + 1] = plant_step(tree, spec, xs, k, u_vals[k])
    u = AdaptedProcess(tree, u_vals, {k: k for k in u_vals})
    kind = "null" if terminal is None else "target"
    return ControllerProcess(kind=kind, tree=tree, u=u, solution=_solution(tree, xs), gramian=G)


def q_expanded(ts: TransformedSystem, tree: PathTree, v: AdaptedProcess) -> AdaptedProcess:
    """Absorbed input via the expanded tail sum instead of the solved pair.

    Evaluates q(k) = E[w(k) sum_{i>k} C(k+1)...C(i-1) D v(i) | stage k-1]
    - Abar x(k) literally on the tree. Exists as a cross-check of the
    primary construction; the two must agree to rounding.
    """
    form, spec = ts.form, ts.spec
    n, N, s = form.n, tree.horizon, tree.s
    cmats = form.stage_factors(tree.support)
    sol = backward_solve(tree, form, None, v)
    full = tree.n_nodes(N)

    def stage_digit(t):
        return (np.arange(full) // s ** (N - 1 - t)) % s

    # psi(j) = D v(j) + C(j) psi(j+1), evaluated at full depth N
    psi = {N + 1: np.zeros((full, n))}
    for j in range(N, 0, -1):
        vj = tree.lift(v.at_depth(j, j), j, N) @ form.D.T
        if j <= N - 1:
            rotated = np.einsum("hab,hb->ha", cmats[stage_digit(j)], psi[j + 1])
        else:
            rotated = np.zeros((full, n))
        psi[j] = vj + rotated

    out_vals, out_depths = {}, {}
    for k in range(N + 1):
        if k == N:
            q_free = np.zeros((tree.n_nodes(N), n))
        else:
            weighted = psi[k + 1] * tree.support[stage_digit(k)][:, None]
            q_free = tree.cond_expect_array(weighted, N, k)
        out_vals[k] = q_free - sol.x.at(k) @ spec.Abar.T
        out_depths[k] = k
    return AdaptedProcess(tree, out_vals, out_depths)


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
    source, tree: PathTree, m: int, m1: int | None = None, tau: int | None = None
) -> tuple[AdaptedProcess, AdaptedProcess | None]:
    """Parse a controller table back into adapted processes.

    ``m1`` and ``tau`` describe the delayed input channel (its width and
    lag) when the instance has one, else both are None. Each stage's
    histories must be one tree level in node order, as
    :func:`write_controller_csv` writes them. Malformed tables (wrong
    header, ragged rows, u rows at stages outside 0..N, u1 rows outside
    -tau..N-tau, cells that are not ASCII or hold blanks or '_', values
    that are not finite numbers, histories that are not one level in node
    order) raise :class:`SchemaError`.
    """
    if (m1 is None) != (tau is None):
        raise StageMismatch("m1 and tau must be supplied together")
    N = tree.horizon
    # channel -> (its columns, first and last stage, stage -> (first line, labels, values))
    channels = {"u": (slice(2, 2 + m), 0, N, {})}
    if m1:
        channels["u1"] = (slice(2 + m, None), -tau, N - tau, {})
    if isinstance(source, str) and "\n" in source:
        source = io.StringIO(source)
    with _opened(source, "r") as fh:
        reader = csv.reader(_checked_lines(fh))
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("controller table is empty") from None
        want = ["stage", "history"] + [f"u_{i}" for i in range(m)]
        want += [f"u1_{i}" for i in range(m1)] if m1 else []
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
