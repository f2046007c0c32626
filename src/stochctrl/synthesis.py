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
P and the lag gains, and the blocks C^i D1 of
:func:`criteria._input_block`, the ones the Gramians read, give the
input-delay gains' u1 rows, predictor and pre-horizon inputs.
``delay``'s controllers are channel checks in front of it.

So every controller is one law (:class:`FeedbackLaw`) in the regressor
r(k) of x(k) and the lags that act at stage k (:func:`pathspace._acting_lags`,
never more than N + 1). With p(k) = (r(k) - r_h(k)) Pi_k', Pi_k = I on
the full route, L_k = K_k Pi_k - [M_q Abar, 0] (M_q the first n columns
of M) and c_k = [z_h(k) M_q', 0] - (r_h(k) Pi_k') K_k'. Pi_k's first
block is I and r_h's u1 entries are zero, so (r_h(k) Pi_k') K_k' =
r_h(k) L_k' + [x_h(k) Abar' M_q', 0], and
c_k = [(z_h(k) - x_h(k) Abar') M_q', 0] - r_h(k) L_k': the offsets are
fixed by the gains and the target's solution. Where every c_k is the
same on every node (the origin, a constant target, a target affine in
the last noise) the law lists them, one row each; :func:`target_offsets`
builds them per node, r_h(k) L_k' formed as the loop forms r(k) L_k',
each acting state lag x_h(k-j) multiplied at its own depth
(:func:`pathspace._add_product`), and synthesize stops at the first
stage whose rows differ. Otherwise the law holds the target's solution,
and the commands' loop adds c_k's terms of it at their own depths, so no
per-node c_k is formed: x_h(k+1), as the rows of s n entries under each
depth-k node, times the fixed map Z M_q' (B + w_j Bbar)'_j, with
Z = [p_j w_j I_n]_j (``pathspace.z_map``), and x_h(k) and each
acting state lag x_h(k-j) times their columns of -L_k' (with -Abar' M_q'
on x_h(k)). K_k has u1 rows only while u1(k) enters by stage N
(k <= N - tau), so L_k and c_k have none past that.

Two closed loops run a law. The commands' loop, :func:`folded_loop`,
folds u(k) into the plant step: stage k is one matmul of x(k) against
the closed-loop map [(A + w_j Abar)' + L_k,x' (B + w_j Bbar)']_j, with
the offset's terms and each acting lag added at their own depths. A
stage's terms are the one statement of what it reads: each names a value,
the block it meets and how many stages above x(k) it sits, and a value
j stages above x(k) meets its block tiled s^j times, so that one
product covers its descendants and is added to them in one contiguous
pass. It walks a flat
plan built once per loop, each stage's maps with the arrays it writes
into and the views it and the next stage read, breadth-first only while
a level holds at most ``pathspace.BLOCK_ENTRIES`` entries, then carries
runs of that level's rows (:class:`pathspace.RunCut`), each ending in at
most as many entries of leaves, through the remaining stages one at a
time and yields x(N+1) run by run, so it never holds a leaf level; of
the levels above the runs it keeps only those the runs' terms name.
synthesize and verify of a law both run it and reduce the terminal gap
run by run, so they report the same deviation to the last digit. The
plant-step loop, :func:`feedback_loop`, evaluates [u(k), u1(k)] into
one input buffer and steps through :func:`pathspace.plant_step`, the
step of forward simulation, yielding each stage's inputs and next state
and keeping only what a later stage reads. :func:`write_controller_csv`
writes a table from those inputs as they come, so the table replays the
loop's states bit for bit. Both loops stay while tables do: a table's
inputs taken from folded states do not replay open loop within the
round-trip bound, as the plant step's do.
Every controller is written as its law, JSON {"kind": "feedback", "N",
"L", "c"} plus "u1" on a delayed input, with floats in ``repr`` (exact
for float64); each c_k is one flat row-major list of w_k numbers, where
w_k = m + m1 [k <= N - tau] is L_k's row count. A law whose offsets
differ by node (a path target's) holds "target" instead of "c": the
SHA-256 hex digest of the target's leaf rows as little-endian float64
bytes in C order (:func:`target_digest`). :func:`read_feedback_law`
checks it against the instance's target and solves the homogeneous
backward equation on that target, the solve synthesize's membership test
made, so every law read back is whole and synthesize and verify run the
same offsets to the last bit; the plant is still stepped from x0, so an
error in them shows in the terminal deviation. A c listing one row per node, as
earlier versions wrote a path target's law, is malformed, as is a
delay-route law with a column for a lag that never acts, or with u1
rows or entries at a stage k > N - tau. The table of one row per
(stage, history), 17 digits a value, stays a library format that verify
also reads.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import re
from array import array
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import pathspace
from .criteria import _input_block, _pinv, _pre_horizon_sums, _reaching, gramian_invertible, gramian_sequence
from .errors import DimensionMismatch, SchemaError, SingularGramian, TargetNotInS
from .model import SystemSpec, ValidatedSystem, _document, _finite_floats, _label_tables, _level_labels, check_level
from .pathspace import (
    PathTree,
    _add_product,
    backward_solve,
    member_of_S,
    path_products,
    plant_step,
    _acting_lags,
    _state_delay_gains,
    z_level,
)
from .transform import TransformedSystem

FLOAT_FMT = "%.17g"
_CHARS_PER_READ = 1 << 16
# Data lines hold printable ASCII but blank and '_', plus line ends: int() and float()
# would also take blanks, '_' and non-ASCII digits.
_LINE_CHARS = bytes(c for c in range(0x21, 0x7F) if c != ord("_")) + b"\r\n"
_LAW_KEYS = ("kind", "N", "L")
_DIGEST = re.compile("[0-9a-f]{64}")


def stage_products(tree: PathTree, form, upto: int) -> list[np.ndarray]:
    """Per-history products C(0) ... C(k-1), k = 0..upto; no controller uses them."""
    return list(path_products(form, tree.support, upto))


@dataclass(eq=False)
class FeedbackLaw:
    """[u(k), u1(k)] = r(k) L_k' + c_k for k = 0..N; u1(k) only while it enters by stage N.

    r(k) is x(k) followed by the lags that act at stage k, in
    :func:`pathspace._acting_lags`' order. ``L`` holds N+1 arrays, L_k with
    m rows, plus m1 u1 rows for k <= N - tau on a delayed input, and a
    column per entry of r(k). When every c_k is the same on every node
    (the origin, a constant target, a target affine in the last noise),
    ``c`` holds them, c_k one row with L_k's row count as its width, and
    the written law lists them (:func:`law_text`). Else ``c`` is None and
    the offsets are read from the target's homogeneous solution ``hom``,
    its levels x_h(0..N+1), with ``Mq``, M's first n columns:
    c_k = [(z_h(k) - x_h(k) Abar') M_q', 0] - r_h(k) L_k'. The written law
    stores the SHA-256 digest of the target's leaves x_h(N+1)
    (:func:`target_digest`) instead of c, and :func:`read_feedback_law`
    solves for ``hom`` again from the target it names. :func:`folded_loop`
    adds the solution's terms of c_k at their own depths and never forms
    c_k; :func:`feedback_loop` forms it stage by stage
    (:func:`target_offsets`). ``u1_pre`` holds u1(-tau), u1(1-tau), ...
    that enter by stage N, one row each (None without a delayed input).
    """

    L: list[np.ndarray]
    c: list[np.ndarray] | None
    u1_pre: np.ndarray | None = None
    hom: dict | None = None
    Mq: np.ndarray | None = None


@dataclass(eq=False)
class ControllerProcess:
    """A steering law, with the Gramian it was built on and that Gramian's smallest singular value.

    ``x0`` is the start the law steers from: :func:`write_controller_csv`
    runs the law's closed loop from it.
    """

    kind: str
    tree: PathTree
    spec: SystemSpec
    x0: np.ndarray
    gramian: np.ndarray
    law: FeedbackLaw
    smin: float


def _steer(ts: TransformedSystem, tree: PathTree, x0, target, tol: float) -> ControllerProcess:
    """The law that steers x0 to ``target`` (None: the origin), as this module's docstring builds it.

    The form picks the membership solve, the Gramian, the kind and, per
    delay channel, the gains' u1 rows (k <= N - tau) or pivots P(j), the
    lag blocks of Pi_k and the pre-horizon inputs ``u1_pre``. r_h is the
    regressor of the target's solution, zero without one and in its u1
    blocks. The gains' S(0..N)^+ is one stacked :func:`criteria._pinv` call.
    The law lists c when every stage's :func:`target_offsets` rows are
    equal, and else holds the solution that ``member_of_S`` returned; the
    stages are built only up to the first whose rows differ.
    """
    form, spec, n, N = ts.form, ts.spec, ts.form.n, tree.horizon
    x0 = np.array(x0, dtype=float)  # a copy: the record keeps it for the table's closed loop
    if x0.shape != (n,):
        raise DimensionMismatch(f"x0 must have length {n}, got {x0.shape}")
    hom = None
    if target is not None:
        result = member_of_S(tree, form, target, tol=tol)
        if not result.member:
            raise TargetNotInS(f"representation residual {result.max_residual:.3e} at stage {result.stage} "
                               f"exceeds {result.bound:.3e} (tolerance {result.tol} x max(1, max |target|))")
        hom = result.solution
    seq = _reaching(gramian_sequence(form, N), N)  # S(j), j = 0..N
    S = [np.zeros((n, n)), *seq]  # S(j-1)
    K = [ts.M @ np.vstack([S[N - k] @ form.Cbar.T, form.D.T]) for k in range(N + 1)]
    G, Q, CD1, u1_pre = seq[N], None, None, None
    if form.D1 is not None:
        kind, what, tau = "input-delay", "delayed-input Gramian", form.tau
        G = seq[N] + _pre_horizon_sums(form, min(tau, N + 1))[-1]  # gramian(form, N), from the one scan
        CD1 = [_input_block(form, i) for i in range(min(tau, N) + 1)]  # C^i D1
        # u1(k) has rows D1' C^tau' S(j)^+ while it enters by stage N, else none.
        K = [np.vstack([Kk, CD1[tau].T]) if k <= N - tau else Kk for k, Kk in enumerate(K)]
    elif form.C1 is not None:
        kind, what = "state-delay", "delayed-state Gramian"
        P, Q = _state_delay_gains(form, N)
        K = [Kk @ Pk.T for Kk, Pk in zip(K, P)]
    else:
        kind, what = "null" if hom is None else "target", "Gramian"
    ok, smin = gramian_invertible(G)
    if not ok:
        raise SingularGramian(what, N, smin)
    if form.D1 is not None:
        g = np.linalg.solve(G, x0 if hom is None else x0 - hom[0][0])
        u1_pre = np.array([g @ CD1[i] for i in range(min(tau, N + 1))])
    S_pinv = _pinv(seq)  # S(j)^+, j = 0..N
    K = [Kk @ S_pinv[N - k] for k, Kk in enumerate(K)]
    Mq = ts.M[:, :n]
    Mq_Abar = Mq @ spec.Abar
    L = []
    for k, Kk in enumerate(K):
        xlags, ulags = _acting_lags(N, k, form.d or 0, form.tau or 0)
        P = np.hstack([np.eye(n), *(-Q[k][j] for j in xlags), *(-CD1[form.tau - i] for i in ulags)])  # Pi_k
        L.append(Kk @ P)
        L[k][: spec.m, :n] -= Mq_Abar
    c = list(itertools.takewhile(lambda ck: len(ck) == 1, target_offsets(tree, spec, Mq, L, hom)))
    if len(c) <= N:  # a stage's rows differ: the loop reads the offsets from the target's solution
        law = FeedbackLaw(L, None, u1_pre, hom, Mq)
    else:
        law = FeedbackLaw(L, c, u1_pre)
    return ControllerProcess(kind, tree, spec, x0, G, law, smin)


def target_offsets(tree: PathTree, spec: SystemSpec, Mq: np.ndarray, L: list[np.ndarray],
                   hom: dict | None) -> Iterator[np.ndarray]:
    """The offsets c_k, k = 0..N, of the law with gains ``L`` that steers to the target whose homogeneous
    solution is ``hom``, the levels x_h(0..N+1) of ``pathspace.backward_solve`` on the tree, stage by stage;
    ``Mq`` is M's first n columns.

    c_k = [(z_h(k) - x_h(k) Abar') M_q', 0] - r_h(k) L_k', with
    r_h(k) L_k' formed as :func:`feedback_loop` forms r(k) L_k'
    (:func:`_regressor_product`): x_h(k) in
    one matmul, each acting state lag x_h(k-j) at its own depth, the
    target's u1 lags zero. So the law gives the target's own input on its
    solution. A stage whose rows are all equal is yielded as one row;
    without a target (``hom`` None) every c_k is one row of zeros.
    synthesize takes the stages while each is one row, so it stops at
    the first whose rows differ, and lists c when none does; the
    plant-step loop (:func:`feedback_loop`) takes one stage per step.

    Each c_k is built in place, in blocks of s^p rows, the most whose
    entries fit in ``pathspace.BLOCK_ENTRIES`` but with p past the longest
    lag (``pathspace._block_depth``; a lag past N acts at no stage and
    counts as none), so a lag's block spans s rows or more
    and every row meets the matmul kernel the whole stage would: r_h(k) L_k'
    goes into the block's rows and the
    first part is subtracted from it, so no temporary is larger than a
    block. z_h(k) is formed block by block too, from the block's children
    in x_h(k+1) (``pathspace.z_level``), and no z level is held. The
    all-rows-equal test reads the stage block by block as well.
    """
    if hom is None:
        yield from (np.zeros((1, len(Lk))) for Lk in L)
        return
    n, m, s, d = spec.n, spec.m, tree.s, spec.d or 0
    d = d if d < len(L) else 0  # a lag past N acts at no stage, as in folded_loop
    rows = s ** max(d + 1, pathspace._block_depth(s, max(n, len(L[0]))))
    for k, Lk in enumerate(L):
        ck = np.empty((len(hom[k]), len(Lk)))
        for h in range(0, len(ck), rows):
            block = ck[h : h + rows]
            # x(k) and its lags x(k - j), the block's rows and their ancestors
            xs = {j: xj[h // s ** (k - j) : (h + len(block)) // s ** (k - j)]
                  for j, xj in hom.items() if k - d <= j <= k}
            _regressor_product(spec, L, k, xs, None, block)
            q = z_level(tree, hom[k + 1][h * s : (h + len(block)) * s])
            q -= xs[k] @ spec.Abar.T
            np.subtract(q @ Mq.T, block[:, :m], out=block[:, :m])
            np.subtract(0.0, block[:, m:], out=block[:, m:])  # 0 - r, not -r: a zero keeps its sign
        same = all((ck[h : h + rows] == ck[0]).all() for h in range(0, len(ck), rows))
        yield ck[:1].copy() if same else ck  # a copy: a view would keep every node's row


def target_digest(leaves: np.ndarray) -> str:
    """SHA-256 hex digest of a target's leaf rows as little-endian float64 bytes in C order."""
    return hashlib.sha256(np.ascontiguousarray(leaves, dtype="<f8")).hexdigest()


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
    :class:`TargetNotInS`. Returns the route's :class:`FeedbackLaw` (this
    module's docstring), whose N+1 gains are built in O(N n^3), no tree
    (a target's offsets read its solution on the tree); no closed loop
    runs. On a delay route it is ``delay``'s controller.
    """
    return _steer(ts, tree, x0, target, tol)


def feedback_loop(
    tree: PathTree, spec: SystemSpec, x0: np.ndarray, law: FeedbackLaw
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Run [u(k), u1(k)] = r(k) L_k' + c_k through :func:`pathspace.plant_step` from x0.

    Yields (k, v, x(k+1)) for k = 0..N: v is [u(k), u1(k)], one row per
    depth-k node (u1 only while it enters by stage N), evaluated into one
    input buffer, r(k) L_k' by :func:`_regressor_product` and then c_k
    added in place (one row broadcasts), so it is valid only until
    the next step; x(k+1) is at depth k + 1. A law without listed offsets
    has its c_k built per node, one stage per step, by
    :func:`target_offsets`. The step's products go into
    one work buffer; both buffers are sized once for depth N. Of the
    states and delayed inputs the loop keeps only what a later stage
    reads (:func:`_drop_read`): x(k+1), those of the state lags
    x(k-d+1..k) that act at a later stage (none past N - d) and the u1
    pipeline u1(k-tau+1..k). The commands run a law through
    :func:`folded_loop` instead.
    """
    m, N, s, n = spec.m, len(law.L) - 1, tree.s, spec.n
    d, tau = spec.d or 0, spec.tau if spec.B1 is not None else 0
    inputs = np.empty(max(tree.n_nodes(k) * len(Lk) for k, Lk in enumerate(law.L)))
    # The step's s n wide products, and the lag products at depth <= N - 1 of _regressor_product.
    work = np.empty(max(tree.n_nodes(N) * s * n, tree.n_nodes(max(0, N - 1)) * len(law.L[0])))
    xs = {0: np.asarray(x0, dtype=float)[None, :].copy()}
    u1s = {i - tau: law.u1_pre[i : i + 1] for i in range(len(law.u1_pre))} if tau else {}
    maps = pathspace.plant_maps(tree, spec)
    offsets = law.c if law.c is not None else target_offsets(tree, spec, law.Mq, law.L, law.hom)
    for k, ck in enumerate(offsets):
        rows, width = tree.n_nodes(k), len(law.L[k])
        v = _regressor_product(spec, law.L, k, xs, u1s, inputs[: rows * width].reshape(rows, width), work)
        v += ck  # one row broadcasts
        if tau and k <= N - tau:
            u1s[k] = v[:, m:].copy()
        xs[k + 1] = plant_step(tree, spec, maps, xs, k, v[:, :m], u1s[k - tau] if tau else None, work)
        _drop_read(xs, u1s, k, N, d, tau)
        yield k, v, xs[k + 1]


def _drop_read(xs: dict, u1s: dict, k: int, N: int, d: int, tau: int) -> None:
    """After stage k, drop what no later stage reads: x(k - d) and u1(k - tau), which act last at stage k, and
    x(k) itself when k > N - d, as its effect as a lag would enter after stage N (:func:`pathspace._acting_lags`)."""
    xs.pop(k - d, None)
    if k + d > N:
        xs.pop(k, None)
    u1s.pop(k - tau, None)


def folded_loop(tree: PathTree, spec: SystemSpec, x0, law: FeedbackLaw) -> Iterator[tuple[int, np.ndarray]]:
    """x(N+1) of the law's closed loop in runs of consecutive leaves, each with the index of its first leaf.

    The loop walks a flat plan (:func:`_walk`), built by :func:`_plan` once for the top stages and once for
    the runs: each stage's maps (:func:`_stage_maps`) with the arrays it writes x(k+1) and u1(k) into, the
    view of x(k+1) the next stage reads and each term's arrays, all shaped once.
    Stages run breadth-first over whole levels down to the top level of
    :class:`pathspace.RunCut`, cut by the n entries a node holds, whose runs
    are then each carried alone through the remaining stages. The runs read
    from above them what their terms name, each term's value (key, k - up)
    at its depth, and the top level x(top): nothing else is listed, so a
    listed c_k, k stages above x(k), sits at depth 0 by the same rule. Each
    run starts from an empty dict holding those values as its rows of them
    (:meth:`pathspace.RunCut.rows`), so every lag but a depth-0 one spans s
    rows or more: a single row would go
    through the matrix-vector kernel, which rounds differently from the
    level's matmul. The offsets are the law's listed one-row c_k, its u
    columns with the atom stack of B and its u1 columns with I_m1, or, for a
    path target, terms of the target's solution (x_h, z_h) added at their
    own depths, so no c_k is formed per node. A c_k that is one row of
    zeros, as every stage of the origin's law, is not applied at all,
    which changes no value but the sign of a zero. A lag's value, j stages
    above x(k), meets its block tiled s^j times, so its product covers its
    descendants and is added to them in one contiguous pass. Every run writes
    into the same arrays, so a yielded run is valid only until the next run
    is requested, as :func:`feedback_loop`'s inputs are until its next step.
    So the runs, concatenated, are the breadth-first loop's x(N+1) bit for
    bit, and no more is held than the top level with its lags and one
    run's, each level at most ``pathspace.BLOCK_ENTRIES`` entries, besides
    the target's solution the law holds.
    synthesize and verify both run a law here, so they report the same
    deviation to the last digit; the states differ from
    :func:`feedback_loop`'s, the plant step's, by rounding.
    """
    N, d, tau = len(law.L) - 1, spec.d or 0, spec.tau or 0
    cut = pathspace.RunCut(tree, spec.n, max(d, tau))
    stages, vals = _stage_maps(tree, spec, law), _start_values(x0, law, tau)
    lags = [lag if lag <= N else 0 for lag in (d, tau)]  # a lag past N reads no level
    top = _plan(stages[: cut.top], tree.n_nodes, *lags)
    _walk(top, vals, vals["x", 0])
    # What the runs read above them, each at its depth: the top level and what their terms name but do not write.
    reads = {key: k - up for k, *_, terms in stages[cut.top :] for key, _, _, up in terms} | {("x", cut.top): cut.top}
    above = [(key, depth, vals[key]) for key, depth in reads.items() if key in vals]
    read = {id(level.base) for _, _, level in above}
    spare = {out.base.size: out.base for _, _, out, *_ in top if id(out.base) not in read}  # x arrays no run reads
    del top, vals  # the top levels no run reads are released, but for the spare arrays
    runs, vals = _plan(stages[cut.top :], cut.count, *lags, spare), {}
    for first in cut.firsts:
        for key, depth, level in above:
            vals[key] = level[cut.rows(depth, first)]
        yield first, _walk(runs, vals, vals["x", cut.top])


def _start_values(x0, law: FeedbackLaw, tau: int) -> dict:
    """What a closed loop reads before stage 0, keyed as :func:`_walk` reads it: ("x", 0) the row x0,
    ("u1", j) for j < 0 the pre-horizon inputs of ``law.u1_pre``, and either ("c", k) and ("c1", k) the u
    and u1 columns of the law's listed offset c_k (an empty view where c_k has no u1 columns, which no term
    names) or, for a law that reads its offsets from the target's solution, ("xh", k) the level x_h(k) and
    ("zh", k) the level x_h(k+1) as the rows of s n entries under each depth-k node, k = 0..N."""
    vals = {("x", 0): np.asarray(x0, dtype=float)[None, :].copy()}
    if tau:
        vals.update((("u1", i - tau), law.u1_pre[i : i + 1]) for i in range(len(law.u1_pre)))
    if law.c is None:
        for k in range(len(law.L)):
            vals["xh", k], vals["zh", k] = law.hom[k], law.hom[k + 1].reshape(len(law.hom[k]), -1)
        return vals
    m = len(law.L[-1])  # stage N has no u1 rows, as u1(N) would enter after stage N
    for k, ck in enumerate(law.c):
        vals["c", k], vals["c1", k] = ck[:, :m], ck[:, m:]
    return vals


def _plan(stages: list, rows, d: int, tau: int, spare: dict | None = None) -> list[tuple]:
    """The plan :func:`_walk` walks over a span of :func:`_stage_maps` stages, in which a level at depth j
    has ``rows(j)`` rows (a whole level's above ``RunCut.top``, a run's below): per stage, (k, the
    closed-loop map, the C-contiguous array x(k+1) goes into as (rows, s n), the same as the (rows s, n)
    level the next stage reads, L_k,u1,x', the array u1(k) goes into (None without u1 rows), the terms).

    x(j) goes into one of d + 2 arrays by j modulo d + 2, and u1(j) into one of tau + 1 by j modulo
    tau + 1, as stage k reads x(k-d..k) and u1(k-tau..k-1); each array is sized for the largest level it
    holds in the span, and one flat ``work`` array for the largest term product. An array is taken from
    ``spare`` ({size: flat array no longer read}) where one has its size, else allocated; ``spare`` is
    emptied before any is allocated, so no unused one is held beside them. Under a low mmap threshold a
    fresh array faults in every page it is written to, and a spare one none.

    A term is its key and block with the product's array, a (rows, width) view of ``work`` whose rows are
    those of its value, rows(k - up) for a value up stages above x(k), the (rows, descendants, width) view of
    x(k+1) or u1(k) it is added to and the product as added, (rows, 1, width): one kind of add for every
    term. Where the product covers the value's descendants, as a tiled block's does, the view has one
    descendant, and numpy runs the add as one contiguous pass; else (a one-row c_k, or a lag longer than its
    block is tiled) the product spreads over the descendants.
    """
    sizes, arrays = {}, []
    for k, fold, u1_map, *_ in stages:  # (array, rows, width) of x(k+1), then of u1(k)
        arrays.append([((k + 1) % (d + 2), rows(k), fold.shape[1])])
        if u1_map is not None:
            arrays[-1].append((d + 2 + k % (tau + 1), rows(k), u1_map.shape[1]))
        for i, r, w in arrays[-1]:
            sizes[i] = max(sizes.get(i, 0), r * w)
    spare = spare or {}
    bufs = {i: spare.pop(size) for i, size in sizes.items() if size in spare}
    spare.clear()
    bufs.update((i, np.empty(size)) for i, size in sizes.items() if i not in bufs)
    work = np.empty(max((rows(k - up) * block.shape[1] for k, _, _, terms in stages for _, block, _, up in terms),
                        default=0))
    plan = []
    for (k, fold, u1_map, terms), where in zip(stages, arrays):
        out, u1_out = [*(bufs[i][: r * w].reshape(r, w) for i, r, w in where), None][:2]  # u1_out None without u1
        shaped = []
        for key, block, to_u1, up in terms:
            r, w = rows(k - up), block.shape[1]
            prod = work[: r * w].reshape(r, w)
            shaped.append((key, block, prod, (u1_out if to_u1 else out).reshape(r, -1, w), prod[:, None, :]))
        plan.append((k, fold, out, out.reshape(-1, len(fold)), u1_map, u1_out, tuple(shaped)))
    return plan


def _stage_maps(tree: PathTree, spec: SystemSpec, law: FeedbackLaw) -> list[tuple]:
    """Each stage's maps, built once per loop for :func:`_walk`, which reads stage k's once per run: (k, the
    closed-loop map [(A + w_j Abar)' + L_k,x' (B + w_j Bbar)']_j, L_k,u1,x' (None without u1 rows), the
    terms). A term is a key in the loop's values, the block its value meets, whether the product goes to
    u1(k) and how many stages above x(k) its value sits (``up``); the terms are the one statement of what a
    stage reads besides x(k), so :func:`folded_loop` hands the runs what the runs' terms name. The atom
    stacks Bw = [(B + w_j Bbar)']_j and the s copies of A1' and of B1' are :func:`pathspace.plant_maps`'.

    The offset's terms come first. A listed c_k, one row, is ("c", k), its u columns, with Bw; it is not
    applied when it is zeros (every stage of the origin's law), as adding 0.0 changes no value but the sign
    of a zero. Otherwise c_k = [(z_h(k) - x_h(k) Abar') M_q', 0] - r_h(k) L_k' is expanded into terms of the
    target's solution, each at its own depth: ("zh", k), x_h(k+1) as rows of s n, with Z M_q' Bw, where
    Z = [p_j w_j I_n]_j is :func:`pathspace.z_map`, and ("xh", k) with -(Abar' M_q' + L_k,x,u') Bw and,
    on u1 rows, with -L_k,x,u1'. Then each acting lag (:func:`pathspace._acting_lags`' order), ("x", k - j)
    or ("u1", k - i), with L_k,lag' Bw plus A1' for x(k-d) or B1' for u1(k-tau), and on u1 rows with
    L_k,lag,u1'; after a state lag, for a target's solution, ("xh", k - j) with -L_k,lag,u' Bw (a route with
    a state lag has no u1 rows, and the target's u1 is zero). A lag's value sits min(j, k) stages above x(k),
    and its block is tiled to match (:func:`_tiled`). Last, where a nonzero listed c_k has u1 columns (only a
    stage with u1 rows), ("c1", k) with I_m1 on u1 rows: its product is the row itself, but for the sign of
    a zero. A listed c_k's terms sit k stages above x(k), at depth 0.

    The closed-loop maps are one stacked matmul for the stages whose L_k has the same width, so that each
    L_k,x' keeps the strides of its own L_k's rows: at n = 1 it is a vector, whose product is a
    matrix-vector kernel that rounds by its stride.
    """
    m, n, N, d, tau, s = spec.m, spec.n, len(law.L) - 1, spec.d or 0, spec.tau or 0, tree.s
    Aw, Bw, A1w, B1w = pathspace.plant_maps(tree, spec)
    folds = [None] * (N + 1)
    for width in {Lk.shape[1] for Lk in law.L}:
        ks = [k for k, Lk in enumerate(law.L) if Lk.shape[1] == width]
        for k, fold in zip(ks, Aw + np.stack([law.L[k][:m] for k in ks])[:, :, :n].transpose(0, 2, 1) @ Bw):
            folds[k] = fold
    path = law.c is None  # the offsets are terms of the target's solution
    if path:
        zmap = pathspace.z_map(tree, n) @ law.Mq.T @ Bw  # Z M_q' Bw
        xmap = spec.Abar.T @ law.Mq.T
    stages = []
    for k, Lk in enumerate(law.L):
        Lu, L1 = Lk[:m], Lk[m:]
        u1 = len(L1) > 0
        offset = not path and any(law.c[k][0].tolist())  # a NaN counts as nonzero, as in ck.any()
        if path:
            terms = [(("zh", k), zmap, False, 0), (("xh", k), -(xmap + Lu[:, :n].T) @ Bw, False, 0)]
            terms += [(("xh", k), -L1[:, :n].T, True, 0)] if u1 else []
        else:
            terms = [(("c", k), Bw, False, k)] if offset else []
        xlags, ulags = _acting_lags(N, k, d, tau)
        col = n
        for key, width, direct, up in [(("x", k - j), n, A1w if j == d else None, j) for j in xlags] + [
                (("u1", k - i), spec.B1.shape[1], B1w if i == tau else None, min(i, k)) for i in ulags]:
            cols = slice(col, col + width)
            block = Lu[:, cols].T @ Bw
            if direct is not None:
                block += direct
            blocks = [(key, block, False)] + ([(key, L1[:, cols].T, True)] if u1 else [])
            if path and key[0] == "x":  # the target's state lag
                blocks.append((("xh", key[1]), -Lu[:, cols].T @ Bw, False))
            terms += [(name, _tiled(b, s, up), to_u1, up) for name, b, to_u1 in blocks]
            col = cols.stop
        if u1 and offset:
            terms.append((("c1", k), np.eye(len(L1)), True, k))
        stages.append((k, folds[k], L1[:, :n].T if u1 else None, tuple(terms)))
    return stages


def _tiled(block: np.ndarray, s: int, up: int) -> np.ndarray:
    """``block`` side by side s^up times, so that the product of a value ``up`` stages above x(k) covers
    all its descendants there at once; but only as many times, a power of s, as keep the copies within
    ``pathspace.BLOCK_ENTRIES`` entries, and the product spreads over the rest of the (rows, descendants,
    width) view it is added to. The count depends on s, the lag, the stage and the block's shape alone,
    never on a run's rows, so every run meets the same blocks."""
    copies = s**up
    while copies > 1 and copies * block.size > pathspace.BLOCK_ENTRIES:
        copies //= s
    return np.concatenate([block] * copies, axis=1) if copies > 1 else block


def _walk(plan: list, vals: dict, x: np.ndarray) -> np.ndarray:
    """Run the stages of ``plan`` (:func:`_plan`) from x, the first one's x(k), and return the last one's
    x(k+1).

    u(k) = r(k) L_k,u' + c_k,u folded into the plant step: x(k+1) is x(k) times the closed-loop map, one
    matmul into ``out``; on u1 rows u1(k) = x(k) L_k,u1,x' is another. Then each term of
    :func:`_stage_maps`, the offset's, each acting lag's and a listed c_k,u1, is formed at its value's own
    depth against its block and added to the value's descendants, so no node array is replicated. ``vals``
    holds the terms' values under their keys (:func:`_start_values`), each at its depth, max(0, j) for stage
    j; u1(k) and every x(k+1) go into it, as views of the plan's arrays, and a later stage reads x(k+1) only
    where a term names it. The next stage reads x(k+1) as ``view``, so a stage with no offset, lag or u1 is
    its matmul alone. ``np.matmul`` into an array is the same call as ``@``, so the values do not depend on
    where they are written.
    """
    for k, fold, out, view, u1_map, u1_out, terms in plan:
        np.matmul(x, fold, out=out)
        if u1_map is not None:
            np.matmul(x, u1_map, out=u1_out)
            vals["u1", k] = u1_out
        for key, block, prod, into, spread in terms:
            np.matmul(vals[key], block, out=prod)
            into += spread
        vals["x", k + 1] = x = view
    return x


def _regressor_product(spec: SystemSpec, L: list[np.ndarray], k: int, xs: dict, u1s: dict | None, out: np.ndarray,
                work=None) -> np.ndarray:
    """r(k) L_k' into ``out`` (C-contiguous, one row per depth-k node).

    x(k) meets its columns of L_k in one matmul; each lag that acts
    (:func:`pathspace._acting_lags`), x(k-j) or u1(k-i), meets its block
    at its own depth, and the product is added to every depth-k
    descendant (:func:`pathspace._add_product`, in ``work`` when given).
    ``xs`` and ``u1s`` map a stage j to its values at depth max(0, j);
    ``u1s`` None takes the u1 lags as zero, as a target's are.
    """
    n, N, Lk = spec.n, len(L) - 1, L[k]
    np.matmul(xs[k], Lk[:, :n].T, out=out)
    xlags, ulags = _acting_lags(N, k, spec.d or 0, spec.tau or 0)
    col = n
    for vals, j in [(xs, k - j) for j in xlags] + ([] if u1s is None else [(u1s, k - i) for i in ulags]):
        lag = vals[j]
        _add_product(out, lag, Lk[:, col : col + lag.shape[1]].T, work)
        col += lag.shape[1]
    return out


def law_text(ctrl: ControllerProcess) -> str:
    """The controller's law as JSON: kind, N and L, then its offsets c (each c_k one flat row) or, for a law
    whose offsets differ by node, the ``target`` digest of the target whose solution they are read from, the
    solution's leaves x_h(N+1) (:func:`target_digest`).

    Stage k's L_k and c_k hold u1 rows and entries only for k <= N - tau.
    """
    law, N = ctrl.law, len(ctrl.law.L) - 1
    doc = {"kind": "feedback", "N": N, "L": [Lk.tolist() for Lk in law.L]}
    if law.c is not None:
        doc["c"] = [ck.ravel().tolist() for ck in law.c]
    else:
        doc["target"] = target_digest(law.hom[N + 1])
    if law.u1_pre is not None:
        doc["u1"] = law.u1_pre.tolist()
    return json.dumps(doc) + "\n"


def read_feedback_law(source, tree: PathTree, system: ValidatedSystem | TransformedSystem, target=None) -> FeedbackLaw:
    """Parse a law written by :func:`law_text` for ``system`` at the tree's horizon, its offsets included.

    The shapes are those of ``system.spec``. A law that names its target
    by digest is checked against ``target``, the instance's target (None,
    an n-vector or the leaf rows, as ``ProblemInstance.target`` holds it),
    and its offsets are read as synthesize read them: the homogeneous
    backward equation is solved on the leaf rows (no membership verdict),
    and the law holds that solution with M_q (:class:`FeedbackLaw`). Only
    then is ``system`` transformed, so a law that lists its offsets needs
    no transform. Raises :class:`SchemaError` for text that is not
    a JSON object with exactly the keys kind, N, L and one of c and
    target, plus u1 exactly on a delayed input; a kind other than
    "feedback"; an N other than the tree's horizon; an L not N+1 stages of
    the instance's shapes (:class:`FeedbackLaw`: no column for a lag that
    does not act, and w_k = m + m1 [k <= N - tau] rows, so no u1 rows for
    a u1(k) entering after stage N) or a u1 not (min(tau, N+1), m1); a c
    that is not N+1 flat stages, stage k of w_k numbers (one row: offsets
    that differ by node are not read, their law names its target); a
    target that is not 64 lowercase hex characters, given with no leaf-row
    target or with one whose digest differs; and entries that are not
    finite JSON numbers. L's entries are converted together
    (:func:`_law_stages`), and a fault in them names the first stage that
    holds one.
    """
    spec = system.spec
    with _opened(source, "r") as fh:
        doc = _document(fh.read())
    if "c" in doc and "target" in doc:
        raise SchemaError("law has both c and target: it lists its offsets or names its target, not both")
    keys = _LAW_KEYS + (("target",) if "target" in doc else ("c",)) + (("u1",) if spec.B1 is not None else ())
    if set(doc) != set(keys):
        missing, extra = sorted(set(keys) - set(doc)), sorted(set(doc) - set(keys))
        raise SchemaError(f"law keys must be {', '.join(keys)} (missing {missing}, unknown {extra})")
    if doc["kind"] != "feedback":
        raise SchemaError(f"kind must be 'feedback', got {doc['kind']!r}")
    N = doc["N"]
    if type(N) is not int or N != tree.horizon:
        raise SchemaError(f"law N is {N!r}, the horizon being verified is {tree.horizon}")
    m1 = 0 if spec.B1 is None else spec.B1.shape[1]
    if type(doc["L"]) is not list or len(doc["L"]) != N + 1:
        raise SchemaError(f"L must be a list of N + 1 = {N + 1} stages")
    rows = [spec.m + m1 * (k + (spec.tau or 0) <= N) for k in range(N + 1)]  # u1(k) rows while it enters by N
    L = _law_stages(doc["L"], [(rows[k], spec.n * (1 + len(xlags)) + m1 * len(ulags)) for k in range(N + 1)
                               for xlags, ulags in [_acting_lags(N, k, spec.d or 0, spec.tau or 0)]])
    digest = doc.get("target")
    if "target" not in doc:
        c = _law_offsets(doc["c"], tree, rows)
    elif not (type(digest) is str and _DIGEST.fullmatch(digest)):
        raise SchemaError(f"target must be a SHA-256 digest, 64 lowercase hex characters; got {digest!r:.80}")
    u1_pre = _law_array("u1", doc["u1"], (min(spec.tau, N + 1), m1)) if m1 else None
    if digest is not None:
        if target is None or target.ndim != 2:
            kind = "no target" if target is None else "a constant (n-vector) target"
            raise SchemaError(f"the law names a path target by digest, but the instance has {kind}")
        if (want := target_digest(target)) != digest:
            raise SchemaError(f"target digest {digest} does not match the instance's target ({want})")
        ts = TransformedSystem.build(system)
        return FeedbackLaw(L, None, u1_pre, backward_solve(tree, ts.form, target), ts.M[:, : spec.n])
    return FeedbackLaw(L, c, u1_pre)


def _law_offsets(value, tree: PathTree, widths: list[int]) -> list[np.ndarray]:
    """The offsets c_k of a law, stage k one row of ``widths[k]`` numbers."""
    if type(value) is not list or len(value) != tree.horizon + 1:
        raise SchemaError(f"c must be a list of N + 1 = {tree.horizon + 1} stages")
    for k, (stage, width) in enumerate(zip(value, widths)):
        if type(stage) is not list or len(stage) != width:
            per_node = k > 0 and type(stage) is list and len(stage) == tree.s**k * width
            raise SchemaError(f"c stage {k} must list {width} numbers (one row)" + (
                f"; one row per depth-{k} node is an earlier version's form: a path target's law names "
                "its target by digest" if per_node else ""))
    return _split(_finite_floats("c", [x for stage in value for x in stage]), [(1, w) for w in widths])


def _law_stages(stages: list, shapes: list[tuple[int, int]]) -> list[np.ndarray]:
    """L's stages as float arrays of ``shapes``: after a ``len`` test of each stage's shape, every entry is
    converted in one array and checked finite once, and the array is split by the shapes. After a fault the
    stages are converted one by one (:func:`_law_array`), so the first faulty stage is named."""
    if all(type(Lk) is list and len(Lk) == r and all(type(row) is list and len(row) == w for row in Lk)
           for Lk, (r, w) in zip(stages, shapes)):
        try:
            flat = _finite_floats("L", [x for Lk in stages for row in Lk for x in row])
        except SchemaError:
            pass
        else:
            return _split(flat, shapes)
    return [_law_array(f"L stage {k}", Lk, shape) for k, (Lk, shape) in enumerate(zip(stages, shapes))]


def _split(flat: np.ndarray, shapes: list[tuple[int, int]]) -> list[np.ndarray]:
    """Consecutive parts of ``flat`` as views of ``shapes``."""
    ends = itertools.accumulate(r * w for r, w in shapes)
    return [flat[end - r * w : end].reshape(r, w) for end, (r, w) in zip(ends, shapes)]


def _law_array(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` as a float array, or :class:`SchemaError` unless nested lists of finite numbers of ``shape``."""
    entries = [value]
    for size in shape:
        if not all(type(v) is list and len(v) == size for v in entries):
            raise SchemaError(f"{name} must be nested lists of shape {shape}")
        entries = [x for v in entries for x in v]
    return _finite_floats(name, entries).reshape(shape)


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
    node order (``model.path_labels``): for a delayed input channel the
    pre-horizon stages -tau.. at depth 0 carry only u1 values, then stage k
    at depth k holds :func:`feedback_loop`'s inputs as the loop yields them,
    its u1 cells empty past the delayed channel's range.
    """
    law, m, s = ctrl.law, ctrl.spec.m, ctrl.tree.s
    m1 = 0 if law.u1_pre is None else law.u1_pre.shape[1]
    tables = _label_tables(s)

    def level(fh, stage, depth, values, cells):  # one stage's rows, one per depth-``depth`` node
        row = f"{stage},%s%s," + ",".join(cells) + "\n"
        # Blocks of one tail table's rows, label = head + tail: only one block's floats are Python objects.
        tail_depth = min(depth, len(tables) - 1)
        tails = tables[tail_depth]
        for i, head in enumerate(_level_labels(s, depth - tail_depth)):
            block = values[i * len(tails) : (i + 1) * len(tails)]
            fh.writelines(row % (head, tail, *numbers) for tail, numbers in zip(tails, block.tolist()))

    header = ["stage", "history"] + [f"u_{i}" for i in range(m)] + [f"u1_{i}" for i in range(m1)]
    with _opened(dest, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i, u1 in enumerate(() if law.u1_pre is None else law.u1_pre):
            level(fh, i - ctrl.spec.tau, 0, u1[None], [""] * m + [FLOAT_FMT] * m1)
        for k, v, _ in feedback_loop(ctrl.tree, ctrl.spec, ctrl.x0, law):
            level(fh, k, k, v, [FLOAT_FMT] * v.shape[1] + [""] * (m + m1 - v.shape[1]))


def read_controller_table(
    source, tree: PathTree, spec: SystemSpec
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray] | None]:
    """Parse a controller table, from a path or an open text stream, into the levels of u and u1.

    The input widths, and the delayed input channel's lag where there is
    one, are the system ``spec``'s. u maps stages 0..N and u1 (None
    without a delayed input) the stages its rows name, each stage j to
    its (s^max(0, j), width) level. Stage j's histories must be the
    depth-max(0, j) level in node order, as :func:`write_controller_csv`
    writes them. Malformed tables (wrong header, ragged rows, u rows at
    stages outside 0..N, u1 rows outside -tau..N-tau, text that is not
    UTF-8, cells that are not ASCII, hold blanks or '_' or exceed the csv
    field limit, values that are not finite numbers, a stage whose
    histories are not its depth-max(0, j) level in node order, a coarser
    or finer level included) raise :class:`SchemaError`.
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
    u = _stage_levels(tree, channels["u"][3], m, "u")
    u1 = _stage_levels(tree, channels["u1"][3], m1, "u1") if m1 else None
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


def _stage_levels(tree, stages, dim, what) -> dict[int, np.ndarray]:
    if not stages:
        raise SchemaError(f"controller table has no {what} rows")
    vals = {}
    for stage, (lineno, labels, values) in stages.items():
        where = f"{what} stage {stage} (from line {lineno})"
        check_level(labels, tree.s, max(0, stage), f"{where} histories")
        vals[stage] = np.frombuffer(values).reshape(-1, dim)
        if not np.isfinite(vals[stage]).all():
            raise SchemaError(f"{where}: values must be finite")
    return vals
