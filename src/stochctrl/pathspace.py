"""Exact computations on the finite tree of noise histories.

A depth-k node is a history (w(0), ..., w(k-1)) encoded as an integer in
base s = |support| with the earliest stage most significant, so the
children of node h are h*s + j and truncating a history is integer
division. All expectations are finite weighted sums in a fixed order;
nothing here samples.

Stage-k values are measurable with respect to the noise up to stage k-1,
so a process is a plain ``{stage: level}`` dict whose stage-k level is at
depth max(0, k): an (s^max(0, k), dim) array, one row per node, never
replicated per leaf. The solves return the x levels alone: z(k) =
E[w(k) x(k+1) | past] is a function of x(k+1), formed where it is read
(:func:`z_level`). Each per-level kernel is one matmul of the level, a
row per node (s n wide), against a stacked per-atom map:
[(A + w_j Abar)']_j in :func:`plant_step` (:func:`plant_maps`), [p_j C(j)']_j in
:func:`_stage_step`, [p_j w_j I_n]_j in :func:`z_level`.
A value stored at a coarser depth than the level it acts on, such as a
delayed input or a lagged state in :func:`plant_step` or a lagged state
in :func:`backward_solve_state_delay`'s forward sweep, is multiplied at
its own depth and the product added to every descendant through a
reshaped view (:func:`_add_product`); no node array is ever replicated
onto finer depths. :func:`plant_step` is the step of
:func:`forward_simulate` and of ``synthesis.feedback_loop``, the plant-step
closed loop a controller's table is written from, stage by stage; the
commands run a law through ``synthesis.folded_loop``, which folds the
law into the step's map, multiplies each lag at its own depth against a
block tiled over its descendants, through views shaped once per loop, and
below the top level of
:class:`RunCut`, the deepest of at most ``BLOCK_ENTRIES`` entries, runs
the tree subtree by subtree, each run's leaves at most ``BLOCK_ENTRIES``
entries too, a lag above a run passed as the run's ancestor rows.

:func:`path_products` is the one place per-history products of the
random factors C + w Cbar are built, with the state-delay pivots of
:func:`state_delay_P` woven in when the form has a delayed state: the
terminal-product formula and every enumeration oracle take their
products from it. The enumeration kernels are matmuls too, on levels
stored as node columns: an (n, s^k, n) array with node h's product at
[:, h, :]. A level's (n s^k, n) rows times [C(j) P(k+1)]_j are the next
level in node order, with no regrouping (:func:`path_products`);
:func:`weighted_gram` forms its probability-weighted Gram as one
(r, H k) @ (H k, r) matmul per block of ``BLOCK_ENTRIES`` entries, so
that no temporary grows with the level; and :func:`prefix_means`
averages each prefix's continuations into node columns too. Node
probabilities are outer products, level by level. :func:`backward_solve`
hands a form with a delayed state to :func:`backward_solve_state_delay`,
so :func:`member_of_S` serves every full-state route.

:func:`terminal_from_map` is the one conversion of a target (None, an
n-vector or leaf rows) to leaf rows. Both solves take read-only leaf rows,
as an instance's target is, as x(N+1) without a copy, and copy any other
terminal once (:func:`_leaf_level`); :func:`member_of_S` reads its bound
off that x(N+1). :func:`representation_residual` multiplies each row
block of x(k+1), ``BLOCK_ENTRIES`` entries at most, by one fixed
projection, kron(Pi', I_n), into one array, so no temporary grows with
the tree; on two-point noise Pi = 0 and it makes no pass.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    SingularPBracket,
    StageMismatch,
)
from .model import NoiseModel, SystemSpec, _label_tables, rcond_invertible
from .transform import BsdeForm

DEFAULT_CAP = 2**20
# Entries of a level a kernel processes per row block: temporaries stay
# a few hundred KB however wide the level, so peak memory is the levels.
# RunCut counts it in entries too, for the level it cuts into runs and for
# each run's leaves.
BLOCK_ENTRIES = 2**15


def _block_depth(s: int, width: int) -> int:
    """The largest p such that s^p rows of ``width`` entries fit in ``BLOCK_ENTRIES`` (0 if none does):
    blocks of s^p rows tile a level, each a whole number of subtrees."""
    p = 0
    while s ** (p + 1) * max(width, 1) <= BLOCK_ENTRIES:
        p += 1
    return p


class RunCut:
    """A tree's levels cut into runs of consecutive leaves, each carried alone below a top level.

    The top level is the deepest whose nodes hold at most ``BLOCK_ENTRIES``
    entries, ``width`` a node (:func:`_block_depth`), or deeper where a
    top-level node's subtree would end in more leaves than that. A run is
    s^p consecutive top-level rows with their subtrees, with p as large as
    keeps its ``leaves`` within ``BLOCK_ENTRIES`` entries but at least
    ``lag`` + 1, so that a level ``lag`` stages above one a run holds, read
    as that run's ancestor rows (:meth:`rows`), spans s rows or more
    wherever it lies below depth 0. ``firsts`` are the runs' first leaves,
    in order; without a level to cut (``top`` = N + 1) one run holds every
    leaf.
    """

    def __init__(self, tree: PathTree, width: int, lag: int):
        N, s = tree.horizon, tree.s
        fit = _block_depth(s, width)  # the deepest level of at most BLOCK_ENTRIES entries
        self.top = min(N + 1, max(fit, N + 1 - fit))
        p = min(self.top, max(fit - (N + 1 - self.top), lag + 1))
        self.leaves = s ** (N + 1 - self.top + p)
        self.firsts = range(0, s ** (N + 1), self.leaves)
        self._s, self._N = s, N

    def rows(self, depth: int, first: int) -> slice:
        """The rows of the depth-``depth`` level that the run from leaf ``first`` covers: its nodes there, or the
        one ancestor above them all."""
        q = self._s ** (self._N + 1 - depth)
        return slice(first // q, -(-(first + self.leaves) // q))

    def count(self, depth: int) -> int:
        """How many rows :meth:`rows` gives at ``depth``, the same for every run."""
        return max(1, self.leaves // self._s ** (self._N + 1 - depth))


class PathTree:
    """All noise histories up to depth horizon + 1, with node probabilities."""

    def __init__(self, noise: NoiseModel, horizon: int, cap: int = DEFAULT_CAP):
        self.noise = noise
        self.horizon = int(horizon)
        self.s = len(noise.support)
        leaves = 1
        for _ in range(self.horizon + 1):  # stops past the cap, before s^(N+1) is formed
            leaves *= self.s
            if leaves > cap:
                raise EnumerationTooLarge(self.s, self.horizon, cap)
        self.support = np.asarray(noise.support, dtype=float)
        self.probs = np.asarray(noise.probs, dtype=float)
        self._node_probs = [np.array([1.0])]  # extended on first use

    def n_nodes(self, depth: int) -> int:
        return self.s**depth

    def node_probs(self, depth: int) -> np.ndarray:
        while len(self._node_probs) <= depth:
            self._node_probs.append((self._node_probs[-1][:, None] * self.probs).ravel())
        return self._node_probs[depth]

    def index_label(self, depth: int, index: int) -> str:
        """Label of one node (see ``model.path_labels`` for whole levels).

        Raises :class:`StageMismatch` unless 0 <= depth <= horizon + 1 and
        0 <= index < s^depth. The index splits by ``divmod`` into a head
        and a tail, each looked up in a cached level of at most
        ``model.LABEL_TABLE_MAX`` labels; no whole level is kept.
        """
        if not (0 <= depth <= self.horizon + 1 and 0 <= index < self.s**depth):
            raise StageMismatch(f"no node {index} at depth {depth} of a tree of depth {self.horizon + 1}")
        tables = _label_tables(self.s)
        top, label = len(tables) - 1, ""
        while depth > top:
            index, tail = divmod(index, len(tables[top]))
            label = tables[top][tail] + label
            depth -= top
        return tables[depth][index] + label


def path_products(form: BsdeForm, support, depth: int):
    """Yield the per-history products C(0) ... C(k-1) for k = 0..depth.

    Level k has shape (s^k, n, n) with rows in node-index order; level 0
    is the identity. A form with a delayed state weaves in the pivots
    P(0..depth) of :func:`state_delay_P` at horizon ``depth``: the products
    are P(0) C(0) P(1) ... C(k-1) P(k) instead. Each level is stored as
    node columns, an (n, s^k, n) array with node h's product at
    [:, h, :], and yielded as its transposed view. Level k + 1 is then
    one matmul of the level's (n s^k, n) rows by the per-atom map
    [C(j) P(k+1)]_j, whose (n s^k, s n) output is already level k + 1
    in node columns (child h s + j in column block j of row h). Only two
    levels are alive at a time; take ``list`` of the result to keep them all.
    """
    n = form.n
    cmats = form.stage_factors(support)
    P = None if form.C1 is None else state_delay_P(form, depth)
    level = (np.eye(n) if P is None else P[0])[:, None, :]
    yield level.transpose(1, 0, 2)
    for k in range(depth):
        step = (cmats if P is None else cmats @ P[k + 1]).transpose(1, 0, 2).reshape(n, -1)
        level = (level.reshape(-1, n) @ step).reshape(n, -1, n)
        yield level.transpose(1, 0, 2)


def weighted_gram(probs: np.ndarray, prods: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_h probs[h] X_h X_h' with X_h = prods[h] right, over a stack of (r x n) blocks.

    The stack is read as node columns, its (r, H, n) transpose, which is
    contiguous for a level of :func:`path_products` or :func:`prefix_means`.
    Per block of ``BLOCK_ENTRIES`` entries, the block's H nodes times
    ``right`` are an (r, H k) array Y, and the block's share of the Gram
    is one (r, H k) @ (H k, r) matmul of Y, weighted per node, by Y'.
    """
    cols = prods.transpose(1, 0, 2)
    r, H, n = cols.shape
    k = right.shape[1]
    rows = max(1, BLOCK_ENTRIES // max(1, r * n, r * k))
    gram = np.zeros((r, r))
    for h in range(0, H, rows):
        Y = cols[:, h : h + rows] @ right
        gram += (Y * probs[h : h + rows, None]).reshape(r, -1) @ Y.reshape(r, -1).T
    return gram


def prefix_means(stack: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """sum_t probs[t] stack[h T + t] for each prefix h, T = len(probs): the mean over its T continuations.

    The stack is read as node columns, as :func:`weighted_gram` reads it,
    and the means are returned the same way, as the transposed view of an
    (r, H / T, w) array. Few prefixes take one matrix-vector product per
    row; many have few continuations, averaged for all of them by one
    matmul against kron(probs, I).
    """
    T = len(probs)
    cols = stack.transpose(1, 0, 2)
    r, H, w = cols.shape
    tails = cols.reshape(r * (H // T), T, w)
    if H // T <= T:
        mean = probs @ tails
    else:
        mean = tails.reshape(-1, T * w) @ (probs[:, None, None] * np.eye(w)).reshape(T * w, w)
    return mean.reshape(r, H // T, w).transpose(1, 0, 2)


def _check_input(tree: PathTree, levels, stage: int, dim: int, what: str) -> np.ndarray:
    """Stage ``stage`` of an input, which must be its (s^max(0, stage), ``dim``) level: a missing stage
    raises :class:`StageMismatch`, any other shape :class:`DimensionMismatch`.

    A delayed input is decided at ``stage`` but enters the dynamics later.
    The kernels take it at its own depth and add it to every descendant
    (:func:`_add_product`).
    """
    if levels is None or stage not in levels:
        raise StageMismatch(f"{what} has no stage {stage}")
    arr, want = np.asarray(levels[stage], dtype=float), (tree.n_nodes(max(0, stage)), dim)
    if arr.shape != want:
        raise DimensionMismatch(f"{what} at stage {stage} has shape {arr.shape}, expected {want}")
    return arr


def terminal_from_map(tree: PathTree, n: int, terminal) -> np.ndarray:
    """A terminal value as the tree's leaf rows, in node order: the one conversion of a target.

    None is the origin and an n-vector is constant over paths, so it fits
    any horizon; either is tiled on the leaves as a read-only
    ``np.broadcast_to`` view. Leaf rows (``ProblemInstance.target``) are
    checked against the tree's depth and returned as they are. Any other
    shape raises :class:`DimensionMismatch`. The solves take the result as
    their x(N+1) through :func:`_leaf_level`.
    """
    want = (tree.n_nodes(tree.horizon + 1), n)
    leaves = np.zeros(n) if terminal is None else np.asarray(terminal, dtype=float)
    if leaves.shape == (n,):
        return np.broadcast_to(leaves, want)
    if leaves.shape != want:
        raise DimensionMismatch(f"target leaf array has shape {leaves.shape}; depth {tree.horizon + 1} needs {want}")
    return leaves


def _leaf_level(tree: PathTree, n: int, terminal) -> np.ndarray:
    """x(N+1) of a solve: :func:`terminal_from_map`'s leaf rows, shared when they are read-only and
    C-contiguous, as the leaf rows of a ``ProblemInstance.target`` always are, else copied (a writable
    array, an n-vector's tiled view, None). No solve writes x(N+1)."""
    leaves = terminal_from_map(tree, n, terminal)
    return leaves if leaves.flags.c_contiguous and not leaves.flags.writeable else leaves.copy()


def backward_solve(
    tree: PathTree,
    form: BsdeForm,
    terminal,
    v: dict[int, np.ndarray] | None = None,
) -> dict[int, np.ndarray]:
    """Solve x(k) = E[(C + w(k) Cbar) x(k+1) | past] + D v(k); returns the levels x(0..N+1), stage k at depth k.

    ``terminal`` may be None (origin), an n-vector, or the leaf rows, as
    :func:`terminal_from_map` reads them (a wrong shape raises
    :class:`DimensionMismatch`); x(N+1) is read-only leaf rows themselves,
    else their one copy (:func:`_leaf_level`).
    ``v`` (None: zero free input) maps each stage k = 0..N to its
    (s^k, m_free) level (:func:`_check_input`). z(k) = E[w(k) x(k+1) | past],
    the solution's other half, is :func:`z_level` of x(k+1). A form with a
    delayed state is solved by :func:`backward_solve_state_delay`, with its
    drift C1 x(k - d).
    """
    if form.C1 is not None:
        return backward_solve_state_delay(tree, form, terminal, v)
    W = _stage_map(tree, form)
    x_vals = {tree.horizon + 1: _leaf_level(tree, form.n, terminal)}
    for k in range(tree.horizon, -1, -1):
        x_vals[k] = _stage_step(tree, form, W, x_vals[k + 1], v, k)
    return x_vals


def _stage_map(tree: PathTree, form: BsdeForm) -> np.ndarray:
    """The per-atom map W = [p_0 C(0)'; ...; p_(s-1) C(s-1)'] of shape (s n, n)."""
    return (tree.probs[:, None, None] * form.stage_factors(tree.support).transpose(0, 2, 1)).reshape(-1, form.n)


def _stage_step(tree: PathTree, form: BsdeForm, W: np.ndarray, x_next: np.ndarray, v, k: int) -> np.ndarray:
    """E[C(k) x(k+1) | past] + D v(k) at depth k: x(k+1) times W (:func:`_stage_map`); no v means v = 0."""
    xk = x_next.reshape(-1, tree.s * form.n) @ W
    if v is not None:
        _add_product(xk, _check_input(tree, v, k, form.m_free, "v"), form.D.T)
    return xk


def z_map(tree: PathTree, n: int) -> np.ndarray:
    """Z = [p_j w_j I_n]_j, of shape (s n, n): a node's row of its s children's n entries times Z is its z(k)."""
    return ((tree.probs * tree.support)[:, None, None] * np.eye(n)).reshape(-1, n)


def z_level(tree: PathTree, x_next: np.ndarray) -> np.ndarray:
    """z(k) = E[w(k) x(k+1) | past] at each parent of ``x_next``, x(k+1)'s level or a block of it in whole
    sets of s siblings: the rows times :func:`z_map`, so a block gives its parents' rows of z(k)."""
    n = x_next.shape[1]
    return x_next.reshape(-1, tree.s * n) @ z_map(tree, n)


def state_delay_P(form: BsdeForm, N: int) -> tuple[np.ndarray, ...]:
    """Pivots P(0..N) of the delayed backward equation over horizon N: the one pivot loop.

    Eliminating stages N..0 (:func:`_state_delay_gains`) gives P(k) = I on
    the tail band k > N - d and, below it, the inverse of the bracket
    I - C P(k+1) ... C P(k+d) C1, multiplied out left to right so the
    Gramians keep their last digits. The lag d is the form's. P(k) depends
    on the horizon only through N - k, so one sequence serves every shorter
    horizon as its tail. The system is singular exactly when a bracket is,
    by :func:`model.rcond_invertible`, a bracket holding inf or NaN
    included: :class:`SingularPBracket` (k) is raised.

    The sequence is built once per form and horizon and kept on the form,
    its matrices read-only, so the Gramians and the path products or the
    law that pivot by it read one build (a form's arrays do not change
    after it is made).
    """
    form.check_channel("C1")
    built = vars(form).setdefault("_pivots", {})  # as functools.cached_property keeps a value on a frozen instance
    if N not in built:
        built[N] = _pivot_loop(form, N)
    return built[N]


def _pivot_loop(form: BsdeForm, N: int) -> tuple[np.ndarray, ...]:
    """:func:`state_delay_P`'s pivots, built."""
    n, d = form.n, form.d
    P = [np.eye(n)] * (N + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # a bracket that overflows is singular, not a warning
        for k in range(N - d, -1, -1):
            bracket = np.eye(n)
            for j in range(k + 1, k + d + 1):
                bracket = bracket @ form.C @ P[j]
            bracket = np.eye(n) - bracket @ form.C1
            if not rcond_invertible(bracket)[0]:
                raise SingularPBracket(k)
            P[k] = np.linalg.inv(bracket)
    for pivot in P:
        pivot.setflags(write=False)
    return tuple(P)


def _acting_lags(N: int, k: int, d: int, tau: int) -> tuple[range, range]:
    """The lags j of x(k-j) and i of u1(k-i) that act at stage k (d, tau 0 without the channel):
    x(k-j) from stage 0 on whose effect enters by stage N (else Q_j(k) = 0), u1(k-i) entering by N."""
    return range(max(1, k + d - N), min(d, k) + 1), range(max(1, k + tau - N), tau + 1)


def _state_delay_gains(form: BsdeForm, N: int):
    """Pivots P(k) of :func:`state_delay_P` and lag gains Q_j(k) of the delayed backward equation.

    Eliminating stages N..0 leaves x(k) = r(k) + sum_j Q_j(k) x(k-j), with
    Q(N+1) = 0, P(k) = (I - C Q_1(k+1))^{-1}, Q_j(k) = P(k) C Q_{j+1}(k+1)
    for j < d and Q_d(k) = P(k) C1. ``Q[k]`` maps each j acting at stage k
    (:func:`_acting_lags`) to Q_j(k).
    """
    P, d = state_delay_P(form, N), form.d
    Q = [{}] * (N + 1)
    for k in range(N, -1, -1):
        PC = P[k] @ form.C
        Q[k] = {j: P[k] @ form.C1 if j == d else PC @ Q[k + 1][j + 1] for j in _acting_lags(N, k, d, 0)[0]}
    return P, Q


def backward_solve_state_delay(
    tree: PathTree,
    form: BsdeForm,
    terminal,
    v: dict[int, np.ndarray] | None = None,
) -> dict[int, np.ndarray]:
    """Solve the backward equation with the extra drift term C1 x(k-d), d the form's lag; returns x(0..N+1).

    Block elimination with the P-sequence as pivots (:func:`_state_delay_gains`):
    r(k) = P(k) (E[C(k) r(k+1) | past] + D v(k)) backward from r(N+1) =
    terminal, then x(k) = r(k) + sum_j Q_j(k) x(k-j) forward, each
    x(k-j) Q_j(k)' formed at depth k - j and added to its descendants
    (:func:`_add_product`). Pre-horizon states x(s), s < 0, are zero. A form
    without C1 raises :class:`DimensionMismatch` (:func:`state_delay_P`).
    """
    N = tree.horizon
    P, Q = _state_delay_gains(form, N)
    W = _stage_map(tree, form)
    x_vals = {N + 1: _leaf_level(tree, form.n, terminal)}
    for k in range(N, -1, -1):
        x_vals[k] = _stage_step(tree, form, W, x_vals[k + 1], v, k) @ P[k].T
    for k in range(1, N + 1):
        for j, Qj in Q[k].items():
            _add_product(x_vals[k], x_vals[k - j], Qj.T)
    return x_vals


def representation_residual(tree: PathTree, x: dict[int, np.ndarray]) -> dict[int, float]:
    """Max node residual of x(k+1) = E[x(k+1) | past] + w(k) z(k), per stage, from x(k+1) alone.

    A parent's s children X (s x n) are represented exactly when they lie in span{1, w}, and their
    residual is Pi X with the projection Pi = I - 1 p' - w (p w)'. So each block of s^p parents, the
    most whose s n entries fit in ``BLOCK_ENTRIES`` (:func:`_block_depth`), is one matmul of its
    (parents, s n) rows by kron(Pi', I_n), into one block-sized array allocated once, whose abs-max
    is the block's. Pi has rank s - 2, so on two-point noise every residual is 0.0 and no pass is made.
    """
    n, s = x[0].shape[1], tree.s
    if s <= 2:
        return dict.fromkeys(range(tree.horizon + 1), 0.0)
    p, w = tree.probs, tree.support
    proj = np.eye(s) - p - np.outer(w, p * w)  # Pi[j, i] = delta_ji - p_i - w_j p_i w_i
    kron = (proj.T[:, None, :, None] * np.eye(n)[None, :, None, :]).reshape(s * n, s * n)
    rows = s ** _block_depth(s, s * n)
    work, out = np.empty(rows * s * n), {}
    for k in range(tree.horizon + 1):
        level = x[k + 1].reshape(tree.n_nodes(k), s * n)
        peaks = []
        for h in range(0, len(level), rows):
            block = level[h : h + rows]
            gap = np.matmul(block, kron, out=work[: block.size].reshape(block.shape))
            peaks.append(np.abs(gap, out=gap).max(initial=0.0))
        out[k] = float(np.max(peaks))  # np.max, not max: a NaN in any block shows
    return out


def expected_terminal_product(tree: PathTree, form: BsdeForm, terminal: np.ndarray) -> np.ndarray:
    """E[C(0) C(1) ... C(N) xi] by direct path enumeration."""
    *_, prods = path_products(form, tree.support, tree.horizon + 1)
    return tree.node_probs(tree.horizon + 1) @ (prods * terminal[:, None, :]).sum(axis=2)


@dataclass(eq=False)
class SMembership:
    """Outcome of the attainable-terminal test: the worst stage's residual against ``bound``."""

    member: bool
    max_residual: float
    stage: int
    tol: float
    bound: float
    x0: np.ndarray
    solution: dict[int, np.ndarray]  # the levels x(0..N+1) of backward_solve


def member_of_S(tree: PathTree, form: BsdeForm, terminal, tol: float = 1e-8) -> SMembership:
    """Test whether a terminal value is attainable with zero free input.

    ``terminal`` is None (origin), an n-vector or the leaf rows, as
    :func:`terminal_from_map` takes it (a wrong shape raises
    :class:`DimensionMismatch`). Solves the homogeneous backward equation
    (:func:`backward_solve`, delayed on a form with C1) from it and checks
    the one-step representation residual at every node
    (:func:`representation_residual`), against ``tol`` times the largest
    entry of the solution's x(N+1), the target's rows themselves when
    read-only (at least 1), found without a leaf-sized temporary. On
    two-point noise every terminal passes, with residual 0.0 at every
    stage and no residual pass; richer laws reject terminals not affine in
    the final noise.
    """
    x = backward_solve(tree, form, terminal)
    residuals = representation_residual(tree, x)
    stage = max(residuals, key=residuals.get)
    leaves = x[tree.horizon + 1]
    bound = tol * max(1.0, float(np.maximum(leaves.max(), -leaves.min())))
    return SMembership(
        member=bool(residuals[stage] <= bound),
        max_residual=residuals[stage],
        stage=stage,
        tol=tol,
        bound=bound,
        x0=x[0][0],
        solution=x,
    )


def forward_simulate(
    tree: PathTree,
    spec: SystemSpec,
    x0: np.ndarray,
    u: dict[int, np.ndarray],
    *,
    u1: dict[int, np.ndarray] | None = None,
) -> dict[int, np.ndarray]:
    """Run the plant over every noise path; returns the levels x(0..N+1), stage k at depth k.

    ``u`` maps stages 0..N, and ``u1``, which the delayed input channel
    declared on ``spec`` needs, stages -tau..N-tau, each stage j to its
    depth-max(0, j) level (:func:`_check_input`). The delayed state uses
    zero pre-history.
    """
    n, N = spec.n, tree.horizon
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise DimensionMismatch(f"x0 must have length {n}, got {x0.shape}")
    xs = {0: x0[None, :].copy()}
    maps = plant_maps(tree, spec)
    for k in range(N + 1):
        uk = _check_input(tree, u, k, spec.m, "u")
        u1k = None if spec.B1 is None else _check_input(tree, u1, k - spec.tau, spec.B1.shape[1], "u1")
        xs[k + 1] = plant_step(tree, spec, maps, xs, k, uk, u1k)
    return xs


def plant_maps(tree: PathTree, spec: SystemSpec) -> tuple:
    """The plant's per-atom maps, n columns per atom, built once per loop, here, for :func:`plant_step` and
    ``synthesis._stage_maps``: [(A + w_j Abar)']_j and [(B + w_j Bbar)']_j, then s copies of A1' and of B1'
    (None without a delayed state or input), which every child of a node receives alike."""
    tiled = [None if direct is None else np.tile(direct.T, tree.s) for direct in (spec.A1, spec.B1)]
    return (np.hstack([(spec.A + w * spec.Abar).T for w in tree.support]),
            np.hstack([(spec.B + w * spec.Bbar).T for w in tree.support]), *tiled)


def plant_step(tree: PathTree, spec: SystemSpec, maps: tuple, xs: dict, k: int, uk: np.ndarray, u1k=None,
               work=None) -> np.ndarray:
    """x(k+1) from the states ``xs`` up to stage k, u(k) and u1(k - tau), at depth k + 1.

    Child j of a node is x(k) (A + w_j Abar)' + u(k) (B + w_j Bbar)' + u1 B1' + x(k-d) A1',
    one matmul per input against its per-atom map, n columns per atom (``maps``, from
    :func:`plant_maps`: the atom stacks for x(k) and u(k), s copies of A1' and B1').
    Each input term is formed at the input's own depth (u(k) at depth k,
    u1(k - tau) and x(k - d) at theirs) and added to every descendant
    (:func:`_add_product`), in ``work`` when given: a flat scratch array of
    at least s^k s n entries, so that the one array allocated is the
    returned level.
    Forward simulation and ``synthesis.feedback_loop`` take this step, so a
    controller's plant-step states and its table's replay agree bit for bit.
    """
    Aw, Bw, A1w, B1w = maps
    out = xs[k] @ Aw
    _add_product(out, uk, Bw, work)
    if u1k is not None:
        _add_product(out, u1k, B1w, work)
    if A1w is not None and k - spec.d >= 0:
        _add_product(out, xs[k - spec.d], A1w, work)
    return out.reshape(-1, spec.n)


def _add_product(out: np.ndarray, values: np.ndarray, coef: np.ndarray, work=None) -> None:
    """out += values @ coef, ``values`` at a depth at most ``out``'s: each row's product is
    formed once, in ``work`` (flat, C-contiguous) when given, and added to its descendants'
    rows of ``out`` through a (rows, descendants, width) view, so no node array is replicated."""
    rows, width = len(values), coef.shape[1]
    if work is None:
        prod = values @ coef
    else:
        prod = np.matmul(values, coef, out=work[: rows * width].reshape(rows, width))
    view = out.reshape(rows, -1, width)
    view += prod[:, None, :]
