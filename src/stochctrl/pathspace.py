"""Exact computations on the finite tree of noise histories.

A depth-k node is a history (w(0), ..., w(k-1)) encoded as an integer in
base s = |support| with the earliest stage most significant, so the
children of node h are h*s + j and truncating a history is integer
division. All expectations are finite weighted sums in a fixed order;
nothing here samples.

Stage-k values that are measurable with respect to the noise up to stage
k-1 live at depth k. An :class:`AdaptedProcess` stores each stage at its
coarsest measurable depth and never replicates values per leaf.

:func:`path_products` is the one place per-history products of the
random factors C + w Cbar are built: the delay routes' controllers, the
terminal-product formula and every enumeration oracle (in ``criteria``
and ``delay``) take their products from it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AdaptednessViolation,
    DimensionMismatch,
    EnumerationTooLarge,
    SchemaError,
    SingularPBracket,
    StageMismatch,
)
from .model import NoiseModel, SystemSpec
from .transform import BsdeForm

DEFAULT_CAP = 2**20
P_RCOND = 1e-12


class PathTree:
    """All noise histories up to depth horizon + 1, with node probabilities."""

    def __init__(self, noise: NoiseModel, horizon: int, cap: int = DEFAULT_CAP):
        self.noise = noise
        self.horizon = int(horizon)
        self.s = len(noise.support)
        if self.s ** (self.horizon + 1) > cap:
            raise EnumerationTooLarge(
                f"{self.s}^{self.horizon + 1} = {self.s ** (self.horizon + 1)} leaves exceed cap {cap}"
            )
        self.support = np.asarray(noise.support, dtype=float)
        self.probs = np.asarray(noise.probs, dtype=float)
        self._node_probs = [np.array([1.0])]
        for _ in range(self.horizon + 1):
            self._node_probs.append(np.kron(self._node_probs[-1], self.probs))

    def n_nodes(self, depth: int) -> int:
        return self.s**depth

    def node_probs(self, depth: int) -> np.ndarray:
        return self._node_probs[depth]

    def histories(self, depth: int):
        """Tuples of support indices, in node-index order."""
        return itertools.product(range(self.s), repeat=depth)

    def index_label(self, depth: int, index: int) -> str:
        """Label of one node (see ``model.path_labels`` for whole levels)."""
        digits = []
        for _ in range(depth):
            digits.append(str(index % self.s))
            index //= self.s
        return "".join(reversed(digits))

    def lift(self, values: np.ndarray, from_depth: int, to_depth: int) -> np.ndarray:
        """Replicate coarse values onto a finer depth."""
        if to_depth < from_depth:
            raise StageMismatch(f"cannot lift from depth {from_depth} to coarser depth {to_depth}")
        if to_depth == from_depth:
            return values
        return np.repeat(values, self.s ** (to_depth - from_depth), axis=0)

    def cond_expect_array(self, values: np.ndarray, from_depth: int, to_depth: int) -> np.ndarray:
        """Average out the trailing from_depth - to_depth stages."""
        if to_depth > from_depth:
            raise StageMismatch(f"conditioning depth {to_depth} exceeds value depth {from_depth}")
        if to_depth == from_depth:
            return values.copy()
        tail = self._node_probs[from_depth - to_depth]
        shaped = values.reshape(self.s**to_depth, len(tail), -1)
        return np.einsum("hsd,s->hd", shaped, tail)


@dataclass(eq=False)
class AdaptedProcess:
    """Stage-indexed node values, each stage at its own measurable depth."""

    tree: PathTree
    values: dict[int, np.ndarray]
    depths: dict[int, int]
    dim: int = field(init=False)

    def __post_init__(self):
        if set(self.values) != set(self.depths):
            raise StageMismatch("values and depths must cover the same stages")
        dims = set()
        for stage, arr in self.values.items():
            depth = self.depths[stage]
            if not 0 <= depth <= self.tree.horizon + 1:
                raise StageMismatch(f"stage {stage}: depth {depth} outside the tree")
            arr = np.asarray(arr, dtype=float)
            if arr.ndim != 2 or arr.shape[0] != self.tree.n_nodes(depth):
                raise DimensionMismatch(
                    f"stage {stage}: expected {self.tree.n_nodes(depth)} rows at depth {depth}, got {arr.shape}"
                )
            self.values[stage] = arr
            dims.add(arr.shape[1])
        if len(dims) > 1:
            raise DimensionMismatch(f"inconsistent value dimensions across stages: {sorted(dims)}")
        self.dim = dims.pop() if dims else 0

    def stages(self) -> list[int]:
        return sorted(self.values)

    def depth(self, stage: int) -> int:
        try:
            return self.depths[stage]
        except KeyError:
            raise StageMismatch(f"process has no stage {stage}") from None

    def at(self, stage: int) -> np.ndarray:
        try:
            return self.values[stage]
        except KeyError:
            raise StageMismatch(f"process has no stage {stage}") from None

    def at_depth(self, stage: int, depth: int) -> np.ndarray:
        return self.tree.lift(self.at(stage), self.depth(stage), depth)

    def value(self, stage: int, history) -> np.ndarray:
        """Value at a history (support indices) of any length >= the stage's depth."""
        depth = self.depth(stage)
        if len(history) < depth:
            raise StageMismatch(
                f"stage {stage} needs a history of length >= {depth}, got {len(history)}"
            )
        idx = 0
        for i in history[:depth]:
            idx = idx * self.tree.s + int(i)
        return self.at(stage)[idx]


def cond_expect(p: AdaptedProcess, stage: int, to_depth: int) -> np.ndarray:
    """E[p(stage) | noise up to depth to_depth], as a node array."""
    return p.tree.cond_expect_array(p.at(stage), p.depth(stage), to_depth)


def path_products(form: BsdeForm, support, depth: int, P=None):
    """Yield the per-history products C(0) ... C(k-1) for k = 0..depth.

    Level k has shape (s^k, n, n) with rows in node-index order; level 0
    is the identity. With a sequence P(0..depth) the products are
    P(0) C(0) P(1) ... C(k-1) P(k) instead. Only two levels are alive at
    a time; take ``list`` of the result to keep them all.
    """
    n = form.n
    cmats = form.stage_factors(support)
    prods = (np.eye(n) if P is None else P[0])[None, :, :]
    yield prods
    for k in range(depth):
        prods = np.einsum("hab,jbc->hjac", prods, cmats).reshape(-1, n, n)
        if P is not None:
            prods = prods @ P[k + 1]
        yield prods


def weighted_gram(probs: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """sum_h probs[h] cols[h] cols[h]' over a stack of (rows x k) blocks."""
    return np.einsum("h,hab,hcb->ac", probs, cols, cols)


def _check_input(tree, proc, stage, want_dim, what, to_depth=None) -> np.ndarray:
    """Fetch an adapted input, policing measurability, lifted to a node array.

    ``to_depth`` is the depth of the stage consuming the value; a delayed
    input is decided at an earlier stage but enters the dynamics later.
    """
    if proc is None:
        raise StageMismatch(f"{what} is required but missing")
    depth = proc.depth(stage)
    cap = max(0, stage)
    if depth > cap:
        raise AdaptednessViolation(
            f"{what} at stage {stage} stored at depth {depth} > {cap}; not measurable in time"
        )
    arr = proc.at(stage)
    if arr.shape[1] != want_dim:
        raise DimensionMismatch(f"{what} has dimension {arr.shape[1]}, expected {want_dim}")
    return tree.lift(arr, depth, cap if to_depth is None else to_depth)


def _terminal_array(tree: PathTree, n: int, terminal) -> np.ndarray:
    N = tree.horizon
    if terminal is None:
        return np.zeros((tree.n_nodes(N + 1), n))
    arr = np.asarray(terminal, dtype=float)
    if arr.ndim == 1:
        if arr.shape != (n,):
            raise DimensionMismatch(f"terminal vector must have length {n}, got {arr.shape}")
        return np.tile(arr, (tree.n_nodes(N + 1), 1))
    if arr.shape != (tree.n_nodes(N + 1), n):
        raise DimensionMismatch(
            f"terminal must be ({tree.n_nodes(N + 1)}, {n}) at depth {N + 1}, got {arr.shape}"
        )
    return arr.copy()


def terminal_from_map(tree: PathTree, n: int, leaves: np.ndarray) -> np.ndarray:
    """An instance's target leaf array (``ProblemInstance.target``), checked against the tree's depth."""
    want = (tree.n_nodes(tree.horizon + 1), n)
    if leaves.shape != want:
        raise SchemaError(f"target leaf array has shape {leaves.shape}; depth {tree.horizon + 1} needs {want}")
    return leaves


@dataclass(eq=False)
class BsdeSolution:
    """Solution pair of the backward equation on the tree.

    ``x`` carries stages 0..N+1 (stage k at depth k); ``z`` carries stages
    0..N and is the noise-weighted one-step conditional expectation of x.
    """

    tree: PathTree
    x: AdaptedProcess
    z: AdaptedProcess

    @property
    def x0(self) -> np.ndarray:
        return self.x.at(0)[0]


def backward_solve(
    tree: PathTree,
    form: BsdeForm,
    terminal,
    v: AdaptedProcess | None = None,
    *,
    u1: AdaptedProcess | None = None,
    tau: int | None = None,
) -> BsdeSolution:
    """Solve x(k) = E[(C + w(k) Cbar) x(k+1) | past] + D v(k) [+ D1 u1(k-tau)].

    ``terminal`` may be None (origin), an n-vector, or a full leaf array.
    ``v`` (None: zero free input) must hold stages 0..N with stage k
    measurable at depth <= k; the same applies to ``u1`` at stages
    -tau..N-tau (depth 0 before stage 0).
    """
    n, N = form.n, tree.horizon
    if (u1 is None) != (tau is None):
        raise StageMismatch("u1 and tau must be supplied together")
    if u1 is not None and form.D1 is None:
        raise DimensionMismatch("form has no delayed input channel D1")
    cmats = form.stage_factors(tree.support)
    x_vals = {N + 1: _terminal_array(tree, n, terminal)}
    for k in range(N, -1, -1):
        xk = _stage_step(tree, form, cmats, x_vals[k + 1], v, k)
        if u1 is not None:
            xk = xk + _check_input(tree, u1, k - tau, form.D1.shape[1], "u1", to_depth=k) @ form.D1.T
        x_vals[k] = xk
    return _solution(tree, x_vals)


def _stage_step(tree: PathTree, form: BsdeForm, cmats, x_next: np.ndarray, v, k: int) -> np.ndarray:
    """E[C(k) x(k+1) | past] + D v(k), at depth k; no v is zero free input."""
    xk = np.einsum("j,jab,hjb->ha", tree.probs, cmats, x_next.reshape(-1, tree.s, form.n))
    if v is not None:
        xk = xk + _check_input(tree, v, k, form.m_free, "v") @ form.D.T
    return xk


def _solution(tree: PathTree, x_vals: dict[int, np.ndarray]) -> BsdeSolution:
    """Pair node states x(0..N+1) with z(k) = E[w(k) x(k+1) | past], stage k at depth k."""
    wprobs = tree.probs * tree.support
    n = x_vals[tree.horizon + 1].shape[1]
    z_vals = {
        k: np.einsum("j,hjb->hb", wprobs, x_vals[k + 1].reshape(-1, tree.s, n))
        for k in range(tree.horizon + 1)
    }
    return BsdeSolution(
        tree,
        AdaptedProcess(tree, x_vals, {k: k for k in x_vals}),
        AdaptedProcess(tree, z_vals, {k: k for k in z_vals}),
    )


def _state_delay_gains(form: BsdeForm, d: int, N: int):
    """Pivots P(k) and lag gains Q_j(k) of the delayed backward equation.

    Eliminating stages N..0 leaves x(k) = r(k) + sum_j Q_j(k) x(k-j), with
    Q(N+1) = 0, P(k) = (I - C Q_1(k+1))^{-1}, Q_j(k) = P(k) C Q_{j+1}(k+1)
    for j < d and Q_d(k) = P(k) C1. So P(k) = I for k > N - d and below it
    inverts the bracket I - C P(k+1) ... C P(k+d) C1, multiplied out left to
    right so the Gramians keep their last digits. The system is singular
    exactly when a bracket is: rcond <= ``P_RCOND`` raises SingularPBracket(k).
    """
    n = form.n
    P = [np.eye(n)] * (N + 1)
    Q = [[np.zeros((n, n))] * d] * (N + 2)
    for k in range(N, -1, -1):
        if k + d <= N:
            bracket = np.eye(n)
            for j in range(k + 1, k + d + 1):
                bracket = bracket @ form.C @ P[j]
            bracket = np.eye(n) - bracket @ form.C1
            svals = np.linalg.svd(bracket, compute_uv=False)
            if svals[0] == 0.0 or svals[-1] / svals[0] <= P_RCOND:
                raise SingularPBracket(k)
            P[k] = np.linalg.inv(bracket)
        PC = P[k] @ form.C
        Q[k] = [PC @ Qj for Qj in Q[k + 1][1:]] + [P[k] @ form.C1]
    return P, Q


def backward_solve_state_delay(
    tree: PathTree,
    form: BsdeForm,
    d: int,
    terminal,
    v: AdaptedProcess | None = None,
) -> BsdeSolution:
    """Solve the backward equation with the extra drift term C1 x(k-d).

    Block elimination with the P-sequence as pivots (:func:`_state_delay_gains`):
    r(k) = P(k) (E[C(k) r(k+1) | past] + D v(k)) backward from r(N+1) =
    terminal, then x(k) = r(k) + sum_j Q_j(k) x(k-j) forward. Pre-horizon
    states x(s), s < 0, are zero.
    """
    if form.C1 is None:
        raise DimensionMismatch("form has no delayed state channel C1")
    if d < 1:
        raise StageMismatch(f"state delay must be >= 1, got {d}")
    N = tree.horizon
    P, Q = _state_delay_gains(form, d, N)
    cmats = form.stage_factors(tree.support)
    x_vals = {N + 1: _terminal_array(tree, form.n, terminal)}
    for k in range(N, -1, -1):
        x_vals[k] = _stage_step(tree, form, cmats, x_vals[k + 1], v, k) @ P[k].T
    for k in range(1, N + 1):
        for j in range(1, min(d, k) + 1):
            x_vals[k] += tree.lift(x_vals[k - j], k - j, k) @ Q[k][j - 1].T
    return _solution(tree, x_vals)


def representation_residual(sol: BsdeSolution) -> dict[int, float]:
    """Max node residual of x(k+1) = E[x(k+1) | past] + w(k) z(k), per stage."""
    tree = sol.tree
    out = {}
    for k in range(tree.horizon + 1):
        xk1 = sol.x.at(k + 1).reshape(-1, tree.s, sol.x.dim)
        xbar = np.einsum("j,hjb->hb", tree.probs, xk1)
        pred = xbar[:, None, :] + tree.support[None, :, None] * sol.z.at(k)[:, None, :]
        out[k] = float(np.abs(xk1 - pred).max()) if xk1.size else 0.0
    return out


def expected_terminal_product(tree: PathTree, form: BsdeForm, terminal: np.ndarray) -> np.ndarray:
    """E[C(0) C(1) ... C(N) xi] by direct path enumeration."""
    *_, prods = path_products(form, tree.support, tree.horizon + 1)
    leaf_p = tree.node_probs(tree.horizon + 1)
    return np.einsum("h,hab,hb->a", leaf_p, prods, terminal)


@dataclass(eq=False)
class SMembership:
    """Outcome of the attainable-terminal test."""

    member: bool
    max_residual: float
    tol: float
    x0: np.ndarray
    solution: BsdeSolution


def member_of_S(tree: PathTree, form: BsdeForm, terminal, tol: float = 1e-8) -> SMembership:
    """Test whether a terminal value is attainable with zero free input.

    Solves the homogeneous backward equation from the terminal and checks
    the one-step representation residual at every node. On two-point noise
    every terminal passes; richer laws reject terminals whose dependence on
    the final noise is not affine.
    """
    terminal_arr = _terminal_array(tree, form.n, terminal)
    sol = backward_solve(tree, form, terminal_arr)
    return _membership(sol, terminal_arr, tol)


def _membership(sol: BsdeSolution, terminal_arr: np.ndarray, tol: float) -> SMembership:
    """Judge a homogeneous solve by its worst representation residual.

    The tolerance scales with the largest terminal entry (at least 1).
    """
    residuals = representation_residual(sol)
    worst = max(residuals.values()) if residuals else 0.0
    scale = max(1.0, float(np.abs(terminal_arr).max()))
    return SMembership(
        member=bool(worst <= tol * scale),
        max_residual=worst,
        tol=tol,
        x0=sol.x0,
        solution=sol,
    )


def forward_simulate(
    tree: PathTree,
    spec: SystemSpec,
    x0: np.ndarray,
    u: AdaptedProcess,
    *,
    u1: AdaptedProcess | None = None,
) -> AdaptedProcess:
    """Run the plant over every noise path; returns x at stages 0..N+1.

    Uses the delay channels declared on ``spec``: the delayed input needs
    ``u1`` (stages -tau..N-tau), the delayed state uses zero pre-history.
    """
    n, N = spec.n, tree.horizon
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise DimensionMismatch(f"x0 must have length {n}, got {x0.shape}")
    if spec.B1 is not None and u1 is None:
        raise StageMismatch("system has a delayed input channel; u1 is required")
    xs = {0: x0[None, :].copy()}
    for k in range(N + 1):
        xs[k + 1] = plant_step(tree, spec, xs, k, _check_input(tree, u, k, spec.m, "u"), u1)
    return AdaptedProcess(tree, xs, {k: k for k in range(N + 2)})


def plant_step(tree: PathTree, spec: SystemSpec, xs: dict, k: int, uk: np.ndarray, u1=None) -> np.ndarray:
    """x(k+1) from the states ``xs`` up to stage k and u(k), at depth k + 1.

    The full route's closed loop takes this step too, so its table replays exactly.
    """
    xk = xs[k]
    drift = xk @ spec.A.T + uk @ spec.B.T
    if spec.B1 is not None:
        drift = drift + _check_input(tree, u1, k - spec.tau, spec.B1.shape[1], "u1", to_depth=k) @ spec.B1.T
    if spec.A1 is not None and k - spec.d >= 0:
        xkd = tree.lift(xs[k - spec.d], k - spec.d, k)
        drift = drift + xkd @ spec.A1.T
    diffusion = xk @ spec.Abar.T + uk @ spec.Bbar.T
    step = drift[:, None, :] + tree.support[None, :, None] * diffusion[:, None, :]
    return step.reshape(-1, spec.n)
