"""Controllability with a delayed input or a delayed state.

Both variants keep the backward-form coefficients (C, Cbar, D) and add
one channel, and both Gramians come from :func:`criteria.gramian_sequence`,
S(j) = P(j) (D D' + E(j) + Lambda(S(j-1))) P(j)' from S(-1) = 0. A
delayed input contributes D1 u1(k - tau) to the backward equation; its
Gramian terms are conditional expectations of the stage products, which
collapse by independence to C^tau times an ordinary product: the
sequence's E(j) = C^tau D1 D1' C^tau' for j >= tau, plus the pre-horizon
terms C^i D1 D1' C^i', i < tau, added outside it. A delayed state adds
the drift C1 x(k - d); the deterministic P(k) iteration absorbs that
coupling and the Gramian weaves P(k) between the random stage factors,
as the sequence's pivots P(j) = P(N - j). The same P(k) pivot the
elimination that solves the delayed backward equation. P(k) depends on
the horizon only through N - k, so one P-sequence serves every horizon
up to its own.

Both controllers are feedback laws in ``synthesis``'s closed loop, on
e = x - x_h with j = N - k, and take their gains from its one gain law
``synthesis._gains``: y = S(j)^+ p(k) for a predictor p, v = D' P(j)' y
and z = z_h + S(j-1) Cbar' P(j)' y. Input delay, a Smith predictor: p(k)
is e(k) less sum_{i=k}^{min(k+tau-1, N)} C^{i-k} D1 u1(i - tau), the
delayed inputs on their way; S(j) is the Gramian less its pre-horizon
terms and u1(k) = D1' C^tau' y for k <= N - tau. The pre-horizon inputs
are u1(i - tau) = D1' C^i' G_N^{-1} e(0). State delay: p(k) = e(k) -
sum_j Q_j(k) e(k - j) with the elimination's lag gains. The
pseudo-inverses are exact: the positive semi-definite sums S(j) (of
P(j) D D' P(j)', P(j) Cbar S(j-1) Cbar' P(j)' and, for j >= tau,
C^tau D1 D1' C^tau') span every range the laws map y through.

Each Gramian has a literal path-enumeration oracle next to it. The
closed forms are derived (the collapse step is not written out in any
one place); the oracles recompute the defining expectations term by
term, over the per-path products of :func:`pathspace.path_products`,
so the two routes can check each other. The CLI's route table
(``cli.ROUTES``) reaches these functions for the two delay routes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .criteria import ControllabilityReport, _scan_gramians, gramian_sequence
from .errors import DimensionMismatch
from .model import NoiseModel, SystemSpec, ValidatedSystem
from .pathspace import (
    DEFAULT_CAP,
    PathTree,
    SMembership,
    _membership,
    _state_delay_gains,
    _terminal_array,
    backward_solve_state_delay,
    member_of_S,
    path_products,
    weighted_gram,
)
from .synthesis import ControllerProcess, _check_gramian, _closed_loop, _gains, _pinv, _steering_start
from .transform import BsdeForm, TransformedSystem


# ---------------------------------------------------------------------------
# input delay


def _input_delay_gramians(form: BsdeForm, tau: int):
    """Yield the delayed-input Gramian at N = 0, 1, ...: S(N) of
    :func:`criteria.gramian_sequence` plus C^i D1 D1' C^i', i < min(tau, N + 1)."""
    pre, CD1 = np.zeros((form.n, form.n)), form.D1
    for N, S in enumerate(gramian_sequence(form, tau)):
        if N < tau:
            pre = pre + CD1 @ CD1.T
            CD1 = form.C @ CD1
        yield S + pre


def input_delay_gramian(form: BsdeForm, tau: int, N: int) -> np.ndarray:
    """Steering Gramian of the delayed-input system over horizon N."""
    if form.D1 is None:
        raise DimensionMismatch("form has no delayed input channel D1")
    if tau < 1:
        raise ValueError(f"input delay must be >= 1, got {tau}")
    return next(itertools.islice(_input_delay_gramians(form, tau), N, None))


def input_delay_gramian_oracle(
    form: BsdeForm, tau: int, N: int, noise: NoiseModel, cap: int = DEFAULT_CAP
) -> np.ndarray:
    """Same Gramian by literal enumeration, conditional expectations and all.

    For each i the delayed term averages, over prefixes of depth
    max(0, i - tau), the squared conditional mean of the full product
    over its continuations. No collapse step is used.
    """
    if form.D1 is None:
        raise DimensionMismatch("form has no delayed input channel D1")
    tree = PathTree(noise, N, cap)
    n, s = form.n, tree.s
    G = np.zeros((n, n))
    for i, prods in enumerate(path_products(form, tree.support, N)):
        G += weighted_gram(tree.node_probs(i), prods @ form.D)
        depth = max(0, i - tau)
        tails = prods.reshape(s**depth, s ** (i - depth), n, n)
        Phi = np.einsum("htab,t->hab", tails, tree.node_probs(i - depth))
        G += weighted_gram(tree.node_probs(depth), Phi @ form.D1)
    return G


def input_delay_controller(
    ts: TransformedSystem,
    tree: PathTree,
    x0: np.ndarray,
    target=None,
    tol: float = 1e-8,
) -> ControllerProcess:
    """Steer x0 to the origin (or an attainable target) by this module's Smith-predictor law.

    The pre-horizon u1 stages -tau..-1 are deterministic and carried in the output table.
    """
    spec, form = ts.spec, ts.form
    if spec.B1 is None or spec.tau is None:
        raise ValueError("system has no delayed input channel")
    tau, N, n = spec.tau, tree.horizon, form.n
    x0, hom = _steering_start(tree, form, x0, target, lambda t: member_of_S(tree, form, t, tol=tol))
    G = input_delay_gramian(form, tau, N)
    _check_gramian(G, f"delayed-input Gramian at N = {N}")
    g = np.linalg.solve(G, x0 if hom is None else x0 - hom.x0)
    S = [np.zeros((n, n)), *itertools.islice(gramian_sequence(form, tau), N + 1)]  # S(j-1)
    CD1 = [np.linalg.matrix_power(form.C, i) @ form.D1 for i in range(tau + 1)]  # C^i D1
    u1_gains = [CD1[tau].T @ _pinv(S[j + 1]) for j in range(N, tau - 1, -1)]
    pre = {i - tau: (g @ CD1[i])[None, :] for i in range(min(tau, N + 1))}

    def predict(k, e, u1):
        xi = e[k]
        for i in range(k, min(k + tau - 1, N) + 1):
            xi = xi - tree.lift(u1[i - tau], max(0, i - tau), k) @ CD1[i - k].T
        return xi

    return _closed_loop("input-delay", ts, tree, x0, hom, G, _gains(ts, S), predict, (u1_gains, pre))


def input_delay_decide(
    system: SystemSpec | ValidatedSystem | TransformedSystem,
    N_max: int | None = None,
) -> ControllabilityReport:
    """Scan the delayed-input Gramians; a witness proves controllability."""
    ts = TransformedSystem.build(system)
    spec = ts.spec
    if spec.B1 is None or spec.tau is None:
        raise ValueError("system has no delayed input channel")
    return _delay_scan("input-delay", ts, N_max, lambda _: _input_delay_gramians(ts.form, spec.tau))


def _delay_scan(kind: str, ts: TransformedSystem, N_max, gramians) -> ControllabilityReport:
    """Scan the horizon-N Gramians ``gramians(N_max)`` yields for N = 0..N_max.

    Only the sufficient direction is available on the delay routes, so the
    rank-test fields stay None and a missing witness means "not shown".
    """
    N_max = ts.spec.default_horizon if N_max is None else N_max
    return _scan_gramians(kind, gramians(N_max), ts.spec.n, N_max, ts.transform.source)


# ---------------------------------------------------------------------------
# state delay


@dataclass(frozen=True, eq=False)
class PSequence:
    """Deterministic backward iteration absorbing the delayed-state drift.

    P(k) is the identity on the tail band k = N .. N-d+1 and
    [I - C P(k+1) ... C P(k+d) C1]^{-1} below it: the pivots of
    :func:`pathspace.backward_solve_state_delay`. P(k) depends on the
    horizon N only through N - k, so one sequence serves every shorter
    horizon as its tail.
    """

    P: tuple[np.ndarray, ...]  # indices 0..N


def state_delay_P(form: BsdeForm, d: int, N: int) -> PSequence:
    """Run the backward iteration, failing loudly on a singular bracket."""
    if form.C1 is None:
        raise DimensionMismatch("form has no delayed state channel C1")
    if d < 1:
        raise ValueError(f"state delay must be >= 1, got {d}")
    P, _ = _state_delay_gains(form, d, N)
    return PSequence(P=tuple(P))


def state_delay_gramian(form: BsdeForm, d: int, N: int) -> np.ndarray:
    """Steering Gramian of the delayed-state system over horizon N.

    S(N) of :func:`criteria.gramian_sequence` pivoted by this horizon's
    P-sequence: it sums the defining products exactly because the moment
    recursion is linear in its seed.
    """
    return next(itertools.islice(_state_delay_sequence(form, d, N), N, None))


def _state_delay_sequence(form: BsdeForm, d: int, N: int):
    """S(0), ..., S(N) of :func:`criteria.gramian_sequence` pivoted by the horizon-N P-sequence."""
    return gramian_sequence(form, pivots=state_delay_P(form, d, N).P[::-1])


def state_delay_gramian_oracle(
    form: BsdeForm, d: int, N: int, noise: NoiseModel, cap: int = DEFAULT_CAP
) -> np.ndarray:
    """Same Gramian by literal enumeration of P(0)C(0)...P(j-1)C(j-1)P(j)D."""
    pseq = state_delay_P(form, d, N)
    tree = PathTree(noise, N, cap)
    G = np.zeros((form.n, form.n))
    for j, prods in enumerate(path_products(form, tree.support, N, pseq.P)):
        G += weighted_gram(tree.node_probs(j), prods @ form.D)
    return G


def member_of_S_state_delay(
    tree: PathTree, form: BsdeForm, d: int, terminal, tol: float = 1e-8
) -> SMembership:
    """Attainability test against the delayed homogeneous backward equation.

    Same residual method as :func:`member_of_S`, with the zero-input
    solve replaced by the delayed one.
    """
    terminal_arr = _terminal_array(tree, form.n, terminal)
    sol = backward_solve_state_delay(tree, form, d, terminal_arr)
    return _membership(sol, terminal_arr, tol)


def state_delay_controller(
    ts: TransformedSystem,
    tree: PathTree,
    x0: np.ndarray,
    target=None,
    tol: float = 1e-8,
) -> ControllerProcess:
    """Steer x0 to the origin (or an attainable target) by this module's lag-gain law.

    Pre-horizon states are zero.
    """
    spec, form = ts.spec, ts.form
    if spec.A1 is None or spec.d is None:
        raise ValueError("system has no delayed state channel")
    d, N = spec.d, tree.horizon
    x0, hom = _steering_start(
        tree, form, x0, target, lambda t: member_of_S_state_delay(tree, form, d, t, tol=tol)
    )
    P, Q = _state_delay_gains(form, d, N)
    S = [np.zeros((form.n, form.n)), *itertools.islice(gramian_sequence(form, pivots=P[::-1]), N + 1)]
    _check_gramian(S[-1], f"delayed-state Gramian at N = {N}")

    def predict(k, e, _):
        r = e[k]
        for j in range(1, min(d, k) + 1):
            r = r - tree.lift(e[k - j], k - j, k) @ Q[k][j - 1].T
        return r

    return _closed_loop("state-delay", ts, tree, x0, hom, S[-1], _gains(ts, S, P), predict)


def state_delay_decide(
    system: SystemSpec | ValidatedSystem | TransformedSystem,
    N_max: int | None = None,
) -> ControllabilityReport:
    """Scan the delayed-state Gramians; a witness proves controllability.

    P(k) depends on the horizon N only through N - k, so the horizon-N
    Gramian is S(N) of one sequence pivoted by the P-sequence built once at
    N_max, read from its tail. A singular bracket at any scanned horizon
    propagates; the criterion is inapplicable there.
    """
    ts = TransformedSystem.build(system)
    spec = ts.spec
    if spec.A1 is None or spec.d is None:
        raise ValueError("system has no delayed state channel")
    return _delay_scan("state-delay", ts, N_max, lambda N: _state_delay_sequence(ts.form, spec.d, N))
