"""Controllability with a delayed input or a delayed state.

Both variants keep the backward-form coefficients (C, Cbar, D) and add
one channel, which the form carries with its lag (D1 with tau, C1 with
d), so nothing here takes a lag argument. Their Gramians are
:func:`criteria.gramian` and their scans :func:`criteria.decide_form`,
both read off the one recursion :func:`criteria.gramian_sequence`,
S(j) = P(j) (D D' + E(j) + Lambda(S(j-1))) P(j)' from S(-1) = 0. A
delayed input contributes D1 u1(k - tau) to the backward equation; its
Gramian terms are conditional expectations of the stage products, which
collapse by independence to C^tau times an ordinary product: the
sequence's E(j) = C^tau D1 D1' C^tau' for j >= tau, plus the pre-horizon
terms C^i D1 D1' C^i', i < tau, that :func:`criteria.gramian` adds. A
delayed state adds the drift C1 x(k - d); the deterministic P(k)
iteration (:func:`pathspace.state_delay_P`) absorbs that coupling and
the Gramian weaves P(k) between the random stage factors, as the
sequence's pivots P(j) = P(N - j). The same P(k) pivot the elimination
that solves the delayed backward equation. P(k) depends on the horizon
only through N - k, so one P-sequence serves every horizon up to its
own.

Both controllers are feedback laws run by ``synthesis.feedback_loop``,
on e = x - x_h with j = N - k. Each hands ``synthesis._steer`` the gains
of the one gain law ``synthesis._gains`` and a predictor map Pi_k from
the lagged regressor (``synthesis.FeedbackLaw``) to the predictor p(k):
y = S(j)^+ p(k), v = D' P(j)' y and z = z_h + S(j-1) Cbar' P(j)' y.
Input delay, a Smith predictor: Pi_k = [I, -C^(tau-1) D1, ..., -D1]
over [x(k), u1(k-1), ..., u1(k-tau)], the delayed inputs on their way (a
block is zero for an input that enters after stage N); S(j) is the
Gramian less its pre-horizon terms and u1(k) = D1' C^tau' y for
k <= N - tau. The pre-horizon inputs u1(i - tau) = D1' C^i' G_N^{-1} e(0)
depend on x0 and travel with the law. State delay:
Pi_k = [I, -Q_1(k), ..., -Q_d(k)] over [x(k), x(k-1), ..., x(k-d)] with
the elimination's lag gains. The pseudo-inverses are exact: the positive semi-definite sums S(j) (of
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

import numpy as np

from .criteria import ControllabilityReport, decide, gramian, gramian_sequence
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
    state_delay_P,  # noqa: F401  (part of this module's surface; defined next to the elimination)
    weighted_gram,
)
from .synthesis import ControllerProcess, _check_gramian, _gains, _steer, _steering_start
from .transform import BsdeForm, TransformedSystem


# ---------------------------------------------------------------------------
# input delay


def input_delay_gramian_oracle(form: BsdeForm, N: int, noise: NoiseModel, cap: int = DEFAULT_CAP) -> np.ndarray:
    """The delayed-input Gramian by literal enumeration, conditional expectations and all.

    For each i the delayed term averages, over prefixes of depth
    max(0, i - tau), the squared conditional mean of the full product
    over its continuations. No collapse step is used.
    """
    if form.D1 is None:
        raise DimensionMismatch("form has no delayed input channel D1")
    tree = PathTree(noise, N, cap)
    n, s, tau = form.n, tree.s, form.tau
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

    The pre-horizon u1 stages -tau..-1 are deterministic and carried in the law as ``u1_pre``.
    """
    form = ts.form
    if form.D1 is None:
        raise ValueError("system has no delayed input channel")
    tau, N, n = form.tau, tree.horizon, form.n
    x0, hom = _steering_start(tree, form, x0, target, lambda t: member_of_S(tree, form, t, tol=tol))
    G = gramian(form, N)
    _check_gramian(G, f"delayed-input Gramian at N = {N}")
    g = np.linalg.solve(G, x0 if hom is None else x0 - hom.x0)
    S = [np.zeros((n, n)), *gramian_sequence(form, N)]  # S(j-1)
    CD1 = [np.linalg.matrix_power(form.C, i) @ form.D1 for i in range(tau + 1)]  # C^i D1
    # u1(k - i) enters at stage k - i + tau; none that enters after N is on its way.
    Pi = [np.hstack([np.eye(n)] + [-CD1[tau - i] * (k - i + tau <= N) for i in range(1, tau + 1)])
          for k in range(N + 1)]
    u1_pre = np.array([g @ CD1[i] for i in range(min(tau, N + 1))])
    return _steer("input-delay", ts, tree, x0, hom, G, _gains(ts, S), Pi, u1_pre)


def input_delay_decide(
    system: SystemSpec | ValidatedSystem | TransformedSystem,
    N_max: int | None = None,
) -> ControllabilityReport:
    """Scan the delayed-input Gramians; a witness proves controllability."""
    ts = TransformedSystem.build(system)
    if ts.form.D1 is None:
        raise ValueError("system has no delayed input channel")
    return decide(ts, N_max)


# ---------------------------------------------------------------------------
# state delay


def state_delay_gramian_oracle(form: BsdeForm, N: int, noise: NoiseModel, cap: int = DEFAULT_CAP) -> np.ndarray:
    """The delayed-state Gramian by literal enumeration of P(0)C(0)...P(j-1)C(j-1)P(j)D."""
    tree = PathTree(noise, N, cap)
    if form.C1 is None:
        raise DimensionMismatch("form has no delayed state channel C1")
    G = np.zeros((form.n, form.n))
    for j, prods in enumerate(path_products(form, tree.support, N)):
        G += weighted_gram(tree.node_probs(j), prods @ form.D)
    return G


def member_of_S_state_delay(tree: PathTree, form: BsdeForm, terminal, tol: float = 1e-8) -> SMembership:
    """Attainability test against the delayed homogeneous backward equation.

    Same residual method as :func:`member_of_S`, with the zero-input
    solve replaced by the delayed one.
    """
    terminal_arr = _terminal_array(tree, form.n, terminal)
    sol = backward_solve_state_delay(tree, form, terminal_arr)
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
    form = ts.form
    if form.C1 is None:
        raise ValueError("system has no delayed state channel")
    N = tree.horizon
    x0, hom = _steering_start(tree, form, x0, target, lambda t: member_of_S_state_delay(tree, form, t, tol=tol))
    _, Q = _state_delay_gains(form, N)
    S = [np.zeros((form.n, form.n)), *gramian_sequence(form, N)]
    _check_gramian(S[-1], f"delayed-state Gramian at N = {N}")
    Pi = [np.hstack([np.eye(form.n)] + [-Qj for Qj in Q[k]]) for k in range(N + 1)]
    return _steer("state-delay", ts, tree, x0, hom, S[-1], _gains(ts, S), Pi)


def state_delay_decide(
    system: SystemSpec | ValidatedSystem | TransformedSystem,
    N_max: int | None = None,
) -> ControllabilityReport:
    """Scan the delayed-state Gramians; a witness proves controllability.

    P(k) depends on the horizon N only through N - k, so the horizon-N
    Gramian is S(N) of one sequence pivoted by the P-sequence built once at
    N_max. A singular bracket at any scanned horizon propagates; the
    criterion is inapplicable there.
    """
    ts = TransformedSystem.build(system)
    if ts.form.C1 is None:
        raise ValueError("system has no delayed state channel")
    return decide(ts, N_max)
