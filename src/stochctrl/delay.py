"""Controllability with a delayed input or a delayed state.

Both variants keep the backward-form coefficients (C, Cbar, D) and add
one channel. A delayed input contributes D1 u1(k - tau) to the backward
equation; its Gramian augments G_N with terms built from conditional
expectations of the stage products, which collapse by independence to
C^tau times an ordinary product. A delayed state adds the drift
C1 x(k - d); the deterministic P(k) iteration absorbs that coupling and
the Gramian weaves P(k) between the random stage factors. The same P(k)
pivot the elimination that solves the delayed backward equation.

Both controllers are feedback laws in ``synthesis``'s closed loop, on
e = x - x_h with j = N - k. Input delay, a Smith predictor: xi(k) is e(k)
less sum_{i=k}^{min(k+tau-1, N)} C^{i-k} D1 u1(i - tau), the delayed
inputs on their way; y = H_j^+ xi with H_j the Gramian less its
pre-horizon terms i < tau (H_{-1} = 0); v = D' y, z = z_h + H_{j-1} Cbar' y
and u1(k) = D1' C^tau' y for k <= N - tau. The pre-horizon inputs are
u1(i - tau) = D1' C^i' G_N^{-1} e(0). State delay: r(k) = e(k) -
sum_j Q_j(k) e(k - j) with the elimination's lag gains,
S_k = P(k) (D D' + Lambda(S_{k+1})) P(k)' from S_{N+1} = 0 (S_0 is the
Gramian), y = S_k^+ r, v = D' P(k)' y and z = z_h + S_{k+1} Cbar' P(k)' y.
The pseudo-inverses are exact: the positive semi-definite sums H_j (of
D D', Cbar H_{j-1} Cbar' and, for j >= tau, C^tau D1 D1' C^tau') and S_k
(of P(k) D D' P(k)' and P(k) Cbar S_{k+1} Cbar' P(k)') span every range
the laws map y through.

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

from .criteria import ControllabilityReport, _moment_terms, _running_sums, _scan_gramians, moment_step
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
from .synthesis import ControllerProcess, _check_gramian, _closed_loop, _pinv, _steering_start
from .transform import BsdeForm, TransformedSystem


# ---------------------------------------------------------------------------
# input delay


def _input_delay_terms(form: BsdeForm, tau: int):
    """Free and delayed parts (X, T) of the N-th summand of the delayed-input Gramian.

    The free channel contributes X = Lambda^i(D D') as usual. The delayed
    channel's i-th term is E[Phi_i D1 D1' Phi_i'] with
    Phi_i = E[C(0)...C(i-1) | F(i-tau-1)]; independence collapses Phi_i
    to C(0)...C(i-tau-1) C^tau, so T = C^i D1 D1' (C^i)' while i <= tau
    and gains one Lambda application per stage after that. T belongs to
    the pre-horizon input u1(i - tau) while i < tau.
    """
    T = form.D1 @ form.D1.T
    for i, X in enumerate(_moment_terms(form)):
        yield X, T
        T = form.C @ T @ form.C.T if i < tau else moment_step(form.C, form.Cbar, T)


def input_delay_gramian(form: BsdeForm, tau: int, N: int) -> np.ndarray:
    """Steering Gramian of the delayed-input system over horizon N."""
    if form.D1 is None:
        raise DimensionMismatch("form has no delayed input channel D1")
    if tau < 1:
        raise ValueError(f"input delay must be >= 1, got {tau}")
    terms = (X + T for X, T in _input_delay_terms(form, tau))
    return sum(itertools.islice(terms, N + 1), np.zeros((form.n, form.n)))


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
    in_horizon = (X + T if i >= tau else X for i, (X, T) in enumerate(_input_delay_terms(form, tau)))
    H = [np.zeros((n, n)), *itertools.islice(_running_sums(in_horizon, n), N + 1)]  # H_{j-1}
    CD1 = [np.linalg.matrix_power(form.C, i) @ form.D1 for i in range(tau + 1)]  # C^i D1
    gains, u1_gains = [], []
    for j in range(N, -1, -1):
        H_plus = _pinv(H[j + 1])
        gains.append(ts.transform.M @ np.vstack([H[j] @ form.Cbar.T, form.D.T]) @ H_plus)
        if j >= tau:
            u1_gains.append(CD1[tau].T @ H_plus)
    pre = {i - tau: (g @ CD1[i])[None, :] for i in range(min(tau, N + 1))}

    def predict(k, e, u1):
        xi = e[k]
        for i in range(k, min(k + tau - 1, N) + 1):
            xi = xi - tree.lift(u1[i - tau], max(0, i - tau), k) @ CD1[i - k].T
        return xi

    return _closed_loop("input-delay", ts, tree, x0, hom, G, gains, predict, (u1_gains, pre))


def input_delay_decide(
    system: SystemSpec | ValidatedSystem | TransformedSystem,
    N_max: int | None = None,
    rank_tol: float | None = None,
) -> ControllabilityReport:
    """Scan the delayed-input Gramians; a witness proves controllability."""
    ts = TransformedSystem.build(system)
    spec = ts.spec
    if spec.B1 is None or spec.tau is None:
        raise ValueError("system has no delayed input channel")
    gramians = _running_sums((X + T for X, T in _input_delay_terms(ts.form, spec.tau)), spec.n)
    return _delay_scan("input-delay", ts, gramians, N_max, rank_tol)


def _delay_scan(kind: str, ts: TransformedSystem, gramians, N_max, rank_tol) -> ControllabilityReport:
    """Scan the horizon-N Gramians of a delay route for N = 0..N_max.

    Only the sufficient direction is available on the delay routes, so the
    rank-test fields stay None and a missing witness means "not shown".
    """
    spec = ts.spec
    if N_max is None:
        N_max = spec.default_horizon
    G, min_sv, witness = _scan_gramians(gramians, spec.n, N_max, rank_tol)
    return ControllabilityReport(
        kind=kind,
        dim=spec.n,
        N_max=N_max,
        controllable=witness is not None,
        witness_N=witness,
        min_singular=tuple(min_sv),
        gramian=G,
        gramian_rank=int(np.linalg.matrix_rank(G)),
        rank_R=None,
        span_depth=None,
        criteria_agree=None,
        transform_source=ts.transform.source,
    )


# ---------------------------------------------------------------------------
# state delay


@dataclass(frozen=True, eq=False)
class PSequence:
    """Deterministic backward iteration absorbing the delayed-state drift.

    P(k) is the identity on the tail band k = N .. N-d+1 and
    [I - C P(k+1) ... C P(k+d) C1]^{-1} below it: the pivots of
    :func:`pathspace.backward_solve_state_delay`.
    """

    d: int
    N: int
    P: tuple[np.ndarray, ...]  # indices 0..N


def state_delay_P(form: BsdeForm, d: int, N: int) -> PSequence:
    """Run the backward iteration, failing loudly on a singular bracket."""
    if form.C1 is None:
        raise DimensionMismatch("form has no delayed state channel C1")
    if d < 1:
        raise ValueError(f"state delay must be >= 1, got {d}")
    P, _ = _state_delay_gains(form, d, N)
    return PSequence(d=d, N=N, P=tuple(P))


def state_delay_gramian(
    form: BsdeForm, d: int, N: int, pseq: PSequence | None = None
) -> np.ndarray:
    """Steering Gramian of the delayed-state system over horizon N.

    Accumulated backward: S <- P(j)(D D' + Lambda(S))P(j)' from j = N
    down to 0, which sums the defining products exactly because the
    moment recursion is linear in its seed.
    """
    if pseq is None:
        pseq = state_delay_P(form, d, N)
    if pseq.N != N or pseq.d != d:
        raise ValueError("P-sequence was built for a different horizon or delay")
    return _state_delay_sums(form, pseq.P)[0]


def _state_delay_sums(form: BsdeForm, P) -> list[np.ndarray]:
    """S_0, ..., S_{N+1}: S_{N+1} = 0 and S_k = P(k) (D D' + Lambda(S_{k+1})) P(k)'."""
    DDt = form.D @ form.D.T
    S = [np.zeros((form.n, form.n))]
    for Pk in reversed(P):
        S.append(Pk @ (DDt + moment_step(form.C, form.Cbar, S[-1])) @ Pk.T)
    return S[::-1]


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
    S = _state_delay_sums(form, P)
    _check_gramian(S[0], f"delayed-state Gramian at N = {N}")
    gains = [
        ts.transform.M @ np.vstack([S[k + 1] @ form.Cbar.T, form.D.T]) @ P[k].T @ _pinv(S[k])
        for k in range(N + 1)
    ]

    def predict(k, e, _):
        r = e[k]
        for j in range(1, min(d, k) + 1):
            r = r - tree.lift(e[k - j], k - j, k) @ Q[k][j - 1].T
        return r

    return _closed_loop("state-delay", ts, tree, x0, hom, S[0], gains, predict)


def state_delay_decide(
    system: SystemSpec | ValidatedSystem | TransformedSystem,
    N_max: int | None = None,
    rank_tol: float | None = None,
) -> ControllabilityReport:
    """Scan the delayed-state Gramians; a witness proves controllability.

    The P-sequence depends on the horizon, so each N is computed afresh
    rather than by extending a running sum. A singular bracket at any
    scanned horizon propagates; the criterion is inapplicable there.
    """
    ts = TransformedSystem.build(system)
    spec = ts.spec
    if spec.A1 is None or spec.d is None:
        raise ValueError("system has no delayed state channel")
    gramians = (state_delay_gramian(ts.form, spec.d, N) for N in itertools.count())
    return _delay_scan("state-delay", ts, gramians, N_max, rank_tol)
