"""Controllability with a delayed input or a delayed state: the math and the named entry points.

Both variants keep the backward-form coefficients (C, Cbar, D) and add
one channel, which the form carries with its lag (D1 with tau, C1 with
d). The functions that do the work read the route from the form, so
each name here is a channel check in front of the body every full-state
route shares: the scan :func:`criteria.decide`, the enumeration of
:func:`criteria.gramian_oracle`, the membership test of
:func:`pathspace.member_of_S` and the steering law behind
:func:`synthesis.steer_to_target`. This module holds no arithmetic.

The Gramians are :func:`criteria.gramian`, read off the one recursion
:func:`criteria.gramian_sequence`,
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
that solves the delayed backward equation
(:func:`pathspace.backward_solve_state_delay`, which
:func:`pathspace.backward_solve` hands a form with C1). P(k) depends on
the horizon only through N - k, so one P-sequence serves every horizon
up to its own.

Both controllers are feedback laws run by ``synthesis.feedback_loop``,
on e = x - x_h with j = N - k: the one gain law of ``synthesis`` and a
predictor map Pi_k from the lagged regressor (``synthesis.FeedbackLaw``)
to the predictor p(k): y = S(j)^+ p(k), v = D' P(j)' y and
z = z_h + S(j-1) Cbar' P(j)' y. Input delay, a Smith predictor:
Pi_k = [I, -C^(tau-i) D1, ..., -D1] over [x(k), u1(k-i), ..., u1(k-tau)],
i = max(1, k + tau - N): the delayed inputs on their way, an input that
enters after stage N never acting; S(j) is the Gramian less its
pre-horizon terms and u1(k) = D1' C^tau' y for k <= N - tau. The pre-horizon inputs
u1(i - tau) = D1' C^i' G_N^{-1} e(0) depend on x0 and travel with the
law. State delay: Pi_k = [I, -Q_1(k), ..., -Q_e(k)] over
[x(k), x(k-1), ..., x(k-e)], e = min(d, k), with the elimination's lag
gains (a state before stage 0 is zero). The
pseudo-inverses are exact: the positive semi-definite sums S(j) (of
P(j) D D' P(j)', P(j) Cbar S(j-1) Cbar' P(j)' and, for j >= tau,
C^tau D1 D1' C^tau') span every range the laws map y through.

Each Gramian has a literal path-enumeration oracle. The closed forms
are derived (the collapse step is not written out in any one place);
the oracles recompute the defining expectations term by term over the
per-history stage products, so the two routes can check each other.
The CLI's route table (``cli.ROUTES``) reaches these names for the two
delay routes.
"""
from __future__ import annotations

import numpy as np

from .criteria import ControllabilityReport, _decide, _gramian_oracle
from .errors import DimensionMismatch
from .model import NoiseModel, SystemSpec, ValidatedSystem
from .pathspace import (
    DEFAULT_CAP,
    PathTree,
    SMembership,
    _membership,
    state_delay_P,  # noqa: F401  (part of this module's surface; defined next to the elimination)
)
from .synthesis import ControllerProcess, _steer
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
    return _gramian_oracle(form, N, noise, cap)


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
    if ts.form.D1 is None:
        raise ValueError("system has no delayed input channel")
    return _steer(ts, tree, x0, target, tol)


def input_delay_decide(
    system: SystemSpec | ValidatedSystem | TransformedSystem,
    N_max: int | None = None,
) -> ControllabilityReport:
    """Scan the delayed-input Gramians; a witness proves controllability."""
    ts = TransformedSystem.build(system)
    if ts.form.D1 is None:
        raise ValueError("system has no delayed input channel")
    return _decide(ts, N_max)


# ---------------------------------------------------------------------------
# state delay


def state_delay_gramian_oracle(form: BsdeForm, N: int, noise: NoiseModel, cap: int = DEFAULT_CAP) -> np.ndarray:
    """The delayed-state Gramian by literal enumeration of P(0)C(0)...P(j-1)C(j-1)P(j)D."""
    if form.C1 is None:
        raise DimensionMismatch("form has no delayed state channel C1")
    return _gramian_oracle(form, N, noise, cap)


def member_of_S_state_delay(tree: PathTree, form: BsdeForm, terminal, tol: float = 1e-8) -> SMembership:
    """Attainability test against the delayed homogeneous backward equation (:func:`pathspace.member_of_S`)."""
    if form.C1 is None:
        raise DimensionMismatch("form has no delayed state channel C1")
    return _membership(tree, form, terminal, tol)


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
    if ts.form.C1 is None:
        raise ValueError("system has no delayed state channel")
    return _steer(ts, tree, x0, target, tol)


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
    return _decide(ts, N_max)
