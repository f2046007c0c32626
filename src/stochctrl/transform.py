"""Input reorganization and the backward (adjoint-style) form of the plant.

With rank(Bbar) = n we pick an invertible M such that Bbar M = [I 0] and
write u = M [q; v]. The q block enters the noise directly; the v block is
the genuinely free input. Substituting and inverting the drift pencil
A - L Abar yields the backward-form coefficients

    C    = (A - L Abar)^-1
    Cbar = -C L
    D    = -C F

where B M = [L F]. A state value then satisfies
x(k) = E[(C + w(k) Cbar) x(k+1) | past] + D v(k), which is the equation the
rest of the package analyzes. Delay channels transform alongside:
D1 = -C B1 and C1 = -C A1, and the form keeps each one's lag (tau with
D1, d with C1), so every Gramian, scan, solve and oracle reads the lag
from the form it is given.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadUserM, RankDeficient, SchemaError, SingularPencil
from .model import (RCOND_CUT, SystemSpec, ValidatedSystem, _integer, _singular_values, gramian_invertible,
                    rcond_invertible, validate)

USER_M_TOL = 1e-10


def compute_M(bbar: np.ndarray, user_m: np.ndarray | None = None) -> np.ndarray:
    """Return an invertible M with Bbar M = [I 0].

    Without ``user_m`` the matrix is built by column-pivoted elimination
    (largest absolute entry in the working row), which is deterministic.
    A supplied ``user_m`` must be invertible by
    :func:`model.gramian_invertible` and satisfy the defining identity;
    otherwise it is rejected with :class:`BadUserM`.
    """
    bbar = np.asarray(bbar, dtype=float)
    n, m = bbar.shape
    if m < n:
        raise RankDeficient(f"Bbar is {n} x {m}; full row rank needs m >= n")
    if user_m is not None:
        user_m = np.asarray(user_m, dtype=float)
        if user_m.shape != (m, m):
            raise BadUserM(f"M must be {m} x {m}, got {user_m.shape}")
        if not gramian_invertible(user_m)[0]:
            raise BadUserM("M is numerically singular")
        want = np.hstack([np.eye(n), np.zeros((n, m - n))])
        gap = float(np.abs(bbar @ user_m - want).max())
        if gap > USER_M_TOL:
            raise BadUserM(f"Bbar M differs from [I 0] by {gap:.3e} (tolerance {USER_M_TOL})")
        return user_m.copy()
    return _constructed_M(bbar, _singular_values(bbar)[1])


def _constructed_M(bbar: np.ndarray, pivot_tol: float) -> np.ndarray:
    """:func:`compute_M`'s elimination, given Bbar's numerical-rank cut ``pivot_tol`` (``model._rank_cut``)."""
    n, m = bbar.shape
    # Columns as lists of Python floats: the same IEEE operations in the same order as whole-column
    # numpy updates, without a numpy call per column. max keeps the first largest, as np.argmax does.
    T, M = bbar.T.tolist(), [[float(i == j) for j in range(m)] for i in range(m)]
    for i in range(n):
        j = max(range(i, m), key=lambda c: abs(T[c][i]))
        if abs(T[j][i]) <= pivot_tol:
            raise RankDeficient(f"Bbar row {i} has no usable pivot; rank(Bbar) < {n}")
        T[i], T[j], M[i], M[j] = T[j], T[i], M[j], M[i]
        piv = T[i][i]
        T[i] = [t / piv for t in T[i]]
        M[i] = [t / piv for t in M[i]]
        for c in range(m):
            if c != i and T[c][i] != 0.0:
                f = T[c][i]
                T[c] = [t - f * ti for t, ti in zip(T[c], T[i])]
                M[c] = [t - f * ti for t, ti in zip(M[c], M[i])]
    return np.array(list(zip(*M)))


@dataclass(frozen=True, eq=False)
class BsdeForm:
    """Coefficients of the backward form, plus transformed delay channels and their lags.

    The delayed input D1 u1(k - tau) and the delayed state C1 x(k - d) each
    come with their lag; a channel without its lag, a lag without its
    channel and a lag below 1 raise :class:`SchemaError`.
    """

    C: np.ndarray
    Cbar: np.ndarray
    D: np.ndarray
    D1: np.ndarray | None = None
    C1: np.ndarray | None = None
    tau: int | None = None
    d: int | None = None

    def __post_init__(self):
        for channel, name, lag, lag_name in ((self.D1, "D1", self.tau, "tau"), (self.C1, "C1", self.d, "d")):
            if (channel is None) != (lag is None):
                raise SchemaError(f"{name} and {lag_name} must be given together")
            if lag is not None:
                _integer(lag_name, lag, 1)

    @property
    def n(self) -> int:
        return self.C.shape[0]

    @property
    def m_free(self) -> int:
        return self.D.shape[1]

    def stage_factors(self, support) -> np.ndarray:
        """The random factor C + w Cbar at each support point, shape (s, n, n)."""
        return np.stack([self.C + w * self.Cbar for w in support])


def to_bsde(spec: SystemSpec, M: np.ndarray) -> BsdeForm:
    """Split B M = [L F], invert the drift pencil A - L Abar and assemble the backward form.

    Raises :class:`SingularPencil` when the pencil is singular by
    :func:`model.rcond_invertible`, a pencil holding inf or NaN included.
    """
    BM = spec.B @ M
    L, F = BM[:, : spec.n], BM[:, spec.n :]
    S = spec.A - L @ spec.Abar
    ok, rcond = rcond_invertible(S)
    if not ok:
        raise SingularPencil(f"A - L Abar has reciprocal condition number {rcond:.3e} (needs > {RCOND_CUT})")
    C = np.linalg.inv(S)
    negC = -C
    C1 = None
    if spec.A1 is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite C1 makes a P-bracket singular (state_delay_P)
            C1 = negC @ spec.A1
    return BsdeForm(
        C=C,
        Cbar=negC @ L,
        D=negC @ F,
        D1=None if spec.B1 is None else negC @ spec.B1,
        C1=C1,
        tau=spec.tau,
        d=spec.d,
    )


@dataclass(frozen=True, eq=False)
class TransformedSystem:
    """Validated system bundled with its input reorganization u = M [q; v] and backward form.

    ``source`` says where M came from: "user" (the instance's M, checked by
    :func:`compute_M`) or "constructed".
    """

    system: ValidatedSystem
    M: np.ndarray
    source: str
    form: BsdeForm

    @classmethod
    def build(cls, system: SystemSpec | ValidatedSystem | TransformedSystem) -> "TransformedSystem":
        """Validate if needed and transform; an already built system is returned as is."""
        if isinstance(system, cls):
            return system
        if isinstance(system, SystemSpec):
            system = validate(system)
        if not system.full_rank:
            raise RankDeficient(
                "standard transform requires rank(Bbar) = n; use the reduced-rank route"
            )
        spec = system.spec
        # The pivot cut is validate's, from the one SVD of Bbar a command makes.
        M = compute_M(spec.Bbar, spec.M) if spec.M is not None else _constructed_M(spec.Bbar, system.cut_Bbar)
        return cls(system, M, "user" if spec.M is not None else "constructed", to_bsde(spec, M))

    @property
    def spec(self) -> SystemSpec:
        return self.system.spec
