"""Partial controllability of an output y = H x, and the supported
rank-deficient noise-input structure.

Both features reduce to the same machinery as the full-state criteria,
run in a smaller dimension. For an output map H with full row rank the
backward-form coefficients are pushed through H: if matrices X1 with
H X = X1 H exist for X in {C, Cbar} (an intertwining relation), then
(X1 = H X H^+, H D) define an l-dimensional system whose Gramian and
word-span tests decide controllability of the output.

A rank-deficient Bbar is supported only in the block form
[[I_r, 0], [0, 0]] with n = 2r and the matching structure on Abar. The
state is halved: with script-A blocks assembled from A, B, Abar, the
inverse block matrix and its first block row yield r-dimensional
coefficients, and the criteria run in dimension r.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import ControllabilityReport, decide_form
from .errors import DimensionMismatch, NoIntertwiner, SingularBlock, StructureUnsupported
from .model import SystemSpec, ValidatedSystem, validate
from .transform import BsdeForm, TransformedSystem

INTERTWINE_TOL = 1e-8


def intertwine(H: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve H X = X1 H for X1, or raise :class:`NoIntertwiner`.

    A solution exists exactly when the rows of H X lie in the row space of
    H; then X1 = H X H^+ with the right pseudoinverse H^+. The residual
    norm of H X outside that row space is compared to ``INTERTWINE_TOL``
    relative to the norm of H X.
    """
    H = np.asarray(H, dtype=float)
    X = np.asarray(X, dtype=float)
    Hplus = H.T @ np.linalg.inv(H @ H.T)
    X1 = H @ X @ Hplus
    residual = float(np.linalg.norm(H @ X - X1 @ H))
    scale = float(np.linalg.norm(H @ X))
    rel = residual / scale if scale > 0 else 0.0
    if rel > INTERTWINE_TOL:
        raise NoIntertwiner(
            f"H X leaves the row space of H: relative residual {rel:.3e} > {INTERTWINE_TOL}"
        )
    return X1, residual


def output_form(ts: TransformedSystem) -> BsdeForm:
    """Push the backward form through the output map H."""
    H = ts.spec.H
    if H is None:
        raise DimensionMismatch("system has no output map H")
    C1, _ = intertwine(H, ts.form.C)
    Cbar1, _ = intertwine(H, ts.form.Cbar)
    return BsdeForm(C=C1, Cbar=Cbar1, D=H @ ts.form.D)


def partial_decide(
    system: SystemSpec | ValidatedSystem | TransformedSystem,
    N_max: int | None = None,
) -> ControllabilityReport:
    """Decide controllability of the output y = H x.

    Requires the intertwining relations to hold for both C and Cbar;
    otherwise the criterion does not apply and :class:`NoIntertwiner`
    propagates. The report's dimension is the number of output rows.
    """
    system = TransformedSystem.build(system)
    return decide_form(
        output_form(system),
        system.spec.default_horizon if N_max is None else N_max,
        kind="partial",
        transform_source=system.transform.source,
    )


@dataclass(frozen=True, eq=False)
class ReducedForm:
    """Half-dimensional coefficients for the supported rank-deficient Bbar."""

    r: int
    Ablk: np.ndarray  # inverse of the script-A block matrix, n x n
    Bblk: np.ndarray  # n x r
    Dblk: np.ndarray  # n x (m - r)
    A1: np.ndarray  # r x r, intertwiner of Ablk with [I 0]
    B1: np.ndarray  # r x r, first block row of Bblk
    D1: np.ndarray  # r x (m - r), first block row of Dblk

    @property
    def form(self) -> BsdeForm:
        """The r-dimensional backward form the criteria run on."""
        return BsdeForm(C=self.A1, Cbar=self.B1, D=self.D1)


def reduced_form(system: SystemSpec | ValidatedSystem) -> ReducedForm:
    """Assemble the reduced coefficients of a rank-deficient system.

    The structure requirements on Bbar and Abar were already enforced by
    :func:`validate`. Raises :class:`StructureUnsupported` on a full-rank
    system, :class:`SingularBlock` when the script-A block matrix cannot
    be inverted and :class:`NoIntertwiner` when its inverse does not
    respect the [I 0] projection.
    """
    if isinstance(system, SystemSpec):
        system = validate(system)
    if system.full_rank or system.reduced_r is None:
        raise StructureUnsupported("system is full rank; use the standard route")
    spec = system.spec
    r = system.reduced_r
    n = spec.n
    A11, A12 = spec.A[:r, :r], spec.A[:r, r:]
    A21, A22 = spec.A[r:, :r], spec.A[r:, r:]
    Ab11, Ab12 = spec.Abar[:r, :r], spec.Abar[:r, r:]
    B11, B12 = spec.B[:r, :r], spec.B[:r, r:]
    B21, B22 = spec.B[r:, :r], spec.B[r:, r:]

    script = np.block(
        [
            [A11 - B11 @ Ab11, A12 - B11 @ Ab12],
            [A21 - B21 @ Ab11, A22 - B21 @ Ab12],
        ]
    )
    svals = np.linalg.svd(script, compute_uv=False)
    if svals[-1] <= n * np.finfo(float).eps * svals[0] or svals[0] == 0.0:
        raise SingularBlock(
            f"script-A block matrix has min singular value {svals[-1]:.3e}; not invertible"
        )
    Ablk = np.linalg.inv(script)
    Bblk = -Ablk @ np.vstack([B11, B21])
    Dblk = -Ablk @ np.vstack([B12, B22])

    proj = np.hstack([np.eye(r), np.zeros((r, n - r))])
    A1, _ = intertwine(proj, Ablk)
    return ReducedForm(r=r, Ablk=Ablk, Bblk=Bblk, Dblk=Dblk, A1=A1, B1=Bblk[:r, :], D1=Dblk[:r, :])


def reduced_rank_setup(
    system: SystemSpec | ValidatedSystem,
    N_max: int | None = None,
) -> tuple[ReducedForm, ControllabilityReport]:
    """Assemble the reduced coefficients and run the criteria in dimension r."""
    if isinstance(system, SystemSpec):
        system = validate(system)
    reduced = reduced_form(system)
    report = decide_form(
        reduced.form,
        system.spec.default_horizon if N_max is None else N_max,
        kind="reduced",
        transform_source=None,
    )
    return reduced, report
