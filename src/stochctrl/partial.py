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
inverse block matrix and its first block row yield an r-dimensional
:class:`BsdeForm`, and the criteria run on it as on every other route.
"""
from __future__ import annotations

import numpy as np

from .criteria import ControllabilityReport, decide_form
from .errors import DimensionMismatch, NoIntertwiner, SingularBlock, StructureUnsupported
from .model import SystemSpec, ValidatedSystem, gramian_invertible, validate
from .transform import BsdeForm, TransformedSystem

INTERTWINE_TOL = 1e-8


def intertwine(H: np.ndarray, X: np.ndarray) -> np.ndarray:
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
    return X1


def output_form(ts: TransformedSystem) -> BsdeForm:
    """Push the backward form through the output map H."""
    H = ts.spec.H
    if H is None:
        raise DimensionMismatch("system has no output map H")
    return BsdeForm(C=intertwine(H, ts.form.C), Cbar=intertwine(H, ts.form.Cbar), D=H @ ts.form.D)


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
        transform_source=system.source,
    )


def reduced_form(system: SystemSpec | ValidatedSystem) -> BsdeForm:
    """The r-dimensional backward form of a rank-deficient system.

    With Ablk the inverse of the script-A block matrix, C intertwines Ablk
    with the projection [I 0], and Cbar and D are the first r rows of
    -Ablk [B11; B21] and -Ablk [B12; B22], B's first r and last m - r
    columns. The structure requirements on Bbar and Abar were already
    enforced by :func:`validate`. Raises :class:`StructureUnsupported` on
    a full-rank system, :class:`SingularBlock` when the script-A block
    matrix is singular by :func:`model.gramian_invertible` and
    :class:`NoIntertwiner` when its inverse does not respect the [I 0]
    projection.
    """
    if isinstance(system, SystemSpec):
        system = validate(system)
    if system.full_rank:
        raise StructureUnsupported("system is full rank; use the standard route")
    spec, r = system.spec, system.rank_Bbar
    A11, A12 = spec.A[:r, :r], spec.A[:r, r:]
    A21, A22 = spec.A[r:, :r], spec.A[r:, r:]
    Ab11, Ab12 = spec.Abar[:r, :r], spec.Abar[:r, r:]
    B11, B21 = spec.B[:r, :r], spec.B[r:, :r]

    script = np.block(
        [
            [A11 - B11 @ Ab11, A12 - B11 @ Ab12],
            [A21 - B21 @ Ab11, A22 - B21 @ Ab12],
        ]
    )
    invertible, smin = gramian_invertible(script)
    if not invertible:
        raise SingularBlock(
            f"script-A block matrix has min singular value {smin:.3e}; not invertible"
        )
    Ablk = np.linalg.inv(script)
    return BsdeForm(
        C=intertwine(np.eye(r, spec.n), Ablk), Cbar=(-Ablk @ spec.B[:, :r])[:r], D=(-Ablk @ spec.B[:, r:])[:r]
    )


def reduced_rank_setup(
    system: SystemSpec | ValidatedSystem,
    N_max: int | None = None,
) -> ControllabilityReport:
    """Run the criteria on the reduced form, in dimension r."""
    spec = system.spec if isinstance(system, ValidatedSystem) else system
    return decide_form(
        reduced_form(system),
        spec.default_horizon if N_max is None else N_max,
        kind="reduced",
        transform_source=None,
    )
