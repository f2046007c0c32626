"""Controllability criteria: steering Gramian and word-span rank test.

Both criteria work on the backward-form coefficients (C, Cbar, D). The
Gramian over horizon N is

    G_N = sum_{i=0}^{N} Lambda^i(D D')     Lambda(X) = C X C' + Cbar X Cbar'

where Lambda is the second-moment operator of the random factor
C + w Cbar; the i-th term equals the expectation of the i-fold product
applied to D D' because the noise is independent across stages with zero
mean and unit variance. It is accumulated in backward-equation form,
G_N = D D' + Lambda(G_{N-1}) from G_{-1} = 0, by
:func:`gramian_sequence`. That recursion, with a delayed-input term and
state-delay pivots added, is the only place any route's steering Gramian
is built: the decisions, the delay routes and every controller's gains
read it. An independent enumeration oracle recomputes each
term literally over all noise paths, with the per-path products taken
from :func:`pathspace.path_products`; the two routes are kept separate so
they can check each other. The CLI's route table (``cli.ROUTES``) pairs
each closed form with its oracle.

The rank test spans {W D : W a word over {C, Cbar}}. Reachability of the
whole state space by some horizon is equivalent to that span being full,
and the span closes after at most n productive rounds.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CriteriaDisagreement
from .model import NoiseModel, SystemSpec, ValidatedSystem
from .pathspace import DEFAULT_CAP, PathTree, path_products, weighted_gram
from .transform import BsdeForm, TransformedSystem


def moment_step(C: np.ndarray, Cbar: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Second-moment operator Lambda(X) = C X C' + Cbar X Cbar'."""
    return C @ X @ C.T + Cbar @ X @ Cbar.T


def gramian_sequence(form: BsdeForm, delayed: int | None = None, pivots=()):
    """Yield S(0), S(1), ...: the one place a steering Gramian is accumulated.

    S(j) = P(j) (D D' + E(j) + Lambda(S(j-1))) P(j)' from S(-1) = 0, the
    backward equation's Gramian over its last j + 1 stages. With
    ``delayed`` = tau the delayed input adds E(j) = C^tau D1 D1' C^tau' for
    j >= tau, and E(j) = 0 otherwise. ``pivots`` lists the state-delay
    pivots of one horizon N by j, P(j) being the pivot at stage N - j; the
    sequence ends with them. Without pivots P(j) = I and it never ends.
    """
    DDt = form.D @ form.D.T
    if delayed is not None:
        CD1 = np.linalg.matrix_power(form.C, delayed) @ form.D1
        E = CD1 @ CD1.T
    S = np.zeros((form.n, form.n))
    for j, P in enumerate(pivots or itertools.repeat(None)):
        S = DDt + moment_step(form.C, form.Cbar, S)
        if delayed is not None and j >= delayed:
            S = S + E
        if P is not None:
            S = P @ S @ P.T
        yield S


def gramian(form: BsdeForm, N: int) -> np.ndarray:
    """Steering Gramian over horizon N: S(N) of :func:`gramian_sequence`."""
    return next(itertools.islice(gramian_sequence(form), N, None))


def gramian_oracle(form: BsdeForm, N: int, noise: NoiseModel, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Same Gramian by literal enumeration of every noise path.

    Deliberately avoids the moment recursion: each term averages the
    explicit products (C + w(0) Cbar) ... (C + w(i-1) Cbar) D over all
    paths of the given law. Used as an independent check.
    """
    tree = PathTree(noise, N, cap)
    G = np.zeros((form.n, form.n))
    for i, prods in enumerate(path_products(form, tree.support, N)):
        G += weighted_gram(tree.node_probs(i), prods @ form.D)
    return G


def gramian_invertible(G: np.ndarray) -> tuple[bool, float]:
    """Invertibility decision at the scale-aware threshold dim * eps * sigma_max(G).

    Returns (invertible, min singular value).
    """
    svals = np.linalg.svd(G, compute_uv=False)
    smin = float(svals[-1])
    return smin > G.shape[0] * np.finfo(float).eps * float(svals[0]), smin


@dataclass(eq=False)
class WordSpanBasis:
    """Linearly independent columns W D collected in breadth-first order."""

    basis: np.ndarray  # n x rank, admitted columns in admission order
    rank: int
    depth: int  # rounds applied before the span closed


def word_span(form: BsdeForm) -> WordSpanBasis:
    """Breadth-first closure of span{W D} under left products by C and Cbar.

    Columns are admitted in word-length order, C before Cbar, and within a
    block in source-column order, so results are reproducible. Stops after
    one full round adds nothing; the depth never needs to exceed n.
    """
    n = form.n
    C, Cbar, D = form.C, form.Cbar, form.D
    scale = max(
        np.linalg.norm(C, 2) if n else 0.0,
        np.linalg.norm(Cbar, 2) if n else 0.0,
        1.0,
    ) * max(1.0, np.linalg.norm(D, 2) if D.size else 0.0)
    threshold = max(n, max(1, D.shape[1])) * np.finfo(float).eps * scale

    Q = np.zeros((n, 0))
    basis_cols = []

    def admit(col) -> bool:
        nonlocal Q
        resid = col - Q @ (Q.T @ col)
        resid = resid - Q @ (Q.T @ resid)  # second pass for orthogonality
        norm = np.linalg.norm(resid)
        if norm <= threshold:
            return False
        Q = np.hstack([Q, (resid / norm)[:, None]])
        basis_cols.append(col)
        return True

    frontier = [D[:, j] for j in range(D.shape[1]) if admit(D[:, j])]
    depth = 0
    while frontier and len(basis_cols) < n:
        new_frontier = []
        grew = False
        for mat in (C, Cbar):
            for col in frontier:
                cand = mat @ col
                if admit(cand):
                    new_frontier.append(cand)
                    grew = True
        if not grew:
            break
        depth += 1
        frontier = new_frontier

    basis = np.column_stack(basis_cols) if basis_cols else np.zeros((n, 0))
    return WordSpanBasis(basis=basis, rank=len(basis_cols), depth=depth)


@dataclass(eq=False)
class ControllabilityReport:
    """Joint outcome of the Gramian scan and the rank test.

    ``min_singular`` lists the Gramian's smallest singular value for each
    horizon 0..N_max; ``witness_N`` is the first invertible horizon or
    None. For the delay variants the rank-test fields are None and only
    the Gramian scan (a sufficient condition there) is reported.
    """

    kind: str
    dim: int
    N_max: int
    controllable: bool
    witness_N: int | None
    min_singular: tuple[float, ...]
    gramian: np.ndarray
    gramian_rank: int
    rank_R: int | None
    span_depth: int | None
    criteria_agree: bool | None
    transform_source: str | None = None


def _scan_gramians(kind, gramians, dim: int, N_max: int, transform_source=None, span=None) -> ControllabilityReport:
    """Report on the horizon-N Gramians ``gramians`` yields for N = 0..N_max.

    ``span`` is the rank test's outcome where it applies; without it the
    rank-test fields stay None.
    """
    G = np.zeros((dim, dim))
    min_sv = []
    witness = None
    for N, G in zip(range(N_max + 1), gramians):
        ok, smin = gramian_invertible(G)
        min_sv.append(smin)
        if ok and witness is None:
            witness = N
    return ControllabilityReport(
        kind=kind,
        dim=dim,
        N_max=N_max,
        controllable=witness is not None,
        witness_N=witness,
        min_singular=tuple(min_sv),
        gramian=G,
        gramian_rank=int(np.linalg.matrix_rank(G)) if G.size else 0,
        rank_R=None if span is None else span.rank,
        span_depth=None if span is None else span.depth,
        criteria_agree=None if span is None else True,
        transform_source=transform_source,
    )


def decide_form(
    form: BsdeForm,
    N_max: int,
    kind: str = "full",
    transform_source: str | None = None,
) -> ControllabilityReport:
    """Run both criteria on backward-form coefficients and cross-check."""
    dim = form.n
    span = word_span(form)
    report = _scan_gramians(kind, gramian_sequence(form), dim, N_max, transform_source, span)
    by_rank = span.rank == dim
    if report.witness_N is None and by_rank:
        # The window may simply be short: a controllable form has an
        # invertible Gramian by N = dim - 1. Look further before calling
        # the two criteria inconsistent; the report keeps the requested
        # window for its figures, only the witness may exceed it.
        report.witness_N = _scan_gramians(kind, gramian_sequence(form), dim, max(N_max, 2 * dim)).witness_N
        report.controllable = report.witness_N is not None
    if report.controllable != by_rank:
        raise CriteriaDisagreement(
            f"Gramian scan says {report.controllable} (witness {report.witness_N}) but rank test says "
            f"{by_rank} (rank {span.rank} of {dim}); check conditioning"
        )
    return report


def decide(
    system: SystemSpec | ValidatedSystem | TransformedSystem,
    N_max: int | None = None,
) -> ControllabilityReport:
    """Full-rank route: transform, then Gramian scan plus rank test.

    ``N_max`` defaults to the spec's horizon_max, else 2n, which always
    suffices: if the rank test passes, some Gramian with N < n is already
    invertible.
    """
    system = TransformedSystem.build(system)
    return decide_form(
        system.form,
        system.spec.default_horizon if N_max is None else N_max,
        kind="full",
        transform_source=system.transform.source,
    )
