"""Controllability criteria: steering Gramian and word-span rank test.

Both criteria work on the backward-form coefficients (C, Cbar, D). The
Gramian over horizon N is

    G_N = sum_{i=0}^{N} Lambda^i(D D')     Lambda(X) = C X C' + Cbar X Cbar'

where Lambda is the second-moment operator of the random factor
C + w Cbar; the i-th term equals the expectation of the i-fold product
applied to D D' because the noise is independent across stages with zero
mean and unit variance. It is accumulated in backward-equation form,
G_N = D D' + Lambda(G_{N-1}) from G_{-1} = 0, by
:func:`gramian_sequence`. Each function here reads the route from the
form, which carries any delay channel with its lag. That recursion, with
the channel's delayed-input term or state-delay pivots added, is the
only place a steering Gramian is built: :func:`gramian` is every route's
horizon-N Gramian, :func:`decide_form` every route's scan (with the rank
test where no delay channel makes it inapplicable), and every
controller's gains read the sequence. :func:`gramian_oracle`, every
route's independent check, recomputes each term literally over all noise
paths from the products of :func:`pathspace.path_products`.

The rank test spans {W D : W a word over {C, Cbar}}. Reachability of the
whole state space by some horizon is equivalent to that span being full,
and the span closes after at most n productive rounds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CriteriaDisagreement, NonFiniteGramian
from .model import NoiseModel, SystemSpec, ValidatedSystem
from .pathspace import DEFAULT_CAP, PathTree, path_products, state_delay_P, weighted_gram
from .transform import BsdeForm, TransformedSystem


def moment_step(C: np.ndarray, Cbar: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Second-moment operator Lambda(X) = C X C' + Cbar X Cbar'."""
    return C @ X @ C.T + Cbar @ X @ Cbar.T


def gramian_sequence(form: BsdeForm, N: int):
    """Yield S(0), ..., S(N): the one place a steering Gramian is accumulated.

    S(j) = P(j) (D D' + E(j) + Lambda(S(j-1))) P(j)' from S(-1) = 0, the
    backward equation's Gramian over its last j + 1 stages. A delayed
    input adds E(j) = C^tau D1 D1' C^tau' for j >= tau, and E(j) = 0
    otherwise. A delayed state pivots by P(j), the pivot at stage N - j of
    :func:`pathspace.state_delay_P` at horizon N; otherwise P(j) = I. The
    lags are the form's. A non-finite S(j) raises :class:`NonFiniteGramian`
    at horizon j.
    """
    DDt = form.D @ form.D.T
    if form.tau is not None and form.tau <= N:
        CD1 = np.linalg.matrix_power(form.C, form.tau) @ form.D1
        E = CD1 @ CD1.T
    pivots = None if form.C1 is None else state_delay_P(form, N)[::-1]
    S = np.zeros((form.n, form.n))
    for j in range(N + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            S = DDt + moment_step(form.C, form.Cbar, S)
            if form.tau is not None and j >= form.tau:
                S = S + E
            if pivots is not None:
                S = pivots[j] @ S @ pivots[j].T
        if not np.isfinite(S).all():
            raise NonFiniteGramian(j)
        yield S


def _gramians(form: BsdeForm, N: int):
    """Yield the horizon-j Gramians, j = 0..N: S(j) of :func:`gramian_sequence`,
    plus with a delayed input its pre-horizon terms C^i D1 D1' C^i', i < min(tau, j + 1)."""
    if form.D1 is None:
        yield from gramian_sequence(form, N)
        return
    pre, CD1 = np.zeros((form.n, form.n)), form.D1
    for j, S in enumerate(gramian_sequence(form, N)):
        if j < form.tau:
            pre = pre + CD1 @ CD1.T
            CD1 = form.C @ CD1
        yield S + pre


def gramian(form: BsdeForm, N: int) -> np.ndarray:
    """Steering Gramian over horizon N on every route, delay channels included."""
    *_, G = _gramians(form, N)
    return G


def gramian_oracle(form: BsdeForm, N: int, noise: NoiseModel, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Same Gramian by literal enumeration of every noise path, delay channels included.

    Deliberately avoids the moment recursion: each term averages the
    explicit products (C + w(0) Cbar) ... (C + w(i-1) Cbar) D over all
    paths of the given law, pivots woven in on a delayed state. A delayed
    input adds, over prefixes of depth max(0, i - tau), the squared
    conditional mean of the product over its continuations, times D1.
    """
    return _gramian_oracle(form, N, noise, cap)


def _gramian_oracle(form: BsdeForm, N: int, noise: NoiseModel, cap: int) -> np.ndarray:
    """:func:`gramian_oracle`'s body, which ``delay``'s named oracles call too (a traced name would nest)."""
    tree = PathTree(noise, N, cap)
    n, s = form.n, tree.s
    G = np.zeros((n, n))
    for i, prods in enumerate(path_products(form, tree.support, N)):
        G += weighted_gram(tree.node_probs(i), prods @ form.D)
        if form.D1 is not None:
            depth = max(0, i - form.tau)
            tails = prods.reshape(s**depth, s ** (i - depth), n, n)
            Phi = np.einsum("htab,t->hab", tails, tree.node_probs(i - depth))
            G += weighted_gram(tree.node_probs(depth), Phi @ form.D1)
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


def decide_form(
    form: BsdeForm,
    N_max: int,
    kind: str = "full",
    transform_source: str | None = None,
) -> ControllabilityReport:
    """Scan the Gramians of every route and, without a delay channel, cross-check with the rank test.

    With a delayed input or state only the Gramian's sufficient direction
    is available, so the rank-test fields stay None and a missing witness
    means "not shown".
    """
    dim = form.n
    span = None if form.D1 is not None or form.C1 is not None else word_span(form)
    by_rank = span is not None and span.rank == dim
    # A controllable form has an invertible Gramian by N = dim - 1, so where the rank test
    # says full rank the scan runs past a short window for its witness before calling the
    # two criteria inconsistent; the report keeps the requested window for its figures.
    min_sv, witness = [], None
    for N, S in enumerate(_gramians(form, max(N_max, 2 * dim) if by_rank else N_max)):
        ok, smin = gramian_invertible(S)
        if N <= N_max:
            G = S
            min_sv.append(smin)
        if ok and witness is None:
            witness = N
        if witness is not None and N >= N_max:
            break
    if span is not None and (witness is not None) != by_rank:
        raise CriteriaDisagreement(
            f"Gramian scan says {witness is not None} (witness {witness}) but rank test says "
            f"{by_rank} (rank {span.rank} of {dim}); check conditioning"
        )
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


def decide(
    system: SystemSpec | ValidatedSystem | TransformedSystem,
    N_max: int | None = None,
) -> ControllabilityReport:
    """Full-rank route: transform, then the scan of :func:`decide_form`.

    ``N_max`` defaults to the spec's horizon_max, else 2n, which always
    suffices without a delay channel: if the rank test passes, some
    Gramian with N < n is already invertible. A delayed input or state is
    part of the form, so the report decides the delayed system.
    """
    return _decide(TransformedSystem.build(system), N_max)


def _decide(ts: TransformedSystem, N_max: int | None) -> ControllabilityReport:
    """The body of :func:`decide`, which ``delay``'s entry points share (a traced name would nest)."""
    form = ts.form
    return decide_form(
        form,
        ts.spec.default_horizon if N_max is None else N_max,
        kind="input-delay" if form.D1 is not None else "state-delay" if form.C1 is not None else "full",
        transform_source=ts.transform.source,
    )
