"""Controllability criteria: steering Gramian and word-span rank test.

Both criteria work on the backward-form coefficients (C, Cbar, D). The
Gramian over horizon N is

    G_N = sum_{i=0}^{N} Lambda^i(D D')     Lambda(X) = C X C' + Cbar X Cbar'

where Lambda is the second-moment operator of the random factor
C + w Cbar; the i-th term equals the expectation of the i-fold product
applied to D D' because the noise is independent across stages with zero
mean and unit variance. It is accumulated in backward-equation form,
G_N = D D' + Lambda(G_{N-1}) from G_{-1} = 0, by
:func:`gramian_sequence`, as one stack of every horizon's Gramian. Each
function here reads the route from the form, which carries any delay
channel with its lag. That recursion, with the channel's delayed-input
term or state-delay pivots added, is the only place a steering Gramian
is built: :func:`gramian` is every route's horizon-N Gramian,
:func:`decide_form` every route's scan (one stacked SVD of the scanned
horizons, with the rank test where no delay channel makes it
inapplicable), and every controller's gains read the sequence. A
delayed input's blocks C^i D1 are formed in one place,
:func:`_input_block`, as C^i by ``matrix_power`` times D1, for the
sequence's term, the pre-horizon terms and the steering law alike.
:func:`gramian_oracle`, every route's independent check, recomputes each
term literally over all noise paths from the products of
:func:`pathspace.path_products`, each level stored as node columns:
level i adds sum_h p_h (Pi_h D)(Pi_h D)' by one weighted Gram matmul
per block of nodes (:func:`pathspace.weighted_gram`), the levels smaller
than a block joined into one, and a delayed input adds the same
Gram of each prefix's mean product, averaged over its continuations
(:func:`pathspace.prefix_means`), times D1. oracle-check accepts the
two Gramians when their Frobenius distance is within its tolerance
times max(1, ||G_N||_F).

The rank test spans {W D : W a word over {C, Cbar}}, the columns of
[D, C D, Cbar D, C^2 D, ...]. Reachability of the whole state space by
some horizon is equivalent to that span being full. :func:`word_span`
computes it as a subspace closure: an orthonormal basis K of range D,
replaced each round by one of range [K, C K, Cbar K], until a round adds
no rank; that is at most n rounds. Every range is cut by the package's
one numerical-rank rule, max(shape) * eps * sigma_max of its own matrix,
as the Gramian's invertibility is, so neither verdict moves with the
state's units.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CriteriaDisagreement, NonFiniteGramian, StochctrlError
from .model import NoiseModel, SystemSpec, ValidatedSystem, _range_basis, _rank_rtol, _singular_values, gramian_invertible
from .pathspace import BLOCK_ENTRIES, DEFAULT_CAP, PathTree, path_products, prefix_means, state_delay_P, weighted_gram
from .transform import BsdeForm, TransformedSystem


# gramian_sequence checks every FINITE_CHECK-th S(j) and stops once it is not finite; a check at
# every horizon made a stable 65,536-horizon scan 15-35% slower (2 vCPU, numpy 2.4).
FINITE_CHECK = 64


def moment_step(C: np.ndarray, Cbar: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Second-moment operator Lambda(X) = C X C' + Cbar X Cbar'."""
    return C @ X @ C.T + Cbar @ X @ Cbar.T


def gramian_sequence(form: BsdeForm, N: int) -> np.ndarray:
    """S(0), ..., S(N) as one (N + 1, n, n) stack: the one place a steering Gramian is accumulated.

    S(j) = P(j) (D D' + E(j) + Lambda(S(j-1))) P(j)' from S(-1) = 0, the
    backward equation's Gramian over its last j + 1 stages. A delayed
    input adds E(j) = C^tau D1 D1' C^tau' for j >= tau, and E(j) = 0
    otherwise. A delayed state pivots by P(j), the pivot at stage N - j of
    :func:`pathspace.state_delay_P` at horizon N; otherwise P(j) = I. The
    lags are the form's. At every ``FINITE_CHECK``-th horizon the
    recursion checks its newest S(j) and stops if it is not finite; the
    stack then ends before the first non-finite S(j), wherever that is: a
    reader that needs horizon j raises :class:`NonFiniteGramian` there
    (:func:`_reaching`). A stack too large to allocate raises
    :class:`StochctrlError`.
    """
    try:
        out = np.empty((N + 1, form.n, form.n))
    except (MemoryError, ValueError):
        raise StochctrlError(f"cannot allocate the Gramians of horizons 0..{N}") from None
    DDt = form.D @ form.D.T
    if form.tau is not None and form.tau <= N:
        CD1 = _input_block(form, form.tau)
        E = CD1 @ CD1.T
    pivots = None if form.C1 is None else state_delay_P(form, N)[::-1]
    S = np.zeros((form.n, form.n))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(N + 1):
            S = DDt + moment_step(form.C, form.Cbar, S)
            if form.tau is not None and j >= form.tau:
                S = S + E
            if pivots is not None:
                S = pivots[j] @ S @ pivots[j].T
            out[j] = S
            if j % FINITE_CHECK == FINITE_CHECK - 1 and not np.isfinite(S).all():
                out = out[: j + 1]
                break
    finite = np.isfinite(out).all(axis=(1, 2))
    return out if finite.all() else out[: int(np.argmin(finite))]


def _reaching(stack: np.ndarray, N: int) -> np.ndarray:
    """``stack`` if it holds horizons 0..N, else :class:`NonFiniteGramian` at the first horizon it lacks."""
    if len(stack) <= N:
        raise NonFiniteGramian(len(stack))
    return stack


def _gramians(form: BsdeForm, N: int) -> np.ndarray:
    """The horizon-j Gramians, j = 0..N, stacked: S(j) of :func:`gramian_sequence`, plus with a
    delayed input its pre-horizon terms C^i D1 D1' C^i', i < min(tau, j + 1). Like the sequence,
    the stack ends before the first non-finite S(j)."""
    G = gramian_sequence(form, N)
    if form.D1 is not None and len(G):
        pre = _pre_horizon_sums(form, min(form.tau, len(G)))
        G[: len(pre)] += pre
        G[len(pre) :] += pre[-1]
    return G


def _pre_horizon_sums(form: BsdeForm, count: int) -> np.ndarray:
    """The partial sums sum_{i <= j} C^i D1 D1' C^i', j < ``count``, stacked: a delayed input's
    pre-horizon terms, accumulated in order i = 0, 1, ..., each block from :func:`_input_block`."""
    pre, out = np.zeros((form.n, form.n)), []
    for i in range(count):
        CD1 = _input_block(form, i)
        pre = pre + CD1 @ CD1.T
        out.append(pre)
    return np.array(out)


def _input_block(form: BsdeForm, i: int) -> np.ndarray:
    """C^i D1, the one place a delayed input's block is formed: ``matrix_power(C, i) @ D1``, which the
    Gramian's terms and the steering law both read."""
    return np.linalg.matrix_power(form.C, i) @ form.D1


def gramian(form: BsdeForm, N: int) -> np.ndarray:
    """Steering Gramian over horizon N on every route, delay channels included."""
    return _reaching(_gramians(form, N), N)[N]


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
    G = np.zeros((form.n, form.n))
    # Levels are held until they make up a block of BLOCK_ENTRIES entries, then joined into one
    # Gram per term: the small levels take one Gram matmul between them, and each larger level is
    # its own block. Only ``held`` refers to a level's prefix means, so they go before the next level.
    held, size = ([], []), 0  # (probs, stack) of the held levels, for the D and the D1 term
    for i, prods in enumerate(path_products(form, tree.support, N)):
        held[0].append((tree.node_probs(i), prods))
        if form.D1 is not None:
            depth = max(0, i - form.tau)
            held[1].append((tree.node_probs(depth), prefix_means(prods, tree.node_probs(i - depth))))
        size += prods.size
        if size >= BLOCK_ENTRIES or i == N:
            G += sum(weighted_gram(*_joined(levels), right) for levels, right in zip(held, (form.D, form.D1)) if levels)
            held, size = ([], []), 0
    return G


def _joined(levels) -> tuple[np.ndarray, np.ndarray]:
    """(probs, stack) pairs of consecutive levels as one pair: the probabilities and the node
    columns concatenated, the stack returned as the transposed view :func:`pathspace.weighted_gram` reads."""
    if len(levels) == 1:
        return levels[0]
    probs = np.concatenate([p for p, _ in levels])
    return probs, np.concatenate([stack.transpose(1, 0, 2) for _, stack in levels], axis=1).transpose(1, 0, 2)


def _pinv(S: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of each n x n matrix of the stack ``S`` in one call, cut where
    :func:`gramian_invertible` cuts: both read the one rank rule, ``model._rank_rtol`` times
    sigma_max of that matrix (n eps, n the matrix size, not the stack length)."""
    return np.linalg.pinv(S, rtol=_rank_rtol(S))


@dataclass(eq=False)
class WordSpanBasis:
    """Size of the span of the columns W D: its rank, and the closure rounds that grew it.

    After r rounds the span is span{W D : |W| <= r}, so ``depth`` is the longest word the
    span needs: the rank stops growing after round ``depth``, or the span is full there.
    """

    rank: int
    depth: int  # closure rounds that added rank


def word_span(form: BsdeForm) -> WordSpanBasis:
    """The closure of range D under left products by C and Cbar, at the one numerical-rank rule.

    K starts as an orthonormal basis of range D; each round replaces it with one of the range
    of [K, C K, Cbar K], both ranges cut by :func:`model._rank_cut` of the matrix they come
    from. The closure stops when a round adds no rank or K spans the state space, so it takes
    at most n rounds. Each cut is relative to its own matrix, and K is orthonormal, so scaling
    D (the state's units) leaves the rank and the depth as they are.
    """
    C, Cbar = form.C, form.Cbar
    K, depth = _range_basis(form.D), 0
    while 0 < K.shape[1] < form.n:
        grown = _range_basis(np.hstack([K, C @ K, Cbar @ K]))
        if grown.shape[1] <= K.shape[1]:
            break
        K, depth = grown, depth + 1
    return WordSpanBasis(rank=K.shape[1], depth=depth)


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
    scan = max(N_max, 2 * dim) if by_rank else N_max
    stack = _gramians(form, scan)
    svals, cuts = _singular_values(stack)  # every horizon's in one stacked SVD
    invertible = svals[:, -1] > cuts
    witness = int(np.argmax(invertible)) if invertible.any() else None
    _reaching(stack, scan if witness is None else max(N_max, witness))  # the horizons the scan reads
    G, rank = stack[N_max], int(np.count_nonzero(svals[N_max] > cuts[N_max]))
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
        min_singular=tuple(float(v) for v in svals[: N_max + 1, -1]),
        gramian=G,
        gramian_rank=rank,
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

    ``N_max`` defaults to 2n (``SystemSpec.default_horizon``), which
    always suffices without a delay channel: if the rank test passes, some
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
        transform_source=ts.source,
    )
