"""Controllability criteria: steering Gramian and word-span rank test.

Both criteria work on the backward-form coefficients (C, Cbar, D). The
Gramian over horizon N is

    G_N = sum_{i=0}^{N} Lambda^i(D D')     Lambda(X) = C X C' + Cbar X Cbar'

where Lambda is the second-moment operator of the random factor
C + w Cbar; the i-th term equals the expectation of the i-fold product
applied to D D' because the noise is independent across stages with zero
mean and unit variance. An independent enumeration oracle recomputes each
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


def _moment_terms(form: BsdeForm):
    """Yield the Gramian's summands Lambda^i(D D') for i = 0, 1, ..."""
    X = form.D @ form.D.T
    while True:
        yield X
        X = moment_step(form.C, form.Cbar, X)


def gramian(form: BsdeForm, N: int) -> np.ndarray:
    """Steering Gramian over horizon N via the moment recursion."""
    return sum(itertools.islice(_moment_terms(form), N + 1), np.zeros((form.n, form.n)))


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


def gramian_invertible(G: np.ndarray, tol: float | None = None) -> tuple[bool, float]:
    """Invertibility decision with a scale-aware threshold.

    Default threshold is dim * eps * sigma_max(G); pass ``tol`` for an
    absolute cutoff. Returns (invertible, min singular value).
    """
    svals = np.linalg.svd(G, compute_uv=False)
    smin = float(svals[-1])
    threshold = tol if tol is not None else G.shape[0] * np.finfo(float).eps * float(svals[0])
    return smin > threshold, smin


@dataclass(eq=False)
class WordSpanBasis:
    """Linearly independent columns W D collected in breadth-first order."""

    basis: np.ndarray  # n x rank, admitted columns in admission order
    words: list[tuple[int, ...]]  # generating word per column, 0 = C, 1 = Cbar
    columns: list[int]  # source column of D per admitted column
    rank: int
    depth: int  # rounds applied before the span closed


def word_span(form: BsdeForm, tol: float | None = None) -> WordSpanBasis:
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
    threshold = tol if tol is not None else max(n, max(1, D.shape[1])) * np.finfo(float).eps * scale

    Q = np.zeros((n, 0))
    basis_cols, words, col_ids = [], [], []

    def admit(col, word, src) -> bool:
        nonlocal Q
        resid = col - Q @ (Q.T @ col)
        resid = resid - Q @ (Q.T @ resid)  # second pass for orthogonality
        norm = np.linalg.norm(resid)
        if norm <= threshold:
            return False
        Q = np.hstack([Q, (resid / norm)[:, None]])
        basis_cols.append(col)
        words.append(word)
        col_ids.append(src)
        return True

    frontier = []
    for j in range(D.shape[1]):
        if admit(D[:, j], (), j):
            frontier.append(((), D[:, j], j))
    depth = 0
    while frontier and len(basis_cols) < n:
        new_frontier = []
        grew = False
        for letter, mat in ((0, C), (1, Cbar)):
            for word, col, src in frontier:
                cand = mat @ col
                if admit(cand, (letter,) + word, src):
                    new_frontier.append((((letter,) + word), cand, src))
                    grew = True
        if not grew:
            break
        depth += 1
        frontier = new_frontier

    basis = np.column_stack(basis_cols) if basis_cols else np.zeros((n, 0))
    return WordSpanBasis(basis=basis, words=words, columns=col_ids, rank=len(basis_cols), depth=depth)


def rank_test_words(max_len: int) -> list[tuple[int, ...]]:
    """Word order used when listing the rank matrix explicitly.

    Per length: the two pure powers first (C^k then Cbar^k), then the mixed
    words in lexicographic order with C before Cbar.
    """
    out: list[tuple[int, ...]] = [()]
    for length in range(1, max_len + 1):
        pure = [(0,) * length, (1,) * length]
        out.extend(pure)
        for word in itertools.product((0, 1), repeat=length):
            if word not in pure:
                out.append(word)
    return out


def word_matrix(C: np.ndarray, Cbar: np.ndarray, D: np.ndarray, max_len: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Stack [W D] for all words up to max_len in :func:`rank_test_words` order."""
    words = rank_test_words(max_len)
    blocks = []
    for word in words:
        block = D
        for letter in reversed(word):
            block = (C if letter == 0 else Cbar) @ block
        blocks.append(block)
    return np.hstack(blocks) if blocks else np.zeros((C.shape[0], 0)), words


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


def _running_sums(terms, dim: int):
    """Yield the partial sums of a sequence of summands, starting from zero."""
    G = np.zeros((dim, dim))
    for term in terms:
        G = G + term
        yield G


def _scan_gramians(gramians, dim: int, N_max: int, rank_tol: float | None):
    """Shared Gramian scan. ``gramians`` yields the horizon-N Gramian for N = 0, 1, ..."""
    G = np.zeros((dim, dim))
    min_sv = []
    witness = None
    for N, G in zip(range(N_max + 1), gramians):
        ok, smin = gramian_invertible(G, rank_tol)
        min_sv.append(smin)
        if ok and witness is None:
            witness = N
    return G, min_sv, witness


def decide_form(
    form: BsdeForm,
    N_max: int,
    rank_tol: float | None = None,
    kind: str = "full",
    transform_source: str | None = None,
) -> ControllabilityReport:
    """Run both criteria on backward-form coefficients and cross-check."""
    dim = form.n
    G, min_sv, witness = _scan_gramians(_running_sums(_moment_terms(form), dim), dim, N_max, rank_tol)
    span = word_span(form)
    by_rank = span.rank == dim
    if witness is None and by_rank:
        # The window may simply be short: a controllable form has an
        # invertible Gramian by N = dim - 1. Look further before calling
        # the two criteria inconsistent; the report keeps the requested
        # window for its figures, only the witness may exceed it.
        _, _, witness = _scan_gramians(
            _running_sums(_moment_terms(form), dim), dim, max(N_max, 2 * dim), rank_tol
        )
    by_gramian = witness is not None
    if by_gramian != by_rank:
        raise CriteriaDisagreement(
            f"Gramian scan says {by_gramian} (witness {witness}) but rank test says "
            f"{by_rank} (rank {span.rank} of {dim}); check conditioning"
        )
    ok, _ = gramian_invertible(G, rank_tol)
    return ControllabilityReport(
        kind=kind,
        dim=dim,
        N_max=N_max,
        controllable=by_gramian,
        witness_N=witness,
        min_singular=tuple(min_sv),
        gramian=G,
        gramian_rank=int(np.linalg.matrix_rank(G)) if G.size else 0,
        rank_R=span.rank,
        span_depth=span.depth,
        criteria_agree=True,
        transform_source=transform_source,
    )


def decide(
    system: SystemSpec | ValidatedSystem | TransformedSystem,
    N_max: int | None = None,
    rank_tol: float | None = None,
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
        rank_tol,
        kind="full",
        transform_source=system.transform.source,
    )
