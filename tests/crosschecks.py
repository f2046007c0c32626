"""Test-only cross-checks: literal constructions the package's closed forms are checked against.

``rank_test_words`` and ``word_matrix`` list the rank criterion's matrix
[W D] word by word, against which ``criteria.word_span``'s breadth-first
closure is checked. ``q_expanded`` evaluates the absorbed input q as an
expanded tail sum on the tree, against the feedback law's q.
"""
import itertools

import numpy as np

from stochctrl import AdaptedProcess, PathTree, TransformedSystem, backward_solve


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


def q_expanded(ts: TransformedSystem, tree: PathTree, v: AdaptedProcess) -> AdaptedProcess:
    """Absorbed input via the expanded tail sum instead of the solved pair.

    Evaluates q(k) = E[w(k) sum_{i>k} C(k+1)...C(i-1) D v(i) | stage k-1]
    - Abar x(k) literally on the tree. Exists as a cross-check of the
    primary construction; the two must agree to rounding.
    """
    form, spec = ts.form, ts.spec
    n, N, s = form.n, tree.horizon, tree.s
    cmats = form.stage_factors(tree.support)
    sol = backward_solve(tree, form, None, v)
    full = tree.n_nodes(N)

    def stage_digit(t):
        return (np.arange(full) // s ** (N - 1 - t)) % s

    # psi(j) = D v(j) + C(j) psi(j+1), evaluated at full depth N
    psi = {N + 1: np.zeros((full, n))}
    for j in range(N, 0, -1):
        vj = tree.lift(v.at_depth(j, j), j, N) @ form.D.T
        if j <= N - 1:
            rotated = np.einsum("hab,hb->ha", cmats[stage_digit(j)], psi[j + 1])
        else:
            rotated = np.zeros((full, n))
        psi[j] = vj + rotated

    out_vals, out_depths = {}, {}
    for k in range(N + 1):
        if k == N:
            q_free = np.zeros((tree.n_nodes(N), n))
        else:
            weighted = psi[k + 1] * tree.support[stage_digit(k)][:, None]
            q_free = tree.cond_expect_array(weighted, N, k)
        out_vals[k] = q_free - sol.x.at(k) @ spec.Abar.T
        out_depths[k] = k
    return AdaptedProcess(tree, out_vals, out_depths)
