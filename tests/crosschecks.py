"""Test-only cross-checks: literal constructions the package's closed forms are checked against.

``rank_test_words`` and ``word_matrix`` list the rank criterion's matrix
[W D] word by word, against which ``criteria.word_span``'s subspace
closure is checked. ``q_expanded`` evaluates the absorbed input q as an
expanded tail sum on the tree, against the feedback law's q, which
``split_u`` reads off u = M [q; v]; ``cond_expect`` averages out trailing
stages of a level. ``lift`` and ``node_value`` copy a level onto finer
depths or read one history's value, which the package never does: the
literal references below use them on purpose. Each takes a level and its
depth, stage k's level being at depth max(0, k).
``tree_rank_controllable`` decides exact controllability from the plant
itself, by the rank of the map from adapted inputs to terminal leaves.
``dense_state_delay_gains`` is the state-delay elimination that keeps
all d lag gains Q_j(k) at every stage, against which the package's
banded gains are checked. ``broadcast_plant_step``, ``einsum_stage_mean``,
``einsum_z`` and ``einsum_representation_residual`` are the tree kernels
written as broadcasts and einsums over each node's s children, against
which ``pathspace``'s per-atom matmuls are checked.
``kron_representation_residual`` is the residual as first written, each
level's mean and z spread over the children by products with 0/1 and
w_j blocks, whose membership verdicts ``pathspace.representation_residual``'s
projection must repeat. ``exact_representation_residual`` is the same
residual in ``fractions.Fraction``, from the solution's float levels and
the law's float atoms, against which the projection's rounding is bounded.
``reference_feedback_loop``
is the closed loop as first written, against which ``synthesis.feedback_loop``
is checked: it lifts every lag to depth k, stacks the regressor r(k) for
one matmul with L_k', stores every u(k), and steps through
``lifting_plant_step``, the plant step that lifts u1 and x(k - d) to depth
k before its matmuls. ``reference_offsets`` builds a target law's offsets per node from the gains
before the predictor map, as the steering body first did, against which
``synthesis.target_offsets``' build from L and the target's solution is
checked. ``folded_step`` is one stage of ``synthesis._walk`` into fresh
arrays, and ``breadth_first_folded_loop`` the folded closed loop run so
level by level over the whole tree, against which
``synthesis.folded_loop``'s runs of leaves are checked; with
``offsets``, as the folded step was first written, it adds every c_k, a
row of zeros included, against which the step's skip of a zero offset is
checked. ``loop_levels``
collects ``synthesis.feedback_loop``'s stages into every level of u, x and
u1, as the tests read them; ``controller_levels`` does so for a
controller's own law and start. ``einsum_children``,
``einsum_weighted_gram``, ``einsum_prefix_means``,
``einsum_terminal_product`` and ``kron_node_probs`` are the enumeration
oracle's kernels in the same einsum and Kronecker forms.
``reference_serialize_instance`` writes an instance with no encoder of
its own: ``json.dumps(doc, indent=2)`` around a placeholder constant
target, replaced by its numbers' ``float.__repr__`` joined by ", ", or
around leaf rows packed by ``struct`` and written as ``bytes.hex``, against
which ``model.serialize_instance``'s one-line target is checked byte for
byte.
"""
import itertools
import json
import struct
from fractions import Fraction

import numpy as np

from stochctrl import (
    PathTree,
    ProblemInstance,
    SingularPBracket,
    StageMismatch,
    SystemSpec,
    TransformedSystem,
    backward_solve,
    feedback_loop,
    forward_simulate,
    z_level,
)
from stochctrl.model import RCOND_CUT
from stochctrl.pathspace import _acting_lags, _add_product, _state_delay_gains, plant_maps
from stochctrl.synthesis import _plan_entry, _stage_maps, _start_values, _walk


def reconstruct_u(ts: TransformedSystem, q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u = M [q; v]; accepts single vectors or row-stacked batches."""
    single = np.asarray(q).ndim == 1
    q = np.atleast_2d(np.asarray(q, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    u = np.hstack([q, v]) @ ts.M.T
    return u[0] if single else u


def split_u(ts: TransformedSystem, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`reconstruct_u`."""
    single = np.asarray(u).ndim == 1
    u = np.atleast_2d(np.asarray(u, dtype=float))
    qv = u @ np.linalg.inv(ts.M).T
    n = ts.spec.n
    q, v = qv[:, :n], qv[:, n:]
    return (q[0], v[0]) if single else (q, v)


def lift(tree: PathTree, values: np.ndarray, from_depth: int, to_depth: int) -> np.ndarray:
    """Replicate depth-``from_depth`` node values onto every descendant at ``to_depth``."""
    if to_depth < from_depth:
        raise StageMismatch(f"cannot lift from depth {from_depth} to coarser depth {to_depth}")
    return np.repeat(values, tree.s ** (to_depth - from_depth), axis=0)


def node_value(tree: PathTree, values: np.ndarray, depth: int, history) -> np.ndarray:
    """A depth-``depth`` level's value at a history (support indices) of any length >= ``depth``."""
    if len(history) < depth:
        raise StageMismatch(f"a depth-{depth} level needs a history of length >= {depth}, got {len(history)}")
    idx = 0
    for i in history[:depth]:
        idx = idx * tree.s + int(i)
    return values[idx]


def cond_expect(tree: PathTree, values: np.ndarray, from_depth: int, to_depth: int) -> np.ndarray:
    """Average out the trailing from_depth - to_depth stages of depth-``from_depth`` node values."""
    if to_depth > from_depth:
        raise StageMismatch(f"conditioning depth {to_depth} exceeds value depth {from_depth}")
    if to_depth == from_depth:
        return values.copy()
    tail = tree.node_probs(from_depth - to_depth)
    shaped = values.reshape(tree.s**to_depth, len(tail), -1)
    return np.einsum("hsd,s->hd", shaped, tail)


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


def q_expanded(ts: TransformedSystem, tree: PathTree, v: dict) -> dict:
    """Absorbed input via the expanded tail sum instead of the solved pair.

    Evaluates q(k) = E[w(k) sum_{i>k} C(k+1)...C(i-1) D v(i) | stage k-1]
    - Abar x(k) literally on the tree. Exists as a cross-check of the
    primary construction; the two must agree to rounding.
    """
    form, spec = ts.form, ts.spec
    n, N, s = form.n, tree.horizon, tree.s
    cmats = form.stage_factors(tree.support)
    x = backward_solve(tree, form, None, v)
    full = tree.n_nodes(N)

    def stage_digit(t):
        return (np.arange(full) // s ** (N - 1 - t)) % s

    # psi(j) = D v(j) + C(j) psi(j+1), evaluated at full depth N
    psi = {N + 1: np.zeros((full, n))}
    for j in range(N, 0, -1):
        vj = lift(tree, v[j], j, N) @ form.D.T
        if j <= N - 1:
            rotated = np.einsum("hab,hb->ha", cmats[stage_digit(j)], psi[j + 1])
        else:
            rotated = np.zeros((full, n))
        psi[j] = vj + rotated

    out = {}
    for k in range(N + 1):
        if k == N:
            q_free = np.zeros((tree.n_nodes(N), n))
        else:
            weighted = psi[k + 1] * tree.support[stage_digit(k)][:, None]
            q_free = cond_expect(tree, weighted, N, k)
        out[k] = q_free - x[k] @ spec.Abar.T
    return out


def tree_rank_controllable(spec: SystemSpec, N: int) -> tuple[bool, float]:
    """Whether every leaf array x(N+1) is reached from x0 = 0, and by what margin.

    Builds the map from adapted inputs (u(k) at depth k, k = 0..N) to the
    leaves x(N+1) column by column, running :func:`forward_simulate` on
    each unit input, and tests it for full row rank n s^(N+1) at numpy's
    rank threshold max(shape) eps sigma_max. The margin is the deciding
    singular value over that threshold (> 1 exactly when the rank is
    full). On two-point noise every leaf array is attainable, so full rank
    is exact controllability.
    """
    tree = PathTree(spec.noise, N)
    zero = {k: np.zeros((tree.n_nodes(k), spec.m)) for k in range(N + 1)}
    columns = []
    for k in range(N + 1):
        for entry in range(tree.n_nodes(k) * spec.m):
            unit = np.zeros(tree.n_nodes(k) * spec.m)
            unit[entry] = 1.0
            u = {**zero, k: unit.reshape(-1, spec.m)}
            columns.append(forward_simulate(tree, spec, np.zeros(spec.n), u)[N + 1].ravel())
    T = np.column_stack(columns)
    rows = T.shape[0]
    svals = np.linalg.svd(T, compute_uv=False)
    threshold = max(T.shape) * np.finfo(float).eps * svals[0]
    deciding = svals[rows - 1] if len(svals) >= rows else 0.0
    return bool(deciding > threshold), float(deciding / threshold)


def dense_state_delay_gains(form, N: int):
    """Pivots P(k) and every lag gain Q_j(k), j = 1..d, as ``Q[k][j - 1]`` for k = 0..N+1.

    The recursion of ``pathspace._state_delay_gains`` run over all d lags at
    every stage: Q(N+1) = 0, Q_j(k) = P(k) C Q_{j+1}(k+1) for j < d and
    Q_d(k) = P(k) C1.
    """
    n, d = form.n, form.d
    P = [np.eye(n)] * (N + 1)
    Q = [[np.zeros((n, n))] * d] * (N + 2)
    for k in range(N, -1, -1):
        if k + d <= N:
            bracket = np.eye(n)
            for j in range(k + 1, k + d + 1):
                bracket = bracket @ form.C @ P[j]
            bracket = np.eye(n) - bracket @ form.C1
            svals = np.linalg.svd(bracket, compute_uv=False)
            if svals[0] == 0.0 or svals[-1] / svals[0] <= RCOND_CUT:
                raise SingularPBracket(k)
            P[k] = np.linalg.inv(bracket)
        PC = P[k] @ form.C
        Q[k] = [PC @ Qj for Qj in Q[k + 1][1:]] + [P[k] @ form.C1]
    return P, Q


def broadcast_plant_step(tree: PathTree, spec: SystemSpec, xs: dict, k: int, uk, u1k=None) -> np.ndarray:
    """``pathspace.plant_step`` as drift + w diffusion, broadcast over the s children of every node."""
    xk = xs[k]
    drift = xk @ spec.A.T + uk @ spec.B.T
    if u1k is not None:
        drift = drift + u1k @ spec.B1.T
    if spec.A1 is not None and k - spec.d >= 0:
        xkd = lift(tree, xs[k - spec.d], k - spec.d, k)
        drift = drift + xkd @ spec.A1.T
    diffusion = xk @ spec.Abar.T + uk @ spec.Bbar.T
    step = drift[:, None, :] + tree.support[None, :, None] * diffusion[:, None, :]
    return step.reshape(-1, spec.n)


def lifting_plant_step(tree: PathTree, spec: SystemSpec, xs: dict, k: int, uk, u1k=None) -> np.ndarray:
    """``pathspace.plant_step`` with u1(k - tau) given at depth k and x(k - d) lifted to depth k."""
    out = xs[k] @ np.hstack([(spec.A + w * spec.Abar).T for w in tree.support])
    out += uk @ np.hstack([(spec.B + w * spec.Bbar).T for w in tree.support])
    if u1k is not None:
        out += u1k @ np.tile(spec.B1.T, tree.s)
    if spec.A1 is not None and k - spec.d >= 0:
        out += lift(tree, xs[k - spec.d], k - spec.d, k) @ np.tile(spec.A1.T, tree.s)
    return out.reshape(-1, spec.n)


def lifted_regressor(tree: PathTree, spec: SystemSpec, N: int, k: int, xs: dict, u1s: dict) -> np.ndarray:
    """r(k) at depth k: x(k), then each acting lag x(k-j) and u1(k-i) lifted to depth k, side by side."""
    xlags, ulags = _acting_lags(N, k, spec.d or 0, spec.tau or 0)
    lags = [(xs, k - j) for j in xlags] + [(u1s, k - i) for i in ulags]
    if not lags:
        return xs[k]
    return np.hstack([xs[k], *(lift(tree, vals[j], max(0, j), k) for vals, j in lags)])


def reference_feedback_loop(tree: PathTree, spec: SystemSpec, x0, law):
    """[u(k), u1(k)] = r(k) L_k' + c_k with r(k) from :func:`lifted_regressor`, stepped by
    :func:`lifting_plant_step`; returns u, x and u1 (None without a delayed input) like
    ``synthesis.feedback_loop``, every u(k) stored."""
    m, N, tau = spec.m, len(law.L) - 1, spec.tau if spec.B1 is not None else 0
    xs, u_vals = {0: np.asarray(x0, dtype=float)[None, :].copy()}, {}
    u1s = {i - tau: law.u1_pre[i : i + 1] for i in range(len(law.u1_pre))} if tau else {}
    for k, Lk in enumerate(law.L):
        v = lifted_regressor(tree, spec, N, k, xs, u1s) @ Lk.T + law.c[k]
        u_vals[k] = np.ascontiguousarray(v[:, :m]) if tau else v
        if tau and k <= N - tau:
            u1s[k] = np.ascontiguousarray(v[:, m:])
        u1k = lift(tree, u1s[k - tau], max(0, k - tau), k) if tau else None
        xs[k + 1] = lifting_plant_step(tree, spec, xs, k, u_vals[k], u1k)
    return u_vals, xs, u1s if tau else None


def reference_offsets(ts: TransformedSystem, tree: PathTree, law, hom: dict) -> list[np.ndarray]:
    """A target law's offsets built per node from its gains before the predictor map, as the steering body
    first built them: c_k = [z_h(k) M_q', 0] - (r_h(k) Pi_k') K_k'. r_h(k) Pi_k' is x_h(k) plus each acting
    state lag's x_h(k-j) (-Q_j(k))', multiplied at the lag's own depth (the target's u1 is zero), and K_k is
    L_k's first n columns plus [M_q Abar; 0], as Pi_k's first block is I. ``hom`` is the target's x_h levels,
    and z_h(k) is ``pathspace.z_level`` of x_h(k+1)."""
    spec, n, m, N = ts.spec, ts.spec.n, ts.spec.m, len(law.L) - 1
    Q = _state_delay_gains(ts.form, N)[1] if ts.form.C1 is not None else [{}] * (N + 1)
    Mq = ts.M[:, :n]
    c = []
    for k, Lk in enumerate(law.L):
        K = Lk[:, :n].copy()
        K[:m] += Mq @ spec.Abar
        p = hom[k].copy()
        for j, Qj in Q[k].items():
            _add_product(p, hom[k - j], -Qj.T)
        c.append(np.pad(z_level(tree, hom[k + 1]) @ Mq.T, ((0, 0), (0, len(Lk) - m))) - p @ K.T)
    return c


def loop_levels(tree: PathTree, spec: SystemSpec, x0, law):
    """u (stages 0..N) and x (0..N+1), stage k at depth k, and u1 (-tau..N-tau, at depth max(0, j); None
    without a delayed input) of ``synthesis.feedback_loop``, each yielded input copied out of the loop's buffer."""
    m, tau = spec.m, spec.tau if spec.B1 is not None else 0
    xs, u_vals = {0: np.asarray(x0, dtype=float)[None, :].copy()}, {}
    u1s = {i - tau: law.u1_pre[i : i + 1] for i in range(len(law.u1_pre))} if tau else {}
    for k, v, x_next in feedback_loop(tree, spec, x0, law):
        u_vals[k] = v[:, :m].copy()
        if v.shape[1] > m:
            u1s[k] = v[:, m:].copy()
        xs[k + 1] = x_next
    return u_vals, xs, u1s if tau else None


def controller_levels(ctrl):
    """:func:`loop_levels` of a controller's law run from its own x0."""
    return loop_levels(ctrl.tree, ctrl.spec, ctrl.x0, ctrl.law)


def folded_step(stage: tuple, vals: dict):
    """x(k+1), as (rows s, n), and u1(k) (None without u1 rows) of ``synthesis._walk`` run on one stage, its
    entry of ``synthesis._stage_maps``, from ``vals`` into fresh arrays; u1(k), and x(k+1) where kept as a
    lag, go into ``vals``."""
    k, fold, u1_map, terms, _, _ = stage
    x = vals["x", k]
    rows = tuple(len(vals[key]) for key, _, _ in terms)
    out = np.empty((len(x), fold.shape[1]))
    u1_out = None if u1_map is None else np.empty((len(x), u1_map.shape[1]))
    work = np.empty(max((r * block.shape[1] for r, (_, block, _) in zip(rows, terms)), default=0))
    return _walk([_plan_entry(stage, out, u1_out, rows, work)], vals, x), u1_out


def breadth_first_folded_loop(tree: PathTree, spec: SystemSpec, x0, law, offsets: bool = False) -> np.ndarray:
    """x(N+1) of the folded closed loop, stage by stage over whole levels: :func:`folded_step` run from x0 on
    every node of each level, every level kept. With ``offsets`` every stage adds c_k,u (B + w_j Bbar)' and
    c_k,u1, a c_k of one row of zeros included, as the folded step was first written."""
    Bw = plant_maps(tree, spec)[1]
    vals = _start_values(x0, law, spec.tau or 0)
    for k, fold, u1_map, terms, c1, kept in _stage_maps(tree, spec, law):
        if offsets and c1 is None and (not terms or terms[0][0] != ("c", k)):
            terms, c1 = ((("c", k), Bw, False), *terms), None if u1_map is None else ("c1", k)
        vals["x", k + 1], _ = folded_step((k, fold, u1_map, terms, c1, kept), vals)
    return vals["x", len(law.L)]


def einsum_stage_mean(tree: PathTree, form, x_next: np.ndarray) -> np.ndarray:
    """E[C(k) x(k+1) | past] from the depth-(k+1) values, one einsum over the children."""
    cmats = form.stage_factors(tree.support)
    return np.einsum("j,jab,hjb->ha", tree.probs, cmats, x_next.reshape(-1, tree.s, form.n))


def einsum_z(tree: PathTree, x_next: np.ndarray) -> np.ndarray:
    """z(k) = E[w(k) x(k+1) | past] from the depth-(k+1) values, one einsum over the children."""
    children = x_next.reshape(-1, tree.s, x_next.shape[1])
    return np.einsum("j,hjb->hb", tree.probs * tree.support, children)


def einsum_representation_residual(tree: PathTree, x: dict) -> dict[int, float]:
    """``pathspace.representation_residual`` with an einsum mean, :func:`einsum_z` and a broadcast prediction."""
    out = {}
    for k in range(tree.horizon + 1):
        xk1 = x[k + 1].reshape(-1, tree.s, x[k + 1].shape[1])
        xbar = np.einsum("j,hjb->hb", tree.probs, xk1)
        pred = xbar[:, None, :] + tree.support[None, :, None] * einsum_z(tree, x[k + 1])[:, None, :]
        out[k] = float(np.abs(xk1 - pred).max()) if xk1.size else 0.0
    return out


def kron_representation_residual(tree: PathTree, x: dict) -> dict[int, float]:
    """``pathspace.representation_residual`` with the level's mean and w_j z(k) (``pathspace.z_level``)
    spread over every child by matmuls against tile(I_n, s) and kron(support, I_n)."""
    n = x[0].shape[1]
    every_child, by_atom = np.tile(np.eye(n), tree.s), np.kron(tree.support, np.eye(n))
    out = {}
    for k in range(tree.horizon + 1):
        xk1 = x[k + 1]
        mean = xk1.reshape(-1, tree.s * n) @ np.kron(tree.probs[:, None], np.eye(n))
        resid = xk1.reshape(-1, tree.s * n) - mean @ every_child
        resid -= z_level(tree, xk1) @ by_atom
        out[k] = float(np.abs(resid).max()) if resid.size else 0.0
    return out


def exact_representation_residual(tree: PathTree, x: dict) -> dict[int, Fraction]:
    """Each stage's max |x_j - sum_i p_i x_i - w_j sum_i p_i w_i x_i| over parents, children j and
    entries, in exact arithmetic on the float x(k+1) and the law's float p and w."""
    n = x[0].shape[1]
    p, w = [Fraction(v) for v in tree.probs], [Fraction(v) for v in tree.support]
    out = {}
    for k in range(tree.horizon + 1):
        worst = Fraction(0)
        for children in x[k + 1].reshape(-1, tree.s, n):
            for a in range(n):
                xs = [Fraction(float(v)) for v in children[:, a]]
                mean = sum(pi * xi for pi, xi in zip(p, xs))
                z = sum(pi * wi * xi for pi, wi, xi in zip(p, w, xs))
                worst = max(worst, *(abs(xj - mean - wj * z) for xj, wj in zip(xs, w)))
        out[k] = worst
    return out


def kron_node_probs(tree: PathTree, depth: int) -> np.ndarray:
    """Depth-``depth`` node probabilities as the Kronecker power of the law's probabilities."""
    probs = np.array([1.0])
    for _ in range(depth):
        probs = np.kron(probs, tree.probs)
    return probs


def einsum_children(prods: np.ndarray, cmats: np.ndarray, pivot=None) -> np.ndarray:
    """The next level of ``pathspace.path_products``: each product times each C(j), then the pivot."""
    n = prods.shape[1]
    children = np.einsum("hab,jbc->hjac", prods, cmats).reshape(-1, n, n)
    return children if pivot is None else children @ pivot


def einsum_weighted_gram(probs: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """sum_h probs[h] cols[h] cols[h]' in one einsum."""
    return np.einsum("h,hab,hcb->ac", probs, cols, cols)


def einsum_prefix_means(stack: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """The mean of each prefix's len(probs) continuations in one einsum."""
    tails = stack.reshape(len(stack) // len(probs), len(probs), *stack.shape[1:])
    return np.einsum("htab,t->hab", tails, probs)


def einsum_terminal_product(leaf_probs: np.ndarray, prods: np.ndarray, terminal: np.ndarray) -> np.ndarray:
    """E[C(0) ... C(N) xi] from the leaf products in one einsum."""
    return np.einsum("h,hab,hb->a", leaf_probs, prods, terminal)


def reference_serialize_instance(inst: ProblemInstance) -> str:
    """The document through json's indent encoder: a constant target one line of ``float.__repr__``
    numbers, leaf rows one string of ``struct``-packed doubles through ``bytes.hex``."""
    spec = inst.system
    doc: dict = {
        "n": spec.n,
        "m": spec.m,
        "N": inst.N,
        "A": spec.A.tolist(),
        "B": spec.B.tolist(),
        "Abar": spec.Abar.tolist(),
        "Bbar": spec.Bbar.tolist(),
    }
    if spec.M is not None:
        doc["M"] = spec.M.tolist()
    if spec.H is not None:
        doc["H"] = spec.H.tolist()
    if spec.B1 is not None:
        doc["B1"] = spec.B1.tolist()
        doc["tau"] = spec.tau
    if spec.A1 is not None:
        doc["A1"] = spec.A1.tolist()
        doc["d"] = spec.d
    doc["noise"] = {"support": list(spec.noise.support), "probs": list(spec.noise.probs)}
    if inst.x0 is not None:
        doc["x0"] = inst.x0.tolist()
    if inst.target is None:
        return json.dumps(doc, indent=2) + "\n"
    values = inst.target.ravel().tolist()
    if inst.target.ndim == 2:  # leaf rows: one JSON string of their little-endian doubles
        doc["target"] = struct.pack(f"<{len(values)}d", *values).hex()
        return json.dumps(doc, indent=2) + "\n"
    doc["target"] = "TARGET"
    numbers = "[" + ", ".join(map(float.__repr__, values)) + "]"
    return json.dumps(doc, indent=2).replace('"TARGET"', numbers) + "\n"
