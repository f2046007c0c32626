"""Seeded inputs and op lists for the three workloads.

Every workload is a fixed list of CLI invocations (``Op``) over instance
files generated from the run's seed. The program only ever sees those
files and the controller tables it writes itself. Each op's expected
exit code is fixed here, when its input is generated, from how the input
was built: draws that must be controllable are checked with this
module's own Gramian recursion, never with the code under test.

``small=True`` builds the same op list at tiny horizons (and one
certify instance per route); the runner uses it for the warm-up of every
workload and for the smoke mode.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from stochctrl import sampling
from stochctrl.model import NoiseModel, ProblemInstance, SystemSpec, serialize_instance
from stochctrl.pathspace import PathTree

TWO_POINT = NoiseModel.rademacher()
THREE_POINT = NoiseModel.symmetric_three_point()
NOISES = {"2pt": TWO_POINT, "3pt": THREE_POINT}

# The CLI's default --tol for synthesize and verify; the benchmark passes
# no --tol, so this is the bar each steering op must meet.
STEER_TOL = 1e-8
# Largest Gramian condition number accepted for a draw that must be
# controllable (the same cap sampling.random_controllable applies).
COND_CAP = 1e6

EXIT_OK, EXIT_NO, EXIT_INAPPLICABLE, EXIT_TARGET = 0, 1, 2, 4


@dataclass(frozen=True)
class Op:
    """One CLI invocation with the exit code it must return."""

    command: str  # analyze | synthesize | verify | oracle-check
    instance: str
    expect: int
    N: int  # horizon the op runs at
    override_N: bool = False  # pass --N instead of using the instance's N
    table: str | None = None  # synthesize --out / verify --controller

    @property
    def phase(self) -> str:
        """'solve' for answer ops, 'check' for ops that check an answer."""
        return "solve" if self.command in ("analyze", "synthesize") else "check"

    def argv(self) -> list[str]:
        args = [self.command, "--instance", self.instance]
        if self.override_N:
            args += ["--N", str(self.N)]
        if self.table is not None:
            args += ["--out" if self.command == "synthesize" else "--controller", self.table]
        return args


class _Writer:
    """Writes instance files into one directory under sequential names."""

    def __init__(self, workdir: str, prefix: str):
        self.workdir = workdir
        self.prefix = prefix
        self.count = 0

    def instance(self, inst: ProblemInstance) -> str:
        path = os.path.join(self.workdir, f"{self.prefix}{self.count:03d}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_instance(inst))
        return path

    def table(self, name: str) -> str:
        return os.path.join(self.workdir, f"{self.prefix}{name}.csv")


# ---------------------------------------------------------------------------
# independent reference checks on prescribed backward-form coefficients


def _gramian_cond(C, Cbar, D, N, P=None) -> float:
    """Condition number of the steering Gramian at horizon N.

    Plain moment recursion sum_i Lambda^i(D D'), or, with a P-sequence
    for the delayed state, the P-weighted backward accumulation.
    """
    DDt = D @ D.T
    if P is None:
        G = np.zeros_like(DDt)
        X = DDt
        for _ in range(N + 1):
            G = G + X
            X = C @ X @ C.T + Cbar @ X @ Cbar.T
    else:
        G = np.zeros_like(DDt)
        for j in range(N, -1, -1):
            G = P[j] @ (DDt + C @ G @ C.T + Cbar @ G @ Cbar.T) @ P[j].T
    return float(np.linalg.cond(G))


def _p_sequence(C, C1, d, N) -> list[np.ndarray]:
    n = C.shape[0]
    P = {k: np.eye(n) for k in range(max(0, N - d + 1), N + 1)}
    for k in range(N - d, -1, -1):
        bracket = np.eye(n)
        for j in range(k + 1, k + d + 1):
            bracket = bracket @ C @ P[j]
        P[k] = np.linalg.inv(np.eye(n) - bracket @ C1)
    return [P[k] for k in range(N + 1)]


# ---------------------------------------------------------------------------
# draws built from prescribed backward-form coefficients, as
# sampling.random_system does: C has singular values in [0.5, 1], Cbar
# spectral norm 0.7, the free input columns norm 1.


def _well_conditioned(rng, n, lo=1.0, hi=2.0):
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q1 @ np.diag(rng.uniform(lo, hi, size=n)) @ q2


def _scaled(rng, shape, norm):
    X = rng.normal(size=shape)
    return norm * X / np.linalg.svd(X, compute_uv=False)[0]


def _forward(C, Cbar, D, Abar, noise, **extra) -> SystemSpec:
    """Forward matrices with Bbar = [I 0] (so M = I) and the given backward form."""
    n = C.shape[0]
    S = np.linalg.inv(C)  # the pencil A - L Abar
    L = -S @ Cbar
    F = -S @ D
    Bbar = np.hstack([np.eye(n), np.zeros((n, D.shape[1]))])
    return SystemSpec(A=S + L @ Abar, B=np.hstack([L, F]), Abar=Abar, Bbar=Bbar, noise=noise, **extra)


def _block_triangular(rng, n, l, upper=False):
    """Inverse of a well-conditioned block triangular matrix (blocks l, n - l).

    Block lower (upper) triangular with an exactly zero off-diagonal block.
    """
    X = np.zeros((n, n))
    X[:l, :l] = _well_conditioned(rng, l)
    X[l:, l:] = _well_conditioned(rng, n - l)
    if upper:
        X[:l, l:] = rng.normal(size=(l, n - l))
    else:
        X[l:, :l] = rng.normal(size=(n - l, l))
    C = np.linalg.inv(X)
    if upper:
        C[l:, :l] = 0.0
    else:
        C[:l, l:] = 0.0
    return C


def _scaled_block(rng, n, l, norm, upper=False):
    X = _scaled(rng, (n, n), norm)
    if upper:
        X[l:, :l] = 0.0
    else:
        X[:l, l:] = 0.0
    return X


def _output_map_system(rng, noise, N):
    """n = 3 with a rank-2 output map H that intertwines C and Cbar.

    In the basis T the coefficients are block lower triangular, so
    H = [I 0] T' satisfies H X = X11 H for X in {C, Cbar}.
    """
    n, l = 3, 2
    for _ in range(200):
        T, _ = np.linalg.qr(rng.normal(size=(n, n)))
        Cp = _block_triangular(rng, n, l)
        Cbp = _scaled_block(rng, n, l, 0.7)
        Dp = _scaled(rng, (n, 1), 1.0)
        if _gramian_cond(Cp[:l, :l], Cbp[:l, :l], Dp[:l], N) > COND_CAP:
            continue
        H = np.hstack([np.eye(l), np.zeros((l, n - l))]) @ T.T
        return _forward(T @ Cp @ T.T, T @ Cbp @ T.T, T @ Dp, rng.normal(size=(n, n)), noise, H=H)
    raise RuntimeError("no controllable output-map draw")


def _no_intertwiner_system(rng, noise):
    """A generic output map: H C leaves the row space of H, so exit 2."""
    spec = sampling.random_system(rng, 3, 4, noise=noise)
    return SystemSpec(
        A=spec.A, B=spec.B, Abar=spec.Abar, Bbar=spec.Bbar, noise=noise, H=rng.normal(size=(2, 3))
    )


def _uncontrollable_system(rng, noise):
    """Full route, n = 3, with span(e1, e2) invariant and containing range D.

    C, Cbar and Abar are block upper triangular with exact zeros, which
    survive the transform exactly, so every Gramian is singular: exit 1.
    """
    n, l = 3, 2
    C = _block_triangular(rng, n, l, upper=True)
    Cbar = _scaled_block(rng, n, l, 0.7, upper=True)
    D = np.vstack([_scaled(rng, (l, 1), 1.0), np.zeros((n - l, 1))])
    Abar = rng.normal(size=(n, n))
    Abar[l:, :l] = 0.0
    return _forward(C, Cbar, D, Abar, noise)


def _reduced_system(rng, noise, N):
    """Rank-deficient Bbar = [[I_2, 0], [0, 0]] with n = 4, m = 3.

    Prescribes the inverse block matrix Ablk (block lower triangular, so
    it intertwines with [I 0]) and the reduced coefficients (A1, B1, D1)
    in its first block row, then solves for A, B and Abar.
    """
    r, n, m = 2, 4, 3
    for _ in range(200):
        A1 = np.linalg.inv(_well_conditioned(rng, r))
        Ablk = np.block([[A1, np.zeros((r, r))], [rng.normal(size=(r, r)), _well_conditioned(rng, r)]])
        B1 = _scaled(rng, (r, r), 0.7)
        D1 = _scaled(rng, (r, m - r), 1.0)
        if _gramian_cond(A1, B1, D1, N) > COND_CAP:
            continue
        script = np.linalg.inv(Ablk)
        Bq = -script @ np.vstack([B1, rng.normal(size=(r, r))])  # [B11; B21]
        Bf = -script @ np.vstack([D1, rng.normal(size=(r, m - r))])  # [B12; B22]
        Ab11, Ab12 = rng.normal(size=(r, r)), rng.normal(size=(r, r))
        A = script + np.hstack([Bq @ Ab11, Bq @ Ab12])
        Abar = np.block([[Ab11, Ab12], [np.eye(r), np.zeros((r, r))]])
        Bbar = np.zeros((n, m))
        Bbar[:r, :r] = np.eye(r)
        return SystemSpec(A=A, B=np.hstack([Bq, Bf]), Abar=Abar, Bbar=Bbar, noise=noise)
    raise RuntimeError("no controllable reduced draw")


def _state_delay_system(rng, n, noise, N):
    for _ in range(200):
        ts = sampling.random_controllable(rng, n, n + 1, N, noise=noise, d=1)
        form = ts.form
        if _gramian_cond(form.C, form.Cbar, form.D, N, _p_sequence(form.C, form.C1, 1, N)) <= COND_CAP:
            return ts.spec
    raise RuntimeError("no controllable state-delay draw")


# ---------------------------------------------------------------------------
# workloads


def full_deep(rng, w: _Writer, small: bool) -> list[Op]:
    """Full route, two-point noise, n = 3, m = 4, steered to the origin.

    The deep-tree path: tree synthesis, stage products, the backward
    solve and the controller table at N = 10, 14 and 17.
    """
    Ns = (2, 3, 4) if small else (10, 14, 17)
    ts = sampling.random_controllable(rng, 3, 4, max(Ns))
    x0 = sampling.random_x0(rng, 3)
    path = w.instance(ProblemInstance(ts.spec, max(Ns), x0=x0))
    ops = []
    for N in Ns:
        table = w.table(f"N{N}")
        ops.append(Op("synthesize", path, EXIT_OK, N, override_N=True, table=table))
        ops.append(Op("verify", path, EXIT_OK, N, override_N=True, table=table))
    return ops


# Horizons per route and noise law in certify_batch; the oracle's cost
# doubles (two-point) or triples (three-point) with each stage.
CERTIFY_NS = {"2pt": (2, 4, 6, 8, 9, 10, 11, 12), "3pt": (2, 3, 4, 5, 6, 7, 8)}
CERTIFY_NEGATIVE_NS = {"2pt": (6, 12), "3pt": (4, 8)}
CERTIFY_ROUTES = ("full", "output", "reduced", "input-delay-1", "input-delay-2", "state-delay")


def _certify_spec(rng, route, noise, N, n):
    if route == "full":
        return sampling.random_controllable(rng, n, n + 1, N, noise=noise).spec
    if route == "output":
        return _output_map_system(rng, noise, N)
    if route == "reduced":
        return _reduced_system(rng, noise, N)
    if route.startswith("input-delay"):
        tau = int(route.rsplit("-", 1)[1])
        # The delayed channel only adds positive terms, so a controllable
        # plain Gramian makes the delayed-input Gramian invertible too.
        return sampling.random_controllable(rng, n, n + 1, N, noise=noise, tau=tau).spec
    return _state_delay_system(rng, n, noise, N)


def certify_batch(rng, w: _Writer, small: bool) -> list[Op]:
    """About 100 instances over all five routes, both noise laws.

    Each instance runs analyze then oracle-check: criteria, partial,
    delay and oracle work with no tree synthesis. Two negative families
    have known verdicts: an uncontrollable full-route system (analyze
    exits 1) and an output map with no intertwiner (both ops exit 2).
    """
    plan = []
    for route in CERTIFY_ROUTES:
        for law, Ns in CERTIFY_NS.items():
            plan += [(route, law, N, EXIT_OK, EXIT_OK) for N in (Ns[:1] if small else Ns)]
    for law, Ns in CERTIFY_NEGATIVE_NS.items():
        for N in Ns[:1] if small else Ns:
            plan.append(("uncontrollable", law, N, EXIT_NO, EXIT_OK))
            plan.append(("no-intertwiner", law, N, EXIT_INAPPLICABLE, EXIT_INAPPLICABLE))
    ops = []
    for i, (route, law, N, expect_analyze, expect_oracle) in enumerate(plan):
        noise = NOISES[law]
        if route == "uncontrollable":
            spec = _uncontrollable_system(rng, noise)
        elif route == "no-intertwiner":
            spec = _no_intertwiner_system(rng, noise)
        else:
            spec = _certify_spec(rng, route, noise, N, 2 + i % 2)
        path = w.instance(ProblemInstance(spec, N))
        ops.append(Op("analyze", path, expect_analyze, N))
        ops.append(Op("oracle-check", path, expect_oracle, N))
    return ops


def _label_map(tree: PathTree, leaves: np.ndarray) -> dict[str, np.ndarray]:
    depth = tree.horizon + 1
    return {tree.index_label(depth, i): leaves[i] for i in range(tree.n_nodes(depth))}


def steer_mix(rng, w: _Writer, small: bool) -> list[Op]:
    """Delay, membership and path-label layers that full_deep never touches.

    State delay (n = 2, d = 1, N = 11: a dense solve with 8190 unknowns),
    input delay (tau = 1, N = 15), and three-point noise at N = 9 with a
    path-dependent attainable target, plus a random leaf target that is
    not attainable and must be rejected (exit 4, so no verify).
    """
    N_state, N_input, N_target = (2, 3, 2) if small else (11, 15, 9)
    ops = []

    spec = _state_delay_system(rng, 2, TWO_POINT, N_state)
    path = w.instance(ProblemInstance(spec, N_state, x0=sampling.random_x0(rng, 2)))
    ops.append(Op("synthesize", path, EXIT_OK, N_state, table=w.table("state")))
    ops.append(Op("verify", path, EXIT_OK, N_state, table=w.table("state")))

    ts = sampling.random_controllable(rng, 2, 3, N_input, tau=1)
    path = w.instance(ProblemInstance(ts.spec, N_input, x0=sampling.random_x0(rng, 2)))
    ops.append(Op("synthesize", path, EXIT_OK, N_input, table=w.table("input")))
    ops.append(Op("verify", path, EXIT_OK, N_input, table=w.table("input")))

    ts = sampling.random_controllable(rng, 2, 3, N_target, noise=THREE_POINT)
    tree = PathTree(THREE_POINT, N_target)
    x0 = sampling.random_x0(rng, 2)
    attainable = sampling.random_attainable_terminal(rng, tree, ts.form)
    path = w.instance(ProblemInstance(ts.spec, N_target, x0=x0, target=_label_map(tree, attainable)))
    ops.append(Op("synthesize", path, EXIT_OK, N_target, table=w.table("target")))
    ops.append(Op("verify", path, EXIT_OK, N_target, table=w.table("target")))

    # Generic leaf values depend non-affinely on the last three-point draw.
    leaves = rng.normal(size=attainable.shape)
    path = w.instance(ProblemInstance(ts.spec, N_target, x0=x0, target=_label_map(tree, leaves)))
    ops.append(Op("synthesize", path, EXIT_TARGET, N_target, table=w.table("reject")))
    return ops


WORKLOADS = {"full_deep": full_deep, "certify_batch": certify_batch, "steer_mix": steer_mix}


def build(name: str, seed: int, workdir: str, small: bool) -> list[Op]:
    """Generate the named workload's inputs from the seed; return its ops."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name](rng, _Writer(workdir, f"{name}-"), small)
