"""State-delay backward solve: elimination along the P-sequence.

``dense_backward_solve_state_delay`` and ``loop_state_delay_P`` below are
the package's earlier implementations, kept verbatim as the reference, but
for stage levels held in plain dicts:
every node value as one unknown of a dense linear system, and the bracket
iteration on its own. The elimination reorders the same arithmetic, so
the solve must agree within a relative rounding tolerance fixed here;
the P-sequence must agree to 1e-14. ``node_residual`` checks the delayed
backward equation itself at every node, independently of both. The
banded lag gains, kept only for the lags that act, must equal the dense
elimination of ``crosschecks`` bit for bit, which must be exactly zero
on every other lag.
"""
import numpy as np
import pytest

from stochctrl import (
    NoiseModel,
    PathTree,
    ProblemInstance,
    SingularPBracket,
    TransformedSystem,
    backward_solve_state_delay,
    serialize_instance,
    state_delay_P,
)
from stochctrl.sampling import random_controllable, random_free_input, random_system, random_x0
from stochctrl.cli import main
from stochctrl.errors import DimensionMismatch, StageMismatch
from stochctrl.pathspace import _acting_lags, _check_input, _state_delay_gains, terminal_from_map, z_level
from crosschecks import dense_state_delay_gains

P_RCOND = 1e-12
RTOL = 1e-12


def dense_backward_solve_state_delay(tree, form, d, terminal, v=None):
    if form.C1 is None:
        raise DimensionMismatch("form has no delayed state channel C1")
    if d < 1:
        raise StageMismatch(f"state delay must be >= 1, got {d}")
    n, N, s = form.n, tree.horizon, tree.s
    cmats = form.stage_factors(tree.support)
    terminal_arr = terminal_from_map(tree, n, terminal)

    offsets, total = {}, 0
    for k in range(N + 1):
        offsets[k] = total
        total += tree.n_nodes(k) * n
    lhs = np.eye(total)
    rhs = np.zeros(total)
    for k in range(N + 1):
        nodes = tree.n_nodes(k)
        drive = np.zeros((nodes, n))
        if form.m_free > 0:
            drive = drive + _check_input(tree, v, k, form.m_free, "v") @ form.D.T
        if k == N:
            xk1 = terminal_arr.reshape(nodes, s, n)
            drive = drive + np.einsum("j,jab,hjb->ha", tree.probs, cmats, xk1)
        for h in range(nodes):
            r0 = offsets[k] + h * n
            rhs[r0 : r0 + n] = drive[h]
            if k < N:
                for j in range(s):
                    c0 = offsets[k + 1] + (h * s + j) * n
                    lhs[r0 : r0 + n, c0 : c0 + n] -= tree.probs[j] * cmats[j]
            if k - d >= 0:
                c0 = offsets[k - d] + (h // s**d) * n
                lhs[r0 : r0 + n, c0 : c0 + n] -= form.C1
    try:
        sol = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        raise SingularPBracket(None) from None

    x_vals = {k: sol[offsets[k] : offsets[k] + tree.n_nodes(k) * n].reshape(-1, n) for k in range(N + 1)}
    x_vals[N + 1] = terminal_arr
    return x_vals


def loop_state_delay_P(form, d, N):
    n = form.n
    P = {k: np.eye(n) for k in range(max(0, N - d + 1), N + 1)}
    for k in range(N - d, -1, -1):
        bracket = np.eye(n)
        for j in range(k + 1, k + d + 1):
            bracket = bracket @ form.C @ P[j]
        bracket = np.eye(n) - bracket @ form.C1
        svals = np.linalg.svd(bracket, compute_uv=False)
        if svals[0] == 0.0 or svals[-1] / svals[0] <= P_RCOND:
            raise SingularPBracket(k)
        P[k] = np.linalg.inv(bracket)
    return tuple(P[k] for k in range(N + 1))


def node_residual(tree, form, d, x, v):
    """Worst |x(k) - E[C(k) x(k+1) | past] - C1 x(k-d) - D v(k)| over all nodes,
    relative to max(1, max |x|). One plain loop per stage and noise value."""
    n, N, s = form.n, tree.horizon, tree.s
    worst, scale = 0.0, 1.0
    for k in range(N + 1):
        xk = x[k]
        children = x[k + 1].reshape(s**k, s, n)
        gap = xk.copy()
        for j in range(s):
            gap -= tree.probs[j] * children[:, j, :] @ (form.C + tree.support[j] * form.Cbar).T
        if k >= d:
            gap -= np.repeat(x[k - d], s**d, axis=0) @ form.C1.T
        if form.m_free:
            gap -= v[k] @ form.D.T
        worst = max(worst, float(np.abs(gap).max()))
        scale = max(scale, float(np.abs(xk).max()))
    return worst / max(scale, float(np.abs(x[N + 1]).max()))


LAWS = {"2pt": NoiseModel.rademacher(), "3pt": NoiseModel.symmetric_three_point()}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("law", sorted(LAWS))
def test_elimination_matches_dense_solve(law, n, d):
    noise = LAWS[law]
    rng = np.random.default_rng([n, d, len(noise.support)])
    form = TransformedSystem.build(random_system(rng, n, n + 1, noise=noise, d=d)).form
    for N in range(6 if law == "2pt" else 5):
        for k, (P, ref) in enumerate(zip(state_delay_P(form, N), loop_state_delay_P(form, d, N))):
            assert np.abs(P - ref).max() <= 1e-14, (N, k)
        tree = PathTree(noise, N)
        v = random_free_input(rng, tree, form.m_free)
        terminal = rng.normal(size=(tree.n_nodes(N + 1), n))
        x = backward_solve_state_delay(tree, form, terminal, v)
        ref = dense_backward_solve_state_delay(tree, form, d, terminal, v)
        scale = max(1.0, max(float(np.abs(ref[k]).max()) for k in range(N + 2)))
        for k in range(N + 1):
            assert np.abs(x[k] - ref[k]).max() <= RTOL * scale, (N, k)
            assert np.abs(z_level(tree, x[k + 1]) - z_level(tree, ref[k + 1])).max() <= RTOL * scale, (N, k)
        assert node_residual(tree, form, d, x, v) <= RTOL, N


def test_acting_lags_match_their_definition():
    for N in range(7):
        for k in range(N + 1):
            for lag in range(9):
                states, inputs = _acting_lags(N, k, lag, 0)[0], _acting_lags(N, k, 0, lag)[1]
                assert list(states) == [j for j in range(1, 9) if j <= min(lag, k) and k - j + lag <= N]
                assert list(inputs) == [i for i in range(1, 9) if i <= lag and k - i + lag <= N]
                assert _acting_lags(N, k, lag, lag) == (states, inputs)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("law", sorted(LAWS))
def test_banded_lag_gains_equal_the_dense_elimination(law, d):
    rng = np.random.default_rng([d, len(LAWS[law].support)])
    for n in (1, 2, 3):
        form = TransformedSystem.build(random_system(rng, n, n + 1, noise=LAWS[law], d=d)).form
        for N in range(2, 10):
            P, Q = _state_delay_gains(form, N)
            P_ref, Q_ref = dense_state_delay_gains(form, N)
            for k in range(N + 1):
                assert np.array_equal(P[k], P_ref[k]), (n, N, k)
                band = _acting_lags(N, k, d, 0)[0]
                assert list(Q[k]) == list(band), (n, N, k)
                for j in range(1, min(d, k) + 1):
                    if j in band:
                        assert np.array_equal(Q[k][j], Q_ref[k][j - 1]), (n, N, k, j)
                    else:
                        assert not Q_ref[k][j - 1].any(), (n, N, k, j)


def test_horizon_beyond_the_dense_solve(rng, tmp_path, capsys):
    # N = 14 on two-point noise: 2 * (2^15 - 1) = 65,534 unknowns, a
    # dense system of about 34 GB
    N = 14
    ts = random_controllable(rng, 2, 3, N, d=1)
    tree = PathTree(ts.spec.noise, N)
    v = random_free_input(rng, tree, ts.form.m_free)
    terminal = rng.normal(size=(tree.n_nodes(N + 1), 2))
    sol = backward_solve_state_delay(tree, ts.form, terminal, v)
    assert node_residual(tree, ts.form, 1, sol, v) <= RTOL

    inst = tmp_path / "deep.json"
    inst.write_text(serialize_instance(ProblemInstance(ts.spec, N, x0=random_x0(rng, 2))))
    table = tmp_path / "deep.csv"
    code = main(["synthesize", "--instance", str(inst), "--format", "csv", "--out", str(table)])
    assert code == 0
    synth = _csv_report(capsys)
    main(["verify", "--instance", str(inst), "--format", "csv", "--controller", str(table)])
    verify = _csv_report(capsys)
    assert synth["kind"] == verify["kind"] == "state-delay"
    # the table replays exactly what synthesize simulated
    assert verify["terminal_deviation"] == synth["terminal_deviation"]


def _csv_report(capsys) -> dict:
    return dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines())
