"""Acceptance gate: nine checks covering the benchmark systems, oracle
agreement at scale, closed-loop steering, the rank/Gramian equivalence,
and the duality identity. Each check prints one PASS/FAIL line (visible
under ``pytest -s``) and enforces its stated tolerance and time budget.
"""
import itertools
import time

import numpy as np

from stochctrl import (
    BsdeForm,
    NoiseModel,
    PathTree,
    TransformedSystem,
    decide,
    forward_simulate,
    gramian,
    gramian_invertible,
    gramian_oracle,
    input_delay_controller,
    input_delay_gramian_oracle,
    member_of_S,
    null_controller,
    output_form,
    state_delay_P,
    state_delay_controller,
    state_delay_gramian_oracle,
    steer_to_target,
    word_span,
)
from stochctrl.sampling import random_attainable_terminal, random_controllable, random_system, random_x0
from crosschecks import controller_levels, word_matrix


def _report(tag, ok, detail):
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_c1_fullrank_benchmark(bench_full):
    spec, expected = bench_full
    start = time.perf_counter()
    ts = TransformedSystem.build(spec)
    G2 = gramian(ts.form, 2)
    report = decide(spec, N_max=2)
    elapsed = time.perf_counter() - start
    ok = (
        np.abs(G2 - expected["G2"]).max() < 1e-9
        and np.linalg.matrix_rank(G2) == 2
        and report.rank_R == 2
        and report.controllable
        and elapsed < 1.0
    )
    _report("C1", ok, f"two-step Gramian rank 2, span rank 2, verdict controllable in {elapsed:.3f}s")


def test_c2_output_benchmark(bench_output):
    spec, expected = bench_output
    start = time.perf_counter()
    ts = TransformedSystem.build(spec)
    form_l = output_form(ts)
    G2 = gramian(form_l, 2)
    R, _ = word_matrix(form_l.C, form_l.Cbar, form_l.D, 2)
    elapsed = time.perf_counter() - start
    ok = (
        np.abs(G2 - expected["G2"]).max() < 1e-9
        and R.shape == (1, 7)
        and np.abs(R[0] - expected["row"]).max() < 1e-9
        and elapsed < 1.0
    )
    _report("C2", ok, f"output Gramian 31 and span row reproduced in {elapsed:.3f}s")


def test_c3_delay_benchmarks(bench_input_delay, bench_state_delay):
    spec_in, _ = bench_input_delay
    spec_st, expected_st = bench_state_delay
    start = time.perf_counter()
    ts_in = TransformedSystem.build(spec_in)
    G_in = gramian(ts_in.form, 2)
    elapsed_in = time.perf_counter() - start

    start = time.perf_counter()
    ts_st = TransformedSystem.build(spec_st)
    pseq = state_delay_P(ts_st.form, 2)
    G_st = gramian(ts_st.form, 2)
    elapsed_st = time.perf_counter() - start

    p_ok = (
        np.abs(pseq[0] - expected_st["P0"]).max() < 1e-9
        and np.abs(pseq[1] - expected_st["P1"]).max() < 1e-9
        and np.abs(pseq[2] - np.eye(2)).max() < 1e-12
    )
    ok = (
        np.linalg.matrix_rank(G_in) == 2
        and np.linalg.matrix_rank(G_st) == 2
        and p_ok
        and elapsed_in < 1.0
        and elapsed_st < 1.0
    )
    _report(
        "C3",
        ok,
        f"both delayed Gramians rank 2, P sequence well defined "
        f"({elapsed_in:.3f}s / {elapsed_st:.3f}s)",
    )


def test_c4_oracle_agreement_rademacher():
    rng = np.random.default_rng(41)
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for trial in range(200):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(0, 7))
        noise = NoiseModel.rademacher()

        ts = TransformedSystem.build(random_system(rng, n, n + 1))
        worst = max(worst, np.linalg.norm(gramian(ts.form, N) - gramian_oracle(ts.form, N, noise)))

        tau = 1 + trial % 2
        ts_in = TransformedSystem.build(random_system(rng, n, n + 1, tau=tau))
        worst = max(
            worst,
            np.linalg.norm(
                gramian(ts_in.form, N)
                - input_delay_gramian_oracle(ts_in.form, N, noise)
            ),
        )

        ts_st = TransformedSystem.build(random_system(rng, n, n + 1, d=1))
        worst = max(
            worst,
            np.linalg.norm(
                gramian(ts_st.form, N)
                - state_delay_gramian_oracle(ts_st.form, N, noise)
            ),
        )
        count += 3
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 60.0
    _report("C4", ok, f"{count} Gramians within {worst:.2e} of enumeration in {elapsed:.1f}s")


def test_c5_oracle_agreement_three_point():
    rng = np.random.default_rng(43)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(0, 5))
        noise = NoiseModel.symmetric_three_point(float(rng.uniform(1.1, 3.0)))
        ts = TransformedSystem.build(random_system(rng, n, n + 1, noise=noise))
        worst = max(worst, np.linalg.norm(gramian(ts.form, N) - gramian_oracle(ts.form, N, noise)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 60.0
    _report("C5", ok, f"50 three-atom Gramians within {worst:.2e} of enumeration in {elapsed:.1f}s")


def test_c6_closed_loop_null_steering(bench_full, bench_input_delay, bench_state_delay):
    rng = np.random.default_rng(47)
    worst = 0.0

    spec, expected = bench_full
    ts = TransformedSystem.build(spec)
    tree = PathTree(spec.noise, 2)
    ctrl = null_controller(ts, tree, expected["x0"])
    sim = forward_simulate(tree, spec, expected["x0"], controller_levels(ctrl)[0])
    worst = max(worst, float(np.abs(sim[3]).max()))

    for _ in range(20):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(max(1, n - 1), 5))
        ts_r = random_controllable(rng, n, n + 1, N)
        tree_r = PathTree(ts_r.spec.noise, N)
        for _ in range(20):
            x0 = random_x0(rng, n)
            c = null_controller(ts_r, tree_r, x0)
            s = forward_simulate(tree_r, ts_r.spec, x0, controller_levels(c)[0])
            worst = max(worst, float(np.abs(s[N + 1]).max()))

    spec_in, exp_in = bench_input_delay
    ts_in = TransformedSystem.build(spec_in)
    tree_in = PathTree(spec_in.noise, 2)
    c_in = input_delay_controller(ts_in, tree_in, exp_in["x0"])
    u_in, _, u1_in = controller_levels(c_in)
    s_in = forward_simulate(tree_in, spec_in, exp_in["x0"], u_in, u1=u1_in)
    worst = max(worst, float(np.abs(s_in[3]).max()))

    spec_st, exp_st = bench_state_delay
    ts_st = TransformedSystem.build(spec_st)
    tree_st = PathTree(spec_st.noise, 2)
    c_st = state_delay_controller(ts_st, tree_st, exp_st["x0"])
    s_st = forward_simulate(tree_st, spec_st, exp_st["x0"], controller_levels(c_st)[0])
    worst = max(worst, float(np.abs(s_st[3]).max()))

    ok = worst < 1e-8
    _report("C6", ok, f"null steering terminal deviation {worst:.2e} across 403 closed loops")


def test_c7_target_membership_and_steering():
    rng = np.random.default_rng(53)
    worst = 0.0
    for noise in (NoiseModel.rademacher(), NoiseModel.symmetric_three_point()):
        for _ in range(10):
            ts = random_controllable(rng, 2, 3, 3, noise=noise)
            tree = PathTree(noise, 3)
            target = random_attainable_terminal(rng, tree, ts.form)
            membership = member_of_S(tree, ts.form, target)
            assert membership.member
            x0 = random_x0(rng, 2)
            ctrl = steer_to_target(ts, tree, x0, target)
            sim = forward_simulate(tree, ts.spec, x0, controller_levels(ctrl)[0])
            worst = max(worst, float(np.abs(sim[4] - target).max()))

    noise = NoiseModel.symmetric_three_point()
    ts = random_controllable(rng, 2, 3, 2, noise=noise)
    tree = PathTree(noise, 2)
    w_last = tree.support[[h[-1] for h in itertools.product(range(tree.s), repeat=3)]]
    quadratic = (w_last**2)[:, None] * rng.normal(size=2)[None, :]
    rejected = not member_of_S(tree, ts.form, quadratic).member

    ok = worst < 1e-8 and rejected
    _report(
        "C7",
        ok,
        f"20 generated targets accepted and steered within {worst:.2e}; "
        f"quadratic terminal rejected: {rejected}",
    )


def test_c8_rank_gramian_equivalence():
    rng = np.random.default_rng(59)

    def degenerate(n, k):
        C = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        C[k:, :k] = 0.0
        Cbar = rng.normal(size=(n, n))
        Cbar[k:, :k] = 0.0
        D = rng.normal(size=(n, 2))
        D[k:, :] = 0.0
        return BsdeForm(C=C, Cbar=Cbar, D=D)

    checked = 0
    sides = {True: 0, False: 0}
    for trial in range(60):
        n = int(rng.integers(1, 4))
        if trial % 3 == 2 and n > 1:
            form = degenerate(n, int(rng.integers(1, n)))
        else:
            form = TransformedSystem.build(random_system(rng, n, n + 1)).form
        by_rank = word_span(form).rank == form.n
        by_gramian = any(gramian_invertible(gramian(form, N))[0] for N in range(2 * form.n + 1))
        assert by_rank == by_gramian
        sides[by_rank] += 1
        checked += 1
    ok = checked == 60 and sides[True] > 0 and sides[False] > 0
    _report(
        "C8",
        ok,
        f"span rank n matched an invertible Gramian within N <= 2n on all {checked} "
        f"instances ({sides[True]} controllable, {sides[False]} not)",
    )


def test_c9_duality_identity():
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        ts = TransformedSystem.build(random_system(rng, n, n + 1))
        form = ts.form
        N = int(rng.integers(1, 4))
        tree = PathTree(ts.spec.noise, N)
        terminal = rng.normal(size=(tree.n_nodes(N + 1), n))
        from stochctrl import backward_solve
        from stochctrl.sampling import random_free_input

        v = random_free_input(rng, tree, form.m_free)
        x = backward_solve(tree, form, terminal, v)
        Y = {0: rng.normal(size=(1, n))}
        steps = np.stack([form.C + w * form.Cbar for w in tree.support])
        for k in range(N + 1):
            Y[k + 1] = np.einsum("jab,ha->hjb", steps, Y[k]).reshape(-1, n)
        for k in range(N + 1):
            pk, pk1 = tree.node_probs(k), tree.node_probs(k + 1)
            lhs = np.einsum("h,hb,hb->", pk, Y[k], x[k]) - np.einsum("h,hb,hb->", pk1, Y[k + 1], x[k + 1])
            rhs = np.einsum("h,hb,hb->", pk, Y[k], v[k] @ form.D.T)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    ok = worst < 1e-9
    _report("C9", ok, f"pairing decrement equals input work within {worst:.2e} on 50 systems")
