"""Gramian scan against enumeration, rank test, and their equivalence."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochctrl import (
    BsdeForm,
    EnumerationTooLarge,
    NoiseModel,
    NonFiniteGramian,
    TransformedSystem,
    decide,
    decide_form,
    gramian,
    gramian_invertible,
    gramian_oracle,
    moment_step,
    word_span,
)
from stochctrl.sampling import random_system
from crosschecks import rank_test_words, tree_rank_controllable, word_matrix


def test_benchmark_gramian(bench_full):
    spec, expected = bench_full
    ts = TransformedSystem.build(spec)
    np.testing.assert_allclose(gramian(ts.form, 2), expected["G2"], atol=1e-12)


def test_benchmark_decision(bench_full):
    spec, expected = bench_full
    report = decide(spec, N_max=2)
    assert report.controllable
    assert report.witness_N == expected["witness_N"]
    assert report.rank_R == expected["rank_R"]
    assert report.criteria_agree
    assert len(report.min_singular) == 3


def test_uncontrollable_benchmark(bench_uncontrollable):
    report = decide(bench_uncontrollable, N_max=4)
    assert not report.controllable
    assert report.witness_N is None
    assert report.rank_R == 1
    assert report.criteria_agree


def test_gramian_matches_enumeration(rng):
    for _ in range(8):
        n = int(rng.integers(1, 4))
        ts = TransformedSystem.build(random_system(rng, n, n + 1))
        N = int(rng.integers(0, 5))
        G = gramian(ts.form, N)
        Go = gramian_oracle(ts.form, N, ts.spec.noise)
        assert np.linalg.norm(G - Go) < 1e-9


def test_gramian_is_distribution_free(rng):
    # The closed form only uses the first two moments, so enumeration
    # under any admissible law must land on the same matrix.
    ts = TransformedSystem.build(random_system(rng, 2, 3))
    G = gramian(ts.form, 3)
    for noise in (NoiseModel.rademacher(), NoiseModel.symmetric_three_point(1.5), NoiseModel.symmetric_three_point(3.0)):
        Go = gramian_oracle(ts.form, 3, noise)
        assert np.linalg.norm(G - Go) < 1e-9


def test_enumeration_cap():
    ts = TransformedSystem.build(
        random_system(np.random.default_rng(0), 1, 2, noise=NoiseModel.symmetric_three_point())
    )
    with pytest.raises(EnumerationTooLarge):
        gramian_oracle(ts.form, 4, ts.spec.noise, cap=80)  # 3^5 = 243 paths


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_moment_step_linear_and_psd(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    C, Cbar = rng.normal(size=(n, n)), rng.normal(size=(n, n))
    X1 = rng.normal(size=(n, n))
    X2 = rng.normal(size=(n, n))
    a, b = rng.normal(), rng.normal()
    lhs = moment_step(C, Cbar, a * X1 + b * X2)
    rhs = a * moment_step(C, Cbar, X1) + b * moment_step(C, Cbar, X2)
    scale = max(1.0, np.abs(lhs).max())
    assert np.abs(lhs - rhs).max() < 1e-10 * scale
    P = X1 @ X1.T  # PSD input stays PSD
    eigs = np.linalg.eigvalsh(moment_step(C, Cbar, P))
    assert eigs.min() > -1e-10 * max(1.0, eigs.max())


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_gramian_monotone_in_horizon(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    ts = TransformedSystem.build(random_system(rng, n, n + 1))
    prev = gramian(ts.form, 0)
    for N in range(1, 4):
        cur = gramian(ts.form, N)
        eigs = np.linalg.eigvalsh(cur - prev)
        assert eigs.min() > -1e-10 * max(1.0, np.abs(cur).max())
        prev = cur


def test_word_order_frozen():
    assert rank_test_words(2) == [(), (0,), (1,), (0, 0), (1, 1), (0, 1), (1, 0)]
    words = rank_test_words(3)
    assert words[:7] == rank_test_words(2)
    by_len = [w for w in words if len(w) == 3]
    assert by_len[0] == (0, 0, 0) and by_len[1] == (1, 1, 1)  # pure powers lead
    assert len(words) == 2**4 - 1


def test_word_matrix_applies_letters_right_to_left(rng):
    C, Cbar = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    D = rng.normal(size=(2, 1))
    R, words = word_matrix(C, Cbar, D, 2)
    col = words.index((0, 1))
    np.testing.assert_allclose(R[:, [col]], C @ Cbar @ D, atol=1e-12)
    col = words.index((1, 0))
    np.testing.assert_allclose(R[:, [col]], Cbar @ C @ D, atol=1e-12)
    assert R.shape == (2, 7 * D.shape[1])


def word_matrix_span(form):
    """The literal rank test: the rank of [W D : |W| <= n] and the shortest word length L at
    which [W D : |W| <= L] reaches it."""
    ranks = [np.linalg.matrix_rank(word_matrix(form.C, form.Cbar, form.D, L)[0], tol=1e-9) for L in range(form.n + 1)]
    return ranks[-1], ranks.index(ranks[-1])


def test_word_span_agrees_with_word_matrix_rank(rng):
    from stochctrl import BsdeForm
    from stochctrl.criteria import decide_form

    for _ in range(10):
        n = int(rng.integers(1, 4))
        ts = TransformedSystem.build(random_system(rng, n, n + 1))
        span = word_span(ts.form)
        R, _ = word_matrix(ts.form.C, ts.form.Cbar, ts.form.D, n)
        assert span.rank == np.linalg.matrix_rank(R, tol=1e-9)
        assert (span.rank, span.depth) == word_matrix_span(ts.form)
    for n in range(1, 5):
        # A rank-1 D of three columns: the span grows from one direction.
        form = TransformedSystem.build(random_system(rng, n, n + 3)).form
        low = BsdeForm(form.C, form.Cbar, form.D[:, :1] @ rng.normal(size=(1, 3)))
        span = word_span(low)
        assert (span.rank, span.depth) == word_matrix_span(low)
        # m = n: D has no columns, so nothing is reached.
        form = TransformedSystem.build(random_system(rng, n, n)).form
        assert form.D.shape == (n, 0)
        span = word_span(form)
        assert (span.rank, span.depth) == (0, 0) == word_matrix_span(form)
        report = decide_form(form, 2 * n)
        assert not report.controllable and (report.rank_R, report.span_depth, report.criteria_agree) == (0, 0, True)
    for trial in range(30):
        # Exactly block-triangular forms: the first k coordinates are invariant, with exact zeros.
        n = 2 + trial % 3
        k = int(rng.integers(1, n))
        form = degenerate_form(rng, n, k)
        span = word_span(form)
        assert span.rank == k
        assert (span.rank, span.depth) == word_matrix_span(form)


SCALES = (1e-30, 1e-20, 1e-16, 1e-12, 1e12, 1e20, 1e30)


@pytest.mark.parametrize("seed", range(5))
def test_the_rank_test_does_not_move_with_the_state_units(seed):
    # x -> s x leaves C and Cbar as they are and scales D by s. The closure's ranges are cut
    # relative to their own matrices, so the rank and depth are the unscaled form's at every s,
    # and the two criteria still agree.
    from stochctrl import BsdeForm
    from stochctrl.criteria import decide_form

    rng = np.random.default_rng([44, seed])
    for n in range(1, 5):
        forms = [TransformedSystem.build(random_system(rng, n, n + 1 + seed % 2)).form]
        if n > 1:
            forms.append(degenerate_form(rng, n, int(rng.integers(1, n))))
        for form in forms:
            span = word_span(form)
            for s in SCALES:
                scaled = BsdeForm(form.C, form.Cbar, s * form.D)
                got = word_span(scaled)
                assert (got.rank, got.depth) == (span.rank, span.depth), s
                report = decide_form(scaled, 2 * n)
                assert report.controllable == (span.rank == n) and report.span_depth == span.depth


def degenerate_form(rng, n, k):
    """Backward form whose word span is confined to a k-dim subspace."""
    from stochctrl import BsdeForm

    def block_upper(rows, cols):
        X = rng.normal(size=(rows, cols))
        X[k:, :k] = 0.0
        return X

    C = block_upper(n, n) + 2.0 * np.eye(n)  # keep it invertible
    Cbar = block_upper(n, n)
    D = rng.normal(size=(n, 2))
    D[k:, :] = 0.0
    return BsdeForm(C=C, Cbar=Cbar, D=D)


def test_rank_iff_invertible_gramian(rng):
    # Two-sided check on a mix of random, low-rank-D and exactly block-triangular (degenerate) draws.
    # Horizon by horizon, range G_N = span{W D : |W| <= N}: at every N <= 2n the numerical rank of G_N is
    # the rank of the words' matrix, so a controllable form's first invertible Gramian (witness_N) is at
    # the closure round where its word span became full (span_depth).
    hits = {True: 0, False: 0}
    for trial in range(60):
        n = int(rng.integers(1, 4))
        if trial % 3 == 1 and n > 1:
            form = degenerate_form(rng, n, int(rng.integers(1, n)))
        else:
            form = TransformedSystem.build(random_system(rng, n, n + 1 + trial % 3)).form
            if trial % 3 == 2:  # D of rank 1 with three columns
                form = BsdeForm(form.C, form.Cbar, form.D[:, :1] @ rng.normal(size=(1, 3)))
        by_rank = word_span(form).rank == form.n
        by_gramian = any(
            gramian_invertible(gramian(form, N))[0] for N in range(2 * form.n + 1)
        )
        assert by_rank == by_gramian
        for N in range(2 * form.n + 1):
            words = word_matrix(form.C, form.Cbar, form.D, N)[0]
            assert np.linalg.matrix_rank(gramian(form, N)) == np.linalg.matrix_rank(words), (trial, N)
        if by_rank:
            report = decide_form(form, 2 * form.n)
            assert report.witness_N == report.span_depth, trial
        hits[by_rank] += 1
    assert hits[True] and hits[False]  # both sides actually exercised


def gramian_margin(G):
    """sigma_min over gramian_invertible's threshold n eps sigma_max (> 1 exactly when invertible)."""
    svals = np.linalg.svd(G, compute_uv=False)
    return svals[-1] / (G.shape[0] * np.finfo(float).eps * svals[0]) if svals[0] else 0.0


def assert_tree_rank_matches_gramian(spec, N):
    by_tree, tree_margin = tree_rank_controllable(spec, N)
    G = gramian(TransformedSystem.build(spec).form, N)
    by_gramian, _ = gramian_invertible(G)
    assert by_tree == by_gramian, (
        f"N = {N}: tree rank says {by_tree} (margin {tree_margin:.3e}), "
        f"Gramian says {by_gramian} (margin {gramian_margin(G):.3e})"
    )


@pytest.mark.parametrize("m_extra", [0, 1])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tree_rank_of_the_plant_matches_the_gramian(seed, n, m_extra):
    # Exact controllability read off the plant itself: on two-point noise every
    # leaf array x(N+1) is reached from x0 = 0 exactly when the Gramian is invertible.
    # Fixed seeds, so no draw sits near either threshold.
    spec = random_system(np.random.default_rng([seed, n, n + m_extra]), n, n + m_extra)
    for N in range(5):
        assert_tree_rank_matches_gramian(spec, N)


def test_tree_rank_of_an_uncontrollable_plant(bench_uncontrollable):
    for N in range(5):
        assert_tree_rank_matches_gramian(bench_uncontrollable, N)
        assert not tree_rank_controllable(bench_uncontrollable, N)[0]


def test_scan_reports_first_witness(bench_full):
    spec, expected = bench_full
    report = decide(spec, N_max=4)
    smin = report.min_singular
    assert gramian_invertible(gramian(TransformedSystem.build(spec).form, expected["witness_N"]))[0]
    assert all(s > 0 for s in smin[expected["witness_N"] :])
    assert report.witness_N == expected["witness_N"]


def test_a_short_window_is_scanned_once(monkeypatch):
    # fullrank_2x3 has its witness at N = 1: a scan asked for N_max = 0 runs on past its
    # window in the same pass over the Gramians, and reports figures for 0..N_max only.
    import stochctrl.criteria as criteria
    from conftest import INSTANCE_DIR
    from stochctrl import parse_instance_file

    passes = []
    sequence = criteria.gramian_sequence
    monkeypatch.setattr(criteria, "gramian_sequence", lambda form, N: passes.append(N) or sequence(form, N))
    report = decide(parse_instance_file(str(INSTANCE_DIR / "fullrank_2x3.json")).system, N_max=0)
    assert len(passes) == 1
    assert report.controllable and report.witness_N == 1 and report.N_max == 0
    assert len(report.min_singular) == 1


@pytest.mark.parametrize("N_max", [0, 3, 4])
def test_an_overflow_past_the_scans_break_is_never_read(N_max):
    # S(j) = 1e(200 + 30 j) I overflows at j = 4. The rank test passes, so the scan reads on to
    # 2 n = 4 for a witness, but it breaks at N_max once it has one (here S(0)): an overflow past
    # the break is not an error; one at a horizon the scan reads is, at that horizon.
    from stochctrl.criteria import decide_form
    from stochctrl.transform import BsdeForm

    form = BsdeForm(C=1e15 * np.eye(2), Cbar=np.zeros((2, 2)), D=1e100 * np.eye(2))
    if N_max == 4:
        with pytest.raises(NonFiniteGramian) as err:
            decide_form(form, N_max)
        assert err.value.horizon == 4
        return
    report = decide_form(form, N_max)
    assert report.controllable and report.witness_N == 0
    assert len(report.min_singular) == N_max + 1 and report.min_singular[0] == 1e200


@pytest.mark.parametrize("N", [1000, 65535, 1048575])
def test_an_overflowing_scan_stops_soon_after_its_first_non_finite_horizon(N, capsys, monkeypatch):
    # fullrank_2x3's Gramian overflows at horizon 856. The recursion checks every FINITE_CHECK-th
    # S(j) and stops at the first non-finite one, so no --N runs it much past 856.
    import stochctrl.criteria as criteria
    from conftest import INSTANCE_DIR
    from stochctrl import parse_instance_file
    from stochctrl.cli import main

    calls = []
    step = criteria.moment_step
    monkeypatch.setattr(criteria, "moment_step", lambda *args: calls.append(1) or step(*args))
    instance = str(INSTANCE_DIR / "fullrank_2x3.json")
    assert main(["analyze", "--instance", instance, "--N", str(N)]) == 6
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: Gramian is not finite at horizon 856; the moment recursion overflows\n")
    assert 856 < len(calls) <= 856 + criteria.FINITE_CHECK
    calls.clear()
    form = TransformedSystem.build(parse_instance_file(instance).system).form
    with pytest.raises(NonFiniteGramian) as err:
        gramian(form, 10**6)
    assert err.value.horizon == 856
    assert 856 < len(calls) <= 856 + criteria.FINITE_CHECK


def test_gramian_rank_is_matrix_rank_of_the_reported_gramian(rng, monkeypatch):
    # decide_form counts the singular values its scan computed above the invertibility threshold,
    # n eps sigma_max, which is matrix_rank's default; it runs no second SVD of G.
    import stochctrl.criteria as criteria

    reports = []
    for trial in range(40):
        n = int(rng.integers(1, 5))
        if trial % 2 and n > 1:
            form = degenerate_form(rng, n, int(rng.integers(1, n)))
        else:
            form = TransformedSystem.build(random_system(rng, n, n + 1)).form
        reports.append(criteria.decide_form(form, int(rng.integers(0, 2 * n + 1))))
    ranks = {r.gramian_rank for r in reports}
    assert [r.gramian_rank for r in reports] == [int(np.linalg.matrix_rank(r.gramian)) for r in reports]
    assert len(ranks) > 2  # full and deficient ranks both exercised

    def refuse(*args, **kwargs):
        raise AssertionError("a second SVD of G")

    monkeypatch.setattr(np.linalg, "matrix_rank", refuse)
    criteria.decide_form(form, 2 * form.n)
