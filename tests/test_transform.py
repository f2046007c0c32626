"""Input reorganization: defining identity, rejection paths, invariance."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochctrl import (
    BadUserM,
    RankDeficient,
    SingularPencil,
    StochctrlError,
    SystemSpec,
    TransformedSystem,
    compute_M,
    decide,
    gramian_invertible,
    sampling,
    validate,
)
from stochctrl.sampling import random_controllable, random_system, random_transformed
from crosschecks import reconstruct_u, split_u


def identity_gap(bbar, M):
    n, m = bbar.shape
    want = np.hstack([np.eye(n), np.zeros((n, m - n))])
    return np.abs(bbar @ M - want).max()


def test_constructed_M_satisfies_identity(rng):
    for _ in range(50):
        n = int(rng.integers(1, 5))
        m = n + int(rng.integers(0, 3))
        bbar = rng.normal(size=(n, m))
        if np.linalg.svd(bbar, compute_uv=False)[-1] < 1e-6:
            continue
        M = compute_M(bbar)
        assert identity_gap(bbar, M) < 1e-9
        assert np.linalg.cond(M) < 1e12


def test_user_M_checked(bench_full):
    spec, _ = bench_full
    assert identity_gap(spec.Bbar, compute_M(spec.Bbar, spec.M)) == 0.0
    bad = spec.M.copy()
    bad[0, 0] += 1e-6  # violates the identity well past the tolerance
    with pytest.raises(BadUserM):
        compute_M(spec.Bbar, bad)
    with pytest.raises(BadUserM):
        compute_M(spec.Bbar, np.zeros((3, 3)))
    with pytest.raises(BadUserM, match=r"^M must be 3 x 3, got \(2, 2\)$"):
        compute_M(spec.Bbar, np.eye(2))


def test_a_user_M_is_singular_exactly_where_gramian_invertible_calls_it_singular():
    # M = diag(4, 0.5, sigma) has exact singular values, and Bbar M = [I 0] holds exactly. sigma sits just
    # above and just below the cut 3 eps 4, so a check by any other rule accepts or refuses an M that
    # gramian_invertible does not.
    bbar = np.array([[0.25, 0.0, 0.0], [0.0, 2.0, 0.0]])
    cut = 3 * np.finfo(float).eps * 4.0
    for sigma, want in ((cut * (1 + 2.0**-20), True), (cut * (1 - 2.0**-20), False)):
        M = np.diag([4.0, 0.5, sigma])
        assert gramian_invertible(M)[0] == want
        if want:
            np.testing.assert_array_equal(compute_M(bbar, M), M)
        else:
            with pytest.raises(BadUserM, match="^M is numerically singular$"):
                compute_M(bbar, M)


def test_rank_deficient_Bbar_rejected():
    with pytest.raises(RankDeficient):
        compute_M(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]))
    # a validated reduced-rank system takes the reduced route, not the standard transform
    reduced = validate(SystemSpec(A=np.eye(2), B=np.array([[0.1, 0.2, 0.3], [0.0, 0.1, -0.2]]),
                                  Abar=np.array([[0.5, 0.25], [1.0, 0.0]]),
                                  Bbar=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])))
    assert not reduced.full_rank
    with pytest.raises(RankDeficient, match="^standard transform requires rank"):
        TransformedSystem.build(reduced)


def test_wide_requirement(rng):
    with pytest.raises(RankDeficient):
        compute_M(np.ones((3, 2)))
    with pytest.raises(RankDeficient, match="need m >= n"):
        random_system(rng, 3, 2)


def test_exhausted_draws_raise_a_package_error(rng):
    with pytest.raises(StochctrlError, match="no acceptable system in 0 draws"):
        random_system(rng, 2, 3, max_tries=0)
    with pytest.raises(StochctrlError, match="no controllable system in 0 draws"):
        random_controllable(rng, 2, 3, 2, max_tries=0)


def test_a_horizon_too_short_for_the_free_inputs_is_refused_before_any_draw(rng):
    # n = 32, m = 33, N = 4: G_4's rank is at most 1 + 2 + 4 + 8 + 16 = 31 < 32 for every draw.
    state = rng.bit_generator.state
    with pytest.raises(StochctrlError, match=r"at N = 4: .* \(m - n\)\(2\^\(N\+1\) - 1\) = 31 < n") as info:
        random_controllable(rng, 32, 33, 4)
    assert "n = 32, m = 33" in str(info.value)
    assert rng.bit_generator.state == state
    with pytest.raises(StochctrlError, match="= 0 < n"):
        random_controllable(rng, 2, 2, 6)
    with pytest.raises(RankDeficient, match="need m >= n"):
        random_controllable(rng, 3, 2, 2)


def test_a_system_draw_that_gives_up_names_the_gramian_screens_rejections(rng, monkeypatch):
    # The Gramian screen rejects two draws; then random_system gives up, and its error says so.
    draws = iter([random_transformed(rng, 2, 3), random_transformed(rng, 2, 3)])

    def transformed(*args, **kwargs):
        for ts in draws:
            return ts
        raise StochctrlError("no acceptable system in 200 draws")

    monkeypatch.setattr(sampling, "random_transformed", transformed)
    monkeypatch.setattr(sampling, "gramian_invertible", lambda G: (False, 0.0))
    with pytest.raises(StochctrlError, match=r"^no acceptable system in 200 draws, after the Gramian screen at N = 2 "
                                             r"rejected 2 draws$"):
        random_controllable(rng, 2, 3, 2)


def test_singular_pencil_detected():
    # L = 0 here, so the pencil is A itself; make A singular.
    spec = SystemSpec(
        A=np.array([[1.0, 1.0], [1.0, 1.0]]),
        B=np.zeros((2, 3)),
        Abar=np.eye(2),
        Bbar=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    )
    with pytest.raises(SingularPencil):
        TransformedSystem.build(spec)


def test_split_reconstruct_roundtrip(bench_full_ts, rng):
    ts = bench_full_ts
    for _ in range(10):
        u = rng.normal(size=3)
        q, v = split_u(ts, u)
        np.testing.assert_allclose(reconstruct_u(ts, q, v), u, atol=1e-12)
    batch = rng.normal(size=(5, 3))
    q, v = split_u(ts, batch)
    np.testing.assert_allclose(reconstruct_u(ts, q, v), batch, atol=1e-12)


def test_backward_form_identities(bench_full_ts):
    ts = bench_full_ts
    spec, form = ts.spec, ts.form
    L, F = np.hsplit(spec.B @ ts.M, [spec.n])  # B M = [L F]
    np.testing.assert_allclose(form.C @ (spec.A - L @ spec.Abar), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(form.Cbar, -form.C @ L, atol=1e-12)
    np.testing.assert_allclose(form.D, -form.C @ F, atol=1e-12)


def test_verdict_ignores_M_source(bench_full):
    spec, _ = bench_full
    with_user = decide(spec)
    without = decide(
        SystemSpec(A=spec.A, B=spec.B, Abar=spec.Abar, Bbar=spec.Bbar)
    )
    assert with_user.transform_source == "user"
    assert without.transform_source == "constructed"
    assert with_user.controllable == without.controllable
    assert with_user.rank_R == without.rank_R


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_verdict_invariant_over_M_family(seed):
    # Any M' = M [[I, 0], [K, R]] with R invertible still sends Bbar to
    # [I 0]; the verdict must not depend on which member is used.
    rng = np.random.default_rng(seed)
    spec = random_system(rng, 2, 3)
    base = decide(spec)
    M = compute_M(spec.Bbar)
    K = rng.normal(size=(1, 2))
    R = np.array([[np.sign(rng.normal()) * rng.uniform(0.5, 2.0)]])
    block = np.block([[np.eye(2), np.zeros((2, 1))], [K, R]])
    reparam = SystemSpec(A=spec.A, B=spec.B, Abar=spec.Abar, Bbar=spec.Bbar, M=M @ block)
    alt = decide(reparam)
    assert alt.controllable == base.controllable
    assert alt.rank_R == base.rank_R
