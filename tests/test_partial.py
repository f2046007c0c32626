"""Output-map controllability and the rank-deficient block route."""
import numpy as np
import pytest

from stochctrl import (
    NoIntertwiner,
    SingularBlock,
    StructureUnsupported,
    SystemSpec,
    TransformedSystem,
    gramian_invertible,
    intertwine,
    output_form,
    partial_decide,
    reduced_rank_setup,
)
from stochctrl.sampling import random_system
from stochctrl.partial import reduced_form
from crosschecks import word_matrix


def test_intertwine_recovers_compatible_factor(rng):
    for _ in range(10):
        n, l = 4, 2
        H = rng.normal(size=(l, n))
        X1_true = rng.normal(size=(l, l))
        Hplus = H.T @ np.linalg.inv(H @ H.T)
        kernel = np.eye(n) - Hplus @ H
        X = Hplus @ X1_true @ H + kernel @ rng.normal(size=(n, n))
        X1 = intertwine(H, X)
        assert np.linalg.norm(H @ X - X1 @ H) < 1e-10
        np.testing.assert_allclose(X1 @ H, H @ X, atol=1e-9)
        np.testing.assert_allclose(X1, X1_true, atol=1e-9)


def test_intertwine_rejects_incompatible():
    H = np.array([[1.0, 0.0]])
    X = np.array([[0.0, 1.0], [0.0, 0.0]])  # H X = [0 1] has no factor
    with pytest.raises(NoIntertwiner):
        intertwine(H, X)


def test_output_form_benchmark(bench_output):
    spec, expected = bench_output
    ts = TransformedSystem.build(spec)
    form_l = output_form(ts)
    assert form_l.n == 1
    # scalar coefficients pinned by the span row below
    np.testing.assert_allclose(form_l.C, [[1.0]], atol=1e-12)
    np.testing.assert_allclose(form_l.Cbar, [[-2.0]], atol=1e-12)
    np.testing.assert_allclose(form_l.D, [[-1.0]], atol=1e-12)
    R, _ = word_matrix(form_l.C, form_l.Cbar, form_l.D, 2)
    np.testing.assert_allclose(R[0], expected["row"], atol=1e-12)


def test_partial_decide_benchmark(bench_output):
    spec, expected = bench_output
    report = partial_decide(spec, N_max=2)
    assert report.kind == "partial"
    assert report.dim == 1
    assert report.controllable
    np.testing.assert_allclose(report.gramian, expected["G2"], atol=1e-9)


def test_partial_decide_generic_H_fails(rng):
    # a random output map almost surely admits no intertwined factor
    spec = random_system(rng, 3, 4)
    with_h = SystemSpec(
        A=spec.A, B=spec.B, Abar=spec.Abar, Bbar=spec.Bbar, H=rng.normal(size=(1, 3))
    )
    with pytest.raises(NoIntertwiner):
        partial_decide(with_h)


def reduced_spec(A, B, Ab11=0.5, Ab12=0.25):
    return SystemSpec(
        A=np.asarray(A, dtype=float),
        B=np.asarray(B, dtype=float),
        Abar=np.array([[Ab11, Ab12], [1.0, 0.0]]),
        Bbar=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    )


def test_reduced_blocks_against_hand_assembly():
    # A12 = B11 * Ab12 makes the coupling block vanish, so the projection
    # onto the leading coordinate commutes with the assembled inverse.
    spec = reduced_spec(A=[[2.0, 0.5], [1.0, 1.0]], B=[[2.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    form = reduced_form(spec)
    report = reduced_rank_setup(spec, N_max=3)
    script = np.array(
        [
            [spec.A[0, 0] - 2.0 * 0.5, spec.A[0, 1] - 2.0 * 0.25],
            [spec.A[1, 0] - 1.0 * 0.5, spec.A[1, 1] - 1.0 * 0.25],
        ]
    )
    Ablk = np.linalg.inv(script)
    assert form.n == 1 and form.D1 is None and form.C1 is None
    np.testing.assert_allclose(form.C, Ablk[:1, :1], atol=1e-12)
    np.testing.assert_allclose(form.Cbar, (-Ablk @ spec.B[:, :1])[:1], atol=1e-12)
    np.testing.assert_allclose(form.D, (-Ablk @ spec.B[:, 1:])[:1], atol=1e-12)
    assert report.kind == "reduced"
    assert report.dim == 1
    assert report.controllable  # D = [-1, 0] spans the line


def test_reduced_singular_block():
    # first block row of the script matrix vanishes
    spec = reduced_spec(A=[[1.0, 0.5], [1.0, 1.0]], B=[[2.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    with pytest.raises(SingularBlock):
        reduced_rank_setup(spec)


def test_a_script_A_block_is_singular_exactly_where_gramian_invertible_calls_it_singular():
    # B's first column is 0, so the script-A block is A = diag(4, sigma), whose singular values are exact.
    # sigma sits just above and just below the cut 2 eps 4, so a check by any other rule accepts or refuses
    # a block that gramian_invertible does not.
    cut = 2 * np.finfo(float).eps * 4.0
    for sigma, want in ((cut * (1 + 2.0**-20), True), (cut * (1 - 2.0**-20), False)):
        A = np.diag([4.0, sigma])
        assert gramian_invertible(A)[0] == want
        spec = reduced_spec(A=A, B=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        if want:
            assert reduced_form(spec).C.tolist() == [[0.25]]
        else:
            with pytest.raises(SingularBlock, match="^script-A block matrix has min singular value .*; not invertible$"):
                reduced_form(spec)


def test_reduced_needs_intertwiner():
    # nonzero coupling block leaves a projection mismatch
    spec = reduced_spec(A=[[2.0, 1.0], [1.0, 1.0]], B=[[2.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    with pytest.raises(NoIntertwiner):
        reduced_rank_setup(spec)


def test_reduced_uncontrollable_when_free_block_vanishes():
    spec = reduced_spec(A=[[2.0, 0.5], [1.0, 1.0]], B=[[2.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    report = reduced_rank_setup(spec, N_max=3)
    assert not report.controllable
    assert report.witness_N is None


def test_reduced_form_refuses_a_full_rank_system(rng):
    with pytest.raises(StructureUnsupported, match="system is full rank; use the standard route"):
        reduced_form(random_system(rng, 2, 3))
