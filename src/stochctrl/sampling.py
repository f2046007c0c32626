"""Random instances for property tests and the benchmark.

The draws are built backward-first: pick well-conditioned backward-form
coefficients, then invert the transform algebra to recover the forward
matrices. That keeps stage products and Gramians at modest magnitudes,
so enumeration oracles agree with the closed forms near machine
precision; generic i.i.d. entries would routinely produce Gramians in
the 1e6 range where absolute comparisons are meaningless. Everything
takes an explicit ``numpy.random.Generator`` so runs are reproducible.
"""
from __future__ import annotations

import numpy as np

from .criteria import gramian, gramian_invertible
from .errors import StochctrlError
from .model import NoiseModel, SystemSpec
from .pathspace import AdaptedProcess, PathTree
from .transform import BsdeForm, TransformedSystem, compute_M

BBAR_MIN_SV = 0.3
BBAR_MAX_COND = 20.0
COND_CAP = 1e6


def _well_conditioned(rng: np.random.Generator, n: int, lo: float = 0.8, hi: float = 1.6) -> np.ndarray:
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q1 @ np.diag(rng.uniform(lo, hi, size=n)) @ q2


def _spectral_scaled(rng: np.random.Generator, shape: tuple[int, int], norm: float) -> np.ndarray:
    if min(shape) == 0:
        return np.zeros(shape)
    X = rng.normal(size=shape)
    return norm * X / np.linalg.svd(X, compute_uv=False)[0]


def random_system(
    rng: np.random.Generator,
    n: int,
    m: int,
    *,
    noise: NoiseModel | None = None,
    tau: int | None = None,
    d: int | None = None,
    horizon_max: int | None = None,
    max_tries: int = 200,
) -> SystemSpec:
    """Draw a full-rank system, optionally with one delay channel.

    Backward coefficients are prescribed (inverse pencil spectrum in
    [1, 2], diffusion factor at spectral norm 0.7, input columns at 1,
    lagged-state factor at 0.2 so the delayed P recursion stays bounded
    at any horizon) and mapped to (A, B, Abar, Bbar); only the
    noise-input matrix is rejection-sampled for conditioning.
    """
    if m < n:
        raise ValueError(f"need m >= n for a full-rank Bbar, got n = {n}, m = {m}")
    if noise is None:
        noise = NoiseModel.rademacher()
    for _ in range(max_tries):
        Bbar = rng.normal(size=(n, m))
        sv = np.linalg.svd(Bbar, compute_uv=False)
        if sv[-1] < BBAR_MIN_SV or sv[0] / sv[-1] > BBAR_MAX_COND:
            continue
        M = compute_M(Bbar)
        S = _well_conditioned(rng, n, 1.0, 2.0)  # the pencil A - L Abar, inverse of C
        Cbar = _spectral_scaled(rng, (n, n), 0.7)
        D = _spectral_scaled(rng, (n, m - n), 1.0)
        Abar = rng.normal(size=(n, n))
        L = -S @ Cbar
        F = -S @ D
        spec = SystemSpec(
            A=S + L @ Abar,
            B=np.hstack([L, F]) @ np.linalg.inv(M),
            Abar=Abar,
            Bbar=Bbar,
            noise=noise,
            horizon_max=horizon_max,
            B1=-S @ _spectral_scaled(rng, (n, m), 1.0) if tau is not None else None,
            tau=tau,
            A1=-S @ _spectral_scaled(rng, (n, n), 0.2) if d is not None else None,
            d=d,
        )
        try:
            TransformedSystem.build(spec)
        except StochctrlError:
            continue
        return spec
    raise RuntimeError(f"no acceptable system in {max_tries} draws")


def random_transformed(rng: np.random.Generator, n: int, m: int, **kwargs) -> TransformedSystem:
    return TransformedSystem.build(random_system(rng, n, m, **kwargs))


def random_controllable(
    rng: np.random.Generator,
    n: int,
    m: int,
    N: int,
    *,
    cond_cap: float = COND_CAP,
    max_tries: int = 200,
    **kwargs,
) -> TransformedSystem:
    """Draw a system whose Gramian at horizon N is comfortably invertible.

    The conditioning cap keeps synthesized controllers' closed-loop
    errors well inside the test tolerances.
    """
    for _ in range(max_tries):
        ts = random_transformed(rng, n, m, **kwargs)
        G = gramian(ts.form, N)
        ok, _ = gramian_invertible(G)
        if not ok:
            continue
        if np.linalg.cond(G) > cond_cap:
            continue
        return ts
    raise RuntimeError(f"no controllable system in {max_tries} draws")


def random_x0(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * rng.normal(size=n)


def random_free_input(
    rng: np.random.Generator,
    tree: PathTree,
    dim: int,
    scale: float = 1.0,
) -> AdaptedProcess:
    """Adapted process with independent values at every tree node."""
    vals = {k: scale * rng.normal(size=(tree.n_nodes(k), dim)) for k in range(tree.horizon + 1)}
    return AdaptedProcess(tree, vals, {k: k for k in vals})


def random_attainable_terminal(
    rng: np.random.Generator,
    tree: PathTree,
    form: BsdeForm,
    scale: float = 1.0,
) -> np.ndarray:
    """Terminal leaf array that the homogeneous backward equation can reach.

    Runs that equation forward: x(k+1) = C^{-1}(x(k) - Cbar z(k)) + w(k) z(k)
    with a random start and random adapted z, so membership holds by
    construction whatever the noise law.
    """
    n = form.n
    Cinv = np.linalg.inv(form.C)
    x = scale * rng.normal(size=(1, n))
    for k in range(tree.horizon + 1):
        z = scale * rng.normal(size=(tree.n_nodes(k), n))
        a = (x - z @ form.Cbar.T) @ Cinv.T
        x = (a[:, None, :] + tree.support[None, :, None] * z[:, None, :]).reshape(-1, n)
    return x
