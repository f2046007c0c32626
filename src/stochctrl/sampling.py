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
from .errors import RankDeficient, StochctrlError
from .model import NoiseModel, SystemSpec
from .pathspace import PathTree, _add_product
from .transform import BsdeForm, TransformedSystem, compute_M

BBAR_MIN_SV = 0.3
BBAR_MAX_COND = 20.0
COND_CAP = 1e6


def _well_conditioned(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """A random n x n matrix with singular values drawn uniformly from [lo, hi]."""
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
    max_tries: int = 200,
) -> SystemSpec:
    """Draw a full-rank system, optionally with one delay channel.

    Backward coefficients are prescribed (inverse pencil spectrum in
    [1, 2], diffusion factor at spectral norm 0.7, input columns at 1,
    lagged-state factor at 0.2 so the delayed P recursion stays bounded
    at any horizon) and mapped to (A, B, Abar, Bbar); only the
    noise-input matrix is rejection-sampled for conditioning.

    That screen (sigma_min(Bbar) >= ``BBAR_MIN_SV``, cond(Bbar) <=
    ``BBAR_MAX_COND``) passes fewer Gaussian draws as n grows. Measured at
    m = n + 1, seeds 0-9: a draw for every seed at n = 16, for 8 at
    n = 32, and for none at n = 48 or n = 64, each of those refused after
    ``max_tries`` = 200 tries with :class:`StochctrlError`.
    """
    if m < n:
        raise RankDeficient(f"need m >= n for a full-rank Bbar, got n = {n}, m = {m}")
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
    raise StochctrlError(f"no acceptable system in {max_tries} draws")


def random_transformed(rng: np.random.Generator, n: int, m: int, **kwargs) -> TransformedSystem:
    return TransformedSystem.build(random_system(rng, n, m, **kwargs))


def random_controllable(
    rng: np.random.Generator,
    n: int,
    m: int,
    N: int,
    *,
    max_tries: int = 200,
    **kwargs,
) -> TransformedSystem:
    """Draw a system whose Gramian at horizon N is comfortably invertible.

    The Gramian's condition number must stay within ``COND_CAP``, which
    keeps synthesized controllers' closed-loop errors well inside the
    test tolerances; ``kwargs`` go to :func:`random_system`. The screen
    reads the Gramian without the delay channel, so a draw does not
    depend on its lag.
    """
    for _ in range(max_tries):
        ts = random_transformed(rng, n, m, **kwargs)
        G = gramian(BsdeForm(ts.form.C, ts.form.Cbar, ts.form.D), N)
        ok, _ = gramian_invertible(G)
        if not ok:
            continue
        if np.linalg.cond(G) > COND_CAP:
            continue
        return ts
    raise StochctrlError(f"no controllable system in {max_tries} draws")


def random_x0(rng: np.random.Generator, n: int) -> np.ndarray:
    """A start state of n independent standard normal entries."""
    return rng.normal(size=n)


def random_free_input(
    rng: np.random.Generator,
    tree: PathTree,
    dim: int,
) -> dict[int, np.ndarray]:
    """Levels of stages 0..N, stage k at depth k, with independent standard normal values at every tree node."""
    return {k: rng.normal(size=(tree.n_nodes(k), dim)) for k in range(tree.horizon + 1)}


def random_attainable_terminal(
    rng: np.random.Generator,
    tree: PathTree,
    form: BsdeForm,
    scale: float = 1.0,
) -> np.ndarray:
    """Terminal leaf array that the homogeneous backward equation can reach.

    Runs that equation forward:
    x(k+1) = C^{-1}(x(k) - Cbar z(k) - C1 x(k-d)) + w(k) z(k), the C1 term
    only on a delayed state and from stage d on (earlier states are zero),
    multiplied at the lag's own depth; with a random start and random
    adapted z, so membership holds by construction whatever the noise law.
    """
    n, d = form.n, form.d or 0
    Cinv = np.linalg.inv(form.C)
    xs = {0: scale * rng.normal(size=(1, n))}
    for k in range(tree.horizon + 1):
        z = scale * rng.normal(size=(tree.n_nodes(k), n))
        a = xs[k] - z @ form.Cbar.T
        if form.C1 is not None and k >= d:
            _add_product(a, xs[k - d], -form.C1.T)
        a = a @ Cinv.T
        xs[k + 1] = (a[:, None, :] + tree.support[None, :, None] * z[:, None, :]).reshape(-1, n)
        xs.pop(k - d, None)  # x(k - d) acts last at stage k
    return xs[tree.horizon + 1]
