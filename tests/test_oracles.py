"""Vectorized enumeration oracles against the plain-loop oracles they replaced.

The three ``loop_*`` functions below are the package's earlier oracles,
kept verbatim as the reference: one noise path at a time, products
multiplied out with ``itertools.product``. The vectorized versions sum the
same per-path products in another order, so they must agree within a
relative rounding tolerance fixed here, not bit for bit. The package's
one enumeration, ``gramian_oracle``, reads the delay channel from the
form, so it equals each delay route's named oracle bit for bit.
"""
import itertools

import numpy as np
import pytest

from stochctrl import (
    NoiseModel,
    TransformedSystem,
    gramian,
    gramian_oracle,
    input_delay_gramian_oracle,
    random_system,
    state_delay_P,
    state_delay_gramian_oracle,
)
from stochctrl.errors import DimensionMismatch, EnumerationTooLarge
from stochctrl.pathspace import DEFAULT_CAP

RTOL = 1e-12


def loop_gramian_oracle(form, N, noise, cap=DEFAULT_CAP):
    n = form.n
    support = [float(w) for w in noise.support]
    probs = [float(p) for p in noise.probs]
    if len(support) ** (N + 1) > cap:
        raise EnumerationTooLarge(len(support), N, cap)
    G = np.zeros((n, n))
    for i in range(N + 1):
        for path in itertools.product(range(len(support)), repeat=i):
            p = 1.0
            prod = np.eye(n)
            for j in path:
                p *= probs[j]
                prod = prod @ (form.C + support[j] * form.Cbar)
            col = prod @ form.D
            G += p * (col @ col.T)
    return G


def loop_input_delay_gramian_oracle(form, tau, N, noise, cap=DEFAULT_CAP):
    if form.D1 is None:
        raise DimensionMismatch("form has no delayed input channel D1")
    n = form.n
    support = [float(w) for w in noise.support]
    probs = [float(p) for p in noise.probs]
    s = len(support)
    if s ** (N + 1) > cap:
        raise EnumerationTooLarge(s, N, cap)
    cmats = [form.C + w * form.Cbar for w in support]
    Y = form.D1 @ form.D1.T
    G = np.zeros((n, n))
    for i in range(N + 1):
        for path in itertools.product(range(s), repeat=i):
            p = 1.0
            prod = np.eye(n)
            for j in path:
                p *= probs[j]
                prod = prod @ cmats[j]
            col = prod @ form.D
            G += p * (col @ col.T)
        depth = max(0, i - tau)
        for prefix in itertools.product(range(s), repeat=depth):
            p = 1.0
            for j in prefix:
                p *= probs[j]
            Phi = np.zeros((n, n))
            for tail in itertools.product(range(s), repeat=i - depth):
                q = 1.0
                for j in tail:
                    q *= probs[j]
                prod = np.eye(n)
                for j in prefix + tail:
                    prod = prod @ cmats[j]
                Phi += q * prod
            G += p * (Phi @ Y @ Phi.T)
    return G


def loop_state_delay_gramian_oracle(form, d, N, noise, cap=DEFAULT_CAP):
    pseq = state_delay_P(form, N)
    n = form.n
    support = [float(w) for w in noise.support]
    probs = [float(p) for p in noise.probs]
    s = len(support)
    if s ** (N + 1) > cap:
        raise EnumerationTooLarge(s, N, cap)
    cmats = [form.C + w * form.Cbar for w in support]
    G = np.zeros((n, n))
    for j in range(N + 1):
        for path in itertools.product(range(s), repeat=j):
            p = 1.0
            prod = pseq[0]
            for t, dig in enumerate(path):
                p *= probs[dig]
                prod = prod @ cmats[dig] @ pseq[t + 1]
            col = prod @ form.D
            G += p * (col @ col.T)
    return G


def assert_close(G, ref):
    assert np.abs(G - ref).max() <= RTOL * max(1.0, np.abs(ref).max())


LAWS = {"2pt": NoiseModel.rademacher(), "3pt": NoiseModel.symmetric_three_point()}


@pytest.mark.parametrize("free", [1, 0], ids=["D1col", "Dempty"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("law", sorted(LAWS))
def test_vectorized_oracles_match_loop_oracles(law, n, free):
    noise = LAWS[law]
    rng = np.random.default_rng([n, free, len(noise.support)])
    m = n + free
    plain = TransformedSystem.build(random_system(rng, n, m, noise=noise)).form
    lagged_input = {
        tau: TransformedSystem.build(random_system(rng, n, m, noise=noise, tau=tau)).form for tau in (1, 2)
    }
    lagged_state = {
        d: TransformedSystem.build(random_system(rng, n, m, noise=noise, d=d)).form for d in (1, 2)
    }
    for N in range(6):
        assert_close(gramian_oracle(plain, N, noise), loop_gramian_oracle(plain, N, noise))
        for tau, form in lagged_input.items():
            assert_close(
                input_delay_gramian_oracle(form, N, noise),
                loop_input_delay_gramian_oracle(form, tau, N, noise),
            )
        for d, form in lagged_state.items():
            assert_close(
                state_delay_gramian_oracle(form, N, noise),
                loop_state_delay_gramian_oracle(form, d, N, noise),
            )


def test_vectorized_oracles_keep_the_cap(bench_full_ts):
    noise = NoiseModel.rademacher()
    for oracle in (gramian_oracle, loop_gramian_oracle):
        with pytest.raises(EnumerationTooLarge):
            oracle(bench_full_ts.form, 6, noise, cap=64)
        oracle(bench_full_ts.form, 5, noise, cap=64)


@pytest.mark.parametrize("lag", ["tau1", "tau2", "tau3", "tau4", "d1", "d2", "d3"])
@pytest.mark.parametrize("law", sorted(LAWS))
def test_gramian_oracle_reads_the_delay_channel_from_the_form(law, lag):
    # One enumeration serves every route: on a delayed input it adds the
    # conditional-mean terms, on a delayed state the pivots come with the products.
    noise = LAWS[law]
    channel, lag_value = lag[:-1], int(lag[-1])
    named = input_delay_gramian_oracle if channel == "tau" else state_delay_gramian_oracle
    rng = np.random.default_rng([lag_value, len(noise.support), channel == "tau"])
    for n in (1, 2, 3):
        form = TransformedSystem.build(random_system(rng, n, n + 1, noise=noise, **{channel: lag_value})).form
        for N in range(5):
            G = gramian_oracle(form, N, noise)
            assert np.array_equal(G, named(form, N, noise)), (n, N)
            assert_close(G, gramian(form, N))
