"""Shared fixtures: benchmark systems and a path-by-path reference simulator.

The benchmark values frozen here were computed with the enumeration
oracles in this suite and cross-checked against the closed forms; tests
treat them as regression pins, not as derivations.
"""
from __future__ import annotations

import io
import itertools
from pathlib import Path

import numpy as np
import pytest

from stochctrl import NoiseModel, SystemSpec, TransformedSystem, write_controller_csv

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# 2-state, 3-input system with an invertible noise-input block and a
# known two-step Gramian; the bundled fullrank_2x3.json carries the same data.
@pytest.fixture
def bench_full():
    spec = SystemSpec(
        A=np.array([[1.0, 1.0], [-1.0, -2.0]]),
        B=np.array([[1.0, 2.0, -2.0], [1.0, 2.0, -3.0]]),
        Abar=np.array([[1.0, 2.0], [0.0, 1.0]]),
        Bbar=np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -2.0]]),
        M=np.array([[1.0, -1.0, 2.0], [0.0, 1.0, -2.0], [0.0, 0.0, -1.0]]),
    )
    expected = {
        "G2": np.array([[2.04296875, -0.703125], [-0.703125, 0.296875]]),
        "witness_N": 1,
        "rank_R": 2,
        "x0": np.array([3.0, -1.0]),
    }
    return spec, expected


# Same shape with a scalar output map H; the span row and the scalar
# output Gramian at N = 2 are pinned.
@pytest.fixture
def bench_output():
    spec = SystemSpec(
        A=np.array([[1.0, 2.0], [2.0, 1.0]]),
        B=np.array([[1.0, 2.0, -1.0], [1.0, 2.0, 0.0]]),
        Abar=np.eye(2),
        Bbar=np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]]),
        M=np.array([[1.0, -1.0, -1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]),
        H=np.array([[1.0, 1.0]]),
    )
    expected = {
        "G2": np.array([[31.0]]),
        "row": np.array([-1.0, -1.0, 2.0, -1.0, -4.0, 2.0, 2.0]),
    }
    return spec, expected


@pytest.fixture
def bench_input_delay():
    spec = SystemSpec(
        A=np.array([[1.0, -1.0], [0.0, 1.0]]),
        B=np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
        Abar=np.array([[1.0, 2.0], [1.0, 1.0]]),
        Bbar=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        B1=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]),
        tau=1,
    )
    expected = {
        "G2": np.array(
            [[1.0432098765432101, -0.40740740740740744], [-0.40740740740740744, 0.36419753086419748]]
        ),
        "x0": np.array([1.0, 1.0]),
    }
    return spec, expected


@pytest.fixture
def bench_state_delay():
    spec = SystemSpec(
        A=np.array([[2.0, 0.0], [0.0, -1.0]]),
        B=np.array([[1.0, -1.0, 2.0], [1.0, 1.0, 0.0]]),
        Abar=np.array([[1.0, 2.0], [0.0, 2.0]]),
        Bbar=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        A1=np.eye(2),
        d=1,
    )
    expected = {
        "G2": np.array(
            [[5.9871137409598933, -1.5345841673363039], [-1.5345841673363041, 0.46110679693256462]]
        ),
        "P0": np.array([[2.0 / 3.0, 0.0], [4.0 / 81.0, 26.0 / 27.0]]),
        "P1": np.array([[0.5, 0.0], [1.0 / 13.0, 25.0 / 26.0]]),
        "x0": np.array([0.0, 1.0]),
    }
    return spec, expected


# Backward form C = I, Cbar upper triangular, D = e1: every word keeps
# the span inside e1, so no horizon has an invertible Gramian.
@pytest.fixture
def bench_uncontrollable():
    return SystemSpec(
        A=np.array([[0.5, -0.25], [0.0, 0.5]]),
        B=np.array([[-0.5, -0.25, -1.0], [0.0, -0.5, 0.0]]),
        Abar=np.eye(2),
        Bbar=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    )


@pytest.fixture
def bench_full_ts(bench_full):
    return TransformedSystem.build(bench_full[0])


def uniform_noise(s: int) -> NoiseModel:
    """Equally likely, evenly spaced points, scaled to unit variance: a noise law for any support size."""
    support = np.linspace(-1.0, 1.0, s)
    return NoiseModel((support / np.sqrt(np.mean(support**2))).tolist(), [1.0 / s] * s)


def table_text(ctrl) -> str:
    """The controller's table as ``write_controller_csv`` writes it."""
    buf = io.StringIO()
    write_controller_csv(buf, ctrl)
    return buf.getvalue()


def simulate_paths(spec: SystemSpec, x0, u_fn, N: int, u1_fn=None):
    """Reference plant run with plain loops, one noise path at a time.

    ``u_fn(k, prefix)`` gets the noise digits seen before stage k and
    returns the input vector; ``u1_fn`` likewise for the delayed channel
    (negative stages allowed). Returns {full path: terminal state}.
    Deliberately free of any tree/vector machinery under test.
    """
    support = spec.noise.support
    out = {}
    for path in itertools.product(range(len(support)), repeat=N + 1):
        xs = [np.asarray(x0, dtype=float)]
        for k in range(N + 1):
            u = np.asarray(u_fn(k, path[:k]), dtype=float)
            w = support[path[k]]
            x = spec.A @ xs[k] + spec.B @ u + w * (spec.Abar @ xs[k] + spec.Bbar @ u)
            if spec.B1 is not None:
                u1 = np.asarray(u1_fn(k - spec.tau, path[: max(0, k - spec.tau)]), dtype=float)
                x = x + spec.B1 @ u1
            if spec.A1 is not None:
                lag = k - spec.d
                x = x + spec.A1 @ (xs[lag] if lag >= 0 else np.zeros(spec.n))
            xs.append(x)
        out[path] = xs[N + 1]
    return out


def path_expectation(noise: NoiseModel, values: dict):
    """Probability-weighted sum over a {path: vector} map."""
    total = None
    for path, vec in values.items():
        p = 1.0
        for digit in path:
            p *= noise.probs[digit]
        total = p * vec if total is None else total + p * vec
    return total
