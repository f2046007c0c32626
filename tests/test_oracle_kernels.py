"""The enumeration oracle's matmul kernels agree with their einsum and Kronecker forms.

``pathspace.path_products`` stores each level as node columns and steps
it with one matmul, ``weighted_gram`` forms a probability-weighted Gram
as one matmul per block of nodes, ``prefix_means`` averages continuations
with one matrix-vector product or one matmul,
``expected_terminal_product`` weights the leaves with one matmul, and
``PathTree.node_probs`` takes outer products. Each is checked
against its reference in ``tests/crosschecks.py`` on every route (full,
output, reduced, tau 1/2, d 1/2) under both noise laws and a lopsided
two-point law, for N <= 8.

Both forms sum the same terms in a different order. A step of the
products sums n terms per entry, so it may differ by 8 eps times its
entrywise bound sum |coefficient| |input|. A kernel that also sums over
L nodes may differ by (8 + L) eps times that bound, since recursive
summation of L terms can round by L eps in either form. Node
probabilities are products in the same order, so they are equal bit for bit.
At two-point N = 16 the oracle's ``tracemalloc`` peak stays within its two
deepest levels plus a few ``BLOCK_ENTRIES`` blocks, on the full route and
with tau = 2 or d = 2.
Source scans keep the package's kernels this way: no einsum; no
``lift`` or ``at_depth`` defined or called and no ``repeat`` call, so no
coarse value is copied onto finer nodes; and no
``functools.cached_property``, so reading an attribute computes nothing.
A last scan holds the package to ``errors.py``'s promise: every ``raise``
names a :class:`StochctrlError` class or re-raises.
"""
import ast
import pathlib
import tracemalloc

import numpy as np
import pytest

from stochctrl import (
    NoiseModel,
    PathTree,
    errors,
    expected_terminal_product,
    gramian_oracle,
    parse_instance_file,
    validate,
)
from stochctrl.cli import ROUTES
from stochctrl.partial import reduced_form
from stochctrl.pathspace import BLOCK_ENTRIES, path_products, prefix_means, state_delay_P, weighted_gram
from stochctrl.sampling import random_transformed
from conftest import INSTANCE_DIR
from crosschecks import (
    einsum_children,
    einsum_prefix_means,
    einsum_terminal_product,
    einsum_weighted_gram,
    kron_node_probs,
)
from test_partial import reduced_spec

EPS = np.finfo(float).eps
# Both named laws, plus a two-point law with unequal weights, on which weights taken in the wrong node order show.
LAWS = {
    "two-point": NoiseModel.rademacher(),
    "three-point": NoiseModel.symmetric_three_point(),
    "lopsided": NoiseModel(support=(-2.0, 0.5), probs=(0.2, 0.8)),
}
LAGS = {"full": {}, "tau=1": {"tau": 1}, "tau=2": {"tau": 2}, "d=1": {"d": 1}, "d=2": {"d": 2}}
ROUTE_IDS = ["full", "output", "reduced", "tau=1", "tau=2", "d=1", "d=2"]
N_MAX = 8


def route_form(rng, noise, route):
    """The output route's form of the bundled instance, a rank-deficient system's reduced form,
    or a random draw on the full and delay routes."""
    if route == "output":
        return ROUTES["partial"].form(validate(parse_instance_file(INSTANCE_DIR / "output_1of2.json").system))
    if route == "reduced":
        return reduced_form(reduced_spec(A=[[2.0, 0.5], [1.0, 1.0]], B=[[2.0, 1.0, 0.0], [1.0, 0.0, 1.0]]))
    return random_transformed(rng, 3, 4, noise=noise, **LAGS[route]).form


def cases(seed, route, law):
    """(tree, form, levels of path_products, pivots or None) for N = 0..N_MAX."""
    rng = np.random.default_rng(seed)
    noise = LAWS[law]
    for N in range(N_MAX + 1):
        form = route_form(rng, noise, route)
        tree = PathTree(noise, N)
        pivots = None if form.C1 is None else state_delay_P(form, N)
        yield tree, form, list(path_products(form, tree.support, N)), pivots


@pytest.mark.parametrize("law", sorted(LAWS))
def test_node_probs_equal_the_kron_powers(law):
    tree = PathTree(LAWS[law], 19 if len(LAWS[law].support) == 2 else 11)
    for depth in range(tree.horizon + 2):
        assert np.array_equal(tree.node_probs(depth), kron_node_probs(tree, depth)), depth


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("route", ROUTE_IDS)
def test_path_products_step_like_the_einsum_form(law, route):
    for tree, form, levels, pivots in cases(21, route, law):
        cmats = form.stage_factors(tree.support)
        assert np.array_equal(levels[0], np.eye(form.n)[None] if pivots is None else pivots[0][None])
        for k in range(tree.horizon):
            pivot = None if pivots is None else pivots[k + 1]
            want = einsum_children(levels[k], cmats, pivot)
            bound = einsum_children(np.abs(levels[k]), np.abs(cmats), None if pivot is None else np.abs(pivot))
            assert levels[k + 1].shape == want.shape
            assert np.all(np.abs(levels[k + 1] - want) <= 8 * EPS * bound), (tree.horizon, k)


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("route", ROUTE_IDS)
def test_weighted_gram_and_prefix_means_match_the_einsum_forms(law, route):
    for tree, form, levels, _ in cases(22, route, law):
        for i, prods in enumerate(levels):
            probs = tree.node_probs(i)
            got = weighted_gram(probs, prods, form.D)
            bound = einsum_weighted_gram(probs, np.abs(prods) @ np.abs(form.D))
            want = einsum_weighted_gram(probs, prods @ form.D)
            assert np.all(np.abs(got - want) <= (8 + len(probs)) * EPS * bound), (tree.horizon, i)
            if form.D1 is None:
                continue
            depth = max(0, i - form.tau)
            tail = tree.node_probs(i - depth)
            means = prefix_means(prods, tail)
            bound = einsum_prefix_means(np.abs(prods), tail)
            assert np.all(np.abs(means - einsum_prefix_means(prods, tail)) <= (8 + len(tail)) * EPS * bound)
            probs = tree.node_probs(depth)
            got = weighted_gram(probs, means, form.D1)
            bound = einsum_weighted_gram(probs, np.abs(means) @ np.abs(form.D1))
            want = einsum_weighted_gram(probs, means @ form.D1)
            assert np.all(np.abs(got - want) <= (8 + len(probs)) * EPS * bound), (tree.horizon, i)


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("route", ROUTE_IDS)
def test_expected_terminal_product_matches_the_einsum_form(law, route):
    rng = np.random.default_rng(23)
    noise = LAWS[law]
    for N in range(N_MAX):
        form = route_form(rng, noise, route)
        tree = PathTree(noise, N)
        *_, prods = path_products(form, tree.support, N + 1)
        leaf_probs = tree.node_probs(N + 1)
        terminal = rng.normal(size=(len(prods), form.n)) * 10.0 ** rng.uniform(-3, 3, size=(len(prods), form.n))
        got = expected_terminal_product(tree, form, terminal)
        bound = einsum_terminal_product(leaf_probs, np.abs(prods), np.abs(terminal))
        want = einsum_terminal_product(leaf_probs, prods, terminal)
        assert np.all(np.abs(got - want) <= (8 + len(leaf_probs)) * EPS * bound), N


@pytest.mark.parametrize("route", ["full", "tau=2", "d=2"])
def test_the_oracle_holds_two_levels_and_a_few_blocks(route):
    # Two-point N = 16, n 3: levels 15 and 16 of path_products are alive while level 16 is built.
    # Every other temporary (a block of weighted_gram, a level's prefix means, node probabilities)
    # stays within a few BLOCK_ENTRIES blocks.
    noise, N, n = LAWS["two-point"], 16, 3
    form = random_transformed(np.random.default_rng(5), n, 4, noise=noise, **LAGS[route]).form
    tracemalloc.start()
    try:
        gramian_oracle(form, N, noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    levels = (2**(N - 1) + 2**N) * n * n * 8
    assert peak <= levels + 4 * BLOCK_ENTRIES * 8, (peak, levels)


def test_no_einsum_in_the_package():
    package = pathlib.Path(__file__).resolve().parent.parent / "src" / "stochctrl"
    sources = sorted(package.glob("*.py"))
    assert sources
    assert [path.name for path in sources if "einsum" in path.read_text(encoding="utf-8")] == []


def _package_trees() -> dict:
    package = pathlib.Path(__file__).resolve().parent.parent / "src" / "stochctrl"
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    assert trees
    return trees


def _called_name(call: ast.Call) -> str:
    """``f`` of ``f(...)`` or ``x.f(...)``; "" for any other callee."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else ""


def test_no_kernel_lifts_coarse_values_per_node():
    # A coarse value is multiplied at its own depth (pathspace._add_product): the package defines and calls
    # no lift or at_depth and repeats no rows. The literal references that do lift live in tests/crosschecks.py.
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees().items()
        for node in ast.walk(tree)
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in ("lift", "at_depth"))
        or (isinstance(node, ast.Call) and _called_name(node) in ("lift", "at_depth", "repeat"))
    ]
    assert found == []


def test_every_raise_names_a_package_error():
    # errors.py promises that every deliberate error derives from StochctrlError. A raise names a class of
    # stochctrl.errors or re-raises; the CLI's argparse type check and its exit are argparse's and Python's own.
    own = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, errors.StochctrlError)}
    protocol = {("cli.py", "ArgumentTypeError"), ("cli.py", "SystemExit")}
    found = []
    for name, tree in _package_trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:  # a bare raise re-raises
                continue
            exc = node.exc
            raised = _called_name(exc) if isinstance(exc, ast.Call) else exc.id if isinstance(exc, ast.Name) else ""
            if raised not in own and (name, raised) not in protocol:
                found.append(f"{name}:{node.lineno} {ast.unparse(exc)[:60]}")
    assert found == []


def test_no_cached_property_in_the_package():
    # Reading an attribute computes nothing: no functools.cached_property, by any import.
    uses = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees().items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "cached_property")
        or (isinstance(node, ast.Name) and node.id == "cached_property")
        or (isinstance(node, ast.alias) and node.name == "cached_property")
    ]
    assert uses == []
