"""Noise law checks, structural validation, and the instance file format."""
import json

import numpy as np
import pytest

from stochctrl import (
    DimensionMismatch,
    NoiseModel,
    NoiseMomentViolation,
    ProblemInstance,
    SchemaError,
    SystemSpec,
    parse_instance,
    serialize_instance,
    validate,
)
from stochctrl.model import check_level, path_labels


def test_rademacher_moments():
    noise = NoiseModel.rademacher()
    assert sum(noise.probs) == 1.0
    assert sum(p * s for p, s in zip(noise.probs, noise.support)) == 0.0
    assert sum(p * s * s for p, s in zip(noise.probs, noise.support)) == 1.0


def test_three_point_moments_any_spread():
    for spread in (1.0, 1.5, 2.0, 4.0):
        noise = NoiseModel.symmetric_three_point(spread)
        mean = sum(p * s for p, s in zip(noise.probs, noise.support))
        var = sum(p * s * s for p, s in zip(noise.probs, noise.support))
        assert abs(mean) < 1e-12 and abs(var - 1.0) < 1e-12


@pytest.mark.parametrize(
    "support,probs",
    [
        ((-1.0, 1.0), (0.4, 0.4)),  # mass
        ((-1.0, 2.0), (0.5, 0.5)),  # mean
        ((-0.5, 0.5), (0.5, 0.5)),  # variance
        ((1.0, 1.0), (0.5, 0.5)),  # repeated atom
        ((1.0,), (1.0,)),  # degenerate
        ((-1.0, 1.0), (float("nan"), float("nan"))),  # every moment check is False for NaN
        ((-1.0, float("nan"), 1.0), (0.5, 0.0, 0.5)),  # a NaN atom without mass
        ((-1.0, float("inf"), 1.0), (0.5, 0.0, 0.5)),
        ((-1.0, 10**400), (0.5, 0.5)),  # an int beyond the float range
    ],
)
def test_bad_noise_rejected(support, probs):
    with pytest.raises(NoiseMomentViolation):
        NoiseModel(support, probs)


def test_validate_full_and_reduced_rank(bench_full):
    spec, _ = bench_full
    vs = validate(spec)
    assert vs.full_rank and vs.rank_Bbar == 2 and vs.reduced_r is None


def test_reduced_structure_accepted():
    spec = SystemSpec(
        A=np.eye(2),
        B=np.array([[0.1, 0.2, 0.3], [0.0, 0.1, -0.2]]),
        Abar=np.array([[0.5, 0.25], [1.0, 0.0]]),  # second block row [I 0]
        Bbar=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    )
    vs = validate(spec)
    assert not vs.full_rank and vs.reduced_r == 1


def test_reduced_structure_wrong_abar_rejected():
    from stochctrl import UnsupportedReducedStructure

    spec = SystemSpec(
        A=np.eye(2),
        B=np.zeros((2, 3)),
        Abar=np.array([[0.5, 0.25], [1.0, 0.5]]),  # lower-right must vanish
        Bbar=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    )
    with pytest.raises(UnsupportedReducedStructure):
        validate(spec)


def test_both_delays_rejected(bench_full):
    from stochctrl import StructureUnsupported

    spec, _ = bench_full
    combined = SystemSpec(
        A=spec.A,
        B=spec.B,
        Abar=spec.Abar,
        Bbar=spec.Bbar,
        B1=np.zeros((2, 3)),
        tau=1,
        A1=np.zeros((2, 2)),
        d=1,
    )
    with pytest.raises(StructureUnsupported):
        validate(combined)


def test_delay_needs_both_fields(bench_full):
    spec, _ = bench_full
    with pytest.raises(ValueError):
        SystemSpec(A=spec.A, B=spec.B, Abar=spec.Abar, Bbar=spec.Bbar, tau=1)


def test_instance_roundtrip(bench_full):
    spec, expected = bench_full
    rng = np.random.default_rng(7)
    noise = NoiseModel.symmetric_three_point(2.0)
    every_key = SystemSpec(
        A=spec.A, B=spec.B, Abar=spec.Abar, Bbar=spec.Bbar, noise=noise, M=spec.M,
        H=[[1.0, -0.5]], B1=rng.normal(size=(2, 2)), tau=2, A1=rng.normal(size=(2, 2)), d=1,
    )
    target = dict(zip(path_labels(3, 2), rng.normal(size=(9, 2))))
    inst = ProblemInstance(system=every_key, N=1, x0=expected["x0"], target=target)
    again = parse_instance(serialize_instance(inst))
    assert again.N == 1
    for field in ("A", "B", "Abar", "Bbar", "M", "H", "B1", "tau", "A1", "d"):
        assert np.array_equal(getattr(again.system, field), getattr(every_key, field)), field
    assert again.system.noise == noise
    assert np.array_equal(again.x0, expected["x0"])
    assert np.array_equal(again.target, np.array([target[label] for label in path_labels(3, 2)]))
    assert not again.target.flags.writeable


def test_bundled_instances_parse():
    from conftest import INSTANCE_DIR
    from stochctrl import parse_instance_file

    names = sorted(p.name for p in INSTANCE_DIR.glob("*.json"))
    assert names == [
        "fullrank_2x3.json",
        "input_delay_tau1.json",
        "output_1of2.json",
        "state_delay_d1.json",
        "uncontrollable_2x3.json",
    ]
    for name in names:
        inst = parse_instance_file(INSTANCE_DIR / name)
        assert inst.system.n == 2


def test_unknown_key_rejected(bench_full):
    spec, _ = bench_full
    doc = json.loads(serialize_instance(ProblemInstance(system=spec, N=1)))
    doc["extra"] = 1
    with pytest.raises(SchemaError):
        parse_instance(json.dumps(doc))


def test_missing_required_key_rejected():
    with pytest.raises(SchemaError):
        parse_instance(json.dumps({"n": 2, "m": 3, "N": 1}))


def _set_entry(key, row, col, value):
    return lambda doc: doc[key][row].__setitem__(col, value)


@pytest.mark.parametrize(
    "edit,field",
    [
        (_set_entry("A", 0, 0, True), "^A "),
        (_set_entry("B", 0, 1, "1"), "^B "),
        (_set_entry("Abar", 1, 1, None), "^Abar "),
        (lambda doc: doc.update(A=[[1.0, 0.0], [1.0]]), "^A: "),
        (lambda doc: doc.update(n=3), "declared n = 3"),
        (lambda doc: doc.update(B1=[[1.0], [0.0]]), "^B1 and tau"),
        (lambda doc: doc.update(H=[]), "^H "),
        (lambda doc: doc.update(x0=None), "^x0 "),
        (lambda doc: doc.update(target={"0": [0.0, 0.0], "1": [0.0, "0"]}), r"^target\['1'\]"),
    ],
    ids=["bool", "string", "null", "ragged-row", "declared-n", "B1-without-tau", "empty-H", "null-x0", "target"],
)
def test_ragged_matrix_rejected(bench_full, edit, field):
    spec, _ = bench_full
    doc = json.loads(serialize_instance(ProblemInstance(system=spec, N=0)))
    edit(doc)
    with pytest.raises(SchemaError, match=field):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "int-1e400"])
def test_entries_must_be_finite(bench_full, bad):
    spec, _ = bench_full
    good = dict(A=spec.A, B=spec.B, Abar=spec.Abar, Bbar=spec.Bbar, M=spec.M, H=[[1.0, 0.5]])
    for field in good:
        fields = dict(good, **{field: np.asarray(good[field]).tolist()})
        fields[field][0][0] = bad
        with pytest.raises(DimensionMismatch, match=f"^{field}: "):
            SystemSpec(**fields)
    with pytest.raises(DimensionMismatch, match="^x0: "):
        ProblemInstance(system=spec, N=1, x0=[bad, 0.0])


def test_target_keys_checked(bench_full):
    spec, _ = bench_full
    doc = json.loads(serialize_instance(ProblemInstance(system=spec, N=1)))
    full = {"00": [0.0, 0.0], "01": [0.0, 0.0], "10": [0.0, 0.0], "11": [0.0, 0.0]}
    doc["target"] = dict(full, **{"02": [0.0, 0.0]})  # digit 2 invalid for two atoms
    doc["target"].pop("01")
    with pytest.raises(SchemaError):
        parse_instance(json.dumps(doc))
    doc["target"] = dict(full)
    doc["target"].pop("10")  # must cover every path
    with pytest.raises(SchemaError):
        parse_instance(json.dumps(doc))
    doc["target"] = full
    inst = parse_instance(json.dumps(doc))
    assert np.array_equal(inst.target, [full[label] for label in path_labels(2, 2)])
    with pytest.raises(DimensionMismatch):  # built directly, a short vector is no schema error
        ProblemInstance(system=spec, N=1, target=dict(full, **{"11": [0.0]}))


@pytest.mark.parametrize(
    "rows,message",
    [
        ([[1.0, 2.0], [3.0]], r"not a numeric matrix \(setting an array element with a sequence"),
        ([[1.0], [3.0]], r"expected shape \(2, 2\), got \(2, 1\)"),
        ([[1.0, float("nan")], [3.0, 4.0]], "entries must be finite"),
        ([[1.0, 2.0], [float("-inf"), 4.0]], "entries must be finite"),
        ([[1.0, None], [3.0, 4.0]], "entries must be finite"),
        ([[1.0, "x"], [3.0, 4.0]], r"not a numeric matrix \(could not convert string to float: 'x'\)"),
        ([[1.0, 10**400], [3.0, 4.0]], r"not a numeric matrix \(int too large to convert to float\)"),
        ([[1.0, [2.0]], [3.0, 4.0]], r"not a numeric matrix \(setting an array element with a sequence"),
        ([[[1.0], [2.0]], [[3.0], [4.0]]], r"expected shape \(2, 2\), got \(2, 2, 1\)"),
        (["12", "34"], r"expected shape \(2, 2\), got \(2,\)"),
    ],
    ids=["ragged", "short", "nan", "inf", "null", "string", "int-1e400", "nested-entry", "nested-rows", "string-rows"],
)
def test_target_values_read_flat_with_the_row_wise_messages(bench_full, rows, message):
    spec, _ = bench_full  # n = 2; at N = 0 the target has the two leaves "0" and "1"
    with pytest.raises(DimensionMismatch, match=f"^target values: {message}"):
        ProblemInstance(system=spec, N=0, target=dict(zip("01", rows)))
    for good in ([[1, 2.5], [3.0, -4]], [np.array([1.0, 2.5]), np.array([3.0, -4.0])]):
        inst = ProblemInstance(system=spec, N=0, target=dict(zip("01", good)))
        assert np.array_equal(inst.target, [[1.0, 2.5], [3.0, -4.0]]) and not inst.target.flags.writeable


@pytest.mark.parametrize(
    "labels",
    [
        ["00", "01", "11", "10"],  # out of node order
        ["00", "01", "10", "1١"],  # Arabic-Indic one
        ["00", "01", "10", "11\x00"],  # a trailing NUL, which numpy strings would drop
        ["00", "01\n10", "", "11"],  # the join separator inside a label
        ["00", "01", "10"],  # a path missing
    ],
)
def test_check_level_is_exact(labels):
    check_level(["00", "01", "10", "11"], 2, 2, "level")
    with pytest.raises(SchemaError, match="^level"):
        check_level(labels, 2, 2, "level")
