"""Noise law checks, structural validation, and the instance file format."""
import base64
import binascii
import dataclasses
import itertools
import json
import os
import re
import struct
import tracemalloc

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
    parse_instance_file,
    serialize_instance,
    validate,
)
from stochctrl import model
from stochctrl.cli import main
from stochctrl.model import check_level, path_labels
from conftest import uniform_noise
from crosschecks import reference_serialize_instance


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
    assert vs.full_rank and vs.rank_Bbar == 2
    assert [f.name for f in dataclasses.fields(vs)] == ["spec", "rank_Bbar"]


def test_reduced_structure_accepted():
    spec = SystemSpec(
        A=np.eye(2),
        B=np.array([[0.1, 0.2, 0.3], [0.0, 0.1, -0.2]]),
        Abar=np.array([[0.5, 0.25], [1.0, 0.0]]),  # second block row [I 0]
        Bbar=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    )
    vs = validate(spec)
    assert not vs.full_rank and vs.rank_Bbar == 1


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
    with pytest.raises(SchemaError):
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
    assert serialize_instance(inst) == reference_serialize_instance(inst)
    again = parse_instance(serialize_instance(inst))
    assert again.N == 1
    for field in ("A", "B", "Abar", "Bbar", "M", "H", "B1", "tau", "A1", "d"):
        assert np.array_equal(getattr(again.system, field), getattr(every_key, field)), field
    assert again.system.noise == noise
    assert np.array_equal(again.x0, expected["x0"])
    assert np.array_equal(again.target, np.array([target[label] for label in path_labels(3, 2)]))
    assert not again.target.flags.writeable


# Floats whose shortest repr takes each form: signed zero, subnormal,
# exponent notation both ways, the largest double, an integral value.
EDGE_FLOATS = [-0.0, 5e-324, 1e-7, 1e16, 1.7976931348623157e308, 3.0]


def _random_spec(rng, n, noise):
    return SystemSpec(
        A=rng.normal(size=(n, n)), B=rng.normal(size=(n, 1)),
        Abar=rng.normal(size=(n, n)), Bbar=rng.normal(size=(n, 1)), noise=noise,
    )


def _bits(a):
    return None if a is None else (a.shape, a.tobytes())


@pytest.mark.parametrize("N", [0, 1, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("s", [2, 3, 10])
def test_serialize_is_the_indent_encoding(s, n, N):
    """The writer's bytes are json.dumps(doc, indent=2)'s head with the target on one line of float reprs,
    for a path target and a constant one, and a parse gives every bit back."""
    rng = np.random.default_rng(100 * s + 10 * n + N)
    spec = _random_spec(rng, n, uniform_noise(s))
    leaves = rng.normal(size=(s ** (N + 1), n)) * 10.0 ** rng.integers(-12, 13, size=(s ** (N + 1), n))
    leaves.flat[::3] = np.resize(EDGE_FLOATS, leaves.flat[::3].size)
    x0 = np.resize(EDGE_FLOATS[::-1], n)
    for inst in (
        ProblemInstance(spec, N),
        ProblemInstance(spec, N, x0=x0, target=leaves),
        ProblemInstance(spec, N, x0=x0, target=np.resize(EDGE_FLOATS, n)),
    ):
        text, expected = serialize_instance(inst), reference_serialize_instance(inst)
        if text != expected:  # name the first difference: a diff of the whole text takes minutes
            at = len(os.path.commonprefix([text, expected]))
            pytest.fail(f"differs at {at}: {text[at - 40:at + 40]!r} != {expected[at - 40:at + 40]!r}")
        again = parse_instance(text)
        assert again.N == N and again.system.noise == spec.noise
        for field in ("A", "B", "Abar", "Bbar"):
            assert _bits(getattr(again.system, field)) == _bits(getattr(spec, field)), field
        assert _bits(again.x0) == _bits(inst.x0)
        assert _bits(again.target) == _bits(inst.target)


def test_serialize_peak_memory_is_a_small_multiple_of_the_document():
    """Leaf rows cost their base64 bytes and string, 2.0x the text here; their number text through json's
    C encoder held 4.1x, and json's indent encoder 7.9x."""
    rng = np.random.default_rng(5)
    noise = NoiseModel.symmetric_three_point()
    target = dict(zip(path_labels(3, 10), rng.normal(size=(3**10, 2))))
    inst = ProblemInstance(_random_spec(rng, 2, noise), 9, target=target)
    tracemalloc.start()
    try:
        text = serialize_instance(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * len(text), (peak, len(text))


@pytest.mark.parametrize("s", [2, 3, 10])
def test_base64_leaf_rows_come_back_bit_for_bit(s):
    """Leaf rows are written as one base64 string of their little-endian doubles; n values in that
    form are a constant target."""
    rng = np.random.default_rng(s)
    spec = _random_spec(rng, 3, uniform_noise(s))
    leaves = np.resize(EDGE_FLOATS + [-x for x in EDGE_FLOATS], (s**2, 3))
    text = serialize_instance(ProblemInstance(spec, 1, target=leaves))
    value = json.loads(text)["target"]
    assert value == base64.b64encode(struct.pack(f"<{leaves.size}d", *leaves.ravel().tolist())).decode("ascii")
    assert value == base64.b64encode(leaves.astype("<f8").tobytes()).decode()  # README's conversion
    again = parse_instance(text)
    assert _bits(again.target) == _bits(leaves) and not again.target.flags.writeable
    constant = parse_instance(_target_doc(spec, 1, _b64(leaves[0].tolist())))
    assert _bits(constant.target) == _bits(leaves[0]) and not constant.target.flags.writeable


def test_bundled_instances_parse():
    from conftest import INSTANCE_DIR
    from stochctrl import parse_instance_file

    names = sorted(p.name for p in INSTANCE_DIR.glob("*.json"))
    assert names == [
        "fullrank_2x3.json",
        "input_delay_tau1.json",
        "output_1of2.json",
        "reduced_2x3.json",
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
        (lambda doc: doc.update(target=[0.0, 0.0, 0.0, "0"]), "^target entries must be JSON numbers$"),
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
    # A file's label map is refused whatever its keys; the constructor's map form still checks them.
    spec, _ = bench_full
    doc = json.loads(serialize_instance(ProblemInstance(system=spec, N=1)))
    full = {"00": [0.0, 1.0], "01": [2.0, 3.0], "10": [4.0, 5.0], "11": [6.0, 7.0]}
    bad_digit = dict(full, **{"02": [0.0, 0.0]})  # digit 2 invalid for two atoms
    bad_digit.pop("01")
    missing = dict(full)
    missing.pop("10")  # must cover every path
    for target in (bad_digit, missing, full):
        doc["target"] = target
        with pytest.raises(SchemaError, match=r"^target must be a flat list of .* a \{label: vector\} map is not read"):
            parse_instance(json.dumps(doc))
        if target is not full:
            with pytest.raises(SchemaError, match="^target keys: "):
                ProblemInstance(system=spec, N=1, target=target)
    doc["target"] = [v for label in sorted(full) for v in full[label]]  # README's migration
    inst = parse_instance(json.dumps(doc))
    assert np.array_equal(inst.target, [full[label] for label in path_labels(2, 2)])
    assert np.array_equal(ProblemInstance(system=spec, N=1, target=full).target, inst.target)
    with pytest.raises(DimensionMismatch):  # built directly, a short vector is no schema error
        ProblemInstance(system=spec, N=1, target=dict(full, **{"11": [0.0]}))


@pytest.mark.parametrize(
    "keys,named",
    [([0, 1, 10, 11], "0"), (["00", 1, "10", "11"], "1"), ([b"00", b"01", b"10", b"11"], "b'00'")],
    ids=["int", "str-and-int", "bytes"],
)
def test_target_keys_that_are_not_str_are_schema_errors(bench_full, keys, named):
    spec, _ = bench_full
    target = dict(zip(keys, [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]]))
    with pytest.raises(SchemaError, match=f"^target keys: {re.escape(named)} is not a str label$"):
        ProblemInstance(spec, 1, target=target)


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


def _forms(N, n=2, s=2) -> str:
    """The accepted target forms, as every target schema error names them."""
    return (
        f"a flat list of n = {n} numbers (a constant target) or s^(N+1)*n = {s}^{N + 1}*{n} = {s ** (N + 1) * n} "
        "(one row per leaf, in node order), or a base64 string of their little-endian float64 bytes"
    )


def _target_doc(spec, N, target) -> str:
    doc = json.loads(serialize_instance(ProblemInstance(system=spec, N=N)))
    doc["target"] = target
    return json.dumps(doc)


@pytest.mark.parametrize("N", [0, 1, 3])
def test_target_list_of_another_length_names_both_forms(bench_full, N):
    spec, _ = bench_full  # n = 2, two-point noise
    leaves = 2 ** (N + 1)
    for length in sorted({0, 1, 3, leaves, 2 * leaves - 2, 2 * leaves + 2, 4 * leaves} - {2, 2 * leaves}):
        with pytest.raises(SchemaError) as err:
            parse_instance(_target_doc(spec, N, [0.5] * length))
        assert str(err.value) == f"target lists {length} numbers; it needs {_forms(N)}"
    constant = parse_instance(_target_doc(spec, N, [0.5, -1]))
    assert constant.target.shape == (2,) and constant.target.tolist() == [0.5, -1.0]
    rows = parse_instance(_target_doc(spec, N, list(range(2 * leaves))))
    assert rows.target.tolist() == np.arange(2.0 * leaves).reshape(leaves, 2).tolist()
    assert not constant.target.flags.writeable and not rows.target.flags.writeable


def test_target_forms_at_a_huge_horizon_form_no_power(bench_full):
    # s^(N+1) at N = 10^18 cannot be formed: a constant target is read, any other length refused.
    spec, _ = bench_full
    assert parse_instance(_target_doc(spec, 10**18, [1.0, 2.0])).target.tolist() == [1.0, 2.0]
    with pytest.raises(SchemaError, match=r"^target lists 4 numbers; .* = 2\^1000000000000000001\*2 \(one row"):
        parse_instance(_target_doc(spec, 10**18, [1.0] * 4))
    with pytest.raises(DimensionMismatch, match=r"^target: shape \(4, 2\); it must be \(2,\) or \(2\^1000000000000000001, 2\)$"):
        ProblemInstance(system=spec, N=10**18, target=np.zeros((4, 2)))


@pytest.mark.parametrize(
    "entry,message",
    [("true", "JSON numbers"), ('"1"', "JSON numbers"), ("null", "JSON numbers"), ("[1.0]", "JSON numbers"),
     ("NaN", "finite"), ("Infinity", "finite"), ("1e400", "finite"), ("1" + "0" * 400, "finite")],
    ids=["true", "string", "null", "nested", "NaN", "Infinity", "1e400", "int-1e400"],
)
@pytest.mark.parametrize("length", [2, 8], ids=["constant", "path"])
def test_target_entries_must_be_finite_json_numbers(bench_full, entry, message, length):
    spec, _ = bench_full
    text = _target_doc(spec, 1, [0.0] * length).replace('"target": [0.0', f'"target": [{entry}', 1)
    assert f'"target": [{entry}, ' in text
    with pytest.raises(SchemaError) as err:
        parse_instance(text)
    assert str(err.value) == f"target entries must be {message}"


def _b64(values) -> str:
    """The base64 text of ``values`` packed as little-endian doubles."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


LEAVES_N1 = _b64([float(i) for i in range(8)])  # n = 2, two-point noise, N = 1: four leaf rows, 88 characters
BAD_BASE64 = "is not base64 (A-Z a-z 0-9 + / only, padded with = to a multiple of 4 characters)"
STRING_FAULTS = {
    # case: (target string, why it is refused)
    "non-alphabet": (LEAVES_N1[:5] + "*" + LEAVES_N1[6:], BAD_BASE64),
    "url-safe-alphabet": (_b64([-0.001, 123.456]).replace("/", "_"), BAD_BASE64),
    "newline": (LEAVES_N1[:44] + "\n" + LEAVES_N1[44:], BAD_BASE64),
    "space": (LEAVES_N1[:44] + " " + LEAVES_N1[44:], BAD_BASE64),
    "trailing-newline": (LEAVES_N1 + "\n", BAD_BASE64),
    "padding-missing": (LEAVES_N1[:-1], BAD_BASE64),
    "padding-inside": (LEAVES_N1[:4] + "=" + LEAVES_N1[5:], BAD_BASE64),
    "data-after-padding": (LEAVES_N1 + "AAAA", BAD_BASE64),
    "padded-group-first": ("AA==" + LEAVES_N1, BAD_BASE64),
    "three-pads": (LEAVES_N1[:-4] + "A===", BAD_BASE64),
    "excess-padding": (LEAVES_N1 + "====", BAD_BASE64),
    "arabic-indic-digit": (LEAVES_N1[:5] + "\u0663" + LEAVES_N1[6:], BAD_BASE64),
    "non-ascii": (LEAVES_N1[:5] + "\u00e9" + LEAVES_N1[6:], BAD_BASE64),
    "12-bytes": (base64.b64encode(bytes(12)).decode("ascii"), "decodes to 12 bytes, not whole float64 values"),
    "63-bytes": (base64.b64encode(bytes(63)).decode("ascii"), "decodes to 63 bytes, not whole float64 values"),
    "empty": ("", "holds 0 float64 values"),
    "one-value": (_b64([0.5]), "holds 1 float64 values"),
    "three-values": (_b64([0.5] * 3), "holds 3 float64 values"),
    "N0-leaves": (_b64([0.5] * 4), "holds 4 float64 values"),
    "N2-leaves": (_b64([0.5] * 16), "holds 16 float64 values"),
}


@pytest.mark.parametrize("case", sorted(STRING_FAULTS))
def test_a_target_string_that_is_not_strict_base64_of_whole_leaf_rows_is_refused(bench_full, case, monkeypatch):
    spec, _ = bench_full  # n = 2, two-point noise; at N = 1 four leaves
    real = binascii.a2b_base64  # as Python 3.10 has it: the data alone, no strict_mode keyword
    monkeypatch.setattr(model.binascii, "a2b_base64", lambda data, /: real(data))
    value, reason = STRING_FAULTS[case]
    with pytest.raises(SchemaError) as err:
        parse_instance(_target_doc(spec, 1, value))
    assert str(err.value) == f"target string {reason}; it needs {_forms(1)}"
    assert parse_instance(_target_doc(spec, 1, LEAVES_N1)).target.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]]


def test_the_base64_check_is_the_rfc_4648_grammar_on_every_short_string():
    """The reader refuses a string as not base64 exactly when it is not the alphabet then at most two
    "=", in whole 4-character groups: every string of up to two groups over two letters of the
    alphabet, the pad and a space."""
    grammar = re.compile(r"[A-Za-z0-9+/]*={0,2}")
    for length in range(9):
        for chars in itertools.product("A/= ", repeat=length):
            value = "".join(chars)
            try:
                model._target_list(value, 1, 2, 0)
                refused = False
            except SchemaError as err:
                refused = "is not base64" in str(err)
            assert refused == (len(value) % 4 != 0 or not grammar.fullmatch(value)), value


NON_FINITE_BITS = {
    "NaN": struct.pack("<d", float("nan")),
    "NaN-payload": bytes.fromhex("010000000000f87f"),
    "negative-NaN": bytes.fromhex("000000000000f8ff"),
    "+inf": struct.pack("<d", float("inf")),
    "-inf": struct.pack("<d", float("-inf")),
}


@pytest.mark.parametrize("bits", sorted(NON_FINITE_BITS))
@pytest.mark.parametrize("length", [2, 8], ids=["constant", "path"])
def test_a_target_string_of_non_finite_bits_is_refused(bench_full, bits, length):
    spec, _ = bench_full
    raw = bytearray(struct.pack(f"<{length}d", *range(length)))
    raw[-8:] = NON_FINITE_BITS[bits]
    with pytest.raises(SchemaError) as err:
        parse_instance(_target_doc(spec, 1, base64.b64encode(raw).decode("ascii")))
    assert str(err.value) == "target: entries must be finite"  # ProblemInstance's check, as for every matrix


def test_a_bad_target_string_exits_6_through_the_cli(bench_full, capsys, tmp_path):
    spec, _ = bench_full
    path = tmp_path / "instance.json"
    path.write_text(_target_doc(spec, 1, LEAVES_N1[:-1]))
    for command in ("analyze", "synthesize"):
        assert main([command, "--instance", str(path)]) == 6
        assert capsys.readouterr() == ("", f"error: target string {BAD_BASE64}; it needs {_forms(1)}\n")


@pytest.mark.parametrize("value", ["{}", '"0.5"', "0.5", "null", "[[0.5, 1.0], [2.0, 3.0]]"])
def test_target_of_another_form_names_both_forms(bench_full, value):
    spec, _ = bench_full
    text = _target_doc(spec, 0, None).replace('"target": null', f'"target": {value}')
    with pytest.raises(SchemaError) as err:
        parse_instance(text)
    if value.startswith("[["):  # nested rows: two entries, as many as n, but not numbers
        assert str(err.value) == "target entries must be JSON numbers"
    elif value == '"0.5"':  # a string is read as base64, and "." is not in its alphabet
        assert str(err.value) == f"target string {BAD_BASE64}; it needs {_forms(0)}"
    else:
        old = "; a {label: vector} map is not read: list its rows in label order" if value == "{}" else ""
        assert str(err.value) == f"target must be {_forms(0)}{old}"


@pytest.mark.parametrize(
    "target,message",
    [(np.zeros(3), r"\(3,\)"), (np.zeros((4, 2)), r"\(4, 2\)"), (np.zeros((2, 3)), r"\(2, 3\)"),
     (np.zeros((1, 2)), r"\(1, 2\)"), (np.zeros((2, 2, 1)), r"\(2, 2, 1\)"), (np.zeros(4), r"\(4,\)")],
)
def test_target_array_is_a_vector_or_leaf_rows(bench_full, target, message):
    spec, _ = bench_full  # n = 2; at N = 0 two leaves
    with pytest.raises(DimensionMismatch, match=rf"^target: shape {message}; it must be \(2,\) or \(2\^1, 2\)$"):
        ProblemInstance(system=spec, N=0, target=target)
    with pytest.raises(DimensionMismatch, match="^target: entries must be finite"):
        ProblemInstance(system=spec, N=0, target=[np.nan, 0.0])
    for good in ([1, 2.5], [[1, 2.5], [3.0, -4]]):
        inst = ProblemInstance(system=spec, N=0, target=np.array(good))
        assert inst.target.tolist() == np.asarray(good, dtype=float).tolist() and not inst.target.flags.writeable


def test_parse_peak_memory_is_a_small_multiple_of_the_target_text():
    """A flat-list 3^10-leaf, n = 2 target: json's number objects and one float array, 2.0x the text here;
    the label map, decoded and then sorted and checked, held 3.6x."""
    rng = np.random.default_rng(6)
    inst = ProblemInstance(_random_spec(rng, 2, NoiseModel.symmetric_three_point()), 9, target=rng.normal(size=(3**10, 2)))
    text = _target_doc(inst.system, 9, inst.target.ravel().tolist())
    tracemalloc.start()
    try:
        again = parse_instance(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again.target.tobytes() == inst.target.tobytes()
    assert peak <= 2.5 * len(text), (peak, len(text))


def test_parse_peak_memory_of_base64_leaf_rows_is_a_small_multiple_of_the_leaves():
    """A base64 3^10-leaf, n = 2 target: its string and its decoded bytes, 2.34x the leaf array here, and
    ProblemInstance keeps a view of those bytes; the same leaves as a flat list held 5.2x."""
    rng = np.random.default_rng(6)
    inst = ProblemInstance(_random_spec(rng, 2, NoiseModel.symmetric_three_point()), 9, target=rng.normal(size=(3**10, 2)))
    text = serialize_instance(inst)
    assert type(json.loads(text)["target"]) is str
    tracemalloc.start()
    try:
        again = parse_instance(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again.target.tobytes() == inst.target.tobytes()
    assert peak <= 3 * inst.target.nbytes, (peak, inst.target.nbytes)


def test_parse_instance_file_drops_the_file_text_before_the_target_decodes(tmp_path):
    """A base64 3^10-leaf, n = 2 target read from a file: the text and json's target string, then that
    string and its decoded bytes, 2.7x the leaf array here; a parse that held the text while the target
    decoded peaked at 3.7x."""
    rng = np.random.default_rng(6)
    inst = ProblemInstance(_random_spec(rng, 2, NoiseModel.symmetric_three_point()), 9, target=rng.normal(size=(3**10, 2)))
    path = tmp_path / "instance.json"
    path.write_text(serialize_instance(inst))
    tracemalloc.start()
    try:
        again = parse_instance_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again.target.tobytes() == inst.target.tobytes()
    assert peak <= 3 * inst.target.nbytes, (peak, inst.target.nbytes)


def test_a_decoded_target_is_kept_without_a_copy(bench_full):
    """The base64 target's float64 view over its decoded bytes is the stored target; lists and arrays are
    copied, and a view over bytes is still checked finite once, with the copy's message."""
    spec, _ = bench_full  # n = 2, two-point noise
    inst = parse_instance(_target_doc(spec, 1, LEAVES_N1))
    base = inst.target
    while isinstance(base, np.ndarray):
        base = base.base
    assert type(base) is bytes and not inst.target.flags.writeable
    assert inst.target.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]]
    for value in (inst.target.tolist(), np.arange(8.0).reshape(4, 2)):
        copied = ProblemInstance(spec, 1, target=value).target
        assert copied.base is None and copied.flags.owndata and not copied.flags.writeable
    for bits in (struct.pack("<2d", 0.0, np.inf), struct.pack("<2d", np.nan, 0.0)):
        with pytest.raises(DimensionMismatch, match="^target: entries must be finite$"):
            ProblemInstance(spec, 0, target=np.frombuffer(bits, "<f8"))
