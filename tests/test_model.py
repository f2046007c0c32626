"""Noise law checks, structural validation, and the instance file format."""
import base64
import dataclasses
import itertools
import json
import mmap
import os
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from stochctrl import (
    DimensionMismatch,
    NoiseModel,
    NoiseMomentViolation,
    ProblemInstance,
    SchemaError,
    StructureUnsupported,
    SystemSpec,
    parse_instance,
    parse_instance_file,
    serialize_instance,
    validate,
)
from stochctrl import model
from stochctrl.cli import main
from stochctrl.model import check_level, path_labels
from conftest import INSTANCE_DIR, uniform_noise
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
        (tuple(range(-5, 6)), (0.1,) * 5 + (0.0,) + (0.1,) * 5),  # 11 atoms: a path label has one digit a stage
        ((-1.0, 0.0, 1.0), (0.5, -0.1, 0.6)),  # a negative probability
    ],
)
def test_bad_noise_rejected(support, probs):
    with pytest.raises(NoiseMomentViolation):
        NoiseModel(support, probs)


def test_validate_full_and_reduced_rank(bench_full):
    spec, _ = bench_full
    vs = validate(spec)
    assert vs.full_rank and vs.rank_Bbar == 2
    assert [f.name for f in dataclasses.fields(vs)] == ["spec", "rank_Bbar", "cut_Bbar"]


def test_validate_counts_ranks_above_the_rank_cut(rng):
    # validate counts the ranks of Bbar and H as the singular values above _singular_values' cut, and keeps
    # Bbar's cut bit for bit. As Bbar (n = rows), a full-rank matrix is validated and a deficient one is
    # refused naming its rank; as H (n = columns, Bbar = [I 0]), a deficient one is refused as RankDeficient.
    from stochctrl import RankDeficient, UnsupportedReducedStructure

    for shape, rank in (((3, 4), 3), ((3, 4), 2), ((2, 5), 1), ((4, 4), 0), ((1, 1), 1)):
        a = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1])) * 10.0 ** rng.integers(-9, 9)
        svals, cut = model._singular_values(a)
        assert np.count_nonzero(svals > cut) == rank, shape
        n = shape[0]
        as_Bbar = SystemSpec(A=np.eye(n), B=np.zeros(shape), Abar=np.zeros((n, n)), Bbar=a)
        if rank == n:
            vs = validate(as_Bbar)
            assert vs.rank_Bbar == rank and type(vs.rank_Bbar) is int, shape
            assert np.float64(vs.cut_Bbar).tobytes() == np.float64(cut).tobytes(), shape
        else:
            with pytest.raises(UnsupportedReducedStructure) as refused:
                validate(as_Bbar)
            assert re.search(rf"\b(rank\(Bbar\)|rank r) = {rank}\b", str(refused.value)), shape
        n = shape[1]
        as_H = SystemSpec(A=np.eye(n), B=np.zeros((n, n + 1)), Abar=np.zeros((n, n)), Bbar=np.eye(n, n + 1), H=a)
        if rank == shape[0]:
            assert validate(as_H).rank_Bbar == n, shape
        else:
            with pytest.raises(RankDeficient, match=f"^H must have full row rank {shape[0]}$"):
                validate(as_H)


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


@pytest.mark.parametrize("where, message", [
    ((0, 0), "Bbar is not [[I_r, 0], [0, 0]]"),  # Bbar's unit entry
    ((1, 0), "reduced form needs Abar[r:, :r] = I"),  # Abar[r][0]'s unit entry
])
def test_a_reduced_unit_entry_is_held_to_the_structure_tolerance_absolutely(where, message):
    # Each entry of the block pattern must lie within STRUCTURE_TOL = 1e-12 of it: 5e-13 off passes, and
    # 2e-12 or 5e-6 off is refused, which a tolerance relative to the unit entry let through up to 1e-5.
    from stochctrl import UnsupportedReducedStructure

    for off, accepted in ((5e-13, True), (2e-12, False), (5e-6, False)):
        Abar, Bbar = np.array([[0.5, 0.25], [1.0, 0.0]]), np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        (Bbar if where == (0, 0) else Abar)[where] = 1.0 + off
        spec = SystemSpec(A=np.eye(2), B=np.array([[0.1, 0.2, 0.3], [0.0, 0.1, -0.2]]), Abar=Abar, Bbar=Bbar)
        if accepted:
            assert validate(spec).rank_Bbar == 1, off
        else:
            with pytest.raises(UnsupportedReducedStructure, match=re.escape(message)):
                validate(spec)


def test_a_reduced_instance_off_its_pattern_is_inapplicable(tmp_path, capsys):
    # reduced_2x3.json with Bbar[0][0] = 1 + 5e-6 analyzed as leading-block controllable (exit 0); it
    # and the same instance with Abar[1][0] = 1 + 5e-6 are now refused as inapplicable (exit 2).
    doc = json.loads((INSTANCE_DIR / "reduced_2x3.json").read_text())
    assert main(["analyze", "--instance", str(INSTANCE_DIR / "reduced_2x3.json")]) == 0
    for key, row in (("Bbar", 0), ("Abar", 1)):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({**doc, key: [[1 + 5e-6, *doc[key][row][1:]] if i == row else r
                                                 for i, r in enumerate(doc[key])]}))
        capsys.readouterr()
        for command in ("analyze", "oracle-check"):
            assert main([command, "--instance", str(path)]) == 2, (key, command)
            assert capsys.readouterr().err.startswith("inapplicable: "), (key, command)


def test_a_spec_converts_lists_and_arrays_alike(bench_full):
    # A spec given nested lists (an instance file's) holds the bits, shapes and read-only arrays of one given
    # arrays: each matrix takes the one conversion. A library list may hold what np.array reads as a float,
    # True and "1" included; the JSON-number rule is the file reader's, which refuses a file's true.
    spec, _ = bench_full
    keys = ("A", "B", "Abar", "Bbar", "M")
    listed = SystemSpec(**{key: getattr(spec, key).tolist() for key in keys})
    for key in keys:
        got, want = getattr(listed, key), getattr(spec, key)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes(), key
        assert not got.flags.writeable and got.base is None, key
    for bad, error in ((float("nan"), "Abar: entries must be finite"), (10**400, "Abar: not a numeric matrix"),
                       (True, None), ("1", None)):
        rows = spec.Abar.tolist()
        rows[1][0] = bad
        kwargs = {key: getattr(spec, key).tolist() for key in keys} | {"Abar": rows}
        if error is None:
            assert SystemSpec(**kwargs).Abar[1, 0] == 1.0
        else:
            with pytest.raises(DimensionMismatch, match=re.escape(error)):
                SystemSpec(**kwargs)
    doc = json.loads(serialize_instance(ProblemInstance(listed, 0)))
    doc["Abar"][1][0] = True
    with pytest.raises(SchemaError, match="^Abar must be a list of rows of JSON numbers$"):
        parse_instance(json.dumps(doc))


def test_a_file_within_one_page_is_read_and_a_larger_one_mapped(bench_full, tmp_path, monkeypatch):
    # The parse of either gives the instance parse_instance gives the file's text: a page of bytes at most
    # is one read, a byte more is mapped, and so is a hex-target document larger than a page.
    spec, _ = bench_full
    opened = []
    real = mmap.mmap

    def recording(*args, **kwargs):
        opened.append(real(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(mmap, "mmap", recording)
    small = serialize_instance(ProblemInstance(spec, 2, x0=[1.0, -2.0]))
    leaves = np.arange(1024.0).reshape(512, 2) / 7
    texts = {
        "one page": (" " * (mmap.PAGESIZE - len(small)) + small, 0),
        "one page and a byte": (" " * (mmap.PAGESIZE + 1 - len(small)) + small, 1),
        "hex target": (serialize_instance(ProblemInstance(spec, 8, x0=[1.0, -2.0], target=leaves)), 1),
    }
    path = tmp_path / "instance.json"
    for case, (text, maps) in texts.items():
        path.write_text(text)
        opened.clear()
        got, want = parse_instance_file(path), parse_instance(text)
        assert len(opened) == maps and all(mapping.closed for mapping in opened), case
        assert serialize_instance(got) == serialize_instance(want), case
        assert got.target is None or got.target.tobytes() == want.target.tobytes(), case
    assert len(texts["one page"][0].encode()) == mmap.PAGESIZE and len(texts["hex target"][0]) > mmap.PAGESIZE


def test_a_path_that_is_no_file_fails_as_open_fails(tmp_path, capsys):
    # A missing file and a directory raise what open() raises, each naming the path, and exit 6.
    for path in (tmp_path / "missing.json", tmp_path):
        with pytest.raises(OSError) as opened:
            open(path, "rb")
        with pytest.raises(type(opened.value)) as parsed:
            parse_instance_file(path)
        assert str(parsed.value) == str(opened.value)
        assert main(["analyze", "--instance", str(path)]) == 6
        assert capsys.readouterr().err == f"error: {opened.value}\n"


@pytest.mark.parametrize(
    "edit,message",
    [
        ({"A": [[1.0, 1.0]]}, r"A must be square, got shape \(1, 2\)"),
        ({"B": [[1.0, 2.0, -2.0]]}, r"B must have 2 rows, got shape \(1, 3\)"),
        ({"B1": [[], []], "tau": 1}, r"B1 must have 2 rows and at least one column, got \(2, 0\)"),
    ],
    ids=["A-not-square", "B-rows", "B1-no-column"],
)
def test_a_spec_of_mismatched_shapes_is_refused(bench_full, edit, message):
    spec, _ = bench_full
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        SystemSpec(**{key: getattr(spec, key) for key in ("A", "B", "Abar", "Bbar")} | edit)


REDUCED_SPEC = {"A": np.eye(2), "B": np.array([[0.1, 0.2, 0.3], [0.0, 0.1, -0.2]]),
                "Abar": np.array([[0.5, 0.25], [1.0, 0.0]]), "Bbar": np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])}


@pytest.mark.parametrize(
    "reduced,edit,message",
    [
        (False, {"H": [[1.0, 0.0]], "B1": np.ones((2, 1)), "tau": 1},
         "partial controllability with delays is not supported"),
        (True, {"M": np.eye(3)}, "reduced-rank route supports none of M, H, delays"),
        (True, {"H": [[1.0, 0.0]]}, "reduced-rank route supports none of M, H, delays"),
        (True, {"A1": np.eye(2), "d": 1}, "reduced-rank route supports none of M, H, delays"),
    ],
    ids=["H-with-delay", "reduced-M", "reduced-H", "reduced-delay"],
)
def test_a_route_refuses_the_fields_it_does_not_support(bench_full, reduced, edit, message):
    # A partial-controllability H with a delay channel on any route; M, H or a delay on the reduced route.
    base = REDUCED_SPEC if reduced else {key: getattr(bench_full[0], key) for key in REDUCED_SPEC}
    with pytest.raises(StructureUnsupported, match=f"^{message}$"):
        validate(SystemSpec(**base | edit))


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
    # The file carries every SystemSpec field, as one _SPEC_KEYS key or the noise object, so no field can
    # be set that the round trip drops; the constructor takes M, H and both delay channels together.
    assert {field.name for field in dataclasses.fields(SystemSpec)} == set(model._SPEC_KEYS) | {"noise"}
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
    for field in dataclasses.fields(SystemSpec):
        want, got = getattr(every_key, field.name), getattr(again.system, field.name)
        assert want is not None and (np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want), field.name
    assert again.system.noise == noise != NoiseModel()
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
    """Leaf rows cost their hex bytes and string, 2.0x the text here; their number text through json's
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
def test_hex_leaf_rows_come_back_bit_for_bit(s):
    """Leaf rows are written as one lowercase hex string of their little-endian doubles; n values in
    that form are a constant target."""
    rng = np.random.default_rng(s)
    spec = _random_spec(rng, 3, uniform_noise(s))
    leaves = np.resize(EDGE_FLOATS + [-x for x in EDGE_FLOATS], (s**2, 3))
    text = serialize_instance(ProblemInstance(spec, 1, target=leaves))
    value = json.loads(text)["target"]
    assert value == struct.pack(f"<{leaves.size}d", *leaves.ravel().tolist()).hex()
    assert value == leaves.astype("<f8").tobytes().hex()  # README's conversion
    again = parse_instance(text)
    assert _bits(again.target) == _bits(leaves) and not again.target.flags.writeable
    constant = parse_instance(_target_doc(spec, 1, _hex(leaves[0].tolist())))
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
        (lambda doc: doc.update(n=3), "declared n = 3"),
        (lambda doc: doc.update(B1=[[1.0], [0.0]]), "^B1 and tau"),
        (lambda doc: doc.update(H=[]), "^H "),
        (lambda doc: doc.update(x0=None), "^x0 "),
        (lambda doc: doc.update(target=[0.0, 0.0, 0.0, "0"]), "^target entries must be JSON numbers$"),
        (lambda doc: doc["noise"].update(seed=1), "^noise must be an object with exactly the keys support and probs$"),
    ],
    ids=["declared-n", "B1-without-tau", "empty-H", "null-x0", "target", "noise-extra-key"],
)
def test_malformed_document_rejected(bench_full, edit, field):
    spec, _ = bench_full
    doc = json.loads(serialize_instance(ProblemInstance(system=spec, N=0)))
    edit(doc)
    with pytest.raises(SchemaError, match=field):
        parse_instance(json.dumps(doc))


NOT_JSON_NUMBERS = "{key} must be a list of rows of JSON numbers"
# case -> (the entry's JSON text, or None for a ragged first row; the whole message it gets in any matrix key,
# or for a ragged row the message's start, where numpy's text follows)
MATRIX_ENTRY_FAULTS = {
    "true": ("true", NOT_JSON_NUMBERS), "string": ('"1"', NOT_JSON_NUMBERS), "null": ("null", NOT_JSON_NUMBERS),
    "nested": ("[1.0]", NOT_JSON_NUMBERS), "NaN": ("NaN", "{key}: entries must be finite"),
    "1e400": ("1e400", "{key}: entries must be finite"),
    "int-1e400": ("1" + "0" * 400, "{key}: not a numeric matrix (int too large to convert to float)"),
    "ragged": (None, "{key}: not a numeric matrix (setting an array element with a sequence."),
}


@pytest.mark.parametrize("case", MATRIX_ENTRY_FAULTS)
@pytest.mark.parametrize("key", model._MATRIX_KEYS)
def test_ragged_matrix_rejected(bench_full, key, case):
    # Every matrix key, M, H, B1 (with tau) and A1 (with d) too, is named by each fault of its entries: the
    # reader's JSON-number check, then SystemSpec's conversion and finiteness check, raised as SchemaError.
    spec, _ = bench_full
    doc = json.loads(serialize_instance(ProblemInstance(system=spec, N=0)))
    doc.update(H=[[1.0, 0.5], [0.0, 1.0]], B1=[[1.0], [0.0]], tau=1, A1=[[0.5, 0.0], [0.0, 0.5]], d=1)
    assert set(model._MATRIX_KEYS) <= doc.keys()
    entry, message = MATRIX_ENTRY_FAULTS[case]
    if entry is None:
        doc[key][0].append(1.0)
    else:
        doc[key][0][0] = "<entry>"
    with pytest.raises(SchemaError) as err:
        parse_instance(json.dumps(doc).replace('"<entry>"', entry or "", 1))
    got, message = str(err.value), message.format(key=key)
    assert got.startswith(message) if entry is None else got == message, got


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


@pytest.mark.parametrize("N", [10**6, 10**9, 10**18])
def test_a_label_map_for_a_deep_level_is_refused_without_forming_its_count(bench_full, N):
    # The key count is tested without forming s^(N+1), and the message names the count as s^depth; below
    # depth 64 a message writes the number, as it always did.
    spec, _ = bench_full
    with pytest.raises(SchemaError, match=rf"^target keys: 1 labels, but a depth-{N + 1} level has 2\^{N + 1} paths$"):
        ProblemInstance(spec, N, target={"00": [0.0, 1.0]})
    with pytest.raises(SchemaError, match=rf"^level: 1 labels, but a depth-63 level has {2**63} paths$"):
        check_level(["0"], 2, 63, "level")


def test_a_label_map_out_of_node_order_is_refused_naming_its_first_such_key(bench_full):
    # A map is read only with its keys in node order: the first key out of it is named.
    spec, _ = bench_full
    rows = {"00": [0.0, 1.0], "01": [2.0, 3.0], "10": [4.0, 5.0], "11": [6.0, 7.0]}
    for order, named in ((("00", "10", "01", "11"), "10"), (("11", "10", "01", "00"), "11")):
        with pytest.raises(SchemaError, match=f"^target keys: '{named}' breaks the node order of the length-2 paths"):
            ProblemInstance(spec, 1, target={label: rows[label] for label in order})


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
        ([np.array([1.0, np.nan]), np.array([3.0, 4.0])], "entries must be finite"),  # (n,) arrays: the one-pass read
    ],
    ids=["ragged", "short", "nan", "inf", "null", "string", "int-1e400", "nested-entry", "nested-rows", "string-rows",
         "nan-arrays"],
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
        "(one row per leaf, in node order), or a hex string of their little-endian float64 bytes"
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


def _hex(values) -> str:
    """The hex text of ``values`` packed as little-endian doubles."""
    return struct.pack(f"<{len(values)}d", *values).hex()


LEAVES_N1 = _hex([float(i) for i in range(8)])  # n = 2, two-point noise, N = 1: four leaf rows, 128 characters
NOT_HEX = "is not hex (two of 0-9 a-f A-F per byte)"
STRING_FAULTS = {
    # case: (target string, why it is refused)
    "non-hex-letter": (LEAVES_N1[:5] + "g" + LEAVES_N1[6:], NOT_HEX),
    "odd-length": (LEAVES_N1[:-1], NOT_HEX),
    "extra-digit": (LEAVES_N1 + "0", NOT_HEX),
    "0x-prefix": ("0x" + LEAVES_N1[2:], NOT_HEX),
    "newline": (LEAVES_N1[:64] + "\n" + LEAVES_N1[64:], NOT_HEX),
    "space": (LEAVES_N1[:64] + " " + LEAVES_N1[64:], NOT_HEX),
    "spaced-pairs": (" ".join(LEAVES_N1[i : i + 2] for i in range(0, len(LEAVES_N1), 2)), NOT_HEX),
    "trailing-newline": (LEAVES_N1 + "\n", NOT_HEX),
    "arabic-indic-digit": (LEAVES_N1[:5] + "\u0663" + LEAVES_N1[6:], NOT_HEX),
    "fullwidth-digit": (LEAVES_N1[:5] + "\uff11" + LEAVES_N1[6:], NOT_HEX),
    "non-ascii": (LEAVES_N1[:5] + "\u00e9" + LEAVES_N1[6:], NOT_HEX),
    "base64": (base64.b64encode(struct.pack("<8d", *range(8))).decode("ascii"), NOT_HEX),  # the earlier form
    "base64-of-hex-letters": ("ABCDabcd0123" * 8, "holds 6 float64 values"),
    "12-bytes": (bytes(12).hex(), "decodes to 12 bytes, not whole float64 values"),
    "63-bytes": (bytes(63).hex(), "decodes to 63 bytes, not whole float64 values"),
    "empty": ("", "holds 0 float64 values"),
    "one-value": (_hex([0.5]), "holds 1 float64 values"),
    "three-values": (_hex([0.5] * 3), "holds 3 float64 values"),
    "N0-leaves": (_hex([0.5] * 4), "holds 4 float64 values"),
    "N2-leaves": (_hex([0.5] * 16), "holds 16 float64 values"),
}


@pytest.mark.parametrize("case", sorted(STRING_FAULTS))
def test_a_target_string_that_is_not_hex_of_whole_leaf_rows_is_refused(bench_full, case):
    spec, _ = bench_full  # n = 2, two-point noise; at N = 1 four leaves
    value, reason = STRING_FAULTS[case]
    with pytest.raises(SchemaError) as err:
        parse_instance(_target_doc(spec, 1, value))
    assert str(err.value) == f"target string {reason}; it needs {_forms(1)}"
    assert parse_instance(_target_doc(spec, 1, LEAVES_N1)).target.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]]
    assert parse_instance(_target_doc(spec, 1, LEAVES_N1.upper())).target.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]]


def test_the_hex_check_is_the_hex_grammar_on_every_short_string():
    """The reader refuses a string as not hex exactly when it is not an even number of hex digits, either
    case: every string of up to six characters over digits, letters in and out of the hex range, a sign
    and a space."""
    grammar = re.compile(r"(?:[0-9a-fA-F]{2})*")
    for length in range(7):
        for chars in itertools.product("0aFg- ", repeat=length):
            value = "".join(chars)
            try:
                model._target_list(value, 1, 2, 0)
                refused = False
            except SchemaError as err:
                refused = "is not hex" in str(err)
            assert refused == (not grammar.fullmatch(value)), value


def test_an_earlier_base64_string_of_a_valid_count_is_refused_not_misread():
    """A base64 string of k float64 values has 4 ceil(8k/3) characters, which read as hex hold between 2k/3
    and k values, never a valid count. Zeros at a count divisible by 3 are all "A", valid hex: the count
    refuses those, and the "=" padding the others."""
    for s, N, n in itertools.product(range(2, 11), range(4), range(1, 7)):
        leaves = s ** (N + 1) * n
        for count in (n, leaves) if leaves <= 3000 else (n,):
            value = base64.b64encode(bytes(8 * count)).decode("ascii")
            with pytest.raises(SchemaError, match=r"^target string (is not hex \(|holds [0-9]+ float64 values;)"):
                model._target_list(value, n, s, N)


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
        parse_instance(_target_doc(spec, 1, raw.hex()))
    assert str(err.value) == "target: entries must be finite"  # ProblemInstance's check, as for every matrix


def test_a_bad_target_string_exits_6_through_the_cli(bench_full, capsys, tmp_path):
    # An odd length, and an earlier file's base64 string, in the serializer's layout and out of it.
    spec, _ = bench_full
    path = tmp_path / "instance.json"
    base64_leaves = base64.b64encode(struct.pack("<8d", *range(8))).decode("ascii")
    for value in (LEAVES_N1[:-1], base64_leaves):
        for text in (_target_doc(spec, 1, value), serialize_instance(ProblemInstance(spec, 1)).replace(
                "\n}\n", f',\n  "target": "{value}"\n}}\n')):
            assert json.loads(text)["target"] == value
            path.write_text(text)
            for command in ("analyze", "synthesize"):
                assert main([command, "--instance", str(path)]) == 6
                assert capsys.readouterr() == ("", f"error: target string {NOT_HEX}; it needs {_forms(1)}\n")


@pytest.mark.parametrize("value", ["{}", '"0.5"', "0.5", "null", "[[0.5, 1.0], [2.0, 3.0]]"])
def test_target_of_another_form_names_both_forms(bench_full, value):
    spec, _ = bench_full
    text = _target_doc(spec, 0, None).replace('"target": null', f'"target": {value}')
    with pytest.raises(SchemaError) as err:
        parse_instance(text)
    if value.startswith("[["):  # nested rows: two entries, as many as n, but not numbers
        assert str(err.value) == "target entries must be JSON numbers"
    elif value == '"0.5"':  # a string is read as hex, and "." is not a hex digit
        assert str(err.value) == f"target string {NOT_HEX}; it needs {_forms(0)}"
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


def test_parse_peak_memory_of_hex_leaf_rows_is_a_small_multiple_of_the_leaves():
    """A hex 3^10-leaf, n = 2 target parsed from a str: its decoded slices and their join, 2.0x the leaf
    array here, and ProblemInstance keeps a view of the joined bytes; the string decoded whole would
    add its copy (3.0x), and the same leaves as a flat list held 5.2x."""
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
    """A hex 3^10-leaf, n = 2 target read from a file: the hex decodes from the mapped file, so the peak is
    the decoded bytes and the finiteness check's mask, 1.13x the leaf array here; reading the text and
    json's target string, then that string and its decoded base64 bytes, peaked at 2.7x."""
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
    assert peak <= 1.25 * inst.target.nbytes, (peak, inst.target.nbytes)


def test_a_two_point_N17_file_parse_peaks_at_its_rows_and_1_mb(tmp_path):
    """2^18 leaves of n = 3 (6.3 MB of rows, a 12.6 MB file): 7.1 MB traced; the whole text read, json's
    string of it and its decoded base64 bytes peaked at 16.8 MB."""
    rng = np.random.default_rng(5)
    inst = ProblemInstance(_random_spec(rng, 3, NoiseModel.rademacher()), 17, target=rng.normal(size=(2**18, 3)))
    path = tmp_path / "instance.json"
    path.write_text(serialize_instance(inst))
    tracemalloc.start()
    try:
        again = parse_instance_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again.target.tobytes() == inst.target.tobytes()
    assert peak <= inst.target.nbytes + 2**20, (peak, inst.target.nbytes)


def _root_bytes(target: np.ndarray):
    while isinstance(target, np.ndarray):
        target = target.base
    return target


def test_a_decoded_target_is_kept_without_a_copy(bench_full, tmp_path):
    """The hex target's float64 view over its decoded bytes is the stored target, parsed from a str or
    from a file; lists and arrays are copied, and a view over bytes is still checked finite once, with the
    copy's message."""
    spec, _ = bench_full  # n = 2, two-point noise
    path = tmp_path / "instance.json"
    text = serialize_instance(ProblemInstance(spec, 1, target=np.arange(8.0).reshape(4, 2)))
    path.write_text(text)
    for inst in (parse_instance(_target_doc(spec, 1, LEAVES_N1)), parse_instance(text), parse_instance_file(path)):
        assert type(_root_bytes(inst.target)) is bytes and not inst.target.flags.writeable
        assert inst.target.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]]
    for value in (inst.target.tolist(), np.arange(8.0).reshape(4, 2)):
        copied = ProblemInstance(spec, 1, target=value).target
        assert copied.base is None and copied.flags.owndata and not copied.flags.writeable
    for bits in (struct.pack("<2d", 0.0, np.inf), struct.pack("<2d", np.nan, 0.0)):
        with pytest.raises(DimensionMismatch, match="^target: entries must be finite$"):
            ProblemInstance(spec, 0, target=np.frombuffer(bits, "<f8"))


def _read_whole_text(path) -> ProblemInstance:
    """An instance file read as text mode reads it and parsed whole by json, as every file was before the split."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = model._document(fh.read())
        except UnicodeDecodeError as exc:
            raise SchemaError(f"not UTF-8 text: {exc}") from None
    return model._instance(doc)


def _outcome(parse, source):
    """Every field of the instance ``parse`` reads from ``source``, bit for bit, or its exception's type and message."""
    try:
        inst = parse(source)
    except Exception as exc:
        return type(exc), str(exc)
    spec = inst.system
    return (inst.N, spec.noise, _bits(inst.x0), _bits(inst.target),
            *(_bits(value) if isinstance(value, np.ndarray) else value for value in map(spec.__getattribute__, model._SPEC_KEYS)))


def _split_cases(spec) -> dict:
    """case: (file bytes, whether the split read takes it), each a perturbed serializer document."""
    rng = np.random.default_rng(8)
    leaves, other = rng.normal(size=(8, 2)), rng.normal(size=(8, 2))
    text = serialize_instance(ProblemInstance(spec, 2, x0=[1.0, -2.0], target=leaves))
    hex_digits, other_hex = leaves.tobytes().hex(), other.tobytes().hex()
    head, line = text.split(',\n  "target": ')
    doc = json.loads(text)
    first = json.dumps({"target": doc["target"], **doc}, indent=2) + "\n"
    cases = {
        "serializer": (text, True),
        "target-not-last": (first, False),
        "target-not-last-one-line": (json.dumps({"target": doc["target"], **doc}), False),
        "crlf": (text.replace("\n", "\r\n"), False),
        "lone-cr": (text.replace("\n", "\r"), False),
        "crlf-bad-N": (text.replace('"N": 2', '"N": 2 2').replace("\n", "\r\n"), False),
        "crlf-head": (head.replace("\n", "\r\n") + ',\n  "target": ' + line, True),
        "space-after-colon": (text.replace('"target": "', '"target":  "'), False),
        "space-after-string": (text.replace('"\n}\n', '" \n}\n'), False),
        "no-final-newline": (text[:-1], False),
        "two-final-newlines": (text + "\n", False),
        "indent-1": (json.dumps(doc, indent=1) + "\n", False),
        "duplicate-list-target": (text.replace('\n  "noise"', '\n  "target": [0.5, 0.25],\n  "noise"'), True),
        "duplicate-bad-target": (text.replace('\n  "noise"', '\n  "target": {},\n  "noise"'), True),
        "duplicate-string-target": (text.replace('\n  "noise"', f'\n  "target": "{other_hex}",\n  "noise"'), False),
        "duplicate-target-last": (text.replace('"\n}\n', f'",\n  "target": "{other_hex}"\n}}\n'), False),
        "head-brace-only": ('{,\n  "target": "' + hex_digits + '"\n}\n', False),
        "head-empty-object": ('{}\n  "target": "' + hex_digits + '"\n}\n', False),
        "head-trailing-comma": (head + ',,\n  "target": ' + line, False),
        "head-unknown-key": (text.replace('\n  "noise"', '\n  "note": "x",\n  "noise"'), True),
        "head-bad-N": (text.replace('"N": 2', '"N": -1'), True),
        "head-not-json": (text.replace('"N": 2', '"N": 2 2'), False),
        "head-bom": ("\ufeff" + text, False),
        "head-array": ("[" + text[:-1] + "]\n", False),
        "uppercase-hex": (text.replace(hex_digits, hex_digits.upper()), True),
        "odd-length-hex": (text.replace(hex_digits, hex_digits[:-1]), False),
        "spaced-hex": (text.replace(hex_digits, hex_digits[:32] + " " + hex_digits[32:]), False),
        "escaped-hex": (text.replace(hex_digits, "\\u0030" + hex_digits[1:]), False),
        "non-ascii-hex": (text.replace(hex_digits, hex_digits[:31] + "\u0663" + hex_digits[32:]), False),
        "base64-target": (text.replace(hex_digits, base64.b64encode(leaves.tobytes()).decode("ascii")), False),
        "short-hex": (text.replace(hex_digits, hex_digits[:32]), True),
        "non-finite-hex": (text.replace(hex_digits, hex_digits[:-16] + np.array([np.inf]).tobytes().hex()), True),
        "marker-in-target": (text.replace(hex_digits, '00\\",\\n  \\"target\\": \\"' + hex_digits), False),
        "marker-in-key": (text.replace('\n  "noise"', '\n  "\\"target\\": \\"": 1,\n  "noise"'), True),
        "marker-in-unclosed-string": (head + ',\n  "x": "a,\n  "target": ' + line, False),
        "constant-target": (serialize_instance(ProblemInstance(spec, 2, target=[0.5, 0.25])), False),
        "no-target": (serialize_instance(ProblemInstance(spec, 2)), False),
    }
    cases = {case: (value.encode(), split) for case, (value, split) in cases.items()}
    data = text.encode()
    cases["non-utf8-head"] = (data.replace(b'"noise"', b'"nois\xff"'), False)
    cases["non-utf8-hex"] = (data.replace(hex_digits.encode(), b"\xff" + hex_digits[1:].encode()), False)
    cases["latin-1-head"] = (data.replace(b'\n  "noise"', '\n  "é": 1,\n  "noise"'.encode("latin-1")), False)
    return cases


def test_the_split_read_equals_json_of_the_whole_text(bench_full, tmp_path):
    """For each perturbation of a serializer document, parse_instance_file and parse_instance give the
    instance, or the exception type and message, that json of the whole text gives; the split read takes
    only documents that end in the serializer's target line after a non-empty head and hold hex there."""
    spec, _ = bench_full  # n = 2, two-point noise
    path = tmp_path / "instance.json"
    seen = set()
    for case, (data, split) in _split_cases(spec).items():
        path.write_bytes(data)
        outcome = _outcome(parse_instance_file, path)
        assert outcome == _outcome(_read_whole_text, path), case
        assert (model._split_document(data) is not None) == split, case
        seen.add(outcome[0] if type(outcome[0]) is type else "instance")
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            continue
        assert _outcome(parse_instance, text) == _outcome(lambda t: model._instance(model._document(t)), text), case
        assert (model._split_document(text) is not None) == split, case
    assert seen == {"instance", SchemaError}


def test_an_empty_file_and_a_fifo_are_read_as_before(bench_full, tmp_path):
    """Neither can be mapped: each is read into bytes, and parses or fails as a text-mode read of it did."""
    spec, _ = bench_full
    empty = tmp_path / "empty.json"
    empty.write_bytes(b"")
    assert _outcome(parse_instance_file, empty) == (SchemaError, "not valid JSON: Expecting value: line 1 column 1 (char 0)")
    text = serialize_instance(ProblemInstance(spec, 2, x0=[1.0, -2.0], target=np.arange(16.0).reshape(8, 2)))
    fifo = tmp_path / "instance.fifo"
    os.mkfifo(fifo)
    for content in (text, text.replace("\n", "\r\n"), text + " " * mmap.PAGESIZE, "{"):  # the third is over a page
        writer = threading.Thread(target=fifo.write_text, args=(content,), daemon=True)
        writer.start()
        outcome = _outcome(parse_instance_file, fifo)
        writer.join(timeout=10)
        expected = _outcome(lambda t: model._instance(model._document(t)), content.replace("\r\n", "\n"))
        assert outcome == expected, content[:20]
    assert outcome[0] is SchemaError  # the last content, "{" alone


def test_a_failed_parse_leaves_no_open_map(bench_full, tmp_path, monkeypatch):
    """A parse that raises, in the split read or the whole one, closes its mapping, which it could not do
    while a view of it was exported; the file is then rewritten and parsed again. The target's 512 rows
    make every file larger than a page, so each is mapped."""
    spec, _ = bench_full
    opened = []
    real = mmap.mmap

    def recording(*args, **kwargs):
        opened.append(real(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(mmap, "mmap", recording)
    path = tmp_path / "instance.json"
    leaves = np.arange(1024.0).reshape(512, 2)
    text = serialize_instance(ProblemInstance(spec, 8, target=leaves))
    hex_digits = leaves.tobytes().hex()
    for bad in (text.replace(hex_digits, hex_digits[:-1]), text.replace('"N": 8', '"N": -1'), text[:-3]):
        assert len(bad) > mmap.PAGESIZE
        path.write_text(bad)
        with pytest.raises(SchemaError):
            parse_instance_file(path)
        path.write_text(text)
        assert parse_instance_file(path).target.tolist() == leaves.tolist()
    assert len(opened) == 6 and all(mapping.closed for mapping in opened)


def test_one_rcond_rule_calls_a_non_finite_matrix_singular():
    # The drift pencil and every state-delay P-bracket go through this rule. An inf entry makes the SVD's
    # values NaN and a NaN entry stops it converging; both read as rcond 0.0, singular, as an exactly
    # singular matrix does, while a finite matrix passes exactly when its rcond exceeds the cut.
    assert model.rcond_invertible(np.diag([2.0, 1.0])) == (True, 0.5)
    for a in (np.diag([np.inf, 5.0]), np.array([[np.nan, 0.0], [0.0, 5.0]]), np.diag([1.0, 0.0])):
        assert model.rcond_invertible(a) == (False, 0.0)
    cut = model.RCOND_CUT
    assert not model.rcond_invertible(np.diag([1.0, cut]))[0]
    assert model.rcond_invertible(np.diag([1.0, 2 * cut]))[0]
