"""System model, noise law, validation, and instance file (de)serialization.

The plant is the linear recursion

    x(k+1) = [A x(k) + B u(k)] + w(k) [Abar x(k) + Bbar u(k)]

driven by i.i.d. scalar noise w(k) with zero mean and unit variance on a
finite support. Optional features carried by :class:`SystemSpec`:

* ``M``: user-supplied input transform (columns reorganizing u),
* ``H``: output map for partial controllability of y = H x,
* ``B1, tau``: an extra input channel acting with a fixed delay,
* ``A1, d``: a delayed state term A1 x(k-d) in the drift.

Instance files are UTF-8 JSON documents with row-major matrices; see
``parse_instance`` for the accepted keys. Unknown keys are rejected so that
typos cannot silently change a run.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (
    DimensionMismatch,
    NoiseMomentViolation,
    RankDeficient,
    SchemaError,
    StructureUnsupported,
    UnsupportedReducedStructure,
)

MOMENT_TOL = 1e-12
STRUCTURE_TOL = 1e-12
MAX_SUPPORT = 10  # path labels use one decimal digit per stage


def _level_text(s: int, depth: int) -> str:
    """The depth-``depth`` labels in node order, each ended by a newline."""
    digits = np.full((s**depth, depth + 1), ord("\n"), dtype=np.uint8)
    per_stage = digits.reshape((s,) * depth + (depth + 1,))  # one axis per stage
    ascii_digits = np.arange(ord("0"), ord("0") + s, dtype=np.uint8)
    for j in range(depth):
        per_stage[..., j] = ascii_digits.reshape((s,) + (1,) * (depth - 1 - j))
    return digits.tobytes().decode("ascii")


def path_labels(s: int, depth: int) -> list[str]:
    """Labels of the s^depth noise histories of one tree level, in node order.

    This module owns the label format: one ASCII digit (a support index)
    per stage, earliest stage first, so node order is lexicographic order.
    """
    return _level_text(s, depth).split("\n")[:-1]


def check_level(labels, s: int, depth: int, what: str) -> None:
    """Raise :class:`SchemaError` unless ``labels`` are exactly one tree level in node order."""
    if len(labels) != s**depth:
        raise SchemaError(f"{what}: {len(labels)} labels, but a depth-{depth} level has {s**depth} paths")
    # Exact: the newlines sit where the level's do only if no label holds one.
    if "\n".join(labels) + "\n" != _level_text(s, depth):
        bad = next(a for a, b in zip(labels, path_labels(s, depth)) if a != b)
        raise SchemaError(
            f"{what}: {bad!r} breaks the node order of the length-{depth} paths over ASCII digits 0..{s - 1}"
        )


def level_values(mapping: dict, s: int, depth: int, n: int, what: str) -> np.ndarray:
    """The n-vectors of a {label: vector} map over one tree level, as read-only rows in node order."""
    labels = sorted(mapping)
    check_level(labels, s, depth, f"{what} keys")
    return _as_float_matrix(f"{what} values", [mapping[label] for label in labels], len(labels), n)


def _float_array(name: str, value) -> np.ndarray:
    """A read-only float copy of ``value``; :class:`DimensionMismatch` unless numeric and finite."""
    try:
        arr = np.array(value, dtype=float)  # copy, so freezing cannot alias caller data
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatch(f"{name}: not a numeric matrix ({exc})") from None
    if not np.isfinite(arr).all():
        raise DimensionMismatch(f"{name}: entries must be finite")
    arr.setflags(write=False)
    return arr


def _as_float_matrix(name: str, value, rows: int, cols: int) -> np.ndarray:
    arr = _float_array(name, value)
    if arr.shape != (rows, cols):
        raise DimensionMismatch(f"{name}: expected shape ({rows}, {cols}), got {arr.shape}")
    return arr


def _integer(name: str, value, minimum: int) -> int:
    """``value`` if it is an int (not a bool) of at least ``minimum``, else ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _numerical_rank(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    svals = np.linalg.svd(a, compute_uv=False)
    tol = max(a.shape) * np.finfo(float).eps * svals[0]
    return int(np.count_nonzero(svals > tol))


@dataclass(frozen=True)
class NoiseModel:
    """Finite scalar noise law with zero mean and unit variance.

    ``support`` holds the distinct atoms and ``probs`` their probabilities,
    in matching order. The order is meaningful: path labels and terminal
    value maps refer to atoms by their index here.
    """

    support: tuple[float, ...] = (-1.0, 1.0)
    probs: tuple[float, ...] = (0.5, 0.5)

    def __post_init__(self):
        try:
            support = tuple(map(float, self.support))
            probs = tuple(map(float, self.probs))
            finite = all(map(math.isfinite, support + probs))
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise NoiseMomentViolation("noise support points and probabilities must be finite")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        if len(support) != len(probs):
            raise NoiseMomentViolation("support and probs must have equal length")
        if len(support) < 2:
            raise NoiseMomentViolation("noise needs at least two support points")
        if len(support) > MAX_SUPPORT:
            raise NoiseMomentViolation(
                f"support size {len(support)} exceeds {MAX_SUPPORT}; path labels use one digit per stage"
            )
        if len(set(support)) != len(support):
            raise NoiseMomentViolation("support points must be distinct")
        if any(p < 0 for p in probs):
            raise NoiseMomentViolation("probabilities must be nonnegative")
        mass = sum(probs)
        mean = sum(p * s for p, s in zip(probs, support))
        var = sum(p * s * s for p, s in zip(probs, support))
        if abs(mass - 1.0) > MOMENT_TOL:
            raise NoiseMomentViolation(f"probabilities sum to {mass!r}, not 1")
        if abs(mean) > MOMENT_TOL:
            raise NoiseMomentViolation(f"mean {mean!r} exceeds tolerance {MOMENT_TOL}")
        if abs(var - 1.0) > MOMENT_TOL:
            raise NoiseMomentViolation(f"second moment {var!r} differs from 1 beyond {MOMENT_TOL}")

    @classmethod
    def rademacher(cls) -> "NoiseModel":
        return cls((-1.0, 1.0), (0.5, 0.5))

    @classmethod
    def symmetric_three_point(cls, spread: float = 2.0) -> "NoiseModel":
        """Law on {-spread, 0, spread}; needs spread >= 1 for a valid variance."""
        p = 1.0 / (2.0 * spread * spread)
        return cls((-float(spread), 0.0, float(spread)), (p, 1.0 - 2.0 * p, p))


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Coefficients of the plant plus optional structure.

    Dimensions are inferred from ``A`` (n x n) and ``B`` (n x m). The
    optional pairs ``(B1, tau)`` and ``(A1, d)`` must be given together.
    """

    A: np.ndarray
    B: np.ndarray
    Abar: np.ndarray
    Bbar: np.ndarray
    noise: NoiseModel = NoiseModel()
    horizon_max: int | None = None
    M: np.ndarray | None = None
    H: np.ndarray | None = None
    B1: np.ndarray | None = None
    tau: int | None = None
    A1: np.ndarray | None = None
    d: int | None = None

    def __post_init__(self):
        A = _float_array("A", self.A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        B = _float_array("B", self.B)
        if B.ndim != 2 or B.shape[0] != n:
            raise DimensionMismatch(f"B must have {n} rows, got shape {B.shape}")
        m = B.shape[1]
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "Abar", _as_float_matrix("Abar", self.Abar, n, n))
        object.__setattr__(self, "Bbar", _as_float_matrix("Bbar", self.Bbar, n, m))
        if self.M is not None:
            object.__setattr__(self, "M", _as_float_matrix("M", self.M, m, m))
        if self.H is not None:
            H = _float_array("H", self.H)
            if H.ndim != 2 or H.shape[1] != n or not 1 <= H.shape[0] <= n:
                raise DimensionMismatch(f"H must be l x {n} with 1 <= l <= {n}, got {H.shape}")
            object.__setattr__(self, "H", H)
        if (self.B1 is None) != (self.tau is None):
            raise ValueError("B1 and tau must be given together")
        if self.B1 is not None:
            B1 = _float_array("B1", self.B1)
            if B1.ndim != 2 or B1.shape[0] != n or B1.shape[1] < 1:
                raise DimensionMismatch(f"B1 must have {n} rows and at least one column, got {B1.shape}")
            object.__setattr__(self, "B1", B1)
            _integer("tau", self.tau, 1)
        if (self.A1 is None) != (self.d is None):
            raise ValueError("A1 and d must be given together")
        if self.A1 is not None:
            object.__setattr__(self, "A1", _as_float_matrix("A1", self.A1, n, n))
            _integer("d", self.d, 1)
        if self.horizon_max is not None:
            _integer("horizon_max", self.horizon_max, 0)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def default_horizon(self) -> int:
        """Scan limit when none is given: ``horizon_max``, else 2n."""
        return self.horizon_max if self.horizon_max is not None else 2 * self.n


@dataclass(frozen=True, eq=False)
class ValidatedSystem:
    """A :class:`SystemSpec` that passed :func:`validate`.

    ``full_rank`` selects the standard input-transform route; otherwise
    ``reduced_r`` holds the block size of the supported rank-deficient form.
    """

    spec: SystemSpec
    rank_Bbar: int
    full_rank: bool
    reduced_r: int | None = None

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def m(self) -> int:
        return self.spec.m


def validate(spec: SystemSpec) -> ValidatedSystem:
    """Check rank structure and feature compatibility of a system.

    Returns the spec annotated with the numerical rank of ``Bbar``. Systems
    with rank(Bbar) = n take the standard transform route. Rank-deficient
    ``Bbar`` is accepted only in the block form
    ``[[I_r, 0], [0, 0]]`` with n = 2r, ``Abar[r:, :r] = I`` and
    ``Abar[r:, r:] = 0``; anything else raises
    :class:`UnsupportedReducedStructure`.
    """
    n, m = spec.n, spec.m
    if spec.B1 is not None and spec.A1 is not None:
        raise StructureUnsupported("simultaneous input and state delays are not supported")
    if spec.H is not None and (spec.B1 is not None or spec.A1 is not None):
        raise StructureUnsupported("partial controllability with delays is not supported")
    if spec.H is not None and _numerical_rank(spec.H) < spec.H.shape[0]:
        raise RankDeficient(f"H must have full row rank {spec.H.shape[0]}")
    rank = _numerical_rank(spec.Bbar)
    if rank == n:
        return ValidatedSystem(spec, rank, True, None)

    r = rank
    pattern = np.zeros((n, m))
    pattern[:r, :r] = np.eye(r)
    if not np.allclose(spec.Bbar, pattern, atol=STRUCTURE_TOL):
        raise UnsupportedReducedStructure(
            f"rank(Bbar) = {rank} < n = {n} and Bbar is not [[I_r, 0], [0, 0]]"
        )
    if n - r != r:
        raise UnsupportedReducedStructure(
            f"reduced form needs n = 2r, got n = {n} with rank r = {r}"
        )
    if not np.allclose(spec.Abar[r:, :r], np.eye(n - r), atol=STRUCTURE_TOL):
        raise UnsupportedReducedStructure("reduced form needs Abar[r:, :r] = I")
    if not np.allclose(spec.Abar[r:, r:], np.zeros((n - r, n - r)), atol=STRUCTURE_TOL):
        raise UnsupportedReducedStructure("reduced form needs Abar[r:, r:] = 0")
    if spec.H is not None or spec.B1 is not None or spec.A1 is not None or spec.M is not None:
        raise StructureUnsupported("reduced-rank route supports none of M, H, delays")
    return ValidatedSystem(spec, rank, False, r)


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A system together with a horizon and optional steering data.

    ``target`` is given as a map from every full noise-path label (see
    :func:`path_labels`; length N + 1) to a terminal n-vector, and stored
    as the rows of one read-only leaf array in node order; ``None`` means
    steer to the origin.
    """

    system: SystemSpec
    N: int
    x0: np.ndarray | None = None
    target: dict[str, np.ndarray] | np.ndarray | None = None

    def __post_init__(self):
        _integer("N", self.N, 0)
        if self.x0 is not None:
            object.__setattr__(self, "x0", _as_float_matrix("x0", [self.x0], 1, self.system.n)[0])
        if self.target is not None:
            s = len(self.system.noise.support)
            object.__setattr__(self, "target", level_values(self.target, s, self.N + 1, self.system.n, "target"))


_REQUIRED_KEYS = ("n", "m", "N", "A", "B", "Abar", "Bbar")
_OPTIONAL_KEYS = ("M", "H", "B1", "tau", "A1", "d", "noise", "x0", "target")
_NOISE_KEYS = ("support", "probs")
_MATRIX_KEYS = ("A", "B", "Abar", "Bbar", "M", "H", "B1", "A1")
_JSON_NUMBERS = {int, float}


def _json_numbers(rows) -> bool:
    """Whether every entry of every row is a JSON number: an int or float, not a bool, string, null or list."""
    try:
        return set(map(type, chain.from_iterable(rows))) <= _JSON_NUMBERS
    except TypeError:  # a scalar where a list belongs
        return False


def parse_instance(text: str) -> ProblemInstance:
    """Parse a JSON instance document.

    Required keys: n, m, N, A, B, Abar, Bbar. Optional: M, H, B1, tau,
    A1, d, noise {support, probs}, x0, target. Any other key raises
    :class:`SchemaError`. This layer checks the keys, that every number is
    a JSON number, and the declared n and m; shapes, pairings, integer
    ranges and finiteness are checked by :class:`SystemSpec`,
    :class:`ProblemInstance` and :class:`NoiseModel`, whose shape, pairing
    and range errors are raised here as :class:`SchemaError`.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # bad JSON, an integer too long to read
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    unknown = sorted(set(doc) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS))
    if unknown:
        raise SchemaError(f"unknown keys: {', '.join(unknown)}")
    missing = sorted(set(_REQUIRED_KEYS) - set(doc))
    if missing:
        raise SchemaError(f"missing required keys: {', '.join(missing)}")

    kwargs = {key: doc[key] for key in _MATRIX_KEYS if key in doc}
    for key, rows in kwargs.items():
        if not _json_numbers(rows):
            raise SchemaError(f"{key} must be a list of rows of JSON numbers")
    kwargs.update((key, doc[key]) for key in ("tau", "d") if key in doc)
    if "noise" in doc:
        noise_doc = doc["noise"]
        if not isinstance(noise_doc, dict) or set(noise_doc) != set(_NOISE_KEYS):
            raise SchemaError("noise must be an object with exactly the keys support and probs")
        for key in _NOISE_KEYS:
            if not _json_numbers([noise_doc[key]]):
                raise SchemaError(f"noise.{key} must be a list of JSON numbers")
        kwargs["noise"] = NoiseModel(noise_doc["support"], noise_doc["probs"])
    if "x0" in doc and not _json_numbers([doc["x0"]]):
        raise SchemaError("x0 must be a list of JSON numbers")
    target = doc.get("target")
    if "target" in doc:
        if not isinstance(target, dict):
            raise SchemaError("target must map path labels to vectors")
        if not _json_numbers(target.values()):
            bad = next(label for label, vec in target.items() if not _json_numbers([vec]))
            raise SchemaError(f"target[{bad!r}] must be a list of JSON numbers")

    try:
        n, m = _integer("n", doc["n"], 1), _integer("m", doc["m"], 1)
        spec = SystemSpec(**kwargs)
        if (spec.n, spec.m) != (n, m):
            raise SchemaError(f"declared n = {n}, m = {m}, but A and B give n = {spec.n}, m = {spec.m}")
        return ProblemInstance(spec, doc["N"], x0=doc.get("x0"), target=target)
    except (DimensionMismatch, ValueError) as exc:
        raise SchemaError(str(exc)) from None


def parse_instance_file(path) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_instance(fh.read())
        except UnicodeDecodeError as exc:
            raise SchemaError(f"not UTF-8 text: {exc}") from None


def serialize_instance(inst: ProblemInstance) -> str:
    """Canonical JSON rendering; parse(serialize(p)) reproduces p exactly."""
    spec = inst.system
    doc: dict = {
        "n": spec.n,
        "m": spec.m,
        "N": inst.N,
        "A": spec.A.tolist(),
        "B": spec.B.tolist(),
        "Abar": spec.Abar.tolist(),
        "Bbar": spec.Bbar.tolist(),
    }
    if spec.M is not None:
        doc["M"] = spec.M.tolist()
    if spec.H is not None:
        doc["H"] = spec.H.tolist()
    if spec.B1 is not None:
        doc["B1"] = spec.B1.tolist()
        doc["tau"] = spec.tau
    if spec.A1 is not None:
        doc["A1"] = spec.A1.tolist()
        doc["d"] = spec.d
    doc["noise"] = {"support": list(spec.noise.support), "probs": list(spec.noise.probs)}
    if inst.x0 is not None:
        doc["x0"] = inst.x0.tolist()
    if inst.target is not None:
        labels = path_labels(len(spec.noise.support), inst.N + 1)
        doc["target"] = dict(zip(labels, inst.target.tolist()))
    return json.dumps(doc, indent=2) + "\n"
