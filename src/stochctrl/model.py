"""System model, noise law, validation, and instance file (de)serialization.

The plant is the linear recursion

    x(k+1) = [A x(k) + B u(k)] + w(k) [Abar x(k) + Bbar u(k)]

driven by i.i.d. scalar noise w(k) with zero mean and unit variance on a
finite support. Optional features carried by :class:`SystemSpec`:

* ``M``: user-supplied input transform (columns reorganizing u),
* ``H``: output map for partial controllability of y = H x,
* ``B1, tau``: an extra input channel acting with a fixed delay,
* ``A1, d``: a delayed state term A1 x(k-d) in the drift.

Instance files are UTF-8 JSON documents with row-major matrices and the
target's numbers row-major in node order, as a flat list or as one hex
string of their float64 bytes; see ``parse_instance`` for the accepted
keys. Unknown keys are rejected so that typos cannot
silently change a run.
"""
from __future__ import annotations

import binascii
import contextlib
import functools
import json
import math
import mmap
import operator
import os
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
RCOND_CUT = 1e-12  # rcond_invertible's cut for the pencil and the P-brackets
MAX_SUPPORT = 10  # path labels use one decimal digit per stage
# Labels are built from cached levels of at most this many; a whole level
# is never cached, since at the 2^20 leaf cap it holds about 1M strings.
LABEL_TABLE_MAX = 4096
_JSON_NUMBERS = {int, float}
_EPS = float(np.finfo(float).eps)


def path_labels(s: int, depth: int) -> list[str]:
    """Labels of the s^depth noise histories of one tree level, in node order.

    This module owns the label format: one ASCII digit (a support index)
    per stage, earliest stage first, so node order is lexicographic order.
    """
    return list(_level_labels(s, depth))


@functools.cache
def _label_tables(s: int) -> tuple[tuple[str, ...], ...]:
    """:func:`path_labels` of every level with at most ``LABEL_TABLE_MAX`` labels, shallowest first,
    each level its parent level's labels each followed by one digit.

    The deepest is the tail table: a longer label is a head label followed
    by one of its entries.
    """
    tables = [("",)]
    while s ** len(tables) <= LABEL_TABLE_MAX:
        tables.append(tuple(label + digit for label in tables[-1] for digit in "0123456789"[:s]))
    return tuple(tables)


def _level_labels(s: int, depth: int):
    """One level's labels in node order, made lazily as head + tail from the bounded tables."""
    tables = _label_tables(s)
    if depth < len(tables):
        yield from tables[depth]
        return
    for head in _level_labels(s, depth - len(tables) + 1):
        for tail in tables[-1]:
            yield head + tail


def check_level(labels, s: int, depth: int, what: str) -> None:
    """Raise :class:`SchemaError` unless ``labels`` are exactly one tree level in node order."""
    if len(labels) != s**depth:
        raise SchemaError(f"{what}: {len(labels)} labels, but a depth-{depth} level has {s**depth} paths")
    bad = next((a for a, b in zip(labels, _level_labels(s, depth)) if a != b), None)
    if bad is not None:
        raise SchemaError(
            f"{what}: {bad!r} breaks the node order of the length-{depth} paths over ASCII digits 0..{s - 1}"
        )


def level_values(mapping: dict, s: int, depth: int, n: int, what: str) -> np.ndarray:
    """The n-vectors of a {label: vector} map over one tree level, as read-only rows in node order.

    Keys that come in node order, compared lazily with the level's labels (no whole level is made), are
    taken as they are; any others must be ``str`` (else :class:`SchemaError`), and are sorted and checked
    as one level (:func:`check_level`). Values that are all arrays of shape (n,) and read as finite floats
    go into the rows in one pass, with no list of them; any others take the one row-wise conversion, which
    names what is wrong.
    """
    in_order = len(mapping) == s**depth and all(map(operator.eq, mapping, _level_labels(s, depth)))
    values = mapping.values()
    # Shapes first: np.fromiter would broadcast a short row into n entries.
    if in_order and set(map(type, values)) == {np.ndarray} and set(map(operator.attrgetter("shape"), values)) == {(n,)}:
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            rows = np.fromiter(values, dtype=(float, n), count=len(values))
            if np.isfinite(rows).all():
                rows.setflags(write=False)
                return rows
    if not in_order:
        bad = next((key for key in mapping if not isinstance(key, str)), None)
        if bad is not None:
            raise SchemaError(f"{what} keys: {bad!r} is not a str label")
        labels = sorted(mapping)
        check_level(labels, s, depth, f"{what} keys")
        values = [mapping[label] for label in labels]
    return _as_float_matrix(f"{what} values", list(values), len(values), n)


def _finite_floats(name: str, entries: list) -> np.ndarray:
    """A flat list of finite JSON numbers as a float array, else :class:`SchemaError`."""
    if not _json_numbers([entries]):
        raise SchemaError(f"{name} entries must be JSON numbers")
    try:
        arr = np.array(entries, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise SchemaError(f"{name} entries must be finite") from None
    if not np.isfinite(arr).all():
        raise SchemaError(f"{name} entries must be finite")
    return arr


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
    """:func:`_float_array` of ``value`` if its shape is (rows, cols), else :class:`DimensionMismatch` naming ``name``."""
    arr = _float_array(name, value)
    if arr.shape != (rows, cols):
        raise DimensionMismatch(f"{name}: expected shape ({rows}, {cols}), got {arr.shape}")
    return arr


def _integer(name: str, value, minimum: int) -> int:
    """``value`` if it is an int (not a bool) of at least ``minimum``, else :class:`SchemaError` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise SchemaError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _rank_rtol(a: np.ndarray) -> float:
    """The factor :func:`_rank_cut` multiplies sigma_max by: max(shape) * eps of ``a``'s matrices."""
    return max(a.shape[-2:]) * _EPS


def _rank_cut(a: np.ndarray, svals: np.ndarray) -> float | np.ndarray:
    """The package's one numerical-rank threshold, :func:`_rank_rtol` * sigma_max of ``a`` (of each
    matrix, for a stack) from its singular values ``svals``, and 0 for a matrix with no entries:
    the rank counts the values above it."""
    return _rank_rtol(a) * svals.max(axis=-1, initial=0.0)


def _singular_values(a: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
    """``a``'s singular values, largest first, and their :func:`_rank_cut`. A stack
    of matrices gives each matrix's values and threshold, from one SVD call."""
    svals = np.linalg.svd(a, compute_uv=False)
    return svals, _rank_cut(a, svals)


def gramian_invertible(G: np.ndarray) -> tuple[bool, float]:
    """Invertibility decision for a square matrix (a Gramian, a user M, a reduced form's script-A
    block): whether its smallest singular value exceeds :func:`_rank_cut`, dim * eps * sigma_max.

    Returns (invertible, min singular value).
    """
    svals, cut = _singular_values(G)
    smin = float(svals[-1])
    return smin > cut, smin


def rcond_invertible(a: np.ndarray) -> tuple[bool, float]:
    """The one rule for a matrix the package inverts outright (the drift pencil, a state-delay
    P-bracket): invertible when its reciprocal condition number sigma_min / sigma_max, from one SVD,
    exceeds ``RCOND_CUT``. Returns (invertible, rcond). A matrix holding inf or NaN is singular with
    rcond 0.0, read off the same SVD: an inf gives NaN singular values, and a NaN does not converge.
    """
    try:
        svals = np.linalg.svd(a, compute_uv=False).tolist()
    except np.linalg.LinAlgError:  # "SVD did not converge": a NaN entry
        return False, 0.0
    rcond = svals[-1] / svals[0] if svals[0] > 0 else 0.0  # a NaN sigma_max is not > 0
    return rcond > RCOND_CUT, rcond


def _range_basis(a: np.ndarray) -> np.ndarray:
    """An orthonormal basis of ``a``'s numerical range, as columns: the left singular
    vectors whose values lie above :func:`_rank_cut`."""
    U, svals, _ = np.linalg.svd(a, full_matrices=False)
    return U[:, svals > _rank_cut(a, svals)]


@dataclass(frozen=True)
class NoiseModel:
    """Finite scalar noise law with zero mean and unit variance.

    ``support`` holds the distinct atoms and ``probs`` their probabilities,
    in matching order. The order is meaningful: path labels and node
    order refer to atoms by their index here.
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
        if min(probs) < 0:
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
    Every field but ``noise`` is one key of the instance file
    (``_SPEC_KEYS``), and ``noise`` is its ``noise`` object, so
    :func:`serialize_instance` carries a spec whole.
    """

    A: np.ndarray
    B: np.ndarray
    Abar: np.ndarray
    Bbar: np.ndarray
    noise: NoiseModel = NoiseModel()
    M: np.ndarray | None = None
    H: np.ndarray | None = None
    B1: np.ndarray | None = None
    tau: int | None = None
    A1: np.ndarray | None = None
    d: int | None = None

    def __post_init__(self):
        # Each matrix, an instance file's nested lists or a library caller's value alike, takes one
        # conversion and one finiteness check here; the JSON-number types are the file reader's check.
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
            raise SchemaError("B1 and tau must be given together")
        if self.B1 is not None:
            B1 = _float_array("B1", self.B1)
            if B1.ndim != 2 or B1.shape[0] != n or B1.shape[1] < 1:
                raise DimensionMismatch(f"B1 must have {n} rows and at least one column, got {B1.shape}")
            object.__setattr__(self, "B1", B1)
            _integer("tau", self.tau, 1)
        if (self.A1 is None) != (self.d is None):
            raise SchemaError("A1 and d must be given together")
        if self.A1 is not None:
            object.__setattr__(self, "A1", _as_float_matrix("A1", self.A1, n, n))
            _integer("d", self.d, 1)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def default_horizon(self) -> int:
        """Scan limit when none is given: 2n."""
        return 2 * self.n


@dataclass(frozen=True, eq=False)
class ValidatedSystem:
    """A :class:`SystemSpec` that passed :func:`validate`.

    A full-rank ``Bbar`` selects the standard input-transform route;
    otherwise ``rank_Bbar`` is the block size r of the supported
    rank-deficient form. ``cut_Bbar`` is the :func:`_rank_cut` that
    rank was counted above, which ``transform.compute_M`` pivots by.
    """

    spec: SystemSpec
    rank_Bbar: int
    cut_Bbar: float

    @property
    def full_rank(self) -> bool:
        return self.rank_Bbar == self.spec.n


def validate(spec: SystemSpec) -> ValidatedSystem:
    """Check rank structure and feature compatibility of a system.

    Returns the spec annotated with the numerical rank of ``Bbar`` and the
    cut it was counted above, from one SVD. Systems with rank(Bbar) = n
    take the standard transform route. Rank-deficient ``Bbar`` is accepted
    only in the block form ``[[I_r, 0], [0, 0]]`` with n = 2r,
    ``Abar[r:, :r] = I`` and ``Abar[r:, r:] = 0``, every entry within
    ``STRUCTURE_TOL`` of its pattern absolutely; anything else raises
    :class:`UnsupportedReducedStructure`.
    """
    n, m = spec.n, spec.m
    if spec.B1 is not None and spec.A1 is not None:
        raise StructureUnsupported("simultaneous input and state delays are not supported")
    if spec.H is not None and (spec.B1 is not None or spec.A1 is not None):
        raise StructureUnsupported("partial controllability with delays is not supported")
    if spec.H is not None:
        svals, cut = _singular_values(spec.H)
        if np.count_nonzero(svals > cut) < spec.H.shape[0]:
            raise RankDeficient(f"H must have full row rank {spec.H.shape[0]}")
    svals, cut = _singular_values(spec.Bbar)
    r = int(np.count_nonzero(svals > cut))
    if r == n:
        return ValidatedSystem(spec, r, cut)

    pattern = np.eye(n, m)
    pattern[r:, r:] = 0.0
    if not _within(spec.Bbar, pattern):
        raise UnsupportedReducedStructure(
            f"rank(Bbar) = {r} < n = {n} and Bbar is not [[I_r, 0], [0, 0]]"
        )
    if n - r != r:
        raise UnsupportedReducedStructure(
            f"reduced form needs n = 2r, got n = {n} with rank r = {r}"
        )
    if not _within(spec.Abar[r:, :r], pattern[:r, :r]):
        raise UnsupportedReducedStructure("reduced form needs Abar[r:, :r] = I")
    if not _within(spec.Abar[r:, r:], 0.0):
        raise UnsupportedReducedStructure("reduced form needs Abar[r:, r:] = 0")
    if spec.H is not None or spec.B1 is not None or spec.A1 is not None or spec.M is not None:
        raise StructureUnsupported("reduced-rank route supports none of M, H, delays")
    return ValidatedSystem(spec, r, cut)


def _within(a: np.ndarray, pattern) -> bool:
    """Whether every entry of ``a`` is within ``STRUCTURE_TOL`` of ``pattern``'s, absolutely."""
    return float(np.abs(a - pattern).max()) <= STRUCTURE_TOL


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A system together with a horizon and optional steering data.

    ``target`` is an n-vector, the same terminal value on every noise
    path and so valid at any horizon, or the (s^(N+1), n) leaf rows in
    node order (:func:`path_labels` order), or a map from every full
    path label (length N + 1) to its n-vector, read into those rows
    (:func:`level_values`, in one pass when the keys come in node order).
    It is stored as a read-only copy, but for a native float64 array over
    immutable ``bytes`` (a decoded hex target), which no one can write
    and which is kept as it is; ``None`` means steer to the origin. The
    solves share leaf rows as their x(N+1) and do not copy them.
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
            s, n = len(self.system.noise.support), self.system.n
            if isinstance(self.target, dict):
                target = level_values(self.target, s, self.N + 1, n, "target")
            elif _over_bytes(self.target):  # a decoded hex target: nothing can write it, so it is not copied
                target = self.target
                if not np.isfinite(target).all():
                    raise DimensionMismatch("target: entries must be finite")
            else:
                target = _float_array("target", self.target)
                rows = target.ndim == 2 and target.shape[1] == n and _is_leaf_count(len(target), s, self.N + 1)
                if target.shape != (n,) and not rows:
                    raise DimensionMismatch(f"target: shape {target.shape}; it must be ({n},) or ({s}^{self.N + 1}, {n})")
            object.__setattr__(self, "target", target)


def _over_bytes(value) -> bool:
    """Whether ``value`` is a native float64 array over immutable ``bytes``, as a decoded hex target is
    (``np.frombuffer``): read-only, and no view of it can be made writeable."""
    if not (isinstance(value, np.ndarray) and value.dtype == np.float64):  # native: == compares byte order too
        return False
    base = value
    while isinstance(base, np.ndarray):
        base = base.base
    return type(base) is bytes


def _is_leaf_count(count: int, s: int, depth: int) -> bool:
    """Whether ``count`` is s^depth, without forming a power past ``count`` (s >= 2)."""
    return depth < count.bit_length() and s**depth == count


def _target_list(value, n: int, s: int, N: int) -> np.ndarray:
    """An instance file's target: n finite numbers, or s^(N+1) rows of n row-major, as a flat list of
    JSON numbers or as one hex string of their little-endian float64 bytes (``bytes`` once the
    split read of :func:`_split_document` has decoded that string)."""
    leaves = f"{s}^{N + 1}*{n}" + (f" = {s ** (N + 1) * n}" if N < 64 else "")
    forms = (
        f"a flat list of n = {n} numbers (a constant target) or s^(N+1)*n = {leaves} (one row per leaf, "
        "in node order), or a hex string of their little-endian float64 bytes"
    )
    if type(value) is str:
        try:
            value = binascii.a2b_hex(value)  # strict: an odd length or any other character raises
        except ValueError:  # binascii.Error, or a character beyond ASCII
            raise SchemaError(f"target string is not hex (two of 0-9 a-f A-F per byte); it needs {forms}") from None
    if type(value) is bytes:
        count, spare = divmod(len(value), 8)
        if spare:
            raise SchemaError(f"target string decodes to {len(value)} bytes, not whole float64 values; it needs {forms}")
        what = f"target string holds {count} float64 values"
    elif type(value) is list:
        count = len(value)
        what = f"target lists {count} numbers"
    else:
        old = "; a {label: vector} map is not read: list its rows in label order" if type(value) is dict else ""
        raise SchemaError(f"target must be {forms}{old}")
    if count != n and not (count % n == 0 and _is_leaf_count(count // n, s, N + 1)):
        raise SchemaError(f"{what}; it needs {forms}")
    # Decoded bytes' finiteness is ProblemInstance's check; it keeps the read-only view uncopied.
    flat = np.frombuffer(value, "<f8") if type(value) is bytes else _finite_floats("target", value)
    return flat if len(flat) == n else flat.reshape(-1, n)


_REQUIRED_KEYS = ("n", "m", "N", "A", "B", "Abar", "Bbar")
_OPTIONAL_KEYS = ("M", "H", "B1", "tau", "A1", "d", "noise", "x0", "target")
_NOISE_KEYS = ("support", "probs")
_MATRIX_KEYS = ("A", "B", "Abar", "Bbar", "M", "H", "B1", "A1")
_SPEC_KEYS = ("A", "B", "Abar", "Bbar", "M", "H", "B1", "tau", "A1", "d")  # SystemSpec's fields, in file order
_REQUIRED, _KNOWN = frozenset(_REQUIRED_KEYS), frozenset(_REQUIRED_KEYS + _OPTIONAL_KEYS)


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
    :class:`SchemaError`. This layer checks what only JSON needs: the
    keys, that every number is a JSON number (one type check per entry,
    naming the faulty key), and the declared n and m. Conversion, shapes,
    pairings, integer ranges and finiteness are the constructors' checks,
    for files and library callers alike: :class:`SystemSpec`,
    :class:`ProblemInstance` and :class:`NoiseModel`, whose shape, pairing
    and range errors are raised here as :class:`SchemaError`.

    ``target`` holds n numbers, a constant target valid at any horizon,
    or s^(N+1) n numbers, one row of n per leaf, row-major in node order
    (:func:`path_labels` order). Either count is written as a flat list
    of JSON numbers, read by one type check, one float array and one
    finiteness check, which :class:`ProblemInstance` then copies and
    checks again, or as one JSON string: the hex (two of 0-9 a-f A-F per
    byte, no whitespace) of the numbers as little-endian float64,
    decoded by ``binascii`` into read-only ``bytes`` and checked for
    finiteness by :class:`ProblemInstance`, which keeps that array
    without a copy. A path target's law holds the SHA-256 digest of those
    bytes. Any other count, entry or form, a {label: vector} map and a
    base64 string included, is a :class:`SchemaError` naming every form.

    A document that ends in the line :func:`serialize_instance` writes
    for leaf rows is read in two parts (:func:`_split_document`): json
    reads the head and ``binascii`` decodes the hex, a slice of the text
    at a time, so no copy of the whole string is made. Any other
    document, or a fault in either part, is read whole by ``json.loads``,
    which names the fault; the two reads give the same instance.
    """
    doc = _split_document(text) or _document(text)
    del text
    return _instance(doc)


def parse_instance_file(path) -> ProblemInstance:
    """Parse the JSON instance document in the UTF-8 file at ``path``, as :func:`parse_instance` does.

    A file within one page (``mmap.PAGESIZE`` bytes) is read into bytes by one ``os.read``; a larger
    one is mapped read-only, and one that cannot be mapped (a FIFO) is read into bytes. A document in
    :func:`serialize_instance`'s layout is read in two parts: json reads the head, and the hex decodes in
    one call from the bytes or the mapping, so a large file's text is never held as a string. Any other
    document, or a fault in either part, is decoded whole as UTF-8 text with universal newlines, as a
    text-mode read gives it, and read by ``json.loads``. Each matrix entry then gets one type check in the
    reader and one conversion and one finiteness check in :class:`SystemSpec`.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        with _contents(fd, path) as data:
            doc = _split_document(data) or _whole_document(data)
    finally:
        os.close(fd)
    return _instance(doc)


def _contents(fd: int, path):
    """A context holding the bytes of the file ``path``, open at ``fd``: those of one read where the file
    is within one page, else a read-only mapping of it, or, where it cannot be mapped (a FIFO), every byte
    read from it."""
    try:
        head = os.read(fd, mmap.PAGESIZE + 1)
    except IsADirectoryError as exc:  # named as open() names it, which refuses a directory before a read
        exc.filename = os.fspath(path)
        raise
    if len(head) > mmap.PAGESIZE:
        with contextlib.suppress(ValueError, OSError):  # a FIFO
            return mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    chunks = [head]
    while chunk := os.read(fd, mmap.PAGESIZE + 1):  # at a file's end, none; from a FIFO, the rest
        chunks.append(chunk)
    return contextlib.nullcontext(b"".join(chunks))


# How serialize_instance ends a document with a target; leaf rows are a string there, which _split_document reads.
_TARGET_KEY, _DOCUMENT_END = ',\n  "target": ', "\n}\n"


def _split_document(data) -> dict | None:
    """The JSON object of a document (a str, or a file's bytes or mapping) that ends in the leaf-row target
    line; else None, as on any fault, for the whole-document read to report.

    json reads the head with ``"\\n}"`` in place of that line, and ``binascii`` decodes the hex between
    its quotes into ``doc["target"]``. Exact: if the head so closed is a non-empty object, the whole text
    is that object plus one last string member, the decoded hex, and json lets a duplicate key's last
    value win. A mapping's or bytes' hex decodes in one call from a view that is released before the
    mapping closes; a str's a slice at a time, since a str slice is a copy.
    """
    text = type(data) is str
    opening, closing = _TARGET_KEY + '"', '"' + _DOCUMENT_END
    if not text:
        opening, closing = opening.encode(), closing.encode()
    end = len(data) - len(closing)
    at = data.find(opening, 0, end) if end >= 0 and data[end:] == closing else -1
    if at < 0:
        return None
    try:
        doc = json.loads((data[:at] if text else str(data[:at], "utf-8")) + "\n}")
        if not doc:  # the head was "{" alone, so the whole text is no object
            return None
        if text:
            start, step = at + len(opening), 1 << 16  # even, so each slice is whole bytes
            doc["target"] = b"".join([binascii.a2b_hex(data[i : min(i + step, end)]) for i in range(start, end, step)])
        else:
            with memoryview(data)[at + len(opening) : end] as hex_digits:
                doc["target"] = binascii.a2b_hex(hex_digits)
    except (ValueError, RecursionError):  # not UTF-8, not JSON, not hex
        return None
    return doc


def _whole_document(data) -> dict:
    """The JSON object of a file's bytes or mapping, read as text mode reads it: UTF-8 with universal newlines."""
    try:
        text = str(data, "utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text: {exc}") from None
    return _document(text.replace("\r\n", "\n").replace("\r", "\n"))


def _document(text: str) -> dict:
    """An instance document's JSON object, or :class:`SchemaError`."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, an integer too long, nesting too deep
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    return doc


def _instance(doc: dict) -> ProblemInstance:
    """The :class:`ProblemInstance` an instance document's JSON object describes (:func:`parse_instance`)."""
    unknown = doc.keys() - _KNOWN
    if unknown:
        raise SchemaError(f"unknown keys: {', '.join(sorted(unknown))}")
    missing = _REQUIRED - doc.keys()
    if missing:
        raise SchemaError(f"missing required keys: {', '.join(sorted(missing))}")

    matrices = [key for key in _MATRIX_KEYS if key in doc]
    if not _json_numbers(chain.from_iterable(doc[key] for key in matrices)):  # every matrix's rows at once
        bad = next(key for key in matrices if not _json_numbers(doc[key]))
        raise SchemaError(f"{bad} must be a list of rows of JSON numbers")
    kwargs = {key: doc[key] for key in _SPEC_KEYS if key in doc}
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

    try:
        n, m = _integer("n", doc["n"], 1), _integer("m", doc["m"], 1)
        spec = SystemSpec(**kwargs)
        if (spec.n, spec.m) != (n, m):
            raise SchemaError(f"declared n = {n}, m = {m}, but A and B give n = {spec.n}, m = {spec.m}")
        N = _integer("N", doc["N"], 0)
        # Popped, so the target's number objects go as soon as its array is made.
        target = _target_list(doc.pop("target"), n, len(spec.noise.support), N) if "target" in doc else None
        return ProblemInstance(spec, N, x0=doc.get("x0"), target=target)
    except DimensionMismatch as exc:
        raise SchemaError(str(exc)) from None


def serialize_instance(inst: ProblemInstance) -> str:
    """Canonical JSON rendering; parse(serialize(p)) reproduces p exactly.

    The head (matrices, noise, x0) is ``json.dumps(doc, indent=2)``. The
    target, the last key, is one line. A constant (n-vector) target is a
    list, as json's C encoder writes it, each float as ``float.__repr__``
    does. Leaf rows are one string: the lowercase hex of their
    little-endian float64 bytes in C order, the bytes
    ``synthesis.target_digest`` hashes, so they cost no repr per number,
    and the document ends in the line :func:`parse_instance_file` splits
    off and decodes straight from the file.
    """
    spec = inst.system
    doc: dict = {"n": spec.n, "m": spec.m, "N": inst.N}
    for key in _SPEC_KEYS:
        value = getattr(spec, key)
        if value is not None:
            doc[key] = value.tolist() if isinstance(value, np.ndarray) else value
    doc["noise"] = {"support": list(spec.noise.support), "probs": list(spec.noise.probs)}
    if inst.x0 is not None:
        doc["x0"] = inst.x0.tolist()
    head = json.dumps(doc, indent=2)
    if inst.target is None:
        return head + "\n"
    if inst.target.ndim == 1:
        target = (json.dumps(inst.target.tolist()),)
    else:
        leaves = np.ascontiguousarray(inst.target, "<f8")
        target = ('"', binascii.b2a_hex(leaves).decode("ascii"), '"')  # bytes freed before the join
    # The target is the last key: reopen the object before its closing "\n}".
    return "".join((head[:-2], _TARGET_KEY, *target, _DOCUMENT_END))
