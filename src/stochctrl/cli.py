"""Command-line front end: analyze, synthesize, verify, oracle-check.

Every command reads a JSON instance file and prints a key/value report,
as ``key: value`` lines or ``key,value`` rows under ``--format csv``.
Reports are deterministic: fixed key order, fixed iteration orders, and
17-significant-digit floats, so identical invocations are byte-identical.

Each route kind (full, partial, reduced, input-delay, state-delay) is one
:class:`Route` record in ``ROUTES``; :func:`_route` is the only place
that tells the kinds apart.

Exit codes (an error that escapes a command takes the code and stderr
prefix of the first ``_OUTCOMES`` row that matches it): 0 controllable /
verified / matching; 1 negative outcome,
including a synthesized controller whose own closed loop ends farther
than ``--tol`` from the target (the report and controller are still
written); 2 the criterion does not apply to the instance (no intertwined
factor, a singular pencil, reduced block or delay bracket, or an
unsupported structure); 3 singular Gramian; 4 target not attainable;
5 malformed controller law or table, including a table whose stage k
does not list the depth-max(0, k) level of histories (a coarser or a
finer level, or none: stage k of u1 missing), a law whose target
digest does not match the instance's target, a digest law for an
instance without a leaf-row target, and a law in an earlier version's
form (offsets c listed per node, which a path target's law now replaces
by its target's digest);
6 anything else, command-line usage errors included (a horizon below 0,
a tolerance that is negative or not finite, a cap below 1), a Gramian
that overflows to a non-finite value, and a horizon whose path tree
would exceed ``--cap`` leaves.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .criteria import ControllabilityReport, decide, gramian, gramian_oracle
from .delay import (
    input_delay_controller,
    input_delay_decide,
    input_delay_gramian_oracle,
    state_delay_controller,
    state_delay_decide,
    state_delay_gramian_oracle,
)
from .errors import (
    NoIntertwiner,
    SchemaError,
    SingularBlock,
    SingularGramian,
    SingularPBracket,
    SingularPencil,
    StageMismatch,
    StochctrlError,
    StructureUnsupported,
    TargetNotInS,
    UnsupportedReducedStructure,
)
from .model import NoiseModel, ValidatedSystem, parse_instance_file, validate
from .partial import output_form, partial_decide, reduced_form, reduced_rank_setup
from .pathspace import DEFAULT_CAP, PathTree, forward_simulate, terminal_from_map
from .synthesis import (
    FLOAT_FMT,
    folded_loop,
    law_text,
    read_controller_table,
    read_feedback_law,
    steer_to_target,
)
from .transform import BsdeForm, TransformedSystem

EXIT_YES = 0
EXIT_NO = 1
EXIT_INAPPLICABLE = 2
EXIT_SINGULAR_GRAMIAN = 3
EXIT_TARGET = 4
EXIT_BAD_TABLE = 5
EXIT_ERROR = 6


@dataclass(frozen=True)
class Route:
    """What each command does for one kind of instance.

    The library reads the route from the form, which carries any delay
    channel with its lag: :func:`criteria.gramian` (oracle-check's closed
    form), :func:`criteria.gramian_oracle` and
    :func:`synthesis.steer_to_target` serve every full-state route. A
    record names the entry point a command calls for its kind, so the
    delay routes reach their named ``delay`` functions. The callables
    reach the library through this module's globals at call time, so
    wrappers installed on those names see every call.
    """

    verdicts: tuple[str, str]  # analyze verdict when (controllable, not)
    decide: Callable[[ValidatedSystem, int], ControllabilityReport]
    form: Callable[[ValidatedSystem], BsdeForm]  # coefficients oracle-check compares on
    # (form, N, noise, cap) -> the Gramian by path enumeration
    oracle: Callable[[BsdeForm, int, NoiseModel, int], np.ndarray]
    # (ts, tree, x0, target leaves or None, tol) -> ControllerProcess; None: no synthesis
    controller: Callable | None


def _form(vs: ValidatedSystem) -> BsdeForm:
    return TransformedSystem.build(vs).form


ROUTES = {
    "full": Route(
        ("exactly controllable", "not exactly controllable"),
        lambda vs, N: decide(vs, N_max=N),
        _form,
        lambda form, N, noise, cap: gramian_oracle(form, N, noise, cap=cap),
        lambda ts, tree, x0, target, tol: steer_to_target(ts, tree, x0, target, tol=tol),
    ),
    "partial": Route(
        ("H-partially exactly controllable", "not H-partially exactly controllable"),
        lambda vs, N: partial_decide(vs, N_max=N),
        lambda vs: output_form(TransformedSystem.build(vs)),
        lambda form, N, noise, cap: gramian_oracle(form, N, noise, cap=cap),
        None,
    ),
    "reduced": Route(
        ("leading-block exactly controllable", "not leading-block exactly controllable"),
        lambda vs, N: reduced_rank_setup(vs, N_max=N),
        reduced_form,
        lambda form, N, noise, cap: gramian_oracle(form, N, noise, cap=cap),
        None,
    ),
    "input-delay": Route(
        ("exactly controllable (input delay)", "not shown controllable (input delay)"),
        lambda vs, N: input_delay_decide(vs, N_max=N),
        _form,
        lambda form, N, noise, cap: input_delay_gramian_oracle(form, N, noise, cap=cap),
        lambda ts, tree, x0, target, tol: input_delay_controller(ts, tree, x0, target, tol=tol),
    ),
    "state-delay": Route(
        ("exactly controllable (state delay)", "not shown controllable (state delay)"),
        lambda vs, N: state_delay_decide(vs, N_max=N),
        _form,
        lambda form, N, noise, cap: state_delay_gramian_oracle(form, N, noise, cap=cap),
        lambda ts, tree, x0, target, tol: state_delay_controller(ts, tree, x0, target, tol=tol),
    ),
}


def _route(vs: ValidatedSystem) -> str:
    if not vs.full_rank:
        return "reduced"
    spec = vs.spec
    if spec.H is not None:
        return "partial"
    if spec.B1 is not None:
        return "input-delay"
    if spec.A1 is not None:
        return "state-delay"
    return "full"


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return FLOAT_FMT % value
    return str(value)


def _render(pairs, fmt: str) -> str:
    sep = "," if fmt == "csv" else ": "
    return "".join(f"{key}{sep}{_fmt(value)}\n" for key, value in pairs)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _emit(text: str, out_path: str | None) -> None:
    sys.stdout.write(text)
    if out_path:
        _write(out_path, text)


def _matrix_pairs(name: str, M: np.ndarray):
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            yield f"{name}_{i}_{j}", float(M[i, j])


def _load(args):
    """Instance, validated system, route kind and horizon the arguments name."""
    inst = parse_instance_file(args.instance)
    vs = validate(inst.system)
    return inst, vs, _route(vs), args.N if args.N is not None else inst.N


def cmd_analyze(args) -> int:
    _, vs, route, N = _load(args)
    report = ROUTES[route].decide(vs, N)
    verdict = ROUTES[route].verdicts[0 if report.controllable else 1]
    pairs = [
        ("command", "analyze"),
        ("kind", report.kind),
        ("dim", report.dim),
        ("N_max", report.N_max),
        ("verdict", verdict),
        ("witness_N", report.witness_N),
        ("gramian_rank", report.gramian_rank),
        ("rank_R", report.rank_R),
        ("span_depth", report.span_depth),
        ("criteria_agree", report.criteria_agree),
        ("transform", report.transform_source),
    ]
    pairs += [(f"min_singular_{i}", float(sv)) for i, sv in enumerate(report.min_singular)]
    pairs += list(_matrix_pairs("gramian", report.gramian))
    _emit(_render(pairs, args.format), args.out)
    return EXIT_YES if report.controllable else EXIT_NO


def _steering_setup(args, what: str):
    """Shared prologue of synthesize and verify: route, x0 and tree."""
    inst, vs, route, N = _load(args)
    if ROUTES[route].controller is None:
        raise StructureUnsupported(f"{what} is only available for the full-state routes")
    if inst.x0 is None:
        raise SchemaError(f"instance has no x0; {what} needs an initial state")
    return inst, vs, route, PathTree(inst.system.noise, N, cap=args.cap)


def _deviation(runs, target) -> float:
    """Worst terminal gap from the target leaves (the origin when None) over runs of leaves, each a pair
    (first leaf index, rows) as ``folded_loop`` yields them; each run is overwritten with its gap."""
    hi, lo = np.float64(-np.inf), np.float64(np.inf)
    for first, final in runs:
        if target is not None:
            final -= target[first : first + len(final)]
        # np.maximum and np.minimum keep a NaN from any run, as one scan of the leaves would.
        hi, lo = np.maximum(hi, final.max()), np.minimum(lo, final.min())
        del final  # before the loop computes the next run
    # max |x| without a leaf-sized |x| copy; abs clears the sign of a -0.0 or NaN, as np.abs would.
    return float(abs(np.maximum(hi, -lo)))


def _loop_pairs(command: str, kind: str, tree: PathTree, deviation: float, tol: float) -> list[tuple]:
    """The report lines synthesize and verify share, from the command to the tolerance its closed loop is held to."""
    return [("command", command), ("kind", kind), ("N", tree.horizon), ("paths", tree.n_nodes(tree.horizon + 1)),
            ("terminal_deviation", deviation), ("tolerance", tol)]


def cmd_synthesize(args) -> int:
    inst, vs, route, tree = _steering_setup(args, "controller synthesis")
    spec = inst.system
    ts = TransformedSystem.build(vs)
    target = None if inst.target is None else terminal_from_map(tree, spec.n, inst.target)
    ctrl = ROUTES[route].controller(ts, tree, inst.x0, target, args.tol)
    deviation = _deviation(folded_loop(tree, spec, inst.x0, ctrl.law), target)
    pairs = _loop_pairs("synthesize", ctrl.kind, tree, deviation, args.tol) + [("gramian_min_singular", ctrl.smin)]
    law = law_text(ctrl)
    if args.out:
        _write(args.out, law)
        pairs.append(("controller", args.out))
        _emit(_render(pairs, args.format), None)
    else:
        sys.stdout.write(law)
    return EXIT_YES if deviation <= args.tol else EXIT_NO


def cmd_verify(args) -> int:
    inst, vs, route, tree = _steering_setup(args, "verification")
    spec = inst.system
    with open(args.controller, "rb") as fh:
        while (byte := fh.read(1)) and byte in b" \t\r\n":  # JSON's whitespace
            pass
    artifact = "law" if byte == b"{" else "table"
    try:
        if artifact == "law":
            runs = folded_loop(tree, spec, inst.x0, read_feedback_law(args.controller, tree, vs, inst.target))
        else:
            u, u1 = read_controller_table(args.controller, tree, spec)
            runs = [(0, forward_simulate(tree, spec, inst.x0, u, u1=u1)[tree.horizon + 1])]
    except (SchemaError, StageMismatch) as exc:
        sys.stderr.write(f"bad controller {artifact}: {exc}\n")
        return EXIT_BAD_TABLE
    target = None if inst.target is None else terminal_from_map(tree, spec.n, inst.target)
    deviation = _deviation(runs, target)
    ok = deviation <= args.tol
    pairs = _loop_pairs("verify", route, tree, deviation, args.tol) + [("verdict", "ok" if ok else "failed")]
    _emit(_render(pairs, args.format), args.out)
    return EXIT_YES if ok else EXIT_NO


def cmd_oracle_check(args) -> int:
    inst, vs, route, N = _load(args)
    form = ROUTES[route].form(vs)
    # The oracle first: its path tree refuses a horizon over the cap before any closed-form work.
    literal = ROUTES[route].oracle(form, N, inst.system.noise, args.cap)
    closed = gramian(form, N)
    error = float(np.linalg.norm(closed - literal))
    # Rounding grows with the Gramian, so the tolerance is relative to its norm (at least 1).
    scale = max(1.0, float(np.linalg.norm(closed)))
    ok = error <= args.tol * scale
    pairs = [
        ("command", "oracle-check"),
        ("kind", route),
        ("N", N),
        ("frobenius_error", error),
        ("tolerance", args.tol),
        ("scale", scale),
        ("verdict", "ok" if ok else "mismatch"),
    ]
    pairs += list(_matrix_pairs("gramian", closed))
    _emit(_render(pairs, args.format), args.out)
    return EXIT_YES if ok else EXIT_NO


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with ``EXIT_ERROR``: argparse's own 2 means "inapplicable" here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _at_least(low, convert):
    """Argument type: ``convert(text)``, rejected unless finite and >= ``low``."""

    def parse(text: str):
        value = convert(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"expected a finite value >= {low}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value: 'abc'"
    return parse


def _add_common(sub, tol_default: float | None) -> None:
    """The flags every command takes; analyze (``tol_default`` None) has no --tol and no --cap."""
    sub.add_argument("--instance", required=True, help="path to a JSON instance file")
    sub.add_argument("--N", type=_at_least(0, int), default=None, help="horizon override (>= 0)")
    if tol_default is not None:
        sub.add_argument("--tol", type=_at_least(0, float), default=tol_default, help="decision tolerance")
    sub.add_argument("--format", choices=("text", "csv"), default="text", help="report format")
    if tol_default is not None:
        sub.add_argument("--cap", type=_at_least(1, int), default=DEFAULT_CAP, help="path enumeration cap")
    sub.add_argument("--out", default=None, help="also write the report (or the controller) here")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stochctrl",
        description="Exact controllability analysis for linear systems with multiplicative noise.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    _add_common(commands.add_parser("analyze", help="run both controllability criteria"), None)
    _add_common(commands.add_parser("synthesize", help="build a steering controller"), 1e-8)
    verify = commands.add_parser("verify", help="forward-simulate a controller law or table")
    _add_common(verify, 1e-8)
    verify.add_argument("--controller", required=True, help="controller law (JSON) or table (CSV) to check")
    _add_common(commands.add_parser("oracle-check", help="compare Gramian against enumeration"), 1e-9)
    return parser


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, dict[str, argparse.Action]]]:
    """The one parser of this process, whose ``parse_args`` returns a fresh namespace each time, and each
    command's one-value flags by option string, as its subparser holds them, for :func:`_plain_args`."""
    parser = _build_parser()
    subparsers = next(action for action in parser._actions if action.dest == "command")
    commands = {
        name: {flag: action for flag, action in sub._option_string_actions.items() if action.nargs is None}
        for name, sub in subparsers.choices.items()
    }
    return parser, commands


def _plain_args(argv) -> argparse.Namespace | None:
    """The namespace ``parse_args`` gives ``argv`` when it is a command followed by distinct pairs of one of
    that command's flags, spelled in full, and a value that does not start with "-"; else None, and
    ``parse_args`` reads ``argv`` (naming any fault, or printing help).

    Each value goes through its flag's own type and choices and each flag not given takes its default; a
    value either refuses, or a required flag not given, returns None. ``parse_args`` costs about 0.1 ms
    cold, a sixth of a small analyze; this read costs about a tenth of that.
    """
    if len(argv) % 2 == 0 or set(map(type, argv)) != {str}:
        return None
    _, commands = _parser()
    flags, given = commands.get(argv[0]), dict(zip(argv[1::2], argv[2::2]))
    if flags is None or len(given) < len(argv) // 2 or not given.keys() <= flags.keys():
        return None
    args = argparse.Namespace(command=argv[0])
    for flag, action in flags.items():
        if flag not in given:
            if action.required:
                return None
            setattr(args, action.dest, action.default)
            continue
        text = given[flag]
        if text.startswith("-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        setattr(args, action.dest, value)
    return args


_HANDLERS = {
    "analyze": cmd_analyze,
    "synthesize": cmd_synthesize,
    "verify": cmd_verify,
    "oracle-check": cmd_oracle_check,
}


# (errors, exit code, stderr prefix) for an error that escapes a command, tried in order: the first
# row that matches sets the exit code and the prefix of the one stderr line.
_OUTCOMES = (
    (
        (NoIntertwiner, SingularBlock, SingularPencil, SingularPBracket, StructureUnsupported, UnsupportedReducedStructure),
        EXIT_INAPPLICABLE,
        "inapplicable",
    ),
    ((SingularGramian,), EXIT_SINGULAR_GRAMIAN, "singular gramian"),
    ((TargetNotInS,), EXIT_TARGET, "target not attainable"),
    ((StochctrlError, OSError), EXIT_ERROR, "error"),
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        args = _parser()[0].parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (StochctrlError, OSError) as exc:
        code, prefix = next((code, prefix) for errors, code, prefix in _OUTCOMES if isinstance(exc, errors))
        sys.stderr.write(f"{prefix}: {exc}\n")
        return code


if __name__ == "__main__":
    raise SystemExit(main())
