"""Digest the check set's outputs, so that two versions of the package compare by one diff.

    PYTHONPATH=src python tests/check_set.py > digests.txt
    PYTHONPATH=src python tests/check_set.py --fields > fields.txt
    PYTHONPATH=src python tests/check_set.py --against REV [--fields]

runs every command of the check set through ``stochctrl.cli.main`` in this process and prints one
SHA-256 per record, then the total; with ``--fields``, each record's fields instead, one line each
(:func:`fields`), so that a diff of two versions' outputs names the record and the field that moved.
With ``--against REV`` it runs itself twice, on the package of git revision REV (its ``src/`` from
``git archive``, ``code_lines.extract``) and on the working tree's, and prints only the lines that differ
(:func:`against`).
A record is one invocation's exit code, its stdout and stderr with the run's scratch directory
replaced by ``<dir>`` (synthesize's ``controller:`` line names the law it wrote), and the bytes of
that law, if one was written, or of the table verify read. The check set:

- each bundled instance (``instances/*.json``) under analyze, synthesize, verify and oracle-check, at
  its own N, at ``--N 0`` and at ``--N 7``; verify reads the law synthesize wrote at the same N;
- where synthesize wrote a law, the same controller as a table, built by the route's controller and
  written by ``write_controller_csv``, then verified;
- generated instances on the full, tau 1, 2 and 3 and d 1, 2 and 3 routes, under two-point and
  three-point noise, each with no target, a constant target, an attainable path target and a
  random leaf target (which three-point noise rejects), through the same commands and horizons;
- each generated path-target instance again, re-indented with its target first: the writer's
  layout is read in two parts, the head by json and the hex from the mapped file, and this copy is
  read whole by json, so both reader paths are digested;
- last, deep instances under synthesize and verify at their own N, deep enough that the closed loop
  runs subtree by subtree below its top level (``pathspace.RunCut``): two-point N = 16 on the full,
  tau 1 and d 1 routes, each with no target and an attainable path target, and three-point N = 10 on
  the full route with an attainable path target;
- last, instances whose one matrix to invert is singular, under analyze, synthesize and oracle-check
  at their own N (:func:`refused`): a user M and a reduced route's script-A block with sigma_min just
  under the rank cut (exit 6 and 2), a singular pencil (exit 2), a singular P-bracket (exit 2) and
  P-brackets holding inf and NaN, each singular by the one rcond rule (exit 2); then reduced instances
  whose Bbar or Abar has a unit entry of the block pattern 5e-6 off (exit 2);
- last, malformed instance documents under analyze (exit 6, :func:`prologue`): one well-formed document
  with one fault in each matrix key, in x0, in ``noise.support`` and in the target list (an entry that is
  true, "1", null, [1.0], NaN, 1e400 or an integer beyond the float range; a ragged matrix row; a flat
  list one entry short), so every message of the instance read is digested; then one well-formed
  instance at n = 16 of the orthogonal family (:func:`orthogonal`), so the conversion of larger
  matrices is too;
- last, the benchmark's certify_batch instances for seeds 1-3 at full size, from ``bench/workloads.py``
  loaded by path (:func:`certify`), under analyze and oracle-check at their own N.
"""
from __future__ import annotations

import contextlib
import difflib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from stochctrl import (
    NoiseModel,
    PathTree,
    ProblemInstance,
    TransformedSystem,
    parse_instance_file,
    serialize_instance,
    validate,
    write_controller_csv,
)
from stochctrl import cli
from stochctrl.sampling import random_attainable_terminal, random_controllable, random_x0

from code_lines import extract

REPO = Path(__file__).resolve().parent.parent
INSTANCES = sorted((REPO / "instances").glob("*.json"))
LAWS = {"two-point": NoiseModel.rademacher(), "three-point": NoiseModel.symmetric_three_point()}
# Seeds follow a route's position, so a route is appended, never inserted.
ROUTES = {"full": {}, "tau1": {"tau": 1}, "tau2": {"tau": 2}, "d1": {"d": 1}, "d2": {"d": 2}, "tau3": {"tau": 3},
          "d3": {"d": 3}}
HORIZONS = (None, 0, 7)  # the instance's own N, then --N 0 and --N 7
TARGET_N = 3
DEEP_N = {"two-point": 16, "three-point": 10}  # horizons whose closed loop is cut into runs
DEEP = [(route, "two-point", kind) for route in ("full", "tau1", "d1") for kind in ("null", "path")]
DEEP.append(("full", "three-point", "path"))
UNDER = 1 - 2.0**-20  # a sigma_min of UNDER times the rank cut max(shape) eps sigma_max is singular
EPS = np.finfo(float).eps
# name -> (instance document, the exit code each of its commands gives)
REFUSED = {
    # Bbar M = [I 0] holds exactly, but M = diag(4, 0.5, sigma) has sigma just under its cut 3 eps 4.
    "singular-user-M": ({
        "n": 2, "m": 3, "N": 2, "A": [[1.0, 0.5], [0.0, 1.0]], "B": [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
        "Abar": [[0.5, 0.0], [0.0, 0.5]], "Bbar": [[0.25, 0.0, 0.0], [0.0, 2.0, 0.0]],
        "M": [[4.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 12 * EPS * UNDER]], "x0": [1.0, -1.0],
    }, 6),
    # B's first column is 0, so the script-A block is A = diag(4, sigma), sigma just under its cut 2 eps 4.
    "singular-block": ({
        "n": 2, "m": 2, "N": 2, "A": [[4.0, 0.0], [0.0, 8 * EPS * UNDER]], "B": [[0.0, 1.0], [0.0, 1.0]],
        "Abar": [[0.5, 0.0], [1.0, 0.0]], "Bbar": [[1.0, 0.0], [0.0, 0.0]], "x0": [1.0, -1.0],
    }, 2),
    # Bbar = [I 0] gives M = I, and Abar = 0 makes the pencil A - L Abar the rank-1 A.
    "singular-pencil": ({
        "n": 2, "m": 3, "N": 2, "A": [[1.0, 2.0], [2.0, 4.0]], "B": [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
        "Abar": [[0.0, 0.0], [0.0, 0.0]], "Bbar": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "x0": [1.0, -1.0],
    }, 2),
    # As above with A = I, so C = I, C1 = -A1 and the bracket I - C P(N) C1 at stage N - 1 is I + A1 = diag(0, 1.5).
    "singular-bracket": ({
        "n": 2, "m": 3, "N": 2, "A": [[1.0, 0.0], [0.0, 1.0]], "B": [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
        "Abar": [[0.0, 0.0], [0.0, 0.0]], "Bbar": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "x0": [1.0, -1.0],
        "A1": [[-1.0, 0.0], [0.0, 0.5]], "d": 1,
    }, 2),
    # A = 0.5 I gives C = 2 I and C1 = -2 A1, so the bracket I - C P(N) C1 at stage N - 1 is I + 4 A1 = diag(inf, 5).
    "inf-bracket": ({
        "n": 2, "m": 3, "N": 2, "A": [[0.5, 0.0], [0.0, 0.5]], "B": [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
        "Abar": [[0.0, 0.0], [0.0, 0.0]], "Bbar": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "x0": [1.0, -1.0],
        "A1": [[5e307, 0.0], [0.0, 1.0]], "d": 1,
    }, 2),
    # As above with C1's first entry -2e308 = -inf, so C P(N) C1 holds 0 x -inf = NaN, and so does the bracket.
    "nan-bracket": ({
        "n": 2, "m": 3, "N": 2, "A": [[0.5, 0.0], [0.0, 0.5]], "B": [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
        "Abar": [[0.0, 0.0], [0.0, 0.0]], "Bbar": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "x0": [1.0, -1.0],
        "A1": [[1e308, 0.0], [0.0, 1.0]], "d": 1,
    }, 2),
    # instances/reduced_2x3.json with one unit entry of its block pattern 5e-6 off, beyond the absolute 1e-12.
    "reduced-Bbar-off": ({
        "n": 2, "m": 3, "N": 2, "A": [[1.1, 0.21], [0.3, 0.7]], "B": [[0.3, 0.6, 0.1], [0.2, 0.9, 0.4]],
        "Abar": [[0.4, 0.7], [1, 0]], "Bbar": [[1 + 5e-6, 0, 0], [0, 0, 0]], "x0": [1.0, -1.0],
    }, 2),
    "reduced-Abar-off": ({
        "n": 2, "m": 3, "N": 2, "A": [[1.1, 0.21], [0.3, 0.7]], "B": [[0.3, 0.6, 0.1], [0.2, 0.9, 0.4]],
        "Abar": [[0.4, 0.7], [1 + 5e-6, 0]], "Bbar": [[1, 0, 0], [0, 0, 0]], "x0": [1.0, -1.0],
    }, 2),
}

# The instance every :func:`malformed` document breaks in one place: well formed, with every matrix key (so both
# delay channels, which validate would refuse; a malformed document never reaches validate).
WELL_FORMED = {
    "n": 2, "m": 3, "N": 1, "A": [[1.0, 0.5], [0.0, 1.0]], "B": [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
    "Abar": [[0.5, 0.0], [0.0, 0.5]], "Bbar": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    "M": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "H": [[1.0, 0.5], [0.0, 1.0]],
    "B1": [[1.0], [0.0]], "tau": 1, "A1": [[0.5, 0.0], [0.0, 0.5]], "d": 1,
    "noise": {"support": [-1.0, 1.0], "probs": [0.5, 0.5]}, "x0": [1.0, -1.0], "target": [0.5, -0.5],
}
# Each fault of one entry, as JSON text: not a JSON number (true, "1", null, [1.0]), not finite (NaN,
# 1e400), an integer beyond the float range; and of one list, a ragged row in a matrix, one entry short in a
# flat list.
ENTRY_FAULTS = {"true": "true", "string": '"1"', "null": "null", "nested": "[1.0]", "NaN": "NaN", "1e400": "1e400",
                "int-1e400": "1" + "0" * 400}
MATRIX_KEYS = ("A", "B", "Abar", "Bbar", "M", "H", "B1", "A1")
FLAT_KEYS = ("x0", "noise.support", "target")
ORTHOGONAL_N = 16
CERTIFY_SEEDS = (1, 2, 3)
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def malformed() -> dict[str, str]:
    """name -> instance document text: ``WELL_FORMED`` with one fault of ``ENTRY_FAULTS`` in the first entry of
    each matrix key and each flat list (``x0``, ``noise.support``, ``target``), or with the first row of a
    matrix one entry longer, or a flat list one entry shorter."""
    texts = {}
    for key in MATRIX_KEYS + FLAT_KEYS:
        for fault, entry in (*ENTRY_FAULTS.items(), ("ragged" if key in MATRIX_KEYS else "short", None)):
            doc = json.loads(json.dumps(WELL_FORMED))
            parent, name = (doc["noise"], "support") if key == "noise.support" else (doc, key)
            values = parent[name][0] if key in MATRIX_KEYS else parent[name]
            if entry is not None:
                values[0] = "<entry>"
            elif key in MATRIX_KEYS:
                values.append(1.0)
            else:
                values.pop()
            text = json.dumps(doc)
            texts[f"malformed-{key}-{fault}"] = text if entry is None else text.replace('"<entry>"', entry, 1)
    return texts


def orthogonal(n: int) -> dict:
    """A well-formed instance of the orthogonal family at state dimension ``n``: A orthogonal, Abar 0.3 times an
    orthogonal matrix, B with N(0, 0.25 / n) entries, Bbar = [I 0], m = n + 1, two-point noise, N = 4, from a
    generator seeded 3."""
    rng = np.random.default_rng(3)
    A, Q = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    return {"n": n, "m": n + 1, "N": 4, "A": A.tolist(), "B": rng.normal(0.0, (0.25 / n) ** 0.5, (n, n + 1)).tolist(),
            "Abar": (0.3 * Q).tolist(), "Bbar": np.eye(n, n + 1).tolist(), "x0": rng.standard_normal(n).tolist()}


def generated(workdir: Path) -> list[Path]:
    """The generated instances, written into ``workdir``: per route and law, one system and x0 with
    each kind of target, from a generator seeded by the route's and the law's positions."""
    paths = []
    for i, (route, lag) in enumerate(ROUTES.items()):
        for j, (law, noise) in enumerate(LAWS.items()):
            rng = np.random.default_rng([i, j])
            ts = random_controllable(rng, 2, 3, TARGET_N, noise=noise, **lag)
            x0 = random_x0(rng, 2)
            attainable = random_attainable_terminal(rng, PathTree(noise, TARGET_N), ts.form)
            targets = {"null": None, "constant": rng.normal(size=2), "path": attainable,
                       "random": rng.normal(size=attainable.shape)}
            for kind, target in targets.items():
                path = workdir / f"{route}-{law}-{kind}.json"
                path.write_text(serialize_instance(ProblemInstance(ts.spec, TARGET_N, x0=x0, target=target)))
                paths.append(path)
    return paths


def whole_read(workdir: Path, paths: list[Path]) -> list[Path]:
    """Each path-target instance of ``paths`` written again into ``workdir`` as ``<stem>-whole.json``,
    re-indented with its target first, a layout that ``parse_instance_file`` reads whole."""
    copies = []
    for path in paths:
        doc = json.loads(path.read_text())
        if type(doc.get("target")) is str:
            copies.append(workdir / f"{path.stem}-whole.json")
            copies[-1].write_text(json.dumps({"target": doc.pop("target"), **doc}, indent=1) + "\n")
    return copies


def deep(workdir: Path) -> list[Path]:
    """The deep instances, written into ``workdir``, each from a generator seeded by its route's, law's and
    kind's positions."""
    paths = []
    for route, law, kind in DEEP:
        noise, N = LAWS[law], DEEP_N[law]
        rng = np.random.default_rng([list(ROUTES).index(route), list(LAWS).index(law), len(kind), N])
        ts = random_controllable(rng, 2, 3, N, noise=noise, **ROUTES[route])
        x0 = random_x0(rng, 2)
        target = None if kind == "null" else random_attainable_terminal(rng, PathTree(noise, N), ts.form)
        paths.append(workdir / f"deep-{route}-{law}-{kind}.json")
        paths[-1].write_text(serialize_instance(ProblemInstance(ts.spec, N, x0=x0, target=target)))
    return paths


def _run(argv: list[str], workdir: Path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, *(text.getvalue().replace(str(workdir), "<dir>") for text in (out, err))


def write_table(path: Path, N: int | None, table: Path) -> None:
    """The controller synthesize builds for the instance at ``path`` and horizon ``N`` (None: its own), as a table."""
    inst = parse_instance_file(path)
    vs = validate(inst.system)
    tree = PathTree(inst.system.noise, inst.N if N is None else N)
    ts = TransformedSystem.build(vs)
    write_controller_csv(table, cli.ROUTES[cli._route(vs)].controller(ts, tree, inst.x0, inst.target, 1e-8))


def records(workdir: Path, instances=None):
    """Yield (name, exit code, stdout, stderr, law or table bytes) for every command of the check set, or, with
    ``instances``, for those instance files alone."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    deep_paths, every = [], instances is None
    if every:
        paths = generated(workdir)
        instances, deep_paths = INSTANCES + paths + whole_read(workdir, paths), deep(workdir)
    for path in instances:
        for N in HORIZONS:
            horizon, label = ([], "own") if N is None else (["--N", str(N)], str(N))
            law = workdir / f"{Path(path).stem}-N{label}-law.json"
            for command, extra in (("analyze", []), ("synthesize", ["--out", str(law)]),
                                   ("verify", ["--controller", str(law)]), ("oracle-check", [])):
                code, out, err = _run([command, "--instance", str(path), *horizon, *extra], workdir)
                written = law.read_bytes() if command == "synthesize" and law.exists() else b""
                yield f"{Path(path).stem} {command} N={label}", code, out, err, written
            if law.exists():
                table = workdir / f"{Path(path).stem}-N{label}-table.csv"
                write_table(Path(path), N, table)
                code, out, err = _run(["verify", "--instance", str(path), *horizon, "--controller", str(table)], workdir)
                yield f"{Path(path).stem} verify-table N={label}", code, out, err, table.read_bytes()
    for path in deep_paths:
        law = workdir / f"{path.stem}-law.json"
        for command, extra in (("synthesize", ["--out", str(law)]), ("verify", ["--controller", str(law)])):
            code, out, err = _run([command, "--instance", str(path), *extra], workdir)
            written = law.read_bytes() if command == "synthesize" and law.exists() else b""
            yield f"{path.stem} {command} N=own", code, out, err, written
    if every:
        yield from refused(workdir)
        yield from prologue(workdir)
        yield from certify(workdir)


def refused(workdir: Path):
    """Yield :func:`records`' records of the ``REFUSED`` instances, written into ``workdir``: analyze,
    synthesize and oracle-check at the instance's own N."""
    for name, (doc, _) in REFUSED.items():
        path = Path(workdir) / f"{name}.json"
        path.write_text(json.dumps(doc))
        law = Path(workdir) / f"{name}-law.json"
        for command, extra in (("analyze", []), ("synthesize", ["--out", str(law)]), ("oracle-check", [])):
            code, out, err = _run([command, "--instance", str(path), *extra], workdir)
            yield f"{name} {command} N=own", code, out, err, law.read_bytes() if law.exists() else b""


def prologue(workdir: Path):
    """Yield :func:`records`' records of the ``malformed`` documents and of the ``orthogonal`` instance at
    n = ``ORTHOGONAL_N``, written into ``workdir``, each under analyze at its own N."""
    texts = malformed() | {f"orthogonal-n{ORTHOGONAL_N}": json.dumps(orthogonal(ORTHOGONAL_N))}
    for name, text in texts.items():
        path = Path(workdir) / f"{name}.json"
        path.write_text(text)
        yield f"{name} analyze N=own", *_run(["analyze", "--instance", str(path)], workdir), b""


def bench_workloads():
    """``bench/workloads.py``, loaded by path as ``tests/test_bench_workloads.py`` loads it (once per process)."""
    if "bench_workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_workloads", REPO / "bench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up there
        spec.loader.exec_module(module)
    return sys.modules["bench_workloads"]


def certify_ops(workdir: Path):
    """Yield (seed, op) for each op of the benchmark's full-size certify_batch at each of ``CERTIFY_SEEDS``, its
    instances written into ``workdir/certify-<seed>``."""
    for seed in CERTIFY_SEEDS:
        seed_dir = Path(workdir) / f"certify-{seed}"
        seed_dir.mkdir(parents=True, exist_ok=True)
        for op in bench_workloads().build("certify_batch", seed, str(seed_dir), small=False):
            yield seed, op


def certify(workdir: Path):
    """Yield :func:`records`' records of :func:`certify_ops`' ops, each at its instance's own N."""
    for seed, op in certify_ops(workdir):
        yield f"certify-{seed}-{Path(op.instance).stem} {op.command} N=own", *_run(op.argv(), workdir), b""


def digest(code: int, out: str, err: str, law: bytes) -> str:
    return hashlib.sha256(json.dumps([code, out, err, law.hex()]).encode()).hexdigest()


def digests(workdir: Path, instances=None) -> list[tuple[str, str]]:
    """(name, digest) of each record of :func:`records`, in order."""
    return [(name, digest(*record)) for name, *record in records(workdir, instances)]


def fields(name: str, code: int, out: str, err: str, law: bytes) -> list[str]:
    """A record as lines "name<TAB>field<TAB>value": its exit code, each line of stdout and of stderr, and the
    SHA-256 of its law or table bytes ("-" for none), so that a diff of two outputs names the field that moved."""
    lines = [f"{name}\texit\t{code}"]
    lines += [f"{name}\tstdout\t{line}" for line in out.splitlines()]
    lines += [f"{name}\tstderr\t{line}" for line in err.splitlines()]
    return [*lines, f"{name}\tlaw\t{hashlib.sha256(law).hexdigest() if law else '-'}"]


def output(src: Path, argv: list[str]) -> list[str]:
    """The lines this script prints with ``argv`` in a subprocess that imports the package from ``src``, with
    one BLAS thread."""
    env = {**os.environ, "PYTHONPATH": str(src), **dict.fromkeys(BLAS_THREADS, "1")}
    where = subprocess.run([sys.executable, "-c", "import stochctrl; print(stochctrl.__file__)"], env=env,
                           capture_output=True, text=True, check=True).stdout.strip()
    if not Path(where).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"stochctrl imports from {where}, not from {src}")
    done = subprocess.run([sys.executable, __file__, *argv], env=env, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"the check set failed on {src}:\n{done.stderr}")
    return done.stdout.splitlines()


def compare(parent: list[str], change: list[str]) -> int:
    """Print each line of two outputs that is not in the other, labeled "parent" or "change", then how many
    lines differ: the larger side of each differing stretch (``difflib`` aligns the two, so an added or removed
    record is one stretch). Returns 1 if any line differs, else 0."""
    count = 0
    for op, i1, i2, j1, j2 in difflib.SequenceMatcher(None, parent, change, autojunk=False).get_opcodes():
        if op != "equal":
            sys.stdout.writelines([f"parent\t{line}\n" for line in parent[i1:i2]]
                                  + [f"change\t{line}\n" for line in change[j1:j2]])
            count += max(i2 - i1, j2 - j1)
    sys.stdout.write(f"{count} of {max(len(parent), len(change))} lines differ\n")
    return 1 if count else 0


def against(rev: str, argv: list[str]) -> int:
    """:func:`compare` of this script's output with ``argv`` on ``rev``'s package and on the working tree's."""
    with tempfile.TemporaryDirectory() as tmp:
        return compare(output(extract(rev, Path(tmp)), argv), output(REPO / "src", argv))


def main(argv: list[str]) -> None:
    if len(argv) > 1 and argv[0] == "--against" and argv[2:] in ([], ["--fields"]):
        sys.exit(against(argv[1], argv[2:]))
    if argv not in ([], ["--fields"]):
        sys.exit("usage: python tests/check_set.py [--against REV] [--fields]")
    with tempfile.TemporaryDirectory() as workdir:
        if argv:
            for record in records(Path(workdir)):
                sys.stdout.write("".join(line + "\n" for line in fields(*record)))
            return
        lines = [f"{value}  {name}" for name, value in digests(Path(workdir))]
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    sys.stdout.write("\n".join([*lines, f"{total}  total"]) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
