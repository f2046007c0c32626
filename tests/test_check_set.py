"""``tests/check_set.py`` digests each command's outputs the same way on every run."""
from check_set import (
    CERTIFY_SEEDS, DEEP, DEEP_N, ENTRY_FAULTS, FLAT_KEYS, LAWS, MATRIX_KEYS, ORTHOGONAL_N, REFUSED, ROUTES, certify,
    certify_ops, digests, generated, prologue, records, refused, whole_read,
)
from conftest import INSTANCE_DIR

from stochctrl import PathTree, model
from stochctrl.pathspace import RunCut


def test_check_set_digests_repeat_across_runs(tmp_path):
    chosen = [INSTANCE_DIR / "fullrank_2x3.json", INSTANCE_DIR / "input_delay_tau1.json"]
    first, second = digests(tmp_path / "first", chosen), digests(tmp_path / "second", chosen)
    assert first == second
    # four commands at each of three horizons, and a verified table at each horizon synthesize steered
    # (fullrank_2x3's Gramian at N = 0 is singular)
    assert len(first) == 2 * 3 * 4 + 5 and len({value for _, value in first}) == len(first)
    assert sum(" verify-table " in name for name, _ in first) == 5


def test_a_path_target_read_whole_gives_the_records_of_the_split_read(tmp_path):
    # The writer's file is read in two parts; its copy with the target first is read whole by json. Each
    # command prints, exits and writes alike, but for the file names.
    (tmp_path / "instances").mkdir()
    paths = [path for path in generated(tmp_path / "instances") if path.stem == "tau1-three-point-path"]
    copies = whole_read(tmp_path / "instances", paths)
    assert model._split_document(paths[0].read_bytes()) is not None
    assert model._split_document(copies[0].read_bytes()) is None
    split, whole = (list(records(tmp_path / name, chosen)) for name, chosen in (("split", paths), ("whole", copies)))
    assert len(split) == len(whole) > 3 * 4
    for (name, *record), (copy_name, *copy_record) in zip(split, whole):
        assert copy_name == name.replace("-path ", "-path-whole ")
        assert [field.replace("-path-whole-", "-path-") if type(field) is str else field for field in copy_record] == record, name


def test_the_deep_records_run_the_loop_in_runs():
    # Their synthesize and verify carry runs of leaves below the top level, with every lag the routes have;
    # the deep instances' systems have n = 2.
    for route, law, _ in DEEP:
        cut = RunCut(PathTree(LAWS[law], DEEP_N[law]), 2, max(ROUTES[route].values(), default=0))
        assert cut.top < DEEP_N[law] + 1 and len(cut.firsts) > 1, (route, law)


def test_the_refused_records_reach_each_singular_matrix(tmp_path):
    # analyze and oracle-check refuse each instance at the matrix it names, singular or, on the reduced
    # route, off its block pattern, and so does synthesize on the routes that synthesize; none writes a law.
    named = {"singular-user-M": "error: M is numerically singular\n",
             "singular-block": "inapplicable: script-A block matrix has min singular value 1.776e-15; not invertible\n",
             "singular-pencil": "inapplicable: A - L Abar has reciprocal condition number ",
             "singular-bracket": "inapplicable: delay compensator bracket singular at stage 1\n",
             "inf-bracket": "inapplicable: delay compensator bracket singular at stage 1\n",
             "nan-bracket": "inapplicable: delay compensator bracket singular at stage 1\n",
             "reduced-Bbar-off": "inapplicable: rank(Bbar) = 1 < n = 2 and Bbar is not [[I_r, 0], [0, 0]]\n",
             "reduced-Abar-off": "inapplicable: reduced form needs Abar[r:, :r] = I\n"}
    got = list(refused(tmp_path))
    assert len(got) == 3 * len(REFUSED)
    for name, code, out, err, law in got:
        instance, command = name.split()[:2]
        assert (code, out, law) == (REFUSED[instance][1], "", b""), name
        if command != "synthesize" or instance != "singular-block":
            assert err.startswith(named[instance]), name


def test_the_prologue_records_name_each_fault_of_the_instance_read(tmp_path):
    # Every malformed document exits 6 with the message that names its key, one record per key and fault;
    # the orthogonal instance is analyzed at its own dimension. The check set's keys are the reader's.
    assert MATRIX_KEYS == model._MATRIX_KEYS
    got = {name.split()[0]: (code, out, err) for name, code, out, err, law in prologue(tmp_path)}
    assert len(got) == len(MATRIX_KEYS + FLAT_KEYS) * (len(ENTRY_FAULTS) + 1) + 1
    for key in MATRIX_KEYS + FLAT_KEYS:
        named = (f"error: {key} ", f"error: {key}:")
        if key == "noise.support":  # NoiseModel names the support in its own words
            named += ("error: noise support ", "error: support and probs ")
        for fault in (*ENTRY_FAULTS, "ragged" if key in MATRIX_KEYS else "short"):
            code, out, err = got[f"malformed-{key}-{fault}"]
            assert (code, out) == (6, "") and err.startswith(named), (key, fault)
    code, out, err = got[f"orthogonal-n{ORTHOGONAL_N}"]
    assert (code, err) == (0, "") and f"dim: {ORTHOGONAL_N}\n" in out


def test_the_certify_records_exit_as_their_ops_expect(tmp_path):
    # The benchmark's certify_batch ops, built in one directory and run as records in another, in the same
    # order: each exits as its op expects.
    ops = [op for _, op in certify_ops(tmp_path / "ops")]
    got = list(certify(tmp_path / "records"))
    assert len(got) == len(ops) == len(CERTIFY_SEEDS) * 196
    for (name, code, out, err, law), op in zip(got, ops):
        assert (code, law) == (op.expect, b""), (name, out, err)
        assert name.split()[1] == op.command, name
