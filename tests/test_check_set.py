"""``tests/check_set.py`` digests each command's outputs the same way on every run."""
from check_set import digests, generated, records, whole_read
from conftest import INSTANCE_DIR

from stochctrl import model


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
