"""``tests/check_set.py`` digests each command's outputs the same way on every run."""
from check_set import digests
from conftest import INSTANCE_DIR


def test_check_set_digests_repeat_across_runs(tmp_path):
    chosen = [INSTANCE_DIR / "fullrank_2x3.json", INSTANCE_DIR / "input_delay_tau1.json"]
    first, second = digests(tmp_path / "first", chosen), digests(tmp_path / "second", chosen)
    assert first == second
    # four commands at each of three horizons, and a verified table at each horizon synthesize steered
    # (fullrank_2x3's Gramian at N = 0 is singular)
    assert len(first) == 2 * 3 * 4 + 5 and len({value for _, value in first}) == len(first)
    assert sum(" verify-table " in name for name, _ in first) == 5
