"""The arithmetic of tools/bench_pairs.py, with the benchmark runs faked."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_quartiles_match_the_benchmark_compare():
    assert bench_pairs.quartiles(list(range(1, 11))) == (2.75, 5.5, 8.25)
    assert bench_pairs.quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_wins_follow_the_direction():
    base, change = [10, 10, 10, 10], [9, 11, 10, 8]
    assert bench_pairs.wins(base, change, "lower") == 2
    assert bench_pairs.wins(base, change, "higher") == 1


@pytest.mark.parametrize("offsets, gain", [
    ([-1.5] * 10, True),                 # 10 of 10, shift 1.5 > IQR 0.55
    ([-1.5] * 9 + [0.0], True),          # 9 of 10 is enough
    ([-1.5] * 8 + [0.0, 0.0], False),    # 8 of 10 is not
    ([-0.3] * 10, False),                # every pair, but inside the IQR
])
def test_gain_needs_the_wins_and_a_shift_beyond_the_base_iqr(offsets, gain):
    base = [10.0 + 0.1 * i for i in range(10)]
    change = [b + o for b, o in zip(base, offsets)]
    s = bench_pairs.summary(base, change, "lower", 0.25)
    assert s["base_iqr"] == pytest.approx(0.55)
    assert s["gain"] is gain
    assert bench_pairs.summary(change, base, "higher", 0.25)["gain"] is gain


# The base runs 10.0 .. 10.9: median 10.45, IQR 0.55. A bound of 0.1
# allows the change's median to be worse by 1.045, and one of 0.02 by
# 0.209, which that IQR exceeds.
@pytest.mark.parametrize("offset, bound, verdict", [
    (1.2, 0.1, "worse"),         # worse by 1.2 > 1.045
    (1.0, 0.1, "held"),          # worse by 1.0, within the bound; IQR 0.55 < 1.045
    (0.0, 0.02, "unresolved"),   # same median, but IQR 0.55 > 0.209
    (-0.5, 0.02, "unresolved"),  # better, yet the runs overlap
    (-1.0, 0.02, "held"),        # every change run beats every base run
    (0.3, 0.02, "worse"),        # worse by 0.3 > 0.209
])
def test_regression_verdict(offset, bound, verdict):
    base = [10.0 + 0.1 * i for i in range(10)]
    change = [b + offset for b in base]
    assert bench_pairs.summary(base, change, "lower", bound)["regression"] == verdict
    # mirrored, a higher-is-better metric gives the same verdict
    mirror = bench_pairs.summary([-b for b in base], [-c for c in change],
                                 "higher", bound)
    assert mirror["regression"] == verdict


def run(correct, failed=0, attempted=10):
    return {"correct": correct, "failed": failed, "attempted": attempted}


def test_sound_runs():
    clean = [run(True), run(True)]
    assert bench_pairs.sound(clean, clean)
    assert not bench_pairs.sound(clean, [run(True), run(False)])
    assert not bench_pairs.sound(clean, [run(True), run(True, failed=1)])
    # the same share of failed tasks as the base is not worse
    assert bench_pairs.sound([run(True, 1, 20)], [run(True, 1, 20)])
    assert bench_pairs.sound([run(True, 2, 20)], [run(True, 1, 20)])


def fake_pairs(tmp_path, monkeypatch, change_failed=0):
    """Run main on faked runs; return the runs made and the output lines."""
    base, change = tmp_path / "base", tmp_path / "change"
    for side in (base, change):
        side.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 60,
        "end_to_end": [{"name": "pass_s", "better": "lower", "bound": 0.25}]}))
    runs = []

    def fake(checkout, workload, seed, seconds):
        assert seconds == 60
        runs.append((checkout.name, seed))
        if seed == 10:   # a warm-up failure: the pair is left out
            return None
        value = 1.0 if checkout == base else 0.5
        return {"correct": True, "attempted": 3,
                "failed": 0 if checkout == base else change_failed,
                "metrics": {"pass_s": {"value": value + 0.01 * seed}}}

    monkeypatch.setattr(bench_pairs, "run_once", fake)
    assert bench_pairs.main([str(base), str(change), "--workload", "w",
                             "--pairs", "4", "--first-seed", "7"]) == 0
    return runs


def test_pairs_alternate_and_a_failed_pair_is_left_out(tmp_path, monkeypatch, capsys):
    runs = fake_pairs(tmp_path, monkeypatch)
    assert runs == [("base", 7), ("change", 7), ("change", 8), ("base", 8),
                    ("base", 9), ("change", 9), ("change", 10), ("base", 10)]
    row = capsys.readouterr().out.splitlines()[-1].split()
    assert row[0] == "pass_s" and row[-5:] == ["3/3", "0.5", "0.02", "yes", "held"]


def test_failed_tasks_void_a_gain(tmp_path, monkeypatch, capsys):
    fake_pairs(tmp_path, monkeypatch, change_failed=1)
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith("# no gain holds")
    assert out[-2].split()[-5:] == ["3/3", "0.5", "0.02", "no", "held"]


def test_write_records_each_workload(tmp_path, monkeypatch, capsys):
    base, change = tmp_path / "base", tmp_path / "change"
    for side in (base, change):
        side.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 60,
        "end_to_end": [{"name": "pass_s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "hilbert.steady_state.calls", "better": "lower"},
                      {"name": "absent.metric", "better": "lower"}]}))
    traced = []

    def fake(checkout, workload, seed, seconds, trace=0):
        value = 1.0 if checkout == base else 0.5
        if trace:
            traced.append((checkout.name, workload, seed))
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"pass_s": {"value": value + 0.01 * seed},
                            "hilbert.steady_state.calls": {"value": 44.0 * value}},
                "provenance": {"git_sha": checkout.name * 2, "git_dirty": False,
                               "seed": seed, "cpu_count": 2, "numpy": "2.4.6"}}

    monkeypatch.setattr(bench_pairs, "run_once", fake)
    out = tmp_path / "BENCH_1.json"
    for workload in ("w1", "w2"):
        assert bench_pairs.main([str(base), str(change), "--workload", workload,
                                 "--pairs", "3", "--first-seed", "7",
                                 "--write", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == f"# wrote w2 to {out}"
    # one traced run per side and workload, with the first seed
    assert traced == [("base", "w1", 7), ("change", "w1", 7),
                      ("base", "w2", 7), ("change", "w2", 7)]
    record = json.loads(out.read_text())
    assert record["base"] == {"git_sha": "basebase", "git_dirty": False}
    assert record["change"] == {"git_sha": "changechange", "git_dirty": False}
    assert record["host"] == {"cpu_count": 2, "numpy": "2.4.6"}
    assert set(record["workloads"]) == {"w1", "w2"}
    w1 = record["workloads"]["w1"]
    assert (w1["pairs_asked"], w1["first_seed"], w1["run_seconds"], w1["sound"]) == (
        3, 7, 60, True)
    # the end-to-end entry is the row the tool prints
    expected = bench_pairs.summary([1.07, 1.08, 1.09], [0.57, 0.58, 0.59],
                                   "lower", 0.25)
    entry = w1["end_to_end"]["pass_s"]
    assert entry["better"] == "lower" and entry["gain"] is True
    assert entry["regression"] == "held"
    for key in ("wins", "pairs", "shift", "base_iqr"):
        assert entry[key] == pytest.approx(expected[key])
    for side in ("base", "change"):
        assert entry[side] == pytest.approx(list(expected[side]))
    assert w1["per_layer"] == {"seed": 7,
                               "base": {"hilbert.steady_state.calls": 44.0},
                               "change": {"hilbert.steady_state.calls": 22.0}}
