"""The pair summary of scripts/bench_pairs.py on synthetic numbers."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize


def test_quartiles_of_one_and_of_many():
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)


def test_clear_gain_on_a_higher_is_better_metric():
    pairs = [(100.0 + i, 200.0 + i) for i in range(10)]
    s = summarize(pairs, "higher", 0.25)
    assert s["won"] == 10 and s["pairs"] == 10
    assert s["parent"] == (102.25, 104.5, 106.75)
    assert s["change"] == (202.25, 204.5, 206.75)
    assert s["bound"] == "ok" and s["gain"]


def test_nine_wins_in_ten_suffice_and_ties_count_for_neither():
    pairs = [(100.0, 150.0)] * 9 + [(100.0, 90.0)]
    assert summarize(pairs, "higher", 0.25)["won"] == 9
    assert summarize(pairs, "higher", 0.25)["gain"]
    tied = [(100.0, 150.0)] * 8 + [(100.0, 100.0)] * 2
    assert summarize(tied, "higher", 0.25)["won"] == 8
    assert not summarize(tied, "higher", 0.25)["gain"]


def test_fewer_than_ten_pairs_are_no_gain():
    # one pair has no parent spread, and nine wins of nine are still too few
    assert not summarize([(100.0, 200.0)], "higher", 0.25)["gain"]
    assert not summarize([(100.0 + i, 200.0) for i in range(9)], "higher", 0.25)["gain"]


def test_a_gap_inside_the_parent_spread_is_no_gain():
    # the change wins every pair, but by less than the parent's IQR
    parent = [90.0, 95.0, 100.0, 105.0, 110.0] * 2
    pairs = [(p, p + 1.0) for p in parent]
    s = summarize(pairs, "higher", 0.25)
    assert s["won"] == 10 and not s["gain"]


def test_bound_on_a_lower_is_better_metric():
    # peak memory 10% above the parent's is at the bound; 11% is past it
    at_bound = summarize([(100.0, 110.0)] * 10, "lower", 0.1)
    assert at_bound["bound"] == "ok" and at_bound["won"] == 0 and not at_bound["gain"]
    past = summarize([(100.0, 111.0)] * 10, "lower", 0.1)
    assert past["bound"] == "EXCEEDED"
    smaller = summarize([(100.0, 80.0 + i) for i in range(10)], "lower", 0.1)
    assert smaller["bound"] == "ok" and smaller["won"] == 10 and smaller["gain"]


def test_a_spread_wider_than_the_bound_is_unresolved():
    # equal medians, but either side's IQR (30 on a median of 100) is wider
    # than a 25% bound, so the runs cannot show the metric unchanged
    wide = [70.0, 85.0, 100.0, 115.0, 130.0] * 2
    assert summarize([(p, 100.0) for p in wide], "lower", 0.25)["bound"] == "unresolved"
    assert summarize([(100.0, c) for c in wide], "lower", 0.25)["bound"] == "unresolved"
    # a median past the bound is a regression however wide the spread
    assert summarize([(p, 130.0) for p in wide], "lower", 0.25)["bound"] == "EXCEEDED"
    # unless every change run beats every parent run
    apart = [(p, p - 70.0) for p in wide]
    assert summarize(apart, "lower", 0.25)["bound"] == "ok"


def run(failed: int, attempted: int) -> dict:
    return {"failed": failed, "attempted": attempted}


def test_failed_operations_are_summed_per_side():
    pairs = [(run(0, 10), run(1, 12)), (run(2, 10), run(0, 8))]
    f = bench_pairs.failures(pairs)
    assert f["parent"] == (2, 20) and f["change"] == (1, 20)
    assert not f["more"]


def test_a_larger_failed_share_is_flagged():
    # the same count of failures over fewer attempts is a larger share
    assert bench_pairs.failures([(run(1, 20), run(1, 10))])["more"]
    assert not bench_pairs.failures([(run(1, 10), run(2, 20))])["more"]
    assert not bench_pairs.failures([(run(0, 10), run(0, 0))])["more"]
    assert bench_pairs.failures([(run(0, 0), run(1, 5))])["more"]


def fake_checkouts(tmp_path, names):
    """A parent and a change checkout holding only a BENCHMARK.json."""
    bench = {"command": ["true"], "run_seconds": 1,
             "workloads": [{"name": n} for n in names],
             "end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25}]}
    sides = []
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench))
        sides.append(str(tmp_path / side))
    return sides


@pytest.mark.parametrize("chosen, expected", [
    ([], ["w1", "w2", "w3"]),
    (["w3"], ["w3"]),
    (["w3", "w1"], ["w1", "w3"]),
])
def test_workload_option_picks_the_workloads_run(tmp_path, monkeypatch, capsys, chosen, expected):
    ran = []

    def fake_run(checkout, bench, workload, seed):
        ran.append(workload)
        return {"ops_per_s": 1.0, "correct": True, "failed": 0, "attempted": 1, "rounds": 1}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    argv = fake_checkouts(tmp_path, ["w1", "w2", "w3"]) + ["--first-seed", "1"]
    for name in chosen:
        argv += ["--workload", name]
    assert bench_pairs.main(argv) == 0
    # both sides of every pair, ten pairs, workloads in BENCHMARK.json order
    assert ran == [w for _ in range(bench_pairs.PAIRS) for w in expected for _ in range(2)]
    summaries = [line.split(" ")[0] for line in capsys.readouterr().out.splitlines() if "gain rule" in line]
    assert summaries == expected


def test_an_unknown_workload_is_refused(tmp_path, capsys):
    argv = fake_checkouts(tmp_path, ["w1"]) + ["--first-seed", "1", "--workload", "w9"]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert "unknown workload w9" in capsys.readouterr().err


def test_a_checkout_with_bytecode_is_refused(tmp_path, monkeypatch):
    ran = []

    def fake_run(checkout, bench, workload, seed):
        ran.append(checkout)
        return {"ops_per_s": 1.0, "correct": True, "failed": 0, "attempted": 1, "rounds": 1}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    argv = fake_checkouts(tmp_path, ["w1"]) + ["--first-seed", "1"]
    (tmp_path / "parent" / ".git" / "hooks" / "__pycache__").mkdir(parents=True)
    stale = tmp_path / "change" / "src" / "pkg" / "__pycache__"
    stale.mkdir(parents=True)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert str(exc.value) == f"compiled bytecode would skew setup_s and peak_rss_mb; remove {stale}"
    assert ran == []
    # bytecode inside .git is not the benchmark's to read
    stale.rmdir()
    assert bench_pairs.main(argv) == 0 and len(ran) == 2 * bench_pairs.PAIRS
