"""The pair protocol of ``tools/bench_pairs.py`` and ``tools/preset_pairs.py``,
and the records of ``tools/bench_record.py``, on synthetic results (no
measuring process runs)."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name):
    """The script ``tools/<name>.py``, registered as module ``name``, as a
    script run from ``tools/`` imports it."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load("bench_pairs")
preset_pairs = load("preset_pairs")  # imports bench_pairs
bench_record = load("bench_record")  # imports bench_pairs


def pairs_of(base, new, name="decision_ms_p50"):
    """Pairs of the given values, the base side first in even pairs."""
    return [
        {"first": "base" if i % 2 == 0 else "new", "base": {name: b}, "new": {name: n}}
        for i, (b, n) in enumerate(zip(base, new))
    ]


def row_of(base, new, better="lower"):
    [row] = bench_pairs.summarise(pairs_of(base, new), {"decision_ms_p50": better})
    return row


def test_seed_lists():
    assert bench_pairs.parse_seeds("1-10") == list(range(1, 11))
    assert bench_pairs.parse_seeds("4242") == [4242]
    assert bench_pairs.parse_seeds("1,3,5-7") == [1, 3, 5, 6, 7]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("a-b")


def test_a_clear_gain_holds_the_rule():
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    row = row_of(base, [0.9 * b for b in base])
    assert row["wins"] == 10 and row["pairs"] == 10
    assert row["wins_by_first"] == {"base": 5, "new": 5} and row["pairs_by_first"] == {"base": 5, "new": 5}
    assert row["gain"] and row["change_pct"] == pytest.approx(-10.0)
    low, mid, high = row["base"]
    assert low < mid < high and mid == pytest.approx(1.0)
    assert "won 10 of 10 (base first 5 of 5, new first 5 of 5)" in bench_pairs.format_row(row)
    assert bench_pairs.format_row(row).endswith("gain rule holds")


def test_wins_split_by_the_side_that_ran_first():
    base = [1.0] * 10
    new = [0.9] * 10
    new[2] = 1.1  # a loss with the base side first
    new[3] = 1.0  # a tie, with the new side first: it wins for neither
    row = row_of(base, new)
    assert row["wins"] == 8 and row["wins_by_first"] == {"base": 4, "new": 4}
    assert not row["gain"]  # 8 of 10 is under nine tenths


def test_nine_wins_hold_but_a_gap_within_the_spread_fails():
    base = [1.0, 1.2, 0.8, 1.1, 0.9, 1.2, 0.8, 1.1, 0.9, 1.0]
    nine = [b - 0.4 for b in base]
    nine[0] = 1.5
    assert row_of(base, nine)["wins"] == 9 and row_of(base, nine)["gain"]
    close = [b - 0.01 for b in base]  # wins every pair, by less than the base's interquartile range
    assert row_of(base, close)["wins"] == 10 and not row_of(base, close)["gain"]


def test_a_higher_is_better_metric_wins_upwards():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0]
    assert row_of(base, [b * 1.1 for b in base], better="higher")["gain"]
    assert row_of(base, [b * 1.1 for b in base])["wins"] == 0  # the same rise is a loss where lower is better


def run_output(metrics, raw, correct=True):
    """A run's last two lines as perfbench prints them: the info line, then the result."""
    info = {"workload": "lpmr-search", "raw_host_seconds": raw, "units": 3}
    result = {"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
              "metrics": {name: {"value": value, "unit": "u"} for name, value in metrics.items()}}
    return f"{json.dumps(info, sort_keys=True)}\n{json.dumps(result)}\n"


def test_a_run_reads_its_raw_host_times_from_the_info_line():
    metrics = {"wall_s": 2.0, "decision_ms_p50": 0.7, "decision_ms_p90": 1.4, "mean_cost": 0.3}
    raw = {"wall_s": 1.6, "decision_ms_p50": 0.56, "decision_ms_p90": 1.12}
    values = bench_pairs.parse_run("a line a run may print first\n" + run_output(metrics, raw))
    assert values == {**metrics, "raw wall_s": 1.6, "raw decision_ms_p50": 0.56, "raw decision_ms_p90": 1.12}
    assert bench_pairs.parse_run(run_output(metrics, raw, correct=False)) is None
    assert bench_pairs.parse_run("") is None


def test_raw_rows_follow_their_scaled_metrics():
    directions = {"setup_s": "lower", "wall_s": "lower", "decisions_per_s": "higher", "decision_ms_p50": "lower",
                  "decision_ms_p90": "lower", "mean_cost": "lower"}
    assert list(bench_pairs.with_raw(directions).items()) == [
        ("setup_s", "lower"), ("wall_s", "lower"), ("raw wall_s", "lower"), ("decisions_per_s", "higher"),
        ("decision_ms_p50", "lower"), ("raw decision_ms_p50", "lower"), ("decision_ms_p90", "lower"),
        ("raw decision_ms_p90", "lower"), ("mean_cost", "lower"),
    ]
    # a gain in raw host time counts apart from the scaled one: here the scale rose with the new side
    pairs = [{"first": "base" if i % 2 == 0 else "new",
              "base": {"decision_ms_p50": 1.0, "raw decision_ms_p50": 1.0 + i / 100},
              "new": {"decision_ms_p50": 1.0 + i / 100, "raw decision_ms_p50": 0.9 + i / 100}} for i in range(10)]
    scaled, raw = bench_pairs.summarise(pairs, {"decision_ms_p50": "lower", "raw decision_ms_p50": "lower"})
    assert scaled["wins"] == 0 and raw["wins"] == 10 and raw["gain"]
    assert bench_pairs.format_row(raw).startswith("raw decision_ms_p50  base ")


def test_pairs_alternate_the_side_run_first(capsys):
    ran = []

    def run(side, i):
        ran.append((i, side))
        return {"figure": 2.0 * i + (side == "new")}

    pairs = bench_pairs.run_pairs(["seed 1", "seed 2", "seed 3"], run, ["figure"])
    assert ran == [(0, "base"), (0, "new"), (1, "new"), (1, "base"), (2, "base"), (2, "new")]
    assert pairs == [
        {"first": "base", "base": {"figure": 0.0}, "new": {"figure": 1.0}},
        {"first": "new", "base": {"figure": 2.0}, "new": {"figure": 3.0}},
        {"first": "base", "base": {"figure": 4.0}, "new": {"figure": 5.0}},
    ]
    assert capsys.readouterr().out.splitlines() == [
        "seed 1 (base first): figure 0 -> 1", "seed 2 (new first): figure 2 -> 3", "seed 3 (base first): figure 4 -> 5",
    ]
    [row] = bench_pairs.summarise(pairs, {"figure": "lower"})
    assert row["wins"] == 0 and row["pairs_by_first"] == {"base": 2, "new": 1}


def test_bench_pairs_runs_the_base_checkouts_run_seconds(monkeypatch, tmp_path, capsys):
    """Every run lasts the base checkout's ``run_seconds``, the pipeline's
    run; a shorter one stops at another unit count, so no option sets it."""
    spec = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    base, new = tmp_path / "base", tmp_path / "new"
    base.mkdir()
    (base / "BENCHMARK.json").write_text(json.dumps({**spec, "run_seconds": 3}))
    names = [metric["name"] for metric in spec["end_to_end"]] + [f"raw {n}" for n in bench_pairs.RAW]
    ran = []

    def run_tree(tree, workload, seed, seconds):
        ran.append((tree.name, workload, seed, seconds))
        return dict.fromkeys(names, 1.0)

    monkeypatch.setattr(bench_pairs, "run_tree", run_tree)
    assert bench_pairs.main([str(base), str(new), "--workload", "lplr-sparse", "--seeds", "1-2"]) == 0
    assert ran == [("base", "lplr-sparse", 1, 3), ("new", "lplr-sparse", 1, 3),
                   ("new", "lplr-sparse", 2, 3), ("base", "lplr-sparse", 2, 3)]
    capsys.readouterr()
    with pytest.raises(SystemExit):
        bench_pairs.main([str(base), str(new), "--workload", "lplr-sparse", "--seconds", "5"])
    assert "unrecognized arguments: --seconds 5" in capsys.readouterr().err


def test_summary_columns_line_up_past_twenty_characters():
    long = "LP-MR random_aware mean"  # 23 characters
    pairs = [{"first": "base", "base": {"figure": 1.0, long: 1.0}, "new": {"figure": 0.5, long: 2.0}}]
    lines = bench_pairs.format_rows(bench_pairs.summarise(pairs, {"figure": "lower", long: "lower"}))
    assert [line.index(" base ") for line in lines] == [len(long) + 1] * 2
    assert lines[0].startswith("figure" + " " * 19 + "base 1 [1, 1]  new 0.5 [0.5, 0.5]  -50.0%  won 1 of 1")


def test_preset_pairs_prints_the_summary_of_each_figure(monkeypatch, capsys):
    """Each figure is lower-is-better: one halved in every pair holds the
    gain rule, one left as it is fails it."""
    rows = ["LP-MR", "SP-LR", "SP-MR", "LP-MR exhaustive", "SP-MR exhaustive", "LP-LR exhaustive",
            "LP-MR random_aware", "20-class, 4 tasks", "20-class, 5 tasks"]
    names = [f"{row} {figure}" for row in rows for figure in ("mean", "p90")]
    calls = []

    def run_tree(src):
        calls.append(src.name)
        k = len(calls) / 100
        halved = 0.5 if src.name == "new" else 1.0
        return {"LP-MR mean": halved * (1 + k), "LP-MR p90": 2 + k} | dict.fromkeys(names[2:], 1.0)

    monkeypatch.setattr(preset_pairs, "run_tree", run_tree)
    assert preset_pairs.main(["base", "new"]) == 0
    assert calls == ["base", "new", "new", "base"] * 5  # ten pairs by default
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" (")[0] for line in lines[:10]] == [f"pair {i}" for i in range(1, 11)]
    assert lines[0].endswith("LP-MR mean 1.01 -> 0.51  SP-LR mean 1 -> 1  SP-MR mean 1 -> 1")
    summary = lines[10:]
    assert [line.split("  base ")[0].rstrip() for line in summary] == names
    assert {line.index(" base ") for line in summary} == {max(map(len, names)) + 1}
    assert summary[0].endswith("won 10 of 10 (base first 5 of 5, new first 5 of 5)  gain rule holds")
    assert all(line.endswith("gain rule fails") for line in summary[1:])
    with pytest.raises(SystemExit):  # the calls per process are a constant
        preset_pairs.main(["base", "new", "--calls", "5"])
    assert "unrecognized arguments: --calls 5" in capsys.readouterr().err


def test_preset_rows_scale_each_raw_figure_by_the_rows_host_scale():
    events, spans = [], []

    class FakeHostSpeed:
        def tick(self):
            events.append("tick")

        def sample(self):
            events.append("sample")

        def scale(self, t0, t1):
            spans.append((t0, t1))
            return 1.25

    def run(timing, calls):
        doubled = timing(lambda x: 2 * x)
        assert [doubled(i) for i in range(calls)] == [2 * i for i in range(calls)]

    started = time.perf_counter()
    figures = preset_pairs.timed_row("LP-MR", FakeHostSpeed(), run, 12)
    assert events == ["sample"] + ["tick"] * 12 + ["sample"]  # a tick before each timed call
    [(t0, t1)] = spans
    assert started <= t0 <= t1 <= time.perf_counter()
    assert list(figures) == ["LP-MR mean", "raw LP-MR mean", "LP-MR p90", "raw LP-MR p90"]
    for figure in ("LP-MR mean", "LP-MR p90"):
        assert figures[figure] == figures[f"raw {figure}"] * 1.25 and figures[f"raw {figure}"] > 0


def fake_record_runs(monkeypatch, tmp_path, refused_seed=None):
    """Point ``bench_record`` at ``tmp_path``, holding this repository's
    ``BENCHMARK.json`` with its ``run_seconds`` set to 2, with a faked
    ``run_tree`` whose figure ``k`` reads ``(k + 1) * seed`` and which
    refuses the run of ``refused_seed`` as the real one refuses a run that
    is not ``correct: true``. It returns the figure names and the list of
    runs made."""
    spec = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({**spec, "run_seconds": 2}))
    names = [metric["name"] for metric in spec["end_to_end"]] + [f"raw {n}" for n in bench_pairs.RAW]
    ran = []

    def run_tree(tree, workload, seed, seconds):
        ran.append((tree, workload, seed, seconds))
        if seed == refused_seed:
            raise SystemExit(f"bench_pairs: {tree} seed {seed}: the run is not correct: true")
        return {name: (k + 1.0) * seed for k, name in enumerate(names)}

    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "run_tree", run_tree)
    monkeypatch.setattr(bench_record, "commit", lambda root: {"head": "0" * 40, "dirty": False})
    return names, ran


def test_bench_record_keeps_medians_and_quartiles_in_identical_bytes(monkeypatch, tmp_path, capsys):
    names, ran = fake_record_runs(monkeypatch, tmp_path)
    assert bench_record.main(["lplr-sparse"]) == 0
    assert ran == [(tmp_path, "lplr-sparse", seed, 2) for seed in range(1, 11)]  # the seconds are run_seconds
    path = tmp_path / "BENCH_lplr-sparse.json"
    assert capsys.readouterr().out == f"{path}\n"
    first = path.read_bytes()
    record = json.loads(first)
    assert sorted(record) == ["commit", "cpu_count", "metrics", "platform", "python", "seconds", "seeds", "workload"]
    assert record["workload"] == "lplr-sparse" and record["seeds"] == list(range(1, 11)) and record["seconds"] == 2
    assert record["commit"] == {"head": "0" * 40, "dirty": False}
    assert sorted(record["metrics"]) == sorted(names) and len(names) == 12
    for k, name in enumerate(names):  # seeds 1-10: quartiles 2.75 and 8.25, median 5.5, each times k + 1
        assert record["metrics"][name] == {"median": 5.5 * (k + 1), "q1": 2.75 * (k + 1), "q3": 8.25 * (k + 1)}, name
    assert first.decode() == json.dumps(record, indent=2, sort_keys=True) + "\n"
    assert bench_record.main(["lplr-sparse"]) == 0
    assert path.read_bytes() == first
    for option in ("--seeds", "--seconds"):  # fixed, so that every record compares with the others
        with pytest.raises(SystemExit):
            bench_record.main(["lplr-sparse", option, "2"])
        assert f"unrecognized arguments: {option} 2" in capsys.readouterr().err


def test_bench_record_writes_nothing_when_a_run_is_not_correct(monkeypatch, tmp_path):
    fake_record_runs(monkeypatch, tmp_path, refused_seed=3)
    path = tmp_path / "BENCH_lpmr-search.json"
    path.write_text("the last record\n")
    with pytest.raises(SystemExit, match="seed 3: the run is not correct: true"):
        bench_record.main(["lpmr-search"])
    assert path.read_text() == "the last record\n"
    # the real run_tree refuses a run whose result reads correct: false
    output = run_output({"wall_s": 1.0}, dict.fromkeys(bench_pairs.RAW, 1.0), correct=False)
    done = subprocess.CompletedProcess([], 0, output, "")
    monkeypatch.setattr(bench_pairs, "subprocess", SimpleNamespace(run=lambda *args, **kwargs: done))
    with pytest.raises(SystemExit, match="not correct: true"):
        bench_pairs.run_tree(tmp_path, "lpmr-search", 1, 1.0)
