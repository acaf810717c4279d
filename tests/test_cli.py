"""CLI behaviour: modes, overrides, exit codes, reproducible outputs."""

from __future__ import annotations

import json
import math

import pytest

from qflow.cli import main


def write_config(tmp_path, **extra):
    cfg = {
        "algorithm": "greedy_dfs",
        "repetitions": 3,
        "workload": {"batch_size": 5, "tasks_per_group": 2},
        "topology": {"node_count": 4, "link_probability": 0.7},
        "measure_timing": False,
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "results.csv").exists()
        assert "completion" in capsys.readouterr().out

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.json")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["--config", str(path)]) == 1

    def test_invalid_field_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, repetitions=0)
        assert main(["--config", str(cfg)]) == 1
        assert "repetitions" in capsys.readouterr().err

    def test_nan_retry_limit_is_config_error_before_any_run(self, tmp_path, capsys, monkeypatch):
        # unchecked, NaN retries never exhaust: 5-task workflows on 3 nodes always fail and retry forever
        def unreachable(*args, **kwargs):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr("qflow.cli.run_experiment", unreachable)
        for bad, spelled in ((math.nan, "NaN"), (math.inf, "Infinity")):
            cfg = write_config(
                tmp_path, repetitions=1, retry_limit=bad,
                workload={"batch_size": 3, "tasks_per_group": 5, "tasks_per_group_min": 5},
                topology={"node_count": 3},
            )
            assert f'"retry_limit": {spelled}' in cfg.read_text()
            assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
            assert "retry_limit" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "path, extra, want",
        [
            ("repetitions", {"repetitions": 2.0}, 2),
            ("catalog_size", {"catalog_size": 64.0}, 64),
            ("retry_limit", {"retry_limit": 1.0}, 1),
            ("workers", {"workers": 1.0}, 1),
            ("trial_multiplier", {"trial_multiplier": 2.0, "algorithm": "random_aware"}, 2),
            ("workload.batch_size", {"workload": {"batch_size": 5.0, "tasks_per_group": 2}}, 5),
            ("workload.tasks_per_group", {"workload": {"batch_size": 5, "tasks_per_group": 2.0}}, 2),
            ("workload.tasks_per_group_min", {"workload": {"batch_size": 5, "tasks_per_group_min": 1.0}}, 1),
            ("workload.shots_default", {"workload": {"batch_size": 5, "shots_default": 100.0}}, 100),
            ("workload.qubit_range", {"workload": {"batch_size": 5, "qubit_range": [5.0, 20.0]}}, [5, 20]),
            ("topology.node_count", {"topology": {"node_count": 5.0, "link_probability": 0.7}}, 5),
        ],
    )
    def test_integral_float_count_runs_and_is_recorded_as_int(self, tmp_path, path, extra, want):
        cfg = write_config(tmp_path, **extra)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "--no-timing"]) == 0
        got = json.loads((out / "summary.json").read_text())["config"]
        for key in path.split("."):
            got = got[key]
        assert got == want
        assert all(type(v) is int for v in (got if isinstance(got, list) else [got]))

    def test_unknown_flag_is_config_error(self, capsys):
        assert main(["--frobnicate"]) == 1

    def test_runtime_failure_is_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, profiles_path=str(tmp_path / "missing-profiles.json"))
        assert main(["--config", str(cfg)]) == 2
        assert "error" in capsys.readouterr().err


class TestOverrides:
    def test_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--algo", "random_aware", "--reps", "2",
                     "--seed", "42", "--out", str(out)]) == 0
        rows = (out / "results.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 + 2
        assert rows[1].startswith("random_aware,42,")

    def test_defaults_run_without_config_file(self, tmp_path):
        assert main(["--reps", "1", "--algo", "greedy_dfs", "--no-timing",
                     "--out", str(tmp_path / "o")]) == 0


class TestScenarioMode:
    def test_scenario_prints_table_row(self, capsys):
        assert main(["--scenario", "SP-MR", "--algo", "greedy_dfs", "--reps", "2",
                     "--no-timing"]) == 0
        out = capsys.readouterr().out
        assert "SP-MR" in out and "completion 100%" in out

    def test_scenario_applies_every_config_flag(self, tmp_path, capsys):
        out = tmp_path / "scenario"
        assert main(["--scenario", "SP-MR", "--algo", "greedy_dfs", "--reps", "1", "--seed", "7",
                     "--no-timing", "--no-dep-gating", "--strict-pseudocode",
                     "--out", str(out)]) == 0
        config = json.loads((out / "summary.json").read_text())["config"]
        assert config["algorithm"] == "greedy_dfs"
        assert (config["repetitions"], config["base_seed"]) == (1, 7)
        assert config["measure_timing"] is False
        assert config["dependency_gating"] is False
        assert config["soft_config"]["strict_pseudocode"] is True
        assert config["retry_limit"] == 0  # the scenario preset is kept

    def test_zero_reps_is_config_error_in_both_modes(self, capsys):
        assert main(["--scenario", "SP-MR", "--algo", "greedy_dfs", "--reps", "0"]) == 1
        assert "repetitions" in capsys.readouterr().err
        assert main(["--algo", "greedy_dfs", "--reps", "0"]) == 1
        assert "repetitions" in capsys.readouterr().err

    def test_scenario_rejects_config_and_sweep(self, tmp_path, capsys):
        assert main(["--scenario", "SP-MR", "--algo", "greedy_dfs", "--reps", "1",
                     "--config", str(tmp_path / "x.json"), "--sweep", "tasks_per_group=1,2"]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "--config" in err and "--sweep" in err


class TestSweepMode:
    def test_sweep_writes_histogram_and_subdirs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "sweep"
        assert main(["--config", str(cfg), "--sweep", "tasks_per_group=1,2",
                     "--out", str(out)]) == 0
        assert (out / "workload_tasks_per_group=1" / "results.csv").exists()
        assert (out / "workload_tasks_per_group=2" / "results.csv").exists()
        hist = (out / "failure_histogram.csv").read_text().splitlines()
        assert hist[0] == "algorithm,bin_lower_pct,bin_upper_pct,experiments"
        # a field left at null takes its annotated type
        assert main(["--config", str(cfg), "--sweep", "workload.arrival_rate=5,10",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "workload_arrival_rate=10" / "summary.json").read_text())
        assert summary["config"]["workload"]["arrival_rate"] == 10.0

    def test_sweep_requires_out(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "--sweep", "tasks_per_group=1,2"]) == 1

    def test_sweep_rejects_bad_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "--sweep", "nope=1",
                     "--out", str(tmp_path / "s")]) == 1
        assert main(["--config", str(cfg), "--sweep", "batch=abc",
                     "--out", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "batch_size" in err
        # a misspelt boolean is an error, not a silent false, and is caught
        # before any earlier value of the sweep runs
        assert main(["--config", str(cfg), "--sweep", "dependency_gating=on,flase",
                     "--out", str(tmp_path / "b")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "dependency_gating" in err
        assert not (tmp_path / "b").exists()

    def test_sweep_rejects_nan(self, tmp_path, capsys):
        # a NaN cost or weight beats no incumbent, a NaN threshold never stops
        # the search and a NaN rate makes every arrival time NaN, so each run
        # would finish with a quietly wrong result
        for key in (
            "params.classical_latency",
            "params.transmission_efficiency",
            "soft_config.thres_max",
            "weights.alpha",
            "workload.arrival_rate",
        ):
            out = tmp_path / key
            assert main(["--algo", "soft_iso", "--reps", "1", "--no-timing",
                         "--sweep", f"{key}=nan", "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert "config error" in err and key.split(".")[1] in err
            assert not out.exists()


class TestReproducibility:
    def test_cli_outputs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(cfg), "--out", str(a)]) == 0
        assert main(["--config", str(cfg), "--out", str(b)]) == 0
        for name in ("results.csv", "qpu_shares.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
