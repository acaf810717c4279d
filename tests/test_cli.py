"""CLI behaviour: modes, overrides, exit codes, reproducible outputs."""

from __future__ import annotations

import codecs
import dataclasses
import json
import math

import pytest

from qflow.cli import build_parser, load_config, main
from qflow.experiments import ExperimentConfig, apply_sweep_value, scenario_config
from qflow.profiles import load_profiles


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

    def test_config_with_byte_order_mark_runs_as_the_plain_file(self, tmp_path):
        plain = write_config(tmp_path)
        marked = tmp_path / "marked.json"
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        for cfg, out in (plain, "plain"), (marked, "marked"):
            assert main(["--config", str(cfg), "--out", str(tmp_path / out)]) == 0
        for name in ("results.csv", "summary.json"):
            assert (tmp_path / "marked" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

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
            ("base_seed", {"base_seed": -7.0}, -7),
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

    @pytest.mark.parametrize(
        "raw, message",
        [
            ([1, 2], "expected an object, got list"),
            ({"topology": {"profile_pool": "torino"}}, "topology.profile_pool"),
            ({"weights": {"zeta": 0.5, "nope": 1}}, "unknown config keys: weights.nope"),
            # subnormal attenuations: the link cost divides by zero or overflows
            ({"params": {"transmission_efficiency": 5e-324}}, "params.transmission_efficiency"),
            ({"params": {"transmission_efficiency": 1e-310}}, "params.transmission_efficiency"),
            # a tiny but normal efficiency: the link terms overflow the run's sums
            (
                {"params": {"transmission_efficiency": 1e-307}},
                "params.transmission_efficiency on profile brisbane: the quantum link cost of a 100-qubit task",
            ),
            # an infinite latency made every cost bound infinite at run time
            ({"params": {"classical_latency": math.inf}}, "params.classical_latency"),
            # a finite latency whose term overflows for a task measuring every
            # qubit, or whose sums overflow a run
            (
                {"params": {"classical_latency": 1e308}},
                "params.classical_latency: the link cost of a 100-qubit task measuring every qubit overflows",
            ),
            (
                {"params": {"classical_latency": 1e306}},
                "params.classical_latency: the link cost of a 100-qubit task measuring every qubit overflows",
            ),
            # a bool is an int: it would run as 0 or 1 and be recorded as true
            ({"weights": {"zeta": True}}, "weights.zeta: a bool is not accepted, got True"),
            ({"topology": {"link_probability": True}}, "topology.link_probability: a bool is not accepted"),
            ({"soft_config": {"counter_cap_base": True}}, "soft_config.counter_cap_base: a bool is not accepted"),
            ({"workload": {"arrival_rate": False}}, "workload.arrival_rate: a bool is not accepted"),
            # a number would be opened as a file descriptor, or skipped when 0
            ({"catalog_path": True}, "catalog_path: a bool is not accepted"),
            ({"catalog_path": 1}, "catalog_path: expected a string or null, got 1"),
            ({"catalog_path": 0}, "catalog_path: expected a string or null, got 0"),
            ({"profiles_path": True}, "profiles_path: a bool is not accepted"),
            ({"profiles_path": 2.5}, "profiles_path: expected a string or null, got 2.5"),
            # every repetition derives both seeds from base_seed
            ({"workload": {"seed": 5}}, "workload.seed: must be 0, got 5"),
            ({"topology": {"seed": 9}}, "topology.seed: must be 0, got 9"),
            # repetitions run in one process
            ({"workers": 2}, "workers: must be 1, got 2; repetitions run in one process"),
            # a run's gate count past float range overflowed the sums check itself
            ({"workload": {"batch_size": 1e308}}, "workload.batch_size: int too large to convert to float"),
            # a gap is at most about 36.7 / rate: the last arrival time can pass float range
            ({"workload": {"arrival_rate": 5e-324}}, "workload.arrival_rate: 50 arrivals at rate 5e-324 can pass"),
            # a 100-qubit shor task's 40,000 layers times the shots pass float range in the cost terms
            (
                {"workload": {"shots_default": 1e308}},
                "workload.shots_default: the deepest 100-qubit task: depth times shots overflows a float",
            ),
        ],
        ids=[
            "list", "string-pool", "nested-unknown", "least-subnormal-efficiency", "subnormal-efficiency",
            "overflowing-link-cost", "infinite-latency", "overflowing-latency", "overflowing-latency-sums",
            "bool-weight", "bool-link-probability", "bool-cap-base",
            "bool-arrival-rate", "bool-catalog-path", "fd-catalog-path", "zero-catalog-path", "bool-profiles-path",
            "number-profiles-path", "workload-seed", "topology-seed", "workers", "overflowing-batch",
            "subnormal-arrival-rate", "overflowing-shots",
        ],
    )
    def test_malformed_config_file_is_config_error(self, tmp_path, capsys, raw, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["--config", str(path), "--reps", "1", "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["false", 0, None], ids=["string", "zero", "null"])
    @pytest.mark.parametrize(
        "field",
        ["dependency_gating", "gate_comm_latency", "measure_timing", "params.eta_in_db", "soft_config.strict_pseudocode"],
    )
    def test_switch_refuses_a_non_bool(self, tmp_path, capsys, field, value):
        # taken by its truth, "false" would turn a switch on, and 0 or null off
        *sections, name = field.split(".")
        raw = {name: value}
        for section in sections:
            raw = {section: raw}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["--config", str(path), "--reps", "1", "--out", str(tmp_path / "out")]) == 1
        assert f"{field}: expected true or false, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_latency_with_one_task_per_workflow_runs(self, tmp_path):
        # one task per workflow: no gate, so no link term enters a sum
        # (0 gates times an infinite term is no overflow)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "params": {"classical_latency": 1e308}, "workload": {"tasks_per_group": 1, "tasks_per_group_min": 1},
        }))
        out = tmp_path / "out"
        assert main(["--config", str(path), "--reps", "1", "--out", str(out)]) == 0
        for name in ("results.csv", "qpu_shares.csv", "summary.json"):
            assert (out / name).exists()

    def test_unknown_flag_is_config_error(self, capsys):
        assert main(["--frobnicate"]) == 1

    def test_runtime_failure_is_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        (tmp_path / "file").write_text("")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "file" / "out")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, flags, where",
        [
            ({}, ["--profiles", "missing.json"], "missing.json"),
            ({}, ["--profiles", "empty.json"], "empty.json"),
            ({}, ["--profiles", "lacks.json"], "lacks.json"),
            ({"profiles_path": "notjson.json"}, [], "notjson.json"),
            ({"topology": {"profile_pool": ["nope"]}}, [], "topology.profile_pool"),
            ({"catalog_path": "missing.csv"}, [], "catalog_path"),
            ({"catalog_path": "header.csv"}, [], "catalog_path"),
            ({}, ["--sweep", "profiles_path=good.json,empty.json"], "empty.json"),
            ({}, ["--profiles", "list.json"], "list.json"),
            ({}, ["--profiles", "number.json"], "profile 'a' must be a JSON object"),
            ({}, ["--profiles", "text-qubits.json"], "profile 'brisbane': qubits must be an int or float"),
            ({}, ["--profiles", "bool-t1.json"], "profile 'brisbane': t1 must be an int or float, got True"),
            (
                {"catalog_path": "header-only.csv"}, [],
                "catalog_path: header-only.csv has no task within workload.qubit_range [5, 100]",
            ),
            (
                {"catalog_path": "too-large.csv"}, [],
                "catalog_path: too-large.csv has no task within workload.qubit_range [5, 100]",
            ),
            # an imported task's depth times its shots passes float range in the cost terms
            ({"catalog_path": "deep.csv"}, [], "catalog_path: task deep: depth times shots overflows a float"),
            ({}, ["--profiles", "inf-t1.json"], "node brisbane: t1 must be > 0 and finite, got inf"),
            (
                {}, ["--profiles", "tiny-coherence.json"],
                "topology.profile_pool: node brisbane: 2 * t1 * t2 / (t1 + t2) must be >=",
            ),
            # each factor is normal, their product underflows: the link cost divides by zero
            (
                {"params": {"transmission_efficiency": 1e-200}}, ["--profiles", "small-coherence.json"],
                "params.transmission_efficiency on profile brisbane: float division by zero",
            ),
        ],
        ids=[
            "missing-profiles", "empty-profiles", "profile-lacks-fields",
            "profiles-not-json", "unknown-pooled-profile", "missing-catalog", "catalog-header", "swept-profiles",
            "profiles-list", "profile-not-object", "profile-text-qubits", "profile-bool-t1",
            "catalog-header-only", "catalog-out-of-range", "catalog-overflowing-layers", "profile-inf-t1", "profile-tiny-coherence",
            "profile-underflowing-link-cost",
        ],
    )
    def test_bad_input_file_is_config_error_before_any_output(self, tmp_path, capsys, monkeypatch, extra, flags, where):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "good.json").write_text(json.dumps(load_profiles()))
        (tmp_path / "empty.json").write_text("{}")
        (tmp_path / "lacks.json").write_text('{"x": {"qubits": 5}}')
        (tmp_path / "notjson.json").write_text("{not json")
        (tmp_path / "header.csv").write_text("id,family\n")
        (tmp_path / "list.json").write_text("[]")
        (tmp_path / "number.json").write_text('{"a": 5}')
        bad_fields = (
            ("text-qubits", {"qubits": "x"}),
            ("bool-t1", {"t1": True}),
            ("inf-t1", {"t1": math.inf}),
            ("tiny-coherence", {"t1": 1e-300, "t2": 1e-300}),
            ("small-coherence", {"t1": 1e-150, "t2": 1e-150}),
        )
        for name, fields in bad_fields:
            profiles = load_profiles()
            profiles["brisbane"].update(fields)
            (tmp_path / f"{name}.json").write_text(json.dumps(profiles))
        columns = "id,family,qubits,depth,two_qubit_gates,measured_qubits,shots\n"
        (tmp_path / "header-only.csv").write_text(columns)
        (tmp_path / "too-large.csv").write_text(columns + "big,qft,200,10,5,200,1000\n")
        (tmp_path / "deep.csv").write_text(columns + f"deep,qft,5,{10**300},5,5,{10**9}\n")
        cfg = write_config(tmp_path, **extra)
        assert main(["--config", str(cfg), "--out", "out", *flags]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and where in err
        assert not (tmp_path / "out").exists()

    def test_profiles_env_var_is_no_input(self, tmp_path, monkeypatch):
        # the recorded config names every input: an exported QFLOW_PROFILES
        # changes nothing, not even when it names a missing file
        monkeypatch.chdir(tmp_path)
        args = ["--algo", "soft_iso", "--reps", "2", "--no-timing", "--out"]
        assert main([*args, "plain"]) == 0
        monkeypatch.setenv("QFLOW_PROFILES", "missing.json")
        assert main([*args, "env"]) == 0
        for name in ("results.csv", "qpu_shares.csv", "summary.json"):
            assert (tmp_path / "env" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


# Each leaf of the config is set to each of these in turn.
HOSTILE_VALUES = (
    math.nan, math.inf, -1, 0, -0.0, True, False, "x", "1", [], {}, None, 2.5, 5e-324, [1, 2], [0, 0], ["a", "b"],
)
# Values that are valid but only slow, kept out of the sweep: a count of 1e308
# or 10**30 repetitions, catalog tasks, workflows or nodes builds that many,
# and a qubit_range end of 10**9 draws a catalog that grows about
# quadratically in it.
SLOW_ONLY = (1e308, 10**30, [5, 10**9])


def config_leaves(obj, path=""):
    """The dotted path of every field of ``obj`` that holds no section."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from config_leaves(value, f"{path}{f.name}.")
        else:
            yield path + f.name


class TestHostileValues:
    def test_every_leaf_takes_every_value_or_names_itself(self, tmp_path, capsys):
        # one repetition of four soft_iso workflows; a refusal names the
        # dotted leaf, also in the workload section, which the base sets
        # another field of
        assert not any(value in HOSTILE_VALUES for value in SLOW_ONLY)
        leaves = list(config_leaves(ExperimentConfig()))
        path = tmp_path / "config.json"
        codes = {0: 0, 1: 0}
        for leaf in leaves:
            *sections, name = leaf.split(".")
            for value in HOSTILE_VALUES:
                raw = {"algorithm": "soft_iso", "repetitions": 1, "workload": {"batch_size": 4}}
                section = raw
                for key in sections:
                    section = section.setdefault(key, {})
                section[name] = value
                path.write_text(json.dumps(raw))
                code = main(["--config", str(path)])
                err = capsys.readouterr().err
                assert code in (0, 1), (leaf, value, err)
                codes[code] += 1
                if code == 1:
                    assert leaf in err, (leaf, value, err)
        assert len(leaves) >= 30 and min(codes.values()) >= 50


class TestExactRow:
    """``exact`` is soft_iso under ``EXHAUSTIVE`` and places on a network of
    any size; the oracle is no run row."""

    def test_a_scenario_past_the_oracle_limit_runs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--scenario", "LP-LR", "--algo", "exact", "--reps", "1", "--no-timing", "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["config"]["topology"]["node_count"] == 10

    def test_a_sweep_writes_both_sub_runs(self, tmp_path):
        out = tmp_path / "sweep"
        args = ["--algo", "exact", "--reps", "1", "--no-timing", "--sweep", "node_count=5,9", "--out", str(out)]
        assert main(args) == 0
        for count in (5, 9):
            assert (out / f"topology_node_count={count}" / "results.csv").exists()

    def test_the_oracle_is_no_algorithm(self, tmp_path, capsys):
        assert main(["--algo", "exhaustive_oracle", "--reps", "1", "--no-timing"]) == 1
        assert "--algo" in capsys.readouterr().err
        cfg = write_config(tmp_path, algorithm="exhaustive_oracle")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "config error: algorithm: unknown value 'exhaustive_oracle'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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
        assert capsys.readouterr().out == "    greedy_dfs  SP-MR: completion 100%  decision 0.0000 s\n"

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

    def test_sweep_of_a_section_seed_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "sweep"
        assert main(["--config", str(cfg), "--sweep", "workload.seed=1,2", "--out", str(out)]) == 1
        assert "config error: workload.seed: must be 0, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_a_value_given_twice_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        args = ["--algo", "greedy_dfs", "--reps", "1", "--no-timing", "--sweep", "tasks_per_group=2, 2 "]
        assert main([*args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: --sweep workload.tasks_per_group: value '2' is given twice\n"
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "sweep, message",
        [("batch", "--sweep expects KEY=V1,V2,..."), ("batch=", "--sweep needs at least one value")],
        ids=["no-equals", "no-value"],
    )
    def test_malformed_sweep_is_config_error(self, tmp_path, capsys, sweep, message):
        out = tmp_path / "s"
        assert main(["--algo", "greedy_dfs", "--reps", "1", "--sweep", sweep, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_sweep_of_a_section_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["--algo", "greedy_dfs", "--reps", "1", "--sweep", "workload=5", "--out", str(out)]) == 1
        assert "config error: workload: expected an object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["workload.qubit_range", "topology.profile_pool"])
    def test_sweep_of_a_tuple_field_is_config_error(self, tmp_path, capsys, key):
        out = tmp_path / "s"
        assert main(["--algo", "greedy_dfs", "--reps", "1", "--sweep", f"{key}=12", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"config error: {key}: a tuple field cannot be swept; set it in a config file" in err
        assert not out.exists()

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


class TestOneFieldPath:
    @pytest.mark.parametrize(
        "path, value, flag, word",
        [
            ("soft_config.strict_pseudocode", True, "--strict-pseudocode", "true"),
            ("dependency_gating", False, "--no-dep-gating", "off"),
            ("measure_timing", False, "--no-timing", "0"),
        ],
    )
    def test_every_path_sets_the_same_value(self, path, value, flag, word):
        # the config file, a scenario override, a flag and a sweep all go
        # through one replace, so each sets the field alike
        *sections, name = path.split(".")
        nested = {name: value}
        for section in reversed(sections):
            nested = {section: nested}
        configs = {
            "file": ExperimentConfig.from_dict(nested),
            "scenario": scenario_config("SP-MR", "soft_iso", **nested),
            "flag": load_config(build_parser().parse_args([flag])),
            "scenario flag": load_config(build_parser().parse_args(["--scenario", "SP-MR", flag])),
            "sweep": apply_sweep_value(ExperimentConfig(), path, word),
        }
        for how, config in configs.items():
            got = config
            for part in path.split("."):
                got = getattr(got, part)
            assert got is value, how
        assert configs["file"] == configs["flag"] == configs["sweep"]
        assert configs["scenario"] == configs["scenario flag"]


class TestReproducibility:
    def test_cli_outputs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(cfg), "--out", str(a)]) == 0
        assert main(["--config", str(cfg), "--out", str(b)]) == 0
        for name in ("results.csv", "qpu_shares.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
