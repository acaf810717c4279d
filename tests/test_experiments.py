"""Experiment runner: output schema, aggregates, determinism, scenarios."""

from __future__ import annotations

import csv
import json
import math
import statistics

import pytest

from qflow.allocators import SoftIsoConfig
from qflow.experiments import (
    RESULT_COLUMNS,
    ConfigError,
    ExperimentConfig,
    apply_sweep_value,
    emit_failure_histogram,
    run_experiment,
    run_scenario,
    scenario_config,
)
from qflow.workload import TopologySpec, WorkloadSpec


def small_config(**kwargs) -> ExperimentConfig:
    defaults = dict(
        algorithm="greedy_dfs",
        workload=WorkloadSpec(batch_size=6, tasks_per_group=2),
        topology=TopologySpec(node_count=4, link_probability=0.6),
        repetitions=4,
        base_seed=11,
        measure_timing=False,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_from_dict_builds_nested_specs(self):
        cfg = ExperimentConfig.from_dict(
            {
                "algorithm": "soft_iso",
                "repetitions": 2,
                "workload": {"batch_size": 5, "tasks_per_group": 3, "qubit_range": [5, 50]},
                "topology": {"node_count": 6, "link_probability": 0.4},
                "weights": {"zeta": 0.25},
                "soft_config": {"thres_max": 0.2},
            }
        )
        assert cfg.algorithm == "soft_iso"
        assert cfg.workload.qubit_range == (5, 50)
        assert cfg.topology.node_count == 6
        assert cfg.weights.zeta == 0.25
        assert cfg.soft_config.thres_max == 0.2

    def test_unknown_key_reported(self):
        with pytest.raises(ConfigError, match="unknown config keys: bogus"):
            ExperimentConfig.from_dict({"bogus": 1})

    def test_nested_error_carries_field_path(self):
        with pytest.raises(ConfigError, match="workload"):
            ExperimentConfig.from_dict({"workload": {"batch_size": 0}})

    @pytest.mark.parametrize("field", ["thres_max", "thres_prev", "counter_cap_base"])
    def test_nan_soft_config_rejected(self, field):
        # NaN compares false with every threshold, so it would silently turn
        # stopping off; inf is the documented way to do that
        with pytest.raises(ValueError):
            SoftIsoConfig(**{field: math.nan})
        assert getattr(SoftIsoConfig(**{field: math.inf}), field) == math.inf
        with pytest.raises(ConfigError, match="soft_config"):
            ExperimentConfig.from_dict({"soft_config": {field: math.nan}})

    def test_bad_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="algorithm"):
            ExperimentConfig.from_dict({"algorithm": "simulated_annealing"})


class TestRunExperiment:
    def test_row_counts_and_schema(self, tmp_path):
        result = run_experiment(small_config(), out_dir=tmp_path)
        rows = list(csv.reader((tmp_path / "results.csv").open()))
        assert tuple(rows[0]) == RESULT_COLUMNS
        assert len(rows) == 1 + 4 + 2  # header + runs + mean + std
        assert [r[1] for r in rows[1:5]] == ["11", "12", "13", "14"]
        assert rows[5][1] == "mean" and rows[6][1] == "std"

    def test_aggregate_mean_recomputable_from_file(self, tmp_path):
        run_experiment(small_config(), out_dir=tmp_path)
        rows = list(csv.reader((tmp_path / "results.csv").open()))
        header = rows[0]
        per_run = [r for r in rows[1:] if r[1] not in ("mean", "std")]
        mean_row = next(r for r in rows if r[1] == "mean")
        for col in ("execution_time", "wait_time", "avg_fidelity", "comm_overhead", "completion_pct"):
            i = header.index(col)
            recomputed = statistics.fmean(float(r[i]) for r in per_run)
            assert float(mean_row[i]) == pytest.approx(recomputed, rel=1e-12)

    def test_byte_identical_reruns_without_timing(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_experiment(small_config(), out_dir=a)
        run_experiment(small_config(), out_dir=b)
        for name in ("results.csv", "qpu_shares.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_measured_timing_changes_only_decision_column(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_experiment(small_config(measure_timing=True), out_dir=a)
        run_experiment(small_config(measure_timing=True), out_dir=b)
        rows_a = list(csv.reader((a / "results.csv").open()))
        rows_b = list(csv.reader((b / "results.csv").open()))
        drop = rows_a[0].index("decision_time")
        stripped = lambda rows: [[c for i, c in enumerate(r) if i != drop] for r in rows]
        assert stripped(rows_a) == stripped(rows_b)

    def test_worker_pool_matches_serial(self, tmp_path):
        serial = run_experiment(small_config())
        parallel = run_experiment(small_config(workers=2))
        for name in ("execution_time", "wait_time", "avg_fidelity", "comm_overhead", "completion_pct"):
            assert serial.metric_values(name) == parallel.metric_values(name)

    def test_summary_records_config_and_normalization(self, tmp_path):
        run_experiment(small_config(), out_dir=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["algorithm"] == "greedy_dfs"
        assert summary["config"]["workload"]["batch_size"] == 6
        assert summary["normalization"]["bound_floor"] == 1e-12
        assert "completion_pct" in summary["metrics_mean"]


class TestScenarios:
    def test_preset_parameters(self):
        cfg = scenario_config("SP-LR", "greedy_dfs")
        assert cfg.workload.tasks_per_group == 2
        assert cfg.workload.tasks_per_group_min == 2
        assert cfg.workload.batch_size == 10
        assert cfg.topology.link_probability == 0.3
        assert cfg.topology.node_count == 10
        assert cfg.retry_limit == 0
        cfg = scenario_config("LP-MR", "soft_iso")
        assert cfg.workload.tasks_per_group == 4
        assert cfg.workload.batch_size == 500
        assert cfg.topology.link_probability == 0.9
        assert cfg.topology.node_count == 20

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="scenario"):
            scenario_config("XX-YY", "soft_iso")

    def test_run_scenario_reports_table_format(self):
        result = run_scenario("SP-LR", "greedy_dfs", base_seed=3, repetitions=3)
        assert result.completion_tablev == 100
        assert result.completion_pct == pytest.approx(100.0)
        assert result.decision_time >= 0.0
        assert "SP-LR" in result.table_row()

    def test_scenario_overrides_pass_through(self):
        cfg = scenario_config("LP-LR", "soft_iso", workload={"batch_size": 20}, retry_limit=2)
        assert cfg.workload.batch_size == 20
        assert cfg.retry_limit == 2

    def test_greedy_decides_faster_than_embedding_search(self):
        greedy = run_scenario("SP-MR", "greedy_dfs", base_seed=1, repetitions=3)
        soft = run_scenario("SP-MR", "soft_iso", base_seed=1, repetitions=3)
        assert greedy.decision_time < soft.decision_time


class TestFailureHistogram:
    def test_bins_partition_experiments(self, tmp_path):
        results = [
            run_experiment(small_config(base_seed=seed, algorithm=algo))
            for seed in (1, 2, 3)
            for algo in ("greedy_dfs", "random_aware")
        ]
        path = tmp_path / "hist.csv"
        rows = emit_failure_histogram(results, path)
        by_algo = {}
        for algo, lo, hi, count in rows:
            by_algo.setdefault(algo, 0)
            by_algo[algo] += count
        assert by_algo == {"greedy_dfs": 3, "random_aware": 3}
        header = (tmp_path / "hist.csv").read_text().splitlines()[0]
        assert header == "algorithm,bin_lower_pct,bin_upper_pct,experiments"

    def test_all_complete_lands_in_zero_bin(self, tmp_path):
        cfg = small_config(
            workload=WorkloadSpec(batch_size=4, tasks_per_group=1), repetitions=3
        )
        rows = emit_failure_histogram([run_experiment(cfg)], tmp_path / "h.csv")
        nonzero = [(lo, count) for _, lo, hi, count in rows if count]
        assert nonzero == [(0.0, 1)]

    def test_requires_results(self, tmp_path):
        with pytest.raises(ValueError):
            emit_failure_histogram([], tmp_path / "h.csv")

    def test_embedding_search_mass_sits_near_zero_failures(self, tmp_path):
        # under a constrained topology the embedding search keeps failure
        # rates low while the baselines shed most multi-task workflows
        results = []
        for algo in ("soft_iso", "greedy_dfs", "random_aware"):
            for seed in (0, 1, 2):
                cfg = ExperimentConfig(
                    algorithm=algo,
                    workload=WorkloadSpec(batch_size=20, tasks_per_group=4, tasks_per_group_min=4),
                    topology=TopologySpec(node_count=10, link_probability=0.3),
                    repetitions=2,
                    base_seed=seed,
                    retry_limit=0,
                    measure_timing=False,
                )
                results.append(run_experiment(cfg))
        rows = emit_failure_histogram(results, tmp_path / "h.csv")
        low_failure_mass = {}
        for algo, lo, hi, count in rows:
            if hi <= 25.0:
                low_failure_mass[algo] = low_failure_mass.get(algo, 0) + count
        assert low_failure_mass.get("soft_iso", 0) > low_failure_mass.get("greedy_dfs", 0)
        assert low_failure_mass.get("soft_iso", 0) > low_failure_mass.get("random_aware", 0)


class TestSweep:
    def test_dotted_and_alias_paths(self):
        cfg = small_config()
        assert apply_sweep_value(cfg, "workload.batch_size", "9").workload.batch_size == 9
        assert apply_sweep_value(cfg, "topology.link_probability", "0.8").topology.link_probability == 0.8
        assert apply_sweep_value(cfg, "algorithm", "soft_iso").algorithm == "soft_iso"
        assert apply_sweep_value(cfg, "retry_limit", "1").retry_limit == 1
        # typed fields keep their type; an optional field takes its annotation's
        assert repr(apply_sweep_value(cfg, "topology.link_probability", "1").topology.link_probability) == "1.0"
        assert repr(apply_sweep_value(cfg, "workload.arrival_rate", "5").workload.arrival_rate) == "5.0"
        assert apply_sweep_value(cfg, "dependency_gating", "Off").dependency_gating is False
        assert apply_sweep_value(cfg, "dependency_gating", " yes ").dependency_gating is True

    def test_invalid_key_rejected(self):
        with pytest.raises(ConfigError, match="no field"):
            apply_sweep_value(small_config(), "workload.nope", "1")
        with pytest.raises(ConfigError, match="sweep key"):
            apply_sweep_value(small_config(), "a.b.c", "1")

    def test_invalid_value_carries_field(self):
        with pytest.raises(ConfigError, match="batch_size"):
            apply_sweep_value(small_config(), "workload.batch_size", "0")
        with pytest.raises(ConfigError, match="batch_size"):
            apply_sweep_value(small_config(), "workload.batch_size", "abc")
        with pytest.raises(ConfigError, match="arrival_rate"):
            apply_sweep_value(small_config(), "workload.arrival_rate", "fast")
        with pytest.raises(ConfigError, match="dependency_gating"):
            apply_sweep_value(small_config(), "dependency_gating", "flase")
