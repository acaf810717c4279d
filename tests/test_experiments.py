"""Experiment runner: output schema, aggregates, determinism, scenarios."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import statistics
from types import SimpleNamespace

import pytest

from qflow.allocators import SoftIsoConfig
from qflow.experiments import (
    RESULT_COLUMNS,
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    RunResult,
    apply_sweep_value,
    emit_failure_histogram,
    repetition,
    run_experiment,
    scenario_config,
    simulate,
    _derive_seed,
)
from qflow.model import WeightConfig
from qflow.simulation import qpu_time_distribution
from qflow.workload import TopologySpec, WorkloadSpec, export_task_catalog, generate_catalog


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

    @pytest.mark.parametrize(
        "seed, message",
        [
            (math.nan, "a whole number, got nan"),
            (math.inf, "a finite whole number, got inf"),
            (7.5, "a finite whole number, got 7.5"),
            (True, "a whole number, not a bool"),
        ],
        ids=["nan", "inf", "fractional", "bool"],
    )
    def test_base_seed_must_be_whole(self, seed, message):
        # a NaN seed hashes per object, so its runs would differ on every rerun
        with pytest.raises(ConfigError, match=f"^base_seed must be {message}"):
            ExperimentConfig.from_dict({"base_seed": seed})

    def test_whole_base_seed_is_stored_as_int(self):
        assert [ExperimentConfig(base_seed=s).base_seed for s in (7.0, -3, 0)] == [7, -3, 0]
        assert type(ExperimentConfig(base_seed=7.0).base_seed) is int

    @pytest.mark.parametrize(
        "raw, path", [({"workload": {"seed": 5}}, "workload.seed"), ({"topology": {"seed": 9}}, "topology.seed")]
    )
    def test_section_seed_other_than_zero_rejected(self, raw, path):
        # repetition derives both seeds from base_seed in every repetition
        with pytest.raises(ConfigError, match=rf"^{path}: must be 0, got \d; repetitions derive it from base_seed$"):
            ExperimentConfig.from_dict(raw)
        # zero, the value every recorded summary.json holds, stays valid
        assert ExperimentConfig.from_dict({"workload": {"seed": 0}, "topology": {"seed": 0}}) == ExperimentConfig()

    def test_bad_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="algorithm"):
            ExperimentConfig.from_dict({"algorithm": "simulated_annealing"})

    @pytest.mark.parametrize("section", ["workload", "topology", "weights", "params", "soft_config"])
    def test_section_must_be_its_dataclass(self, section):
        # a dict stored as a section used to fail only when a run read it
        with pytest.raises(ConfigError, match=f"^{section}: expected an object$"):
            ExperimentConfig(**{section: {}})

    @pytest.mark.parametrize(
        "raw, path",
        [
            ({"workload": {"nope": 1}}, "workload.nope"),
            ({"soft_config": {"thres_max": 0.2, "thres": 0.1}}, "soft_config.thres"),
            ({"bogus": 1, "weights": {"zeta": 0.5}}, "bogus"),
        ],
    )
    def test_unknown_key_reported_by_dotted_path(self, raw, path):
        with pytest.raises(ConfigError, match=f"^unknown config keys: {path}$"):
            ExperimentConfig.from_dict(raw)

    def test_bad_value_names_its_dotted_path(self):
        with pytest.raises(ConfigError, match=r"^soft_config\.thres_max: "):
            ExperimentConfig.from_dict({"soft_config": {"thres_max": -1.0}})
        # a rule over several given fields names their section
        with pytest.raises(ConfigError, match="^weights: alpha"):
            ExperimentConfig.from_dict({"weights": {"alpha": 0.5, "beta": 0.1}})
        # two fields each bad alone: the one whose lone change raises the error
        with pytest.raises(ConfigError, match=r"^workload\.batch_size: batch_size must be >= 1, got -1$"):
            ExperimentConfig.from_dict({"workload": {"batch_size": -1, "tasks_per_group": 9}})

    @pytest.mark.parametrize("raw", [[1, 2], "soft_iso", None])
    def test_top_level_must_be_an_object(self, raw):
        with pytest.raises(ConfigError, match="expected an object"):
            ExperimentConfig.from_dict(raw)

    def test_profile_pool_is_a_tuple_of_names(self):
        cfg = ExperimentConfig.from_dict({"topology": {"profile_pool": ["torino", "brisbane"]}})
        assert cfg.topology.profile_pool == ("torino", "brisbane")
        # a bare string used to be split into one-letter profile names
        with pytest.raises(ConfigError, match="^topology.profile_pool: .*not the string 'torino'"):
            ExperimentConfig.from_dict({"topology": {"profile_pool": "torino"}})


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

    def test_negative_base_seed_labels_rows(self, tmp_path):
        run_experiment(small_config(base_seed=-3, repetitions=2), out_dir=tmp_path)
        rows = list(csv.DictReader((tmp_path / "results.csv").open()))
        assert [r["seed"] for r in rows[:2]] == ["-3", "-2"]

    def test_catalog_path_replaces_the_generated_catalog(self, tmp_path):
        # the catalog repetition 0 generates, read back from a file, gives
        # byte-identical results
        config = small_config(repetitions=1)
        catalog = generate_catalog(
            config.catalog_size, qubit_range=config.workload.qubit_range,
            seed=_derive_seed(config.base_seed, 0, 3), shots=config.workload.shots_default,
        )
        export_task_catalog(catalog, tmp_path / "catalog.csv")
        generated, imported = tmp_path / "generated", tmp_path / "imported"
        run_experiment(config, out_dir=generated)
        run_experiment(small_config(repetitions=1, catalog_path=str(tmp_path / "catalog.csv")), out_dir=imported)
        for name in ("results.csv", "qpu_shares.csv"):
            assert (generated / name).read_bytes() == (imported / name).read_bytes()

    def test_workers_other_than_one_refused(self):
        with pytest.raises(ConfigError, match=r"^workers: must be 1, got 2; repetitions run in one process$"):
            small_config(workers=2)

    def test_non_finite_metric_raises_before_any_output(self, tmp_path):
        # a tiny but normal efficiency: on the default config the link terms
        # overflow to inf at run time (the CLI rejects it before any run)
        config = ExperimentConfig.from_dict({"params": {"transmission_efficiency": 1e-307}, "repetitions": 2})
        with pytest.raises(ValueError, match="metric wait_time is inf in the run of seed 0"):
            run_experiment(config, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_summary_records_config_and_normalization(self, tmp_path):
        run_experiment(small_config(), out_dir=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["algorithm"] == "greedy_dfs"
        assert summary["config"]["workload"]["batch_size"] == 6
        assert summary["normalization"]["bound_floor"] == 1e-12
        assert "completion_pct" in summary["metrics_mean"]


class TestRepetition:
    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(repetitions=3, measure_timing=False),
            ExperimentConfig(algorithm="random_aware", repetitions=3, measure_timing=False),
            scenario_config("LP-LR", "soft_iso", repetitions=2, measure_timing=False, workload={"batch_size": 40}),
            scenario_config("SP-MR", "soft_iso", repetitions=3, measure_timing=False),
        ],
        ids=["default", "default-random_aware", "LP-LR", "SP-MR"],
    )
    def test_replay_reproduces_each_run(self, config):
        result = run_experiment(config)
        for index, run in enumerate(result.runs):
            rep = repetition(config, index)
            state = simulate(config, rep)
            assert rep.seed == run.seed
            assert dataclasses.replace(state.metrics, decision_time=0.0) == run.metrics
            assert qpu_time_distribution(state) == run.qpu_shares
            assert [node.id for node in rep.network.nodes] == run.node_ids

    def test_each_call_builds_fresh_inputs(self):
        config = ExperimentConfig()
        first, second = repetition(config, 1), repetition(config, 1)
        assert first.seed == second.seed == 1
        assert first.workload == second.workload
        assert first.network is not second.network
        assert first.workload != repetition(config, 2).workload


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

    def test_scenario_overrides_pass_through(self):
        cfg = scenario_config("LP-LR", "soft_iso", workload={"batch_size": 20}, retry_limit=2)
        assert cfg.workload.batch_size == 20
        assert cfg.retry_limit == 2

    def test_dict_override_works_for_every_section(self):
        # weights, params and soft_config dicts used to be stored as dicts,
        # and the run died reading them
        cfg = scenario_config(
            "SP-MR", "soft_iso", repetitions=1,
            workload={"batch_size": 3}, weights={"zeta": 0.0}, params={"classical_latency": 0.05},
            soft_config={"thres_max": 0.2}, measure_timing=False,
        )
        assert (cfg.weights.zeta, cfg.weights.alpha) == (0.0, WeightConfig().alpha)
        assert cfg.params.classical_latency == 0.05
        assert (cfg.soft_config.thres_max, cfg.soft_config.thres_prev) == (0.2, SoftIsoConfig().thres_prev)
        assert cfg.workload.tasks_per_group_min == 2  # the preset's fields stay
        assert len(run_experiment(cfg).runs) == 1

    def test_override_errors_name_their_path(self):
        with pytest.raises(ConfigError, match="^unknown config keys: params.nope$"):
            scenario_config("SP-LR", "soft_iso", params={"nope": 1})
        with pytest.raises(ConfigError, match="^workload.tasks_per_group: "):
            scenario_config("LP-LR", "soft_iso", workload={"tasks_per_group": 2})

    def test_greedy_decides_faster_than_embedding_search(self):
        # medians over repetitions, so one descheduling spike cannot flip it
        greedy, soft = (
            statistics.median(
                run_experiment(scenario_config("SP-MR", algo, base_seed=1, repetitions=5)).metric_values("decision_time")
            )
            for algo in ("greedy_dfs", "soft_iso")
        )
        assert greedy < soft


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

    @staticmethod
    def fake_results(unfulfilled: list[float]) -> list[ExperimentResult]:
        config = small_config()
        return [
            ExperimentResult(config, [RunResult(0, SimpleNamespace(completion_pct=100.0 - u), [], [])])
            for u in unfulfilled
        ]

    def test_default_width_bytes(self, tmp_path):
        path = tmp_path / "h.csv"
        rows = emit_failure_histogram(self.fake_results([0.0, 7.5, 100.0]), path)
        counts = [0] * 20
        counts[0] = counts[1] = counts[19] = 1
        edges = [(repr(5.0 * b), repr(5.0 * (b + 1))) for b in range(20)]
        expected = ["algorithm,bin_lower_pct,bin_upper_pct,experiments"]
        expected += [f"greedy_dfs,{lo},{hi},{n}" for (lo, hi), n in zip(edges, counts)]
        assert path.read_text().splitlines() == expected
        assert rows[-1] == ("greedy_dfs", 95.0, 100.0, 1)

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
