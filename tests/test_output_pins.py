"""Output pins: sha256 digests of what a set of configs writes and decides.

Each pinned config runs through :func:`qflow.experiments.run_experiment`
with timing capture off. Its three result files are digested, and so is
its decision stream: per allocator call, the workflow id, the attempt
number, the sorted assignment (or ``None``), ``candidates_examined`` and
``incumbent_costs``. The stream is recorded by replaying each repetition
with its allocator wrapped. A change that keeps every output keeps every
digest; one that changes outputs re-records them and says why.

Re-record (from the repository root)::

    PYTHONPATH=src python tests/test_output_pins.py

The module needs no pytest, so that ``CONFIGS`` and :func:`computed` can be
imported under an interpreter that has none (``test_interpreter_parity.py``).
"""

from __future__ import annotations

import collections
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from qflow.allocators import EXHAUSTIVE, SoftIsoConfig
from qflow.experiments import ExperimentConfig, repetition, run_experiment, scenario_config, simulate
from qflow.simulation import qpu_time_distribution

PINS_PATH = Path(__file__).with_name("output_pins.json")
OUTPUT_FILES = ("results.csv", "qpu_shares.csv", "summary.json")


def _default(algorithm: str, **overrides) -> ExperimentConfig:
    return ExperimentConfig(algorithm=algorithm, repetitions=2, measure_timing=False, **overrides)


def _scenario(name: str, batch: int, repetitions: int, **overrides) -> ExperimentConfig:
    return scenario_config(
        name, "soft_iso", repetitions=repetitions, measure_timing=False, workload={"batch_size": batch}, **overrides
    )


CONFIGS = {
    **{f"default-{algo}": (lambda algo=algo: _default(algo))
       for algo in ("soft_iso", "random_aware", "greedy_dfs", "exact")},
    "SP-LR": lambda: _scenario("SP-LR", 10, 3),
    "SP-MR": lambda: _scenario("SP-MR", 10, 3),
    "LP-LR": lambda: _scenario("LP-LR", 20, 2),
    "LP-MR": lambda: _scenario("LP-MR", 20, 2),
    "strict-pseudocode": lambda: _default("soft_iso", soft_config=SoftIsoConfig(strict_pseudocode=True)),
    "no-dep-gating": lambda: _default("soft_iso", dependency_gating=False),
    "no-comm-gating": lambda: _default("soft_iso", gate_comm_latency=False),
    "random-aware-trials": lambda: _default("random_aware", trial_multiplier=2),
    "LP-MR-exhaustive": lambda: _scenario("LP-MR", 10, 1, soft_config=EXHAUSTIVE),
    "default-exhaustive": lambda: _default("soft_iso", soft_config=EXHAUSTIVE),
}


def recording(allocator, stream):
    """``allocator``, adding one line per call to the sha256 ``stream``."""
    attempts: collections.Counter = collections.Counter()

    def call(workflow, network, backlog):
        outcome = allocator(workflow, network, backlog)
        attempts[workflow.id] += 1
        allocation = outcome.allocation
        placed = None if allocation is None else sorted(allocation.assignment.items())
        line = f"{workflow.id} {attempts[workflow.id]} {placed} {outcome.candidates_examined} {outcome.incumbent_costs!r}\n"
        stream.update(line.encode())
        return outcome

    return call


def digests(config: ExperimentConfig, out_dir: Path) -> dict[str, str]:
    """Run ``config`` into ``out_dir`` and return the sha256 of each result
    file and of the decision stream, which a replay of each repetition
    records; each replay's shares must equal its run's."""
    result = run_experiment(config, out_dir)
    found = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in OUTPUT_FILES}
    stream = hashlib.sha256()
    for index, run in enumerate(result.runs):
        rep = repetition(config, index)
        state = simulate(config, rep._replace(allocator=recording(rep.allocator, stream)))
        assert qpu_time_distribution(state) == run.qpu_shares, f"repetition {index}"
    found["decisions"] = stream.hexdigest()
    return found


def pytest_generate_tests(metafunc):
    # parametrizes test_outputs_match_pins by config name without importing pytest
    if "name" in metafunc.fixturenames:
        metafunc.parametrize("name", list(CONFIGS))


def test_outputs_match_pins(name, tmp_path):
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    assert digests(CONFIGS[name](), tmp_path) == pins[name]


def test_exact_decides_as_soft_iso_under_exhaustive():
    # the two rows differ only in the name they write
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    for name in ("decisions", "qpu_shares.csv"):
        assert pins["default-exact"][name] == pins["default-exhaustive"][name], name


def computed() -> dict[str, dict[str, str]]:
    """The digests of every pinned config, run afresh."""
    with tempfile.TemporaryDirectory() as tmp:
        return {name: digests(build(), Path(tmp) / name) for name, build in CONFIGS.items()}


def record() -> None:
    pins = computed()
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(pins)} pins to {PINS_PATH}")


if __name__ == "__main__":
    sys.exit(record())
