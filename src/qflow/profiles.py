"""Calibration profiles for the simulated QPU fleet.

A profile file is a JSON object keyed by machine name, each record carrying
the ten device properties consumed by :class:`~qflow.model.QpuNode`. The
bundled file covers three superconducting machines (brisbane, torino,
marrakesh) with published median calibration values. An alternative file can
be supplied via the ``QFLOW_PROFILES`` environment variable or the library
argument.
"""

from __future__ import annotations

import json
import os
from importlib import resources
from pathlib import Path

from .model import QpuNode

PROFILES_ENV_VAR = "QFLOW_PROFILES"

_REQUIRED_KEYS = (
    "qubits",
    "d1cps",
    "one_qubit_runtime",
    "two_qubit_runtime",
    "readout_runtime",
    "t1",
    "t2",
    "readout_error",
    "one_qubit_error",
    "two_qubit_error",
)


def load_profiles(path: str | Path | None = None) -> dict[str, dict[str, float]]:
    """Load calibration profiles, honouring ``QFLOW_PROFILES`` when no path given."""
    if path is None:
        env = os.environ.get(PROFILES_ENV_VAR)
        if env:
            path = env
    if path is None:
        text = resources.files("qflow").joinpath("data/profiles.json").read_text(encoding="utf-8")
    else:
        text = Path(path).read_text(encoding="utf-8")
    raw = json.loads(text)
    profiles = {}
    for name, record in raw.items():
        missing = [k for k in _REQUIRED_KEYS if k not in record]
        if missing:
            raise ValueError(f"profile {name!r} is missing fields: {', '.join(missing)}")
        profiles[name] = {k: record[k] for k in _REQUIRED_KEYS}
    if not profiles:
        raise ValueError("profile file defines no machines")
    return profiles


def node_from_profile(
    profile_name: str,
    profiles: dict[str, dict[str, float]],
    node_id: str | None = None,
) -> QpuNode:
    """Instantiate a QPU node from a named profile."""
    if profile_name not in profiles:
        raise KeyError(f"unknown profile {profile_name!r}; have {sorted(profiles)}")
    rec = profiles[profile_name]
    return QpuNode(
        id=node_id or profile_name,
        qubits=int(rec["qubits"]),
        readout_error=float(rec["readout_error"]),
        one_qubit_error=float(rec["one_qubit_error"]),
        two_qubit_error=float(rec["two_qubit_error"]),
        one_qubit_runtime=float(rec["one_qubit_runtime"]),
        two_qubit_runtime=float(rec["two_qubit_runtime"]),
        readout_runtime=float(rec["readout_runtime"]),
        t1=float(rec["t1"]),
        t2=float(rec["t2"]),
        d1cps=float(rec["d1cps"]),
    )
