"""Calibration profiles for the simulated QPU fleet.

A profile file is a JSON object keyed by machine name, each record carrying
the eight device properties :class:`~qflow.model.QpuNode` reads; other keys,
such as the bundled one-qubit and readout gate times, are ignored. The
bundled file covers three superconducting machines (brisbane, torino,
marrakesh) with published median calibration values. Another file is named
only by the config's ``profiles_path`` (the ``--profiles`` flag), so the
recorded config names every input of a run.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .model import _ERROR_RATES, _POSITIVE, QpuNode

_REQUIRED_KEYS = ("qubits", *_ERROR_RATES, *_POSITIVE)


def load_profiles(path: str | Path | None = None) -> dict[str, dict[str, float]]:
    """Load each record's eight fields from ``path``, or the bundled file
    when it is None. A file other than an object of records, each an object
    whose eight fields are ints or floats (not bools), raises ValueError."""
    source = resources.files("qflow").joinpath("data/profiles.json") if path is None else Path(path)
    raw = json.loads(source.read_text(encoding="utf-8-sig"))
    if not isinstance(raw, dict):
        raise ValueError("profile file must be a JSON object of machine records")
    profiles = {}
    for name, record in raw.items():
        if not isinstance(record, dict):
            raise ValueError(f"profile {name!r} must be a JSON object")
        missing = [k for k in _REQUIRED_KEYS if k not in record]
        if missing:
            raise ValueError(f"profile {name!r} is missing fields: {', '.join(missing)}")
        profiles[name] = {k: record[k] for k in _REQUIRED_KEYS}
        for k, value in profiles[name].items():
            if type(value) not in (int, float):  # a bool is no number here
                raise ValueError(f"profile {name!r}: {k} must be an int or float, got {value!r}")
    if not profiles:
        raise ValueError("profile file defines no machines")
    return profiles


def node_from_profile(
    profile_name: str,
    profiles: dict[str, dict[str, float]],
    node_id: str | None = None,
) -> QpuNode:
    """Instantiate a QPU node from a named profile; an unknown name raises
    ValueError."""
    if profile_name not in profiles:
        raise ValueError(f"unknown profile {profile_name!r}; have {sorted(profiles)}")
    rec = profiles[profile_name]
    # qubits goes through unconverted, so QpuNode's whole-number check sees it
    floats = {name: float(rec[name]) for name in _ERROR_RATES + _POSITIVE}
    return QpuNode(id=node_id or profile_name, qubits=rec["qubits"], **floats)
