"""JSON profile files: one PICS profile per ``tea-pics-v1`` file.

A profile file survives round trips through a stable,
human-inspectable JSON schema (signatures are stored by their
paper-style names, e.g. ``"ST-L1+ST-TLB"``), so profiles can be
archived, diffed across tool versions, or consumed by external plotting
code. Stored runs use their own columnar payload, defined in
:mod:`repro.engine.runs`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.pics import Granularity, PicsProfile
from repro.core.psv import parse_signature, signature_name

#: Schema identifier written into every file.
SCHEMA = "tea-pics-v1"


def profile_to_dict(profile: PicsProfile) -> dict[str, Any]:
    """A JSON-ready dict for *profile*."""
    units = []
    for unit, stack in profile.stacks.items():
        units.append(
            {
                "unit": unit,
                "stack": {
                    signature_name(psv): cycles
                    for psv, cycles in stack.items()
                },
            }
        )
    return {
        "schema": SCHEMA,
        "name": profile.name,
        "granularity": profile.granularity.value,
        "total_cycles": profile.total(),
        "units": units,
    }


def profile_from_dict(data: dict[str, Any]) -> PicsProfile:
    """Rebuild a profile from :func:`profile_to_dict` output.

    Raises:
        ValueError: On an unknown schema or malformed signatures.
    """
    if data.get("schema") != SCHEMA:
        raise ValueError(
            f"unknown profile schema {data.get('schema')!r}"
        )
    stacks: dict[Any, dict[int, float]] = {}
    for entry in data["units"]:
        unit = entry["unit"]
        stacks[unit] = {
            parse_signature(name): float(cycles)
            for name, cycles in entry["stack"].items()
        }
    return PicsProfile(
        data["name"], stacks, Granularity(data["granularity"])
    )


def save_profile(profile: PicsProfile, path: str | Path) -> Path:
    """Write *profile* as JSON; returns the path."""
    path = Path(path)
    path.write_text(
        json.dumps(profile_to_dict(profile), indent=2, sort_keys=True)
    )
    return path


def load_profile(path: str | Path) -> PicsProfile:
    """Load a profile written by :func:`save_profile`."""
    return profile_from_dict(json.loads(Path(path).read_text()))
