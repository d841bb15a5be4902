"""Canonical digests of modeled outputs, and the default-seed fixed points.

Modeled outputs (tuned mappings and costs, scheduler aggregates, simulator
totals) must come out bit-identical unless a change means to alter the
model.  Each item's outputs are rendered as canonical JSON — sorted keys,
floats in their shortest round-trip ``repr`` — and hashed.  For the
default seed the digests are pinned in ``golden.json``; any mismatch fails
that item.  For other seeds the digests are printed so two commits can be
compared on a held-out seed.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, Mapping, Tuple

DEFAULT_SEED = 0
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def digest(payload) -> str:
    """SHA-256 (first 16 hex digits) of ``payload`` as canonical JSON."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def pass_digest(items: Iterable[Tuple[str, str]]) -> str:
    """One digest over a pass's ``(item key, item digest)`` pairs, order-free."""
    return digest(sorted(f"{key}={value}" for key, value in items))


def load_golden(path: str = GOLDEN_PATH) -> Dict[str, Dict[str, str]]:
    """Workload name -> {item key: digest} at :data:`DEFAULT_SEED`."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("seed") != DEFAULT_SEED:
        raise ValueError(f"{path}: golden digests are for seed {payload.get('seed')!r}")
    return payload["workloads"]


def write_golden(workloads: Mapping[str, Mapping[str, str]], path: str = GOLDEN_PATH) -> None:
    """Record default-seed digests (used when the model changes on purpose)."""
    existing = {}
    if os.path.exists(path):
        existing = load_golden(path)
    existing.update({name: dict(sorted(items.items())) for name, items in workloads.items()})
    with open(path, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "workloads": existing}, fh, indent=1, sort_keys=True)
        fh.write("\n")
