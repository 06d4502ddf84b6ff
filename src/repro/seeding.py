"""Deterministic, order-independent random streams.

Simulated systematic effects — per-relation device factors, per-column
estimation bias, per-template skew and correlation — must be drawn
identically no matter how many other draws happened first, so each one
seeds its own generator from a hash of the parts that identify it.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stable_rng(*parts: object) -> np.random.Generator:
    """Generator seeded by the sha256 of ``parts`` joined with ``|``."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))
