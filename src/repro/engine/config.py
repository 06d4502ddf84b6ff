"""Hardware / executor profile for the execution simulator.

Plays the role of the paper's testbed (Xeon E5-2640 v4, 32 GB RAM, SSD,
cold cache).  All times are milliseconds.  Per-relation device factors
model physical layout effects (placement on disk, compressibility, row
packing) that a real system exhibits and an optimizer cost model does not
know — a systematic, relation-identity-keyed signal that learned models
can pick up from the "Relation Name" feature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.seeding import stable_rng


@dataclass
class HardwareProfile:
    """Simulator timing constants (milliseconds) and memory limits."""

    seq_page_ms: float = 0.05  # sequential 8 KB page read, cold cache
    rand_page_ms: float = 0.18  # random 8 KB page read (SSD)
    cpu_tuple_ms: float = 0.0006  # per-tuple processing
    cpu_pred_ms: float = 0.00015  # per-predicate evaluation per tuple
    hash_tuple_ms: float = 0.0012  # hash+insert or probe per tuple
    sort_cmp_ms: float = 0.00020  # per comparison in sorts/merges
    nl_pair_ms: float = 0.00004  # per (outer, inner) pair in nested loops
    agg_fn_ms: float = 0.00025  # per aggregate transition per function
    work_mem_bytes: int = 64 * 1024 * 1024
    device_factor_sigma: float = 0.40  # spread of per-relation device factors
    node_noise_sigma: float = 0.08  # per-operator log-normal noise
    query_noise_sigma: float = 0.05  # per-query log-normal noise
    seed: int = 0
    _device_factors: dict[str, float] = field(default_factory=dict, repr=False)

    def device_factor(self, relation: str) -> float:
        """Systematic I/O speed multiplier for a relation (seeded)."""
        if relation not in self._device_factors:
            rng = stable_rng("device", self.seed, relation)
            self._device_factors[relation] = float(
                np.exp(rng.normal(0.0, self.device_factor_sigma))
            )
        return self._device_factors[relation]
