"""Per-run network conditions (Figures 1 and 2).

Each of the paper's runs saw a different server, hence a different RTT
and hop count; Figures 1 and 2 are the CDFs across runs.  The sampler
here draws per-run conditions from the same distributions the Section
IV models use, so one seed fully determines a study's network weather.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.models import sample_hop_count, sample_rtt


@dataclass(frozen=True)
class NetworkConditions:
    """One run's sampled path characteristics."""

    rtt: float
    hop_count: int
    loss_probability: float = 0.0
    jitter_std: float = 0.0004

    def describe(self) -> str:
        return (f"rtt={self.rtt * 1000:.0f}ms hops={self.hop_count} "
                f"loss={self.loss_probability * 100:.1f}%")


def sample_conditions(rng: random.Random,
                      loss_probability: float = 0.0) -> NetworkConditions:
    """Draw one run's conditions.

    The paper measured ~0% loss under its typical (uncongested)
    conditions; pass a positive ``loss_probability`` for the
    congestion-study extension.
    """
    return NetworkConditions(rtt=sample_rtt(rng),
                             hop_count=sample_hop_count(rng),
                             loss_probability=loss_probability)

