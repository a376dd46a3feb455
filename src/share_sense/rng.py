"""Reproducible random streams for simulation campaigns.

Every (seed, trial, purpose) triple owns an independent counter-based stream,
so a trial's draws do not depend on which other trials ran before it, and its
``agents`` and ``arrivals`` streams are independent of each other. Within a
stream, draws are consumed in a fixed order (batch sampling indexes draws by
position).
"""

from __future__ import annotations

import numpy as np

PURPOSES = {"agents": 0, "arrivals": 1}


def stream(seed: int, trial: int, purpose: str) -> np.random.Generator:
    """Philox generator keyed by (seed, trial, purpose)."""
    if purpose not in PURPOSES:
        raise ValueError(f"unknown purpose {purpose!r}, expected one of {sorted(PURPOSES)}")
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(trial), PURPOSES[purpose]))
    return np.random.Generator(np.random.Philox(seq))
