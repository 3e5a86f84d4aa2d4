"""Shared helper: deterministic RNG derivation for seeded experiments."""

from __future__ import annotations

import numpy as np


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """A generator derived deterministically from (seed, key).

    Streams with distinct keys are independent, so each trial's draws
    depend only on its own key, never on the trials run before it.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
