"""Inputs shared by every workload: frame geometry, model parameters
and seeded scenes. Everything here is derived from ``--seed`` only."""

from __future__ import annotations

import numpy as np

from repro import MoGParams
from repro.video.scenes import evaluation_scene

SHAPE = (120, 160)
#: A fast-adapting model, so tracks appear within the tracker warm-up.
PARAMS = MoGParams(learning_rate=0.08, initial_sd=8.0)


def scene_seed(seed: int, workload: str, index: int = 0) -> int:
    """A distinct, reproducible scene seed per (run seed, workload, stream)."""
    ss = np.random.SeedSequence([seed, sum(map(ord, workload)), index])
    return int(ss.generate_state(1)[0] % 2**31)


def scene_frames(scene_seed: int, n: int) -> list[np.ndarray]:
    """The first ``n`` uint8 frames of the seeded evaluation scene."""
    video = evaluation_scene(*SHAPE, seed=scene_seed, num_frames=n)
    return [video.frame(t) for t in range(n)]
