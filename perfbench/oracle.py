"""Output oracles, run after the timed phases.

* Served masks: a lone serial ``SurveillancePipeline`` per stream over
  the same frames (the serving tiers promise bit-identical masks).
* Simulated masks: the cpu backend at the same level.
* Serial raw masks: the scalar ``MoGReference`` on a fixed crop; MoG
  works per pixel, so the crop of the full-frame mask must equal the
  reference run on the cropped frames.

Serial oracles for many streams run in a two-process ``spawn`` pool;
workers rebuild their frames from the scene seed, so only seeds and
digests cross the process boundary.
"""

from __future__ import annotations

import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor

import numpy as np

import scenes
from loadgen import digest


def serial_digests(scene_seed: int, scene_len: int, model: str,
                   n_frames: int) -> list[bytes]:
    """Digests of a serial pipeline's results over ``n_frames``
    frames of the looped scene (runs in a pool worker)."""
    from repro.core import SurveillancePipeline

    frames = scenes.scene_frames(scene_seed, scene_len)
    # The receipts cover the masks only, which the tracker never
    # touches: a warm-up longer than the run keeps it idle.
    pipe = SurveillancePipeline(
        scenes.SHAPE, scenes.PARAMS, model=model, on_error="degrade",
        warmup_frames=n_frames,
    )
    return [digest(pipe.step(frames[j % scene_len])) for j in range(n_frames)]


def serial_oracle(jobs: dict, workers: int = 2) -> dict[object, list[bytes]]:
    """``jobs`` maps a key to ``(scene_seed, scene_len, model,
    n_frames)``; returns the key's oracle digests."""
    ctx = mp.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        futures = {key: pool.submit(serial_digests, *job)
                   for key, job in jobs.items()}
        return {key: f.result() for key, f in futures.items()}


def count_mismatches(served: dict[int, bytes], oracle: list[bytes]) -> int:
    """Frames whose served receipt differs from the oracle's."""
    return sum(1 for fi, d in served.items()
               if fi >= len(oracle) or oracle[fi] != d)


def reference_crop_masks(frames, crop) -> np.ndarray:
    """Scalar ``MoGReference`` (level F semantics: no sort, recomputed
    difference) on ``frames[:, crop]``."""
    from repro.mog import MoGReference

    ys, xs = crop
    ref = MoGReference((ys.stop - ys.start, xs.stop - xs.start),
                       scenes.PARAMS, sort=False, recompute_diff=True)
    return np.stack([ref.apply(f[ys, xs]) for f in frames])
