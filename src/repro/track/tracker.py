"""Centroid tracking over per-frame foreground blobs.

Background subtraction is "the first stage in many vision applications"
(the paper's opening line); the canonical second stage is associating
the per-frame blobs into object *tracks*. This module implements the
classic greedy nearest-centroid tracker:

* blobs come from :func:`repro.post.connected_components` (optionally
  after :func:`repro.post.clean_mask`) or, for a tracker built with
  ``cleaner=``, from the measurements that
  :class:`~repro.post.MaskCleaner` took while cleaning the mask — one
  label-and-measure pass (:func:`repro.post.label_and_measure`) then
  serves both stages, as in :mod:`repro.core.stream`'s pipeline;
* each existing track predicts its next position by constant velocity;
* blob↔track pairs are matched greedily by distance under a gate;
* unmatched blobs open new (tentative) tracks, which are *confirmed*
  after ``min_hits`` consecutive associations; unmatched tracks coast
  and die after ``max_misses`` frames.

It is deliberately simple — no Kalman filter, no appearance model —
but complete enough to turn mask sequences into trajectories, which is
what the examples and the detection-quality tests consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..post.morphology import Component, MaskCleaner, connected_components


@dataclass(frozen=True)
class TrackerParams:
    """Association and lifecycle thresholds."""

    max_distance: float = 24.0  # gate: max centroid jump per frame (px)
    max_misses: int = 4         # frames a track may coast unmatched
    min_hits: int = 3           # associations before a track is confirmed
    min_area: int = 4           # ignore blobs smaller than this

    def __post_init__(self) -> None:
        if self.max_distance <= 0:
            raise ConfigError("max_distance must be positive")
        if self.max_misses < 0 or self.min_hits < 1:
            raise ConfigError("bad lifecycle thresholds")
        if self.min_area < 0:
            raise ConfigError("min_area must be non-negative")


@dataclass
class Track:
    """One tracked object."""

    track_id: int
    positions: list[tuple[float, float]] = field(default_factory=list)
    frames: list[int] = field(default_factory=list)
    hits: int = 0
    misses: int = 0
    confirmed: bool = False
    alive: bool = True
    last_area: int = 0

    @property
    def position(self) -> tuple[float, float]:
        return self.positions[-1]

    @property
    def velocity(self) -> tuple[float, float]:
        """Per-frame velocity from the last two observations."""
        if len(self.positions) < 2:
            return (0.0, 0.0)
        (r0, c0), (r1, c1) = self.positions[-2], self.positions[-1]
        dt = max(self.frames[-1] - self.frames[-2], 1)
        return ((r1 - r0) / dt, (c1 - c0) / dt)

    def predict(self, frame: int) -> tuple[float, float]:
        """Constant-velocity prediction for ``frame``."""
        vr, vc = self.velocity
        dt = frame - self.frames[-1]
        r, c = self.position
        return (r + vr * dt, c + vc * dt)

    @property
    def length(self) -> int:
        return len(self.positions)

    def total_displacement(self) -> float:
        if len(self.positions) < 2:
            return 0.0
        first = np.array(self.positions[0])
        last = np.array(self.positions[-1])
        return float(np.linalg.norm(last - first))


class CentroidTracker:
    """Greedy nearest-centroid multi-object tracker.

    ``cleaner`` is the :class:`~repro.post.MaskCleaner` whose outputs
    this tracker is fed. :meth:`update` reuses the components that
    cleaner measured when handed its last output (the same array
    object, unmodified); any other mask is measured afresh.
    """

    def __init__(
        self,
        params: TrackerParams | None = None,
        cleaner: MaskCleaner | None = None,
    ) -> None:
        self.params = params or TrackerParams()
        self.cleaner = cleaner
        self.tracks: list[Track] = []
        self._next_id = 1
        self.frame_index = -1

    # ------------------------------------------------------------------
    @property
    def active_tracks(self) -> list[Track]:
        """Alive, confirmed tracks."""
        return [t for t in self.tracks if t.alive and t.confirmed]

    def update(
        self, mask: np.ndarray, frame_index: int | None = None
    ) -> list[Track]:
        """Consume one foreground mask; returns the active tracks."""
        self.frame_index = (
            self.frame_index + 1 if frame_index is None else frame_index
        )
        components = (
            None if self.cleaner is None
            else self.cleaner.components_of(mask)
        )
        if components is None:
            components = connected_components(mask)
        blobs = [c for c in components if c.area >= self.params.min_area]
        self._associate(blobs)
        return self.active_tracks

    # ------------------------------------------------------------------
    def _associate(self, blobs: list[Component]) -> None:
        t_now = self.frame_index
        live = [t for t in self.tracks if t.alive]
        if live and blobs:
            predictions = np.array([t.predict(t_now) for t in live])
            centroids = np.array([b.centroid for b in blobs])
            dist = np.linalg.norm(
                predictions[:, None, :] - centroids[None, :, :], axis=2
            )
            # Greedy: repeatedly take the globally closest pair in gate.
            # The sort must be stable so equidistant pairs break ties by
            # flattened index, i.e. (track id, blob order) — the default
            # introsort reorders ties on larger matrices, which made
            # associations depend on matrix size and run-to-run layout.
            matched_tracks: set[int] = set()
            matched_blobs: set[int] = set()
            order = np.dstack(
                np.unravel_index(
                    np.argsort(dist, axis=None, kind="stable"), dist.shape
                )
            )[0]
            for ti, bi in order:
                if dist[ti, bi] > self.params.max_distance:
                    break
                if ti in matched_tracks or bi in matched_blobs:
                    continue
                matched_tracks.add(int(ti))
                matched_blobs.add(int(bi))
                self._hit(live[ti], blobs[bi])
        else:
            matched_tracks, matched_blobs = set(), set()

        for i, track in enumerate(live):
            if i not in matched_tracks:
                self._miss(track)
        for j, blob in enumerate(blobs):
            if j not in matched_blobs:
                self._spawn(blob)

    def _hit(self, track: Track, blob: Component) -> None:
        track.positions.append(blob.centroid)
        track.frames.append(self.frame_index)
        track.hits += 1
        track.misses = 0
        track.last_area = blob.area
        if track.hits >= self.params.min_hits:
            track.confirmed = True

    def _miss(self, track: Track) -> None:
        track.misses += 1
        if track.misses > self.params.max_misses:
            track.alive = False

    def _spawn(self, blob: Component) -> None:
        track = Track(track_id=self._next_id)
        self._next_id += 1
        track.positions.append(blob.centroid)
        track.frames.append(self.frame_index)
        track.hits = 1
        track.last_area = blob.area
        if self.params.min_hits <= 1:
            track.confirmed = True
        self.tracks.append(track)

    # ------------------------------------------------------------------
    def summary(self) -> str:
        confirmed = [t for t in self.tracks if t.confirmed]
        lines = [
            f"{len(confirmed)} confirmed tracks over "
            f"{self.frame_index + 1} frames:"
        ]
        for t in confirmed:
            lines.append(
                f"  track {t.track_id}: frames {t.frames[0]}-{t.frames[-1]}, "
                f"{t.length} observations, displacement "
                f"{t.total_displacement():.1f} px"
            )
        return "\n".join(lines)
