"""A composable streaming pipeline: subtract -> clean -> track.

Wraps the three stages every example re-assembles by hand into one
object with a per-frame :meth:`step`, so applications (and the CLI)
consume a single interface::

    pipe = SurveillancePipeline((240, 320))
    for frame in source:
        result = pipe.step(frame)
        for track in result.tracks:
            ...

Each stage is optional and injectable; the defaults are sensible for
the synthetic scenes (no opening — see the post-processing tests on why
opening is dangerous for small objects).

The pipeline is written to run unattended (the serving-path regime):

* frames are validated up front, so a malformed frame raises a clear
  :class:`~repro.errors.ConfigError` before any state changes;
* the frame index commits only when a step succeeds — an exception
  mid-step leaves the index and the warm-up accounting exactly where
  they were, and the same frame can be retried;
* with ``on_error="degrade"`` a failing stage yields the last good
  mask (flagged ``degraded``) instead of raising, so one bad frame
  does not take the stream down;
* every stage is timed into a :class:`~repro.telemetry.MetricsRegistry`
  whose snapshot rides along on each :class:`StreamResult`.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from ..config import STAGE_ERROR_POLICIES, MoGParams, RunConfig, TelemetryConfig
from ..errors import CheckpointError, ConfigError
from ..post.morphology import MaskCleaner
from ..telemetry import MetricsRegistry
from ..track.tracker import CentroidTracker, Track, TrackerParams
from .subtractor import BackgroundSubtractor


@dataclass(frozen=True)
class StreamResult:
    """Outcome of one pipeline step.

    ``degraded`` marks a step that served the last good mask because a
    stage failed (``error`` holds the failure's repr); ``telemetry`` is
    the registry snapshot taken as the step completed.
    """

    frame_index: int
    raw_mask: np.ndarray
    mask: np.ndarray
    tracks: list[Track]
    degraded: bool = False
    error: str | None = None
    telemetry: dict = field(default_factory=dict)

    @property
    def foreground_rate(self) -> float:
        return float(self.mask.mean())


class SurveillancePipeline:
    """Background subtraction + cleanup + tracking, streamed.

    Parameters
    ----------
    on_error:
        ``"raise"`` (default) re-raises a stage failure without
        committing the frame index; ``"degrade"`` serves the last good
        mask instead (before any mask has succeeded, an all-background
        mask of the configured shape is served, so consumers never see
        ``None``).
    telemetry:
        Optional shared :class:`~repro.telemetry.MetricsRegistry`; one
        is created if omitted (pass
        ``MetricsRegistry(TelemetryConfig(enabled=False))`` to opt out).
    profile_every:
        For the simulated backend, profile every Nth kernel launch and
        run the rest on the functional tier (``sim.frames_profiled`` /
        ``sim.frames_functional`` land in the telemetry snapshot).
        ``None`` keeps the run config's value. Ignored by the CPU
        backend.
    integrity:
        Optional :class:`~repro.config.IntegrityPolicy` guarding the
        mixture state each frame. In ``"detect"`` mode a violation
        raises :class:`~repro.errors.IntegrityError` — which under
        ``on_error="degrade"`` serves the last good mask like any other
        stage failure; in ``"repair"`` mode corrupted pixels are
        re-initialised from the current frame and the stream continues.
    fault_injector:
        Optional :class:`repro.faults.FaultInjector` corrupting frames
        / model state / simulated DMA per its plan (testing aid).
    """

    def __init__(
        self,
        shape: tuple[int, int],
        params: MoGParams | None = None,
        level: str = "F",
        backend: str = "cpu",
        model: str | None = None,
        run_config: RunConfig | None = None,
        cleaner: MaskCleaner | None = None,
        tracker_params: TrackerParams | None = None,
        warmup_frames: int = 15,
        on_error: str = "raise",
        telemetry: MetricsRegistry | None = None,
        profile_every: int | None = None,
        integrity=None,
        fault_injector=None,
    ) -> None:
        if warmup_frames < 0:
            raise ConfigError(
                f"warmup_frames must be non-negative, got {warmup_frames}"
            )
        if on_error not in STAGE_ERROR_POLICIES:
            raise ConfigError(
                f"on_error must be one of {STAGE_ERROR_POLICIES}, "
                f"got {on_error!r}"
            )
        self.telemetry = telemetry or MetricsRegistry(TelemetryConfig())
        self.subtractor = BackgroundSubtractor(
            shape, params, level=level, backend=backend, model=model,
            run_config=run_config, profile_every=profile_every,
            telemetry=self.telemetry,
            integrity=integrity, fault_injector=fault_injector,
        )
        self._fault_injector = fault_injector
        self.cleaner = cleaner or MaskCleaner(
            open_radius=0, close_radius=2, min_area=6
        )
        # The tracker reads the components the cleaner measured, so a
        # step labels its mask once (see repro.post.morphology).
        self.tracker = CentroidTracker(
            tracker_params,
            cleaner=self.cleaner if isinstance(self.cleaner, MaskCleaner)
            else None,
        )
        self.warmup_frames = warmup_frames
        self.on_error = on_error
        self.frame_index = -1
        self._last_good_mask: np.ndarray | None = None

    def _check_frame(self, frame) -> np.ndarray:
        """Validate shape/dtype before any state is touched."""
        frame = np.asarray(frame)
        if frame.shape != self.subtractor.shape:
            raise ConfigError(
                f"frame shape {frame.shape} != configured "
                f"{self.subtractor.shape}"
            )
        if frame.dtype.kind not in "uif" or frame.dtype.kind == "f" and not (
            np.isfinite(frame).all()
        ):
            raise ConfigError(
                f"frame must be numeric and finite, got dtype {frame.dtype}"
            )
        return frame

    def _degraded_result(self, index: int, exc: BaseException) -> StreamResult:
        """Serve the last good mask for a frame whose stage failed.

        Before any frame has succeeded there is no good mask to fall
        back on; an all-background mask of the configured shape is
        served instead — downstream consumers always get a real array,
        never ``None``.
        """
        tel = self.telemetry
        tel.counter("stream.frames_degraded").inc()
        self.frame_index = index  # the frame was consumed, count it
        mask = self._last_good_mask
        if mask is None:
            mask = np.zeros(self.subtractor.shape, dtype=bool)
        return StreamResult(
            frame_index=index,
            raw_mask=mask,
            mask=mask,
            tracks=[],
            degraded=True,
            error=repr(exc),
            telemetry=tel.snapshot(),
        )

    def step(self, frame: np.ndarray) -> StreamResult:
        """Process one frame through all stages.

        During the model's warm-up window the tracker is not fed (the
        unconverged mask would spawn phantom tracks), but masks are
        still produced and returned.
        """
        tel = self.telemetry
        index = self.frame_index + 1
        try:
            frame = self._check_frame(frame)
        except Exception as exc:
            # A malformed frame is a stage failure like any other: under
            # "degrade" the stream serves the last good mask instead of
            # dying mid-sequence (an npz file with one NaN frame must
            # not take the whole stream down).
            tel.counter("stream.frames_invalid").inc()
            tel.counter("stream.stage_errors").inc()
            if self.on_error == "degrade":
                return self._degraded_result(index, exc)
            raise
        if self._fault_injector is not None:
            frame = self._fault_injector.on_frame(frame, index)
        t0 = time.perf_counter()
        try:
            with tel.time("stream.subtract_s"):
                raw = self.subtractor.apply(frame)
            with tel.time("stream.clean_s"):
                mask = self.cleaner(raw)
        except Exception as exc:
            tel.counter("stream.stage_errors").inc()
            if self.on_error == "degrade":
                return self._degraded_result(index, exc)
            raise  # frame_index uncommitted: the frame can be retried
        tracks: list[Track] = []
        if index >= self.warmup_frames:
            try:
                with tel.time("stream.track_s"):
                    tracks = self.tracker.update(mask, frame_index=index)
            except Exception as exc:
                tel.counter("stream.stage_errors").inc()
                if self.on_error != "degrade":
                    raise
                tracks = []
        # Commit point: all state updates happen together, after every
        # stage either succeeded or was explicitly degraded.
        self.frame_index = index
        self._last_good_mask = mask
        tel.counter("stream.frames_total").inc()
        tel.histogram("stream.step_s").observe(time.perf_counter() - t0)
        return StreamResult(
            frame_index=index,
            raw_mask=raw,
            mask=mask,
            tracks=tracks,
            telemetry=tel.snapshot(),
        )

    def run(self, frames) -> list[StreamResult]:
        """Convenience: step through an iterable of frames."""
        results = [self.step(f) for f in frames]
        if not results:
            raise ConfigError("empty frame sequence")
        return results

    # -- durable checkpoints -------------------------------------------
    def save_checkpoint(self, path, extra_meta: dict | None = None) -> None:
        """Write a durable, crash-safe checkpoint of the pipeline to
        ``path`` (atomic rename, CRC32, schema-versioned — see
        :mod:`repro.faults.checkpoint`).

        Captures the mixture state, the frame index and the last good
        mask; restoring into an identically configured pipeline resumes
        bit-identically. Raises :class:`~repro.errors.CheckpointError`
        before the first frame (there is no state to save yet).

        ``extra_meta`` lets a caller ride additional JSON-serialisable
        keys along in the checkpoint metadata (the serving tier records
        its submission cursor as ``source_seq``); it cannot override
        the pipeline's own keys.
        """
        from ..faults.checkpoint import write_checkpoint

        snapshot = self.subtractor.state_snapshot()
        if snapshot is None:
            raise CheckpointError(
                "cannot checkpoint before the first frame was processed"
            )
        w, m, sd, frames_processed = snapshot
        arrays = {"w": w, "m": m, "sd": sd}
        if self._last_good_mask is not None:
            arrays["last_good_mask"] = self._last_good_mask
        meta = dict(extra_meta or {})
        meta.update({
            "kind": "surveillance_pipeline",
            "shape": list(self.subtractor.shape),
            "level": self.subtractor.spec.letter,
            "model": self.subtractor.model.name,
            "backend": self.subtractor.backend,
            "params": dataclasses.asdict(self.subtractor.params),
            "frame_index": self.frame_index,
            "frames_processed": int(frames_processed),
            "warmup_frames": self.warmup_frames,
        })
        with self.telemetry.time("checkpoint.write_s"):
            write_checkpoint(path, arrays, meta)
        self.telemetry.counter("checkpoint.written").inc()

    def restore_checkpoint(self, path) -> int:
        """Restore a :meth:`save_checkpoint` file; returns the restored
        frame index (the last frame the checkpointed pipeline served).

        The checkpoint's configuration must match this pipeline's
        (shape, level, model family, model parameters) — a mismatch
        raises :class:`~repro.errors.CheckpointError` rather than
        silently resuming a different model.
        """
        from ..faults.checkpoint import read_checkpoint

        arrays, meta = read_checkpoint(path)
        if meta.get("kind") != "surveillance_pipeline":
            raise CheckpointError(
                f"{path} is not a surveillance-pipeline checkpoint "
                f"(kind={meta.get('kind')!r})"
            )
        # Checkpoints written before model families existed carry no
        # "model" key; they are MoG by construction.
        file_model = meta.get("model", "mog")
        want_model = self.subtractor.model.name
        if file_model != want_model:
            raise CheckpointError(
                f"checkpoint model-family mismatch: file holds "
                f"{file_model!r} state, pipeline is configured with "
                f"{want_model!r} — restoring one family's planes into "
                f"another would corrupt the model"
            )
        expected = {
            "shape": list(self.subtractor.shape),
            "level": self.subtractor.spec.letter,
            "params": dataclasses.asdict(self.subtractor.params),
        }
        for key, want in expected.items():
            if meta.get(key) != want:
                raise CheckpointError(
                    f"checkpoint {key} mismatch: file has "
                    f"{meta.get(key)!r}, pipeline is configured with "
                    f"{want!r}"
                )
        for name in ("w", "m", "sd"):
            if name not in arrays:
                raise CheckpointError(
                    f"checkpoint {path} is missing state array {name!r}"
                )
        self.subtractor.restore_state(
            (arrays["w"], arrays["m"], arrays["sd"],
             meta["frames_processed"])
        )
        self.frame_index = int(meta["frame_index"])
        mask = arrays.get("last_good_mask")
        self._last_good_mask = (
            mask.astype(bool) if mask is not None else None
        )
        # Callers (the serving tier) read ride-along keys such as
        # ``source_seq`` from here after a successful restore.
        self.last_restore_meta = dict(meta)
        self.telemetry.counter("checkpoint.restored").inc()
        return self.frame_index

    def summary(self) -> str:
        return self.tracker.summary()
