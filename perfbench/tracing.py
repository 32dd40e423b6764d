"""Spans recorded around calls into the program's public API.

The benchmark never patches the program's source. In a traced run it
replaces a few *instance* attributes of objects it built (a pipeline's
``step``, its subtractor's ``apply``, its cleaner, its tracker's
``update`` and ``save_checkpoint``) with timing wrappers, so the
spans are taken from outside each public call. Spans stay in memory and
are written once, at the end, as Chrome trace-event JSON (readable in
Perfetto or chrome://tracing).
"""

from __future__ import annotations

import json
import os
import threading
import time

clock = time.perf_counter


class SpanRecorder:
    """In-memory list of finished spans.

    A span is ``(name, t0, t1, stream, frame, thread_ident)`` with
    ``perf_counter`` times in seconds; ``frame`` is the frame index
    the call belongs to. ``list.append`` is atomic under the
    interpreter lock, so worker threads record without a lock.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.origin = clock()

    def add(self, name, t0, t1, stream=None, frame=None) -> None:
        self.spans.append(
            (name, t0, t1, stream, frame, threading.get_ident())
        )

    def by_name(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[0] == name]

    def write_chrome_trace(self, path) -> None:
        tids: dict[int, int] = {}
        events = []
        pid = os.getpid()
        for name, t0, t1, stream, frame, ident in self.spans:
            tid = tids.setdefault(ident, len(tids))
            events.append({
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": round((t0 - self.origin) * 1e6, 3),
                "dur": round((t1 - t0) * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": {"stream": stream, "frame": frame},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, fh)


class _TracedCleaner:
    """Stands in for ``pipeline.cleaner`` (called as ``cleaner(raw)``)."""

    def __init__(self, inner, recorder, stream, pipe) -> None:
        self.inner = inner
        self._rec = recorder
        self._stream = stream
        self._pipe = pipe

    def __call__(self, raw):
        t0 = clock()
        try:
            return self.inner(raw)
        finally:
            self._rec.add("post.morphology.clean", t0, clock(),
                          self._stream, self._pipe.frame_index + 1)


def instrument_pipeline(pipe, recorder: SpanRecorder, stream=None) -> None:
    """Wrap the public calls of one ``SurveillancePipeline``.

    The frame index of a span is the one ``step`` is about to commit
    (``frame_index + 1`` while the step runs).
    """
    step = pipe.step
    apply = pipe.subtractor.apply
    update = pipe.tracker.update
    save = pipe.save_checkpoint
    add = recorder.add

    def traced_step(frame):
        fi = pipe.frame_index + 1
        t0 = clock()
        try:
            return step(frame)
        finally:
            add("core.stream.step", t0, clock(), stream, fi)

    def traced_apply(frame):
        fi = pipe.frame_index + 1
        t0 = clock()
        try:
            return apply(frame)
        finally:
            add("core.subtractor.apply", t0, clock(), stream, fi)

    def traced_update(mask, frame_index=None):
        t0 = clock()
        try:
            return update(mask, frame_index=frame_index)
        finally:
            add("track.tracker.update", t0, clock(), stream, frame_index)

    def traced_save(path, extra_meta=None):
        fi = pipe.frame_index
        t0 = clock()
        try:
            return save(path, extra_meta=extra_meta)
        finally:
            add("faults.checkpoint.save", t0, clock(), stream, fi)

    pipe.step = traced_step
    pipe.subtractor.apply = traced_apply
    pipe.tracker.update = traced_update
    pipe.save_checkpoint = traced_save
    pipe.cleaner = _TracedCleaner(pipe.cleaner, recorder, stream, pipe)


def uninstrument_pipeline(pipe) -> None:
    """Undo :func:`instrument_pipeline` (class methods show through)."""
    for obj, attr in ((pipe, "step"), (pipe.subtractor, "apply"),
                      (pipe.tracker, "update"), (pipe, "save_checkpoint")):
        obj.__dict__.pop(attr, None)
    if isinstance(pipe.cleaner, _TracedCleaner):
        pipe.cleaner = pipe.cleaner.inner


STAGES = ("core.subtractor.apply", "post.morphology.clean",
          "track.tracker.update")


def step_ledger(recorder: SpanRecorder) -> dict:
    """Per-frame self times of one or more pipelines.

    Returns ``{(stream, frame): {"core.stream.step": ..,
    "core.stream.overhead": .., <stage>: ..}}`` in seconds, for every
    frame whose step span was recorded. ``overhead`` is the step's
    self time: validation, the telemetry snapshot and the commit.
    """
    frames: dict = {}
    for name, t0, t1, stream, frame, _ in recorder.spans:
        if name == "core.stream.step" or name in STAGES:
            frames.setdefault((stream, frame), {})[name] = t1 - t0
    out = {}
    for key, parts in frames.items():
        if "core.stream.step" not in parts:
            continue
        children = sum(parts.get(s, 0.0) for s in STAGES)
        parts["core.stream.overhead"] = parts["core.stream.step"] - children
        out[key] = parts
    return out
