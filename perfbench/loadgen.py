"""Single-threaded load generator for the serving workloads.

One thread submits pre-generated frames and polls ``results()``; it
never waits on the server between submissions, so a slow server does
not slow the schedule down (an open loop). Every frame's latency runs
from the time it was *due*, so a stall also charges the frames queued
behind it. How late the generator itself ran is recorded: a run whose
generator fell behind is invalid.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import BackpressureError

clock = time.perf_counter

#: Sleep between polls when nothing is due (the result-time granularity).
POLL_S = 0.0005
#: A frame the server still refuses this long after it was due is rejected.
REJECT_AFTER_S = 1.0
#: Results still missing this long after the last submission are failed.
DRAIN_TIMEOUT_S = 60.0


def digest(result) -> bytes:
    """Receipt of one result's masks (raw and cleaned)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.packbits(result.raw_mask).tobytes())
    h.update(np.packbits(result.mask).tobytes())
    return h.digest()


class FrameSource:
    """The frames of one stream: frame ``j`` is ``frames[j % len]``."""

    def __init__(self, frames: list[np.ndarray]) -> None:
        self.frames = frames

    def __getitem__(self, j: int) -> np.ndarray:
        return self.frames[j % len(self.frames)]


@dataclass
class FrameRecord:
    """One submitted frame, filled in as it moves through the server."""

    stream: str
    frame: int
    due: float
    sub0: float = 0.0
    sub1: float = 0.0
    obs: float | None = None
    failed: bool = False

    @property
    def latency(self) -> float:
        return self.obs - self.due


@dataclass
class Phase:
    name: str
    records: list[FrameRecord] = field(default_factory=list)
    t0: float = 0.0
    t1: float = 0.0
    done: list[float] = field(default_factory=list)  # result times in [t0, t1]
    poll_gaps: list[float] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    def late(self) -> list[float]:
        """How far behind schedule each submission started (s)."""
        return [max(0.0, r.sub0 - r.due) for r in self.records]

    def window_rates(self, window_s: float) -> list[float]:
        """Results per second in consecutive ``window_s`` windows of
        ``[t0, t1]``, each from its first to its last result (a trailing
        partial window is dropped; a phase shorter than one window is
        one window)."""
        done = np.asarray(self.done)
        slots = (done - self.t0) // window_s
        rates = []
        for k in range(max(1, int(self.seconds // window_s))):
            t = done[slots == k]
            if len(t) > 1 and t[-1] > t[0]:
                rates.append((len(t) - 1) / (t[-1] - t[0]))
        return rates

    def window_p50s(self, window_s: float) -> list[float]:
        """Median latency of the answered frames due in each ``window_s``
        window of the phase (windows of fewer than 10 are dropped)."""
        slots: dict[int, list[float]] = {}
        for r in self.records:
            if not r.failed:
                slots.setdefault(int((r.due - self.t0) // window_s),
                                 []).append(r.latency)
        return [float(np.median(v)) for v in slots.values()
                if len(v) >= 10]


class Client:
    """Feeds frames to one server (``StreamServer`` or
    ``ShardedStreamServer``) and collects its results.

    ``digests[stream][frame]`` receives a receipt of every result, for
    the oracle; ``failed`` counts rejected frames and degraded results.
    """

    def __init__(self, server, sources: dict[str, FrameSource]) -> None:
        self.server = server
        self.sources = sources
        self.streams = list(sources)
        self.next_frame = {sid: 0 for sid in sources}
        self.inflight: dict[str, deque] = {sid: deque() for sid in sources}
        self.digests: dict[str, dict[int, bytes]] = {
            sid: {} for sid in sources
        }
        self.backpressure_retries = 0
        self.failed = 0
        self.tracks = 0
        #: Optional ``(record, result) -> result`` hook (fault planting).
        self.on_result = None
        self._last_poll = None

    @property
    def outstanding(self) -> int:
        return sum(len(q) for q in self.inflight.values())

    def submit(self, sid: str, due: float, phase: Phase) -> bool:
        """Submit the stream's next frame; retries on backpressure until
        ``REJECT_AFTER_S`` past ``due``, then counts it rejected."""
        fi = self.next_frame[sid]
        rec = FrameRecord(sid, fi, due)
        frame = self.sources[sid][fi]
        while True:
            rec.sub0 = clock()
            try:
                self.server.submit(sid, frame)
            except BackpressureError:
                self.backpressure_retries += 1
                if clock() - due > REJECT_AFTER_S:
                    rec.failed = True
                    self.failed += 1
                    phase.records.append(rec)
                    return False
                self.poll(phase)
                time.sleep(POLL_S)
                continue
            rec.sub1 = clock()
            break
        self.next_frame[sid] = fi + 1
        self.inflight[sid].append(rec)
        phase.records.append(rec)
        return True

    def poll(self, phase: Phase | None = None) -> int:
        """Collect every available result; returns how many arrived."""
        n = 0
        now = clock()
        if phase is not None and self._last_poll is not None:
            phase.poll_gaps.append(now - self._last_poll)
        self._last_poll = now
        for sid in self.streams:
            q = self.inflight[sid]
            if not q:
                continue
            results = self.server.results(sid)
            if not results:
                continue
            t = clock()
            for r in results:
                while q and q[0].frame < r.frame_index:
                    q.popleft().failed = True   # never answered
                    self.failed += 1
                rec = q.popleft()
                rec.obs = t
                if r.degraded:
                    rec.failed = True
                    self.failed += 1
                if self.on_result is not None:
                    r = self.on_result(rec, r)
                self.digests[sid][rec.frame] = digest(r)
                self.tracks += len(r.tracks)
                n += 1
                if phase is not None and phase.t0 <= t <= phase.t1:
                    phase.done.append(t)
        return n

    def drain(self, phase: Phase | None = None) -> None:
        deadline = clock() + DRAIN_TIMEOUT_S
        while self.outstanding and clock() < deadline:
            if not self.poll(phase):
                time.sleep(POLL_S)
        for q in self.inflight.values():
            while q:
                q.popleft().failed = True
                self.failed += 1

    # -- phases --------------------------------------------------------
    def flood(self, name: str, seconds: float, per_stream: int) -> Phase:
        """Keep ``per_stream`` frames in flight on every stream for
        ``seconds``; ``done`` stamps the results inside the window."""
        phase = Phase(name)
        phase.t0 = clock()
        phase.t1 = phase.t0 + seconds
        while clock() < phase.t1:
            for sid in self.streams:
                while len(self.inflight[sid]) < per_stream:
                    if not self.submit(sid, clock(), phase):
                        break
            if not self.poll(phase):
                time.sleep(POLL_S)
        self.drain()
        return phase

    def paced(self, name: str, rate: float, seconds: float,
              stall_at: float | None = None) -> Phase:
        """Open loop: frame ``k`` is due at ``t0 + k / rate`` on stream
        ``k mod S``. ``stall_at`` (a share of the phase) plants a 0.5 s
        generator stall, to test that a late generator is caught."""
        phase = Phase(name)
        n = int(rate * seconds)
        phase.t0 = clock() + 0.01
        phase.t1 = phase.t0 + seconds
        stall_k = None if stall_at is None else int(n * stall_at)
        k = 0
        nstreams = len(self.streams)
        while k < n:
            due = phase.t0 + k / rate
            now = clock()
            if now >= due:
                if k == stall_k:
                    time.sleep(0.5)
                self.submit(self.streams[k % nstreams], due, phase)
                k += 1
                continue
            self.poll(phase)
            wait = due - clock()
            if wait > 0:
                time.sleep(min(wait, POLL_S))
        phase.t1 = max(phase.t1, clock())
        self.drain(phase)
        return phase
