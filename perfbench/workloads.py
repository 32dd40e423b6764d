"""The four workloads of the benchmark.

Each ``run_<workload>(seed, seconds, trace, plant)`` generates all of
its frames from ``seed`` first, then sets up, warms, runs its timed
phases for ``seconds`` in total, checks outputs against the oracle and
returns an :class:`Outcome`. Only the program's public API is called.
"""

from __future__ import annotations

import hashlib
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import BackgroundSubtractor, ServeConfig
from repro.core import SurveillancePipeline
from repro.serve import ShardedStreamServer, StreamServer
from repro.telemetry import MetricsRegistry

import oracle
from loadgen import Client, FrameSource, Phase, clock
from scenes import PARAMS, SHAPE, scene_frames, scene_seed
from tracing import (
    STAGES,
    SpanRecorder,
    instrument_pipeline,
    step_ledger,
    uninstrument_pipeline,
)

# Offered rates of the paced phases, in frames per second over all
# streams. Fixed numbers, so they do not move with the code under test:
# high is about 70 % and mid about half of the flood capacity measured
# with seed 1 on a 2-core x86 container without numba (271 frames/s for
# serve_threads, 299 for serve_sharded). serve_threads' mid rate sits
# at 37 %: in loaded spells of that container its capacity fell to
# 126 frames/s, and at 140 the server fell behind and its latency grew
# without bound.
THREADS_MID_RATE = 100.0
THREADS_HIGH_RATE = 200.0
SHARDED_MID_RATE = 140.0
SHARDED_HIGH_RATE = 200.0

#: Latency limit behind ``late_share.high``.
LATE_LIMIT_S = 0.100
#: A run whose generator started its p99 submission later than this
#: behind schedule measured the generator, not the server: invalid.
#: Valid runs read about 2 ms, and up to 26 ms in a loaded spell of a
#: shared host; the planted 0.5 s stall reads hundreds of ms.
GENERATOR_LATE_LIMIT_S = 0.050
#: Rounds of (flood, mid, high) phases in one run, and the share of
#: ``--seconds`` each kind of phase gets over all rounds.
CYCLES = 3
PHASE_SHARES = (0.35, 0.45, 0.2)
#: Frames each stream keeps in flight during a flood.
FLOOD_IN_FLIGHT = 2
#: Capacity is taken over the result rates in windows this long.
FLOOD_WINDOW_S = 0.25
#: The paced phases' p50 is taken per window of due times this long.
PACED_WINDOW_S = 0.5
#: A traced run's ledger must account for the measured time within this.
LEDGER_TOLERANCE = 0.05
#: Untimed warm phases: a flood past the tracker warm-up, then a paced
#: run (the first paced run in a fresh process has a long tail).
WARM_FLOOD_S = 1.0
WARM_PACED_S = 1.0

#: Loop lengths of the pre-generated scenes (frame j is frame j mod n).
SERIAL_SCENE_LEN = 512
SERVE_SCENE_LEN = 128
SIM_SCENE_LEN = 64
#: Closed-loop frames between two clock reads of the serial workload;
#: each chunk is one window of its timings.
SERIAL_CHUNK = 32
#: Set-ups before the timed phases, and as many again after them.
SETUP_REPEATS = {"pipeline_serial": 60, "serve_threads": 30,
                 "serve_sharded": 6, "sim_ladder": 3}
#: Every timing is reported as the figure of the run's quiet spells:
#: this percentile of per-window rates, and 100 minus it of per-window
#: times (README, "Estimators"). Neighbours on a shared host only ever
#: slow a window down, so the median of the windows follows the host's
#: load and this figure follows the program.
QUIET_Q = 90
#: Fixed crop checked against the scalar reference: rows on the
#: walker's path, so foreground is present.
CROP = (slice(56, 64), slice(72, 88))

LEVELS = "ABCDEFG"
SIM_FRAMES_PER_ROUND = 16   # per level; G runs it as two groups of 8
SIM_GROUP = 8
SIM_PROFILE_EVERY = 8


def _p(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ms(values, q=50) -> float:
    return _p(values, q) * 1e3


def _quiet_rate(rates) -> float:
    """A higher-is-better timing over windows spread across the run."""
    return _p(rates, QUIET_Q)


def _quiet_time(seconds) -> float:
    """A lower-is-better timing over windows spread across the run."""
    return _p(seconds, 100 - QUIET_Q)


def _peak_rss_mb(extra_pids=()) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in extra_pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    kb += int(line.split()[1])
    return kb / 1024.0


@dataclass
class Outcome:
    """What one run measured."""

    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    reported: dict = field(default_factory=dict)   # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    invalid: str | None = None
    recorder: SpanRecorder | None = None
    ledger: dict = field(default_factory=dict)


def _printed_layer(out: Outcome, name: str, value: float, unit: str) -> None:
    """A per-layer metric that untraced runs print too (a tail or a
    share whose run-to-run spread is too wide to bound)."""
    out.layers[name] = value
    out.reported[name] = (value, unit)


def _setups(build, repeats: int, keep: bool = False):
    """Time ``build()`` ``repeats`` times and close every object but,
    with ``keep``, the last; returns ``(seconds, kept)``."""
    times, kept = [], None
    for i in range(repeats):
        t0 = clock()
        obj = build()
        times.append(clock() - t0)
        if keep and i == repeats - 1:
            kept = obj
        else:
            obj.close()
    return times, kept


# ---------------------------------------------------------------------------
# pipeline_serial
# ---------------------------------------------------------------------------

def run_pipeline_serial(seed, seconds, trace, plant=None) -> Outcome:
    """One ``SurveillancePipeline`` (cpu, MoG, level F) in a closed loop."""
    frames = scene_frames(scene_seed(seed, "pipeline_serial"),
                          SERIAL_SCENE_LEN)
    n_loop = len(frames)
    out = Outcome()

    class Setup:
        def __init__(self):
            self.pipe = SurveillancePipeline(SHAPE, PARAMS)
            self.first = self.pipe.step(frames[0])

        def close(self):
            pass

    setup_s, setup = _setups(Setup, SETUP_REPEATS["pipeline_serial"],
                             keep=True)
    pipe = setup.pipe
    crops = [setup.first.raw_mask[CROP].copy()]
    j = 1
    while j <= pipe.warmup_frames:           # tracker warm-up, untimed
        crops.append(pipe.step(frames[j]).raw_mask[CROP].copy())
        j += 1

    # A traced run alternates untraced and traced chunks, so both see
    # the same spells of the host; ``False``/``True`` key by traced.
    rec = SpanRecorder() if trace else None
    step_s = {False: [], True: []}
    rates = {False: [], True: []}
    chunk_p50 = {False: [], True: []}
    failed, tracks, traced = 0, 0, False
    t_end = clock() + seconds
    while clock() < t_end or (trace and not rates[True]):
        if traced != (trace and len(rates[True]) < len(rates[False])):
            traced = not traced
            if traced:
                instrument_pipeline(pipe, rec)
            else:
                uninstrument_pipeline(pipe)
        c0 = clock()
        for _ in range(SERIAL_CHUNK):
            t0 = clock()
            r = pipe.step(frames[j % n_loop])
            step_s[traced].append(clock() - t0)
            crops.append(r.raw_mask[CROP].copy())
            failed += r.degraded
            tracks += len(r.tracks)
            j += 1
        rates[traced].append(SERIAL_CHUNK / (clock() - c0))
        chunk_p50[traced].append(
            statistics.median(step_s[traced][-SERIAL_CHUNK:]))
    if trace:
        uninstrument_pipeline(pipe)
    setup_s += _setups(Setup, SETUP_REPEATS["pipeline_serial"])[0]
    timed = len(step_s[False]) + len(step_s[True])
    out.attempted, out.failed = timed, failed
    out.e2e["setup_s"] = _quiet_time(setup_s)
    out.e2e["frames_per_s"] = _quiet_rate(rates[False])
    out.e2e["latency_p50_ms"] = _quiet_time(chunk_p50[False]) * 1e3
    _printed_layer(out, "latency_p99_ms", _ms(step_s[False], 99), "ms")
    out.e2e["peak_rss_mb"] = _peak_rss_mb()
    out.reported["samples"] = (len(step_s[False]), "count")

    if plant == "mask_flip":
        crops[-1][0, 0] = ~crops[-1][0, 0]
    ref = oracle.reference_crop_masks(
        [frames[i % n_loop] for i in range(len(crops))], CROP
    )
    out.mismatches = int(sum(
        not np.array_equal(c, r) for c, r in zip(crops, ref)
    ))

    if trace:
        ledger = step_ledger(rec)
        _stage_layers(out.layers, ledger.values())
        out.layers["track.tracker.tracks_per_frame"] = tracks / timed
        # The step spans, taken inside the wrappers, against the same
        # steps timed around the call by the loop above.
        spans = sum(p["core.stream.step"] for p in ledger.values())
        _check_ledger(out, spans / sum(step_s[True]))
        out.layers["trace.overhead_share"] = (
            1.0 - _quiet_rate(rates[True]) / _quiet_rate(rates[False]))
        out.recorder = rec
        out.ledger = {
            "frames": len(ledger),
            "mean_ms": {k: statistics.fmean(
                p.get(k, 0.0) for p in ledger.values()) * 1e3
                for k in (*STAGES, "core.stream.overhead",
                          "core.stream.step")},
            "outer_step_mean_ms": statistics.fmean(step_s[True]) * 1e3,
        }
    return out


def _check_ledger(out: Outcome, coverage: float) -> None:
    """Record how much of the measured time the ledger accounts for,
    and invalidate the run when it is off by more than the tolerance."""
    out.layers["ledger.coverage"] = coverage
    if abs(coverage - 1.0) > LEDGER_TOLERANCE:
        out.invalid = (f"ledger accounts for {coverage:.1%} of the "
                       f"measured time (tolerance {LEDGER_TOLERANCE:.0%})")


def _stage_layers(layers: dict, parts) -> None:
    """Pipeline-stage layer metrics from per-frame ledger entries."""
    parts = list(parts)

    def col(name):
        return [p[name] for p in parts if name in p]

    apply = col("core.subtractor.apply")
    layers["core.subtractor.apply_ms.p50"] = _ms(apply, 50)
    layers["core.subtractor.apply_ms.p99"] = _ms(apply, 99)
    layers["core.subtractor.share"] = sum(apply) / sum(
        col("core.stream.step"))
    layers["post.morphology.clean_ms"] = _ms(col("post.morphology.clean"))
    layers["track.tracker.update_ms"] = _ms(col("track.tracker.update"))
    layers["core.stream.step_ms"] = _ms(col("core.stream.step"))
    layers["core.stream.overhead_ms"] = _ms(col("core.stream.overhead"))


# ---------------------------------------------------------------------------
# serving workloads
# ---------------------------------------------------------------------------

def _serve_phases(client: Client, seconds: float, mid: float, high: float,
                  out: Outcome, plant, tracing=None) -> tuple:
    """Warm, then ``CYCLES`` rounds of flood, mid and high phases; fills
    the end-to-end metrics shared by both serving workloads.

    Interleaving the phases spreads each measure over the whole run, so
    a slow spell of the host weighs on every metric alike. With
    ``tracing`` (called with ``True``/``False`` between phases, when no
    frame is in flight), each flood runs half untraced and half traced
    and every paced phase is traced. Returns the mid and high phases.
    """
    flood_s, mid_s, high_s = (seconds * s / CYCLES for s in PHASE_SHARES)
    client.flood("warm", WARM_FLOOD_S, FLOOD_IN_FLIGHT)
    client.paced("warm_paced", mid, WARM_PACED_S)
    failed0, retries0 = client.failed, client.backpressure_retries
    tracks0 = client.tracks
    floods = {False: [], True: []}       # by traced
    mids, highs = [], []
    for c in range(CYCLES):
        if tracing is None:
            floods[False].append(client.flood("flood", flood_s,
                                              FLOOD_IN_FLIGHT))
        else:
            tracing(False)
            floods[False].append(client.flood("flood", flood_s / 2,
                                              FLOOD_IN_FLIGHT))
            tracing(True)
            floods[True].append(client.flood("flood", flood_s / 2,
                                             FLOOD_IN_FLIGHT))
        stall = 0.5 if plant == "stall" and c == CYCLES // 2 else None
        mids.append(client.paced("mid", mid, mid_s, stall_at=stall))
        highs.append(client.paced("high", high, high_s))

    timed = floods[False] + floods[True] + mids + highs
    mid_recs = [r for p in mids for r in p.records]
    high_recs = [r for p in highs for r in p.records]
    out.attempted = sum(len(p.records) for p in timed)
    out.failed = client.failed - failed0

    def capacity(phases):
        return _quiet_rate(
            [x for p in phases for x in p.window_rates(FLOOD_WINDOW_S)])

    def p99_ms(phases):
        """The median over rounds of each round's p99, so that one slow
        spell of the host moves one round, not the metric."""
        return statistics.median(
            _ms([r.latency for r in p.records if not r.failed], 99)
            for p in phases)

    out.e2e["frames_per_s"] = capacity(floods[False])
    ok_mid = [r.latency for r in mid_recs if not r.failed]
    out.e2e["latency_p50_ms"] = _quiet_time(
        [x for p in mids for x in p.window_p50s(PACED_WINDOW_S)]) * 1e3
    _printed_layer(out, "latency_p99_ms", p99_ms(mids), "ms")
    _printed_layer(out, "latency_p99_ms.high", p99_ms(highs), "ms")
    late = sum(1 for r in high_recs if r.failed or r.latency > LATE_LIMIT_S)
    _printed_layer(out, "late_share.high", late / max(len(high_recs), 1),
                   "ratio")
    out.reported["samples.mid"] = (len(ok_mid), "count")
    out.reported["samples.high"] = (
        sum(not r.failed for r in high_recs), "count")

    gen_late = [x for p in mids + highs for x in p.late()]
    out.layers["loadgen.late_p99_ms"] = _ms(gen_late, 99)
    out.layers["loadgen.poll_ms"] = _ms(
        [g for p in mids + highs for g in p.poll_gaps])
    out.layers["serve.sharded.backpressure_retries"] = (
        client.backpressure_retries - retries0
    )
    answered = sum(r.obs is not None for p in timed for r in p.records)
    out.layers["track.tracker.tracks_per_frame"] = (
        (client.tracks - tracks0) / max(answered, 1))
    if _p(gen_late, 99) > GENERATOR_LATE_LIMIT_S:
        out.invalid = (
            f"load generator fell behind schedule: p99 lateness "
            f"{_ms(gen_late, 99):.1f} ms > "
            f"{GENERATOR_LATE_LIMIT_S * 1e3:.0f} ms"
        )
    if tracing is not None:
        out.layers["trace.overhead_share"] = (
            1.0 - capacity(floods[True]) / capacity(floods[False]))
    return mids, highs


def _plant_flip(client: Client) -> None:
    """Flip one pixel of the next emitted mask (self-test of the oracle)."""
    def flip(rec, result):
        client.on_result = None
        mask = result.mask.copy()
        mask[0, 0] = ~mask[0, 0]
        return type(result)(result.frame_index, result.raw_mask, mask,
                            result.tracks)
    client.on_result = flip


def _served_mismatches(client: Client, jobs: dict, stream_job: dict) -> int:
    """Compare every stream's receipts with its serial oracle;
    ``stream_job`` maps a stream to the key of its oracle job."""
    lengths = {}
    for sid, key in stream_job.items():
        lengths[key] = max(lengths.get(key, 0), client.next_frame[sid])
    ref = oracle.serial_oracle({
        key: (*jobs[key], lengths[key]) for key in jobs
    })
    return sum(oracle.count_mismatches(client.digests[sid], ref[key])
               for sid, key in stream_job.items())


THREAD_MODELS = ("mog",) * 4 + ("dmsg",) * 4
THREAD_WORKERS = 2


def run_serve_threads(seed, seconds, trace, plant=None) -> Outcome:
    """One ``StreamServer``: 2 workers, 4 MoG + 4 DMSG streams,
    checkpoints every 16 frames."""
    sids = [f"t{i}" for i in range(len(THREAD_MODELS))]
    seeds = {sid: scene_seed(seed, "serve_threads", i)
             for i, sid in enumerate(sids)}
    sources = {sid: FrameSource(scene_frames(seeds[sid], SERVE_SCENE_LEN))
               for sid in sids}
    models = dict(zip(sids, THREAD_MODELS))
    out = Outcome()
    run_dir = Path(__file__).resolve().parent / "out"
    run_dir.mkdir(exist_ok=True)
    ckpt_dir = tempfile.mkdtemp(prefix="ckpt-", dir=run_dir)
    # The pipelines are built through a factory in every run, traced or
    # not, so that the traced run can reach them; it builds what the
    # server's default factory would.
    pipes: dict[str, SurveillancePipeline] = {}

    def factory(sid):
        def build(registry):
            pipes[sid] = SurveillancePipeline(
                SHAPE, PARAMS, model=models[sid], on_error="degrade",
                telemetry=registry,
            )
            return pipes[sid]
        return build

    class Setup:
        def __init__(self):
            self.server = StreamServer(SHAPE, PARAMS, serve=ServeConfig(
                workers=THREAD_WORKERS, max_streams=len(sids),
                queue_capacity=64, backpressure="reject",
                checkpoint_every=16, checkpoint_dir=ckpt_dir,
            ))
            for sid in sids:
                self.server.add_stream(sid, pipeline_factory=factory(sid))
            self.client = Client(self.server, sources)
            first = Phase("setup")
            for sid in sids:
                self.client.submit(sid, clock(), first)
            self.client.drain()

        def close(self):
            self.server.close(drain=False)

    rec = SpanRecorder() if trace else None

    def tracing(on):
        for sid, pipe in pipes.items():
            if on:
                instrument_pipeline(pipe, rec, stream=sid)
            else:
                uninstrument_pipeline(pipe)

    try:
        setup_s, setup = _setups(Setup, SETUP_REPEATS["serve_threads"],
                                 keep=True)
        client = setup.client
        if plant == "mask_flip":
            _plant_flip(client)
        try:
            mids, highs = _serve_phases(
                client, seconds, THREADS_MID_RATE, THREADS_HIGH_RATE, out,
                plant, tracing=tracing if trace else None,
            )
        finally:
            setup.server.close(drain=False)
        out.e2e["peak_rss_mb"] = _peak_rss_mb()
        setup_s += _setups(Setup, SETUP_REPEATS["serve_threads"])[0]
        out.e2e["setup_s"] = _quiet_time(setup_s)
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)

    out.mismatches = _served_mismatches(
        client,
        {sid: (seeds[sid], SERVE_SCENE_LEN, models[sid]) for sid in sids},
        {sid: sid for sid in sids},
    )
    if trace:
        out.recorder = rec
        _thread_ledger(out, rec, mids, highs)
    return out


#: The parts one served frame's latency (due -> result seen) splits
#: into, in the order they happen.
SERVED_PARTS = ("loadgen.late", "serve.server.submit",
                "serve.server.queue_wait", *STAGES, "core.stream.overhead",
                "faults.checkpoint.save", "serve.server.emit")


def _thread_ledger(out: Outcome, rec: SpanRecorder, mids: list[Phase],
                   highs: list[Phase]) -> None:
    """Split each paced frame's due->result time into layers.

    The parts are intervals between the generator's stamps and the
    spans, so they tile the frame's latency exactly when every span is
    joined to the right frame and no two overlap; ``ledger.coverage``
    sums them with negative parts clipped, so a wrong join shows.
    """
    steps = step_ledger(rec)
    spans = {(s[3], s[4]): s for s in rec.by_name("core.stream.step")}
    saves = {(s[3], s[4]): s[2] - s[1]
             for s in rec.by_name("faults.checkpoint.save")}

    def split(phases):
        rows = []
        for r in (r for p in phases for r in p.records):
            step = spans.get((r.stream, r.frame))
            if r.failed or step is None:
                continue
            save = saves.get((r.stream, r.frame), 0.0)
            rows.append({
                "e2e": r.latency,
                "loadgen.late": r.sub0 - r.due,
                "serve.server.submit": r.sub1 - r.sub0,
                "serve.server.queue_wait": step[1] - r.sub1,
                **steps[(r.stream, r.frame)],
                "faults.checkpoint.save": save,
                "serve.server.emit": r.obs - step[2] - save,
            })
        return rows

    mid, high = split(mids), split(highs)
    _stage_layers(out.layers, mid)
    L = out.layers

    def col(rows, name):
        return [m[name] for m in rows]

    L["serve.server.submit_ms"] = _ms(col(mid, "serve.server.submit"))
    L["serve.server.queue_wait_ms"] = _ms(col(mid, "serve.server.queue_wait"))
    L["serve.server.queue_wait_ms.high"] = _ms(
        col(high, "serve.server.queue_wait"))
    L["serve.server.service_ms"] = _ms(
        [m["core.stream.step"] + m["faults.checkpoint.save"] for m in mid])
    L["serve.server.emit_ms"] = _ms(col(mid, "serve.server.emit"))
    in_mid = [s for s in rec.spans
              if s[0] in ("core.stream.step", "faults.checkpoint.save")
              and any(p.t0 <= s[1] < p.t1 for p in mids)]
    L["serve.server.worker_busy_share"] = (
        sum(s[2] - s[1] for s in in_mid)
        / (THREAD_WORKERS * sum(p.seconds for p in mids)))
    mid_saves = [s[2] - s[1] for s in in_mid
                 if s[0] == "faults.checkpoint.save"]
    L["faults.checkpoint.save_ms"] = _ms(mid_saves)
    L["faults.checkpoint.saves"] = len(mid_saves)
    rows = mid + high
    attributed = sum(max(m[k], 0.0) for m in rows for k in SERVED_PARTS)
    _check_ledger(out, attributed / sum(col(rows, "e2e")))
    out.ledger = {
        "phases": "mid",
        "frames": len(mid),
        "mean_ms": {k: statistics.fmean(col(mid, k)) * 1e3
                    for k in SERVED_PARTS},
        "e2e_mean_ms": statistics.fmean(col(mid, "e2e")) * 1e3,
    }


SHARDED_STREAMS = 64
SHARDED_SCENES = 8


def run_serve_sharded(seed, seconds, trace, plant=None) -> Outcome:
    """One ``ShardedStreamServer``: 2 shards x 1 worker, uint8 ring,
    64 MoG streams over 8 scenes (stream i shows scene i mod 8; every
    stream owns its model state)."""
    sids = [f"s{i:02d}" for i in range(SHARDED_STREAMS)]
    seeds = [scene_seed(seed, "serve_sharded", k)
             for k in range(SHARDED_SCENES)]
    scene_of = {sid: i % SHARDED_SCENES for i, sid in enumerate(sids)}
    loops = [FrameSource(scene_frames(s, SERVE_SCENE_LEN)) for s in seeds]
    sources = {sid: loops[scene_of[sid]] for sid in sids}
    out = Outcome()

    class Setup:
        def __init__(self):
            self.server = ShardedStreamServer(
                SHAPE, PARAMS, frame_dtype=np.uint8,
                serve=ServeConfig(shards=2, workers=1,
                                  max_streams=len(sids),
                                  backpressure="reject"),
            )
            for sid in sids:
                self.server.add_stream(sid)
            self.client = Client(self.server, sources)
            first = Phase("setup")
            for sid in sids:
                self.client.submit(sid, clock(), first)
            self.client.drain()

        def close(self):
            self.server.close(drain=False)

    setup_s, setup = _setups(Setup, SETUP_REPEATS["serve_sharded"],
                             keep=True)
    client, server = setup.client, setup.server
    if plant == "mask_flip":
        _plant_flip(client)
    try:
        # The gateway spans are the client's own submit stamps, so a
        # traced run does the same work as an untraced one and its flood
        # is not split (``trace.overhead_share`` is not measured here).
        mids, highs = _serve_phases(
            client, seconds, SHARDED_MID_RATE, SHARDED_HIGH_RATE, out, plant,
        )
        per_shard = np.bincount([s["shard"] for s in server.stream_status()],
                                minlength=2)
        out.e2e["peak_rss_mb"] = _peak_rss_mb(
            [p for p in server.shard_pids() if p is not None])
    finally:
        server.close(drain=False)
    setup_s += _setups(Setup, SETUP_REPEATS["serve_sharded"])[0]
    out.e2e["setup_s"] = _quiet_time(setup_s)

    out.mismatches = _served_mismatches(
        client,
        {k: (seeds[k], SERVE_SCENE_LEN, "mog") for k in range(SHARDED_SCENES)},
        scene_of,
    )
    if trace:
        rec = out.recorder = SpanRecorder()
        ok = [r for p in mids + highs for r in p.records if not r.failed]
        for r in ok:
            rec.add("serve.sharded.submit", r.sub0, r.sub1, r.stream, r.frame)
            rec.add("frame", r.due, r.obs, r.stream, r.frame)
        sub = [r.sub1 - r.sub0 for p in mids for r in p.records
               if not r.failed]
        out.layers["serve.sharded.submit_ms"] = _ms(sub)
        out.layers["serve.sharded.shard_skew"] = float(
            per_shard.max() / per_shard.mean())
        out.ledger = {"phases": "mid", "frames": len(sub),
                      "streams_per_shard": per_shard.tolist(),
                      "note": "spans inside shard processes are not traced"}
    return out


# ---------------------------------------------------------------------------
# sim_ladder
# ---------------------------------------------------------------------------

def _mask_digest(mask) -> bytes:
    return hashlib.blake2b(np.packbits(mask).tobytes(),
                           digest_size=16).digest()


def run_sim_ladder(seed, seconds, trace, plant=None) -> Outcome:
    """``BackgroundSubtractor(backend="sim", profile_every=8)`` over
    levels A-G in turn; G takes its frames in groups via ``process``."""
    from repro.core import resolve_level_spec

    frames = scene_frames(scene_seed(seed, "sim_ladder"), SIM_SCENE_LEN)
    n_loop = len(frames)
    out = Outcome()

    def batch(j, n):
        return [frames[(j + i) % n_loop] for i in range(n)]

    class Setup:
        """Every level's subtractor plus its first output."""

        def __init__(self):
            self.subs, self.regs, self.done = {}, {}, {}
            self.digests = {L: [] for L in LEVELS}
            for L in LEVELS:
                reg = MetricsRegistry()
                bs = BackgroundSubtractor(
                    SHAPE, PARAMS, level=L, backend="sim",
                    profile_every=SIM_PROFILE_EVERY, telemetry=reg,
                )
                self.subs[L], self.regs[L] = bs, reg
                if L == "G":
                    masks, _ = bs.process(batch(0, SIM_GROUP))
                else:
                    masks = [bs.apply(frames[0])]
                self.digests[L] += [_mask_digest(m) for m in masks]
                self.done[L] = len(masks)

        def close(self):
            pass

    setup_s, st = _setups(Setup, SETUP_REPEATS["sim_ladder"], keep=True)
    rec = SpanRecorder() if trace else None
    per_frame = {True: [], False: []}    # (seconds per frame) by profiled
    flip = [False]                       # set for the timed rounds below

    def round_(timed_rec) -> list[float]:
        """One round over every level; returns per-frame seconds (a
        group's time is shared by its frames)."""
        lat = []
        for L in LEVELS:
            bs, reg = st.subs[L], st.regs[L]
            prof = reg.counter("sim.frames_profiled")
            step = SIM_GROUP if L == "G" else 1
            for _ in range(SIM_FRAMES_PER_ROUND // step):
                before = prof.value
                t0 = clock()
                if L == "G":
                    masks, _ = bs.process(batch(st.done[L], step))
                else:
                    masks = [bs.apply(frames[st.done[L] % n_loop])]
                t1 = clock()
                if flip[0] and L == "A":
                    flip[0] = False
                    masks = [masks[0].copy()]
                    masks[0][0, 0] = ~masks[0][0, 0]
                if timed_rec is not None:
                    timed_rec.add("core.subtractor.apply", t0, t1, L,
                                  st.done[L])
                    per_frame[prof.value > before].append((t1 - t0) / step)
                lat.extend([(t1 - t0) / step] * step)
                st.digests[L] += [_mask_digest(m) for m in masks]
                st.done[L] += step
        return lat

    round_(None)                 # untimed: fixes the deterministic counts
    # The simulator keeps a record of every launch, so the peak at the
    # end of a run would grow with the frames the run got through, i.e.
    # with speed; the peak after set-up and one round does not.
    peak_rss_mb = _peak_rss_mb()
    if trace:
        for L in LEVELS:
            rep = st.subs[L].report()
            out.layers[f"gpusim.sim_kernel_us.{L}"] = (
                rep.kernel_time_per_frame * 1e6)
            out.layers[f"gpusim.transactions.{L}"] = (
                rep.counters_per_frame.transactions)
    flip[0] = plant == "mask_flip"
    # Each round is one window of the timings. A traced run alternates
    # untraced and traced rounds; the end-to-end figures come from the
    # untraced ones.
    wall = {True: 0.0, False: 0.0}
    rates = {True: [], False: []}
    round_p50, lat = [], []
    per_round = SIM_FRAMES_PER_ROUND * len(LEVELS)
    t_end = clock() + seconds
    while clock() < t_end or (trace and not rates[True]):
        traced = trace and len(rates[True]) < len(rates[False])
        c0 = clock()
        round_lat = round_(rec if traced else None)
        wall[traced] += clock() - c0
        rates[traced].append(per_round / (clock() - c0))
        if not traced:
            round_p50.append(statistics.median(round_lat))
            lat += round_lat
    out.attempted = per_round * (len(rates[True]) + len(rates[False]))
    out.e2e["frames_per_s"] = _quiet_rate(rates[False])
    out.e2e["latency_p50_ms"] = _quiet_time(round_p50) * 1e3
    _printed_layer(out, "latency_p99_ms", _ms(lat, 99), "ms")
    out.e2e["peak_rss_mb"] = peak_rss_mb
    setup_s += _setups(Setup, SETUP_REPEATS["sim_ladder"])[0]
    out.e2e["setup_s"] = _quiet_time(setup_s)

    by_variant: dict[str, list[str]] = {}
    for L in LEVELS:
        by_variant.setdefault(resolve_level_spec(L).oracle_variant,
                              []).append(L)
    for levels in by_variant.values():
        n = max(st.done[L] for L in levels)
        cpu = BackgroundSubtractor(SHAPE, PARAMS, level=levels[0],
                                   backend="cpu")
        ref = [_mask_digest(cpu.apply(frames[j % n_loop])) for j in range(n)]
        for L in levels:
            out.mismatches += oracle.count_mismatches(
                dict(enumerate(st.digests[L])), ref)

    if trace:
        calls = rec.by_name("core.subtractor.apply")
        apply = [s[2] - s[1] for s in calls]
        out.layers["core.subtractor.apply_ms.p50"] = _ms(apply, 50)
        out.layers["core.subtractor.apply_ms.p99"] = _ms(apply, 99)
        out.layers["core.subtractor.share"] = sum(apply) / wall[True]
        out.layers["gpusim.apply_profiled_ms"] = _ms(per_frame[True])
        out.layers["gpusim.apply_functional_ms"] = _ms(per_frame[False])
        out.layers["ledger.coverage"] = sum(apply) / wall[True]
        out.layers["trace.overhead_share"] = (
            1.0 - _quiet_rate(rates[True]) / _quiet_rate(rates[False]))
        out.recorder = rec
        out.ledger = {"calls": len(calls)}
    return out


WORKLOADS = {
    "pipeline_serial": run_pipeline_serial,
    "serve_threads": run_serve_threads,
    "serve_sharded": run_serve_sharded,
    "sim_ladder": run_sim_ladder,
}
