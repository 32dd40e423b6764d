"""The fused clean-and-track path against a generic scipy oracle.

``repro.post`` cleans masks with a shift-reduce opening/closing and
labels each mask once (:func:`repro.post.label_and_measure`); the
tracker of a :class:`SurveillancePipeline` reuses the components its
cleaner measured. The oracle below is the generic implementation that
path replaced — ``ndimage.binary_opening`` / ``binary_closing``, a
second ``label`` for the area filter, ``find_objects`` and
``center_of_mass`` — and every output must equal it exactly.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import repro.track.tracker as tracker_module
from repro.bench.quality import MATRIX_SCENARIOS
from repro.config import MoGParams
from repro.core.stream import SurveillancePipeline
from repro.post import (
    MaskCleaner,
    clean_mask,
    connected_components,
    label_and_measure,
)
from repro.post.morphology import Component
from repro.video.scenes import evaluation_scene

PARAMS = MoGParams(learning_rate=0.08, initial_sd=8.0)
#: (open_radius, close_radius, min_area) — the pipeline default first.
CLEAN_CONFIGS = [(0, 2, 6), (1, 2, 6), (1, 3, 0), (2, 1, 10), (3, 0, 4)]


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def oracle_disk(radius: int) -> np.ndarray:
    d = 2 * radius + 1
    yy, xx = np.mgrid[0:d, 0:d]
    return (yy - radius) ** 2 + (xx - radius) ** 2 <= radius**2


def oracle_clean(mask, open_radius, close_radius, min_area):
    out = np.asarray(mask) != 0
    if open_radius > 0:
        out = ndimage.binary_opening(out, structure=oracle_disk(open_radius))
    if close_radius > 0:
        out = ndimage.binary_closing(out, structure=oracle_disk(close_radius))
    if min_area > 0:
        labels, count = ndimage.label(out)
        if count:
            areas = np.bincount(labels.reshape(-1))
            keep = areas >= min_area
            keep[0] = False
            out = keep[labels]
    return out.astype(bool)


def oracle_components(mask) -> list[Component]:
    mask = np.asarray(mask) != 0
    labels, count = ndimage.label(mask)
    if count == 0:
        return []
    slices = ndimage.find_objects(labels)
    centroids = ndimage.center_of_mass(mask, labels, range(1, count + 1))
    areas = np.bincount(labels.reshape(-1))
    out = [
        Component(
            label=i,
            area=int(areas[i]),
            bbox=(sl[0].start, sl[1].start, sl[0].stop, sl[1].stop),
            centroid=(float(com[0]), float(com[1])),
        )
        for i, (sl, com) in enumerate(zip(slices, centroids), start=1)
    ]
    out.sort(key=lambda c: c.area, reverse=True)
    return out


class OracleCleaner:
    """A plain callable cleaner (not a MaskCleaner): the pipeline's
    tracker then measures every mask itself."""

    def __init__(self, open_radius=0, close_radius=2, min_area=6):
        self.radii = (open_radius, close_radius, min_area)

    def __call__(self, raw):
        return oracle_clean(raw, *self.radii)


def track_history(tracker):
    return [
        (t.track_id, t.positions, t.frames, t.hits, t.misses,
         t.confirmed, t.alive, t.last_area)
        for t in tracker.tracks
    ]


# ----------------------------------------------------------------------
# Bit identity on real scenes
# ----------------------------------------------------------------------
def _run_against_oracle(monkeypatch, video, shape, frames, warmup):
    fused = SurveillancePipeline(shape, PARAMS, warmup_frames=warmup)
    oracle = SurveillancePipeline(
        shape, PARAMS, warmup_frames=warmup, cleaner=OracleCleaner()
    )
    assert oracle.tracker.cleaner is None
    for t in range(frames):
        frame = video.frame(t)
        got = fused.step(frame)
        with monkeypatch.context() as m:
            m.setattr(tracker_module, "connected_components",
                      oracle_components)
            want = oracle.step(frame)
        assert np.array_equal(got.raw_mask, want.raw_mask), t
        assert np.array_equal(got.mask, want.mask), t
        for radii in CLEAN_CONFIGS:
            assert np.array_equal(
                clean_mask(got.raw_mask, *radii),
                oracle_clean(got.raw_mask, *radii),
            ), (t, radii)
        # The components the tracker was handed: the cleaner's shared
        # pass, not a fresh labelling.
        shared = fused.cleaner.components_of(got.mask)
        assert shared is not None
        assert shared == oracle_components(want.mask), t
        assert connected_components(got.mask) == shared, t
        assert [x.track_id for x in got.tracks] == [
            x.track_id for x in want.tracks
        ], t
    assert track_history(fused.tracker) == track_history(oracle.tracker)
    return fused


@pytest.mark.parametrize("scenario", sorted(MATRIX_SCENARIOS))
def test_matrix_scenes_match_oracle(monkeypatch, scenario):
    shape = (120, 160)
    video = MATRIX_SCENARIOS[scenario](
        height=shape[0], width=shape[1], num_frames=40
    )
    fused = _run_against_oracle(monkeypatch, video, shape, 40, warmup=10)
    assert fused.tracker.tracks  # the scene exercised the tracker


def test_hd_clip_matches_oracle(monkeypatch):
    shape = (540, 960)
    video = evaluation_scene(height=shape[0], width=shape[1], num_frames=6)
    _run_against_oracle(monkeypatch, video, shape, 6, warmup=2)


def test_tracker_reuses_the_cleaners_components(params, monkeypatch):
    """A default pipeline step labels its mask once: the tracker takes
    the cleaner's components and never calls connected_components."""

    def refuse(mask):
        raise AssertionError("the tracker labelled the mask again")

    monkeypatch.setattr(tracker_module, "connected_components", refuse)
    shape = (64, 96)
    video = evaluation_scene(height=shape[0], width=shape[1])
    pipe = SurveillancePipeline(shape, params, warmup_frames=0)
    for t in range(20):
        pipe.step(video.frame(t))
    assert pipe.tracker.tracks


def test_other_masks_are_measured_afresh():
    cleaner = MaskCleaner(open_radius=0, close_radius=1, min_area=2)
    mask = np.zeros((12, 12), dtype=bool)
    mask[2:6, 2:6] = True
    out = cleaner(mask)
    assert cleaner.components_of(out) == oracle_components(out)
    assert cleaner.components_of(out.copy()) is None
    assert cleaner.components_of(mask) is None
    cleaner(mask)
    assert cleaner.components_of(out) is None  # no longer the last output


# ----------------------------------------------------------------------
# Properties on arbitrary masks
# ----------------------------------------------------------------------
@st.composite
def masks(draw):
    """Boolean or uint8 masks from 1xN up: random, all-true, all-false,
    and blobs that touch the border; C-ordered, Fortran-ordered,
    transposed or strided."""
    h = draw(st.integers(1, 20))
    w = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["random", "ones", "zeros", "border"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "random":
        mask = rng.random((h, w)) < draw(st.floats(0.05, 0.95))
    elif kind == "ones":
        mask = np.ones((h, w), dtype=bool)
    elif kind == "zeros":
        mask = np.zeros((h, w), dtype=bool)
    else:
        mask = np.zeros((h, w), dtype=bool)
        for _ in range(draw(st.integers(1, 4))):
            r0, c0 = rng.integers(0, h), rng.integers(0, w)
            mask[max(r0 - 3, 0):r0 + 3, max(c0 - 3, 0):c0 + 3] = True
        mask[0, :] |= rng.random(w) < 0.5
        mask[:, -1] |= rng.random(h) < 0.5
    if draw(st.booleans()):
        mask = mask.astype(np.uint8) * rng.integers(1, 256, (h, w),
                                                     dtype=np.uint8)
    layout = draw(st.sampled_from(["C", "F", "T", "strided"]))
    if layout == "F":
        mask = np.asfortranarray(mask)
    elif layout == "T":
        mask = mask.T
    elif layout == "strided":
        mask = np.repeat(mask, 2, axis=1)[:, ::2]
    return mask


@given(masks(), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_opening_and_closing_equal_scipy(mask, radius):
    assert np.array_equal(clean_mask(mask, radius, 0),
                          oracle_clean(mask, radius, 0, 0))
    assert np.array_equal(clean_mask(mask, 0, radius),
                          oracle_clean(mask, 0, radius, 0))


@given(masks(), st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_label_and_measure_equals_oracle(mask, min_area):
    components = label_and_measure(mask)
    assert components == oracle_components(mask)
    assert connected_components(mask) == components
    # The minimum-area filter, through the same pass.
    want = oracle_clean(mask, 0, 0, min_area)
    assert np.array_equal(clean_mask(mask, 0, 0, min_area), want)
    cleaner = MaskCleaner(0, 0, min_area)
    kept = cleaner(mask)
    assert np.array_equal(kept, want)
    assert cleaner.components_of(kept) == oracle_components(want)


# ----------------------------------------------------------------------
# Threads
# ----------------------------------------------------------------------
def _serial(frames, cleaner=None):
    pipe = SurveillancePipeline((64, 96), PARAMS, warmup_frames=5,
                                cleaner=cleaner)
    results = [pipe.step(f) for f in frames]
    return [r.mask for r in results], track_history(pipe.tracker)


class _Rendezvous:
    """Cleaner wrapper: returns only once every thread has cleaned its
    frame, so a shared MaskCleaner has moved on to another pipeline's
    mask before this pipeline's tracker runs."""

    def __init__(self, inner, barrier):
        self.inner = inner
        self.barrier = barrier

    def __call__(self, raw):
        out = self.inner(raw)
        self.barrier.wait()
        return out


def test_concurrent_pipelines_match_serial_runs():
    """Pipelines stepped at once on several threads — two sharing one
    MaskCleaner, one with a plain callable cleaner — give the masks and
    tracks of serial runs. Clean/track state kept anywhere but in each
    pipeline's own objects (a module-level scratch buffer, or a memo
    read without checking whose mask it holds) breaks this."""
    n = 30
    streams = [
        [evaluation_scene(64, 96, seed=s).frame(t) for t in range(n)]
        for s in (5, 11, 17)
    ]
    want = [_serial(streams[0]), _serial(streams[1]),
            _serial(streams[2], cleaner=OracleCleaner())]
    shared = MaskCleaner(open_radius=0, close_radius=2, min_area=6)
    pipes = [
        SurveillancePipeline((64, 96), PARAMS, warmup_frames=5,
                             cleaner=shared),
        SurveillancePipeline((64, 96), PARAMS, warmup_frames=5,
                             cleaner=shared),
        SurveillancePipeline((64, 96), PARAMS, warmup_frames=5,
                             cleaner=lambda raw: clean_mask(raw, 0, 2, 6)),
    ]
    cleaned = threading.Barrier(2, timeout=30)
    for pipe in pipes[:2]:
        pipe.cleaner = _Rendezvous(pipe.cleaner, cleaned)
    got: list[list] = [[], [], []]
    errors: list[BaseException] = []
    start = threading.Barrier(len(pipes), timeout=30)

    def worker(k):
        try:
            for frame in streams[k]:
                start.wait()  # every frame starts on all threads at once
                got[k].append(pipes[k].step(frame).mask)
        except BaseException as exc:  # surfaced by the assert below
            errors.append(exc)
            start.abort()
            cleaned.abort()

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,), daemon=True)
                   for k in range(len(pipes))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for k, (masks_want, history_want) in enumerate(want):
        assert len(got[k]) == n
        for t in range(n):
            assert np.array_equal(got[k][t], masks_want[t]), (k, t)
        assert track_history(pipes[k].tracker) == history_want, k
