"""Morphological cleanup of raw MoG foreground masks, and the one
label-and-measure pass that cleanup and tracking share.

Raw per-pixel background subtraction is noisy: isolated salt pixels
from the sensor-noise tail, and pinholes inside objects whose interior
happens to match a background component. The classical remedy, applied
by every deployment the paper's introduction lists, is a morphological
open (remove speckles) followed by a close (fill holes) and a minimum
blob size.

Both halves are written for this one job rather than taken from
generic :mod:`scipy.ndimage` calls, and both are exact:

* Opening and closing with a disk are shift-reduces: a dilation ORs,
  an erosion ANDs, the zero-padded mask over the disk's offsets.
  Boolean OR and AND give the same answer in any order, so the result
  equals ``ndimage.binary_opening`` / ``binary_closing`` (whose border
  value is also 0) bit for bit.
* :func:`label_and_measure` labels a mask once and measures every blob
  from that one labelling: areas and centroids from ``bincount``,
  bounding boxes from ``find_objects``. A centroid is an integer sum
  divided once by the area; the sums stay far below 2**53, so float64
  holds them exactly in any order and the centroids equal
  ``ndimage.center_of_mass``.

:class:`MaskCleaner` runs the minimum-area filter through that pass
and keeps the measurements of its last output next to it, so a tracker
fed that output (:class:`repro.track.CentroidTracker` built with
``cleaner=``) reuses them instead of labelling the mask a second time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np
from scipy import ndimage

from ..errors import ConfigError


def _as_mask(mask) -> np.ndarray:
    """A new boolean copy of a 2-D mask (any nonzero is foreground)."""
    mask = np.asarray(mask) != 0
    if mask.ndim != 2:
        raise ConfigError(f"expected a 2-D mask, got shape {mask.shape}")
    return mask


def _shift_reduce(mask: np.ndarray, radius: int, op) -> np.ndarray:
    """Dilate (``op=np.logical_or``) or erode (``np.logical_and``) a
    boolean mask by the disk of ``radius``; pixels outside the frame
    count as background.

    The disk is a stack of rows: row ``dy`` spans columns
    ``-isqrt(r*r - dy*dy) .. +isqrt(r*r - dy*dy)``. Runs over
    half-width ``k`` are reduced once per ``k`` (two shifts on the run
    of ``k - 1``); the rows are then reduced vertically.
    """
    h, w = mask.shape
    r = radius
    padded = np.zeros((h + 2 * r, w + 2 * r), dtype=bool)
    padded[r:r + h, r:r + w] = mask
    runs = [padded[:, r:r + w]]
    for k in range(1, r + 1):
        runs.append(op(op(runs[-1], padded[:, r - k:r - k + w]),
                       padded[:, r + k:r + k + w]))
    out = runs[r][r:r + h].copy()
    for dy in range(1, r + 1):
        run = runs[isqrt(r * r - dy * dy)]
        op(out, run[r - dy:r - dy + h], out=out)
        op(out, run[r + dy:r + dy + h], out=out)
    return out


def _open_close(mask: np.ndarray, open_radius: int, close_radius: int):
    """Opening (erode, dilate) then closing (dilate, erode); a radius
    of 0 skips that step."""
    if open_radius > 0:
        mask = _shift_reduce(
            _shift_reduce(mask, open_radius, np.logical_and),
            open_radius, np.logical_or,
        )
    if close_radius > 0:
        mask = _shift_reduce(
            _shift_reduce(mask, close_radius, np.logical_or),
            close_radius, np.logical_and,
        )
    return mask


@dataclass(frozen=True)
class Component:
    """One connected foreground blob."""

    label: int
    area: int
    bbox: tuple[int, int, int, int]  # (top, left, bottom, right) exclusive
    centroid: tuple[float, float]


def _label_stats(mask: np.ndarray, min_area: int):
    """Label a boolean mask once, clear its blobs below ``min_area``
    in place, and measure the rest.

    Returns ``(mask, stats)``: ``stats`` has one float64 row per kept
    blob, in label order — area, top, left, bottom, right, row sum,
    column sum. Every value is an integer below 2**53, held exactly.
    """
    labels, count = ndimage.label(mask)
    if count == 0:
        return mask, np.empty((0, 7))
    flat = labels.reshape(-1)
    index = np.flatnonzero(flat)
    owner = flat[index]
    rows, cols = np.divmod(index, mask.shape[1])
    areas = np.bincount(owner, minlength=count + 1)
    sum_rows = np.bincount(owner, weights=rows, minlength=count + 1)
    sum_cols = np.bincount(owner, weights=cols, minlength=count + 1)
    keep = areas >= min_area
    keep[0] = False  # background label
    kept = np.flatnonzero(keep)
    if len(kept) < count:
        # Index by (row, column): the mask may be in any memory order.
        drop = ~keep[owner]
        mask[rows[drop], cols[drop]] = False
    slices = ndimage.find_objects(labels)
    boxes = [
        (sl[0].start, sl[1].start, sl[0].stop, sl[1].stop)
        for sl in map(slices.__getitem__, (kept - 1).tolist())
    ]
    stats = np.column_stack((
        areas[kept], np.reshape(boxes, (-1, 4)),
        sum_rows[kept], sum_cols[kept],
    ))
    return mask, stats


def _components(stats: np.ndarray) -> list[Component]:
    """:class:`Component` objects from :func:`_label_stats` rows,
    largest first. Dropping whole blobs leaves the others' raster order
    unchanged, so a kept blob's label in a fresh labelling of the kept
    mask is its row's rank: no second labelling is needed."""
    out = [
        Component(
            label=label,
            area=int(area),
            bbox=(int(top), int(left), int(bottom), int(right)),
            centroid=(row_sum / area, col_sum / area),
        )
        for label, (area, top, left, bottom, right, row_sum, col_sum)
        in enumerate(stats.tolist(), start=1)
    ]
    out.sort(key=lambda c: c.area, reverse=True)
    return out


def _clean(mask, open_radius: int, close_radius: int, min_area: int):
    """The one cleanup path: open, close, then the label-and-measure
    pass that drops blobs under ``min_area``. Returns ``(out, stats)``
    as :func:`_label_stats` does."""
    return _label_stats(
        _open_close(_as_mask(mask), open_radius, close_radius), min_area
    )


def label_and_measure(mask: np.ndarray) -> list[Component]:
    """Connected components of a mask, largest first, from one
    labelling: areas and centroids from ``bincount``, bounding boxes
    from ``find_objects``."""
    return _components(_label_stats(_as_mask(mask), 0)[1])


def clean_mask(
    mask: np.ndarray,
    open_radius: int = 1,
    close_radius: int = 2,
    min_area: int = 0,
) -> np.ndarray:
    """Clean a boolean foreground mask.

    Parameters
    ----------
    open_radius:
        Radius of the opening element (removes blobs thinner than
        roughly ``2*open_radius``); 0 skips the opening.
    close_radius:
        Radius of the closing element (fills holes/gaps narrower than
        roughly ``2*close_radius``); 0 skips the closing.
    min_area:
        Connected components smaller than this many pixels are dropped.

    Returns a new boolean mask; the input is untouched.
    """
    if min_area < 0:
        raise ConfigError(f"min_area must be non-negative, got {min_area}")
    return _clean(mask, open_radius, close_radius, min_area)[0]


def connected_components(mask: np.ndarray) -> list[Component]:
    """Connected components of a mask, largest first — the hand-off
    point to tracking/detection stages downstream of background
    subtraction. The same pass as :func:`label_and_measure`."""
    return label_and_measure(mask)


class MaskCleaner:
    """Configured cleanup pipeline for mask sequences.

    Each call also measures its output's blobs (the minimum-area
    filter needs the labelling anyway) and remembers the output with
    its measurements; :meth:`components_of` turns them into components
    for the tracker fed that output. Component objects are built only
    then: a warm-up frame of a hundred noise blobs, which no tracker
    reads, leaves seven numbers per blob behind rather than objects.
    """

    def __init__(
        self, open_radius: int = 1, close_radius: int = 2, min_area: int = 0
    ) -> None:
        if open_radius < 0 or close_radius < 0:
            raise ConfigError("radii must be non-negative")
        if min_area < 0:
            raise ConfigError("min_area must be non-negative")
        self.open_radius = open_radius
        self.close_radius = close_radius
        self.min_area = min_area
        self._last: tuple[np.ndarray, np.ndarray] | None = None

    def __call__(self, mask: np.ndarray) -> np.ndarray:
        out, stats = _clean(
            mask, self.open_radius, self.close_radius, self.min_area
        )
        # One tuple, assigned at once: a reader on another thread sees
        # either the old pair or the new one, never a mix.
        self._last = (out, stats)
        return out

    def components_of(self, mask) -> list[Component] | None:
        """The components of ``mask`` if it is this cleaner's last
        output — the same object, not modified since — else ``None``."""
        last = self._last
        if last is not None and last[0] is mask:
            return _components(last[1])
        return None

    def apply_sequence(self, masks) -> np.ndarray:
        cleaned = [self(m) for m in masks]
        if not cleaned:
            raise ConfigError("empty mask sequence")
        return np.stack(cleaned)
