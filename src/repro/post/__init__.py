"""Foreground-mask post-processing (deployment-side cleanup)."""

from .analytics import (
    FusedFrame,
    background_estimate,
    integral_histogram,
    occupancy_heatmap,
    record_fused_telemetry,
    region_counts,
    run_fused_stages,
)
from .morphology import (
    MaskCleaner,
    clean_mask,
    connected_components,
    label_and_measure,
)
from .shadows import ShadowParams, detect_shadows, suppress_shadows

__all__ = [
    "FusedFrame",
    "MaskCleaner",
    "background_estimate",
    "clean_mask",
    "connected_components",
    "integral_histogram",
    "label_and_measure",
    "occupancy_heatmap",
    "record_fused_telemetry",
    "region_counts",
    "run_fused_stages",
    "ShadowParams",
    "detect_shadows",
    "suppress_shadows",
]
