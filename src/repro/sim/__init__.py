"""Discrete-event simulation engine and system configuration."""

from .config import (
    GPU_PAGE_SIZE,
    KiB,
    MiB,
    GiB,
    GB,
    TB,
    FirstTouchPolicy,
    Location,
    Processor,
    SystemConfig,
)
from .calibration import (
    Anchor,
    calibration_report,
    check_calibration,
    derive_anchors,
)
from .engine import SimClock, Stopwatch

__all__ = [
    "SystemConfig",
    "Processor",
    "Location",
    "FirstTouchPolicy",
    "SimClock",
    "Stopwatch",
    "Anchor",
    "derive_anchors",
    "check_calibration",
    "calibration_report",
    "GPU_PAGE_SIZE",
    "KiB",
    "MiB",
    "GiB",
    "GB",
    "TB",
]
