"""Shared utilities: errors, validation helpers, deterministic RNG and
sort-based distinct counts.

These are deliberately small and dependency-free so every other subpackage
(tensor substrate, formats, simulator, baselines) can rely on them without
import cycles.
"""

from repro.util.arrays import count_distinct, sorted_distinct
from repro.util.errors import (
    ReproError,
    ShapeError,
    FormatError,
    ConfigError,
    KernelError,
)
from repro.util.rng import make_rng, derive_seed, uniform
from repro.util.validation import (
    check_index,
    check_mode,
    check_positive,
    check_shape_match,
)

__all__ = [
    "ReproError",
    "ShapeError",
    "FormatError",
    "ConfigError",
    "KernelError",
    "make_rng",
    "derive_seed",
    "uniform",
    "check_index",
    "check_mode",
    "check_positive",
    "check_shape_match",
    "count_distinct",
    "sorted_distinct",
]
