"""Global configuration defaults for the repro library.

These constants centralize the handful of magic numbers that appear
throughout the paper's methodology (block/page sizes, stride thresholds,
ILP window sizes) as well as reproduction-level knobs (trace lengths,
seeds).  Experiments read them through :class:`ReproConfig` so individual
runs can override values without mutating module state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from .errors import ConfigurationError

#: Cache-block granularity used for working-set analysis (paper: 32 bytes).
BLOCK_BYTES = 32

#: Page granularity used for working-set analysis (paper: 4 KB).
PAGE_BYTES = 4096

#: Idealized out-of-order window sizes for the ILP characteristics
#: (paper Table II, characteristics 7-10).
ILP_WINDOW_SIZES: Tuple[int, ...] = (32, 64, 128, 256)

#: Cumulative register-dependency-distance thresholds
#: (paper Table II, characteristics 13-19).
REG_DEP_THRESHOLDS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)

#: Cumulative data-stride thresholds (paper Table II, characteristics
#: 24-43; applied to local/global x load/store streams).
STRIDE_THRESHOLDS: Tuple[int, ...] = (0, 8, 64, 512, 4096)

#: Classification threshold used throughout section IV: a distance is
#: "large" when it exceeds this fraction of the maximum observed distance.
SIMILARITY_THRESHOLD_FRACTION = 0.20

#: Range of K values explored for k-means clustering (paper section VI).
KMEANS_K_RANGE: Tuple[int, int] = (1, 70)

#: Fraction of the maximum BIC score that the chosen K must reach
#: (paper section VI: "within 90% of the maximum score").
BIC_SCORE_FRACTION = 0.90

#: Default number of dynamic instructions generated per benchmark when
#: building the full experiment dataset.
DEFAULT_TRACE_LENGTH = 100_000

#: Shorter trace length for unit tests and smoke runs.
SMOKE_TRACE_LENGTH = 20_000

#: Base seed from which per-benchmark seeds are derived.
GLOBAL_SEED = 20061027  # IISWC 2006 conference date.


@dataclass(frozen=True)
class ReproConfig:
    """Run-level configuration for dataset construction and experiments.

    Instances are immutable; derive variants with :meth:`with_overrides`.
    """

    trace_length: int = DEFAULT_TRACE_LENGTH
    seed: int = GLOBAL_SEED
    block_bytes: int = BLOCK_BYTES
    page_bytes: int = PAGE_BYTES
    ilp_window_sizes: Tuple[int, ...] = ILP_WINDOW_SIZES
    reg_dep_thresholds: Tuple[int, ...] = REG_DEP_THRESHOLDS
    stride_thresholds: Tuple[int, ...] = STRIDE_THRESHOLDS
    similarity_threshold: float = SIMILARITY_THRESHOLD_FRACTION
    kmeans_k_range: Tuple[int, int] = KMEANS_K_RANGE
    bic_score_fraction: float = BIC_SCORE_FRACTION
    ppm_max_order: int = 4
    ga_generations: int = 60
    ga_population: int = 64
    ga_seed: int = 42

    def __post_init__(self) -> None:
        if self.trace_length <= 0:
            raise ConfigurationError("trace_length must be positive")
        if self.block_bytes <= 0 or self.block_bytes & (self.block_bytes - 1):
            raise ConfigurationError("block_bytes must be a positive power of two")
        if self.page_bytes <= 0 or self.page_bytes & (self.page_bytes - 1):
            raise ConfigurationError("page_bytes must be a positive power of two")
        if not 0.0 < self.similarity_threshold < 1.0:
            raise ConfigurationError("similarity_threshold must be in (0, 1)")
        if not 0.0 < self.bic_score_fraction <= 1.0:
            raise ConfigurationError("bic_score_fraction must be in (0, 1]")
        lo, hi = self.kmeans_k_range
        if lo < 1 or hi < lo:
            raise ConfigurationError("kmeans_k_range must satisfy 1 <= lo <= hi")
        for name, default in (
            ("ilp_window_sizes", ILP_WINDOW_SIZES),
            ("reg_dep_thresholds", REG_DEP_THRESHOLDS),
            ("stride_thresholds", STRIDE_THRESHOLDS),
        ):
            # Table II fixes the section widths: the 47-value schema
            # has exactly this many columns for each tuple.
            values = getattr(self, name)
            try:
                length = len(values)
            except TypeError:
                raise ConfigurationError(
                    f"{name} must be a sequence of {len(default)} integers"
                ) from None
            if length != len(default):
                raise ConfigurationError(
                    f"{name} must have {len(default)} values, got {length}"
                )
        if any(window < 1 for window in self.ilp_window_sizes):
            raise ConfigurationError("ilp_window_sizes must all be >= 1")
        if self.ppm_max_order < 1:
            raise ConfigurationError("ppm_max_order must be >= 1")
        if self.ga_generations < 1 or self.ga_population < 2:
            raise ConfigurationError("GA needs >=1 generation and >=2 individuals")

    def with_overrides(self, **kwargs) -> "ReproConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def characterization_fingerprint(self) -> str:
        """Stable hex digest of the fields that shape a MICA vector.

        Two configs with the same fingerprint produce identical
        47-dimensional vectors for the same trace, so the digest (plus
        the trace's generation recipe) keys the on-disk characterization
        cache in :mod:`repro.perf`.  Fields that only affect trace *generation*
        or downstream analyses (trace length, seeds, GA knobs) are
        deliberately excluded.
        """
        import hashlib

        payload = repr((
            self.block_bytes,
            self.page_bytes,
            tuple(self.ilp_window_sizes),
            tuple(self.reg_dep_thresholds),
            tuple(self.stride_thresholds),
            self.ppm_max_order,
        ))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


#: A conservative configuration for fast tests.
SMOKE_CONFIG = ReproConfig(
    trace_length=SMOKE_TRACE_LENGTH,
    ga_generations=15,
    ga_population=24,
)

DEFAULT_CONFIG = ReproConfig()
