"""Characteristic timelines: MICA over execution time.

Joshi et al. (IEEE TC 2006) and the phase literature study how inherent
characteristics *evolve within a run*.  This module computes selected
Table II characteristics per interval, producing a timeline matrix that
quantifies behavioral drift — the within-benchmark analogue of the
cross-benchmark workload space.

Only interval-computable characteristics are supported (the global
working-set counts are cumulative by definition and are reported as
per-interval unique counts instead).

Two implementations are provided:

* :func:`mica_timeline` — the production path, backed by the segmented
  interval-characterization engine
  (:func:`repro.mica.segmented_characterize` via
  :func:`repro.phases.engine.interval_characteristics`): one pass over
  the full trace, computing only the Table II sections the requested
  keys need.
* :func:`mica_timeline_reference` — the per-chunk loop over the
  Table II specifications (the scalar ILP, PPM and producer-recovery
  references included), retained as the executable specification
  (``tests/test_phases_segmented_equivalence.py`` pins the engine to it
  bit-for-bit).  It too computes only the needed sections: requesting
  ``mix_loads`` alone must not run PPM or ILP on every chunk in either
  implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import DEFAULT_CONFIG, ReproConfig
from ..mica.characteristics import NUM_CHARACTERISTICS, category_slices
from ..mica.ilp import ilp_ipc_reference, producer_indices_reference
from ..mica.instruction_mix import instruction_mix
from ..mica.ppm import ppm_predictabilities_reference
from ..mica.register_traffic import register_traffic
from ..mica.strides import stride_profile
from ..mica.working_set import working_set
from ..trace import Trace
from .engine import interval_characteristics, resolve_keys
from .intervals import split_intervals

#: Characteristics cheap enough to compute per interval by default —
#: one per Table II category.
DEFAULT_TIMELINE_KEYS = (
    "mix_loads",
    "ilp_w32",
    "reg_dep_le8",
    "ws_data_blocks",
    "stride_local_load_le8",
    "ppm_GAg",
)


@dataclass(frozen=True)
class CharacteristicTimeline:
    """Per-interval characteristic values for one trace.

    Attributes:
        keys: characteristic keys (columns).
        values: (intervals x keys) matrix.
        interval: instructions per interval.
    """

    keys: "tuple[str, ...]"
    values: np.ndarray
    interval: int

    def drift(self) -> np.ndarray:
        """Coefficient of variation per characteristic (0 = steady).

        Characteristics whose mean is zero report zero drift.
        """
        means = self.values.mean(axis=0)
        stds = self.values.std(axis=0)
        result = np.zeros(len(self.keys))
        nonzero = means != 0.0
        result[nonzero] = stds[nonzero] / np.abs(means[nonzero])
        return result

    def format(self, width: int = 40) -> str:
        """Sparkline-style rendering, one row per characteristic."""
        ramp = " .:-=+*#%@"
        lines = [
            f"characteristic timeline "
            f"({len(self.values)} intervals x {self.interval:,} instr)"
        ]
        for column, key in enumerate(self.keys):
            series = self.values[:, column]
            low, high = float(series.min()), float(series.max())
            spread = high - low
            if spread == 0.0:
                bars = ramp[1] * min(len(series), width)
            else:
                resampled = np.interp(
                    np.linspace(0, len(series) - 1, min(len(series), width)),
                    np.arange(len(series)),
                    series,
                )
                levels = (
                    (resampled - low) / spread * (len(ramp) - 1)
                ).round().astype(int)
                bars = "".join(ramp[level] for level in levels)
            lines.append(f"  {key:<24} |{bars}| "
                         f"[{low:.3g} .. {high:.3g}]")
        return "\n".join(lines)


def mica_timeline(
    trace: Trace,
    interval: int = 10_000,
    keys: Sequence[str] = DEFAULT_TIMELINE_KEYS,
    config: ReproConfig = DEFAULT_CONFIG,
) -> CharacteristicTimeline:
    """Compute selected characteristics for every interval of a trace.

    One pass of the segmented engine over the full trace — no per-chunk
    re-characterization — computing only the Table II sections the
    requested keys need.  Bit-identical to
    :func:`mica_timeline_reference`.

    Args:
        trace: the dynamic instruction trace.
        interval: instructions per interval.
        keys: Table II characteristic keys to track.
        config: characterization parameters.

    Raises:
        AnalysisError: on unknown keys, an empty key list, a
            non-positive interval, or a trace shorter than two
            intervals.
    """
    values = interval_characteristics(trace, interval, keys, config)
    return CharacteristicTimeline(
        keys=tuple(keys),
        values=values,
        interval=interval,
    )


def _chunk_sections(
    chunk: Trace, categories: "tuple[str, ...]", config: ReproConfig
) -> np.ndarray:
    """One chunk's Table II sections from the specifications.

    ILP, branch predictability and the producer recovery that ILP and
    register traffic share come from the scalar ``*_reference``
    functions, not from the engine's kernels, so the engine is checked
    against an independent oracle; the other four sections' functions
    are their only specifications.  Unrequested sections are left
    ``NaN``.
    """
    slices = category_slices()
    row = np.full(NUM_CHARACTERISTICS, np.nan)
    producers = None
    if "ILP" in categories or "register traffic" in categories:
        producers = producer_indices_reference(chunk)
    if "instruction mix" in categories:
        row[slices["instruction mix"]] = instruction_mix(chunk)
    if "ILP" in categories:
        row[slices["ILP"]] = ilp_ipc_reference(
            chunk, config.ilp_window_sizes, producers=producers
        )
    if "register traffic" in categories:
        row[slices["register traffic"]] = register_traffic(
            chunk, config.reg_dep_thresholds, producers=producers
        )
    if "working set size" in categories:
        row[slices["working set size"]] = working_set(
            chunk, config.block_bytes, config.page_bytes
        )
    if "data stream strides" in categories:
        row[slices["data stream strides"]] = stride_profile(
            chunk, config.stride_thresholds
        )
    if "branch predictability" in categories:
        row[slices["branch predictability"]] = (
            ppm_predictabilities_reference(chunk, config.ppm_max_order)
        )
    return row


def mica_timeline_reference(
    trace: Trace,
    interval: int = 10_000,
    keys: Sequence[str] = DEFAULT_TIMELINE_KEYS,
    config: ReproConfig = DEFAULT_CONFIG,
) -> CharacteristicTimeline:
    """Per-chunk timeline — the executable specification.

    Slices the trace into intervals and runs the Table II specifications
    on every chunk (restricted to the sections the requested keys
    need): the scalar ILP, PPM and producer-recovery references plus
    the other sections' functions.  Retained for the equivalence tests
    and the perf harness; the segmented :func:`mica_timeline` must
    match it bit-for-bit.
    """
    indices, categories = resolve_keys(keys)
    chunks = split_intervals(trace, interval)
    rows = [
        _chunk_sections(chunk, categories, config)[indices]
        for chunk in chunks
    ]
    return CharacteristicTimeline(
        keys=tuple(keys),
        values=np.vstack(rows),
        interval=interval,
    )
