"""Segmented (per-interval) MICA characterization engine.

:func:`segmented_characterize` computes Table II characteristic
*sections* for every fixed-length interval of a trace in one pass over
the full column arrays.  It is the library's one Table II engine:
:func:`repro.mica.characterize` is this engine over a single interval
spanning the whole trace, and :func:`repro.phases.mica_timeline` runs it
over many.  Row ``i`` of the result is bit-identical to characterizing
``trace[i * interval : (i + 1) * interval]`` on its own, for every
requested section, without ever slicing the trace: the per-chunk loop
``repro.phases.mica_timeline_reference`` and the scalar ``*_reference``
specifications pin it.

The per-chunk semantics that must be reproduced exactly are *state
restarts* at interval boundaries: producer tracking, PPM count tables
and branch histories, stride adjacency, unique-count sets and window
partitions all start cold at the first instruction of each chunk.  Each
analyzer family gets there differently:

* **mix / working set / strides** — pure segmented unique/group counts:
  opclass and address streams are keyed by interval id and reduced with
  ``bincount`` / lexsorted group-boundary counting; stride adjacency
  masks drop pairs that straddle an interval boundary.
* **ILP / register traffic** —
  :func:`~repro.mica.ilp.segmented_producer_indices` packs the interval
  id *above* the architected register number in the producer key
  stream, so a write in one interval is invisible to reads
  in the next (exactly a per-chunk producer restart); ILP windows are
  generated per interval (including the short trailing window of each
  chunk when ``interval % W != 0``) and walked offset-major once for
  all intervals and window sizes together
  (:func:`~repro.mica.ilp._segmented_window_cycles`).
* **PPM** — :func:`~repro.mica.ppm._interval_accuracies` packs the
  interval id above the (PC rank, context) keys of the vectorized
  predictor and keeps the global/local history streams from crossing
  an interval boundary, so tables *and* shift registers restart per
  chunk; the escape cascade then runs once over the whole branch
  stream.

The section kernels of ILP and PPM live in their own modules
(:mod:`repro.mica.ilp`, :mod:`repro.mica.ppm`), next to their scalar
specifications; this module holds the driver, the wanted-mask
resolution shared with the shard engine, and the other four sections.

All per-interval values end as exact integer-count ratios divided in
IEEE double precision, which is why bit-for-bit equality with the
per-chunk loop is achievable and asserted
(``tests/test_phases_segmented_equivalence.py``,
``tests/test_mica_engine_one_interval.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..config import DEFAULT_CONFIG, ReproConfig
from ..errors import CharacterizationError
from ..isa import NO_REG, OpClass
from ..trace import Trace
from .characteristics import NUM_CHARACTERISTICS, category_slices
from .ilp import (
    NO_PRODUCER,
    _full_interval_count,
    _segmented_window_cycles,
    segmented_producer_indices,
)
from .instruction_mix import MIX_CLASSES
from .ppm import (
    MAX_VECTOR_ORDER,
    VARIANTS,
    _interval_accuracies,
    ppm_predictabilities_reference,
)
from .working_set import _granularity_shift

_SLICES = category_slices()

#: The six Table II section names, in schema order.  ``categories``
#: arguments are validated against this tuple.
SECTION_ORDER: Tuple[str, ...] = tuple(_SLICES)


def resolve_wanted(
    categories: "Optional[Iterable[str]]" = None,
    indices: "Optional[Iterable[int]]" = None,
) -> np.ndarray:
    """The 47-entry mask of the characteristics a request asks for.

    Everything is wanted when neither argument is given; otherwise the
    union of the named Table II categories and the 0-based indices.

    Raises:
        CharacterizationError: unknown category name or out-of-range
            characteristic index.
    """
    wanted = np.zeros(NUM_CHARACTERISTICS, dtype=bool)
    if categories is None and indices is None:
        wanted[:] = True
        return wanted
    if categories is not None:
        categories = tuple(categories)
        unknown = set(categories) - set(SECTION_ORDER)
        if unknown:
            raise CharacterizationError(
                f"unknown Table II categories: {sorted(unknown)}"
            )
        for category in categories:
            wanted[_SLICES[category]] = True
    if indices is not None:
        for index in indices:
            if not 0 <= int(index) < NUM_CHARACTERISTICS:
                raise CharacterizationError(
                    f"characteristic index out of range: {index}"
                )
            wanted[int(index)] = True
    return wanted


def wanted_sections(wanted: np.ndarray) -> Tuple[str, ...]:
    """The Table II categories a wanted mask touches, in vector order."""
    return tuple(
        name for name in SECTION_ORDER if wanted[_SLICES[name]].any()
    )


class _SegmentedContext:
    """Shared per-call state: sliced columns, interval ids, producers.

    Everything here is derived from the leading ``count * interval``
    instructions of the trace (the trailing partial interval is dropped,
    as in :func:`repro.phases.split_intervals`) and computed lazily so
    that a call requesting only cheap sections never pays for producer
    recovery.
    """

    def __init__(self, trace: Trace, interval: int, count: int):
        self.trace = trace
        self.interval = interval
        self.count = count
        self.n = count * interval
        self._cache: Dict[str, object] = {}

    def _cached(self, key: str, compute):
        value = self._cache.get(key)
        if value is None:
            value = compute()
            self._cache[key] = value
        return value

    def column(self, field: str) -> np.ndarray:
        return self._cached(
            f"col:{field}", lambda: getattr(self.trace, field)[: self.n]
        )

    @property
    def interval_index(self) -> np.ndarray:
        """Interval id of every instruction, shape ``(n,)`` int64."""
        return self._cached(
            "interval_index",
            lambda: np.repeat(
                np.arange(self.count, dtype=np.int64), self.interval
            ),
        )

    @property
    def interval_starts(self) -> np.ndarray:
        return self._cached(
            "interval_starts",
            lambda: np.arange(self.count, dtype=np.int64) * self.interval,
        )

    @property
    def producers(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._cached(
            "producers", lambda: segmented_producer_indices(
                self.trace, self.interval, self.count
            )
        )


# -- section engines ------------------------------------------------------


def _segmented_mix(ctx: _SegmentedContext) -> np.ndarray:
    """Per-interval instruction-mix fractions, shape ``(count, 6)``."""
    classes = ctx.column("opclass").astype(np.int64)
    keys = ctx.interval_index * len(OpClass) + classes
    counts = np.bincount(
        keys, minlength=ctx.count * len(OpClass)
    ).reshape(ctx.count, len(OpClass))
    return counts[:, MIX_CLASSES] / float(ctx.interval)


def _segmented_ilp(
    ctx: _SegmentedContext,
    window_sizes: Sequence[int],
    wanted: np.ndarray,
) -> np.ndarray:
    """Per-interval idealized IPC, shape ``(count, len(window_sizes))``.

    Window sizes are mutually independent, so only the requested ones
    are walked (``ilp_w32`` alone costs one 32-offset sweep, not four);
    unrequested columns stay ``NaN``.
    """
    producer1, producer2 = ctx.producers
    needed = [
        int(window)
        for position, window in enumerate(window_sizes)
        if wanted[position]
    ]
    cycles = _segmented_window_cycles(
        producer1, producer2, ctx.count, ctx.interval, needed
    )
    result = np.full((ctx.count, len(window_sizes)), np.nan)
    for position, window in enumerate(window_sizes):
        if not wanted[position]:
            continue
        window_cycles = cycles[int(window)]
        result[:, position] = np.divide(
            ctx.interval,
            window_cycles,
            out=np.zeros(ctx.count),
            where=window_cycles > 0,
        )
    return result


def _cumulative_threshold_counts(
    values: np.ndarray,
    interval_ids: np.ndarray,
    count: int,
    thresholds: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Per interval: total values, and how many are ``<= t`` per ``t``.

    For ascending thresholds (the paper's, and every config default)
    each value is bucketed once with a tiny binary search and the whole
    cumulative table falls out of one ``bincount`` plus a row cumsum —
    instead of one full-array mask and ``bincount`` per threshold.
    Unsorted thresholds fall back to the per-threshold masks.

    Returns:
        ``(totals, below)`` int64 arrays of shapes ``(count,)`` and
        ``(count, len(thresholds))``.
    """
    bounds = np.asarray(thresholds, dtype=np.int64)
    if len(values) == 0:
        return (
            np.zeros(count, dtype=np.int64),
            np.zeros((count, len(bounds)), dtype=np.int64),
        )
    if len(bounds) and np.all(np.diff(bounds) > 0):
        buckets = np.searchsorted(bounds, values, side="left")
        table = np.bincount(
            interval_ids * (len(bounds) + 1) + buckets,
            minlength=count * (len(bounds) + 1),
        ).reshape(count, len(bounds) + 1)
        cumulative = np.cumsum(table, axis=1)
        return cumulative[:, -1], cumulative[:, :-1]
    totals = np.bincount(interval_ids, minlength=count)
    below = np.empty((count, len(bounds)), dtype=np.int64)
    for position, bound in enumerate(bounds):
        below[:, position] = np.bincount(
            interval_ids[values <= bound], minlength=count
        )
    return totals, below


def _segmented_register_traffic(
    ctx: _SegmentedContext, thresholds: Sequence[int]
) -> np.ndarray:
    """Per-interval register traffic, shape ``(count, 2 + thresholds)``."""
    count, interval = ctx.count, ctx.interval
    src1 = ctx.column("src1")
    src2 = ctx.column("src2")
    dst = ctx.column("dst")
    interval_index = ctx.interval_index

    operand_count = (src1 != NO_REG).astype(np.int64) + (
        src2 != NO_REG
    ).astype(np.int64)
    result = np.zeros((count, 2 + len(thresholds)))
    result[:, 0] = (
        np.add.reduceat(operand_count, ctx.interval_starts)
        / float(interval)
    )

    total_writes = np.bincount(
        interval_index[dst != NO_REG], minlength=count
    )
    producer1, producer2 = ctx.producers
    distances: List[np.ndarray] = []
    distance_intervals: List[np.ndarray] = []
    for producer in (producer1, producer2):
        consumers = np.flatnonzero(producer != NO_PRODUCER)
        distances.append(consumers - producer[consumers])
        distance_intervals.append(interval_index[consumers])
    all_distances = np.concatenate(distances)
    all_intervals = np.concatenate(distance_intervals)

    total_pairs, below = _cumulative_threshold_counts(
        all_distances, all_intervals, count, thresholds
    )
    # A (write, read) pair exists exactly when a read has a producer,
    # so the consumed-read counts are the distance totals.
    result[:, 1] = np.divide(
        total_pairs,
        total_writes,
        out=np.zeros(count),
        where=total_writes > 0,
    )
    result[:, 2:] = np.divide(
        below,
        total_pairs[:, None],
        out=np.zeros((count, len(thresholds))),
        where=total_pairs[:, None] > 0,
    )
    return result


#: Presence-table budget for the dense unique-count path (cells).
_DENSE_UNIQUE_CELLS = 1 << 22


def _segmented_unique_counts(
    values: np.ndarray, interval_ids: np.ndarray, count: int
) -> np.ndarray:
    """Unique ``values`` per interval id (segmented ``len(np.unique)``).

    Three strategies, cheapest applicable first: a dense
    (interval x value) presence table for narrow value domains (one
    ``bincount``, no sorting — working-set block/page ids are usually
    tiny), one packed-key ``np.sort`` when ``(interval, value)`` fits
    63 bits (values only — no permutation needed just to count), and a
    two-key ``lexsort`` for arbitrary 64-bit values.
    """
    if len(values) == 0:
        return np.zeros(count)
    peak = int(values.max())
    if (peak + 1) * count <= _DENSE_UNIQUE_CELLS:
        table = np.bincount(
            interval_ids * (peak + 1) + values.astype(np.int64),
            minlength=count * (peak + 1),
        ).reshape(count, peak + 1)
        return (table > 0).sum(axis=1).astype(float)
    value_bits = peak.bit_length()
    interval_bits = max(1, (count - 1).bit_length())
    if value_bits + interval_bits <= 63:
        packed = np.sort(
            (interval_ids << np.int64(value_bits))
            | values.astype(np.int64)
        )
        first = np.ones(len(packed), dtype=bool)
        first[1:] = packed[1:] != packed[:-1]
        return np.bincount(
            (packed >> np.int64(value_bits))[first], minlength=count
        ).astype(float)
    order = np.lexsort((values, interval_ids))
    sorted_values = values[order]
    sorted_ids = interval_ids[order]
    first = np.ones(len(values), dtype=bool)
    first[1:] = (sorted_ids[1:] != sorted_ids[:-1]) | (
        sorted_values[1:] != sorted_values[:-1]
    )
    return np.bincount(sorted_ids[first], minlength=count).astype(float)


def _segmented_working_set(
    ctx: _SegmentedContext,
    block_bytes: int,
    page_bytes: int,
    wanted: np.ndarray,
) -> np.ndarray:
    """Per-interval working-set counts, shape ``(count, 4)``.

    Each of the four columns is an independent unique count; only the
    requested ones are computed (and the data stream is only gathered
    when a data column needs it).  Unrequested columns stay ``NaN``.
    """
    # Table II order: D blocks, D pages, I blocks, I pages.
    result = np.full((ctx.count, 4), np.nan)
    if wanted[0] or wanted[1]:
        memory_mask = ctx.trace.memory_mask[: ctx.n]
        data_addresses = ctx.column("mem_addr")[memory_mask]
        data_intervals = ctx.interval_index[memory_mask]
    for column, (is_data, granularity) in enumerate(
        ((True, block_bytes), (True, page_bytes),
         (False, block_bytes), (False, page_bytes))
    ):
        if not wanted[column]:
            continue
        shift = _granularity_shift(granularity)
        addresses = data_addresses if is_data else ctx.column("pc")
        interval_ids = (
            data_intervals if is_data else ctx.interval_index
        )
        result[:, column] = _segmented_unique_counts(
            addresses >> shift, interval_ids, ctx.count
        )
    return result


def _segmented_cumulative_profile(
    strides: np.ndarray,
    interval_ids: np.ndarray,
    count: int,
    thresholds: Sequence[int],
) -> np.ndarray:
    """Per-interval ``P(|stride| <= t)`` profile, zeros where empty."""
    if len(strides) == 0:
        return np.zeros((count, len(thresholds)))
    totals, below = _cumulative_threshold_counts(
        np.abs(strides), interval_ids, count, thresholds
    )
    return np.divide(
        below,
        totals[:, None],
        out=np.zeros((count, len(thresholds))),
        where=totals[:, None] > 0,
    )


def _segmented_strides(
    ctx: _SegmentedContext,
    thresholds: Sequence[int],
    wanted: np.ndarray,
) -> np.ndarray:
    """Per-interval stride profiles, shape ``(count, 4 * thresholds)``.

    The four (scope, op) distributions are independent; only the
    requested ones are built — ``stride_local_load_*`` alone costs one
    load-stream grouping, no store work and no global diffs.
    Unrequested columns stay ``NaN``.
    """
    width = len(thresholds)
    # Table II order: local load, global load, local store, global store.
    result = np.full((ctx.count, 4 * width), np.nan)
    for stream, mask_name in enumerate(("load_mask", "store_mask")):
        local_slice = slice(2 * stream * width, (2 * stream + 1) * width)
        global_slice = slice(
            (2 * stream + 1) * width, (2 * stream + 2) * width
        )
        need_local = wanted[local_slice].any()
        need_global = wanted[global_slice].any()
        if not (need_local or need_global):
            continue
        mask = getattr(ctx.trace, mask_name)[: ctx.n]
        addresses = ctx.column("mem_addr")[mask].astype(np.int64)
        interval_ids = ctx.interval_index[mask]
        empty = np.empty(0, dtype=np.int64)

        if need_local:
            if len(addresses) < 2:
                local, local_ids = empty, empty
            else:
                # Local strides: stable (interval, PC) grouping keeps
                # time order within each static instruction per chunk.
                pcs = ctx.column("pc")[mask]
                order = np.lexsort((pcs, interval_ids))
                sorted_pcs = pcs[order]
                sorted_ids = interval_ids[order]
                deltas = np.diff(addresses[order])
                same_pc = (sorted_pcs[1:] == sorted_pcs[:-1]) & (
                    sorted_ids[1:] == sorted_ids[:-1]
                )
                local = deltas[same_pc]
                local_ids = sorted_ids[1:][same_pc]
            result[:, local_slice] = _segmented_cumulative_profile(
                local, local_ids, ctx.count, thresholds
            )
        if need_global:
            if len(addresses) < 2:
                global_, global_ids = empty, empty
            else:
                # Global strides: temporally adjacent same-kind accesses
                # that do not straddle an interval boundary.
                same_interval = interval_ids[1:] == interval_ids[:-1]
                global_ = np.diff(addresses)[same_interval]
                global_ids = interval_ids[1:][same_interval]
            result[:, global_slice] = _segmented_cumulative_profile(
                global_, global_ids, ctx.count, thresholds
            )
    return result


def _segmented_ppm_reference(
    ctx: _SegmentedContext, max_order: int
) -> np.ndarray:
    """Per-chunk fallback for key widths the packed engine cannot hold."""
    rows = [
        ppm_predictabilities_reference(
            ctx.trace[start : start + ctx.interval], max_order
        )
        for start in ctx.interval_starts
    ]
    return np.vstack(rows)


def _segmented_ppm(
    ctx: _SegmentedContext, max_order: int, wanted: np.ndarray
) -> np.ndarray:
    """Per-interval PPM accuracies, shape ``(count, 4)``.

    Only the requested variants run (see
    :func:`repro.mica.ppm._interval_accuracies`); unrequested columns
    stay ``NaN``.
    """
    if max_order < 1:
        raise CharacterizationError("max_order must be >= 1")
    if max_order > MAX_VECTOR_ORDER:
        result = np.full((ctx.count, len(VARIANTS)), np.nan)
        reference = _segmented_ppm_reference(ctx, max_order)
        result[:, wanted] = reference[:, wanted]
        return result
    branch_positions = np.flatnonzero(ctx.trace.branch_mask[: ctx.n])
    return _interval_accuracies(
        ctx.column("pc")[branch_positions],
        ctx.column("taken")[branch_positions].astype(bool),
        ctx.interval_index[branch_positions],
        ctx.count,
        max_order,
        wanted,
    )


# -- driver ---------------------------------------------------------------


def segmented_characterize(
    trace: Trace,
    interval: int,
    config: ReproConfig = DEFAULT_CONFIG,
    categories: "Optional[Iterable[str]]" = None,
    indices: "Optional[Iterable[int]]" = None,
) -> np.ndarray:
    """Per-interval Table II characteristics in one pass over the trace.

    Args:
        trace: the dynamic instruction trace (the trailing partial
            interval, if any, is dropped).
        interval: instructions per interval.
        config: characterization parameters (window sizes, thresholds,
            granularities, PPM order).
        categories: Table II category names to compute.
        indices: 0-based characteristic indices (Table II order) to
            compute — finer than ``categories``: independent columns of
            a section (ILP window sizes, PPM variants, stride streams,
            working-set columns) are only computed when requested, so a
            single-key timeline pays for one window sweep or one
            predictor variant, not four.  Merged with ``categories``
            when both are given; everything is computed when neither
            is.

    Returns:
        ``(intervals x 47)`` matrix.  Requested entries are
        bit-identical to characterizing each chunk separately;
        unrequested entries are ``NaN``, except within a requested
        section where computing a sibling column costs nothing extra
        (mix fractions, register traffic) — those carry their exact
        values too.

    Raises:
        CharacterizationError: on a non-integer or non-positive
            interval, a trace shorter than one interval, an unknown
            category name, or an out-of-range index.
    """
    interval, count = _full_interval_count(trace, interval)
    wanted = resolve_wanted(categories, indices)
    values = np.full((count, NUM_CHARACTERISTICS), np.nan)
    ctx = _SegmentedContext(trace, interval, count)
    mix_slice = _SLICES["instruction mix"]
    if wanted[mix_slice].any():
        values[:, mix_slice] = _segmented_mix(ctx)
    ilp_slice = _SLICES["ILP"]
    if wanted[ilp_slice].any():
        values[:, ilp_slice] = _segmented_ilp(
            ctx, config.ilp_window_sizes, wanted[ilp_slice]
        )
    reg_slice = _SLICES["register traffic"]
    if wanted[reg_slice].any():
        values[:, reg_slice] = _segmented_register_traffic(
            ctx, config.reg_dep_thresholds
        )
    ws_slice = _SLICES["working set size"]
    if wanted[ws_slice].any():
        values[:, ws_slice] = _segmented_working_set(
            ctx, config.block_bytes, config.page_bytes, wanted[ws_slice]
        )
    stride_slice = _SLICES["data stream strides"]
    if wanted[stride_slice].any():
        values[:, stride_slice] = _segmented_strides(
            ctx, config.stride_thresholds, wanted[stride_slice]
        )
    ppm_slice = _SLICES["branch predictability"]
    if wanted[ppm_slice].any():
        values[:, ppm_slice] = _segmented_ppm(
            ctx, config.ppm_max_order, wanted[ppm_slice]
        )
    return values
