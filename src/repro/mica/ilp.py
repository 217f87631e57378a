"""Inherent instruction-level parallelism (Table II, characteristics 7-10).

The paper measures the IPC achievable on an idealized out-of-order
processor: perfect caches, perfect branch prediction, unlimited
functional units, unit execution latency — the *only* constraints are
true register data dependencies and the instruction window.  We model
the window exactly as the MICA tool does: the trace is partitioned into
consecutive non-overlapping windows of W instructions; each window
executes in as many cycles as its dataflow critical path; IPC is the
instruction count divided by the summed critical-path lengths.

This module is the single home of the section's kernels, shared by
every engine:

* :func:`segmented_producer_indices` — register dataflow recovery: every
  source operand maps to the dynamic index of the instruction that
  produced the value (the most recent writer of that architected
  register *within its interval*), from one radix-grouped pass over the
  read and write streams.  :func:`producer_indices` is the whole trace
  as one interval; the retained per-register
  :func:`producer_indices_reference` is the executable specification.
* :func:`_segmented_window_cycles` — the critical-path walk of the
  segmented engine (:mod:`repro.mica.segmented`).  Windows of one size
  are mutually independent, so instead of walking the trace once per
  window size it walks window-relative *offsets* once (0..max(W)-1)
  and, at each offset, updates the dataflow depth of that position in
  **every** window of **every** requested size and interval with array
  gathers.  A producer always precedes its consumer, so by the time
  offset ``j`` is processed every in-window producer (offset < ``j``)
  already has its final depth.  :func:`ilp_ipc` is the whole trace as
  one interval.
* :func:`full_window_cycle_counts` — the same offset-major walk over an
  explicit list of full windows, for the shard engine
  (:mod:`repro.mica.shard`).
* :func:`ilp_ipc_reference` — the original per-instruction scalar loop,
  retained as the executable specification for the equivalence tests.
"""

from __future__ import annotations

import operator
from typing import Dict, Sequence, Tuple

import numpy as np

from ..errors import CharacterizationError
from ..isa import NO_REG
from ..isa.registers import FP_ZERO_REG, INT_ZERO_REG, TOTAL_REGS
from ..trace import Trace
from .ppm import _stable_key_order

#: Producer index used when a source has no producer in the trace.
NO_PRODUCER = -1


def _full_interval_count(trace: Trace, interval: int) -> Tuple[int, int]:
    """``(interval, count)``: the integer interval and its full chunks.

    MICA-layer validation for the interval-based entry points: the
    interval must be an integer (``operator.index``: ``numpy`` integers
    pass, floats and strings do not), positive, and cover the trace at
    least once.  Distinct from :func:`repro.phases.interval_count`, the
    phase layer's shared helper, which raises
    :class:`~repro.errors.AnalysisError` and additionally requires two
    intervals.

    Raises:
        CharacterizationError: on a non-integer or non-positive
            interval, or a trace shorter than one interval.
    """
    try:
        interval = operator.index(interval)
    except TypeError:
        raise CharacterizationError(
            f"interval must be an integer, got {interval!r}"
        ) from None
    if interval <= 0:
        raise CharacterizationError(
            f"interval must be positive, got {interval}"
        )
    count = len(trace) // interval
    if count < 1:
        raise CharacterizationError(
            f"trace too short: {len(trace)} instructions give no full "
            f"interval of {interval}"
        )
    return interval, count


#: Register liveness lookup: absent slots and the hardwired-zero
#: registers never have a producer.
_LIVE_SOURCE = np.ones(1 << 8, dtype=bool)
_LIVE_SOURCE[[NO_REG, INT_ZERO_REG, FP_ZERO_REG]] = False


def segmented_producer_indices(
    trace: Trace, interval: int, count: "int | None" = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-chunk producer recovery over the whole trace in one pass.

    Equivalent to running :func:`producer_indices` on every
    ``interval``-sized chunk independently, except that the returned
    producer positions are *global* trace indices (a producer and its
    consumer always share an interval, so consumer-minus-producer
    distances match the per-chunk values exactly).  A read whose most
    recent writer lives in an earlier interval has
    :data:`NO_PRODUCER`, reproducing the cold register state each chunk
    starts with.

    Both event streams are grouped by the segmented register —
    ``interval_id * TOTAL_REGS + register``, one radix pass over the
    narrow combined domain, never a 64-bit comparison sort — and the
    writes become an ascending ``group * (n + 1) + position`` key
    array.  Each read then finds its producer with one vectorized
    binary search (monotone on both sides, since the reads are grouped
    identically): the write immediately preceding the read's own key,
    provided it belongs to the same group.  An instruction's
    same-register write has exactly the read's key, so
    ``side="right"`` — inserting equal write keys *after* the read —
    keeps it invisible to its own reads.
    """
    if count is None:
        interval, count = _full_interval_count(trace, interval)
    n = count * interval
    src1 = trace.src1[:n]
    src2 = trace.src2[:n]
    dst = trace.dst[:n]
    producer1 = np.full(n, NO_PRODUCER, dtype=np.int64)
    producer2 = np.full(n, NO_PRODUCER, dtype=np.int64)

    writers = np.flatnonzero(dst != NO_REG)
    if len(writers) == 0:
        return producer1, producer2  # No writes: nothing has a producer.
    domain = count * TOTAL_REGS

    write_groups = (writers // interval) * TOTAL_REGS + dst[
        writers
    ].astype(np.int64)
    write_order = _stable_key_order(write_groups, domain - 1)
    sorted_writers = writers[write_order]
    sorted_write_groups = write_groups[write_order]
    sorted_keys = sorted_write_groups * (n + 1) + sorted_writers

    for source, producer in ((src1, producer1), (src2, producer2)):
        readers = np.flatnonzero(_LIVE_SOURCE[source])
        if len(readers) == 0:
            continue
        read_groups = (readers // interval) * TOTAL_REGS + source[
            readers
        ].astype(np.int64)
        read_order = _stable_key_order(read_groups, domain - 1)
        sorted_readers = readers[read_order]
        sorted_read_groups = read_groups[read_order]
        # One slot's grouped reads are fully key-ascending (the stable
        # sort keeps positions ascending within each group), so the
        # (fewer) writes can be merged into the read stream with one
        # sorted-query binary search, recovering each read's
        # preceding-write slot from the insertion histogram.  An
        # instruction's same-register write shares its own read's key;
        # ``side="right"`` inserts it after, keeping it invisible.
        insertions = np.searchsorted(
            sorted_read_groups * (n + 1) + sorted_readers,
            sorted_keys,
            side="right",
        )
        slot = np.cumsum(
            np.bincount(insertions, minlength=len(readers) + 1)[:-1]
        ) - 1
        valid = slot >= 0
        valid &= (
            sorted_write_groups[np.maximum(slot, 0)] == sorted_read_groups
        )
        found = np.where(
            valid, sorted_writers[np.maximum(slot, 0)], NO_PRODUCER
        )
        producer[sorted_readers] = found
    return producer1, producer2


def producer_indices(trace: Trace) -> Tuple[np.ndarray, np.ndarray]:
    """Dynamic producer index for each instruction's two source slots.

    For every instruction ``i`` and source slot, the result holds the
    index of the most recent earlier instruction that wrote that source
    register, or :data:`NO_PRODUCER` when the slot is empty, reads a
    hardwired-zero register, or reads a register not yet written.

    The whole trace as one interval of :func:`segmented_producer_indices`
    (an empty trace yields empty arrays).

    Returns:
        ``(producer1, producer2)`` int64 arrays of the trace length.
    """
    return segmented_producer_indices(trace, len(trace), 1)


def producer_indices_reference(
    trace: Trace,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-register producer recovery — the executable specification.

    Walks one register at a time with a ``searchsorted`` lookup per
    (slot, register) pair; retained for the equivalence tests and the
    perf harness.  Produces exactly the arrays of
    :func:`producer_indices`.
    """
    n = len(trace)
    dst = trace.dst
    producers = []
    # Writer positions per register, for searchsorted-based lookup.
    writer_positions: Dict[int, np.ndarray] = {}
    has_dst = dst != NO_REG
    written_registers = np.unique(dst[has_dst])
    positions = np.arange(n, dtype=np.int64)
    for register in written_registers:
        writer_positions[int(register)] = positions[dst == register]

    for source in (trace.src1, trace.src2):
        producer = np.full(n, NO_PRODUCER, dtype=np.int64)
        live = (source != NO_REG) & (source != INT_ZERO_REG) & (
            source != FP_ZERO_REG
        )
        for register in np.unique(source[live]):
            register = int(register)
            writers = writer_positions.get(register)
            if writers is None:
                continue
            readers = positions[live & (source == register)]
            slot = np.searchsorted(writers, readers, side="left") - 1
            valid = slot >= 0
            producer[readers[valid]] = writers[slot[valid]]
        producers.append(producer)
    return producers[0], producers[1]


def _window_critical_paths_reference(
    producer1: np.ndarray, producer2: np.ndarray, window: int
) -> int:
    """Scalar critical-path walk — the executable specification.

    Total cycles: sum of dataflow critical paths over W-sized windows.
    """
    n = len(producer1)
    level = np.ones(n, dtype=np.int32)
    p1 = producer1
    p2 = producer2
    total_cycles = 0
    for window_start in range(0, n, window):
        window_end = min(window_start + window, n)
        depth = 1
        for i in range(window_start, window_end):
            best = 0
            p = p1[i]
            if p >= window_start:
                best = level[p]
            p = p2[i]
            if p >= window_start and level[p] > best:
                best = level[p]
            lvl = best + 1
            level[i] = lvl
            if lvl > depth:
                depth = lvl
        total_cycles += depth
    return total_cycles


def _lane_levels(
    producer1: np.ndarray,
    producer2: np.ndarray,
    lanes: "Sequence[Tuple[np.ndarray, Sequence[Tuple[np.ndarray, int]]]]",
) -> np.ndarray:
    """Dataflow depth of every position in every window lane.

    The offset-major walk shared by both window engines.  Each lane (one
    per window size) is ``(owner, pieces)``: ``owner[p]`` is the start
    of the window holding position ``p``, and ``pieces`` lists
    ``(window starts, length)`` groups of windows holding ``length``
    instructions.  All lanes share one *flat* level space — lane ``j``
    owns ``[j*n, (j+1)*n)`` — so every offset updates every window of
    every size in one set of array operations (a per-(offset, size)
    loop pays several times the work in numpy call overhead on small
    traces).  A producer outside its consumer's window (including
    :data:`NO_PRODUCER`) is redirected to a sentinel cell pinned at
    level 0, so the hot loop is pure gather/max/scatter with no
    per-offset window-membership test.  Positions no window covers keep
    depth 1.

    Returns:
        The flat ``len(lanes) * n + 1`` int32 level array (last cell:
        the sentinel).
    """
    n = len(producer1)
    sentinel = len(lanes) * n
    # A depth never exceeds its window size, so int32 holds it; the
    # halved footprint of this randomly gathered array is what keeps
    # large traces cache-friendly.
    level_flat = np.ones(sentinel + 1, dtype=np.int32)
    level_flat[sentinel] = 0
    pieces = []  # (flat window starts, window length)
    producer_flat = np.empty((2, sentinel), dtype=np.int64)
    for lane, (owner, lane_pieces) in enumerate(lanes):
        base = lane * n
        pieces.extend(
            (starts + base, length) for starts, length in lane_pieces
        )
        for row, producer in enumerate((producer1, producer2)):
            target = producer_flat[row, base : base + n]
            np.add(producer, base, out=target)
            target[producer < owner] = sentinel
    if not pieces:
        return level_flat
    producer1_flat, producer2_flat = producer_flat

    # Offsets walk in segments over which the set of windows still
    # holding an instruction does not change.
    last_offset = max(length for _, length in pieces)
    boundaries = sorted(
        {length for _, length in pieces if length < last_offset}
    )
    segment_edges = [1] + boundaries + [last_offset]
    for segment_start, segment_end in zip(
        segment_edges[:-1], segment_edges[1:]
    ):
        if segment_end <= segment_start:
            continue
        indices = np.concatenate(
            [flat for flat, length in pieces if length > segment_start]
        ) + segment_start
        for _ in range(segment_start, segment_end):
            depth = np.maximum(
                level_flat[producer1_flat[indices]],
                level_flat[producer2_flat[indices]],
            )
            depth += 1
            level_flat[indices] = depth
            indices += 1
    return level_flat


def _remainder(values: np.ndarray, size: int) -> np.ndarray:
    """``values % size`` — one bitwise AND for a power-of-two size."""
    if size & (size - 1) == 0:
        return values & (size - 1)
    return values % size


def _segmented_window_cycles(
    producer1: np.ndarray,
    producer2: np.ndarray,
    count: int,
    interval: int,
    window_sizes: Sequence[int],
) -> Dict[int, np.ndarray]:
    """Per-interval summed critical-path cycles for every window size.

    Windows partition each interval from its own start (so every
    interval ends with a short window when ``interval % W != 0``),
    reproducing the window alignment a per-chunk run would see.  One
    offset-major traversal (:func:`_lane_levels`) updates all intervals
    and all window sizes at once; per-window critical paths fall out of
    a segmented max and are then summed within each interval.
    """
    n = count * interval
    unique_sizes = sorted({int(window) for window in window_sizes})
    for window in unique_sizes:
        if window < 1:
            raise CharacterizationError(f"invalid window size: {window}")
    interval_base = np.arange(count, dtype=np.int64) * interval
    offset_in_interval = np.arange(n, dtype=np.int64) % interval
    positions = np.arange(n, dtype=np.int64)

    starts_all: Dict[int, np.ndarray] = {}
    lanes = []
    for window in unique_sizes:
        full = interval // window
        trailing = interval % window
        per_interval = full + (1 if trailing else 0)
        within = np.arange(per_interval, dtype=np.int64) * window
        starts = (interval_base[:, None] + within[None, :]).ravel()
        starts_all[window] = starts
        if trailing:
            grid = starts.reshape(count, per_interval)
            # Full-width windows hold an instruction at every offset
            # below the window size; each interval's trailing short
            # window runs out of instructions at the remainder offset.
            pieces = [(grid[:, full:].ravel(), trailing)]
            if full:
                pieces.insert(0, (grid[:, :full].ravel(), window))
        else:
            pieces = [(starts, window)]
        lanes.append(
            (positions - _remainder(offset_in_interval, window), pieces)
        )
    level_flat = _lane_levels(producer1, producer2, lanes)

    cycles: Dict[int, np.ndarray] = {}
    for lane, window in enumerate(unique_sizes):
        starts = starts_all[window]
        per_window = np.maximum.reduceat(
            level_flat[lane * n : (lane + 1) * n], starts
        )
        cycles[window] = per_window.reshape(
            count, len(starts) // count
        ).sum(axis=1)
    return cycles


def full_window_cycle_counts(
    producer1: np.ndarray,
    producer2: np.ndarray,
    starts_by_size: "Dict[int, np.ndarray]",
) -> "Dict[int, int]":
    """Summed critical-path cycles over explicitly listed *full* windows.

    The shard engine's variant of :func:`_segmented_window_cycles`:
    instead of tiling ``[0, n)`` it is handed, per window size, the
    ascending, back-to-back local start positions of the windows to
    close — each guaranteed full (``start + size <= n``), which is
    exactly the set of globally-aligned windows falling entirely inside
    one shard.  Same offset-major traversal (:func:`_lane_levels`); with
    every window full no trailing pieces are needed.

    Returns:
        ``{size: total cycles}`` (0 for a size with no listed windows).
    """
    n = len(producer1)
    normalized = {
        int(size): np.asarray(starts, dtype=np.int64)
        for size, starts in starts_by_size.items()
    }
    active = [size for size in sorted(normalized) if len(normalized[size])]
    positions = np.arange(n, dtype=np.int64)
    lanes = []
    for size in active:
        starts = normalized[size]
        # Back-to-back windows: the owning start is periodic from the
        # first (positions outside every window are never walked).
        owner = positions - _remainder(positions - starts[0], size)
        lanes.append((owner, [(starts, size)]))
    level_flat = _lane_levels(producer1, producer2, lanes)
    cycles = {size: 0 for size in normalized}
    for lane, size in enumerate(active):
        # Same-size windows are contiguous, so reduceat segments are
        # exactly the windows; trailing rows past the last window keep
        # their init depth of 1 and cannot raise a window max.
        cycles[size] = int(
            np.maximum.reduceat(
                level_flat[lane * n : (lane + 1) * n], normalized[size]
            ).sum()
        )
    return cycles


def _validate_ilp_inputs(trace: Trace, window_sizes: Sequence[int]) -> None:
    if len(trace) == 0:
        raise CharacterizationError("cannot compute ILP of an empty trace")
    for window in window_sizes:
        if window < 1:
            raise CharacterizationError(f"invalid window size: {window}")


def ilp_ipc(
    trace: Trace,
    window_sizes: Sequence[int] = (32, 64, 128, 256),
) -> np.ndarray:
    """Idealized-processor IPC for each window size.

    The whole trace as one interval of the segmented window walk
    (:func:`_segmented_window_cycles` over :func:`producer_indices`):
    every window size in one offset-major traversal, producing exactly
    the cycle counts of :func:`ilp_ipc_reference`.

    Args:
        trace: the dynamic instruction trace.
        window_sizes: instruction-window sizes (paper: 32/64/128/256).

    Returns:
        IPC value per window size, same order as ``window_sizes``.

    Raises:
        CharacterizationError: for an empty trace or bad window size.
    """
    _validate_ilp_inputs(trace, window_sizes)
    producer1, producer2 = producer_indices(trace)
    n = len(trace)
    cycles = _segmented_window_cycles(
        producer1, producer2, 1, n, window_sizes
    )
    return np.array(
        [n / int(cycles[int(window)][0]) for window in window_sizes],
        dtype=float,
    )


def ilp_ipc_reference(
    trace: Trace,
    window_sizes: Sequence[int] = (32, 64, 128, 256),
    producers: "Tuple[np.ndarray, np.ndarray] | None" = None,
) -> np.ndarray:
    """Scalar ILP — re-walks the trace once per window size.

    The executable specification the vectorized :func:`ilp_ipc` is
    tested against; produces identical values.
    """
    _validate_ilp_inputs(trace, window_sizes)
    if producers is None:
        producers = producer_indices(trace)
    producer1, producer2 = producers
    n = len(trace)
    result = np.empty(len(window_sizes), dtype=float)
    for position, window in enumerate(window_sizes):
        cycles = _window_critical_paths_reference(producer1, producer2, window)
        result[position] = n / cycles if cycles else 0.0
    return result
