"""Register traffic characteristics (Table II, characteristics 11-19).

Following Franklin & Sohi's register-traffic analysis, the paper
characterizes dataflow through the architected registers:

* **average number of input operands** per dynamic instruction;
* **average degree of use**: how many times a register instance (one
  write) is consumed (read) before being overwritten;
* the **register dependency distance** distribution: the number of
  dynamic instructions between a register write and a read of that
  value, reported as cumulative probabilities at distances
  1, 2, 4, 8, 16, 32 and 64.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..errors import CharacterizationError
from ..isa import NO_REG
from ..trace import Trace
from .ilp import NO_PRODUCER, producer_indices


def register_traffic(
    trace: Trace,
    thresholds: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    producers: "Tuple[np.ndarray, np.ndarray] | None" = None,
) -> np.ndarray:
    """The nine register-traffic characteristics, in Table II order.

    Args:
        trace: the dynamic instruction trace.
        thresholds: cumulative dependency-distance bounds; the first is
            reported as an equality (``distance = 1``), matching the
            paper.
        producers: precomputed ``(producer1, producer2)`` arrays, as
            :func:`repro.mica.producer_indices` or its specification
            :func:`repro.mica.ilp.producer_indices_reference` return
            them (default: :func:`repro.mica.producer_indices`).

    Returns:
        ``[avg input operands, avg degree of use,
        P(dist = 1), P(dist <= 2), ..., P(dist <= 64)]``.

    Raises:
        CharacterizationError: for an empty trace.
    """
    if len(trace) == 0:
        raise CharacterizationError(
            "cannot compute register traffic of an empty trace"
        )
    if producers is None:
        producers = producer_indices(trace)
    producer1, producer2 = producers

    n = len(trace)
    operand_count = (trace.src1 != NO_REG).astype(np.int64) + (
        trace.src2 != NO_REG
    ).astype(np.int64)
    average_operands = float(operand_count.mean())

    total_writes = int((trace.dst != NO_REG).sum())
    consumer_positions = np.arange(n, dtype=np.int64)
    distances = []
    consumed_reads = 0
    for producer in (producer1, producer2):
        has_producer = producer != NO_PRODUCER
        consumed_reads += int(has_producer.sum())
        distances.append(
            consumer_positions[has_producer] - producer[has_producer]
        )
    all_distances = (
        np.concatenate(distances) if distances else np.empty(0, np.int64)
    )

    degree_of_use = consumed_reads / total_writes if total_writes else 0.0

    result = np.empty(2 + len(thresholds), dtype=float)
    result[0] = average_operands
    result[1] = degree_of_use
    if len(all_distances) == 0:
        result[2:] = 0.0
        return result
    total_pairs = float(len(all_distances))
    for position, bound in enumerate(thresholds):
        result[2 + position] = float((all_distances <= bound).sum()) / total_pairs
    return result
