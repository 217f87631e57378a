"""Data-stream stride characteristics (Table II, characteristics 24-43).

Two stride notions, each split by loads and stores:

* **global stride**: byte distance between temporally adjacent memory
  accesses of the same kind (adjacent loads for load strides, adjacent
  stores for store strides);
* **local stride**: byte distance between successive accesses *of the
  same static instruction* (same PC), capturing per-instruction access
  regularity.

Each distribution is summarized by cumulative probabilities:
``P(stride = 0)`` and ``P(|stride| <= 8 / 64 / 512 / 4096)``, for
20 characteristics in total.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import CharacterizationError
from ..trace import Trace

#: Cumulative stride thresholds after the equality-at-zero bucket.
DEFAULT_THRESHOLDS = (0, 8, 64, 512, 4096)


def _threshold_counts(
    deltas: np.ndarray, thresholds: Sequence[int]
) -> np.ndarray:
    """``count(|delta| <= t)`` per threshold (``t = 0`` is an equality)."""
    magnitudes = np.abs(deltas.astype(np.int64))
    return np.array(
        [int((magnitudes <= threshold).sum()) for threshold in thresholds],
        dtype=np.int64,
    )


def _cumulative_profile(
    strides: np.ndarray, thresholds: Sequence[int]
) -> np.ndarray:
    """``P(|stride| <= t)`` per threshold (``t = 0`` is an equality)."""
    if len(strides) == 0:
        return np.zeros(len(thresholds), dtype=float)
    return _threshold_counts(strides, thresholds) / float(len(strides))


def _local_strides(pcs: np.ndarray, addresses: np.ndarray) -> np.ndarray:
    """Per-static-instruction (same PC) consecutive address deltas."""
    if len(addresses) < 2:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(pcs, kind="stable")
    sorted_pcs = pcs[order]
    sorted_addresses = addresses[order].astype(np.int64)
    deltas = np.diff(sorted_addresses)
    same_pc = sorted_pcs[1:] == sorted_pcs[:-1]
    return deltas[same_pc]


def _global_strides(addresses: np.ndarray) -> np.ndarray:
    """Temporally adjacent address deltas within one access stream."""
    if len(addresses) < 2:
        return np.empty(0, dtype=np.int64)
    return np.diff(addresses.astype(np.int64))


def stride_profile(
    trace: Trace, thresholds: Sequence[int] = DEFAULT_THRESHOLDS
) -> np.ndarray:
    """The twenty stride characteristics, in Table II order.

    Order: local load (5 thresholds), global load (5), local store (5),
    global store (5).

    Raises:
        CharacterizationError: for an empty trace.
    """
    if len(trace) == 0:
        raise CharacterizationError(
            "cannot compute strides of an empty trace"
        )
    load_mask = trace.load_mask
    store_mask = trace.store_mask
    load_pcs = trace.pc[load_mask]
    load_addresses = trace.mem_addr[load_mask]
    store_pcs = trace.pc[store_mask]
    store_addresses = trace.mem_addr[store_mask]

    sections = [
        _cumulative_profile(_local_strides(load_pcs, load_addresses), thresholds),
        _cumulative_profile(_global_strides(load_addresses), thresholds),
        _cumulative_profile(
            _local_strides(store_pcs, store_addresses), thresholds
        ),
        _cumulative_profile(_global_strides(store_addresses), thresholds),
    ]
    return np.concatenate(sections)
