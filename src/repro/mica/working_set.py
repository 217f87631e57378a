"""Working-set characteristics (Table II, characteristics 20-23).

The paper counts the unique 32-byte blocks and unique 4 KB pages touched
by the data stream and by the instruction stream.  The counts are raw
(not normalized by trace length), exactly as in the paper; experiments
normalize across benchmarks afterwards.
"""

from __future__ import annotations

import numpy as np

from ..errors import CharacterizationError
from ..trace import Trace


def _granularity_shift(granularity: int) -> np.uint64:
    """Address shift turning byte addresses into ``granularity`` ids.

    Raises:
        CharacterizationError: for a granularity that is not a positive
            power of two.
    """
    shift = int(granularity).bit_length() - 1
    if granularity < 1 or granularity != (1 << shift):
        raise CharacterizationError(
            f"granularity must be a power of two, got {granularity}"
        )
    return np.uint64(shift)


def _unique_count(addresses: np.ndarray, granularity: int) -> int:
    shift = _granularity_shift(granularity)
    return int(len(np.unique(addresses >> shift)))


def working_set(
    trace: Trace, block_bytes: int = 32, page_bytes: int = 4096
) -> np.ndarray:
    """The four working-set characteristics, in Table II order.

    Returns:
        ``[D blocks, D pages, I blocks, I pages]`` — unique 32-byte
        blocks and 4 KB pages touched by data accesses and by
        instruction fetches.

    Raises:
        CharacterizationError: for an empty trace or non-power-of-two
            granularities.
    """
    if len(trace) == 0:
        raise CharacterizationError(
            "cannot compute working set of an empty trace"
        )
    data_addresses = trace.mem_addr[trace.memory_mask]
    instruction_addresses = trace.pc
    return np.array(
        [
            _unique_count(data_addresses, block_bytes),
            _unique_count(data_addresses, page_bytes),
            _unique_count(instruction_addresses, block_bytes),
            _unique_count(instruction_addresses, page_bytes),
        ],
        dtype=float,
    )
