"""Full MICA characterization: one trace -> one 47-dimensional vector.

:func:`characterize` runs the segmented engine
(:func:`repro.mica.segmented_characterize`) over a single interval that
spans the whole trace — every Table II section in one pass — and wraps
the row in a :class:`CharacteristicVector`, which pairs values with the
schema for readable access and export.  The sharded path
(``shards=``/``shard_size=``/``jobs=``) runs the shard-mergeable engine
(:mod:`repro.mica.shard`) instead, with bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ReproConfig, DEFAULT_CONFIG
from ..errors import CharacterizationError
from ..trace import Trace
from .characteristics import (
    CHARACTERISTICS,
    NUM_CHARACTERISTICS,
    characteristic_by_key,
)
from .segmented import segmented_characterize


@dataclass(frozen=True)
class CharacteristicVector:
    """A benchmark's 47 microarchitecture-independent characteristics.

    Attributes:
        name: benchmark identifier the vector was computed for.
        values: the 47 values, in Table II order.
    """

    name: str
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (NUM_CHARACTERISTICS,):
            raise CharacterizationError(
                f"expected {NUM_CHARACTERISTICS} values, "
                f"got shape {self.values.shape}"
            )

    def __getitem__(self, key: str) -> float:
        """Value of one characteristic by schema key."""
        return float(self.values[characteristic_by_key(key).array_index])

    def as_dict(self) -> "dict[str, float]":
        """Mapping from schema key to value, in Table II order."""
        return {
            characteristic.key: float(self.values[characteristic.array_index])
            for characteristic in CHARACTERISTICS
        }

    def format(self, precision: int = 4) -> str:
        """Multi-line human-readable rendering grouped by category."""
        lines = [f"characteristics of {self.name or '<unnamed>'}"]
        category = None
        for characteristic in CHARACTERISTICS:
            if characteristic.category != category:
                category = characteristic.category
                lines.append(f"  [{category}]")
            value = self.values[characteristic.array_index]
            lines.append(
                f"    {characteristic.index:>2} "
                f"{characteristic.key:<28} {value:>{precision + 8}.{precision}f}"
            )
        return "\n".join(lines)


def characterize(
    trace: Trace,
    config: ReproConfig = DEFAULT_CONFIG,
    *,
    shards: "int | None" = None,
    shard_size: "int | None" = None,
    jobs: "int | None" = None,
    cache_dir=None,
) -> CharacteristicVector:
    """Compute all 47 microarchitecture-independent characteristics.

    Args:
        trace: the dynamic instruction trace to characterize.
        config: reproduction configuration (window sizes, thresholds,
            granularities, PPM order).
        shards: when given, characterize through the shard-mergeable
            engine split into this many contiguous shards — bit-for-bit
            identical to the unsharded path for every geometry.
        shard_size: or split into fixed-size shards of this many rows.
        jobs: worker processes for the intra-trace fan-out (sharded
            path only); ``None``/``<= 1`` streams sequentially.
        cache_dir: per-shard cold-state cache directory (sharded path
            only; see :class:`repro.perf.cache.ShardCache`).

    Returns:
        The benchmark's :class:`CharacteristicVector`.

    Raises:
        CharacterizationError: for an empty trace.
    """
    if shards is not None or shard_size is not None or jobs is not None:
        # Imported lazily: repro.perf imports repro.mica at its top
        # level, so the sharded driver cannot be a module-level import.
        from ..perf.sharding import sharded_characterize

        if shards is None and shard_size is None:
            shards = jobs  # N workers want at least N shards
        return sharded_characterize(
            trace, config, shards=shards, shard_size=shard_size,
            jobs=jobs, cache_dir=cache_dir,
        )
    if len(trace) == 0:
        raise CharacterizationError("cannot characterize an empty trace")
    values = segmented_characterize(trace, len(trace), config)[0]
    return CharacteristicVector(name=trace.name, values=values)
