"""MICA: the paper's 47 microarchitecture-independent characteristics.

Each analyzer module holds one category of Table II (its scalar
specification, and for ILP and PPM the vectorized kernels);
:func:`characterize` runs the segmented engine over the whole trace as
one interval and returns the benchmark's 47-dimensional characteristic
vector in Table II order.
"""

from .characteristics import (
    Characteristic,
    CHARACTERISTICS,
    NUM_CHARACTERISTICS,
    characteristic_by_key,
    characteristic_names,
    category_slices,
)
from .instruction_mix import instruction_mix
from .ilp import (
    ilp_ipc,
    ilp_ipc_reference,
    producer_indices,
    segmented_producer_indices,
)
from .register_traffic import register_traffic
from .working_set import working_set
from .strides import stride_profile
from .ppm import (
    PPMPredictor,
    ppm_predictabilities,
    ppm_predictabilities_reference,
)
from .characterize import CharacteristicVector, characterize
from .segmented import SECTION_ORDER, segmented_characterize
from .shard import (
    ShardState,
    characterize_stream,
    finalize_state,
    merge_states,
    ppm_shard_correct,
    shard_state,
    state_from_arrays,
    state_to_arrays,
)

__all__ = [
    "Characteristic",
    "CHARACTERISTICS",
    "NUM_CHARACTERISTICS",
    "characteristic_by_key",
    "characteristic_names",
    "category_slices",
    "instruction_mix",
    "ilp_ipc",
    "ilp_ipc_reference",
    "producer_indices",
    "register_traffic",
    "working_set",
    "stride_profile",
    "PPMPredictor",
    "ppm_predictabilities",
    "ppm_predictabilities_reference",
    "CharacteristicVector",
    "characterize",
    "SECTION_ORDER",
    "segmented_characterize",
    "segmented_producer_indices",
    "ShardState",
    "characterize_stream",
    "finalize_state",
    "merge_states",
    "ppm_shard_correct",
    "shard_state",
    "state_from_arrays",
    "state_to_arrays",
]
