"""The segmented engine over one interval against the Table II specs.

:func:`repro.mica.characterize` is the segmented engine run over a
single interval spanning the whole trace.  Every section of its vector
must be bit-identical to that section's specification:

* ILP, PPM and producer recovery to the scalar ``*_reference``
  functions (the ILP spec is fed the reference producers, so no engine
  kernel sits on the oracle side);
* instruction mix, register traffic, working set and strides to their
  section functions, the only specifications those sections have.

The population is the eight-benchmark test population plus edge shapes:
tiny and odd lengths around the window sizes, and traces with no
branches, no memory operations, only branches or only loads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.isa import FP_ZERO_REG, INT_ZERO_REG, NO_REG
from repro.mica import (
    category_slices,
    characterize,
    ilp_ipc,
    ilp_ipc_reference,
    instruction_mix,
    ppm_predictabilities,
    ppm_predictabilities_reference,
    producer_indices,
    register_traffic,
    segmented_characterize,
    stride_profile,
    working_set,
)
from repro.mica.ilp import producer_indices_reference
from repro.mica.ppm import MAX_VECTOR_ORDER
from repro.synth import generate_trace
from repro.trace import TraceBuilder
from repro.workloads import get_benchmark

CONFIG = ReproConfig(trace_length=4_000)
SLICES = category_slices()

POPULATION = (
    "spec2000/mcf/ref",
    "spec2000/swim/ref",
    "spec2000/bzip2/graphic",
    "mibench/adpcm/rawcaudio",
    "bioinfomark/blast/protein",
    "commbench/drr/drr",
    "spec2000/bzip2/source",
    "spec2000/bzip2/program",
)


def random_trace(seed, length, branches=True, memory=True, alu=True):
    """Random mixed stream over a few PCs and registers.

    Sources may be absent, real, or a hardwired-zero register, so
    producer recovery meets every kind of slot.
    """
    rng = np.random.default_rng(seed)
    builder = TraceBuilder(name=f"edge/{seed}/{length}")
    kinds = [
        kind
        for kind, enabled in (
            ("branch", branches), ("load", memory),
            ("store", memory), ("alu", alu),
        )
        if enabled
    ]
    pcs = [0x1000 + 4 * index for index in range(6)]
    sources = [NO_REG, INT_ZERO_REG, FP_ZERO_REG] + list(range(1, 9))
    for _ in range(length):
        kind = kinds[int(rng.integers(len(kinds)))]
        pc = int(rng.choice(pcs))
        if kind == "branch":
            builder.branch(
                pc, cond_reg=int(rng.integers(1, 8)),
                taken=bool(rng.random() < 0.6), target=0x9000,
            )
        elif kind == "load":
            builder.load(
                pc, dst=int(rng.integers(1, 9)),
                addr_reg=int(rng.choice(sources)),
                mem_addr=int(rng.integers(0, 1 << 20)),
            )
        elif kind == "store":
            builder.store(
                pc, value_reg=int(rng.choice(sources)),
                addr_reg=int(rng.choice(sources)),
                mem_addr=int(rng.integers(0, 1 << 20)),
            )
        else:
            builder.alu(
                pc, dst=int(rng.integers(1, 9)),
                src1=int(rng.choice(sources)),
                src2=int(rng.choice(sources)),
            )
    return builder.build()


EDGE_SHAPES = {
    **{f"length-{n}": (n, {}) for n in (1, 2, 3, 31, 33, 257, 1001)},
    "no-branches": (800, {"branches": False}),
    "no-memory": (800, {"memory": False}),
    "only-branches": (800, {"memory": False, "alu": False}),
    "only-loads": (800, {"branches": False, "alu": False}),
}


def _trace(case):
    if case in EDGE_SHAPES:
        length, kinds = EDGE_SHAPES[case]
        return random_trace(length, length, **kinds)
    return generate_trace(get_benchmark(case).profile, CONFIG.trace_length)


CASES = list(POPULATION) + list(EDGE_SHAPES)


@pytest.fixture(scope="module", params=CASES)
def case(request):
    trace = _trace(request.param)
    row = segmented_characterize(trace, len(trace), CONFIG)[0]
    return trace, row


class TestEngineOverOneIntervalMatchesSpecs:
    def test_characterize_is_the_one_interval_engine(self, case):
        trace, row = case
        assert characterize(trace, CONFIG).values.tobytes() == row.tobytes()

    def test_producers_match_reference(self, case):
        trace, _ = case
        engine = producer_indices(trace)
        reference = producer_indices_reference(trace)
        for slot in range(2):
            assert np.array_equal(engine[slot], reference[slot])

    def test_ilp_matches_reference(self, case):
        trace, row = case
        reference = ilp_ipc_reference(
            trace, CONFIG.ilp_window_sizes,
            producers=producer_indices_reference(trace),
        )
        assert row[SLICES["ILP"]].tobytes() == reference.tobytes()
        assert ilp_ipc(
            trace, CONFIG.ilp_window_sizes
        ).tobytes() == reference.tobytes()

    def test_ppm_matches_reference(self, case):
        trace, row = case
        reference = ppm_predictabilities_reference(
            trace, CONFIG.ppm_max_order
        )
        assert row[SLICES["branch predictability"]].tobytes() == (
            reference.tobytes()
        )
        assert ppm_predictabilities(
            trace, CONFIG.ppm_max_order
        ).tobytes() == reference.tobytes()

    def test_instruction_mix_matches_spec(self, case):
        trace, row = case
        assert row[SLICES["instruction mix"]].tobytes() == (
            instruction_mix(trace).tobytes()
        )

    def test_register_traffic_matches_spec(self, case):
        trace, row = case
        spec = register_traffic(trace, CONFIG.reg_dep_thresholds)
        assert row[SLICES["register traffic"]].tobytes() == spec.tobytes()

    def test_working_set_matches_spec(self, case):
        trace, row = case
        spec = working_set(trace, CONFIG.block_bytes, CONFIG.page_bytes)
        assert row[SLICES["working set size"]].tobytes() == spec.tobytes()

    def test_strides_match_spec(self, case):
        trace, row = case
        spec = stride_profile(trace, CONFIG.stride_thresholds)
        assert row[SLICES["data stream strides"]].tobytes() == (
            spec.tobytes()
        )


class TestOneIntervalConfigurations:
    @pytest.mark.parametrize("max_order", [1, 2, 6, MAX_VECTOR_ORDER + 1])
    def test_ppm_orders_match_reference(self, max_order):
        """Orders past the packed-key width take the reference path."""
        trace = random_trace(5, 600)
        config = ReproConfig(ppm_max_order=max_order)
        reference = ppm_predictabilities_reference(trace, max_order)
        values = characterize(trace, config).values
        assert values[SLICES["branch predictability"]].tobytes() == (
            reference.tobytes()
        )
        assert ppm_predictabilities(trace, max_order).tobytes() == (
            reference.tobytes()
        )

    def test_odd_window_sizes_match_reference(self):
        trace = random_trace(6, 700)
        windows = (1, 3, 300, 7)
        config = ReproConfig(ilp_window_sizes=windows)
        reference = ilp_ipc_reference(
            trace, windows, producers=producer_indices_reference(trace)
        )
        values = characterize(trace, config).values
        assert values[SLICES["ILP"]].tobytes() == reference.tobytes()
