"""Vectorized-vs-reference equivalence for the PPM and ILP engines.

The vectorized :func:`repro.mica.ppm_predictabilities` and
:func:`repro.mica.ilp_ipc` (the segmented engine's kernels over one
interval) must produce *bit-identical* characteristic values to the
retained scalar reference implementations, on randomized traces across
seeds, lengths and shapes, and on hand-built edge cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.isa import FP_ZERO_REG, INT_ZERO_REG, NO_REG
from repro.mica import (
    ilp_ipc,
    ilp_ipc_reference,
    ppm_predictabilities,
    ppm_predictabilities_reference,
    producer_indices,
)
from repro.mica.ilp import (
    _segmented_window_cycles,
    _window_critical_paths_reference,
    producer_indices_reference,
)
from repro.mica.segmented import (
    MAX_VECTOR_ORDER,
    VARIANTS,
    _SegmentedContext,
    _segmented_ppm,
    _segmented_ppm_reference,
)
from repro.synth import (
    BranchSpec,
    RegisterSpec,
    WorkloadProfile,
    generate_trace,
)
from repro.trace import TraceBuilder


def random_branchy_trace(seed: int, length: int, pcs: int = 4):
    """Adversarial branch stream: few PCs, random outcomes, random deps.

    Few distinct PCs maximize context aliasing in the shared tables;
    random ALU dependencies (including the hardwired-zero registers)
    exercise producer resolution.
    """
    rng = np.random.default_rng(seed)
    builder = TraceBuilder(name=f"equiv/rand/{seed}")
    pc_pool = [0x1000 + 4 * i for i in range(pcs)]
    for _ in range(length):
        kind = rng.random()
        pc = int(rng.choice(pc_pool))
        if kind < 0.45:
            builder.branch(
                pc, cond_reg=int(rng.integers(1, 8)),
                taken=bool(rng.random() < 0.6), target=0x9000,
            )
        else:
            # Sources may be absent, real, or a hardwired-zero register.
            choices = [NO_REG, INT_ZERO_REG, FP_ZERO_REG] + list(range(1, 9))
            builder.alu(
                pc,
                dst=int(rng.integers(1, 9)),
                src1=int(rng.choice(choices)),
                src2=int(rng.choice(choices)),
            )
    return builder.build()


class TestPpmEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("length", [10, 500, 4000])
    def test_randomized_traces_match(self, seed, length):
        trace = random_branchy_trace(seed, length)
        assert np.array_equal(
            ppm_predictabilities(trace),
            ppm_predictabilities_reference(trace),
        )

    @pytest.mark.parametrize("seed", [11, 12])
    def test_synthetic_profiles_match(self, seed):
        profile = WorkloadProfile(
            name=f"equiv/synth/{seed}",
            branches=BranchSpec(pattern_fraction=0.5, taken_bias=0.4),
        )
        trace = generate_trace(profile, 8_000, seed=seed)
        assert np.array_equal(
            ppm_predictabilities(trace),
            ppm_predictabilities_reference(trace),
        )

    @pytest.mark.parametrize("max_order", [1, 2, 6, 10])
    def test_orders_match(self, max_order):
        trace = random_branchy_trace(7, 2_000)
        assert np.array_equal(
            ppm_predictabilities(trace, max_order=max_order),
            ppm_predictabilities_reference(trace, max_order=max_order),
        )

    def test_no_branches(self):
        builder = TraceBuilder()
        builder.alu(0x1000, dst=1)
        trace = builder.build()
        assert np.array_equal(
            ppm_predictabilities(trace), np.zeros(4)
        )
        assert np.array_equal(
            ppm_predictabilities(trace),
            ppm_predictabilities_reference(trace),
        )

    def test_single_branch(self):
        builder = TraceBuilder()
        builder.branch(0x1000, cond_reg=1, taken=True, target=0x9000)
        trace = builder.build()
        assert np.array_equal(
            ppm_predictabilities(trace),
            ppm_predictabilities_reference(trace),
        )

    def test_constant_and_alternating_streams(self):
        for pattern in ([True] * 64, [False] * 64,
                        [True, False] * 32, [True, True, False] * 21):
            builder = TraceBuilder()
            for taken in pattern:
                builder.branch(0x1000, cond_reg=1, taken=taken,
                               target=0x9000)
            trace = builder.build()
            assert np.array_equal(
                ppm_predictabilities(trace),
                ppm_predictabilities_reference(trace),
            )

    def test_many_distinct_pcs(self):
        rng = np.random.default_rng(21)
        builder = TraceBuilder()
        for i in range(1_500):
            builder.branch(0x1000 + 4 * i, cond_reg=1,
                           taken=bool(rng.random() < 0.5), target=0x9000)
        trace = builder.build()
        assert np.array_equal(
            ppm_predictabilities(trace),
            ppm_predictabilities_reference(trace),
        )


class TestIlpEquivalence:
    WINDOWS = ((32, 64, 128, 256), (1,), (3, 5, 7), (2, 2, 4))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("length", [10, 500, 4000])
    def test_randomized_traces_match(self, seed, length):
        trace = random_branchy_trace(seed, length)
        producers = producer_indices_reference(trace)
        for windows in self.WINDOWS:
            assert np.array_equal(
                ilp_ipc(trace, windows),
                ilp_ipc_reference(trace, windows, producers=producers),
            )

    @pytest.mark.parametrize("seed", [31, 32])
    def test_synthetic_profiles_match(self, seed):
        profile = WorkloadProfile(
            name=f"equiv/ilp/{seed}",
            registers=RegisterSpec(dep_mean=2.0),
        )
        trace = generate_trace(profile, 8_000, seed=seed)
        assert np.array_equal(
            ilp_ipc(trace), ilp_ipc_reference(trace)
        )

    def test_window_larger_than_trace(self):
        trace = random_branchy_trace(41, 100)
        assert np.array_equal(
            ilp_ipc(trace, (512,)), ilp_ipc_reference(trace, (512,))
        )

    def test_single_window_exact_boundary(self):
        trace = random_branchy_trace(42, 256)
        for windows in ((256,), (255,), (257,)):
            assert np.array_equal(
                ilp_ipc(trace, windows),
                ilp_ipc_reference(trace, windows),
            )

    def test_hardwired_zero_sources_carry_no_dependence(self):
        builder = TraceBuilder()
        builder.alu(0x1000, dst=INT_ZERO_REG)
        for i in range(64):
            builder.alu(0x1004 + 4 * i, dst=1,
                        src1=INT_ZERO_REG, src2=FP_ZERO_REG)
        trace = builder.build()
        ipc = ilp_ipc(trace, (32,))
        # No true dependencies: a full window issues each cycle.
        assert ipc[0] == pytest.approx(65 / 3)
        assert np.array_equal(ipc, ilp_ipc_reference(trace, (32,)))

    def test_serial_chain_all_windows(self):
        builder = TraceBuilder()
        builder.alu(0x1000, dst=1)
        for i in range(1, 200):
            builder.alu(0x1000 + 4 * i, dst=1 + (i % 4),
                        src1=1 + ((i - 1) % 4))
        trace = builder.build()
        for windows in self.WINDOWS:
            assert np.array_equal(
                ilp_ipc(trace, windows),
                ilp_ipc_reference(trace, windows),
            )


class TestWindowCriticalPathEquivalence:
    """The segmented engine's all-window-sizes walk
    (:func:`_segmented_window_cycles`) over the whole trace as one
    interval must match the retained scalar specification
    :func:`_window_critical_paths_reference` per window size."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("length", [10, 257, 1500])
    def test_randomized_traces_match(self, seed, length):
        trace = random_branchy_trace(seed, length)
        producer1, producer2 = producer_indices(trace)
        windows = (16, 32, 64, 128)
        counts = _segmented_window_cycles(
            producer1, producer2, 1, length, windows
        )
        for window in windows:
            assert int(counts[window][0]) == (
                _window_critical_paths_reference(
                    producer1, producer2, window
                )
            )

    def test_window_larger_than_trace(self):
        trace = random_branchy_trace(7, 50)
        producer1, producer2 = producer_indices(trace)
        counts = _segmented_window_cycles(producer1, producer2, 1, 50, (512,))
        assert int(counts[512][0]) == (
            _window_critical_paths_reference(producer1, producer2, 512)
        )


class TestSegmentedPpmReferenceEquivalence:
    """The packed per-interval PPM engine must be bit-identical to the
    retained per-chunk fallback :func:`_segmented_ppm_reference`."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_vectorized_matches_reference(self, seed):
        trace = random_branchy_trace(seed, 1200, pcs=6)
        interval, count = 300, 4
        wanted = np.ones(len(VARIANTS), dtype=bool)
        engine = _segmented_ppm(
            _SegmentedContext(trace, interval, count), 3, wanted
        )
        reference = _segmented_ppm_reference(
            _SegmentedContext(trace, interval, count), 3
        )
        assert np.array_equal(engine, reference)

    def test_overwide_order_falls_back_to_reference(self):
        trace = random_branchy_trace(3, 600, pcs=4)
        interval, count = 200, 3
        wanted = np.ones(len(VARIANTS), dtype=bool)
        over = MAX_VECTOR_ORDER + 1
        engine = _segmented_ppm(
            _SegmentedContext(trace, interval, count), over, wanted
        )
        reference = _segmented_ppm_reference(
            _SegmentedContext(trace, interval, count), over
        )
        assert np.array_equal(engine, reference)
