"""Tests for the vectorized MICA analyzers: instruction mix, working
sets and stride profiles — validated against hand-built traces with
known answers."""

import numpy as np
import pytest

from repro.errors import CharacterizationError
from repro.trace import Trace, TraceBuilder
from repro.mica import instruction_mix, stride_profile, working_set


def alu_only(n):
    builder = TraceBuilder()
    for i in range(n):
        builder.alu(0x1000 + 4 * i, dst=1)
    return builder.build()


class TestInstructionMix:
    def test_known_mix(self):
        builder = TraceBuilder()
        for i in range(4):
            builder.load(0x1000 + 16 * i, dst=1, addr_reg=2,
                         mem_addr=0x2000 + 8 * i)
            builder.store(0x1004 + 16 * i, value_reg=1, addr_reg=2,
                          mem_addr=0x3000 + 8 * i)
            builder.alu(0x1008 + 16 * i, dst=1)
            builder.branch(0x100C + 16 * i, cond_reg=1, taken=False,
                           target=0)
        mix = instruction_mix(builder.build())
        assert mix[0] == pytest.approx(0.25)  # Loads.
        assert mix[1] == pytest.approx(0.25)  # Stores.
        assert mix[2] == pytest.approx(0.25)  # Branches.
        assert mix[3] == pytest.approx(0.25)  # Arithmetic.
        assert mix[4] == 0.0
        assert mix[5] == 0.0

    def test_sums_to_at_most_one(self, small_trace):
        mix = instruction_mix(small_trace)
        assert mix.sum() <= 1.0 + 1e-9
        assert (mix >= 0.0).all()

    def test_mul_and_fp_counted_separately(self):
        builder = TraceBuilder()
        builder.mul(0x1000, dst=1, src1=2, src2=3)
        builder.fp(0x1004, dst=33)
        mix = instruction_mix(builder.build())
        assert mix[4] == pytest.approx(0.5)
        assert mix[5] == pytest.approx(0.5)
        assert mix[3] == 0.0  # Mul is not counted as plain arithmetic.

    def test_empty_trace_rejected(self):
        with pytest.raises(CharacterizationError):
            instruction_mix(Trace.empty())


class TestWorkingSet:
    def test_counts_unique_blocks_and_pages(self):
        builder = TraceBuilder()
        # 16 loads at 8-byte stride: 128 bytes = 4 blocks, 1 page.
        for i in range(16):
            builder.load(0x1000, dst=1, addr_reg=2,
                         mem_addr=0x10000 + 8 * i)
        ws = working_set(builder.build())
        d_blocks, d_pages, i_blocks, i_pages = ws
        assert d_blocks == 4
        assert d_pages == 1
        assert i_blocks == 1  # All at the same PC.
        assert i_pages == 1

    def test_instruction_stream_counts_pcs(self):
        trace = alu_only(64)  # 64 * 4 bytes = 256 bytes = 8 blocks.
        ws = working_set(trace)
        assert ws[2] == 8
        assert ws[3] == 1

    def test_page_boundary(self):
        builder = TraceBuilder()
        builder.load(0x1000, dst=1, addr_reg=2, mem_addr=4095)
        builder.load(0x1004, dst=1, addr_reg=2, mem_addr=4096)
        ws = working_set(builder.build())
        assert ws[1] == 2

    def test_custom_granularities(self):
        builder = TraceBuilder()
        for i in range(4):
            builder.load(0x1000, dst=1, addr_reg=2,
                         mem_addr=0x10000 + 64 * i)
        ws = working_set(builder.build(), block_bytes=64, page_bytes=128)
        assert ws[0] == 4
        assert ws[1] == 2

    def test_rejects_non_power_of_two(self, small_trace):
        with pytest.raises(CharacterizationError):
            working_set(small_trace, block_bytes=48)

    def test_rejects_zero_granularity(self, small_trace):
        """A typed error, not a raw ``negative shift count``."""
        with pytest.raises(CharacterizationError, match="power of two"):
            working_set(small_trace, block_bytes=0)
        with pytest.raises(CharacterizationError, match="power of two"):
            working_set(small_trace, page_bytes=0)


class TestStrides:
    def make_load_trace(self, addresses, pcs=None):
        builder = TraceBuilder()
        for index, addr in enumerate(addresses):
            pc = pcs[index] if pcs else 0x1000
            builder.load(pc, dst=1, addr_reg=2, mem_addr=addr)
        return builder.build()

    def test_sequential_loads_local_equals_global(self):
        trace = self.make_load_trace([0x1000 + 8 * i for i in range(50)])
        profile = stride_profile(trace)
        # All strides are 8 bytes: P(=0)=0, P(<=8)=1 for both local
        # (single PC) and global load streams.
        local_load = profile[0:5]
        global_load = profile[5:10]
        assert local_load[0] == 0.0
        assert local_load[1] == 1.0
        assert np.array_equal(local_load, global_load)

    def test_scalar_loads_stride_zero(self):
        trace = self.make_load_trace([0x2000] * 20)
        profile = stride_profile(trace)
        assert profile[0] == 1.0  # local load = 0
        assert profile[5] == 1.0  # global load = 0

    def test_interleaved_streams_differ_local_vs_global(self):
        # Two static loads, each sequential in its own distant region:
        # local strides small, global strides huge.
        addresses = []
        pcs = []
        for i in range(30):
            addresses.append(0x10_0000 + 8 * i)
            pcs.append(0x1000)
            addresses.append(0x90_0000 + 8 * i)
            pcs.append(0x1004)
        trace = self.make_load_trace(addresses, pcs)
        profile = stride_profile(trace)
        local_le8 = profile[1]
        global_le4096 = profile[4 + 1 + 4]  # global load <= 4096
        assert local_le8 > 0.9
        assert global_le4096 < 0.1

    def test_store_strides_independent_of_loads(self):
        builder = TraceBuilder()
        for i in range(20):
            builder.load(0x1000, dst=1, addr_reg=2, mem_addr=0x2000)
            builder.store(0x1004, value_reg=1, addr_reg=2,
                          mem_addr=0x8000 + 512 * i)
        profile = stride_profile(builder.build())
        local_store = profile[10:15]
        assert local_store[0] == 0.0          # Stride 512, never 0.
        assert local_store[2] == 0.0          # Not <= 64.
        assert local_store[3] == 1.0          # All <= 512.

    def test_thresholds_are_cumulative(self, small_trace):
        profile = stride_profile(small_trace)
        for start in (0, 5, 10, 15):
            section = profile[start:start + 5]
            assert (np.diff(section) >= -1e-12).all()
            assert (section >= 0.0).all() and (section <= 1.0).all()

    def test_no_memory_ops_gives_zeros(self):
        profile = stride_profile(alu_only(10))
        assert (profile == 0.0).all()

    def test_negative_strides_use_magnitude(self):
        trace = self.make_load_trace(
            [0x2000, 0x2008, 0x2000, 0x2008, 0x2000]
        )
        profile = stride_profile(trace)
        assert profile[1] == 1.0  # |stride| = 8 always.
        assert profile[0] == 0.0
