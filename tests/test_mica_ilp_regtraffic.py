"""Tests for the dataflow-based MICA analyzers: producer resolution,
idealized-window ILP and register traffic."""

import numpy as np
import pytest

from conftest import make_alu_chain, make_independent_alu
from repro.errors import CharacterizationError
from repro.isa import NO_REG
from repro.trace import Trace, TraceBuilder
from repro.mica import ilp_ipc, producer_indices, register_traffic
from repro.mica.ilp import NO_PRODUCER


class TestProducerIndices:
    def test_simple_chain(self):
        trace = make_alu_chain(10)
        p1, p2 = producer_indices(trace)
        assert p1[0] == NO_PRODUCER
        assert list(p1[1:]) == list(range(9))
        assert (p2 == NO_PRODUCER).all()

    def test_zero_register_reads_have_no_producer(self):
        builder = TraceBuilder()
        builder.alu(0x1000, dst=31)       # Write to $31 (zero reg).
        builder.alu(0x1004, dst=1, src1=31)  # Read $31.
        p1, _ = producer_indices(builder.build())
        assert p1[1] == NO_PRODUCER

    def test_unwritten_register_has_no_producer(self):
        builder = TraceBuilder()
        builder.alu(0x1000, dst=1, src1=7)
        p1, _ = producer_indices(builder.build())
        assert p1[0] == NO_PRODUCER

    def test_most_recent_writer_wins(self):
        builder = TraceBuilder()
        builder.alu(0x1000, dst=5)
        builder.alu(0x1004, dst=5)
        builder.alu(0x1008, dst=1, src1=5)
        p1, _ = producer_indices(builder.build())
        assert p1[2] == 1

    def test_self_write_not_own_producer(self):
        builder = TraceBuilder()
        builder.alu(0x1000, dst=5)
        builder.alu(0x1004, dst=5, src1=5)  # Reads previous value.
        p1, _ = producer_indices(builder.build())
        assert p1[1] == 0

    def test_second_source_slot(self):
        builder = TraceBuilder()
        builder.alu(0x1000, dst=1)
        builder.alu(0x1004, dst=2)
        builder.alu(0x1008, dst=3, src1=1, src2=2)
        p1, p2 = producer_indices(builder.build())
        assert p1[2] == 0
        assert p2[2] == 1


class TestIlp:
    def test_serial_chain_ipc_one(self):
        trace = make_alu_chain(512)
        assert np.allclose(ilp_ipc(trace), 1.0)

    def test_independent_ipc_equals_window(self):
        trace = make_independent_alu(1024)
        ipc = ilp_ipc(trace, window_sizes=(32, 64))
        assert ipc[0] == pytest.approx(32.0)
        assert ipc[1] == pytest.approx(64.0)

    def test_ipc_monotone_in_window(self, small_trace):
        ipc = ilp_ipc(small_trace)
        assert (np.diff(ipc) >= -1e-9).all()

    def test_serial_vs_parallel_profiles(self, serial_profile,
                                          parallel_profile):
        from repro.synth import generate_trace

        serial = generate_trace(serial_profile, 10_000)
        parallel = generate_trace(parallel_profile, 10_000)
        assert ilp_ipc(parallel)[3] > 2.0 * ilp_ipc(serial)[3]

    def test_window_partition_boundary(self):
        # A chain within each window but independent across windows:
        # depth = window, so IPC = 1 regardless of window size.
        trace = make_alu_chain(256)
        ipc = ilp_ipc(trace, window_sizes=(16,))
        assert ipc[0] == pytest.approx(1.0)

    def test_rejects_bad_window(self, small_trace):
        with pytest.raises(CharacterizationError):
            ilp_ipc(small_trace, window_sizes=(0,))

    def test_rejects_empty(self):
        with pytest.raises(CharacterizationError):
            ilp_ipc(Trace.empty())


class TestRegisterTraffic:
    def test_chain_has_one_operand(self):
        trace = make_alu_chain(100)
        traffic = register_traffic(trace)
        # 99 of 100 instructions have one source.
        assert traffic[0] == pytest.approx(0.99)

    def test_chain_degree_of_use_one(self):
        trace = make_alu_chain(100)
        traffic = register_traffic(trace)
        assert traffic[1] == pytest.approx(0.99)

    def test_chain_dependency_distance_one(self):
        trace = make_alu_chain(100)
        traffic = register_traffic(trace)
        # All dependency distances are exactly 1.
        assert traffic[2] == pytest.approx(1.0)   # P(= 1)
        assert traffic[8] == pytest.approx(1.0)   # P(<= 64)

    def test_known_distance_distribution(self):
        builder = TraceBuilder()
        builder.alu(0x1000, dst=1)
        builder.alu(0x1004, dst=2)
        builder.alu(0x1008, dst=3)
        builder.alu(0x100C, dst=4, src1=1)  # Distance 3.
        builder.alu(0x1010, dst=5, src1=3)  # Distance 2.
        traffic = register_traffic(builder.build())
        assert traffic[2] == pytest.approx(0.0)       # P(= 1)
        assert traffic[3] == pytest.approx(0.5)       # P(<= 2)
        assert traffic[4] == pytest.approx(1.0)       # P(<= 4)

    def test_distances_cumulative(self, small_trace):
        traffic = register_traffic(small_trace)
        distances = traffic[2:]
        assert (np.diff(distances) >= -1e-12).all()

    def test_degree_of_use_counts_multiple_reads(self):
        builder = TraceBuilder()
        builder.alu(0x1000, dst=1)
        for i in range(4):
            builder.alu(0x1004 + 4 * i, dst=2, src1=1)
        traffic = register_traffic(builder.build())
        # 4 consumed reads / 5 writes.
        assert traffic[1] == pytest.approx(0.8)

    def test_independent_trace_zero_distances(self):
        trace = make_independent_alu(50)
        traffic = register_traffic(trace)
        assert traffic[0] == 0.0
        assert traffic[1] == 0.0
        assert (traffic[2:] == 0.0).all()

    def test_dep_mean_knob_shifts_distances(self):
        from repro.synth import RegisterSpec, WorkloadProfile, generate_trace

        short = generate_trace(
            WorkloadProfile(name="t/d/short",
                            registers=RegisterSpec(dep_mean=1.2)),
            10_000,
        )
        long = generate_trace(
            WorkloadProfile(name="t/d/long",
                            registers=RegisterSpec(dep_mean=10.0)),
            10_000,
        )
        short_le4 = register_traffic(short)[4]
        long_le4 = register_traffic(long)[4]
        assert short_le4 > long_le4 + 0.1
