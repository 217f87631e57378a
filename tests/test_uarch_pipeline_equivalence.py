"""Batch pipeline engines vs the retained scalar references.

The production batch walk (``run``) of each pipeline model must agree
bit-for-bit on IPC with the retained scalar loop (``run_reference``).
Coverage spans the eight-benchmark test population, randomized traces,
and hand-built adversarial traces exercising window-full stalls,
memory-port conflicts at full issue width, back-to-back mispredicted
branches, fetch-latency/dependence ties, length-1 traces and
``issue_width=1`` machines.
"""

import numpy as np
import pytest

from conftest import make_alu_chain, make_independent_alu
from repro.isa import OpClass
from repro.synth import generate_trace
from repro.trace import TraceBuilder
from repro.uarch import (
    EV56_CONFIG,
    EV67_CONFIG,
    InOrderModel,
    MachineConfig,
    OutOfOrderModel,
)
from repro.uarch.configs import LatencyModel
from repro.uarch.events import simulate_events
from repro.workloads import all_benchmarks


def assert_all_engines_agree(trace, inorder=EV56_CONFIG, ooo=EV67_CONFIG):
    """Pin walk == reference, bit for bit, both models."""
    if inorder is not None:
        events = simulate_events(trace, inorder)
        model = InOrderModel(inorder)
        ipc_walk, _ = model.run(trace, events=events)
        ipc_ref, _ = model.run_reference(trace, events=events)
        assert ipc_walk == ipc_ref, "in-order walk != reference"
    if ooo is not None:
        events = simulate_events(trace, ooo)
        model = OutOfOrderModel(ooo)
        ipc_walk, _ = model.run(trace, events=events)
        ipc_ref, _ = model.run_reference(trace, events=events)
        assert ipc_walk == ipc_ref, "out-of-order walk != reference"


def narrow_inorder(width: int, penalty: int = 5) -> MachineConfig:
    """An in-order config with a chosen issue width."""
    return MachineConfig(
        name=f"inorder-w{width}",
        issue_width=width,
        l1i=EV56_CONFIG.l1i,
        l1d=EV56_CONFIG.l1d,
        l2=EV56_CONFIG.l2,
        tlb_entries=EV56_CONFIG.tlb_entries,
        tlb_page_bytes=EV56_CONFIG.tlb_page_bytes,
        latencies=LatencyModel(
            l1_hit=2, l2_hit=8, memory=60, tlb_miss=40,
            mispredict_penalty=penalty,
        ),
        predictor_kind="bimodal",
    )


def tiny_window_ooo(window: int, width: int = 4) -> MachineConfig:
    """An out-of-order config with a chosen (small) window."""
    return MachineConfig(
        name=f"ooo-win{window}",
        issue_width=width,
        l1i=EV67_CONFIG.l1i,
        l1d=EV67_CONFIG.l1d,
        l2=EV67_CONFIG.l2,
        tlb_entries=EV67_CONFIG.tlb_entries,
        tlb_page_bytes=EV67_CONFIG.tlb_page_bytes,
        latencies=EV67_CONFIG.latencies,
        predictor_kind="tournament",
        window_size=window,
    )


class TestPopulationEquivalence:
    @pytest.mark.parametrize(
        "bench", list(all_benchmarks())[:8],
        ids=lambda b: b.short_name,
    )
    def test_population_bit_identical(self, bench):
        trace = generate_trace(bench.profile, 3_000)
        assert_all_engines_agree(trace)


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_traces(self, seed):
        rng = np.random.default_rng(seed)
        builder = TraceBuilder(name=f"random/{seed}")
        length = int(rng.integers(200, 1_500))
        for index in range(length):
            kind = rng.random()
            pc = 0x1000 + 4 * int(rng.integers(0, 512))
            dst = int(rng.integers(1, 30))
            src1 = int(rng.integers(1, 30))
            src2 = int(rng.integers(1, 30))
            if kind < 0.25:
                builder.append(pc, OpClass.LOAD, src1=src1, dst=dst,
                               mem_addr=int(rng.integers(1, 1 << 20)) * 8)
            elif kind < 0.35:
                builder.append(pc, OpClass.STORE, src1=src1, src2=src2,
                               mem_addr=int(rng.integers(1, 1 << 20)) * 8)
            elif kind < 0.5:
                builder.append(pc, OpClass.BRANCH, src1=src1,
                               taken=bool(rng.random() < 0.5),
                               target=0x1000 + 4 * int(rng.integers(0, 512)))
            elif kind < 0.6:
                builder.append(pc, OpClass.INT_MUL, src1=src1, src2=src2,
                               dst=dst)
            elif kind < 0.7:
                builder.append(pc, OpClass.FP, src1=src1, src2=src2, dst=dst)
            else:
                builder.append(pc, OpClass.INT_ALU, src1=src1, src2=src2,
                               dst=dst)
        trace = builder.build()
        assert_all_engines_agree(trace)
        assert_all_engines_agree(
            trace, inorder=narrow_inorder(1), ooo=tiny_window_ooo(4)
        )
        assert_all_engines_agree(
            trace,
            inorder=narrow_inorder(3),
            ooo=tiny_window_ooo(7, width=2),
        )
        assert_all_engines_agree(
            trace, inorder=None, ooo=tiny_window_ooo(8, width=1)
        )


class TestAdversarialEquivalence:
    def test_window_full_stalls(self):
        """Serial chains much deeper than a tiny window stall fetch."""
        trace = make_alu_chain(600)
        assert_all_engines_agree(trace, inorder=None, ooo=tiny_window_ooo(2))
        assert_all_engines_agree(trace, inorder=None, ooo=tiny_window_ooo(8))

    def test_memory_port_conflicts_at_full_width(self):
        """Back-to-back independent loads fight over the memory port."""
        builder = TraceBuilder(name="memport")
        for index in range(500):
            builder.append(0x1000 + 4 * (index % 32), OpClass.LOAD,
                           src1=1, dst=2 + (index % 8),
                           mem_addr=0x10000 + 8 * (index % 64))
        trace = builder.build()
        assert_all_engines_agree(trace)
        assert_all_engines_agree(trace, inorder=narrow_inorder(4), ooo=None)

    def test_back_to_back_mispredicted_branches(self):
        """Alternating-direction branches mispredict in bursts."""
        builder = TraceBuilder(name="branchy")
        for index in range(600):
            builder.append(0x1000 + 4 * (index % 7), OpClass.BRANCH,
                           src1=1, taken=bool((index * 7) % 3 == 0),
                           target=0x2000)
        trace = builder.build()
        assert_all_engines_agree(trace)

    def test_fetch_latency_dependence_ties(self):
        """Cold PCs (I-misses) racing register dependences of equal age."""
        builder = TraceBuilder(name="ties")
        for index in range(400):
            # Fresh PC every instruction: every fetch misses the L1I.
            pc = 0x1000 + 64 * index
            if index % 3 == 0:
                builder.append(pc, OpClass.LOAD, src1=1 + (index % 4),
                               dst=1 + ((index + 1) % 4),
                               mem_addr=0x100000 + 8 * index)
            else:
                builder.append(pc, OpClass.INT_ALU, src1=1 + (index % 4),
                               src2=1 + ((index + 2) % 4),
                               dst=1 + ((index + 1) % 4))
        trace = builder.build()
        assert_all_engines_agree(trace)

    def test_length_one_trace(self):
        builder = TraceBuilder(name="one")
        builder.append(0x1000, OpClass.LOAD, src1=1, dst=2, mem_addr=0x8000)
        trace = builder.build()
        assert_all_engines_agree(trace)

    def test_issue_width_one(self):
        trace = make_independent_alu(400)
        assert_all_engines_agree(
            trace, inorder=narrow_inorder(1), ooo=tiny_window_ooo(8, width=1)
        )
        chain = make_alu_chain(400)
        assert_all_engines_agree(
            chain, inorder=narrow_inorder(1), ooo=tiny_window_ooo(8, width=1)
        )

    def test_narrow_ooo_widths(self):
        """Width-1/2 out-of-order machines exercise fetch-bump corners
        the production width never hits."""
        trace = make_independent_alu(300)
        for width in (1, 2):
            for window in (2, 7, 80):
                assert_all_engines_agree(
                    trace, inorder=None,
                    ooo=tiny_window_ooo(window, width=width),
                )

    def test_trailing_mispredicted_branch(self):
        """A mispredicted final branch still pays its redirect: the
        reference advances the cycle after the last instruction."""
        builder = TraceBuilder(name="trailing-mp")
        builder.append(0x1000, OpClass.INT_ALU, src1=1, dst=2)
        # One PC: the bimodal counter saturates taken, then the final
        # not-taken branch mispredicts.
        for index in range(5):
            builder.append(0x2000, OpClass.BRANCH, src1=2,
                           taken=index < 4, target=0x3000)
        trace = builder.build()
        events = simulate_events(trace, EV56_CONFIG)
        assert events.mispredict[-1], "fixture must end mispredicted"
        assert_all_engines_agree(trace)

    def test_zero_penalty_mispredicts(self):
        """A zero redirect penalty exercises the no-bump corner."""
        builder = TraceBuilder(name="zero-pen")
        for index in range(300):
            builder.append(0x1000 + 4 * (index % 5), OpClass.BRANCH,
                           src1=1, taken=bool(index % 2), target=0x2000)
        trace = builder.build()
        assert_all_engines_agree(
            trace, inorder=narrow_inorder(2, penalty=0), ooo=None
        )

    def test_pointer_chase_serialization(self):
        """Loads feeding the next load's address: maximal serialization."""
        builder = TraceBuilder(name="chase")
        for index in range(500):
            builder.append(0x1000 + 4 * (index % 16), OpClass.LOAD,
                           src1=1, dst=1,
                           mem_addr=0x10000 + 8 * ((index * 7919) % 4096))
        trace = builder.build()
        assert_all_engines_agree(trace)


class TestGeneratedProfiles:
    def test_serial_and_parallel_profiles(
        self, serial_profile, parallel_profile
    ):
        for profile in (serial_profile, parallel_profile):
            trace = generate_trace(profile, 2_000)
            assert_all_engines_agree(trace)

    def test_collect_hpc_threads_events(self, small_trace):
        """Threaded events reproduce the on-demand result exactly."""
        from repro.uarch import collect_hpc

        plain = collect_hpc(small_trace)
        threaded = collect_hpc(
            small_trace,
            inorder_events=simulate_events(small_trace, EV56_CONFIG),
            ooo_events=simulate_events(small_trace, EV67_CONFIG),
        )
        assert np.array_equal(plain.values, threaded.values)
