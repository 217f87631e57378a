"""Out-of-order pipeline model (Alpha 21264A style).

A four-wide out-of-order machine with a finite instruction window:
instructions are fetched in order (``issue_width`` per cycle, stalling
on I-cache misses and after branch mispredictions until the branch
resolves), enter the window, and execute as soon as their operands are
ready; the window bounds how far fetch may run ahead of the oldest
unfinished instruction.  Dataflow, latencies and mispredictions come
from the same event simulation the in-order model uses.

**Batch engine.**  :meth:`OutOfOrderModel.run` drives
:func:`repro.uarch.pipeline_batch.ooo_walk`: result latencies,
mispredict flags and register streams are precomputed as arrays by
vectorized passes, and the remaining reduced recurrence is walked with
no per-instruction opclass or register-validity branching.
:meth:`OutOfOrderModel.run_reference` retains the original scalar loop
verbatim as the executable specification; the batch path is pinned to
it bit-for-bit on IPC by ``tests/test_uarch_pipeline_equivalence.py``.
"""

from __future__ import annotations

from ..errors import SimulationError
from ..isa import NO_REG, OpClass
from ..isa.registers import TOTAL_REGS
from ..trace import Trace
from .configs import MachineConfig
from .events import MachineEvents, simulate_events
from .pipeline_batch import ooo_walk


class OutOfOrderModel:
    """Cycle-approximate out-of-order superscalar model."""

    def __init__(self, machine: MachineConfig):
        if not machine.window_size:
            raise SimulationError(
                f"{machine.name} is an in-order configuration"
            )
        self.machine = machine

    def run(
        self, trace: Trace, events: "MachineEvents | None" = None
    ) -> "tuple[float, MachineEvents]":
        """Execute the trace on the batch engine.

        Args:
            trace: dynamic instruction trace.
            events: precomputed :func:`simulate_events` result for this
                machine (computed on demand otherwise).

        Returns:
            ``(ipc, events)``; bit-identical to :meth:`run_reference`.
        """
        if len(trace) == 0:
            raise SimulationError("cannot simulate an empty trace")
        if events is None:
            events = simulate_events(trace, self.machine)
        total_cycles = ooo_walk(trace, self.machine, events)
        return len(trace) / total_cycles, events

    def run_reference(
        self, trace: Trace, events: "MachineEvents | None" = None
    ) -> "tuple[float, MachineEvents]":
        """Execute the trace with the retained scalar loop.

        The executable specification of the model's semantics, kept
        verbatim for the equivalence tests and the perf harness.
        """
        if len(trace) == 0:
            raise SimulationError("cannot simulate an empty trace")
        if events is None:
            events = simulate_events(trace, self.machine)

        latencies = self.machine.latencies
        width = self.machine.issue_width
        window = self.machine.window_size
        n = len(trace)

        opclass = trace.opclass.tolist()
        src1 = trace.src1.tolist()
        src2 = trace.src2.tolist()
        dst = trace.dst.tolist()
        memory_latency = events.memory_latency.tolist()
        fetch_latency = events.fetch_latency.tolist()
        mispredict = events.mispredict.tolist()

        ready = [0] * (TOTAL_REGS + 1)
        finish = [0] * n
        load_class = int(OpClass.LOAD)
        branch_class = int(OpClass.BRANCH)
        mul_class = int(OpClass.INT_MUL)
        fp_class = int(OpClass.FP)
        no_reg = NO_REG

        fetch_cycle = 0
        fetched_this_cycle = 0
        last_cycle = 0

        for index in range(n):
            # Fetch: in order, `width` per cycle, stalling on I-misses
            # and while the window is full.
            if fetched_this_cycle >= width:
                fetch_cycle += 1
                fetched_this_cycle = 0
            stall_until = fetch_cycle
            extra_fetch = fetch_latency[index]
            if extra_fetch:
                stall_until += extra_fetch
            if index >= window:
                oldest_finish = finish[index - window]
                if oldest_finish > stall_until:
                    stall_until = oldest_finish
            if stall_until > fetch_cycle:
                fetch_cycle = stall_until
                fetched_this_cycle = 0
            fetched_this_cycle += 1

            # Execute: when operands are ready, out of order.
            start = fetch_cycle
            a = src1[index]
            if a != no_reg and ready[a] > start:
                start = ready[a]
            b = src2[index]
            if b != no_reg and ready[b] > start:
                start = ready[b]

            op = opclass[index]
            if op == load_class:
                latency = memory_latency[index]
            elif op == mul_class:
                latency = latencies.int_mul
            elif op == fp_class:
                latency = latencies.fp_op
            else:
                latency = 1
            done = start + latency
            finish[index] = done
            if done > last_cycle:
                last_cycle = done

            d = dst[index]
            if d != no_reg:
                ready[d] = done

            # A mispredicted branch stalls fetch until it resolves,
            # plus the redirect penalty.
            if op == branch_class and mispredict[index]:
                resume = done + latencies.mispredict_penalty
                if resume > fetch_cycle:
                    fetch_cycle = resume
                    fetched_this_cycle = 0

        total_cycles = max(last_cycle, 1)
        return n / total_cycles, events
