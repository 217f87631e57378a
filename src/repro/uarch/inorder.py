"""In-order pipeline model (Alpha 21164A style).

A dual-issue in-order machine: instructions issue in program order, at
most ``issue_width`` per cycle with one memory operation per cycle; an
instruction cannot issue before its source registers are ready; loads
deliver their result ``l1_hit`` (or miss-latency) cycles after issue;
branch mispredictions and instruction-fetch misses insert front-end
bubbles.  The model is cycle-approximate, not RTL-faithful — its purpose
is producing realistic hardware-performance-counter IPC values.

**Batch engine.**  For issue widths 1 and 2 (every production machine)
:meth:`InOrderModel.run` drives
:func:`repro.uarch.pipeline_batch.inorder_walk`: every per-instruction
stall term (fetch stalls, mispredict redirects, memory-port conflicts,
result latencies) is folded into precomputed arrays by vectorized
passes, and the remaining reduced recurrence is walked without any
per-instruction opclass or register-validity branching.  Wider machines
carry memory-port edges the fold cannot express and run the reference
loop.  :meth:`InOrderModel.run_reference` retains the original scalar
loop verbatim as the executable specification; the batch path is
pinned to it bit-for-bit on IPC by
``tests/test_uarch_pipeline_equivalence.py``.
"""

from __future__ import annotations

from ..errors import SimulationError
from ..isa import NO_REG, OpClass
from ..isa.registers import TOTAL_REGS
from ..trace import Trace
from .configs import MachineConfig
from .events import MachineEvents, simulate_events
from .pipeline_batch import inorder_walk


class InOrderModel:
    """Cycle-approximate in-order superscalar model."""

    def __init__(self, machine: MachineConfig):
        if machine.window_size:
            raise SimulationError(
                f"{machine.name} is an out-of-order configuration"
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
        if self.machine.issue_width > 2:
            return self.run_reference(trace, events)
        if len(trace) == 0:
            raise SimulationError("cannot simulate an empty trace")
        if events is None:
            events = simulate_events(trace, self.machine)
        total_cycles = inorder_walk(trace, self.machine, events)
        return len(trace) / total_cycles, events

    def run_reference(
        self, trace: Trace, events: "MachineEvents | None" = None
    ) -> "tuple[float, MachineEvents]":
        """Execute the trace with the retained scalar loop.

        The executable specification of the model's semantics: the
        original per-instruction state machine, kept verbatim for the
        equivalence tests and the perf harness.
        """
        if len(trace) == 0:
            raise SimulationError("cannot simulate an empty trace")
        if events is None:
            events = simulate_events(trace, self.machine)

        latencies = self.machine.latencies
        width = self.machine.issue_width
        n = len(trace)

        opclass = trace.opclass.tolist()
        src1 = trace.src1.tolist()
        src2 = trace.src2.tolist()
        dst = trace.dst.tolist()
        memory_latency = events.memory_latency.tolist()
        fetch_latency = events.fetch_latency.tolist()
        mispredict = events.mispredict.tolist()

        ready = [0] * (TOTAL_REGS + 1)  # +1 slot for NO_REG.
        load_class = int(OpClass.LOAD)
        store_class = int(OpClass.STORE)
        branch_class = int(OpClass.BRANCH)
        mul_class = int(OpClass.INT_MUL)
        fp_class = int(OpClass.FP)
        no_reg = NO_REG

        cycle = 0
        issued_this_cycle = 0
        memory_issued_this_cycle = False
        front_end_free = 0  # Cycle at which the front end resumes.

        for index in range(n):
            earliest = front_end_free + fetch_latency[index]
            a = src1[index]
            b = src2[index]
            if a != no_reg:
                value_ready = ready[a]
                if value_ready > earliest:
                    earliest = value_ready
            if b != no_reg:
                value_ready = ready[b]
                if value_ready > earliest:
                    earliest = value_ready

            op = opclass[index]
            is_memory = op == load_class or op == store_class

            if earliest > cycle:
                cycle = earliest
                issued_this_cycle = 0
                memory_issued_this_cycle = False
            elif issued_this_cycle >= width or (
                is_memory and memory_issued_this_cycle
            ):
                cycle += 1
                issued_this_cycle = 0
                memory_issued_this_cycle = False

            issued_this_cycle += 1
            if is_memory:
                memory_issued_this_cycle = True

            if op == load_class:
                result_latency = memory_latency[index]
            elif op == mul_class:
                result_latency = latencies.int_mul
            elif op == fp_class:
                result_latency = latencies.fp_op
            else:
                result_latency = 1

            d = dst[index]
            if d != no_reg:
                ready[d] = cycle + result_latency

            if op == branch_class and mispredict[index]:
                front_end_free = cycle + latencies.mispredict_penalty
                if front_end_free > cycle:
                    cycle = front_end_free
                    issued_this_cycle = 0
                    memory_issued_this_cycle = False
            elif front_end_free < cycle:
                front_end_free = cycle

        total_cycles = max(cycle + 1, 1)
        return n / total_cycles, events
