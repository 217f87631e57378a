"""Instruction mix (Table II, characteristics 1-6).

Fractions of loads, stores, control transfers, arithmetic (integer ALU)
operations, integer multiplies and floating-point operations in the
dynamic instruction stream.  Following the paper, integer multiplies are
reported separately from other arithmetic operations.
"""

from __future__ import annotations

import numpy as np

from ..errors import CharacterizationError
from ..isa import OpClass
from ..trace import Trace

#: Opclass codes of the six mix fractions, in Table II order.
MIX_CLASSES = [
    int(OpClass.LOAD),
    int(OpClass.STORE),
    int(OpClass.BRANCH),
    int(OpClass.INT_ALU),
    int(OpClass.INT_MUL),
    int(OpClass.FP),
]


def instruction_mix(trace: Trace) -> np.ndarray:
    """The six instruction-mix fractions, in Table II order.

    Returns:
        ``[loads, stores, branches, arithmetic, int_mul, fp]`` as
        fractions of the dynamic instruction count (NOPs contribute to
        the denominator but to none of the categories).

    Raises:
        CharacterizationError: for an empty trace.
    """
    if len(trace) == 0:
        raise CharacterizationError("cannot compute mix of an empty trace")
    counts = np.bincount(trace.opclass, minlength=len(OpClass))
    return counts[MIX_CLASSES] / float(len(trace))
