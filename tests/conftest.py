"""Shared fixtures.

Trace-producing fixtures are session-scoped and sized for speed: the
full library behavior is exercised with 2k-20k instruction traces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.synth import (
    BranchSpec,
    CodeSpec,
    MemorySpec,
    MixSpec,
    RegisterSpec,
    WorkloadProfile,
    generate_trace,
)
from repro.trace import Trace, TraceBuilder


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="run tests marked slow (perf harness, end-to-end runs)",
    )


def pytest_collection_modifyitems(config, items):
    """Keep tier-1 ``pytest -x -q`` fast: deselect slow-marked tests."""
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow test: pass --runslow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


#: A fast configuration shared by tests that need one.
TEST_CONFIG = ReproConfig(
    trace_length=5_000,
    ga_generations=8,
    ga_population=16,
)


@pytest.fixture()
def count_perf_cache_calls(monkeypatch):
    """Count calls through ``repro.perf.cache``'s module-level names.

    ``count_perf_cache_calls(*names)`` wraps each name for the test's
    duration and returns the live ``{name: calls}`` dictionary.
    """
    import repro.perf.cache as perf_cache

    def counted(calls, name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    def count(*names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            monkeypatch.setattr(perf_cache, name, counted(
                calls, name, getattr(perf_cache, name)
            ))
        return calls

    return count


@pytest.fixture(scope="session")
def test_config() -> ReproConfig:
    return TEST_CONFIG


@pytest.fixture(scope="session")
def default_profile() -> WorkloadProfile:
    """A plain profile with default knobs."""
    return WorkloadProfile(name="test/default/1")


@pytest.fixture(scope="session")
def small_trace(default_profile) -> Trace:
    """A 5k-instruction synthetic trace."""
    return generate_trace(default_profile, 5_000)


@pytest.fixture(scope="session")
def serial_profile() -> WorkloadProfile:
    """A profile engineered for long dependency chains (low ILP)."""
    return WorkloadProfile(
        name="test/serial/1",
        registers=RegisterSpec(dep_mean=1.2, imm_fraction=0.02),
    )


@pytest.fixture(scope="session")
def parallel_profile() -> WorkloadProfile:
    """A profile engineered for high ILP."""
    return WorkloadProfile(
        name="test/parallel/1",
        registers=RegisterSpec(dep_mean=12.0, imm_fraction=0.4),
    )


@pytest.fixture(scope="session")
def fp_heavy_profile() -> WorkloadProfile:
    """A floating-point-dominated profile."""
    return WorkloadProfile(
        name="test/fp/1",
        mix=MixSpec.normalized(load=0.25, store=0.08, branch=0.06,
                               int_alu=0.2, int_mul=0.01, fp=0.4),
    )


@pytest.fixture()
def tiny_builder() -> TraceBuilder:
    """An empty builder for hand-crafted traces."""
    return TraceBuilder(name="test/hand/1")


def make_alu_chain(length: int, pool: int = 8, code_span: int = 64) -> Trace:
    """A fully serial ALU chain: each instruction reads the previous
    destination.  PCs loop over a small code region so instruction-cache
    behavior does not dominate pipeline-model tests."""
    builder = TraceBuilder(name="chain")
    for index in range(length):
        dst = 1 + (index % pool)
        src = 1 + ((index - 1) % pool) if index else 255
        builder.alu(pc=0x1000 + 4 * (index % code_span), dst=dst,
                    src1=src if index else 255)
    return builder.build()


def make_independent_alu(
    length: int, pool: int = 8, code_span: int = 64
) -> Trace:
    """Fully independent ALU instructions (no sources), looping PCs."""
    builder = TraceBuilder(name="independent")
    for index in range(length):
        builder.alu(pc=0x1000 + 4 * (index % code_span),
                    dst=1 + (index % pool))
    return builder.build()


@pytest.fixture(scope="session")
def small_population():
    """Eight contrasting real registry benchmarks for dataset tests.

    Includes same-program/different-input pairs (the three bzip2
    inputs) so the pairwise-distance spread always contains genuinely
    close pairs — threshold-based drivers (e.g. the Figure 4 ROC
    reference space) need both sides of their cut populated.
    """
    from repro.workloads import get_benchmark

    names = [
        "spec2000/mcf/ref",
        "spec2000/swim/ref",
        "spec2000/bzip2/graphic",
        "mibench/adpcm/rawcaudio",
        "bioinfomark/blast/protein",
        "commbench/drr/drr",
        "spec2000/bzip2/source",
        "spec2000/bzip2/program",
    ]
    return [get_benchmark(name) for name in names]
