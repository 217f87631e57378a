"""MICA benchmark harness: per-analyzer wall time and throughput.

:func:`run_mica_bench` times every Table II analyzer — and the retained
scalar reference implementations of the two historically dominant ones
(PPM and ILP) — on one synthetic trace, reporting the best-of-N wall
time and the instructions-per-second throughput for each.
:func:`run_generation_bench` does the same for the trace-generation
engine (full ``generate_trace``, the batch interpreter and expansion
against their scalar references, and a cold-vs-warm ``build_dataset``
pass over the characterization/HPC caches).  The combined result
serializes to the repo-level ``BENCH_mica.json`` so each PR can record
its point on the performance trajectory.

How to read the output:

* ``analyzers.<name>.seconds`` — best-of-``repeats`` wall time of one
  full-trace analysis.
* ``analyzers.<name>.instructions_per_second`` — trace length divided
  by that time (the honest cross-machine comparable).
* ``speedups.ppm`` / ``speedups.ilp`` — reference time over vectorized
  time for the same work; the acceptance floor for this engine is 10x
  (PPM) and 5x (ILP).  Since schema v7 both ILP timings include
  producer recovery (``ilp_ipc`` recovers its own producers, so
  ``ilp_ipc_reference`` is timed from the trace too); v6 and earlier
  timed both on precomputed producers, so their ILP ratios read higher
  and are not comparable.
* ``characterize`` — one end-to-end 47-characteristic vector, the
  number dataset builds actually feel per benchmark.
* ``generation.phases.<name>`` — generation-engine timings:
  ``generate_trace`` (full pipeline), ``interpret`` / ``expand`` (the
  batch phases) and their ``*_reference`` scalar specifications.
* ``generation.speedups.engine`` — reference-over-vectorized for the
  two rewritten phases combined; the acceptance floor is 10x at the
  default 100k-instruction trace (``interpret`` / ``expand`` report
  the per-phase ratios).
* ``generation.dataset`` — wall time of a small ``build_dataset``
  with cold caches vs warm (characterization + HPC caches populated,
  dataset-level matrices dropped).  ``warm_over_cold``
  below one is the cache hierarchy working.
* ``hpc.engines.<name>`` — HPC event-engine timings:
  ``events_ev56`` / ``events_ev67`` (one full
  :func:`~repro.uarch.events.simulate_events` assembly per machine),
  ``collect_hpc`` (end-to-end seven-metric collection), the component
  engines (``cache_l1d``, ``tlb``, ``predictor_bimodal``,
  ``predictor_tournament``, ``producer_indices``) and the
  ``*_reference`` scalar specifications of each.
* ``hpc.engines.pipeline_ev56`` / ``pipeline_ev67`` (schema v4) — one
  pipeline-model run over precomputed events (``InOrderModel.run`` /
  ``OutOfOrderModel.run``, the batch walk engines), isolating the
  pipeline models from the event simulation; the ``*_reference``
  entries time the retained scalar loops on the same events.
* ``hpc.speedups.<engine>`` — reference-over-vectorized per engine;
  ``hpc.speedups.events`` combines both machines' event assemblies
  (acceptance floor: 5x at the default 100k-instruction trace);
  ``hpc.speedups.pipelines`` (v4) combines both pipeline models —
  reference loops over batch walks on precomputed events.
* ``hpc.cache`` — one ``cached_collect_hpc`` cold vs warm through a
  throwaway HPC cache directory (a warm hit skips both pipeline
  models entirely).
* ``phases.engines.<name>`` (schema v5) — phase-engine timings:
  ``mica_timeline`` (the segmented interval-characterization engine on
  the default six-key timeline), ``mica_timeline_reference`` (the
  retained per-chunk loop; since schema v7 it runs the scalar ILP, PPM
  and producer-recovery references, where v5/v6 ran the vectorized
  section functions, so v7 timeline ratios read higher and are not
  comparable), ``interval_mica`` (full 47-column
  per-interval vectors, the MICA phase-detection substrate), the
  BBV/mix signature extractors and one end-to-end BBV
  ``detect_phases``.
* ``phases.speedups.timeline`` / top-level ``speedups.phases`` —
  chunked-reference-over-engine for the default timeline; the
  acceptance floor is 5x at 100k instructions x 5k-instruction
  intervals.
* ``sharded.engines.<name>`` (schema v6) — shard-engine timings:
  ``characterize_one_shot`` (the whole-trace baseline),
  ``sharded_stream`` (shard + merge through the sequential streaming
  fold — its gap to one-shot *is* the merge overhead) and
  ``sharded_jobs2`` / ``sharded_jobs4`` (the two-round intra-trace
  fan-out across worker processes).
* ``sharded.speedups.merge_overhead`` / top-level
  ``speedups.sharded`` — one-shot time over sequential sharded time
  (below one by the cost of carrying and merging per-shard state; the
  committed floor gates it from regressing).
  ``sharded.speedups.jobs2`` / ``jobs4`` — one-shot time over the
  parallel fan-out (above one once the trace amortizes pool startup;
  the acceptance evidence for multi-core intra-trace scaling).
"""

from __future__ import annotations

import json
import platform
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..config import DEFAULT_CONFIG, ReproConfig
from ..mica import characterize
from ..mica.ilp import ilp_ipc, ilp_ipc_reference, producer_indices
from ..mica.instruction_mix import instruction_mix
from ..mica.ppm import ppm_predictabilities, ppm_predictabilities_reference
from ..mica.register_traffic import register_traffic
from ..mica.strides import stride_profile
from ..mica.working_set import working_set
from ..trace import Trace

#: Default benchmark workload: a registry profile with a typical mix.
DEFAULT_BENCH_PROFILE = "spec2000/vpr/place"


@dataclass(frozen=True)
class AnalyzerTiming:
    """Best-of-N wall time for one analyzer over one trace."""

    name: str
    seconds: float
    instructions: int

    @property
    def instructions_per_second(self) -> float:
        return self.instructions / self.seconds if self.seconds else 0.0

    def as_dict(self) -> dict:
        return {
            "seconds": self.seconds,
            "instructions_per_second": self.instructions_per_second,
        }


@dataclass(frozen=True)
class GenerationBenchResult:
    """Generation-engine timings: batch phases vs scalar references.

    Attributes:
        trace_length: instructions generated per timing.
        profile: registry benchmark supplying the workload profile.
        repeats: timing repetitions (the best is kept).
        timings: per-phase wall times (``generate_trace``,
            ``interpret``, ``interpret_reference``, ``expand``,
            ``expand_reference``).
        speedups: reference-over-vectorized ratios per phase plus the
            combined ``engine`` ratio.
        dataset: cold-vs-warm ``build_dataset`` wall times over the
            trace/characterization caches.
    """

    trace_length: int
    profile: str
    repeats: int
    timings: Tuple[AnalyzerTiming, ...]
    speedups: Dict[str, float] = field(default_factory=dict)
    dataset: Dict[str, float] = field(default_factory=dict)

    def timing(self, name: str) -> AnalyzerTiming:
        for entry in self.timings:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "trace_length": self.trace_length,
            "profile": self.profile,
            "repeats": self.repeats,
            "phases": {
                entry.name: entry.as_dict() for entry in self.timings
            },
            "speedups": dict(self.speedups),
            "dataset": dict(self.dataset),
        }

    def format(self) -> str:
        """Human-readable report section."""
        lines = [
            f"  generation engine — {self.trace_length:,} instructions"
        ]
        for entry in self.timings:
            lines.append(
                f"  {entry.name:<22} {entry.seconds * 1e3:>9.2f} ms"
                f"  {entry.instructions_per_second / 1e6:>8.1f} Minstr/s"
            )
        for name, ratio in self.speedups.items():
            lines.append(
                f"  gen speedup[{name}]: {ratio:.1f}x vs reference"
            )
        if self.dataset:
            lines.append(
                f"  dataset build ({int(self.dataset['benchmarks'])} "
                f"benchmarks x {int(self.dataset['trace_length']):,}): "
                f"cold {self.dataset['cold_seconds'] * 1e3:.0f} ms, "
                f"warm {self.dataset['warm_seconds'] * 1e3:.0f} ms"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class HpcBenchResult:
    """HPC event-engine timings: batch engines vs scalar references.

    Attributes:
        trace_length: instructions simulated per timing.
        profile: registry benchmark supplying the workload profile.
        repeats: timing repetitions (the best is kept).
        timings: per-engine wall times (``events_ev56``/``events_ev67``,
            ``pipeline_ev56``/``pipeline_ev67`` (one pipeline-model run
            over precomputed events) and their ``*_reference`` scalar
            specifications, ``collect_hpc``, the cache/TLB/predictor
            component engines and ``producer_indices``).
        speedups: reference-over-vectorized ratios per engine plus the
            combined ``events`` ratio (acceptance floor: 5x at 100k
            instructions) and the combined ``pipelines`` ratio.
        cache: cold-vs-warm ``cached_collect_hpc`` wall times over the
            on-disk HPC cache.
    """

    trace_length: int
    profile: str
    repeats: int
    timings: Tuple[AnalyzerTiming, ...]
    speedups: Dict[str, float] = field(default_factory=dict)
    cache: Dict[str, float] = field(default_factory=dict)

    def timing(self, name: str) -> AnalyzerTiming:
        for entry in self.timings:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "trace_length": self.trace_length,
            "profile": self.profile,
            "repeats": self.repeats,
            "engines": {
                entry.name: entry.as_dict() for entry in self.timings
            },
            "speedups": dict(self.speedups),
            "cache": dict(self.cache),
        }

    def format(self) -> str:
        """Human-readable report section."""
        lines = [f"  HPC engine — {self.trace_length:,} instructions"]
        for entry in self.timings:
            lines.append(
                f"  {entry.name:<22} {entry.seconds * 1e3:>9.2f} ms"
                f"  {entry.instructions_per_second / 1e6:>8.1f} Minstr/s"
            )
        for name, ratio in self.speedups.items():
            lines.append(
                f"  hpc speedup[{name}]: {ratio:.1f}x vs reference"
            )
        if self.cache:
            lines.append(
                f"  hpc cache: cold {self.cache['cold_seconds'] * 1e3:.1f} ms,"
                f" warm {self.cache['warm_seconds'] * 1e3:.1f} ms"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class PhasesBenchResult:
    """Phase-engine timings: segmented engine vs the chunked reference.

    Attributes:
        trace_length: instructions analyzed per timing.
        profile: registry benchmark supplying the workload profile.
        repeats: timing repetitions (the best is kept).
        interval: instructions per interval.
        timings: per-path wall times (``mica_timeline`` — the segmented
            engine on the default six-key timeline —
            ``mica_timeline_reference`` — the retained per-chunk loop —
            ``interval_mica`` — full 47-column per-interval vectors,
            the ``detect_phases(signature="mica")`` substrate —
            ``basic_block_vectors``, ``interval_mix`` and an
            end-to-end ``detect_phases`` BBV clustering).
        speedups: reference-over-engine ratios (``timeline`` — the
            acceptance-floor ratio, >= 5x at 100k instructions x
            5k-instruction intervals).
    """

    trace_length: int
    profile: str
    repeats: int
    interval: int
    timings: Tuple[AnalyzerTiming, ...]
    speedups: Dict[str, float] = field(default_factory=dict)

    def timing(self, name: str) -> AnalyzerTiming:
        for entry in self.timings:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "trace_length": self.trace_length,
            "profile": self.profile,
            "repeats": self.repeats,
            "interval": self.interval,
            "engines": {
                entry.name: entry.as_dict() for entry in self.timings
            },
            "speedups": dict(self.speedups),
        }

    def format(self) -> str:
        """Human-readable report section."""
        lines = [
            f"  phase engine — {self.trace_length:,} instructions x "
            f"{self.interval:,}-instruction intervals"
        ]
        for entry in self.timings:
            lines.append(
                f"  {entry.name:<22} {entry.seconds * 1e3:>9.2f} ms"
                f"  {entry.instructions_per_second / 1e6:>8.1f} Minstr/s"
            )
        for name, ratio in self.speedups.items():
            lines.append(
                f"  phase speedup[{name}]: {ratio:.1f}x vs reference"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class ShardedBenchResult:
    """Shard-engine timings: merge overhead and intra-trace scaling.

    Attributes:
        trace_length: instructions characterized per timing.
        profile: registry benchmark supplying the workload profile.
        repeats: timing repetitions (the best is kept).
        shards: contiguous shards per sharded run.
        timings: per-path wall times (``characterize_one_shot`` — the
            whole-trace baseline — ``sharded_stream`` — the sequential
            shard+merge fold, whose gap to one-shot is the merge
            overhead — and ``sharded_jobs<N>`` — the two-round
            intra-trace fan-out across N worker processes).
        speedups: one-shot-over-sharded ratios (``merge_overhead`` for
            the sequential fold, the floor-gated number;
            ``jobs<N>`` for each parallel fan-out — above one is
            measured multi-core intra-trace scaling).
    """

    trace_length: int
    profile: str
    repeats: int
    shards: int
    timings: Tuple[AnalyzerTiming, ...]
    speedups: Dict[str, float] = field(default_factory=dict)

    def timing(self, name: str) -> AnalyzerTiming:
        for entry in self.timings:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "trace_length": self.trace_length,
            "profile": self.profile,
            "repeats": self.repeats,
            "shards": self.shards,
            "engines": {
                entry.name: entry.as_dict() for entry in self.timings
            },
            "speedups": dict(self.speedups),
        }

    def format(self) -> str:
        """Human-readable report section."""
        lines = [
            f"  shard engine — {self.trace_length:,} instructions x "
            f"{self.shards} shards"
        ]
        for entry in self.timings:
            lines.append(
                f"  {entry.name:<22} {entry.seconds * 1e3:>9.2f} ms"
                f"  {entry.instructions_per_second / 1e6:>8.1f} Minstr/s"
            )
        for name, ratio in self.speedups.items():
            lines.append(
                f"  sharded speedup[{name}]: {ratio:.2f}x vs one-shot"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class MicaBenchResult:
    """One harness run: per-analyzer timings plus derived speedups."""

    trace_length: int
    profile: str
    repeats: int
    timings: Tuple[AnalyzerTiming, ...]
    speedups: Dict[str, float] = field(default_factory=dict)
    generation: "Optional[GenerationBenchResult]" = None
    hpc: "Optional[HpcBenchResult]" = None
    phases: "Optional[PhasesBenchResult]" = None
    sharded: "Optional[ShardedBenchResult]" = None

    def timing(self, name: str) -> AnalyzerTiming:
        for entry in self.timings:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def as_dict(self) -> dict:
        payload = {
            "schema": "BENCH_mica/v7",
            "meta": {
                "trace_length": self.trace_length,
                "profile": self.profile,
                "repeats": self.repeats,
                "python": platform.python_version(),
                "machine": platform.machine(),
            },
            "analyzers": {
                entry.name: entry.as_dict() for entry in self.timings
            },
            "speedups": dict(self.speedups),
        }
        if self.generation is not None:
            payload["generation"] = self.generation.as_dict()
        if self.hpc is not None:
            payload["hpc"] = self.hpc.as_dict()
        if self.phases is not None:
            payload["phases"] = self.phases.as_dict()
        if self.sharded is not None:
            payload["sharded"] = self.sharded.as_dict()
        return payload

    def format(self) -> str:
        """Human-readable table of the run."""
        lines = [
            f"MICA perf harness — {self.profile}, "
            f"{self.trace_length:,} instructions, best of {self.repeats}"
        ]
        for entry in self.timings:
            lines.append(
                f"  {entry.name:<22} {entry.seconds * 1e3:>9.2f} ms"
                f"  {entry.instructions_per_second / 1e6:>8.1f} Minstr/s"
            )
        for name, ratio in self.speedups.items():
            lines.append(f"  speedup[{name}]: {ratio:.1f}x vs reference")
        if self.generation is not None:
            lines.append(self.generation.format())
        if self.hpc is not None:
            lines.append(self.hpc.format())
        if self.phases is not None:
            lines.append(self.phases.format())
        if self.sharded is not None:
            lines.append(self.sharded.format())
        return "\n".join(lines)


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def run_generation_bench(
    config: ReproConfig = DEFAULT_CONFIG,
    trace_length: "int | None" = None,
    profile_name: str = DEFAULT_BENCH_PROFILE,
    repeats: int = 3,
    include_reference: bool = True,
    dataset_benchmarks: int = 4,
    dataset_trace_length: int = 5_000,
) -> GenerationBenchResult:
    """Time the trace-generation engine against its scalar references.

    Measures, at ``trace_length`` instructions of ``profile_name``:
    the full ``generate_trace`` pipeline (warm code memo), the batch
    interpreter and expansion phases, and their retained scalar
    reference implementations — every timing starts from freshly reset
    behavior/branch-model state, resets excluded from the timed region.
    Also builds a small dataset twice through a throwaway cache
    directory: once cold, then again with the recipe-keyed
    characterization and HPC caches warm (dataset-level matrices
    dropped in between), so the warm build never generates a trace.

    Args:
        config: supplies the default trace length.
        trace_length: generated-trace length (default: the config's).
        profile_name: registry benchmark supplying the workload profile.
        repeats: timing repetitions; the best (minimum) is reported.
        include_reference: also time the slow scalar interpret/expand
            references and report ``speedups`` (skip for quick
            trend-only runs).
        dataset_benchmarks: population size of the cold/warm build.
        dataset_trace_length: per-benchmark length of the cold/warm
            build (kept small; the build includes HPC simulation).
    """
    from ..experiments import build_dataset
    from ..experiments.dataset import _MEMORY_CACHE
    from ..synth import generate_trace
    from ..synth import generator as generator_module
    from ..synth.rng import make_rng
    from ..workloads import all_benchmarks, get_benchmark

    length = trace_length or config.trace_length
    profile = get_benchmark(profile_name).profile
    code = generator_module.code_for_profile(profile)

    def best_reset(fn: Callable[[], object]) -> float:
        bench = float("inf")
        for _ in range(repeats):
            code.reset_state()
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            if elapsed < bench:
                bench = elapsed
        return bench

    rng = lambda: make_rng("bench", "generation")  # noqa: E731

    generate_seconds = best_reset(lambda: generate_trace(profile, length))
    interpret_seconds = best_reset(
        lambda: generator_module._interpret(rng(), code, profile, length)
    )
    code.reset_state()
    visits, outcomes = generator_module._interpret(rng(), code, profile, length)
    expand_seconds = best_reset(
        lambda: generator_module._expand(rng(), code, visits, outcomes, length)
    )
    phase_seconds = [
        ("generate_trace", generate_seconds),
        ("interpret", interpret_seconds),
        ("expand", expand_seconds),
    ]
    speedups: Dict[str, float] = {}
    if include_reference:
        interpret_ref_seconds = best_reset(
            lambda: generator_module._interpret_reference(
                rng(), code, profile, length
            )
        )
        expand_ref_seconds = best_reset(
            lambda: generator_module._expand_reference(
                rng(), code, visits, outcomes, length
            )
        )
        phase_seconds.extend([
            ("interpret_reference", interpret_ref_seconds),
            ("expand_reference", expand_ref_seconds),
        ])
        speedups = {
            "interpret": interpret_ref_seconds / interpret_seconds,
            "expand": expand_ref_seconds / expand_seconds,
            "engine": (interpret_ref_seconds + expand_ref_seconds)
            / (interpret_seconds + expand_seconds),
        }

    population = list(all_benchmarks())[:dataset_benchmarks]
    dataset_config = config.with_overrides(trace_length=dataset_trace_length)
    cache_dir = Path(tempfile.mkdtemp(prefix="repro-bench-cache-"))
    try:
        _MEMORY_CACHE.clear()
        start = time.perf_counter()
        build_dataset(
            dataset_config, benchmarks=population, cache_dir=cache_dir, jobs=1
        )
        cold_seconds = time.perf_counter() - start
        # Drop the dataset-level matrices but keep the per-trace caches,
        # so the warm build exercises the recipe-keyed char + HPC
        # levels rather than the top-level shortcut.
        for path in cache_dir.glob("dataset-*.npz"):
            path.unlink()
        _MEMORY_CACHE.clear()
        start = time.perf_counter()
        build_dataset(
            dataset_config, benchmarks=population, cache_dir=cache_dir, jobs=1
        )
        warm_seconds = time.perf_counter() - start
        _MEMORY_CACHE.clear()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    timings = tuple(
        AnalyzerTiming(name=name, seconds=seconds, instructions=length)
        for name, seconds in phase_seconds
    )
    return GenerationBenchResult(
        trace_length=length,
        profile=profile_name,
        repeats=repeats,
        timings=timings,
        speedups=speedups,
        dataset={
            "benchmarks": float(len(population)),
            "trace_length": float(dataset_trace_length),
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "warm_over_cold": warm_seconds / cold_seconds,
        },
    )


def run_hpc_bench(
    config: ReproConfig = DEFAULT_CONFIG,
    trace_length: "int | None" = None,
    profile_name: str = DEFAULT_BENCH_PROFILE,
    repeats: int = 3,
    include_reference: bool = True,
) -> HpcBenchResult:
    """Time the HPC engines against their scalar references.

    Measures, on one generated trace of ``trace_length`` instructions:
    the full :func:`~repro.uarch.events.simulate_events` assembly for
    both machines (batch engines vs the retained scalar
    specifications), one end-to-end :func:`~repro.uarch.collect_hpc`,
    both pipeline models over precomputed events (batch walk engines vs
    the retained ``run_reference`` loops — the events are threaded
    through so the pipeline engines are timed in isolation), the
    component engines in isolation (a 2-way L1D on the data stream, the
    fully-associative D-TLB, the bimodal and tournament predictors),
    and :func:`~repro.mica.ilp.producer_indices` — every simulator
    rebuilt fresh inside the timed region, exactly as the event
    simulation uses them.  Also runs ``cached_collect_hpc`` cold and
    warm through a throwaway directory, the gap the HPC cache exists to
    close.

    Args:
        config: supplies the default trace length.
        trace_length: simulated-trace length (default: the config's).
        profile_name: registry benchmark supplying the workload profile.
        repeats: timing repetitions; the best (minimum) is reported.
        include_reference: also time the slow scalar references and
            report ``speedups`` (skip for quick trend-only runs).
    """
    import numpy as np

    from ..mica.ilp import producer_indices_reference
    from ..uarch import (
        EV56_CONFIG,
        EV67_CONFIG,
        InOrderModel,
        OutOfOrderModel,
        SetAssociativeCache,
        TLB,
        collect_hpc,
        simulate_predictor,
        simulate_predictor_reference,
    )
    from ..uarch.events import simulate_events
    from ..workloads import get_benchmark

    from .cache import TraceRecipe, cached_collect_hpc

    length = trace_length or config.trace_length
    benchmark = get_benchmark(profile_name)
    # Generated here, outside every timed region: the cold cached run
    # below reuses it, so it times simulation, not generation.
    recipe = TraceRecipe(benchmark.profile, length)
    trace = recipe.trace
    data_addresses = trace.mem_addr[np.flatnonzero(trace.memory_mask)]
    branch_positions = np.flatnonzero(trace.branch_mask)
    branch_pcs = trace.pc[branch_positions]
    branch_taken = trace.taken[branch_positions].astype(bool)
    # Precomputed events isolate the pipeline engines from the event
    # simulation, exactly as collect_hpc callers can thread them.
    events_ev56 = simulate_events(trace, EV56_CONFIG)
    events_ev67 = simulate_events(trace, EV67_CONFIG)

    def cache_case(machine_cache, stream, engine):
        def run():
            cache = SetAssociativeCache(machine_cache)
            return getattr(cache, engine)(stream)
        return run

    def tlb_case(engine):
        def run():
            tlb = TLB(EV56_CONFIG.tlb_entries, EV56_CONFIG.tlb_page_bytes)
            return getattr(tlb, engine)(data_addresses)
        return run

    def predictor_case(machine, runner):
        def run():
            return runner(
                machine.make_predictor(), branch_pcs, branch_taken,
                return_mask=True,
            )
        return run

    cases: List[Tuple[str, Callable[[], object]]] = [
        ("events_ev56", lambda: simulate_events(trace, EV56_CONFIG)),
        ("events_ev67", lambda: simulate_events(trace, EV67_CONFIG)),
        ("collect_hpc", lambda: collect_hpc(trace)),
        ("pipeline_ev56",
         lambda: InOrderModel(EV56_CONFIG).run(trace, events=events_ev56)),
        ("pipeline_ev67",
         lambda: OutOfOrderModel(EV67_CONFIG).run(trace, events=events_ev67)),
        ("cache_l1d", cache_case(EV67_CONFIG.l1d, data_addresses,
                                 "simulate")),
        ("tlb", tlb_case("simulate")),
        ("predictor_bimodal",
         predictor_case(EV56_CONFIG, simulate_predictor)),
        ("predictor_tournament",
         predictor_case(EV67_CONFIG, simulate_predictor)),
        ("producer_indices", lambda: producer_indices(trace)),
    ]
    if include_reference:
        cases.extend([
            ("events_ev56_reference",
             lambda: simulate_events(trace, EV56_CONFIG, engine="reference")),
            ("events_ev67_reference",
             lambda: simulate_events(trace, EV67_CONFIG, engine="reference")),
            ("pipeline_ev56_reference",
             lambda: InOrderModel(EV56_CONFIG).run_reference(
                 trace, events=events_ev56)),
            ("pipeline_ev67_reference",
             lambda: OutOfOrderModel(EV67_CONFIG).run_reference(
                 trace, events=events_ev67)),
            ("cache_l1d_reference",
             cache_case(EV67_CONFIG.l1d, data_addresses,
                        "simulate_reference")),
            ("tlb_reference", tlb_case("simulate_reference")),
            ("predictor_bimodal_reference",
             predictor_case(EV56_CONFIG, simulate_predictor_reference)),
            ("predictor_tournament_reference",
             predictor_case(EV67_CONFIG, simulate_predictor_reference)),
            ("producer_indices_reference",
             lambda: producer_indices_reference(trace)),
        ])

    seconds = {
        name: _best_of(fn, repeats) for name, fn in cases
    }
    timings = tuple(
        AnalyzerTiming(name=name, seconds=seconds[name], instructions=length)
        for name, _ in cases
    )
    speedups: Dict[str, float] = {}
    if include_reference:
        for engine in (
            "events_ev56", "events_ev67", "pipeline_ev56", "pipeline_ev67",
            "cache_l1d", "tlb", "predictor_bimodal", "predictor_tournament",
            "producer_indices",
        ):
            speedups[engine] = (
                seconds[f"{engine}_reference"] / seconds[engine]
            )
        speedups["events"] = (
            seconds["events_ev56_reference"]
            + seconds["events_ev67_reference"]
        ) / (seconds["events_ev56"] + seconds["events_ev67"])
        speedups["pipelines"] = (
            seconds["pipeline_ev56_reference"]
            + seconds["pipeline_ev67_reference"]
        ) / (seconds["pipeline_ev56"] + seconds["pipeline_ev67"])

    cache_dir = Path(tempfile.mkdtemp(prefix="repro-bench-hpc-"))
    try:
        start = time.perf_counter()
        cached_collect_hpc(recipe, cache_dir=cache_dir)
        cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        cached_collect_hpc(recipe, cache_dir=cache_dir)
        warm_seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    return HpcBenchResult(
        trace_length=length,
        profile=profile_name,
        repeats=repeats,
        timings=timings,
        speedups=speedups,
        cache={
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "warm_over_cold": warm_seconds / cold_seconds,
        },
    )


def run_phases_bench(
    config: ReproConfig = DEFAULT_CONFIG,
    trace_length: "int | None" = None,
    profile_name: str = DEFAULT_BENCH_PROFILE,
    repeats: int = 3,
    include_reference: bool = True,
    interval: int = 5_000,
) -> PhasesBenchResult:
    """Time the segmented phase engine against the chunked reference.

    Measures, on one generated trace of ``trace_length`` instructions
    at ``interval``-instruction intervals: the default six-key
    :func:`~repro.phases.mica_timeline` on the segmented engine vs the
    retained per-chunk :func:`~repro.phases.mica_timeline_reference`
    (the acceptance-floor ratio: >= 5x at 100k x 5k), full per-interval
    47-column MICA vectors (the ``detect_phases(signature="mica")``
    substrate), the cheap BBV/mix signature extractors, and one
    end-to-end BBV ``detect_phases`` (k-means + BIC included).

    Args:
        config: supplies the default trace length and MICA parameters.
        trace_length: analyzed-trace length (default: the config's).
        profile_name: registry benchmark supplying the workload profile.
        repeats: timing repetitions; the best (minimum) is reported.
        include_reference: also time the per-chunk reference timeline
            and report ``speedups`` (skip for quick trend-only runs).
        interval: instructions per interval.
    """
    from ..phases import (
        basic_block_vectors,
        detect_phases,
        interval_mica_vectors,
        interval_mix,
        mica_timeline,
        mica_timeline_reference,
    )
    from ..synth import generate_trace
    from ..workloads import get_benchmark

    length = trace_length or config.trace_length
    benchmark = get_benchmark(profile_name)
    trace = generate_trace(benchmark.profile, length)
    if length < 2 * interval:
        # Small smoke traces: shrink to four intervals so the section
        # still measures a segmented run rather than erroring out.
        interval = max(1, length // 4)

    # Wake the CPU governor before timing: the engine runs are short
    # enough that a cold core never reaches steady clocks inside their
    # own repeats, which would systematically bias the ratio against
    # the faster path (the long reference runs warm the core for free).
    deadline = time.perf_counter() + 1.0
    while time.perf_counter() < deadline:
        mica_timeline(trace, interval, config=config)

    cases: List[Tuple[str, Callable[[], object]]] = [
        ("mica_timeline",
         lambda: mica_timeline(trace, interval, config=config)),
        ("interval_mica",
         lambda: interval_mica_vectors(trace, interval, config)),
        ("basic_block_vectors",
         lambda: basic_block_vectors(trace, interval)),
        ("interval_mix", lambda: interval_mix(trace, interval)),
        ("detect_phases",
         lambda: detect_phases(trace, interval=interval, config=config)),
    ]
    if include_reference:
        cases.append((
            "mica_timeline_reference",
            lambda: mica_timeline_reference(trace, interval, config=config),
        ))

    seconds = {name: _best_of(fn, repeats) for name, fn in cases}
    timings = tuple(
        AnalyzerTiming(name=name, seconds=seconds[name], instructions=length)
        for name, _ in cases
    )
    speedups: Dict[str, float] = {}
    if include_reference:
        speedups["timeline"] = (
            seconds["mica_timeline_reference"] / seconds["mica_timeline"]
        )
    return PhasesBenchResult(
        trace_length=length,
        profile=profile_name,
        repeats=repeats,
        interval=interval,
        timings=timings,
        speedups=speedups,
    )


def run_sharded_bench(
    config: ReproConfig = DEFAULT_CONFIG,
    trace_length: "int | None" = None,
    profile_name: str = DEFAULT_BENCH_PROFILE,
    repeats: int = 3,
    shards: int = 4,
    worker_counts: Tuple[int, ...] = (2, 4),
) -> ShardedBenchResult:
    """Time the shard-mergeable engine against one-shot ``characterize``.

    Measures, on one generated trace: the whole-trace one-shot
    baseline, the sequential shard+merge streaming fold (``shards``
    contiguous shards — the gap to one-shot is the state-carry and
    merge overhead) and the two-round intra-trace fan-out at each of
    ``worker_counts`` processes.  All four produce bit-for-bit the
    same 47 values; only the wall time differs.

    Args:
        config: characterization parameters.
        trace_length: characterized-trace length (default: the
            config's).
        profile_name: registry benchmark supplying the workload profile.
        repeats: timing repetitions; the best (minimum) is reported.
        shards: contiguous shards per sharded run.
        worker_counts: process counts for the parallel fan-out runs.
    """
    from ..synth import generate_trace
    from ..workloads import get_benchmark
    from .sharding import sharded_characterize

    length = trace_length or config.trace_length
    benchmark = get_benchmark(profile_name)
    trace = generate_trace(benchmark.profile, length)

    # Wake the CPU governor before timing (see run_phases_bench): the
    # one-shot and streaming runs are short enough that cold clocks
    # would bias the merge-overhead ratio.
    deadline = time.perf_counter() + 1.0
    while time.perf_counter() < deadline:
        characterize(trace, config)

    cases: List[Tuple[str, Callable[[], object]]] = [
        ("characterize_one_shot", lambda: characterize(trace, config)),
        (
            "sharded_stream",
            lambda: sharded_characterize(trace, config, shards=shards),
        ),
    ]
    for jobs in worker_counts:
        cases.append((
            f"sharded_jobs{jobs}",
            lambda jobs=jobs: sharded_characterize(
                trace, config, shards=shards, jobs=jobs
            ),
        ))
    seconds = {name: _best_of(fn, repeats) for name, fn in cases}
    timings = tuple(
        AnalyzerTiming(name=name, seconds=seconds[name],
                       instructions=length)
        for name, _ in cases
    )
    one_shot = seconds["characterize_one_shot"]
    speedups: Dict[str, float] = {
        "merge_overhead": one_shot / seconds["sharded_stream"],
    }
    for jobs in worker_counts:
        speedups[f"jobs{jobs}"] = one_shot / seconds[f"sharded_jobs{jobs}"]
    return ShardedBenchResult(
        trace_length=length,
        profile=profile_name,
        repeats=repeats,
        shards=shards,
        timings=timings,
        speedups=speedups,
    )


def run_mica_bench(
    trace: "Trace | None" = None,
    config: ReproConfig = DEFAULT_CONFIG,
    trace_length: "int | None" = None,
    profile_name: str = DEFAULT_BENCH_PROFILE,
    repeats: int = 3,
    include_reference: bool = True,
    include_generation: bool = False,
    include_hpc: bool = False,
    include_phases: bool = False,
    include_sharded: bool = False,
) -> MicaBenchResult:
    """Time every MICA analyzer on one trace.

    Args:
        trace: trace to analyze (default: generate ``trace_length``
            instructions of ``profile_name`` from the registry).
        config: characterization parameters.
        trace_length: generated-trace length (default: the config's).
        profile_name: registry benchmark supplying the workload profile.
        repeats: timing repetitions; the best (minimum) is reported.
        include_reference: also time the scalar PPM/ILP references and
            report ``speedups`` (skip for quick trend-only runs).
        include_generation: also run :func:`run_generation_bench` and
            attach its result (the CLI harness enables this).
        include_hpc: also run :func:`run_hpc_bench` and attach its
            result (the CLI harness enables this).
        include_phases: also run :func:`run_phases_bench` and attach
            its result (the CLI harness enables this); its timeline
            ratio is surfaced as the top-level ``speedups.phases``.
        include_sharded: also run :func:`run_sharded_bench` and attach
            its result (the CLI harness enables this); its
            merge-overhead ratio is surfaced as the top-level
            ``speedups.sharded``.
    """
    if repeats < 1:
        from ..errors import ConfigurationError

        raise ConfigurationError("bench repeats must be >= 1")
    if trace is None:
        from ..synth import generate_trace
        from ..workloads import get_benchmark

        length = trace_length or config.trace_length
        benchmark = get_benchmark(profile_name)
        trace = generate_trace(benchmark.profile, length)
    n = len(trace)

    cases: List[Tuple[str, Callable[[], object]]] = [
        ("instruction_mix", lambda: instruction_mix(trace)),
        ("producer_indices", lambda: producer_indices(trace)),
        (
            "ilp_ipc",
            lambda: ilp_ipc(trace, config.ilp_window_sizes),
        ),
        (
            "register_traffic",
            lambda: register_traffic(trace, config.reg_dep_thresholds),
        ),
        (
            "working_set",
            lambda: working_set(trace, config.block_bytes, config.page_bytes),
        ),
        (
            "stride_profile",
            lambda: stride_profile(trace, config.stride_thresholds),
        ),
        (
            "ppm_predictabilities",
            lambda: ppm_predictabilities(trace, config.ppm_max_order),
        ),
        ("characterize", lambda: characterize(trace, config)),
    ]
    if include_reference:
        cases.extend([
            (
                "ilp_ipc_reference",
                lambda: ilp_ipc_reference(trace, config.ilp_window_sizes),
            ),
            (
                "ppm_reference",
                lambda: ppm_predictabilities_reference(
                    trace, config.ppm_max_order
                ),
            ),
        ])

    timings = tuple(
        AnalyzerTiming(name=name, seconds=_best_of(fn, repeats),
                       instructions=n)
        for name, fn in cases
    )
    result = MicaBenchResult(
        trace_length=n,
        profile=trace.name or profile_name,
        repeats=repeats,
        timings=timings,
    )
    speedups: Dict[str, float] = {}
    if include_reference:
        speedups = {
            "ppm": (
                result.timing("ppm_reference").seconds
                / result.timing("ppm_predictabilities").seconds
            ),
            "ilp": (
                result.timing("ilp_ipc_reference").seconds
                / result.timing("ilp_ipc").seconds
            ),
        }
    generation = None
    if include_generation:
        generation = run_generation_bench(
            config=config,
            trace_length=trace_length,
            profile_name=profile_name,
            repeats=repeats,
            include_reference=include_reference,
        )
    hpc = None
    if include_hpc:
        hpc = run_hpc_bench(
            config=config,
            trace_length=trace_length,
            profile_name=profile_name,
            repeats=repeats,
            include_reference=include_reference,
        )
    phases = None
    if include_phases:
        phases = run_phases_bench(
            config=config,
            trace_length=trace_length,
            profile_name=profile_name,
            repeats=repeats,
            include_reference=include_reference,
        )
        if "timeline" in phases.speedups:
            speedups["phases"] = phases.speedups["timeline"]
    sharded = None
    if include_sharded:
        sharded = run_sharded_bench(
            config=config,
            trace_length=trace_length,
            profile_name=profile_name,
            repeats=repeats,
        )
        speedups["sharded"] = sharded.speedups["merge_overhead"]
    if (
        include_reference or include_generation or include_hpc
        or include_phases or include_sharded
    ):
        result = MicaBenchResult(
            trace_length=result.trace_length,
            profile=result.profile,
            repeats=result.repeats,
            timings=result.timings,
            speedups=speedups,
            generation=generation,
            hpc=hpc,
            phases=phases,
            sharded=sharded,
        )
    return result


def write_bench_json(
    result: MicaBenchResult, path: "Path | str"
) -> Path:
    """Serialize one harness run to ``BENCH_mica.json``."""
    destination = Path(path)
    # repro: lint-ok[durability] user-requested report export to an
    # explicit path; not cache state, so no integrity stamp is owed
    destination.write_text(json.dumps(result.as_dict(), indent=2) + "\n")
    return destination
