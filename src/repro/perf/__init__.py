"""Performance subsystem: characterization caching and benchmarking.

The ROADMAP north star is "as fast as the hardware allows".  This
package holds the two pieces that are about *speed* rather than paper
semantics:

* :mod:`repro.perf.cache` — the on-disk cache hierarchy: a
  characterization cache and an HPC cache keyed by each trace's
  **generation recipe** (:class:`TraceRecipe`: profile fingerprint +
  length + seed + TRACE_GEN_VERSION) plus the configuration fingerprint
  or the **machine fingerprints + HPC_SIM_VERSION** (a benchmark whose
  recipe has not changed is never re-generated, re-analyzed or
  re-simulated, and a hit never touches the trace bytes), and below
  them a shard cache keyed by shard **content** hash for the
  shard-mergeable engine.
* :mod:`repro.perf.integrity` — the trust layer under every cache
  level: checksum + schema metadata embedded in each ``.npz``, verified
  loads that quarantine (never re-serve) corrupt entries, and atomic
  writes that clean up after themselves.
* :mod:`repro.perf.journal` — the crash-safe write-ahead journal
  (checksummed append-only JSONL, fsync'd appends, torn-tail repair,
  atomic rotation) under resumable dataset builds and the service's
  durable job registry.
* :mod:`repro.perf.faults` — the deterministic fault-injection harness
  (entry corruption modes, IO errors at store/load/rename time, worker
  crashes/errors/timeouts, SIGKILL at journal/writer seams, and the
  seeded chaos scheduler) that the robustness tests drive.
* :mod:`repro.perf.history` — the performance-trajectory layer over
  the harness: one-line JSONL history rows (per-engine speedups) for
  ``BENCH_history.jsonl`` and the floor-gating used by the CI perf
  gate (``benchmarks/perf/bench_gate.py`` + ``floors.json``).
* :mod:`repro.perf.timing` — the MICA benchmark harness: it times every
  analyzer (and the retained scalar reference implementations of PPM
  and ILP) on a standard trace, times the generation engine against its
  scalar references (plus cold/warm dataset builds), times the HPC
  event engines (caches, TLB, predictors, ``simulate_events``) against
  their scalar specifications, and emits the machine-readable
  ``BENCH_mica.json`` that tracks the performance trajectory across
  PRs.

Both are consumed by :func:`repro.experiments.build_dataset` (per-trace
cache under parallel workers) and the CLI (``--jobs``, ``--cache-dir``,
``python -m repro bench``).
"""

from . import faults, history, integrity, journal
from .cache import (
    CacheVerifyReport,
    CharacterizationCache,
    HpcCache,
    SHARD_CACHE_VERSION,
    ShardCache,
    TraceRecipe,
    cached_characterize,
    cached_collect_hpc,
    is_cache_degraded,
    reset_cache_degradation,
    shard_entry_key,
    sweep_temporaries,
    trace_fingerprint,
    verify_cache,
)
from .sharding import (
    cold_state_call_count,
    reset_cold_state_call_count,
    sharded_characterize,
)
from .history import (
    append_bench_history,
    bench_history_row,
    check_bench_floors,
    load_bench_history,
)
from .integrity import QuarantineEvent
from .journal import (
    JournalReplay,
    JournalTruncation,
    WriteAheadJournal,
    replay_journal,
    rotate_journal,
)
from .timing import (
    AnalyzerTiming,
    GenerationBenchResult,
    HpcBenchResult,
    MicaBenchResult,
    PhasesBenchResult,
    ShardedBenchResult,
    run_generation_bench,
    run_hpc_bench,
    run_mica_bench,
    run_phases_bench,
    run_sharded_bench,
    write_bench_json,
)

__all__ = [
    "CacheVerifyReport",
    "CharacterizationCache",
    "HpcCache",
    "QuarantineEvent",
    "SHARD_CACHE_VERSION",
    "ShardCache",
    "TraceRecipe",
    "cached_characterize",
    "cold_state_call_count",
    "reset_cold_state_call_count",
    "shard_entry_key",
    "sharded_characterize",
    "cached_collect_hpc",
    "faults",
    "history",
    "append_bench_history",
    "bench_history_row",
    "check_bench_floors",
    "load_bench_history",
    "integrity",
    "is_cache_degraded",
    "journal",
    "JournalReplay",
    "JournalTruncation",
    "WriteAheadJournal",
    "replay_journal",
    "rotate_journal",
    "reset_cache_degradation",
    "sweep_temporaries",
    "trace_fingerprint",
    "verify_cache",
    "AnalyzerTiming",
    "GenerationBenchResult",
    "HpcBenchResult",
    "MicaBenchResult",
    "PhasesBenchResult",
    "ShardedBenchResult",
    "run_generation_bench",
    "run_hpc_bench",
    "run_mica_bench",
    "run_phases_bench",
    "run_sharded_bench",
    "write_bench_json",
]
