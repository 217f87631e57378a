"""Which public functions the traced run wraps, and the per-layer metrics.

Every entry of :data:`WRAPPED` names a binding site — the module
attribute (or class attribute) through which callers reach a layer —
and the span name its calls record.  A function imported into several
modules is wrapped at each site its callers use, so every call passes
through exactly one wrapper.  Nothing under ``src/`` changes: the
wrappers are installed from here, in the measuring process (and, for
``repro serve``, by ``serve_traced.py`` before the service starts).
"""

from __future__ import annotations

import importlib
import os
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from loadgen import percentile_ms
from spans import Span, SpanRecorder, summarize


def _hit(args, result) -> dict:
    return {"hit": result is not None}


def _bytes(args, result) -> dict:
    try:
        return {"bytes": os.path.getsize(result)}
    except (OSError, TypeError):
        return {"bytes": 0}


def _served(args, result) -> dict:
    return {"warm": result[2].get("X-Repro-Source") == "cache"}


def _queue_wait(args, result) -> "Optional[dict]":
    if not result:
        return None
    job = args[0]
    return {"queue_wait_s": time.monotonic() - job.created_at}


#: (module, attribute or Class.attribute, span name, outcome note).
WRAPPED: Tuple[Tuple[str, str, str, object], ...] = (
    # synth: trace generation and the static code-image memo.
    ("repro.perf.cache", "generate_trace", "synth.generate", None),
    ("repro.synth.generator", "code_for_profile", "synth.code_build", None),
    # uarch: event simulation and the two pipeline walks.
    ("repro.perf.cache", "collect_hpc", "uarch.collect_hpc", None),
    ("repro.uarch.inorder", "simulate_events", "uarch.events", None),
    ("repro.uarch.ooo", "simulate_events", "uarch.events", None),
    ("repro.uarch.inorder", "InOrderModel.run", "uarch.pipeline_ev56", None),
    ("repro.uarch.ooo", "OutOfOrderModel.run", "uarch.pipeline_ev67", None),
    # mica: one-shot characterization and its Table II sections.
    ("repro.perf.cache", "characterize", "mica.characterize", None),
    ("repro.mica.characterize", "producer_indices", "mica.producers", None),
    ("repro.mica.characterize", "instruction_mix", "mica.mix", None),
    ("repro.mica.characterize", "ilp_ipc", "mica.ilp", None),
    ("repro.mica.characterize", "register_traffic",
     "mica.register_traffic", None),
    ("repro.mica.characterize", "working_set", "mica.working_set", None),
    ("repro.mica.characterize", "stride_profile", "mica.strides", None),
    ("repro.mica.characterize", "ppm_predictabilities", "mica.ppm", None),
    # shard engine, chunked source and phases.
    ("repro.perf.sharding", "sharded_characterize", "shard.characterize",
     None),
    ("repro.perf.sharding", "shard_state", "shard.cold_state", None),
    ("repro.perf.sharding", "merge_states", "shard.merge", None),
    ("repro.perf.sharding", "ppm_shard_correct", "shard.correct", None),
    ("repro.perf.sharding", "finalize_state", "shard.finalize", None),
    ("repro.trace.source", "TraceSource.shard", "source.read", None),
    ("repro.phases", "mica_timeline", "phases.timeline", None),
    ("repro.phases", "detect_phases", "phases.detect", None),
    # cache levels (read side, write side, content hashing).
    ("repro.perf", "cached_generate_trace", "cached.trace", None),
    ("repro.perf", "cached_characterize", "cached.char", None),
    ("repro.perf", "cached_collect_hpc", "cached.hpc", None),
    ("repro.perf.cache", "TraceCache.load", "cache.trace.load", _hit),
    ("repro.perf.cache", "CharacterizationCache.load", "cache.char.load",
     _hit),
    ("repro.perf.cache", "HpcCache.load", "cache.hpc.load", _hit),
    ("repro.perf.cache", "TraceCache.store", "cache.trace.store", _bytes),
    ("repro.perf.cache", "CharacterizationCache.store", "cache.char.store",
     _bytes),
    ("repro.perf.cache", "HpcCache.store", "cache.hpc.store", _bytes),
    ("repro.perf.cache", "trace_fingerprint", "cache.fingerprint", None),
    # dataset build and the report stages of run_all.
    ("repro.experiments.dataset", "build_dataset", "dataset.build", None),
    ("repro.experiments.runner", "run_all", "report.run_all", None),
    ("repro.analysis", "GeneticSelector.select", "report.ga", None),
    ("repro.experiments.runner", "run_fig1", "report.fig1", None),
    ("repro.experiments.runner", "run_table3", "report.table3", None),
    ("repro.experiments.runner", "run_case_study", "report.case_study", None),
    ("repro.experiments.runner", "run_fig4", "report.fig4", None),
    ("repro.experiments.runner", "run_fig5", "report.fig5", None),
    ("repro.experiments.runner", "run_table4", "report.table4", None),
    ("repro.experiments.runner", "run_fig6", "report.fig6", None),
    # service, queue and journal.
    ("repro.service.app", "CharacterizationService.handle", "service.handle",
     _served),
    ("repro.service.app", "CharacterizationService._compute",
     "service.compute", None),
    ("repro.service.jobs", "Job.start_running", "service.dequeue",
     _queue_wait),
    ("repro.perf.journal", "WriteAheadJournal.append", "journal.append",
     None),
)


def install(recorder: SpanRecorder) -> List[str]:
    """Wrap every :data:`WRAPPED` site; returns the sites not found.

    A missing site (renamed or removed upstream) is reported rather
    than fatal, so the traced run can say which layers it could not
    measure.
    """
    missing = []
    for module_name, path, span_name, note in WRAPPED:
        try:
            owner = importlib.import_module(module_name)
            *classes, attribute = path.split(".")
            for class_name in classes:
                owner = getattr(owner, class_name)
            original = (
                vars(owner)[attribute] if classes
                else getattr(owner, attribute)
            )
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}:{path}")
            continue
        setattr(owner, attribute, recorder.wrap(original, span_name, note))
    return missing


def _notes(spans: Iterable[Span], name: str, field: str) -> list:
    return [
        span[6][field] for span in spans
        if span[2] == name and span[6] and field in span[6]
    ]


def layer_metrics(
    spans: Sequence[Span],
    main_pid: int,
    jobs: int = 1,
    build_wall_s: float = 0.0,
) -> Dict[str, float]:
    """Per-layer figures computed from the spans of one window."""
    table = summarize(spans)

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def own(name):
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    loads = ("cache.trace.load", "cache.char.load", "cache.hpc.load")
    hits = sum(
        sum(1 for hit in _notes(spans, name, "hit") if hit) for name in loads
    )
    misses = sum(
        sum(1 for hit in _notes(spans, name, "hit") if not hit)
        for name in loads
    )
    written = sum(
        sum(_notes(spans, name, "bytes"))
        for name in ("cache.trace.store", "cache.char.store",
                     "cache.hpc.store")
    )
    # Work the dataset pool's workers did: root spans recorded outside
    # the main process while the builds ran.
    busy = sum(
        span[4] - span[3] for span in spans
        if span[0] != main_pid and span[5] == 0
    ) if build_wall_s > 0 else 0.0
    warm_handles = [
        span[4] - span[3] for span in spans
        if span[2] == "service.handle" and span[6] and span[6]["warm"]
    ]
    stages = ("report.ga", "report.fig4", "report.fig5", "report.fig6",
              "report.table4")
    return {
        "synth.generate_s": total("synth.generate"),
        "synth.code_build_s": total("synth.code_build"),
        "synth.calls": calls("synth.generate"),
        "uarch.events_s": total("uarch.events"),
        "uarch.pipeline_ev56_s": own("uarch.pipeline_ev56"),
        "uarch.pipeline_ev67_s": own("uarch.pipeline_ev67"),
        "uarch.calls": calls("uarch.collect_hpc"),
        "mica.characterize_s": total("mica.characterize"),
        "mica.calls": calls("mica.characterize"),
        "mica.producers_s": total("mica.producers"),
        "mica.ppm_s": total("mica.ppm"),
        "mica.ilp_s": total("mica.ilp"),
        "mica.working_set_s": total("mica.working_set"),
        "mica.strides_s": total("mica.strides"),
        "mica.register_traffic_s": total("mica.register_traffic"),
        "mica.mix_s": total("mica.mix"),
        "shard.cold_state_s": total("shard.cold_state"),
        "shard.merge_s": total("shard.merge"),
        "shard.correct_s": total("shard.correct"),
        "shard.cold_states": calls("shard.cold_state"),
        "source.read_s": total("source.read"),
        "phases.timeline_s": total("phases.timeline"),
        "phases.detect_s": total("phases.detect"),
        "cache.trace.store_s": total("cache.trace.store"),
        "cache.char.store_s": total("cache.char.store"),
        "cache.hpc.store_s": total("cache.hpc.store"),
        "cache.bytes_written": written,
        "cache.trace.load_s": total("cache.trace.load"),
        "cache.char.load_s": total("cache.char.load"),
        "cache.hpc.load_s": total("cache.hpc.load"),
        "cache.fingerprint_s": total("cache.fingerprint"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "dataset.worker_busy_s": busy,
        "dataset.parallel_efficiency": (
            busy / (jobs * build_wall_s) if build_wall_s > 0 else 0.0
        ),
        "report.ga_s": total("report.ga"),
        "report.fig4_s": total("report.fig4"),
        "report.fig5_s": total("report.fig5"),
        "report.fig6_s": total("report.fig6"),
        "report.table4_s": total("report.table4"),
        "report.other_s": max(
            0.0, total("report.run_all") - sum(total(s) for s in stages)
        ),
        "service.handle_ms": percentile_ms(warm_handles, 50),
        "service.handle_p90_ms": percentile_ms(warm_handles, 90),
        "service.queue_wait_ms": percentile_ms(
            _notes(spans, "service.dequeue", "queue_wait_s"), 50
        ),
        "service.compute_ms": percentile_ms([
            span[4] - span[3] for span in spans
            if span[2] == "service.compute"
        ], 50),
        "journal.append_s": total("journal.append"),
        "journal.appends": calls("journal.append"),
    }


def format_table(spans: Sequence[Span]) -> str:
    """Human-readable calls / total / self per span name."""
    table = summarize(spans)
    lines = [f"{'span':<28} {'calls':>7} {'total_s':>10} {'self_s':>10}"]
    for name in sorted(table):
        row = table[name]
        lines.append(
            f"{name:<28} {row['calls']:>7} {row['total_s']:>10.4f} "
            f"{row['self_s']:>10.4f}"
        )
    return "\n".join(lines)
