"""Performance-trajectory history rows and floor gating.

The MICA bench harness (:mod:`repro.perf.timing`) reports a full
``BENCH_mica.json`` per run; this module boils one run down to a single
JSONL *history row* — the per-engine speedups against the retained
scalar references, plus enough metadata to compare rows across
machines — so ``BENCH_history.jsonl`` accumulates one line per PR and
the performance trajectory is a ``jq``-able time series rather than a
pile of full reports.

The same rows drive the CI perf gate (``benchmarks/perf/bench_gate.py``):
:func:`check_bench_floors` compares a row's speedups against the
committed per-engine floors in ``benchmarks/perf/floors.json`` and
returns the violations.  Floors are *speedup ratios* (engine vs its
scalar reference on the same machine), so the gate is
machine-independent: a slow CI runner slows both sides of every ratio.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Schema tag stamped into every history row.  v2 rows come from
#: ``BENCH_mica/v7`` runs, whose ``ilp`` and ``phases`` ratios measure
#: different work than v1's (see :mod:`repro.perf.timing`); compare
#: ratios only between rows of one schema.
HISTORY_SCHEMA = "BENCH_history/v2"

#: Engines a floors file may gate, mapped to where the ratio lives in a
#: :class:`~repro.perf.timing.MicaBenchResult`.
FLOOR_ENGINES = (
    "ppm", "ilp", "generation", "events", "pipelines", "phases",
    "sharded",
)


def bench_history_row(result) -> dict:
    """One flat history row for a harness run.

    Collects every reference-over-engine speedup the run measured into
    a single ``speedups`` dict keyed by engine: ``ppm``/``ilp`` (the
    analyzer engines), ``generation`` (the combined interpret+expand
    ratio), ``events``/``pipelines`` (the HPC event assemblies and
    pipeline models), ``phases`` (the segmented timeline engine) and
    ``sharded`` (the shard-mergeable engine's one-shot-over-sharded
    merge-overhead ratio).  Sections the run skipped
    (``--no-generation``, ``--no-reference``) are simply absent from
    the dict.
    """
    speedups: "Dict[str, float]" = {}
    for key in ("ppm", "ilp", "phases", "sharded"):
        if key in result.speedups:
            speedups[key] = float(result.speedups[key])
    if result.generation is not None:
        engine = result.generation.speedups.get("engine")
        if engine is not None:
            speedups["generation"] = float(engine)
    if result.hpc is not None:
        for key in ("events", "pipelines"):
            if key in result.hpc.speedups:
                speedups[key] = float(result.hpc.speedups[key])
    return {
        "schema": HISTORY_SCHEMA,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "trace_length": int(result.trace_length),
        "profile": result.profile,
        "repeats": int(result.repeats),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "speedups": speedups,
    }


def append_bench_history(result, path: "Path | str") -> Path:
    """Append one history row for ``result`` to a JSONL file.

    Creates the file (and parents) on first use; each run is one line,
    so the file is an append-only time series that merges trivially.
    Returns the path written.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    row = bench_history_row(result)
    # repro: lint-ok[durability] append-only telemetry; a torn tail is
    # tolerated (skipped) by load_bench_history, never served as data
    with open(target, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    return target


def load_bench_history(path: "Path | str") -> "List[dict]":
    """All history rows in a JSONL file (missing file: empty list).

    A row that does not parse — the torn tail a crash mid-append leaves
    behind — is skipped rather than poisoning every later read: history
    is append-only telemetry, and every complete row is still good.
    """
    target = Path(path)
    if not target.is_file():
        return []
    rows: "List[dict]" = []
    for line in target.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return rows


def check_bench_floors(
    row: dict,
    floors: "Dict[str, float]",
    require_all: bool = True,
) -> "Tuple[str, ...]":
    """Compare one history row against per-engine speedup floors.

    Args:
        row: a :func:`bench_history_row` dict (or anything with a
            ``speedups`` mapping).
        floors: engine -> minimum acceptable speedup ratio.
        require_all: treat a floor whose engine the row did not measure
            as a violation (CI must not silently skip an engine because
            a flag disabled its section).

    Returns:
        Human-readable violation strings; empty means the row passes.
    """
    speedups = row.get("speedups", {})
    violations: "List[str]" = []
    for engine in sorted(floors):
        floor = float(floors[engine])
        measured: "Optional[float]" = speedups.get(engine)
        if measured is None:
            if require_all:
                violations.append(
                    f"{engine}: no speedup measured (floor {floor:g}x)"
                )
            continue
        if float(measured) < floor:
            violations.append(
                f"{engine}: {float(measured):.2f}x is below the "
                f"{floor:g}x floor"
            )
    return tuple(violations)
