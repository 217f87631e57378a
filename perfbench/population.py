"""``population`` workload: what ``repro all`` users wait for.

Each measuring process builds the full 122-benchmark population cold
with two workers into an empty cache directory, rebuilds it warm, each
time in a seeded permuted order (which misses the dataset-level entry
and hits every per-trace cache level), and after each warm rebuild runs
``run_all`` on the cold data set and formats the report, each time with
its own analysis seeds.  The seed sets the permutations and every
report's ``ReproConfig.seed`` and ``ga_seed``; trace contents stay the
registry's.

Run as a script this module is the measuring process (``ready`` /
``cycle`` steps); imported, :func:`run` is the controlling side.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

#: Instructions per trace.  The cold build is mostly per-benchmark fixed
#: cost (static code images, pool start-up); at this length it takes
#: 12-15 s on a 2-core host, so two cycles fit one run.
TRACE_LENGTH = 20_000
JOBS = 2
#: The warm rebuild and the report take about a second each, and on a
#: shared host a second-long step's speed drifts by a third over tens of
#: seconds.  So each untraced measuring process repeats them (every warm
#: rebuild in its own seeded order, each followed by reports) over a
#: window of several seconds, not in a one-second burst.
WARM_REPEATS = 2
#: How much work ``run_all`` does (k-means restarts, GA evaluations)
#: depends on its seeds: from one seed to the next it varies by up to
#: 40 %, far more than the host's noise.  So every report of a run uses
#: its own analysis seed, derived from the run's seed, and the median
#: is over that many seeds, not over repeats of one.
REPORTS_PER_WARM = 3
SAMPLE = 3
SETUP_SAMPLES = 3
MIN_CYCLES = 2


def _config(seed: int):
    from repro.config import GLOBAL_SEED, ReproConfig

    return ReproConfig(
        trace_length=TRACE_LENGTH, seed=GLOBAL_SEED + seed, ga_seed=seed,
    )


def _report_configs(seed: int, index: int, count: int) -> list:
    """The analysis configurations of one measuring step: ``count``
    distinct ``ReproConfig.seed``/``ga_seed`` pairs derived from the run's
    seed and the step's index."""
    import dataclasses

    from repro.config import GLOBAL_SEED

    config = _config(seed)
    first = 1000 * seed + count * index
    return [
        dataclasses.replace(
            config, seed=GLOBAL_SEED + derived, ga_seed=derived,
        )
        for derived in range(first, first + count)
    ]


def _same_row(left, i: int, right, j: int) -> bool:
    """Bit-for-bit equality of one benchmark's MICA and HPC rows."""
    return (
        left.mica[i].tobytes() == right.mica[j].tobytes()
        and left.hpc[i].tobytes() == right.hpc[j].tobytes()
    )


def _prepare(args):
    """Everything a measuring process does before it is ready: the
    imports, the population and its seeded orders, the empty cache."""
    from repro.experiments import dataset as datasets
    from repro.experiments import runner
    from repro.workloads import all_benchmarks

    config = _config(args.seed)
    population = list(all_benchmarks())
    rng = random.Random(args.seed)
    orders = [
        rng.sample(population, len(population))
        for _ in range(1 if args.trace else WARM_REPEATS)
    ]
    cache = Path(args.cache)
    cache.mkdir()
    return datasets, runner, config, population, rng, orders, cache


def _cycle(args) -> dict:
    datasets, runner, config, population, rng, orders, cache = _prepare(args)
    recorder = None
    if args.trace:
        import layers
        from spans import SpanRecorder

        spool = Path(args.spool)
        spool.mkdir()
        recorder = SpanRecorder(spool)
        missing = layers.install(recorder)
    print("ready", flush=True)

    t0 = time.perf_counter()
    cold = datasets.build_dataset(
        config, benchmarks=population, cache_dir=cache, jobs=JOBS,
    )
    t1 = time.perf_counter()
    warm_s, warms, warm_windows = [], [], []
    per_warm = 1 if args.trace else REPORTS_PER_WARM
    analyses = iter(
        _report_configs(args.seed, args.index, per_warm * len(orders))
    )
    report_s, texts = [], []
    for order in orders:
        start = time.perf_counter()
        warms.append(datasets.build_dataset(
            config, benchmarks=order, cache_dir=cache, jobs=JOBS,
        ))
        end = time.perf_counter()
        warm_s.append(end - start)
        warm_windows.append((start, end))
        for analysis in itertools.islice(analyses, per_warm):
            start = time.perf_counter()
            text = runner.run_all(analysis, dataset=cold).format()
            report_s.append(time.perf_counter() - start)
            texts.append((analysis, text))
    t3 = time.perf_counter()

    checks = []
    for label, built in [("cold", cold)] + [("warm", w) for w in warms]:
        for status in built.report.statuses:
            checks.append((status.ok, f"{label} build of {status.name}"))
        checks.append((
            not built.report.quarantines, f"{label} build quarantined entries"
        ))
    for warm in warms:
        for position, name in enumerate(warm.names):
            checks.append((
                _same_row(warm, position, cold, cold.index_of(name)),
                f"warm row of {name} differs from cold",
            ))
    for analysis, text in texts:
        checks.append((
            bool(text.strip()),
            f"report for ga_seed {analysis.ga_seed} is empty",
        ))
    from harness import leftovers

    left = leftovers(cache)
    checks.append((not left, f"cache leftovers {left[:3]}"))

    builds = [cold] + warms
    result = {
        "cold_s": [t1 - t0], "warm_s": warm_s, "report_s": report_s,
        "retries": sum(
            max(0, status.attempts - 1)
            for built in builds for status in built.report.statuses
        ) + sum(built.report.pool_rebuilds for built in builds),
    }
    if recorder is not None:
        result["layers"] = _traced_layers(
            recorder, missing, (t0, t1, t3), warm_windows, result["retries"],
        )
    if args.check:
        # Untimed: a seeded sample recomputed with every cache level off
        # must reproduce the cold rows exactly.
        sample = rng.sample(population, SAMPLE)
        direct = datasets.build_dataset(
            config, benchmarks=sample, use_cache=False, jobs=1,
        )
        for position, name in enumerate(direct.names):
            checks.append((
                _same_row(direct, position, cold, cold.index_of(name)),
                f"uncached recompute of {name} differs",
            ))
        analysis, text = texts[0]
        checks.append((
            runner.run_all(analysis, dataset=cold).format() == text,
            f"repeated report for ga_seed {analysis.ga_seed} differs",
        ))
    result["checks"] = [[bool(ok), name] for ok, name in checks]
    return result


def _traced_layers(recorder, missing, marks, warm_windows, retries) -> dict:
    import layers
    from spans import in_window, wrapper_cost_s

    t0, t1, t3 = marks
    spans = in_window(recorder.collect(), t0, t3)
    warm = [
        span for start, end in warm_windows
        for span in in_window(spans, start, end)
    ]
    build_wall_s = (t1 - t0) + sum(end - start for start, end in warm_windows)
    values = layers.layer_metrics(
        spans, main_pid=os.getpid(), jobs=JOBS, build_wall_s=build_wall_s,
    )
    warm_values = layers.layer_metrics(warm, main_pid=os.getpid())
    values["synth.warm_calls"] = warm_values["synth.calls"]
    values["uarch.warm_calls"] = warm_values["uarch.calls"]
    values["dataset.retries"] = retries
    values["trace_overhead_frac"] = (
        len(spans) * wrapper_cost_s() / (t3 - t0)
    )
    return {
        "values": values,
        "missing": missing,
        "table": layers.format_table(spans),
    }


def _ready(args) -> dict:
    _prepare(args)
    print("ready", flush=True)
    return {"ready": True}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("step", choices=("ready", "cycle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spool", default="")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--check", type=int, default=0)
    args = parser.parse_args(argv)
    result = _cycle(args) if args.step == "cycle" else _ready(args)
    Path(args.out).write_text(json.dumps(result))
    return 0


# -- controlling side ----------------------------------------------------


def run(ctx):
    from harness import Outcome, more_steps, require

    outcome = Outcome()
    setups, peaks = [], []
    cycles = []
    index = 0
    measured = 0.0
    while more_steps(ctx, len(cycles), measured, MIN_CYCLES):
        out = ctx.path(f"cycle-{index}.json")
        argv = ctx.python(
            "population.py", "cycle", "--seed", str(ctx.seed),
            "--index", str(index),
            "--cache", str(ctx.path(f"cache-{index}")), "--out", str(out),
            "--trace", str(int(ctx.trace)),
            "--spool", str(ctx.path(f"spool-{index}")),
            "--check", "1" if index == 0 else "0",
        )
        child = ctx.run_child(argv, timeout=120, out=out)
        result = require(child, f"population cycle {index}")
        setups.append(child.ready_s)
        peaks.append(child.peak_mb)
        cycles.append(result)
        measured += sum(
            sum(result[key]) for key in ("cold_s", "warm_s", "report_s")
        )
        for ok, name in result["checks"]:
            outcome.check(ok, name)
        index += 1
    while len(setups) < SETUP_SAMPLES:
        out = ctx.path(f"ready-{len(setups)}.json")
        child = ctx.run_child(
            ctx.python(
                "population.py", "ready", "--seed", str(ctx.seed),
                "--cache", str(ctx.path(f"ready-cache-{len(setups)}")),
                "--out", str(out),
            ),
            timeout=60, out=out,
        )
        require(child, "population set-up probe")
        setups.append(child.ready_s)

    cold, warm, report = (
        statistics.median([value for c in cycles for value in c[key]])
        for key in ("cold_s", "warm_s", "report_s")
    )
    outcome.named = {
        "cold_build_s": (cold, "s"),
        "warm_build_s": (warm, "s"),
        "report_s": (report, "s"),
        "cycles": (len(cycles), "count"),
    }
    outcome.notes.append("  per step: " + "; ".join(
        ", ".join(f"{v:.3f}" for c in cycles for v in c[key]) + f" ({key})"
        for key in ('cold_s', 'warm_s', 'report_s')
    ))
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(peaks),
        "stage1_ms": 1000.0 * cold,
        "stage2_ms": 1000.0 * warm,
        "stage3_ms": 1000.0 * report,
    }
    if ctx.trace:
        traced = cycles[0]["layers"]
        outcome.layers = traced["values"]
        outcome.notes.append(traced["table"])
        outcome.missing = traced["missing"]
        outcome.check(
            traced["values"]["synth.warm_calls"] == 0,
            "warm phase called the trace generator",
        )
        outcome.check(
            traced["values"]["uarch.warm_calls"] == 0,
            "warm phase ran the pipeline models",
        )
    return outcome


if __name__ == "__main__":
    sys.exit(main())
