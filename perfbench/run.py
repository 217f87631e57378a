"""End-to-end benchmark of the MICA reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload population --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is the separate traced run that wraps each layer's public
functions and reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  Metric names,
units and bounds are declared in ``BENCHMARK.json``; what each workload
measures is documented in ``perfbench/README.md``.

Exit status: 0 with a result; 1 when a measured step crashed; 2 when
the directory is not a checkout of the repository.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import long_trace  # noqa: E402
import population  # noqa: E402
import serve_mix  # noqa: E402

WORKLOADS = {
    "population": population,
    "serve_mix": serve_mix,
    "long_trace": long_trace,
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "repro").is_dir() or not spec_path.is_file():
        print(
            f"error: {root} is not a checkout of the repository "
            "(need src/repro and BENCHMARK.json)", file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    mica_cache_before = (root / ".mica_cache").exists()

    # A terminated run unwinds normally, so its children are killed and
    # its scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    harness.become_subreaper()
    ctx = harness.Context(root, args.seed, args.seconds, bool(args.trace))
    try:
        outcome = WORKLOADS[args.workload].run(ctx)
    except harness.StepFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        ctx.cleanup()
        harness.reap_orphans()
    outcome.check(
        mica_cache_before or not (root / ".mica_cache").exists(),
        "run wrote the repository's default .mica_cache",
    )

    values = outcome.layers if args.trace else outcome.metrics
    absent = [m["name"] for m in declared if m["name"] not in values]
    if not args.trace and absent:
        print(f"error: metrics not measured: {absent}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {ctx.elapsed():.1f} s")
    for name, (value, unit) in outcome.named.items():
        print(f"  {name} = {_format(value)} {unit}")
    failed = len(outcome.failures)
    print(f"  failed_frac = {failed / max(1, outcome.attempted):.6g} "
          f"({failed} of {outcome.attempted} operations)")
    for failure in outcome.failures:
        print(f"  FAILED: {failure}")
    for note in outcome.notes:
        print(note)
    if args.trace:
        if absent:
            print("  no such layer in this workload (reported as 0): "
                  + ", ".join(absent))
        for site in outcome.missing:
            print(f"  cannot measure: wrap site {site} no longer exists")
    metrics = {}
    for entry in declared:
        value = values.get(entry["name"], 0)
        print(f"  {entry['name']} = {_format(value)} {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
