#!/usr/bin/env python
"""MICA perf-harness entry point.

Times every Table II analyzer (plus the scalar PPM/ILP references),
the trace-generation engine (batch interpreter/expansion vs their
scalar references, cold-vs-warm dataset builds), the HPC engines
(event assemblies, the pipeline-model batch walks vs their retained
reference loops over precomputed events, component engines, HPC
cache), the phase engine (segmented interval characterization vs
the retained chunked reference, signature extractors, phase
detection) and the shard engine (one-shot vs the sequential
shard+merge stream and the 2/4-worker intra-trace fan-out), then
writes the machine-readable ``BENCH_mica.json``
trajectory file (schema ``BENCH_mica/v7``).  Also
reachable as ``python -m repro bench``; this thin wrapper exists so the
harness can be invoked from a checkout without installing the package::

    PYTHONPATH=src python benchmarks/perf/run_bench.py
    PYTHONPATH=src python benchmarks/perf/run_bench.py \
        --trace-length 500000 --repeats 5 --output BENCH_mica.json

See the "Performance" section of ROADMAP.md for how to read the output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import DEFAULT_CONFIG  # noqa: E402
from repro.perf import run_mica_bench, write_bench_json  # noqa: E402


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trace-length", type=int, default=0,
        help="instructions per trace (default: library default)",
    )
    parser.add_argument(
        "--profile", default="spec2000/vpr/place",
        help="registry benchmark supplying the workload profile",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions per analyzer (best is kept)",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_mica.json"),
        help="where to write the JSON result ('' to skip)",
    )
    parser.add_argument(
        "--no-reference", action="store_true",
        help="skip the slow scalar reference timings (PPM/ILP, generation "
             "phases, HPC events and pipeline models)",
    )
    parser.add_argument(
        "--no-generation", action="store_true",
        help="skip the trace-generation engine timings",
    )
    parser.add_argument(
        "--no-hpc", action="store_true",
        help="skip the HPC engine timings (events, pipeline models, "
             "components, cache)",
    )
    parser.add_argument(
        "--no-phases", action="store_true",
        help="skip the phase engine timings (segmented timeline, "
             "signatures, phase detection)",
    )
    parser.add_argument(
        "--no-sharded", action="store_true",
        help="skip the shard engine timings (streaming merge overhead, "
             "intra-trace worker fan-out)",
    )
    args = parser.parse_args(argv)

    config = (
        DEFAULT_CONFIG.with_overrides(trace_length=args.trace_length)
        if args.trace_length
        else DEFAULT_CONFIG
    )
    result = run_mica_bench(
        config=config,
        profile_name=args.profile,
        repeats=args.repeats,
        include_reference=not args.no_reference,
        include_generation=not args.no_generation,
        include_hpc=not args.no_hpc,
        include_phases=not args.no_phases,
        include_sharded=not args.no_sharded,
    )
    print(result.format())
    if args.output:
        path = write_bench_json(result, args.output)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
