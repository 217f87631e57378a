"""``long_trace`` workload: out-of-core characterization and phases.

Set-up generates one 2M-instruction gcc trace from the seed and writes
it as an uncompressed ``.mtf``.  Each measuring process then, without
ever reading the whole trace into memory: characterizes it through the
chunked source one shard at a time (``sharded_characterize(...,
jobs=1)``), fans the same shards out over two workers (``jobs=2``), and
computes the MICA timeline and MICA-signature phases at 10k-instruction
intervals over a read-only memory map.  This path never reaches
``uarch`` or the cache levels.

Run as a script this module is the set-up, reference and measuring
process; imported, :func:`run` is the controlling side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

BENCHMARK = "spec2000/gcc/166"
LENGTH = 2_000_000
SHARD_SIZE = 250_000
INTERVAL = 10_000
SETUP_SAMPLES = 3
MIN_CYCLES = 3


def _hex(values) -> str:
    import numpy as np

    return np.ascontiguousarray(values, dtype=np.float64).tobytes().hex()


def _setup(args) -> dict:
    from repro.synth import generate_trace
    from repro.trace import write_trace
    from repro.workloads import get_benchmark

    trace = generate_trace(
        get_benchmark(BENCHMARK).profile, LENGTH, seed=args.seed
    )
    write_trace(trace, args.mtf)
    return {"digest": trace.content_digest()}


def _reference(args) -> dict:
    from repro.mica import characterize
    from repro.trace import read_trace

    return {"values": _hex(characterize(read_trace(args.mtf)).values)}


def _mapped_trace(path: str):
    """The ``.mtf`` payload as a read-only memory map (pages load on
    demand; nothing copies the whole trace)."""
    import numpy as np

    from repro.isa import TRACE_DTYPE
    from repro.trace import Trace, open_trace_source

    rows = len(open_trace_source(path))
    header = Path(path).stat().st_size - rows * TRACE_DTYPE.itemsize
    mapped = np.memmap(path, dtype=TRACE_DTYPE, mode="r", offset=header,
                       shape=(rows,))
    return Trace(mapped, name=BENCHMARK)


def _cycle(args) -> dict:
    import repro.perf.sharding as sharding
    import repro.phases as phases
    from repro.trace import open_trace_source

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
    stream = sharding.sharded_characterize(
        open_trace_source(args.mtf, name=BENCHMARK),
        shard_size=SHARD_SIZE, jobs=1,
    )
    t1 = time.perf_counter()
    fanout = sharding.sharded_characterize(
        open_trace_source(args.mtf, name=BENCHMARK),
        shard_size=SHARD_SIZE, jobs=2,
    )
    t2 = time.perf_counter()
    trace = _mapped_trace(args.mtf)
    timeline = phases.mica_timeline(trace, interval=INTERVAL)
    found = phases.detect_phases(trace, interval=INTERVAL, signature="mica")
    t3 = time.perf_counter()

    result = {
        "stream_s": t1 - t0, "fanout_s": t2 - t1, "phases_s": t3 - t2,
        "stream": _hex(stream.values), "fanout": _hex(fanout.values),
        "timeline": hashlib.sha256(
            timeline.values.tobytes()
        ).hexdigest(),
        "phases": hashlib.sha256(
            found.assignments.astype("int64").tobytes()
        ).hexdigest(),
        "k": int(found.k),
        "intervals": int(len(found.assignments)),
    }
    if recorder is not None:
        import layers
        from spans import in_window, wrapper_cost_s

        spans = in_window(recorder.collect(), t0, t3)
        values = layers.layer_metrics(spans, main_pid=os.getpid())
        values["trace_overhead_frac"] = (
            len(spans) * wrapper_cost_s() / (t3 - t0)
        )
        result["layers"] = {
            "values": values, "missing": missing,
            "table": layers.format_table(spans),
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("step", choices=("setup", "reference", "cycle"))
    parser.add_argument("--mtf", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spool", default="")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    step = {"setup": _setup, "reference": _reference, "cycle": _cycle}
    result = step[args.step](args)
    Path(args.out).write_text(json.dumps(result))
    return 0


# -- controlling side ----------------------------------------------------


def _file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run(ctx):
    from harness import Outcome, more_steps, require

    outcome = Outcome()
    setups, files = [], []
    for index in range(SETUP_SAMPLES):
        mtf = ctx.path(f"trace-{index}.mtf")
        out = ctx.path(f"setup-{index}.json")
        child = ctx.run_child(
            ctx.python("long_trace.py", "setup", "--seed", str(ctx.seed),
                       "--mtf", str(mtf), "--out", str(out)),
            timeout=60, out=out,
        )
        require(child, "long_trace set-up")
        setups.append(child.wall_s)
        files.append(mtf)
    mtf = files[0]
    first = _file_digest(mtf)
    for other in files[1:]:
        outcome.check(_file_digest(other) == first,
                      "set-up generated different trace bytes")
        other.unlink()

    out = ctx.path("reference.json")
    reference = require(ctx.run_child(
        ctx.python("long_trace.py", "reference", "--mtf", str(mtf),
                   "--out", str(out)),
        timeout=60, out=out,
    ), "long_trace one-shot reference")["values"]

    cycles, peaks = [], []
    measured = 0.0
    while more_steps(ctx, len(cycles), measured, MIN_CYCLES):
        index = len(cycles)
        out = ctx.path(f"cycle-{index}.json")
        child = ctx.run_child(
            ctx.python("long_trace.py", "cycle", "--mtf", str(mtf),
                       "--out", str(out), "--trace", str(int(ctx.trace)),
                       "--spool", str(ctx.path(f"spool-{index}"))),
            timeout=90, out=out,
        )
        result = require(child, f"long_trace cycle {index}")
        cycles.append(result)
        peaks.append(child.peak_mb)
        measured += result["stream_s"] + result["fanout_s"] + result["phases_s"]
        outcome.check(result["stream"] == reference,
                      f"cycle {index}: streamed vector differs from one-shot")
        outcome.check(result["fanout"] == reference,
                      f"cycle {index}: fanned-out vector differs from one-shot")
        outcome.check(
            result["k"] >= 1 and result["intervals"] == LENGTH // INTERVAL,
            f"cycle {index}: phase detection returned no usable phases",
        )
        outcome.check(
            (result["timeline"], result["phases"])
            == (cycles[0]["timeline"], cycles[0]["phases"]),
            f"cycle {index}: timeline or phases differ between cycles",
        )

    stream = statistics.median([c["stream_s"] for c in cycles])
    fanout = statistics.median([c["fanout_s"] for c in cycles])
    phases_s = statistics.median([c["phases_s"] for c in cycles])
    outcome.named = {
        "stream_s": (stream, "s"),
        "fanout_s": (fanout, "s"),
        "phases_s": (phases_s, "s"),
        "cycles": (len(cycles), "count"),
    }
    outcome.notes.append("  per step: " + "; ".join(
        ", ".join(f"{c[key]:.3f}" for c in cycles) + f" ({key})"
        for key in ('stream_s', 'fanout_s', 'phases_s')
    ))
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(peaks),
        "stage1_ms": 1000.0 * stream,
        "stage2_ms": 1000.0 * fanout,
        "stage3_ms": 1000.0 * phases_s,
    }
    if ctx.trace:
        traced = cycles[0]["layers"]
        outcome.layers = traced["values"]
        outcome.notes.append(traced["table"])
        outcome.missing = traced["missing"]
        for layer in ("synth", "uarch"):
            outcome.check(
                traced["values"][f"{layer}.calls"] == 0,
                f"measured part reached {layer}",
            )
    return outcome


if __name__ == "__main__":
    sys.exit(main())
