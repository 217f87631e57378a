"""``serve_mix`` workload: ``repro serve`` under a warm/cold traffic mix.

The service runs in its own process with its default workers, a fresh
cache directory and a fresh ``--state-dir``, pinned to one CPU while
the load generator runs on another.  Set-up starts it five
times (the first four are drained with SIGTERM), then pre-warms six
benchmarks at trace seed 0 through the service itself, so its static
code images are built before anything is timed.  The load generator
(this process) then holds two connections for ``--seconds``:

* open loop: warm ``characterize``/``hpc`` hits on the pre-warmed
  pairs at :data:`WARM_RATE` requests/s, about half the rate a warm
  stream sustains next to one cold client; each is timed from its due
  time;
* closed loop: one client that, for a fresh trace seed of a pre-warmed
  benchmark, submits a cold ``characterize`` then a cold ``hpc`` job
  (``wait: true``) and repeats as soon as both have answered.

This is the only workload that goes through ``repro.service``, the
admission queue, the write-ahead journal and HTTP.

Run as a script this module computes the expected response bodies
directly (the output check); imported, :func:`run` is the controlling side.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCHMARKS = (
    "spec2000/gcc/166",
    "spec2000/mcf/ref",
    "spec2000/bzip2/graphic",
    "spec2000/swim/ref",
    "mibench/susan/smoothing-large",
    "mediabench/epic/test1",
)
KINDS = ("characterize", "hpc")
WARM_RATE = 5.0
TIMEOUT = 30.0
SETUP_SAMPLES = 5
CHECKED_PAIRS = 2


def _expected(args) -> dict:
    from repro.config import DEFAULT_CONFIG
    from repro.mica import characterize
    from repro.service import characterize_payload, hpc_payload
    from repro.synth import generate_trace
    from repro.uarch import collect_hpc
    from repro.workloads import get_benchmark

    length = DEFAULT_CONFIG.trace_length
    bodies = {}
    for name, seed in json.loads(args.pairs):
        trace = generate_trace(get_benchmark(name).profile, length, seed=seed)
        bodies[f"characterize {name} {seed}"] = characterize_payload(
            name, length, seed, characterize(trace, DEFAULT_CONFIG).values
        )
        bodies[f"hpc {name} {seed}"] = hpc_payload(
            name, length, seed, collect_hpc(trace).values
        )
    return bodies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("step", choices=("expected",))
    parser.add_argument("--pairs", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    Path(args.out).write_text(json.dumps(_expected(args)))
    return 0


# -- controlling side ----------------------------------------------------


def _split_cpus() -> "tuple[set, set] | None":
    """One CPU for the service, another for the load generator.

    Pinned apart, the load generator never competes with the service,
    and how warm hits contend with cold jobs does not depend on whether
    a second core happens to be free.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, {cpus[1]}


class Service:
    """One ``repro serve`` process (optionally with the span wrappers)."""

    def __init__(self, ctx, spans_out: "Path | None", cpus=None):
        cache, state = ctx.path("cache"), ctx.path("state")
        args = ["--cache-dir", str(cache), "serve", "--port", "0",
                "--state-dir", str(state)]
        if spans_out is None:
            argv = [sys.executable, "-m", "repro", *args]
        else:
            argv = ctx.python("serve_traced.py", str(spans_out), *args)
        self.stderr = open(ctx.path(f"service-{time.monotonic_ns()}.txt"),
                           "w")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=ctx.root, env=ctx.env, stdout=subprocess.PIPE,
            stderr=self.stderr, text=True, start_new_session=True,
        )
        if cpus:
            # Still single-threaded (importing); later threads inherit.
            os.sched_setaffinity(self.process.pid, cpus)
        watchdog = threading.Timer(60.0, self.process.kill)
        watchdog.start()
        try:
            line = self.process.stdout.readline()
            self.port = int(line.strip().rsplit(":", 1)[1])
            self._wait_ready()
        finally:
            watchdog.cancel()
        self.ready_s = time.perf_counter() - start

    def _wait_ready(self) -> None:
        from loadgen import Client

        client = Client("127.0.0.1", self.port, TIMEOUT)
        try:
            while True:
                try:
                    status, _, _ = client.request("GET", "/readyz")
                except OSError:
                    status = 0
                if status == 200:
                    return
                time.sleep(0.01)
        finally:
            client.close()

    def stats(self) -> dict:
        from loadgen import Client

        client = Client("127.0.0.1", self.port, TIMEOUT)
        try:
            _, _, body = client.request("GET", "/v1/stats")
        finally:
            client.close()
        return json.loads(body)

    def peak_mb(self) -> float:
        from procmem import vm_hwm_kb

        return (vm_hwm_kb(self.process.pid) or 0) / 1024.0

    def stop(self) -> "tuple[int, str]":
        """SIGTERM, then wait for the drain; (exit code, stdout)."""
        self.process.send_signal(signal.SIGTERM)
        try:
            output, _ = self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            output, _ = self.process.communicate()
        finally:
            self.stderr.close()
        return self.process.returncode, output


def run(ctx):
    from harness import Outcome, leftovers, require
    from loadgen import (
        Client,
        closed_loop,
        latencies,
        open_loop,
        operation_latencies,
        percentile_ms,
    )

    outcome = Outcome()
    rng = random.Random(ctx.seed)
    spans_out = ctx.path("service-spans.jsonl") if ctx.trace else None
    service_cpus, loadgen_cpus = _split_cpus() or (None, None)
    if loadgen_cpus:
        os.sched_setaffinity(0, loadgen_cpus)

    setups = []
    for index in range(SETUP_SAMPLES):
        service = Service(ctx, spans_out, service_cpus)
        setups.append(service.ready_s)
        if index < SETUP_SAMPLES - 1:
            code, output = service.stop()
            outcome.check(code == 0 and "drained cleanly" in output,
                          f"service start {index} did not drain cleanly")

    try:
        warm_client = Client("127.0.0.1", service.port, TIMEOUT)
        cold_client = Client("127.0.0.1", service.port, TIMEOUT)
        for name in BENCHMARKS:
            for kind in KINDS:
                sample = warm_client.timed(0, time.perf_counter(), f"/v1/{kind}",
                                           {"benchmark": name, "seed": 0,
                                            "wait": True})
                outcome.check(sample.ok, f"pre-warm {kind} {name}")

        warm_pairs = [(name, kind) for name in BENCHMARKS for kind in KINDS]
        rng.shuffle(warm_pairs)
        cold_order = rng.sample(BENCHMARKS, len(BENCHMARKS))
        cold_base = 1 + abs(ctx.seed) * 1000

        def warm_request(index):
            name, kind = warm_pairs[index % len(warm_pairs)]
            return f"/v1/{kind}", {"benchmark": name, "seed": 0}

        def cold_operation(index):
            body = {"benchmark": cold_order[index % len(cold_order)],
                    "seed": cold_base + index, "wait": True}
            return [(f"/v1/{kind}", body) for kind in KINDS]

        before = service.stats()
        start = time.perf_counter() + 0.05
        results = {}
        threads = [
            threading.Thread(target=lambda: results.__setitem__(
                "warm", open_loop(warm_client, warm_request, WARM_RATE,
                                  start, ctx.seconds))),
            threading.Thread(target=lambda: results.__setitem__(
                "cold", closed_loop(cold_client, cold_operation, start,
                                    ctx.seconds))),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.perf_counter()
        after = service.stats()
        peak = service.peak_mb()
        warm_client.close()
        cold_client.close()
    finally:
        code, output = service.stop()
    outcome.check(code == 0 and "drained cleanly" in output,
                  "measured service did not drain cleanly")
    left = leftovers(ctx.path("cache"), ctx.path("state"))
    outcome.check(not left, f"cache/state leftovers {left[:3]}")

    warm, cold = results["warm"], results["cold"]
    for sample in warm:
        outcome.check(sample.ok and sample.source == "cache",
                      f"warm request {sample.group}: "
                      f"{sample.error or sample.source}")
    for sample in cold:
        outcome.check(sample.ok and sample.source == "computed",
                      f"cold job {sample.group}: "
                      f"{sample.error or sample.source}")

    # Untimed output check: sampled bodies against a direct computation.
    checked_warm = rng.sample(BENCHMARKS, CHECKED_PAIRS)
    cold_groups = sorted({s.group for s in cold})
    checked_cold = rng.sample(cold_groups, min(CHECKED_PAIRS, len(cold_groups)))
    pairs = [(name, 0) for name in checked_warm] + [
        (cold_order[group % len(cold_order)], cold_base + group)
        for group in checked_cold
    ]
    out = ctx.path("expected.json")
    expected = require(ctx.run_child(
        ctx.python("serve_mix.py", "expected", "--pairs", json.dumps(pairs),
                   "--out", str(out)),
        timeout=90, out=out,
    ), "serve_mix expected bodies")
    checked = [
        (f"{kind} {name} 0", sample) for sample in warm
        for name, kind in [warm_pairs[sample.group % len(warm_pairs)]]
        if name in checked_warm
    ] + [
        (f"{sample.kind} {cold_order[sample.group % len(cold_order)]} "
         f"{cold_base + sample.group}", sample)
        for sample in cold if sample.group in checked_cold
    ]
    for key, sample in checked:
        outcome.check(
            sample.ok and json.loads(sample.body) == expected.get(key),
            f"body of {key} differs from a direct computation",
        )

    duration = end - start
    warm_lat = latencies(warm, failed_as=TIMEOUT)
    cold_ops = operation_latencies(cold, failed_as=2 * TIMEOUT)
    cold_done = sum(1 for s in cold if s.ok)
    outcome.named = {
        "warm_p50_ms": (percentile_ms(warm_lat, 50), "ms"),
        "warm_p90_ms": (percentile_ms(warm_lat, 90), "ms"),
        "cold_p50_ms": (percentile_ms(cold_ops, 50), "ms"),
        "cold_jobs_per_s": (cold_done / duration, "1/s"),
        "warm_requests": (len(warm), "count"),
        "cold_operations": (len(cold_ops), "count"),
    }
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
        "stage1_ms": percentile_ms(warm_lat, 50),
        "stage2_ms": percentile_ms(warm_lat, 90),
        "stage3_ms": percentile_ms(cold_ops, 50),
    }
    if ctx.trace:
        _traced(outcome, spans_out, service.process.pid, start, end,
                before, after, warm)
    return outcome


def _traced(outcome, spans_out, service_pid, start, end, before, after,
            warm):
    import layers
    from loadgen import percentile_ms
    from spans import in_window, load_spans

    meta = json.loads(spans_out.with_suffix(".meta.json").read_text())
    spans = in_window(load_spans(spans_out), start, end)
    values = layers.layer_metrics(spans, main_pid=service_pid)
    values["service.warm_hits"] = after["warm_hits"] - before["warm_hits"]
    values["service.cold_jobs"] = after["completed"] - before["completed"]
    values["service.refused"] = after["rejected"] - before["rejected"]
    values["loadgen.lag_p90_ms"] = percentile_ms(
        [sample.lateness for sample in warm], 90
    )
    values["trace_overhead_frac"] = (
        len(spans) * meta["wrapper_cost_s"] / (end - start)
    )
    outcome.layers = values
    outcome.missing = meta["missing"]
    outcome.notes.append(layers.format_table(spans))


if __name__ == "__main__":
    sys.exit(main())
