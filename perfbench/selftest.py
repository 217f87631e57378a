"""Self-tests of the benchmark's own machinery.

Run from the repository root::

    python3 perfbench/selftest.py

They check the span recorder's self-time accounting, the process-tree
memory reading against a forked worker of known size, the load
generator's accounting against a deliberately stalled stub server, and
that every wrap site of the traced run still exists.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
import unittest
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from loadgen import (  # noqa: E402
    Client,
    closed_loop,
    open_loop,
    operation_latencies,
)
from procmem import TreePeakSampler  # noqa: E402
from spans import SpanRecorder, self_times, summarize  # noqa: E402


class SpanRecorderTest(unittest.TestCase):
    def test_self_time_merges_overlapping_children(self):
        spans = [
            (1, 1, "parent", 0.0, 10.0, 0, None),
            (1, 2, "child", 1.0, 4.0, 1, None),
            (1, 3, "child", 3.0, 6.0, 1, None),  # overlaps the first
            (1, 4, "child", 8.0, 11.0, 1, None),  # runs past the parent
            (1, 5, "grandchild", 1.5, 2.0, 2, None),
        ]
        selfs = self_times(spans)
        # Children cover [1, 6] and [8, 10] of the parent's [0, 10].
        self.assertAlmostEqual(selfs[(1, 1)], 10.0 - 5.0 - 2.0)
        self.assertAlmostEqual(selfs[(1, 2)], 3.0 - 0.5)
        self.assertAlmostEqual(selfs[(1, 5)], 0.5)
        table = summarize(spans)
        self.assertEqual(table["child"]["calls"], 3)
        self.assertAlmostEqual(table["child"]["total_s"], 9.0)

    def test_same_ids_in_other_processes_are_not_children(self):
        spans = [
            (1, 1, "parent", 0.0, 10.0, 0, None),
            (2, 2, "worker", 1.0, 9.0, 1, None),  # pid 2's span 1 is absent
        ]
        self.assertAlmostEqual(self_times(spans)[(1, 1)], 10.0)

    def test_wrapped_calls_nest_and_note(self):
        recorder = SpanRecorder()
        inner = recorder.wrap(lambda x: x, "inner",
                              note=lambda args, result: {"arg": args[0]})
        outer = recorder.wrap(lambda: inner(1) + inner(2), "outer")
        self.assertEqual(outer(), 3)
        by_name = {}
        for span in recorder.spans:
            by_name.setdefault(span[2], []).append(span)
        (root,) = by_name["outer"]
        self.assertEqual(root[5], 0)
        self.assertEqual([s[5] for s in by_name["inner"]], [root[1]] * 2)
        self.assertEqual([s[6]["arg"] for s in by_name["inner"]], [1, 2])

    def test_forked_child_spools_only_its_own_spans(self):
        with tempfile.TemporaryDirectory() as spool:
            recorder = SpanRecorder(spool)
            work = recorder.wrap(lambda: None, "work")
            work()
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                try:
                    work()
                    work()
                finally:
                    os._exit(0)
            os.waitpid(pid, 0)
            spans = recorder.collect()
        self.assertEqual(sorted(s[0] for s in spans),
                         sorted([os.getpid(), pid, pid]))


class TreeMemoryTest(unittest.TestCase):
    def test_reading_covers_an_unreaped_forked_worker(self):
        size_mb = 200
        # The root forks a worker that fills size_mb, holds it, exits;
        # the root never waits for it (like an executor shut down with
        # wait=False) and outlives it.
        program = textwrap.dedent(f"""
            import os, time
            pid = os.fork()
            if pid == 0:
                block = b"\\x01" * ({size_mb} << 20)
                time.sleep(0.6)
                os._exit(0)
            time.sleep(1.2)
        """)
        child = subprocess.Popen([sys.executable, "-c", program],
                                 stdout=subprocess.DEVNULL)
        sampler = TreePeakSampler(child.pid, interval=0.02).start()
        _, _, usage = os.wait4(child.pid, 0)
        sampler.stop()
        child.returncode = 0
        # The root's own rusage never sees the unreaped worker's memory;
        # the tree reading does.
        self.assertLess(usage.ru_maxrss / 1024, size_mb)
        self.assertGreaterEqual(sampler.peak_mb(usage.ru_maxrss), size_mb)


class _Stub(BaseHTTPRequestHandler):
    """Answers POSTs in order; some requests stall or are refused."""

    protocol_version = "HTTP/1.1"
    plan = {}
    count = 0
    lock = threading.Lock()

    def do_POST(self):  # noqa: N802 - stdlib naming
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        with _Stub.lock:
            index = _Stub.count
            _Stub.count += 1
        action = self.plan.get(index, ("ok", 0.0))
        time.sleep(action[1])
        status = {"ok": 200, "refuse": 429, "error": 500}[action[0]]
        body = json.dumps({"index": index}).encode()
        try:
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            pass  # the client gave up (timeout case)

    def log_message(self, *args):
        pass


class LoadGeneratorTest(unittest.TestCase):
    def setUp(self):
        _Stub.count = 0
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
        self.server.daemon_threads = True
        self.thread = threading.Thread(target=self.server.serve_forever)
        self.thread.start()
        self.client = Client("127.0.0.1", self.server.server_address[1],
                             timeout=0.5)

    def tearDown(self):
        self.client.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)
        self.assertFalse(self.thread.is_alive())

    def test_stall_shows_as_lateness_and_latency(self):
        _Stub.plan = {3: ("ok", 0.45)}
        start = time.perf_counter() + 0.05
        samples = open_loop(self.client, lambda i: ("/v1/x", {}), 20.0,
                            start, 1.0)
        self.assertEqual(len(samples), 20)
        self.assertTrue(all(s.ok for s in samples))
        # Requests due while #3 stalled were sent late, and their
        # latency counts from their due time.
        self.assertGreater(max(s.lateness for s in samples), 0.3)
        self.assertGreater(samples[4].latency, 0.3)
        self.assertLess(samples[0].lateness, 0.05)

    def test_refusals_errors_and_timeouts_are_failures(self):
        _Stub.plan = {1: ("refuse", 0.0), 2: ("error", 0.0),
                      3: ("ok", 1.0)}
        # One closed-loop operation of six requests (the loop checks
        # its 10 ms budget only between operations).
        samples = closed_loop(self.client, lambda i: [("/v1/x", {})] * 6,
                              time.perf_counter(), 0.01)
        failures = [s.error for s in samples if not s.ok]
        self.assertEqual(failures, ["status 429", "status 500", "timeout"])
        # The connection recovers after the timeout.
        self.assertTrue(samples[-1].ok)
        self.assertEqual(operation_latencies(samples, failed_as=9.0), [9.0])


class WrapSitesTest(unittest.TestCase):
    def test_every_wrap_site_exists(self):
        sys.path.insert(0, str(BENCH_DIR.parent / "src"))
        import layers

        self.assertEqual(layers.install(SpanRecorder()), [])


if __name__ == "__main__":
    unittest.main()
