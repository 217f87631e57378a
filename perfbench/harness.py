"""Plumbing of the controlling process (``run.py``) shared by the workloads.

The controlling process imports nothing from ``repro``: each measured
step runs in a child Python process (``PYTHONPATH=src``) whose memory it
samples across the whole process tree, and whose leftovers — pool
workers orphaned by an exiting child included — it reaps before it
returns.
"""

from __future__ import annotations

import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from procmem import TreePeakSampler, children_of

BENCH_DIR = Path(__file__).resolve().parent

#: ``prctl`` option that makes orphaned descendants re-parent to us.
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants so they can be waited for (Linux)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            _PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0
        )
    except (OSError, AttributeError):
        pass


def reap_orphans(grace: float = 5.0) -> None:
    """Wait for every child still around (called when no tracked child
    runs, so each is an adopted orphan); after ``grace`` seconds, kill
    the ones still running."""
    deadline = time.monotonic() + grace
    while True:
        orphans = list(children_of(os.getpid()))
        if not orphans:
            return
        for pid in orphans:
            if time.monotonic() > deadline:
                _signal(pid, signal.SIGKILL)
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.02)


def _signal(pid: int, signum: int) -> None:
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass


@dataclass
class Child:
    """A finished child step."""

    returncode: int
    ready_s: Optional[float]
    wall_s: float
    peak_mb: float
    stderr: str
    result: dict


@dataclass
class Outcome:
    """What a workload reports back to ``run.py``."""

    metrics: Dict[str, float] = field(default_factory=dict)
    named: Dict[str, tuple] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    missing: List[str] = field(default_factory=list)

    def check(self, ok: bool, name: str) -> None:
        """Count one checked operation; a failed one is kept by name."""
        self.attempted += 1
        if not ok:
            self.failures.append(name)


class Context:
    """One run's scratch directory (inside the checkout) and child env."""

    def __init__(self, root: Path, seed: int, seconds: float, trace: bool):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        scratch = root / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        self.run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
        self.tmp = self.run_dir / "tmp"
        self.tmp.mkdir()
        env = dict(os.environ)
        # Never touch the repository's default cache: every path is
        # passed explicitly and the override variable is dropped.
        env.pop("REPRO_CACHE_DIR", None)
        env["PYTHONPATH"] = str(root / "src")
        env["TMPDIR"] = str(self.tmp)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.env = env
        self._started = time.monotonic()

    def path(self, name: str) -> Path:
        return self.run_dir / name

    def elapsed(self) -> float:
        return time.monotonic() - self._started

    def cleanup(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        try:
            self.run_dir.parent.rmdir()
        except OSError:
            pass

    def python(self, script: str, *args: str) -> List[str]:
        return [sys.executable, str(BENCH_DIR / script), *args]

    def run_child(
        self, argv: List[str], timeout: float, out: "Path | None" = None
    ) -> Child:
        """Run one step; time it to its ``ready`` line and to its exit.

        The child's whole process tree is sampled for peak memory.  A
        step that overruns ``timeout`` is killed with its process group
        and reported with return code -9.
        """
        log = self.run_dir / f"stderr-{time.monotonic_ns()}.txt"
        start = time.perf_counter()
        with open(log, "w") as stderr:
            process = subprocess.Popen(
                argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                stderr=stderr, text=True, start_new_session=True,
            )
        watchdog = threading.Timer(timeout, _kill_group, (process.pid,))
        watchdog.start()
        sampler = TreePeakSampler(process.pid).start()
        ready_s = None
        try:
            for line in process.stdout:
                if ready_s is None and line.strip() == "ready":
                    ready_s = time.perf_counter() - start
            _, status, usage = os.wait4(process.pid, 0)
            process.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            sampler.stop()
            process.stdout.close()
            if process.returncode is None:
                _kill_group(process.pid)
                process.wait()
        wall = time.perf_counter() - start
        reap_orphans()
        result = {}
        if out is not None and out.exists() and process.returncode == 0:
            result = json.loads(out.read_text())
        return Child(
            returncode=process.returncode, ready_s=ready_s, wall_s=wall,
            peak_mb=sampler.peak_mb(usage.ru_maxrss), stderr=log.read_text(),
            result=result,
        )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def leftovers(*directories: Path) -> List[str]:
    """Writer temporaries and quarantined cache entries left behind."""
    return sorted(
        path.name
        for directory in directories if directory.is_dir()
        for path in directory.iterdir()
        if path.name.startswith("tmp-") or path.name.endswith(".quarantined")
    )


def more_steps(ctx: "Context", done: int, measured: float,
               minimum: int) -> bool:
    """Whether to run another measuring step.

    The traced run measures one step.  An untraced run measures at
    least ``minimum`` steps, so every run has the same number of samples
    on a host of any speed, and more until ``--seconds`` of measured
    time has passed.
    """
    if ctx.trace:
        return done == 0
    return done < minimum or measured < ctx.seconds


class StepFailed(RuntimeError):
    """A measured step crashed, so its metrics do not exist."""


def require(child: Child, what: str) -> dict:
    if child.returncode != 0 or not child.result:
        tail = child.stderr.strip().splitlines()[-15:]
        raise StepFailed(
            f"{what} exited with {child.returncode}:\n" + "\n".join(tail)
        )
    return child.result
