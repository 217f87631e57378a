"""Peak resident memory of a process tree, read from ``/proc``.

``getrusage(RUSAGE_CHILDREN)`` only covers descendants that were waited
for, and ``build_dataset`` leaves its pool workers unreaped, so it reads
a few megabytes after a two-worker build.  This module instead samples
``VmHWM`` (each process's own peak resident set) of every live process
in the tree on a background thread.  The reading of the tree is the
largest sum, over one sample, of the peaks of the processes alive at
that sample: a worker's peak counts even if it was reached between
samples, and workers that never ran at the same time are not added up.
Pages shared after ``fork`` count once per process that touched them.
"""

from __future__ import annotations

import os
import threading
from typing import Iterable, Optional


def children_of(pid: int) -> Iterable[int]:
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return ()
    found = []
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


def tree_pids(root: int) -> list:
    """``root`` and all of its live descendants."""
    pids, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        pids.append(pid)
        frontier.extend(children_of(pid))
    return pids


def vm_hwm_kb(pid: int) -> "Optional[int]":
    """The process's peak resident set in KiB (None once it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


class TreePeakSampler:
    """Samples the peak RSS of ``root``'s process tree until stopped."""

    def __init__(self, root: int, interval: float = 0.05):
        self.root = root
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        total = sum(vm_hwm_kb(pid) or 0 for pid in tree_pids(self.root))
        self.peak_kb = max(self.peak_kb, total)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(self.interval)

    def start(self) -> "TreePeakSampler":
        self.sample()
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def peak_mb(self, root_peak_kb: int = 0) -> float:
        """The tree's peak in MiB, at least ``root_peak_kb`` (the root's
        exact ``ru_maxrss`` from ``wait4``, covering a peak it reached
        after the last sample)."""
        return max(self.peak_kb, root_peak_kb) / 1024.0
