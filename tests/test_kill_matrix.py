"""--runslow: SIGKILL mid-write at every cache level, plus the journal.

The atomic-writer contract under uncatchable death: an interrupted
store is never half-visible — the entry either fully exists and
verifies, or does not exist at all (at worst a ``tmp-*`` temp is
stranded for the sweep). One parametrized kill per cache level
(char, hpc, dataset) plus one mid-append journal tear, each followed by
a resume that must converge bit-for-bit.

A serial build stores char → hpc per benchmark, then the dataset
matrices last; ``after`` counts writer-seam hits, which is what aims
the kill at a specific level.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.experiments import build_dataset, resume_dataset
from repro.experiments.dataset import _MEMORY_CACHE
from repro.perf import replay_journal, sweep_temporaries, verify_cache
from repro.workloads import all_benchmarks

from conftest import TEST_CONFIG

pytestmark = pytest.mark.slow

POPULATION = all_benchmarks()[:2]
NAMES = ",".join(b.full_name for b in POPULATION)

CHILD = textwrap.dedent("""
    import sys
    from pathlib import Path
    from repro.config import ReproConfig
    from repro.experiments import build_dataset
    from repro.workloads import get_benchmark
    names = sys.argv[1].split(",")
    config = ReproConfig(
        trace_length=5_000, ga_generations=8, ga_population=16)
    build_dataset(
        config, benchmarks=[get_benchmark(name) for name in names],
        cache_dir=Path(sys.argv[2]), jobs=1, journal=Path(sys.argv[3]))
""")

# label -> (seam, writer hits to allow first, visible entry counts the
# killed cache must show as (trace, char, hpc, dataset)).  No build
# writes a trace entry, so the trace count stays 0 throughout.
CASES = {
    "char": ("writer-before-replace", 0, (0, 0, 0, 0)),
    "hpc": ("writer-before-replace", 1, (0, 1, 0, 0)),
    "dataset": (
        "writer-before-replace",
        2 * len(POPULATION),
        (0, len(POPULATION), len(POPULATION), 0),
    ),
    "journal": ("journal-append-unsynced", 3, None),
}


@pytest.fixture(autouse=True)
def _fresh_memory_cache():
    _MEMORY_CACHE.clear()
    yield
    _MEMORY_CACHE.clear()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    cold = tmp_path_factory.mktemp("kill-matrix-cold")
    return build_dataset(
        TEST_CONFIG, benchmarks=POPULATION, cache_dir=cold, jobs=1
    )


def _counts(cache):
    return tuple(
        len(list(cache.glob(f"{prefix}-*.npz")))
        for prefix in ("trace", "char", "hpc", "dataset")
    )


@pytest.mark.parametrize("label", sorted(CASES))
def test_kill_mid_write_leaves_no_half_entry(
    tmp_path, reference, label
):
    seam, after, expected_counts = CASES[label]
    import repro

    cache = tmp_path / "cache"
    journal = tmp_path / "journal.jsonl"
    faults_dir = tmp_path / "faults"
    faults_dir.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    env["REPRO_KILL_FAULTS"] = json.dumps({
        "state_dir": str(faults_dir),
        "faults": [{"seam": seam, "after": after, "times": 1}],
    })
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, NAMES, str(cache), str(journal)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == -signal.SIGKILL, (
        label, proc.returncode, proc.stdout, proc.stderr,
    )

    if expected_counts is not None:
        # The kill landed on exactly the level it was aimed at: every
        # earlier store is fully visible, the interrupted one is not.
        assert _counts(cache) == expected_counts, (label, _counts(cache))
        # The interrupted writer strands its temp; nothing else leaks.
        temps = list(cache.glob("tmp-*.npz"))
        assert len(temps) == 1, (label, temps)

    # Nothing half-visible: every surviving entry verifies clean, and
    # the journal replays to a valid (possibly repaired) prefix.
    report = verify_cache(cache, sweep_older_than=0.0)
    assert not report.quarantined, (label, report.format())
    assert not list(cache.glob("tmp-*")), label
    assert replay_journal(journal, repair=True).truncation is None

    resumed = resume_dataset(
        TEST_CONFIG, benchmarks=POPULATION, cache_dir=cache, jobs=1,
        journal=journal,
    )
    assert resumed.mica.tobytes() == reference.mica.tobytes(), label
    assert resumed.hpc.tobytes() == reference.hpc.tobytes(), label
    sweep_temporaries(cache, older_than=0.0)
    assert verify_cache(cache).quarantined == ()
