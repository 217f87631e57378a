"""On-disk caches: characterization results, HPC vectors, shards.

Three cache levels live here, forming a hierarchy under the
dataset-level matrix cache of :mod:`repro.experiments.dataset`:

* **Characterization cache** (top).  Characterizing one generated trace
  is pure: the 47-dimensional MICA vector depends only on the trace's
  generation recipe (a :class:`TraceRecipe`: profile, length, seed) and
  the characterization fields of :class:`~repro.config.ReproConfig`.
  Entries key by::

      recipe.key() + config.characterization_fingerprint()
          + CHAR_CACHE_VERSION

  and store one small ``.npz`` per trace.

* **HPC cache** (beside it).  The seven-metric
  hardware-performance-counter vector is equally pure — a function of
  the recipe and the two simulated machines — so entries key by::

      recipe.key() + inorder.fingerprint() + ooo.fingerprint()
          + HPC_SIM_VERSION

  and a warm :func:`cached_collect_hpc` performs zero pipeline-model
  runs (asserted via :func:`repro.uarch.hpc_call_count`).

  ``recipe.key()`` hashes ``TRACE_GEN_VERSION`` + the profile
  fingerprint + length + seed, so neither level needs the trace bytes
  to find an entry: a hit never generates, loads or hashes a trace,
  and a miss generates it once (:attr:`TraceRecipe.trace`) for both
  levels.  :data:`~repro.synth.TRACE_GEN_VERSION` is part of the key
  because the bytes a recipe produces may legitimately change when the
  generation engine's draw protocol changes.

* **Shard cache** (finest grain).  The shard-mergeable engine
  (:mod:`repro.mica.shard`) characterizes contiguous chunks into cold
  mergeable states; each state is pure in the chunk's bytes and the
  characterization config, so entries key by::

      sha256(shard bytes) + config.characterization_fingerprint()
          + sections mask + SHARD_CACHE_VERSION

  and re-characterizing an extended or overlapping trace reuses every
  warm shard whose byte range lines up.  Shards of external traces
  have no recipe, so this level keeps content keys
  (:func:`trace_fingerprint`).

Entries survive process restarts, are shared by parallel dataset
workers, and stay valid under population changes (unlike the
dataset-level cache, which is keyed by the full benchmark name list).

Bump :data:`CHAR_CACHE_VERSION` whenever analyzer semantics change and
:data:`repro.uarch.HPC_SIM_VERSION` whenever simulation semantics do.

Every entry is integrity-stamped via :mod:`repro.perf.integrity`
(level, semantic version, per-field shape/dtype, payload checksums);
loads verify and quarantine rather than serve corrupt bytes, stores
stay atomic and degrade to compute-without-cache — with one
:class:`~repro.errors.CacheDegradedWarning` per directory — when the
directory is unwritable.  ``verify_cache`` is the scan-and-quarantine
entry point behind ``repro cache verify``.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from . import integrity
from . import journal as journal_module
from .integrity import QuarantineEvent
from ..config import DEFAULT_CONFIG, ReproConfig
from ..errors import CacheDegradedWarning, CacheIntegrityError
from ..mica import NUM_CHARACTERISTICS, CharacteristicVector, characterize
from ..synth import TRACE_GEN_VERSION, WorkloadProfile, generate_trace
from ..trace import Trace
from ..uarch import (
    EV56_CONFIG,
    EV67_CONFIG,
    HPC_METRIC_NAMES,
    HPC_SIM_VERSION,
    HpcVector,
    MachineConfig,
    collect_hpc,
)

#: Bump when any analyzer changes its output for the same trace/config.
CHAR_CACHE_VERSION = 1

#: Bump when the shard-mergeable state layout or semantics change
#: (:mod:`repro.mica.shard`), independently of the final-vector cache.
SHARD_CACHE_VERSION = 1

# -- graceful degradation ---------------------------------------------------
#
# A cache directory that cannot be written (read-only filesystem, disk
# full) must never turn a build into an exception: every ``cached_*``
# function computes without the cache instead, warning once per
# directory per process.

_DEGRADED_DIRECTORIES: Set[str] = set()


def reset_cache_degradation() -> None:
    """Forget which directories have warned (for tests)."""
    _DEGRADED_DIRECTORIES.clear()


def is_cache_degraded(directory: "Path | str") -> bool:
    """Whether this process has degraded the directory's caches.

    True once any ``cached_*`` store against ``directory`` failed with
    an OSError (read-only filesystem, disk full) and the directory
    dropped to compute-without-cache mode.  The service layer polls
    this after each job to switch itself into degraded mode.
    """
    return os.path.abspath(str(directory)) in _DEGRADED_DIRECTORIES


def _degrade(directory: "Path | str", error: BaseException) -> None:
    key = os.path.abspath(str(directory))
    if key in _DEGRADED_DIRECTORIES:
        return
    _DEGRADED_DIRECTORIES.add(key)
    warnings.warn(
        f"cache directory {directory} is not writable ({error}); "
        "continuing without the cache",
        CacheDegradedWarning,
        stacklevel=3,
    )


def trace_fingerprint(trace: Trace) -> str:
    """Content hash of a trace (independent of its name).

    Two traces with identical instruction streams hash identically, so
    renamed or regenerated-but-equal shards share shard cache entries.
    """
    digest = hashlib.sha256()
    digest.update(str(trace.data.dtype).encode())
    digest.update(trace.data.tobytes())
    return digest.hexdigest()[:32]


@dataclass(frozen=True)
class TraceRecipe:
    """How to generate one trace: the identity of its per-trace entries.

    Generation is a pure function of (profile, length, seed), so the
    recipe names a trace without its bytes.  The trace itself is
    generated lazily, at most once per recipe object, and only when a
    cache level misses.

    Attributes:
        profile: the workload profile to generate from.
        length: instructions to generate.
        seed: the per-trace generation seed.
    """

    profile: WorkloadProfile
    length: int
    seed: int = 0

    @property
    def name(self) -> str:
        return self.profile.name

    def key(self) -> str:
        """Content-free hash of the recipe and the generation protocol."""
        payload = (
            f"{TRACE_GEN_VERSION}:{self.profile.fingerprint()}:"
            f"{self.length}:{self.seed}"
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:32]

    @cached_property
    def trace(self) -> Trace:
        """The generated trace (generated on first access)."""
        return generate_trace(self.profile, self.length, seed=self.seed)


def _recipe_entry_key(recipe: TraceRecipe, *parts: object) -> str:
    payload = ":".join(str(part) for part in (recipe.key(), *parts))
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def _unlink_quietly(path: Path) -> int:
    """Unlink tolerating a concurrent deletion; 1 when we removed it."""
    try:
        path.unlink()
    except FileNotFoundError:
        # A concurrent worker deleted the same entry first — the goal
        # (entry gone) is met either way.
        return 0
    return 1


class _NpzCacheDirectory:
    """Shared machinery of the on-disk cache levels.

    One ``.npz`` file per entry under a common directory (created
    lazily on first store), distinguished per level by ``_prefix``.
    Entries are written atomically (temp file + rename) so concurrent
    workers producing the same entry cannot corrupt each other, and
    every entry embeds the :mod:`repro.perf.integrity` metadata: level,
    semantic version, per-field shape/dtype and payload checksums.  A
    file that fails verification — truncated, bit-flipped,
    wrong-shape, stale-version or foreign — is a *verified miss*: it is
    quarantined (renamed aside, never re-served), not raised and not
    silently returned.
    """

    _prefix = ""
    #: ``{field: (expected shape | None, expected dtype | None)}`` for
    #: verification scans, where the expectation is key-independent.
    _static_expected: "integrity.ExpectedFields" = {}

    def __init__(self, directory: "Path | str"):
        self.directory = Path(directory)

    def _schema_version(self) -> object:
        """The level's current semantic version (stamped into entries)."""
        raise NotImplementedError

    def _path(self, key: str) -> Path:
        return self.directory / f"{self._prefix}-{key}.npz"

    def _load_entry(
        self,
        path: Path,
        field: str,
        expected_shape: "tuple | None" = None,
        expected_dtype: "object | None" = None,
    ) -> "Optional[np.ndarray]":
        arrays = integrity.load_entry(
            path,
            level=self._prefix,
            version=self._schema_version(),
            expected={field: (expected_shape, expected_dtype)},
        )
        return None if arrays is None else arrays.get(field)

    def _store_entry(self, path: Path, **fields: np.ndarray) -> Path:
        return integrity.write_entry(
            path,
            level=self._prefix,
            version=self._schema_version(),
            fields=fields,
        )

    def verify(self) -> "List[QuarantineEvent]":
        """Scan every entry of this level; quarantine the bad ones.

        Returns the quarantine events (empty when all entries passed).
        Healthy entries are left untouched.
        """
        if not self.directory.is_dir():
            return []
        events: "List[QuarantineEvent]" = []
        for path in sorted(self.directory.glob(f"{self._prefix}-*.npz")):
            try:
                integrity.verify_entry(
                    path,
                    level=self._prefix,
                    version=self._schema_version(),
                    expected=self._static_expected,
                )
            except CacheIntegrityError as error:
                quarantined = integrity.quarantine_entry(path)
                events.append(QuarantineEvent(
                    path=str(path),
                    quarantined_to=(
                        str(quarantined) if quarantined is not None else None
                    ),
                    reason=str(error),
                ))
            except OSError:
                continue
        return events

    def clear(self) -> int:
        """Delete all entries; returns the number removed.

        Also sweeps this level's quarantined entries and any stale
        ``tmp-*.npz`` files left behind by crashed writers.  Tolerates
        concurrent workers clearing the same directory (an entry
        deleted under our feet counts for whoever unlinked it).
        """
        if not self.directory.is_dir():
            return 0
        removed = 0
        for pattern in (
            f"{self._prefix}-*.npz",
            f"{self._prefix}-*.npz{integrity.QUARANTINE_SUFFIX}",
            f"tmp-{self._prefix}-*.npz",
        ):
            for path in self.directory.glob(pattern):
                removed += _unlink_quietly(path)
        return removed

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(
            1 for _ in self.directory.glob(f"{self._prefix}-*.npz")
        )


class CharacterizationCache(_NpzCacheDirectory):
    """Directory of per-trace characterization results.

    Args:
        directory: cache root; created lazily on first store.
    """

    _prefix = "char"
    _static_expected = {"values": ((NUM_CHARACTERISTICS,), np.float64)}

    def _schema_version(self) -> object:
        return CHAR_CACHE_VERSION

    def entry_path(
        self, recipe: TraceRecipe, config: ReproConfig = DEFAULT_CONFIG
    ) -> Path:
        """Where the recipe's vector under ``config`` is stored."""
        return self._path(_recipe_entry_key(
            recipe, config.characterization_fingerprint(),
            CHAR_CACHE_VERSION,
        ))

    def load(
        self, recipe: TraceRecipe, config: ReproConfig = DEFAULT_CONFIG
    ) -> "Optional[np.ndarray]":
        """The cached 47-dimensional vector, or None on a miss.

        Wrong-shape or wrong-dtype entries are verified misses — they
        are quarantined and never flow into ``np.vstack``.
        """
        return self._load_entry(
            self.entry_path(recipe, config), "values",
            expected_shape=(NUM_CHARACTERISTICS,),
            expected_dtype=np.float64,
        )

    def store(
        self,
        recipe: TraceRecipe,
        config: ReproConfig,
        values: np.ndarray,
    ) -> Path:
        """Persist one characterization result; returns the entry path."""
        return self._store_entry(
            self.entry_path(recipe, config), values=values
        )


def cached_characterize(
    recipe: TraceRecipe,
    config: ReproConfig = DEFAULT_CONFIG,
    cache_dir: "Path | str | None" = None,
    shards: "int | None" = None,
    shard_size: "int | None" = None,
    jobs: "int | None" = None,
) -> CharacteristicVector:
    """:func:`repro.mica.characterize` of a recipe's trace, cached.

    With ``cache_dir=None`` this is exactly ``characterize`` of
    ``recipe.trace``; otherwise hits skip generation and every analyzer,
    and misses generate the trace and populate the cache.  When a shard
    geometry is given, misses compute through the shard-mergeable
    engine (bit-for-bit identical, so the final-vector cache entry is
    the same either way) and each shard's cold state additionally goes
    through the per-shard :class:`ShardCache` level.

    Returns:
        The trace's :class:`~repro.mica.CharacteristicVector`, named
        after the recipe's profile.
    """
    sharded = shards is not None or shard_size is not None
    if cache_dir is None:
        if sharded:
            return characterize(
                recipe.trace, config, shards=shards, shard_size=shard_size,
                jobs=jobs,
            )
        return characterize(recipe.trace, config)
    cache = CharacterizationCache(cache_dir)
    values = cache.load(recipe, config)
    if values is None:
        if sharded:
            vector = characterize(
                recipe.trace, config, shards=shards, shard_size=shard_size,
                jobs=jobs, cache_dir=cache_dir,
            )
        else:
            vector = characterize(recipe.trace, config)
        try:
            cache.store(recipe, config, vector.values)
        except OSError as error:
            _degrade(cache.directory, error)
        return vector
    return CharacteristicVector(name=recipe.name, values=values)


# ---------------------------------------------------------------------------
# HPC cache (beside the characterization cache)
# ---------------------------------------------------------------------------


class HpcCache(_NpzCacheDirectory):
    """Directory of per-trace hardware-performance-counter vectors.

    Args:
        directory: cache root; created lazily on first store.  Shares a
            directory with the other cache levels (distinct ``hpc-``
            file prefix).

    One small ``.npz`` per (recipe, machine pair,
    :data:`~repro.uarch.HPC_SIM_VERSION`) holds the seven-metric
    vector.
    """

    _prefix = "hpc"
    _static_expected = {"values": ((len(HPC_METRIC_NAMES),), np.float64)}

    def _schema_version(self) -> object:
        return HPC_SIM_VERSION

    def entry_path(
        self,
        recipe: TraceRecipe,
        inorder: MachineConfig = EV56_CONFIG,
        ooo: MachineConfig = EV67_CONFIG,
    ) -> Path:
        """Where the recipe's vector on this machine pair is stored."""
        return self._path(_recipe_entry_key(
            recipe, inorder.fingerprint(), ooo.fingerprint(),
            HPC_SIM_VERSION,
        ))

    def load(
        self,
        recipe: TraceRecipe,
        inorder: MachineConfig = EV56_CONFIG,
        ooo: MachineConfig = EV67_CONFIG,
    ) -> "Optional[np.ndarray]":
        """The cached 7-dimensional vector, or None on a miss.

        Wrong-shape or wrong-dtype entries are verified misses — they
        are quarantined and never flow into ``np.vstack``.
        """
        return self._load_entry(
            self.entry_path(recipe, inorder, ooo), "values",
            expected_shape=(len(HPC_METRIC_NAMES),),
            expected_dtype=np.float64,
        )

    def store(
        self,
        recipe: TraceRecipe,
        inorder: MachineConfig,
        ooo: MachineConfig,
        values: np.ndarray,
    ) -> Path:
        """Persist one HPC vector; returns the entry path."""
        return self._store_entry(
            self.entry_path(recipe, inorder, ooo), values=values
        )


def cached_collect_hpc(
    recipe: TraceRecipe,
    inorder: MachineConfig = EV56_CONFIG,
    ooo: MachineConfig = EV67_CONFIG,
    cache_dir: "Path | str | None" = None,
) -> HpcVector:
    """:func:`repro.uarch.collect_hpc` of a recipe's trace, cached.

    With ``cache_dir=None`` this is exactly ``collect_hpc`` of
    ``recipe.trace``; otherwise hits skip generation, both pipeline
    models and the whole event simulation, and misses generate the
    trace and populate the cache.

    Returns:
        The trace's :class:`~repro.uarch.HpcVector`, named after the
        recipe's profile.
    """
    if cache_dir is None:
        return collect_hpc(recipe.trace, inorder, ooo)
    cache = HpcCache(cache_dir)
    values = cache.load(recipe, inorder, ooo)
    if values is None:
        vector = collect_hpc(recipe.trace, inorder, ooo)
        try:
            cache.store(recipe, inorder, ooo, vector.values)
        except OSError as error:
            _degrade(cache.directory, error)
        return vector
    return HpcVector(name=recipe.name, values=values)


# ---------------------------------------------------------------------------
# Shard cache (per-shard mergeable states, below the characterization
# cache)
# ---------------------------------------------------------------------------


def shard_entry_key(
    shard_fingerprint: str,
    start: int,
    config: ReproConfig,
    sections_mask: int,
) -> str:
    """Cache key for one shard's cold mergeable state.

    Keys by the shard's *content* hash (so an extended or overlapping
    trace reuses warm shards wherever the byte ranges line up), its
    absolute start offset (ILP window alignment and register last-writer
    positions are absolute, so the same bytes at a different offset
    yield a different state), the characterization fingerprint, the
    wanted-sections mask, and :data:`SHARD_CACHE_VERSION`.
    """
    payload = (
        f"{SHARD_CACHE_VERSION}:{shard_fingerprint}:{start}:"
        f"{config.characterization_fingerprint()}:{sections_mask}"
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


class ShardCache(_NpzCacheDirectory):
    """Directory of per-shard cold characterization states.

    Each entry holds one serialized :class:`repro.mica.shard.ShardState`
    (the *cold*, carry-independent round of the shard engine — the
    carry-dependent PPM prediction pass is recomputed per run, so it is
    never cached).  Entries are variable-field ``.npz`` files: the
    fields present depend on the sections requested, so verification
    relies on each entry's own recorded metadata and checksums rather
    than a static shape table.

    Args:
        directory: cache root; created lazily on first store.  Shares a
            directory with the other cache levels (distinct ``shard-``
            file prefix).
    """

    _prefix = "shard"

    def _schema_version(self) -> object:
        return SHARD_CACHE_VERSION

    def load(self, key: str) -> "Optional[Dict[str, np.ndarray]]":
        """The entry's serialized state arrays, or None on a miss."""
        return integrity.load_entry(
            self._path(key),
            level=self._prefix,
            version=self._schema_version(),
        )

    def store(self, key: str, arrays: "Dict[str, np.ndarray]") -> Path:
        """Persist one serialized shard state; returns the entry path."""
        return self._store_entry(self._path(key), **arrays)


# ---------------------------------------------------------------------------
# Whole-directory verification (``repro cache verify``)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CacheVerifyReport:
    """Result of one integrity scan over a cache directory.

    Attributes:
        directory: the scanned cache root.
        scanned: entries examined per level (including ``dataset`` and
            ``journal``).
        quarantined: one event per entry that failed verification.
        swept_temporaries: stale ``tmp-*.npz`` writer leftovers and
            ``tmp-journal-*.jsonl`` rotation leftovers removed.
        journal_truncations: one event per write-ahead journal whose
            torn tail (a crash mid-append) was repaired by truncating
            back to the longest valid record prefix.
    """

    directory: str
    scanned: Dict[str, int]
    quarantined: Tuple[QuarantineEvent, ...]
    swept_temporaries: int
    journal_truncations: Tuple["journal_module.JournalTruncation", ...] = ()

    @property
    def total_scanned(self) -> int:
        return sum(self.scanned.values())

    @property
    def ok(self) -> int:
        return self.total_scanned - len(self.quarantined)

    def format(self) -> str:
        lines = [
            f"cache verify: {self.directory}",
            "  scanned " + ", ".join(
                f"{count} {level}" for level, count in self.scanned.items()
            ) + f" ({self.ok} ok, {len(self.quarantined)} quarantined, "
                f"{self.swept_temporaries} stale temp files swept, "
                f"{len(self.journal_truncations)} torn journal tail(s) "
                "repaired)",
        ]
        for event in self.quarantined:
            target = event.quarantined_to or "<rename failed>"
            lines.append(f"  quarantined {event.path} -> {target}")
            lines.append(f"    reason: {event.reason}")
        for truncation in self.journal_truncations:
            lines.append(
                f"  repaired {truncation.path}: kept "
                f"{truncation.valid_records} record(s), dropped "
                f"{truncation.dropped_bytes} byte(s)"
            )
            lines.append(f"    reason: {truncation.reason}")
        return "\n".join(lines)


def sweep_temporaries(
    directory: "Path | str", older_than: float = 3600.0
) -> int:
    """Remove temp files left behind by crashed writers and rotations.

    Covers the atomic cache writers' ``tmp-*.npz`` files and the
    write-ahead journal rotation's ``tmp-journal-*.jsonl`` files.  Only
    files whose mtime is at least ``older_than`` seconds old are
    removed, so a live writer's in-flight temporary survives.  Returns
    the number removed.
    """
    import time

    root = Path(directory)
    if not root.is_dir():
        return 0
    removed = 0
    now = time.time()
    patterns = (
        "tmp-*.npz",
        f"tmp-{journal_module.JOURNAL_PREFIX}*{journal_module.JOURNAL_SUFFIX}",
    )
    for pattern in patterns:
        for path in root.glob(pattern):
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            if age >= older_than:
                removed += _unlink_quietly(path)
    return removed


def verify_cache(
    directory: "Path | str",
    sweep_older_than: float = 3600.0,
) -> CacheVerifyReport:
    """Scan all four cache levels; quarantine entries that fail.

    Covers the per-trace levels (``char``/``hpc``) and the
    per-shard ``shard`` level via each
    level's :meth:`~_NpzCacheDirectory.verify` and the dataset-level
    ``dataset-*.npz`` matrices, replays every ``journal-*.jsonl``
    write-ahead journal (repairing torn tails in place and reporting
    each repair), then sweeps stale writer and rotation temporaries.
    Healthy entries are untouched; the scan never raises on bad bytes.
    """
    root = Path(directory)
    scanned: "Dict[str, int]" = {}
    events: "List[QuarantineEvent]" = []
    for level in (CharacterizationCache, HpcCache, ShardCache):
        cache = level(root)
        scanned[cache._prefix] = len(cache)
        events.extend(cache.verify())

    # Dataset-level matrices (population-dependent shapes: verified
    # against their own recorded metadata + checksums).
    from ..experiments.dataset import CACHE_VERSION

    dataset_paths = (
        sorted(root.glob("dataset-*.npz")) if root.is_dir() else []
    )
    scanned["dataset"] = len(dataset_paths)
    for path in dataset_paths:
        try:
            integrity.verify_entry(
                path, level="dataset", version=CACHE_VERSION,
                expected={
                    "mica": (None, np.float64),
                    "hpc": (None, np.float64),
                },
            )
        except CacheIntegrityError as error:
            quarantined = integrity.quarantine_entry(path)
            events.append(QuarantineEvent(
                path=str(path),
                quarantined_to=(
                    str(quarantined) if quarantined is not None else None
                ),
                reason=str(error),
            ))
        except OSError:
            continue

    # Write-ahead journals (dataset builds, service jobs): replay with
    # repair, so a torn tail left by a crash is truncated back to the
    # longest valid prefix and reported.
    journal_paths = (
        sorted(root.glob(
            f"{journal_module.JOURNAL_PREFIX}*"
            f"{journal_module.JOURNAL_SUFFIX}"
        ))
        if root.is_dir() else []
    )
    scanned["journal"] = len(journal_paths)
    truncations: "List[journal_module.JournalTruncation]" = []
    for path in journal_paths:
        try:
            replay = journal_module.replay_journal(path, repair=True)
        except OSError:
            continue
        if replay.truncation is not None:
            truncations.append(replay.truncation)

    swept = sweep_temporaries(root, older_than=sweep_older_than)
    return CacheVerifyReport(
        directory=str(root),
        scanned=scanned,
        quarantined=tuple(events),
        swept_temporaries=swept,
        journal_truncations=tuple(truncations),
    )
