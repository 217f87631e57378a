"""PPM branch predictability (Table II, characteristics 44-47).

The paper measures branch predictability microarchitecture-independently
with the Prediction-by-Partial-Matching predictor of Chen et al. — a
universal compression/prediction scheme viewed as a *theoretical upper
bound* for history-based branch prediction rather than a buildable
predictor.

A PPM predictor of maximum order ``m`` keeps frequency counts for every
branch-history context of length 0..m.  To predict, it finds the longest
context that has been seen before and predicts the majority outcome in
that context, escaping to shorter contexts when a context is new.  After
resolution, the counts of all context lengths are updated.

Four variants, following the paper's two-level-predictor naming:

=====  =================  ====================================
name   history            context tables
=====  =================  ====================================
GAg    global             one shared table
PAg    per-branch local   one shared table
GAs    global             separate tables per branch (PC)
PAs    per-branch local   separate tables per branch (PC)
=====  =================  ====================================

Two implementations are provided:

* the vectorized engine (:func:`_interval_accuracies`), which never
  walks the branch stream in Python.  The key observation is that
  PPM's context histories depend only on *actual* branch outcomes
  (never on predictions), so every (table key, context) pair each
  branch consults can be materialized up front as a packed integer key
  stream shared by all four variants, and the count-table state any
  branch observes is simply the number of earlier occurrences of its
  key with each outcome — a grouped exclusive prefix sum.  It computes
  per-interval accuracies for the segmented engine
  (:mod:`repro.mica.segmented`); :func:`ppm_predictabilities` is the
  whole stream as one interval, and the shard engine
  (:mod:`repro.mica.shard`) reuses its history, count and cascade
  kernels with carried table state.
* :func:`ppm_predictabilities_reference` — the original scalar
  predictor loop, retained as the executable specification that the
  equivalence tests check the vectorized path against.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from ..errors import CharacterizationError
from ..trace import Trace

#: The four predictor variants, in Table II order.
VARIANTS: Tuple[Tuple[str, bool, bool], ...] = (
    # (name, uses_global_history, shared_table)
    ("GAg", True, True),
    ("PAg", False, True),
    ("GAs", True, False),
    ("PAs", False, False),
)

#: Longest history the packed-key engine supports: context bits plus the
#: dense PC index must fit one uint64 key (beyond this the scalar
#: reference path is used; paper orders are tiny).
MAX_VECTOR_ORDER = 24


class PPMPredictor:
    """A Prediction-by-Partial-Matching branch predictor.

    Args:
        max_order: longest history context used (paper-style small
            orders; the default of 4 follows the reproduction config).
        global_history: use one global outcome history (``G``) rather
            than per-branch local histories (``P``).
        shared_table: share one context table across all branches
            (``g``) rather than keeping per-branch tables (``s``).
    """

    def __init__(
        self,
        max_order: int = 4,
        global_history: bool = True,
        shared_table: bool = True,
    ):
        if max_order < 1:
            raise CharacterizationError("max_order must be >= 1")
        self.max_order = max_order
        self.global_history = global_history
        self.shared_table = shared_table
        # tables[order] maps (table key, context bits) -> [not-taken, taken].
        self._tables: Tuple[Dict[Tuple[int, int], "list[int]"], ...] = tuple(
            {} for _ in range(max_order + 1)
        )
        self._global_history_bits = 0
        self._local_histories: Dict[int, int] = {}
        self.predictions = 0
        self.correct = 0

    @property
    def accuracy(self) -> float:
        """Fraction of correct predictions so far (0 when unused)."""
        if self.predictions == 0:
            return 0.0
        return self.correct / self.predictions

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict one branch execution, then train on the outcome.

        Returns:
            True when the prediction matched the actual outcome.
        """
        if self.global_history:
            history = self._global_history_bits
        else:
            history = self._local_histories.get(pc, 0)
        table_key = 0 if self.shared_table else pc

        prediction = self._predict(table_key, history)
        outcome = bool(taken)
        correct = prediction == outcome
        self.predictions += 1
        if correct:
            self.correct += 1

        self._update(table_key, history, outcome)
        new_history = ((history << 1) | int(outcome)) & (
            (1 << self.max_order) - 1
        )
        if self.global_history:
            self._global_history_bits = new_history
        else:
            self._local_histories[pc] = new_history
        return correct

    def _predict(self, table_key: int, history: int) -> bool:
        for order in range(self.max_order, -1, -1):
            context = history & ((1 << order) - 1)
            counts = self._tables[order].get((table_key, context))
            if counts is None:
                continue
            not_taken, taken = counts
            if taken != not_taken:
                return taken > not_taken
            # A tied context carries no information: escape to shorter.
        return True  # Cold default: branches are more often taken.

    def _update(self, table_key: int, history: int, outcome: bool) -> None:
        index = int(outcome)
        for order in range(self.max_order + 1):
            context = history & ((1 << order) - 1)
            key = (table_key, context)
            table = self._tables[order]
            counts = table.get(key)
            if counts is None:
                table[key] = [0, 0]
                counts = table[key]
            counts[index] += 1


# -- vectorized engine ----------------------------------------------------


def _stable_key_order(
    keys: np.ndarray, ceiling: "int | None" = None
) -> np.ndarray:
    """Stable sort order of non-negative integer ``keys``.

    Keys below ``1 << 16`` take one radix pass (numpy's stable sort is a
    radix sort for <= 16-bit integers — an order of magnitude faster
    than the 64-bit merge sort); wider keys fall back to the merge sort.
    ``ceiling`` is an upper bound on the keys when the caller knows one
    (default: their maximum).
    """
    if ceiling is None:
        ceiling = int(keys.max()) if len(keys) else 0
    if ceiling < (1 << 16):
        return np.argsort(keys.astype(np.uint16), kind="stable")
    return np.argsort(keys, kind="stable")


def _grouped_history(
    bits: np.ndarray, group_keys: np.ndarray, max_order: int
) -> np.ndarray:
    """History bits that never cross group boundaries.

    Bit ``k-1`` of the history at entry ``t`` is the outcome of the
    ``k``-th most recent earlier entry *of the same group*, matching a
    shift register that is private to each group and starts at zero.
    Grouping by PC yields the per-branch local histories; grouping by
    dense (interval, PC) pair ranks also restarts them at interval
    boundaries.
    """
    n = len(bits)
    order = _stable_key_order(group_keys)
    sorted_bits = bits[order]
    sorted_keys = group_keys[order]
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = sorted_keys[1:] != sorted_keys[:-1]
    positions = np.arange(n, dtype=np.int64)
    group_ids = np.cumsum(new_group) - 1
    group_start = positions[new_group][group_ids]
    in_group = positions - group_start

    grouped_sorted = np.zeros(n, dtype=np.uint64)
    for k in range(1, max_order + 1):
        valid = in_group >= k
        if not valid.any():
            break
        grouped_sorted[valid] |= sorted_bits[positions[valid] - k] << np.uint64(
            k - 1
        )
    history = np.empty(n, dtype=np.uint64)
    history[order] = grouped_sorted
    return history


def _global_history(
    bits: np.ndarray,
    max_order: int,
    interval_ids: "np.ndarray | None" = None,
) -> np.ndarray:
    """Global history bits seen by each branch.

    Bit ``k-1`` of the history at branch ``t`` is the outcome of the
    ``k``-th most recent prior branch, matching the shift-register
    update of :class:`PPMPredictor`.  With ``interval_ids`` (ascending),
    a bit is kept only when both branches share an interval, so the
    register restarts at zero at every interval boundary — a masked
    shift-OR, with no grouping sort.
    """
    n = len(bits)
    history = np.zeros(n, dtype=np.uint64)
    for k in range(1, min(max_order, n - 1) + 1):
        shifted = bits[:-k] << np.uint64(k - 1)
        if interval_ids is not None:
            shifted[interval_ids[k:] != interval_ids[:-k]] = 0
        history[k:] |= shifted
    return history


def _history_streams(
    pcs: np.ndarray, outcomes: np.ndarray, max_order: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Global and per-PC local history bits seen by each branch.

    Bit ``k-1`` of the history at branch ``t`` is the outcome of the
    ``k``-th most recent prior branch (of any PC for the global stream,
    of the same PC for the local stream).
    """
    bits = outcomes.astype(np.uint64)
    return (
        _global_history(bits, max_order),
        _grouped_history(bits, pcs, max_order),
    )


def _prior_outcome_counts(
    keys: np.ndarray, outcomes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per branch: how many earlier branches shared its key, by outcome.

    Equivalent to replaying the stream through a count table keyed by
    ``keys`` and reading the entry just before each update, but computed
    as a grouped exclusive prefix sum over the key-sorted stream.

    Returns:
        ``(taken_before, not_taken_before)`` int64 arrays.
    """
    n = len(keys)
    # Key domains here are tiny (contexts, or dense PC ranks times
    # contexts), so this is usually the radix pass.
    order = _stable_key_order(keys)
    sorted_keys = keys[order]
    sorted_taken = outcomes[order].astype(np.int64)

    new_group = np.ones(n, dtype=bool)
    new_group[1:] = sorted_keys[1:] != sorted_keys[:-1]
    positions = np.arange(n, dtype=np.int64)
    group_start = np.maximum.accumulate(np.where(new_group, positions, 0))

    exclusive = np.cumsum(sorted_taken) - sorted_taken
    taken_sorted = exclusive - exclusive[group_start]
    not_taken_sorted = (positions - group_start) - taken_sorted

    taken_before = np.empty(n, dtype=np.int64)
    not_taken_before = np.empty(n, dtype=np.int64)
    taken_before[order] = taken_sorted
    not_taken_before[order] = not_taken_sorted
    return taken_before, not_taken_before


def _cascade(
    prior_counts: "Callable[[int], Tuple[np.ndarray, np.ndarray]]",
    max_order: int,
    n: int,
) -> np.ndarray:
    """Per-branch predictions of one variant, fully vectorized.

    Walks orders longest-first exactly like :meth:`PPMPredictor._predict`
    (unseen and tied contexts both escape; the cold default predicts
    taken), deciding each branch at the first informative order.
    ``prior_counts(order)`` supplies ``(taken_before, not_taken_before)``
    — the count-table entry each branch observes at that order.
    """
    prediction = np.ones(n, dtype=bool)
    undecided = np.ones(n, dtype=bool)
    for order in range(max_order, -1, -1):
        if not undecided.any():
            break
        taken_before, not_taken_before = prior_counts(order)
        informative = undecided & (taken_before != not_taken_before)
        prediction[informative] = (
            taken_before[informative] > not_taken_before[informative]
        )
        undecided &= ~informative
    return prediction


def _interval_accuracies(
    pcs: np.ndarray,
    outcomes: np.ndarray,
    interval_ids: np.ndarray,
    count: int,
    max_order: int,
    wanted: np.ndarray,
) -> np.ndarray:
    """Per-interval accuracies of the wanted variants, ``(count, 4)``.

    ``pcs``/``outcomes`` are the branch stream and ``interval_ids``
    (ascending) each branch's interval; count tables *and* shift
    registers restart at every interval boundary, exactly as if each
    interval ran through fresh predictors.  The interval id is packed
    above the (PC rank, context) keys, the histories never cross a
    boundary, and the escape cascade runs once over the whole stream.
    A single interval (``count == 1``) skips the segmenting work.

    The four variants are independent predictors; only the wanted ones
    run — ``ppm_GAg`` alone needs neither the per-PC machinery (dense
    ranks, local histories) nor the other variants' count recoveries.
    Unwanted columns are ``NaN``; intervals without branches read 0.
    """
    result = np.full((count, len(VARIANTS)), np.nan)
    result[:, wanted] = 0.0
    n = len(outcomes)
    if n == 0:
        return result
    segmented = count > 1
    branch_counts = np.bincount(interval_ids, minlength=count)
    bits = outcomes.astype(np.uint64)
    need_global = any(
        wanted[position] and use_global
        for position, (_, use_global, _shared) in enumerate(VARIANTS)
    )
    need_pairs = any(
        wanted[position] and not (use_global and shared)
        for position, (_, use_global, shared) in enumerate(VARIANTS)
    )

    global_history = (
        _global_history(
            bits, max_order, interval_ids if segmented else None
        )
        if need_global
        else None
    )
    pair_ranks = pair_keys = local_history = None
    if need_pairs:
        # A per-interval per-PC table (or local shift register) is
        # identified by the (interval, PC) *pair*; dense pair ranks
        # keep every packed key domain as narrow as possible (so the
        # radix fast path of the count recovery stays reachable), with
        # the rank packed above the (<= max_order) context bits.
        _, pc_ids = np.unique(pcs, return_inverse=True)
        pair_ranks = pc_ids
        if segmented:
            num_pcs = int(pc_ids.max()) + 1
            _, pair_ranks = np.unique(
                interval_ids * np.int64(num_pcs) + pc_ids,
                return_inverse=True,
            )
        local_history = _grouped_history(bits, pair_ranks, max_order)
        pair_keys = (
            pair_ranks.astype(np.uint64) + np.uint64(1)
        ) << np.uint64(max_order)
    segment_keys = (
        interval_ids.astype(np.uint64) << np.uint64(max_order)
        if segmented
        else None
    )

    # Order-0 contexts ignore history, so their table state is shared
    # by the G/P variants of each table scheme.  The shared table needs
    # no sort: its counts are running totals minus each interval's
    # starting prefix.
    order0_cache: Dict[bool, Tuple[np.ndarray, np.ndarray]] = {}

    def order0_counts(shared_table: bool):
        counts = order0_cache.get(shared_table)
        if counts is None:
            if shared_table:
                exclusive = np.cumsum(outcomes) - outcomes
                first = (np.cumsum(branch_counts) - branch_counts)[
                    interval_ids
                ]
                taken_before = exclusive - exclusive[first]
                not_taken_before = (
                    np.arange(n, dtype=np.int64) - first - taken_before
                )
                counts = (taken_before, not_taken_before)
            else:
                counts = _prior_outcome_counts(pair_ranks, outcomes)
            order0_cache[shared_table] = counts
        return counts

    for position, (_, use_global, shared_table) in enumerate(VARIANTS):
        if not wanted[position]:
            continue
        history = global_history if use_global else local_history
        table_keys = segment_keys if shared_table else pair_keys

        def prior_counts(
            order, history=history, table_keys=table_keys,
            shared_table=shared_table,
        ):
            if order == 0:
                return order0_counts(shared_table)
            keys = history & np.uint64((1 << order) - 1)
            if table_keys is not None:
                keys = keys | table_keys
            return _prior_outcome_counts(keys, outcomes)

        prediction = _cascade(prior_counts, max_order, n)
        correct = np.bincount(
            interval_ids[prediction == outcomes], minlength=count
        )
        result[:, position] = np.divide(
            correct,
            branch_counts,
            out=np.zeros(count),
            where=branch_counts > 0,
        )
    return result


def ppm_predictabilities_reference(
    trace: Trace, max_order: int = 4
) -> np.ndarray:
    """Scalar PPM accuracies — the executable specification.

    Runs the four :class:`PPMPredictor` instances over the branch stream
    one branch at a time.  Slow (per-instruction Python dict traffic)
    but trivially auditable; the vectorized
    :func:`ppm_predictabilities` must match it exactly.
    """
    if len(trace) == 0:
        raise CharacterizationError(
            "cannot compute predictability of an empty trace"
        )
    branch_pcs = trace.branch_pcs
    outcomes = trace.branch_outcomes
    predictors = [
        PPMPredictor(
            max_order=max_order,
            global_history=global_history,
            shared_table=shared_table,
        )
        for _, global_history, shared_table in VARIANTS
    ]
    pcs = branch_pcs.tolist()
    takens = outcomes.tolist()
    for predictor in predictors:
        predict = predictor.predict_and_update
        for pc, taken in zip(pcs, takens):
            predict(pc, taken)
    return np.array([predictor.accuracy for predictor in predictors])


def ppm_predictabilities(trace: Trace, max_order: int = 4) -> np.ndarray:
    """Accuracies of the four PPM variants, in Table II order.

    The whole branch stream as one interval of the vectorized engine
    (:func:`_interval_accuracies`): no per-branch Python loop, and
    bit-identical values to :func:`ppm_predictabilities_reference`,
    which also serves orders beyond :data:`MAX_VECTOR_ORDER`.

    Traces without branches yield zeros for all four characteristics.
    """
    if len(trace) == 0:
        raise CharacterizationError(
            "cannot compute predictability of an empty trace"
        )
    if max_order < 1:
        raise CharacterizationError("max_order must be >= 1")
    if max_order > MAX_VECTOR_ORDER:
        return ppm_predictabilities_reference(trace, max_order)
    outcomes = trace.branch_outcomes
    return _interval_accuracies(
        trace.branch_pcs,
        outcomes,
        np.zeros(len(outcomes), dtype=np.int64),
        1,
        max_order,
        np.ones(len(VARIANTS), dtype=bool),
    )[0]
