"""Vectorized numpy mask-walk backend (``ExperimentSession(backend="numpy")``).

The scalar engine (:mod:`.memo`) walks one ``(source, destination,
failure mask)`` scenario at a time; exhaustive sweeps spend almost all
their time re-running that loop 2^|E| times per destination.  This
module batches **many failure masks at once** through numpy array ops,
for exactly two callers: the destination-pattern and touring resilience
sweeps of a numpy session (:func:`pattern_sweep_numpy`,
:func:`touring_sweep_numpy`).  Traffic loads and r-tolerance checks run
on the scalar engine on every backend.

* a family of failure sets becomes one multi-word ``uint64`` bitset
  array of shape ``(k, ceil(m / 64))`` (:class:`MaskBatch`, chunked so
  working sets stay bounded) — one word per 64 links, so fat-tree(8)+
  and large zoo members vectorize instead of falling back;
* forwarding decisions are flattened into a dense per-chunk table
  indexed by ``offset[state] + compact_local``, where ``compact_local``
  ranks the node's *observed* local failure masks
  (:class:`_DecisionTable`).  Entries are produced by the same
  :meth:`~repro.core.engine.memo.MemoizedPattern.next_hop` the scalar
  walks use, so decision semantics are identical by construction;
* all walks of a batch advance one hop per step via gathers on that
  table, with finished walks compacted away
  (:func:`_walk_delivered`); a walk that neither delivers nor drops
  within ``state_bound`` steps has necessarily revisited a ``(node,
  inport)`` state and is a loop — no per-walk seen-sets needed;
* connectivity comes from a min-label propagation over the link list
  (:meth:`_MaskChunk.labels_for`), giving every destination's surviving
  component for the whole chunk in one pass.

Verdict parity is bit-for-bit: scenario counts, the ``exhaustive``
flag, and the first counterexample (re-walked scalar for its exact
trace, sources re-ranked in the checkers' ``sorted_nodes`` order) all
match the scalar engine and the naive reference.  Failure sets naming
links outside the graph go through the scalar engine's own per-mask
check (its naive fallback), in their original positions.

numpy is an *optional* dependency, and only a numpy session's paths
import this module (so only they load numpy).  Everything here imports
without it, :func:`require_numpy` raises the clean gating error, and
both sweeps raise :class:`VectorizedUnsupported` (carrying any
materialized failure sets) when an instance cannot take the vectorized
path — the scalar engine then produces the identical verdict.
"""

from __future__ import annotations

from itertools import combinations

try:  # numpy is optional: the module must import (and gate) without it
    import numpy as np
except ModuleNotFoundError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None

from repro import obs as _obs

from ...graphs.edges import FailureSet, Node, sorted_nodes
from .indexed import IndexedNetwork
from .memo import MemoizedPattern, route_indexed

#: masks per vectorized chunk — bounds every (masks x nodes) matrix
CHUNK_MASKS = 1 << 15
#: cap on dense decision-table entries per chunk (sum over states of
#: observed local masks); beyond it the scalar engine is the better tool
TABLE_BUDGET = 1 << 21
#: bounded number of cached mask batches per engine state
BATCH_CACHE_LIMIT = 8

NUMPY_GATING_ERROR = (
    'backend="numpy" requires the optional numpy dependency, which is not '
    'installed; install numpy or use backend="engine"'
)


def numpy_available() -> bool:
    """Is the optional numpy dependency importable?"""
    return np is not None


def require_numpy() -> None:
    """Raise the clean gating error when numpy is missing."""
    if np is None:
        raise RuntimeError(NUMPY_GATING_ERROR)


def vectorizable(network: IndexedNetwork) -> bool:
    """Can this network take the vectorized path at all?

    Masks pack into multi-word bitset arrays (one ``uint64`` word per
    64 links), so link count is no longer a ceiling — only a missing
    numpy keeps an instance off the vectorized path up front.
    """
    return np is not None


def mask_words(count: int) -> int:
    """``uint64`` words needed for ``count`` bits (at least one)."""
    return max(1, (count + 63) >> 6)


class VectorizedUnsupported(Exception):
    """This instance cannot take the vectorized path.

    ``reason`` is a short machine-readable label for *why* the sweep
    dropped off the vectorized path — it feeds the ``reason`` label of
    ``repro_numpy_fallbacks_total`` so ``repro stats`` can say exactly
    which budget or gate fired (``table_budget``, ``unindexed_node``,
    ``pattern_error``, ...).

    Carries an equivalent failure-set list when the attempt already
    consumed a one-shot iterator (reconstructed from the packed batch
    by :func:`reconstruct_failure_sets`), so the caller can fall back
    to the scalar engine without re-consuming it.  Raised *before* any
    partial evaluation — the fallback always recomputes from scratch
    and stays bit-identical.
    """

    def __init__(
        self,
        failure_sets: list[FailureSet] | None = None,
        reason: str = "unsupported",
    ):
        super().__init__(f"instance not vectorizable ({reason})")
        self.failure_sets = failure_sets
        self.reason = reason


# ---------------------------------------------------------------------------
# Mask batches.
# ---------------------------------------------------------------------------


_WORD = 0xFFFFFFFFFFFFFFFF


def _pack_words(values: list[int], words: int):
    """Python-int bitmasks -> a ``(len(values), words)`` uint64 array."""
    packed = np.empty((len(values), words), dtype=np.uint64)
    if words == 1:
        packed[:, 0] = np.array(values, dtype=np.uint64)
        return packed
    for j in range(words):
        shift = 64 * j
        packed[:, j] = [(value >> shift) & _WORD for value in values]
    return packed


def _combine_words(row) -> int:
    """One multi-word uint64 row -> the python-int bitmask it packs."""
    mask = 0
    for j, word in enumerate(row):
        mask |= int(word) << (64 * j)
    return mask


class _MaskChunk:
    """One bounded slice of a mask batch plus its lazily-built matrices.

    ``masks`` is a ``(k, W)`` uint64 bitset array with ``W =
    mask_words(network.m)`` — bit ``b`` of mask row ``r`` lives at
    ``masks[r, b >> 6] >> (b & 63)``.
    """

    def __init__(self, masks, positions):
        self.masks = masks  # uint64 (k, W), one word per 64 link bits
        self.positions = positions  # int64 (k,), original enumeration order
        self._locals: tuple[list, object] | None = None
        self._labels = None

    def __len__(self) -> int:
        return len(self.positions)

    def mask_int(self, row: int) -> int:
        """Mask row ``row`` as the python-int bitmask the scalar engine uses."""
        return _combine_words(self.masks[row])

    def locals_for(self, network: IndexedNetwork):
        """Per node: observed local masks (unique python ints, in the
        dedup order the decision table is laid out in) and, as a
        ``(k, n)`` matrix, each row's rank among them."""
        if self._locals is None:
            words = self.masks.shape[1]
            incident = _pack_words(
                [network.incident_mask[v] for v in range(network.n)], words
            )
            uniqs = []
            compact = np.empty((len(self.positions), network.n), dtype=np.int64)
            for v in range(network.n):
                local = self.masks & incident[v][None, :]
                if words == 1:
                    uniq, inverse = np.unique(local[:, 0], return_inverse=True)
                    uniq_ints = [int(u) for u in uniq]
                else:
                    uniq, inverse = np.unique(local, axis=0, return_inverse=True)
                    uniq_ints = [_combine_words(urow) for urow in uniq]
                uniqs.append(uniq_ints)
                compact[:, v] = inverse.reshape(-1)
            self._locals = (uniqs, compact)
        return self._locals

    def labels_for(self, network: IndexedNetwork):
        """Component label (minimum member index) per node, per mask row.

        Min-label propagation over the link list until fixpoint — the
        numpy twin of one :class:`~.components.ComponentTracker` flood
        per mask, computed for the whole chunk at once.
        """
        if self._labels is None:
            k = len(self.positions)
            labels = np.broadcast_to(
                np.arange(network.n, dtype=np.int64), (k, network.n)
            ).copy()
            one = np.uint64(1)
            # per link bit: True where the link survives
            alive = [
                ((self.masks[:, b >> 6] >> np.uint64(b & 63)) & one) == 0
                for b in range(network.m)
            ]
            changed = True
            while changed:
                changed = False
                for b, (u, v) in enumerate(network.link_ends):
                    a = alive[b]
                    lu = labels[:, u]
                    lv = labels[:, v]
                    best = np.where(a, np.minimum(lu, lv), lu)
                    if (best < lu).any():
                        labels[:, u] = best
                        changed = True
                        lu = best
                    best = np.where(a, np.minimum(lu, lv), lv)
                    if (best < lv).any():
                        labels[:, v] = best
                        changed = True
            self._labels = labels
        return self._labels


class MaskBatch:
    """An ordered family of failure sets packed for vectorized walks.

    ``chunks`` hold the maskable sets (original positions attached);
    ``fallbacks`` hold the sets naming links outside the canonical link
    set, which keep their naive-matching semantics via per-set scalar
    evaluation in their original order.
    """

    def __init__(self, network: IndexedNetwork):
        self.network = network
        self.chunks: list[_MaskChunk] = []
        self.fallbacks: list[tuple[int, FailureSet]] = []
        self.total = 0

    def _finish(self, masks: list[int], positions: list[int], total: int) -> "MaskBatch":
        self.total = total
        if masks:
            mask_array = _pack_words(masks, mask_words(self.network.m))
            position_array = np.array(positions, dtype=np.int64)
            for lo in range(0, len(masks), CHUNK_MASKS):
                hi = lo + CHUNK_MASKS
                self.chunks.append(
                    _MaskChunk(mask_array[lo:hi], position_array[lo:hi])
                )
        return self

    @classmethod
    def from_failure_sets(cls, network: IndexedNetwork, failure_sets) -> "MaskBatch":
        batch = cls(network)
        bit_of = network.link_bit
        masks: list[int] = []
        positions: list[int] = []
        total = 0
        for position, failures in enumerate(failure_sets):
            total = position + 1
            mask = 0
            for link in failures:
                bit = bit_of.get(link)
                if bit is None:
                    mask = -1  # non-canonical entry: naive semantics
                    break
                mask |= bit
            if mask < 0:
                batch.fallbacks.append((position, failures))
            else:
                masks.append(mask)
                positions.append(position)
        return batch._finish(masks, positions, total)

    @classmethod
    def exhaustive(cls, network: IndexedNetwork) -> "MaskBatch":
        """All failure masks, in ``all_failure_sets`` enumeration order.

        The canonical link order *is* the bit order
        (:class:`~.indexed.IndexedNetwork` sorts links exactly like
        ``all_failure_sets``), so enumerating bit-position combinations
        reproduces the frozenset enumeration without building a single
        frozenset.
        """
        batch = cls(network)
        m = network.m
        masks: list[int] = []
        append = masks.append
        for size in range(m + 1):
            for combo in combinations(range(m), size):
                mask = 0
                for b in combo:
                    mask |= 1 << b
                append(mask)
        return batch._finish(masks, list(range(len(masks))), len(masks))


def _state_cache(state) -> dict:
    cache = getattr(state, "_vector_cache", None)
    if cache is None:
        cache = {}
        state._vector_cache = cache
    return cache


def _bounded_insert(cache: dict, key, value) -> None:
    """FIFO-bounded insert with the session caches' discipline: an
    existing key replaces its own slot (never evicting a neighbour) and
    refreshed keys move to the tail (dict order is insertion order)."""
    if key in cache:
        del cache[key]
    while len(cache) >= BATCH_CACHE_LIMIT:
        cache.pop(next(iter(cache)))
    cache[key] = value


def default_batch(state) -> tuple[MaskBatch, bool]:
    """The (cached) batch of :func:`~repro.core.resilience.
    default_failure_sets`, and whether it is exhaustive.

    An exhaustive family is packed straight from bit combinations.
    Cached on the engine state so every destination of a grid sweep
    shares one batch (and its component labels).
    """
    cache = _state_cache(state)
    entry = cache.get("default")
    if entry is not None:
        cache["default"] = cache.pop("default")  # refresh: move to the FIFO tail
    else:
        from ..resilience import default_failure_sets

        failure_sets, exhaustive = default_failure_sets(state.graph)
        if exhaustive:
            batch = MaskBatch.exhaustive(state.network)
        else:
            batch = MaskBatch.from_failure_sets(state.network, failure_sets)
        entry = (batch, exhaustive)
        _bounded_insert(cache, "default", entry)
    return entry


def batch_for(state, failure_sets) -> MaskBatch:
    """A batch for an explicit failure-set family.

    Lists/tuples are cached by identity plus an element snapshot — grid
    sweeps pass the same materialized list for every destination, and
    the snapshot comparison (identity-shortcut per element, so O(n)
    pointer checks on the unchanged case) catches both in-place
    mutation and a recycled id, never serving a stale batch.  One-shot
    iterators build streaming, uncached.
    """
    if isinstance(failure_sets, (list, tuple)):
        cache = _state_cache(state)
        snapshot = tuple(failure_sets)
        key = ("sets", id(failure_sets))
        entry = cache.get(key)
        if entry is None or entry[0] != snapshot:
            entry = (snapshot, MaskBatch.from_failure_sets(state.network, snapshot))
        _bounded_insert(cache, key, entry)  # insert, or refresh to the tail
        return entry[1]
    return MaskBatch.from_failure_sets(state.network, failure_sets)


# ---------------------------------------------------------------------------
# Dense decision tables.
# ---------------------------------------------------------------------------


class _DecisionTable:
    """Per-(chunk, pattern) dense decision table.

    ``D[OFF[state] + compact[row, node]]`` is the scalar engine's
    ``next_hop(node, inport, local_mask)`` for mask row ``row`` — every
    entry comes from the shared :class:`MemoizedPattern`, so the two
    backends cannot disagree on a single decision.  States whose inport
    link is locally failed are unreachable (the previous hop only
    forwards over alive links) and are filled without consulting the
    pattern.
    """

    def __init__(self, network: IndexedNetwork, memo: MemoizedPattern, chunk: _MaskChunk):
        from .memo import ILLEGAL

        uniqs, compact = chunk.locals_for(network)
        self.compact = compact
        n = network.n
        stride = n + 1
        size = sum(
            (len(network.neighbor_indices[v]) + 1) * len(uniqs[v]) for v in range(n)
        )
        if size > TABLE_BUDGET:
            raise VectorizedUnsupported(reason="table_budget")
        offsets = np.zeros((n + 1) * stride, dtype=np.int64)
        decisions = np.empty(size, dtype=np.int64)
        next_hop = memo.next_hop
        pos = 0
        for v in range(n):
            uniq_ints = uniqs[v]  # already python ints (multi-word safe)
            inports = (-1,) + network.neighbor_indices[v]
            inport_bits = (0,) + network.neighbor_bits[v]
            for inport, bit in zip(inports, inport_bits):
                offsets[v * stride + inport + 1] = pos
                for local in uniq_ints:
                    if bit & local:
                        decisions[pos] = ILLEGAL  # unreachable state
                    else:
                        decisions[pos] = next_hop(v, inport, local)
                    pos += 1
        self.offsets = offsets
        self.decisions = decisions


def reconstruct_failure_sets(batch: MaskBatch) -> list[FailureSet]:
    """The batch's ordered failure-set family, rebuilt from its masks.

    Exact: every maskable set round-trips through ``failures_of`` (its
    entries were all canonical links, or it would be a fallback), and
    fallbacks kept their original frozensets.  Lets the vectorized
    sweeps consume one-shot iterators *streaming* and still hand the
    scalar path an equivalent list if they must fall back later.
    """
    sets: list[FailureSet | None] = [None] * batch.total
    for position, failures in batch.fallbacks:
        sets[position] = failures
    network = batch.network
    for chunk in batch.chunks:
        for row, position in enumerate(chunk.positions):
            sets[int(position)] = network.failures_of(chunk.mask_int(row))
    return sets


def _recovered_unsupported(recover_batch, reason, state) -> VectorizedUnsupported:
    """The fallback exception, with the one-shot family reconstructed
    exactly once: the rebuilt list rides the exception *and* is
    pre-seeded (with its packed batch) into the state's batch cache, so
    the scalar retry neither re-consumes the iterator nor re-walks the
    family through :meth:`MaskBatch.from_failure_sets`."""
    if recover_batch is None:
        return VectorizedUnsupported(reason=reason)
    recovered = reconstruct_failure_sets(recover_batch)
    if state is not None:
        _bounded_insert(
            _state_cache(state), ("sets", id(recovered)), (tuple(recovered), recover_batch)
        )
    return VectorizedUnsupported(recovered, reason=reason)


def _table_for(network, memo, chunk, recover_batch=None, state=None) -> _DecisionTable:
    """Build the chunk's table; pattern misbehavior on never-reached
    states must not change outcomes, so any error falls back scalar.
    ``recover_batch`` marks a batch built from a consumed one-shot
    iterator: its reconstructed family rides the exception so the
    scalar fallback can re-walk it.  When ``state`` is given the
    reconstructed list is also seeded into the state's batch cache, so
    a retry through :func:`batch_for` with that list is a cache hit
    (served the already-packed batch) instead of a second full pack."""
    try:
        table = _DecisionTable(network, memo, chunk)
    except VectorizedUnsupported as unsupported:
        raise _recovered_unsupported(
            recover_batch, unsupported.reason, state
        ) from None
    except Exception:
        raise _recovered_unsupported(recover_batch, "pattern_error", state) from None
    telemetry = _obs.active()
    if telemetry is not None:
        # one update per chunk — the only instrumentation granularity
        # the vectorized hot path ever pays for
        telemetry.count("repro_numpy_chunks_total", help="mask chunks walked")
        telemetry.count(
            "repro_numpy_masks_total", len(chunk), help="failure masks walked in chunks"
        )
        telemetry.count(
            "repro_numpy_table_entries_total",
            len(table.decisions),
            help="dense decision-table entries built",
        )
    return table


# ---------------------------------------------------------------------------
# The mask walk.
# ---------------------------------------------------------------------------


def _walk_delivered(network: IndexedNetwork, table: _DecisionTable, destination: int, eligible):
    """Delivery flags for every eligible ``(mask row, source)`` walk.

    Walks advance in lock-step; finished walks are compacted away.  A
    walk still alive after ``state_bound`` steps has revisited a packed
    ``(node, inport)`` state (pigeonhole) and can never deliver — the
    exact condition under which the scalar walk reports a loop.
    """
    rows, sources = np.nonzero(eligible)  # row-major: mask order, then node order
    delivered = np.zeros(len(rows), dtype=bool)
    if len(rows) == 0:
        return delivered, rows, sources
    stride = network.n + 1
    walk = np.arange(len(rows))
    node = sources.astype(np.int64)
    state = node * stride
    mrow = rows.astype(np.int64)
    offsets = table.offsets
    decisions = table.decisions
    compact = table.compact
    lane_steps = 0
    steps_run = 0
    for _ in range(network.state_bound):
        lane_steps += len(walk)
        steps_run += 1
        decision = decisions[offsets[state] + compact[mrow, node]]
        arrived = decision == destination
        if arrived.any():
            delivered[walk[arrived]] = True
        alive = decision >= 0
        cont = alive & ~arrived
        if not cont.any():
            break
        previous = node[cont]
        node = decision[cont]
        state = node * stride + previous + 1
        mrow = mrow[cont]
        walk = walk[cont]
    telemetry = _obs.active()
    if telemetry is not None:
        # batched per chunk walk: lane_steps / walked_lanes is the
        # compaction ratio (1.0 would mean no walk ever finished early)
        telemetry.count("repro_numpy_walks_total", len(rows), help="vectorized mask walks")
        telemetry.count(
            "repro_numpy_lane_steps_total",
            lane_steps,
            help="vectorized walk-steps actually advanced (post-compaction)",
        )
        telemetry.count(
            "repro_numpy_dense_steps_total",
            len(rows) * steps_run,
            help="walk-steps a compaction-free walker would have advanced",
        )
    return delivered, rows, sources


# ---------------------------------------------------------------------------
# Destination-pattern resilience sweep (the numpy twin of
# ``sweep_pattern_resilience``).
# ---------------------------------------------------------------------------


def _ordered_row_failure(network, component_row, eligible_row, delivered_row):
    """The first failing source of one mask row, in checker order.

    The scalar checkers iterate the *whole component* via
    ``sorted_nodes`` (which native-sorts a homogeneous component even
    when the graph fell back to repr order) and then skip ineligible
    sources without counting them — so node-index order is not always
    iteration order.  Re-rank the one failing row scalarly.  Returns
    ``(source index, scenarios checked within this row)``.
    """
    labels = network.labels
    eligible_members = [int(i) for i in np.nonzero(eligible_row)[0]]
    rank_of = {labels[i]: position for position, i in enumerate(eligible_members)}
    ordered = sorted_nodes(
        labels[int(i)] for i in np.nonzero(component_row)[0]
    )
    checked = 0
    for label in ordered:
        position = rank_of.get(label)
        if position is None:
            continue  # the destination itself, or outside sources=
        checked += 1
        if not delivered_row[position]:
            return network.index[label], checked
    raise AssertionError("no failing source in a failing row")  # pragma: no cover


def pattern_sweep_numpy(
    state,
    memo: MemoizedPattern,
    destination: Node,
    sources=None,
    failure_sets=None,
):
    """Vectorized twin of :func:`~.sweep.sweep_pattern_resilience`.

    Identical :class:`~repro.core.resilience.Verdict`: same scenario
    count, same ``exhaustive`` flag, same first counterexample with the
    same scalar-rewalked trace.  Raises :class:`VectorizedUnsupported`
    (carrying any materialized failure sets) when the instance cannot
    vectorize.
    """
    from ..resilience import Counterexample, Verdict

    network = state.network
    if not vectorizable(network):
        raise VectorizedUnsupported(reason="numpy_missing")
    dest_idx = network.index.get(destination)
    if dest_idx is None:
        raise VectorizedUnsupported(reason="unindexed_node")

    one_shot_batch = None
    if failure_sets is None:
        batch, exhaustive = default_batch(state)
    else:
        batch = batch_for(state, failure_sets)
        exhaustive = False
        if not isinstance(failure_sets, (list, tuple)):
            # the caller's one-shot iterator is consumed: a later
            # fallback reconstructs the family from this batch
            one_shot_batch = batch

    wanted = None if sources is None else set(sources)
    src_ok = np.ones(network.n, dtype=bool)
    src_ok[dest_idx] = False
    if wanted is not None:
        allow = np.zeros(network.n, dtype=bool)
        for source in wanted:
            index = network.index.get(source)
            if index is not None:
                allow[index] = True
        src_ok &= allow

    counts = np.zeros(batch.total, dtype=np.int64)
    # best = (position, scenarios checked within that set, counterexample
    # thunk) for the earliest failing failure set found so far
    best = None

    telemetry = _obs.active()
    for position, failures in batch.fallbacks:
        # non-maskable: the engine's per-mask check takes its naive branch
        if telemetry is not None:
            telemetry.count(
                "repro_numpy_naive_sets_total",
                help="non-maskable failure sets evaluated scalar inside numpy sweeps",
            )
        checked, counterexample = state.mask_outcome(memo, destination, failures, wanted)
        counts[position] = checked
        if counterexample is not None:
            # fallback positions ascend, so this is the earliest fallback
            # failure; later fallbacks cannot matter (their counts only
            # feed the slice before the winning position)
            best = (position, checked, counterexample)
            break

    for chunk in batch.chunks:
        if best is not None and int(chunk.positions[0]) > best[0]:
            break  # everything here lies after the earliest failure
        labels = chunk.labels_for(network)
        eligible = (labels == labels[:, dest_idx][:, None]) & src_ok[None, :]
        counts[chunk.positions] = eligible.sum(axis=1)
        table = _table_for(network, memo, chunk, one_shot_batch, state=state)
        delivered, rows, sources_idx = _walk_delivered(network, table, dest_idx, eligible)
        failed = ~delivered
        if failed.any():
            first = int(np.argmax(failed))
            row = int(rows[first])
            position = int(chunk.positions[row])
            if best is None or position < best[0]:
                row_flags = delivered[rows == row]
                component_row = labels[row] == labels[row, dest_idx]
                src_idx, partial = _ordered_row_failure(
                    network, component_row, eligible[row], row_flags
                )
                fmask = chunk.mask_int(row)
                failures = network.failures_of(fmask)
                result = route_indexed(network, memo, src_idx, dest_idx, fmask)
                counterexample = Counterexample(
                    network.labels[src_idx], destination, failures, result
                )
                best = (position, partial, counterexample)
            break  # chunks are position-ordered: later failures lose

    if best is not None:
        position, partial, counterexample = best
        checked = int(counts[:position].sum()) + partial
        return Verdict(False, checked, counterexample, exhaustive)
    return Verdict(True, int(counts.sum()), exhaustive=exhaustive)


# ---------------------------------------------------------------------------
# Touring sweep (the numpy twin of ``_sweep_touring``'s inner loop).
# ---------------------------------------------------------------------------


def touring_sweep_numpy(
    state,
    memo: MemoizedPattern,
    starts: list[Node],
    failure_sets=None,
    exhaustive: bool | None = None,
):
    """Vectorized perfect-touring check: identical Verdicts.

    Phase 1 advances every ``(start, mask)`` walk ``state_bound + 1``
    steps — any undropped walk is then provably inside its terminal
    cycle.  Phase 2 walks the cycle once more, accumulating the visited
    nodes as a multi-word ``n``-bit bitset (one uint64 word per 64
    nodes), and coverage is one vectorized compare against the
    component bitset.
    """
    from ..resilience import Counterexample, Verdict

    network = state.network
    if not vectorizable(network):
        raise VectorizedUnsupported(reason="numpy_missing")
    start_indices = []
    for start in starts:
        index = network.index.get(start)
        if index is None:
            # naive per-start fallback: scalar path
            raise VectorizedUnsupported(reason="unindexed_node")
        start_indices.append(index)
    if not start_indices:
        raise VectorizedUnsupported(reason="no_starts")

    one_shot_batch = None
    if failure_sets is None:
        batch, default_exhaustive = default_batch(state)
        if exhaustive is None:
            exhaustive = default_exhaustive
    else:
        batch = batch_for(state, failure_sets)
        if not isinstance(failure_sets, (list, tuple)):
            one_shot_batch = batch
        if exhaustive is None:
            exhaustive = False

    n_starts = len(start_indices)
    best = None  # (position, start offset, failures frozenset)

    from ..simulator import tours_component

    for position, failures in batch.fallbacks:
        if best is not None:
            break  # fallback positions ascend: the earliest failure is set
        for offset, start in enumerate(starts):
            if not tours_component(state.naive_network, memo.pattern, start, failures):
                best = (position, offset, failures)
                break

    stride = network.n + 1
    # visited-node bitsets: one uint64 word per 64 nodes, so touring
    # vectorizes past 64 nodes exactly like masks do past 64 links
    node_words = mask_words(network.n)
    node_bits = np.zeros((network.n, node_words), dtype=np.uint64)
    node_range = np.arange(network.n)
    node_bits[node_range, node_range >> 6] = np.left_shift(
        np.uint64(1), (node_range & 63).astype(np.uint64)
    )
    starts_column = np.array(start_indices, dtype=np.int64)
    for chunk in batch.chunks:
        if best is not None and int(chunk.positions[0]) > best[0]:
            break
        k = len(chunk)
        table = _table_for(network, memo, chunk, one_shot_batch, state=state)
        labels = chunk.labels_for(network)
        # component bitset and size per (mask row, start)
        comp_bits = np.empty((k, n_starts, node_words), dtype=np.uint64)
        comp_size = np.empty((k, n_starts), dtype=np.int64)
        for offset, start_idx in enumerate(start_indices):
            member = labels == labels[:, start_idx][:, None]
            for j in range(node_words):
                lo, hi = 64 * j, min(network.n, 64 * (j + 1))
                segment = np.left_shift(
                    np.uint64(1), np.arange(hi - lo, dtype=np.uint64)
                )
                comp_bits[:, offset, j] = (member[:, lo:hi] * segment[None, :]).sum(
                    axis=1, dtype=np.uint64
                )
            comp_size[:, offset] = member.sum(axis=1)
        walks = k * n_starts
        mrow = np.repeat(np.arange(k, dtype=np.int64), n_starts)
        node = np.tile(starts_column, k)
        state_arr = node * stride
        walk = np.arange(walks)
        dropped = np.zeros(walks, dtype=bool)
        final_state = np.zeros(walks, dtype=np.int64)
        offsets = table.offsets
        decisions = table.decisions
        compact = table.compact
        # phase 1: run past every transient prefix (into the cycle)
        for _ in range(network.state_bound + 1):
            decision = decisions[offsets[state_arr] + compact[mrow, node]]
            bad = decision < 0
            if bad.any():
                dropped[walk[bad]] = True
            cont = ~bad
            if not cont.any():
                walk = walk[:0]
                state_arr = state_arr[:0]
                break
            previous = node[cont]
            node = decision[cont]
            state_arr = node * stride + previous + 1
            mrow = mrow[cont]
            walk = walk[cont]
        final_state[walk] = state_arr
        # phase 2: lap the cycle once, accumulating visited-node bitsets
        survivors = np.nonzero(~dropped)[0]
        cycle_bits = np.zeros((walks, node_words), dtype=np.uint64)
        if len(survivors):
            entry = final_state[survivors]
            cur_state = entry.copy()
            cur_node = cur_state // stride
            acc = node_bits[cur_node]  # fancy index: a fresh (survivors, W) copy
            mrow2 = survivors // n_starts
            walk2 = np.arange(len(survivors))
            active_entry = entry
            for _ in range(network.state_bound + 1):
                decision = decisions[offsets[cur_state] + compact[mrow2, cur_node]]
                previous = cur_node
                cur_node = decision
                cur_state = cur_node * stride + previous + 1
                acc[walk2] |= node_bits[cur_node]
                open_walks = cur_state != active_entry
                if not open_walks.any():
                    break
                cur_state = cur_state[open_walks]
                cur_node = cur_node[open_walks]
                mrow2 = mrow2[open_walks]
                walk2 = walk2[open_walks]
                active_entry = active_entry[open_walks]
            cycle_bits[survivors] = acc
        comp_bits_flat = comp_bits.reshape(walks, node_words)
        covered = (comp_size.reshape(-1) <= 1) | (
            ~dropped & ((cycle_bits & comp_bits_flat) == comp_bits_flat).all(axis=1)
        )
        if not covered.all():
            first = int(np.argmax(~covered))
            row, offset = divmod(first, n_starts)
            position = int(chunk.positions[row])
            if best is None or position < best[0]:
                best = (position, offset, network.failures_of(chunk.mask_int(row)))
            break

    if best is not None:
        position, offset, failures = best
        checked = position * n_starts + offset + 1
        counterexample = Counterexample(
            starts[offset], None, failures, None, note="tour does not cover component"
        )
        return Verdict(False, checked, counterexample, exhaustive)
    return Verdict(True, batch.total * n_starts, exhaustive=exhaustive)
