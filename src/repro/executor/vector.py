"""Whole-query vectorized join cascade for static (mode NONE) runs.

The turbo loop (:meth:`BatchedPipelineExecutor._run_turbo`) already skips
every per-probe observation for static plans; what remains is the Python
nested-loop state machine itself. When every leg is columnar and every
probe is a pure indexed equality lookup, the whole join collapses into a
layered array computation:

1. the driving scan becomes an index-entry (or RID-range) slice plus a
   boolean mask for the residual local predicates;
2. each inner leg translates its probe-key column into *ranks* of the
   probed index's distinct-key sidecar (``searchsorted`` for numeric keys,
   a dictionary-code LUT for strings), then expands the flow through the
   leg's group kernel with ``repeat``/``cumsum`` CSR gathers — exactly the
   rows, in exactly the depth-first nested-loop order, of the scalar
   machine;
3. work-meter charges are computed from the same per-key kernel aggregates
   the scalar probes charge (descend per probe, ``max(entries, 1)`` per
   present/missing key, fetch per candidate row, short-circuit-exact local
   evals), summed per leg.

Gates are strict — any unsupported shape returns ``None`` and the generic
turbo loop runs instead. In particular the cascade requires: numpy,
columnar tables and indexes on every leg, index-equality
probes with no residual joins, no positional predicates, and vectorizable
local predicates everywhere. Partitioned (and resumed) driving cursors are
supported: the driving walk clamps each key range to the cursor's
``start_after``/``stop_at`` bounds with the exact skip/termination rules
of :class:`~repro.storage.cursor.IndexScanCursor`, which is how parallel
workers run the cascade over their :class:`ScanPartition` slices.
Like the rest of the turbo path this is only observably different from
the scalar machine in *intermediate* meter states, which nothing can read:
runs with execution limits, hot observability, faults, or the oracle never
get here (``BatchedPipelineExecutor._scalar_fallback_reason`` sends them to
the scalar loop).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Any, Callable, Iterator, NamedTuple

from repro.errors import ExecutionError
from repro.storage.columnar import (
    ColumnarIndex,
    ColumnarTable,
    _NumericColumn,
    _StringColumn,
)
from repro.storage.compiled import vector_spec
from repro.storage.counters import (
    INDEX_DESCEND_COST,
    INDEX_ENTRY_COST,
    PREDICATE_EVAL_COST,
    ROW_FETCH_COST,
)
from repro.storage.cursor import IndexScanCursor

try:  # pragma: no cover - exercised via the columnar backend tests
    import numpy as _np
except Exception:  # pragma: no cover - stdlib-only environments
    _np = None

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.executor.batch import BatchedPipelineExecutor


def _make_translator(
    source_column, keys_np, rank: dict, column_len: int
) -> Callable | None:
    """Key-column values -> sidecar ranks (-1 null, -2 missing), or None.

    The returned callable maps an int64 RID array over the *source* column
    to the probed index's distinct-key ranks, reproducing the scalar
    ``rank.get(row[key_slot])`` per element.
    """
    if isinstance(source_column, _NumericColumn):
        if source_column.boxed is not None:
            return None
        pair = source_column.np_values()
        if pair is None:
            return None
        values, notnull = pair
        if not rank:
            # Empty index: every non-null key misses, nulls stay null.
            def translate_empty(rids):
                return _np.where(notnull[rids], -2, -1)

            return translate_empty
        if keys_np is None:
            return None  # non-numeric (or unbuildable) key domain

        nkeys = len(keys_np)

        def translate_numeric(rids):
            src = values[rids]
            pos = _np.searchsorted(keys_np, src)
            clipped = _np.minimum(pos, nkeys - 1)
            ranks = _np.where(keys_np[clipped] == src, clipped, -2)
            ranks[~notnull[rids]] = -1
            return ranks

        return translate_numeric
    if isinstance(source_column, _StringColumn):
        if rank and not isinstance(next(iter(rank)), str):
            return None  # typed mismatch between key domains
        codes = source_column.np_codes()
        if codes is None:
            return None
        decode = source_column.decode
        lut = _np.full(len(decode) + 1, -2, dtype=_np.int64)
        for code, text in enumerate(decode):
            j = rank.get(text)
            if j is not None:
                lut[code] = j
        lut[-1] = -1  # NULL encodes as code -1 -> last LUT slot

        def translate_string(rids):
            return lut[codes[rids]]

        return translate_string
    return None


def vector_cascade(executor: "BatchedPipelineExecutor") -> Iterator | None:
    """A generator running the whole query vectorized, or None to fall back.

    Must be called after ``_open_driving``/``_compile_all_probes``; every
    gate failure returns ``None`` with no state mutated, so the caller's
    generic loop proceeds untouched.
    """
    if _np is None:
        executor.vector_gate_reason = "numpy unavailable (stdlib fallback)"
        return None
    order = list(executor.order)
    if len(order) < 2:
        executor.vector_gate_reason = "single-leg pipeline"
        return None
    legs = [executor.legs[alias] for alias in order]
    for leg in legs:
        if not isinstance(leg.table, ColumnarTable):
            executor.vector_gate_reason = f"leg {leg.alias!r}: row-backend table"
            return None
    cursor = executor.driving_cursor
    if cursor is None:
        executor.vector_gate_reason = "driving cursor not open"
        return None

    # -- driving leg: entry walk + residual-local masks -----------------
    leg0 = legs[0]
    if leg0.positional is not None:
        executor.vector_gate_reason = (
            f"leg {order[0]!r}: positional predicate (frozen cursor)"
        )
        return None
    pushed = leg0._pushed_predicate(cursor)
    residual0 = [
        predicate
        for predicate, _ in leg0.local_tests
        if predicate is not pushed
    ]
    is_index = isinstance(cursor, IndexScanCursor)
    if is_index:
        index0 = cursor.index
        if not isinstance(index0, ColumnarIndex):
            executor.vector_gate_reason = (
                f"leg {order[0]!r}: non-columnar driving index"
            )
            return None
        index0._sidecar()
        if index0._ent_rids is None:
            executor.vector_gate_reason = (
                f"leg {order[0]!r}: non-columnar driving index"
            )
            return None
    table0 = leg0.table
    schema0 = table0.schema
    masks0 = []
    for predicate in residual0:
        spec = vector_spec(predicate, schema0)
        mask = table0.mask_for_spec(spec) if spec is not None else None
        if mask is None:
            executor.vector_gate_reason = (
                f"leg {order[0]!r}: non-vectorizable local predicates"
            )
            return None
        masks0.append(mask)

    # -- inner legs: kernels + key translators --------------------------
    inner, reason = _adaptive_plan(executor)
    if inner is None:
        executor.vector_gate_reason = reason
        return None

    projection = [
        (output.alias, executor._slot_of(output.alias, output.column))
        for output in executor.plan.projection
    ]
    return _execute(
        executor, order, cursor, is_index, masks0, len(masks0), inner,
        projection,
    )


def _execute(
    executor,
    order: list[str],
    cursor,
    is_index: bool,
    masks0: list,
    ntests0: int,
    inner: list,
    projection: list[tuple[str, int]],
) -> Iterator[tuple]:
    """Run the planned cascade; charges mirror the turbo path exactly."""
    meter = executor.catalog.meter
    leg0 = executor.legs[order[0]]

    # Driving walk: the (key, RID) order of the ranges, or RID order,
    # clamped to the cursor's partition/resume bounds. The slice math
    # reproduces IndexScanCursor._entries (and TurboDrivingScan's charge
    # placement) exactly: ranges wholly behind ``start_after`` are skipped
    # without a descend, every other range charges one descend even when
    # empty after clamping, and the walk terminates at the first range
    # where an entry at or past ``stop_at`` is actually seen — later
    # ranges are never entered.
    if is_index:
        index0 = cursor.index
        index0._sidecar()
        ent_rids = index0._ent_rids
        entries = index0._entries
        start = cursor.last_position
        stop = cursor.stop_at
        stop_pos = bisect_left(entries, stop) if stop is not None else None
        slices = []
        walked = 0
        descends = 0
        for key_range in cursor.ranges:
            if start is not None:
                high = key_range.high
                if high is not None and (
                    high < start[0]
                    or (high == start[0] and not key_range.high_inclusive)
                ):
                    continue  # behind the resume position: no descend
            lo, hi = index0._range_bounds(
                key_range.low,
                key_range.high,
                key_range.low_inclusive,
                key_range.high_inclusive,
            )
            if start is not None:
                lo = max(lo, bisect_right(entries, (start[0], start[1])))
            descends += 1
            if stop_pos is not None:
                cut = min(hi, max(lo, stop_pos))
                if cut > lo:
                    slices.append(ent_rids[lo:cut])
                    walked += cut - lo
                if lo < hi and stop_pos < hi:
                    break  # the scalar walk sees an entry >= stop_at here
            elif hi > lo:
                slices.append(ent_rids[lo:hi])
                walked += hi - lo
        if len(slices) == 1:
            walk = slices[0]
        elif slices:
            walk = _np.concatenate(slices)
        else:
            walk = _np.zeros(0, dtype=_np.int64)
        meter.index_descends += descends
        meter.index_entries += walked
    else:
        last = cursor.last_position
        begin = 0 if last is None else last[0] + 1
        end = len(leg0.table)
        if cursor.stop_at is not None:
            end = min(end, cursor.stop_at[0])
        walked = max(0, end - begin)
        walk = _np.arange(begin, begin + walked, dtype=_np.int64)
    # Every walked entry is a row fetch; residual locals charge
    # len(tests) per scanned row (the scalar driving walk's bulk rate).
    meter.row_fetches += walked
    if ntests0:
        meter.predicate_evals += walked * ntests0
    if masks0:
        alive = masks0[0][walk]
        for mask in masks0[1:]:
            alive &= mask[walk]
        survivors = walk[alive]
    else:
        survivors = walk
    flow = int(len(survivors))
    executor.driving_rows_since_check += flow
    executor.driving_rows_total += flow

    # Layered expansion: ancestors[alias] maps every in-flight joined
    # tuple to its RID at that alias, in depth-first nested-loop order.
    ancestors: dict[str, Any] = {order[0]: survivors}
    for leg, config, kernel, translate in inner:
        if flow == 0:
            ancestors[leg.alias] = _np.zeros(0, dtype=_np.int64)
            continue
        layer = _expand_layer(
            meter, ancestors, flow, leg.alias, config.key_alias, kernel,
            translate,
        )
        ancestors = layer.ancestors
        flow = layer.total

    meter.rows_emitted += flow
    executor.rows_emitted += flow
    executor.depleted_from = 0
    if flow:
        if not projection:  # degenerate empty projection
            empty = ()
            for _ in range(flow):
                yield empty
            return
        columns = []
        for alias, slot in projection:
            raw = executor.legs[alias].table.raw_rows()
            rids = ancestors[alias].tolist()
            columns.append([raw[rid][slot] for rid in rids])
        yield from zip(*columns)


class _Layer(NamedTuple):
    """One inner leg's CSR expansion and the aggregates it charged."""

    ancestors: dict[str, Any]  # alias -> RID per joined tuple, after the leg
    total: int  # joined tuples out (the leg's summed output rows)
    touched: int  # candidate rows walked: index entries of present keys
    entries: int  # index entries charged (touched + one per missing key)
    evals: int  # short-circuit local predicate evals charged
    present_ranks: Any  # sidecar ranks of the probes whose key is present


def _expand_layer(
    meter, ancestors: dict[str, Any], flow: int, alias: str, key_alias: str,
    kernel, translate: Callable,
) -> _Layer:
    """Probe one inner leg for all *flow* in-flight tuples at once.

    Translates the probe keys to sidecar ranks, charges the scalar probes'
    work to *meter* (descend always; present keys walk their full group —
    entries, fetches, short-circuit local evals; missing keys touch one
    entry; null keys descend only), then expands every tuple by its passing
    group rows with ``repeat``/``cumsum`` CSR gathers, keeping depth-first
    nested-loop order.
    """
    ranks = translate(ancestors[key_alias])
    present = ranks >= 0
    present_ranks = ranks[present]
    npresent = len(present_ranks)
    missing = int(_np.count_nonzero(ranks == -2))
    meter.index_descends += flow
    if npresent:
        touched = int(kernel.totals[present_ranks].sum())
        evals = int(kernel.evals[present_ranks].sum())
    else:
        touched = 0
        evals = 0
    entries = touched + missing
    meter.index_entries += entries
    meter.row_fetches += touched
    meter.predicate_evals += evals
    offsets = kernel.pass_offsets
    matches = _np.zeros(flow, dtype=_np.int64)
    if npresent:
        matches[present] = offsets[present_ranks + 1] - offsets[present_ranks]
    total = int(matches.sum())
    parent = _np.repeat(_np.arange(flow, dtype=_np.int64), matches)
    if total:
        starts = _np.zeros(flow, dtype=_np.int64)
        starts[present] = offsets[present_ranks]
        base = _np.repeat(starts, matches)
        within = _np.arange(total, dtype=_np.int64) - _np.repeat(
            _np.cumsum(matches) - matches, matches
        )
        new_rids = kernel.pass_rids[base + within]
    else:
        new_rids = _np.zeros(0, dtype=_np.int64)
    expanded = {name: rids[parent] for name, rids in ancestors.items()}
    expanded[alias] = new_rids
    return _Layer(expanded, total, touched, entries, evals, present_ranks)


# ---------------------------------------------------------------------------
# Chunked adaptive cascade (monitored modes, chunk granularity)
# ---------------------------------------------------------------------------
def _adaptive_plan(executor) -> tuple[list | None, str | None]:
    """Per-leg kernels/translators for the *current* order, or a gate reason.

    Recomputed whenever the order or a probe epoch changes (an applied
    inner reorder permutes the cascade mid-scan; a driving switch freezes
    the old driving leg behind a positional predicate, which fails the
    gate here and hands execution back to the generic loop).
    """
    order = executor.order
    inner: list = []
    for position in range(1, len(order)):
        alias = order[position]
        leg = executor.legs[alias]
        config = leg.probe_config
        if config is None or config.hash_column is not None:
            return None, f"leg {alias!r}: hash-probed or uncompiled access"
        if (
            config.access_index is None
            or config.key_alias is None
            or config.key_slot is None
        ):
            return None, f"leg {alias!r}: non-indexed probe"
        if config.residual_joins:
            return None, f"leg {alias!r}: residual join predicates"
        if leg.positional is not None:
            return None, f"leg {alias!r}: positional predicate (frozen cursor)"
        index = config.access_index
        if not isinstance(index, ColumnarIndex):
            return None, f"leg {alias!r}: non-columnar index"
        built = index.cascade_groups(leg.local_tests)
        if built is None:
            return None, f"leg {alias!r}: non-vectorizable local predicates"
        kernel, keys_np, rank = built
        source_table = executor.legs[config.key_alias].table
        translate = _make_translator(
            source_table.column_store(config.key_slot),
            keys_np,
            rank,
            len(source_table),
        )
        if translate is None:
            return None, f"leg {alias!r}: untranslatable key column"
        inner.append((leg, config, kernel, translate))
    return inner, None


def _plan_signature(executor) -> tuple:
    """Cheap change detector: any reorder or probe recompile moves this."""
    return (
        tuple(executor.order),
        tuple(leg.probe_epoch for leg in executor.legs.values()),
    )


def adaptive_cascade(executor: "BatchedPipelineExecutor") -> Iterator | None:
    """The chunked vectorized adaptive engine, or None to fall back.

    Runs the whole cascade one driving chunk at a time under the
    monitored modes: each chunk's inner legs expand through the same CSR
    group kernels as the static cascade, each leg's
    :class:`~repro.core.monitor.AggregatedWindow` fold is derived from the
    kernel aggregates (numerically identical to what ``observe_chunk``
    folds from scalar probes — see ``LegMonitor.defer_chunk``), and the
    rank-rule checks run at chunk boundaries: one inner check at position
    1 and one driving check per chunk, exactly the generic chunked loop's
    cadence. Applied inner reorders permute the remaining cascade legs
    mid-scan (plan rebuild); driving switches re-enter the generic
    depleted-state machinery (the generator returns False and the caller
    continues with the partially consumed cursors).

    Must be called after ``_open_driving``/``_compile_all_probes``. Every
    gate failure returns None with ``executor.vector_gate_reason`` set and
    no state mutated.
    """
    if _np is None:
        executor.vector_gate_reason = "numpy unavailable (stdlib fallback)"
        return None
    if len(executor.order) < 2:
        executor.vector_gate_reason = "single-leg pipeline"
        return None
    for alias in executor.order:
        if not isinstance(executor.legs[alias].table, ColumnarTable):
            executor.vector_gate_reason = f"leg {alias!r}: row-backend table"
            return None
    inner, reason = _adaptive_plan(executor)
    if inner is None:
        executor.vector_gate_reason = reason
        return None
    return _adaptive_run(executor, inner)


def _adaptive_run(executor, inner: list):
    """Chunk loop: consume -> cascade -> fold -> boundary checks.

    Returns True when the query completed, False to hand the partially
    consumed cursors back to the generic chunked loop at a chunk boundary
    (all prepared state drained, windows flushed, counters consistent).

    Observable-parity contract with the generic chunked ``_run_fast``:

    * driving rows are consumed through the *real* charging iterator
      (``RuntimeLeg.driving_rows``) against a ``DrivingShadow``
      prediction, so scan charges, the driving monitor, and freeze/resume
      positions are identical by construction — including the trailing
      non-survivor scan landing *after* the final boundary's checks;
    * each inner leg's meter charges and window fold are the kernel-sum
      twins of ``probe_batch_fast``'s lean aggregates (descend per outer
      row; ``max(entries, 1)`` per present/missing key; fetch + local
      evals per candidate row; all cost constants exact binary fractions,
      so the float work sums are bit-identical under regrouping);
    * one window fold per leg per chunk, applied at the boundary before
      any check or snapshot can read a window (``_flush_chunk_folds``).
    """
    from repro.executor.batch import DrivingShadow  # deferred: import cycle

    config = executor.config
    mode = config.mode
    batch_size = config.batch_size
    check_freq = config.check_frequency
    controller = executor.controller
    meter = executor.catalog.meter
    reorders_inner = mode.reorders_inner
    reorders_driving = mode.reorders_driving
    legs_map = executor.legs

    projection = [
        (output.alias, executor._slot_of(output.alias, output.column))
        for output in executor.plan.projection
    ]
    plan_sig = _plan_signature(executor)
    shadow = None
    while True:
        driving_alias = executor.order[0]
        cursor = executor.driving_cursor
        it = executor._driving_iter
        assert cursor is not None and it is not None
        if shadow is None:
            shadow = DrivingShadow(legs_map[driving_alias], cursor)
        predicted = shadow.next_survivors(batch_size)
        if not predicted:
            # Scan exhausted: drain the trailing non-survivors through the
            # real iterator (charging scan work and driving-monitor records
            # exactly like the generic loop's final next()), then finish.
            row = next(it, None)
            if row is not None:
                raise ExecutionError(
                    "adaptive cascade: driving lookahead diverged from "
                    f"the cursor on leg {driving_alias!r}"
                )
            executor.depleted_from = 0
            executor._flush_chunk_folds()
            return True
        rids: list[int] = []
        last_position = None
        for expect in predicted:
            row = next(it, None)
            if row is not expect:
                raise ExecutionError(
                    "adaptive cascade: driving lookahead diverged from "
                    f"the cursor on leg {driving_alias!r}"
                )
            rids.append(cursor.last_position[-1])
        flow = len(rids)
        executor.depleted_from = None
        executor.driving_rows_since_check += flow
        executor.driving_rows_total += flow

        # -- layered expansion, charging per-leg kernel aggregates -------
        ancestors: dict[str, Any] = {
            driving_alias: _np.asarray(rids, dtype=_np.int64)
        }
        for leg, pconfig, kernel, translate in inner:
            if flow == 0:
                ancestors[leg.alias] = _np.zeros(0, dtype=_np.int64)
                continue
            layer = _expand_layer(
                meter, ancestors, flow, leg.alias, pconfig.key_alias, kernel,
                translate,
            )
            if leg.monitoring_enabled:
                meter.monitor_updates += flow
                # The lean aggregate: (incoming, index matches, output,
                # work) — deferred, applied as one window entry per chunk.
                leg.monitor.defer_chunk(
                    flow,
                    layer.touched,
                    layer.total,
                    flow * INDEX_DESCEND_COST
                    + layer.entries * INDEX_ENTRY_COST
                    + layer.touched * ROW_FETCH_COST
                    + layer.evals * PREDICATE_EVAL_COST,
                )
                present_ranks = layer.present_ranks
                if leg.local_tests and len(present_ranks):
                    ev = kernel.ev
                    pa = kernel.pa
                    for slot, counts in enumerate(leg.local_counts):
                        counts[0] += int(ev[slot][present_ranks].sum())
                        counts[1] += int(pa[slot][present_ranks].sum())
                leg.incoming_since_check += flow
            ancestors = layer.ancestors
            flow = layer.total

        meter.rows_emitted += flow
        executor.rows_emitted += flow
        if flow:
            if not projection:  # degenerate empty projection
                empty = ()
                for _ in range(flow):
                    yield empty
            else:
                columns = []
                for alias, slot in projection:
                    raw = legs_map[alias].table.raw_rows()
                    out_rids = ancestors[alias].tolist()
                    columns.append([raw[rid][slot] for rid in out_rids])
                yield from zip(*columns)

        # -- chunk boundary: flush folds, then the two checks ------------
        executor._flush_chunk_folds()
        if (
            reorders_inner
            and len(executor.order) > 2
            and legs_map[executor.order[1]].incoming_since_check >= check_freq
        ):
            executor.depleted_from = 1
            controller.on_suffix_depleted(1)
        executor.depleted_from = 0
        if (
            reorders_driving
            and executor.driving_rows_since_check >= check_freq
            and controller.on_pipeline_depleted()
        ):
            shadow = None  # driving switch: fresh cursor, fresh lookahead
        sig = _plan_signature(executor)
        if sig != plan_sig:
            inner, reason = _adaptive_plan(executor)
            if inner is None:
                # Typically a driving switch froze the old driving leg
                # behind a positional predicate: hand the cursors back to
                # the generic chunked loop mid-query.
                executor.vector_gate_reason = reason
                executor.depleted_from = 0
                return False
            plan_sig = sig
