"""Span tracing from outside the program: wrap each layer's entry points.

The traced run replaces the public entry points of every layer (and the
private callbacks the scheduler dispatches into, which are a layer's real
boundary) with thin wrappers that record one span per call:
``(name, start, end, parent, operation id)`` in a flat in-memory array.
Nothing inside ``src/repro`` is changed; :meth:`Tracer.uninstall` restores
every original attribute.

A span's *self time* is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  Time that no
wrapped entry point covers is charged to the enclosing span, so the
scheduler's run loop (the outermost span) absorbs the callbacks of code the
table below does not name.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Fields stored per span in :attr:`Tracer.spans`.
SPAN_FIELDS = 5
NAME, START, END, PARENT, OP_ID = range(SPAN_FIELDS)

#: Layer of the idle wait inside an asyncio event loop (not a program layer:
#: it keeps sleeping out of the scheduler's self time on the realtime runtime).
IDLE = "idle"


#: How an entry point is wrapped: a plain call; a call whose ``self`` is an
#: operation, pipeline or policy (the span carries its operation id); a call
#: returning an iterator (one more span per item pulled, since the work of a
#: lazy export happens when the consumer pulls).
CALL, OP, ITER = "call", "op", "iter"


def _op_id_of(args: tuple) -> Optional[int]:
    """Operation id of an operation, pipeline or policy method's ``self``."""
    owner = args[0] if args else None
    record = getattr(owner, "record", None)
    if record is None:
        op = getattr(owner, "op", None)
        record = getattr(op, "record", None)
    return getattr(record, "op_id", None)


def entry_points() -> Dict[str, List[Tuple[object, str, str]]]:
    """Layer name -> ``(owner, attribute, kind)`` to wrap (kind: CALL, OP or ITER).

    Layers are named by module, as the README's layer map lists them.
    """
    from repro.core import channel, chunks, controller, crypto, messages, operations, sharding, southbound, state
    from repro.middleboxes import base, dummy
    from repro.net import links, protection, simulator, switch
    from repro.runtime import realtime
    from repro.testing import chaos

    return {
        "codec": [
            (messages.Message, "encode", CALL),
            (messages.Message, "decode", CALL),
            (messages, "encode_chunk", CALL),
            (messages, "decode_chunk", CALL),
            (messages, "encode_packet", CALL),
            (messages, "decode_packet", CALL),
            (messages, "decode_event", CALL),
            (chunks.ChunkCodec, "seal_perflow", CALL),
            (chunks.ChunkCodec, "unseal_perflow", CALL),
            (crypto, "seal", CALL),
            (crypto, "unseal", CALL),
        ],
        "channel": [
            (channel.ControlChannel, "send_to_middlebox", CALL),
            (channel.ControlChannel, "send_many_to_middlebox", CALL),
            (channel.ControlChannel, "send_to_controller", CALL),
            (channel.ControlChannel, "_transmit", CALL),
            (channel.ControlChannel, "_receive_at_middlebox", CALL),
            (channel.ControlChannel, "_receive_at_controller", CALL),
            (channel.ControlChannel, "_retransmit_check", CALL),
        ],
        "southbound": [
            (southbound.SouthboundAgent, "handle_message", CALL),
            (southbound.SouthboundAgent, "_pump_chunks", CALL),
            (southbound.SouthboundAgent, "_send_chunk", CALL),
            (southbound.SouthboundAgent, "_send_get_complete", CALL),
            (southbound.SouthboundAgent, "send_event", CALL),
            (southbound.SouthboundAgent, "_ack", CALL),
        ],
        "store": [
            (state.PerFlowStateStore, "put", CALL),
            (state.PerFlowStateStore, "get", CALL),
            (state.PerFlowStateStore, "get_or_create", CALL),
            (state.PerFlowStateStore, "remove", CALL),
            (state.PerFlowStateStore, "iter_matching", ITER),
            (state.PerFlowStateStore, "remove_matching", CALL),
            (state.PerFlowStateStore, "drain_dirty", CALL),
            (state.PerFlowStateStore, "install_round", CALL),
        ],
        "sched": [
            (simulator.Simulator, "run", CALL),
            (simulator.Simulator, "run_until", CALL),
            (realtime.RealtimeRuntime, "run", CALL),
            (realtime.RealtimeRuntime, "run_until", CALL),
        ],
        "ops": [
            (operations.MoveOperation, "start", OP),
            (operations.MoveOperation, "_begin_copy_round", OP),
            (operations.MoveOperation, "_on_src_reply", OP),
            (operations.MoveOperation, "on_event", OP),
            (operations.MoveOperation, "_check_complete", OP),
            (operations.MoveOperation, "_finalize", OP),
            (operations._StatefulOperation, "_quiescence_check", OP),
            (operations.ChunkPipeline, "add_chunk", OP),
            (operations.ChunkPipeline, "source_done", OP),
            (operations.ChunkPipeline, "_on_put_reply", OP),
            (operations.GuaranteePolicy, "on_final_stream_drained", OP),
            (operations.LossFreePolicy, "on_event", OP),
            (operations.LossFreePolicy, "on_flow_acked", OP),
            (operations.LossFreePolicy, "on_transfer_drained", OP),
            (operations.OrderPreservingPolicy, "on_event", OP),
            (operations.OrderPreservingPolicy, "on_flow_acked", OP),
            (operations.OrderPreservingPolicy, "_on_replay_reply", OP),
            (operations.OrderPreservingPolicy, "_send_release", OP),
            (operations.OrderPreservingPolicy, "on_final_stream_drained", OP),
        ],
        "controller": [
            (controller.MBController, "move_internal", CALL),
            (controller.MBController, "send", CALL),
            (controller.MBController, "_flush_outbox", CALL),
            (controller.MBController, "_receive", CALL),
            (controller.MBController, "_dispatch", CALL),
            (controller.MBController, "_handle_event", CALL),
            (controller.MBController, "forward_event", CALL),
            (controller.MBController, "note_perflow_installed", CALL),
            (sharding.ControllerShard, "on_cpu", CALL),
        ],
        "net": [
            (links.Link, "transmit", CALL),
            (links.Link, "transmit_raw", CALL),
            (protection.LinkProtection, "on_arrival", CALL),
            (protection.LinkProtection, "_timer_check", CALL),
            (protection.LinkProtection, "_retransmit", CALL),
            (switch.Switch, "receive", CALL),
            (switch.Switch, "_apply_pipeline", CALL),
        ],
        "mb": [
            (base.Middlebox, "receive", CALL),
            (base.Middlebox, "_process_and_forward", CALL),
            (base.Middlebox, "reprocess", CALL),
            (base.Middlebox, "put_perflow", CALL),
            (base.Middlebox, "iter_perflow", ITER),
            (base.Middlebox, "iter_perflow_dirty", ITER),
            (base.Middlebox, "del_perflow", CALL),
            (base.Middlebox, "hold_flows", CALL),
            (base.Middlebox, "release_flows", CALL),
            (dummy.DummyMiddlebox, "process_packet", CALL),
            (dummy.DummyMiddlebox, "generate_reprocess_event", CALL),
            (chaos.ChaosMiddlebox, "process_packet", CALL),
        ],
    }


class Tracer:
    """Records spans for wrapped callables while :attr:`active` is True."""

    def __init__(self, clock: Callable[[], int] = time.monotonic_ns) -> None:
        self.clock = clock
        self.active = False
        #: Span name per name id, and the layer each name belongs to.
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self._ids: Dict[str, int] = {}
        #: Flat span table: SPAN_FIELDS int64 values per span.
        self.spans = array("q")
        #: Open spans, innermost last: (span index, operation id).
        self._stack: List[Tuple[int, int]] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        """Intern a span name (``layer.Owner.attr``) and return its id."""
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return found

    def open(self, name_id: int, op: Optional[int] = None) -> int:
        """Open a span; returns its index.  Pair every call with :meth:`close`."""
        parent, parent_op = self._stack[-1] if self._stack else (-1, -1)
        op_id = parent_op if op is None else op
        index = len(self.spans) // SPAN_FIELDS
        self.spans.extend((name_id, self.clock(), 0, parent, op_id))
        self._stack.append((index, op_id))
        return index

    def close(self, index: int) -> None:
        """Close the innermost span (which must be *index*)."""
        self.spans[index * SPAN_FIELDS + END] = self.clock()
        self._stack.pop()

    def _traced(self, fn: Callable, name_id: int, op_of: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.open(name_id, op_of(args) if op_of is not None else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    def _traced_iter(self, fn: Callable, name_id: int) -> Callable:
        """Wrap a callable returning an iterator: a span for the call, one per item."""
        tracer = self

        def pull(iterator):
            while True:
                index = tracer.open(name_id)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.open(name_id)
            try:
                iterator = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            return pull(iterator)

        return traced

    # -- installing ------------------------------------------------------------------

    def wrap(self, owner: object, attr: str, layer: str, kind: str = CALL) -> None:
        """Replace ``owner.attr`` by a traced wrapper (restored by :meth:`uninstall`)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        qualname = getattr(fn, "__qualname__", attr)
        name_id = self.name_id(f"{layer}.{qualname}", layer)
        if kind == ITER:
            wrapped = self._traced_iter(fn, name_id)
        else:
            wrapped = self._traced(fn, name_id, _op_id_of if kind == OP else None)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(wrapped)
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, raw))

    def install(self, table: Optional[Dict[str, Iterable[Tuple[object, str, str]]]] = None) -> None:
        """Wrap every entry point of *table* (default: :func:`entry_points`)."""
        for layer, entries in (table or entry_points()).items():
            for owner, attr, kind in entries:
                self.wrap(owner, attr, layer, kind)

    def wrap_idle(self, selector: object) -> None:
        """Trace an asyncio selector's ``select`` as idle time (realtime runtime)."""
        self.wrap(selector, "select", IDLE)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- reading -----------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans) // SPAN_FIELDS

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line, gzip-compressed.

        Fields: ``id``, ``name``, ``start_ns``/``end_ns`` (monotonic clock),
        ``parent`` (a span id, -1 for none) and ``op`` (operation id, -1 for
        none).  Read it back with ``gzip.open(path, "rt")``.
        """
        spans = self.spans
        names = [json.dumps(name) for name in self.names]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for index in range(len(self)):
                base = index * SPAN_FIELDS
                name, start, end, parent, op = spans[base : base + SPAN_FIELDS]
                handle.write(
                    f'{{"id":{index},"name":{names[name]},"start_ns":{start},"end_ns":{end},'
                    f'"parent":{parent},"op":{op}}}\n'
                )


def self_times(spans: Sequence[int]) -> List[int]:
    """Self time of every span of a flat span table: duration minus direct children."""
    count = len(spans) // SPAN_FIELDS
    child = [0] * count
    for index in range(count):
        base = index * SPAN_FIELDS
        parent = spans[base + PARENT]
        if parent >= 0:
            child[parent] += spans[base + END] - spans[base + START]
    return [
        spans[index * SPAN_FIELDS + END] - spans[index * SPAN_FIELDS + START] - child[index]
        for index in range(count)
    ]


class SpanSummary:
    """Counts and self times of a finished trace, by span name and by layer."""

    def __init__(self, tracer: Tracer) -> None:
        spans = tracer.spans
        own = self_times(spans)
        self.calls: Counter = Counter()
        self.self_ns_by_name: Counter = Counter()
        self.self_ns_by_layer: Counter = Counter()
        #: (child name, parent name) -> count, for "calls made from" questions.
        self.calls_from: Counter = Counter()
        names = tracer.names
        for index, self_ns in enumerate(own):
            base = index * SPAN_FIELDS
            name = names[spans[base + NAME]]
            self.calls[name] += 1
            self.self_ns_by_name[name] += self_ns
            self.self_ns_by_layer[tracer.layer_of[spans[base + NAME]]] += self_ns
            parent = spans[base + PARENT]
            if parent >= 0:
                self.calls_from[(name, names[spans[parent * SPAN_FIELDS + NAME]])] += 1

    def count(self, *names: str) -> int:
        """Total calls of the named spans."""
        return sum(self.calls[name] for name in names)

    def count_from(self, name: str, parent: str) -> int:
        """Calls of span *name* whose direct parent span is *parent*."""
        return self.calls_from[(name, parent)]

    def self_ms(self, layer: str) -> float:
        """A layer's self time in milliseconds."""
        return self.self_ns_by_layer[layer] / 1e6

    def self_ms_of(self, *names: str) -> float:
        """Summed self time of the named spans, in milliseconds."""
        return sum(self.self_ns_by_name[name] for name in names) / 1e6

    def hotspots(self, limit: int = 12) -> List[Tuple[str, float, int]]:
        """The *limit* span names with the most self time: (name, ms, calls)."""
        ranked = sorted(self.self_ns_by_name.items(), key=lambda item: -item[1])[:limit]
        return [(name, ns / 1e6, self.calls[name]) for name, ns in ranked]
