"""Per-layer metrics of a traced round, and their cross-checks.

Counts come from the trace wherever the trace sees the work; where the
program keeps its own counter for the same thing (``ChannelStats``,
``ControllerStats``, ``LinkStats``, ``SwitchStats``, ``MiddleboxCounters``,
``OperationRecord``) the traced count must equal it, and a mismatch fails
the round.  Ratios whose denominator is zero (a layer that did no work on
this workload) read 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from tracing import SpanSummary

#: Per-layer metrics, in report order: name -> unit.
METRICS: Dict[str, str] = {
    "codec.encode_calls": "count",
    "codec.decode_calls": "count",
    "codec.seal_calls": "count",
    "codec.self_ms": "ms",
    "codec.us_per_chunk": "us",
    "codec.encodes_per_msg": "ratio",
    "channel.msgs": "count",
    "channel.bytes_per_chunk": "B",
    "channel.retransmits": "count",
    "channel.dedup_discards": "count",
    "channel.delivered_ratio": "ratio",
    "channel.self_ms": "ms",
    "southbound.requests": "count",
    "southbound.stream_batches": "count",
    "southbound.self_ms": "ms",
    "southbound.us_per_chunk": "us",
    "store.puts": "count",
    "store.gets": "count",
    "store.scan_steps": "count",
    "store.peak_mb": "MB",
    "store.self_ms": "ms",
    "store.us_per_put": "us",
    "sched.events": "count",
    "sched.events_per_chunk": "ratio",
    "sched.self_ms": "ms",
    "ops.rounds": "count",
    "ops.chunks_resent": "count",
    "ops.useful_chunk_ratio": "ratio",
    "ops.events_buffered": "count",
    "ops.drain_calls": "count",
    "ops.self_ms": "ms",
    "controller.msgs_sent": "count",
    "controller.batches": "count",
    "controller.coalesced": "count",
    "controller.shard_imbalance": "ratio",
    "controller.self_ms": "ms",
    "net.link_frames": "count",
    "net.link_wire_losses": "count",
    "net.link_retransmits": "count",
    "net.link_useful_ratio": "ratio",
    "net.switch_pkts": "count",
    "net.self_ms": "ms",
    "mb.pkts": "count",
    "mb.reprocessed": "count",
    "mb.self_ms": "ms",
    "mb.us_per_pkt": "us",
    "trace.overhead": "ratio",
}

#: Span names on the middlebox packet path (the ``mb.us_per_pkt`` numerator).
PACKET_PATH = (
    "mb.Middlebox.receive",
    "mb.Middlebox._process_and_forward",
    "mb.Middlebox.reprocess",
    "mb.DummyMiddlebox.process_packet",
    "mb.ChaosMiddlebox.process_packet",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: SpanSummary, result) -> Tuple[Dict[str, float], List[str]]:
    """Derive every per-layer metric of :data:`METRICS` (but the overhead) and cross-check.

    Returns ``(metrics, mismatches)``; each mismatch names a traced count
    that differs from the program's own counter.
    """
    registry = result.registry
    channels = registry["channels"]
    controllers = registry["controllers"]
    links = registry["links"]
    middleboxes = registry["middleboxes"]
    records = result.records
    chunks = result.chunks
    mismatches: List[str] = []

    def agree(label: str, traced: int, program: int) -> int:
        if traced != program:
            mismatches.append(f"{label}: traced {traced} != program counter {program}")
        return traced

    stats = [direction for channel in channels for direction in (channel.to_mb, channel.to_controller)]
    wire_msgs = sum(s.messages for s in stats)
    msgs = agree("channel.msgs", summary.count("channel.ControlChannel._transmit"), wire_msgs)
    chan_acks = sum(s.chan_acks for s in stats)
    dropped = sum(s.dropped for s in stats)
    dedup = sum(s.dedup_discards for s in stats)
    duplicated = sum(s.duplicated for s in stats)
    retransmits = agree(
        "channel.retransmits",
        summary.count_from("channel.ControlChannel._transmit", "channel.ControlChannel._retransmit_check"),
        sum(s.retransmits for s in stats),
    )
    encodes = summary.count("codec.Message.encode")

    ctrl_stats = [controller.stats for controller in controllers]
    msgs_sent = agree(
        "controller.msgs_sent", summary.count("controller.MBController.send"), sum(s.messages_sent for s in ctrl_stats)
    )
    batches = sum(s.batches_dispatched for s in ctrl_stats)
    agree("controller.batches (framed channel batches)", sum(channel.to_mb.batches for channel in channels), batches)
    shard_messages = [shard.stats.messages for controller in controllers for shard in controller.coordinator.shards]
    imbalance = _ratio(max(shard_messages, default=0), _ratio(sum(shard_messages), len(shard_messages)))

    link_stats = [link.stats_for(direction) for link in links for direction in ("a_to_b", "b_to_a")]
    frames = agree("net.link_frames", summary.count("net.Link.transmit_raw"), sum(s.packets for s in link_stats))
    losses = sum(s.lost for s in link_stats)
    link_rtx = agree(
        "net.link_retransmits",
        summary.count_from("net.Link.transmit_raw", "net.LinkProtection._retransmit"),
        sum(s.retransmits for s in link_stats),
    )
    delivered = 0
    for link in links:
        for direction in ("a_to_b", "b_to_a"):
            if link.protection is not None:
                delivered += link.protection.stats_for(direction).delivered
            else:
                delivered += link.stats_for(direction).packets - link.stats_for(direction).lost
    switch_pkts = agree(
        "net.switch_pkts", summary.count("net.Switch.receive"), sum(s.stats.packets_in for s in registry["switches"])
    )

    pkts = agree(
        "mb.pkts",
        summary.count("mb.Middlebox.receive", "mb.Middlebox.reprocess"),
        sum(mb.counters.packets_received + mb.counters.reprocessed_packets for mb in middleboxes),
    )
    reprocessed = sum(mb.counters.reprocessed_packets for mb in middleboxes)

    agree("ops.chunks (OperationRecord.chunks_transferred)", summary.count("ops.ChunkPipeline.add_chunk"), chunks)
    rounds = sum(len(record.rounds) for record in records)
    agree("ops.rounds (OperationRecord.rounds)", summary.count("ops.MoveOperation._begin_copy_round"), rounds)
    resent = sum(s.precopy_delta_chunks for s in ctrl_stats)

    stores = registry["stores"]
    puts = summary.count("store.PerFlowStateStore.put")

    metrics = {
        "codec.encode_calls": encodes,
        "codec.decode_calls": summary.count("codec.Message.decode"),
        "codec.seal_calls": summary.count("codec.seal"),
        "codec.self_ms": summary.self_ms("codec"),
        "codec.us_per_chunk": _ratio(summary.self_ms("codec") * 1000, chunks),
        "codec.encodes_per_msg": _ratio(encodes, msgs),
        "channel.msgs": msgs,
        "channel.bytes_per_chunk": _ratio(result.ctrl_bytes, chunks),
        "channel.retransmits": retransmits,
        "channel.dedup_discards": dedup,
        "channel.delivered_ratio": _ratio(msgs - chan_acks - dropped - (dedup - duplicated), msgs),
        "channel.self_ms": summary.self_ms("channel"),
        "southbound.requests": sum(agent.stats.requests_handled for agent in registry["agents"]),
        "southbound.stream_batches": summary.count("southbound.SouthboundAgent._pump_chunks"),
        "southbound.self_ms": summary.self_ms("southbound"),
        "southbound.us_per_chunk": _ratio(summary.self_ms("southbound") * 1000, chunks),
        "store.puts": puts,
        "store.gets": summary.count("store.PerFlowStateStore.get", "store.PerFlowStateStore.get_or_create"),
        "store.scan_steps": sum(store.scan_steps for store in stores),
        "store.peak_mb": sum(store.memory_stats().peak_total_bytes for store in stores) / 1e6,
        "store.self_ms": summary.self_ms("store"),
        "store.us_per_put": _ratio(summary.self_ms("store") * 1000, puts),
        "sched.events": result.sched_events,
        "sched.events_per_chunk": _ratio(result.sched_events, chunks),
        "sched.self_ms": summary.self_ms("sched"),
        "ops.rounds": rounds,
        "ops.chunks_resent": resent,
        "ops.useful_chunk_ratio": _ratio(result.flows, chunks),
        "ops.events_buffered": sum(record.events_buffered for record in records),
        "ops.drain_calls": summary.count(
            "ops.GuaranteePolicy.on_final_stream_drained", "ops.OrderPreservingPolicy.on_final_stream_drained"
        ),
        "ops.self_ms": summary.self_ms("ops"),
        "controller.msgs_sent": msgs_sent,
        "controller.batches": batches,
        "controller.coalesced": sum(s.messages_coalesced for s in ctrl_stats),
        "controller.shard_imbalance": imbalance,
        "controller.self_ms": summary.self_ms("controller"),
        "net.link_frames": frames,
        "net.link_wire_losses": losses,
        "net.link_retransmits": link_rtx,
        "net.link_useful_ratio": _ratio(delivered, frames),
        "net.switch_pkts": switch_pkts,
        "net.self_ms": summary.self_ms("net"),
        "mb.pkts": pkts,
        "mb.reprocessed": reprocessed,
        "mb.self_ms": summary.self_ms("mb"),
        "mb.us_per_pkt": _ratio(summary.self_ms_of(*PACKET_PATH) * 1000, pkts),
    }
    return metrics, mismatches
