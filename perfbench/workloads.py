"""The four benchmark workloads: inputs from a seed, one round each, output checks.

Every workload round runs in a fresh interpreter (see ``worker.py``): message
xids come from a process-global counter, and their digit count changes wire
sizes, so a second round in the same process would see different simulated
times and even different controller batching.

Each ``run_*`` function builds its inputs from ``seed`` alone, times set-up
and the measured phase separately, and checks the program's outputs against
values the benchmark computed itself from those inputs.  It returns a
:class:`RoundResult`; ``worker.py`` turns that into one JSON line.
"""

from __future__ import annotations

import random
import string
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from measure import SAMPLE_ITERATIONS, LoopSampler, time_reference_loop
from repro.core import (
    ControllerConfig,
    ControlChannel,
    FlowPattern,
    MBController,
    NorthboundAPI,
    PerFlowStateStore,
    SouthboundAgent,
    TransferSpec,
)
from repro.middleboxes import DummyMiddlebox
from repro.middleboxes.base import Middlebox
from repro.net import Simulator
from repro.net.flowtable import Action, FlowRule
from repro.net.links import Link
from repro.net.packet import tcp_packet
from repro.net.switch import Switch
from repro.net.topology import Host, Topology
from repro.runtime import RuntimeConfig
from repro.testing.chaos import DST, SRC, ChaosSpec, run_chaos

# -- workload shapes (see README.md for why each was chosen) -----------------------------------

BULK_FLOWS = 50_000
BULK_HOT_FLOWS = 64
BULK_PKT_RATE = 16_000.0
#: Traffic covers the bulk round and the delta rounds of the move.
BULK_TRAFFIC_S = 0.3

CONC_MOVES = 64
CONC_CHUNKS = 150
CONC_SHARDS = 4
CONC_DISPATCH_TICK = 0.0005
CONC_PKT_RATE = 400.0
CONC_PKT_S = 0.05
CHUNK_DATA_BYTES = 202

LOSSY_FLOWS = 1000
LOSSY_PACKETS = 20_000
LOSSY_INTERVAL = 2e-4

PING_PAIRS = 4
PING_CHUNKS = 40
PING_SHARDS = 2
PING_MOVES = 24
PING_PKTS_PER_MOVE = 4



@dataclass
class RoundResult:
    """What one round measured and checked."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    setup_cpu_s: float = 0.0
    setup_wall_s: float = 0.0
    phase_cpu_s: float = 0.0
    phase_wall_s: float = 0.0
    loop_before_s: float = 0.0
    loop_after_s: float = 0.0
    #: CPU seconds of each in-phase reference-loop sample (excluded from the phase).
    loop_samples: List[float] = field(default_factory=list)
    #: Flows whose state the checks found installed at a destination.
    flows: int = 0
    #: Packets processed by instances: live plus replayed from events.
    pkts: int = 0
    #: Operation durations and freeze windows, seconds of the runtime's clock.
    durations: List[float] = field(default_factory=list)
    freezes: List[float] = field(default_factory=list)
    #: Control-channel bytes on the wire, both directions, all channels.
    ctrl_bytes: int = 0
    #: Chunks the operations streamed (per-layer denominators).
    chunks: int = 0
    #: Scheduler callbacks executed during the phase.
    sched_events: int = 0
    #: Objects the round created, for per-layer counters.
    registry: Optional["Registry"] = None
    #: OperationRecords of the moves that finalized.
    records: list = field(default_factory=list)


class Registry:
    """Collects the program objects a round creates, by hooking constructors.

    The lossy workload runs inside :func:`repro.testing.chaos.run_chaos`,
    which builds its controller, channels, links and instances internally;
    the hook is how the benchmark reaches their counters without changing
    the program.  It records references only and costs one call per object.
    """

    CLASSES = {
        "channels": ControlChannel,
        "middleboxes": Middlebox,
        "links": Link,
        "switches": Switch,
        "stores": PerFlowStateStore,
        "controllers": MBController,
        "agents": SouthboundAgent,
    }

    def __init__(self) -> None:
        self.objects: Dict[str, list] = {kind: [] for kind in self.CLASSES}
        self._restore: List[tuple] = []

    def install(self) -> None:
        for kind, cls in self.CLASSES.items():
            original = cls.__init__
            bucket = self.objects[kind]

            def init(obj, *args, _original=original, _bucket=bucket, **kwargs):
                _original(obj, *args, **kwargs)
                _bucket.append(obj)

            cls.__init__ = init
            self._restore.append((cls, original))

    def uninstall(self) -> None:
        for cls, original in reversed(self._restore):
            cls.__init__ = original
        self._restore.clear()

    def __getitem__(self, kind: str) -> list:
        return self.objects[kind]


def _feeder(topology: Topology, middlebox: Middlebox, index: int) -> Host:
    """A traffic host wired to *middlebox* by one clean link (its data-plane ingress)."""
    topology.add_node(middlebox)
    host = topology.add_host(f"{middlebox.name}-gen", f"10.250.{index // 250}.{index % 250 + 1}")
    topology.connect(host, middlebox)
    return host


def _packet_for(middlebox: DummyMiddlebox, index: int):
    key = middlebox.flow_key_for(index)
    return tcp_packet(key.nw_src, key.nw_dst, key.tp_src, key.tp_dst, b"t" * 64)


def _payload_text(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


def _ctrl_bytes(registry: Registry) -> int:
    return sum(channel.total_bytes for channel in registry["channels"])


def _instance_pkts(registry: Registry) -> int:
    return sum(mb.counters.packets_received + mb.counters.reprocessed_packets for mb in registry["middleboxes"])


def _store_snapshot(store: PerFlowStateStore) -> dict:
    return {key: dict(value) for key, value in store.items()}


def _compare_store(label: str, store: PerFlowStateStore, expected: dict, errors: List[str]) -> None:
    """Exact key and payload equality between a store and the expected map."""
    observed = _store_snapshot(store)
    missing = [key for key in expected if key not in observed]
    extra = [key for key in observed if key not in expected]
    wrong = [key for key in expected if key in observed and observed[key] != expected[key]]
    if missing or extra or wrong:
        errors.append(
            f"{label}: {len(missing)} missing, {len(extra)} unexpected, {len(wrong)} wrong payloads"
            + (f" (first missing {missing[0]})" if missing else "")
            + (f" (first wrong {wrong[0]}: {observed[wrong[0]]} != {expected[wrong[0]]})" if wrong else "")
        )


class _Phase:
    """Times set-up and the measured phase, bracketing the phase with the reference loop."""

    def __init__(self, result: RoundResult, *, sampled: bool) -> None:
        self.result = result
        #: In-phase loop sampler: off in traced rounds (its loops would land
        #: inside spans) and on the wall-clock runtime (they would delay it).
        self.sampler = LoopSampler() if sampled else None
        self._cpu = time.process_time()
        self._wall = time.perf_counter()

    def begin(self, on_begin: Optional[Callable[[], None]] = None) -> None:
        """Set-up is over: time the loop, then start the phase clocks."""
        self.result.setup_cpu_s = time.process_time() - self._cpu
        self.result.setup_wall_s = time.perf_counter() - self._wall
        self.result.loop_before_s = time_reference_loop()
        if on_begin is not None:
            on_begin()
        if self.sampler is not None:
            self.sampler.start()
        self._cpu = time.process_time()
        self._wall = time.perf_counter()

    @contextmanager
    def excluded(self):
        """Benchmark work inside the phase (checks, a loop sample): not charged to it."""
        cpu, wall = time.process_time(), time.perf_counter()
        try:
            yield
        finally:
            self._cpu += time.process_time() - cpu
            self._wall += time.perf_counter() - wall

    def sample(self) -> None:
        """Time one in-phase reference-loop sample at a point where the program is idle."""
        with self.excluded():
            self.result.loop_samples.append(time_reference_loop(SAMPLE_ITERATIONS))

    def stamp(self) -> tuple:
        """The current (CPU, wall) clock readings, for :meth:`end`'s ``at``."""
        return time.process_time(), time.perf_counter()

    def end(self, on_end: Optional[Callable[[], None]] = None, at: Optional[tuple] = None) -> None:
        """The last operation is finalized and settled: stop the clocks, time the loop.

        *at* is a :meth:`stamp` taken when the phase actually ended, if that
        was earlier than this call.
        """
        cpu, wall = at if at is not None else self.stamp()
        if self.sampler is not None:
            self.sampler.stop()
            self.result.loop_samples = list(self.sampler.samples)
            cpu -= self.sampler.cpu_s
        self.result.phase_cpu_s = cpu - self._cpu
        self.result.phase_wall_s = wall - self._wall
        if on_end is not None:
            on_end()
        self.result.loop_after_s = time_reference_loop()


def _finish_ops(result: RoundResult, handles) -> None:
    """Count the moves: a move that failed or never finalized is a failed operation."""
    for handle in handles:
        result.attempted += 1
        if not handle.finalized.done or handle.completed.exception or handle.finalized.exception:
            result.failed += 1
            continue
        result.records.append(handle.record)
        result.durations.append(handle.record.duration)
        result.freezes.append(handle.record.freeze_window)
        result.chunks += handle.record.chunks_transferred


# =========================================================================================
# bulk_move
# =========================================================================================


def run_bulk_move(seed: int, registry: Registry, hooks: "Hooks") -> RoundResult:
    """One loss-free pre-copy move of BULK_FLOWS single-entry flows, hot flows under load."""
    rng = random.Random(seed)
    result = RoundResult(registry=registry)
    phase = _Phase(result, sampled=hooks.sample_phase)
    sim = Simulator()
    controller = MBController(sim, ControllerConfig(quiescence_timeout=0.05, per_message_cost=1e-6))
    northbound = NorthboundAPI(controller)
    src = DummyMiddlebox(sim, "bulk-src")
    dst = DummyMiddlebox(sim, "bulk-dst")
    controller.register(src)
    controller.register(dst)
    expected: Dict = {}
    for index in range(BULK_FLOWS):
        key = src.flow_key_for(index)
        value = {"index": index, "packets": 0}
        src.support_store.put(key, dict(value))
        expected[key.bidirectional()] = value
    # The hot flows' packets enter through host -> switch -> source, so the
    # data plane does a little work while the move streams.
    topology = Topology(sim)
    host = topology.add_host("bulk-gen", "10.250.0.1")
    switch = topology.add_node(Switch(sim, "bulk-sw"))
    topology.add_node(src)
    topology.connect(host, switch)
    topology.connect(switch, src)
    switch.install_rule(FlowRule(FlowPattern.wildcard(), [Action.output(switch.port_to(src))]))
    hot = rng.sample(range(BULK_FLOWS), BULK_HOT_FLOWS)
    count = int(BULK_PKT_RATE * BULK_TRAFFIC_S)
    for sent_at in sorted(rng.uniform(1e-5, BULK_TRAFFIC_S) for _ in range(count)):
        key = src.flow_key_for(rng.choice(hot))
        expected[key.bidirectional()]["packets"] += 1
        packet = tcp_packet(key.nw_src, key.nw_dst, key.tp_src, key.tp_dst, b"t" * 64)
        sim.schedule_at(sent_at, host.send, packet)

    phase.begin(hooks.begin)
    events_before = sim.executed_events
    handle = northbound.move_internal(src.name, dst.name, None, spec=TransferSpec.precopy(batch_size=512))
    sim.run_until(handle.finalized, limit=10_000)
    sim.run(until=sim.now + 0.5)
    result.sched_events = sim.executed_events - events_before
    phase.end(hooks.end)

    hooks.checking([dst])
    _finish_ops(result, [handle])
    _compare_store("bulk destination support store", dst.support_store, expected, result.errors)
    for label, store in (("source support", src.support_store), ("source report", src.report_store), ("destination report", dst.report_store)):
        if len(store):
            result.errors.append(f"bulk {label} store holds {len(store)} flows, expected none")
    counted = sum(value.get("packets", 0) for _, value in dst.support_store.items())
    if counted != count:
        result.errors.append(f"bulk per-flow packet counters sum to {counted}, {count} packets were scheduled")
    raised = src.counters.reprocess_events_raised
    forwarded = sum(record.events_forwarded for record in result.records)
    if forwarded != raised:
        result.errors.append(f"bulk loss-free move forwarded {forwarded} of {raised} re-process events")
    result.flows = len(dst.support_store)
    result.pkts = _instance_pkts(registry)
    result.ctrl_bytes = _ctrl_bytes(registry)
    return result


# =========================================================================================
# concurrent_moves
# =========================================================================================


def run_concurrent_moves(seed: int, registry: Registry, hooks: "Hooks") -> RoundResult:
    """CONC_MOVES simultaneous loss-free snapshot moves on a sharded, batching controller."""
    rng = random.Random(seed)
    result = RoundResult(registry=registry)
    phase = _Phase(result, sampled=hooks.sample_phase)
    sim = Simulator()
    controller = MBController(
        sim,
        ControllerConfig(quiescence_timeout=0.1, num_shards=CONC_SHARDS, dispatch_tick=CONC_DISPATCH_TICK),
    )
    northbound = NorthboundAPI(controller)
    topology = Topology(sim)
    pairs = []
    expected_support: List[Dict] = []
    expected_report: List[Dict] = []
    sent = 0
    for pair in range(CONC_MOVES):
        src = DummyMiddlebox(sim, f"conc-src-{pair}")
        dst = DummyMiddlebox(sim, f"conc-dst-{pair}")
        controller.register(src)
        controller.register(dst)
        host = _feeder(topology, src, pair)
        support, report = {}, {}
        for index in range(CONC_CHUNKS):
            key = src.flow_key_for(index)
            support[key.bidirectional()] = {"index": index, "data": _payload_text(rng, CHUNK_DATA_BYTES)}
            report[key.bidirectional()] = {"index": index, "bytes": rng.randrange(1, 1 << 20)}
            src.support_store.put(key, dict(support[key.bidirectional()]))
            src.report_store.put(key, dict(report[key.bidirectional()]))
        # The re-process stream: CONC_PKT_RATE packets/s over CONC_PKT_S
        # at seeded instants and flows.  The snapshot get marks every flow
        # within the first millisecond, so nearly every packet raises a
        # re-process event; either way each bumps its flow's counter once.
        for _ in range(int(CONC_PKT_RATE * CONC_PKT_S)):
            index = rng.randrange(CONC_CHUNKS)
            canonical = src.flow_key_for(index).bidirectional()
            support[canonical]["packets"] = support[canonical].get("packets", 0) + 1
            sim.schedule_at(rng.uniform(1e-5, CONC_PKT_S), host.send, _packet_for(src, index))
            sent += 1
        pairs.append((src, dst))
        expected_support.append(support)
        expected_report.append(report)

    phase.begin(hooks.begin)
    events_before = sim.executed_events
    handles = [northbound.move_internal(src.name, dst.name, None, spec="loss_free") for src, dst in pairs]
    for handle in handles:
        sim.run_until(handle.finalized, limit=5000)
    sim.run(until=sim.now + 0.5)
    result.sched_events = sim.executed_events - events_before
    phase.end(hooks.end)

    hooks.checking([dst for _, dst in pairs])
    _finish_ops(result, handles)
    for pair, (src, dst) in enumerate(pairs):
        _compare_store(f"{dst.name} support", dst.support_store, expected_support[pair], result.errors)
        _compare_store(f"{dst.name} report", dst.report_store, expected_report[pair], result.errors)
        if len(src.support_store) or len(src.report_store):
            result.errors.append(f"{src.name} still holds {len(src.support_store) + len(src.report_store)} flows")
        result.flows += len(dst.support_store)
    counted = sum(value.get("packets", 0) for _, dst in pairs for _, value in dst.support_store.items())
    if counted != sent:
        result.errors.append(f"concurrent per-flow packet counters sum to {counted}, {sent} packets were sent")
    raised = sum(src.counters.reprocess_events_raised for src, _ in pairs)
    forwarded = sum(record.events_forwarded for record in result.records)
    dropped = sum(record.events_dropped for record in result.records)
    if forwarded != raised or dropped:
        result.errors.append(f"concurrent loss-free moves forwarded {forwarded}/{raised} events, dropped {dropped}")
    result.pkts = _instance_pkts(registry)
    result.ctrl_bytes = _ctrl_bytes(registry)
    return result


# =========================================================================================
# lossy_reroute_move
# =========================================================================================


def run_lossy_reroute_move(seed: int, registry: Registry, hooks: "Hooks") -> RoundResult:
    """The chaos harness's order-preserving reroute move over lossy control and data planes.

    :func:`run_chaos` builds and runs the scenario in one call, so set-up ends
    (and the phase begins) at the scenario's first scheduler call, and the
    phase ends when its last scheduler call returns.
    """
    result = RoundResult(registry=registry)
    phase = _Phase(result, sampled=hooks.sample_phase)
    spec = ChaosSpec(
        seed=seed,
        guarantee="order_preserving",
        mode="precopy",
        profile="lossy",
        data_profile="lossy-data-plane",
        flows=LOSSY_FLOWS,
        packets=LOSSY_PACKETS,
        interval=LOSSY_INTERVAL,
        limit=60.0,
    )
    started: Dict[str, object] = {}
    original_run = Simulator.run

    def run(sim, until=None):
        if not started:
            started["sim"] = sim
            started["events"] = sim.executed_events
            phase.begin(hooks.begin)
        try:
            return original_run(sim, until)
        finally:
            started["end"] = phase.stamp()

    Simulator.run = run
    try:
        chaos = run_chaos(spec)
    finally:
        Simulator.run = original_run
    sim = started["sim"]
    result.sched_events = sim.executed_events - started["events"]
    phase.end(hooks.end, at=started["end"])

    result.attempted = 1
    if chaos.outcome != "completed":
        result.failed = 1
    else:
        result.durations.append(chaos.move_duration)
        result.freezes.append(chaos.freeze_window)
    for violation in chaos.violations:
        result.errors.append(f"chaos invariant: {violation}")
    instances = {mb.name: mb for mb in registry["middleboxes"]}
    hooks.checking([instances[DST]])
    journals = {name: {str(key): seqs for key, seqs in mb.flow_seqs().items()} for name, mb in instances.items()}
    _check_journals(journals, instances[SRC], result.errors)
    result.flows = len(journals[DST])
    result.pkts = _instance_pkts(registry)
    result.ctrl_bytes = _ctrl_bytes(registry)
    controller = registry["controllers"][0]
    result.records = list(controller.stats.records)
    result.chunks = sum(record.chunks_transferred for record in result.records)
    return result


def _check_journals(final_state: Dict[str, Dict[str, List[int]]], source: DummyMiddlebox, errors: List[str]) -> None:
    """Every sent seq exactly once across the final journals; each journal increasing.

    *final_state* maps instance -> flow -> the seq journal read back from
    the instance's store.  The traffic driver sends seqs 1..LOSSY_PACKETS
    round-robin over the flows (seq s belongs to flow (s - 1) % LOSSY_FLOWS);
    no instance dies in this scenario, so nothing is blackholed.
    """
    flow_names = {str(source.flow_key_for(index).bidirectional()): index for index in range(LOSSY_FLOWS)}
    seen: Dict[int, int] = {}
    for mb_name, journals in final_state.items():
        for flow, seqs in journals.items():
            if any(later <= earlier for earlier, later in zip(seqs, seqs[1:])):
                errors.append(f"lossy journal of {flow} at {mb_name} is not increasing")
            index = flow_names.get(flow)
            for seq in seqs:
                seen[seq] = seen.get(seq, 0) + 1
                if index is None or (seq - 1) % LOSSY_FLOWS != index:
                    errors.append(f"lossy seq {seq} recorded under the wrong flow {flow}")
                    return
    missing = [seq for seq in range(1, LOSSY_PACKETS + 1) if seq not in seen]
    doubled = [seq for seq, times in seen.items() if times != 1]
    foreign = [seq for seq in seen if not 1 <= seq <= LOSSY_PACKETS]
    if missing or doubled or foreign:
        errors.append(f"lossy journals: {len(missing)} seqs missing, {len(doubled)} repeated, {len(foreign)} never sent")
    leftovers = sum(len(seqs) for seqs in final_state.get(SRC, {}).values())
    if leftovers:
        errors.append(f"lossy source still holds {leftovers} seqs after the move finalized")


# =========================================================================================
# realtime_pingpong
# =========================================================================================


def run_realtime_pingpong(seed: int, registry: Registry, hooks: "Hooks") -> RoundResult:
    """PING_PAIRS dummy pairs moving their state back and forth on the wall-clock runtime."""
    rng = random.Random(seed)
    result = RoundResult(registry=registry)
    phase = _Phase(result, sampled=False)
    runtime = RuntimeConfig(mode="realtime").create()
    try:
        controller = MBController(
            runtime, ControllerConfig(quiescence_timeout=0.01, per_message_cost=40e-6, num_shards=PING_SHARDS)
        )
        northbound = NorthboundAPI(controller)
        topology = Topology(runtime)
        pairs = []
        hosts = {}
        for pair in range(PING_PAIRS):
            a = DummyMiddlebox(runtime, f"ping-a-{pair}")
            b = DummyMiddlebox(runtime, f"ping-b-{pair}")
            controller.register(a)
            controller.register(b)
            hosts[a.name] = _feeder(topology, a, 2 * pair)
            hosts[b.name] = _feeder(topology, b, 2 * pair + 1)
            for index in range(PING_CHUNKS):
                key = a.flow_key_for(index)
                a.support_store.put(key, {"index": index, "data": _payload_text(rng, CHUNK_DATA_BYTES)})
                a.report_store.put(key, {"index": index, "bytes": rng.randrange(1, 1 << 20)})
            pairs.append((a, b))
        packet_flows = [[rng.randrange(PING_CHUNKS) for _ in range(PING_PKTS_PER_MOVE)] for _ in range(PING_MOVES)]

        phase.begin(hooks.begin_realtime(runtime))
        events_before = runtime.executed_events
        handles = []
        for move in range(PING_MOVES):
            movers = [(a, b) if move % 2 == 0 else (b, a) for a, b in pairs]
            with phase.excluded():
                before = [(_store_snapshot(src.support_store), _store_snapshot(src.report_store)) for src, _ in movers]
            round_handles = [northbound.move_internal(src.name, dst.name, None) for src, dst in movers]
            # A small re-process stream: packets sent to each source as its
            # move starts.  One that lands after its flow's chunk was sealed
            # raises a re-process event replayed at the destination; one that
            # lands before is inside the chunk.  Either way it counts once.
            for src, _ in movers:
                for index in packet_flows[move]:
                    hosts[src.name].send(_packet_for(src, index))
            for handle in round_handles:
                runtime.run_until(handle.finalized, limit=runtime.now + 60.0)
            handles.extend(round_handles)
            # Every move has finalized and nothing is scheduled: check the
            # round, and take this round's loop sample (the wall-clock runtime
            # gets no SIGPROF sampler, whose interruptions would delay it).
            with phase.excluded():
                hooks.checking([dst for _, dst in movers])
                for (src, dst), (support, report) in zip(movers, before):
                    for index in packet_flows[move]:
                        canonical = src.flow_key_for(index).bidirectional()
                        support[canonical]["packets"] = support[canonical].get("packets", 0) + 1
                    _compare_store(f"move {move} {dst.name} support", dst.support_store, support, result.errors)
                    _compare_store(f"move {move} {dst.name} report", dst.report_store, report, result.errors)
                    if len(src.support_store) or len(src.report_store):
                        result.errors.append(f"move {move}: {src.name} still holds state")
                    result.flows += len(dst.support_store)
            phase.sample()
        runtime.run(until=runtime.now + 0.02)
        result.sched_events = runtime.executed_events - events_before
        phase.end(hooks.end)
    finally:
        leaks = runtime.close()
    if any(leaks.values()):
        result.errors.append(f"realtime runtime leaked work at close: {leaks}")
    _finish_ops(result, handles)
    result.pkts = _instance_pkts(registry)
    result.ctrl_bytes = _ctrl_bytes(registry)
    return result


@dataclass
class Hooks:
    """Callbacks at the phase boundaries (the traced run switches tracing there).

    ``before_check`` receives the destination instances just before their
    outputs are checked; the self-test uses it to corrupt one destination.
    ``sample_phase`` runs the in-phase loop sampler (off in traced rounds).
    """

    sample_phase: bool = True
    begin: Optional[Callable[[], None]] = None
    end: Optional[Callable[[], None]] = None
    on_runtime: Optional[Callable[[object], None]] = None
    before_check: Optional[Callable[[list], None]] = None

    def begin_realtime(self, runtime) -> Optional[Callable[[], None]]:
        if self.on_runtime is not None:
            self.on_runtime(runtime)
        return self.begin

    def checking(self, destinations: list) -> None:
        if self.before_check is not None:
            self.before_check(destinations)


RUNNERS = {
    "bulk_move": run_bulk_move,
    "concurrent_moves": run_concurrent_moves,
    "lossy_reroute_move": run_lossy_reroute_move,
    "realtime_pingpong": run_realtime_pingpong,
}
