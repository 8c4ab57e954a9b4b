"""Two-class periodic traffic over a star topology, and what both MACs
share: a run's start and finish, packets' arrival, retry budget, delivery
and drop, per-node random substreams, and the energy rule (a closed-form
baseline plus clipped moves between the ledger's states).

Every member node reports monitoring data on a fixed interval; a chosen
subset additionally raises emergency events on a longer interval. Each
flow gets a random phase so detectors are de-synchronized, and the
emergency subset is the first k entries of one seed-fixed permutation so
sweeps over the subset size stay nested (adding detectors never reshuffles
the existing ones).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .config import SimConfig
from .engine import PHASE_STREAM_OFFSET, POPULATION_STREAM, Engine, ProtocolBug, substream

NORMAL = "NORMAL"
EMERGENCY = "EMERGENCY"
CLASSES = (EMERGENCY, NORMAL)

_DEFAULT = SimConfig()


@dataclass(slots=True)
class Packet:
    pid: int
    src: int
    klass: str
    gen_time: int
    payload_bytes: int


@dataclass(slots=True)
class NodeConfig:
    node_id: int
    x: float
    y: float
    emergency: bool
    normal_phase_us: int
    emergency_phase_us: int  # meaningful only when emergency is set


def build_population(
    n_total: int,
    n_emergency: int,
    seed: int,
    area_m: float = _DEFAULT.area_m,
    normal_interval_us: int = _DEFAULT.normal_interval_us,
    emergency_interval_us: int = _DEFAULT.emergency_interval_us,
) -> list[NodeConfig]:
    """Place member nodes uniformly in the square and pick emergency senders.

    Node ids are 1..n_total; the sink (id 0) sits at the square's center and
    is not part of the returned list. Positions and the detector permutation
    come from the population stream; phases come from per-node streams so a
    node's arrival process is identical across subset sizes.
    """
    rng = substream(seed, POPULATION_STREAM)
    coords = [(rng.uniform(0.0, area_m), rng.uniform(0.0, area_m)) for _ in range(n_total)]
    order = list(range(1, n_total + 1))
    rng.shuffle(order)
    chosen = set(order[:n_emergency])

    nodes = []
    for node_id in range(1, n_total + 1):
        phase_rng = substream(seed, PHASE_STREAM_OFFSET + node_id)
        normal_phase = phase_rng.randrange(normal_interval_us)
        emergency_phase = phase_rng.randrange(emergency_interval_us)
        x, y = coords[node_id - 1]
        nodes.append(
            NodeConfig(
                node_id=node_id,
                x=x,
                y=y,
                emergency=node_id in chosen,
                normal_phase_us=normal_phase,
                emergency_phase_us=emergency_phase,
            )
        )
    return nodes


class ArrivalProcess:
    """Both classes' packet arrivals at every member, queued per node.

    A MAC subclasses it and implements on_arrival(node, klass), which runs
    once the new packet is queued and the node's next arrival of that class
    is scheduled. Arrival events belong to the arriving node, and each one
    fires at its scheduled time, so the next arrival is one interval on.
    Pending arrivals are held only as events in the engine's queue.
    `queues` maps each class to its per-node queues, the only record of a
    packet that has not left. A packet leaves its queue only through
    _deliver or _drop, and only from the head of its class queue, so it
    leaves once. Each class head has one retry budget, counted by _fail
    and renewed when the head leaves. Node i draws from `_rng[i]`, its own
    substream of the seed.

    A run is start(), the engine's run, then finish(). A node's energy is
    its baseline plus moves. The MAC states the baseline once, as the
    closed form baseline_us(node, t) over [0, t), and moves clipped spans
    out of it with _move as they happen; finish() charges the baseline
    over the whole run. The ledger holds the moves alone until then, so
    mid-run `ledger.energy_uj(node, self.baseline_us(node, t))` reads a
    node's baseline up to t plus the moves made so far.
    """

    def __init__(
        self, eng: Engine, nodes: list[NodeConfig], metrics, ledger, cfg: SimConfig
    ):
        self.eng = eng
        self.nodes = nodes
        self.metrics = metrics
        self.ledger = ledger
        self.cfg = cfg
        self._next_pid = 0
        n = max(nc.node_id for nc in nodes) + 1
        self._emq = [deque() for _ in range(n)]
        self._nq = [deque() for _ in range(n)]
        self.queues = {EMERGENCY: self._emq, NORMAL: self._nq}
        # Failed attempts of each node's class head, by class.
        self._retries = {EMERGENCY: [0] * n, NORMAL: [0] * n}
        self._rng = [substream(cfg.seed, i) for i in range(n)]

    def on_arrival(self, node: int, klass: str) -> None:
        raise NotImplementedError

    def baseline_us(self, node: int, t: int) -> tuple[int, int, int, int]:
        """Node's (TX, RX, IDLE, SLEEP) us over [0, t) before any move."""
        raise NotImplementedError

    def _move(self, node: int, from_state: int, to_state: int, start: int, end: int) -> None:
        """Move node's ledger time in [start, end), clipped to the run, between states."""
        d = self.eng.duration_us
        if end > d:
            end = d
        if end > start:
            self.ledger.move(node, from_state, to_state, end - start)

    def start(self) -> None:
        """Schedule every flow's first arrival, node by node."""
        for nc in self.nodes:
            node = nc.node_id
            self.eng.schedule(nc.normal_phase_us, node, self._arrival_normal, node)
            if nc.emergency:
                self.eng.schedule(nc.emergency_phase_us, node, self._arrival_emergency, node)

    def finish(self) -> None:
        """Charge every node's baseline over the whole run to its ledger.

        Afterwards each node's states sum to the run's duration.
        """
        d = self.eng.duration_us
        for node in self.ledger.node_ids():
            for state, us in enumerate(self.baseline_us(node, d)):
                if us:
                    self.ledger.add(node, state, us)

    def _make_packet(self, node: int, klass: str) -> Packet:
        eng = self.eng
        p = Packet(self._next_pid, node, klass, eng.now, self.cfg.payload_bytes)
        self._next_pid += 1
        self.metrics.record_generated(p)
        if eng.trace is not None:
            eng.trace(eng.now, node, "arrival", f"class={klass} id={p.pid}")
        return p

    def _arrival_normal(self, node: int) -> None:
        self._nq[node].append(self._make_packet(node, NORMAL))
        eng = self.eng
        eng.schedule(eng.now + self.cfg.normal_interval_us, node, self._arrival_normal, node)
        self.on_arrival(node, NORMAL)

    def _arrival_emergency(self, node: int) -> None:
        self._emq[node].append(self._make_packet(node, EMERGENCY))
        eng = self.eng
        eng.schedule(eng.now + self.cfg.emergency_interval_us, node, self._arrival_emergency, node)
        self.on_arrival(node, EMERGENCY)

    def _pop_head(self, node: int, packet: Packet) -> None:
        q = self.queues[packet.klass][node]
        if not q or q[0] is not packet:
            raise ProtocolBug(
                f"packet {packet.pid} is not the head of node {node}'s {packet.klass} queue"
            )
        q.popleft()
        self._retries[packet.klass][node] = 0

    def _fail(self, node: int, packet: Packet, limit: int) -> bool:
        """Count one failed attempt of a class head; past limit, drop it and say so."""
        retries = self._retries[packet.klass]
        retries[node] += 1
        if retries[node] <= limit:
            return False
        self._drop(node, packet)
        return True

    def _deliver(self, node: int, packet: Packet) -> None:
        """Take a packet the sink has acknowledged off its queue and record it."""
        self._pop_head(node, packet)
        eng = self.eng
        now = eng.now
        self.metrics.record_delivery(packet, now)
        if eng.trace is not None:
            eng.trace(
                now, node, "delivery",
                f"id={packet.pid} class={packet.klass} delay={now - packet.gen_time}",
            )

    def _drop(self, node: int, packet: Packet) -> None:
        """Take a packet that ran out of retries off its queue and record it."""
        self._pop_head(node, packet)
        self.metrics.record_drop(packet)
        if self.eng.trace is not None:
            self.eng.trace(self.eng.now, node, "drop", f"id={packet.pid} class={packet.klass}")
