"""TDMA MAC with an emergency indication slot and fuzzy slot priorities.

Frames have a fixed layout: an emergency indication slot (EIS) where
nodes holding urgent data contend with persistence probability p, a
control period where the cluster head broadcasts the slot schedule, and a
fixed number of data slots. A successfully acknowledged indication flips
the frame into emergency mode, which hands slots to every member holding
urgent data first (slot stealing); otherwise slots go to periodic
claimants. Within each group, slots are ordered by a Mamdani fuzzy score
over intra-cluster distance, residual energy, and slots required, with
the emergency bit composed crisply on top.

Members sleep outside the EIS, the control period, and their own slot;
the cluster head (node 0, the sink) listens for the whole frame except
while it broadcasts the schedule. Frames start on the grid k*frame_len,
so this baseline over [0, t) is a closed form of t (FrameGeometry,
baseline_us), and so are a frame's index and the next frame worth
running: the first one at or after the next arrival, whose time is the
top of the engine's event queue. Runs without queued traffic therefore
fast-forward across empty frames without touching RNG, channel state or
energy, traced or not. A trace writes one `skip from=<i> to=<j>` line for skipped frames i
to j - 1 (their schedule airtime is FrameGeometry.sink_tx_us), and `eis`,
`frame` and schedule `tx-start`/`tx-end` lines only for built frames.

Energy is baseline_us plus clipped moves, and the shared base charges the
baseline at the end of the run (see ArrivalProcess). Indications, slot
activity and the cluster head's acks move their spans as they happen. A
claimant's residual energy, read in the control period, adds its
baseline up to the frame's end to those moves as integers. The MAC also
keeps the set of members holding packets, so a frame costs the number
of its claimants, not the number of members.

Every random draw belongs to one member and comes from that member's own
substream: its EIS persistence coin, and the loss of an ack addressed to
it (EIS ack or slot ack). A lost ack is the receiver failing to hear it,
so it is the acked member's event, not the cluster head's. Keeping the
draw there also means adding a detector re-deals nobody else's outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import SimConfig
from .engine import SINK, Engine, ProtocolBug, tx_duration_us
from .fuzzy import priority_score
from .metrics import RX, SLEEP, TX, EnergyLedger, MetricsCollector
from .traffic import EMERGENCY, NORMAL, ArrivalProcess, NodeConfig

MODE_PERIODIC = "PERIODIC"
MODE_EMERGENCY = "EMERGENCY"


class FrameGeometry:
    """Microsecond layout of one TDMA frame, fixed for a whole run."""

    def __init__(self, cfg: SimConfig):
        bitrate = cfg.bitrate_bps
        self.ind_air = tx_duration_us(cfg.indication_bytes, bitrate)
        self.ack_air = tx_duration_us(cfg.ack_bytes, bitrate)
        self.data_air = tx_duration_us(cfg.payload_bytes + cfg.header_bytes, bitrate)
        self.sched_air = tx_duration_us(cfg.schedule_bytes, bitrate)
        guard = cfg.slot_guard_us
        self.eis_len = self.ind_air + self.ack_air + guard
        self.ctrl_len = self.sched_air + guard
        self.slot_len = self.data_air + self.ack_air + guard
        self.data_offset = self.eis_len + self.ctrl_len
        self.frame_len = self.data_offset + cfg.slots_per_frame * self.slot_len

    def member_awake_us(self, t: int) -> int:
        """A member's baseline awake (RX) us over [0, t): each frame's EIS and control period."""
        k, r = divmod(t, self.frame_len)
        return k * self.data_offset + min(r, self.data_offset)

    def sink_tx_us(self, t: int) -> int:
        """The cluster head's baseline TX us over [0, t): each frame's schedule broadcast."""
        k, r = divmod(t, self.frame_len)
        return k * self.sched_air + min(max(r - self.eis_len, 0), self.sched_air)

    def slot_span(self, frame_start: int, i: int) -> tuple[int, int]:
        s = frame_start + self.data_offset + i * self.slot_len
        return s, s + self.slot_len


@dataclass(slots=True)
class FuzzyInputs:
    distance_m: float
    residual_energy_uj: float
    slots_required: int
    emergency_bit: int


@dataclass(slots=True)
class SlotRequest:
    inputs: FuzzyInputs
    normal_queued: int


def build_frame(
    start: int,
    mode: str,
    requests: dict[int, SlotRequest],
    geom: FrameGeometry,
    diag_m: float,
    initial_energy_uj: float,
    slots_per_frame: int,
) -> list[tuple[int, int, int, str]]:
    """One frame's data slots from per-node claims: (start, end, node, purpose).

    EMERGENCY mode seats every emergency-flagged claimant first (stealing
    slots from periodic traffic); the remaining slots go to periodic
    claimants. Each group is ordered by fuzzy priority, ties by node id.
    A member appears at most once per frame.
    """

    def score(node: int) -> float:
        inp = requests[node].inputs
        d = inp.distance_m / diag_m
        if d > 1.0:
            d = 1.0
        e = inp.residual_energy_uj / initial_energy_uj
        if e < 0.0:
            e = 0.0
        elif e > 1.0:
            e = 1.0
        s = inp.slots_required / slots_per_frame
        if s > 1.0:
            s = 1.0
        return priority_score(d, e, s, inp.emergency_bit)

    claimants = sorted(requests)
    emergency_group = []
    periodic_group = []
    for node in claimants:
        req = requests[node]
        if mode == MODE_EMERGENCY and req.inputs.emergency_bit:
            emergency_group.append(node)
        elif req.normal_queued > 0:
            periodic_group.append(node)

    if len(emergency_group) > 1:
        emergency_group.sort(key=lambda n: (-score(n), n))
    if len(periodic_group) > 1:
        periodic_group.sort(key=lambda n: (-score(n), n))

    assignments = []
    for node in emergency_group:
        assignments.append((node, EMERGENCY))
    for node in periodic_group:
        assignments.append((node, NORMAL))
    assignments = assignments[:slots_per_frame]

    data_slots = []
    for i, (node, purpose) in enumerate(assignments):
        s, e = geom.slot_span(start, i)
        data_slots.append((s, e, node, purpose))
    return data_slots


class FpsMac(ArrivalProcess):
    """Event-driven TDMA protocol over the shared engine."""

    IND = "indication"
    EIS_ACK = "eis-ack"
    SCHED = "schedule"
    DATA = "data-whole"
    ACK = "ack"

    def __init__(
        self,
        eng: Engine,
        nodes: list[NodeConfig],
        metrics: MetricsCollector,
        ledger: EnergyLedger,
        cfg: SimConfig,
    ):
        super().__init__(eng, nodes, metrics, ledger, cfg)
        self.geom = FrameGeometry(cfg)
        self.initial_energy_uj = cfg.initial_energy_j * 1e6
        self.diag_m = cfg.area_m * math.sqrt(2.0)

        cx = cy = cfg.area_m / 2.0
        self._dist = {
            nc.node_id: math.hypot(nc.x - cx, nc.y - cy) for nc in nodes
        }

        # Members with a non-empty queue: the claimants of the next frame.
        self._holding = set()

        # Set by the EIS handlers of the one frame in flight, read by its control period.
        self._mode = MODE_PERIODIC
        self._eis_outcome = "empty"

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        super().start()
        self.eng.schedule(0, SINK, self._frame_start, None)

    # -- energy ---------------------------------------------------------

    def baseline_us(self, node: int, t: int) -> tuple[int, int, int, int]:
        """The cluster head sends each schedule and listens otherwise; a
        member listens in each EIS and control period and sleeps otherwise."""
        if node == SINK:
            tx = self.geom.sink_tx_us(t)
            return (tx, t - tx, 0, 0)
        awake = self.geom.member_awake_us(t)
        return (0, awake, 0, t - awake)

    # -- traffic --------------------------------------------------------

    def on_arrival(self, node: int, klass: str) -> None:
        self._holding.add(node)

    # -- frame cycle ------------------------------------------------------

    def _frame_start(self, _arg) -> None:
        f = self.eng.now
        if not self._holding:
            self._fast_forward(f)
            return
        emq = self._emq
        nq = self._nq
        snapshot = {}
        contenders = []
        # Node-id order: simultaneous indications start, and trace, in it.
        for m in sorted(self._holding):
            ne = len(emq[m])
            snapshot[m] = (ne, len(nq[m]))
            if ne:
                contenders.append(m)

        self._mode = MODE_PERIODIC
        self._eis_outcome = "empty"

        transmitters = []
        for m in contenders:
            if self._rng[m].random() < self.cfg.eis_persistence:
                transmitters.append(m)
        if contenders:
            self._eis_outcome = "no-tx" if not transmitters else "pending"
        if self.eng.trace is not None:
            self.eng.trace(
                f, SINK, "eis",
                f"idx={f // self.geom.frame_len} contenders={len(contenders)} transmitters={len(transmitters)}",
            )
        if transmitters:
            self.eng.schedule(f + self.cfg.cca_us, SINK, self._eis_transmit, transmitters)
        self.eng.schedule(f + self.geom.eis_len, SINK, self._control, (snapshot, contenders))

        nxt = f + self.geom.frame_len
        if nxt < self.eng.duration_us:
            self.eng.schedule(nxt, SINK, self._frame_start, None)

    def _fast_forward(self, f: int) -> None:
        """Skip frames that provably do nothing: no queued data at their start.

        Such frames draw no randomness and put nothing on the air, and their
        baseline is a closed form of time. Arrivals inside a skipped span
        belong to the first frame starting at or after them anyway (claims
        are snapshotted at frame start).
        With nothing held, the queue holds only arrivals (every member's
        next normal one at least), and fps cancels no event, so the queue's
        top is the next arrival's time.
        """
        frame_len = self.geom.frame_len
        idx = f // frame_len
        frames = -(-self.eng.duration_us // frame_len)  # those starting before the end
        # The first frame starting at or after the next arrival, never f itself.
        nxt = min(max(-(-self.eng.queue.peek() // frame_len), idx + 1), frames)
        if nxt < frames:
            self.eng.schedule(nxt * frame_len, SINK, self._frame_start, None)
        if self.eng.trace is not None:
            self.eng.trace(f, SINK, "skip", f"from={idx} to={nxt}")

    def _eis_transmit(self, transmitters: list[int]) -> None:
        start = self.eng.now
        end = start + self.geom.ind_air
        for m in transmitters:
            self._move(m, RX, TX, start, end)
            label = f" idx={start // self.geom.frame_len}" if self.eng.trace is not None else ""
            self.eng.begin_tx(
                m, self.cfg.indication_bytes, self.IND, self._on_ind_end, m, label
            )

    # -- transmission completions ----------------------------------------

    def _on_ind_end(self, tx, corrupted: bool) -> None:
        if corrupted:
            self._eis_outcome = "collision"
            return
        # A clean indication means exactly one member transmitted.
        winner = tx.meta
        now = self.eng.now
        self._move(SINK, RX, TX, now, now + self.geom.ack_air)
        self.eng.begin_tx(
            SINK, self.cfg.ack_bytes, self.EIS_ACK, self._on_eis_ack_end, winner
        )

    def _on_eis_ack_end(self, tx, corrupted: bool) -> None:
        winner = tx.meta
        if corrupted:
            raise ProtocolBug("EIS ack collided inside its own window")
        if self._rng[winner].random() < self.cfg.ack_loss_p:
            # Winner missed the ack: no mode switch, it re-contends next frame.
            self._eis_outcome = "ack-lost"
            return
        self._mode = MODE_EMERGENCY
        self._eis_outcome = f"winner={winner}"

    def _control(self, claims: tuple[dict[int, tuple[int, int]], list[int]]) -> None:
        snapshot, contenders = claims
        f = self.eng.now - self.geom.eis_len
        idx = f // self.geom.frame_len
        # A claimant's residual energy counts this whole frame's baseline,
        # clipped to the run.
        end = min(f + self.geom.frame_len, self.eng.duration_us)
        mode = self._mode
        # Contenders that did not unlock emergency mode burn one retry frame.
        if mode != MODE_EMERGENCY:
            for m in contenders:
                self._bump_retry(m, EMERGENCY)

        requests = {}
        for m, (ne, nn) in snapshot.items():
            residual = self.initial_energy_uj - self.ledger.energy_uj(m, self.baseline_us(m, end))
            requests[m] = SlotRequest(
                FuzzyInputs(self._dist[m], residual, ne + nn, 1 if ne else 0), nn
            )
        data_slots = build_frame(
            f, mode, requests, self.geom,
            self.diag_m, self.initial_energy_uj, self.cfg.slots_per_frame,
        )
        if self.eng.trace is not None:
            slots = ",".join(f"{n}:{p}" for _, _, n, p in data_slots)
            self.eng.trace(
                self.eng.now, SINK, "frame",
                f"idx={idx} start={f} mode={mode} eis={self._eis_outcome} slots=[{slots}]",
            )
        label = f" idx={idx}" if self.eng.trace is not None else ""
        self.eng.begin_tx(
            SINK, self.cfg.schedule_bytes, self.SCHED, self._on_sched_end, data_slots, label
        )

    def _on_sched_end(self, tx, corrupted: bool) -> None:
        if corrupted:
            raise ProtocolBug("schedule broadcast collided")
        for i, (s, _e, node, purpose) in enumerate(tx.meta):
            self.eng.schedule(s, node, self._slot_tx, (node, purpose, i))

    def _slot_tx(self, arg) -> None:
        node, purpose, slot_i = arg
        # A slot goes only to a member whose queue for it was non-empty at
        # the frame's start, and only the member's own slot ack or the EIS
        # retry bump, which runs before the schedule is built, takes a head.
        packet = self.queues[purpose][node][0]
        now = self.eng.now
        g = self.geom
        # Planned slot activity, charged up front: transmit, then listen for the ack.
        self._move(node, SLEEP, TX, now, now + g.data_air)
        self._move(node, SLEEP, RX, now + g.data_air, now + g.data_air + g.ack_air)
        label = (
            f" id={packet.pid} slot={slot_i}" if self.eng.trace is not None else ""
        )
        self.eng.begin_tx(
            node,
            packet.payload_bytes + self.cfg.header_bytes,
            self.DATA,
            self._on_data_end,
            (node, purpose, packet, slot_i),
            label,
        )

    def _on_data_end(self, tx, corrupted: bool) -> None:
        if corrupted:
            raise ProtocolBug("data slot collided; TDMA exclusivity broken")
        node, purpose, packet, slot_i = tx.meta
        now = self.eng.now
        self._move(SINK, RX, TX, now, now + self.geom.ack_air)
        label = f" to={node} id={packet.pid}" if self.eng.trace is not None else ""
        self.eng.begin_tx(
            SINK, self.cfg.ack_bytes, self.ACK, self._on_ack_end,
            (node, purpose, packet, slot_i), label,
        )

    def _on_ack_end(self, tx, corrupted: bool) -> None:
        if corrupted:
            raise ProtocolBug("slot ack collided inside its own slot")
        node, purpose, packet, slot_i = tx.meta
        now = self.eng.now
        if self._rng[node].random() < self.cfg.ack_loss_p:
            # Receiver missed the ack; the packet stays queued for the next frame.
            if self.eng.trace is not None:
                self.eng.trace(now, node, "ack-lost", f"id={packet.pid}")
            self._bump_retry(node, packet.klass)
            return
        self._deliver(node, packet)
        self._release(node)

    # -- retry bookkeeping -------------------------------------------------

    def _release(self, node: int) -> None:
        """Drop node from the holding set once it has sent its last packet."""
        if not self._emq[node] and not self._nq[node]:
            self._holding.discard(node)

    def _bump_retry(self, node: int, klass: str) -> None:
        """Count one failed frame for node's klass head; drop it past the limit."""
        if self._fail(node, self.queues[klass][node][0], self.cfg.fps_max_retry_frames):
            self._release(node)
