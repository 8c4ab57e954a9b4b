"""Fragmentation-based CSMA MAC with priority-tiered channel access.

Low-priority packets travel as fragments separated by a fixed gap; the gap
is longer than the emergency contention worst case (short IFS plus maximum
backoff) but shorter than the low-priority IFS, so an emergency frame
always wins the spectrum between two fragments. The gap does not keep
other low-priority senders out: a backoff meets the channel again only at
its end, so a sender whose sense window was clean before someone else's
fragment may start inside that fragment's gap. Emergency packets go out
whole.

The sink (node 0) acknowledges every clean frame; a sender that misses an
ack retries the same frame after re-contending, and drops the packet
after frog_max_retries consecutive failures of one frame. An emergency
exchange in between neither renews nor spends a fragment's budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import SimConfig
from .engine import SINK, Engine, substream, tx_duration_us
from .metrics import IDLE, RX, TX, EnergyLedger, MetricsCollector
from .traffic import EMERGENCY, NORMAL, ArrivalProcess, NodeConfig, Packet

# `_pending` of a sender from the start of its data frame until the ack
# arrives or the ack timeout fires; otherwise `_pending` holds the handle of
# its IFS or backoff event, or None when it has nothing to send. Only an
# attempt still contending can be preempted. No handle is kept for the ack
# timeout, which is queued only when no clean ack can come and never cancelled.
ACK_WAIT = -1


@dataclass(slots=True)
class Fragment:
    packet_id: int
    index: int
    count: int
    payload_bytes: int
    header_bytes: int


def fragment(
    packet: Packet, fragment_size: int, header_bytes: int = SimConfig.header_bytes
) -> list[Fragment]:
    """Split a packet's payload into fragments; only the last may run short."""
    if packet.klass == EMERGENCY:
        raise ValueError("emergency packets are sent whole, never fragmented")
    if not 1 <= fragment_size <= packet.payload_bytes:
        raise ValueError(
            f"fragment_size must be in [1, {packet.payload_bytes}], got {fragment_size}"
        )
    count = -(-packet.payload_bytes // fragment_size)
    out = []
    remaining = packet.payload_bytes
    for i in range(count):
        size = fragment_size if remaining >= fragment_size else remaining
        remaining -= size
        out.append(Fragment(packet.pid, i, count, size, header_bytes))
    return out


class SinkReassembler:
    """Per-packet fragment collection at the sink, idempotent on retries."""

    __slots__ = ("_seen",)

    def __init__(self):
        self._seen = {}  # pid -> [expected count, set of indices, payload byte sum]

    def receive(self, frag: Fragment) -> bool:
        """Record one clean fragment; True when the packet just completed."""
        st = self._seen.get(frag.packet_id)
        if st is None:
            st = self._seen[frag.packet_id] = [frag.count, set(), 0]
        if frag.index in st[1]:
            return False  # duplicate retransmission
        st[1].add(frag.index)
        st[2] += frag.payload_bytes
        return len(st[1]) == st[0]

    def is_complete(self, pid: int) -> bool:
        st = self._seen.get(pid)
        return st is not None and len(st[1]) == st[0]

    def payload_bytes(self, pid: int) -> int:
        st = self._seen.get(pid)
        return st[2] if st is not None else 0

    def forget(self, pid: int) -> None:
        """Drop a packet's entry once the packet has left its queue."""
        self._seen.pop(pid, None)


class FrogMac(ArrivalProcess):
    """Event-driven implementation over the shared engine.

    One instance owns every node's state; radio visibility is still
    respected (senders act only on acks and timeouts, the sink only on
    clean receptions).
    """

    DATA_FRAG = "data-frag"
    DATA_WHOLE = "data-whole"
    ACK = "ack"

    def __init__(
        self,
        eng: Engine,
        nodes: list[NodeConfig],
        metrics: MetricsCollector,
        ledger: EnergyLedger,
        cfg: SimConfig,
    ):
        super().__init__(eng, nodes, metrics, cfg)
        self.ledger = ledger
        self.fragment_size = cfg.resolved_fragment_size()
        self.ack_air_us = tx_duration_us(cfg.ack_bytes, eng.bitrate_bps)
        self.reassembler = SinkReassembler()

        n = len(self._nq)
        self._frags = [None] * n
        self._frag_idx = [0] * n
        self._pending = [None] * n
        self._state = [IDLE] * n
        self._since = [0] * n
        self._rng = [substream(cfg.seed, i) for i in range(n)]

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        self._state[SINK] = RX  # the sink listens for the whole run
        self.start_arrivals()

    def finish(self) -> None:
        """Flush open energy spans up to the simulation end."""
        end = self.eng.duration_us
        for node in [SINK] + [nc.node_id for nc in self.nodes]:
            self.ledger.add(node, self._state[node], end - self._since[node])
            self._since[node] = end

    # -- helpers --------------------------------------------------------

    def _set_state(self, node: int, state: int) -> None:
        old = self._state[node]
        if state == old:
            return
        now = self.eng.now
        self.ledger.add(node, old, now - self._since[node])
        self._state[node] = state
        self._since[node] = now

    # -- traffic --------------------------------------------------------

    def on_arrival(self, node: int, klass: str) -> None:
        pending = self._pending[node]
        if pending is None:
            self._set_state(node, RX)
            self._start_attempt(node, self.eng.now)
        elif klass == EMERGENCY and pending != ACK_WAIT and len(self._emq[node]) == 1:
            # Our only emergency preempts our own normal contention; the
            # partially sent packet keeps its cursor and resumes afterwards.
            self.eng.cancel(pending)
            self._start_attempt(node, self.eng.now)

    # -- channel access -------------------------------------------------

    # While a node contends, its attempt is an emergency exactly when its
    # emergency queue is non-empty: an emergency arriving during a normal
    # attempt restarts the attempt, and a packet leaves its queue only at an
    # ack or an ack timeout, never while its node contends.

    def _start_attempt(self, node: int, at: int) -> None:
        if self._emq[node]:
            ifs = self.cfg.ifs_high_us
        else:
            ifs = self.cfg.ifs_low_us
            if self._frags[node] is None:
                self._frags[node] = fragment(
                    self._nq[node][0], self.fragment_size, self.cfg.header_bytes
                )
                self._frag_idx[node] = 0
        self._pending[node] = self.eng.schedule(at + ifs, node, self._cca_done, node)

    def _cca_done(self, node: int) -> None:
        eng = self.eng
        cfg = self.cfg
        if self._emq[node]:
            ifs, slots = cfg.ifs_high_us, cfg.backoff_slots_high
        else:
            ifs, slots = cfg.ifs_low_us, cfg.backoff_slots_low
        # The sense window is the IFS that ends now.
        if eng.channel.busy_in(eng.now - ifs, eng.now):
            self._defer(node)
            return
        backoff = self._rng[node].randrange(slots) * cfg.backoff_unit_us
        self._pending[node] = eng.schedule(eng.now + backoff, node, self._tx_start, node)

    def _defer(self, node: int) -> None:
        until = self.eng.channel.busy_until(self.eng.now)
        self._start_attempt(node, until)

    def _tx_start(self, node: int) -> None:
        eng = self.eng
        if eng.channel.busy_at(eng.now):
            self._defer(node)  # someone else started during our backoff
            return
        cfg = self.cfg
        if self._emq[node]:
            packet = self._emq[node][0]
            nbytes = packet.payload_bytes + cfg.header_bytes
            kind = self.DATA_WHOLE
            meta = (packet, -1, None)
            label = f" id={packet.pid}" if eng.trace is not None else ""
        else:
            idx = self._frag_idx[node]
            frag = self._frags[node][idx]
            packet = self._nq[node][0]
            nbytes = frag.payload_bytes + frag.header_bytes
            kind = self.DATA_FRAG
            meta = (packet, idx, frag)
            label = (
                f" id={packet.pid} frag={idx + 1}/{frag.count}"
                if eng.trace is not None
                else ""
            )
        self._set_state(node, TX)
        self._pending[node] = ACK_WAIT
        eng.begin_tx(node, nbytes, kind, self._on_data_end, meta, label)

    # -- frame completions ----------------------------------------------

    def _on_data_end(self, tx, corrupted: bool) -> None:
        node = tx.src
        packet, idx, frag = tx.meta
        self._set_state(node, RX)
        # The sender cannot see corruption; it waits for the ack either way.
        if corrupted:
            # No ack will come: time out ack_slack_us after it would have ended.
            self.eng.schedule(
                tx.end + self.ack_air_us + self.cfg.ack_slack_us,
                node,
                self._ack_timeout,
                (node, packet),
            )
            return
        # The sink acks at once, and the ack's end settles the wait.
        # A delivered packet has left its queue and is never sent again, so
        # the ack is final for a clean whole frame, or once every fragment
        # has reached the sink.
        if frag is not None:
            self.reassembler.receive(frag)
            final = self.reassembler.is_complete(packet.pid)
        else:
            final = True
        self._send_ack(node, final, packet, idx)

    def _send_ack(self, target: int, final: bool, packet: Packet, idx: int) -> None:
        eng = self.eng
        self._set_state(SINK, TX)
        label = f" to={target} id={packet.pid}" if eng.trace is not None else ""
        eng.begin_tx(
            SINK, self.cfg.ack_bytes, self.ACK, self._on_ack_end,
            (target, final, packet, idx), label,
        )

    def _on_ack_end(self, tx, corrupted: bool) -> None:
        self._set_state(SINK, RX)
        target, final, packet, idx = tx.meta
        if not corrupted:
            self._ack_received(target, final, packet, idx)
        else:
            # The target misses its ack; it times out ack_slack_us later.
            self.eng.schedule(
                self.eng.now + self.cfg.ack_slack_us,
                target,
                self._ack_timeout,
                (target, packet),
            )

    def _ack_received(self, node: int, final: bool, packet: Packet, idx: int) -> None:
        self._pending[node] = None
        if final:
            self._deliver(node, packet)
            self._next_packet(node, packet)
        else:
            self._retries[NORMAL][node] = 0  # each fragment gets its own budget
            self._frag_idx[node] = idx + 1
            self._start_attempt(node, self.eng.now + self.cfg.fragment_gap_us)

    def _ack_timeout(self, arg) -> None:
        node, packet = arg
        self._pending[node] = None
        if self._fail(node, packet, self.cfg.frog_max_retries):
            self._next_packet(node, packet)
        else:
            self._start_attempt(node, self.eng.now)

    def _next_packet(self, node: int, gone: Packet) -> None:
        """Move on from a packet that has left its queue: the next packet, or IDLE."""
        if gone.klass == NORMAL:
            self._frags[node] = None  # the next normal packet gets a fresh cursor
            self.reassembler.forget(gone.pid)
        if self._emq[node] or self._nq[node]:
            self._start_attempt(node, self.eng.now)
        else:
            self._set_state(node, IDLE)
