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

An exchange (sense window, backoff, data frame, the sink's ack) runs as
four events: the CCA, the end of the backoff, and the ends of the two
frames. When nothing is on the air as its attempt starts, and even its
longest backoff would end the ack strictly before the next queued event
and by the run's end, nothing can touch it: it is settled at once by
arithmetic, with the same backoff draw, energy spans, reassembly and trace
lines, and the node's next fragment is tried the same way. When the same
bound holds for the last of a normal packet's remaining fragments, with
the longest backoff and a gap for each, they all settle at once: the
draws are made one per fragment, and the rest is summed once per packet.
Reports, traces and sweep files are the same either way; only the number
of events dispatched differs.

Energy is baseline_us plus clipped moves, and the shared base charges the
baseline at the end of the run (see ArrivalProcess). The baseline has the
sink in RX and every member IDLE. A member listens while it holds a
packet: an arrival that finds it idle moves the rest of the run from IDLE
to RX, and running out of packets moves it back. Each data frame and each
ack moves its airtime, clipped to the run, from its sender's RX to TX.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .config import SimConfig
from .engine import SINK, Engine
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
        super().__init__(eng, nodes, metrics, ledger, cfg)
        self.fragment_size = cfg.resolved_fragment_size()
        self.ack_air_us = eng.airtime(cfg.ack_bytes)
        self.reassembler = SinkReassembler()

        n = len(self._nq)
        self._frags = [None] * n
        self._frag_idx = [0] * n
        self._pending = [None] * n

        # Every normal packet carries cfg.payload_bytes, so all share one
        # fragment layout. _rest[i] describes fragments i.. of a packet
        # contended for from some instant t, with no backoff drawn yet:
        # (the last ack's latest end, its end with every backoff 0, both
        # less t; the data frames' airtime in all). See _settle.
        layout = fragment(
            Packet(-1, SINK, NORMAL, 0, cfg.payload_bytes), self.fragment_size, cfg.header_bytes
        )
        self._frag_air = [eng.airtime(f.payload_bytes + f.header_bytes) for f in layout]
        max_backoff = (cfg.backoff_slots_low - 1) * cfg.backoff_unit_us
        self._rest = []
        fixed, data = -cfg.fragment_gap_us, 0
        for k, air in enumerate(reversed(self._frag_air), 1):
            fixed += cfg.fragment_gap_us + cfg.ifs_low_us + air + self.ack_air_us
            data += air
            self._rest.append((fixed + k * max_backoff, fixed, data))
        self._rest.reverse()

    # -- energy ---------------------------------------------------------

    def baseline_us(self, node: int, t: int) -> tuple[int, int, int, int]:
        """The sink listens and every member idles over [0, t)."""
        return (0, t, 0, 0) if node == SINK else (0, 0, t, 0)

    # -- traffic --------------------------------------------------------

    def on_arrival(self, node: int, klass: str) -> None:
        pending = self._pending[node]
        if pending is None:
            self._move(node, IDLE, RX, self.eng.now, self.eng.duration_us)
            self._start_attempt(node, self.eng.now)
        elif klass == EMERGENCY and pending != ACK_WAIT and len(self._emq[node]) == 1:
            # Our only emergency preempts our own normal contention; the
            # partially sent packet keeps its cursor and resumes afterwards.
            self.eng.cancel(pending)
            self._start_attempt(node, self.eng.now)

    # -- one exchange ---------------------------------------------------

    # While a node contends, its attempt is an emergency exactly when its
    # emergency queue is non-empty: an emergency arriving during a normal
    # attempt restarts the attempt, and a packet leaves its queue only at an
    # ack or an ack timeout, never while its node contends.

    def _contention(self, node: int) -> tuple[int, int]:
        """(IFS, backoff slots) of the node's attempt: its sense window is
        the IFS that ends at the CCA."""
        cfg = self.cfg
        if self._emq[node]:
            return cfg.ifs_high_us, cfg.backoff_slots_high
        return cfg.ifs_low_us, cfg.backoff_slots_low

    def _backoff(self, node: int, slots: int) -> int:
        return self._rng[node].randrange(slots) * self.cfg.backoff_unit_us

    def _data_frame(self, node: int) -> tuple[int, str, tuple, str]:
        """The node's next data frame: (bytes, kind, (packet, idx, fragment),
        trace label); idx is -1 and fragment None for a whole emergency."""
        traced = self.eng.trace is not None
        if self._emq[node]:
            packet = self._emq[node][0]
            label = f" id={packet.pid}" if traced else ""
            nbytes = packet.payload_bytes + self.cfg.header_bytes
            return nbytes, self.DATA_WHOLE, (packet, -1, None), label
        packet = self._nq[node][0]
        frags = self._frags[node]
        if frags is None:  # the packet's first frame: a fresh cursor
            frags = self._frags[node] = fragment(
                packet, self.fragment_size, self.cfg.header_bytes
            )
            self._frag_idx[node] = 0
        idx = self._frag_idx[node]
        frag = frags[idx]
        label = f" id={packet.pid} frag={idx + 1}/{frag.count}" if traced else ""
        return frag.payload_bytes + frag.header_bytes, self.DATA_FRAG, (packet, idx, frag), label

    def _ack_label(self, target: int, packet: Packet) -> str:
        return f" to={target} id={packet.pid}" if self.eng.trace is not None else ""

    def _received(self, packet: Packet, frag: Fragment | None) -> bool:
        """The sink takes a clean data frame; True when its ack is final.

        A delivered packet has left its queue and is never sent again, so
        the ack is final for a clean whole frame, or once every fragment has
        reached the sink.
        """
        if frag is None:
            return True
        self.reassembler.receive(frag)
        return self.reassembler.is_complete(packet.pid)

    # -- channel access -------------------------------------------------

    def _start_attempt(self, node: int, at: int) -> None:
        """Contend from `at`: settle exchanges by arithmetic while they
        qualify (see _settle), then queue the next one's CCA as an event."""
        ack = self._settle(node, at)
        while ack is not None:
            at = self._ack_received(*ack)
            if at is None:
                return  # the node has nothing left to send
            ack = self._settle(node, at)
        ifs, _slots = self._contention(node)
        self._pending[node] = self.eng.schedule(at + ifs, node, self._cca_done, node)

    def _settle(self, node: int, at: int):
        """Run the exchange that contends from `at` as arithmetic, if it qualifies.

        It qualifies when nothing is on the air and even the longest backoff
        ends the ack strictly before the next queued event and no later than
        the run's end. Then nothing can happen between now and the ack's
        end: a node acts, and a frame starts or ends, only at an event. So
        the sense window is clear, the backoff draw (from the node's own
        substream, as at a CCA) is the one the events would make, and
        neither frame can be corrupted. The spans, the sink's reassembly,
        the channel's last end and the trace lines are those the events
        would leave, and a node that senses later sees the same channel.
        Returns the ack's (target, final, packet, idx) with the clock at the
        ack's end, or None, having drawn nothing, when the exchange must run
        through events.

        A normal packet's remaining fragments settle at once (_settle_rest)
        when the same bound holds for the last of them: their longest
        backoffs, with a gap after each ack but the last, end its ack
        strictly before the next event and by the run's end. Each exchange would then
        qualify in turn, since settling schedules nothing and ends the air
        clear. Otherwise this one exchange settles, if it qualifies alone.
        """
        eng = self.eng
        nxt = eng.queue.peek()
        if nxt is not None and nxt <= at:
            return None  # as when deferring to a frame on the air: its end is queued
        if eng.channel.busy_until(eng.now) != eng.now:
            return None  # a frame on the air outlasts the exchange
        if not self._emq[node]:
            first = 0 if self._frags[node] is None else self._frag_idx[node]
            latest = at + self._rest[first][0]
            if latest <= eng.duration_us and (nxt is None or latest < nxt):
                return self._settle_rest(node, at, first)
        ifs, slots = self._contention(node)
        nbytes, kind, meta, label = self._data_frame(node)
        data_air = eng.airtime(nbytes)
        ack_air = self.ack_air_us
        cca = at + ifs
        longest = cca + (slots - 1) * self.cfg.backoff_unit_us + data_air + ack_air
        if longest > eng.duration_us or (nxt is not None and longest >= nxt):
            return None

        start = cca + self._backoff(node, slots)
        data_end = start + data_air
        end = data_end + ack_air
        packet, idx, frag = meta
        final = self._received(packet, frag)
        self.ledger.move(node, RX, TX, data_air)  # both frames end in the run
        self.ledger.move(SINK, RX, TX, ack_air)
        eng.record_tx(node, start, data_end, kind, label)
        eng.record_tx(SINK, data_end, end, self.ACK, self._ack_label(node, packet))
        eng.now = end
        return node, final, packet, idx

    def _settle_rest(self, node: int, at: int, first: int):
        """Settle fragments first.. of the node's normal packet, contended
        for from `at`, as _settle would one exchange at a time: the same
        backoff draws in the same order, and the same trace lines, spans in
        sum and channel end. Stop-and-wait sends a fragment only after the
        previous one's clean ack, so the last ack is final without the
        reassembler. Returns that ack, with the clock at its end."""
        eng = self.eng
        cfg = self.cfg
        packet = self._nq[node][0]
        count = len(self._frag_air)
        _latest, fixed, data_air = self._rest[first]
        draws = list(map(self._rng[node].randrange, repeat(cfg.backoff_slots_low, count - first)))
        end = at + fixed + sum(draws) * cfg.backoff_unit_us
        if eng.trace is not None:
            ack_label = self._ack_label(node, packet)
            t = at - cfg.fragment_gap_us
            for idx, draw in enumerate(draws, first):
                start = t + cfg.fragment_gap_us + cfg.ifs_low_us + draw * cfg.backoff_unit_us
                data_end = start + self._frag_air[idx]
                t = data_end + self.ack_air_us
                label = f" id={packet.pid} frag={idx + 1}/{count}"
                eng.record_tx(node, start, data_end, self.DATA_FRAG, label)
                eng.record_tx(SINK, data_end, t, self.ACK, ack_label)
        self.ledger.move(node, RX, TX, data_air)  # every frame ends in the run
        self.ledger.move(SINK, RX, TX, (count - first) * self.ack_air_us)
        eng.channel.note_end(end)
        eng.now = end
        return node, True, packet, count - 1

    def _cca_done(self, node: int) -> None:
        eng = self.eng
        ifs, slots = self._contention(node)
        if eng.channel.busy_in(eng.now - ifs, eng.now):
            self._start_attempt(node, eng.channel.busy_until(eng.now))
            return
        self._pending[node] = eng.schedule(
            eng.now + self._backoff(node, slots), node, self._tx_start, node
        )

    def _tx_start(self, node: int) -> None:
        eng = self.eng
        # Every frame on the air started by now, so one ending later covers now.
        until = eng.channel.busy_until(eng.now)
        if until > eng.now:
            self._start_attempt(node, until)  # someone else started during our backoff
            return
        nbytes, kind, meta, label = self._data_frame(node)
        self._pending[node] = ACK_WAIT
        tx = eng.begin_tx(node, nbytes, kind, self._on_data_end, meta, label)
        self._move(node, RX, TX, eng.now, tx.end)

    # -- frame completions ----------------------------------------------

    def _on_data_end(self, tx, corrupted: bool) -> None:
        node = tx.src
        packet, idx, frag = tx.meta
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
        self._send_ack(node, self._received(packet, frag), packet, idx)

    def _send_ack(self, target: int, final: bool, packet: Packet, idx: int) -> None:
        tx = self.eng.begin_tx(
            SINK, self.cfg.ack_bytes, self.ACK, self._on_ack_end,
            (target, final, packet, idx), self._ack_label(target, packet),
        )
        self._move(SINK, RX, TX, self.eng.now, tx.end)

    def _on_ack_end(self, tx, corrupted: bool) -> None:
        target, final, packet, idx = tx.meta
        if not corrupted:
            at = self._ack_received(target, final, packet, idx)
            if at is not None:
                self._start_attempt(target, at)
        else:
            # The target misses its ack; it times out ack_slack_us later.
            self.eng.schedule(
                self.eng.now + self.cfg.ack_slack_us,
                target,
                self._ack_timeout,
                (target, packet),
            )

    def _ack_received(self, node: int, final: bool, packet: Packet, idx: int) -> int | None:
        """The node takes its ack; returns when it contends next, or None
        when it goes idle."""
        self._pending[node] = None
        if final:
            self._deliver(node, packet)
            return self._next_packet(node, packet)
        self._retries[NORMAL][node] = 0  # each fragment gets its own budget
        self._frag_idx[node] = idx + 1
        return self.eng.now + self.cfg.fragment_gap_us

    def _ack_timeout(self, arg) -> None:
        node, packet = arg
        self._pending[node] = None
        at = self.eng.now
        if self._fail(node, packet, self.cfg.frog_max_retries):
            at = self._next_packet(node, packet)
        if at is not None:
            self._start_attempt(node, at)

    def _next_packet(self, node: int, gone: Packet) -> int | None:
        """Move on from a packet that has left its queue: now, when the node
        has another packet to send, or None once it goes IDLE."""
        if gone.klass == NORMAL:
            self._frags[node] = None  # the next normal packet gets a fresh cursor
            self.reassembler.forget(gone.pid)
        if self._emq[node] or self._nq[node]:
            return self.eng.now
        self._move(node, RX, IDLE, self.eng.now, self.eng.duration_us)
        return None
