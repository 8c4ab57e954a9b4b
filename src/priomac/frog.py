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

A sender sends a frame only after the clean ack of the frame before it
(stop-and-wait), so the sink receives a packet's fragments in order and
holds the packet whole exactly when its last frame arrives clean. The
sink therefore keeps no record of fragments: the ack to a packet's last
frame is final, and its clean end delivers the packet (_Plan.is_last).

An exchange (sense window, backoff, data frame, the sink's ack) runs as
four events: the CCA, the end of the backoff, and the ends of the two
frames. When nothing is on the air as a node starts to contend, the
longest run of its next exchanges that nothing can touch is settled at
once by arithmetic: the run's longest backoffs, with a gap after each ack
but the last, must end its last ack strictly before the next queued event
and by the run's end. It may be one exchange, an emergency, or a normal
packet's fragments from its cursor up to the last. The backoffs are drawn
one per exchange in order, and the energy spans and trace lines are those
the events would leave. Reports, traces and sweep files are the same
either way; only the number of events dispatched differs.

Energy is baseline_us plus clipped moves, and the shared base charges the
baseline at the end of the run (see ArrivalProcess). The baseline has the
sink in RX and every member IDLE. A member listens while it holds a
packet: an arrival that finds it idle moves the rest of the run from IDLE
to RX, and running out of packets moves it back. Each data frame and each
ack moves its airtime, clipped to the run, from its sender's RX to TX.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, repeat

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
class _Plan:
    """How a packet of one class goes out: its data frames' kind and sizes,
    their contention (IFS and backoff slots), and prefix sums over the
    frames. `latest` and `fixed` sum each frame's exchange with the gap
    before it, at its longest backoff and at backoff 0; `air` sums the
    data airtime. Entry k covers frames 0..k-1, so entry 0 is 0."""

    kind: str
    ifs_us: int
    slots: int
    frame_bytes: list[int]
    latest: list[int]
    fixed: list[int]
    air: list[int]

    def is_last(self, idx: int) -> bool:
        """Whether frame idx is its packet's last, whose clean ack is final."""
        return idx + 1 == len(self.frame_bytes)


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
        self.ack_air_us = eng.airtime(cfg.ack_bytes)

        n = len(self._nq)
        self._frag_idx = [0] * n  # the next fragment of each node's normal head
        self._pending = [None] * n

        # Every packet carries cfg.payload_bytes, so all normal packets share
        # one fragment layout, where only the last fragment may run short,
        # and every emergency is one whole frame.
        size, payload = cfg.resolved_fragment_size(), cfg.payload_bytes
        self._normal_plan = self._build_plan(
            self.DATA_FRAG,
            [min(size, payload - at) + cfg.header_bytes for at in range(0, payload, size)],
            cfg.ifs_low_us, cfg.backoff_slots_low,
        )
        self._emergency_plan = self._build_plan(
            self.DATA_WHOLE, [cfg.payload_bytes + cfg.header_bytes],
            cfg.ifs_high_us, cfg.backoff_slots_high,
        )

    def _build_plan(self, kind: str, frame_bytes: list[int], ifs_us: int, slots: int) -> _Plan:
        cfg = self.cfg
        air = [self.eng.airtime(nbytes) for nbytes in frame_bytes]
        step = cfg.fragment_gap_us + ifs_us + self.ack_air_us
        fixed = list(accumulate((step + a for a in air), initial=0))
        longest = (slots - 1) * cfg.backoff_unit_us
        latest = [f + k * longest for k, f in enumerate(fixed)]
        data = list(accumulate(air, initial=0))
        return _Plan(kind, ifs_us, slots, frame_bytes, latest, fixed, data)

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

    def _plan_of(self, node: int) -> _Plan:
        """The plan of the node's attempt: its sense window is the IFS before the CCA."""
        return self._emergency_plan if self._emq[node] else self._normal_plan

    def _head(self, node: int) -> tuple[_Plan, Packet, int]:
        """The node's next data frame: its class's plan, its packet and the
        frame's index in the plan (an emergency's is 0)."""
        if self._emq[node]:
            return self._emergency_plan, self._emq[node][0], 0
        return self._normal_plan, self._nq[node][0], self._frag_idx[node]

    def _data_frame(self, node: int) -> tuple[int, str, tuple, str]:
        """The node's next data frame: (bytes, kind, (packet, idx, final), trace
        label), where final says whether the sink's ack to it is final."""
        plan, packet, idx = self._head(node)
        label = self._data_label(packet, idx) if self.eng.trace is not None else ""
        return plan.frame_bytes[idx], plan.kind, (packet, idx, plan.is_last(idx)), label

    def _data_label(self, packet: Packet, idx: int) -> str:
        if packet.klass == EMERGENCY:
            return f" id={packet.pid}"
        return f" id={packet.pid} frag={idx + 1}/{len(self._normal_plan.frame_bytes)}"

    def _ack_label(self, target: int, packet: Packet) -> str:
        return f" to={target} id={packet.pid}" if self.eng.trace is not None else ""

    # -- channel access -------------------------------------------------

    def _start_attempt(self, node: int, at: int) -> None:
        """Contend from `at`: settle runs of exchanges by arithmetic while
        they qualify (see _settle), then queue the next one's CCA as an event."""
        ack = self._settle(node, at)
        while ack is not None:
            at = self._ack_received(*ack)
            if at is None:
                return  # the node has nothing left to send
            ack = self._settle(node, at)
        ifs = self._plan_of(node).ifs_us
        self._pending[node] = self.eng.schedule(at + ifs, node, self._cca_done, node)

    def _settle(self, node: int, at: int):
        """Settle by arithmetic the longest run of the node's next exchanges,
        contending from `at`, that nothing can disturb.

        A run goes from the node's next frame (_head) up to at most its
        packet's last. It qualifies when nothing is on the air and, with the
        longest backoff for each frame and a gap after each ack but the
        last, its last ack ends strictly before the next queued event and by
        the run's end. Then nothing can happen until that ack ends: a node
        acts, and a frame starts or ends, only at an event, and settling
        schedules none. So every sense window is clear, each backoff draw
        (one per frame, in order, from the node's own substream) is the one
        its CCA would make, and no frame is corrupted. The spans, the
        channel's last end and the trace lines are those the events would
        leave. A run of one frame has a single exchange's bound, so a frame
        goes through events exactly when it would not qualify alone.

        Returns the run's last ack as (target, final, packet, idx), with the
        clock at its end, or None, having drawn nothing. The ack is final by
        the rule the events use (_Plan.is_last): exactly when the run
        reaches the packet's last frame. That is exact because a frame is
        sent only after the clean ack of the frame before it, so the sink
        holds the packet whole exactly when its last frame arrives clean,
        whether the earlier frames were settled or went through events.
        """
        eng = self.eng
        nxt = eng.queue.peek()
        if nxt is not None and nxt <= at:
            return None  # as when deferring to a frame on the air: its end is queued
        if eng.channel.busy_until(eng.now) != eng.now:
            return None  # a frame on the air outlasts the exchange
        plan, packet, first = self._head(node)
        gap = self.cfg.fragment_gap_us
        limit = eng.duration_us if nxt is None else min(nxt - 1, eng.duration_us)
        # Frames first..last-1 end by at - gap + latest[last] - latest[first].
        last = bisect_right(plan.latest, limit - at + gap + plan.latest[first]) - 1
        if last <= first:
            return None

        unit = self.cfg.backoff_unit_us
        draws = list(map(self._rng[node].randrange, repeat(plan.slots, last - first)))
        t = at - gap  # each frame contends one gap after the previous ack ends
        end = t + plan.fixed[last] - plan.fixed[first] + sum(draws) * unit
        if eng.trace is not None:
            ack_label = self._ack_label(node, packet)
            air = plan.air
            for idx, draw in enumerate(draws, first):
                start = t + gap + plan.ifs_us + draw * unit
                data_end = start + air[idx + 1] - air[idx]
                t = data_end + self.ack_air_us
                eng.record_tx(node, start, data_end, plan.kind, self._data_label(packet, idx))
                eng.record_tx(SINK, data_end, t, self.ACK, ack_label)
        self.ledger.move(node, RX, TX, plan.air[last] - plan.air[first])  # all end in the run
        self.ledger.move(SINK, RX, TX, (last - first) * self.ack_air_us)
        eng.channel.note_end(end)
        eng.now = end
        return node, plan.is_last(last - 1), packet, last - 1

    def _cca_done(self, node: int) -> None:
        eng = self.eng
        plan = self._plan_of(node)
        if eng.channel.busy_in(eng.now - plan.ifs_us, eng.now):
            self._start_attempt(node, eng.channel.busy_until(eng.now))
            return
        backoff = self._rng[node].randrange(plan.slots) * self.cfg.backoff_unit_us
        self._pending[node] = eng.schedule(eng.now + backoff, node, self._tx_start, node)

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
        packet, idx, final = tx.meta
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
        self._send_ack(node, final, packet, idx)

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
            self._frag_idx[node] = 0  # the next normal packet starts at its first fragment
        if self._emq[node] or self._nq[node]:
            return self.eng.now
        self._move(node, RX, IDLE, self.eng.now, self.eng.duration_us)
        return None
