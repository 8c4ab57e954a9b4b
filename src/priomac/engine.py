"""Deterministic discrete-event core shared by both MAC protocols.

Time is integer microseconds so no float drift can reorder events. Ties
dispatch by (fire_time, owner node id, insertion order), and all
randomness comes from per-node substreams of the run seed, so one
(config, seed) pair always replays the same trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ._pykernels import Channel, EventQueue
from .config import SimConfig

SINK = 0  # cluster head / sink node id; members are 1..n

_MASK64 = (1 << 64) - 1
# Substream index offsets. MAC draws use the node id itself; phase draws and
# topology draws get their own streams so contention never perturbs them.
PHASE_STREAM_OFFSET = 1 << 16
POPULATION_STREAM = 1 << 20


class ProtocolBug(RuntimeError):
    """A protocol violated an engine contract (double transmit, past event)."""


def substream(seed: int, index: int) -> random.Random:
    """Independent RNG for one (seed, stream index) pair via splitmix64."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return random.Random(z ^ (z >> 31))


def tx_duration_us(nbytes: int, bitrate_bps: int = SimConfig.bitrate_bps) -> int:
    """Airtime of one frame, rounded up to a whole microsecond."""
    if nbytes < 1:
        raise ValueError("a frame must carry at least one byte")
    return (nbytes * 8 * 1_000_000 + bitrate_bps - 1) // bitrate_bps


@dataclass(slots=True)
class Transmission:
    src: int
    end: int
    kind: str
    on_end: object  # on_end(tx, corrupted) once it leaves the air, or None
    meta: object
    label: str


class Engine:
    """Event loop owning the virtual clock, event queue, and broadcast channel."""

    def __init__(
        self,
        duration_us: int,
        bitrate_bps: int = SimConfig.bitrate_bps,
        trace=None,
    ):
        self.now = 0
        self.duration_us = duration_us
        self.bitrate_bps = bitrate_bps
        self.queue = EventQueue()
        self.channel = Channel()
        self.trace = trace  # callable(time_us, node, kind, detail) or None
        self._airtime: dict[int, int] = {}  # frame bytes -> airtime us

    # -- events ---------------------------------------------------------

    def schedule(self, fire_time: int, owner: int, fn, arg=None) -> int:
        if fire_time < self.now:
            raise ProtocolBug(
                f"event scheduled in the past ({fire_time} < {self.now})"
            )
        return self.queue.push(fire_time, owner, fn, arg)

    def cancel(self, handle: int) -> None:
        self.queue.cancel(handle)

    # -- radio ----------------------------------------------------------

    def airtime(self, nbytes: int) -> int:
        """Airtime of a frame of nbytes at this engine's bitrate, in us."""
        air = self._airtime.get(nbytes)
        if air is None:
            air = self._airtime[nbytes] = tx_duration_us(nbytes, self.bitrate_bps)
        return air

    def begin_tx(
        self, src: int, nbytes: int, kind: str, on_end=None, meta=None, label: str = ""
    ) -> Transmission:
        if self.channel.on_air(src):
            raise ProtocolBug(f"node {src} is already transmitting")
        end = self.now + (self._airtime.get(nbytes) or self.airtime(nbytes))
        self.channel.begin(src, self.now, end)
        tx = Transmission(src, end, kind, on_end, meta, label)
        if self.trace is not None:
            self.trace(self.now, src, "tx-start", f"kind={kind}{label}")
        # Airtime is at least 1 us, so the end lies in the future.
        self.queue.push(end, src, self._end_tx, tx)
        return tx

    def _end_tx(self, tx: Transmission) -> None:
        corrupted = self.channel.finish(tx.src)
        if self.trace is not None:
            self.trace(
                self.now, tx.src, "tx-end",
                f"kind={tx.kind}{tx.label} corrupted={int(corrupted)}",
            )
        if tx.on_end is not None:
            tx.on_end(tx, corrupted)

    def record_tx(self, src: int, start: int, end: int, kind: str, label: str = "") -> None:
        """Record a frame on [start, end) that nothing can overlap, with no
        events: the channel and the trace are left as begin_tx and the
        frame's end would leave them, clean."""
        self.channel.note_end(end)
        if self.trace is not None:
            self.trace(start, src, "tx-start", f"kind={kind}{label}")
            self.trace(end, src, "tx-end", f"kind={kind}{label} corrupted=0")

    # -- main loop ------------------------------------------------------

    def run(self) -> None:
        """Dispatch events in order until the queue drains or time runs out.

        A run is one-shot: afterwards the queue, whose leftover events stay
        in flight, is dropped. It holds the MACs' bound methods, as events
        and as the end handlers of frames still on the air, and the MACs
        hold this engine, so keeping it would leave every finished run to
        the cyclic GC.
        """
        pop = self.queue.pop
        duration = self.duration_us
        while True:
            item = pop()
            if item is None:
                break
            t = item[0]
            if t > duration:
                break  # anything later stays in flight
            self.now = t
            item[2](item[3])
        self.now = duration
        self.queue = EventQueue()
