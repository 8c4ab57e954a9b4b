"""Delay bookkeeping, per-node radio-state energy ledgers, and run reports."""

from __future__ import annotations

from dataclasses import dataclass

from .traffic import CLASSES, EMERGENCY, Packet

# Radio state indices; STATE_NAMES labels them in reports.
TX, RX, IDLE, SLEEP = 0, 1, 2, 3
STATE_NAMES = ("tx", "rx", "idle", "sleep")


class EnergyLedger:
    """Accumulates microseconds per radio state per node.

    Durations stay integers so the per-node total closes exactly on the
    run duration; energy converts on read (mW * us / 1000 = uJ). `power`
    is the draw per state in mW, in (TX, RX, IDLE, SLEEP) order, as
    SimConfig.power_mw gives it.
    """

    def __init__(self, node_ids, power: tuple[float, float, float, float]):
        self.power = power
        self._us = {n: [0, 0, 0, 0] for n in node_ids}

    def add(self, node: int, state: int, dt_us: int) -> None:
        if dt_us < 0:
            raise ValueError("negative duration")
        self._us[node][state] += dt_us

    def move(self, node: int, from_state: int, to_state: int, dt_us: int) -> None:
        """Reattribute dt_us from one state to another (keeps the total closed)."""
        if dt_us < 0:
            raise ValueError("negative duration")
        spans = self._us[node]
        spans[from_state] -= dt_us
        spans[to_state] += dt_us

    def state_us(self, node: int) -> tuple[int, int, int, int]:
        return tuple(self._us[node])

    def energy_uj(self, node: int, pending=(0, 0, 0, 0)) -> float:
        """Node's energy; `pending` is (TX, RX, IDLE, SLEEP) us not yet
        charged, added to the node's spans as integers before converting."""
        p = self.power
        s = self._us[node]
        return (
            (s[0] + pending[0]) * p[0]
            + (s[1] + pending[1]) * p[1]
            + (s[2] + pending[2]) * p[2]
            + (s[3] + pending[3]) * p[3]
        ) / 1000.0

    def total_energy_uj(self) -> float:
        return sum(self.energy_uj(n) for n in sorted(self._us))

    def node_ids(self):
        return sorted(self._us)


@dataclass
class ClassStats:
    generated: int = 0
    delivered: int = 0
    dropped: int = 0
    in_flight: int = 0
    mean_us: float | None = None
    median_us: float | None = None
    p95_us: float | None = None


@dataclass
class RunReport:
    duration_us: int
    classes: dict[str, ClassStats]
    mean_all_us: float | None
    delivered: int
    dropped: int
    generated: int
    node_state_us: dict[int, tuple[int, int, int, int]]
    node_energy_uj: dict[int, float]
    total_energy_uj: float
    energy_per_delivered_uj: float | None
    # Emergency deliveries per source: {src: (count, sum of delays in us)}.
    emergency_by_src: dict[int, tuple[int, int]]


def _percentile_nearest_rank(sorted_vals, q: float):
    n = len(sorted_vals)
    rank = max(1, -(-int(q * n * 100) // 100))  # ceil without float fuzz
    return float(sorted_vals[min(rank, n) - 1])


class MetricsCollector:
    """Counts generated/delivered/dropped packets and keeps delay samples."""

    def __init__(self):
        self._generated = {k: 0 for k in CLASSES}
        self._dropped = {k: 0 for k in CLASSES}
        self._delays = {k: [] for k in CLASSES}
        self._em_by_src: dict[int, list[int]] = {}  # src -> [count, sum_us]

    def record_generated(self, packet: Packet) -> None:
        self._generated[packet.klass] += 1

    def record_delivery(self, packet: Packet, delivery_time: int) -> None:
        if delivery_time <= packet.gen_time:
            raise ValueError("delivery must postdate generation")
        delay = delivery_time - packet.gen_time
        self._delays[packet.klass].append(delay)
        if packet.klass == EMERGENCY:
            tally = self._em_by_src.setdefault(packet.src, [0, 0])
            tally[0] += 1
            tally[1] += delay

    def record_drop(self, packet: Packet) -> None:
        self._dropped[packet.klass] += 1

    def summarize(self, ledger: EnergyLedger, duration_us: int, queues) -> RunReport:
        """The run's report; `queues` maps each class to its per-node queues,
        which hold every packet that has not left yet."""
        classes = {}
        all_delays = []
        total_delivered = 0
        total_dropped = 0
        total_generated = 0
        for klass in CLASSES:
            delays = self._delays[klass]
            all_delays.extend(delays)
            stats = ClassStats(
                generated=self._generated[klass],
                delivered=len(delays),
                dropped=self._dropped[klass],
                in_flight=sum(map(len, queues[klass])),
            )
            if stats.generated != stats.delivered + stats.dropped + stats.in_flight:
                raise RuntimeError(f"packet conservation broken for {klass}")
            if delays:
                srt = sorted(delays)
                stats.mean_us = sum(srt) / len(srt)
                mid = len(srt) // 2
                stats.median_us = (
                    float(srt[mid]) if len(srt) % 2 else (srt[mid - 1] + srt[mid]) / 2.0
                )
                stats.p95_us = _percentile_nearest_rank(srt, 0.95)
            classes[klass] = stats
            total_delivered += stats.delivered
            total_dropped += stats.dropped
            total_generated += stats.generated

        mean_all = sum(all_delays) / len(all_delays) if all_delays else None
        node_state = {n: ledger.state_us(n) for n in ledger.node_ids()}
        node_energy = {n: ledger.energy_uj(n) for n in ledger.node_ids()}
        total_energy = ledger.total_energy_uj()
        return RunReport(
            duration_us=duration_us,
            classes=classes,
            mean_all_us=mean_all,
            delivered=total_delivered,
            dropped=total_dropped,
            generated=total_generated,
            node_state_us=node_state,
            node_energy_uj=node_energy,
            total_energy_uj=total_energy,
            energy_per_delivered_uj=(
                total_energy / total_delivered if total_delivered else None
            ),
            emergency_by_src={src: tuple(t) for src, t in self._em_by_src.items()},
        )
