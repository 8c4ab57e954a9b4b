"""Energy ledger arithmetic, delay bookkeeping, and report invariants."""

import pytest

from priomac.config import SimConfig
from priomac.metrics import (
    IDLE,
    RX,
    SLEEP,
    TX,
    EnergyLedger,
    MetricsCollector,
    _percentile_nearest_rank,
)
from priomac.traffic import CLASSES, EMERGENCY, NORMAL, Packet


def ledger(nodes=(1,)):
    return EnergyLedger(nodes, SimConfig().power_mw)


def test_energy_update_oracle():
    led = ledger()
    led.add(1, TX, 1000)           # 52.2 mW for 1 ms = 52.2 uJ
    assert led.energy_uj(1) == pytest.approx(52.2, abs=1e-12)
    led.add(1, SLEEP, 1_000_000)   # 0.02 mW for 1 s = 20 uJ
    assert led.energy_uj(1) == pytest.approx(72.2, abs=1e-9)


def test_energy_update_accepts_zero_duration():
    led = ledger()
    led.add(1, RX, 500)
    led.add(1, RX, 500)
    led.add(1, TX, 0)
    assert led.state_us(1) == (0, 1000, 0, 0)


def test_energy_update_rejects_junk():
    led = ledger()
    with pytest.raises(ValueError):
        led.add(1, TX, -1)
    assert led.state_us(1) == (0, 0, 0, 0)


def test_move_keeps_total_closed():
    led = ledger()
    led.add(1, SLEEP, 1000)
    led.move(1, SLEEP, TX, 300)
    assert led.state_us(1) == (300, 0, 0, 700)
    assert sum(led.state_us(1)) == 1000
    with pytest.raises(ValueError):
        led.move(1, SLEEP, TX, -5)


def test_state_indices_match_names():
    assert (TX, RX, IDLE, SLEEP) == (0, 1, 2, 3)


def test_percentile_nearest_rank():
    assert _percentile_nearest_rank(list(range(1, 21)), 0.95) == 19.0
    assert _percentile_nearest_rank(list(range(1, 101)), 0.95) == 95.0
    assert _percentile_nearest_rank([5], 0.95) == 5.0
    assert _percentile_nearest_rank([1, 2], 0.5) == 1.0


def pkt(pid, klass=NORMAL, gen=1000, src=1):
    return Packet(pid, src, klass, gen, 34)


def queued(*packets):
    """Per-class queues of one node holding `packets`, shaped as a MAC's `queues`."""
    return {k: [[p for p in packets if p.klass == k]] for k in CLASSES}


def test_delivery_and_drop_are_exclusive_and_single():
    # A second exit of the same packet is refused at its queue head; see
    # test_traffic.py::test_a_packet_leaves_only_from_its_queue_head.
    m = MetricsCollector()
    p = pkt(1)
    m.record_generated(p)
    m.record_delivery(p, 3000)
    assert m.summarize(ledger(), 10_000, queued()).classes[NORMAL].mean_us == 2000


def test_emergency_delays_are_kept_per_source():
    m = MetricsCollector()
    deliveries = (
        (pkt(1, EMERGENCY, gen=0, src=3), 700),
        (pkt(2, NORMAL, gen=0, src=3), 5000),
        (pkt(3, EMERGENCY, gen=100, src=5), 400),
        (pkt(4, EMERGENCY, gen=1000, src=3), 1900),
        (pkt(5, NORMAL, gen=0, src=7), 9000),
    )
    for p, at in deliveries:
        m.record_generated(p)
        m.record_delivery(p, at)
    rep = m.summarize(ledger(), 10_000, queued())
    assert rep.emergency_by_src == {3: (2, 700 + 900), 5: (1, 300)}


def test_delivery_must_postdate_generation():
    m = MetricsCollector()
    p = pkt(2, gen=5000)
    m.record_generated(p)
    with pytest.raises(ValueError):
        m.record_delivery(p, 5000)


def test_summarize_basic_stats():
    m = MetricsCollector()
    led = ledger()
    led.add(1, TX, 1000)
    for i, delay in enumerate((100, 200, 300, 400)):
        p = pkt(i, gen=0)
        m.record_generated(p)
        m.record_delivery(p, delay)
    dropped = pkt(99, klass=EMERGENCY, gen=0)
    m.record_generated(dropped)
    m.record_drop(dropped)
    inflight = pkt(100, gen=0)
    m.record_generated(inflight)

    rep = m.summarize(led, 10_000, queued(inflight))
    ns = rep.classes[NORMAL]
    es = rep.classes[EMERGENCY]
    assert (ns.generated, ns.delivered, ns.dropped, ns.in_flight) == (5, 4, 0, 1)
    assert (es.generated, es.delivered, es.dropped, es.in_flight) == (1, 0, 1, 0)
    assert ns.mean_us == 250.0
    assert ns.median_us == 250.0
    assert ns.p95_us == 400.0
    assert es.mean_us is None
    assert rep.generated == rep.delivered + rep.dropped + 1
    assert rep.energy_per_delivered_uj == pytest.approx(52.2 / 4)


def test_summarize_flags_conservation_breach():
    m = MetricsCollector()
    a, b = pkt(1, gen=0), pkt(2, gen=0)
    m.record_generated(a)
    m.record_delivery(a, 100)
    m.record_delivery(b, 100)  # never generated: books no longer balance
    with pytest.raises(RuntimeError):
        m.summarize(ledger(), 1000, queued())
    # Generated, but neither queued, delivered nor dropped.
    lost = MetricsCollector()
    lost.record_generated(pkt(3, gen=0))
    with pytest.raises(RuntimeError):
        lost.summarize(ledger(), 1000, queued())


def test_summarize_empty_run():
    rep = MetricsCollector().summarize(ledger(), 1000, queued())
    assert rep.mean_all_us is None
    assert rep.energy_per_delivered_uj is None
    assert rep.delivered == rep.dropped == rep.generated == 0
