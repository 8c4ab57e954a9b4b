"""Timing rules, stop-and-wait fragments, and CSMA behavior of the frog MAC."""

import pytest

from priomac.config import SimConfig
from priomac.engine import SINK, Engine, substream, tx_duration_us
from priomac.frog import FrogMac
from priomac.metrics import EnergyLedger, MetricsCollector
from priomac.traffic import EMERGENCY, NORMAL, NodeConfig

from _frog_frames import EventPathFrogMac, assert_frames_are_sound


# -- timing invariants ----------------------------------------------------

def test_timing_defaults_hold_the_preemption_inequalities():
    SimConfig().validate()


def test_timing_rejects_slow_emergency_contention():
    # 320 + 3*160 = 800 fails to fit strictly inside the 800 us gap
    with pytest.raises(ValueError):
        SimConfig(ifs_high_us=320).validate()


def test_timing_rejects_short_low_priority_sensing():
    with pytest.raises(ValueError):
        SimConfig(ifs_low_us=800).validate()


def test_timing_rejects_negative_ack_slack():
    # A sender may not give up on an ack before the ack could have ended.
    with pytest.raises(ValueError):
        SimConfig(ack_slack_us=-1).validate()
    SimConfig(ack_slack_us=0).validate()


@pytest.mark.parametrize("field,kwargs", [
    ("backoff_slots_high", {"backoff_slots_high": 0}),  # a draw from range(0)
    ("backoff_slots_low", {"backoff_slots_low": 0}),
    ("backoff_unit_us", {"backoff_unit_us": -10}),  # a backoff ending before it began
    ("ifs_high_us", {"ifs_high_us": -1}),
    ("ifs_low_us", {"ifs_low_us": -1}),
    # negative spacings that satisfy both preemption inequalities
    ("ifs_high_us", {"ifs_high_us": -800, "fragment_gap_us": -5}),
    ("fragment_gap_us", {"fragment_gap_us": -1}),
], ids=["slots-high", "slots-low", "unit", "ifs-high", "ifs-low", "ifs-high-gap", "gap"])
def test_timing_rejects_out_of_range_spacing(field, kwargs):
    with pytest.raises(ValueError, match=field):
        SimConfig(**kwargs).validate()


# -- MAC scenarios ---------------------------------------------------------

def make_mac(
    nodes, duration_us, fragment_size=8, seed=1, trace=None, mac_class=FrogMac, **overrides
):
    eng = Engine(duration_us=duration_us, trace=trace)
    metrics = MetricsCollector()
    cfg = SimConfig(seed=seed, fragment_size=fragment_size, **overrides)
    ledger = EnergyLedger([SINK] + [n.node_id for n in nodes], cfg.power_mw)
    mac = mac_class(eng, nodes, metrics, ledger, cfg)
    return eng, mac, metrics, ledger


def lone_sender(phase_us=0):
    return [NodeConfig(1, 10.0, 10.0, False, phase_us, 0)]


def test_uncontended_packet_uses_every_fragment_once():
    rec = []
    eng, mac, metrics, ledger = make_mac(
        lone_sender(), 40_000, trace=lambda t, n, k, d: rec.append((t, n, k, d))
    )
    mac.start()
    eng.run()
    frag_starts = [d for _, n, k, d in rec if n == 1 and k == "tx-start"]
    assert len(frag_starts) == 5
    assert [d.split("frag=")[1] for d in frag_starts] == [
        "1/5", "2/5", "3/5", "4/5", "5/5"
    ]
    rep = metrics.summarize(ledger, 40_000, mac.queues)
    assert rep.classes[NORMAL].delivered == 1


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("fragment_size", [2, 8, 34])
def test_each_uncontended_delay_is_the_arithmetic_of_its_draws(fragment_size, traced):
    # A lone sender's packets meet no other frame and, 0.1 s apart, never
    # wait for each other. So each normal delay is, per fragment, the low
    # IFS, its backoff, its airtime and the ack's, plus a gap between two
    # fragments. The backoffs are re-drawn in order from the node's own
    # substream, and the delays are read as the metrics record them.
    cfg = SimConfig(fragment_size=fragment_size, normal_interval_s=0.1)
    duration = 2_000_000
    eng, mac, metrics, ledger = make_mac(
        lone_sender(), duration, fragment_size=fragment_size, normal_interval_s=0.1,
        trace=(lambda *line: None) if traced else None,
    )
    delays = []
    record_delivery = metrics.record_delivery

    def recorded(packet, at):
        delays.append(at - packet.gen_time)
        record_delivery(packet, at)

    metrics.record_delivery = recorded
    mac.start()
    eng.run()

    count = -(-cfg.payload_bytes // fragment_size)
    sizes = [fragment_size] * (count - 1) + [cfg.payload_bytes - fragment_size * (count - 1)]
    rng = substream(cfg.seed, 1)
    expected = [
        sum(
            cfg.ifs_low_us + rng.randrange(cfg.backoff_slots_low) * cfg.backoff_unit_us
            + tx_duration_us(size + cfg.header_bytes) + tx_duration_us(cfg.ack_bytes)
            for size in sizes
        ) + (count - 1) * cfg.fragment_gap_us
        for _ in delays
    ]
    assert len(delays) == 20
    assert delays == expected


def test_energy_states_close_on_the_duration():
    nodes = [
        NodeConfig(1, 1.0, 1.0, False, 0, 0),
        NodeConfig(2, 2.0, 2.0, True, 4_000, 20_000),
    ]
    eng, mac, metrics, ledger = make_mac(nodes, 150_000)
    mac.start()
    eng.run()
    mac.finish()
    for node in (SINK, 1, 2):
        assert sum(ledger.state_us(node)) == 150_000


def test_emergency_preempts_the_gap():
    # Node 1 is mid-packet; node 2's emergency lands in the first
    # inter-fragment gap and must own the channel before fragment 2.
    air0 = tx_duration_us(8 + 5)
    em_at = air0 + 2700  # after frag 1's ack for every backoff draw
    nodes = [
        NodeConfig(1, 1.0, 1.0, False, 0, 0),
        NodeConfig(2, 2.0, 2.0, True, 40_000_000, em_at),
    ]
    rec = []
    eng, mac, metrics, ledger = make_mac(
        nodes, 60_000, trace=lambda t, n, k, d: rec.append((t, n, k, d))
    )
    mac.start()
    eng.run()
    data_starts = [
        (t, n, d) for t, n, k, d in rec if k == "tx-start" and d.startswith("kind=data")
    ]
    after = [s for s in data_starts if s[0] > em_at]
    assert after[0][1] == 2
    assert after[0][2].startswith("kind=data-whole")
    rep = metrics.summarize(ledger, 60_000, mac.queues)
    assert rep.classes[EMERGENCY].delivered == 1
    assert rep.classes[EMERGENCY].mean_us <= 192 + 3 * 160 + 1248 + 352


@pytest.mark.parametrize("point", ["ifs", "backoff", "on-air", "ack-wait"])
def test_an_own_emergency_preempts_only_a_contending_fragment(point):
    # A lone sender's emergency cancels its own normal fragment while that
    # fragment still contends (IFS or backoff) and goes after ifs_high plus
    # a backoff. Once the fragment is on the air, the exchange (frame, then
    # the sink's ack) finishes first and the emergency takes the next gap.
    cfg = SimConfig()
    data_air = tx_duration_us(8 + cfg.header_bytes)
    ack_air = tx_duration_us(cfg.ack_bytes)
    max_backoff = (cfg.backoff_slots_high - 1) * cfg.backoff_unit_us

    def run(em_at):
        rec = []
        nodes = [NodeConfig(1, 10.0, 10.0, True, 0, em_at)]
        eng, mac, metrics, ledger = make_mac(
            nodes, 30_000, trace=lambda t, n, k, d: rec.append((t, n, k, d))
        )
        mac.start()
        eng.run()
        starts = [(t, d) for t, n, k, d in rec if n == 1 and k == "tx-start"]
        return rec, starts, metrics.summarize(ledger, 30_000, mac.queues)

    _, alone, _ = run(40_000_000)  # the emergency comes after the run
    t0 = alone[0][0]
    assert alone[0][1] == "kind=data-frag id=0 frag=1/5"
    assert t0 > cfg.ifs_low_us  # seed 1 draws a non-zero first backoff
    em_at = {
        "ifs": cfg.ifs_low_us // 2,
        "backoff": t0 - 1,
        "on-air": t0 + data_air // 2,
        "ack-wait": t0 + data_air + ack_air // 2,
    }[point]
    rec, starts, rep = run(em_at)
    assert rep.classes[EMERGENCY].delivered == 1
    if point in ("ifs", "backoff"):
        assert starts[0][1] == "kind=data-whole id=1"
        lo = em_at + cfg.ifs_high_us
        assert lo <= starts[0][0] <= lo + max_backoff
        assert starts[1][1] == "kind=data-frag id=0 frag=1/5"
    else:
        assert starts[0] == alone[0]
        frag_end = t0 + data_air
        ack_end = frag_end + ack_air
        assert (frag_end, 1, "tx-end", "kind=data-frag id=0 frag=1/5 corrupted=0") in rec
        assert (ack_end, SINK, "tx-end", "kind=ack to=1 id=0 corrupted=0") in rec
        assert starts[1][1] == "kind=data-whole id=1"
        lo = ack_end + cfg.fragment_gap_us + cfg.ifs_high_us
        assert lo <= starts[1][0] <= lo + max_backoff
        assert starts[2][1] == "kind=data-frag id=0 frag=2/5"


def tx_starts(rec, node=1):
    return [(t, d) for t, n, k, d in rec if n == node and k == "tx-start"]


def test_a_second_emergency_leaves_a_contending_emergency_alone():
    # Emergencies arrive every 100 us, inside the 192 us high-priority IFS.
    # Only the first starts an attempt; later ones queue behind it and must
    # not restart its contention, so it goes out after one IFS and the
    # node's first backoff draw.
    cfg = SimConfig()
    rec = []
    nodes = [NodeConfig(1, 10.0, 10.0, True, 40_000_000, 0)]
    eng, mac, metrics, ledger = make_mac(
        nodes, 2_000, trace=lambda t, n, k, d: rec.append((t, n, k, d)),
        emergency_interval_s=0.0001,
    )
    mac.start()
    eng.run()
    backoff = substream(cfg.seed, 1).randrange(cfg.backoff_slots_high) * cfg.backoff_unit_us
    assert tx_starts(rec)[0] == (cfg.ifs_high_us + backoff, "kind=data-whole id=0")


@pytest.mark.parametrize("overlap", [0, 1], ids=["ends-at-window-start", "ends-1us-inside"])
def test_the_sense_window_is_the_ifs_before_the_cca(overlap):
    # A lone sender's packet arrives at 5000 us, so it senses [5000, 6000).
    # A foreign frame that ends at 5000 us lies outside that window; one
    # that ends 1 us later overlaps it, and the sender defers one more IFS.
    cfg = SimConfig()
    arrive = 5_000
    noise_air = tx_duration_us(1)
    rec = []
    eng, mac, metrics, ledger = make_mac(
        lone_sender(arrive), 20_000, trace=lambda t, n, k, d: rec.append((t, n, k, d))
    )
    eng.schedule(arrive - noise_air + overlap, 99, lambda _: eng.begin_tx(99, 1, "noise"))
    mac.start()
    eng.run()
    backoff = substream(cfg.seed, 1).randrange(cfg.backoff_slots_low) * cfg.backoff_unit_us
    first = arrive + (1 + overlap) * cfg.ifs_low_us + backoff
    assert tx_starts(rec)[0] == (first, "kind=data-frag id=0 frag=1/5")


def test_a_foreign_frame_on_the_air_keeps_the_exchange_on_events():
    # Node 99, outside the MAC, holds the channel from before the packet
    # arrives until after the packet's first exchange could have ended, so
    # no event lies in the way but the sender must still defer. It does, as
    # its events do, and sends one IFS after the foreign frame.
    def run(mac_class):
        rec = []
        eng, mac, metrics, ledger = make_mac(
            lone_sender(5_000), 40_000, trace=lambda *line: rec.append(line),
            mac_class=mac_class,
        )
        eng.schedule(4_000, 99, lambda _: eng.begin_tx(99, 200, "noise"))
        mac.start()
        eng.run()
        return rec

    rec = run(FrogMac)
    assert rec == run(EventPathFrogMac)
    assert tx_starts(rec)[0][0] >= 4_000 + tx_duration_us(200) + SimConfig().ifs_low_us


def test_a_normal_arrival_leaves_a_contending_normal_attempt_alone():
    # Packets arrive every 500 us, inside the 1000 us low-priority IFS; only
    # an emergency may restart a normal attempt that is still contending.
    rec = []
    eng = Engine(duration_us=3000, trace=lambda t, n, k, d: rec.append((t, n, k, d)))
    metrics = MetricsCollector()
    cfg = SimConfig(normal_interval_s=0.0005)
    ledger = EnergyLedger([SINK, 1], cfg.power_mw)
    FrogMac(eng, lone_sender(), metrics, ledger, cfg).start()
    eng.run()
    starts = [t for t, n, k, d in rec if n == 1 and k == "tx-start"]
    assert starts and 1000 <= starts[0] <= 1000 + 7 * 160


def test_a_clean_exchange_cancels_no_event(monkeypatch):
    # A clean data frame queues no ack timeout, so a lone sender's packet
    # goes through without a single cancellation.
    cancels = []
    real_cancel = Engine.cancel

    def counting_cancel(self, handle):
        cancels.append(handle)
        real_cancel(self, handle)

    monkeypatch.setattr(Engine, "cancel", counting_cancel)
    eng, mac, metrics, ledger = make_mac(lone_sender(), 60_000)
    mac.start()
    eng.run()
    assert metrics.summarize(ledger, 60_000, mac.queues).classes[NORMAL].delivered == 1
    assert cancels == []


def run_jammed(target, em_at=None):
    """A lone sender whose every ack (target "ack") or data frame ("data") is jammed.

    The jammer is node 99, outside the MAC. With em_at, the sender's own
    emergency arrives then; only its fragments' frames are jammed, so the
    emergency goes through. The jammer reacts to the data frame's start
    line and end handler, which come only from a frame's events, while an
    exchange settled by arithmetic is written in one go and has no end
    handler; so the MAC here runs every exchange through events. Returns the trace, the
    report and the MAC; the trace passes the frame checks.
    """
    nodes = lone_sender()
    if em_at is not None:
        nodes = [NodeConfig(1, 10.0, 10.0, True, 0, em_at)]
    rec = []

    def trace(t, n, k, d):
        rec.append((t, n, k, d))
        if target == "data" and n == 1 and k == "tx-start":
            # One byte of noise from the frame's second microsecond on.
            eng.schedule(t + 1, 99, lambda _: eng.begin_tx(99, 1, "noise"))

    eng, mac, metrics, ledger = make_mac(
        nodes, 400_000, trace=trace, mac_class=EventPathFrogMac
    )
    mac.start()

    on_data_end = mac._on_data_end

    def jam(tx, corrupted):
        # Runs after the MAC's own handler, so the sink's ack is already
        # on the air; starting now guarantees the overlap.
        on_data_end(tx, corrupted)
        if tx.src == 1 and tx.kind == "data-frag" and not corrupted:
            eng.begin_tx(99, 11, "noise")

    if target == "ack":
        mac._on_data_end = jam
    eng.run()
    assert assert_frames_are_sound(rec, mac.cfg.frog_max_retries) > 0
    return rec, metrics.summarize(ledger, 400_000, mac.queues), mac


def test_retry_exhaustion_drops_the_packet():
    # A jammer node outside the MAC corrupts every ack, so the sender
    # burns all 8 retries and abandons the packet on the 9th attempt. An
    # emergency of its own, sent clean between two of those attempts,
    # does not renew the fragment's budget.
    for em_at in (None, 10_000, 20_000):
        rec, rep, _ = run_jammed("ack", em_at)
        assert rep.classes[NORMAL].dropped == 1
        assert rep.classes[NORMAL].delivered == 0
        attempts = [1 for _, n, k, d in rec if n == 1 and k == "tx-start" and "frag=1/5" in d]
        assert len(attempts) == 9  # initial try + max_retries
        assert any(k == "drop" for _, _, k, _ in rec)


@pytest.mark.parametrize("target", ["ack", "data"])
def test_a_retry_waits_out_the_ack_timeout(target):
    # Whether the ack or the data frame was lost, the sender retries only
    # after the timeout (data end + ack airtime + ack_slack_us) and a full
    # low-priority IFS, plus at most the largest backoff.
    t = SimConfig()
    ack_air = tx_duration_us(t.ack_bytes)
    rec, rep, _ = run_jammed(target)
    assert rep.classes[NORMAL].dropped == 1
    ends = [tm for tm, n, k, d in rec if n == 1 and k == "tx-end"]
    starts = [tm for tm, n, k, d in rec if n == 1 and k == "tx-start"]
    assert len(starts) == len(ends) == 1 + t.frog_max_retries
    lost = [1 for _, n, k, d in rec if k == "tx-end" and d.startswith(
        "kind=ack" if target == "ack" else "kind=data") and d.endswith("corrupted=1")]
    assert len(lost) == len(ends)
    for end, retry in zip(ends, starts[1:]):
        floor = end + ack_air + t.ack_slack_us + t.ifs_low_us
        assert floor <= retry <= floor + (t.backoff_slots_low - 1) * t.backoff_unit_us


def test_a_corrupted_final_fragment_is_sent_again_before_delivery():
    # A jammer outside the MAC spoils the first try of the last fragment
    # only: its data frame, or the sink's ack to it. The sender times out
    # and sends it again, and the packet is delivered once, at the clean
    # ack of that second try. When the ack was jammed, the sink takes the
    # last fragment clean twice; the second is a duplicate of a complete
    # packet, and its final ack is the one that delivers.
    for target, first_try in [
        ("data", [(1, "kind=data-frag id=0 frag=5/5 corrupted=1")]),
        ("ack", [(1, "kind=data-frag id=0 frag=5/5 corrupted=0"),
                 (SINK, "kind=ack to=1 id=0 corrupted=1")]),
    ]:
        rec, jammed = [], []

        def trace(t, n, k, d):
            rec.append((t, n, k, d))
            if k != "tx-start" or jammed:
                return
            last = [d for _, m, j, d in rec[:-1] if m == 1 and j == "tx-start"][-1:]
            if (n == 1 and target == "data" and d.endswith("frag=5/5")) or (
                n == SINK and target == "ack" and last == ["kind=data-frag id=0 frag=5/5"]
            ):
                jammed.append(t)
                eng.schedule(t + 1, 99, lambda _: eng.begin_tx(99, 1, "noise"))

        eng, mac, metrics, ledger = make_mac(
            lone_sender(), 60_000, trace=trace, mac_class=EventPathFrogMac
        )
        mac.start()
        eng.run()
        assert assert_frames_are_sound(rec, mac.cfg.frog_max_retries) == 1
        assert [d for _, d in tx_starts(rec)[-2:]] == ["kind=data-frag id=0 frag=5/5"] * 2
        ends = [(t, n, d) for t, n, k, d in rec if k == "tx-end" and n in (1, SINK)]
        assert [(n, d) for _, n, d in ends[-2 - len(first_try):]] == first_try + [
            (1, "kind=data-frag id=0 frag=5/5 corrupted=0"),
            (SINK, "kind=ack to=1 id=0 corrupted=0"),
        ]
        assert [t for t, _, k, _ in rec if k == "delivery"] == [ends[-1][0]]
        assert metrics.summarize(ledger, 60_000, mac.queues).classes[NORMAL].delivered == 1


@pytest.mark.parametrize("mac_class", [FrogMac, EventPathFrogMac], ids=["shipped", "events"])
@pytest.mark.parametrize("bound,offset", [
    ("next-event", 0), ("next-event", 1), ("run-end", -1), ("run-end", 0),
])
def test_an_exchange_settles_only_before_the_next_event_and_by_the_run_end(
    mac_class, bound, offset
):
    # A lone sender's packet goes as one fragment after a one-slot backoff,
    # so its exchange ends at the same instant T for every draw. A probe
    # owned by the sink and queued before the run fires at T + offset ahead
    # of the ack's end. The shipped MAC settles the exchange without a frame
    # event only if it ends strictly before the probe and no later than the
    # run's end; either way it leaves what the events leave.
    cfg = SimConfig(fragment_size=34, backoff_slots_low=1)
    end = (
        cfg.ifs_low_us + tx_duration_us(34 + cfg.header_bytes) + tx_duration_us(cfg.ack_bytes)
    )
    duration = end + offset if bound == "run-end" else 40_000
    eng, mac, metrics, ledger = make_mac(
        lone_sender(), duration, fragment_size=34, backoff_slots_low=1, mac_class=mac_class
    )
    frames = []
    begin_tx = eng.begin_tx

    def recorded_begin_tx(src, *args):
        frames.append(src)
        return begin_tx(src, *args)

    eng.begin_tx = recorded_begin_tx
    queued = []
    if bound == "next-event":
        eng.schedule(end + offset, SINK, lambda _: queued.append(len(mac._nq[1])))
    mac.start()
    eng.run()
    settled = offset >= (1 if bound == "next-event" else 0)
    assert (frames == []) == (settled and mac_class is FrogMac)
    delivered = metrics.summarize(ledger, duration, mac.queues).classes[NORMAL].delivered
    if bound == "next-event":
        assert queued == [1 - offset] and delivered == 1
    else:
        assert delivered == (offset >= 0)


# -- runs of exchanges settled at once -------------------------------------
#
# A lone sender at fragment size 2 with one backoff slot: its packet is 17
# fragments whose exchanges have no draw to vary, so every run's bound is
# exact. From an arrival at 0 fragment k's ack ends at ack_end(k), and the
# last one at PACKET_END.

WHOLE = {"fragment_size": 2, "backoff_slots_low": 1}
_T = SimConfig(**WHOLE)


def ack_end(k):
    exchange = _T.ifs_low_us + tx_duration_us(2 + _T.header_bytes) + tx_duration_us(_T.ack_bytes)
    return k * exchange + (k - 1) * _T.fragment_gap_us


PACKET_END = ack_end(17)


def count_data_frames(mac):
    """The nodes of every data frame the MAC sends through events, in a
    list that grows as it runs; a run settled by arithmetic builds none."""
    built = []
    data_frame = mac._data_frame

    def counted(node):
        built.append(node)
        return data_frame(node)

    mac._data_frame = counted
    return built


def taken_acks(mac):
    """(class, frame number) of every ack the MAC's senders take, in a list
    that grows as it runs; a run settled by arithmetic takes only its last."""
    taken = []
    ack_received = mac._ack_received

    def recorded(node, final, packet, idx):
        taken.append((packet.klass, idx + 1))
        return ack_received(node, final, packet, idx)

    mac._ack_received = recorded
    return taken


def run_lone(mac_class, duration, nodes=None, traced=True, setup=None, **overrides):
    """Run a lone sender; returns (trace, report, data frames built, setup's result)."""
    rec = []
    eng, mac, metrics, ledger = make_mac(
        nodes or lone_sender(), duration, trace=(lambda *line: rec.append(line)) if traced else None,
        mac_class=mac_class, **{**WHOLE, **overrides},
    )
    built = count_data_frames(mac)
    extra = setup(eng, mac) if setup else None
    mac.start()
    eng.run()
    mac.finish()
    return rec, metrics.summarize(ledger, duration, mac.queues), built, extra


@pytest.mark.parametrize("bound,offset", [
    ("next-event", 0), ("next-event", 1), ("run-end", -1), ("run-end", 0),
])
def test_a_packet_settles_whole_only_before_the_next_event_and_by_the_run_end(bound, offset):
    # A probe owned by the sink and queued before the run fires at
    # PACKET_END + offset, ahead of an ack ending then. The shipped MAC
    # settles the whole packet, building no data frame, only if its last
    # ack ends strictly before the probe and no later than the run's end.
    # Traced or not, it leaves the trace, the report and the probe's
    # reading that the events-only MAC leaves.
    duration = PACKET_END + offset if bound == "run-end" else PACKET_END + 10_000

    def probe(eng, mac):
        queued = []
        if bound == "next-event":
            eng.schedule(PACKET_END + offset, SINK, lambda _: queued.append(len(mac._nq[1])))
        return queued

    rec, rep, built, queued = run_lone(FrogMac, duration, setup=probe)
    events = run_lone(EventPathFrogMac, duration, setup=probe)
    assert (rec, rep, queued) == (events[0], events[1], events[3])
    assert run_lone(FrogMac, duration, traced=False, setup=probe)[1:] == (rep, built, queued)
    whole = offset >= (1 if bound == "next-event" else 0)
    assert (built == []) == whole
    assert len(events[2]) == 17
    if bound == "next-event":
        assert queued == [1 - offset] and rep.classes[NORMAL].delivered == 1
    else:
        assert rep.classes[NORMAL].delivered == (offset >= 0)


@pytest.mark.parametrize("em_at,frags_before,acks,built_nodes", [
    (5 * (PACKET_END + _T.fragment_gap_us) // 17 + 500, 5,
     [(NORMAL, 5), (EMERGENCY, 1), (NORMAL, 17)], []),
    (PACKET_END - 1, 17, [(NORMAL, 16), (NORMAL, 17), (EMERGENCY, 1)], [1]),
], ids=["in-an-ifs", "in-the-last-ack"])
def test_an_own_emergency_inside_the_bound_cuts_the_run_short(
    em_at, frags_before, acks, built_nodes
):
    # The node's own emergency arrival is a queued event inside the bound,
    # so the packet does not settle in one run from its first fragment.
    # Either fragments 1 to 5 settle, the emergency preempts fragment 6 in
    # its IFS and settles too (the CCA it cancels no longer bounds it), and
    # fragments 6 to 17 settle as a third run, so no data frame is built;
    # or fragments 1 to 16 settle, and fragment 17, in whose ack the
    # emergency arrives, goes through events while the emergency waits it
    # out. The trace and report are those of the events-only MAC.
    nodes = [NodeConfig(1, 10.0, 10.0, True, 0, em_at)]
    rec, rep, built, taken = run_lone(FrogMac, 100_000, nodes, setup=lambda _, mac: taken_acks(mac))
    events = run_lone(EventPathFrogMac, 100_000, nodes)
    assert (rec, rep) == events[:2]
    assert (taken, built) == (acks, built_nodes)
    assert rep.classes[NORMAL].delivered == rep.classes[EMERGENCY].delivered == 1
    assert [d for _, d in tx_starts(rec)].index("kind=data-whole id=1") == frags_before
    assert run_lone(FrogMac, 100_000, nodes, traced=False)[1:3] == (rep, built)


@pytest.mark.parametrize("k", [1, 8, 16])
@pytest.mark.parametrize("event", ["probe", "foreign-frame"])
def test_a_run_stops_at_an_event_and_the_packet_goes_on(event, k):
    # An event just after fragment k's ack: a probe owned by the sink, or a
    # foreign frame that holds the channel across fragment k+1's IFS.
    # Fragments 1 to k settle as one run. Fragment k+1 meets the event and
    # goes through events, the only data frame built, and the rest settle
    # as a second run that ends the packet. At k = 16 the events send the
    # last fragment, and the sink completes the packet from the first
    # run's fragments. Trace, report and probe reading are those of the
    # events-only MAC.
    def disturb(eng, mac):
        queued = []
        if event == "probe":
            eng.schedule(ack_end(k) + 1, SINK, lambda _: queued.append(len(mac._nq[1])))
        else:
            eng.schedule(ack_end(k) + 1, 99, lambda _: eng.begin_tx(99, 200, "noise"))
        return queued, taken_acks(mac)

    rec, rep, built, (queued, taken) = run_lone(FrogMac, 100_000, setup=disturb)
    events = run_lone(EventPathFrogMac, 100_000, setup=disturb)
    assert (rec, rep, queued) == (events[0], events[1], events[3][0])
    assert built == [1] and rep.classes[NORMAL].delivered == 1
    assert taken == [(NORMAL, n) for n in sorted({k, k + 1, 17})]
    assert queued == ([1] if event == "probe" else [])
    assert run_lone(FrogMac, 100_000, traced=False, setup=disturb)[1:3] == (rep, built)


def test_a_packet_settles_its_remaining_fragments_after_some_went_through_events():
    # A foreign frame holds the channel across the packet's arrival at
    # 5000 us, so fragment 1 goes through events. From its ack on nothing
    # is queued before the next arrival, so fragments 2 to 17 settle whole
    # from the node's cursor and build no data frame of their own.
    def noise(eng, mac):
        eng.schedule(4_000, 99, lambda _: eng.begin_tx(99, 200, "noise"))

    rec, rep, built, _ = run_lone(FrogMac, 100_000, lone_sender(5_000), setup=noise)
    events = run_lone(EventPathFrogMac, 100_000, lone_sender(5_000), setup=noise)
    assert (rec, rep) == events[:2]
    assert built == [1] and rep.classes[NORMAL].delivered == 1
    starts = tx_starts(rec)
    assert len(starts) == 17 and starts[1][1] == "kind=data-frag id=0 frag=2/17"


def test_a_lone_senders_packets_settle_whole():
    # Nothing else is queued while a lone sender's packet is sent, so at
    # fragment size 2 and the default backoff every packet settles whole
    # from its first fragment; no data frame is built one exchange at a time.
    _, rep, built, _ = run_lone(
        FrogMac, 99_000_000, traced=False, backoff_slots_low=SimConfig.backoff_slots_low
    )
    assert rep.classes[NORMAL].delivered == 10 and built == []
