"""Frame geometry, slot assignment, and TDMA behavior of the fps MAC."""

import pytest

import priomac.fps
from priomac._pykernels import EventQueue
from priomac.config import SimConfig
from priomac.engine import SINK, Engine
from priomac.fps import (
    FpsMac,
    FrameGeometry,
    FuzzyInputs,
    MODE_EMERGENCY,
    MODE_PERIODIC,
    SlotRequest,
    build_frame,
)
from priomac.fuzzy import priority_score
from priomac.metrics import RX, SLEEP, TX, EnergyLedger, MetricsCollector
from priomac.traffic import EMERGENCY, NORMAL, NodeConfig, build_population

from _fps_frames import (
    assert_drops_follow_the_budget,
    assert_frames_follow_the_queues,
    assert_slots_are_exclusive,
)


# -- frame geometry ----------------------------------------------------------

GEOM = FrameGeometry(SimConfig(protocol="fps"))


def test_frame_geometry_oracle():
    assert GEOM.ind_air == 256
    assert GEOM.ack_air == 352
    assert GEOM.data_air == 1248
    assert GEOM.sched_air == 960
    assert GEOM.eis_len == 256 + 352 + 1000
    assert GEOM.ctrl_len == 960 + 1000
    assert GEOM.slot_len == 1248 + 352 + 1000
    assert GEOM.data_offset == 3568
    assert GEOM.frame_len == 3568 + 20 * 2600 == 55_568


def test_slot_spans_tile_the_data_region():
    assert GEOM.slot_span(0, 0) == (3568, 6168)
    assert GEOM.slot_span(100, 19) == (100 + 3568 + 19 * 2600, 100 + GEOM.frame_len)
    for i in range(19):
        assert GEOM.slot_span(0, i)[1] == GEOM.slot_span(0, i + 1)[0]


def test_baseline_closed_forms_match_a_per_frame_sum():
    # Within 2 us of every edge of a frame's parts, over three frames.
    g = GEOM

    def per_frame(t):
        awake = sched = 0
        for f in range(0, t, g.frame_len):
            awake += min(t, f + g.data_offset) - f
            sched += max(0, min(t, f + g.eis_len + g.sched_air) - (f + g.eis_len))
        return awake, sched

    edges = (0, g.eis_len, g.eis_len + g.sched_air, g.data_offset)
    for f in range(0, 4 * g.frame_len, g.frame_len):
        for edge in edges:
            for t in range(max(f + edge - 2, 0), f + edge + 3):
                assert (g.member_awake_us(t), g.sink_tx_us(t)) == per_frame(t), t


def test_guard_must_cover_a_cca():
    with pytest.raises(ValueError):
        SimConfig(protocol="fps", slot_guard_us=100).validate()


# -- slot assignment ---------------------------------------------------------

def req(dist=10.0, resid=50e6, slots=1, bit=0, queued=0):
    return SlotRequest(FuzzyInputs(dist, resid, slots, bit), queued)


DIAG = 50.0 * 2 ** 0.5
INITIAL = 50e6


def frame(mode, requests, start=0):
    return build_frame(start, mode, requests, GEOM, DIAG, INITIAL, 20)


def test_periodic_slots_follow_fuzzy_priority():
    requests = {
        1: req(slots=1, queued=1),
        2: req(slots=5, queued=5),
        3: req(slots=2, queued=2),
    }
    slots = frame(MODE_PERIODIC, requests)
    assert [(node, purpose) for _, _, node, purpose in slots] == [
        (2, NORMAL), (3, NORMAL), (1, NORMAL)
    ]
    # and the ordering matches the scoring function directly
    scores = {n: priority_score(10.0 / DIAG, 1.0, r.inputs.slots_required / 20, 0)
              for n, r in requests.items()}
    assert scores[2] > scores[3] > scores[1]


def test_slot_spans_come_from_the_geometry():
    slots = frame(MODE_PERIODIC, {1: req(queued=1)}, start=55_568)
    s, e, node, _ = slots[0]
    assert (s, e) == GEOM.slot_span(55_568, 0)


def test_emergency_claimant_takes_the_first_slot():
    requests = {n: req(slots=5, queued=5) for n in (1, 2, 3)}
    requests[9] = req(dist=70.0, resid=1e6, slots=1, bit=1)  # weakest fuzzy inputs
    slots = frame(MODE_EMERGENCY, requests)
    assert slots[0][2:] == (9, EMERGENCY)
    assert [n for _, _, n, _ in slots[1:]] == [1, 2, 3]


def test_emergency_claimant_is_seated_only_once():
    requests = {9: req(bit=1, queued=3)}  # urgent and backlogged
    slots = frame(MODE_EMERGENCY, requests)
    assert [(n, p) for _, _, n, p in slots] == [(9, EMERGENCY)]


def test_periodic_mode_ignores_the_emergency_bit():
    # Without an EIS win the frame stays periodic; a flagged claimant with
    # no queued normal traffic gets nothing this frame.
    slots = frame(MODE_PERIODIC, {9: req(bit=1)})
    assert slots == []


def test_equal_claims_break_ties_by_id():
    slots = frame(MODE_PERIODIC, {n: req(queued=1) for n in (7, 3, 5)})
    assert [n for _, _, n, _ in slots] == [3, 5, 7]


def test_claims_beyond_the_frame_are_deferred():
    slots = frame(MODE_PERIODIC, {n: req(queued=1) for n in range(1, 26)})
    assert len(slots) == 20
    assert [n for _, _, n, _ in slots] == list(range(1, 21))


def test_slot_stealing_displaces_the_weakest_periodic_claim():
    requests = {n: req(queued=1) for n in range(1, 21)}
    requests[21] = req(bit=1)
    slots = frame(MODE_EMERGENCY, requests)
    assert slots[0][2:] == (21, EMERGENCY)
    seated = [n for _, _, n, _ in slots]
    assert len(seated) == 20
    assert 20 not in seated  # equal periodic claims, so the highest id loses


# -- protocol scenarios ------------------------------------------------------

FRAME = GEOM.frame_len            # 55_568
SLOT0_DELIVERY = FRAME + 3568 + 1248 + 352  # ack end of data slot 0, frame 1


def make_fps(nodes, duration_us, seed=1, trace=None, normal_interval_us=10_000_000,
             **cfg_kwargs):
    eng = Engine(duration_us=duration_us, trace=trace)
    metrics = MetricsCollector()
    cfg = SimConfig(protocol="fps", seed=seed, normal_interval_s=normal_interval_us / 1e6,
                    **cfg_kwargs)
    ledger = EnergyLedger([SINK] + [n.node_id for n in nodes], cfg.power_mw)
    mac = FpsMac(eng, nodes, metrics, ledger, cfg)
    return eng, mac, metrics, ledger


def run_fps(nodes, duration_us, seed=1, **cfg_kwargs):
    rec = []
    eng, mac, metrics, ledger = make_fps(
        nodes, duration_us, seed=seed,
        trace=lambda t, n, k, d: rec.append((t, n, k, d)), **cfg_kwargs
    )
    mac.start()
    eng.run()
    mac.finish()
    return metrics.summarize(ledger, duration_us, mac.queues), rec, ledger


def member(node_id, emergency=False, normal_phase=40_000_000, em_phase=0):
    return NodeConfig(node_id, 10.0 + node_id, 20.0, emergency, normal_phase, em_phase)


def test_arrivals_wait_for_the_next_frame_boundary():
    # A packet arriving mid-frame is absent from that frame's snapshot and
    # rides the following frame's slot 0.
    rep, rec, _ = run_fps([member(1, normal_phase=2000)], 3 * FRAME, ack_loss_p=0.0)
    assert rep.classes[NORMAL].delivered == 1
    assert rep.classes[NORMAL].mean_us == SLOT0_DELIVERY - 2000
    starts = [t for t, n, k, d in rec if k == "tx-start" and d.startswith("kind=data-whole")]
    assert starts == [FRAME + 3568]


def test_single_eis_contender_wins_and_rides_slot_zero():
    node = member(2, emergency=True, em_phase=2000)
    rep, rec, _ = run_fps([node], 3 * FRAME, eis_persistence=1.0, ack_loss_p=0.0)
    assert rep.classes[EMERGENCY].delivered == 1
    assert rep.classes[EMERGENCY].mean_us == SLOT0_DELIVERY - 2000
    assert (FRAME + 128, 2, "tx-start", "kind=indication idx=1") in rec
    frames = [d for _, _, k, d in rec if k == "frame"]
    assert any("eis=winner=2" in d and "2:EMERGENCY" in d for d in frames)


def test_eis_collision_defers_both_contenders():
    nodes = [
        member(2, emergency=True, em_phase=1000),
        member(3, emergency=True, em_phase=2000),
    ]
    # Always-transmit persistence deadlocks the pair; the retry cap bounds it.
    rep, rec, _ = run_fps(
        nodes, 7 * FRAME, eis_persistence=1.0, fps_max_retry_frames=4
    )
    es = rep.classes[EMERGENCY]
    assert (es.delivered, es.dropped) == (0, 2)
    collisions = [d for _, _, k, d in rec if k == "frame" and "eis=collision" in d]
    assert len(collisions) == 5  # initial attempt + 4 retry frames
    assert sum(1 for _, _, k, _ in rec if k == "drop") == 2
    assert not any(d.startswith("kind=data-whole") for _, _, k, d in rec if k == "tx-start")


def test_eis_contenders_transmit_in_node_id_order():
    # Simultaneous indications start in node-id order, so a trace does not
    # depend on how the MAC stores its claimants (9 hashes before 3 in a
    # small set).
    nodes = [member(9, emergency=True, em_phase=1000), member(3, emergency=True, em_phase=2000)]
    _, rec, _ = run_fps(nodes, 2 * FRAME, eis_persistence=1.0)
    starts = [n for t, n, k, d in rec if k == "tx-start" and d.startswith("kind=indication")]
    assert starts == [3, 9]


def test_lost_eis_ack_retries_next_frame():
    node = member(2, emergency=True, em_phase=1000)
    rep, rec, _ = run_fps(
        [node], 6 * FRAME, eis_persistence=1.0, ack_loss_p=1.0, fps_max_retry_frames=3
    )
    es = rep.classes[EMERGENCY]
    assert (es.delivered, es.dropped) == (0, 1)
    lost = [d for _, _, k, d in rec if k == "frame" and "eis=ack-lost" in d]
    assert len(lost) == 4


def test_lost_slot_ack_requeues_without_resetting_the_clock():
    # Every data ack is lost; the packet occupies one slot per frame until
    # the retry budget runs out, and the delay ledger never forgets it.
    rep, rec, _ = run_fps(
        [member(1, normal_phase=1000)], 6 * FRAME, ack_loss_p=1.0, fps_max_retry_frames=2
    )
    ns = rep.classes[NORMAL]
    assert (ns.delivered, ns.dropped) == (0, 1)
    tx = [t for t, n, k, d in rec if k == "tx-start" and d.startswith("kind=data-whole")]
    assert tx == [k * FRAME + 3568 for k in (1, 2, 3)]
    assert sum(1 for _, _, k, d in rec if k == "ack-lost") == 3


def test_energy_states_close_on_the_duration():
    nodes = [member(1), member(2, emergency=True, em_phase=60_000),
             member(3, normal_phase=100_000)]
    duration = 200_000  # deliberately not a frame multiple
    rep, _, ledger = run_fps(nodes, duration)
    for node in (SINK, 1, 2, 3):
        assert sum(ledger.state_us(node)) == duration


def oracle_state_us(geom, duration, node_ids, rec):
    """Each node's (TX, RX, IDLE, SLEEP) us, counted frame by frame and from the trace.

    Every frame gives each member its awake (EIS and control period) and
    asleep budget and the cluster head its schedule broadcast, clipped to
    the run. Each indication, data frame and ack in the trace then moves
    its airtime, clipped as well.
    """
    def clip(s, e):
        return max(0, min(e, duration) - s)

    awake = sched = 0
    for f in range(0, duration, geom.frame_len):
        awake += clip(f, f + geom.data_offset)
        sched += clip(f + geom.eis_len, f + geom.eis_len + geom.sched_air)
    states = {m: [0, awake, 0, duration - awake] for m in node_ids}
    states[SINK] = [sched, duration - sched, 0, 0]

    def move(node, src, dst, s, e):
        states[node][src] -= clip(s, e)
        states[node][dst] += clip(s, e)

    for t, n, k, d in rec:
        kind = d.split()[0].removeprefix("kind=") if k == "tx-start" else None
        if kind == FpsMac.IND:
            move(n, RX, TX, t, t + geom.ind_air)
        elif kind == FpsMac.DATA:
            move(n, SLEEP, TX, t, t + geom.data_air)
            move(n, SLEEP, RX, t + geom.data_air, t + geom.data_air + geom.ack_air)
        elif kind in (FpsMac.EIS_ACK, FpsMac.ACK):
            move(SINK, RX, TX, t, t + geom.ack_air)
    return {n: tuple(v) for n, v in states.items()}


LAST = 40  # the frame the runs below end in or after
# Member 2's emergency wins frame LAST's EIS and rides slot 0, member 1's
# packet slot 1; members 3 and 4 send early, before empty frames that the
# run fast-forwards.
ENDINGS = [
    member(1, normal_phase=(LAST - 1) * FRAME + 100),
    member(2, emergency=True, em_phase=(LAST - 1) * FRAME + 200),
    member(3, normal_phase=5000),
    member(4, emergency=True, em_phase=10 * FRAME),
]


@pytest.mark.parametrize("offset", [
    300,                                      # in the indication
    600,                                      # in the EIS ack
    GEOM.eis_len,                             # on the schedule broadcast's start
    2000,                                     # in the schedule broadcast
    GEOM.eis_len + GEOM.sched_air,            # on its end
    3000,                                     # in the control guard
    GEOM.data_offset + 1000,                  # in slot 0's data frame
    GEOM.data_offset + GEOM.data_air + 100,   # in slot 0's ack
    GEOM.data_offset + GEOM.slot_len + 500,   # in slot 1's data frame
    FRAME - 1,
    FRAME,
    FRAME + 1,
], ids=["indication", "eis-ack", "sched-start", "sched", "sched-end", "guard",
        "slot0-data", "slot0-ack", "slot1-data", "frames-1", "frames", "frames+1"])
def test_every_nodes_energy_matches_the_frame_arithmetic(offset):
    # Traced or not, the run fast-forwards across the empty frames between
    # the early packets and the late ones.
    duration = LAST * FRAME + offset
    rep, rec, _ = run_fps(ENDINGS, duration, eis_persistence=1.0, ack_loss_p=0.0)
    assert (LAST * FRAME + 128, 2, "tx-start", f"kind=indication idx={LAST}") in rec
    expected = oracle_state_us(GEOM, duration, [m.node_id for m in ENDINGS], rec)
    assert rep.node_state_us == expected
    plain = run_untraced(ENDINGS, duration, eis_persistence=1.0, ack_loss_p=0.0)
    assert plain.node_state_us == expected


def test_trace_does_not_change_the_outcome():
    # A trace only writes lines; the report must not depend on it.
    nodes = [member(1, normal_phase=5000), member(2, emergency=True, em_phase=90_000),
             member(3, normal_phase=70_000)]
    rep_traced, _, _ = run_fps(nodes, 10 * FRAME, seed=5)

    eng, mac, metrics, ledger = make_fps(nodes, 10 * FRAME, seed=5)
    mac.start()
    eng.run()
    mac.finish()
    rep_plain = metrics.summarize(ledger, 10 * FRAME, mac.queues)
    assert rep_plain == rep_traced


def run_untraced(nodes, duration_us, seed=1, **cfg_kwargs):
    eng, mac, metrics, ledger = make_fps(nodes, duration_us, seed=seed, **cfg_kwargs)
    mac.start()
    eng.run()
    mac.finish()
    return metrics.summarize(ledger, duration_us, mac.queues)


# Sparse traffic: 10 s intervals are about 180 frames, so a run
# fast-forwards across gaps of many frames between the few busy ones.
SPARSE = [member(1, normal_phase=5000), member(2, emergency=True, em_phase=3_000_000),
          member(3, normal_phase=2_400_000), member(4, emergency=True, em_phase=9_000_000,
                                                    normal_phase=7_777_000)]
RUN_FRAMES = 300  # 16.7 s: every member sends, and detector 4 sends both classes


@pytest.mark.parametrize("duration", [
    RUN_FRAMES * FRAME,
    RUN_FRAMES * FRAME + 1,  # the last frame starts 1 us before the end
    RUN_FRAMES * FRAME - 1,  # the end clips the last frame by 1 us
    FRAME // 2,              # ends inside the first frame, in its data slots
    GEOM.eis_len + 10,       # ends inside the first frame's control period
], ids=["k-frames", "k-frames+1", "k-frames-1", "half-frame", "in-control"])
@pytest.mark.parametrize("seed,ack_loss_p", [(1, 0.01), (2, 0.01), (7, 0.5)])
def test_fast_forward_matches_frame_by_frame_accrual(duration, seed, ack_loss_p):
    # Traced and untraced runs take the one frame path. The trace's frame
    # and skip lines tile the run, a frame is built exactly when its start
    # finds a packet queued, and every node's time adds up frame by frame.
    traced, rec, _ = run_fps(SPARSE, duration, seed=seed, ack_loss_p=ack_loss_p)
    assert run_untraced(SPARSE, duration, seed=seed, ack_loss_p=ack_loss_p) == traced
    ids = [m.node_id for m in SPARSE]
    assert traced.node_state_us == oracle_state_us(GEOM, duration, ids, rec)
    built, skipped = assert_frames_follow_the_queues(rec, GEOM, duration)
    if duration > FRAME:
        assert 0 < 9 * len(built) <= len(skipped), "scenario has no long empty gaps"


def test_data_slots_never_collide_under_load():
    nodes = [member(i, emergency=(i <= 6), em_phase=i * 7000,
                    normal_phase=i * 311_000) for i in range(1, 21)]
    rep, rec, _ = run_fps(nodes, 40 * FRAME, seed=3)
    data_ends = [d for _, _, k, d in rec if k == "tx-end" and d.startswith("kind=data-whole")]
    assert data_ends, "load scenario produced no data traffic"
    assert all(d.endswith("corrupted=0") for d in data_ends)
    assert rep.delivered > 0
    assert assert_slots_are_exclusive(rec) > len(data_ends)
    # The same trace with one slot starting 1 us before the slot ahead of
    # it has ended: the check must see that one shared microsecond.
    i = next(
        i for i, (_, _, k, d) in enumerate(rec)
        if k == "tx-start" and d.startswith("kind=data-whole") and not d.endswith(" slot=0")
    )
    ack_end = max(t for t, _, k, d in rec[:i] if k == "tx-end" and d.startswith("kind=ack "))
    early = list(rec)
    early[i] = (ack_end - 1, *rec[i][1:])
    with pytest.raises(AssertionError, match="data-whole of node"):
        assert_slots_are_exclusive(early)


@pytest.mark.parametrize("budget", [0, 1, 3])
def test_drops_come_at_the_retry_budget(budget):
    # Every member is a detector, three slots serve eight members and half
    # the acks are lost, so packets of both classes fail frames both ways
    # (a lost slot ack, a frame the EIS leaves periodic) and are dropped.
    nodes = build_population(8, 8, 1, normal_interval_us=300_000, emergency_interval_us=500_000)
    rep, rec, _ = run_fps(
        nodes, 10_000_000, normal_interval_us=300_000, emergency_interval_s=0.5,
        slots_per_frame=3, ack_loss_p=0.5, fps_max_retry_frames=budget,
    )
    assert all(rep.classes[k].dropped > 0 for k in (EMERGENCY, NORMAL))
    assert any(k == "ack-lost" for _, _, k, _ in rec)
    assert any(k == "frame" and "mode=PERIODIC" in d for _, _, k, d in rec)
    assert assert_drops_follow_the_budget(rec, budget) == rep.dropped
    # The same trace read with a budget off by one must fail the check.
    for wrong in (budget - 1, budget + 1):
        with pytest.raises(AssertionError, match="packet"):
            assert_drops_follow_the_budget(rec, wrong)


def member_outcomes(rec, node):
    """A member's deliveries (with delay), lost acks and drops, in order, without pids."""
    out = []
    for t, n, k, d in rec:
        if n == node and k in ("delivery", "ack-lost", "drop"):
            out.append((t, k, " ".join(f for f in d.split() if not f.startswith("id="))))
    return out


@pytest.mark.parametrize("seed", range(1, 6))
def test_a_detectors_ack_losses_leave_other_members_alone(seed):
    # Member 2 contends alone with persistence 1, so every frame it spends
    # draws at least one ack-loss outcome; its emergency is settled (delivered or
    # dropped within fps_max_retry_frames + 1 frames) before member 1's first
    # arrival, so the two never share a frame. Whether member 2 is a
    # detector must then not change a single ack outcome of member 1.
    quiet = 2000 * FRAME  # past the run: member 2 sends no normal traffic
    first_normal = 8 * FRAME
    runs = {}
    for detector in (False, True):
        nodes = [member(1, normal_phase=first_normal),
                 member(2, emergency=detector, normal_phase=quiet, em_phase=1000)]
        _, rec, _ = run_fps(nodes, 1900 * FRAME, seed=seed,
                            eis_persistence=1.0, ack_loss_p=0.5, fps_max_retry_frames=3)
        runs[detector] = rec
    settled = [t for t, n, k, _ in runs[True] if n == 2 and k in ("delivery", "drop")]
    assert len(settled) == 1 and settled[0] < first_normal
    plain = member_outcomes(runs[False], 1)
    kinds = {k for _, k, _ in plain}
    assert {"delivery", "ack-lost"} <= kinds, "scenario exercises no ack losses"
    assert member_outcomes(runs[True], 1) == plain


# -- claimant set and lazy baseline ----------------------------------------

class CheckedQueue(EventQueue):
    """Event queue that runs a check before each pop, i.e. after each event."""

    __slots__ = ("check",)

    def pop(self):
        self.check()
        return super().pop()


# (normal interval, duration): busy traffic shares every frame; sparse
# traffic leaves long empty gaps that the run fast-forwards.
TRAFFIC = {"busy": (300_000, 1000 * FRAME), "sparse": (10_000_000, 2000 * FRAME)}


# A traced run takes the same frame path (the fast-forward test above checks
# it against its trace), so each case runs once, untraced.
@pytest.mark.parametrize("trace", [None], ids=["untraced"])
@pytest.mark.parametrize("traffic", sorted(TRAFFIC))
@pytest.mark.parametrize("seed", [1, 2])
def test_holding_set_is_the_members_with_queued_packets(traffic, seed, trace):
    # Half the acks are lost and a packet gets three retry frames, so packets
    # leave their queues by delivery and by drop, in both classes.
    interval, duration = TRAFFIC[traffic]
    nodes = build_population(20, 18, seed, normal_interval_us=interval)
    eng, mac, metrics, ledger = make_fps(
        nodes, duration, seed=seed, trace=trace, normal_interval_us=interval,
        ack_loss_p=0.5, fps_max_retry_frames=3,
    )
    sizes = set()
    members = [nc.node_id for nc in mac.nodes]

    def check():
        holding = {m for m in members if mac._emq[m] or mac._nq[m]}
        assert mac._holding == holding
        sizes.add(len(holding))

    eng.queue = CheckedQueue()
    eng.queue.check = check
    mac.start()
    eng.run()
    check()
    rep = metrics.summarize(ledger, duration, mac.queues)
    for klass in (EMERGENCY, NORMAL):
        assert rep.classes[klass].delivered > 0 and rep.classes[klass].dropped > 0
    assert 0 in sizes and max(sizes) >= 2


def oracle_residual(geom, power, initial, duration, txs, m, start, now):
    """Residual energy of member m at `now`, in frame `start`'s control period.

    Each frame up to this one gives every member its awake and asleep
    budget, the last one clipped to the run; m's own indications and data
    slots before `now` move time into TX and RX.
    """
    awake = asleep = 0
    for f in range(0, start + 1, geom.frame_len):
        span = min(geom.frame_len, duration - f)
        awake += min(geom.data_offset, span)
        asleep += max(0, span - geom.data_offset)
    n_ind = sum(1 for t, src, kind in txs if src == m and kind == FpsMac.IND and t < now)
    n_data = sum(1 for t, src, kind in txs if src == m and kind == FpsMac.DATA and t < now)
    tx = n_ind * geom.ind_air + n_data * geom.data_air
    rx = awake - n_ind * geom.ind_air + n_data * geom.ack_air
    sleep = asleep - n_data * (geom.data_air + geom.ack_air)
    p = power
    return initial - (tx * p[0] + rx * p[1] + 0 * p[2] + sleep * p[3]) / 1000.0


@pytest.mark.parametrize("duration", [1500 * FRAME, 1500 * FRAME - 1],
                         ids=["k-frames", "k-frames-1"])
@pytest.mark.parametrize("seed", [1, 3])
def test_scored_residual_energy_matches_the_frame_count(seed, duration, monkeypatch):
    # fps-sparse's population: the pairs of members whose phases lie within
    # a frame share a frame every 180 or so, with empty frames between.
    nodes = build_population(20, 18, seed)
    eng, mac, metrics, ledger = make_fps(nodes, duration, seed=seed, ack_loss_p=0.3)
    txs = []
    begin_tx = eng.begin_tx

    def recorded_begin_tx(src, nbytes, kind, on_end=None, meta=None, label=""):
        txs.append((eng.now, src, kind))
        return begin_tx(src, nbytes, kind, on_end, meta, label)

    calls = []
    build = priomac.fps.build_frame

    def recorded_build_frame(start, mode, requests, *args):
        calls.append((eng.now, start, {m: r.inputs.residual_energy_uj
                                       for m, r in requests.items()}))
        return build(start, mode, requests, *args)

    eng.begin_tx = recorded_begin_tx
    monkeypatch.setattr(priomac.fps, "build_frame", recorded_build_frame)
    mac.start()
    eng.run()
    shared = [c for c in calls if len(c[2]) >= 2]
    assert len(shared) >= 5 and len(calls) < 1500 // 5, "no sparse shared frames"
    for now, start, residuals in calls:
        for m, residual in residuals.items():
            assert residual == oracle_residual(
                GEOM, ledger.power, 50e6, duration, txs, m, start, now
            ), (m, start)
