"""Event queue ordering, airtime arithmetic, and collision-channel semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priomac._pykernels import Channel, EventQueue
from priomac.engine import Engine, ProtocolBug, substream, tx_duration_us


# -- airtime --------------------------------------------------------------

def test_tx_duration_oracle():
    # 8e6 * nbytes / 250000, exact for the default bitrate
    assert tx_duration_us(39) == 1248   # 34 B payload + 5 B header
    assert tx_duration_us(13) == 416    # 8 B fragment + header
    assert tx_duration_us(11) == 352    # ack
    assert tx_duration_us(8) == 256     # indication
    assert tx_duration_us(30) == 960    # schedule broadcast
    assert tx_duration_us(1) == 32


def test_tx_duration_rounds_up():
    # 8 bits / 300 kbit/s = 26.67 us -> 27
    assert tx_duration_us(1, 300_000) == 27


def test_tx_duration_rejects_empty_frame():
    with pytest.raises(ValueError):
        tx_duration_us(0)


def test_substream_disjoint_and_reproducible():
    a = substream(1, 5)
    b = substream(1, 5)
    c = substream(1, 6)
    seq_a = [a.random() for _ in range(4)]
    assert seq_a == [b.random() for _ in range(4)]
    assert seq_a != [c.random() for _ in range(4)]


# -- event ordering -------------------------------------------------------

def test_events_fire_by_time_then_owner_then_insertion():
    eng = Engine(duration_us=1000)
    fired = []
    eng.schedule(500, 2, fired.append, "t500-o2")
    eng.schedule(100, 9, fired.append, "t100-o9")
    eng.schedule(500, 1, fired.append, "t500-o1-first")
    eng.schedule(500, 1, fired.append, "t500-o1-second")
    eng.schedule(100, 3, fired.append, "t100-o3")
    eng.run()
    assert fired == [
        "t100-o3",
        "t100-o9",
        "t500-o1-first",
        "t500-o1-second",
        "t500-o2",
    ]


def test_cancel_suppresses_event():
    eng = Engine(duration_us=1000)
    fired = []
    keep = eng.schedule(300, 1, fired.append, "keep")
    drop = eng.schedule(200, 1, fired.append, "drop")
    eng.cancel(drop)
    eng.cancel(drop)  # cancelling twice is harmless
    eng.run()
    assert fired == ["keep"]
    assert keep != drop


def test_run_boundary_semantics():
    # An event exactly at the horizon fires; later ones do not. The clock
    # always lands on the horizon afterwards.
    eng = Engine(duration_us=1000)
    fired = []
    eng.schedule(1000, 1, fired.append, "at-end")
    eng.schedule(1001, 1, fired.append, "past-end")
    eng.run()
    assert fired == ["at-end"]
    assert eng.now == 1000


def test_schedule_in_past_is_a_bug():
    eng = Engine(duration_us=1000)
    with pytest.raises(ProtocolBug):
        eng.schedule(-1, 1, lambda a: None)


# -- collision channel ----------------------------------------------------

def collect_endings(eng):
    ended = []
    begin_tx = eng.begin_tx

    def record(tx, corrupted):
        ended.append((tx.src, tx.kind, corrupted))

    def recorded_begin_tx(src, nbytes, kind, on_end=None, meta=None, label=""):
        return begin_tx(src, nbytes, kind, record, meta, label)

    eng.begin_tx = recorded_begin_tx
    return ended


def test_lone_transmission_is_clean():
    eng = Engine(duration_us=10_000)
    ended = collect_endings(eng)
    eng.schedule(100, 1, lambda _: eng.begin_tx(1, 11, "ack"))
    eng.run()
    assert ended == [(1, "ack", False)]


def test_one_microsecond_overlap_corrupts_both():
    eng = Engine(duration_us=10_000)
    ended = collect_endings(eng)
    # [100, 452) and [451, 803): a single shared microsecond
    eng.schedule(100, 1, lambda _: eng.begin_tx(1, 11, "a"))
    eng.schedule(451, 2, lambda _: eng.begin_tx(2, 11, "b"))
    eng.run()
    assert ended == [(1, "a", True), (2, "b", True)]


def test_back_to_back_transmissions_are_clean():
    # [100, 452) then [452, 804): half-open spans never touch
    eng = Engine(duration_us=10_000)
    ended = collect_endings(eng)
    eng.schedule(100, 1, lambda _: eng.begin_tx(1, 11, "a"))
    eng.schedule(452, 2, lambda _: eng.begin_tx(2, 11, "b"))
    eng.run()
    assert ended == [(1, "a", False), (2, "b", False)]


def test_simultaneous_starts_corrupt_both():
    eng = Engine(duration_us=10_000)
    ended = collect_endings(eng)
    eng.schedule(100, 1, lambda _: eng.begin_tx(1, 11, "a"))
    eng.schedule(100, 2, lambda _: eng.begin_tx(2, 11, "b"))
    eng.run()
    assert [(s, c) for s, _, c in ended] == [(1, True), (2, True)]


def test_three_way_pileup_corrupts_all():
    eng = Engine(duration_us=10_000)
    ended = collect_endings(eng)
    eng.schedule(100, 1, lambda _: eng.begin_tx(1, 39, "a"))   # [100, 1348)
    eng.schedule(300, 2, lambda _: eng.begin_tx(2, 11, "b"))   # inside a
    eng.schedule(1200, 3, lambda _: eng.begin_tx(3, 11, "c"))  # clips a's tail
    eng.run()
    assert all(c for _, _, c in ended)


def test_double_transmit_from_same_node_is_a_bug():
    eng = Engine(duration_us=10_000)
    def go(_):
        eng.begin_tx(1, 39, "a")
        eng.begin_tx(1, 11, "b")
    eng.schedule(100, 1, go)
    with pytest.raises(ProtocolBug):
        eng.run()


def test_carrier_sense_sees_active_and_recent_transmissions():
    eng = Engine(duration_us=10_000)
    readings = {}
    eng.schedule(100, 1, lambda _: eng.begin_tx(1, 11, "a"))  # [100, 452)
    def probe(tag):
        readings[tag] = eng.channel.busy_in(eng.now - 128, eng.now)
    eng.schedule(300, 2, probe, "mid-tx")          # window (172, 300) overlaps
    eng.schedule(500, 2, probe, "tail-in-window")  # window (372, 500) overlaps
    eng.schedule(580, 2, probe, "just-clear")      # window (452, 580) starts at tx end
    eng.schedule(5000, 2, probe, "long-idle")
    eng.run()
    assert readings == {
        "mid-tx": True,
        "tail-in-window": True,
        "just-clear": False,
        "long-idle": False,
    }


def test_trace_records_transmission_lifecycle():
    rec = []
    eng = Engine(duration_us=10_000, trace=lambda t, n, k, d: rec.append((t, n, k, d)))
    eng.schedule(100, 1, lambda _: eng.begin_tx(1, 11, "ack", label=" to=7"))
    eng.run()
    assert rec == [
        (100, 1, "tx-start", "kind=ack to=7"),
        (452, 1, "tx-end", "kind=ack to=7 corrupted=0"),
    ]
    # The same frame recorded without events: the same two lines, and a
    # channel that senses it up to its last microsecond.
    recorded = []
    eng = Engine(duration_us=10_000, trace=lambda *line: recorded.append(line))
    eng.record_tx(1, 100, 100 + eng.airtime(11), "ack", " to=7")
    assert recorded == rec
    assert eng.channel.busy_in(451, 452)
    assert not eng.channel.busy_in(452, 600)


# -- kernels against brute-force models -----------------------------------

KERNEL_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

queue_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 50), st.integers(0, 4)),
        st.tuples(st.just("cancel"), st.integers(0, 10_000)),
        st.tuples(st.just("pop")),
        st.tuples(st.just("peek")),
    ),
    max_size=120,
)


@KERNEL_SETTINGS
@given(queue_ops)
def test_event_queue_matches_a_sorted_list_model(ops):
    queue = EventQueue()
    live = {}  # handle -> (time, owner, handle): the events not yet popped or cancelled
    handles = []
    dead = {}  # handle -> (time, owner, handle): cancelled events still on the heap

    def fired(_arg):
        pass

    def check_pop():
        got = queue.pop()
        if not live:
            assert got is None
            dead.clear()
            return
        want = min(live.values())
        del live[want[2]]
        for h in [h for h, key in dead.items() if key < want]:
            del dead[h]  # skipped on the way to want
        assert got == (want[0], want[1], fired, want[2])

    for op in ops:
        if op[0] == "push":
            handle = queue.push(op[1], op[2], fired, len(handles))
            assert handle == len(handles)  # handles are insertion sequence numbers
            handles.append(handle)
            live[handle] = (op[1], op[2], handle)
        elif op[0] == "cancel" and handles:
            handle = handles[op[1] % len(handles)]  # may be popped or cancelled already
            queue.cancel(handle)
            if handle in live:
                dead[handle] = live.pop(handle)
        elif op[0] == "peek":
            # The heap top: None on an empty heap, at most the next event to
            # fire, and its time when no cancelled event lies ahead of it.
            on_heap = list(live.values()) + list(dead.values())
            assert queue.peek() == (min(on_heap)[0] if on_heap else None)
        else:
            check_pop()
    while live:
        check_pop()
    assert queue.pop() is None


# Short spans on a coarse clock, so that starts, ends and sensing windows
# often meet exactly: the half-open boundaries are where kernels go wrong.
channel_ops = st.lists(
    st.tuples(
        st.integers(0, 8),                            # clock advance, us
        st.sampled_from(("begin", "finish", "sense", "record")),
        st.integers(1, 12),                           # airtime or sensing window, us
        st.integers(0, 10_000),                       # finishing order; window choice
    ),
    max_size=120,
)


@KERNEL_SETTINGS
@given(channel_ops)
def test_channel_matches_a_brute_force_interval_model(ops):
    # Each open transmission has its own sender, the least id not on the air,
    # so senders are reused once their frame has finished.
    channel = Channel()
    spans = []   # [start, end) of every transmission begun, in order
    open_ = {}   # sender -> (index into spans, end), for transmissions not yet finished
    now = 0

    def corrupted(h):
        s, e = spans[h]
        return any(s < e2 and s2 < e for i, (s2, e2) in enumerate(spans) if i != h)

    def finish(src):
        # The engine finishes a transmission at its end; later must not matter.
        h, end = open_.pop(src)
        assert end <= now
        assert channel.finish(src) == corrupted(h)

    for advance, action, length, pick in ops:
        now += advance
        due = sorted(src for src, (_, end) in open_.items() if end <= now)  # may finish now
        if action == "begin":
            src = min(set(range(len(open_) + 1)) - open_.keys())
            channel.begin(src, now, now + length)
            open_[src] = (len(spans), now + length)
            spans.append((now, now + length))
        elif action == "finish" and due:
            k = pick % len(due)  # finish them all, starting from the k-th
            for src in due[k:] + due[:k]:
                finish(src)
        elif action == "record" and not open_:
            # A frame nothing overlaps, as Engine.record_tx notes it: never
            # on the air here, with the clock moved to its end.
            channel.note_end(now + length)
            spans.append((now, now + length))
            now += length
        else:
            # Half the windows open where the last transmission ended.
            ended = [e for _, e in spans if e <= now]
            t0 = max(ended) if ended and pick % 2 else max(0, now - length)
            assert channel.busy_in(t0, now) == any(s < now and e > t0 for s, e in spans)
            assert channel.busy_until(now) == max([now] + [e for _, e in spans])
    now = max([now] + [end for _, end in open_.values()])
    for src in sorted(open_):
        finish(src)
