"""What an fps trace says about its frames, checked against the trace itself.

fps builds a frame (an `eis` line at its start, a `frame` line once its
control period begins) exactly when the frame's start finds a packet
queued, and covers every other frame with a `skip from=<i> to=<j>` line
for frames i to j - 1. Queue occupancy is read from the same trace: each
`arrival` adds a packet, each `delivery` and `drop` takes one away. A frame
starting at f sees the arrivals before f only, because the cluster head's
events go first at equal times, and no packet leaves at a frame start.

Slots are exclusive: no data, ack or schedule frame shares a microsecond
with any other frame on the air. Only EIS indications may overlap, and
only each other.

A packet is dropped at its fps_max_retry_frames + 1-th failed frame, and
no packet fails more often. A frame fails a packet when the packet's slot
ack is lost (an `ack-lost` line), or when the frame is built without
emergency mode (its `frame` line) while the packet heads its node's
emergency queue (at the frame's `eis` line).
"""

import math
from collections import deque

from priomac.engine import SINK
from priomac.fps import MODE_EMERGENCY, FpsMac
from priomac.traffic import EMERGENCY

from _frog_frames import _fields


def assert_frames_follow_the_queues(rec, geom, duration_us):
    """Check the frame lines of trace records (time_us, node, kind, detail).

    Every frame starting before the run's end is built or skipped exactly
    once, and built exactly when its start finds a packet queued. Returns
    the built and the skipped frame indices.
    """
    frame_len = geom.frame_len
    built, skipped, controlled = [], [], []
    queued = []  # (time, packets queued from then on), in time order
    held = 0
    for t, n, kind, detail in rec:
        if kind in ("arrival", "delivery", "drop"):
            held += 1 if kind == "arrival" else -1
            queued.append((t, held))
        elif kind == "eis":
            i = int(detail.split()[0].removeprefix("idx="))
            assert (t, n) == (i * frame_len, SINK), (t, n, detail)
            built.append(i)
        elif kind == "frame":
            controlled.append(int(detail.split()[0].removeprefix("idx=")))
        elif kind == "skip":
            a, b = (int(f.split("=")[1]) for f in detail.split())
            assert (t, n) == (a * frame_len, SINK) and a < b, (t, n, detail)
            skipped.extend(range(a, b))

    frames = -(-duration_us // frame_len)
    assert sorted(built + skipped) == list(range(frames)), "frames not tiled exactly once"
    assert controlled == [i for i in built if i * frame_len + geom.eis_len <= duration_us]
    built_set = set(built)
    j = held = 0
    for i in range(frames):
        while j < len(queued) and queued[j][0] < i * frame_len:
            held = queued[j][1]
            j += 1
        assert (i in built_set) == (held > 0), (i, held)
    return built, skipped


def assert_slots_are_exclusive(rec):
    """Check the `tx-start`/`tx-end` lines of fps trace records; returns the
    number of frames checked. A frame still on the air at the run's end
    stays on the air."""
    started = {}  # node -> (start, kind) of its frame on the air
    frames = []  # (start, end, kind, node)
    for t, n, kind, detail in rec:
        if kind == "tx-start":
            started[n] = (t, detail.split()[0].removeprefix("kind="))
        elif kind == "tx-end":
            s, k = started.pop(n)
            frames.append((s, t, k, n))
    frames += [(s, math.inf, k, n) for n, (s, k) in started.items()]
    frames.sort()
    on_air = []
    for frame in frames:
        s, _e, k, n = frame
        on_air = [f for f in on_air if f[1] > s]
        for other in on_air:
            assert k == other[2] == FpsMac.IND, f"{k} of node {n} at {s} overlaps {other}"
        on_air.append(frame)
    return len(frames)


def assert_drops_follow_the_budget(rec, max_retry_frames):
    """Check the drop lines of fps trace records against the retry budget;
    returns the number of drops checked.

    A drop made in a control period is traced before that period's `frame`
    line, so a drop counts the failures up to and including its own
    microsecond.
    """
    emq = {}  # node -> ids of its queued emergency packets, in order
    heads = None  # (frame index, emergency heads at its eis line)
    failed = {}  # pid -> times of its failed frames
    dropped = {}  # pid -> time of its drop
    for t, n, kind, detail in rec:
        if kind not in ("arrival", "delivery", "drop", "eis", "frame", "ack-lost"):
            continue
        f = _fields(detail)
        if kind == "arrival":
            if f["class"] == EMERGENCY:
                emq.setdefault(n, deque()).append(int(f["id"]))
        elif kind in ("delivery", "drop"):
            pid = int(f["id"])
            if f["class"] == EMERGENCY:
                assert emq[n].popleft() == pid, f"packet {pid} left node {n} out of order"
            if kind == "drop":
                dropped[pid] = t
        elif kind == "eis":
            heads = (f["idx"], [q[0] for q in emq.values() if q])
        elif kind == "frame":
            assert heads is not None and heads[0] == f["idx"], (t, detail)
            if f["mode"] != MODE_EMERGENCY:
                for pid in heads[1]:
                    failed.setdefault(pid, []).append(t)
        else:
            failed.setdefault(int(f["id"]), []).append(t)
    budget = max_retry_frames + 1
    for pid, times in failed.items():
        if pid in dropped:
            t = dropped[pid]
            assert len(times) == budget and times[-1] <= t, (
                f"packet {pid} dropped at {t} after failed frames at {times}"
            )
        else:
            assert len(times) < budget, f"packet {pid} failed at {times} and stayed queued"
    assert dropped.keys() <= failed.keys(), "a packet dropped without a failed frame"
    return len(dropped)
