"""What a frog trace says about each node's frames, and a MAC that runs
every exchange through events.

The checks read trace records (time_us, node, kind, detail) alone:

- no node has two frames on the air at once;
- a packet is delivered only at the end of a clean ack to it, after a
  clean data frame for each of its fragments (a whole emergency frame
  counts as its one fragment);
- a packet is dropped only after frog_max_retries + 1 failed attempts of
  its current fragment, where an attempt fails when its data frame or its
  ack is corrupted, and a fragment's clean ack renews the budget.

EventPathFrogMac declines every settlement, so each exchange runs as its
CCA, backoff, data-end and ack-end events; a shipped run must match it
line for line.
"""

from priomac.frog import FrogMac


class EventPathFrogMac(FrogMac):
    """FrogMac with settlement by arithmetic turned off."""

    def _settle(self, node, at):
        return None


def _fields(detail):
    return dict(f.split("=", 1) for f in detail.split())


def assert_frames_are_sound(rec, max_retries):
    """Check the frame lines of frog trace records; returns the number of
    deliveries and drops checked."""
    on_air = set()
    clean = {}  # pid -> (fragment count, indices seen clean)
    acked_at = {}  # pid -> end of its latest clean ack
    failures = {}  # pid -> failed attempts since its latest clean ack
    checked = 0
    for t, n, kind, detail in rec:
        if kind == "tx-start":
            assert n not in on_air, f"node {n} starts a frame at {t} with one on the air"
            on_air.add(n)
        elif kind == "tx-end":
            assert n in on_air, f"node {n} ends a frame at {t} it never started"
            on_air.discard(n)
            f = _fields(detail)
            if f["kind"] == "noise":
                continue
            pid = int(f["id"])
            ok = f["corrupted"] == "0"
            if f["kind"] == "ack":
                if ok:
                    acked_at[pid] = t
                    failures[pid] = 0
                else:
                    failures[pid] = failures.get(pid, 0) + 1
            elif not ok:
                failures[pid] = failures.get(pid, 0) + 1
            else:
                idx, count = f.get("frag", "1/1").split("/")
                clean.setdefault(pid, (int(count), set()))[1].add(int(idx))
        elif kind == "delivery":
            pid = int(_fields(detail)["id"])
            count, seen = clean.get(pid, (None, set()))
            assert count is not None and len(seen) == count, (
                f"packet {pid} delivered at {t} from {len(seen)}/{count} clean fragments"
            )
            assert acked_at.get(pid) == t, f"packet {pid} delivered at {t} without a clean ack"
            checked += 1
        elif kind == "drop":
            pid = int(_fields(detail)["id"])
            assert failures.get(pid, 0) == max_retries + 1, (
                f"packet {pid} dropped at {t} after {failures.get(pid, 0)} failures"
            )
            checked += 1
    return checked
