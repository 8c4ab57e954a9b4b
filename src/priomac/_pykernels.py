"""Hot kernels: event queue, broadcast channel, fuzzy centroid.

The three primitives the simulator calls most often. They know nothing
of MACs or packets; ``engine`` and ``fuzzy`` build on them.
"""

from heapq import heappop, heappush


class EventQueue:
    """Min-heap of events ordered by (fire_time, owner, insertion seq).

    The three-part key is a total order, so pop order is independent of
    the heap implementation. A handle is the event's insertion sequence
    number. Cancelled handles are kept in a set and their events skipped
    on pop; the set is only consulted while it is non-empty. Cancelling a
    handle that was already popped or cancelled is harmless: numbers are
    never reused, and the set is emptied whenever the heap drains.
    """

    __slots__ = ("_heap", "_cancelled", "_seq")

    def __init__(self):
        self._heap = []
        self._cancelled = set()
        self._seq = 0

    def push(self, time, owner, fn, arg):
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, owner, seq, fn, arg))
        return seq

    def cancel(self, handle):
        self._cancelled.add(handle)

    def peek(self):
        """The heap top's time, or None: a lower bound, as the top may be cancelled."""
        heap = self._heap
        return heap[0][0] if heap else None

    def pop(self):
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            time, owner, seq, fn, arg = heappop(heap)
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            return (time, owner, fn, arg)
        cancelled.clear()
        return None


class Channel:
    """Single broadcast medium; any overlap in [start, end) corrupts both frames."""

    __slots__ = ("_active", "_max_done_end")

    def __init__(self):
        self._active = {}  # src -> [start, end, corrupted]: one frame per sender
        self._max_done_end = None

    def on_air(self, src):
        """True while src has a frame on the air."""
        return src in self._active

    def begin(self, src, start, end):
        corrupted = 0
        for entry in self._active.values():
            if entry[1] > start:  # still on air at our first microsecond
                entry[2] = 1
                corrupted = 1
        self._active[src] = [start, end, corrupted]

    def finish(self, src):
        """Take src's frame off the air; True if anything overlapped it."""
        entry = self._active.pop(src)
        self.note_end(entry[1])
        return bool(entry[2])

    def note_end(self, end):
        """Count a frame that ended at `end` for sensing (busy_in); a frame
        that was never on the air here must be one nothing overlapped."""
        if self._max_done_end is None or end > self._max_done_end:
            self._max_done_end = end

    def busy_in(self, t0, t1):
        """True if any transmission overlapped [t0, t1). Valid for t1 <= now."""
        if self._max_done_end is not None and self._max_done_end > t0:
            return True
        for entry in self._active.values():
            if entry[0] < t1 and entry[1] > t0:
                return True
        return False

    def busy_until(self, now):
        """Latest end among transmissions on air; `now` when the channel is clear."""
        t = now
        for entry in self._active.values():
            if entry[1] > t:
                t = entry[1]
        return t


def _tri(x, a, b, c):
    # Triangular membership with degenerate edges: (a, a, c) peaks at a,
    # (a, c, c) peaks at c.
    if x <= a:
        return 1.0 if (x == a and a == b) else 0.0
    if x < b:
        return (x - a) / (b - a)
    if x == b:
        return 1.0
    if x < c:
        return (c - x) / (c - b)
    return 1.0 if (x == c and b == c) else 0.0


# Centroid memo: the centroid depends only on the three rule activations,
# so it is keyed on them and computed once per distinct triple. Cleared
# when full, which bounds its memory on long runs with drifting energy.
_CENTROIDS = {}
_CENTROID_CAP = 4096
# (x, m_lo, m_mid, m_hi) at each of the 1001 centroid samples; built on the
# first memo miss, so a process that never scores (frog only) never holds it.
_SAMPLES = None


def _samples():
    global _SAMPLES
    if _SAMPLES is None:
        _SAMPLES = []
        for i in range(1001):
            x = i / 1000.0
            _SAMPLES.append(
                (x, _tri(x, 0.0, 0.0, 0.5), _tri(x, 0.25, 0.5, 0.75), _tri(x, 0.5, 1.0, 1.0))
            )
    return _SAMPLES


def fuzzy_core(d, e, s):
    """Mamdani inference over normalized (distance, residual energy, slots).

    Input sets per axis: low (0,0,0.5), mid (0,0.5,1), high (0.5,1,1).
    Rules: HIGH if (d low and s high) or (e high and s high);
           MID if e mid or s mid;
           LOW if (e low and s low) or d high.
    Output sets low (0,0,0.5), mid (0.25,0.5,0.75), high (0.5,1,1);
    centroid defuzzification sampled at 1001 points on [0, 1].

    The centroid is memoised on the (low, mid, high) rule activations, up
    to 4096 triples before the memo is cleared. A miss runs the same
    sample loop in the same order, so a memoised score is bitwise the
    score the loop gives.
    """
    if not (0.0 <= d <= 1.0 and 0.0 <= e <= 1.0 and 0.0 <= s <= 1.0):
        raise ValueError("fuzzy inputs must lie in [0, 1]")

    d_lo = _tri(d, 0.0, 0.0, 0.5)
    d_hi = _tri(d, 0.5, 1.0, 1.0)
    e_lo = _tri(e, 0.0, 0.0, 0.5)
    e_mid = _tri(e, 0.0, 0.5, 1.0)
    e_hi = _tri(e, 0.5, 1.0, 1.0)
    s_lo = _tri(s, 0.0, 0.0, 0.5)
    s_mid = _tri(s, 0.0, 0.5, 1.0)
    s_hi = _tri(s, 0.5, 1.0, 1.0)

    act_hi = max(min(d_lo, s_hi), min(e_hi, s_hi))
    act_mid = max(e_mid, s_mid)
    act_lo = max(min(e_lo, s_lo), d_hi)

    key = (act_lo, act_mid, act_hi)
    centroid = _CENTROIDS.get(key)
    if centroid is not None:
        return centroid

    num = 0.0
    den = 0.0
    for x, m_lo, m_mid, m_hi in _samples():
        if m_lo > act_lo:
            m_lo = act_lo
        if m_mid > act_mid:
            m_mid = act_mid
        if m_hi > act_hi:
            m_hi = act_hi
        m = m_lo
        if m_mid > m:
            m = m_mid
        if m_hi > m:
            m = m_hi
        num += x * m
        den += m
    # no rule fired (isolated corner inputs): neutral score
    centroid = num / den if den != 0.0 else 0.5
    if len(_CENTROIDS) >= _CENTROID_CAP:
        _CENTROIDS.clear()
    _CENTROIDS[key] = centroid
    return centroid
