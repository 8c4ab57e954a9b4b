"""Hot kernels: event queue and broadcast channel.

The two primitives the engine calls most often. They know nothing of
MACs or packets; ``engine`` builds on them.
"""

from heapq import heappop, heappush


class EventQueue:
    """Min-heap of events ordered by (fire_time, owner, insertion seq).

    The three-part key is a total order, so pop order is independent of
    the heap implementation. A handle is the event's insertion sequence
    number. Cancelled handles are kept in a set and their events skipped
    on pop and discarded from the top on peek; the set is only consulted
    while it is non-empty. Cancelling a handle that was already popped or
    cancelled is harmless: numbers are never reused, and the set is
    emptied whenever the heap drains.
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
        """The time of the next event to fire, or None when none is queued.

        Cancelled events on top of the heap are discarded first, as pop
        would skip them, so the time is exact."""
        heap = self._heap
        cancelled = self._cancelled
        if cancelled:
            while heap and heap[0][2] in cancelled:
                cancelled.discard(heappop(heap)[2])
            if not heap:
                cancelled.clear()
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
