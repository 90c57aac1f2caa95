"""A test-side record of a virtual clock's charge stream.

:class:`ChargeStream` is a clock listener.  It keeps per-event counts
and a sha256 over the charges in the order they land, with adjacent
charges of the same event merged first: ``charge(e, 3)`` and three
``charge(e)`` in a row give the same digest (grouping does not matter),
while swapping two charges of different events changes it (order
does).  The goldens pin the digest next to the exact virtual time, so
a refactor that reorders the mechanism's events shows up even though
the integer clock's total no longer depends on order.
"""

from __future__ import annotations

import hashlib
from collections import Counter


class ChargeStream:
    """Clock listener: event counts plus an order digest."""

    def __init__(self):
        self.counts: Counter = Counter()
        self._sha = hashlib.sha256()
        self._event = None
        self._pending = 0

    def __call__(self, time_ms, event, count) -> None:
        self.counts[event.value] += count
        if event is self._event:
            self._pending += count
            return
        self._flush(self._sha)
        self._event, self._pending = event, count

    def _flush(self, sha) -> None:
        if self._event is not None:
            sha.update(f"{self._event.value}:{self._pending};".encode())

    def hexdigest(self) -> str:
        """Digest of the stream so far (the stream may go on)."""
        sha = self._sha.copy()
        self._flush(sha)
        return sha.hexdigest()

    def record(self) -> dict:
        """Counts (sorted, events never charged left out) and digest."""
        return {"counts": dict(sorted(self.counts.items())),
                "charges_sha256": self.hexdigest()}
