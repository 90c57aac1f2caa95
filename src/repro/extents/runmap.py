"""Run-length translation maps.

A :class:`RunMap` is a partial map ``key -> (frame, attr)`` (think
virtual page number -> (physical frame, protection)) stored as sorted,
disjoint runs with *frame arithmetic*: a run ``[start, end)`` with
base frame ``f`` translates key ``k`` to frame ``f + (k - start)``.
Runs are kept maximal — a neighbouring run with contiguous frames and
an equal attribute is coalesced on insert — so one contiguous
million-page mapping is exactly one entry, and the stored run count is
the number of maximal extents of the underlying per-page relation.

The total mapped-key count is maintained incrementally: ``len`` is
O(1), as is :attr:`run_count`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator, List, Optional, Tuple


class RunMap:
    """Sorted ``key -> (base_frame + offset, attr)`` translation runs."""

    __slots__ = ("_starts", "_ends", "_frames", "_attrs", "_total")

    def __init__(self):
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._frames: List[int] = []
        self._attrs: List[Any] = []
        self._total = 0

    # -- mutation ----------------------------------------------------------------

    def set(self, key: int, frame: int, attr: Any) -> None:
        """Map one key (overwriting any previous translation)."""
        self.set_run(key, 1, frame, attr)

    def set_run(self, start: int, count: int, frame: int, attr: Any) -> None:
        """Map ``count`` consecutive keys from *start* to ``count``
        consecutive frames from *frame*, all with *attr* — overwriting
        whatever the range held before, then coalescing with any
        frame-contiguous, attr-equal neighbour."""
        if count <= 0:
            return
        end = start + count
        self.clear_range(start, end)
        starts, ends = self._starts, self._ends
        frames, attrs = self._frames, self._attrs
        index = bisect_left(starts, start)
        if index > 0 and ends[index - 1] == start \
                and attrs[index - 1] == attr \
                and frames[index - 1] + (start - starts[index - 1]) == frame:
            index -= 1
            start = starts[index]
            frame = frames[index]
            del starts[index]
            del ends[index]
            del frames[index]
            del attrs[index]
        if index < len(starts) and starts[index] == end \
                and attrs[index] == attr \
                and frame + (starts[index] - start) == frames[index]:
            end = ends[index]
            del starts[index]
            del ends[index]
            del frames[index]
            del attrs[index]
        starts.insert(index, start)
        ends.insert(index, end)
        frames.insert(index, frame)
        attrs.insert(index, attr)
        self._total += count

    def delete(self, key: int) -> bool:
        """Unmap one key; True when it was mapped."""
        return self.clear_range(key, key + 1) > 0

    def clear_range(self, start: int, end: int) -> int:
        """Unmap every key in ``[start, end)``; return how many were
        mapped.  Runs straddling the boundary are trimmed (the
        surviving piece keeps its frame arithmetic)."""
        if end <= start:
            return 0
        starts, ends = self._starts, self._ends
        frames, attrs = self._frames, self._attrs
        lo = bisect_right(ends, start)
        hi = bisect_left(starts, end)
        if lo >= hi:
            return 0
        removed = sum(min(ends[k], end) - max(starts[k], start)
                      for k in range(lo, hi))
        keep: List[Tuple[int, int, int, Any]] = []
        if starts[lo] < start:
            keep.append((starts[lo], start, frames[lo], attrs[lo]))
        if ends[hi - 1] > end:
            keep.append((end, ends[hi - 1],
                         frames[hi - 1] + (end - starts[hi - 1]),
                         attrs[hi - 1]))
        starts[lo:hi] = [piece[0] for piece in keep]
        ends[lo:hi] = [piece[1] for piece in keep]
        frames[lo:hi] = [piece[2] for piece in keep]
        attrs[lo:hi] = [piece[3] for piece in keep]
        self._total -= removed
        return removed

    def set_attr_range(self, start: int, end: int, attr: Any) -> int:
        """Give every *mapped* key in ``[start, end)`` the attribute
        *attr* (frames unchanged); return how many keys changed.
        Unmapped holes are skipped, not an error.

        Runs wholly inside the range change in place and are re-
        coalesced with each other and their outer neighbours in one
        pass; only the (at most two) runs straddling a boundary are
        split, through :meth:`set_run`.  Runs stay maximal."""
        if end <= start:
            return 0
        starts, ends = self._starts, self._ends
        frames, attrs = self._frames, self._attrs
        lo = bisect_right(ends, start)
        hi = bisect_left(starts, end)
        if lo >= hi:
            return 0
        edges: List[Tuple[int, int, int]] = []
        if starts[lo] < start:
            if attrs[lo] != attr:
                edges.append((start, min(ends[lo], end) - start,
                              frames[lo] + (start - starts[lo])))
            lo += 1
        if lo < hi and ends[hi - 1] > end:
            if attrs[hi - 1] != attr:
                edges.append((starts[hi - 1], end - starts[hi - 1],
                              frames[hi - 1]))
            hi -= 1
        changed = 0
        for index in range(lo, hi):
            if attrs[index] != attr:
                attrs[index] = attr
                changed += ends[index] - starts[index]
        if changed:
            self._coalesce(lo - 1, hi + 1)
        for piece_start, piece_count, piece_frame in edges:
            self.set_run(piece_start, piece_count, piece_frame, attr)
            changed += piece_count
        return changed

    def _coalesce(self, lo: int, hi: int) -> None:
        """Merge key- and frame-contiguous, attr-equal neighbours among
        runs ``lo .. hi-1`` (indices clamped), in one pass."""
        starts, ends = self._starts, self._ends
        frames, attrs = self._frames, self._attrs
        lo = max(lo, 0)
        hi = min(hi, len(starts))
        if hi - lo < 2:
            return
        new_starts, new_ends = [starts[lo]], [ends[lo]]
        new_frames, new_attrs = [frames[lo]], [attrs[lo]]
        for index in range(lo + 1, hi):
            run_start = starts[index]
            if run_start == new_ends[-1] and attrs[index] == new_attrs[-1] \
                    and new_frames[-1] + (run_start - new_starts[-1]) \
                    == frames[index]:
                new_ends[-1] = ends[index]
                continue
            new_starts.append(run_start)
            new_ends.append(ends[index])
            new_frames.append(frames[index])
            new_attrs.append(attrs[index])
        if len(new_starts) < hi - lo:
            starts[lo:hi] = new_starts
            ends[lo:hi] = new_ends
            frames[lo:hi] = new_frames
            attrs[lo:hi] = new_attrs

    def clear(self) -> None:
        """Unmap everything."""
        del self._starts[:]
        del self._ends[:]
        del self._frames[:]
        del self._attrs[:]
        self._total = 0

    # -- queries -----------------------------------------------------------------

    def get(self, key: int) -> Optional[Tuple[int, Any]]:
        """``(frame, attr)`` of *key*, or None when unmapped."""
        index = bisect_right(self._starts, key) - 1
        if index >= 0 and key < self._ends[index]:
            return (self._frames[index] + (key - self._starts[index]),
                    self._attrs[index])
        return None

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def first_gap(self, start: int, end: int) -> Optional[int]:
        """Smallest unmapped key in ``[start, end)``, or None when the
        range is fully mapped."""
        if end <= start:
            return None
        cursor = start
        starts, ends = self._starts, self._ends
        index = bisect_right(ends, start)
        while cursor < end:
            if index >= len(starts) or starts[index] > cursor:
                return cursor
            cursor = ends[index]
            index += 1
        return None

    def covered_count(self, start: int, end: int) -> int:
        """How many keys in ``[start, end)`` are mapped."""
        return sum(count for _, count, _, _ in self.runs_in(start, end))

    def runs(self) -> List[Tuple[int, int, int, Any]]:
        """All runs as ``(start, count, base_frame, attr)``, in order."""
        return [(start, end - start, frame, attr)
                for start, end, frame, attr
                in zip(self._starts, self._ends, self._frames, self._attrs)]

    def runs_in(self, start: int, end: int) \
            -> List[Tuple[int, int, int, Any]]:
        """Runs clipped to ``[start, end)``, frame bases adjusted."""
        if end <= start:
            return []
        starts, ends = self._starts, self._ends
        lo = bisect_right(ends, start)
        hi = bisect_left(starts, end)
        clipped = []
        for k in range(lo, hi):
            run_start = max(starts[k], start)
            run_end = min(ends[k], end)
            clipped.append((run_start, run_end - run_start,
                            self._frames[k] + (run_start - starts[k]),
                            self._attrs[k]))
        return clipped

    def keys_in(self, start: int, end: int) -> List[int]:
        """All mapped keys in ``[start, end)``, ascending."""
        result: List[int] = []
        for run_start, count, _, _ in self.runs_in(start, end):
            result.extend(range(run_start, run_start + count))
        return result

    def items(self) -> Iterator[Tuple[int, int, Any]]:
        """Per-key view: yields ``(key, frame, attr)`` in key order."""
        for start, end, frame, attr in zip(self._starts, self._ends,
                                           self._frames, self._attrs):
            for offset in range(end - start):
                yield start + offset, frame + offset, attr

    def __len__(self) -> int:
        return self._total

    def __bool__(self) -> bool:
        return self._total > 0

    @property
    def run_count(self) -> int:
        """Number of maximal runs currently stored — the port's "table
        entry count" in extent form."""
        return len(self._starts)

    def __repr__(self) -> str:
        return f"RunMap({self._total} keys in {len(self._starts)} runs)"
