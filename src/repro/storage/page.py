"""Slotted pages: the unit of storage and of I/O accounting.

The engine simulates disk pages so the benchmarks can report the I/O
story the paper tells (e.g. §3.2.1's "reduced I/O because of no temporary
result table").  A page holds row slots up to a simulated byte budget;
deleted slots stay in place so rowids remain stable.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

#: Simulated page size in bytes.
PAGE_SIZE = 4096

#: Per-slot bookkeeping overhead charged against the page budget.
SLOT_OVERHEAD = 16

#: The collection types sized by their elements (a heap rowid is a
#: tuple of three ints, so a row is charged 40 bytes for one).
_CONTAINERS = frozenset((list, tuple, set, frozenset))


def estimate_size(value: Any) -> int:
    """Rough byte-size estimate of a SQL value for page-budget accounting."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if value.__class__ in _CONTAINERS:
        return SLOT_OVERHEAD + sum(estimate_size(v) for v in value)
    if hasattr(value, "as_dict"):  # ObjectValue
        return SLOT_OVERHEAD + sum(
            estimate_size(v) for v in value.as_dict().values())
    return 32


def estimate_row_size(row: Sequence[Any]) -> int:
    """Byte-size estimate of a whole row including slot overhead."""
    return SLOT_OVERHEAD + sum(estimate_size(v) for v in row)


class Page:
    """A slotted page of rows.

    ``slots[i]`` is either a row (a tuple of values) or ``None`` for a
    deleted slot.  Rows are tuples so that no caller can change a stored
    row in place, and so that the collector stops tracking a row of
    plain values at its first pass.  ``used`` tracks the simulated byte
    occupancy; a page accepts a new row while ``used + size <=
    PAGE_SIZE``.

    A heap writes its slots only through the methods here, and each
    bumps ``writes`` *after* it changes the slot: that ordering is what
    lets :meth:`columns` trust a column image while the count stands.
    """

    __slots__ = ("page_no", "slots", "used", "dirty", "page_lsn", "writes",
                 "_image")

    def __init__(self, page_no: int):
        self.page_no = page_no
        self.slots: List[Optional[Tuple[Any, ...]]] = []
        self.used = 0
        self.dirty = False
        #: LSN of the last WAL record applied to this page (0 = never
        #: logged).  The durable store persists it with the page image;
        #: recovery redo skips records with lsn <= page_lsn, and the
        #: WAL rule flushes the log through page_lsn before the page.
        self.page_lsn = 0
        #: slot writes so far, bumped after each one lands
        self.writes = 0
        #: ``(writes, live slots, column tuples)`` as of that count
        self._image: Optional[Tuple[int, Sequence[int],
                                    Tuple[Tuple[Any, ...], ...]]] = None

    def has_room(self, size: int) -> bool:
        """True when a row of ``size`` simulated bytes fits on this page."""
        return self.used + size <= PAGE_SIZE

    def insert(self, row: Optional[Tuple[Any, ...]], size: int) -> int:
        """Append ``row`` and return its slot number."""
        self.slots.append(row)
        self.writes += 1
        self.used += size
        self.dirty = True
        return len(self.slots) - 1

    def read_slot(self, slot: int) -> Optional[Tuple[Any, ...]]:
        """Return the row at ``slot`` or None when the slot is deleted/bad."""
        slots = self.slots  # one list: a load's undo rebinds it
        if 0 <= slot < len(slots):
            return slots[slot]
        return None

    def update(self, slot: int, row: Tuple[Any, ...], old_size: int,
               new_size: int) -> None:
        """Replace the row at ``slot`` in place (rowids never change)."""
        self.slots[slot] = row
        self.writes += 1
        self.used += new_size - old_size
        self.dirty = True

    def delete(self, slot: int, size: int) -> None:
        """Mark ``slot`` deleted; the slot stays so later rowids are stable."""
        self.slots[slot] = None
        self.writes += 1
        self.used -= size
        self.dirty = True

    def columns(self) -> Tuple[Sequence[int], Tuple[Tuple[Any, ...], ...]]:
        """``(live slots, columns)`` of the page: ``columns[c][i]`` is
        column ``c`` of the row in slot ``live[i]``.

        The image is built from the slots on first use and reused while
        ``writes`` still reads as it did when the build began: a write
        bumps ``writes`` after its slot changes, so the build saw every
        write that count includes, and any later write moves the count
        on.  A build a write overtook is not kept, so it cannot replace
        a newer image.  Columns are tuples — every scan shares them.
        """
        writes = self.writes
        image = self._image
        if image is not None and image[0] == writes:
            return image[1], image[2]
        rows = list(self.slots)
        if None in rows:
            live: Sequence[int] = [
                slot for slot, row in enumerate(rows) if row is not None]
            rows = [rows[slot] for slot in live]
        else:
            live = range(len(rows))
        columns = tuple(zip(*rows))
        if self.writes == writes:
            self._image = (writes, live, columns)
        return live, columns

    def cut(self, slot: int) -> int:
        """Drop the slots from ``slot`` on (a load's undo); returns the
        number of live rows dropped.

        The page gets a new, shorter slot list: a reader that bound the
        old one reads on, and the version store hides what it finds
        there at or above the load's mark until the reader retries.
        """
        slots = self.slots
        dropped = sum(1 for row in slots[slot:] if row is not None)
        self.slots = slots[:slot]
        self.writes += 1
        self.dirty = True
        self.recompute_used()
        return dropped

    def live_count(self) -> int:
        """Number of non-deleted rows on the page."""
        return sum(1 for s in self.slots if s is not None)

    def set_slot(self, slot: int, row: Optional[Sequence[Any]]) -> None:
        """Slot-targeted write used by redo/undo replay (a logged row
        arrives as the log holds it and is stored as a tuple).

        Pads the slot directory as needed and leaves ``used`` stale —
        replay is followed by :meth:`recompute_used` once per page.
        Idempotent: applying the same record twice lands the same state.
        """
        while len(self.slots) <= slot:
            self.slots.append(None)
        self.slots[slot] = None if row is None else tuple(row)
        self.writes += 1
        self.dirty = True

    def recompute_used(self) -> None:
        """Rebuild the byte-occupancy estimate from the live slots."""
        self.used = sum(min(estimate_row_size(r), PAGE_SIZE)
                        for r in self.slots if r is not None)

    def state(self) -> dict:
        """Plain-data image of the page for the durable page store (the
        column image is a cache: a restored page starts without one)."""
        return {"page_no": self.page_no, "slots": list(self.slots),
                "used": self.used, "lsn": self.page_lsn}

    @classmethod
    def from_state(cls, state: dict) -> "Page":
        page = cls(state["page_no"])
        # an image written before rows were tuples holds lists
        page.slots = [None if row is None else tuple(row)
                      for row in state["slots"]]
        page.used = state["used"]
        page.page_lsn = state["lsn"]
        return page

    def __repr__(self) -> str:
        return (f"Page(no={self.page_no}, slots={len(self.slots)}, "
                f"live={self.live_count()}, used={self.used})")
