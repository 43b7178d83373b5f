"""Client-chosen transaction timestamps.

``Begin()`` (Sec 4.1): a client starts transaction T by optimistically
choosing ``ts := (Time, ClientID)``, which defines a total serialization
order across all clients.  Replicas reject operations whose timestamp
exceeds their local clock plus the skew bound delta, which is Basil's
defence against Byzantine clients picking arbitrarily high timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Resolution of the time component (integer microseconds).
_US_PER_SECOND = 1_000_000


@dataclass(frozen=True, eq=False)
class Timestamp:
    """A totally ordered (time, client_id) pair.

    ``time`` is in integer microseconds so that equality and ordering are
    exact; ``client_id`` breaks ties, making timestamps from distinct
    clients always distinct.  Comparisons and the hash agree with the
    ``(time, client_id)`` tuple, but compare the two ints directly (MVTSO
    compares timestamps on every read and prepare); comparing with
    another type is an error, equality with one is False.
    """

    time: int
    client_id: int

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.time == other.time and self.client_id == other.client_id
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.time, self.client_id))

    def __lt__(self, other: "Timestamp") -> bool:
        if other.__class__ is self.__class__:
            time = self.time
            return time < other.time or (time == other.time and self.client_id < other.client_id)
        return NotImplemented

    def __le__(self, other: "Timestamp") -> bool:
        if other.__class__ is self.__class__:
            time = self.time
            return time < other.time or (time == other.time and self.client_id <= other.client_id)
        return NotImplemented

    def __gt__(self, other: "Timestamp") -> bool:
        if other.__class__ is self.__class__:
            time = self.time
            return time > other.time or (time == other.time and self.client_id > other.client_id)
        return NotImplemented

    def __ge__(self, other: "Timestamp") -> bool:
        if other.__class__ is self.__class__:
            time = self.time
            return time > other.time or (time == other.time and self.client_id >= other.client_id)
        return NotImplemented

    @classmethod
    def from_clock(cls, seconds: float, client_id: int) -> "Timestamp":
        """Build a timestamp from a node's local clock reading."""
        return cls(time=int(round(seconds * _US_PER_SECOND)), client_id=client_id)

    def to_seconds(self) -> float:
        return self.time / _US_PER_SECOND

    def canonical_fields(self) -> tuple:
        return (self.time, self.client_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ts({self.time}us,c{self.client_id})"


#: The timestamp of genesis (initially loaded) versions.  Strictly below
#: every client timestamp because client ids are positive.
GENESIS = Timestamp(time=0, client_id=0)
