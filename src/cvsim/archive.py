"""Append-only document store with time-range and topic queries.

Each edge node owns one archive: roadside nodes keep a short retention window,
the backend keeps everything. Storage is an in-memory list with an optional
newline-delimited JSON export whose key order is normalized, so identical runs
export byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .broker import _match_levels, split_filter, split_topic


def canonical_line(doc: dict) -> str:
    """``doc`` as one compact JSON line with sorted keys: the form of every exported document."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


class InvalidRangeError(ValueError):
    """Query range with t0 > t1."""


@dataclass(frozen=True)
class Record:
    """One archived document; immutable once appended."""

    seq: int
    topic: str
    t: int
    payload: dict
    origin: str


@dataclass
class Archive:
    """Records older than ``max_age_ms`` are dropped at ``prune``; ``None`` keeps everything."""

    node_id: str
    max_age_ms: int | None = None
    _records: list[Record] = field(default_factory=list)
    appended_total: int = 0

    def __post_init__(self) -> None:
        if self.max_age_ms is not None and self.max_age_ms <= 0:
            raise ValueError(f"max_age_ms must be positive, got {self.max_age_ms}")

    def append(self, topic: str, t: int, payload: dict, origin: str) -> int:
        """Append a record; returns its sequence number, the count appended before it."""
        seq = self.appended_total
        self._records.append(Record(seq=seq, topic=topic, t=t, payload=payload, origin=origin))
        self.appended_total += 1
        return seq

    def query(self, t0: int, t1: int, pattern: str = "#") -> list[Record]:
        """Unpruned records with t in [t0, t1] matching ``pattern``, (t, seq)-ordered.

        Appends already arrive in (t, seq) order from the event loop, but the
        contract is ordering, not trust, so the result is sorted regardless.
        """
        if t0 > t1:
            raise InvalidRangeError(f"t0={t0} > t1={t1}")
        flevels = split_filter(pattern)
        hits = [
            r for r in self._records
            if t0 <= r.t <= t1 and _match_levels(flevels, split_topic(r.topic))
        ]
        hits.sort(key=lambda r: (r.t, r.seq))
        return hits

    def count(self, pattern: str = "#") -> int:
        flevels = split_filter(pattern)
        return sum(1 for r in self._records if _match_levels(flevels, split_topic(r.topic)))

    def prune(self, now: int) -> int:
        """Drop records older than the retention horizon; returns how many."""
        if self.max_age_ms is None:
            return 0
        horizon = now - self.max_age_ms
        before = len(self._records)
        self._records = [r for r in self._records if r.t >= horizon]
        return before - len(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def export_ndjson(self, path: str) -> int:
        """Write one normalized JSON document per line; returns record count."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for r in self._records:
                doc = {"seq": r.seq, "topic": r.topic, "t": r.t, "origin": r.origin, "payload": r.payload}
                fh.write(canonical_line(doc))
        return len(self._records)
