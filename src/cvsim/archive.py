"""Append-only document store with time-range and topic queries.

Each edge node owns one archive: roadside nodes keep a short retention window,
the backend keeps everything. Records are kept in memory in (t, seq) order,
with a count of the retained records per topic and the split levels of each
retained topic, so ``count`` and ``query`` match distinct topics, not records.
Nothing is encoded on append. An export encodes each record's payload once
(``canonical_json``) and builds the record's line around that encoding
(``record_line``; ``spliced_line`` adds one key). Keys are sorted, so
identical runs export byte-identical files.
"""

from __future__ import annotations

import json
from bisect import bisect, bisect_left, insort
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator

from .broker import _match_levels, split_filter, split_topic

# One encoder for every export: ``json.dumps`` with options builds a new one per call.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_json_str = json.encoder.encode_basestring_ascii


def canonical_line(doc: dict) -> str:
    """``doc`` as one compact JSON line with sorted keys: the form of every exported document."""
    return canonical_json(doc) + "\n"


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


_record_t = attrgetter("t")


def record_line(record: Record, payload_json: str) -> str:
    """The record's export line, given ``payload_json = canonical_json(record.payload)``.

    The same bytes as ``canonical_line`` of the record's five fields, whose
    sorted order is origin, payload, seq, t, topic.
    """
    return (
        f'{{"origin":{_json_str(record.origin)},"payload":{payload_json},'
        f'"seq":{record.seq},"t":{record.t},"topic":{_json_str(record.topic)}}}\n'
    )


def spliced_line(payload: dict, payload_json: str, key: str, value: object, value_json: str) -> str:
    """``canonical_line({**payload, key: value})``, given the encodings of ``payload`` and ``value``.

    Into a flat payload (one ``{``, no ``[``: no dict or list values) that
    lacks ``key``, the item is spliced at its sorted place. An unescaped
    ``"`` inside an encoded string never follows a ``,``, so ``,"<next key>":``
    occurs only where that key opens. Any other payload is encoded whole.
    Payload keys are strings, as in every message document.
    """
    if key in payload or "[" in payload_json or payload_json.count("{") != 1:
        return canonical_line({**payload, key: value})
    keys = sorted(payload)
    i = bisect(keys, key)
    item = f"{_json_str(key)}:{value_json}"
    if i == len(keys):
        return f"{payload_json[:-1]},{item}}}\n" if keys else f"{{{item}}}\n"
    if i == 0:
        return f"{{{item},{payload_json[1:]}\n"
    j = payload_json.index(f",{_json_str(keys[i])}:") + 1
    return f"{payload_json[:j]}{item},{payload_json[j:]}\n"


@dataclass
class Archive:
    """Records older than ``max_age_ms`` are dropped at ``prune``; ``None`` keeps everything."""

    node_id: str
    max_age_ms: int | None = None
    _records: list[Record] = field(default_factory=list)  # in (t, seq) order
    _topics: Counter[str] = field(default_factory=Counter)  # retained records per topic
    _levels: dict[str, list[str]] = field(default_factory=dict)  # split topic, filled on first match
    appended_total: int = 0

    def __post_init__(self) -> None:
        if self.max_age_ms is not None and self.max_age_ms <= 0:
            raise ValueError(f"max_age_ms must be positive, got {self.max_age_ms}")

    def append(self, topic: str, t: int, payload: dict, origin: str) -> int:
        """Append a record; returns its sequence number, the count appended before it."""
        seq = self.appended_total
        record = Record(seq=seq, topic=topic, t=t, payload=payload, origin=origin)
        records = self._records
        if records and t < records[-1].t:
            # The event loop appends in time order; an earlier t still lands in (t, seq) order.
            insort(records, record, key=_record_t)
        else:
            records.append(record)
        self._topics[topic] += 1
        self.appended_total += 1
        return seq

    def topics(self, pattern: str = "#") -> set[str]:
        """The distinct topics of the retained records that ``pattern`` matches."""
        flevels = split_filter(pattern)
        levels = self._levels
        found = set()
        for topic in self._topics:
            tlevels = levels.get(topic)
            if tlevels is None:
                tlevels = levels[topic] = split_topic(topic)
            if _match_levels(flevels, tlevels):
                found.add(topic)
        return found

    def query(self, t0: int, t1: int, pattern: str = "#") -> list[Record]:
        """Unpruned records with t in [t0, t1] matching ``pattern``, (t, seq)-ordered."""
        if t0 > t1:
            raise InvalidRangeError(f"t0={t0} > t1={t1}")
        topics = self.topics(pattern)
        return [r for r in self._records if t0 <= r.t <= t1 and r.topic in topics]

    def count(self, pattern: str = "#") -> int:
        return sum(self._topics[topic] for topic in self.topics(pattern))

    def prune(self, now: int) -> int:
        """Drop records older than the retention horizon; returns how many."""
        if self.max_age_ms is None:
            return 0
        cut = bisect_left(self._records, now - self.max_age_ms, key=_record_t)
        topics = self._topics
        for r in self._records[:cut]:
            topics[r.topic] -= 1
            if not topics[r.topic]:
                del topics[r.topic]
                self._levels.pop(r.topic, None)
        del self._records[:cut]
        return cut

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        """The retained records in (t, seq) order."""
        return iter(self._records)

    def export_ndjson(self, path: str) -> int:
        """Write one normalized JSON document per line; returns record count."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for r in self._records:
                fh.write(record_line(r, canonical_json(r.payload)))
        return len(self._records)
