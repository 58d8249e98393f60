"""Append-only document store with time-range and topic queries.

Each edge node owns one archive: roadside nodes keep a short retention window,
the backend keeps everything. Records are kept in memory in (t, seq) order,
with a count of the retained records per topic, so ``count`` and ``query``
match distinct topics, not records.
Nothing is encoded on append. An export encodes each record's payload once
(``canonical_json``, whose encoder is built once, at import) and builds the
record's line around that encoding (``record_line``). Keys are sorted, so
identical runs export byte-identical files. Every file cvsim writes is opened
by ``open_text``: UTF-8 with LF line ends on every platform.

A ``Record`` is an immutable ``typing.NamedTuple``, compared as a tuple.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Iterator, NamedTuple, TextIO

from .broker import _match_levels, split_filter, split_topic

_json_str = json.encoder.encode_basestring_ascii
# One C encoder for every export, built once: ``JSONEncoder.encode`` builds a new one, with a
# circular-reference dict and a float closure, on every call. CPython's ``json`` always has
# ``c_make_encoder`` (from ``_json``). ``markers`` is None, so nothing checks for cycles: every
# payload comes from cvsim's own ``to_doc`` methods and holds none, and a shared markers dict
# would keep a stale entry after any error. The arguments are those ``JSONEncoder.iterencode``
# passes: markers, default, string encoder, indent, key and item separators, sort_keys,
# skipkeys, allow_nan.
_encoder = json.encoder.c_make_encoder(None, json.JSONEncoder().default, _json_str, None, ":", ",", True, False, True)


def canonical_json(doc: object) -> str:
    """``json.dumps(doc, sort_keys=True, separators=(",", ":"))``."""
    return "".join(_encoder(doc, 0))


def open_text(path: str | Path) -> TextIO:
    """``path`` opened to write text as UTF-8 with LF line ends, whatever the platform's."""
    return open(path, "w", encoding="utf-8", newline="\n")


def canonical_line(doc: dict) -> str:
    """``doc`` as one compact JSON line with sorted keys: the form of every exported document."""
    return canonical_json(doc) + "\n"


class InvalidRangeError(ValueError):
    """Query range with t0 > t1."""


class Record(NamedTuple):
    """One archived document; immutable once appended."""

    seq: int
    topic: str
    t: int
    payload: dict
    origin: str


_record_t = attrgetter("t")
# Builds a ``Record``, which validates nothing, from its fields, skipping its generated ``__new__``.
_tuple_new = tuple.__new__


def record_line(record: Record, payload_json: str) -> str:
    """The record's export line, given ``payload_json = canonical_json(record.payload)``.

    The same bytes as ``canonical_line`` of the record's five fields, whose
    sorted order is origin, payload, seq, t, topic.
    """
    return (
        f'{{"origin":{_json_str(record.origin)},"payload":{payload_json},'
        f'"seq":{record.seq},"t":{record.t},"topic":{_json_str(record.topic)}}}\n'
    )


@dataclass
class Archive:
    """Records older than ``max_age_ms`` are dropped at ``prune``; ``None`` keeps everything."""

    node_id: str
    max_age_ms: int | None = None
    _records: list[Record] = field(init=False, default_factory=list)  # in (t, seq) order
    _topics: Counter[str] = field(init=False, default_factory=Counter)  # retained records per topic
    appended_total: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.max_age_ms is not None and self.max_age_ms <= 0:
            raise ValueError(f"max_age_ms must be positive, got {self.max_age_ms}")

    def append(self, topic: str, t: int, payload: dict, origin: str) -> int:
        """Append a record; returns its sequence number, the count appended before it."""
        seq = self.appended_total
        record = _tuple_new(Record, (seq, topic, t, payload, origin))
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
        return {topic for topic in self._topics if _match_levels(flevels, split_topic(topic))}

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
        del self._records[:cut]
        return cut

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        """The retained records in (t, seq) order."""
        return iter(self._records)

    def export_ndjson(self, path: str) -> int:
        """Write one normalized JSON document per line; returns record count."""
        with open_text(path) as fh:
            for r in self._records:
                fh.write(record_line(r, canonical_json(r.payload)))
        return len(self._records)
