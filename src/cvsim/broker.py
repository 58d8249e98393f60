"""Topic-based publish/subscribe with hierarchical subject filtering.

Topics are '/'-joined level strings. Subscription filters may use '+' to match
exactly one level and a trailing '#' to match any remaining levels (including
none). Delivery semantics: exactly-once per matching subscriber (deduplicated
across overlapping filters), per-publisher FIFO, no retained messages. Channel
loss belongs to the radio layer, never here.

Each filter is split and validated once, at subscribe time, and each published
topic once per broker, at its first publish. A filter without '+' or '#' can
match only the topic spelled the same, so it is kept in a bucket under that
string and a publish finds it with one lookup. A wildcard filter keeps its
split levels and a publish tests it with ``_match_levels``, the one matcher
that ``matches`` and the archive's queries use too. A topic with no bucket,
published while the broker holds no wildcard filter, reaches the taps and no
one else: the publish stops there, without splitting the topic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

MAX_TOPIC_BYTES = 256
SINGLE = "+"
MULTI = "#"


class TopicError(ValueError):
    """Malformed topic or subscription filter."""


def _utf8(text: str, what: str) -> bytes:
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, such as "\ud800"
        raise TopicError(f"{what} is not valid Unicode text: {text!r}") from None


def split_topic(topic: str) -> list[str]:
    """Validate and split a concrete topic into levels."""
    levels = topic.split("/")
    if len(_utf8(topic, "topic")) > MAX_TOPIC_BYTES:
        raise TopicError(f"topic exceeds {MAX_TOPIC_BYTES} bytes: {topic[:40]}...")
    for level in levels:
        if not level:
            raise TopicError(f"empty level in topic {topic!r}")
        if SINGLE in level or MULTI in level:
            raise TopicError(f"wildcard character in topic {topic!r}")
    return levels


def split_filter(pattern: str) -> list[str]:
    """Validate and split a subscription filter into levels.

    Raises at subscribe time so that matching itself never has to re-check.
    """
    if len(_utf8(pattern, "filter")) > MAX_TOPIC_BYTES:
        raise TopicError(f"filter exceeds {MAX_TOPIC_BYTES} bytes: {pattern[:40]}...")
    levels = pattern.split("/")
    for i, level in enumerate(levels):
        if not level:
            raise TopicError(f"empty level in filter {pattern!r}")
        if level == MULTI:
            if i != len(levels) - 1:
                raise TopicError(f"'#' must be the final level: {pattern!r}")
        elif level == SINGLE:
            continue
        elif SINGLE in level or MULTI in level:
            raise TopicError(f"wildcard must occupy a whole level: {pattern!r}")
    return levels


def _match_levels(flevels: list[str], tlevels: list[str]) -> bool:
    """Match already-validated filter levels against topic levels."""
    for i, flevel in enumerate(flevels):
        if flevel == MULTI:
            # Trailing '#' eats zero or more levels: "a/#" accepts "a".
            return True
        if i >= len(tlevels):
            return False
        if flevel != SINGLE and flevel != tlevels[i]:
            return False
    return len(flevels) == len(tlevels)


def matches(pattern: str, topic: str) -> bool:
    """Level-wise filter match: '+' eats one level, trailing '#' eats the rest."""
    return _match_levels(split_filter(pattern), split_topic(topic))


class BrokerMessage(NamedTuple):
    """One published message, as every tap and subscriber sees it."""

    topic: str
    payload: dict
    publisher: str
    t_pub: int


@dataclass
class _Subscription:
    sub_id: int
    client: str
    pattern: str
    callback: Callable[[BrokerMessage], None]
    levels: list[str]  # the split filter


@dataclass
class Broker:
    """One broker instance; edge nodes each run their own.

    ``taps`` observe every well-formed published message regardless of
    subscriptions (the archive hangs off a tap).
    """

    name: str = "broker"
    _subs: dict[int, _Subscription] = field(init=False, default_factory=dict)
    _by_key: dict[tuple[str, str], int] = field(init=False, default_factory=dict)
    _next_id: int = field(init=False, default=1)
    _exact: dict[str, dict[int, _Subscription]] = field(init=False, default_factory=dict)  # keyed by filter = topic
    _wild: dict[int, _Subscription] = field(init=False, default_factory=dict)
    _valid: set[str] = field(init=False, default_factory=set)  # topics that passed split_topic
    taps: list[Callable[[BrokerMessage], None]] = field(init=False, default_factory=list)

    def add_tap(self, tap: Callable[[BrokerMessage], None]) -> None:
        self.taps.append(tap)

    def subscribe(
        self, client: str, pattern: str, callback: Callable[[BrokerMessage], None]
    ) -> int:
        """Register a filter; idempotent per (client, pattern)."""
        levels = split_filter(pattern)
        key = (client, pattern)
        existing = self._by_key.get(key)
        if existing is not None:
            return existing
        sub_id = self._next_id
        self._next_id += 1
        sub = _Subscription(sub_id, client, pattern, callback, levels)
        self._subs[sub_id] = sub
        self._by_key[key] = sub_id
        if SINGLE in levels or MULTI in levels:
            self._wild[sub_id] = sub
        else:
            self._exact.setdefault(pattern, {})[sub_id] = sub
        return sub_id

    def unsubscribe(self, sub_id: int) -> None:
        sub = self._subs.pop(sub_id, None)
        if sub is None:
            raise KeyError(f"unknown subscription id {sub_id}")
        del self._by_key[(sub.client, sub.pattern)]
        if self._wild.pop(sub_id, None) is None:
            bucket = self._exact[sub.pattern]
            del bucket[sub_id]
            if not bucket:
                del self._exact[sub.pattern]

    def publish(self, msg: BrokerMessage) -> int:
        """Deliver to every subscriber with at least one matching filter.

        Returns the number of subscribers reached. A subscriber with several
        overlapping filters still sees the message exactly once, through the
        callback of its lowest-numbered matching subscription; subscribers
        are called in ascending order of that subscription's id.
        """
        topic = msg.topic
        if topic not in self._valid:
            split_topic(topic)
            self._valid.add(topic)
        for tap in self.taps:
            tap(msg)
        bucket = self._exact.get(topic)
        if bucket is None and not self._wild:
            return 0
        levels = topic.split("/")
        found = dict(bucket or ())
        for sub_id, sub in self._wild.items():
            if _match_levels(sub.levels, levels):
                found[sub_id] = sub
        reached: set[str] = set()
        targets: list[_Subscription] = []
        for sub_id in sorted(found):
            sub = found[sub_id]
            if sub.client not in reached:
                reached.add(sub.client)
                targets.append(sub)
        for sub in targets:
            sub.callback(msg)
        return len(targets)
