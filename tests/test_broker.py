import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import cvsim.broker
from cvsim.broker import Broker, BrokerMessage, TopicError, matches, split_filter, split_topic
from cvsim.config import load_scenario
from cvsim.sim import run_scenario


def reference_matches(pattern, topic):
    """Recursive reference matcher, written independently of the router's
    iterative one: '+' consumes exactly one level, trailing '#' consumes the
    rest (possibly nothing)."""

    def rec(fl, tl):
        if not fl:
            return not tl
        if fl[0] == "#":
            return True
        if not tl:
            return False
        if fl[0] == "+" or fl[0] == tl[0]:
            return rec(fl[1:], tl[1:])
        return False

    return rec(pattern.split("/"), topic.split("/"))


# -- validation ------------------------------------------------------------

@pytest.mark.parametrize("topic", ["a", "a/b", "bsm/raw/veh1", "x" * 250])
def test_valid_topics(topic):
    split_topic(topic)


INVALID_TOPICS = ["", "a//b", "/a", "a/", "a/+/b", "a/#", "x" * 300, "a/\ud800"]


@pytest.mark.parametrize("topic", INVALID_TOPICS)
def test_invalid_topics(topic):
    with pytest.raises(TopicError):
        split_topic(topic)


@pytest.mark.parametrize("pattern", ["a", "+", "#", "a/+/c", "a/#", "+/+/+", "bsm/raw/+"])
def test_valid_filters(pattern):
    split_filter(pattern)


@pytest.mark.parametrize("pattern", ["", "a/#/b", "#/a", "a/b+", "a/+b", "a//b", "a/", "a/\ud800"])
def test_invalid_filters(pattern):
    with pytest.raises(TopicError):
        split_filter(pattern)


def test_malformed_filter_rejected_at_subscribe_time():
    broker = Broker()
    with pytest.raises(TopicError):
        broker.subscribe("c1", "a/#/b", lambda m: None)


# -- matching --------------------------------------------------------------

@pytest.mark.parametrize(
    "pattern,topic,expected",
    [
        ("bsm/raw/+", "bsm/raw/veh1", True),
        ("bsm/#", "bsm/raw/veh1", True),
        ("bsm/#", "bsm", True),
        ("bsm/raw", "bsm/processed", False),
        ("bsm/raw", "bsm/raw", True),
        ("+", "bsm", True),
        ("+", "bsm/raw", False),
        ("#", "a/b/c/d", True),
        ("a/+/c", "a/b/c", True),
        ("a/+/c", "a/b/d", False),
        ("a/+", "a", False),
        ("a/b/#", "a/b/c/d/e", True),
        ("a/b/#", "a", False),
        ("#", "a", True),
        ("a/#", "a", True),
        ("a/+/#", "a/b", True),
        ("+/+", "a", False),
    ],
)
def test_matches_examples(pattern, topic, expected):
    assert matches(pattern, topic) is expected
    assert reference_matches(pattern, topic) is expected
    broker = Broker()
    got = []
    broker.subscribe("c1", pattern, got.append)
    assert broker.publish(msg(topic)) == len(got) == int(expected)


def _random_topic(rng, levels=(1, 4), alphabet=("a", "b", "c")):
    n = rng.randint(*levels)
    return "/".join(rng.choice(alphabet) for _ in range(n))


def _random_filter(rng, levels=(1, 4), alphabet=("a", "b", "c")):
    n = rng.randint(*levels)
    parts = [rng.choice(alphabet + ("+",)) for _ in range(n)]
    if rng.random() < 0.3:
        parts.append("#")
    return "/".join(parts)


def test_matcher_agrees_with_reference_on_random_pairs():
    rng = random.Random(20240811)
    for _ in range(2000):
        pattern = _random_filter(rng)
        topic = _random_topic(rng)
        assert matches(pattern, topic) == reference_matches(pattern, topic), (pattern, topic)


# -- pub/sub semantics -------------------------------------------------------

def msg(topic, payload=None, publisher="p", t=0):
    return BrokerMessage(topic=topic, payload=payload or {}, publisher=publisher, t_pub=t)


def test_publish_counts_and_archive_tap():
    broker = Broker()
    tapped = []
    broker.add_tap(tapped.append)
    assert broker.publish(msg("bsm/raw/v1")) == 0
    assert len(tapped) == 1  # taps see messages even with zero subscribers

    got = []
    broker.subscribe("c1", "bsm/#", got.append)
    broker.subscribe("c2", "bsm/raw/+", got.append)
    broker.subscribe("c3", "queue/#", got.append)
    assert broker.publish(msg("bsm/raw/v1")) == 2
    assert len(got) == 2


def test_overlapping_filters_deliver_once():
    broker = Broker()
    got = []
    broker.subscribe("c1", "bsm/#", got.append)
    broker.subscribe("c1", "bsm/raw/+", got.append)
    assert broker.publish(msg("bsm/raw/v1")) == 1
    assert len(got) == 1


def test_no_retroactive_delivery():
    broker = Broker()
    got = []
    broker.publish(msg("bsm/raw/v1"))
    broker.subscribe("c1", "bsm/#", got.append)
    assert got == []


def test_unsubscribe_stops_delivery_and_resubscribe_is_idempotent():
    broker = Broker()
    got = []
    sid = broker.subscribe("c1", "bsm/#", got.append)
    assert broker.subscribe("c1", "bsm/#", got.append) == sid
    broker.unsubscribe(sid)
    broker.publish(msg("bsm/raw/v1"))
    assert got == []
    with pytest.raises(KeyError):
        broker.unsubscribe(sid)
    new_sid = broker.subscribe("c1", "bsm/#", got.append)
    assert new_sid != sid
    broker.publish(msg("bsm/raw/v1"))
    assert len(got) == 1


def test_malformed_topic_rejected_at_publish():
    broker = Broker()
    with pytest.raises(TopicError):
        broker.publish(msg("bsm/+/v1"))


@pytest.mark.parametrize("topic", INVALID_TOPICS)
def test_malformed_topic_raises_at_every_publish_and_reaches_no_tap(topic):
    fresh, seasoned = Broker(), Broker()
    tapped = []
    for broker in (fresh, seasoned):
        broker.add_tap(tapped.append)
        broker.subscribe("c1", "a/b", tapped.append)
    for good in ("a/b", "a/c", "x" * 250):
        seasoned.publish(msg(good))
    tapped.clear()
    for broker in (fresh, seasoned, fresh, seasoned):
        with pytest.raises(TopicError):
            broker.publish(msg(topic))
    assert tapped == []


def test_each_topic_is_validated_once_per_broker(monkeypatch):
    """Over a whole run, ``split_topic`` runs once per distinct (broker, topic) pair."""
    config = load_scenario("corridor_coverage")
    validated = Counter()
    published = set()
    split, publish = cvsim.broker.split_topic, Broker.publish

    def counting_split(topic):
        validated[topic] += 1
        return split(topic)

    def recording_publish(broker, m):
        published.add((id(broker), m.topic))
        return publish(broker, m)

    monkeypatch.setattr(cvsim.broker, "split_topic", counting_split)
    monkeypatch.setattr(Broker, "publish", recording_publish)
    run_scenario(config)
    assert len(published) > len(validated) > 1  # topics repeat across brokers
    assert validated == Counter(topic for _, topic in published)


def test_wildcard_filters_keep_order_dedup_and_callback():
    """Exact buckets and wildcard filters together, then the exact buckets alone."""
    broker = Broker()
    got = []

    def sub(client, pattern):
        return broker.subscribe(client, pattern, lambda m: got.append((client, pattern)))

    sub("c2", "a/b")
    wild = [sub("c1", "a/+"), sub("c2", "a/#")]
    sub("c3", "a/b")
    sub("c1", "a/b")
    assert broker.publish(msg("a/b")) == 3
    assert got == [("c2", "a/b"), ("c1", "a/+"), ("c3", "a/b")]
    got.clear()
    assert broker.publish(msg("a/c")) == 2
    assert got == [("c1", "a/+"), ("c2", "a/#")]
    for sub_id in wild:
        broker.unsubscribe(sub_id)
    got.clear()
    assert broker.publish(msg("a/b")) == 3
    assert got == [("c2", "a/b"), ("c3", "a/b"), ("c1", "a/b")]
    got.clear()
    assert broker.publish(msg("a/c")) == 0
    assert got == []


def test_per_publisher_fifo_order():
    broker = Broker()
    got = []
    broker.subscribe("c1", "bsm/#", got.append)
    for i in range(50):
        broker.publish(msg("bsm/raw/v1", payload={"i": i}))
    assert [m.payload["i"] for m in got] == list(range(50))


# -- hypothesis properties ----------------------------------------------------

level = st.sampled_from(["a", "b", "c", "d1"])
topic_strategy = st.lists(level, min_size=1, max_size=4).map("/".join)
filter_strategy = st.builds(
    lambda parts, tail: "/".join(parts + ([tail] if tail else [])),
    st.lists(st.sampled_from(["a", "b", "c", "d1", "+"]), min_size=1, max_size=4),
    st.sampled_from(["", "#"]),
)


@settings(max_examples=300, deadline=None)
@given(pattern=filter_strategy, topic=topic_strategy)
def test_matches_equals_reference(pattern, topic):
    assert matches(pattern, topic) == reference_matches(pattern, topic)


@settings(max_examples=200, deadline=None)
@given(
    subs=st.lists(
        st.tuples(st.sampled_from(["c1", "c2", "c3"]), filter_strategy), min_size=0, max_size=6
    ),
    topics=st.lists(topic_strategy, min_size=0, max_size=10),
)
def test_delivery_soundness_and_dedup(subs, topics):
    broker = Broker()
    received = []  # (client, pattern-set snapshot, message index)
    client_filters = {}
    for client, pattern in subs:
        broker.subscribe(client, pattern, lambda m, c=client: received.append((c, m)))
        client_filters.setdefault(client, set()).add(pattern)
    for i, topic in enumerate(topics):
        broker.publish(msg(topic, payload={"i": i}))
    # soundness: every delivery matched at least one of the client's filters
    for client, m in received:
        assert any(matches(p, m.topic) for p in client_filters[client])
    # no duplicates: one client sees one message at most once
    seen = [(c, m.payload["i"]) for c, m in received]
    assert len(seen) == len(set(seen))
    # completeness: every matching message was delivered
    for client, patterns in client_filters.items():
        expected = {
            i for i, t in enumerate(topics) if any(matches(p, t) for p in patterns)
        }
        got = {i for c, i in seen if c == client}
        assert got == expected


# -- the broker vs. a linear scan --------------------------------------------------

class ScanBroker:
    """Reference broker: a list of live subscriptions scanned with ``matches``."""

    def __init__(self):
        self.subs = []  # (sub_id, client, pattern, callback), ascending sub_id
        self.next_id = 1

    def subscribe(self, client, pattern, callback):
        split_filter(pattern)
        for sub_id, c, p, _ in self.subs:
            if (c, p) == (client, pattern):
                return sub_id
        sub_id = self.next_id
        self.next_id += 1
        self.subs.append((sub_id, client, pattern, callback))
        return sub_id

    def unsubscribe(self, sub_id):
        for i, sub in enumerate(self.subs):
            if sub[0] == sub_id:
                del self.subs[i]
                return
        raise KeyError(sub_id)

    def publish(self, m):
        split_topic(m.topic)
        reached, targets = set(), []
        for _, client, pattern, callback in self.subs:
            if client not in reached and matches(pattern, m.topic):
                reached.add(client)
                targets.append(callback)
        for callback in targets:
            callback(m)
        return len(targets)


OVERLAPPING = ["#", "+", "a", "a/#", "a/+", "+/+", "+/#", "a/b", "a/b/#", "+/b", "a/+/c", "b/#"]
op_strategy = st.one_of(
    st.tuples(
        st.just("sub"),
        st.sampled_from(["c1", "c2", "c3"]),
        st.one_of(st.sampled_from(OVERLAPPING), filter_strategy),
    ),
    st.tuples(st.just("unsub"), st.integers(min_value=0, max_value=15)),
    st.tuples(st.just("pub"), topic_strategy),
)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(op_strategy, max_size=40))
def test_broker_equals_linear_scan(ops):
    """Same clients, same callbacks, same order and same count as a linear scan."""
    brokers = (Broker(), ScanBroker())
    logs = ([], [])
    issued = []  # every sub_id handed out, live or not
    for step, op in enumerate(ops):
        if op[0] == "sub":
            _, client, pattern = op
            # The tag names the subscribe call, so a wrong callback shows in the log.
            ids = [
                b.subscribe(client, pattern, lambda m, log=log, tag=step: log.append((tag, m.payload["i"])))
                for b, log in zip(brokers, logs)
            ]
            assert ids[0] == ids[1]
            issued.append(ids[0])
        elif op[0] == "unsub" and issued:
            sub_id = issued[op[1] % len(issued)]
            outcomes = []
            for b in brokers:
                try:
                    b.unsubscribe(sub_id)
                    outcomes.append("ok")
                except KeyError:
                    outcomes.append("KeyError")
            assert outcomes[0] == outcomes[1]
        elif op[0] == "pub":
            counts = [b.publish(msg(op[1], payload={"i": step})) for b in brokers]
            assert counts[0] == counts[1]
            assert logs[0] == logs[1]


def test_unsubscribe_leaves_nothing_behind():
    broker = Broker()
    got = []
    shared = [broker.subscribe(c, "warning/region/r1", lambda m, c=c: got.append(c)) for c in ("c1", "c2")]
    wild = [broker.subscribe("c3", p, lambda m: None) for p in ("a/+/c", "a/#", "b/#", "+")]
    broker.unsubscribe(shared[0])
    assert broker.publish(msg("warning/region/r1")) == 1
    assert got == ["c2"]
    for sub_id in [shared[1], *wild]:
        broker.unsubscribe(sub_id)
    assert broker._exact == {} and broker._wild == {}
    assert broker._subs == {} and broker._by_key == {}
