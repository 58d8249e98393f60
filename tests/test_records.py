"""The per-message records: immutable tuples with fixed fields, built by keyword or by position."""

import math
import random

import pytest

from cvsim.archive import Record
from cvsim.broker import BrokerMessage
from cvsim.core import Bsm, GeoPoint, InvalidParameterError
from cvsim.radio import Delivered, LinkKind, LinkModel, sample_delivery
from cvsim.replay import TraceRecord
from cvsim.sim import PacketRecord

BSM = Bsm(t=50, vehicle_id="cv1", pos=GeoPoint(40.0, -75.0), speed=3.5)

# Each record type with one value per field, in field order.
RECORDS = [
    (GeoPoint, ("lat", "lon"), (40.0, -75.0)),
    (Bsm, ("t", "vehicle_id", "pos", "speed", "heading"), (50, "cv1", GeoPoint(40.0, -75.0), 3.5, 90.0)),
    (PacketRecord, ("t_send", "t_recv", "tx", "rx", "link", "kind"), (100, 104, "rsu1", "cv1", LinkKind.DSRC, "beacon")),
    (Delivered, ("latency_ms",), (4,)),
    (BrokerMessage, ("topic", "payload", "publisher", "t_pub"), ("bsm/raw/cv1", {"t": 50}, "cv1", 50)),
    (Record, ("seq", "topic", "t", "payload", "origin"), (0, "bsm/raw/cv1", 50, {"t": 50}, "cv1")),
    (TraceRecord, ("bsm", "truth"), (BSM, True)),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, names, values):
    by_keyword = cls(**dict(zip(names, values)))
    by_position = cls(*values)
    assert by_keyword == by_position
    assert cls._fields == names
    assert tuple(by_position) == values
    assert [getattr(by_keyword, name) for name in names] == list(values)


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_every_field_is_read_only(cls, names, values):
    record = cls(*values)
    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert tuple(record) == values


def test_packet_delivery_and_latency():
    delivered = PacketRecord(t_send=100, t_recv=106, tx="rsu1", rx="system", link=LinkKind.WIFI, kind="bsm_forward")
    assert delivered.delivered and delivered.latency_ms == 6
    lost = delivered._replace(t_recv=None)
    assert not lost.delivered and lost.latency_ms is None


def test_sample_delivery_returns_none_or_delivered():
    model = LinkModel(kind=LinkKind.DSRC, range_m=300.0, latency_mean_ms=4, latency_jitter_ms=3, p_near=0.5)
    rng = random.Random(7)
    outcomes = [sample_delivery(100.0, model, rng) for _ in range(400)]
    delivered = [o for o in outcomes if o is not None]
    assert 0 < len(delivered) < len(outcomes)
    assert all(type(o) is Delivered and 1 <= o.latency_ms <= 7 for o in delivered)


@pytest.mark.parametrize("cls", [PacketRecord, BrokerMessage, Record, Delivered], ids=lambda cls: cls.__name__)
def test_unvalidated_records_keep_the_generated_constructor(cls):
    """The records that validate nothing keep the ``__new__`` that ``typing.NamedTuple`` made.

    Hot sites build ``PacketRecord``, ``BrokerMessage`` and ``Record`` with ``tuple.__new__``, which
    skips ``__new__``, so a validating one, which a subclass can add as ``GeoPoint`` and ``Bsm`` do,
    would be skipped there without warning; ``Delivered`` is held to the same."""
    assert cls.__bases__ == (tuple,)
    assert cls.__new__.__globals__["__name__"] == f"namedtuple_{cls.__name__}"
    fields = tuple(range(len(cls._fields)))
    assert cls(*fields) == tuple.__new__(cls, fields)


@pytest.mark.parametrize(
    "value, name",
    [(GeoPoint(40.0, -75.0), "lat"), (BSM, "speed"), (BSM, "pos")],
    ids=["GeoPoint.lat", "Bsm.speed", "Bsm.pos"],
)
def test_validated_types_are_frozen(value, name):
    before = tuple(value)
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    assert tuple(value) == before


def test_validated_types_still_validate():
    """Every constructor path checks, latitude before longitude before speed, with the same messages."""
    pos = GeoPoint(40.0, -75.0)
    cases = [
        (lambda: Bsm(t=50, vehicle_id="cv1", pos=pos, speed=-0.1), "negative speed: -0.1"),
        (lambda: GeoPoint(90.5, -75.0), "latitude out of range: 90.5"),
        (lambda: GeoPoint(40.0, -180.5), "longitude out of range: -180.5"),
        (lambda: GeoPoint(math.nan, -75.0), "latitude out of range: nan"),
        (lambda: GeoPoint(lat=40.0, lon=math.nan), "longitude out of range: nan"),
        (lambda: GeoPoint(91.0, 181.0), "latitude out of range: 91.0"),
        (lambda: GeoPoint._make((91.0, 0.0)), "latitude out of range: 91.0"),
        (lambda: pos._replace(lon=200.0), "longitude out of range: 200.0"),
        (lambda: Bsm._make((50, "cv1", pos, -2.0)), "negative speed: -2.0"),
        (lambda: BSM._replace(speed=-1.0), "negative speed: -1.0"),
    ]
    for build, message in cases:
        with pytest.raises(InvalidParameterError) as err:
            build()
        assert str(err.value) == message
