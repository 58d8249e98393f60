"""Run orchestration: builds the three-layer testbed from a scenario and runs it.

Layer wiring:

* vehicles stream telemetry every messaging period on their active link --
  short-range to the nearest roadside node, cellular straight to the backend
  otherwise; a short-range BSM whose nearest node is beyond its effective
  range is counted as out of range, and no farther node is tried;
* every edge node, roadside or backend, is one ``_Node``: a broker whose single
  tap appends every message to the node's archive, and every publish goes
  through ``Simulation._publish``;
* roadside nodes publish received telemetry to their local broker, forward the
  same payload over the backhaul, run the queue detector once per second, and
  broadcast handoff beacons;
* every send, of any kind, is decided in one place, ``Simulation._send``,
  which counts it in the run's ledger, ``RunResult.sends`` (ns-3
  FlowMonitor's ``FlowStats``): beyond the link's effective range it is
  ``out_of_range`` and not logged; in range it draws its loss and latency,
  is logged, and unless lost goes to ``Engine.deliver``. The run ends at
  ``t_end_ms``, so a delivery due later is ``in_flight`` when it is sent.
  Each route a send can take is one ``_Channel``, resolved at set-up: its
  link model, packet kind, the link's delivery stream and the kind's tally
  (each RSU's beacon and BSM routes, the cellular BSM route, the two
  backhaul routes and the two warning routes);
* a roadside node keeps a window of received telemetry only while the
  detector runs: each tick summarises it once per vehicle
  (``apps.window_by_vehicle``), decides and publishes the processed data from
  those summaries, then empties it; with detection disabled it stays empty;
* the backend node is the same kind of node with an unbounded archive: it
  stores everything it receives and hosts the region-wide warning topic that
  relays sudden-stop warnings to subscribed vehicles beyond short-range reach.
* a connected vehicle has one pending liveness check (``handoff-check``)
  exactly while it is on the short-range link, due at its last beacon plus
  the miss timeout: the handoff onto that link arms it, and a check that
  hands nothing off re-arms at the latest beacon's deadline under the engine
  ticket that beacon reserved, so it fires exactly where a check per beacon
  would have (RFC 6298 section 5's one restartable timer). Each vehicle's
  beacon handler and check handler are bound once, when it spawns, and only
  the first beacon of a millisecond does anything: the later ones find it
  already done.
* every delivery is a ``functools.partial`` of a method, bound per send or,
  for the beacon and check handlers, at spawn: no closure per packet.

Recurring activities are phase-offset inside each 100 ms period (kinematics at
+0, beacons at +10, telemetry at +50, detector on the whole second), so at the
default cadences no two share a millisecond; where other cadences do
(``beacon_interval_ms: 20`` puts a beacon round at 50 ms, beside the telemetry
round), insertion order decides. Either way event order -- and therefore every
artifact byte -- is a pure function of (scenario, seed).
The detector fires before the same-instant kinematics tick, so a decision at
second k and the ground-truth sample beside it both see the world exactly as
the newest telemetry in its window reported it.

Roadside nodes are found through ``_RsuIndex``, a sorted projection of their
positions onto one fixed axis. Each vehicle is measured, once per position,
against only the nodes the index cannot rule out at the short-range link's
range (``Simulation._reach``); the beacon round and the telemetry round both
read that one list, and give exactly what measuring every node would. A
stopped vehicle keeps its one position object (``TrafficWorld.position_geo``),
and with it its list, for the whole stop.

``PacketRecord`` is an immutable ``typing.NamedTuple``, compared as a tuple;
the README's ``sim`` entry says why each per-message record is one. It and
``BrokerMessage`` validate nothing, so ``_send`` and ``_publish`` build them
positionally with ``tuple.__new__``, skipping the generated ``__new__``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import pairwise
from typing import Callable, NamedTuple, TextIO

from . import handoff as ho
from .apps import (
    WINDOW_MS,
    AvoidanceDecision,
    QueueDecision,
    WarningMessage,
    accuracy,
    decide_avoidance,
    detect_queue,
    window_by_vehicle,
)
from .archive import Archive
from .broker import Broker, BrokerMessage
from .config import BSM_PROCESSED_TOPIC, BSM_RAW_PATTERN, BSM_RAW_TOPIC, QUEUE_STATUS_PATTERN, QUEUE_STATUS_TOPIC
from .config import SYSTEM_NODE_ID, WARNING_TOPIC
from .config import Directive, ScenarioConfig, VehicleSpawn
from .core import Bsm, GeoPoint, distance, ecef
from .engine import Engine, SimSummary
from .mobility import RsuSpec, TrafficWorld, VehicleState
from .radio import BACKHAUL, LinkKind, LinkModel, in_range, sample_delivery

BEACON_PHASE_MS = 10
BSM_PHASE_MS = 50
# Builds a record that validates nothing from its fields, skipping its generated ``__new__``.
_tuple_new = tuple.__new__
# Added to every pruning bound of ``_RsuIndex``. Float error in a key or a
# ``distance`` stays far under a metre for any two points on Earth (micrometres
# at corridor scale), so no RSU an exact comparison would accept is pruned.
INDEX_SLACK_M = 1.0
# Every packet kind a send can carry; each link's ledger holds one tally per kind.
PACKET_KINDS = ("bsm", "bsm_forward", "beacon", "warning", "queue_status")


class PacketRecord(NamedTuple):
    """One logged send; ``t_recv`` is ``None`` when it was lost on the channel."""

    t_send: int
    t_recv: int | None
    tx: str
    rx: str
    link: LinkKind
    kind: str  # one of PACKET_KINDS

    @property
    def delivered(self) -> bool:
        """True unless the send was lost on the channel.

        So it is also true for a send still in flight at the end of the run
        (``t_recv > t_end_ms``), which ``SendTally.delivered`` leaves out.
        """
        return self.t_recv is not None

    @property
    def latency_ms(self) -> int | None:
        return None if self.t_recv is None else self.t_recv - self.t_send


@dataclass
class SendTally:
    """The sends of one link, or of one (link, packet kind), by outcome.

    A send that arrived by the end of the run is ``delivered``, and its
    latency is counted in ``latency_sum`` and ``latency_max``; one due later
    is ``in_flight``; one lost on the channel is ``channel_loss``; one beyond
    the receiver's range is ``out_of_range``, and the last two are ``lost``.
    Every stored field is an integer, so a mean taken from the sum is the mean
    of the latencies themselves.
    """

    link: LinkKind
    delivered: int = 0
    in_flight: int = 0
    channel_loss: int = 0
    out_of_range: int = 0
    latency_sum: int = 0
    latency_max: int = 0

    @property
    def sent(self) -> int:
        return self.delivered + self.in_flight + self.channel_loss + self.out_of_range

    @property
    def lost(self) -> int:
        return self.channel_loss + self.out_of_range

    @property
    def loss_pct(self) -> float:
        return 100.0 * self.lost / self.sent

    @property
    def avg_latency_ms(self) -> float | None:
        return self.latency_sum / self.delivered if self.delivered else None

    @property
    def max_latency_ms(self) -> int | None:
        return self.latency_max if self.delivered else None


Ledger = dict[LinkKind, dict[str, SendTally]]


class _Channel(NamedTuple):
    """One route a send takes: its link model, packet kind, the link's delivery stream and the kind's tally."""

    model: LinkModel
    kind: str  # one of PACKET_KINDS
    stream: random.Random
    tally: SendTally

    def obstructed(self, obstruction: float) -> _Channel:
        """This route with its model's obstruction set; the same route when it is already that."""
        if obstruction == self.model.obstruction:
            return self
        return self._replace(model=replace(self.model, obstruction=obstruction))


@dataclass(frozen=True)
class QueueEval:
    decision: QueueDecision
    truth: bool


@dataclass
class RunResult:
    config: ScenarioConfig
    summary: SimSummary
    packets: list[PacketRecord]
    handoff_events: list[ho.HandoffEvent]
    avoidance_decisions: list[AvoidanceDecision]
    queue_evals: list[QueueEval]
    archives: dict[str, Archive]
    sends: Ledger  # every send's outcome, by link, then by packet kind

    def queue_accuracy(self) -> float | None:
        return accuracy([e.decision.queued for e in self.queue_evals], [e.truth for e in self.queue_evals])


class _Node:
    """An edge node: a broker whose one tap appends every message to the node's archive."""

    def __init__(self, node_id: str, max_age_ms: int | None = None):
        self.node_id = node_id
        self.broker = Broker(name=node_id)
        self.archive = Archive(node_id=node_id, max_age_ms=max_age_ms)
        self.broker.add_tap(self._store)

    def _store(self, msg: BrokerMessage) -> None:
        topic, payload, publisher, t_pub = msg
        self.archive.append(topic, t_pub, payload, publisher)


class _RsuNode(_Node):
    """A roadside edge node: its position, its own send routes and the detector's message window.

    Its obstruction is fixed where it is installed, so it is set once, in the
    models of its beacon route and its short-range BSM route.
    """

    def __init__(self, spec: RsuSpec, max_age_ms: int, pos: GeoPoint, beacon: _Channel, bsm: _Channel):
        super().__init__(spec.rsu_id, max_age_ms)
        self.pos = pos
        self.beacon_channel = beacon.obstructed(spec.obstruction)
        self.bsm_channel = bsm.obstructed(spec.obstruction)
        self.processed_topic = BSM_PROCESSED_TOPIC.format(spec.rsu_id)
        self.status_topic = QUEUE_STATUS_TOPIC.format(spec.rsu_id)
        self.window: list[Bsm] = []


class _RsuIndex:
    """RSUs sorted by their key: the offset of their position along one fixed axis.

    The axis is a unit vector in Earth-centred coordinates, from the corridor's
    first point to its point farthest from the first. A key difference is the
    chord between two points projected onto that axis, so it never exceeds the
    chord, which never exceeds ``distance``: ``|key(a) - key(b)|`` is a lower
    bound on ``distance(a, b)``. (Arc length along the corridor is not: a bent
    road can come back close to itself.)
    """

    def __init__(self, rsus: list[_RsuNode], polyline: list[GeoPoint]):
        origin = ecef(polyline[0])
        far = max((ecef(p) for p in polyline), key=lambda q: math.dist(q, origin))
        # A zero axis (a corridor shorter than float resolution) keys every
        # point 0, a bound that prunes nothing but still holds.
        norm = math.dist(far, origin) or 1.0
        self._axis = tuple((f - o) / norm for f, o in zip(far, origin))
        self._order = sorted(range(len(rsus)), key=lambda i: self.key(rsus[i].pos))
        self._keys = [self.key(rsus[i].pos) for i in self._order]

    def key(self, pos: GeoPoint) -> float:
        x, y, z = ecef(pos)
        ax, ay, az = self._axis
        return x * ax + y * ay + z * az

    def within(self, pos: GeoPoint, reach_m: float | None) -> list[int]:
        """Positions in the RSU list of every RSU that may lie within ``reach_m`` of ``pos``.

        ``None`` (an unbounded link) returns every RSU.
        """
        if reach_m is None:
            return self._order
        key = self.key(pos)
        lo = bisect_left(self._keys, key - reach_m - INDEX_SLACK_M)
        hi = bisect_right(self._keys, key + reach_m + INDEX_SLACK_M)
        return self._order[lo:hi]


@dataclass
class _VehicleAgent:
    """A connected vehicle, with the bookkeeping of its one pending liveness check.

    ``warned_by`` holds the source of every warning the vehicle has decided
    on; only the first copy from a source decides. ``check_ticket`` is the
    engine ticket of the first beacon delivered in the millisecond
    ``handoff.last_beacon_at``. A ``handoff-check`` is queued exactly while
    the short-range link is active. ``on_beacon`` is the delivery of every
    beacon to this vehicle and ``on_check`` the handler of its check, each
    bound once; ``check_subject`` names the check's events.
    """

    vehicle_id: str
    handoff: ho.HandoffState
    bsm_topic: str  # the vehicle's telemetry topic, formatted once
    warned_by: set[str] = field(default_factory=set)
    check_ticket: int = -1
    on_beacon: Callable[[], None] = field(init=False, repr=False, compare=False)
    on_check: Callable[[], None] = field(init=False, repr=False, compare=False)
    check_subject: str = field(init=False, repr=False, compare=False)


class Simulation:
    """One scenario bound to one engine; single-use."""

    def __init__(self, config: ScenarioConfig, trace: TextIO | None = None):
        self.config = config
        self.engine = Engine(seed=config.seed, trace=trace)
        self.constants = config.constants
        self.corridor = config.corridor
        self.links = config.links
        self.tick_ms = self.constants.bsm_interval_ms

        self.world = TrafficWorld(corridor=self.corridor, constants=self.constants, mobility=config.mobility)

        self.backend = _Node(SYSTEM_NODE_ID)
        self.agents: dict[str, _VehicleAgent] = {}
        self.packets: list[PacketRecord] = []
        self.sends: Ledger = {link: {kind: SendTally(link) for kind in PACKET_KINDS} for link in LinkKind}
        # Each link's delivery stream, looked up once. Streams are seeded by name: no draw moves.
        streams = {link: self.engine.stream(f"radio.{link.value}.delivery") for link in LinkKind}

        def channel(model: LinkModel, kind: str) -> _Channel:
            return _Channel(model, kind, streams[model.kind], self.sends[model.kind][kind])

        # Beacons are pure range-gated liveness probes: flat loss out to the
        # effective range edge (no distance ramp), so a zero beacon_p_near
        # really means zero loss and one coverage pass is exactly two
        # handoffs. Raising beacon_p_near reintroduces spurious exits.
        short_range = self.links[config.handoff.short_range]
        beacon_model = replace(short_range, p_near=config.handoff.beacon_p_near, ramp_start_frac=1.0)
        # Each RSU's routes are these two with its obstruction; their tallies count the sends no RSU takes.
        self._beacon = channel(beacon_model, "beacon")
        self._short_range_bsm = channel(short_range, "bsm")
        retention_ms = config.fixed_edge_retention_ms
        self.rsus = [
            _RsuNode(spec, retention_ms, self.corridor.position_geo(spec.s_m), self._beacon, self._short_range_bsm)
            for spec in self.corridor.rsus
        ]
        self._rsu_index = _RsuIndex(self.rsus, self.corridor.polyline)
        # Per vehicle, the position ``_reach`` last measured and what it found there.
        self._reached: dict[str, tuple[GeoPoint, list[tuple[int, float]]]] = {}
        self._lte_bsm = channel(self.links[LinkKind.LTE], "bsm")
        self._bsm_forward = channel(BACKHAUL, "bsm_forward")
        self._queue_status = channel(BACKHAUL, "queue_status")
        # Sudden-stop warnings ride each link at their own measured latency.
        self._dsrc_warning = channel(self.links[LinkKind.DSRC].for_warnings(), "warning")
        self._lte_warning = channel(self.links[LinkKind.LTE].for_warnings(), "warning")

        self.handoff_events: list[ho.HandoffEvent] = []
        self.avoidance_decisions: list[AvoidanceDecision] = []
        self.queue_evals: list[QueueEval] = []
        self._warning_topic = WARNING_TOPIC.format(config.region)
        self._t_end_ms = config.t_end_ms
        self._pending: list[Directive] = self._build_directives()
        self._prune_interval_ms = max(1, config.fixed_edge_retention_ms // 4)
        self._ran = False

    # -- setup ------------------------------------------------------------

    def _build_directives(self) -> list[Directive]:
        """Script and spawns in time order; a spawn precedes same-millisecond directives."""
        directives = list(self.config.script)
        for spawn in self.config.vehicles:
            directives.append(Directive(at_ms=spawn.spawn_t_ms, action="spawn", spawn=spawn))
        directives.sort(key=lambda d: (d.at_ms, d.action != "spawn"))
        return directives

    def _spawn_vehicle(self, spawn: VehicleSpawn) -> None:
        self.world.spawn(
            VehicleState(
                id=spawn.vehicle_id,
                s=spawn.s_m,
                speed=spawn.speed_mps,
                cruise_speed=spawn.speed_mps,
            )
        )
        if not spawn.connected:
            return
        agent = _VehicleAgent(
            vehicle_id=spawn.vehicle_id,
            handoff=ho.HandoffState(vehicle=spawn.vehicle_id),
            bsm_topic=BSM_RAW_TOPIC.format(spawn.vehicle_id),
        )
        agent.on_beacon = partial(self._on_beacon, agent)
        agent.on_check = partial(self._handoff_check, agent)
        agent.check_subject = f"handoff-check:{spawn.vehicle_id}"
        self.agents[spawn.vehicle_id] = agent
        self.backend.broker.subscribe(
            client=spawn.vehicle_id,
            pattern=self._warning_topic,
            callback=partial(self._on_warning_via_broker, agent),
        )

    # -- publish and radio helpers -----------------------------------------

    def _publish(self, node: _Node, topic: str, payload: dict, publisher: str) -> None:
        node.broker.publish(_tuple_new(BrokerMessage, (topic, payload, publisher, self.engine.now)))

    def _forward(self, node: _RsuNode, channel: _Channel, topic: str, payload: dict) -> None:
        """Publish at ``node``, then send over the backhaul for the backend to publish the same payload."""
        self._publish(node, topic, payload, node.node_id)
        self._send(
            channel, node.node_id, SYSTEM_NODE_ID, partial(self._publish, self.backend, topic, payload, node.node_id)
        )

    def _send(self, channel: _Channel, tx: str, rx: str, deliver: Callable[[], None], distance_m: float = 0.0) -> None:
        """Decide one send on ``channel``: range gate, loss and latency draw, packet log, delivery, ledger.

        The channel carries everything fixed at set-up, so a send looks
        nothing up. A send beyond the receiver's effective range is only
        counted as ``out_of_range``. Deliveries one handler sends for one
        millisecond share one engine event. The distance defaults to 0,
        which is all an unbounded link needs.
        """
        model, kind, stream, tally = channel
        if not in_range(distance_m, model):
            tally.out_of_range += 1
            return
        now = self.engine.now
        outcome = sample_delivery(distance_m, model, stream)
        if outcome is None:  # lost on the channel
            self.packets.append(_tuple_new(PacketRecord, (now, None, tx, rx, model.kind, kind)))
            tally.channel_loss += 1
            return
        latency = outcome.latency_ms
        t_recv = now + latency
        self.packets.append(_tuple_new(PacketRecord, (now, t_recv, tx, rx, model.kind, kind)))
        self.engine.deliver(t_recv, kind, deliver)
        if t_recv > self._t_end_ms:  # the run ends before it arrives
            tally.in_flight += 1
            return
        tally.delivered += 1
        tally.latency_sum += latency
        if latency > tally.latency_max:
            tally.latency_max = latency

    def _reach(self, vid: str) -> list[tuple[int, float]]:
        """``(position in self.rsus, distance)`` of each RSU the index keeps for vehicle ``vid``.

        Beacons and short-range BSMs both ride the short-range link, so its
        range bounds both; obstruction only shrinks it. Each list is kept
        while the vehicle's position object is the same, which
        ``TrafficWorld.position_geo`` keeps for as long as the vehicle
        stands still.
        """
        pos = self.world.position_geo(vid)
        held = self._reached.get(vid)
        if held is not None and held[0] is pos:
            return held[1]
        within = self._rsu_index.within(pos, self._beacon.model.range_m)
        reached = [(i, distance(self.rsus[i].pos, pos)) for i in within]
        self._reached[vid] = (pos, reached)
        return reached

    # -- recurring events ---------------------------------------------------

    def _mobility_tick(self) -> None:
        self.world.step(self.tick_ms / 1000.0)
        self._apply_due_directives()
        self.engine.at(self.engine.now + self.tick_ms, "mobility-tick", "world", self._mobility_tick)

    def _apply_due_directives(self) -> None:
        while self._pending and self._pending[0].at_ms <= self.world.t_state_ms:
            directive = self._pending.pop(0)
            if directive.action == "spawn":
                self._spawn_vehicle(directive.spawn)
            elif directive.action == "signal_red":
                self.world.set_signal_red(
                    directive.signal, self.world.t_state_ms, self.world.t_state_ms + directive.duration_ms
                )
            elif directive.action == "hard_brake":
                self.world.latch_stop(directive.vehicle)
                self._emit_warning(directive.vehicle)

    def _beacon_round(self) -> None:
        """Every RSU beacons every spawned connected vehicle, RSU-major, vehicle-minor.

        Only pairs the index cannot rule out are measured and sent. An
        out-of-range send draws no random number and is only counted, so
        counting the pruned pairs as out of range, unmeasured, leaves every
        random stream and event where it was.
        """
        now = self.engine.now
        receivers: list[list[tuple[str, float, Callable[[], None]]]] = [[] for _ in self.rsus]
        for vid, agent in self.agents.items():
            for i, d in self._reach(vid):
                receivers[i].append((vid, d, agent.on_beacon))
        send = self._send
        for node, reached in zip(self.rsus, receivers):
            channel, tx = node.beacon_channel, node.node_id
            for vid, d, on_beacon in reached:
                send(channel, tx, vid, on_beacon, d)
        pruned = len(self.rsus) * len(self.agents) - sum(map(len, receivers))
        self._beacon.tally.out_of_range += pruned
        self.engine.at(now + self.config.handoff.beacon_interval_ms, "beacon", "rsus", self._beacon_round)

    def _on_beacon(self, agent: _VehicleAgent) -> None:
        """Refresh the vehicle's liveness; arm its check on the handoff onto the short-range link.

        Only the first beacon of a millisecond acts. It reserves a ticket,
        where a per-beacon check would have been scheduled (only that check
        could act), and hands off if the vehicle was on cellular. A later
        beacon of the same millisecond would only set ``last_beacon_at`` to
        what it already is: the vehicle is on the short-range link by then,
        and no check can hand it back within the millisecond, since none
        acts before ``timeout_ms`` has passed.
        """
        now = self.engine.now
        if agent.handoff.last_beacon_at == now:
            return
        agent.check_ticket = self.engine.ticket()
        event = ho.on_beacon(agent.handoff, self.config.handoff, now)
        if event is not None:
            self.handoff_events.append(event)
            self._arm_check(agent)

    def _arm_check(self, agent: _VehicleAgent) -> None:
        self.engine.at(
            agent.handoff.last_beacon_at + self.config.handoff.timeout_ms,
            "app-timer",
            agent.check_subject,
            agent.on_check,
            agent.check_ticket,
        )

    def _handoff_check(self, agent: _VehicleAgent) -> None:
        """The vehicle's one liveness check, at its last beacon millisecond plus the timeout.

        With one check per beacon, the check of beacon b at ``t_b + timeout``
        hands off only if no beacon came after ``t_b`` and it is the first of
        the checks due then (the later ones find the cellular link active).
        So only the first check of the latest beacon millisecond can act, and
        the pending check sits exactly there, under that beacon's ticket: it
        keeps that check's place against same-millisecond beacons and the
        telemetry round. When a later beacon has come, the check hands
        nothing off and re-arms there.
        """
        event = ho.on_tick(agent.handoff, self.config.handoff, self.engine.now)
        if event is None:
            self._arm_check(agent)
        else:
            self.handoff_events.append(event)

    def _bsm_round(self) -> None:
        now = self.engine.now
        for vid, agent in self.agents.items():
            if not ho.can_transmit(agent.handoff, now):
                continue  # association gap: hard handoff left no usable link
            state = self.world.vehicles[vid]
            bsm = Bsm(now, vid, self.world.position_geo(vid), state.speed)
            if agent.handoff.active is LinkKind.LTE:
                self._send(self._lte_bsm, vid, SYSTEM_NODE_ID, partial(self._lte_ingest, bsm, agent))
            else:
                reached = self._reach(vid)
                if not reached:  # every RSU is beyond the link's range
                    self._short_range_bsm.tally.out_of_range += 1
                    continue
                if len(reached) == 1:
                    ((i, d),) = reached
                else:
                    d, _, i = min((d, self.rsus[i].node_id, i) for i, d in reached)
                node = self.rsus[i]
                deliver = partial(self._rsu_ingest_bsm, node, bsm, agent.bsm_topic)
                self._send(node.bsm_channel, vid, node.node_id, deliver, d)
        self.engine.at(now + self.tick_ms, "app-timer", "bsm-round", self._bsm_round)

    # -- data plane ---------------------------------------------------------

    def _lte_ingest(self, bsm: Bsm, agent: _VehicleAgent) -> None:
        self._publish(self.backend, agent.bsm_topic, bsm.to_doc(), agent.vehicle_id)

    def _rsu_ingest_bsm(self, node: _RsuNode, bsm: Bsm, topic: str) -> None:
        if self.config.detection.enabled:
            node.window.append(bsm)
        self._forward(node, self._bsm_forward, topic, bsm.to_doc())

    def _emit_warning(self, vehicle_id: str) -> None:
        agent = self.agents.get(vehicle_id)
        if agent is None:
            return  # a non-connected vehicle stops silently
        now = self.engine.now
        warning = WarningMessage(
            source_vehicle=vehicle_id, t_emit=now, pos=self.world.position_geo(vehicle_id)
        )
        src_pos = warning.pos
        for vid, agent in self.agents.items():
            if vid == vehicle_id:
                continue
            d = distance(src_pos, self.world.position_geo(vid))
            deliver = partial(self._handle_warning, agent, warning, LinkKind.DSRC)
            self._send(self._dsrc_warning, vehicle_id, vid, deliver, d)
        # Region-wide relay rides cellular into the backend broker; fan-out to
        # subscribers models the whole relay path, so its latency is the
        # end-to-end warning delay.
        self._send(
            self._lte_warning,
            vehicle_id,
            SYSTEM_NODE_ID,
            partial(self._publish, self.backend, self._warning_topic, warning.to_doc(), vehicle_id),
        )

    def _on_warning_via_broker(self, agent: _VehicleAgent, msg: BrokerMessage) -> None:
        self._handle_warning(agent, WarningMessage.from_doc(msg.payload), LinkKind.LTE)

    def _handle_warning(self, agent: _VehicleAgent, warning: WarningMessage, link: LinkKind) -> None:
        if warning.source_vehicle == agent.vehicle_id:
            return  # own warning echoed back through the region topic
        if warning.source_vehicle in agent.warned_by:
            return  # a later copy of a warning already decided on
        agent.warned_by.add(warning.source_vehicle)
        state = self.world.vehicles[agent.vehicle_id]
        decision = decide_avoidance(
            vehicle=agent.vehicle_id,
            rx_pos=self.world.position_geo(agent.vehicle_id),
            rx_speed=state.speed,
            warning=warning,
            t_recv=self.engine.now,
            link_used=link,
            constants=self.constants,
        )
        self.avoidance_decisions.append(decision)
        self.world.latch_stop(agent.vehicle_id)

    # -- queue detection ------------------------------------------------------

    def _detector_tick(self) -> None:
        now = self.engine.now
        truth = self.world.ground_truth_queue(
            self.config.detection.zone, self.config.detection.truth_min_vehicles
        )
        for node in self.rsus:
            vehicles = window_by_vehicle(node.window, now)
            decision = detect_queue(
                rsu=node.node_id,
                t=now,
                vehicles=vehicles,
                order_key=self.corridor.project,
                constants=self.constants,
            )
            self.queue_evals.append(QueueEval(decision=decision, truth=truth))
            docs = {v.vehicle_id: v.to_doc() for v in sorted(vehicles, key=lambda v: v.vehicle_id)}
            processed = {"t": now, "rsu": node.node_id, "vehicles": docs}
            self._publish(node, node.processed_topic, processed, node.node_id)
            self._forward(node, self._queue_status, node.status_topic, decision.to_doc())
            # Every message held was sent at or before ``now``, so no later window holds it.
            node.window = []
        self.engine.at(now + WINDOW_MS, "detector-tick", "rsus", self._detector_tick)

    def _prune_archives(self) -> None:
        now = self.engine.now
        for node in self.rsus:
            node.archive.prune(now)
        self.engine.at(now + self._prune_interval_ms, "app-timer", "archive-prune", self._prune_archives)

    # -- main entry -------------------------------------------------------------

    def run(self) -> RunResult:
        if self._ran:
            raise RuntimeError("Simulation objects are single-use; build a new one")
        self._ran = True
        self._apply_due_directives()
        self.engine.at(self.tick_ms, "mobility-tick", "world", self._mobility_tick)
        if self.rsus:
            self.engine.at(BEACON_PHASE_MS, "beacon", "rsus", self._beacon_round)
        self.engine.at(BSM_PHASE_MS, "app-timer", "bsm-round", self._bsm_round)
        if self.rsus and self.config.detection.enabled:
            self.engine.at(WINDOW_MS, "detector-tick", "rsus", self._detector_tick)
        if self.rsus:
            self.engine.at(self._prune_interval_ms, "app-timer", "archive-prune", self._prune_archives)
        summary = self.engine.run_until(self.config.t_end_ms)
        return RunResult(
            config=self.config,
            summary=summary,
            packets=self.packets,
            handoff_events=self.handoff_events,
            avoidance_decisions=self.avoidance_decisions,
            queue_evals=self.queue_evals,
            archives={node.node_id: node.archive for node in (self.backend, *self.rsus)},
            sends=self.sends,
        )


def run_scenario(config: ScenarioConfig, trace: TextIO | None = None) -> RunResult:
    return Simulation(config, trace=trace).run()


def check_run(result: RunResult) -> list[str]:
    """One line for each cross-layer invariant the run breaks; empty when every one holds.

    It reads the ledger, the archives, the queue evaluations and the
    handoffs, never the packet log. A send counts here when it was
    delivered by the end of the run, and each such delivery stores exactly
    one message:

    * the backend archived one ``bsm/raw`` record per cellular BSM and per
      backhaul forward, one ``queue/status`` record per backhaul status and
      one warning record per cellular warning;
    * the RSUs appended one record per short-range BSM and two per queue
      evaluation (the processed window and the status);
    * the backend archive, which never prunes, holds every record it appended;
    * every archive's records are in (t, seq) order;
    * each vehicle's handoffs alternate links, the first leaving cellular.

    No run calls it, and no flag turns it on: it is a check, not behaviour.
    """
    errors = []
    sends = result.sends
    backend = result.archives[SYSTEM_NODE_ID]
    lte, backhaul = LinkKind.LTE, BACKHAUL.kind
    for pattern, routes in (
        (BSM_RAW_PATTERN, ((lte, "bsm"), (backhaul, "bsm_forward"))),
        (QUEUE_STATUS_PATTERN, ((backhaul, "queue_status"),)),
        (WARNING_TOPIC.format("#"), ((lte, "warning"),)),
    ):
        archived = backend.count(pattern)
        delivered = sum(sends[link][kind].delivered for link, kind in routes)
        if archived != delivered:
            errors.append(f"the backend archived {archived} {pattern} records, but {delivered} were delivered")
    appended = sum(archive.appended_total for node, archive in result.archives.items() if node != SYSTEM_NODE_ID)
    evals = len(result.queue_evals)
    bsms = sends[result.config.handoff.short_range]["bsm"].delivered
    if appended != bsms + 2 * evals:
        errors.append(f"the RSUs appended {appended} records, not {bsms} short-range BSMs + 2 x {evals} evaluations")
    if backend.appended_total != len(backend):
        errors.append(f"the backend archive appended {backend.appended_total} records but holds {len(backend)}")
    for node, archive in result.archives.items():
        if any(a >= b for a, b in pairwise((r.t, r.seq) for r in archive)):
            errors.append(f"the archive of {node} is out of (t, seq) order")
    last: dict[str, LinkKind] = {}
    for event in result.handoff_events:
        if event.from_link is not last.get(event.vehicle, lte) or event.to_link is event.from_link:
            errors.append(f"the handoff of {event.vehicle} at {event.t} ms does not alternate links")
        last[event.vehicle] = event.to_link
    return errors
