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
* every send, of any kind, is decided in one place, ``Simulation._send``: a
  receiver beyond the link's effective range makes it counted in
  ``RunResult.out_of_range`` by (link, packet kind), not logged as a packet,
  so a logged packet without ``t_recv`` is a channel loss; an in-range send
  draws its loss and latency, is logged, and goes to ``Engine.deliver``;
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
  would have (RFC 6298 section 5's one restartable timer).

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
positions onto one fixed axis: a beacon round measures only the pairs the
index cannot rule out, and the nearest-node search stops once no closer node
can remain. Both give exactly what measuring every node would.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import TextIO

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
from .config import BSM_PROCESSED_TOPIC, BSM_RAW_TOPIC, QUEUE_STATUS_TOPIC, SYSTEM_NODE_ID, WARNING_TOPIC
from .config import Directive, ScenarioConfig, VehicleSpawn
from .core import Bsm, GeoPoint, distance, ecef
from .engine import Engine, SimSummary
from .mobility import TrafficWorld, VehicleState
from .radio import BACKHAUL, LinkKind, LinkModel, in_range, sample_delivery

BEACON_PHASE_MS = 10
BSM_PHASE_MS = 50
# Added to every pruning bound of ``_RsuIndex``. Float error in a key or a
# ``distance`` stays far under a metre for any two points on Earth (micrometres
# at corridor scale), so no RSU an exact comparison would accept is pruned.
INDEX_SLACK_M = 1.0


@dataclass(frozen=True)
class PacketRecord:
    t_send: int
    t_recv: int | None
    tx: str
    rx: str
    link: LinkKind
    kind: str  # bsm | bsm_forward | beacon | warning | queue_status

    @property
    def delivered(self) -> bool:
        return self.t_recv is not None

    @property
    def latency_ms(self) -> int | None:
        return None if self.t_recv is None else self.t_recv - self.t_send


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
    out_of_range: Counter[tuple[LinkKind, str]]  # sends beyond the receiver's range, by (link, kind)

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
        self.archive.append(topic=msg.topic, t=msg.t_pub, payload=msg.payload, origin=msg.publisher)


class _RsuNode(_Node):
    """A roadside edge node: its position, its obstruction and the detector's message window."""

    def __init__(self, node_id: str, max_age_ms: int, pos: GeoPoint, obstruction: float):
        super().__init__(node_id, max_age_ms)
        self.pos = pos
        self.obstruction = obstruction
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
        self._rsus = rsus
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

    def nearest(self, pos: GeoPoint) -> tuple[_RsuNode, float] | None:
        """The RSU of least ``(distance, node_id)`` from ``pos``, and its distance.

        Visits RSUs outward from the key of ``pos`` and stops once the key gaps
        on both sides exceed the best distance found, so ties are all visited.
        """
        keys, key = self._keys, self.key(pos)
        hi = bisect_left(keys, key)
        lo = hi - 1
        best = None  # (distance, node_id, position in the RSU list)
        while lo >= 0 or hi < len(keys):
            gap_lo = key - keys[lo] if lo >= 0 else math.inf
            gap_hi = keys[hi] - key if hi < len(keys) else math.inf
            if best is not None and min(gap_lo, gap_hi) > best[0] + INDEX_SLACK_M:
                break
            if gap_lo <= gap_hi:
                i, lo = self._order[lo], lo - 1
            else:
                i, hi = self._order[hi], hi + 1
            node = self._rsus[i]
            candidate = (distance(node.pos, pos), node.node_id, i)
            if best is None or candidate < best:
                best = candidate
        return None if best is None else (self._rsus[best[2]], best[0])


@dataclass
class _VehicleAgent:
    """A connected vehicle, with the bookkeeping of its one pending liveness check.

    ``warned_by`` holds the source of every warning the vehicle has decided
    on; only the first copy from a source decides. ``check_ticket`` is the
    engine ticket of the first beacon delivered in the millisecond
    ``handoff.last_beacon_at``. A ``handoff-check`` is queued exactly while
    the short-range link is active.
    """

    vehicle_id: str
    handoff: ho.HandoffState
    warned_by: set[str] = field(default_factory=set)
    check_ticket: int = -1


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
        retention_ms = config.fixed_edge_retention_ms
        self.rsus = [
            _RsuNode(spec.rsu_id, retention_ms, self.corridor.position_geo(spec.s_m), spec.obstruction)
            for spec in self.corridor.rsus
        ]
        self._rsu_index = _RsuIndex(self.rsus, self.corridor.polyline)

        self.agents: dict[str, _VehicleAgent] = {}
        self.packets: list[PacketRecord] = []
        self.out_of_range: Counter[tuple[LinkKind, str]] = Counter()
        self.handoff_events: list[ho.HandoffEvent] = []
        self.avoidance_decisions: list[AvoidanceDecision] = []
        self.queue_evals: list[QueueEval] = []
        self._warning_topic = WARNING_TOPIC.format(config.region)
        self._pending: list[Directive] = self._build_directives()
        # Beacons are pure range-gated liveness probes: flat loss out to the
        # effective range edge (no distance ramp), so a zero beacon_p_near
        # really means zero loss and one coverage pass is exactly two
        # handoffs. Raising beacon_p_near reintroduces spurious exits.
        self._beacon_model = replace(
            self.links[config.handoff.short_range],
            p_near=config.handoff.beacon_p_near,
            ramp_start_frac=1.0,
        )
        # Sudden-stop warnings ride each link at their own measured latency.
        self._dsrc_warning_model = self.links[LinkKind.DSRC].for_warnings()
        self._lte_warning_model = self.links[LinkKind.LTE].for_warnings()
        # Streams are seeded by their name, so making them up front moves no draw.
        self._delivery_streams = {kind: self.engine.stream(f"radio.{kind.value}.delivery") for kind in LinkKind}
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
        )
        self.agents[spawn.vehicle_id] = agent
        self.backend.broker.subscribe(
            client=spawn.vehicle_id,
            pattern=self._warning_topic,
            callback=lambda msg, a=agent: self._on_warning_via_broker(a, msg),
        )

    # -- publish and radio helpers -----------------------------------------

    def _publish(self, node: _Node, topic: str, payload: dict, publisher: str) -> None:
        node.broker.publish(BrokerMessage(topic=topic, payload=payload, publisher=publisher, t_pub=self.engine.now))

    def _forward(self, node: _RsuNode, kind: str, topic: str, payload: dict) -> None:
        """Publish at ``node``, then send over the backhaul for the backend to publish the same payload."""
        self._publish(node, topic, payload, node.node_id)
        self._send(
            kind=kind,
            tx=node.node_id,
            rx=SYSTEM_NODE_ID,
            model=BACKHAUL,
            deliver=lambda: self._publish(self.backend, topic, payload, node.node_id),
        )

    def _send(
        self,
        kind: str,
        tx: str,
        rx: str,
        model: LinkModel,
        deliver,
        distance_m: float = 0.0,
        obstruction: float = 0.0,
    ) -> None:
        """Decide one send: range gate, loss and latency draw, packet log, delivery.

        A send beyond the receiver's effective range is only counted in
        ``out_of_range``. Deliveries one handler sends for one millisecond
        share one engine event. The distance and obstruction default to 0,
        which is all an unbounded link needs.
        """
        if not in_range(distance_m, model, obstruction):
            self.out_of_range[model.kind, kind] += 1
            return
        now = self.engine.now
        outcome = sample_delivery(distance_m, model, self._delivery_streams[model.kind], obstruction)
        t_recv = None if outcome is None else now + outcome.latency_ms  # None: lost on the channel
        self.packets.append(PacketRecord(now, t_recv, tx, rx, model.kind, kind))
        if t_recv is not None:
            self.engine.deliver(t_recv, kind, deliver)

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
        cfg = self.config.handoff
        model = self._beacon_model
        receivers: list[list[tuple[str, GeoPoint]]] = [[] for _ in self.rsus]
        for vid in self.agents:
            pos = self.world.position_geo(vid)
            for i in self._rsu_index.within(pos, model.range_m):
                receivers[i].append((vid, pos))
        for node, reached in zip(self.rsus, receivers):
            for vid, pos in reached:
                self._send(
                    kind="beacon",
                    tx=node.node_id,
                    rx=vid,
                    model=model,
                    distance_m=distance(node.pos, pos),
                    obstruction=node.obstruction,
                    deliver=lambda a=self.agents[vid]: self._on_beacon(a),
                )
        pruned = len(self.rsus) * len(self.agents) - sum(map(len, receivers))
        self.out_of_range[model.kind, "beacon"] += pruned
        self.engine.at(now + cfg.beacon_interval_ms, "beacon", "rsus", self._beacon_round)

    def _on_beacon(self, agent: _VehicleAgent) -> None:
        """Refresh the vehicle's liveness; arm its check on the handoff onto the short-range link.

        The first beacon of a millisecond reserves a ticket, where a
        per-beacon check would have been scheduled; only that check could act.
        """
        now = self.engine.now
        if agent.handoff.last_beacon_at != now:
            agent.check_ticket = self.engine.ticket()
        event = ho.on_beacon(agent.handoff, self.config.handoff, now)
        if event is not None:
            self.handoff_events.append(event)
            self._arm_check(agent)

    def _arm_check(self, agent: _VehicleAgent) -> None:
        self.engine.at(
            agent.handoff.last_beacon_at + self.config.handoff.timeout_ms,
            "app-timer",
            f"handoff-check:{agent.vehicle_id}",
            lambda: self._handoff_check(agent),
            ticket=agent.check_ticket,
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
            state = self.world.vehicles[vid]
            bsm = Bsm(t=now, vehicle_id=vid, pos=self.world.position_geo(vid), speed=state.speed)
            if not ho.can_transmit(agent.handoff, now):
                continue  # association gap: hard handoff left no usable link
            link = agent.handoff.active
            if link is LinkKind.LTE:
                self._send(
                    kind="bsm",
                    tx=vid,
                    rx=SYSTEM_NODE_ID,
                    model=self.links[link],
                    deliver=lambda b=bsm, v=vid: self._publish(self.backend, BSM_RAW_TOPIC.format(v), b.to_doc(), v),
                )
            else:
                target = self._rsu_index.nearest(bsm.pos)
                if target is None:
                    continue
                node, d = target
                self._send(
                    kind="bsm",
                    tx=vid,
                    rx=node.node_id,
                    model=self.links[link],
                    distance_m=d,
                    obstruction=node.obstruction,
                    deliver=lambda b=bsm, n=node: self._rsu_ingest_bsm(n, b),
                )
        self.engine.at(now + self.tick_ms, "app-timer", "bsm-round", self._bsm_round)

    # -- data plane ---------------------------------------------------------

    def _rsu_ingest_bsm(self, node: _RsuNode, bsm: Bsm) -> None:
        if self.config.detection.enabled:
            node.window.append(bsm)
        self._forward(node, "bsm_forward", BSM_RAW_TOPIC.format(bsm.vehicle_id), bsm.to_doc())

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
            self._send(
                kind="warning",
                tx=vehicle_id,
                rx=vid,
                model=self._dsrc_warning_model,
                distance_m=d,
                deliver=lambda a=agent, w=warning: self._handle_warning(a, w, LinkKind.DSRC),
            )
        # Region-wide relay rides cellular into the backend broker; fan-out to
        # subscribers models the whole relay path, so its latency is the
        # end-to-end warning delay.
        self._send(
            kind="warning",
            tx=vehicle_id,
            rx=SYSTEM_NODE_ID,
            model=self._lte_warning_model,
            deliver=lambda: self._publish(self.backend, self._warning_topic, warning.to_doc(), vehicle_id),
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
            self._publish(node, BSM_PROCESSED_TOPIC.format(node.node_id), processed, node.node_id)
            self._forward(node, "queue_status", QUEUE_STATUS_TOPIC.format(node.node_id), decision.to_doc())
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
            out_of_range=self.out_of_range,
        )


def run_scenario(config: ScenarioConfig, trace: TextIO | None = None) -> RunResult:
    return Simulation(config, trace=trace).run()
