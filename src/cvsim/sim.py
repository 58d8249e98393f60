"""Run orchestration: builds the three-layer testbed from a scenario and runs it.

Layer wiring:

* vehicles stream telemetry every messaging period on their active link --
  short-range to the nearest in-range roadside node, cellular straight to the
  backend otherwise;
* roadside nodes publish received telemetry to their local broker (archived via
  a tap), forward it over the backhaul, run the queue detector once per second,
  and broadcast handoff beacons;
* the backend node archives everything it receives and hosts the region-wide
  warning topic that relays sudden-stop warnings to subscribed vehicles beyond
  short-range reach.

Recurring activities are phase-offset inside each 100 ms period (kinematics at
+0, beacons at +10, telemetry at +50, detector on the whole second) so that no
two cadences ever contend for the same millisecond, which keeps event order --
and therefore every artifact byte -- a pure function of (scenario, seed).
The detector fires before the same-instant kinematics tick, so a decision at
second k and the ground-truth sample beside it both see the world exactly as
the newest telemetry in its window reported it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import handoff as ho
from .apps import (
    AvoidanceDecision,
    QueueDecision,
    WarningDedup,
    WarningMessage,
    accuracy,
    decide_avoidance,
    detect_queue,
)
from .archive import Archive, RetentionPolicy
from .broker import Broker, BrokerMessage
from .config import Directive, ScenarioConfig, VehicleSpawn
from .core import Bsm, GeoPoint, distance
from .engine import Engine, SimSummary
from .mobility import TrafficWorld, VehicleState
from .radio import LatencyProfile, LinkKind, LinkModel, in_range, loss_probability, rssi_dbm, sample_delivery

BEACON_PHASE_MS = 10
BSM_PHASE_MS = 50
SYSTEM_NODE_ID = "system"


@dataclass(frozen=True)
class PacketRecord:
    t_send: int
    t_recv: int | None
    tx: str
    rx: str
    link: LinkKind
    kind: str  # bsm | bsm_forward | beacon | warning | queue_status
    delivered: bool

    @property
    def latency_ms(self) -> int | None:
        return None if self.t_recv is None else self.t_recv - self.t_send


@dataclass(frozen=True)
class QueueEval:
    rsu: str
    decision: QueueDecision
    truth: bool


@dataclass(frozen=True)
class CoverageRow:
    rsu: str
    distance_m: float
    rssi_dbm: float
    p_loss: float


@dataclass
class RunResult:
    config: ScenarioConfig
    summary: SimSummary
    packets: list[PacketRecord]
    handoff_events: list[ho.HandoffEvent]
    avoidance_decisions: list[AvoidanceDecision]
    queue_evals: list[QueueEval]
    archives: dict[str, Archive]
    coverage: list[CoverageRow]
    trace_lines: list[str]

    def queue_accuracy(self) -> float | None:
        if not self.queue_evals:
            return None
        return accuracy([e.decision.queued for e in self.queue_evals], [e.truth for e in self.queue_evals])


@dataclass
class _RsuNode:
    rsu_id: str
    s_m: float
    pos: GeoPoint
    obstruction: float
    broker: Broker
    archive: Archive
    window: list[Bsm] = field(default_factory=list)


@dataclass
class _VehicleAgent:
    vehicle_id: str
    handoff: ho.HandoffState
    dedup: WarningDedup = field(default_factory=WarningDedup)


class Simulation:
    """One scenario bound to one engine; single-use."""

    def __init__(self, config: ScenarioConfig, trace: bool = False):
        self.config = config
        self.engine = Engine(seed=config.seed, trace=trace)
        self.constants = config.constants
        self.corridor = config.corridor
        self.links = config.links
        self.tick_ms = self.constants.bsm_interval_ms

        mob = config.mobility
        self.world = TrafficWorld(
            corridor=self.corridor,
            constants=self.constants,
            follow_margin_m=mob.follow_margin_m,
            resume_hysteresis_m=mob.resume_hysteresis_m,
            resume_accel_mps2=mob.resume_accel_mps2,
        )

        self.system_broker = Broker(name=SYSTEM_NODE_ID)
        self.system_archive = Archive(node_id=SYSTEM_NODE_ID)
        self.system_broker.add_tap(self._system_tap)

        self.rsus: list[_RsuNode] = []
        for spec in self.corridor.rsus:
            node = _RsuNode(
                rsu_id=spec.rsu_id,
                s_m=spec.s_m,
                pos=self.corridor.position_geo(spec.s_m),
                obstruction=spec.obstruction,
                broker=Broker(name=spec.rsu_id),
                archive=Archive(
                    node_id=spec.rsu_id,
                    policy=RetentionPolicy(max_age_ms=config.fixed_edge_retention_ms),
                ),
            )
            node.broker.add_tap(self._make_rsu_tap(node))
            self.rsus.append(node)

        self.agents: dict[str, _VehicleAgent] = {}
        self.packets: list[PacketRecord] = []
        self.handoff_events: list[ho.HandoffEvent] = []
        self.avoidance_decisions: list[AvoidanceDecision] = []
        self.queue_evals: list[QueueEval] = []
        self._warning_topic = f"warning/region/{config.region}"
        self._pending: list[Directive] = self._build_directives()
        # Beacons are pure range-gated liveness probes: flat loss out to the
        # effective range edge (no distance ramp), so a zero beacon_p_near
        # really means zero loss and one coverage pass is exactly two
        # handoffs. Raising beacon_p_near reintroduces spurious exits.
        self._beacon_model = replace(
            self.links[config.handoff.short_range],
            p_near=config.beacon_p_near,
            ramp_start_frac=1.0,
        )
        self._ran = False

    # -- setup ------------------------------------------------------------

    def _build_directives(self) -> list[Directive]:
        directives = list(self.config.script)
        for spawn in self.config.vehicles:
            directives.append(Directive(at_ms=spawn.spawn_t_ms, action="spawn", spawn=spawn))
        directives.sort(key=lambda d: d.at_ms)
        return directives

    def _spawn_vehicle(self, spawn: VehicleSpawn) -> None:
        self.world.spawn(
            VehicleState(
                id=spawn.vehicle_id,
                s=spawn.s_m,
                speed=spawn.speed_mps,
                connected=spawn.connected,
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
        self.system_broker.subscribe(
            client=spawn.vehicle_id,
            pattern=self._warning_topic,
            callback=lambda msg, a=agent: self._on_warning_via_broker(a, msg),
        )

    # -- archive taps -----------------------------------------------------

    def _system_tap(self, msg: BrokerMessage) -> None:
        self.system_archive.append(topic=msg.topic, t=msg.t_pub, payload=msg.payload, origin=msg.publisher)

    def _make_rsu_tap(self, node: _RsuNode):
        def tap(msg: BrokerMessage) -> None:
            node.archive.append(topic=msg.topic, t=msg.t_pub, payload=msg.payload, origin=msg.publisher)

        return tap

    # -- radio helper -----------------------------------------------------

    def _send(
        self,
        kind: str,
        tx: str,
        rx: str,
        link: LinkKind,
        distance_m: float,
        obstruction: float,
        deliver,
        profile: LatencyProfile = LatencyProfile.DATA,
        model: LinkModel | None = None,
    ) -> None:
        """Range-gate, draw loss/latency, and schedule the delivery event."""
        model = model or self.links[link]
        now = self.engine.now
        outcome = None
        if in_range(distance_m, model, obstruction):
            rng = self.engine.stream(f"radio.{link.value}.delivery")
            outcome = sample_delivery(distance_m, model, rng, obstruction, profile)
        if outcome is None:  # out of range, or lost on the channel
            self.packets.append(
                PacketRecord(t_send=now, t_recv=None, tx=tx, rx=rx, link=link, kind=kind, delivered=False)
            )
            return
        t_recv = now + outcome.latency_ms
        self.packets.append(
            PacketRecord(t_send=now, t_recv=t_recv, tx=tx, rx=rx, link=link, kind=kind, delivered=True)
        )
        self.engine.at(t_recv, "radio-delivery", f"{kind}:{tx}->{rx}", deliver)

    # -- recurring events ---------------------------------------------------

    def _mobility_tick(self) -> None:
        self.world.step(self.tick_ms / 1000.0)
        self._apply_due_directives()
        self.engine.after(self.tick_ms, "mobility-tick", "world", self._mobility_tick)

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
        now = self.engine.now
        cfg = self.config.handoff
        for node in self.rsus:
            for vid in self._spawned_agents():
                pos = self.world.position_geo(vid)
                d = distance(node.pos, pos)
                agent = self.agents[vid]
                self._send(
                    kind="beacon",
                    tx=node.rsu_id,
                    rx=vid,
                    link=cfg.short_range,
                    distance_m=d,
                    obstruction=node.obstruction,
                    model=self._beacon_model,
                    deliver=lambda a=agent: self._on_beacon(a),
                )
        self.engine.at(now + cfg.beacon_interval_ms, "beacon", "rsus", self._beacon_round)

    def _on_beacon(self, agent: _VehicleAgent) -> None:
        now = self.engine.now
        cfg = self.config.handoff
        event = ho.on_beacon(agent.handoff, cfg, now)
        if event is not None:
            self.handoff_events.append(event)
        self.engine.at(
            now + cfg.timeout_ms,
            "app-timer",
            f"handoff-check:{agent.vehicle_id}",
            lambda a=agent: self._handoff_check(a),
        )

    def _handoff_check(self, agent: _VehicleAgent) -> None:
        event = ho.on_tick(agent.handoff, self.config.handoff, self.engine.now)
        if event is not None:
            self.handoff_events.append(event)

    def _spawned_agents(self) -> list[str]:
        return [vid for vid in self.agents if vid in self.world.vehicles]

    def _bsm_round(self) -> None:
        now = self.engine.now
        for vid in self._spawned_agents():
            agent = self.agents[vid]
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
                    link=LinkKind.LTE,
                    distance_m=0.0,
                    obstruction=0.0,
                    deliver=lambda b=bsm, v=vid: self._system_ingest_bsm(b, origin=v),
                )
            else:
                target = self._nearest_rsu(bsm.pos)
                if target is None:
                    continue
                node, d = target
                self._send(
                    kind="bsm",
                    tx=vid,
                    rx=node.rsu_id,
                    link=link,
                    distance_m=d,
                    obstruction=node.obstruction,
                    deliver=lambda b=bsm, n=node: self._rsu_ingest_bsm(n, b),
                )
        self.engine.at(now + self.tick_ms, "app-timer", "bsm-round", self._bsm_round)

    def _nearest_rsu(self, pos: GeoPoint) -> tuple[_RsuNode, float] | None:
        if not self.rsus:
            return None
        best = min(
            ((distance(node.pos, pos), node.rsu_id, node) for node in self.rsus),
            key=lambda t: (t[0], t[1]),
        )
        return best[2], best[0]

    # -- data plane ---------------------------------------------------------

    def _rsu_ingest_bsm(self, node: _RsuNode, bsm: Bsm) -> None:
        now = self.engine.now
        node.window.append(bsm)
        node.broker.publish(
            BrokerMessage(topic=f"bsm/raw/{bsm.vehicle_id}", payload=bsm.to_doc(), publisher=node.rsu_id, t_pub=now)
        )
        self._send(
            kind="bsm_forward",
            tx=node.rsu_id,
            rx=SYSTEM_NODE_ID,
            link=LinkKind.WIFI,
            distance_m=0.0,
            obstruction=0.0,
            deliver=lambda b=bsm, n=node: self._system_ingest_bsm(b, origin=n.rsu_id),
        )

    def _system_ingest_bsm(self, bsm: Bsm, origin: str) -> None:
        self.system_broker.publish(
            BrokerMessage(
                topic=f"bsm/raw/{bsm.vehicle_id}", payload=bsm.to_doc(), publisher=origin, t_pub=self.engine.now
            )
        )

    def _emit_warning(self, vehicle_id: str) -> None:
        agent = self.agents.get(vehicle_id)
        if agent is None:
            return  # a non-connected vehicle stops silently
        now = self.engine.now
        warning = WarningMessage(
            source_vehicle=vehicle_id, t_emit=now, pos=self.world.position_geo(vehicle_id)
        )
        src_pos = warning.pos
        dsrc = self.links[LinkKind.DSRC]
        for vid in self._spawned_agents():
            if vid == vehicle_id:
                continue
            d = distance(src_pos, self.world.position_geo(vid))
            self._send(
                kind="warning",
                tx=vehicle_id,
                rx=vid,
                link=LinkKind.DSRC,
                distance_m=d,
                obstruction=0.0,
                profile=LatencyProfile.WARNING,
                model=dsrc,
                deliver=lambda a=self.agents[vid], w=warning: self._on_warning_direct(a, w),
            )
        # Region-wide relay rides cellular into the backend broker; fan-out to
        # subscribers models the whole relay path, so its latency is the
        # end-to-end warning delay.
        self._send(
            kind="warning",
            tx=vehicle_id,
            rx=SYSTEM_NODE_ID,
            link=LinkKind.LTE,
            distance_m=0.0,
            obstruction=0.0,
            profile=LatencyProfile.WARNING,
            deliver=lambda w=warning, v=vehicle_id: self._publish_warning(w, v),
        )

    def _publish_warning(self, warning: WarningMessage, publisher: str) -> None:
        self.system_broker.publish(
            BrokerMessage(
                topic=self._warning_topic,
                payload=warning.to_doc(),
                publisher=publisher,
                t_pub=self.engine.now,
            )
        )

    def _on_warning_direct(self, agent: _VehicleAgent, warning: WarningMessage) -> None:
        self._handle_warning(agent, warning, LinkKind.DSRC)

    def _on_warning_via_broker(self, agent: _VehicleAgent, msg: BrokerMessage) -> None:
        warning = WarningMessage(
            source_vehicle=msg.payload["source_vehicle"],
            t_emit=msg.payload["t_emit"],
            pos=GeoPoint(msg.payload["lat"], msg.payload["lon"]),
        )
        self._handle_warning(agent, warning, LinkKind.LTE)

    def _handle_warning(self, agent: _VehicleAgent, warning: WarningMessage, link: LinkKind) -> None:
        if warning.source_vehicle == agent.vehicle_id:
            return  # own warning echoed back through the region topic
        if agent.vehicle_id not in self.world.vehicles:
            return
        if not agent.dedup.first(warning):
            return
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
            decision = detect_queue(
                rsu=node.rsu_id,
                t=now,
                window_bsms=node.window,
                order_key=self.corridor.project,
                constants=self.constants,
            )
            self.queue_evals.append(QueueEval(rsu=node.rsu_id, decision=decision, truth=truth))
            self._publish_processed(node, now)
            node.broker.publish(
                BrokerMessage(
                    topic=f"queue/status/{node.rsu_id}",
                    payload=decision.to_doc(),
                    publisher=node.rsu_id,
                    t_pub=now,
                )
            )
            self._send(
                kind="queue_status",
                tx=node.rsu_id,
                rx=SYSTEM_NODE_ID,
                link=LinkKind.WIFI,
                distance_m=0.0,
                obstruction=0.0,
                deliver=lambda d=decision, n=node: self._system_ingest_queue_status(n, d),
            )
            node.window = [b for b in node.window if b.t > now - 1000]
        self.engine.at(now + 1000, "detector-tick", "rsus", self._detector_tick)

    def _publish_processed(self, node: _RsuNode, now: int) -> None:
        per_vehicle: dict[str, list[Bsm]] = {}
        for bsm in node.window:
            if now - 1000 < bsm.t <= now:
                per_vehicle.setdefault(bsm.vehicle_id, []).append(bsm)
        vehicles = {}
        for vid in sorted(per_vehicle):
            bsms = per_vehicle[vid]
            latest = max(bsms, key=lambda b: b.t)
            vehicles[vid] = {
                "mean_speed": sum(b.speed for b in bsms) / len(bsms),
                "lat": latest.pos.lat,
                "lon": latest.pos.lon,
                "reports": len(bsms),
            }
        node.broker.publish(
            BrokerMessage(
                topic=f"bsm/processed/{node.rsu_id}",
                payload={"t": now, "rsu": node.rsu_id, "vehicles": vehicles},
                publisher=node.rsu_id,
                t_pub=now,
            )
        )

    def _system_ingest_queue_status(self, node: _RsuNode, decision: QueueDecision) -> None:
        self.system_broker.publish(
            BrokerMessage(
                topic=f"queue/status/{node.rsu_id}",
                payload=decision.to_doc(),
                publisher=node.rsu_id,
                t_pub=self.engine.now,
            )
        )

    def _prune_archives(self) -> None:
        for node in self.rsus:
            node.archive.prune(self.engine.now)
        interval = max(1, self.config.fixed_edge_retention_ms // 4)
        self.engine.after(interval, "app-timer", "archive-prune", self._prune_archives)

    # -- coverage -------------------------------------------------------------

    def _coverage_rows(self) -> list[CoverageRow]:
        rows = []
        model = self.links[self.config.handoff.short_range]
        if model.range_m is None:
            return rows
        for node in self.rsus:
            d = 0.0
            while d <= model.range_m:
                rows.append(
                    CoverageRow(
                        rsu=node.rsu_id,
                        distance_m=d,
                        rssi_dbm=rssi_dbm(d),
                        p_loss=loss_probability(d, model, node.obstruction),
                    )
                )
                d += 10.0
        return rows

    # -- main entry -------------------------------------------------------------

    def run(self, t_end_ms: int | None = None) -> RunResult:
        if self._ran:
            raise RuntimeError("Simulation objects are single-use; build a new one")
        self._ran = True
        t_end = self.config.t_end_ms if t_end_ms is None else t_end_ms
        self._apply_due_directives()
        self.engine.at(self.tick_ms, "mobility-tick", "world", self._mobility_tick)
        if self.rsus:
            self.engine.at(BEACON_PHASE_MS, "beacon", "rsus", self._beacon_round)
        self.engine.at(BSM_PHASE_MS, "app-timer", "bsm-round", self._bsm_round)
        if self.rsus and self.config.detection.enabled:
            self.engine.at(1000, "detector-tick", "rsus", self._detector_tick)
        if self.rsus:
            interval = max(1, self.config.fixed_edge_retention_ms // 4)
            self.engine.at(interval, "app-timer", "archive-prune", self._prune_archives)
        summary = self.engine.run_until(t_end)
        archives = {SYSTEM_NODE_ID: self.system_archive}
        for node in self.rsus:
            archives[node.rsu_id] = node.archive
        return RunResult(
            config=self.config,
            summary=summary,
            packets=self.packets,
            handoff_events=self.handoff_events,
            avoidance_decisions=self.avoidance_decisions,
            queue_evals=self.queue_evals,
            archives=archives,
            coverage=self._coverage_rows(),
            trace_lines=self.engine.trace_lines,
        )


def run_scenario(config: ScenarioConfig, t_end_ms: int | None = None, trace: bool = False) -> RunResult:
    return Simulation(config, trace=trace).run(t_end_ms=t_end_ms)
