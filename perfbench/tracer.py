"""Per-layer host-time attribution for the benchmark's traced run.

The tracer wraps cvsim's public functions and methods from outside: nothing
under ``src/`` changes. Each wrapped call records a span (name, start, end,
parent) in flat in-memory arrays; a span's self time is its duration minus
the durations of its direct children, so the self times of every span under
one root add up to that root exactly. Functions that modules import by name
(``from .radio import in_range``) are replaced in every ``cvsim.*`` namespace
that binds them, since replacing them only in the defining module would miss
the caller's binding. Methods are replaced on their class.

Cheap counters ride on the same wrappers (publishes, fan-out, range checks,
handoff events, ...). Counts depend only on the simulated run, so two traced
operations on the same input must count exactly the same.

The first segment of a span name is its layer: ``config``, ``sim``,
``engine``, ``mobility``, ``radio``, ``handoff``, ``broker``, ``archive``,
``apps``, ``report`` or ``replay``. Event handlers (``event.*``), broker taps
and subscriber callbacks are code in ``cvsim.sim`` and count as the ``sim``
layer; ``bench.*`` is the benchmark's own glue around one operation.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

LAYERS = (
    "config", "sim", "engine", "mobility", "radio", "handoff",
    "broker", "archive", "apps", "report", "replay",
)
EVENT_KINDS = ("mobility-tick", "beacon", "radio-delivery", "app-timer", "detector-tick")
# Event handlers, named by event kind, or by subject prefix for app-timers.
HANDLERS = (
    "mobility-tick", "beacon", "bsm-round", "radio-delivery",
    "handoff-check", "detector-tick", "archive-prune",
)
ROOT = "bench.op"


def handler_name(kind: str, subject: str) -> str:
    return subject.split(":", 1)[0] if kind == "app-timer" else kind


def layer_of(span_name: str) -> str:
    head = span_name.split(".", 1)[0]
    return "sim" if head == "event" else head


class Tracer:
    """Spans and counters for one traced operation at a time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.stack = [-1]
        self.counts: Counter[str] = Counter()
        self.heap_peak = 0
        self._active_subs: dict[int, set[int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def leave(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self.stack.pop()

    def span(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` inside a span named ``name``; ``after`` sees each result."""
        enter, leave = self.enter, self.leave

        def traced(*args, **kwargs):
            idx = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(idx)
            if after is not None:
                after(result)
            return result

        return traced

    @contextmanager
    def root(self):
        idx = self.enter(ROOT)
        try:
            yield
        finally:
            self.leave(idx)

    def clear(self) -> None:
        self.names.clear()
        del self.starts[:], self.ends[:], self.parents[:]
        self.stack[:] = [-1]
        self.counts.clear()
        self.heap_peak = 0
        self._active_subs.clear()

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.names)
        child_ns = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_ns[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            if self.parents[i] < 0 and self.names[i] != ROOT:
                raise RuntimeError(f"span {self.names[i]!r} ran outside the operation root")
            dur = self.ends[i] - self.starts[i]
            agg = out.setdefault(self.names[i], {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["incl_s"] += dur / 1e9
            agg["self_s"] += (dur - child_ns[i]) / 1e9
        return out

    def write_spans(self, path: Path) -> None:
        """Dump the spans held in memory, one CSV row per span."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{self.parents[i]},{name},{self.starts[i]},{self.ends[i]}\n")

    # -- patching -------------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_function(self, func: Callable, wrapper: Callable) -> None:
        """Replace ``func`` in every loaded cvsim module that binds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "cvsim" or mod_name.startswith("cvsim."):
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        self._set(mod, attr, wrapper)

    def _span_function(self, func: Callable, name: str, after: Callable | None = None) -> None:
        self._replace_function(func, self.span(name, func, after))

    def _span_method(self, cls: type, attr: str, name: str, after: Callable | None = None) -> None:
        self._set(cls, attr, self.span(name, cls.__dict__[attr], after))

    def _count(self, key: str, by: Callable[[object], int] = lambda _: 1) -> Callable:
        counts = self.counts

        def after(result):
            counts[key] += by(result)

        return after

    def _counted(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        from cvsim import apps, archive, config, core, engine, handoff, mobility, radio, replay, report, sim
        from cvsim.broker import Broker

        counts = self.counts
        self._span_function(config.load_scenario, "config.load_scenario")
        self._span_function(config.parse_scenario, "config.parse_scenario")

        self._span_method(sim.Simulation, "__init__", "sim.build")
        self._span_method(sim.Simulation, "run", "sim.run")

        self._span_method(engine.Engine, "run_until", "engine.run_until")
        schedule = engine.Engine.schedule

        def traced_schedule(eng, event):
            name = f"event.{handler_name(event.kind, event.subject)}"
            event.fn = self.span(name, event.fn, self._count(f"engine.events.{event.kind}"))
            seq = schedule(eng, event)
            self.heap_peak = max(self.heap_peak, eng.pending())
            return seq

        self._set(engine.Engine, "schedule", traced_schedule)

        self._span_method(mobility.TrafficWorld, "step", "mobility.step")
        self._span_method(
            mobility.TrafficWorld, "position_geo", "mobility.position_geo",
            self._count("mobility.position_geo_calls"),
        )
        self._span_method(mobility.TrafficWorld, "ground_truth_queue", "mobility.ground_truth_queue")
        self._set(mobility.Corridor, "project", self._counted(mobility.Corridor.project, "mobility.project_calls"))
        self._replace_function(core.distance, self._counted(core.distance, "core.distance_calls"))

        def after_in_range(ok):
            counts["radio.range_checks"] += 1
            counts["radio.out_of_range"] += not ok

        def after_sample(outcome):
            counts["radio.samples"] += 1
            counts["radio.delivered"] += isinstance(outcome, radio.Delivered)

        self._span_function(radio.in_range, "radio.in_range", after_in_range)
        self._span_function(radio.sample_delivery, "radio.sample_delivery", after_sample)

        def after_handoff(key):
            def after(event):
                counts[key] += 1
                counts["handoff.events"] += event is not None

            return after

        self._span_function(handoff.on_beacon, "handoff.on_beacon", after_handoff("handoff.on_beacon_calls"))
        self._span_function(handoff.on_tick, "handoff.on_tick", after_handoff("handoff.on_tick_calls"))

        publish, subscribe = Broker.publish, Broker.subscribe
        unsubscribe, add_tap = Broker.unsubscribe, Broker.add_tap
        active = self._active_subs

        def traced_publish(broker, msg):
            side = "system" if broker.name == sim.SYSTEM_NODE_ID else "rsu"
            idx = self.enter(f"broker.publish.{side}")
            try:
                fanout = publish(broker, msg)
            finally:
                self.leave(idx)
            counts[f"broker.{side}.publishes"] += 1
            counts[f"broker.{side}.fanout"] += fanout
            counts[f"broker.{side}.subs_scanned"] += len(active.get(id(broker), ()))
            return fanout

        def traced_subscribe(broker, client, pattern, callback):
            sub_id = subscribe(broker, client, pattern, self.span("sim.broker_callback", callback))
            active.setdefault(id(broker), set()).add(sub_id)
            return sub_id

        def traced_unsubscribe(broker, sub_id):
            unsubscribe(broker, sub_id)
            active.get(id(broker), set()).discard(sub_id)

        def traced_add_tap(broker, tap):
            add_tap(broker, self.span("sim.broker_tap", tap))

        self._set(Broker, "publish", traced_publish)
        self._set(Broker, "subscribe", traced_subscribe)
        self._set(Broker, "unsubscribe", traced_unsubscribe)
        self._set(Broker, "add_tap", traced_add_tap)

        Archive = archive.Archive
        self._span_method(Archive, "append", "archive.append", self._count("archive.appends"))
        self._span_method(Archive, "prune", "archive.prune", self._count("archive.pruned_records", int))
        self._span_method(Archive, "count", "archive.count", self._count("archive.count_calls"))
        self._span_method(Archive, "query", "archive.query")
        self._span_method(Archive, "export_ndjson", "archive.export_ndjson")

        self._span_function(apps.detect_queue, "apps.detect_queue", self._count("apps.detect_queue_calls"))
        self._span_function(
            apps.decide_avoidance, "apps.decide_avoidance", self._count("apps.decide_avoidance_calls")
        )

        self._span_function(report.write_artifacts, "report.write_artifacts")
        self._span_function(report.report_rows, "report.report_rows")
        self._span_function(report.render_text_report, "report.render_text_report")
        self._span_function(report.link_stats, "report.link_stats", self._count("report.link_stats_calls"))
        self._span_function(report.write_bsm_trace, "report.write_bsm_trace")
        self._span_function(report.write_csv, "report.write_csv")

        self._span_function(replay.parse_trace, "replay.parse_trace", self._count("replay.records", len))
        self._span_function(replay.replay_trace, "replay.replay_trace")
        self._span_function(replay.write_replay_csv, "replay.write_replay_csv")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def layer_metrics(aggs: list[dict[str, dict[str, float]]]) -> dict[str, float]:
    """Mean per-operation times from the aggregates of several traced operations."""
    n = len(aggs)
    total: dict[str, dict[str, float]] = {}
    for agg in aggs:
        for name, a in agg.items():
            t = total.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for key in t:
                t[key] += a[key]

    def incl(name: str) -> float:
        return total.get(name, {}).get("incl_s", 0.0) / n

    def self_s(name: str) -> float:
        return total.get(name, {}).get("self_s", 0.0) / n

    def calls(name: str) -> float:
        return total.get(name, {}).get("calls", 0) / n

    layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
    for name, t in total.items():
        layer_self[layer_of(name)] += t["self_s"] / n

    m: dict[str, float] = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m["config.parse_s"] = incl("config.parse_scenario")
    m["bench.self_s"] = layer_self["bench"]
    m["trace.root_s"] = incl(ROOT)
    m["sim.build_s"] = incl("sim.build")
    m["sim.run_s"] = incl("sim.run")
    for handler in HANDLERS:
        m[f"event.{handler}_s"] = self_s(f"event.{handler}")
        m[f"event.{handler}_calls"] = calls(f"event.{handler}")
    for side in ("system", "rsu"):
        m[f"broker.{side}.publish_self_s"] = self_s(f"broker.publish.{side}")
    m["broker.publish_self_s"] = m["broker.system.publish_self_s"] + m["broker.rsu.publish_self_s"]
    m["mobility.step_s"] = incl("mobility.step")
    m["mobility.position_geo_s"] = incl("mobility.position_geo")
    m["archive.append_s"] = incl("archive.append")
    m["archive.prune_s"] = incl("archive.prune")
    m["archive.count_s"] = incl("archive.count")
    m["archive.query_s"] = incl("archive.query")
    m["archive.export_s"] = incl("archive.export_ndjson")
    m["apps.detect_queue_s"] = incl("apps.detect_queue")
    m["report.write_artifacts_s"] = incl("report.write_artifacts")
    m["report.report_rows_s"] = incl("report.report_rows")
    m["report.render_text_s"] = incl("report.render_text_report")
    m["report.bsm_trace_s"] = incl("report.write_bsm_trace")
    m["report.csv_s"] = incl("report.write_csv")
    m["replay.parse_s"] = incl("replay.parse_trace")
    m["replay.replay_s"] = incl("replay.replay_trace")
    m["replay.write_s"] = incl("replay.write_replay_csv")
    return m


COUNT_KEYS = (
    "engine.events", "engine.heap_peak",
    *(f"engine.events.{kind}" for kind in EVENT_KINDS),
    *(f"broker.{side}.{key}" for side in ("system", "rsu") for key in ("publishes", "fanout", "subs_scanned")),
    "broker.publishes", "broker.fanout", "broker.subs_scanned",
    "radio.range_checks", "radio.out_of_range", "radio.samples", "radio.delivered",
    "core.distance_calls",
    "mobility.position_geo_calls", "mobility.project_calls",
    "handoff.on_beacon_calls", "handoff.on_tick_calls", "handoff.events",
    "archive.appends", "archive.pruned_records", "archive.count_calls",
    "apps.detect_queue_calls", "apps.decide_avoidance_calls",
    "report.link_stats_calls", "replay.records",
)


def count_metrics(tracer: Tracer) -> dict[str, int]:
    """The counters of the operation just traced, with totals over both broker sides."""
    c = tracer.counts
    out = {key: c[key] for key in COUNT_KEYS}
    out["engine.events"] = sum(c[f"engine.events.{kind}"] for kind in EVENT_KINDS)
    out["engine.heap_peak"] = tracer.heap_peak
    for key in ("publishes", "fanout", "subs_scanned"):
        out[f"broker.{key}"] = c[f"broker.system.{key}"] + c[f"broker.rsu.{key}"]
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def ratio_metrics(c: dict[str, int]) -> dict[str, float]:
    m = {}
    for prefix in ("broker", "broker.system", "broker.rsu"):
        m[f"{prefix}.match_ratio"] = ratio(c[f"{prefix}.fanout"], c[f"{prefix}.subs_scanned"])
    m["radio.useful_ratio"] = ratio(c["radio.delivered"], c["radio.range_checks"])
    checks = c["handoff.on_beacon_calls"] + c["handoff.on_tick_calls"]
    m["handoff.event_ratio"] = ratio(c["handoff.events"], checks)
    return m
