"""Metric aggregation and artifact rendering.

``compute_figures`` derives each reported figure once per run; ``report.csv``
(``report_rows``) and ``report.txt`` (``render_text_report``) both render that
one computation, the text from the unrounded values. ``ARTIFACTS`` names
every file, with each CSV's header and rows. Every file is opened by
``archive.open_text`` (UTF-8, LF) and contains nothing run-dependent beyond
the simulation itself (no wall-clock timestamps), so a scenario re-run with
the same seed writes byte-identical artifacts.

The send figures come from the run's ledger, ``RunResult.sends``, which
``sim.Simulation._send`` keeps as it decides each send: one ``SendTally``
per (link, packet kind), whose ``delivered`` count is what the receivers got
by the end of the run. ``link_stats`` sums each link's tallies into one more
``SendTally``, and the exchange delays read the ledger itself; nothing here
reads the packet log.
``archive.ndjson`` and ``trace.ndjson`` are written in one pass over the
backend's records; a BSM's two lines are built from its five fields
(``_bsm_halves``), any other payload is encoded by ``canonical_json``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .apps import QueueDecision, accuracy, eval_bucket
from .archive import Record, _json_str, canonical_json, canonical_line, open_text, record_line
from .core import BSM_KEYS, m_to_ft, mps_to_mph, round_half_away
from .config import BSM_RAW_PATTERN, QUEUE_STATUS_PATTERN, SYSTEM_NODE_ID, ScenarioConfig
from .radio import BACKHAUL, LinkKind, loss_probability, rssi_dbm
from .sim import Ledger, RunResult, SendTally

EXCHANGE_ROWS = (
    ("mobile_fixed", "Mobile Edge (CV) - Fixed Edge", LinkKind.DSRC, "bsm", "Basic safety messages"),
    ("system_fixed", "System Edge - Fixed Edge", BACKHAUL.kind, "queue_status", "Queue detection information"),
)


def fnum(x: float | int | None) -> str:
    """Stable scalar rendering for CSV cells (repr floats, empty for missing)."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def link_stats(sends: Ledger) -> list[SendTally]:
    """Per link kind with sends, its tallies in the ledger summed, in ``LinkKind`` order.

    ``delivered + in_flight + lost == sent``, and the latencies are those of
    the delivered sends.
    """
    links = []
    for link in LinkKind:
        total = SendTally(link)
        for tally in sends[link].values():
            total.delivered += tally.delivered
            total.in_flight += tally.in_flight
            total.channel_loss += tally.channel_loss
            total.out_of_range += tally.out_of_range
            total.latency_sum += tally.latency_sum
            total.latency_max = max(total.latency_max, tally.latency_max)
        if total.sent:
            links.append(total)
    return links


def _exchange_delays(sends: Ledger) -> dict[str, float | None]:
    """The mean latency of each ``EXCHANGE_ROWS`` exchange, over its sends delivered by the end."""
    return {key: sends[link][kind].avg_latency_ms for key, _, link, kind, _ in EXCHANGE_ROWS}


@dataclass(frozen=True)
class QueueTally:
    rsu: str
    evaluations: int
    queued_seconds: int
    truth_seconds: int
    accuracy: float


@dataclass(frozen=True)
class ArchiveTally:
    node_id: str
    records: int
    appended_total: int
    bsm_raw: int
    queue_status: int


@dataclass(frozen=True)
class ReportFigures:
    """The run's aggregate figures, computed once and rendered by both reports."""

    links: list[SendTally]
    delays: dict[str, float | None]
    queues: list[QueueTally]
    archives: list[ArchiveTally]


def compute_figures(result: RunResult) -> ReportFigures:
    by_rsu: dict[str, tuple[list[bool], list[bool]]] = {}
    for e in result.queue_evals:
        decided, truth = by_rsu.setdefault(e.decision.rsu, ([], []))
        decided.append(e.decision.queued)
        truth.append(e.truth)
    queues = [
        QueueTally(rsu, len(decided), sum(decided), sum(truth), accuracy(decided, truth))
        for rsu, (decided, truth) in sorted(by_rsu.items())
    ]
    archives = [
        ArchiveTally(node_id, len(a), a.appended_total, a.count(BSM_RAW_PATTERN), a.count(QUEUE_STATUS_PATTERN))
        for node_id, a in sorted(result.archives.items())
    ]
    return ReportFigures(link_stats(result.sends), _exchange_delays(result.sends), queues, archives)


def write_csv(path: Path, header: Iterable[str], rows: Iterable[Iterable[str]]) -> None:
    with open_text(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


QUEUE_HEADER = ("t_ms", "rsu", "avg_speed_mph", "avg_gap_ft", "queued", "truth")


def queue_rows(pairs: Iterable[tuple[QueueDecision, bool | None]]) -> Iterator[list[str]]:
    """One ``QUEUE_HEADER`` row per (decision, ground truth) pair; an unknown truth is an empty cell."""
    return (
        [
            str(d.t),
            d.rsu,
            fnum(None if d.avg_speed_mps is None else mps_to_mph(d.avg_speed_mps)),
            fnum(None if d.avg_gap_m is None else m_to_ft(d.avg_gap_m)),
            fnum(d.queued),
            fnum(truth),
        ]
        for d, truth in pairs
    )


def coverage_rows(config: ScenarioConfig) -> list[tuple[str, float, float, float]]:
    """The short-range link swept out from each RSU in 10 m steps: (rsu, distance_m, rssi_dbm, p_loss).

    Empty when the short-range link is unbounded.
    """
    rows = []
    model = config.links[config.handoff.short_range]
    if model.range_m is None:
        return rows
    # No corridor point lies farther than the corridor's length from an RSU.
    reach = min(model.range_m, config.corridor.length_m)
    for spec in config.corridor.rsus:
        rsu_model = replace(model, obstruction=spec.obstruction)
        d = 0.0
        while d <= reach:
            rows.append((spec.rsu_id, d, rssi_dbm(d), loss_probability(d, rsu_model)))
            d += 10.0
    return rows


def _bsm_halves(payload: dict) -> tuple[str, str] | None:
    """``canonical_json`` of a BSM document, cut before ``"vehicle_id"``; None for any other payload.

    Its keys are ``BSM_KEYS``: an exact ``int`` ``t``, an exact ``str`` ``vehicle_id`` and finite
    exact ``int``s or ``float``s, which the C encoder writes as their ``repr`` and through
    ``encode_basestring_ascii``, in sorted key order: lat, lon, speed, t, (truth,) vehicle_id.
    """
    if payload.keys() != BSM_KEYS:
        return None
    t, vehicle_id = payload["t"], payload["vehicle_id"]
    lat, lon, speed = payload["lat"], payload["lon"], payload["speed"]
    if type(t) is not int or type(vehicle_id) is not str:
        return None
    for x in (lat, lon, speed):
        if type(x) is not int and (type(x) is not float or not isfinite(x)):
            return None
    return f'{{"lat":{lat!r},"lon":{lon!r},"speed":{speed!r},"t":{t},', f'"vehicle_id":{_json_str(vehicle_id)}}}'


@dataclass(frozen=True)
class _BsmTrace:
    """Which backend records the BSM trace holds, and the line each one gets."""

    topics: set[str]  # the backend's bsm/raw topics
    truth_at: dict[int, bool]  # eval bucket -> the live truth of its first evaluation

    @classmethod
    def of(cls, result: RunResult) -> _BsmTrace:
        truth_at = {e.decision.t: e.truth for e in reversed(result.queue_evals)}
        return cls(result.archives[SYSTEM_NODE_ID].topics(BSM_RAW_PATTERN), truth_at)

    def line(self, record: Record) -> tuple[str, str]:
        """The record's payload JSON, and its trace line: the payload plus the truth of its bucket, if any."""
        payload = record.payload
        truth = self.truth_at.get(eval_bucket(int(payload["t"])))
        halves = _bsm_halves(payload)
        if halves is None:
            return canonical_json(payload), canonical_line(payload if truth is None else {**payload, "truth": truth})
        head, tail = halves
        truth_json = "" if truth is None else f'"truth":{"true" if truth else "false"},'
        return head + tail, f"{head}{truth_json}{tail}\n"


def write_bsm_trace(result: RunResult, path: Path) -> int:
    """Export the backend's telemetry stream for offline replay; returns the line count.

    One line per backend ``bsm/raw`` record, in (t, seq) order, the same as
    ``write_artifacts``' (``_BsmTrace.line``): the message's payload, plus
    ``truth``, the live ground truth of the one-second evaluation its timestamp
    falls into (omitted when the run had no detector or the bucket was never evaluated).
    """
    trace = _BsmTrace.of(result)
    n = 0
    with open_text(path) as fh:
        for record in result.archives[SYSTEM_NODE_ID]:
            if record.topic in trace.topics:
                fh.write(trace.line(record)[1])
                n += 1
    return n


def _write_backend_exports(result: RunResult, archive_path: Path, trace_path: Path) -> None:
    """``archive.ndjson`` and ``trace.ndjson`` in one pass, each BSM formatted once for both."""
    trace = _BsmTrace.of(result)
    with open_text(archive_path) as archive_fh, open_text(trace_path) as trace_fh:
        for record in result.archives[SYSTEM_NODE_ID]:
            if record.topic in trace.topics:
                payload_json, line = trace.line(record)
                trace_fh.write(line)
            else:
                payload_json = canonical_json(record.payload)
            archive_fh.write(record_line(record, payload_json))


def report_rows(result: RunResult, figures: ReportFigures) -> list[tuple[str, str, str]]:
    """Everything the text report shows, as (section, metric, value)."""
    cfg = result.config
    rows: list[tuple[str, str, str]] = [
        ("run", "scenario", cfg.name),
        ("run", "seed", str(cfg.seed)),
        ("run", "t_end_ms", str(result.summary.end_time_ms)),
        ("run", "events_processed", str(result.summary.events_processed)),
        ("run", "speed_tier_mph", str(cfg.speed_tier_mph)),
    ]
    for s in figures.links:
        sec = f"link.{s.link.value}"
        rows.append((sec, "sent", str(s.sent)))
        rows.append((sec, "delivered", str(s.delivered)))
        rows.append((sec, "in_flight", str(s.in_flight)))
        rows.append((sec, "lost", str(s.lost)))
        rows.append((sec, "loss_pct", fnum(round(s.loss_pct, 4))))
        rows.append((sec, "avg_latency_ms", fnum(s.avg_latency_ms)))
        rows.append((sec, "max_latency_ms", fnum(s.max_latency_ms)))
    for key, _, link, kind, _ in EXCHANGE_ROWS:
        rows.append((f"exchange.{key}", "link", link.value))
        rows.append((f"exchange.{key}", "data", kind))
        rows.append((f"exchange.{key}", "avg_delay_ms", fnum(figures.delays[key])))
    for d in result.avoidance_decisions:
        sec = f"avoidance.{d.vehicle}.{d.link_used.value}"
        rows.append((sec, "t_ms", str(d.t_recv)))
        rows.append((sec, "gap_ft", fnum(round(m_to_ft(d.gap_m), 2))))
        rows.append((sec, "dmin_ft", str(round_half_away(m_to_ft(d.d_min_m)))))
        rows.append((sec, "verdict", d.verdict.value))
        rows.append((sec, "latency_ms", str(d.latency_ms)))
        rows.append((sec, "within_200ms_req", fnum(d.within_safety_latency)))
    rows.append(("handoff", "events", str(len(result.handoff_events))))
    for i, e in enumerate(result.handoff_events):
        rows.append((f"handoff.{i}", "t_ms", str(e.t)))
        rows.append((f"handoff.{i}", "vehicle", e.vehicle))
        rows.append((f"handoff.{i}", "transition", f"{e.from_link.value}->{e.to_link.value}"))
    for q in figures.queues:
        sec = f"queue.{q.rsu}"
        rows.append((sec, "evaluations", str(q.evaluations)))
        rows.append((sec, "queued_seconds", str(q.queued_seconds)))
        rows.append((sec, "truth_seconds", str(q.truth_seconds)))
        rows.append((sec, "accuracy", fnum(q.accuracy)))
    for a in figures.archives:
        sec = f"archive.{a.node_id}"
        rows.append((sec, "records", str(a.records)))
        rows.append((sec, "appended_total", str(a.appended_total)))
        rows.append((sec, "bsm_raw", str(a.bsm_raw)))
        rows.append((sec, "queue_status", str(a.queue_status)))
    return rows


def render_text_report(result: RunResult, figures: ReportFigures) -> str:
    cfg = result.config
    lines = [
        f"scenario: {cfg.name}",
        f"seed: {cfg.seed}   t_end: {result.summary.end_time_ms} ms   "
        f"events: {result.summary.events_processed}",
        "",
        "== link statistics ==",
        f"{'link':8} {'sent':>8} {'delivered':>10} {'in flight':>10} {'lost':>6} "
        f"{'loss%':>8} {'avg ms':>9} {'max ms':>7}",
    ]
    for s in figures.links:
        avg = "-" if s.avg_latency_ms is None else f"{s.avg_latency_ms:.2f}"
        mx = "-" if s.max_latency_ms is None else str(s.max_latency_ms)
        lines.append(
            f"{s.link.value:8} {s.sent:>8} {s.delivered:>10} {s.in_flight:>10} {s.lost:>6} "
            f"{s.loss_pct:>8.2f} {avg:>9} {mx:>7}"
        )
    lines += ["", "== data exchange delay =="]
    for key, label, link, _, data in EXCHANGE_ROWS:
        delay = figures.delays[key]
        avg = "-" if delay is None else f"{delay:.2f} ms"
        lines.append(f"{label}: {data} over {link.value}: {avg}")
    if result.avoidance_decisions:
        lines += [
            "",
            "== collision avoidance ==",
            f"(safety latency requirement: {cfg.constants.safety_latency_req_ms} ms)",
            f"{'vehicle':10} {'link':6} {'gap ft':>9} {'dmin ft':>8} {'verdict':>8} "
            f"{'latency ms':>11} {'within req':>11}",
        ]
        for d in result.avoidance_decisions:
            lines.append(
                f"{d.vehicle:10} {d.link_used.value:6} {m_to_ft(d.gap_m):>9.2f} "
                f"{round_half_away(m_to_ft(d.d_min_m)):>8} {d.verdict.value:>8} "
                f"{d.latency_ms:>11} {str(d.within_safety_latency).lower():>11}"
            )
    lines += ["", f"== handoffs ({len(result.handoff_events)} events) =="]
    for e in result.handoff_events:
        lines.append(f"t={e.t} ms  {e.vehicle}: {e.from_link.value} -> {e.to_link.value}")
    if figures.queues:
        lines += ["", "== queue detection =="]
        for q in figures.queues:
            lines.append(
                f"{q.rsu}: {q.evaluations} evaluations, queued {q.queued_seconds}, "
                f"truth {q.truth_seconds}, accuracy {q.accuracy:.6f}"
            )
    lines += ["", "== archives =="]
    for a in figures.archives:
        lines.append(
            f"{a.node_id}: {a.records} records retained ({a.appended_total} appended, "
            f"{a.bsm_raw} bsm, {a.queue_status} queue-status)"
        )
    return "\n".join(lines) + "\n"


_Rows = Callable[[RunResult, ReportFigures], Iterable[Iterable[str]]]

# Every file a run writes, each named once. A CSV's entry is its header and
# its rows, built from the run and its figures; the text report and the two
# NDJSON exports, which ``write_artifacts`` writes itself, have none. A row
# builder looks up the functions it calls when it runs, not when the table is
# built, so a wrapper bound to one of their names (a profiler's) is called.
ARTIFACTS: dict[str, tuple[tuple[str, ...], _Rows] | None] = {
    "report.txt": None,
    "report.csv": (("section", "metric", "value"), lambda result, figures: report_rows(result, figures)),
    "decisions.csv": (
        ("t_ms", "vehicle", "gap_ft", "dmin_ft", "verdict", "link", "latency_ms"),
        lambda result, _: (
            [str(d.t_recv), d.vehicle, fnum(m_to_ft(d.gap_m)), fnum(m_to_ft(d.d_min_m)),
             d.verdict.value, d.link_used.value, str(d.latency_ms)]
            for d in result.avoidance_decisions
        ),
    ),
    "queue_decisions.csv": (
        QUEUE_HEADER,
        lambda result, _: queue_rows((e.decision, e.truth) for e in result.queue_evals),
    ),
    "handoffs.csv": (
        ("t_ms", "vehicle", "from", "to"),
        lambda result, _: ([str(e.t), e.vehicle, e.from_link.value, e.to_link.value] for e in result.handoff_events),
    ),
    "coverage.csv": (
        ("rsu", "distance_m", "rssi_dbm", "p_loss"),
        lambda result, _: (
            [rsu, fnum(d), fnum(round(rssi, 3)), fnum(round(p_loss, 6))]
            for rsu, d, rssi, p_loss in coverage_rows(result.config)
        ),
    ),
    "archive.ndjson": None,
    "trace.ndjson": None,
}


def write_artifacts(result: RunResult, out_dir: Path) -> dict[str, Path]:
    """Write the full artifact set, every file of ``ARTIFACTS``; returns name -> path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {name: out_dir / name for name in ARTIFACTS}
    figures = compute_figures(result)
    with open_text(written["report.txt"]) as fh:
        fh.write(render_text_report(result, figures))
    for name, table in ARTIFACTS.items():
        if table is not None:
            header, rows = table
            write_csv(written[name], header, rows(result, figures))
    _write_backend_exports(result, written["archive.ndjson"], written["trace.ndjson"])
    return written
