"""Metric aggregation and artifact rendering.

``compute_figures`` derives each reported figure once per run; ``report.csv``
(``report_rows``) and ``report.txt`` (``render_text_report``) both render that
one computation, the text from the unrounded values. All files are UTF-8 with
LF endings and contain nothing run-dependent beyond the simulation itself (no
wall-clock timestamps), so a scenario re-run with the same seed writes
byte-identical artifacts.

A send counts as delivered only when it arrived by the end of the run; one
still on its way then is ``in_flight``, so a delivered count is what the
receivers got. ``archive.ndjson`` and ``trace.ndjson`` are written in one
pass over the backend's records, each payload encoded once for both lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .apps import QueueDecision, accuracy, eval_bucket
from .archive import Record, canonical_json, record_line, spliced_line
from .core import m_to_ft, mps_to_mph, round_half_away
from .config import BSM_RAW_PATTERN, QUEUE_STATUS_PATTERN, SYSTEM_NODE_ID, ScenarioConfig
from .radio import LinkKind, loss_probability, rssi_dbm
from .sim import PacketRecord, RunResult

EXCHANGE_ROWS = (
    ("mobile_fixed", "Mobile Edge (CV) - Fixed Edge", LinkKind.DSRC, "bsm", "Basic safety messages"),
    ("system_fixed", "System Edge - Fixed Edge", LinkKind.WIFI, "queue_status", "Queue detection information"),
)


def fnum(x: float | int | None) -> str:
    """Stable scalar rendering for CSV cells (repr floats, empty for missing)."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


@dataclass(frozen=True)
class LinkStats:
    link: LinkKind
    sent: int
    delivered: int
    in_flight: int
    lost: int
    loss_pct: float | None
    avg_latency_ms: float | None
    max_latency_ms: int | None


def _arrived_latencies(packets: Iterable[PacketRecord], end_ms: int) -> list[int]:
    """The latencies of the sends that arrived by ``end_ms``; a later delivery is still in flight."""
    return [p.t_recv - p.t_send for p in packets if p.t_recv is not None and p.t_recv <= end_ms]


def link_stats(result: RunResult) -> list[LinkStats]:
    """Per link kind with traffic: sends split into delivered, in flight and lost, and delivered latency.

    ``delivered + in_flight + lost == sent``, and the latencies are those of
    the delivered sends. Out-of-range sends are counted, not logged: each
    link's ``result.out_of_range`` counts add to its sent and lost.
    """
    stats = []
    for link in LinkKind:
        pkts = [p for p in result.packets if p.link is link]
        sent = len(pkts) + sum(n for (on, _), n in result.out_of_range.items() if on is link)
        if not sent:
            continue
        latencies = _arrived_latencies(pkts, result.summary.end_time_ms)
        in_flight = sum(1 for p in pkts if p.delivered) - len(latencies)
        lost = sent - len(latencies) - in_flight
        stats.append(
            LinkStats(
                link=link,
                sent=sent,
                delivered=len(latencies),
                in_flight=in_flight,
                lost=lost,
                loss_pct=100.0 * lost / sent,
                avg_latency_ms=sum(latencies) / len(latencies) if latencies else None,
                max_latency_ms=max(latencies) if latencies else None,
            )
        )
    return stats


def exchange_delays(result: RunResult) -> dict[str, float | None]:
    """The mean latency of each ``EXCHANGE_ROWS`` exchange, over its sends delivered by the end."""
    out: dict[str, float | None] = {}
    for key, _, link, kind, _ in EXCHANGE_ROWS:
        sends = (p for p in result.packets if p.link is link and p.kind == kind)
        latencies = _arrived_latencies(sends, result.summary.end_time_ms)
        out[key] = sum(latencies) / len(latencies) if latencies else None
    return out


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

    links: list[LinkStats]
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
    return ReportFigures(link_stats(result), exchange_delays(result), queues, archives)


def write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_decisions_csv(result: RunResult, path: Path) -> None:
    rows = []
    for d in result.avoidance_decisions:
        rows.append(
            [
                str(d.t_recv),
                d.vehicle,
                fnum(m_to_ft(d.gap_m)),
                fnum(m_to_ft(d.d_min_m)),
                d.verdict.value,
                d.link_used.value,
                str(d.latency_ms),
            ]
        )
    write_csv(path, ["t_ms", "vehicle", "gap_ft", "dmin_ft", "verdict", "link", "latency_ms"], rows)


def write_queue_csv(pairs: Iterable[tuple[QueueDecision, bool | None]], path: Path) -> None:
    """One row per (decision, ground truth) pair; an unknown truth is an empty cell."""
    rows = [
        [
            str(d.t),
            d.rsu,
            fnum(None if d.avg_speed_mps is None else mps_to_mph(d.avg_speed_mps)),
            fnum(None if d.avg_gap_m is None else m_to_ft(d.avg_gap_m)),
            fnum(d.queued),
            fnum(truth),
        ]
        for d, truth in pairs
    ]
    write_csv(path, ["t_ms", "rsu", "avg_speed_mph", "avg_gap_ft", "queued", "truth"], rows)


def write_queue_decisions_csv(result: RunResult, path: Path) -> None:
    write_queue_csv(((e.decision, e.truth) for e in result.queue_evals), path)


def write_handoffs_csv(result: RunResult, path: Path) -> None:
    rows = [
        [str(e.t), e.vehicle, e.from_link.value, e.to_link.value] for e in result.handoff_events
    ]
    write_csv(path, ["t_ms", "vehicle", "from", "to"], rows)


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
        d = 0.0
        while d <= reach:
            rows.append((spec.rsu_id, d, rssi_dbm(d), loss_probability(d, model, spec.obstruction)))
            d += 10.0
    return rows


def write_coverage_csv(result: RunResult, path: Path) -> None:
    rows = [
        [rsu, fnum(d), fnum(round(rssi, 3)), fnum(round(p_loss, 6))]
        for rsu, d, rssi, p_loss in coverage_rows(result.config)
    ]
    write_csv(path, ["rsu", "distance_m", "rssi_dbm", "p_loss"], rows)


_TRUTH_JSON = {truth: canonical_json(truth) for truth in (False, True)}


@dataclass(frozen=True)
class _BsmTrace:
    """Which backend records the BSM trace holds, and the line each one gets."""

    topics: set[str]  # the backend's bsm/raw topics
    end_ms: int
    truth_at: dict[int, tuple[bool, str]]  # eval bucket -> the live truth and its JSON

    @classmethod
    def of(cls, result: RunResult) -> _BsmTrace:
        truth_at: dict[int, tuple[bool, str]] = {}
        for e in result.queue_evals:
            if e.decision.t not in truth_at:
                truth_at[e.decision.t] = (e.truth, _TRUTH_JSON[e.truth])
        topics = result.archives[SYSTEM_NODE_ID].topics(BSM_RAW_PATTERN)
        return cls(topics, result.summary.end_time_ms, truth_at)

    def holds(self, record: Record) -> bool:
        return record.topic in self.topics and 0 <= record.t <= self.end_ms

    def line(self, record: Record, payload_json: str) -> str:
        truth = self.truth_at.get(eval_bucket(int(record.payload["t"])))
        if truth is None:
            return payload_json + "\n"
        return spliced_line(record.payload, payload_json, "truth", *truth)


def write_bsm_trace(result: RunResult, path: Path) -> int:
    """Export the backend's telemetry stream for offline replay; returns the line count.

    One line per backend ``bsm/raw`` record up to the end of the run, in
    (t, seq) order: the message's payload, plus ``truth``, the live ground
    truth of the one-second evaluation its timestamp falls into (omitted when
    the run had no detector or the bucket was never evaluated). The payload
    is encoded once and ``truth`` spliced into it (``archive.spliced_line``);
    ``write_artifacts`` writes the same lines in its one pass.
    """
    trace = _BsmTrace.of(result)
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in result.archives[SYSTEM_NODE_ID]:
            if trace.holds(record):
                fh.write(trace.line(record, canonical_json(record.payload)))
                n += 1
    return n


def _write_backend_exports(result: RunResult, archive_path: Path, trace_path: Path) -> None:
    """``archive.ndjson`` and ``trace.ndjson`` in one pass, each backend payload encoded once."""
    trace = _BsmTrace.of(result)
    with (
        open(archive_path, "w", encoding="utf-8", newline="\n") as archive_fh,
        open(trace_path, "w", encoding="utf-8", newline="\n") as trace_fh,
    ):
        for record in result.archives[SYSTEM_NODE_ID]:
            payload_json = canonical_json(record.payload)
            archive_fh.write(record_line(record, payload_json))
            if trace.holds(record):
                trace_fh.write(trace.line(record, payload_json))


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


def write_artifacts(result: RunResult, out_dir: Path, fmt: str = "both") -> dict[str, Path]:
    """Write the full artifact set; returns name -> path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    figures = compute_figures(result)
    if fmt in ("text", "both"):
        path = out_dir / "report.txt"
        path.write_text(render_text_report(result, figures), encoding="utf-8")
        written["report.txt"] = path
    if fmt in ("csv", "both"):
        path = out_dir / "report.csv"
        rows = [[s, m, v] for s, m, v in report_rows(result, figures)]
        write_csv(path, ["section", "metric", "value"], rows)
        written["report.csv"] = path
    pairs = [
        ("decisions.csv", write_decisions_csv),
        ("queue_decisions.csv", write_queue_decisions_csv),
        ("handoffs.csv", write_handoffs_csv),
        ("coverage.csv", write_coverage_csv),
    ]
    for name, writer in pairs:
        path = out_dir / name
        writer(result, path)
        written[name] = path
    written["archive.ndjson"] = out_dir / "archive.ndjson"
    written["trace.ndjson"] = out_dir / "trace.ndjson"
    _write_backend_exports(result, written["archive.ndjson"], written["trace.ndjson"])
    return written
