"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one [PASS]/[FAIL] line per criterion (run with -s to see
them live; pytest -rA shows them afterwards)."""

import functools
import json
import math
import random
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

from cvsim.apps import Verdict
from cvsim.broker import Broker, BrokerMessage, matches
from cvsim.config import bundled_scenario_names, load_scenario
from cvsim.core import distance, ft_to_m, m_to_ft, min_safety_distance, mph_to_mps, round_half_away
from cvsim.radio import Delivered, LinkKind, LinkModel, loss_probability, sample_delivery
from cvsim.replay import parse_trace, replay_trace
from cvsim.report import compute_figures, write_artifacts
from cvsim.sim import SYSTEM_NODE_ID, run_scenario

from test_broker import reference_matches


def _criterion(n: int, description: str):
    def decorator(fn):
        @functools.wraps(fn)  # keep the signature visible for fixture injection
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {n}: {description}")
                raise
            print(f"[PASS] criterion {n}: {description}")

        return wrapper

    return decorator


# -- 1 ----------------------------------------------------------------------

@_criterion(1, "safety distances 38/118/240 ft at 20/35/50 mph, exact integers")
def test_criterion_1_safety_distance_reproduction():
    start = time.perf_counter()
    decel = ft_to_m(11.2)
    results = {
        mph: round_half_away(m_to_ft(min_safety_distance(mph_to_mps(mph), decel)))
        for mph in (20, 35, 50)
    }
    assert results == {20: 38, 35: 118, 50: 240}
    assert time.perf_counter() - start < 1.0


# -- 2 ----------------------------------------------------------------------

@_criterion(2, "collision-avoidance suite: SAFE verdicts, exact tier latencies, latency flags")
def test_criterion_2_collision_avoidance_suite(scenario_runs):
    expected = {
        "collision_avoidance_20mph": (88, 2590),
        "collision_avoidance_35mph": (102, 2810),
        "collision_avoidance_50mph": (125, 3000),
    }
    for name, (dsrc_ms, lte_ms) in expected.items():
        start = time.perf_counter()
        result = scenario_runs(name)
        assert time.perf_counter() - start < 5.0
        by_vehicle = {d.vehicle: d for d in result.avoidance_decisions}
        cv2, cv3 = by_vehicle["cv2"], by_vehicle["cv3"]
        assert cv2.verdict is Verdict.SAFE and cv3.verdict is Verdict.SAFE
        assert cv2.link_used is LinkKind.DSRC and cv2.latency_ms == dsrc_ms
        assert cv3.link_used is LinkKind.LTE and cv3.latency_ms == lte_ms
        assert cv2.within_safety_latency
        assert not cv3.within_safety_latency


# -- 3 ----------------------------------------------------------------------

@_criterion(3, "pipeline delays: 4 ms telemetry hop, 6 ms queue-status backhaul, exact")
def test_criterion_3_data_exchange_delays(scenario_runs):
    result = scenario_runs("queue_full_penetration")
    bsm_hops = [
        p.latency_ms for p in result.packets
        if p.link is LinkKind.DSRC and p.kind == "bsm" and p.delivered
    ]
    status_hops = [
        p.latency_ms for p in result.packets
        if p.link is LinkKind.WIFI and p.kind == "queue_status" and p.delivered
    ]
    assert bsm_hops and status_hops
    assert set(bsm_hops) == {4}
    assert set(status_hops) == {6}
    assert sum(bsm_hops) / len(bsm_hops) == 4.0
    assert sum(status_hops) / len(status_hops) == 6.0


# -- 4 ----------------------------------------------------------------------

@_criterion(4, "full-penetration queue: 167 evaluations, onset within 1 s, accuracy 1.0")
def test_criterion_4_queue_full_penetration(scenario_runs):
    result = scenario_runs("queue_full_penetration")
    assert len(result.queue_evals) == 167
    det_onset = next(e.decision.t for e in result.queue_evals if e.decision.queued)
    truth_onset = next(e.decision.t for e in result.queue_evals if e.truth)
    assert abs(det_onset - truth_onset) <= 1000
    assert result.queue_accuracy() == 1.0


# -- 5 ----------------------------------------------------------------------

def _oracle_accuracy_from_trace(path: Path) -> float:
    """Brute-force recount, written independently of the detector pipeline:
    plain dict grouping, sum/len means, latitude ordering (the corridor runs
    due north), and an atan2-form haversine."""
    speed_thr = mph_to_mps(5.0)
    gap_thr = ft_to_m(20.0)

    def hav(a, b):
        phi1, phi2 = math.radians(a[0]), math.radians(b[0])
        dphi = phi2 - phi1
        dlam = math.radians(b[1] - a[1])
        h = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
        return 6_371_000.0 * 2 * math.atan2(math.sqrt(h), math.sqrt(1 - h))

    buckets = defaultdict(list)
    for line in path.read_text().splitlines():
        doc = json.loads(line)
        buckets[(doc["t"] + 999) // 1000].append(doc)
    matches_n = 0
    total = 0
    for k in range(1, max(buckets) + 1):
        docs = buckets.get(k, [])
        per_vehicle = defaultdict(list)
        for doc in docs:
            per_vehicle[doc["vehicle_id"]].append(doc)
        if len(per_vehicle) >= 2:
            means = [sum(d["speed"] for d in ds) / len(ds) for ds in per_vehicle.values()]
            latest = [max(ds, key=lambda d: d["t"]) for ds in per_vehicle.values()]
            pts = sorted((d["lat"], d["lon"]) for d in latest)
            gaps = [hav(a, b) for a, b in zip(pts, pts[1:])]
            queued = (
                sum(means) / len(means) < speed_thr and sum(gaps) / len(gaps) < gap_thr
            )
        else:
            queued = False
        truths = [d["truth"] for d in docs if "truth" in d]
        assert truths, f"second {k} carries no ground truth"
        total += 1
        matches_n += queued == truths[-1]
    return matches_n / total


@_criterion(5, "mixed-penetration queue: 0 < accuracy < 1, all mismatches gap-caused FNs, oracle-exact")
def test_criterion_5_queue_mixed_penetration(scenario_runs, tmp_path):
    result = scenario_runs("queue_mixed_penetration")
    config = result.config
    acc = result.queue_accuracy()
    assert 0.0 < acc < 1.0
    mismatches = [e for e in result.queue_evals if e.decision.queued != e.truth]
    assert mismatches
    for e in mismatches:
        assert e.truth and not e.decision.queued, "mismatch must be a false negative"
        d = e.decision
        assert d.n_cvs >= 2
        assert d.avg_speed_mps < config.constants.queue_speed_threshold_mps
        assert d.avg_gap_m >= config.constants.queue_gap_threshold_m, "cause must be the gap"
    trace_path = write_artifacts(result, tmp_path)["trace.ndjson"]
    assert _oracle_accuracy_from_trace(trace_path) == acc


# -- 6 ----------------------------------------------------------------------

@_criterion(6, "handoff: 2 events per pass, DSRC discipline, Wi-Fi gaps 25 s / 28 s")
def test_criterion_6_handoff_correctness(scenario_runs, tmp_path):
    result = scenario_runs("rsu_coverage_pass")
    transitions = [(e.from_link, e.to_link) for e in result.handoff_events]
    assert transitions == [(LinkKind.LTE, LinkKind.DSRC), (LinkKind.DSRC, LinkKind.LTE)]

    config = result.config
    corridor = config.corridor
    rsu_pos = corridor.position_geo(corridor.rsus[0].s_m)
    speed = config.vehicles[0].speed_mps
    r_eff = config.links[LinkKind.DSRC].range_m

    def in_coverage(t_send: int) -> bool:
        pos = corridor.position_geo(speed * t_send / 1000.0)
        return distance(rsu_pos, pos) <= r_eff

    exit_ms = (corridor.rsus[0].s_m + r_eff) / speed * 1000.0
    lag_ms = config.handoff.timeout_ms
    for p in result.packets:
        if p.link is not LinkKind.DSRC or p.kind != "bsm":
            continue
        if p.delivered:
            assert in_coverage(p.t_send), "delivered beyond effective range"
        elif not in_coverage(p.t_send):
            assert p.t_send <= exit_ms + lag_ms, "sent on DSRC past the detection lag"

    for name, gap_ms in (("wifi_lte_handoff_udp", 25_000), ("wifi_lte_handoff_tcp", 28_000)):
        res = scenario_runs(name)
        archive = write_artifacts(res, tmp_path / name)["archive.ndjson"]
        records = map(json.loads, archive.read_text(encoding="utf-8").splitlines())
        arrivals = sorted(r["t"] for r in records if matches("bsm/raw/#", r["topic"]))
        largest = max(b - a for a, b in zip(arrivals, arrivals[1:]))
        period = res.config.constants.bsm_interval_ms
        assert gap_ms - period <= largest <= gap_ms + period


# -- 7 ----------------------------------------------------------------------

@_criterion(7, "broker: 10k matcher pairs vs reference, FIFO + exactly-once over 1000+ interleavings")
def test_criterion_7_broker_property_suite():
    rng = random.Random(0xB20CE2)
    alphabet = ("a", "b", "c", "d", "e1")

    def rand_topic():
        return "/".join(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))

    def rand_filter():
        parts = [rng.choice(alphabet + ("+",)) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:
            parts.append("#")
        return "/".join(parts)

    for _ in range(10_000):
        pattern, topic = rand_filter(), rand_topic()
        assert matches(pattern, topic) == reference_matches(pattern, topic), (pattern, topic)

    for case in range(1_000):
        broker = Broker()
        log = []
        client_filters = defaultdict(set)
        published = []
        n_ops = rng.randint(3, 25)
        sub_ids = []
        for _ in range(n_ops):
            op = rng.random()
            if op < 0.4 or not published:
                client = f"c{rng.randint(1, 3)}"
                pattern = rand_filter()
                sid = broker.subscribe(
                    client, pattern, lambda m, c=client: log.append((c, m.payload["i"]))
                )
                sub_ids.append(sid)
                client_filters[client].add(pattern)
            elif op < 0.5 and sub_ids:
                sid = sub_ids.pop(rng.randrange(len(sub_ids)))
                try:
                    broker.unsubscribe(sid)
                except KeyError:
                    pass
            else:
                i = len(published)
                topic = rand_topic()
                published.append(topic)
                broker.publish(BrokerMessage(topic=topic, payload={"i": i}, publisher="p", t_pub=i))
        # exactly-once per subscriber
        assert len(log) == len(set(log)), f"duplicate delivery in case {case}"
        # per-publisher FIFO: each client's observed indices are increasing
        per_client = defaultdict(list)
        for client, i in log:
            per_client[client].append(i)
        for seq in per_client.values():
            assert seq == sorted(seq), f"out-of-order delivery in case {case}"


# -- 8 ----------------------------------------------------------------------

@_criterion(8, "radio statistics: empirical loss within 1 pp, obstruction kill, 300 m hard limit")
def test_criterion_8_radio_statistics():
    model = LinkModel(kind=LinkKind.DSRC, range_m=300.0, latency_mean_ms=4,
                      p_near=0.1, ramp_start_frac=0.8)
    rng = random.Random(314159)
    n = 10_000
    for d in (50.0, 200.0, 255.0, 285.0):
        expected = loss_probability(d, model)
        lost = sum(1 for _ in range(n) if not isinstance(sample_delivery(d, model, rng), Delivered))
        assert abs(lost / n - expected) <= 0.01, f"at d={d}"
    for d in (0.5, 10.0, 150.0, 299.0):
        for _ in range(200):
            assert not isinstance(sample_delivery(d, replace(model, obstruction=1.0), rng), Delivered)
    for _ in range(2_000):
        d = 300.0 + rng.random() * 5_000.0
        assert not isinstance(sample_delivery(d, model, rng), Delivered)


# -- 9 ----------------------------------------------------------------------

@_criterion(9, "determinism: byte-identical artifacts, replay reproduces live decisions")
def test_criterion_9_determinism(tmp_path):
    dirs = []
    for tag in ("a", "b"):
        config = load_scenario("queue_mixed_penetration")
        result = run_scenario(config)
        out = tmp_path / tag
        write_artifacts(result, out)
        dirs.append(out)
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name

    config = load_scenario("queue_mixed_penetration")
    live = run_scenario(config)
    trace_path = write_artifacts(live, tmp_path / "live")["trace.ndjson"]
    replay = replay_trace(parse_trace(trace_path), constants=config.constants,
                          corridor=config.corridor)
    live_rows = [
        (e.decision.t, e.decision.queued, e.decision.n_cvs,
         e.decision.avg_speed_mps, e.decision.avg_gap_m)
        for e in live.queue_evals
    ]
    replay_rows = [
        (d.t, d.queued, d.n_cvs, d.avg_speed_mps, d.avg_gap_m) for d in replay.decisions
    ]
    assert replay_rows == live_rows


# -- 10 ---------------------------------------------------------------------

@_criterion(10, "archive conservation: backend count = 10 x coverage-seconds x vehicles (+/- 1 each)")
def test_criterion_10_archive_conservation(scenario_runs):
    result = scenario_runs("queue_full_penetration")
    n_vehicles = len(result.config.vehicles)
    coverage_s = result.summary.end_time_ms // 1000  # every spawn sits inside coverage throughout
    expected = 10 * coverage_s * n_vehicles
    count = result.archives[SYSTEM_NODE_ID].count("bsm/raw/#")
    assert abs(count - expected) <= n_vehicles


# -- the paper's figures at every seed ----------------------------------------

SEEDS = range(1, 11)


def paper_figures(result):
    """What the paper reports of a run: each avoidance decision, both exchange delays, queue accuracy, handoffs."""
    decisions = [
        (d.vehicle, d.link_used, round_half_away(m_to_ft(d.d_min_m)), d.latency_ms, d.verdict)
        for d in result.avoidance_decisions
    ]
    return decisions, compute_figures(result).delays, result.queue_accuracy(), len(result.handoff_events)


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_paper_figures_hold_at_every_seed(name, scenario_runs):
    """The seed moves loss and jitter draws, and nothing the paper reports."""
    config = load_scenario(name)
    expected = paper_figures(scenario_runs(name))
    for seed in SEEDS:
        assert paper_figures(run_scenario(replace(config, seed=seed))) == expected, f"{name} at seed {seed}"
