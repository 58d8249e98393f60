import importlib.resources
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from cvsim.config import MAX_SPEED_MPS, ConfigError, bundled_scenario_names, load_scenario, parse_scenario
from cvsim.core import ft_to_m, m_to_ft, min_safety_distance, mph_to_mps
from cvsim.engine import SimulationAborted
from cvsim.mobility import OvertakeError
from cvsim.radio import LinkKind
from cvsim.sim import run_scenario

MINIMAL = """\
name: tiny
t_end_s: 5.0
corridor:
  polyline:
    - [40.0, -75.0]
    - [40.005, -75.0]
vehicles:
  - id: cv1
    s_m: 10.0
    speed_mph: 20.0
"""


def test_minimal_scenario_parses_with_defaults():
    cfg = parse_scenario(MINIMAL)
    assert cfg.name == "tiny"
    assert cfg.t_end_ms == 5000
    assert cfg.seed == 0
    assert cfg.links[LinkKind.DSRC].range_m == 300.0
    assert cfg.links[LinkKind.DSRC].latency_mean_ms == 4
    assert cfg.vehicles[0].speed_mps == pytest.approx(mph_to_mps(20.0))
    assert cfg.detection.enabled is False  # no RSUs
    assert cfg.handoff.miss_threshold == 3


def test_unknown_key_rejected_with_line_and_hint():
    text = MINIMAL.replace("t_end_s: 5.0", "t_end_s: 5.0\nseeed: 3")
    with pytest.raises(ConfigError) as err:
        parse_scenario(text, source="case.yaml")
    message = str(err.value)
    assert "case.yaml:3" in message
    assert "seeed" in message and "seed" in message  # did-you-mean hint


def test_unknown_nested_key_rejected():
    text = MINIMAL + "links:\n  dsrc:\n    latency_typo_ms: 4\n"
    with pytest.raises(ConfigError) as err:
        parse_scenario(text)
    assert "latency_typo_ms" in str(err.value)


def test_yaml_syntax_error_is_line_anchored():
    with pytest.raises(ConfigError) as err:
        parse_scenario("name: [unclosed\nt_end_s: 5", source="broken.yaml")
    assert "broken.yaml" in str(err.value)


def test_missing_required_keys():
    with pytest.raises(ConfigError) as err:
        parse_scenario("name: x\nt_end_s: 1\n")
    assert "corridor" in str(err.value)
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL.replace("t_end_s: 5.0\n", ""))


def test_vehicle_unit_exclusivity_and_conversion():
    text = MINIMAL.replace("s_m: 10.0", "s_ft: 100.0")
    cfg = parse_scenario(text)
    assert cfg.vehicles[0].s_m == pytest.approx(ft_to_m(100.0))
    bad = MINIMAL.replace("s_m: 10.0", "s_m: 10.0\n    s_ft: 32.8")
    with pytest.raises(ConfigError):
        parse_scenario(bad)


def test_vehicle_outside_corridor_rejected():
    with pytest.raises(ConfigError) as err:
        parse_scenario(MINIMAL.replace("s_m: 10.0", "s_m: 9999.0"))
    assert "outside the corridor" in str(err.value)


def test_duplicate_vehicle_id_rejected():
    text = MINIMAL + "  - id: cv1\n    s_m: 20.0\n    speed_mph: 20.0\n"
    with pytest.raises(ConfigError) as err:
        parse_scenario(text)
    assert "duplicate vehicle id" in str(err.value)


def test_script_validation():
    text = MINIMAL + "script:\n  - at_s: 1.0\n    action: hard_brake\n    vehicle: ghost\n"
    with pytest.raises(ConfigError) as err:
        parse_scenario(text)
    assert "ghost" in str(err.value)

    text = MINIMAL + "script:\n  - at_s: 1.0\n    action: dance\n"
    with pytest.raises(ConfigError) as err:
        parse_scenario(text)
    assert "dance" in str(err.value)


def test_constants_overrides_convert_units():
    text = MINIMAL + "constants:\n  queue_speed_threshold_mph: 10.0\n  decel_fps2: 5.6\n"
    cfg = parse_scenario(text)
    assert cfg.constants.queue_speed_threshold_mps == pytest.approx(mph_to_mps(10.0))
    assert cfg.constants.decel_mps2 == pytest.approx(ft_to_m(5.6))


def test_link_overrides_apply():
    text = MINIMAL + "links:\n  dsrc:\n    latency_mean_ms: 9\n    p_near: 0.25\n"
    cfg = parse_scenario(text)
    assert cfg.links[LinkKind.DSRC].latency_mean_ms == 9
    assert cfg.links[LinkKind.DSRC].p_near == 0.25
    # untouched kinds keep defaults
    assert cfg.links[LinkKind.WIFI].latency_mean_ms == 6


def test_speed_tier_selects_warning_latencies():
    text = MINIMAL + "speed_tier_mph: 35\n"
    cfg = parse_scenario(text)
    assert cfg.links[LinkKind.DSRC].warning_latency_mean_ms == 102
    assert cfg.links[LinkKind.LTE].warning_latency_mean_ms == 2810
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL + "speed_tier_mph: 45\n")


def test_detection_requires_rsus():
    text = MINIMAL + "detection:\n  enabled: true\n"
    with pytest.raises(ConfigError) as err:
        parse_scenario(text)
    assert "no RSUs" in str(err.value)


def test_empty_and_non_mapping_configs():
    with pytest.raises(ConfigError):
        parse_scenario("")
    with pytest.raises(ConfigError):
        parse_scenario("- a\n- b\n")


def test_bundled_scenarios_all_parse():
    names = bundled_scenario_names()
    assert {
        "collision_avoidance_20mph",
        "collision_avoidance_35mph",
        "collision_avoidance_50mph",
        "queue_full_penetration",
        "queue_mixed_penetration",
        "rsu_coverage_pass",
        "wifi_lte_handoff_udp",
        "wifi_lte_handoff_tcp",
        "corridor_coverage",
    } <= set(names)
    for name in names:
        cfg = load_scenario(name)
        assert cfg.t_end_ms > 0


def test_load_scenario_unknown_name():
    with pytest.raises(ConfigError) as err:
        load_scenario("no_such_scenario")
    assert "bundled" in str(err.value)


@pytest.mark.parametrize("value", [".inf", ".nan"])
def test_non_finite_t_end_rejected_with_line(value):
    with pytest.raises(ConfigError) as err:
        parse_scenario(MINIMAL.replace("t_end_s: 5.0", f"t_end_s: {value}"), source="case.yaml")
    assert "case.yaml:2" in str(err.value) and "t_end_s" in str(err.value)


def test_sub_millisecond_bsm_interval_rejected_with_line():
    text = MINIMAL + "constants:\n  bsm_interval_s: 0.0001\n"
    with pytest.raises(ConfigError) as err:
        parse_scenario(text, source="case.yaml")
    assert "case.yaml:12" in str(err.value) and "bsm_interval_s" in str(err.value)


# Every duration and speed key set to a valid value, one per line.
BOUNDARY_BASE = """\
name: tiny
t_end_s: 5.0
corridor:
  polyline:
    - [40.0, -75.0]
    - [40.005, -75.0]
  signals:
    - {id: sig1, s_m: 100.0}
handoff:
  association_delay_s: 0.0
links:
  dsrc:
    p_near: 0.0
archive:
  fixed_edge_retention_s: 60.0
vehicles:
  - id: cv1
    s_m: 10.0
    speed_mph: 20.0
    spawn_t_s: 0.0
script:
  - at_s: 1.0
    action: signal_red
    signal: sig1
    duration_s: 2.0
"""


def test_boundary_base_parses():
    parse_scenario(BOUNDARY_BASE)


@pytest.mark.parametrize(
    "old,new,line,key",
    [
        ("t_end_s: 5.0", "t_end_s: 0.0001", 2, "t_end_s"),
        ("association_delay_s: 0.0", "association_delay_s: .inf", 10, "association_delay_s"),
        ("p_near: 0.0", "p_near: .nan", 12, "p_near"),
        ("fixed_edge_retention_s: 60.0", "fixed_edge_retention_s: 0.0001", 15, "fixed_edge_retention_s"),
        ("speed_mph: 20.0", "speed_mph: .nan", 19, "speed_mph"),
        ("speed_mph: 20.0", "speed_mph: .inf", 19, "speed_mph"),
        ("speed_mph: 20.0", "speed_mps: .nan", 19, "speed_mps"),
        ("speed_mph: 20.0", "speed_mps: .inf", 19, "speed_mps"),
        ("speed_mph: 20.0", "speed_mph: 1.0e+12", 19, "speed_mph"),
        ("speed_mph: 20.0", "speed_mps: 100.001", 19, "speed_mps"),
        ("spawn_t_s: 0.0", "spawn_t_s: .inf", 20, "spawn_t_s"),
        ("spawn_t_s: 0.0", "spawn_t_s: .nan", 20, "spawn_t_s"),
        ("spawn_t_s: 0.0", "spawn_t_s: -0.0001", 20, "spawn_t_s"),
        ("at_s: 1.0", "at_s: .nan", 22, "at_s"),
        ("duration_s: 2.0", "duration_s: .inf", 25, "duration_s"),
        ("duration_s: 2.0", "duration_s: 0.0001", 25, "duration_s"),
    ],
)
def test_out_of_range_values_rejected_with_line(old, new, line, key):
    with pytest.raises(ConfigError) as err:
        parse_scenario(BOUNDARY_BASE.replace(old, new), source="case.yaml")
    assert f"case.yaml:{line}" in str(err.value) and key in str(err.value)


def test_speed_at_the_ceiling_parses():
    cfg = parse_scenario(BOUNDARY_BASE.replace("speed_mph: 20.0", f"speed_mps: {MAX_SPEED_MPS}"))
    assert cfg.vehicles[0].speed_mps == MAX_SPEED_MPS


RSU_BASE = MINIMAL.replace("    - [40.005, -75.0]\n", "    - [40.005, -75.0]\n  rsus:\n    - {id: rsu1, s_m: 100.0}\n")


@pytest.mark.parametrize(
    "extra,message",
    [
        ("    - {id: rsu1, s_m: 300.0}\n", "duplicate RSU id 'rsu1'"),
        ("    - {id: system, s_m: 300.0}\n", "RSU id 'system' is reserved"),
        ("    - id: system\n      s_m: 300.0\n", "RSU id 'system' is reserved"),
    ],
)
def test_bad_rsu_id_rejected_at_its_line(extra, message):
    text = RSU_BASE.replace("{id: rsu1, s_m: 100.0}\n", "{id: rsu1, s_m: 100.0}\n" + extra)
    with pytest.raises(ConfigError) as err:
        parse_scenario(text, source="case.yaml")
    assert "case.yaml:9" in str(err.value) and message in str(err.value)


def test_distinct_rsu_ids_parse():
    cfg = parse_scenario(RSU_BASE.replace("s_m: 100.0}\n", "s_m: 100.0}\n    - {id: rsu2, s_m: 300.0}\n"))
    assert [r.rsu_id for r in cfg.corridor.rsus] == ["rsu1", "rsu2"]


# -- YAML quoting, tags and topic-safe names ----------------------------------


@pytest.mark.parametrize("quoted", ['"42"', '"null"', "'yes'", '"a: b"', '"1.5"'])
def test_quoted_scalar_stays_a_string(quoted):
    cfg = parse_scenario(MINIMAL.replace("id: cv1", f"id: {quoted}"))
    assert cfg.vehicles[0].vehicle_id == quoted[1:-1]


@pytest.mark.parametrize(
    "old,new,line,message",
    [
        ("id: cv1", "id: !foo cv1", 9, "cannot read 'cv1' as !foo"),
        ("seed: 0", "seed: !!int abc", 2, "cannot read 'abc' as !!int"),
        ("seed: 0", "seed: 2020-13-45", 2, "cannot read '2020-13-45' as !!timestamp"),
    ],
)
def test_unreadable_scalar_rejected_with_line(old, new, line, message):
    text = MINIMAL.replace("t_end_s: 5.0", "seed: 0\nt_end_s: 5.0")
    with pytest.raises(ConfigError) as err:
        parse_scenario(text.replace(old, new), source="case.yaml")
    assert f"case.yaml:{line}" in str(err.value) and message in str(err.value)


@pytest.mark.parametrize(
    "polyline",
    ["&p [[40.0, -75.0], *p]", "&p {a: *p}", pytest.param("[" * 3000 + "]" * 3000, id="3000-deep")],
)
def test_cyclic_alias_or_deep_nesting_rejected(polyline):
    text = MINIMAL.replace("  polyline:\n    - [40.0, -75.0]\n    - [40.005, -75.0]\n", f"  polyline: {polyline}\n")
    with pytest.raises(ConfigError) as err:
        parse_scenario(text, source="case.yaml")
    assert "nested too deeply, or an alias refers to a collection that contains it" in str(err.value)


@pytest.mark.parametrize(
    "value", ['"a+b"', '"#"', "a//b", "x/", "/x", "a/+/b", pytest.param("v" * 250, id="250-bytes")]
)
@pytest.mark.parametrize(
    "key,old,line",
    [
        ("id", "id: cv1", 10),
        ("region", "t_end_s: 5.0", 3),
        ("id", "id: rsu1", 8),
    ],
)
def test_name_that_cannot_form_a_topic_rejected_with_line(key, old, line, value):
    new = f"{old}\nregion: {value}" if key == "region" else f"id: {value}"
    with pytest.raises(ConfigError) as err:
        parse_scenario(RSU_BASE.replace(old, new), source="case.yaml")
    assert f"case.yaml:{line}" in str(err.value) and "cannot form a topic" in str(err.value)


def test_vehicle_id_and_region_with_slashes_run():
    cfg = parse_scenario(MINIMAL.replace("id: cv1", "id: a/b") + "region: north/east\n")
    assert cfg.vehicles[0].vehicle_id == "a/b" and cfg.region == "north/east"
    assert run_scenario(cfg).archives["system"].count("bsm/raw/a/b") > 0


# -- hypothesis property: the parser's boundary -------------------------------

# YAML spellings that PyYAML resolves to floats/ints: nan, inf, -inf, -1, 0, 1e-9, a
# subnormal 1e-320, 1e12; then a quoted number, which is a string, and a boolean.
BOUNDARY_VALUES = (".nan", ".inf", "-.inf", "-1", "0", "1.0e-9", "1.0e-320", "1.0e+12", '"40.0"', "true")
# Names that no topic can hold, and the backend's reserved id. Each base's own
# names are drawn too, so a name can also take a sibling's id.
NAME_KEYS = {"id", "vehicle", "signal", "region"}
NAME_VALUES = ('"a+b"', '"#"', '"a//b"', '"x/"', "system")
# Long enough for every bundled topic to be published: the first detector tick
# at 1 s and the README example's script spawn at 3 s.
RUN_MS = 4000


def mutable_spans(text):
    """(start, end, kind) of every int or float scalar ("number") and every name scalar ("name")."""
    spans, stack = [], [(None, yaml.compose(text))]
    while stack:
        key, node = stack.pop()
        if isinstance(node, yaml.MappingNode):
            stack += [(k.value, value) for k, value in node.value]
        elif isinstance(node, yaml.SequenceNode):
            stack += [(None, child) for child in node.value]
        elif node.tag in ("tag:yaml.org,2002:int", "tag:yaml.org,2002:float"):
            spans.append((node.start_mark.index, node.end_mark.index, "number"))
        elif key in NAME_KEYS:
            spans.append((node.start_mark.index, node.end_mark.index, "name"))
    return sorted(spans)


README = Path(__file__).resolve().parent.parent / "README.md"
README_BLOCKS = re.findall(r"```yaml\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
# Every link key of every link kind; a hard brake sends warnings over DSRC and LTE.
LINKS_BASE = """\
name: links
t_end_s: 4.0
corridor:
  polyline:
    - [40.0, -75.0]
    - [40.005, -75.0]
  rsus:
    - {id: rsu1, s_m: 100.0}
links:
  dsrc: {range_m: 300.0, latency_mean_ms: 4, latency_jitter_ms: 1, warning_latency_ms: 88, p_near: 0.1, ramp_start_frac: 0.8}
  lte: {latency_mean_ms: 50, latency_jitter_ms: 2, warning_latency_ms: 2590, p_near: 0.0}
  wifi: {range_m: 200.0, latency_mean_ms: 6, latency_jitter_ms: 0, warning_latency_ms: 30, p_near: 0.0, ramp_start_frac: 0.5}
vehicles:
  - {id: cv1, s_m: 120.0, speed_mph: 20.0}
  - {id: cv2, s_m: 60.0, speed_mph: 20.0}
  - {id: cv3, s_m: 0.0, speed_mph: 20.0}
script:
  - {at_s: 1.0, action: hard_brake, vehicle: cv1}
"""
BASE_TEXTS = {
    name: (importlib.resources.files("cvsim") / "scenarios" / f"{name}.yaml").read_text(encoding="utf-8")
    for name in bundled_scenario_names()
} | {"README": README_BLOCKS[0], "links": LINKS_BASE}
SPANS = {name: mutable_spans(text) for name, text in BASE_TEXTS.items()}


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(BASE_TEXTS)), data=st.data())
def test_mutated_bundled_scenario_parses_or_raises_config_error(name, data):
    """A bundled scenario, the README example or the links base with one number
    or name changed is rejected with a ConfigError, or runs its first seconds.

    A scenario that parses has numeric coordinates, latency means of at
    least 1 ms, finite constants and a braking distance from the top speed
    that is finite in feet. A run may abort only with the ``OvertakeError``
    of two vehicles that meet.
    """
    text = BASE_TEXTS[name]
    start, end, kind = data.draw(st.sampled_from(SPANS[name]))
    names = tuple(text[s:e] for s, e, k in SPANS[name] if k == "name")
    value = data.draw(st.sampled_from(BOUNDARY_VALUES if kind == "number" else NAME_VALUES + names))
    mutated = text[:start] + value + text[end:]
    try:
        cfg = parse_scenario(mutated, source=f"{name}.yaml")
    except ConfigError:
        return
    polyline = yaml.safe_load(mutated)["corridor"]["polyline"]
    assert all(type(x) in (int, float) for point in polyline for x in point), polyline
    for link in cfg.links.values():
        assert link.latency_mean_ms >= 1 and (link.warning_latency_mean_ms or 1) >= 1, link
    constants = cfg.constants
    assert all(math.isfinite(value) for value in vars(constants).values()), constants
    assert math.isfinite(m_to_ft(min_safety_distance(MAX_SPEED_MPS, constants.decel_mps2))), constants
    try:
        run_scenario(replace(cfg, t_end_ms=min(cfg.t_end_ms, RUN_MS)))
    except SimulationAborted as exc:
        assert isinstance(exc.cause, OvertakeError), exc


# -- one knob per setting, each checked by the dataclass that owns it ---------

def test_constants_dsrc_range_is_an_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_scenario(MINIMAL + "constants:\n  dsrc_range_m: 300.0\n", source="case.yaml")
    assert "case.yaml:12" in str(err.value) and "unknown key 'dsrc_range_m'" in str(err.value)


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
@pytest.mark.parametrize("key", ["follow_margin_m", "resume_hysteresis_m", "resume_accel_mps2"])
def test_non_finite_mobility_rejected_with_line(key, value):
    with pytest.raises(ConfigError) as err:
        parse_scenario(MINIMAL + f"mobility:\n  {key}: {value}\n", source="case.yaml")
    assert "case.yaml:11" in str(err.value) and key in str(err.value)


@pytest.mark.parametrize("kind", ["dsrc", "wifi"])
@pytest.mark.parametrize("value", [".nan", ".inf", "0.0"])
def test_bad_link_range_rejected_with_line(kind, value):
    with pytest.raises(ConfigError) as err:
        parse_scenario(MINIMAL + f"links:\n  {kind}:\n    range_m: {value}\n", source="case.yaml")
    assert "case.yaml:12" in str(err.value) and "range_m" in str(err.value)


@pytest.mark.parametrize("key,value", [("range_m", "300.0"), ("ramp_start_frac", "0.8")])
def test_lte_range_keys_rejected_with_line(key, value):
    """Every cellular send is made at distance 0, so neither key could ever act."""
    with pytest.raises(ConfigError) as err:
        parse_scenario(MINIMAL + f"links:\n  lte:\n    p_near: 0.1\n    {key}: {value}\n", source="case.yaml")
    assert "case.yaml:14" in str(err.value) and f"links.lte.{key} has no effect: cellular is unbounded" in str(err.value)


@pytest.mark.parametrize("kind", ["dsrc", "lte", "wifi"])
@pytest.mark.parametrize(
    "key,value,field",
    [
        ("latency_mean_ms", "0", "latency_mean_ms"),
        ("latency_mean_ms", "-3", "latency_mean_ms"),
        ("warning_latency_ms", "0", "warning_latency_mean_ms"),
        ("warning_latency_ms", "-500", "warning_latency_mean_ms"),
    ],
)
def test_latency_mean_below_one_ms_rejected_with_line(kind, key, value, field):
    with pytest.raises(ConfigError) as err:
        parse_scenario(MINIMAL + f"links:\n  {kind}:\n    {key}: {value}\n", source="case.yaml")
    assert "case.yaml:12" in str(err.value) and f"{field} must be at least 1 ms, got {value}" in str(err.value)


def test_one_millisecond_latency_means_parse():
    cfg = parse_scenario(MINIMAL + "links:\n  dsrc:\n    latency_mean_ms: 1\n    warning_latency_ms: 1\n")
    assert cfg.links[LinkKind.DSRC].latency_mean_ms == cfg.links[LinkKind.DSRC].warning_latency_mean_ms == 1


@pytest.mark.parametrize(
    "point,message",
    [
        ('["40.005", -75.0]', "polyline coordinates must be numbers, got ['40.005', -75.0]"),
        ("[40.005, '-75.0']", "polyline coordinates must be numbers, got [40.005, '-75.0']"),
        ("[true, -75.0]", "polyline coordinates must be numbers, got [True, -75.0]"),
        ("[40.005, null]", "polyline coordinates must be numbers, got [40.005, None]"),
        (f"[1{'0' * 400}, -75]", "bad polyline point: int too large to convert to float"),
        ("[95, -75]", "bad polyline point: latitude out of range"),
    ],
)
def test_polyline_coordinate_that_is_not_a_number_rejected_at_its_entry(point, message):
    text = MINIMAL.replace("    - [40.005, -75.0]\n", f"    - {point}\n")
    with pytest.raises(ConfigError) as err:
        parse_scenario(text, source="case.yaml")
    assert "case.yaml:6" in str(err.value) and message in str(err.value)


def test_integer_polyline_coordinates_parse():
    cfg = parse_scenario(MINIMAL.replace("[40.0, -75.0]", "[40, -75]"))
    assert cfg.corridor.polyline[0].lat == 40.0 and cfg.corridor.polyline[0].lon == -75.0


def test_integer_too_large_for_a_float_rejected_at_its_line():
    with pytest.raises(ConfigError) as err:
        parse_scenario(MINIMAL.replace("s_m: 10.0", f"s_m: 1{'0' * 400}"), source="case.yaml")
    assert "case.yaml:9" in str(err.value) and "'s_m' must be float, got an integer too large for one" in str(err.value)


def test_link_range_override_applies_once_and_only_to_its_kind():
    cfg = parse_scenario(MINIMAL + "links:\n  wifi:\n    range_m: 50.0\n")
    assert cfg.links[LinkKind.WIFI].range_m == 50.0
    assert cfg.links[LinkKind.DSRC].range_m == 300.0
    assert cfg.links[LinkKind.LTE].range_m is None


def test_absent_keys_keep_dataclass_defaults():
    text = MINIMAL + "handoff:\n  miss_threshold: 5\nmobility:\n  follow_margin_m: 4.0\narchive: {}\n"
    cfg = parse_scenario(text)
    assert (cfg.handoff.beacon_interval_ms, cfg.handoff.miss_threshold, cfg.handoff.beacon_p_near) == (100, 5, 0.0)
    assert (cfg.mobility.follow_margin_m, cfg.mobility.resume_hysteresis_m) == (4.0, 2.0)
    assert cfg.fixed_edge_retention_ms == 60_000
    assert cfg.constants.bsm_interval_ms == 100


@pytest.mark.parametrize("value", ["1.0", "-0.1", ".nan"])
def test_beacon_p_near_out_of_range_rejected_with_line(value):
    with pytest.raises(ConfigError) as err:
        parse_scenario(MINIMAL + f"handoff:\n  beacon_p_near: {value}\n", source="case.yaml")
    assert "case.yaml:11" in str(err.value) and "beacon_p_near" in str(err.value)


# -- script directives against spawns ------------------------------------------

SCRIPTED = MINIMAL.replace("    speed_mph: 20.0\n", "    speed_mph: 20.0\n    spawn_t_s: 2.0\n") + "script:\n"


@pytest.mark.parametrize(
    "directive,message",
    [
        ("{at_s: 1.0, action: hard_brake, vehicle: cv1}", "precedes the spawn of 'cv1'"),
        ("{at_s: 0.5, action: hard_brake, vehicle: cv9}", "precedes the spawn of 'cv9'"),
        ("{at_s: 3.0, action: hard_brake, vehicle: ghost}", "unknown vehicle 'ghost'"),
        ("{at_s: 3.0, action: signal_red, signal: nope, duration_s: 1.0}", "unknown signal 'nope'"),
        ("{at_s: 3.0, action: spawn, vehicle_spec: {id: cv1, s_m: 50.0, speed_mph: 10.0}}", "duplicate vehicle id 'cv1'"),
        ("{at_s: 3.0, action: spawn, vehicle_spec: {id: cv9, s_m: 50.0, speed_mph: 10.0}}", "duplicate vehicle id 'cv9'"),
        (
            "{at_s: 3.0, action: spawn, vehicle_spec: {id: cv8, s_m: 50.0, speed_mph: 10.0, spawn_t_s: 30.0}}",
            "spawn_t_s is not allowed",
        ),
    ],
)
def test_bad_directive_rejected_at_its_line(directive, message):
    spawn = "  - {at_s: 1.0, action: spawn, vehicle_spec: {id: cv9, s_m: 5.0, speed_mph: 10.0}}\n"
    text = SCRIPTED + spawn + f"  - {directive}\n"
    with pytest.raises(ConfigError) as err:
        parse_scenario(text, source="case.yaml")
    assert "case.yaml:14" in str(err.value) and message in str(err.value)


def test_script_spawn_starts_at_its_at_s():
    spawn = "  - {at_s: 3.5, action: spawn, vehicle_spec: {id: cv9, s_m: 5.0, speed_mph: 10.0}}\n"
    cfg = parse_scenario(SCRIPTED + spawn)
    assert cfg.script[0].at_ms == cfg.script[0].spawn.spawn_t_ms == 3500


def test_hard_brake_at_its_spawn_millisecond_parses():
    cfg = parse_scenario(SCRIPTED + "  - {at_s: 2.0, action: hard_brake, vehicle: cv1}\n")
    assert cfg.script[0].at_ms == cfg.vehicles[0].spawn_t_ms == 2000


# -- the README's configuration reference -------------------------------------

def test_readme_yaml_blocks_parse():
    assert README_BLOCKS
    for block in README_BLOCKS:
        parse_scenario(block, source="README.md")
