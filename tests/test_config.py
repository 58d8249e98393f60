import importlib.resources

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from cvsim.config import ConfigError, bundled_scenario_names, load_scenario, parse_scenario
from cvsim.core import ft_to_m, mph_to_mps
from cvsim.radio import LinkKind

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
    assert cfg.constants.dsrc_range_m == 300.0
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


# -- hypothesis property: the parser's boundary -------------------------------

# YAML spellings that PyYAML resolves to floats/ints: nan, inf, -inf, -1, 0, 1e-9, 1e12.
BOUNDARY_VALUES = (".nan", ".inf", "-.inf", "-1", "0", "1.0e-9", "1.0e+12")


def numeric_scalar_spans(text):
    """(start, end) offsets of every int or float scalar in a YAML document."""
    spans, stack = [], [yaml.compose(text)]
    while stack:
        node = stack.pop()
        if isinstance(node, yaml.MappingNode):
            stack += [value for _, value in node.value]
        elif isinstance(node, yaml.SequenceNode):
            stack += node.value
        elif node.tag in ("tag:yaml.org,2002:int", "tag:yaml.org,2002:float"):
            spans.append((node.start_mark.index, node.end_mark.index))
    return sorted(spans)


BUNDLED_TEXTS = {
    name: (importlib.resources.files("cvsim") / "scenarios" / f"{name}.yaml").read_text(encoding="utf-8")
    for name in bundled_scenario_names()
}
NUMERIC_SPANS = {name: numeric_scalar_spans(text) for name, text in BUNDLED_TEXTS.items()}


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(BUNDLED_TEXTS)), value=st.sampled_from(BOUNDARY_VALUES), data=st.data())
def test_mutated_bundled_scenario_parses_or_raises_config_error(name, value, data):
    text = BUNDLED_TEXTS[name]
    start, end = data.draw(st.sampled_from(NUMERIC_SPANS[name]))
    try:
        parse_scenario(text[:start] + value + text[end:], source=f"{name}.yaml")
    except ConfigError:
        pass
