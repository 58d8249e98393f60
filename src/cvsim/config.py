"""Scenario configuration: schema, strict validation, bundled scenarios.

Config files are YAML. Validation is strict (unknown keys are rejected) and
every diagnostic carries the offending line number, which means the loader
walks the YAML node tree itself instead of using ``safe_load`` directly.

US-customary units (mph, ft) are accepted at this boundary and converted to SI
immediately; nothing past this module sees them.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass, field
from difflib import get_close_matches
from pathlib import Path

import yaml

from .core import GeoPoint, SimConstants, ft_to_m, mph_to_mps
from .mobility import Corridor, RsuSpec, SignalSpec
from .radio import DSRC_WARNING_LATENCY_BY_TIER, LinkKind, LinkModel, default_link_models
from .handoff import BeaconConfig


class ConfigError(ValueError):
    """Invalid scenario config, anchored to a source line when known."""

    def __init__(self, message: str, source: str = "<config>", line: int | None = None):
        self.source = source
        self.line = line
        anchor = f"{source}:{line}" if line is not None else source
        super().__init__(f"{anchor}: {message}")


def seconds_to_ms(seconds: float, name: str, positive: bool, source: str, line: int | None) -> int:
    """A duration in seconds as the engine's whole milliseconds.

    Rejects non-finite and negative values and, when ``positive``, any value
    that rounds to 0 ms.
    """
    ms = seconds * 1000
    if not math.isfinite(ms) or ms < 0 or (positive and round(ms) < 1):
        need = "round to at least 1 ms" if positive else "non-negative"
        raise ConfigError(f"{name} must be finite and {need}, got {seconds}", source, line)
    return round(ms)


# --------------------------------------------------------------------------
# YAML loading with a per-path line map
# --------------------------------------------------------------------------

def _convert(node: yaml.Node, path: tuple, lines: dict[tuple, int], source: str):
    lines[path] = node.start_mark.line + 1
    if isinstance(node, yaml.MappingNode):
        out: dict = {}
        for key_node, value_node in node.value:
            if not isinstance(key_node, yaml.ScalarNode):
                raise ConfigError("mapping keys must be scalars", source, key_node.start_mark.line + 1)
            key = key_node.value
            if key in out:
                raise ConfigError(f"duplicate key {key!r}", source, key_node.start_mark.line + 1)
            out[key] = _convert(value_node, path + (key,), lines, source)
            lines[path + (key,)] = key_node.start_mark.line + 1
        return out
    if isinstance(node, yaml.SequenceNode):
        return [
            _convert(child, path + (i,), lines, source) for i, child in enumerate(node.value)
        ]
    assert isinstance(node, yaml.ScalarNode)
    return yaml.safe_load(node.value) if node.value != "" else None


def load_yaml_with_lines(text: str, source: str) -> tuple[dict, dict[tuple, int]]:
    try:
        root = yaml.compose(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        raise ConfigError(f"YAML syntax error: {getattr(exc, 'problem', exc)}", source, line)
    if root is None:
        raise ConfigError("empty config", source)
    lines: dict[tuple, int] = {}
    data = _convert(root, (), lines, source)
    if not isinstance(data, dict):
        raise ConfigError("top level must be a mapping", source, 1)
    return data, lines


class _Section:
    """A mapping being validated: typed getters plus unknown-key rejection."""

    def __init__(self, data: dict, lines: dict[tuple, int], path: tuple, source: str):
        if not isinstance(data, dict):
            raise ConfigError(
                f"expected a mapping at {'.'.join(map(str, path)) or 'top level'}",
                source,
                lines.get(path),
            )
        self.data = data
        self.lines = lines
        self.path = path
        self.source = source
        self._consumed: set[str] = set()

    def line(self, key: str | None = None) -> int | None:
        path = self.path + (key,) if key is not None else self.path
        return self.lines.get(path)

    def error(self, message: str, key: str | None = None) -> ConfigError:
        return ConfigError(message, self.source, self.line(key))

    def has(self, key: str) -> bool:
        return key in self.data

    def get(self, key: str, kind: type, default=None, required: bool = False):
        self._consumed.add(key)
        if key not in self.data or self.data[key] is None:
            if required:
                raise self.error(f"missing required key {key!r}")
            return default
        value = self.data[key]
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if kind is int and isinstance(value, bool):
            raise self.error(f"{key!r} must be an integer, got a boolean", key)
        if not isinstance(value, kind):
            raise self.error(f"{key!r} must be {kind.__name__}, got {type(value).__name__}", key)
        return value

    def get_ms(self, key: str, positive: bool, default: float | None) -> int:
        """A duration given in seconds under ``key``, as whole milliseconds; required if no default."""
        seconds = self.get(key, float, default, required=default is None)
        return seconds_to_ms(seconds, key, positive, self.source, self.line(key))

    def sub(self, key: str, required: bool = False) -> "_Section | None":
        self._consumed.add(key)
        if key not in self.data or self.data[key] is None:
            if required:
                raise self.error(f"missing required section {key!r}")
            return None
        return _Section(self.data[key], self.lines, self.path + (key,), self.source)

    def seq(self, key: str, required: bool = False) -> list[tuple[object, tuple]]:
        self._consumed.add(key)
        if key not in self.data or self.data[key] is None:
            if required:
                raise self.error(f"missing required list {key!r}")
            return []
        value = self.data[key]
        if not isinstance(value, list):
            raise self.error(f"{key!r} must be a list", key)
        return [(item, self.path + (key, i)) for i, item in enumerate(value)]

    def item_section(self, item: object, path: tuple) -> "_Section":
        return _Section(item, self.lines, path, self.source)  # type: ignore[arg-type]

    def reject_unknown(self) -> None:
        for key in self.data:
            if key not in self._consumed:
                hint = ""
                close = get_close_matches(key, self._consumed, n=1)
                if close:
                    hint = f" (did you mean {close[0]!r}?)"
                raise ConfigError(
                    f"unknown key {key!r}{hint}", self.source, self.lines.get(self.path + (key,))
                )


# --------------------------------------------------------------------------
# Parsed scenario
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class VehicleSpawn:
    vehicle_id: str
    spawn_t_ms: int
    s_m: float
    speed_mps: float
    connected: bool


@dataclass(frozen=True)
class Directive:
    at_ms: int
    action: str  # hard_brake | signal_red | spawn
    vehicle: str | None = None
    signal: str | None = None
    duration_ms: int | None = None
    spawn: VehicleSpawn | None = None


@dataclass(frozen=True)
class DetectionConfig:
    enabled: bool
    zone: tuple[float, float]
    truth_min_vehicles: int = 2


@dataclass(frozen=True)
class MobilityConfig:
    follow_margin_m: float = 3.0
    resume_hysteresis_m: float = 2.0
    resume_accel_mps2: float = 1.5


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    description: str
    seed: int
    t_end_ms: int
    region: str
    speed_tier_mph: int
    constants: SimConstants
    corridor: Corridor
    links: dict[LinkKind, LinkModel]
    beacon_p_near: float
    handoff: BeaconConfig
    mobility: MobilityConfig
    detection: DetectionConfig
    fixed_edge_retention_ms: int
    vehicles: list[VehicleSpawn] = field(default_factory=list)
    script: list[Directive] = field(default_factory=list)


def _parse_constants(section: _Section | None) -> SimConstants:
    if section is None:
        return SimConstants()
    kwargs = {}
    if section.has("bsm_interval_s"):
        kwargs["bsm_interval_s"] = section.get_ms("bsm_interval_s", positive=True, default=None) / 1000
    if section.has("queue_speed_threshold_mph"):
        kwargs["queue_speed_threshold_mps"] = mph_to_mps(section.get("queue_speed_threshold_mph", float))
    if section.has("queue_gap_threshold_ft"):
        kwargs["queue_gap_threshold_m"] = ft_to_m(section.get("queue_gap_threshold_ft", float))
    if section.has("decel_fps2"):
        kwargs["decel_mps2"] = ft_to_m(section.get("decel_fps2", float))
    if section.has("dsrc_range_m"):
        kwargs["dsrc_range_m"] = section.get("dsrc_range_m", float)
    if section.has("safety_latency_req_ms"):
        kwargs["safety_latency_req_ms"] = section.get("safety_latency_req_ms", int)
    section.reject_unknown()
    try:
        return SimConstants(**kwargs)
    except ValueError as exc:
        raise section.error(str(exc))


def _parse_corridor(section: _Section) -> Corridor:
    points = []
    for item, path in section.seq("polyline", required=True):
        if not (isinstance(item, list) and len(item) == 2):
            raise ConfigError("polyline entries must be [lat, lon] pairs", section.source,
                              section.lines.get(path))
        try:
            points.append(GeoPoint(float(item[0]), float(item[1])))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad polyline point: {exc}", section.source, section.lines.get(path))
    signals = []
    for item, path in section.seq("signals"):
        s = section.item_section(item, path)
        signals.append(SignalSpec(signal_id=s.get("id", str, required=True), s_m=s.get("s_m", float, required=True)))
        s.reject_unknown()
    rsus = []
    for item, path in section.seq("rsus"):
        s = section.item_section(item, path)
        rsus.append(
            RsuSpec(
                rsu_id=s.get("id", str, required=True),
                s_m=s.get("s_m", float, required=True),
                obstruction=s.get("obstruction", float, default=0.0),
            )
        )
        s.reject_unknown()
        if not 0.0 <= rsus[-1].obstruction <= 1.0:
            raise s.error("obstruction must be in [0, 1]", "obstruction")
    section.reject_unknown()
    try:
        return Corridor(points, signals=signals, rsus=rsus)
    except ValueError as exc:
        raise section.error(str(exc))


_LINK_KEYS = {
    "latency_mean_ms": int,
    "latency_jitter_ms": int,
    "warning_latency_ms": int,
    "p_near": float,
    "ramp_start_frac": float,
    "range_m": float,
}


def _parse_links(
    section: _Section | None, constants: SimConstants, speed_tier_mph: int
) -> dict[LinkKind, LinkModel]:
    wifi_range = 200.0
    overrides: dict[LinkKind, dict] = {}
    if section is not None:
        for kind in LinkKind:
            sub = section.sub(kind.value)
            if sub is None:
                continue
            params = {}
            for key, typ in _LINK_KEYS.items():
                value = sub.get(key, typ)
                if value is not None:
                    params[key] = value
            sub.reject_unknown()
            overrides[kind] = params
        section.reject_unknown()
    if LinkKind.WIFI in overrides and "range_m" in overrides[LinkKind.WIFI]:
        wifi_range = overrides[LinkKind.WIFI]["range_m"]
    models = default_link_models(
        dsrc_range_m=constants.dsrc_range_m,
        wifi_range_m=wifi_range,
        speed_tier_mph=speed_tier_mph,
    )
    for kind, params in overrides.items():
        base = models[kind]
        try:
            models[kind] = LinkModel(
                kind=kind,
                range_m=params.get("range_m", base.range_m),
                latency_mean_ms=params.get("latency_mean_ms", base.latency_mean_ms),
                latency_jitter_ms=params.get("latency_jitter_ms", base.latency_jitter_ms),
                warning_latency_mean_ms=params.get("warning_latency_ms", base.warning_latency_mean_ms),
                p_near=params.get("p_near", base.p_near),
                ramp_start_frac=params.get("ramp_start_frac", base.ramp_start_frac),
            )
        except ValueError as exc:
            raise section.error(str(exc), kind.value)
    return models


def _parse_spawn_fields(s: _Section) -> VehicleSpawn:
    vid = s.get("id", str, required=True)
    if s.has("s_m") and s.has("s_ft"):
        raise s.error("give s_m or s_ft, not both", "s_ft")
    if s.has("s_m"):
        s_pos = s.get("s_m", float)
    elif s.has("s_ft"):
        s_pos = ft_to_m(s.get("s_ft", float))
    else:
        raise s.error(f"vehicle {vid!r} needs s_m or s_ft")
    if s.has("speed_mph") and s.has("speed_mps"):
        raise s.error("give speed_mph or speed_mps, not both", "speed_mps")
    if s.has("speed_mph"):
        speed_key = "speed_mph"
        speed = mph_to_mps(s.get(speed_key, float))
    elif s.has("speed_mps"):
        speed_key = "speed_mps"
        speed = s.get(speed_key, float)
    else:
        raise s.error(f"vehicle {vid!r} needs speed_mph or speed_mps")
    if not (math.isfinite(speed) and speed >= 0):
        raise s.error(f"{speed_key} must be finite and non-negative, got {s.data[speed_key]}", speed_key)
    spawn_t_ms = s.get_ms("spawn_t_s", positive=False, default=0.0)
    connected = s.get("connected", bool, default=True)
    return VehicleSpawn(
        vehicle_id=vid,
        spawn_t_ms=spawn_t_ms,
        s_m=s_pos,
        speed_mps=speed,
        connected=connected,
    )


def _parse_script(section_list: list[tuple[object, tuple]], root: _Section) -> list[Directive]:
    directives = []
    for item, path in section_list:
        s = root.item_section(item, path)
        at_ms = s.get_ms("at_s", positive=False, default=None)
        action = s.get("action", str, required=True)
        if action == "hard_brake":
            directives.append(Directive(at_ms=at_ms, action=action, vehicle=s.get("vehicle", str, required=True)))
        elif action == "signal_red":
            directives.append(
                Directive(
                    at_ms=at_ms,
                    action=action,
                    signal=s.get("signal", str, required=True),
                    duration_ms=s.get_ms("duration_s", positive=True, default=None),
                )
            )
        elif action == "spawn":
            vsec = s.sub("vehicle_spec", required=True)
            spawn = _parse_spawn_fields(vsec)
            vsec.reject_unknown()
            directives.append(Directive(at_ms=at_ms, action=action, spawn=spawn))
        else:
            raise s.error(
                f"unknown action {action!r} (expected hard_brake, signal_red, or spawn)", "action"
            )
        s.reject_unknown()
    directives.sort(key=lambda d: d.at_ms)
    return directives


def parse_scenario(text: str, source: str = "<config>") -> ScenarioConfig:
    data, lines = load_yaml_with_lines(text, source)
    root = _Section(data, lines, (), source)

    name = root.get("name", str, required=True)
    description = root.get("description", str, default="")
    seed = root.get("seed", int, default=0)
    t_end_ms = root.get_ms("t_end_s", positive=True, default=None)
    region = root.get("region", str, default="corridor")
    speed_tier = root.get("speed_tier_mph", int, default=20)
    if speed_tier not in DSRC_WARNING_LATENCY_BY_TIER:
        raise root.error(
            f"speed_tier_mph must be one of {sorted(DSRC_WARNING_LATENCY_BY_TIER)}, "
            f"got {speed_tier}",
            "speed_tier_mph",
        )

    constants = _parse_constants(root.sub("constants"))
    corridor = _parse_corridor(root.sub("corridor", required=True))
    links = _parse_links(root.sub("links"), constants, speed_tier)

    hsec = root.sub("handoff")
    beacon_p_near = 0.0
    if hsec is not None:
        short_name = hsec.get("short_range_link", str, default="dsrc")
        try:
            short = LinkKind(short_name)
        except ValueError:
            raise hsec.error(f"short_range_link must be a link kind, got {short_name!r}", "short_range_link")
        beacon_p_near = hsec.get("beacon_p_near", float, default=0.0)
        if not 0.0 <= beacon_p_near < 1.0:
            raise hsec.error("beacon_p_near must be in [0, 1)", "beacon_p_near")
        try:
            handoff_cfg = BeaconConfig(
                beacon_interval_ms=hsec.get("beacon_interval_ms", int, default=100),
                miss_threshold=hsec.get("miss_threshold", int, default=3),
                short_range=short,
                association_delay_ms=hsec.get_ms("association_delay_s", positive=False, default=0.0),
            )
        except ValueError as exc:
            raise hsec.error(str(exc))
        hsec.reject_unknown()
    else:
        handoff_cfg = BeaconConfig()

    msec = root.sub("mobility")
    if msec is not None:
        mobility_cfg = MobilityConfig(
            follow_margin_m=msec.get("follow_margin_m", float, default=3.0),
            resume_hysteresis_m=msec.get("resume_hysteresis_m", float, default=2.0),
            resume_accel_mps2=msec.get("resume_accel_mps2", float, default=1.5),
        )
        msec.reject_unknown()
        if mobility_cfg.follow_margin_m <= 0 or mobility_cfg.resume_accel_mps2 <= 0:
            raise msec.error("mobility parameters must be positive")
    else:
        mobility_cfg = MobilityConfig()

    dsec = root.sub("detection")
    zone = (0.0, corridor.length_m)
    det_enabled = bool(corridor.rsus)
    truth_min = 2
    if dsec is not None:
        det_enabled = dsec.get("enabled", bool, default=det_enabled)
        zone_from = dsec.get("zone_from_m", float, default=0.0)
        zone_to = dsec.get("zone_to_m", float, default=corridor.length_m)
        truth_min = dsec.get("truth_min_vehicles", int, default=2)
        dsec.reject_unknown()
        if not 0.0 <= zone_from < zone_to <= corridor.length_m:
            raise dsec.error("detection zone must satisfy 0 <= from < to <= corridor length")
        if truth_min < 2:
            raise dsec.error("truth_min_vehicles must be >= 2", "truth_min_vehicles")
        zone = (zone_from, zone_to)
    if det_enabled and not corridor.rsus:
        raise (dsec or root).error("detection enabled but the corridor has no RSUs")

    asec = root.sub("archive")
    retention_ms = 60_000
    if asec is not None:
        retention_ms = asec.get_ms("fixed_edge_retention_s", positive=True, default=60.0)
        asec.reject_unknown()

    vehicles = []
    seen_ids: set[str] = set()
    for item, path in root.seq("vehicles"):
        s = root.item_section(item, path)
        spawn = _parse_spawn_fields(s)
        s.reject_unknown()
        if spawn.vehicle_id in seen_ids:
            raise s.error(f"duplicate vehicle id {spawn.vehicle_id!r}")
        seen_ids.add(spawn.vehicle_id)
        if not 0.0 <= spawn.s_m <= corridor.length_m:
            raise s.error(f"vehicle {spawn.vehicle_id!r} spawns outside the corridor")
        vehicles.append(spawn)

    script = _parse_script(root.seq("script"), root)
    signal_ids = {s.signal_id for s in corridor.signals}
    vehicle_ids = seen_ids | {d.spawn.vehicle_id for d in script if d.spawn is not None}
    for d in script:
        if d.action == "hard_brake" and d.vehicle not in vehicle_ids:
            raise root.error(f"hard_brake targets unknown vehicle {d.vehicle!r}")
        if d.action == "signal_red" and d.signal not in signal_ids:
            raise root.error(f"signal_red targets unknown signal {d.signal!r}")

    root.reject_unknown()
    return ScenarioConfig(
        name=name,
        description=description,
        seed=seed,
        t_end_ms=t_end_ms,
        region=region,
        speed_tier_mph=speed_tier,
        constants=constants,
        corridor=corridor,
        links=links,
        beacon_p_near=beacon_p_near,
        handoff=handoff_cfg,
        mobility=mobility_cfg,
        detection=DetectionConfig(enabled=det_enabled, zone=zone, truth_min_vehicles=truth_min),
        fixed_edge_retention_ms=retention_ms,
        vehicles=vehicles,
        script=script,
    )


def bundled_scenario_names() -> list[str]:
    files = importlib.resources.files("cvsim") / "scenarios"
    return sorted(p.name[: -len(".yaml")] for p in files.iterdir() if p.name.endswith(".yaml"))


def load_scenario(path_or_name: str) -> ScenarioConfig:
    """Load a scenario from a file path or a bundled scenario name.

    Only a regular file shadows a bundled name, so a directory that happens
    to share a scenario's name (a common --out-dir choice) cannot hijack it.
    """
    path = Path(path_or_name)
    if path.is_file():
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}", source=str(path))
        return parse_scenario(text, source=str(path))
    candidate = importlib.resources.files("cvsim") / "scenarios" / f"{path_or_name}.yaml"
    if candidate.is_file():
        return parse_scenario(candidate.read_text(encoding="utf-8"), source=f"{path_or_name}.yaml")
    names = ", ".join(bundled_scenario_names())
    raise ConfigError(
        f"no such file, and no bundled scenario named {path_or_name!r} (bundled: {names})",
        source=path_or_name,
    )
