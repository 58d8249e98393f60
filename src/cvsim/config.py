"""Scenario configuration: schema, strict validation, bundled scenarios.

Config files are YAML. Validation is strict (unknown keys are rejected) and
every diagnostic carries the offending line number, which means the loader
walks the YAML node tree itself instead of using ``safe_load`` directly. Each
scalar is still built by the loader that composed it, so its tag, and with it
any quoting, decides its type: ``id: "42"`` is a string.

US-customary units (mph, ft) are accepted at this boundary and converted to SI
immediately; nothing past this module sees them.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass, field, replace
from difflib import get_close_matches
from pathlib import Path

import yaml

from .broker import TopicError, split_topic
from .core import MAX_SPEED_MPS, GeoPoint, SimConstants, ft_to_m, mph_to_mps, mps_to_mph
from .mobility import QUEUE_MIN_VEHICLES, Corridor, MobilityConfig, RsuSpec, SignalSpec
from .radio import LinkKind, LinkModel, default_link_models
from .handoff import BeaconConfig


# The backend node's id in every archive, topic origin and packet log; no RSU may take it.
SYSTEM_NODE_ID = "system"
# Every topic a run publishes is one of these templates filled with a vehicle,
# RSU or region name; the report counts archives by the two patterns.
BSM_RAW_TOPIC = "bsm/raw/{}"
BSM_PROCESSED_TOPIC = "bsm/processed/{}"
QUEUE_STATUS_TOPIC = "queue/status/{}"
WARNING_TOPIC = "warning/region/{}"
BSM_RAW_PATTERN = BSM_RAW_TOPIC.format("#")
QUEUE_STATUS_PATTERN = QUEUE_STATUS_TOPIC.format("#")


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

def _convert(node: yaml.Node, path: tuple, lines: dict[tuple, int], source: str, loader: yaml.SafeLoader):
    lines[path] = node.start_mark.line + 1
    if isinstance(node, yaml.MappingNode):
        out: dict = {}
        for key_node, value_node in node.value:
            if not isinstance(key_node, yaml.ScalarNode):
                raise ConfigError("mapping keys must be scalars", source, key_node.start_mark.line + 1)
            key = key_node.value
            if key in out:
                raise ConfigError(f"duplicate key {key!r}", source, key_node.start_mark.line + 1)
            out[key] = _convert(value_node, path + (key,), lines, source, loader)
            lines[path + (key,)] = key_node.start_mark.line + 1
        return out
    if isinstance(node, yaml.SequenceNode):
        return [
            _convert(child, path + (i,), lines, source, loader) for i, child in enumerate(node.value)
        ]
    try:
        return loader.construct_object(node)
    # SafeLoader's scalar constructors raise these on an unknown tag or a
    # malformed tagged value: !foo x, !!int abc, !!bool maybe, 2020-13-45.
    except (yaml.YAMLError, ValueError, KeyError, AttributeError):
        tag = node.tag.replace("tag:yaml.org,2002:", "!!")
        raise ConfigError(f"cannot read {node.value!r} as {tag}", source, lines[path])


def load_yaml_with_lines(text: str, source: str) -> tuple[dict, dict[tuple, int]]:
    lines: dict[tuple, int] = {}
    try:
        loader = yaml.SafeLoader(text)
        root = loader.get_single_node()
        data = None if root is None else _convert(root, (), lines, source, loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        raise ConfigError(f"YAML syntax error: {getattr(exc, 'problem', exc)}", source, line)
    except RecursionError:
        raise ConfigError("nested too deeply, or an alias refers to a collection that contains it", source)
    if root is None:
        raise ConfigError("empty config", source)
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
            try:
                value = float(value)
            except OverflowError:
                raise self.error(f"{key!r} must be float, got an integer too large for one", key)
        if kind is int and isinstance(value, bool):
            raise self.error(f"{key!r} must be an integer, got a boolean", key)
        if not isinstance(value, kind):
            raise self.error(f"{key!r} must be {kind.__name__}, got {type(value).__name__}", key)
        return value

    def get_ms(self, key: str, positive: bool, default: float | None) -> int:
        """A duration given in seconds under ``key``, as whole milliseconds; required if no default."""
        seconds = self.get(key, float, default, required=default is None)
        return seconds_to_ms(seconds, key, positive, self.source, self.line(key))

    def present(self, keys: dict[str, type]) -> dict:
        """The values of ``keys`` that are set, typed; an absent key keeps its dataclass default."""
        values = {key: self.get(key, kind) for key, kind in keys.items()}
        return {key: value for key, value in values.items() if value is not None}

    def present_ms(self, key: str, name: str, positive: bool) -> dict:
        """``{name: milliseconds}`` for the duration in seconds under ``key``, or ``{}`` if unset."""
        seconds = self.get(key, float)
        if seconds is None:
            return {}
        return {name: seconds_to_ms(seconds, key, positive, self.source, self.line(key))}

    def check_topic(self, key: str, value: str, *templates: str) -> None:
        """Reject ``value``, read under ``key``, unless it fills every topic template into a valid topic."""
        for template in templates:
            try:
                split_topic(template.format(value))
            except TopicError as exc:
                raise self.error(f"{key} {value!r} cannot form a topic: {exc}", key)

    def build(self, make, *args, **kwargs):
        """``make(*args, **kwargs)`` once no unknown key is left; its ValueError anchors here."""
        self.reject_unknown()
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            raise self.error(str(exc))

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
    truth_min_vehicles: int = QUEUE_MIN_VEHICLES

    def __post_init__(self) -> None:
        if self.truth_min_vehicles < QUEUE_MIN_VEHICLES:
            raise ValueError(
                f"truth_min_vehicles must be >= {QUEUE_MIN_VEHICLES}, got {self.truth_min_vehicles}"
            )


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
    handoff: BeaconConfig
    mobility: MobilityConfig
    detection: DetectionConfig
    fixed_edge_retention_ms: int = 60_000
    vehicles: list[VehicleSpawn] = field(default_factory=list)
    script: list[Directive] = field(default_factory=list)


_CONSTANT_KEYS = {  # YAML key: (SimConstants field, conversion to SI)
    "queue_speed_threshold_mph": ("queue_speed_threshold_mps", mph_to_mps),
    "queue_gap_threshold_ft": ("queue_gap_threshold_m", ft_to_m),
    "decel_fps2": ("decel_mps2", ft_to_m),
}


def _parse_constants(section: _Section | None) -> SimConstants:
    if section is None:
        return SimConstants()
    kwargs = section.present({"safety_latency_req_ms": int})
    for key, (name, to_si) in _CONSTANT_KEYS.items():
        value = section.get(key, float)
        if value is not None:
            kwargs[name] = to_si(value)
    kwargs |= section.present_ms("bsm_interval_s", "bsm_interval_ms", positive=True)
    return section.build(SimConstants, **kwargs)


def _parse_corridor(section: _Section) -> Corridor:
    points = []
    for item, path in section.seq("polyline", required=True):
        line = section.lines.get(path)
        if not (isinstance(item, list) and len(item) == 2):
            raise ConfigError("polyline entries must be [lat, lon] pairs", section.source, line)
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in item):
            raise ConfigError(f"polyline coordinates must be numbers, got {item!r}", section.source, line)
        try:
            points.append(GeoPoint(float(item[0]), float(item[1])))
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"bad polyline point: {exc}", section.source, line)
    signals = []
    for item, path in section.seq("signals"):
        s = section.item_section(item, path)
        signals.append(SignalSpec(signal_id=s.get("id", str, required=True), s_m=s.get("s_m", float, required=True)))
        s.reject_unknown()
    rsus = []
    for item, path in section.seq("rsus"):
        s = section.item_section(item, path)
        rsu = s.build(
            RsuSpec,
            rsu_id=s.get("id", str, required=True),
            s_m=s.get("s_m", float, required=True),
            **s.present({"obstruction": float}),
        )
        s.check_topic("id", rsu.rsu_id, BSM_PROCESSED_TOPIC, QUEUE_STATUS_TOPIC)
        if rsu.rsu_id == SYSTEM_NODE_ID:
            raise s.error(f"RSU id {SYSTEM_NODE_ID!r} is reserved for the backend node", "id")
        if any(r.rsu_id == rsu.rsu_id for r in rsus):
            raise s.error(f"duplicate RSU id {rsu.rsu_id!r}", "id")
        rsus.append(rsu)
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


def _parse_links(section: _Section | None, links: dict[LinkKind, LinkModel]) -> None:
    """Apply each ``links.<kind>`` override to ``links`` in place."""
    if section is None:
        return
    for kind in LinkKind:
        sub = section.sub(kind.value)
        if sub is not None:
            if kind is LinkKind.LTE:
                for key in ("range_m", "ramp_start_frac"):
                    if sub.has(key):
                        raise sub.error(f"links.lte.{key} has no effect: cellular is unbounded", key)
            params = sub.present(_LINK_KEYS)
            if "warning_latency_ms" in params:
                params["warning_latency_mean_ms"] = params.pop("warning_latency_ms")
            links[kind] = sub.build(replace, links[kind], **params)
    section.reject_unknown()


def _parse_handoff(section: _Section | None) -> BeaconConfig:
    if section is None:
        return BeaconConfig()
    kwargs = section.present({"beacon_interval_ms": int, "miss_threshold": int, "beacon_p_near": float})
    short_name = section.get("short_range_link", str)
    if short_name is not None:
        try:
            kwargs["short_range"] = LinkKind(short_name)
        except ValueError:
            raise section.error(f"short_range_link must be a link kind, got {short_name!r}", "short_range_link")
    kwargs |= section.present_ms("association_delay_s", "association_delay_ms", positive=False)
    return section.build(BeaconConfig, **kwargs)


def _parse_spawn_fields(s: _Section, spawn_t_ms: int, corridor_length_m: float) -> VehicleSpawn:
    vid = s.get("id", str, required=True)
    s.check_topic("id", vid, BSM_RAW_TOPIC)
    if s.has("s_m") and s.has("s_ft"):
        raise s.error("give s_m or s_ft, not both", "s_ft")
    if s.has("s_m"):
        s_pos = s.get("s_m", float)
    elif s.has("s_ft"):
        s_pos = ft_to_m(s.get("s_ft", float))
    else:
        raise s.error(f"vehicle {vid!r} needs s_m or s_ft")
    if not 0.0 <= s_pos <= corridor_length_m:  # also false for NaN
        raise s.error(f"vehicle {vid!r} spawns outside the corridor")
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
    if not 0 <= speed <= MAX_SPEED_MPS:  # also false for NaN
        limit = f"{MAX_SPEED_MPS:g} m/s ({mps_to_mph(MAX_SPEED_MPS):.1f} mph)"
        raise s.error(f"{speed_key} must be between 0 and {limit}, got {s.data[speed_key]}", speed_key)
    connected = s.get("connected", bool, default=True)
    return VehicleSpawn(
        vehicle_id=vid,
        spawn_t_ms=spawn_t_ms,
        s_m=s_pos,
        speed_mps=speed,
        connected=connected,
    )


def _register_spawn(spawn_ms: dict[str, int], spawn: VehicleSpawn, s: _Section) -> None:
    """Record ``spawn`` in ``spawn_ms``, the spawn time of every vehicle id; a repeated id is an error."""
    if spawn.vehicle_id in spawn_ms:
        raise s.error(f"duplicate vehicle id {spawn.vehicle_id!r}")
    spawn_ms[spawn.vehicle_id] = spawn.spawn_t_ms


def _parse_script(
    root: _Section, spawn_ms: dict[str, int], signal_ids: set[str], corridor_length_m: float
) -> list[Directive]:
    parsed: list[tuple[Directive, _Section]] = []
    for item, path in root.seq("script"):
        s = root.item_section(item, path)
        at_ms = s.get_ms("at_s", positive=False, default=None)
        action = s.get("action", str, required=True)
        if action == "hard_brake":
            directive = Directive(at_ms=at_ms, action=action, vehicle=s.get("vehicle", str, required=True))
        elif action == "signal_red":
            directive = Directive(
                at_ms=at_ms,
                action=action,
                signal=s.get("signal", str, required=True),
                duration_ms=s.get_ms("duration_s", positive=True, default=None),
            )
        elif action == "spawn":
            vsec = s.sub("vehicle_spec", required=True)
            if vsec.has("spawn_t_s"):
                raise vsec.error("a script spawn starts at its at_s; spawn_t_s is not allowed here", "spawn_t_s")
            spawn = _parse_spawn_fields(vsec, at_ms, corridor_length_m)
            vsec.reject_unknown()
            directive = Directive(at_ms=at_ms, action=action, spawn=spawn)
        else:
            raise s.error(
                f"unknown action {action!r} (expected hard_brake, signal_red, or spawn)", "action"
            )
        s.reject_unknown()
        parsed.append((directive, s))
    for d, s in parsed:
        if d.spawn is not None:
            _register_spawn(spawn_ms, d.spawn, s)
    for d, s in parsed:
        if d.action == "hard_brake" and d.vehicle not in spawn_ms:
            raise s.error(f"hard_brake targets unknown vehicle {d.vehicle!r}")
        if d.action == "hard_brake" and d.at_ms < spawn_ms[d.vehicle]:
            raise s.error(
                f"hard_brake at {d.at_ms} ms precedes the spawn of {d.vehicle!r} at {spawn_ms[d.vehicle]} ms"
            )
        if d.action == "signal_red" and d.signal not in signal_ids:
            raise s.error(f"signal_red targets unknown signal {d.signal!r}")
    directives = [d for d, _ in parsed]
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
    root.check_topic("region", region, WARNING_TOPIC)
    speed_tier = root.get("speed_tier_mph", int, default=20)
    try:
        links = default_link_models(speed_tier)
    except ValueError as exc:
        raise root.error(str(exc), "speed_tier_mph")

    constants = _parse_constants(root.sub("constants"))
    corridor = _parse_corridor(root.sub("corridor", required=True))
    _parse_links(root.sub("links"), links)
    handoff_cfg = _parse_handoff(root.sub("handoff"))
    msec = root.sub("mobility")
    mobility_cfg = MobilityConfig() if msec is None else msec.build(
        MobilityConfig,
        **msec.present({"follow_margin_m": float, "resume_hysteresis_m": float, "resume_accel_mps2": float}),
    )

    dsec = root.sub("detection")
    detection = DetectionConfig(enabled=bool(corridor.rsus), zone=(0.0, corridor.length_m))
    if dsec is not None:
        zone = (dsec.get("zone_from_m", float, default=0.0),
                dsec.get("zone_to_m", float, default=corridor.length_m))
        if not 0.0 <= zone[0] < zone[1] <= corridor.length_m:
            raise dsec.error("detection zone must satisfy 0 <= from < to <= corridor length")
        detection = dsec.build(
            DetectionConfig,
            enabled=dsec.get("enabled", bool, default=detection.enabled),
            zone=zone,
            **dsec.present({"truth_min_vehicles": int}),
        )
    if detection.enabled and not corridor.rsus:
        raise (dsec or root).error("detection enabled but the corridor has no RSUs")

    asec = root.sub("archive")
    retention = {}
    if asec is not None:
        retention = asec.present_ms("fixed_edge_retention_s", "fixed_edge_retention_ms", positive=True)
        asec.reject_unknown()

    vehicles = []
    spawn_ms: dict[str, int] = {}
    for item, path in root.seq("vehicles"):
        s = root.item_section(item, path)
        spawn = _parse_spawn_fields(s, s.get_ms("spawn_t_s", positive=False, default=0.0), corridor.length_m)
        s.reject_unknown()
        _register_spawn(spawn_ms, spawn, s)
        vehicles.append(spawn)

    script = _parse_script(root, spawn_ms, {s.signal_id for s in corridor.signals}, corridor.length_m)

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
        handoff=handoff_cfg,
        mobility=mobility_cfg,
        detection=detection,
        vehicles=vehicles,
        script=script,
        **retention,
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
            data = path.read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}", source=str(path))
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ConfigError(f"not UTF-8: {exc.reason} at byte {exc.start}", str(path), line)
        return parse_scenario(text, source=str(path))
    candidate = importlib.resources.files("cvsim") / "scenarios" / f"{path_or_name}.yaml"
    if candidate.is_file():
        return parse_scenario(candidate.read_text(encoding="utf-8"), source=f"{path_or_name}.yaml")
    names = ", ".join(bundled_scenario_names())
    raise ConfigError(
        f"no such file, and no bundled scenario named {path_or_name!r} (bundled: {names})",
        source=path_or_name,
    )
