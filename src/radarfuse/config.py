"""Pipeline and scenario YAML loading with field-path error reporting.

One YAML file describes the whole deployment: radars (pose and
per-radar filters), merge/clustering/tracker/grid parameters,
zones and optional MQTT.  A second kind describes a simulated scenario
for ``simulate``.  Both are read by one loader driven by the
dataclasses: a mapping holds exactly the fields of its dataclass, an
absent field takes the dataclass default, and every value is checked
against the field's annotation.  Angles in either file are degrees,
read from ``<field>_deg``; they are converted to radians exactly once,
here.
"""

from __future__ import annotations

import math
import types
import typing
from dataclasses import (MISSING, asdict, dataclass, fields, is_dataclass,
                         replace)
from enum import Enum

from . import recording, simulation
from .clustering import ClusterConfig
from .filtering import BufferConfig, ThresholdConfig
from .fusion import MergeConfig
from .geometry import Pose
from .occupancy import GridConfig, Zone
from .telemetry import MqttConfig, check_string, event_topic
from .tracking import TrackerConfig

# fields held in radians and written in degrees as ``<name>_deg``
_ANGLES = frozenset({"yaw", "pitch", "roll", "azimuth_fov", "elevation_fov"})


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class RadarConfig:
    radar_id: str
    pose: Pose = Pose()
    threshold: ThresholdConfig = ThresholdConfig()
    buffer: BufferConfig = BufferConfig()


@dataclass(frozen=True)
class PipelineConfig:
    radars: tuple[RadarConfig, ...]
    merge: MergeConfig = MergeConfig()
    clustering: ClusterConfig = ClusterConfig()
    tracker: TrackerConfig = TrackerConfig()
    grid: GridConfig = GridConfig()
    zones: tuple[Zone, ...] = ()
    mqtt: MqttConfig | None = None


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _key(name: str) -> str:
    """The YAML key of field ``name``."""
    return f"{name}_deg" if name in _ANGLES else name


def _load_dataclass(cls, doc, path: str):
    if not isinstance(doc, dict):
        raise ConfigError(path or "<root>",
                          f"expected a mapping, got {type(doc).__name__}")
    by_key = {_key(f.name): f for f in fields(cls)}
    for k in doc:
        if k not in by_key:
            raise ConfigError(_join(path, k), "unknown field")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for k, f in by_key.items():
        if k in doc:
            v = _load(hints[f.name], doc[k], _join(path, k))
            kwargs[f.name] = math.radians(v) if f.name in _ANGLES else v
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(_join(path, k), "required field missing")
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as e:
        # __post_init__ messages begin with the field they are about
        name = str(e).split(" ", 1)[0]
        raise ConfigError(_join(path, _key(name)) if _key(name) in by_key
                          else path, str(e)) from None


def _load(tp, value, path: str):
    """``value`` read as an instance of the annotation ``tp``."""
    if is_dataclass(tp):
        return _load_dataclass(tp, value, path)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        (tp,) = (a for a in args if a is not type(None))
        return _load(tp, value, path)
    if origin is tuple:
        variadic = args[-1] is ...
        if (not isinstance(value, (list, tuple))
                or not variadic and len(value) != len(args)):
            raise ConfigError(path, "expected a list" if variadic
                              else f"expected a list of {len(args)}")
        elems = [args[0]] * len(value) if variadic else args
        return tuple(_load(t, v, f"{path}[{i}]")
                     for i, (t, v) in enumerate(zip(elems, value)))
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except (ValueError, TypeError):
            raise ConfigError(path, f"expected one of "
                              f"{[m.value for m in tp]}, got {value!r}") from None
    if tp in (bool, str):
        if not isinstance(value, tp):
            raise ConfigError(path, f"expected {tp.__name__}, "
                              f"got {type(value).__name__}")
        return value
    if tp not in (int, float):
        raise TypeError(f"{path}: no loader for {tp!r}")
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or tp is int and isinstance(value, float)
            and not value.is_integer()):
        raise ConfigError(path, "expected an integer" if tp is int
                          else "expected a number")
    return tp(value)


def _read_doc(path_or_doc) -> dict:
    if isinstance(path_or_doc, dict):
        return path_or_doc
    import yaml  # only files need it; ~1 MB RSS a dict-built config skips
    with open(path_or_doc, encoding="utf-8") as fh:
        try:
            return yaml.safe_load(fh)
        except yaml.YAMLError as e:
            raise ConfigError("<file>", f"invalid YAML: {e}") from None
        except UnicodeDecodeError:
            raise recording.not_utf8(path_or_doc) from None


def _check_unique(path: str, key: str, items):
    ids = [getattr(x, key) for x in items]
    if len(set(ids)) != len(ids):
        raise ConfigError(path, f"duplicate {key} in {ids}")


def load_config(path_or_doc) -> PipelineConfig:
    cfg = _load(PipelineConfig, _read_doc(path_or_doc), "")
    for path in simulation._non_finite(cfg):
        head, _, name = path.rpartition(".")
        raise ConfigError(_join(head, _key(name)), "must be finite")
    if not cfg.radars:
        raise ConfigError("radars", "at least one radar required")
    _check_unique("radars", "radar_id", cfg.radars)
    _check_unique("zones", "zone_id", cfg.zones)
    if not cfg.zones:
        # no zones configured: the whole grid plane is one default zone
        (x0, x1), (y0, y1) = cfg.grid.bounds_x, cfg.grid.bounds_y
        cfg = replace(cfg, zones=(Zone(
            zone_id="room", center=((x0 + x1) / 2, (y0 + y1) / 2),
            len_x=x1 - x0, len_y=y1 - y0),))
    if cfg.mqtt is not None:
        # a zone's event topic is the longer of its two
        for i, zone in enumerate(cfg.zones):
            try:
                check_string(f"with zones[{i}].zone_id the event topic",
                             event_topic(cfg.mqtt.topic_prefix, zone.zone_id))
            except ValueError as e:
                raise ConfigError("mqtt.topic_prefix", str(e)) from None
    return cfg


def load_scenario(path_or_doc) -> simulation.Scenario:
    """Scenario YAML for ``simulate``: the fields of
    :class:`simulation.Scenario` (FoVs in degrees)."""
    return _load(simulation.Scenario, _read_doc(path_or_doc), "")


def paper_config_doc(algorithm: str = "dbscan") -> dict:
    """Config dict for :func:`radarfuse.simulation.paper_scenario`: its
    radars' ids and poses and the clustering ``algorithm``.  Every other
    value, the whole-room zone included, is the config default."""
    return {
        "radars": [{"radar_id": spec.radar_id,
                    "pose": {_key(k): math.degrees(v) if k in _ANGLES else v
                             for k, v in asdict(spec.pose).items()}}
                   for spec in simulation.paper_scenario().radars],
        "clustering": {"algorithm": algorithm},
    }
