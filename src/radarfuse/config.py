"""Pipeline and scenario YAML loading with field-path error reporting.

One YAML file describes the whole deployment: radars (pose, decode
units, per-radar filters), merge/clustering/tracker/grid parameters,
zones and optional MQTT.  A second kind describes a simulated scenario
for ``simulate``.  Angles in either file are degrees; they are
converted to radians exactly once, here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from . import simulation
from .clustering import ClusterAlgorithm, ClusterConfig
from .filtering import BufferConfig, ThresholdConfig
from .fusion import LatePolicy, MergeConfig
from .geometry import Pose
from .occupancy import GridConfig, Zone
from .telemetry import MqttConfig
from .tlv import DecodeUnits
from .tracking import TrackerConfig


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class RadarConfig:
    radar_id: str
    pose: Pose
    units: DecodeUnits
    threshold: ThresholdConfig
    buffer: BufferConfig


@dataclass(frozen=True)
class PipelineConfig:
    radars: tuple[RadarConfig, ...]
    merge: MergeConfig
    clustering: ClusterConfig
    tracker: TrackerConfig
    grid: GridConfig
    zones: tuple[Zone, ...]
    mqtt: MqttConfig | None = None


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _names(cls) -> frozenset[str]:
    return frozenset(f.name for f in fields(cls))


def _expect_map(doc, path, allowed=None) -> dict:
    """``doc`` as a mapping; with ``allowed``, any other key is an error."""
    if not isinstance(doc, dict):
        raise ConfigError(path or "<root>",
                          f"expected a mapping, got {type(doc).__name__}")
    for k in doc:
        if allowed is not None and k not in allowed:
            raise ConfigError(_join(path, k), "unknown field")
    return doc


def _get(doc: dict, key: str, path: str, default=..., types=None):
    if key not in doc:
        if default is ...:
            raise ConfigError(_join(path, key), "required field missing")
        return default
    v = doc[key]
    if types is not None and not isinstance(v, types):
        raise ConfigError(_join(path, key),
                          f"expected {types}, got {type(v).__name__}")
    return v


def _num(doc, key, path, default=...):
    v = _get(doc, key, path, default)
    if v is default and default is not ...:
        return v
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(_join(path, key), "expected a number")
    return float(v)


def _section(doc, key, path, allowed) -> dict:
    """The optional mapping ``doc[key]``, {} when absent."""
    return _expect_map(_get(doc, key, path, {}), _join(path, key), allowed)


def _build(cls, kwargs, path):
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as e:
        raise ConfigError(path, str(e)) from None


def _build_numbers(cls, doc, key, path, ints=()):
    """``cls`` from the optional mapping ``doc[key]`` of its numeric
    fields; those named in ``ints`` are truncated to int."""
    d = _section(doc, key, path, _names(cls))
    path = _join(path, key)
    kwargs = {k: _num(d, k, path) for k in d}
    kwargs.update({k: int(kwargs[k]) for k in ints if k in kwargs})
    return _build(cls, kwargs, path)


def _pair(v, path, what="[lo, hi]") -> tuple[float, float]:
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float))
                   for x in v)):
        raise ConfigError(path, f"expected {what}")
    return float(v[0]), float(v[1])


def _read_doc(path_or_doc, allowed) -> dict:
    if isinstance(path_or_doc, dict):
        doc = path_or_doc
    else:
        import yaml  # only files need it; ~1 MB RSS a dict-built config skips
        with open(path_or_doc, encoding="utf-8") as fh:
            try:
                doc = yaml.safe_load(fh)
            except yaml.YAMLError as e:
                raise ConfigError("<file>", f"invalid YAML: {e}") from None
    return _expect_map(doc, "", allowed)


def _load_pose(doc, path) -> Pose:
    d = _expect_map(doc, path, ("x", "y", "z", "yaw_deg", "pitch_deg",
                                "roll_deg"))
    return _build(Pose, dict(
        x=_num(d, "x", path, 0.0), y=_num(d, "y", path, 0.0),
        z=_num(d, "z", path, 0.0),
        yaw=math.radians(_num(d, "yaw_deg", path, 0.0)),
        pitch=math.radians(_num(d, "pitch_deg", path, 0.0)),
        roll=math.radians(_num(d, "roll_deg", path, 0.0)),
    ), path)


def _load_radar(doc, path) -> RadarConfig:
    d = _expect_map(doc, path, _names(RadarConfig))
    return RadarConfig(
        radar_id=_get(d, "radar_id", path, types=str),
        pose=_load_pose(_get(d, "pose", path, {}), f"{path}.pose"),
        units=_build_numbers(DecodeUnits, d, "units", path),
        threshold=_build_numbers(ThresholdConfig, d, "threshold", path),
        buffer=_build_numbers(BufferConfig, d, "buffer", path,
                              ints=("window_frames", "min_support")))


def _load_zone(doc, path) -> Zone:
    d = _expect_map(doc, path, ("zone_id", "center", "len_x", "len_y"))
    cx, cy = _pair(_get(d, "center", path, [0.0, 0.0]), f"{path}.center",
                   "[x, y]")
    return _build(Zone, dict(
        zone_id=_get(d, "zone_id", path, types=str), center_x=cx, center_y=cy,
        len_x=_num(d, "len_x", path), len_y=_num(d, "len_y", path),
    ), path)


def load_config(path_or_doc) -> PipelineConfig:
    doc = _read_doc(path_or_doc, _names(PipelineConfig))

    radars_doc = _get(doc, "radars", "", types=list)
    if not radars_doc:
        raise ConfigError("radars", "at least one radar required")
    radars = tuple(_load_radar(r, f"radars[{i}]")
                   for i, r in enumerate(radars_doc))
    ids = [r.radar_id for r in radars]
    if len(set(ids)) != len(ids):
        raise ConfigError("radars", f"duplicate radar_id in {ids}")

    md = _section(doc, "merge", "", _names(MergeConfig))
    try:
        policy = LatePolicy(_get(md, "late_policy", "merge", "drop"))
    except ValueError:
        raise ConfigError("merge.late_policy",
                          f"unknown policy {md.get('late_policy')!r}") from None
    merge = _build(MergeConfig, dict(
        reorder_horizon_ms=_num(md, "reorder_horizon_ms", "merge", 100.0),
        late_policy=policy), "merge")

    cd = _section(doc, "clustering", "", _names(ClusterConfig))
    try:
        algo = ClusterAlgorithm(_get(cd, "algorithm", "clustering", "dbscan"))
    except ValueError:
        raise ConfigError("clustering.algorithm",
                          f"unknown algorithm {cd.get('algorithm')!r}") from None
    clustering = _build(ClusterConfig, dict(
        window_seconds=_num(cd, "window_seconds", "clustering", 0.5),
        algorithm=algo,
        eps=_num(cd, "eps", "clustering", 0.45),
        min_pts=int(_num(cd, "min_pts", "clustering", 4)),
        optics_max_eps=_num(cd, "optics_max_eps", "clustering", 2.0),
    ), "clustering")

    tracker = _build_numbers(TrackerConfig, doc, "tracker", "",
                             ints=("confirm_hits", "max_targets"))

    gd = _section(doc, "grid", "", _names(GridConfig))
    gkw = {}
    for k in gd:
        if k in ("bounds_x", "bounds_y"):
            gkw[k] = _pair(gd[k], f"grid.{k}")
        else:
            v = _num(gd, k, "grid")
            gkw[k] = int(v) if k in ("on_threshold", "off_threshold") else v
    grid = _build(GridConfig, gkw, "grid")

    zones_doc = _get(doc, "zones", "", [], types=list)
    if zones_doc:
        zones = tuple(_load_zone(z, f"zones[{i}]")
                      for i, z in enumerate(zones_doc))
        zids = [z.zone_id for z in zones]
        if len(set(zids)) != len(zids):
            raise ConfigError("zones", f"duplicate zone_id in {zids}")
    else:
        # no zones configured: the whole grid plane is one default zone
        cx = (grid.bounds_x[0] + grid.bounds_x[1]) / 2
        cy = (grid.bounds_y[0] + grid.bounds_y[1]) / 2
        zones = (Zone(zone_id="room", center_x=cx, center_y=cy,
                      len_x=grid.bounds_x[1] - grid.bounds_x[0],
                      len_y=grid.bounds_y[1] - grid.bounds_y[0]),)

    mqtt = None
    if doc.get("mqtt") is not None:
        mqtt = _build(MqttConfig,
                      _section(doc, "mqtt", "", _names(MqttConfig)), "mqtt")

    return PipelineConfig(
        radars=radars, merge=merge, clustering=clustering, tracker=tracker,
        grid=grid, zones=zones, mqtt=mqtt)


def _load_sim_radar(doc, path) -> simulation.RadarSpec:
    d = _expect_map(doc, path, ("radar_id", "pose", "azimuth_fov_deg",
                                "elevation_fov_deg", "max_range", "frame_rate",
                                "phase"))
    return simulation.RadarSpec(
        radar_id=_get(d, "radar_id", path, types=str),
        pose=_load_pose(_get(d, "pose", path, {}), f"{path}.pose"),
        azimuth_fov=math.radians(_num(d, "azimuth_fov_deg", path, 120.0)),
        elevation_fov=math.radians(_num(d, "elevation_fov_deg", path, 30.0)),
        max_range=_num(d, "max_range", path, 14.0),
        frame_rate=_num(d, "frame_rate", path, 10.0),
        phase=_num(d, "phase", path, 0.0))


def _load_walker(doc, path) -> simulation.WalkerSpec:
    d = _expect_map(doc, path, _names(simulation.WalkerSpec))
    waypoints = _get(d, "waypoints", path, types=list)
    dwells = _get(d, "dwells", path, [], types=list)
    return simulation.WalkerSpec(
        walker_id=_get(d, "walker_id", path, types=int),
        entry_time=_num(d, "entry_time", path, 0.0),
        waypoints=tuple(_pair(p, f"{path}.waypoints[{j}]", "[x, y]")
                        for j, p in enumerate(waypoints)),
        speed=_num(d, "speed", path, 1.0),
        dwells=tuple(_pair(p, f"{path}.dwells[{j}]", "[start, end]")
                     for j, p in enumerate(dwells)))


def load_scenario(path_or_doc) -> simulation.Scenario:
    """Scenario YAML for ``simulate``; mirrors :class:`simulation.Scenario`
    (FoVs in degrees)."""
    doc = _read_doc(path_or_doc, _names(simulation.Scenario))
    radars = _get(doc, "radars", "", [], types=list)
    walkers = _get(doc, "walkers", "", [], types=list)
    return simulation.Scenario(
        room_x=_pair(_get(doc, "room_x", "", [0.0, 12.0]), "room_x"),
        room_y=_pair(_get(doc, "room_y", "", [0.0, 6.0]), "room_y"),
        room_height=_num(doc, "room_height", "", 2.35),
        body_height=_num(doc, "body_height", "", 1.0),
        radars=tuple(_load_sim_radar(r, f"radars[{i}]")
                     for i, r in enumerate(radars)),
        walkers=tuple(_load_walker(w, f"walkers[{i}]")
                      for i, w in enumerate(walkers)),
        noise=_build_numbers(simulation.NoiseSpec, doc, "noise", ""),
        doppler_zero_suppression=_get(doc, "doppler_zero_suppression",
                                      "", True, types=bool),
        duration=_num(doc, "duration", "", 60.0),
        seed=_get(doc, "seed", "", 0, types=int))


def paper_config_doc(algorithm: str = "dbscan") -> dict:
    """Config dict matching :func:`radarfuse.simulation.paper_scenario`."""
    def radar(radar_id, x, yaw_deg, pitch_deg):
        return {"radar_id": radar_id,
                "pose": {"x": x, "y": 3.0, "z": 2.35, "yaw_deg": yaw_deg,
                         "pitch_deg": pitch_deg},
                "threshold": {"snr_min": 8.0, "doppler_abs_max": 5.0},
                "buffer": {"window_frames": 3, "support_radius": 0.4,
                           "min_support": 2}}
    return {
        "radars": [radar("wall_a", 0.05, -90.0, -5.0),
                   radar("wall_b", 11.95, 90.0, -5.0),
                   radar("ceiling", 6.0, 0.0, -90.0)],
        "merge": {"reorder_horizon_ms": 100.0, "late_policy": "drop"},
        "clustering": {"window_seconds": 0.5, "algorithm": algorithm,
                       "eps": 0.45, "min_pts": 4, "optics_max_eps": 2.0},
        "tracker": {"gate_distance": 1.0, "miss_timeout": 10.0,
                    "confirm_hits": 3, "max_targets": 20,
                    "process_noise_accel": 2.0, "measurement_noise": 0.15},
        # on_threshold 1: per-cell on-hysteresis would blank out targets
        # that cross cells faster than the threshold; enter latency is
        # already provided by track confirmation
        "grid": {"cell_size": 0.5, "on_threshold": 1, "off_threshold": 5,
                 "status_period": 2.0, "bounds_x": [0.0, 12.0],
                 "bounds_y": [0.0, 6.0]},
        "zones": [{"zone_id": "room", "center": [6.0, 3.0],
                   "len_x": 12.0, "len_y": 6.0}],
    }
