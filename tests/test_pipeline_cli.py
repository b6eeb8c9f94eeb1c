import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

from radarfuse import cli, clustering, recording, simulation, telemetry
from radarfuse.clustering import ClusterAlgorithm
from radarfuse.config import (ConfigError, load_config, load_scenario,
                              paper_config_doc)
from radarfuse.geometry import Pose
from radarfuse.pipeline import Pipeline, replay_through
from radarfuse.recording import LogRecord
from radarfuse.simulation import (NoiseSpec, RadarSpec, Scenario, WalkerSpec,
                                  simulate)

SRC = Path(__file__).resolve().parents[1] / "src"


def small_scenario(seed=5, duration=12.0):
    radar = RadarSpec(radar_id="r0",
                      pose=Pose(x=6.0, y=0.05, z=2.0,
                                pitch=math.radians(-10.0)),
                      azimuth_fov=math.radians(120),
                      elevation_fov=math.radians(40),
                      max_range=14.0, frame_rate=10.0)
    walker = WalkerSpec(walker_id=0, entry_time=0.0, speed=1.0,
                        waypoints=((2.0, 3.0), (10.0, 3.0)))
    return Scenario(radars=(radar,), walkers=(walker,),
                    noise=NoiseSpec(ghost_rate=0.2, dropout_prob=0.0),
                    doppler_zero_suppression=False, duration=duration,
                    seed=seed)


def small_config(radar_ids=("r0",)):
    doc = paper_config_doc()
    doc["radars"] = [{"radar_id": rid,
                      "pose": {"x": 6.0, "y": 0.05, "z": 2.0,
                               "pitch_deg": -10.0}}
                     for rid in radar_ids]
    return load_config(doc)


class TestConfig:
    def test_paper_config_builds(self):
        cfg = load_config(paper_config_doc())
        assert [r.radar_id for r in cfg.radars] == ["wall_a", "wall_b",
                                                    "ceiling"]
        assert cfg.radars[0].pose.yaw == pytest.approx(-math.pi / 2)
        assert cfg.radars[0].pose.pitch == pytest.approx(math.radians(-5.0))
        assert cfg.clustering.algorithm is ClusterAlgorithm.DBSCAN
        assert [z.zone_id for z in cfg.zones] == ["room"]

    def test_paper_config_poses_are_the_scenarios(self):
        # the configured poses equal the simulated ones exactly: a pose
        # error of a few degrees already shows in the count
        cfg = load_config(paper_config_doc())
        assert [(r.radar_id, r.pose) for r in cfg.radars] == \
            [(r.radar_id, r.pose) for r in simulation.paper_scenario().radars]

    def test_paper_config_room_is_the_scenarios(self):
        # the grid's bounds are the simulated room, the 12 x 6 m of the
        # paper's deployment
        grid = load_config(paper_config_doc()).grid
        sc = simulation.paper_scenario()
        assert (grid.bounds_x, grid.bounds_y) == (sc.room_x, sc.room_y)

    def test_missing_radars(self):
        with pytest.raises(ConfigError, match="radars"):
            load_config({"radars": []})

    def test_field_path_in_error(self):
        doc = paper_config_doc()
        doc["radars"][1]["pose"]["x"] = "not-a-number"
        with pytest.raises(ConfigError) as ei:
            load_config(doc)
        assert ei.value.path == "radars[1].pose.x"

    def test_duplicate_radar_id(self):
        doc = paper_config_doc()
        doc["radars"][1]["radar_id"] = "wall_a"
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(doc)

    def test_dbscan_eps_past_optics_radius_loads(self):
        # OPTICS's ordering radius does not bound a DBSCAN config's eps
        cfg = load_config({"radars": [{"radar_id": "r0"}],
                           "clustering": {"algorithm": "dbscan",
                                          "eps": 2.5}})
        assert cfg.clustering.eps == 2.5

    def test_unknown_algorithm(self):
        doc = paper_config_doc()
        doc["clustering"]["algorithm"] = "kmeans"
        with pytest.raises(ConfigError, match="algorithm"):
            load_config(doc)

    def test_default_whole_room_zone(self):
        doc = paper_config_doc()
        assert "zones" not in doc
        cfg = load_config(doc)
        (zone,) = cfg.zones
        assert zone.zone_id == "room"
        assert zone.center == (6.0, 3.0)
        assert (zone.len_x, zone.len_y) == (12.0, 6.0)

    @pytest.mark.parametrize("load,edit,path", [
        pytest.param(load_config, lambda d: d.update(mqtt={"throttle_s": 2.0}),
                     "mqtt.throttle_s", id="mqtt"),
        pytest.param(load_config,
                     lambda d: d.update(tracker={"throttle_s": 2.0}),
                     "tracker.throttle_s", id="tracker"),
        pytest.param(load_config,
                     lambda d: d.update(zone=[{"zone_id": "room",
                                               "len_x": 12.0, "len_y": 6.0}]),
                     "zone", id="root-zone"),
        pytest.param(load_config,
                     lambda d: d["radars"][0]["pose"].update(yaw=-90.0),
                     "radars[0].pose.yaw", id="pose-yaw"),
        pytest.param(load_config,
                     lambda d: d["clustering"].update(epsilon=0.3),
                     "clustering.epsilon", id="clustering-epsilon"),
        # OPTICS's ordering radius is a constant, not a setting
        pytest.param(load_config,
                     lambda d: d["clustering"].update(optics_max_eps=3.0),
                     "clustering.optics_max_eps",
                     id="clustering-optics_max_eps"),
        pytest.param(load_config,
                     lambda d: d.update(merge={"reorder_horizon": 100.0}),
                     "merge.reorder_horizon", id="merge-reorder_horizon"),
        pytest.param(load_config,
                     lambda d: d.update(merge={"late_policy": "drop"}),
                     "merge.late_policy", id="merge-late_policy"),
        pytest.param(load_config,
                     lambda d: d.update(grid={"cell_size": 0.5}),
                     "grid.cell_size", id="grid-cell_size"),
        pytest.param(load_config,
                     lambda d: d.update(zones=[{"zone_id": "room",
                                                "len_x": 12.0, "len_y": 6.0,
                                                "center_x": 6.0}]),
                     "zones[0].center_x", id="zone-center_x"),
        # QoS and retain are fixed per message kind, not settings
        pytest.param(load_config, lambda d: d.update(mqtt={"qos_status": 0}),
                     "mqtt.qos_status", id="mqtt-qos_status"),
        pytest.param(load_config, lambda d: d.update(mqtt={"qos_event": 1}),
                     "mqtt.qos_event", id="mqtt-qos_event"),
        pytest.param(load_config,
                     lambda d: d.update(mqtt={"retain_status": True}),
                     "mqtt.retain_status", id="mqtt-retain_status"),
        # the decode scales are the wire format's, not settings
        pytest.param(load_config,
                     lambda d: d["radars"][0].update(
                         units={"range_scale": 0.0005}),
                     "radars[0].units", id="radar-units"),
        pytest.param(load_scenario,
                     lambda d: d.update(walker=d.pop("walkers")),
                     "walker", id="scenario-walker"),
    ])
    def test_unknown_field_named(self, load, edit, path):
        doc = (paper_config_doc() if load is load_config else
               {"radars": [{"radar_id": "r0"}],
                "walkers": [{"walker_id": 0, "waypoints": [[2.0, 3.0]]}]})
        load(doc)
        edit(doc)
        with pytest.raises(ConfigError) as ei:
            load(doc)
        assert ei.value.path == path
        assert str(ei.value) == f"{path}: unknown field"

    def test_defaults_and_null(self):
        doc = paper_config_doc()
        doc["radars"][0]["threshold"] = {"range_max": None}
        doc["clustering"]["min_pts"] = 4.0
        cfg = load_config(doc)
        assert cfg.radars[0].threshold.range_max is None
        assert cfg.clustering.min_pts == 4
        assert type(cfg.clustering.min_pts) is int
        assert cfg.mqtt is None
        minimal = load_config({"radars": [{"radar_id": "r0"}],
                               "mqtt": {}})
        assert minimal.radars[0].pose == Pose()
        assert minimal.mqtt == telemetry.MqttConfig()

    def test_readme_deployment_config_loads(self):
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        (block,) = [b for b in re.findall(r"```yaml\n(.*?)```", readme, re.S)
                    if b.startswith("radars:")]
        cfg = load_config(yaml.safe_load(block))
        assert [r.radar_id for r in cfg.radars] == ["wall_a"]
        # every value the block states is the paper's, so a default that
        # changes without a README edit fails here
        paper = load_config(paper_config_doc())
        (radar,) = cfg.radars
        assert (radar.pose, radar.threshold, radar.buffer) == \
            (paper.radars[0].pose, paper.radars[0].threshold,
             paper.radars[0].buffer)
        for section in ("merge", "clustering", "tracker", "grid", "zones"):
            assert getattr(cfg, section) == getattr(paper, section), section

    def test_grid_defaults_are_the_paper_grid(self):
        # a config with no grid section gets the thresholds every
        # shipped config uses
        grid = load_config({"radars": [{"radar_id": "r0"}]}).grid
        assert (grid.on_threshold, grid.off_threshold) == (1, 1)
        assert grid == load_config(paper_config_doc()).grid

    @pytest.mark.parametrize("load,edit,path", [
        pytest.param(load_scenario,
                     lambda d: d["radars"][0].update(azimuth_fov_deg=math.nan),
                     "radars[0].azimuth_fov_deg", id="scenario-fov"),
        pytest.param(load_scenario,
                     lambda d: d["radars"][0].update(
                         pose={"yaw_deg": math.inf}),
                     "radars[0].pose.yaw_deg", id="scenario-yaw"),
        pytest.param(load_config,
                     lambda d: d["radars"][0]["pose"].update(
                         yaw_deg=math.inf),
                     "radars[0].pose.yaw_deg", id="config-yaw"),
    ])
    def test_non_finite_angle_named_by_its_key(self, load, edit, path):
        # an angle is held in radians but written in degrees: the error
        # names the key the file has, from either loader
        doc = (paper_config_doc() if load is load_config else
               {"radars": [{"radar_id": "r0"}]})
        load(doc)
        edit(doc)
        with pytest.raises(ConfigError) as ei:
            load(doc)
        assert str(ei.value) == f"{path}: must be finite"

    def test_degrees_converted_once(self):
        doc = paper_config_doc()
        doc["radars"][2]["pose"]["pitch_deg"] = -90.0
        cfg = load_config(doc)
        assert cfg.radars[2].pose.pitch == pytest.approx(-math.pi / 2)


@pytest.fixture(scope="module")
def sim_log(tmp_path_factory):
    d = tmp_path_factory.mktemp("simlog")
    log, truth = d / "sim.log", d / "truth.jsonl"
    simulate(small_scenario(), log, truth_path=truth)
    return log, truth


@pytest.fixture(scope="module")
def paper_log(tmp_path_factory):
    log = tmp_path_factory.mktemp("paperlog") / "paper.log"
    simulate(simulation.paper_scenario(seed=7), log)
    return log


class TestPipeline:
    def test_structural_build(self):
        pipe = Pipeline(load_config(paper_config_doc()))
        assert set(pipe.lanes) == {"wall_a", "wall_b", "ceiling"}

    def test_unknown_radar_ignored(self):
        pipe = Pipeline(small_config())
        pipe.feed_record(LogRecord(0, "nope", b"junk"))
        pipe.feed_record(LogRecord(1, "nope", b"junk"))
        pipe.flush()
        assert pipe.unknown_radar_records == 2

    def test_replay_produces_statuses(self, sim_log):
        log, _ = sim_log
        statuses, events = [], []
        replay_through(small_config(), recording.replay(
            log, as_fast_as_possible=True),
            status_sink=statuses.append, event_sink=events.append)
        assert statuses
        assert max(s.count for s in statuses) == 1
        assert any(e.kind == "enter" for e in events)

    def test_replay_deterministic(self, sim_log):
        log, _ = sim_log

        def run():
            statuses, events = [], []
            replay_through(small_config(),
                           recording.replay(log, as_fast_as_possible=True),
                           status_sink=statuses.append,
                           event_sink=events.append)
            return ([(s.ts_ns, s.count, tuple(s.occupants)) for s in statuses],
                    [(e.ts_ns, e.kind, e.track_id) for e in events])

        assert run() == run()

    def test_mqtt_output_deterministic(self, sim_log):
        """Every status is published once, whatever the wall clock does."""
        log, _ = sim_log

        def run():
            statuses, published = [], []
            client = RecordingClient(published)
            pub = telemetry.Publisher(cfg=telemetry.MqttConfig(),
                                      client_factory=lambda: client)
            replay_through(small_config(),
                           recording.replay(log, as_fast_as_possible=True),
                           status_sink=statuses.append, publisher=pub)
            return statuses, published

        statuses, first = run()
        _, second = run()
        assert first == second
        states = [p for t, p in first if t.endswith("/state")]
        assert states == [telemetry.serialize_status(s) for s in statuses]
        assert len(states) > 1

    def test_windows_clustered_before_closing_record(self, monkeypatch,
                                                     paper_log):
        # each window of the paper log is clustered once, by an earlier
        # record than the one that closes it; the last is closed by the
        # flush, whose frames it holds
        pipe = Pipeline(load_config(paper_config_doc()))
        record = 0
        clustered, closed = [], []
        dbscan = clustering._dbscan

        def counted(*args):
            clustered.append(record)
            return dbscan(*args)

        monkeypatch.setattr(clustering, "_dbscan", counted)
        push = pipe.clusterer.push

        def closing(*args):
            out = push(*args)
            closed.extend([record] * len(out))
            return out

        pipe.clusterer.push = closing
        for record, rec in enumerate(
                recording.replay(paper_log, as_fast_as_possible=True)):
            pipe.feed_record(rec)
        pipe.flush()
        assert len(closed) == 228
        assert len(clustered) == 229
        assert all(c < r for c, r in zip(clustered, closed))

    def test_source_error_propagates(self):
        def bad_records():
            yield LogRecord(0, "r0", b"")
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            replay_through(small_config(), bad_records())


class RecordingClient:
    """Stand-in MQTT client: records (topic, payload) and lifecycle calls."""

    def __init__(self, published, calls=None):
        self.published = published
        self.calls = calls if calls is not None else []

    def connect(self):
        self.calls.append("connect")

    def publish(self, topic, payload, qos=0, retain=False):
        self.published.append((topic, payload))

    def disconnect(self):
        self.calls.append("disconnect")


@pytest.fixture
def small_cfg_path(tmp_path):
    doc = paper_config_doc()
    doc["radars"] = [{"radar_id": "r0",
                      "pose": {"x": 6.0, "y": 0.05, "z": 2.0,
                               "pitch_deg": -10.0}}]
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(doc))
    return cfg_path


class TestCli:
    def test_simulate_replay_eval_exit_codes(self, tmp_path, sim_log,
                                             small_cfg_path, capsys):
        log, truth = sim_log
        cfg_path = small_cfg_path
        status = tmp_path / "status.jsonl"
        rc = cli.cli(["replay", "--config", str(cfg_path), "--log", str(log),
                      "--fast", "--status-log", str(status)])
        assert rc == 0
        assert status.exists() and status.read_text().strip()
        rc = cli.cli(["eval", "--pipeline-log", str(status),
                      "--truth", str(truth), "--window", "10"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"mae", "convergence_time_s", "peak_estimate"}

    def test_simulate_cli(self, tmp_path):
        out = tmp_path / "sim.log"
        rc = cli.cli(["simulate", "--scenario", "paper", "--out", str(out),
                      "--truth", str(tmp_path / "t.jsonl"), "--seed", "1"])
        # the paper scenario takes a while; use header check only
        assert rc == 0
        _, header = next(recording.read_jsonl(out))
        assert header["radars"] == ["ceiling", "wall_a", "wall_b"]

    @pytest.mark.parametrize("value", [".nan", ".inf"])
    def test_non_finite_scenario_exit_2(self, tmp_path, capsys, value):
        # rejected before the log is opened, so no file is left behind
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            "radars: [{radar_id: r0}]\n"
            "walkers: [{walker_id: 0, waypoints: [[1.0, 1.0]]}]\n"
            f"duration: {value}\n")
        out = tmp_path / "sim.log"
        rc = cli.cli(["simulate", "--scenario", str(scenario), "--out",
                      str(out), "--truth", str(tmp_path / "t.jsonl")])
        assert rc == 2
        assert "error: duration: must be finite" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "t.jsonl").exists()

    def test_frame_rate_past_one_tick_per_ns_exit_2(self, tmp_path, capsys):
        # 2e9 Hz ticks fall half a ns apart: rejected before the log is
        # opened, so no file is left behind
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text("radars: [{radar_id: r0, frame_rate: 2.0e+9}]\n"
                            "duration: 1.0e-6\n")
        out = tmp_path / "sim.log"
        rc = cli.cli(["simulate", "--scenario", str(scenario), "--out",
                      str(out), "--truth", str(tmp_path / "t.jsonl")])
        assert rc == 2
        assert "error: radars[0].frame_rate: must be > 0 and <= 1e+09" in \
            capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize("source", ["paper", "yaml", "yaml-flag"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, source):
        argv = ["simulate", "--out", str(tmp_path / "sim.log"),
                "--truth", str(tmp_path / "t.jsonl")]
        if source == "paper":
            argv += ["--scenario", "paper", "--seed", "-1"]
        else:
            # yaml-flag: a valid seed in the file, -1 from --seed
            seed = -1 if source == "yaml" else 3
            scenario = tmp_path / "scenario.yaml"
            scenario.write_text(f"radars: [{{radar_id: r0}}]\nseed: {seed}\n")
            argv += ["--scenario", str(scenario)]
            if source == "yaml-flag":
                argv += ["--seed", "-1"]
        assert cli.cli(argv) == 2
        assert "error: seed: must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "sim.log").exists()
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize("header", [
        pytest.param('{"format":"radarfuse-log","version":1}',
                     id="no-radars"),
        pytest.param('{"format":"radarfuse-log","version":1,'
                     '"radars":"wall_a"}', id="radars-string"),
    ])
    def test_replay_bad_header_radars_exit_2(self, tmp_path, capsys,
                                             header):
        log = tmp_path / "bad.log"
        log.write_text(header + "\n")
        status = tmp_path / "status.jsonl"
        assert cli.cli(["replay", "--config", "paper", "--log", str(log),
                        "--fast", "--status-log", str(status)]) == 2
        assert f"error: {log}: line 1: header radars must be a list" in \
            capsys.readouterr().err
        assert not status.exists()

    @pytest.mark.parametrize("header", [
        pytest.param(None, id="missing"),
        pytest.param("not json", id="not-json"),
        pytest.param('{"format":"radarfuse-log","version":2,"radars":[]}',
                     id="version"),
    ])
    def test_bad_log_leaves_outputs_alone(self, tmp_path, capsys, header):
        # the header is read before an output file is opened, so an
        # earlier run's output survives
        log = tmp_path / "bad.log"
        if header is not None:
            log.write_text(header + "\n")
        outputs = [tmp_path / "status.jsonl", tmp_path / "events.jsonl"]
        for path in outputs:
            path.write_text("earlier run\n")
        assert cli.cli(["replay", "--config", "paper", "--log", str(log),
                        "--status-log", str(outputs[0]),
                        "--event-log", str(outputs[1])]) == 2
        assert str(log) in capsys.readouterr().err
        assert [p.read_text() for p in outputs] == ["earlier run\n"] * 2

    def test_commands(self, tmp_path, sim_log, capsys):
        assert cli.cli(["--help"]) == 0
        assert "{replay,simulate,eval}" in capsys.readouterr().out
        # paced replay is `replay --speed`, a log copy is a file copy
        log, _ = sim_log
        out = tmp_path / "copy.log"
        assert cli.cli(["record", "--log", str(log), "--out", str(out)]) == 2
        assert not out.exists()
        assert cli.cli(["run", "--config", "paper", "--log", str(log)]) == 2
        assert "invalid choice: 'run'" in capsys.readouterr().err

    def test_bad_config_path_exit_2(self, tmp_path, sim_log, capsys):
        log, _ = sim_log
        rc = cli.cli(["replay", "--config", str(tmp_path / "nope.yaml"),
                      "--log", str(log)])
        assert rc == 2

    def test_config_error_exit_2(self, tmp_path, sim_log, capsys):
        log, _ = sim_log
        bad = tmp_path / "bad.yaml"
        bad.write_text("radars: []\n")
        rc = cli.cli(["replay", "--config", str(bad), "--log", str(log)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,path", [
        pytest.param(lambda d: d.update(mqtt={"qos_status": 2}),
                     "mqtt.qos_status", id="mqtt-qos_status"),
        pytest.param(lambda d: d.update(mqtt={"qos_event": 2}),
                     "mqtt.qos_event", id="mqtt-qos_event"),
        pytest.param(lambda d: d.update(mqtt={"port": 0}),
                     "mqtt.port", id="mqtt-port-0"),
        pytest.param(lambda d: d.update(mqtt={"port": 65536}),
                     "mqtt.port", id="mqtt-port-65536"),
        pytest.param(lambda d: d.update(mqtt={"port": "1883"}),
                     "mqtt.port", id="mqtt-port-str"),
        pytest.param(lambda d: d.update(mqtt={"topic_prefix": "home/#"}),
                     "mqtt.topic_prefix", id="mqtt-topic_prefix-hash"),
        pytest.param(lambda d: d.update(mqtt={"topic_prefix": "home/+/x"}),
                     "mqtt.topic_prefix", id="mqtt-topic_prefix-plus"),
        pytest.param(lambda d: d.update(mqtt={"queue_limit": 0}),
                     "mqtt.queue_limit", id="mqtt-queue_limit"),
        pytest.param(lambda d: d.update(mqtt={"retain_status": "yes"}),
                     "mqtt.retain_status", id="mqtt-retain_status"),
        pytest.param(lambda d: d.update(grid={"bounds_x": [12.0, 0.0]},
                                        zones=[{"zone_id": "room",
                                                "len_x": 12.0,
                                                "len_y": 6.0}]),
                     "grid.bounds_x", id="grid-bounds_x"),
        pytest.param(lambda d: d.update(grid={"bounds_y": [6.0, 0.0]}),
                     "grid.bounds_y", id="grid-bounds_y-no-zones"),
        pytest.param(lambda d: d["clustering"].update(min_pts=4.7),
                     "clustering.min_pts", id="clustering-min_pts"),
        pytest.param(lambda d: d.update(zones=[{"zone_id": "lab/1",
                                                "len_x": 12.0,
                                                "len_y": 6.0}]),
                     "zones[0].zone_id", id="zones-zone_id"),
    ])
    def test_bad_value_exit_2(self, tmp_path, sim_log, capsys, edit, path):
        log, _ = sim_log
        doc = paper_config_doc()
        edit(doc)
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc))
        rc = cli.cli(["replay", "--config", str(bad), "--log", str(log),
                      "--fast"])
        assert rc == 2
        assert f"config error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("edit,path,message", [
        pytest.param(lambda d: d.update(tracker={"miss_timeout": math.inf}),
                     "tracker.miss_timeout", "must be finite",
                     id="tracker-miss_timeout-inf"),
        pytest.param(lambda d: d.update(
                         merge={"reorder_horizon_ms": math.inf}),
                     "merge.reorder_horizon_ms", "must be finite",
                     id="merge-reorder_horizon_ms-inf"),
        pytest.param(lambda d: d.update(grid={"status_period": math.nan}),
                     "grid.status_period", "must be finite",
                     id="grid-status_period-nan"),
        pytest.param(lambda d: d["clustering"].update(eps=math.nan),
                     "clustering.eps", "must be finite",
                     id="clustering-eps-nan"),
        pytest.param(lambda d: d.update(grid={"status_period": -1}),
                     "grid.status_period", "status_period must be > 0",
                     id="grid-status_period-negative"),
        pytest.param(lambda d: d["radars"][0]["pose"].update(
                         pitch_deg=math.nan),
                     "radars[0].pose.pitch_deg", "must be finite",
                     id="pose-pitch_deg-nan"),
    ])
    def test_bad_number_exit_2_at_load(self, tmp_path, sim_log,
                                       small_cfg_path, capsys, edit, path,
                                       message):
        log, _ = sim_log
        doc = yaml.safe_load(small_cfg_path.read_text())
        edit(doc)
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc))
        status = tmp_path / "status.jsonl"
        rc = cli.cli(["replay", "--config", str(bad), "--log", str(log),
                      "--fast", "--status-log", str(status)])
        assert rc == 2
        assert f"config error: {path}: {message}" in capsys.readouterr().err
        assert not status.exists()

    def test_eval_reads_truth_and_one_zone(self, tmp_path, sim_log, capsys):
        _, truth = sim_log
        rows = [json.loads(line) for line in truth.read_text().splitlines()]
        assert cli.read_count_series(truth) == \
            [(r["t_s"], r["count"]) for r in rows]
        # a truth file passed as the pipeline log is read, not a crash
        assert cli.cli(["eval", "--pipeline-log", str(truth),
                        "--truth", str(truth), "--window", "10"]) == 0
        assert json.loads(capsys.readouterr().out)["mae"] == 0.0

        status = tmp_path / "status.jsonl"
        status.write_text(
            '{"t_s":0.5,"zone_id":"a","count":1,"targets":[]}\n'
            '{"t_s":0.5,"zone_id":"b","count":2,"targets":[]}\n'
            '{"t_s":0.9,"kind":"exit","track_id":3,"zone_id":"b"}\n'
            '{"t_s":2.5,"zone_id":"a","count":0,"targets":[]}\n'
            '{"t_s":2.5,"zone_id":"b","count":1,"targets":[]}\n')
        assert cli.read_count_series(status, "a") == [(0.5, 1), (2.5, 0)]
        assert cli.read_count_series(status, "b") == [(0.5, 2), (2.5, 1)]
        assert cli.read_count_series(status, "c") == []
        assert cli.cli(["eval", "--pipeline-log", str(status),
                        "--truth", str(truth), "--zone", "b"]) == 0

    @pytest.mark.parametrize("flag", ["--pipeline-log", "--truth"])
    @pytest.mark.parametrize("text,message", [
        pytest.param('{"t_s":0.5,"zone_id":"a","count":1}\n{"t_s":\n',
                     "line 2: not a JSON object", id="not-json"),
        pytest.param('\n[1, 2]\n', "line 2: not a JSON object",
                     id="not-object"),
        pytest.param('{"zone_id":"a","count":1}\n',
                     "line 1: count without t_s", id="no-t_s"),
        pytest.param('{"t_s":0.5,"zone_id":"a","count":1}\n'
                     '{"t_s":0.5,"zone_id":"b","count":2}\n',
                     "line 2: zone 'b' after zone 'a'; pass --zone",
                     id="two-zones"),
        pytest.param('{"t_s":"x","count":1}\n',
                     "line 1: t_s 'x' and count 1 must be finite numbers",
                     id="t_s-string"),
        pytest.param('\n{"t_s":NaN,"count":1}\n',
                     "line 2: t_s nan and count 1 must be finite numbers",
                     id="t_s-nan"),
        pytest.param('{"t_s":1e400,"count":1}\n',
                     "line 1: t_s inf and count 1 must be finite numbers",
                     id="t_s-inf"),
        pytest.param('{"t_s":0.5,"count":null}\n',
                     "line 1: t_s 0.5 and count None must be finite numbers",
                     id="count-null"),
        pytest.param('{"t_s":0.5,"count":true}\n',
                     "line 1: t_s 0.5 and count True must be finite numbers",
                     id="count-bool"),
        pytest.param('{"t_s":0.5,"count":%d}\n' % 10 ** 400,
                     "line 1: t_s 0.5 and count %d must be finite numbers"
                     % 10 ** 400, id="count-huge"),
        pytest.param("", "no count lines", id="empty"),
        pytest.param('{"t_s":0.9,"kind":"exit","track_id":3}\n',
                     "no count lines", id="events-only"),
    ])
    def test_eval_bad_input_exit_2(self, tmp_path, sim_log, capsys, flag,
                                   text, message):
        _, truth = sim_log
        bad = tmp_path / "bad.jsonl"
        bad.write_text(text)
        argv = {"--pipeline-log": str(truth), "--truth": str(truth)}
        argv[flag] = str(bad)
        out = tmp_path / "eval.json"
        assert cli.cli(["eval", *(x for kv in argv.items() for x in kv),
                        "--out", str(out)]) == 2
        assert f"error: {bad}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_unknown_zone_exit_2(self, tmp_path, sim_log, capsys):
        _, truth = sim_log
        status = tmp_path / "status.jsonl"
        status.write_text('{"t_s":0.5,"zone_id":"a","count":1}\n')
        out = tmp_path / "eval.json"
        assert cli.cli(["eval", "--pipeline-log", str(status), "--truth",
                        str(truth), "--zone", "nope", "--out", str(out)]) == 2
        assert f"error: {status}: no count lines of zone 'nope'" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exit_2(self, capsys):
        assert cli.cli(["replay"]) == 2

    # `run` and `record` are deleted: with a bad --speed they still exit 2
    # and write nothing, now as unknown commands.
    @pytest.mark.parametrize("command, message", [
        ("run", "invalid choice: 'run'"),
        ("replay", "argument --speed: expected a positive finite number"),
        ("record", "invalid choice: 'record'"),
    ], ids=["run", "replay", "record"])
    @pytest.mark.parametrize("speed", ["0", "-1", "nan", "inf", "fast"])
    def test_bad_speed_exit_2(self, tmp_path, sim_log, capsys, command,
                              message, speed):
        log, _ = sim_log
        out = tmp_path / "out.jsonl"
        argv = [command, "--log", str(log), "--speed", speed]
        if command == "record":
            argv += ["--out", str(out)]
        else:
            argv += ["--config", "paper", "--status-log", str(out)]
        assert cli.cli(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--speed", "2", "--fast"],
                                       ["--fast", "--speed", "1"]])
    def test_speed_with_fast_exit_2(self, tmp_path, sim_log, capsys, flags):
        log, _ = sim_log
        status = tmp_path / "status.jsonl"
        assert cli.cli(["replay", "--config", "paper", "--log", str(log),
                        "--status-log", str(status), *flags]) == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not status.exists()

    @pytest.mark.parametrize("window", ["0", "-5", "nan", "inf", "wide"])
    def test_bad_window_exit_2(self, tmp_path, sim_log, capsys, window):
        _, truth = sim_log
        argv = ["eval", "--pipeline-log", str(truth), "--truth", str(truth),
                "--window", window, "--out", str(tmp_path / "eval.json")]
        assert cli.cli(argv) == 2
        assert "argument --window: expected a positive finite number" in \
            capsys.readouterr().err
        assert not (tmp_path / "eval.json").exists()

    def test_module_entry_point(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-m", "radarfuse.cli",
                               "replay"], env=env, capture_output=True)
        assert proc.returncode == 2

    def test_runtime_path_loads_no_scipy(self):
        # scipy is a test dependency only: importing scipy.spatial alone
        # adds about 38 MB of RSS to the daemon
        env = dict(os.environ, PYTHONPATH=str(SRC))
        code = ("import sys, radarfuse.cli, radarfuse.pipeline; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_corrupt_log_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.log"
        bad.write_text("not json\n")
        rc = cli.cli(["replay", "--config", "paper", "--log", str(bad)])
        assert rc == 2

    def test_paced_replay_matches_fast_replay(self, tmp_path, sim_log,
                                              small_cfg_path):
        log, _ = sim_log
        paced, fast = tmp_path / "paced.jsonl", tmp_path / "fast.jsonl"
        assert cli.cli(["replay", "--config", str(small_cfg_path),
                        "--log", str(log), "--speed", "1000",
                        "--status-log", str(paced)]) == 0
        assert cli.cli(["replay", "--config", str(small_cfg_path),
                        "--log", str(log), "--fast",
                        "--status-log", str(fast)]) == 0
        assert paced.read_bytes() == fast.read_bytes()
        assert fast.read_text().strip()

    @pytest.mark.parametrize("argv", [
        ["replay", "--speed", "1000"],
        ["replay", "--fast"],
    ])
    def test_publisher_disconnects_at_end(self, monkeypatch, sim_log,
                                          small_cfg_path, argv):
        log, _ = sim_log
        doc = yaml.safe_load(small_cfg_path.read_text())
        doc["mqtt"] = {"host": "broker", "port": 1884}
        small_cfg_path.write_text(yaml.safe_dump(doc))
        published, calls, brokers = [], [], []

        def client(host, port, client_id):
            brokers.append((host, port))
            return RecordingClient(published, calls)

        monkeypatch.setattr(telemetry, "MiniMqttClient", client)
        assert cli.cli(argv + ["--config", str(small_cfg_path),
                               "--log", str(log)]) == 0
        assert published
        assert calls == ["connect", "disconnect"]
        assert set(brokers) == {("broker", 1884)}

    def test_scenario_yaml_loading(self, tmp_path, capsys):
        sc_doc = {
            "duration": 3.0, "seed": 2,
            "radars": [{"radar_id": "r0",
                        "pose": {"x": 6.0, "y": 0.05, "z": 2.0,
                                 "pitch_deg": -10.0},
                        "elevation_fov_deg": 40.0}],
            "walkers": [{"walker_id": 0,
                         "waypoints": [[2.0, 3.0], [10.0, 3.0]]}],
            "noise": {"ghost_rate": 0.0, "dropout_prob": 0.0},
        }
        p = tmp_path / "sc.yaml"
        p.write_text(yaml.safe_dump(sc_doc))
        sc = load_scenario(p)
        assert sc.duration == 3.0
        assert sc.radars[0].elevation_fov == pytest.approx(math.radians(40))
        out = tmp_path / "sc.log"
        assert cli.cli(["simulate", "--scenario", str(p),
                        "--out", str(out)]) == 0
        assert out.exists()

        # bad scenarios are usage errors naming the field
        del sc_doc["radars"][0]["radar_id"]
        p.write_text(yaml.safe_dump(sc_doc))
        assert cli.cli(["simulate", "--scenario", str(p),
                        "--out", str(out)]) == 2
        assert "radars[0].radar_id" in capsys.readouterr().err
        sc_doc["radars"][0].update(radar_id="r0", pose={"x": "abc"})
        p.write_text(yaml.safe_dump(sc_doc))
        assert cli.cli(["simulate", "--scenario", str(p),
                        "--out", str(out)]) == 2
        assert "radars[0].pose.x" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        pytest.param(["--clustering", "optics"], id="clustering"),
        pytest.param(["--mqtt-url", "mqtt://h"], id="mqtt-url"),
    ])
    def test_config_only_flags_removed(self, tmp_path, sim_log, capsys,
                                       flags):
        # the config file is the one route to the clusterer and the broker
        log, _ = sim_log
        status = tmp_path / "status.jsonl"
        assert cli.cli(["replay", "--config", "paper", "--log", str(log),
                        "--fast", "--status-log", str(status)] + flags) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not status.exists()

    @pytest.mark.parametrize("mqtt,path", [
        pytest.param({"client_id": "x" * 65536}, "mqtt.client_id",
                     id="client_id"),
        pytest.param({"topic_prefix": "x" * 65536}, "mqtt.topic_prefix",
                     id="topic_prefix"),
        # the prefix fits; with the zone id its event topic does not
        pytest.param({"topic_prefix": "x" * 65520}, "mqtt.topic_prefix",
                     id="event-topic"),
    ])
    def test_mqtt_string_too_long_exit_2(self, monkeypatch, tmp_path,
                                         sim_log, small_cfg_path, capsys,
                                         mqtt, path):
        # refused at load, before any output or connection
        log, _ = sim_log
        doc = yaml.safe_load(small_cfg_path.read_text())
        doc["mqtt"] = mqtt
        small_cfg_path.write_text(yaml.safe_dump(doc))
        clients = []
        monkeypatch.setattr(telemetry, "MiniMqttClient",
                            lambda *a: clients.append(a))
        status = tmp_path / "status.jsonl"
        assert cli.cli(["replay", "--config", str(small_cfg_path),
                        "--log", str(log), "--fast",
                        "--status-log", str(status)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {path}: " in err
        assert "65535" in err
        assert not status.exists() and clients == []

    @pytest.mark.parametrize("mqtt,zone_id,path", [
        pytest.param({}, "a\0b", "zones[0].zone_id", id="zone_id"),
        pytest.param({"topic_prefix": "home\0x"}, "room",
                     "mqtt.topic_prefix", id="topic_prefix"),
        pytest.param({"client_id": "c\0"}, "room", "mqtt.client_id",
                     id="client_id"),
    ])
    def test_mqtt_string_with_nul_refused(self, tmp_path, mqtt, zone_id,
                                          path):
        # MQTT 3.1.1 §1.5.3: a string may not hold U+0000
        doc = paper_config_doc()
        doc["mqtt"] = mqtt
        doc["zones"] = [{"zone_id": zone_id, "len_x": 12.0, "len_y": 6.0}]
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError, match="U\\+0000") as exc:
            load_config(cfg_path)
        assert exc.value.path == path

    @pytest.mark.parametrize("section,field,value", [
        pytest.param("clustering", "window_seconds", 1e-10,
                     id="window_seconds-0.1ns"),
        pytest.param("clustering", "window_seconds", 4e-10,
                     id="window_seconds-0.4ns"),
        pytest.param("clustering", "window_seconds", 1e300,
                     id="window_seconds-overflow"),
        pytest.param("merge", "reorder_horizon_ms", 1e303,
                     id="reorder_horizon_ms-overflow"),
        pytest.param("grid", "status_period", 1e300,
                     id="status_period-overflow"),
        pytest.param("tracker", "miss_timeout", 1e300,
                     id="miss_timeout-overflow"),
    ])
    def test_duration_outside_ns_range_exit_2(self, tmp_path, sim_log,
                                              small_cfg_path, capsys,
                                              section, field, value):
        # below 1 ns, or past a float count of ns: refused at load,
        # before the existing status log is opened
        log, _ = sim_log
        doc = yaml.safe_load(small_cfg_path.read_text())
        doc.setdefault(section, {})[field] = value
        small_cfg_path.write_text(yaml.safe_dump(doc))
        status = tmp_path / "status.jsonl"
        status.write_bytes(b'{"kept": true}\n')
        assert cli.cli(["replay", "--config", str(small_cfg_path),
                        "--log", str(log), "--fast",
                        "--status-log", str(status)]) == 2
        assert f"config error: {section}.{field}: {field} must be > 0" \
            in capsys.readouterr().err
        assert status.read_bytes() == b'{"kept": true}\n'

    def test_mqtt_environment_ignored(self, monkeypatch, sim_log,
                                      small_cfg_path):
        log, _ = sim_log
        monkeypatch.setenv("RADARFUSE_MQTT_URL", "mqtt://h:1883")
        clients = []
        monkeypatch.setattr(telemetry, "MiniMqttClient",
                            lambda *a: clients.append(a))
        assert cli.cli(["replay", "--config", str(small_cfg_path),
                        "--log", str(log), "--fast"]) == 0
        assert clients == []

    def test_seed_applies_to_scenario_yaml(self, tmp_path):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            "radars: [{radar_id: r0, pose: {y: 0.05, z: 2.0}}]\n"
            "walkers: [{walker_id: 0, waypoints: [[2.0, 3.0], [10.0, 3.0]]}]\n"
            "duration: 2.0\nseed: 2\n")
        logs = {}
        for name, flags in [("own", []), ("1", ["--seed", "1"]),
                            ("2", ["--seed", "2"])]:
            logs[name] = tmp_path / f"{name}.log"
            assert cli.cli(["simulate", "--scenario", str(scenario),
                            "--out", str(logs[name]), *flags]) == 0
        assert logs["1"].read_bytes() != logs["2"].read_bytes()
        # without --seed the file's own seed renders
        assert logs["own"].read_bytes() == logs["2"].read_bytes()

    @pytest.mark.parametrize("command,flag", [
        ("replay", "--log"), ("replay", "--config"),
        ("replay", "--status-log"), ("replay", "--event-log"),
        ("simulate", "--scenario"), ("simulate", "--out"),
        ("simulate", "--truth"),
        ("eval", "--pipeline-log"), ("eval", "--truth"), ("eval", "--out"),
    ])
    def test_directory_path_exit_2(self, tmp_path, sim_log, small_cfg_path,
                                   capsys, command, flag):
        log, truth = sim_log
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text("radars: [{radar_id: r0}]\nduration: 1.0\n")
        paths = {
            "replay": {"--config": small_cfg_path, "--log": log,
                       "--status-log": tmp_path / "status.jsonl",
                       "--event-log": tmp_path / "events.jsonl"},
            "simulate": {"--scenario": scenario, "--out": tmp_path / "sim.log",
                         "--truth": tmp_path / "truth.jsonl"},
            "eval": {"--pipeline-log": truth, "--truth": truth,
                     "--out": tmp_path / "eval.json"},
        }[command]
        outputs = {"replay": ["--status-log", "--event-log"],
                   "simulate": ["--out", "--truth"], "eval": ["--out"]}[command]
        # an earlier run's outputs, which a bad path must leave alone
        earlier = {paths[f]: b'{"t_s":0.0}\n' for f in outputs if f != flag}
        for path, data in earlier.items():
            path.write_bytes(data)
        paths[flag] = tmp_path
        argv = [command, *(str(x) for kv in paths.items() for x in kv)]
        assert cli.cli(argv + (["--fast"] if command == "replay" else [])) == 2
        assert f"error: [Errno 21] Is a directory: '{tmp_path}'" in \
            capsys.readouterr().err
        assert {path: path.read_bytes() for path in earlier} == earlier

    def test_path_under_a_file_exit_2(self, tmp_path, sim_log, capsys):
        log, _ = sim_log
        (tmp_path / "file").write_text("")
        status = tmp_path / "file" / "status.jsonl"
        assert cli.cli(["replay", "--config", "paper", "--log", str(log),
                        "--fast", "--status-log", str(status)]) == 2
        assert f"error: [Errno 20] Not a directory: '{status}'" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        "--log", "--log-past-first-chunk", "--config", "--scenario",
        "--pipeline-log", "--truth"])
    def test_not_utf8_exit_2(self, tmp_path, sim_log, small_cfg_path, capsys,
                             flag):
        log, truth = sim_log
        bad = tmp_path / "bad"
        line = 2
        if flag == "--log":
            bad.write_bytes(b'{"format":"radarfuse-log","version":1,'
                            b'"radars":["r0"]}\n\xff\n')
        elif flag == "--log-past-first-chunk":
            # a text reader decodes ahead: the line is found all the same
            good = log.read_bytes()
            bad.write_bytes(good + b"\xff\n")
            line = good.count(b"\n") + 1
        elif flag in ("--config", "--scenario"):
            bad.write_bytes(b"radars:\n  - radar_id: r\xff\n")
        else:
            bad.write_bytes(b'{"t_s":0.5,"count":1}\n\xff\n')
        out = tmp_path / "out"
        argv = {
            "--log": ["replay", "--config", str(small_cfg_path), "--fast",
                      "--log", str(bad), "--status-log", str(out)],
            "--config": ["replay", "--config", str(bad), "--fast",
                         "--log", str(log), "--status-log", str(out)],
            "--scenario": ["simulate", "--scenario", str(bad),
                           "--out", str(out)],
            "--pipeline-log": ["eval", "--pipeline-log", str(bad),
                               "--truth", str(truth), "--out", str(out)],
            "--truth": ["eval", "--pipeline-log", str(truth),
                        "--truth", str(bad), "--out", str(out)],
        }[flag.removesuffix("-past-first-chunk")]
        assert cli.cli(argv) == 2
        assert f"error: {bad}: line {line}: not UTF-8 (invalid start byte)" \
            in capsys.readouterr().err
        if flag != "--log-past-first-chunk":
            assert not out.exists()

    def test_eval_span_too_long_exit_2(self, tmp_path, sim_log, capsys):
        _, truth = sim_log
        status = tmp_path / "status.jsonl"
        status.write_text('{"t_s":0,"count":1}\n{"t_s":1e300,"count":1}\n')
        out = tmp_path / "eval.json"
        t0 = time.monotonic()
        assert cli.cli(["eval", "--pipeline-log", str(status),
                        "--truth", str(truth), "--out", str(out)]) == 2
        assert time.monotonic() - t0 < 5.0
        assert (f"error: {status} and {truth}: a span of 1e+300 s is more "
                f"than {simulation.MAX_EVAL_SAMPLES} samples of 0.5 s") in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        pytest.param("replay --log v.log --status-log v.log",
                     "v.log and v.log", id="replay-log-as-status"),
        pytest.param("replay --log v.log --status-log ./v.log",
                     "./v.log and v.log", id="replay-log-spelled-./"),
        pytest.param("replay --log v.log --event-log link.log",
                     "link.log and v.log", id="replay-log-hard-link"),
        pytest.param("replay --log v.log --event-log cfg.yaml",
                     "cfg.yaml and cfg.yaml", id="replay-config-as-events"),
        pytest.param("replay --log v.log --status-log s.jsonl "
                     "--event-log s.jsonl", "s.jsonl and s.jsonl",
                     id="replay-status-as-events"),
        pytest.param("replay --log v.log --status-log new.jsonl "
                     "--event-log ./new.jsonl", "./new.jsonl and new.jsonl",
                     id="replay-new-output-twice"),
        pytest.param("simulate --scenario sc.yaml --out x.log --truth x.log",
                     "x.log and x.log", id="simulate-out-as-truth"),
        pytest.param("simulate --scenario sc.yaml --out sc.yaml",
                     "sc.yaml and sc.yaml", id="simulate-scenario-as-out"),
        pytest.param("simulate --scenario sc.yaml --out new.log "
                     "--truth ./sc.yaml", "./sc.yaml and sc.yaml",
                     id="simulate-scenario-as-truth"),
        pytest.param("eval --pipeline-log s.jsonl --truth t.jsonl "
                     "--out s.jsonl", "s.jsonl and s.jsonl",
                     id="eval-status-as-out"),
        pytest.param("eval --pipeline-log s.jsonl --truth t.jsonl "
                     "--out t.jsonl", "t.jsonl and t.jsonl",
                     id="eval-truth-as-out"),
    ])
    def test_output_names_an_input_exit_2(self, tmp_path, monkeypatch,
                                          sim_log, small_cfg_path, capsys,
                                          argv, message):
        # an output that is an input or another output, however spelled,
        # is refused before any file is truncated or created
        log, truth = sim_log
        monkeypatch.chdir(tmp_path)
        Path("v.log").write_bytes(log.read_bytes())
        os.link("v.log", "link.log")
        Path("sc.yaml").write_text("radars: [{radar_id: r0}]\n"
                                   "duration: 1.0\n")
        for name in ("s.jsonl", "t.jsonl", "x.log"):
            Path(name).write_bytes(truth.read_bytes())
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        argv = argv.split()
        if argv[0] == "replay":
            argv += ["--config", small_cfg_path.name, "--fast"]
        assert cli.cli(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message} are the same "
                                       "file\n")
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_eval_checks_out_before_writing(self, tmp_path, sim_log,
                                            capsys):
        _, truth = sim_log
        assert cli.cli(["eval", "--pipeline-log", str(truth), "--truth",
                        str(truth), "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: [Errno 21] Is a directory: '{tmp_path}'" in err

    @pytest.mark.parametrize("line", ["[1, 2]", '"x"', "5", "nope"])
    @pytest.mark.parametrize("flag", ["--log", "--pipeline-log", "--truth"])
    def test_line_not_a_json_object_exit_2(self, tmp_path, sim_log, capsys,
                                           flag, line):
        # one reader for the log, the status log and the truth file, so
        # one message
        log, truth = sim_log
        first = (log if flag == "--log" else truth).read_text().split("\n")[0]
        bad = tmp_path / "bad.jsonl"
        bad.write_text(f"{first}\n{line}\n")
        argv = {"--log": ["replay", "--config", "paper", "--fast",
                          "--log", str(bad)],
                "--pipeline-log": ["eval", "--pipeline-log", str(bad),
                                   "--truth", str(truth)],
                "--truth": ["eval", "--pipeline-log", str(truth),
                            "--truth", str(bad)]}[flag]
        assert cli.cli(argv) == 2
        assert f"error: {bad}: line 2: not a JSON object" in \
            capsys.readouterr().err
