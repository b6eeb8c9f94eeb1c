import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from radarfuse import cli, recording, simulation, telemetry
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

    def test_unknown_algorithm(self):
        doc = paper_config_doc()
        doc["clustering"]["algorithm"] = "kmeans"
        with pytest.raises(ConfigError, match="algorithm"):
            load_config(doc)

    def test_default_whole_room_zone(self):
        doc = paper_config_doc()
        doc.pop("zones")
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
        pytest.param(load_config, lambda d: d.update(zone=d.pop("zones")),
                     "zone", id="root-zone"),
        pytest.param(load_config,
                     lambda d: d["radars"][0]["pose"].update(yaw=-90.0),
                     "radars[0].pose.yaw", id="pose-yaw"),
        pytest.param(load_config,
                     lambda d: d["clustering"].update(epsilon=0.3),
                     "clustering.epsilon", id="clustering-epsilon"),
        pytest.param(load_config,
                     lambda d: d["merge"].update(reorder_horizon=100.0),
                     "merge.reorder_horizon", id="merge-reorder_horizon"),
        pytest.param(load_config,
                     lambda d: d["merge"].update(late_policy="drop"),
                     "merge.late_policy", id="merge-late_policy"),
        pytest.param(load_config,
                     lambda d: d["zones"][0].update(center_x=6.0),
                     "zones[0].center_x", id="zone-center_x"),
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
        doc["radars"][0]["threshold"]["range_max"] = None
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
        assert recording.read_header(out)["radars"] == ["ceiling", "wall_a",
                                                        "wall_b"]

    def test_record_round_trip(self, tmp_path, sim_log):
        log, _ = sim_log
        out = tmp_path / "copy.log"
        rc = cli.cli(["record", "--log", str(log), "--out", str(out),
                      "--fast"])
        assert rc == 0
        assert out.read_bytes() == log.read_bytes()

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
        pytest.param(lambda d: d.update(mqtt={"queue_limit": 0}),
                     "mqtt.queue_limit", id="mqtt-queue_limit"),
        pytest.param(lambda d: d.update(mqtt={"retain_status": "yes"}),
                     "mqtt.retain_status", id="mqtt-retain_status"),
        pytest.param(lambda d: d["grid"].update(bounds_x=[12.0, 0.0]),
                     "grid.bounds_x", id="grid-bounds_x"),
        pytest.param(lambda d: (d.pop("zones"),
                                d["grid"].update(bounds_y=[6.0, 0.0])),
                     "grid.bounds_y", id="grid-bounds_y-no-zones"),
        pytest.param(lambda d: d["clustering"].update(min_pts=4.7),
                     "clustering.min_pts", id="clustering-min_pts"),
        pytest.param(lambda d: d["zones"][0].update(zone_id="lab/1"),
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

    def test_usage_error_exit_2(self, capsys):
        assert cli.cli(["replay"]) == 2

    @pytest.mark.parametrize("command", ["run", "replay", "record"])
    @pytest.mark.parametrize("speed", ["0", "-1", "nan", "inf", "fast"])
    def test_bad_speed_exit_2(self, tmp_path, sim_log, capsys, command,
                              speed):
        log, _ = sim_log
        argv = [command, "--log", str(log), "--speed", speed]
        if command == "record":
            argv += ["--out", str(tmp_path / "copy.log")]
        else:
            argv += ["--config", "paper"]
        assert cli.cli(argv) == 2
        assert "argument --speed: expected a positive finite number" in \
            capsys.readouterr().err
        assert not (tmp_path / "copy.log").exists()

    def test_module_entry_point(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-m", "radarfuse.cli",
                               "replay"], env=env, capture_output=True)
        assert proc.returncode == 2

    def test_corrupt_log_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.log"
        bad.write_text("not json\n")
        rc = cli.cli(["replay", "--config", "paper", "--log", str(bad)])
        assert rc == 2

    def test_run_matches_fast_replay(self, tmp_path, sim_log,
                                     small_cfg_path):
        log, _ = sim_log
        paced, fast = tmp_path / "run.jsonl", tmp_path / "replay.jsonl"
        assert cli.cli(["run", "--config", str(small_cfg_path),
                        "--log", str(log), "--speed", "1000",
                        "--status-log", str(paced)]) == 0
        assert cli.cli(["replay", "--config", str(small_cfg_path),
                        "--log", str(log), "--fast",
                        "--status-log", str(fast)]) == 0
        assert paced.read_bytes() == fast.read_bytes()
        assert fast.read_text().strip()

    @pytest.mark.parametrize("argv", [
        ["run", "--speed", "1000"],
        ["replay", "--fast"],
    ])
    def test_publisher_disconnects_at_end(self, monkeypatch, sim_log,
                                          small_cfg_path, argv):
        log, _ = sim_log
        published, calls = [], []
        monkeypatch.setattr(
            telemetry, "MiniMqttClient",
            lambda host, port, client_id: RecordingClient(published, calls))
        assert cli.cli(argv + ["--config", str(small_cfg_path),
                               "--log", str(log),
                               "--mqtt-url", "mqtt://broker:1884"]) == 0
        assert published
        assert calls == ["connect", "disconnect"]

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

    def test_mqtt_url_parsing(self, monkeypatch, sim_log, capsys):
        assert cli._parse_mqtt_url("mqtt://broker:1884") == ("broker", 1884)
        assert cli._parse_mqtt_url("broker") == ("broker", 1883)
        for bad in ("mqtt://h:abc", "mqtt://:1884", "h:0", "h:-1"):
            with pytest.raises(ConfigError):
                cli._parse_mqtt_url(bad)
        log, _ = sim_log
        argv = ["replay", "--config", "paper", "--log", str(log), "--fast"]
        assert cli.cli(argv + ["--mqtt-url", "mqtt://h:abc"]) == 2
        monkeypatch.setenv("RADARFUSE_MQTT_URL", "mqtt://h:abc")
        assert cli.cli(argv) == 2
        assert "mqtt url" in capsys.readouterr().err
