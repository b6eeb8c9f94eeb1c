"""Release acceptance suite: one test per criterion.

These are end-to-end gates, deliberately heavier than the unit tests;
the terminal summary (see conftest.py) prints one PASS/FAIL line per
criterion.  The bundled reference scenario is simulated and replayed
once per session and shared by the criteria that score it.
"""

import dataclasses
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from radarfuse import cli, tlv
from radarfuse.clustering import dbscan, extract_eps_cut, optics
from radarfuse.filtering import (BufferConfig, BufferFilter, ThresholdConfig,
                                 threshold_filter)
from radarfuse.geometry import Pose, TransformTree
from radarfuse.occupancy import CellState, cell_tick
from radarfuse.simulation import (NoiseSpec, RadarSpec, Scenario, WalkerSpec,
                                  evaluate, paper_scenario, simulate,
                                  simulate_frames)
from radarfuse.telemetry import MqttConfig, Publisher, serialize_status
from radarfuse.occupancy import OccupancyEvent, ZoneStatus
from radarfuse.tracking import (TargetTrack, TrackerConfig, TrackStatus,
                                predict, update)

from _reference import brute_dbscan, core_partition, reference_hysteresis

SEC = 1_000_000_000


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def paper_run(tmp_path_factory):
    """Simulate the bundled scenario and replay it once, timing the lot."""
    d = tmp_path_factory.mktemp("acceptance")
    log, truth = d / "sim.log", d / "truth.jsonl"
    status, events = d / "status.jsonl", d / "events.jsonl"
    t0 = time.monotonic()
    assert cli.cli(["simulate", "--scenario", "paper", "--out", str(log),
                    "--truth", str(truth)]) == 0
    assert cli.cli(["replay", "--config", "paper", "--log", str(log),
                    "--fast", "--status-log", str(status),
                    "--event-log", str(events)]) == 0
    elapsed = time.monotonic() - t0
    metrics = evaluate(cli.read_count_series(status),
                       cli.read_truth_series(truth), smoothing_seconds=30.0)
    return {"dir": d, "log": log, "truth": truth, "status": status,
            "events": events, "elapsed": elapsed, "metrics": metrics}


def random_instance(rng, n_max=300):
    """Random clumps plus uniform chaff, the shapes clustering sees."""
    n = int(rng.integers(0, n_max + 1))
    blobs = int(rng.integers(1, 5))
    pts = []
    for _ in range(blobs):
        c = rng.uniform(0, 6, 3)
        k = n // (blobs + 1)
        pts.append(c + rng.normal(0, rng.uniform(0.05, 0.4), (k, 3)))
    rest = n - sum(len(p) for p in pts)
    pts.append(rng.uniform(0, 6, (rest, 3)))
    return np.concatenate(pts) if pts else np.empty((0, 3))


# ---------------------------------------------------------------- criteria

def test_criterion_01_end_to_end_count_accuracy(paper_run):
    """Simulate -> replay -> eval tracks the true occupant count."""
    m = paper_run["metrics"]
    assert m.convergence_time_s is not None
    assert m.mae <= 0.5
    assert m.peak_estimate == 4.0
    assert paper_run["elapsed"] < 60.0


def test_criterion_02_optics_dbscan_agreement(paper_run):
    """The clustering A/B switch works and the eps cut matches DBSCAN."""
    d = paper_run["dir"]
    status_o = d / "status_optics.jsonl"
    assert cli.cli(["replay", "--config", "paper", "--log",
                    str(paper_run["log"]), "--fast", "--clustering", "optics",
                    "--status-log", str(status_o)]) == 0
    metrics_o = evaluate(cli.read_count_series(status_o),
                         cli.read_truth_series(paper_run["truth"]),
                         smoothing_seconds=30.0)
    assert metrics_o.mae <= 0.5  # both arms produce a usable series

    rng = np.random.default_rng(41)
    for _ in range(200):
        pts = random_instance(rng)
        eps = float(rng.uniform(0.2, 0.6))
        min_pts = int(rng.integers(2, 8))
        a = dbscan(pts, eps, min_pts)
        order = optics(pts, min_pts, max_eps=2.0)
        b = extract_eps_cut(order, eps, pts)
        assert core_partition(a.labels, a.is_core) == \
            core_partition(b.labels, b.is_core)
        assert np.array_equal(a.is_core, b.is_core)


def test_criterion_03_dbscan_brute_force_match():
    """DBSCAN agrees exactly with the O(n^2) reference."""
    rng = np.random.default_rng(43)
    for _ in range(200):
        pts = random_instance(rng, n_max=120)
        eps = float(rng.uniform(0.2, 0.6))
        min_pts = int(rng.integers(2, 8))
        got = dbscan(pts, eps, min_pts)
        labels, core = brute_dbscan(pts, eps, min_pts)
        assert got.labels.tolist() == labels
        assert got.is_core.tolist() == core


def test_criterion_04_codec_round_trip_and_resync():
    units = tlv.DecodeUnits()
    rng = np.random.default_rng(47)
    for _ in range(1000):
        n = int(rng.integers(0, 40))
        rows = [[rng.uniform(0, 16), rng.uniform(-1.27, 1.27),
                 rng.uniform(-1.27, 1.27), rng.uniform(-5, 5),
                 rng.uniform(0, 40)] for _ in range(n)]
        blob = tlv.encode_points(rows, units)
        header = tlv.parse_header(blob)
        assert header.length == n * tlv.POINT_SIZE
        back = tlv.decode_points(blob[tlv.HEADER_SIZE:], units)
        assert back.shape == (n, 5)
        err = np.abs(np.array(rows).reshape(-1, 5) - back)
        assert (err[:, 0] <= units.range_scale).all()
        assert (err[:, 1] <= units.azimuth_scale).all()
        assert (err[:, 2] <= units.elevation_scale).all()
        assert (err[:, 3] <= units.doppler_scale).all()
        assert (err[:, 4] <= units.snr_scale).all()

    # corruption injection: garbage between intact framed records
    frames = [tlv.encode_frame([[1.0 + i, 0.1, 0.0, 0.5, 12.0]], units)
              for i in range(3)]
    garbage = bytes([0x13, 0x37, 0xAA, 0xBB, 0x02, 0x01])
    stream = garbage + frames[0] + garbage + frames[1] + frames[2] + garbage
    scanner = tlv.FrameScanner()
    records = list(scanner.feed(stream))
    assert len(records) == 3


def test_criterion_05_geometry_inverse_round_trip():
    """1e5 random pose/point inverse round trips stay within 1e-9 m."""
    rng = np.random.default_rng(53)
    worst = 0.0
    for _ in range(1000):
        pose = Pose(*rng.uniform(-10, 10, 3), *rng.uniform(-math.pi, math.pi, 3))
        r, t = pose.matrix(), pose.translation
        pts = rng.uniform(-20, 20, (100, 3))
        world = pts @ r.T + t
        back = (world - t) @ r
        worst = max(worst, float(np.max(np.abs(back - pts))))
        # isometry: pairwise distances preserved
        d0 = np.linalg.norm(pts[1:] - pts[:-1], axis=1)
        d1 = np.linalg.norm(world[1:] - world[:-1], axis=1)
        assert float(np.max(np.abs(d0 - d1))) <= 1e-9
    assert worst <= 1e-9


def test_criterion_06_tracker_filter_consistency():
    # scalar identity case: unit prior, unit measurement noise -> 0.5/0.5
    cfg = TrackerConfig(measurement_noise=1.0)
    track = TargetTrack(track_id=0, state=np.zeros(6), covariance=np.eye(6),
                        status=TrackStatus.CONFIRMED, hits=1, last_update_ns=0)
    z = np.array([1.0, 0.0, 0.0])
    post = update(track, z, SEC, cfg)
    assert abs(post.state[0] - 0.5) <= 1e-12
    assert abs(post.covariance[0, 0] - 0.5) <= 1e-12

    # noise-free convergence after 3 updates
    cfg = TrackerConfig(process_noise_accel=1e-6, measurement_noise=1e-6)
    track = TargetTrack(track_id=0, state=np.zeros(6), covariance=np.eye(6),
                        status=TrackStatus.CONFIRMED, hits=1, last_update_ns=0)
    errors = []
    for k in range(1, 9):
        truth = np.array([0.3 * k, -0.1 * k, 0.0])
        track = predict(track, 1.0, cfg)
        track = update(track, truth, k * SEC, cfg)
        errors.append(float(np.linalg.norm(track.position - truth)))
        assert np.min(np.linalg.eigvalsh(track.covariance)) >= -1e-9
    assert errors[-1] < 1e-6
    for a, b in zip(errors[2:], errors[3:]):
        assert b <= a + 1e-12

    # NIS coverage against a matched simulation model
    rng = np.random.default_rng(59)
    cfg = TrackerConfig(process_noise_accel=1.0, measurement_noise=0.2)
    dt = 0.5
    h = np.zeros((3, 6))
    h[0, 0] = h[1, 1] = h[2, 2] = 1.0
    r = cfg.measurement_noise ** 2 * np.eye(3)
    lo, hi = stats.chi2.ppf([0.025, 0.975], df=3)
    f = np.eye(6)
    f[0, 3] = f[1, 4] = f[2, 5] = dt
    qa = cfg.process_noise_accel ** 2
    q = np.zeros((6, 6))
    for a in range(3):
        q[a, a] = qa * dt ** 4 / 4
        q[a, a + 3] = q[a + 3, a] = qa * dt ** 3 / 2
        q[a + 3, a + 3] = qa * dt ** 2
    in_band = total = 0
    for _ in range(500):
        truth = np.zeros(6)
        truth[3:] = rng.uniform(-1, 1, 3)
        track = TargetTrack(
            track_id=0, state=np.concatenate([truth[:3] + rng.normal(0, 0.2, 3),
                                              np.zeros(3)]),
            covariance=np.diag([0.04, 0.04, 0.04, 1, 1, 1.0]),
            status=TrackStatus.CONFIRMED, hits=1, last_update_ns=0)
        for k in range(12):
            truth = f @ truth + rng.multivariate_normal(np.zeros(6), q)
            z = truth[:3] + rng.normal(0, cfg.measurement_noise, 3)
            track = predict(track, dt, cfg)
            innov = z - h @ track.state
            s = h @ track.covariance @ h.T + r
            nis = float(innov @ np.linalg.solve(s, innov))
            in_band += int(lo <= nis <= hi)
            total += 1
            track = update(track, z, (k + 1) * SEC, cfg)
            assert np.min(np.linalg.eigvalsh(track.covariance)) >= -1e-9
    assert in_band / total >= 0.90


def test_criterion_07_ghost_robustness():
    """Buffer filter kills >=95% of one-shot ghosts, keeps >=99% of
    walker points, measured against simulator labels."""
    radar = RadarSpec(radar_id="r0",
                      pose=Pose(x=6.0, y=3.0, z=3.0, pitch=-math.pi / 2),
                      azimuth_fov=math.radians(150),
                      elevation_fov=math.radians(150),
                      max_range=10.0, frame_rate=10.0)
    walker = WalkerSpec(walker_id=0, entry_time=0.0, speed=1.0,
                        waypoints=((2.0, 2.0), (10.0, 2.0), (10.0, 4.0),
                                   (2.0, 4.0)))
    sc = Scenario(radars=(radar,), walkers=(walker,),
                  noise=NoiseSpec(ghost_rate=2.0, dropout_prob=0.0),
                  doppler_zero_suppression=False, duration=40.0, seed=61)
    tree = TransformTree({"r0": radar.pose})
    origin = tuple(radar.pose.translation)
    buf = BufferFilter(BufferConfig())
    pending_in: dict[int, tuple] = {}
    seen_in, seen_out = Counter(), Counter()

    def survivors(rows, labels, out):
        """Labels of the rows kept in ``out``.  Both filters judge a row
        by its values alone, so equal rows share their fate and value
        membership picks out exactly the kept ones."""
        out = {tuple(r) for r in out.tolist()}
        return [lab for r, lab in zip(rows.tolist(), labels)
                if tuple(r) in out]

    for frame in simulate_frames(sc):
        rows = tree.to_world(frame.radar_id, frame.points)
        labels = ["ghost" if lab == "ghost" else "walker"
                  for lab in frame.labels]
        kept = threshold_filter(rows, ThresholdConfig(), origin)
        positions = kept[:, :3]
        pending_in[frame.ts_ns] = (positions,
                                   survivors(rows, labels, kept))
        emitted = buf.push(frame.ts_ns, positions)
        if emitted is not None:
            ts, pts = emitted
            positions, labels = pending_in.pop(ts)
            seen_in += Counter(labels)
            seen_out += Counter(survivors(positions, labels, pts))
    # trailing frames judged on partial support are not scored

    assert seen_in["ghost"] > 100 and seen_in["walker"] > 1000
    ghost_removed = 1.0 - seen_out["ghost"] / seen_in["ghost"]
    walker_survival = seen_out["walker"] / seen_in["walker"]
    assert ghost_removed >= 0.95
    assert walker_survival >= 0.99


def test_criterion_08_hysteresis_and_event_alternation(paper_run):
    # exhaustive equivalence with the history-window reference automaton
    for h_on, h_off in [(1, 1), (1, 5), (2, 3), (3, 5), (4, 2)]:
        for length in range(1, 13):
            for bits in range(1 << length):
                seq = [(bits >> i) & 1 == 1 for i in range(length)]
                cell = CellState()
                got = []
                for present in seq:
                    cell = cell_tick(cell, present, h_on, h_off)
                    got.append(cell.occupied)
                assert got == reference_hysteresis(seq, h_on, h_off), \
                    (h_on, h_off, seq)

    # enter/exit strictly alternate per (track, zone) over the full run
    seqs: dict[tuple, list] = {}
    with open(paper_run["events"], encoding="utf-8") as fh:
        for line in fh:
            ev = json.loads(line)
            seqs.setdefault((ev["track_id"], ev["zone_id"]),
                            []).append(ev["kind"])
    assert seqs
    for key, kinds in seqs.items():
        assert kinds[0] == "enter", key
        for a, b in zip(kinds, kinds[1:]):
            assert a != b, key


def test_criterion_09_replay_determinism(paper_run):
    d = paper_run["dir"]
    status2, events2 = d / "status2.jsonl", d / "events2.jsonl"
    assert cli.cli(["replay", "--config", "paper", "--log",
                    str(paper_run["log"]), "--fast",
                    "--status-log", str(status2),
                    "--event-log", str(events2)]) == 0
    assert events2.read_bytes() == paper_run["events"].read_bytes()
    assert status2.read_bytes() == paper_run["status"].read_bytes()
    metrics2 = evaluate(cli.read_count_series(status2),
                        cli.read_truth_series(paper_run["truth"]),
                        smoothing_seconds=30.0)
    assert metrics2.to_dict() == paper_run["metrics"].to_dict()


def test_criterion_10_telemetry_outage_recovery():
    # golden payload bytes
    st = ZoneStatus(zone_id="room", occupants=[(2, 7.25), (5, 0.449)],
                    count=2, ts_ns=12_500_000_000)
    assert serialize_status(st) == (
        b'{"zone_id":"room","ts_ms":12500,"count":2,'
        b'"targets":[{"id":2,"dwell_s":7.2},{"id":5,"dwell_s":0.4}]}')

    # 60 s broker outage under a fake clock: memory stays bounded and
    # publishing resumes from the retained backlog on reconnect
    broker = {"up": True, "published": []}

    class Client:
        def connect(self):
            if not broker["up"]:
                raise ConnectionError("down")

        def publish(self, topic, payload, qos=0, retain=False):
            if not broker["up"]:
                raise ConnectionError("down")
            broker["published"].append((topic, payload))

        def disconnect(self):
            pass

    clock = {"t": 0.0}
    pub = Publisher(cfg=MqttConfig(queue_limit=50),
                    client_factory=Client, clock=lambda: clock["t"])

    def offer(ts):
        pub.offer_status(ZoneStatus(zone_id="room", occupants=[], count=1,
                                    ts_ns=int(ts * SEC)))
        pub.pump()

    offer(0.0)
    assert len(broker["published"]) == 1

    broker["up"] = False
    for k in range(600):                      # 60 s outage, 10 Hz statuses
        clock["t"] = 0.1 * (k + 1)
        offer(clock["t"])
    assert len(pub._queue) <= 50              # bounded, oldest dropped
    assert pub.dropped > 0
    assert len(broker["published"]) == 1      # nothing leaked mid-outage

    broker["up"] = True
    clock["t"] = 120.0
    pub.pump()
    assert len(broker["published"]) == 1 + 50  # backlog drained in order
    offer(121.0)
    assert broker["published"][-1][0] == "radarfuse/occupancy/room/state"
    assert len(broker["published"]) == 1 + 50 + 1


# md5 of the paper scenario's rendered log and truth file (seed 7), and of
# the status and event JSONL that ``replay --fast`` writes for it; DBSCAN
# and OPTICS give the same bytes
GOLDEN_LOG_MD5 = "f117d33393c08abb1e4c80f8e0c36097"
GOLDEN_TRUTH_MD5 = "0f4ebb9a36ce8305d920670a581c4593"
GOLDEN_STATUS_MD5 = "83cb92296961bce60c70e86400e369ea"
GOLDEN_EVENTS_MD5 = "e5ea56bad07eef9dfb18e205b0c2a10d"


def _md5(path):
    return hashlib.md5(path.read_bytes()).hexdigest()


def test_golden_jsonl(paper_run):
    """Refactors keep the reference outputs byte for byte."""
    assert _md5(paper_run["log"]) == GOLDEN_LOG_MD5
    assert _md5(paper_run["truth"]) == GOLDEN_TRUTH_MD5
    assert _md5(paper_run["status"]) == GOLDEN_STATUS_MD5
    assert _md5(paper_run["events"]) == GOLDEN_EVENTS_MD5
    d = paper_run["dir"]
    status, events = d / "golden_status.jsonl", d / "golden_events.jsonl"
    assert cli.cli(["replay", "--config", "paper", "--log",
                    str(paper_run["log"]), "--fast", "--clustering", "optics",
                    "--status-log", str(status),
                    "--event-log", str(events)]) == 0
    assert _md5(status) == GOLDEN_STATUS_MD5
    assert _md5(events) == GOLDEN_EVENTS_MD5


# md5 of the clutter variant's rendered log (seed 7): the paper scenario
# with walker 0 alone and 40 ghosts per radar frame, so most of its bytes
# come from the ghost path; and of the status and event JSONL that
# `replay --fast` (paper config, DBSCAN) writes for it, whose dwell
# windows pass frames left with zero rows through the clusterer
GOLDEN_CLUTTER_LOG_MD5 = "9ee97e9b2f7e6bd2cced00a08174752c"
GOLDEN_CLUTTER_STATUS_MD5 = "ffc313781cce4d11bc442e24df41e91a"
GOLDEN_CLUTTER_EVENTS_MD5 = "8e84b99433f6f8dba93728015de28a57"


def test_golden_clutter_log(tmp_path):
    sc = paper_scenario(seed=7)
    sc = dataclasses.replace(
        sc, walkers=sc.walkers[:1],
        noise=dataclasses.replace(sc.noise, ghost_rate=40.0))
    log = tmp_path / "clutter.log"
    status, events = tmp_path / "status.jsonl", tmp_path / "events.jsonl"
    simulate(sc, log)
    assert _md5(log) == GOLDEN_CLUTTER_LOG_MD5
    assert cli.cli(["replay", "--config", "paper", "--log", str(log),
                    "--fast", "--clustering", "dbscan",
                    "--status-log", str(status),
                    "--event-log", str(events)]) == 0
    assert _md5(status) == GOLDEN_CLUTTER_STATUS_MD5
    assert _md5(events) == GOLDEN_CLUTTER_EVENTS_MD5


def test_compare_clustering_script(paper_run):
    """The A/B tool runs from a checkout and scores both backends alike."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "compare_clustering.py"),
         "--log", str(paper_run["log"]), "--truth", str(paper_run["truth"]),
         "--workdir", str(paper_run["dir"] / "ab")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert set(results) == {"dbscan", "optics"}
    assert results["dbscan"] == results["optics"]


def test_reference_experiment_script(tmp_path):
    """The reference script reproduces the paper run and says so; it
    exits 1 when the result is degraded."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_reference_experiment.py"),
         "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "result: OK" in proc.stderr


def test_backward_record_dropped(paper_run):
    """A radar record stamped 1 s before its predecessor is dropped: the
    replay finishes, and every status from more than 1 s before the
    faulty stamp is the clean run's."""
    d = paper_run["dir"]
    log, status = d / "backward.log", d / "backward_status.jsonl"
    faulty_ns = 29_100_000_000
    lines = paper_run["log"].read_text(encoding="utf-8").splitlines(True)
    for i, line in enumerate(lines[1:], start=1):
        doc = json.loads(line)
        if doc["radar_id"] == "wall_a" and doc["ts_ns"] == faulty_ns + SEC:
            doc["ts_ns"] = faulty_ns
            lines[i] = json.dumps(doc, separators=(",", ":")) + "\n"
            break
    else:
        pytest.fail("no wall_a record at 30.1 s")
    log.write_text("".join(lines), encoding="utf-8")
    assert cli.cli(["replay", "--config", "paper", "--log", str(log),
                    "--fast", "--status-log", str(status)]) == 0

    def rows(path):
        return [json.loads(line) for line in path.read_text().splitlines()]

    clean, faulty = rows(paper_run["status"]), rows(status)
    cut = faulty_ns / SEC - 1.0
    early = [r for r in clean if r["t_s"] < cut]
    assert early and [r for r in faulty if r["t_s"] < cut] == early
    assert faulty[-1]["t_s"] == clean[-1]["t_s"]   # replayed to the end
