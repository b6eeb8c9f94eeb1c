"""Release acceptance suite: one test per criterion.

These are end-to-end gates, deliberately heavier than the unit tests;
the terminal summary (see conftest.py) prints one PASS/FAIL line per
criterion.  The bundled reference scenario is simulated and replayed
once per session and shared by the criteria that score it.
"""

import importlib.util
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
import yaml
from scipy import stats

from radarfuse import cli, tlv
from radarfuse.clustering import (ClusterAlgorithm, dbscan, extract_eps_cut,
                                  optics)
from radarfuse.config import load_config, paper_config_doc
from radarfuse.filtering import (BufferConfig, BufferFilter, ThresholdConfig,
                                 threshold_filter)
from radarfuse.geometry import Pose, TransformTree
from radarfuse.occupancy import CellState, cell_tick
from radarfuse.simulation import (NoiseSpec, RadarSpec, Scenario, WalkerSpec,
                                  evaluate)
from radarfuse.telemetry import MqttConfig, Publisher, serialize_status
from radarfuse.occupancy import OccupancyEvent, ZoneStatus
from radarfuse.tracking import TrackerConfig, _predict_axes, _update_axes

from _reference import (brute_dbscan, core_partition, labelled_frames,
                        reference_hysteresis, six_by_six)

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
                       cli.read_count_series(truth), smoothing_seconds=30.0)
    return {"dir": d, "log": log, "truth": truth, "status": status,
            "events": events, "elapsed": elapsed, "metrics": metrics}


@pytest.fixture(scope="session")
def optics_config(tmp_path_factory):
    """The paper config with OPTICS, as the YAML file a deployment
    would pass to ``replay --config``."""
    path = tmp_path_factory.mktemp("optics") / "optics.yaml"
    path.write_text(yaml.safe_dump(paper_config_doc("optics")))
    assert load_config(path).clustering.algorithm is ClusterAlgorithm.OPTICS
    return path


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


def test_criterion_02_optics_dbscan_agreement(paper_run, optics_config):
    """OPTICS chosen by config works and the eps cut matches DBSCAN."""
    d = paper_run["dir"]
    status_o = d / "status_optics.jsonl"
    assert cli.cli(["replay", "--config", str(optics_config), "--log",
                    str(paper_run["log"]), "--fast",
                    "--status-log", str(status_o)]) == 0
    metrics_o = evaluate(cli.read_count_series(status_o),
                         cli.read_count_series(paper_run["truth"]),
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
    # one quantum per field: range 0.25 mm, azimuth and elevation
    # 0.01 rad, doppler 0.28 mm/s, snr 0.1 dB
    range_q, azimuth_q, elevation_q, doppler_q, snr_q = tlv.COLUMN_SCALES
    rng = np.random.default_rng(47)
    for _ in range(1000):
        n = int(rng.integers(0, 40))
        rows = [[rng.uniform(0, 16), rng.uniform(-1.27, 1.27),
                 rng.uniform(-1.27, 1.27), rng.uniform(-5, 5),
                 rng.uniform(0, 40)] for _ in range(n)]
        decoder = tlv.FrameDecoder()
        (back,) = decoder.feed(tlv.encode_frame(rows), 0)
        # a point TLV (type 1044) of whole points
        assert decoder.unknown_tlv_count == 0
        assert decoder.misaligned_tlv_count == 0
        assert back.shape == (n, 5)
        err = np.abs(np.array(rows).reshape(-1, 5) - back)
        assert (err[:, 0] <= range_q).all()
        assert (err[:, 1] <= azimuth_q).all()
        assert (err[:, 2] <= elevation_q).all()
        assert (err[:, 3] <= doppler_q).all()
        assert (err[:, 4] <= snr_q).all()

    # corruption injection: garbage between intact framed records
    frames = [tlv.encode_frame([[1.0 + i, 0.1, 0.0, 0.5, 12.0]])
              for i in range(3)]
    garbage = bytes([0x13, 0x37, 0xAA, 0xBB, 0x02, 0x01])
    stream = garbage + frames[0] + garbage + frames[1] + frames[2] + garbage
    decoder = tlv.FrameDecoder()
    assert len(list(decoder.feed(stream, 0))) == 3
    # the trailing garbage, shorter than a preamble, stays buffered: its
    # last two bytes could begin one
    assert decoder.dropped_bytes == 2 * len(garbage)


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


def filter_update(state, cov, z, cfg):
    """One Kalman update of ``Tracker.step``'s per-axis filter; the
    block must stay PSD, since the step would restart the track."""
    state, cov, psd = _update_axes(state, cov, list(z), cfg)
    assert psd
    return state, cov


def test_criterion_06_tracker_filter_consistency():
    # scalar identity case: unit prior, unit measurement noise -> 0.5/0.5
    cfg = TrackerConfig(measurement_noise=1.0)
    z = np.array([1.0, 0.0, 0.0])
    state, cov = filter_update([0.0] * 6, (1.0, 0.0, 1.0), z, cfg)
    assert abs(state[0] - 0.5) <= 1e-12
    assert abs(six_by_six(cov)[0, 0] - 0.5) <= 1e-12

    # noise-free convergence after 3 updates
    cfg = TrackerConfig(process_noise_accel=1e-6, measurement_noise=1e-6)
    state, cov = [0.0] * 6, (1.0, 0.0, 1.0)
    errors = []
    for k in range(1, 9):
        truth = np.array([0.3 * k, -0.1 * k, 0.0])
        state, cov = _predict_axes(state, cov, 1.0, cfg)
        state, cov = filter_update(state, cov, truth, cfg)
        errors.append(float(np.linalg.norm(np.array(state[:3]) - truth)))
        assert np.min(np.linalg.eigvalsh(six_by_six(cov))) >= -1e-9
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
        state = [*(truth[:3] + rng.normal(0, 0.2, 3)), 0.0, 0.0, 0.0]
        cov = (0.04, 0.0, 1.0)
        for k in range(12):
            truth = f @ truth + rng.multivariate_normal(np.zeros(6), q)
            z = truth[:3] + rng.normal(0, cfg.measurement_noise, 3)
            state, cov = _predict_axes(state, cov, dt, cfg)
            innov = z - h @ np.array(state)
            s = h @ six_by_six(cov) @ h.T + r
            nis = float(innov @ np.linalg.solve(s, innov))
            in_band += int(lo <= nis <= hi)
            total += 1
            state, cov = filter_update(state, cov, z, cfg)
            assert np.min(np.linalg.eigvalsh(six_by_six(cov))) >= -1e-9
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

    for frame in labelled_frames(sc):
        labels = ["ghost" if lab == "ghost" else "walker"
                  for lab in frame.labels]
        kept = threshold_filter(frame.points, ThresholdConfig())
        positions = tree.to_world(frame.radar_id, kept)
        pending_in[frame.ts_ns] = (positions,
                                   survivors(frame.points, labels, kept))
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
                        cli.read_count_series(paper_run["truth"]),
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


def _golden_lines(scenario, tmp_path):
    """(the lines pinned for ``scenario`` at seed 7 in
    scripts/golden_md5.txt, the lines its render and replays print)."""
    scripts = pathlib.Path(__file__).resolve().parents[1] / "scripts"
    spec = importlib.util.spec_from_file_location(
        "golden_md5", scripts / "golden_md5.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    pinned, in_block = [], False
    for line in (scripts / "golden_md5.txt").read_text().splitlines():
        if not line.startswith(" "):      # a render: scenario, seed, md5s
            in_block = line.split()[:2] == [scenario, "7"]
        if in_block:
            pinned.append(line)
    return pinned, list(golden.seed_lines(7, tmp_path, only=scenario))


def test_golden_jsonl(tmp_path):
    """Seed 7's paper render and its DBSCAN and OPTICS replays print the
    lines pinned for them in scripts/golden_md5.txt, so a refactor that
    moves a log, truth, status, event or tracker byte fails here."""
    pinned, printed = _golden_lines("paper", tmp_path)
    assert printed == pinned


def test_golden_clutter_log(tmp_path):
    """The same for seed 7's clutter variant (walker 0 alone, 40 ghosts
    per radar frame) and its DBSCAN replay, whose dwell windows pass
    frames left with zero rows through the clusterer."""
    pinned, printed = _golden_lines("clutter", tmp_path)
    assert printed == pinned


def test_golden_eval_metrics(paper_run, capsys):
    """`eval` of the reference run prints the metrics it always has."""
    assert cli.cli(["eval", "--pipeline-log", str(paper_run["status"]),
                    "--truth", str(paper_run["truth"]), "--window", "30"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "mae": 0.3460411412876489, "convergence_time_s": 4.5,
        "peak_estimate": 4.0}


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
