#!/usr/bin/env python3
"""Print the md5 of every rendered reference log and of its replays.

Renders the bundled paper scenario and its clutter variant (walker 0
alone with 40 ghosts per radar frame, as perfbench renders it) for
seeds 0-13 and prints one line per render: scenario, seed, log md5 and
truth md5.  Under it, one indented line per ``replay --fast`` of that
log with the paper config: clustering algorithm, status JSONL md5 and
event JSONL md5 (DBSCAN and OPTICS for the paper scenario, DBSCAN for
the clutter variant), and under that the md5 of the tracker: the state
bytes and the 6x6 ``covariance`` bytes (the per-axis block laid out on
every axis) of every track in every snapshot ``Tracker.step``
returned, so a last-bit drift in a filter shows even where the counts
and dwell times do not.  A config file chooses each algorithm, as it
does for a deployment: ``paper_config_doc(algorithm)`` is dumped to
``<algorithm>.yaml`` and passed as ``--config``.  Run it on two
checkouts and diff the output to show that a change keeps the logs and
the pipeline's output byte for byte.

``scripts/golden_md5.txt`` holds the expected output.  CI diffs
against it:

    PYTHONPATH=src python scripts/golden_md5.py | diff scripts/golden_md5.txt -

and the tier-1 tests ``test_golden_jsonl`` and ``test_golden_clutter_log``
(``tests/test_acceptance.py``) load this script and compare
``seed_lines(7, tmp, only=scenario)`` with that scenario's block of seed
7 in it, so ``pytest`` fails on any moved digest of the reference seed,
the tracker's included.  A change that moves golden bytes on
purpose re-pins that file with

    PYTHONPATH=src python scripts/golden_md5.py > scripts/golden_md5.txt

and says which lines moved and why; ROADMAP lists the changes that do
so.
"""

import dataclasses
import hashlib
import pathlib
import tempfile

import yaml

from radarfuse import cli
from radarfuse.config import paper_config_doc
from radarfuse.simulation import paper_scenario, simulate
from radarfuse.tracking import Tracker

SEEDS = range(14)
CLUTTER_GHOSTS_PER_FRAME = 40.0


def scenarios(seed):
    """(name, scenario, clustering algorithms to replay it with)."""
    sc = paper_scenario(seed=seed)
    yield "paper", sc, ("dbscan", "optics")
    yield "clutter", dataclasses.replace(
        sc, walkers=sc.walkers[:1],
        noise=dataclasses.replace(sc.noise,
                                  ghost_rate=CLUTTER_GHOSTS_PER_FRAME)), \
        ("dbscan",)


def md5(path):
    return hashlib.md5(path.read_bytes()).hexdigest()


def replay(config, log, status, events):
    """``replay --fast --config config`` of ``log``; returns the tracker
    md5."""
    digest = hashlib.md5()
    step = Tracker.step

    def digested_step(tracker, centroids, ts_ns):
        snapshot, track_events = step(tracker, centroids, ts_ns)
        for track in snapshot:
            digest.update(track.state.tobytes())
            digest.update(track.covariance.tobytes())
        return snapshot, track_events

    Tracker.step = digested_step
    try:
        code = cli.cli(["replay", "--config", str(config), "--log", str(log),
                        "--fast", "--status-log", str(status),
                        "--event-log", str(events)])
    finally:
        Tracker.step = step
    if code != 0:
        raise SystemExit(f"replay exited {code}")
    return digest.hexdigest()


def seed_lines(seed, tmp, only=None):
    """Yield ``seed``'s lines of the output, rendering into the
    directory ``tmp``; with ``only``, the lines of that scenario
    alone."""
    log, truth, status, events = (pathlib.Path(tmp, name) for name in
                                  ("sim.log", "truth", "status", "events"))
    configs = {algorithm: pathlib.Path(tmp, f"{algorithm}.yaml")
               for algorithm in ("dbscan", "optics")}
    for algorithm, config in configs.items():
        config.write_text(yaml.safe_dump(paper_config_doc(algorithm)))
    for name, sc, algorithms in scenarios(seed):
        if only not in (None, name):
            continue
        simulate(sc, log, truth)
        yield f"{name:8s} {seed:2d} {md5(log)} {md5(truth)}"
        for algorithm in algorithms:
            tracker = replay(configs[algorithm], log, status, events)
            yield f"  {algorithm:6s} {md5(status)} {md5(events)}"
            yield f"    tracker {tracker}"


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for line in seed_lines(seed, tmp):
                print(line, flush=True)


if __name__ == "__main__":
    main()
