#!/usr/bin/env python3
"""Print the md5 of every rendered reference log and of its replays.

Renders the bundled paper scenario and its clutter variant (walker 0
alone with 40 ghosts per radar frame, as perfbench renders it) for
seeds 0-13 and prints one line per render: scenario, seed, log md5 and
truth md5.  Under it, one indented line per ``replay --fast`` of that
log with the paper config: clustering algorithm, status JSONL md5 and
event JSONL md5 (DBSCAN and OPTICS for the paper scenario, DBSCAN for
the clutter variant).  Run it on two checkouts and diff the output to
show that a change keeps the logs and the pipeline's output byte for
byte.

    PYTHONPATH=src python scripts/golden_md5.py
"""

import dataclasses
import hashlib
import pathlib
import tempfile

from radarfuse import cli
from radarfuse.simulation import paper_scenario, simulate

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


def main():
    with tempfile.TemporaryDirectory() as tmp:
        log, truth, status, events = (pathlib.Path(tmp, name) for name in
                                      ("sim.log", "truth", "status", "events"))
        for seed in SEEDS:
            for name, sc, algorithms in scenarios(seed):
                simulate(sc, log, truth)
                print(f"{name:8s} {seed:2d} {md5(log)} {md5(truth)}",
                      flush=True)
                for algorithm in algorithms:
                    code = cli.cli(["replay", "--config", "paper", "--log",
                                    str(log), "--fast", "--clustering",
                                    algorithm, "--status-log", str(status),
                                    "--event-log", str(events)])
                    if code != 0:
                        raise SystemExit(f"replay exited {code}")
                    print(f"  {algorithm:6s} {md5(status)} {md5(events)}",
                          flush=True)


if __name__ == "__main__":
    main()
