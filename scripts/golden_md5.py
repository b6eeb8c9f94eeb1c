#!/usr/bin/env python3
"""Print the md5 of every rendered reference log and truth file.

Renders the bundled paper scenario and its clutter variant (walker 0
alone with 40 ghosts per radar frame, as perfbench renders it) for
seeds 0-13 and prints one line per render: scenario, seed, log md5 and
truth md5.  Run it on two checkouts and diff the output to show that a
change to the simulator keeps its logs byte for byte.

    PYTHONPATH=src python scripts/golden_md5.py
"""

import dataclasses
import hashlib
import pathlib
import tempfile

from radarfuse.simulation import paper_scenario, simulate

SEEDS = range(14)
CLUTTER_GHOSTS_PER_FRAME = 40.0


def scenarios(seed):
    sc = paper_scenario(seed=seed)
    yield "paper", sc
    yield "clutter", dataclasses.replace(
        sc, walkers=sc.walkers[:1],
        noise=dataclasses.replace(sc.noise,
                                  ghost_rate=CLUTTER_GHOSTS_PER_FRAME))


def md5(path):
    return hashlib.md5(path.read_bytes()).hexdigest()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        log, truth = pathlib.Path(tmp, "sim.log"), pathlib.Path(tmp, "truth")
        for seed in SEEDS:
            for name, sc in scenarios(seed):
                simulate(sc, log, truth)
                print(f"{name:8s} {seed:2d} {md5(log)} {md5(truth)}",
                      flush=True)


if __name__ == "__main__":
    main()
