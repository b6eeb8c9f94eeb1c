#!/usr/bin/env python3
"""A/B the two clustering backends on the same recording.

Replays one log twice — once with DBSCAN, once with OPTICS at the same
eps cut — and prints both metric sets side by side.  Expect near-identical
numbers: the eps cut of an OPTICS ordering partitions core points
exactly like DBSCAN; only border-point assignment may differ.

    python scripts/compare_clustering.py --log scenario.log --truth truth.jsonl
"""

import argparse
import json
import pathlib
import tempfile

from radarfuse import cli
from radarfuse.simulation import evaluate


def score(log, truth, algorithm, workdir, window, config):
    status = workdir / f"status_{algorithm}.jsonl"
    rc = cli.cli(["replay", "--config", config, "--log", str(log), "--fast",
                  "--clustering", algorithm, "--status-log", str(status)])
    if rc != 0:
        raise SystemExit(rc)
    metrics = evaluate(cli.read_count_series(status),
                       cli.read_count_series(truth),
                       smoothing_seconds=window)
    return metrics.to_dict()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--log", required=True)
    ap.add_argument("--truth", required=True)
    ap.add_argument("--config", default="paper",
                    help="pipeline config YAML, or 'paper' for the bundled one")
    ap.add_argument("--window", type=float, default=30.0)
    ap.add_argument("--workdir", default=None,
                    help="where to keep the per-arm status logs")
    args = ap.parse_args()

    workdir = pathlib.Path(args.workdir or tempfile.mkdtemp(prefix="ab_"))
    workdir.mkdir(parents=True, exist_ok=True)
    results = {algo: score(args.log, args.truth, algo, workdir, args.window,
                           args.config)
               for algo in ("dbscan", "optics")}
    print(json.dumps(results, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
