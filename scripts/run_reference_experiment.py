#!/usr/bin/env python3
"""Reproduce the bundled reference experiment end to end.

Renders the bundled scenario (four walkers entering 15 s apart in a
12 x 6 m room watched by three radars), replays the recording through
the full pipeline with default DBSCAN settings, and scores the
estimated occupant count against ground truth with a 30 s moving
average.  Exits 1 when the reproduction is degraded (MAE above 0.5
or a peak other than the true 4 occupants).

    python scripts/run_reference_experiment.py --outdir /tmp/radarfuse
"""

import argparse
import json
import pathlib
import sys
import time

from radarfuse import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="reference_run",
                    help="directory for the log, truth and result files")
    ap.add_argument("--seed", type=int,
                    help="default: the bundled scenario's own seed")
    ap.add_argument("--window", type=float, default=30.0,
                    help="moving-average window in seconds")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    log = outdir / "scenario.log"
    truth = outdir / "truth.jsonl"
    status = outdir / "status.jsonl"
    events = outdir / "events.jsonl"
    metrics = outdir / "metrics.json"

    t0 = time.monotonic()
    steps = [
        ["simulate", "--scenario", "paper", "--out", str(log),
         "--truth", str(truth)]
        + (["--seed", str(args.seed)] if args.seed is not None else []),
        ["replay", "--config", "paper", "--log", str(log), "--fast",
         "--status-log", str(status), "--event-log", str(events)],
        ["eval", "--pipeline-log", str(status), "--truth", str(truth),
         "--window", str(args.window), "--out", str(metrics)],
    ]
    for step in steps:
        print(f"+ radarfuse {' '.join(step)}", file=sys.stderr)
        rc = cli.cli(step)
        if rc != 0:
            return rc

    doc = json.loads(metrics.read_text())
    print(f"\ntotal wall time: {time.monotonic() - t0:.1f} s",
          file=sys.stderr)
    print(f"artifacts in {outdir}/", file=sys.stderr)
    ok = doc["mae"] is not None and doc["mae"] <= 0.5 \
        and doc["peak_estimate"] == 4.0
    print("result:", "OK" if ok else "DEGRADED", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
