"""Command-line entry point.

Subcommands:
  replay    deterministic replay of a recorded log, paced by --speed or
            --fast, publishing when the config has an mqtt section
  simulate  render a scenario to a log + ground-truth file
  eval      compare a pipeline status log with ground truth, both read
            by read_count_series

Exit codes: 0 success, 2 configuration/usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from . import recording, simulation
from .config import ConfigError, load_config, load_scenario, paper_config_doc
from .pipeline import JsonlSink, replay_through
from .telemetry import Publisher


def _positive(text: str) -> float:
    """argparse type of ``--speed`` and ``--window``: finite, > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text!r}")
    return value


def cmd_replay(args) -> int:
    config = None if args.config == "paper" else args.config
    cfg = load_config(paper_config_doc() if config is None else config)
    records = recording.replay(args.log, speed=args.speed,
                               as_fast_as_possible=args.fast)
    recording.check_outputs(args.status_log, args.event_log,
                            inputs=(args.log, config))
    publisher = Publisher(cfg=cfg.mqtt) if cfg.mqtt is not None else None
    sink = esink = None
    try:
        sink = JsonlSink(args.status_log) if args.status_log else None
        esink = JsonlSink(args.event_log) if args.event_log else None
        replay_through(cfg, records,
                       status_sink=sink.status if sink else None,
                       event_sink=esink.event if esink else None,
                       publisher=publisher)
    finally:
        for s in (sink, esink, publisher):
            if s is not None:
                s.close()
    return 0


def cmd_simulate(args) -> int:
    scenario = None if args.scenario == "paper" else args.scenario
    sc = (simulation.paper_scenario() if scenario is None
          else load_scenario(scenario))
    if args.seed is not None:
        sc = replace(sc, seed=args.seed)
    simulation.simulate(sc, args.out, truth_path=args.truth,
                        inputs=(scenario,))
    return 0


def read_count_series(path, zone_id=None):
    """The ``(t_s, count)`` series of a status or truth JSONL file.

    Lines with no ``count`` (events) are skipped.  A line's zone is its
    ``zone_id``, none if it has no such key.  With ``zone_id`` given
    only that zone's lines are read; without it the file must hold one
    zone.  A line that is not a JSON object, a ``count`` with no
    ``t_s``, a ``t_s`` or ``count`` that is not a finite number (a bool
    is not one) and a second zone raise :class:`recording.FormatError`
    naming the file and the line."""
    series = []
    for line_no, doc in recording.read_jsonl(path):
        if "count" not in doc:
            continue
        if "t_s" not in doc:
            raise recording.FormatError(line_no, "count without t_s", path)
        t_s, count = doc["t_s"], doc["count"]
        if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max
                   for v in (t_s, count)):
            raise recording.FormatError(
                line_no, f"t_s {t_s!r} and count {count!r} must be finite "
                "numbers", path)
        zone = doc.get("zone_id")
        if zone_id is None:
            if series and zone != first:
                raise recording.FormatError(
                    line_no, f"zone {zone!r} after zone {first!r}; pass "
                    "--zone", path)
            first = zone
        elif zone != zone_id:
            continue
        series.append((t_s, count))
    return series


def _count_series(path, zone_id=None):
    """:func:`read_count_series`, where no count line is a usage error."""
    series = read_count_series(path, zone_id)
    if not series:
        zone = "" if zone_id is None else f" of zone {zone_id!r}"
        raise simulation.EmptySeries(f"{path}: no count lines{zone}")
    return series


def cmd_eval(args) -> int:
    recording.check_outputs(args.out, inputs=(args.pipeline_log, args.truth))
    estimate = _count_series(args.pipeline_log, args.zone)
    truth = _count_series(args.truth)
    try:
        metrics = simulation.evaluate(estimate, truth,
                                      smoothing_seconds=args.window)
    except simulation.SpanTooLong as e:
        raise simulation.SpanTooLong(
            f"{args.pipeline_log} and {args.truth}: {e}") from None
    doc = metrics.to_dict()
    print(json.dumps(doc, indent=2))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="radarfuse")
    sub = ap.add_subparsers(dest="command", required=True)

    rp = sub.add_parser("replay", help="replay a log through the pipeline")
    rp.set_defaults(func=cmd_replay)
    rp.add_argument("--config", required=True)
    rp.add_argument("--log", required=True)
    pacing = rp.add_mutually_exclusive_group()
    pacing.add_argument("--speed", type=_positive, default=1.0)
    pacing.add_argument("--fast", action="store_true",
                        help="no wall pacing; output is identical either way")
    rp.add_argument("--status-log")
    rp.add_argument("--event-log")

    sim = sub.add_parser("simulate", help="render a synthetic scenario")
    sim.add_argument("--scenario", required=True,
                     help="scenario YAML path, or 'paper' for the bundled one")
    sim.add_argument("--out", required=True)
    sim.add_argument("--truth")
    sim.add_argument("--seed", type=int,
                     help="default: the scenario's own seed")
    sim.set_defaults(func=cmd_simulate)

    ev = sub.add_parser("eval", help="score a status log against truth")
    ev.add_argument("--pipeline-log", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--window", type=_positive, default=30.0)
    ev.add_argument("--zone")
    ev.add_argument("--out")
    ev.set_defaults(func=cmd_eval)
    return ap


def cli(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (simulation.InvalidScenario, simulation.EmptySeries,
            simulation.SpanTooLong, recording.FormatError, recording.SameFile,
            FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"runtime error: {e}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(cli())


if __name__ == "__main__":
    main()
