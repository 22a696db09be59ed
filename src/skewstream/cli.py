"""Command-line interface.

Four subcommands::

    skewstream generate sine1-py --seed 3 --out stream.csv
    skewstream run experiment.ini --out results/
    skewstream score-detectors results/alarms/OOB+lfr.csv --drift-start 1501 --runs 30
    skewstream report results/

``run`` writes summary.csv, detectors.csv, curves/, runs/, alarms/ and a
config.lock that replays byte-identically. When --out is omitted the output
directory is <config stem> under $SKEWSTREAM_OUT (or the current directory).
Exit status is 0 on success and 2 on a validation or I/O error or on a
stream concept that yields no example of a class (InfeasibleConceptError);
any other error propagates with its traceback.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    _write_text,
    aggregate_and_test,
    emit_report,
    load_config,
    read_alarm_table,
    rebuild_tables,
    run_experiment,
)
from .detectors import score_detections
from .presets import preset_schedule
from .streams import InfeasibleConceptError, StreamGenerator, dump_stream

OUT_ENV = "SKEWSTREAM_OUT"


def cmd_generate(args) -> int:
    try:
        schedule = preset_schedule(args.preset)
    except KeyError as e:
        raise ValueError(e.args[0]) from None
    examples = list(StreamGenerator(schedule, args.seed))
    n = dump_stream(examples, args.out)
    print(f"wrote {n} examples to {args.out}")
    return 0


def _resolve_out_dir(out: str | None, config_path: str) -> Path:
    if out is not None:
        return Path(out)
    root = Path(os.environ.get(OUT_ENV, "."))
    return root / Path(config_path).stem


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.runs is not None:
        cfg = replace(cfg, runs=args.runs)
    out = _resolve_out_dir(args.out, args.config)
    records = run_experiment(cfg)
    report = aggregate_and_test(records, cfg)
    paths = emit_report(report, out)
    print(f"wrote {len(paths)} files under {out}")
    return 0


def cmd_score_detectors(args) -> int:
    alarms = read_alarm_table(args.alarms, args.runs)
    score = score_detections(alarms, args.drift_start)
    print(f"tdr {score.tdr!r}")
    print(f"fa {score.fa!r}")
    print("dod -" if score.dod is None else f"dod {score.dod!r}")
    return 0


def cmd_report(args) -> int:
    summary, detectors = rebuild_tables(args.dir)
    out = Path(args.dir)
    _write_text(out / "summary.csv", summary)
    _write_text(out / "detectors.csv", detectors)
    print(f"rebuilt summary.csv and detectors.csv under {out}")
    return 0


def _int_at_least(low: int):
    """An argparse type for an integer >= ``low``, so that a value out of
    range is reported against the flag that gave it."""

    def integer(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewstream",
        description="Online learning workbench for imbalanced drifting streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="dump a preset stream to CSV")
    p.add_argument("preset", help="preset name, e.g. sine1-py or seag-pyx")
    p.add_argument(
        "--seed", type=_int_at_least(0), default=0, help="stream seed (default 0)"
    )
    p.add_argument("--out", required=True, help="destination CSV file")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="execute an experiment config")
    p.add_argument("config", help="INI config (or a previous config.lock)")
    p.add_argument("--out", help=f"output directory (default: ${OUT_ENV}/<stem>)")
    p.add_argument(
        "--runs", type=_int_at_least(1), help="override the configured run count"
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "score-detectors", help="score an alarms CSV against a known drift time"
    )
    p.add_argument("alarms", help="alarms CSV (run,seed,t,verdict)")
    p.add_argument(
        "--drift-start",
        type=_int_at_least(1),
        required=True,
        help="the first step of the new concept (counted from 1)",
    )
    p.add_argument(
        "--runs", type=_int_at_least(1), required=True, help="number of runs scored"
    )
    p.set_defaults(func=cmd_score_detectors)

    p = sub.add_parser(
        "report", help="rebuild summary tables from an output directory"
    )
    p.add_argument("dir", help="directory written by `skewstream run`")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, InfeasibleConceptError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
