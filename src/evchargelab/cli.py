"""Command-line front end: `evlab run | sweep | report`.

Exit codes: 0 full success, 1 any per-run failure, 2 config error.
The EVLAB_OUTPUT_DIR environment variable overrides the configured
output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .harness import (
    SWEEPABLE,
    ConfigError,
    emit_report,
    emit_sweep_report,
    example_config,
    load_config,
    run_experiment,
    sweep,
)

EXIT_OK = 0
EXIT_RUN_FAILURE = 1
EXIT_CONFIG_ERROR = 2


def _output_dir(cfg) -> str:
    return os.environ.get("EVLAB_OUTPUT_DIR", cfg.output_dir)


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    result = run_experiment(cfg)
    out = _output_dir(cfg)
    if result.metrics:
        emit_report(result, out)
        print(f"wrote {len(result.metrics)} metric rows to {out}")
    for failure in result.failures:
        print(f"FAILED {failure.algorithm} seed={failure.seed}: {failure.error}", file=sys.stderr)
    return EXIT_OK if result.ok and result.metrics else EXIT_RUN_FAILURE


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    groups = sweep(cfg, args.param, values)
    out = _output_dir(cfg)
    path = emit_sweep_report(groups, args.param, out)
    print(f"wrote sweep table to {path}")
    if any(not result.ok for _, result in groups):
        for _, result in groups:
            for failure in result.failures:
                print(f"FAILED {failure.algorithm} seed={failure.seed}: {failure.error}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    return EXIT_OK


def _cmd_report(args) -> int:
    metrics_path = Path(args.input) / "metrics.csv"
    if not metrics_path.exists():
        raise ConfigError(f"no metrics.csv in {args.input}")
    lines = metrics_path.read_text().strip().split("\n")
    print(lines[0])
    for line in lines[1:]:
        print(line)
    return EXIT_OK


def _cmd_example_config(args) -> int:
    print(example_config())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evlab", description="EV charging scheduling laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the configured experiment")
    run.add_argument("--config", required=True)
    run.set_defaults(func=_cmd_run)

    sw = sub.add_parser("sweep", help="sweep one parameter over a value list")
    sw.add_argument("--config", required=True)
    sw.add_argument("--param", required=True, choices=SWEEPABLE)
    sw.add_argument("--values", required=True, help="comma-separated values")
    sw.set_defaults(func=_cmd_sweep)

    rep = sub.add_parser("report", help="print a stored metrics table")
    rep.add_argument("--in", dest="input", required=True)
    rep.set_defaults(func=_cmd_report)

    ex = sub.add_parser("example-config", help="print a template config file")
    ex.set_defaults(func=_cmd_example_config)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
