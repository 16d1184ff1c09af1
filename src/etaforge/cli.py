"""Batch front door: `etaforge <command> --config <path> ...`.

Exit codes: 0 all checks pass, 1 some check failed (failing rows are
listed), 2 usage or I/O error, 3 the run crashed (the exception type and
message are printed).
"""
from __future__ import annotations

import argparse
import sys

from .report import COMMANDS, RunConfig, emit_report, parse_config, run


def _build_parser():
    p = argparse.ArgumentParser(
        prog="etaforge",
        description="Run verification suites and emit machine-readable "
                    "reports.")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", help="INI run configuration")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--format", choices=("json", "csv"), default=None)
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    overrides = {"command": args.command, "seed": args.seed,
                 "out": args.out, "format": args.format}
    try:
        if args.config:
            cfg = parse_config(args.config, **overrides)
        else:
            cfg = RunConfig(**{k: v for k, v in overrides.items()
                               if v is not None})
    except (OSError, ValueError, KeyError) as exc:
        print(f"etaforge: invalid configuration: {exc}", file=sys.stderr)
        return 2

    try:
        report = run(cfg)
    except Exception as exc:  # a crash, not a failed check
        print(f"etaforge: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    try:
        path = emit_report(report, cfg.out, cfg.format)
    except OSError as exc:
        print(f"etaforge: cannot write report: {exc}", file=sys.stderr)
        return 2

    failing = [r for r in report.rows if not r["pass"]]
    print(f"{len(report.rows) - len(failing)}/{len(report.rows)} checks "
          f"passed; report at {path}")
    for r in failing:
        print(f"FAIL {r['module']}.{r['check']}: "
              f"lhs={r['lhs']} rhs={r['rhs']}", file=sys.stderr)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
