"""Command-line entry point.

Usage::

    mfmls <sample|convergence|lebesgue|noise|power|info>
          --config <path> [--seed S] [--out DIR] [--threads T]

``--threads`` (default 1) is the number of workers that run the table
commands' cells. Exit codes: 0 on full success, 1 when any cell failed (a
machine-readable manifest lands next to the outputs), 2 for configuration
errors and for an output directory that cannot be created or written.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from ..errors import ConfigError, MfmlsError
from .config import load_config
from .runner import COMMANDS


def resolve_threads(flag_value: int | None) -> int:
    """--threads, or the serial default."""
    if flag_value is None:
        return 1
    if flag_value < 1:
        raise ConfigError(f"--threads must be >= 1, got {flag_value}")
    return flag_value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfmls",
        description="Experiment runner for manifold moving-least-squares studies.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="override config output_dir")
    parser.add_argument(
        "--threads", type=int, default=None, help="worker threads (default 1)"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        threads = resolve_threads(args.threads)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
            if cfg.seed < 0:
                raise ConfigError(f"--seed must be >= 0, got {cfg.seed}")
        out_dir = args.out if args.out is not None else cfg.output_dir
        failures = COMMANDS[args.command](cfg, out_dir, threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MfmlsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Config and mesh reads map their OSErrors to ConfigError, so what
        # reaches here failed on the output directory.
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
