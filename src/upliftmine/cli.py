"""Command-line entry point: stage subcommands plus a full `run`."""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

from .config import INPUT_FORMATS, load_config
from .errors import ConfigError, UpliftMineError
from .pipeline import (
    run,
    stage_ingest,
    stage_mine,
    stage_rank,
    stage_simulate,
    stage_uplift,
)
from .synthetic import load_scenario

log = logging.getLogger("upliftmine")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage problems; our contract reserves 2 for
    data errors, so remap."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    levels = argparse.ArgumentParser(add_help=False)
    levels.add_argument(
        "--log-level", default="info", choices=("debug", "info", "warning", "error")
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="pipeline config YAML")
    common.add_argument("--out", help="override the configured output directory")

    parser = _Parser(
        prog="upliftmine",
        description="Mine candidate treatments from an event log, estimate "
        "their heterogeneous effects with uplift trees, and rank the "
        "resulting segments by net value.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("run", "all stages: ingest, mine, uplift, rank"),
        ("ingest", "parse the event log and encode the case table"),
        ("mine", "mine action rules and extract candidate treatments"),
        ("uplift", "grow one uplift tree per treatment and cut segments"),
        ("rank", "rank segments by net value under the cost model"),
    ):
        stage = sub.add_parser(name, parents=[common, levels], help=help_text)
        if name in ("run", "ingest"):
            stage.add_argument("--input", help="override the configured input path")
            stage.add_argument(
                "--format",
                choices=INPUT_FORMATS,
                help="override the configured input format",
            )
        if name == "uplift":
            stage.add_argument(
                "--treatments",
                help="treatments file to use instead of the mine stage artifact",
            )

    # simulate's own options come first, as a parent, so --log-level is last.
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--config", required=True, help="scenario YAML")
    scenario.add_argument("--out", required=True, help="output directory")
    scenario.add_argument("--seed", type=int, help="override the scenario seed")
    sub.add_parser(
        "simulate",
        parents=[scenario, levels],
        help="sample a synthetic scenario into a log plus a ready pipeline config",
    )
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "simulate":
        scenario = load_scenario(args.config)
        if args.seed is not None:
            scenario = dataclasses.replace(scenario, seed=args.seed)
        stage_simulate(scenario, args.out)
        return EXIT_OK

    config = load_config(args.config, getattr(args, "input", None) or None)
    if args.command in ("run", "ingest") and config.input is None:
        raise ConfigError(f"config {args.config} names no input log: set its input key or give --input")
    if args.out:
        config.out_dir = args.out
    if getattr(args, "format", None):
        config.input_format = args.format

    if args.command == "run":
        run(config)
    elif args.command == "ingest":
        stage_ingest(config)
    elif args.command == "mine":
        stage_mine(config)
    elif args.command == "uplift":
        stage_uplift(config, treatments_path=args.treatments)
    elif args.command == "rank":
        stage_rank(config)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _dispatch(args)
    except ConfigError as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except UpliftMineError as exc:
        log.error("%s", exc)
        return EXIT_DATA
    except Exception as exc:
        log.error("unexpected failure: %s", exc, exc_info=True)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
