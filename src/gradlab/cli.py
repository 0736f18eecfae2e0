"""Command line front end.

One subcommand per experiment kind plus a selftest.  Experiment commands
read a JSON config naming the group and the chain, run the table, and write
csv or json.  Exit codes: 0 on success, 1 on bad input, 2 when a resource
budget is hit, 3 when an internal cross-check fails.
"""

import argparse
import functools
import json
import sys

from .errors import InvariantViolation, ResourceExhausted
from .experiments import ExperimentConfig, KINDS, emit_report, run_experiment
from .selftest import run_all_checks


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 on a usage error, but 2 means a budget was hit
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser():
    # built once per process: argparse is costly to set up, and parsing
    # leaves the parser as it found it
    parser = _Parser(
        prog="gradlab",
        description="gradient experiments over chains of finite-index subgroups")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in sorted(KINDS):
        p = sub.add_parser(kind, help=f"run the {kind} table for a config")
        p.add_argument("--config", required=True,
                       help="path to a JSON experiment config")
        p.add_argument("--field", action="append", default=None,
                       metavar="SPEC",
                       help="coefficient field, q or gf:p; repeatable, "
                            "overrides the config")
        p.add_argument("--out", default=None,
                       help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--max-cosets", type=int, default=None,
                       help="coset budget per level table")
        if kind == "volume":
            p.add_argument("--degree", type=int, default=None,
                           help="volume degree k for the ratio column")
    sub.add_parser("selftest", help="run the built-in acceptance checks")
    return parser


def _load_config(args):
    with open(args.config) as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as e:
            # bad syntax or UTF-8, an integer too long to convert, or
            # nesting deeper than the parser's recursion limit
            raise ValueError(f"config {args.config} is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ValueError(f"config {args.config} must hold a JSON object, "
                         f"got {raw!r}")
    if args.field:
        raw["fields"] = args.field
    if args.max_cosets is not None:
        raw["max_cosets"] = args.max_cosets
    if getattr(args, "degree", None) is not None:
        raw["volume_degree"] = args.degree
    return ExperimentConfig.from_dict(raw)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "selftest":
            results = run_all_checks()
            return 0 if all(r.passed for r in results) else 1
        cfg = _load_config(args)
        table = run_experiment(args.command, cfg)
        text = emit_report(table, args.format)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except ResourceExhausted as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 2
    except InvariantViolation as e:
        print(f"cross-check failed: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
