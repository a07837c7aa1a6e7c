"""Command-line experiment driver.

One subcommand per experiment kind. Parameters come from defaults, an
optional JSON config file, and --set key=value overrides, in that order.
Errors, usage errors included, are emitted as machine-readable JSON on
stderr with exit code 2.
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import ModelRejected, NumericalCheckFailed, Refusal
from .experiments import (PARAM_CLASSES, ExperimentConfig, default_out_dir,
                          run_experiment)


def _print_error(name: str, message: str) -> None:
    json.dump({"error": name, "message": message}, sys.stderr, sort_keys=True)
    sys.stderr.write("\n")


class _JsonErrorParser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors (an unknown kind, a malformed
    --set, a --seed that is not an integer, ...) are the JSON error, exit 2;
    its subparsers are of the same class. -h still prints the help."""

    def error(self, message):
        _print_error("UsageError", message)
        self.exit(2)


def _parse_set(item: str) -> tuple[str, object]:
    if "=" not in item:
        raise argparse.ArgumentTypeError(f"--set expects KEY=VALUE, got {item!r}")
    key, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def build_parser() -> argparse.ArgumentParser:
    parser = _JsonErrorParser(
        prog="anisofield",
        description="Anisotropic Gaussian field simulation and verification scans")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in PARAM_CLASSES:
        sp = sub.add_parser(kind, help=f"run the {kind} experiment")
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, help="master seed")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--workers", type=int,
                        help="accepted and echoed (>= 1); draws are serial")
        sp.add_argument("--set", action="append", default=[], type=_parse_set,
                        metavar="KEY=VALUE", help="override a config key")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"config file {args.config!r} must hold a JSON "
                             f"object, got {type(doc).__name__}")
        data.update(doc)
    for key, value in args.set:
        data[key] = value
    if args.seed is not None:
        data["seed"] = args.seed
    if args.workers is not None:
        data["workers"] = args.workers
    data["out_dir"] = args.out or data.get("out_dir") or default_out_dir(args.kind)
    return ExperimentConfig.from_dict(args.kind, data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        manifest = run_experiment(config)
    except (Refusal, ModelRejected, NumericalCheckFailed, ValueError,
            OSError, MemoryError) as exc:
        # numpy raises a private MemoryError subclass; report the public name
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        _print_error(name, str(exc))
        return 2
    print(json.dumps({"kind": manifest.kind, "outputs": manifest.outputs},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
