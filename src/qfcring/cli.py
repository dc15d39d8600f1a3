"""Command-line experiment runner.

    qfcring <experiment> [--config PATH] [--override key=value]... [--out-dir DIR]

Exit codes: 0 success, 2 configuration error (including a non-finite or
unusable value, or one outside a model's domain), 3 infeasible (no match /
calibration impossible), 4 numerical failure (including a failed
verification, `StaleResult`).  Errors also emit a JSON record on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings

from . import __version__
from .config import apply_overrides, config_hash, load_config
from .errors import QfcError
from .experiments import EXPERIMENTS, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfcring",
        description="Simulate and optimize the thermally tuned ring/MZI "
                    "frequency converter",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS,
                        help="which experiment to run")
    parser.add_argument("--config", default=None,
                        help="config file path (default: packaged default config)")
    parser.add_argument("--override", "--overrides", dest="overrides",
                        action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
    parser.add_argument("--out-dir", default="out",
                        help="output directory (default: ./out)")
    parser.add_argument("--version", action="version", version=__version__)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        cfg = load_config(args.config)
        cfg = apply_overrides(cfg, args.overrides)
        with warnings.catch_warnings(record=True) as caught:
            # the package's own warnings, once per message and source line (calibrate
            # builds one ring twice); every other category follows the interpreter's -W
            warnings.simplefilter("default", UserWarning)
            outputs = run_experiment(args.experiment, cfg, args.out_dir)
        record = {
            "experiment": args.experiment,
            "config_hash": config_hash(cfg),
            "tool_version": __version__,
            "outputs": outputs,
            "warnings": [str(w.message) for w in caught],
            "wall_clock_s": round(time.monotonic() - start, 3),
        }
        json.dump(record, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    except QfcError as exc:
        json.dump(
            {"error": type(exc).__name__, "message": str(exc), "exit_code": exc.exit_code},
            sys.stderr, sort_keys=True,
        )
        sys.stderr.write("\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
