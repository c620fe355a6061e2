"""Command-line front end: run, validate, export and list scenarios.

Exit codes: 0 success, 1 validation failure or unusable input, 2 runtime
error.
"""

from __future__ import annotations

import argparse
import sys

from .artifacts import export_csv
from .core import ConfigurationError
from .scenario import run_scenario
from .schema import (ValidationError, apply_overrides, bundled_scenario_names,
                     load_scenario, validate)


def _parse_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigurationError(f"override {pair!r} must look like key=value")
        key, value = pair.split("=", 1)
        if key in overrides:
            raise ConfigurationError(f"override key {key!r} is given more than once")
        overrides[key] = value
    return overrides


def _report(violations) -> int:
    for v in violations:
        print(f"violation: {v}", file=sys.stderr)
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metalink",
        description="Scenario-driven simulator of programmable-metasurface "
                    "wireless transceivers")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a scenario and write .npy artifacts "
                                     "and summary.json")
    run.add_argument("scenario", help="scenario JSON path or bundled name")
    run.add_argument("--seed", type=int, default=None, help="override rng_seed")
    run.add_argument("--out-dir", default=None,
                     help="artifact directory (default metalink_out/<name>)")
    run.add_argument("--override", action="append", metavar="KEY=VALUE",
                     help="override a scenario field, dotted keys allowed")

    val = sub.add_parser("validate", help="check a scenario without running it")
    val.add_argument("scenario", help="scenario JSON path or bundled name")
    val.add_argument("--override", action="append", metavar="KEY=VALUE")

    export = sub.add_parser("export", help="write <stem>.csv next to each "
                                           "<stem>.npy artifact of a run")
    export.add_argument("dir", metavar="DIR", help="output directory of a run")

    sub.add_parser("list-scenarios", help="list bundled scenarios")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-scenarios":
        for name in bundled_scenario_names():
            data = load_scenario(name)
            desc = data.get("description")
            print(f"{name}: {desc}" if desc else name)
        return 0

    if args.command == "export":
        try:
            paths = export_csv(args.dir)
        except ConfigurationError as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return 1
        print(f"{len(paths)} CSV files written to {args.dir}")
        return 0

    try:
        overrides = _parse_overrides(args.override)
        if getattr(args, "seed", None) is not None:  # wins over --override rng_seed=
            overrides["rng_seed"] = args.seed
        data = load_scenario(args.scenario)
        data = apply_overrides(data, overrides)
    except ConfigurationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        violations = validate(data)
        if violations:
            return _report(violations)
        print(f"{data['name']}: ok")
        return 0

    # run
    out_dir = args.out_dir or f"metalink_out/{data.get('name')}"
    try:
        result = run_scenario(data, out_dir)
    except ValidationError as exc:
        return _report(exc.violations)
    except Exception as exc:  # noqa: BLE001 - map any failure to exit code 2
        print(f"runtime error in scenario {data.get('name')!r}: {exc}",
              file=sys.stderr)
        return 2
    for key, entry in result.summary["reports"].items():
        if entry["evm_percent"]:
            evms = ", ".join(f"{v:.4g}%" for v in entry["evm_percent"])
            bers = ", ".join(f"{v:.3g}" for v in entry["ber"])
            print(f"{key}: EVM per stream [{evms}], BER per stream [{bers}]")
    if "strongest_line_hz" in result.summary:
        print(f"strongest line: {result.summary['strongest_line_hz'] / 1e6:g} MHz "
              f"(expected {result.summary['expected_line_hz'] / 1e6:g} MHz)")
    print(f"artifacts written to {out_dir}")
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
