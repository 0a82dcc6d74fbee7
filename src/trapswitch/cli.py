"""Command-line entry points.

`run` and `validate` operate on spec files; the remaining subcommands run a
single experiment from built-in defaults.  Every spec field can be overridden
on any subcommand with repeated `--set section.key=value` flags.  The exit
code is 0 exactly when the run completed and every declared tolerance check
passed.
"""

import argparse
import sys

from .errors import InvalidArgumentError, SpecValidationError, TrapSwitchError
from .experiments import planned_setups, run_experiment
from .io import apply_overrides, load_document, parse_spec, spec_problems
from .propagate import validate_setup

#: subcommand -> experiment name it shorthands
_DIRECT = {
    "poles": "poles",
    "isocurve": "iso-curves",
    "groundstate": "ground-state",
    "delay": "delay-spectrum",
    "propagate": "decay-curves",
    "spectrum": "spectrum-vs-T",
    "scan-t": "t-scan",
}


def _cmd_validate(args) -> int:
    document = apply_overrides(load_document(args.spec), args.set or [])
    problems = spec_problems(document)
    if not problems:
        spec = parse_spec(document)
        try:
            found = [p for s in planned_setups(spec) for p in validate_setup(s, spec.unit)]
        except InvalidArgumentError as exc:  # a plan `run` would refuse before any step
            found = [str(exc)]
        problems = list(dict.fromkeys(found))
    for problem in problems:
        print(problem)
    if problems:
        return 1
    print("ok")
    return 0


def _run_document(document) -> int:
    spec = parse_spec(document)
    path, checks = run_experiment(spec)
    for check in checks:
        print(check.line())
    print(f"report: {path}/report.txt")
    return 0 if all(c.passed for c in checks) else 1


def _cmd_run(args) -> int:
    return _run_document(apply_overrides(load_document(args.spec), args.set or []))


def _cmd_direct(args) -> int:
    document = {
        "experiment": {"name": _DIRECT[args.command]},
        "physics": {},
        "numerics": {},
        "outputs": {},
    }
    if args.out:
        document["outputs"]["directory"] = args.out
    apply_overrides(document, args.set or [])
    return _run_document(document)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trapswitch",
        description="Pole analysis and timed-release simulation of a wall/well/barrier trap.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec file")
    p_run.add_argument("spec", help="path to the YAML spec")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a spec field, e.g. physics.final.v_well=120")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a spec without running it")
    p_val.add_argument("spec", help="path to the YAML spec")
    p_val.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_val.set_defaults(func=_cmd_validate)

    for name, experiment in _DIRECT.items():
        p = sub.add_parser(name, help=f"run the {experiment} experiment with defaults")
        p.add_argument("--out", help="output directory (default out/<experiment>)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any spec field")
        p.set_defaults(func=_cmd_direct)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for problem in getattr(exc, "problems", ()):
            print(f"  - {problem}", file=sys.stderr)
        return 2
    except TrapSwitchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
