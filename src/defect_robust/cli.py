"""Command-line surface: generate / charge / robustness / scan / oracle /
sweep / convergence.

Exit codes: 0 success, 1 usage error, 2 data error.  Only a sweep is random: its
seed is --seed or the sweep JSON's base_seed (default 0), which must not differ.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .core import PeriodMode, estimate_charge
from .errors import DefectRobustError
from .experiments import (
    ORACLE_DENSITY,
    SweepConfig,
    convergence_study,
    normalize_and_rank,
    run_sweep,
    theoretical_interval,
)
from .fieldio import read_field, write_field, write_report, write_scan, write_summary
from .synthesis import DefectSpec, synth_defect_field
from .templates import builtin_template

# Not called: bench/tracing.py patches cli.path_robustness until the benchmark drops it (ROADMAP item 2).
path_robustness = estimate_charge


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid charge {text!r}") from None


def _mode(text: str) -> PeriodMode:
    try:
        return PeriodMode.from_name(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _pair(cast):
    def parse(text: str):
        parts = text.split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}")
        return (cast(parts[0]), cast(parts[1]))
    return parse


def _int_list(text: str):
    return [int(p) for p in text.split(",")]


def _add_mode(parser):
    parser.add_argument("--mode", type=_mode, default=PeriodMode.NEMATIC,
                        metavar="{" + ",".join(m.value for m in PeriodMode) + "}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="defect-robust", description=__doc__)
    parser.add_argument("--seed", type=int, help="base seed of a sweep (default: the config's base_seed, else 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a defect field file")
    p.add_argument("--charge", type=_fraction, required=True)
    p.add_argument("--center", type=_pair(float), required=True, metavar="X,Y")
    p.add_argument("--phase", type=float, default=0.0)
    p.add_argument("--size", type=_pair(int), required=True, metavar="NX,NY")
    p.add_argument("--spacing", type=float, default=1.0)
    _add_mode(p)
    p.add_argument("--out", required=True)

    for name in ("charge", "robustness"):
        p = sub.add_parser(name, help=f"{name} of one template placement")
        p.add_argument("--field", required=True)
        p.add_argument("--template", required=True)
        p.add_argument("--at", type=_pair(int), required=True, metavar="I,J",
                       help="integer grid offset of the template")

    p = sub.add_parser("scan", help="charges of all placements (defect detector)")
    p.add_argument("--field", required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--out", help="CSV output path (default: stdout)")

    p = sub.add_parser("oracle", help="theoretical robustness interval")
    p.add_argument("--template", required=True)
    p.add_argument("--charge", type=_fraction, required=True)
    p.add_argument("--density", type=int, default=ORACLE_DENSITY)
    _add_mode(p)

    p = sub.add_parser("sweep", help="Monte Carlo sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="report.csv")
    p.add_argument("--summary", default="summary.txt")

    p = sub.add_parser("convergence", help="square(n) robustness bounds table")
    p.add_argument("--charge", type=_fraction, required=True)
    p.add_argument("--sizes", type=_int_list, default=[1, 2, 3, 4, 8, 16])
    _add_mode(p)
    p.add_argument("--density", type=int, default=ORACLE_DENSITY)

    return parser


def _cmd_generate(args) -> int:
    spec = DefectSpec(charge=args.charge, center=args.center, phase=args.phase)
    field = synth_defect_field(spec, args.size[0], args.size[1], args.spacing, args.mode)
    write_field(field, args.out)
    return 0


def _cmd_charge(args) -> int:
    field = read_field(args.field)
    estimate = estimate_charge(field, builtin_template(args.template).boundary.translated(args.at))
    print(f"charge = {estimate.charge}")
    print(f"raw_sum = {estimate.raw_sum:.17g}")
    print(f"residual = {estimate.residual:.17g}")
    return 0


def _cmd_robustness(args) -> int:
    field = read_field(args.field)
    template = builtin_template(args.template)
    estimate = estimate_charge(field, template.boundary.translated(args.at))
    print(f"robustness = {estimate.path_robustness:.17g}")
    print(f"min_edge = {estimate.min_edge[0]} -> {estimate.min_edge[1]}")
    print(f"normalized = {estimate.path_robustness / template.resolution:.17g}")
    return 0


def _cmd_scan(args) -> int:
    field = read_field(args.field)
    template = builtin_template(args.template)
    xs, ys = zip(*template.boundary.vertices)
    # The first placement: if it leaves the field, every placement does, and the
    # one fit rule raises InvalidPath rather than an empty scan exiting 0.
    template.boundary.translated((-min(xs), -min(ys))).grid_indices(field.nx, field.ny)
    rows = []
    for dj in range(-min(ys), field.ny - max(ys)):
        for di in range(-min(xs), field.nx - max(xs)):
            estimate = estimate_charge(field, template.boundary.translated((di, dj)))
            if estimate.charge != 0:
                cx, cy = estimate.anchor
                rows.append((di, dj, cx * field.h, cy * field.h, float(estimate.charge), estimate.path_robustness))
    write_scan(rows, args.out)
    return 0


def _cmd_oracle(args) -> int:
    template = builtin_template(args.template)
    interval = theoretical_interval(template, args.charge, args.mode, args.density)
    print(f"lower = {interval.lower:.17g}")
    print(f"upper = {interval.upper:.17g}")
    print(f"n_oracle_samples = {interval.n_oracle_samples}")
    return 0


def _cmd_sweep(args) -> int:
    with open(args.config) as fh:
        raw = json.load(fh)
    config = SweepConfig.from_mapping(raw, base_seed=args.seed)
    result = run_sweep(config)
    rank = normalize_and_rank(result)
    write_report(result, args.out)
    write_summary(result, rank, args.summary)
    print(f"wrote {args.out} and {args.summary}")
    return 0


def _cmd_convergence(args) -> int:
    rows = convergence_study(args.charge, args.sizes, args.mode, oracle_density=args.density)
    print(f"{'n':>4} {'lower':>20} {'upper':>20} {'analytic_bound':>20} {'r_min':>10}")
    for row in rows:
        print(f"{row.n:>4} {row.lower:>20.12f} {row.upper:>20.12f} "
              f"{row.analytic_lower_bound:>20.12f} {row.r_min:>10.3f}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "charge": _cmd_charge,
    "robustness": _cmd_robustness,
    "scan": _cmd_scan,
    "oracle": _cmd_oracle,
    "sweep": _cmd_sweep,
    "convergence": _cmd_convergence,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (DefectRobustError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
