"""Command-line experiment runner.

Subcommands: ``run`` (one preset or config-file run), ``compare`` (paired
seeded sweep of two presets), ``reference`` (regenerate a reference front
from its benchmark's record), ``list`` (registered presets and problems).
Exit code 0 on success, nonzero with a diagnostic on stderr otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

from . import experiments, pareto
from .errors import PfopsError, shown


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pfops")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one preset or config-file run")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", help="preset name (see `pfops list`)")
    source.add_argument("--config", help="path to a custom-run JSON file")
    run.add_argument(
        "--seed", type=_seed, default=None,
        help="run seed, ASCII decimal digits (default: 0, or the config file's seed)",
    )
    run.add_argument("--out", help="directory for CSV/SVG/JSON artifacts")
    run.set_defaults(handler=_cmd_run)

    cmp_ = sub.add_parser("compare", help="run two presets over paired seeds")
    cmp_.add_argument("--a", required=True, help="first preset")
    cmp_.add_argument("--b", required=True, help="second preset")
    cmp_.add_argument(
        "--seeds", required=True, type=_seed_list, help="comma-separated seed list, e.g. 0,1,2"
    )
    cmp_.add_argument("--out", help="directory for the comparison CSV")
    cmp_.set_defaults(handler=_cmd_compare)

    ref = sub.add_parser("reference", help="regenerate a reference front CSV")
    ref.add_argument("--problem", required=True, choices=tuple(pareto.BENCHMARKS))
    ref.add_argument(
        "--resolution", required=True, type=_resolution,
        help="points per grid axis, ASCII decimal digits",
    )
    ref.add_argument("--out", help="output CSV path (default: ./<problem>_front_<n>.csv)")
    ref.set_defaults(handler=_cmd_reference)

    sub.add_parser("list", help="list presets and problems").set_defaults(handler=_cmd_list)
    return parser


def _digits(text: str, what: str) -> int:
    """A count as typed: ASCII decimal digits, where ``int`` would also read
    "1_0" as 10, " 3" as 3 and the Arabic-Indic digit three as 3. A refused
    item is quoted by :func:`~pfops.errors.shown`, and more digits than
    Python converts to an int by their number."""
    if not re.fullmatch("[0-9]+", text):
        raise argparse.ArgumentTypeError(
            f"{shown(text, quote=True)} is not a {what} (ASCII decimal digits)"
        )
    try:
        return int(text)
    except ValueError:  # Python's limit on the digits of a decimal string
        raise argparse.ArgumentTypeError(
            f"a {what} of {len(text)} digits is too long: Python reads at most "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def _seed(text: str) -> int:
    return _digits(text, "seed")


def _resolution(text: str) -> int:
    return _digits(text, "resolution")


def _seed_list(text: str) -> list[int]:
    """A comma-separated list of :func:`_seed` items; a blank item is refused.
    A bad item is named by its position with its own error, not by echoing
    the whole list, which may be thousands of characters long."""
    seeds = []
    for position, item in enumerate(text.split(","), start=1):
        try:
            seeds.append(_seed(item))
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentTypeError(
                f"could not parse seed list: item {position}: {exc}"
            ) from None
    return seeds


def _report_lines(report: experiments.RunReport) -> list[str]:
    return [
        f"label:      {report.metadata['label']}",
        f"seed:       {report.seed}",
        f"front size: {len(report.archive)}",
        f"igd:        {report.igd:.6g}",
        f"hypervolume:{report.hypervolume: .6g}",
        f"eval count: {report.eval_count}",
        f"wall time:  {report.wall_time:.3f}s",
    ]


def _write_run_artifacts(report: experiments.RunReport, out_dir: str) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    label = report.metadata["label"].replace(":", "_")
    stem = f"{label}_seed{report.seed}"
    written = []

    front_csv = out / f"{stem}_front.csv"
    pareto.write_front_csv(report.archive.front, front_csv)
    written.append(front_csv)

    report_json = out / f"{stem}_report.json"
    payload = {
        field.name: getattr(report, field.name)
        for field in dataclasses.fields(report)
        if field.name != "archive"  # written as the front CSV and SVG
    }
    report_json.write_text(json.dumps(payload, indent=2) + "\n")
    written.append(report_json)

    md = report.metadata
    reference = pareto.reference_front(md["problem"], md["reference_resolution"])
    svg = out / f"{stem}_front.svg"
    experiments.emit_front_svg({md["label"]: report.archive.front}, reference, svg)
    written.append(svg)
    return written


def _cmd_run(args: argparse.Namespace) -> int:
    if args.preset is not None:
        seed = 0 if args.seed is None else args.seed
        report = experiments.run_preset(args.preset, seed)
    else:
        report = experiments.run_config_file(args.config, seed=args.seed)
    for line in _report_lines(report):
        print(line)
    if args.out:
        for path in _write_run_artifacts(report, args.out):
            print(f"wrote {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    result = experiments.compare(args.a, args.b, args.seeds)
    header = f"{'seed':>8} {'igd:' + args.a:>28} {'igd:' + args.b:>28}"
    print(header)
    for row in result.rows:
        print(f"{row['seed']:>8} {row['igd_a']:>28.6g} {row['igd_b']:>28.6g}")
    print(f"{'median':>8} {result.medians['igd_a']:>28.6g} {result.medians['igd_b']:>28.6g}")
    print(result.summary)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"compare_{args.a}_vs_{args.b}.csv"
        experiments.write_comparison_csv(result, csv_path)
        print(f"wrote {csv_path}")
    return 0


def _cmd_reference(args: argparse.Namespace) -> int:
    front = pareto.reference_front(args.problem, args.resolution, rebuild=True)
    out = args.out or f"{args.problem}_front_{args.resolution}.csv"
    pareto.write_front_csv(front, out)
    print(f"wrote {out} ({len(front)} points)")
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    # the problems a preset, a config file or ``reference`` accepts
    print("problems:")
    for name in pareto.BENCHMARKS:
        print(f"  {name}")
    # each preset as a config file without a seed: copied to a file, it runs as is
    print("presets:")
    for preset in experiments.PRESETS.values():
        section = {preset.algorithm: experiments.config_section(preset.config)}
        file = {"problem": preset.problem, "algorithm": preset.algorithm, **section}
        print(f"  {preset.name:26} {json.dumps(file)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (PfopsError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the size it could not allocate; a bare one is empty
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
