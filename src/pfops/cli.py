"""Command-line experiment runner.

Subcommands: ``run`` (one preset or config-file run), ``compare`` (paired
seeded sweep of two presets), ``reference`` (regenerate a cached reference
front), ``list`` (registered presets and problems). Exit code 0 on success,
nonzero with a diagnostic on stderr otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import experiments, pareto
from .errors import PfopsError
from .problems import available_problems


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pfops")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one preset or config-file run")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", help="preset name (see `pfops list`)")
    source.add_argument("--config", help="path to a custom-run JSON file")
    run.add_argument("--seed", type=int, default=None, help="run seed (u64)")
    run.add_argument("--out", help="directory for CSV/SVG/JSON artifacts")

    cmp_ = sub.add_parser("compare", help="run two presets over paired seeds")
    cmp_.add_argument("--a", required=True, help="first preset")
    cmp_.add_argument("--b", required=True, help="second preset")
    cmp_.add_argument(
        "--seeds", required=True, help="comma-separated seed list, e.g. 0,1,2"
    )
    cmp_.add_argument("--out", help="directory for the comparison CSV")

    ref = sub.add_parser("reference", help="regenerate a reference front CSV")
    ref.add_argument("--problem", required=True, choices=available_problems())
    ref.add_argument("--resolution", required=True, type=int)
    ref.add_argument("--out", help="output CSV path (default: ./<problem>_front_<n>.csv)")

    sub.add_parser("list", help="list presets and problems")
    return parser


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
    experiments.emit_front_csv(report, front_csv)
    written.append(front_csv)

    report_json = out / f"{stem}_report.json"
    payload = {
        "igd": report.igd,
        "hypervolume": report.hypervolume,
        "eval_count": report.eval_count,
        "wall_time": report.wall_time,
        "seed": report.seed,
        "metadata": report.metadata,
    }
    report_json.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    written.append(report_json)

    problem = report.metadata["problem"]
    reference = pareto.reference_front(
        problem, experiments.REFERENCE_RESOLUTION[problem]
    )
    svg = out / f"{stem}_front.svg"
    experiments.emit_front_svg([report], reference, svg)
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
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError:
        print(f"error: could not parse seed list '{args.seeds}'", file=sys.stderr)
        return 2
    result = experiments.compare(args.a, args.b, seeds)
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
    front = pareto.reference_front(args.problem, args.resolution)
    out = args.out or f"{args.problem}_front_{args.resolution}.csv"
    pareto.write_front_csv(front, out)
    print(f"wrote {out} ({len(front)} points)")
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    print("problems:")
    for name in available_problems():
        print(f"  {name}")
    print("presets:")
    for preset in experiments.PRESETS.values():
        cfg = preset.config
        if preset.algorithm == "pfops":
            detail = (
                f"K={cfg.n_targets} N={cfg.n_particles} "
                f"{cfg.scalarization_kind.value} metropolis={'on' if cfg.metropolis_enabled else 'off'}"
            )
            if cfg.utopian is not None:
                detail += f" utopian={cfg.utopian}"
        else:
            detail = f"pop={cfg.pop_size} gen={cfg.generations}"
        print(f"  {preset.name:26} problem={preset.problem:8} {detail}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "reference": _cmd_reference,
    "list": _cmd_list,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except PfopsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
