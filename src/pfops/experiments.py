"""Preset experiment runner: seeded runs, quality metrics, CSV/SVG artifacts.

Shipped presets pin the reference benchmark settings for the three studies
(convex sufficient-sampling and undersampling, Fonseca-Fleming, Kursawe)
for both the particle-filter optimizer and the NSGA-II baseline. Every run
returns a :class:`RunReport` carrying the archive, IGD against the problem's
reference front, a 2-D hypervolume, the measured evaluation count, and audit
metadata (seed, switch states, resampling scheme).
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterable
from dataclasses import MISSING, asdict, dataclass, fields, replace
from html import escape
from pathlib import Path

import numpy as np

from . import core, nsga2, pareto
from .errors import InvalidConfigError, InvalidInputError, NotFoundError
from .problems import lookup_problem
from .scalarize import ScalarizationKind

# reference-front resolutions used when scoring runs
REFERENCE_RESOLUTION = {"convex": 100, "fonseca": 200, "kursawe": 201}

# hypervolume reference points; archive members not strictly below a
# reference point are excluded from the hypervolume (they bound no area)
HYPERVOLUME_REF = {
    "convex": (60.0, 60.0),
    "fonseca": (1.1, 1.1),
    "kursawe": (-14.0, 1.0),
}

_CONFIG_CLASSES = {"pfops": core.PfopsConfig, "nsga2": nsga2.Nsga2Config}


@dataclass(frozen=True)
class ExperimentPreset:
    """A named run: a registered problem and one algorithm's config.

    Checked when built, also by ``dataclasses.replace``: an unregistered
    problem raises NotFoundError, and a config that is neither a
    PfopsConfig nor an Nsga2Config raises InvalidConfigError. The
    algorithm is the config's type.
    """

    name: str
    problem: str
    config: core.PfopsConfig | nsga2.Nsga2Config

    def __post_init__(self) -> None:
        lookup_problem(self.problem)
        if not isinstance(self.config, tuple(_CONFIG_CLASSES.values())):
            raise InvalidConfigError(
                f"preset '{self.name}': config must be a PfopsConfig or an "
                f"Nsga2Config, got {type(self.config).__name__}"
            )

    @property
    def algorithm(self) -> str:
        """Either "pfops" or "nsga2", from the config's type."""
        return "pfops" if isinstance(self.config, core.PfopsConfig) else "nsga2"


def _preset_table() -> dict[str, ExperimentPreset]:
    presets = [
        ExperimentPreset(
            "pfops-convex-sufficient",
            "convex",
            core.PfopsConfig(n_targets=100, n_particles=100, metropolis_enabled=False),
        ),
        ExperimentPreset(
            "pfops-convex-under",
            "convex",
            core.PfopsConfig(n_targets=20, n_particles=5, metropolis_enabled=False),
        ),
        ExperimentPreset(
            "nsga2-convex-sufficient",
            "convex",
            nsga2.Nsga2Config(pop_size=100, generations=100),
        ),
        ExperimentPreset(
            "nsga2-convex-under",
            "convex",
            nsga2.Nsga2Config(pop_size=20, generations=5),
        ),
        ExperimentPreset(
            "pfops-fonseca",
            "fonseca",
            core.PfopsConfig(
                n_targets=200,
                n_particles=500,
                metropolis_enabled=True,
                scalarization_kind=ScalarizationKind.TCHEBYCHEFF,
                utopian=(-1.0, -1.0),
            ),
        ),
        ExperimentPreset(
            "pfops-kursawe",
            "kursawe",
            core.PfopsConfig(
                n_targets=200,
                n_particles=500,
                metropolis_enabled=True,
                scalarization_kind=ScalarizationKind.TCHEBYCHEFF,
                utopian=(-21.0, -13.0),
            ),
        ),
        ExperimentPreset(
            "nsga2-fonseca",
            "fonseca",
            nsga2.Nsga2Config(pop_size=200, generations=500),
        ),
        ExperimentPreset(
            "nsga2-kursawe",
            "kursawe",
            nsga2.Nsga2Config(pop_size=200, generations=500),
        ),
    ]
    return {p.name: p for p in presets}


PRESETS = _preset_table()


@dataclass
class RunReport:
    archive: core.ParetoArchive
    igd: float
    hypervolume: float
    eval_count: int
    wall_time: float
    seed: int
    metadata: dict


def _execute(preset: ExperimentPreset, seed: int) -> RunReport:
    core.check_integer("seed", seed, 0)
    seed = int(seed)  # a numpy integer seed is reported as a plain int
    problem_name = preset.problem
    problem = lookup_problem(problem_name)
    cfg = replace(preset.config, seed=seed)
    config = asdict(cfg)
    started = time.perf_counter()
    if isinstance(cfg, core.PfopsConfig):
        archive, evals = core.run(cfg, problem)
        config["scalarization_kind"] = cfg.scalarization_kind.value
        extra = {
            "resampling_scheme": "multinomial",
            "metropolis_enabled": cfg.metropolis_enabled,
            "final_filter_enabled": cfg.final_filter_enabled,
            "out_of_box_proposals": "rejected, still counted",
            "nominal_eval_count": 2 * cfg.n_targets * cfg.n_particles,
        }
    else:
        archive, evals = nsga2.evolve(cfg, problem)
        extra = {
            "bounds_handling": "clip",
            # the conventional budget formula skips the initial population
            "nominal_eval_count": 2 * cfg.pop_size * cfg.generations,
        }
    wall = time.perf_counter() - started

    reference = pareto.reference_front(problem_name, REFERENCE_RESOLUTION[problem_name])
    igd_value = pareto.igd(archive.front, reference)
    ref_point = np.asarray(HYPERVOLUME_REF[problem_name])
    dominating = archive.front[np.all(archive.front < ref_point, axis=1)]
    hv_value = pareto.hypervolume_2d(dominating, ref_point)

    metadata = {
        "label": preset.name,
        "problem": problem_name,
        "algorithm": preset.algorithm,
        "seed": seed,
        "config": config,
        "reference_resolution": REFERENCE_RESOLUTION[problem_name],
        "hypervolume_ref_point": tuple(ref_point.tolist()),
        "hypervolume_points_used": int(len(dominating)),
        "measured_eval_count": int(evals),
        **extra,
    }
    return RunReport(
        archive=archive,
        igd=igd_value,
        hypervolume=hv_value,
        eval_count=int(evals),
        wall_time=wall,
        seed=seed,
        metadata=metadata,
    )


def get_preset(name: str) -> ExperimentPreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise NotFoundError(
            f"unknown preset '{name}'; available: {', '.join(PRESETS)}"
        ) from None


def run_preset(name: str, seed: int) -> RunReport:
    """Run a shipped preset with the given seed."""
    return _execute(get_preset(name), seed)


@dataclass
class ComparisonResult:
    preset_a: str
    preset_b: str
    seeds: list[int]
    rows: list[dict]
    medians: dict
    summary: str


_COMPARE_METRICS = ("igd", "hypervolume", "eval_count", "wall_time")


def compare(preset_a: str, preset_b: str, seeds: Iterable[int]) -> ComparisonResult:
    """Run two presets on the same problem over paired seeds.

    Per-run seeds are the entries of ``seeds`` (any iterable, read once)
    verbatim, no hidden reseeding, so any row can be re-run in isolation.
    """
    a = get_preset(preset_a)
    b = get_preset(preset_b)
    if a.problem != b.problem:
        raise InvalidInputError(
            f"presets target different problems: {a.problem} vs {b.problem}"
        )
    seeds = list(seeds)
    for s in seeds:
        core.check_integer("seed", s, 0)
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise InvalidInputError("seed list must not be empty")

    reports_a = [run_preset(preset_a, s) for s in seeds]
    reports_b = [run_preset(preset_b, s) for s in seeds]
    rows = []
    for s, ra, rb in zip(seeds, reports_a, reports_b):
        row = {"seed": s}
        for metric in _COMPARE_METRICS:
            row[f"{metric}_a"] = getattr(ra, metric)
            row[f"{metric}_b"] = getattr(rb, metric)
        rows.append(row)
    medians = {
        key: float(np.median([row[key] for row in rows]))
        for key in rows[0]
        if key != "seed"
    }
    med_a, med_b = medians["igd_a"], medians["igd_b"]
    if med_a == med_b:
        summary = f"median IGD tie: {preset_a} and {preset_b} both at {med_a:.6g}"
    else:
        winner, wa, wb = (
            (preset_a, med_a, med_b) if med_a < med_b else (preset_b, med_b, med_a)
        )
        summary = f"lower median IGD: {winner} ({wa:.6g} vs {wb:.6g})"
    return ComparisonResult(
        preset_a=preset_a,
        preset_b=preset_b,
        seeds=seeds,
        rows=rows,
        medians=medians,
        summary=summary,
    )


def write_comparison_csv(result: ComparisonResult, path: str | Path) -> None:
    """Per-seed metric table with a trailing median row."""
    headers = ["seed"]
    for metric in _COMPARE_METRICS:
        headers.append(f"{metric}:{result.preset_a}")
        headers.append(f"{metric}:{result.preset_b}")
    lines = [",".join(headers)]
    for row in result.rows:
        cells = [str(row["seed"])]
        for metric in _COMPARE_METRICS:
            cells.append(repr(row[f"{metric}_a"]))
            cells.append(repr(row[f"{metric}_b"]))
        lines.append(",".join(cells))
    median_cells = ["median"]
    for metric in _COMPARE_METRICS:
        median_cells.append(repr(result.medians[f"{metric}_a"]))
        median_cells.append(repr(result.medians[f"{metric}_b"]))
    lines.append(",".join(median_cells))
    Path(path).write_text("\n".join(lines) + "\n")


def emit_front_csv(report: RunReport, path: str | Path) -> None:
    """Write the report's front as `f1,f2` CSV, sorted ascending by f1."""
    try:
        pareto.write_front_csv(report.archive.front, path)
    except OSError as exc:
        raise OSError(f"writing front CSV to {path}: {exc}") from exc


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def emit_front_svg(
    reports: list[RunReport], reference: np.ndarray, path: str | Path
) -> None:
    """Scatter of each report's front over the reference front as a polyline.

    Self-contained SVG: one marker group per report (distinct color),
    axis labels, and a legend built from the report labels.
    """
    if not reports:
        raise InvalidInputError("need at least one report to plot")
    reference = pareto.as_front(reference)

    stacks = [r.archive.front for r in reports if len(r.archive.front)]
    if len(reference):
        stacks.append(reference)
    data = np.vstack(stacks) if stacks else np.zeros((0, 2))
    if len(data):
        lo = data.min(axis=0)
        hi = data.max(axis=0)
    else:
        lo = np.zeros(2)
        hi = np.ones(2)
    span = np.where(hi - lo <= 0, 1.0, hi - lo)
    lo = lo - 0.05 * span
    hi = hi + 0.05 * span
    span = hi - lo

    width, height, margin = 720.0, 540.0, 60.0

    def sx(v: float) -> float:
        return margin + (v - lo[0]) / span[0] * (width - 2 * margin)

    def sy(v: float) -> float:
        return height - margin - (v - lo[1]) / span[1] * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - margin / 3:.1f}" '
        f'text-anchor="middle">f1</text>',
        f'<text x="{margin / 3:.1f}" y="{height / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 {margin / 3:.1f} {height / 2:.1f})">f2</text>',
    ]
    if len(reference):
        ordered = reference[np.argsort(reference[:, 0], kind="stable")]
        point_text = " ".join(f"{sx(p[0]):.2f},{sy(p[1]):.2f}" for p in ordered)
        parts.append(
            f'<polyline points="{point_text}" fill="none" stroke="#444444" '
            'stroke-width="1.5"/>'
        )
    for i, report in enumerate(reports):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        label = escape(str(report.metadata.get("label", f"run-{i}")))
        circles = "".join(
            f'<circle cx="{sx(p[0]):.2f}" cy="{sy(p[1]):.2f}" r="3" '
            f'fill="{color}" fill-opacity="0.75"/>'
            for p in report.archive.front
        )
        parts.append(f'<g class="front" data-label="{label}">{circles}</g>')
        ly = margin + 18.0 * i
        parts.append(
            f'<circle cx="{width - margin - 150:.1f}" cy="{ly:.1f}" r="4" fill="{color}"/>'
            f'<text x="{width - margin - 140:.1f}" y="{ly + 4:.1f}" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    try:
        Path(path).write_text("\n".join(parts) + "\n")
    except OSError as exc:
        raise OSError(f"writing SVG to {path}: {exc}") from exc


_TOP_LEVEL_KEYS = {"problem", "algorithm", "seed", "pfops", "nsga2"}
# config field -> its key in a config file, where the two differ
_FILE_KEYS = {"scalarization_kind": "scalarization"}


def load_config_file(path: str | Path) -> ExperimentPreset:
    """Parse a custom-run JSON file into a preset named ``custom:<file name>``.

    Schema: top-level keys ``problem``, ``algorithm`` ("pfops" | "nsga2"),
    optional ``seed``, and a section named after the algorithm whose keys
    are its config's fields, ``scalarization`` for ``scalarization_kind``
    (see README). Values are passed on as written for the config to check:
    a missing required key, an unknown key, an invalid value or a file that
    is not JSON raises InvalidConfigError naming the file and the key; an
    unregistered problem raises NotFoundError naming the file.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InvalidConfigError(f"{path}: expected a JSON object")
    unknown = sorted(set(raw) - _TOP_LEVEL_KEYS)
    if unknown:
        raise InvalidConfigError(f"{path}: unrecognized top-level keys {unknown}")
    for key in ("problem", "algorithm"):
        if key not in raw:
            raise InvalidConfigError(f"{path}: missing required key '{key}'")
        if not isinstance(raw[key], str):
            raise InvalidConfigError(f"{path}: '{key}' must be a string, got {raw[key]!r}")
    if "seed" in raw:
        try:
            core.check_integer("seed", raw["seed"], 0)
        except InvalidConfigError as exc:
            raise InvalidConfigError(f"{path}: {exc}") from None
    problem, algorithm = raw["problem"], raw["algorithm"]
    cls = _CONFIG_CLASSES.get(algorithm)
    if cls is None:
        raise InvalidConfigError(f"{path}: unknown algorithm '{algorithm}'")
    section = raw.get(algorithm, {})
    if not isinstance(section, dict):
        raise InvalidConfigError(f"{path}: '{algorithm}' must be a JSON object")
    where = f"{path}: {algorithm}"
    by_key = {_FILE_KEYS.get(f.name, f.name): f for f in fields(cls) if f.name != "seed"}
    unknown = sorted(set(section) - set(by_key))
    if unknown:
        raise InvalidConfigError(f"{where}: unrecognized keys {unknown}")
    missing = [k for k, f in by_key.items() if f.default is MISSING and k not in section]
    if missing:
        raise InvalidConfigError(f"{where}: missing required keys {missing}")
    kwargs = {by_key[k].name: value for k, value in section.items()}
    if "scalarization_kind" in kwargs:
        try:
            kwargs["scalarization_kind"] = ScalarizationKind(kwargs["scalarization_kind"])
        except ValueError:
            kinds = [k.value for k in ScalarizationKind]
            raise InvalidConfigError(f"{where}: 'scalarization' must be one of {kinds}") from None
    if "seed" in raw:
        kwargs["seed"] = raw["seed"]
    try:
        config = cls(**kwargs)
    except InvalidConfigError as exc:
        raise InvalidConfigError(f"{where}: {exc}") from None
    try:
        return ExperimentPreset(f"custom:{Path(path).name}", problem, config)
    except NotFoundError as exc:
        raise NotFoundError(f"{path}: {exc}") from None


def run_config_file(path: str | Path, seed: int | None = None) -> RunReport:
    """Run a custom configuration file; ``seed`` overrides the file's seed."""
    preset = load_config_file(path)
    return _execute(preset, preset.config.seed if seed is None else seed)
