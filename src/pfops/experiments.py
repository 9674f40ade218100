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
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from xml.sax.saxutils import escape

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

# measured objective minima, used to check that configured Utopian points
# sit strictly below both objectives (kursawe values from the dense-grid front)
OBJECTIVE_MINIMA = {
    "convex": (0.0, 0.0),
    "fonseca": (0.0, 0.0),
    "kursawe": (-20.0, -11.6264),
}


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    problem: str
    algorithm: str  # "pfops" | "nsga2"
    config: core.PfopsConfig | nsga2.Nsga2Config


def _preset_table() -> dict[str, ExperimentPreset]:
    presets = [
        ExperimentPreset(
            "pfops-convex-sufficient",
            "convex",
            "pfops",
            core.PfopsConfig(n_targets=100, n_particles=100, metropolis_enabled=False),
        ),
        ExperimentPreset(
            "pfops-convex-under",
            "convex",
            "pfops",
            core.PfopsConfig(n_targets=20, n_particles=5, metropolis_enabled=False),
        ),
        ExperimentPreset(
            "nsga2-convex-sufficient",
            "convex",
            "nsga2",
            nsga2.Nsga2Config(pop_size=100, generations=100),
        ),
        ExperimentPreset(
            "nsga2-convex-under",
            "convex",
            "nsga2",
            nsga2.Nsga2Config(pop_size=20, generations=5),
        ),
        ExperimentPreset(
            "pfops-fonseca",
            "fonseca",
            "pfops",
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
            "pfops",
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
            "nsga2",
            nsga2.Nsga2Config(pop_size=200, generations=500),
        ),
        ExperimentPreset(
            "nsga2-kursawe",
            "kursawe",
            "nsga2",
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


def _check_utopian(problem_name: str, config: core.PfopsConfig) -> None:
    if config.scalarization_kind is not ScalarizationKind.TCHEBYCHEFF:
        return
    mins = OBJECTIVE_MINIMA[problem_name]
    z = config.utopian
    if z is None or not (z[0] < mins[0] and z[1] < mins[1]):
        raise InvalidConfigError(
            f"Utopian point {z} must lie strictly below the objective minima "
            f"{mins} of problem '{problem_name}'"
        )


def _execute(
    label: str,
    problem_name: str,
    algorithm: str,
    config: core.PfopsConfig | nsga2.Nsga2Config,
    seed: int,
) -> RunReport:
    problem = lookup_problem(problem_name)
    started = time.perf_counter()
    if algorithm == "pfops":
        cfg = replace(config, seed=int(seed))
        _check_utopian(problem_name, cfg)
        archive, evals = core.run(cfg, problem)
        extra = {
            "resampling_scheme": "multinomial",
            "metropolis_enabled": cfg.metropolis_enabled,
            "final_filter_enabled": cfg.final_filter_enabled,
            "out_of_box_proposals": "rejected, still counted",
            "nominal_eval_count": 2 * cfg.n_targets * cfg.n_particles,
        }
    elif algorithm == "nsga2":
        cfg = replace(config, seed=int(seed))
        archive, evals = nsga2.evolve(cfg, problem)
        extra = {
            "bounds_handling": "clip",
            # the conventional budget formula skips the initial population
            "nominal_eval_count": 2 * cfg.pop_size * cfg.generations,
        }
    else:
        raise InvalidConfigError(f"unknown algorithm '{algorithm}'")
    wall = time.perf_counter() - started

    reference = pareto.reference_front(problem_name, REFERENCE_RESOLUTION[problem_name])
    igd_value = pareto.igd(archive.front, reference)
    ref_point = np.asarray(HYPERVOLUME_REF[problem_name])
    dominating = archive.front[np.all(archive.front < ref_point, axis=1)]
    hv_value = pareto.hypervolume_2d(dominating, ref_point)

    metadata = {
        "label": label,
        "problem": problem_name,
        "algorithm": algorithm,
        "seed": int(seed),
        "config": asdict(cfg),
        "reference_resolution": REFERENCE_RESOLUTION[problem_name],
        "hypervolume_ref_point": tuple(ref_point.tolist()),
        "hypervolume_points_used": int(len(dominating)),
        "measured_eval_count": int(evals),
        **extra,
    }
    if isinstance(cfg, core.PfopsConfig):
        metadata["config"]["scalarization_kind"] = cfg.scalarization_kind.value
    return RunReport(
        archive=archive,
        igd=igd_value,
        hypervolume=hv_value,
        eval_count=int(evals),
        wall_time=wall,
        seed=int(seed),
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
    preset = get_preset(name)
    return _execute(preset.name, preset.problem, preset.algorithm, preset.config, seed)


@dataclass
class ComparisonResult:
    preset_a: str
    preset_b: str
    seeds: list[int]
    rows: list[dict]
    medians: dict
    summary: str
    reports_a: list[RunReport]
    reports_b: list[RunReport]


_COMPARE_METRICS = ("igd", "hypervolume", "eval_count", "wall_time")


def compare(preset_a: str, preset_b: str, seeds: list[int]) -> ComparisonResult:
    """Run two presets on the same problem over paired seeds.

    Per-run seeds are the entries of ``seeds`` verbatim, no hidden
    reseeding, so any row can be re-run in isolation.
    """
    a = get_preset(preset_a)
    b = get_preset(preset_b)
    if a.problem != b.problem:
        raise InvalidInputError(
            f"presets target different problems: {a.problem} vs {b.problem}"
        )
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
        reports_a=reports_a,
        reports_b=reports_b,
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
    reference = np.asarray(reference, dtype=float).reshape(-1, 2)

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


_REQUIRED = object()
_JSON_KINDS = {bool: "true or false", float: "a number", str: "a string"}


def _json_value(value: object, key: str, kind: type, where: str) -> object:
    """Check one parsed JSON value against ``kind``: a bool is never a
    number, and an integer is accepted where a number is expected."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise InvalidConfigError(f"{where}: '{key}' must be {_JSON_KINDS[kind]}, got {value!r}")
    return kind(value)


def _take(
    section: dict, key: str, kind: type | None, where: str, default: object = _REQUIRED
) -> object:
    """Pop ``key`` from a parsed JSON object and check its type; a default
    of None lets the key be null. A ``kind`` of None passes the value on
    as written, for counts and the seed that ``validate`` checks."""
    value = section.pop(key, default)
    if value is _REQUIRED:
        raise InvalidConfigError(f"{where}: missing required key '{key}'")
    if kind is None or (value is None and default is None):
        return value
    return _json_value(value, key, kind, where)


def load_config_file(path: str | Path) -> tuple[str, str, core.PfopsConfig | nsga2.Nsga2Config]:
    """Parse a custom-run JSON file into (problem, algorithm, config).

    Schema: top-level keys ``problem``, ``algorithm`` ("pfops" | "nsga2"),
    optional ``seed``, and a section named after the algorithm holding its
    numeric parameters and switches (see README for the full key list).
    Values are taken as written: a missing required key, a value of the
    wrong JSON type or a file that is not JSON raises InvalidConfigError.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InvalidConfigError(f"{path}: expected a JSON object")
    problem = _take(raw, "problem", str, str(path))
    algorithm = _take(raw, "algorithm", str, str(path))
    seed = _take(raw, "seed", None, str(path), 0)
    section = raw.get(algorithm, {})
    if not isinstance(section, dict):
        raise InvalidConfigError(f"{path}: '{algorithm}' must be a JSON object")
    section = dict(section)
    where = f"{path}: {algorithm}"
    if algorithm == "pfops":
        kinds = {k.value: k for k in ScalarizationKind}
        kind = _take(section, "scalarization", str, where, "weighted-sum")
        if kind not in kinds:
            raise InvalidConfigError(f"{where}: 'scalarization' must be one of {list(kinds)}")
        utopian = section.pop("utopian", None)
        if utopian is not None:
            if not isinstance(utopian, list) or len(utopian) != 2:
                raise InvalidConfigError(f"{where}: 'utopian' must be [z1, z2], got {utopian!r}")
            utopian = tuple(_json_value(z, "utopian", float, where) for z in utopian)
        config: core.PfopsConfig | nsga2.Nsga2Config = core.PfopsConfig(
            n_targets=_take(section, "n_targets", None, where),
            n_particles=_take(section, "n_particles", None, where),
            sigma=_take(section, "sigma", float, where, 1.0),
            metropolis_enabled=_take(section, "metropolis_enabled", bool, where, True),
            final_filter_enabled=_take(section, "final_filter_enabled", bool, where, True),
            seed=seed,
            scalarization_kind=kinds[kind],
            utopian=utopian,
        )
    elif algorithm == "nsga2":
        config = nsga2.Nsga2Config(
            pop_size=_take(section, "pop_size", None, where),
            generations=_take(section, "generations", None, where),
            crossover_prob=_take(section, "crossover_prob", float, where, 0.9),
            crossover_index=_take(section, "crossover_index", float, where, 20.0),
            mutation_prob=_take(section, "mutation_prob", float, where, None),
            mutation_index=_take(section, "mutation_index", float, where, 20.0),
            seed=seed,
        )
    else:
        raise InvalidConfigError(f"{path}: unknown algorithm '{algorithm}'")
    if section:
        raise InvalidConfigError(f"{path}: unrecognized keys {sorted(section)}")
    config.validate()
    return problem, algorithm, config


def run_config_file(path: str | Path, seed: int | None = None) -> RunReport:
    """Run a custom configuration file; ``seed`` overrides the file's seed."""
    problem, algorithm, config = load_config_file(path)
    effective_seed = config.seed if seed is None else int(seed)
    return _execute(f"custom:{Path(path).name}", problem, algorithm, config, effective_seed)
