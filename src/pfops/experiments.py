"""Preset experiment runner: seeded runs, quality metrics, CSV/SVG artifacts.

Shipped presets pin the reference benchmark settings for the three studies
(convex sufficient-sampling and undersampling, Fonseca-Fleming, Kursawe)
for both the particle-filter optimizer and the NSGA-II baseline. Every run
returns a :class:`RunReport` carrying the archive, IGD against the problem's
reference front, a 2-D hypervolume, the measured evaluation count, the seed
and audit metadata (the config as run, written as a config file's section).
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterable, Mapping
from dataclasses import MISSING, dataclass, fields, replace
from html import escape
from pathlib import Path

import numpy as np

from . import core, nsga2, pareto
from .errors import InvalidConfigError, InvalidInputError, NotFoundError, check_integer, check_key
from .errors import shown
from .problems import lookup_problem
from .scalarize import ScalarizationKind

# each benchmark's scoring resolution; a view of pareto.BENCHMARKS kept for bench/workloads.py
REFERENCE_RESOLUTION = {name: b.resolution for name, b in pareto.BENCHMARKS.items()}

_CONFIG_CLASSES = {"pfops": core.PfopsConfig, "nsga2": nsga2.Nsga2Config}


@dataclass(frozen=True)
class ExperimentPreset:
    """A named run: a registered problem and one algorithm's config.

    Checked when built, also by ``dataclasses.replace``: a problem without
    a scoring record in ``pareto.BENCHMARKS`` raises NotFoundError, and a
    config that is neither a PfopsConfig nor an Nsga2Config raises
    InvalidConfigError. The algorithm is the config's type.
    """

    name: str
    problem: str
    config: core.PfopsConfig | nsga2.Nsga2Config

    def __post_init__(self) -> None:
        check_key(pareto.BENCHMARKS, self.problem, "problem")
        if not isinstance(self.config, tuple(_CONFIG_CLASSES.values())):
            raise InvalidConfigError(
                f"preset '{self.name}': config must be a PfopsConfig or an "
                f"Nsga2Config, got {type(self.config).__name__}"
            )

    @property
    def algorithm(self) -> str:
        """The name ``_CONFIG_CLASSES`` gives the config's type."""
        return next(name for name, cls in _CONFIG_CLASSES.items() if isinstance(self.config, cls))


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
    """One seeded run; ``metadata["config"]`` is its config less the seed, as
    :func:`config_section` writes it, so the report reruns as a config file."""

    archive: pareto.ParetoArchive
    igd: float
    hypervolume: float
    eval_count: int
    wall_time: float
    seed: int
    metadata: dict


def _execute(preset: ExperimentPreset, seed: int) -> RunReport:
    cfg = replace(preset.config, seed=seed)
    problem = lookup_problem(preset.problem)
    scoring = pareto.BENCHMARKS[preset.problem]
    optimize = core.run if preset.algorithm == "pfops" else nsga2.evolve
    started = time.perf_counter()
    archive, evals = optimize(cfg, problem)
    wall = time.perf_counter() - started

    reference = pareto.reference_front(preset.problem, scoring.resolution)
    igd_value = pareto.igd(archive.front, reference)
    ref_point = np.asarray(scoring.hv_ref)
    dominating = archive.front[np.all(archive.front < ref_point, axis=1)]
    hv_value = pareto.hypervolume_2d(dominating, ref_point)

    metadata = {
        "label": preset.name,
        "problem": preset.problem,
        "algorithm": preset.algorithm,
        "config": config_section(cfg),
        "reference_resolution": scoring.resolution,
        "hypervolume_ref_point": tuple(ref_point.tolist()),
        "hypervolume_points_used": int(len(dominating)),
    }
    return RunReport(
        archive=archive,
        igd=igd_value,
        hypervolume=hv_value,
        eval_count=int(evals),
        wall_time=wall,
        seed=cfg.seed,
        metadata=metadata,
    )


def get_preset(name: str) -> ExperimentPreset:
    return check_key(PRESETS, name, "preset")


def run_preset(name: str, seed: int) -> RunReport:
    """Run a shipped preset with the given seed."""
    return _execute(get_preset(name), seed)


@dataclass
class ComparisonResult:
    preset_a: str
    preset_b: str
    rows: list[dict]
    medians: dict
    summary: str

    def write_csv(self, path: str | Path) -> None:
        """Per-seed metric table with a trailing median row. Its columns are
        the seed and the median keys, which are the rows' other keys, in
        order; a key ``<metric>_<side>`` heads its column as
        ``<metric>:<that side's preset>``."""
        presets = {"a": self.preset_a, "b": self.preset_b}
        keys = list(self.medians)
        header = ["seed"] + [f"{m}:{presets[side]}" for m, side in (k.rsplit("_", 1) for k in keys)]
        lines = [",".join(header)]
        lines += [",".join([str(row["seed"])] + [repr(row[k]) for k in keys]) for row in self.rows]
        lines.append(",".join(["median"] + [repr(self.medians[k]) for k in keys]))
        Path(path).write_text("\n".join(lines) + "\n")


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
    seeds = [check_integer("seed", s, 0) for s in seeds]
    if not seeds:
        raise InvalidInputError("seed list must not be empty")

    # every seed of preset a, then every seed of preset b
    sides = {"a": preset_a, "b": preset_b}
    reports = {side: [run_preset(name, s) for s in seeds] for side, name in sides.items()}
    rows = [
        {"seed": s}
        | {f"{m}_{side}": getattr(reports[side][i], m) for m in _COMPARE_METRICS for side in reports}
        for i, s in enumerate(seeds)
    ]
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
        rows=rows,
        medians=medians,
        summary=summary,
    )


def _plot_points(name: str, points: np.ndarray) -> np.ndarray:
    """``points`` read by :func:`pareto.as_front`, every value finite: what
    it refuses, and the first row holding an infinity, raise
    InvalidInputError naming ``name``."""
    try:
        points = pareto.as_front(points)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{name}: {exc}") from None
    if np.isinf(points).any():
        i = int(np.isinf(points).any(axis=1).argmax())
        raise InvalidInputError(f"{name}: row {i} is not finite: {points[i].tolist()}")
    return points


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def emit_front_svg(
    fronts: Mapping[str, np.ndarray], reference: np.ndarray, path: str | Path
) -> None:
    """Scatter of each labelled front over the reference front as a polyline.

    ``fronts`` maps a legend label to an (n, 2) front, in plotting order.
    Each front and the reference are read by :func:`pareto.as_front`; what
    it refuses, and a front with an infinite value, raise InvalidInputError
    naming its label.
    Self-contained SVG: one marker group per front (distinct color), axis
    labels, and a legend of the labels.
    """
    if not fronts:
        raise InvalidInputError("need at least one front to plot")
    reference = _plot_points("reference", reference)
    checked = {
        label: _plot_points(f"front {shown(label)}", front) for label, front in fronts.items()
    }

    stacks = [front for front in checked.values() if len(front)]
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
    for i, (label, front) in enumerate(checked.items()):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        label = escape(str(label))
        circles = "".join(
            f'<circle cx="{sx(p[0]):.2f}" cy="{sy(p[1]):.2f}" r="3" '
            f'fill="{color}" fill-opacity="0.75"/>'
            for p in front
        )
        parts.append(f'<g class="front" data-label="{label}">{circles}</g>')
        ly = margin + 18.0 * i
        parts.append(
            f'<circle cx="{width - margin - 150:.1f}" cy="{ly:.1f}" r="4" fill="{color}"/>'
            f'<text x="{width - margin - 140:.1f}" y="{ly + 4:.1f}" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


_TOP_LEVEL_KEYS = {"problem", "algorithm", "seed", *_CONFIG_CLASSES}
# config field -> its key in a config file, where the two differ
_FILE_KEYS = {"scalarization_kind": "scalarization"}


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object of a config file; a key given twice raises
    InvalidConfigError naming it, where ``json`` would keep the last value."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise InvalidConfigError(f"duplicated key '{key}'")
        obj[key] = value
    return obj


def _section_fields(cls: type) -> dict:
    """A config class's fields but the seed, by their key in a config file."""
    return {_FILE_KEYS.get(f.name, f.name): f for f in fields(cls) if f.name != "seed"}


def config_section(config: core.PfopsConfig | nsga2.Nsga2Config) -> dict:
    """``config`` as a config file's algorithm section, the inverse of
    :func:`load_config_file`: the file's key names, a ScalarizationKind as
    its string value, and no seed (a file's seed is a top-level key)."""
    values = {key: getattr(config, f.name) for key, f in _section_fields(type(config)).items()}
    return {key: v.value if isinstance(v, ScalarizationKind) else v for key, v in values.items()}


def load_config_file(path: str | Path) -> ExperimentPreset:
    """Parse a custom-run JSON file into a preset named ``custom:<file name>``.

    Schema (see README): top-level keys ``problem``, ``algorithm`` ("pfops"
    | "nsga2"), optional ``seed``, and a section named after the algorithm,
    as :func:`config_section` and a RunReport's ``metadata["config"]`` write
    it. Values are passed on as written for the config to check: a missing
    required key, an unknown or duplicated key, a section for the algorithm
    that is not run, an invalid value or a file that is not UTF-8 JSON
    raises InvalidConfigError naming the file and the key; a problem with
    no scoring record raises NotFoundError naming the file.
    """
    try:
        return _parse_config_file(path)
    except (InvalidConfigError, NotFoundError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _parse_config_file(path: str | Path) -> ExperimentPreset:
    """:func:`load_config_file` but for the file name its errors start with."""
    try:
        text = Path(path).read_text(encoding="utf-8")  # JSON is UTF-8 (RFC 8259)
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise InvalidConfigError(f"not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InvalidConfigError("expected a JSON object")
    unknown = sorted(set(raw) - _TOP_LEVEL_KEYS)
    if unknown:
        raise InvalidConfigError(f"unrecognized top-level keys {shown(unknown)}")
    for key in ("problem", "algorithm"):
        if key not in raw:
            raise InvalidConfigError(f"missing required key '{key}'")
        if not isinstance(raw[key], str):
            raise InvalidConfigError(f"'{key}' must be a string, got {shown(raw[key])}")
    if "seed" in raw:
        check_integer("seed", raw["seed"], 0)
    problem, algorithm = raw["problem"], raw["algorithm"]
    cls = check_key(_CONFIG_CLASSES, algorithm, "algorithm", InvalidConfigError)
    for other in _CONFIG_CLASSES:
        if other != algorithm and other in raw:
            raise InvalidConfigError(f"'{other}' section given, but algorithm is '{algorithm}'")
    section = raw.get(algorithm, {})
    if not isinstance(section, dict):
        raise InvalidConfigError(f"'{algorithm}' must be a JSON object")
    by_key = _section_fields(cls)
    unknown = sorted(set(section) - set(by_key))
    if unknown:
        raise InvalidConfigError(f"{algorithm}: unrecognized keys {shown(unknown)}")
    missing = [k for k, f in by_key.items() if f.default is MISSING and k not in section]
    if missing:
        raise InvalidConfigError(f"{algorithm}: missing required keys {missing}")
    kwargs = {by_key[k].name: value for k, value in section.items()}
    if "scalarization_kind" in kwargs:
        try:
            kwargs["scalarization_kind"] = ScalarizationKind(kwargs["scalarization_kind"])
        except ValueError:
            kinds = [k.value for k in ScalarizationKind]
            raise InvalidConfigError(f"{algorithm}: 'scalarization' must be one of {kinds}") from None
    if "seed" in raw:
        kwargs["seed"] = raw["seed"]
    try:
        config = cls(**kwargs)
    except InvalidConfigError as exc:
        raise InvalidConfigError(f"{algorithm}: {exc}") from None
    return ExperimentPreset(f"custom:{Path(path).name}", problem, config)


def run_config_file(path: str | Path, seed: int | None = None) -> RunReport:
    """Run a custom configuration file; ``seed`` overrides the file's seed."""
    preset = load_config_file(path)
    return _execute(preset, preset.config.seed if seed is None else seed)
