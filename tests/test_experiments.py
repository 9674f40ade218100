import json
import re
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import pfops.core as core
import pfops.experiments as experiments
import pfops.nsga2 as nsga2
import pfops.problems as problems
from pfops.core import PfopsConfig
from pfops.errors import InvalidConfigError, InvalidInputError, NotFoundError
from pfops.experiments import (
    PRESETS,
    ComparisonResult,
    ExperimentPreset,
    REFERENCE_RESOLUTION,
    RunReport,
    compare,
    emit_front_svg,
    load_config_file,
    run_config_file,
    run_preset,
)
from pfops.nsga2 import Nsga2Config
from pfops.pareto import (
    BENCHMARKS,
    hypervolume_2d,
    igd,
    reference_front,
    write_front_csv,
)
from pfops.problems import convex_problem, lookup_problem
from pfops.scalarize import ScalarizationKind


class TestGoldenConfig:
    """Every shipped preset must carry the pinned study settings."""

    def test_pfops_convex_sufficient(self):
        p = PRESETS["pfops-convex-sufficient"]
        assert (p.problem, p.algorithm) == ("convex", "pfops")
        assert (p.config.n_targets, p.config.n_particles) == (100, 100)
        assert p.config.scalarization_kind is ScalarizationKind.WEIGHTED_SUM
        assert p.config.metropolis_enabled is False
        assert p.config.sigma == 1.0

    def test_pfops_convex_under(self):
        p = PRESETS["pfops-convex-under"]
        assert (p.config.n_targets, p.config.n_particles) == (20, 5)
        assert p.config.metropolis_enabled is False

    def test_nsga2_convex(self):
        s = PRESETS["nsga2-convex-sufficient"].config
        u = PRESETS["nsga2-convex-under"].config
        assert (s.pop_size, s.generations) == (100, 100)
        assert (u.pop_size, u.generations) == (20, 5)

    def test_fonseca_presets(self):
        p = PRESETS["pfops-fonseca"]
        assert p.problem == "fonseca"
        assert (p.config.n_targets, p.config.n_particles) == (200, 500)
        assert p.config.scalarization_kind is ScalarizationKind.TCHEBYCHEFF
        assert p.config.utopian == (-1.0, -1.0)
        assert p.config.metropolis_enabled is True
        n = PRESETS["nsga2-fonseca"].config
        assert (n.pop_size, n.generations) == (200, 500)

    def test_kursawe_presets(self):
        p = PRESETS["pfops-kursawe"]
        assert p.problem == "kursawe"
        assert (p.config.n_targets, p.config.n_particles) == (200, 500)
        assert p.config.utopian == (-21.0, -13.0)
        n = PRESETS["nsga2-kursawe"].config
        assert (n.pop_size, n.generations) == (200, 500)

    def test_nsga2_operator_defaults(self):
        # every NSGA-II preset runs Deb et al. 2002's operators; the
        # mutation probability is 1/d, worked out from the problem
        assert (nsga2.CROSSOVER_PROB, nsga2.CROSSOVER_INDEX, nsga2.MUTATION_INDEX) == (
            0.9, 20.0, 20.0
        )
        cfg = PRESETS["nsga2-convex-sufficient"].config
        assert cfg == Nsga2Config(pop_size=100, generations=100)

    def test_utopian_points_below_objective_minima(self):
        for preset in PRESETS.values():
            if preset.algorithm != "pfops":
                continue
            cfg = preset.config
            if cfg.scalarization_kind is ScalarizationKind.TCHEBYCHEFF:
                ideal = lookup_problem(preset.problem).ideal
                assert cfg.utopian[0] < ideal[0]
                assert cfg.utopian[1] < ideal[1]


class TestPresetCheck:
    """A preset checks itself when built; its algorithm is its config's type."""

    def test_shipped_algorithms(self):
        assert {name: (p.problem, p.algorithm) for name, p in PRESETS.items()} == {
            "pfops-convex-sufficient": ("convex", "pfops"),
            "pfops-convex-under": ("convex", "pfops"),
            "nsga2-convex-sufficient": ("convex", "nsga2"),
            "nsga2-convex-under": ("convex", "nsga2"),
            "pfops-fonseca": ("fonseca", "pfops"),
            "pfops-kursawe": ("kursawe", "pfops"),
            "nsga2-fonseca": ("fonseca", "nsga2"),
            "nsga2-kursawe": ("kursawe", "nsga2"),
        }

    def test_fields(self):
        assert [f.name for f in fields(ExperimentPreset)] == ["name", "problem", "config"]

    def test_replace_config_flips_algorithm(self):
        preset = PRESETS["pfops-convex-under"]
        swapped = replace(preset, config=Nsga2Config(4, 1))
        assert (swapped.algorithm, preset.algorithm) == ("nsga2", "pfops")
        report = experiments._execute(swapped, 0)
        assert report.metadata["algorithm"] == "nsga2"
        assert report.eval_count == 2 * 4 * 2  # initial population + one generation

    @pytest.mark.parametrize("config", [None, "pfops", {"n_targets": 3, "n_particles": 2}])
    def test_non_config_rejected(self, config):
        with pytest.raises(InvalidConfigError, match="PfopsConfig or an Nsga2Config"):
            ExperimentPreset("x", "convex", config)
        with pytest.raises(InvalidConfigError, match="PfopsConfig or an Nsga2Config"):
            replace(PRESETS["nsga2-convex-under"], config=config)

    @pytest.mark.parametrize("problem", ["nope", None, ["convex"]])
    def test_unknown_problem_rejected(self, problem):
        with pytest.raises(NotFoundError) as info:
            ExperimentPreset("x", problem, Nsga2Config(4, 1))
        assert str(info.value) == (
            f"unknown problem '{problem}'; available: convex, fonseca, kursawe"
        )

    def test_problem_without_scoring_record_rejected(self, monkeypatch, tmp_path):
        # a factory with no pareto.BENCHMARKS record used to pass, run in full
        # and then fail with a raw KeyError when the run was scored
        built = []

        def line():
            built.append(convex_problem())
            return built[-1]

        monkeypatch.setitem(problems.PROBLEM_FACTORIES, "line", line)
        expected = "unknown problem 'line'; available: convex, fonseca, kursawe"
        with pytest.raises(NotFoundError) as info:
            ExperimentPreset("x", "line", PfopsConfig(2, 2))
        assert str(info.value) == expected
        path = _config_file(tmp_path, "line", "pfops", {"n_targets": 2, "n_particles": 2})
        for load in (load_config_file, run_config_file):
            with pytest.raises(NotFoundError) as info:
                load(path)
            assert str(info.value) == f"{path}: {expected}"
        assert built == []  # no problem built, so nothing evaluated


class TestRunPreset:
    def test_eval_counts(self):
        assert run_preset("pfops-convex-sufficient", 0).eval_count == 20000
        assert run_preset("pfops-convex-under", 0).eval_count == 200

    def test_unknown_preset(self):
        with pytest.raises(NotFoundError, match="pfops-convex-sufficient"):
            run_preset("nonexistent", 0)

    def test_optimizers_looked_up_at_call_time(self, monkeypatch):
        # a tracer replaces core.run and nsga2.evolve on their modules; a run
        # that held the function objects would miss the replacements
        calls = []
        for module, name in ((core, "run"), (nsga2, "evolve")):
            def counting(cfg, problem, original=getattr(module, name), name=name):
                calls.append((name, cfg.seed))
                return original(cfg, problem)

            monkeypatch.setattr(module, name, counting)
        run_preset("pfops-convex-under", 5)
        run_preset("nsga2-convex-under", 6)
        assert calls == [("run", 5), ("evolve", 6)]

    def test_deterministic_apart_from_wall_time(self):
        a = run_preset("pfops-convex-under", 7)
        b = run_preset("pfops-convex-under", 7)
        np.testing.assert_array_equal(a.archive.decisions, b.archive.decisions)
        np.testing.assert_array_equal(a.archive.front, b.archive.front)
        assert (a.igd, a.hypervolume, a.eval_count, a.seed) == (
            b.igd, b.hypervolume, b.eval_count, b.seed,
        )
        assert a.metadata == b.metadata

    def test_metrics_recompute_from_archive(self):
        report = run_preset("nsga2-convex-under", 3)
        ref = reference_front("convex", REFERENCE_RESOLUTION["convex"])
        assert report.igd == pytest.approx(igd(report.archive.front, ref), abs=1e-12)
        ref_point = np.asarray(BENCHMARKS["convex"].hv_ref)
        inside = report.archive.front[np.all(report.archive.front < ref_point, axis=1)]
        assert report.hypervolume == pytest.approx(
            hypervolume_2d(inside, ref_point), abs=1e-12
        )

    def test_metadata_audit_fields(self):
        report = run_preset("pfops-convex-under", 1)
        md = report.metadata
        assert md["config"]["metropolis_enabled"] is False
        assert md["config"]["final_filter_enabled"] is True
        assert md["config"]["scalarization"] == "weighted-sum"
        assert report.seed == 1 and "seed" not in md["config"]
        assert report.eval_count == 200
        json.dumps(md)  # must be serializable for report artifacts

    @pytest.mark.parametrize(
        "name, config",
        [
            ("pfops-convex-under", {
                "n_targets": 20, "n_particles": 5, "sigma": 1.0, "metropolis_enabled": False,
                "final_filter_enabled": True, "scalarization": "weighted-sum", "utopian": None,
            }),
            ("nsga2-convex-under", {"pop_size": 20, "generations": 5}),
        ],
        ids=["pfops-convex-under", "nsga2-convex-under"],
    )
    def test_metadata_states_each_fact_once(self, name, config):
        # the seed, the measured count and the PFOPS switches used to be
        # stored in the metadata beside the report field or config entry,
        # and the seed was in both the config and the report
        report = run_preset(name, 1)
        top_level = {f.name for f in fields(RunReport)}
        assert not set(report.metadata) & (top_level | set(report.metadata["config"]))
        assert report.metadata["config"] == config  # the config as run, as a file's section
        assert report.seed == 1

    def test_bad_utopian_rejected(self):
        preset = PRESETS["pfops-fonseca"]
        bad = replace(preset.config, utopian=(0.5, -1.0))
        with pytest.raises(InvalidConfigError, match="Utopian"):
            experiments._execute(replace(preset, config=bad), 0)


class TestSeedTypes:
    @pytest.mark.parametrize("seed", [1.7, 2.0, True])
    def test_non_integer_seed_rejected(self, seed):
        # int(seed) used to run 1.7 as seed 1 and True as seed 1
        with pytest.raises(InvalidConfigError, match="seed"):
            run_preset("pfops-convex-under", seed)

    def test_numpy_integer_seed_runs(self):
        report = run_preset("pfops-convex-under", np.int64(3))
        assert report.seed == 3 and type(report.seed) is int
        assert report.metadata == run_preset("pfops-convex-under", 3).metadata

    @pytest.mark.parametrize(
        "config, twin",
        [
            (PfopsConfig(np.int64(3), np.int32(4), sigma=np.float64(0.5), seed=np.int64(1)),
             PfopsConfig(3, 4, sigma=0.5, seed=1)),
            (Nsga2Config(np.int64(6), np.uint8(2), seed=np.int16(1)), Nsga2Config(6, 2, seed=1)),
        ],
        ids=["pfops", "nsga2"],
    )
    def test_numpy_integer_config_reports_as_its_plain_twin(self, monkeypatch, config, twin):
        # a numpy count used to reach metadata["config"], and json.dumps of
        # the report raised "Object of type int64 is not JSON serializable"
        dumps = []
        for cfg, seed in ((config, np.int64(2)), (twin, 2)):
            monkeypatch.setitem(PRESETS, "numpy", ExperimentPreset("numpy", "convex", cfg))
            report = run_preset("numpy", seed)
            payload = {f.name: getattr(report, f.name) for f in fields(report)
                       if f.name not in ("archive", "wall_time")}
            dumps.append(json.dumps(payload))
        assert dumps[0] == dumps[1]


class TestCompare:
    def test_self_comparison_identical_columns(self):
        result = compare("pfops-convex-under", "pfops-convex-under", [1, 2, 3])
        for row in result.rows:
            assert row["igd_a"] == row["igd_b"]
            assert row["eval_count_a"] == row["eval_count_b"]

    def test_problem_mismatch(self):
        with pytest.raises(InvalidInputError, match="different problems"):
            compare("pfops-convex-under", "pfops-fonseca", [0])

    def test_empty_seeds(self):
        with pytest.raises(InvalidInputError):
            compare("pfops-convex-under", "nsga2-convex-under", [])

    def test_non_integral_seed_rejected(self):
        with pytest.raises(InvalidConfigError, match="seed"):
            compare("pfops-convex-under", "nsga2-convex-under", [0, 1.5])

    def test_seed_generator_read_once(self):
        # the check loop used to use the generator up: "seed list must not be empty"
        result = compare("pfops-convex-under", "nsga2-convex-under", (s for s in [0, 1]))
        assert [row["seed"] for row in result.rows] == [0, 1]
        assert all(type(row["seed"]) is int for row in result.rows)

    def test_performs_exactly_2n_runs(self, monkeypatch):
        calls = []
        original = experiments.run_preset

        def counting(name, seed):
            calls.append((name, seed))
            return original(name, seed)

        monkeypatch.setattr(experiments, "run_preset", counting)
        experiments.compare("pfops-convex-under", "nsga2-convex-under", [0, 1, 2, 3])
        assert len(calls) == 8
        # every seed of preset a, then every seed of preset b
        assert calls == [("pfops-convex-under", s) for s in range(4)] + [
            ("nsga2-convex-under", s) for s in range(4)
        ]

    def test_row_keys(self):
        result = compare("pfops-convex-under", "nsga2-convex-under", [0])
        paired = [f"{m}_{side}" for m in experiments._COMPARE_METRICS for side in "ab"]
        assert list(result.rows[0]) == ["seed", *paired]
        assert list(result.medians) == paired

    def test_csv_bytes(self, tmp_path):
        # seeds written as str, every other value as repr: 0.1 + 0.2 needs 17 digits
        result = ComparisonResult(
            preset_a="pa",
            preset_b="pb",
            rows=[
                {"seed": 3, "igd_a": 0.1 + 0.2, "igd_b": 2.0, "hypervolume_a": 1 / 3,
                 "hypervolume_b": 0.0, "eval_count_a": 200, "eval_count_b": 40,
                 "wall_time_a": 1e-05, "wall_time_b": 12.5},
                {"seed": 10, "igd_a": 0.5, "igd_b": 1e300, "hypervolume_a": 7.0,
                 "hypervolume_b": 2.25, "eval_count_a": 200, "eval_count_b": 42,
                 "wall_time_a": 0.25, "wall_time_b": 3.0},
            ],
            medians={"igd_a": 0.4, "igd_b": 5e299, "hypervolume_a": 3.6666666666666665,
                     "hypervolume_b": 1.125, "eval_count_a": 200.0, "eval_count_b": 41.0,
                     "wall_time_a": 0.125005, "wall_time_b": 7.75},
            summary="",
        )
        path = tmp_path / "cmp.csv"
        result.write_csv(path)
        assert path.read_bytes() == (
            b"seed,igd:pa,igd:pb,hypervolume:pa,hypervolume:pb,eval_count:pa,eval_count:pb,"
            b"wall_time:pa,wall_time:pb\n"
            b"3,0.30000000000000004,2.0,0.3333333333333333,0.0,200,40,1e-05,12.5\n"
            b"10,0.5,1e+300,7.0,2.25,200,42,0.25,3.0\n"
            b"median,0.4,5e+299,3.6666666666666665,1.125,200.0,41.0,0.125005,7.75\n"
        )

    def test_medians_match_columns(self, tmp_path):
        result = compare("pfops-convex-under", "nsga2-convex-under", [0, 1, 2])
        for metric in ("igd", "hypervolume", "eval_count", "wall_time"):
            for side in ("a", "b"):
                key = f"{metric}_{side}"
                assert result.medians[key] == pytest.approx(
                    float(np.median([row[key] for row in result.rows]))
                )
        assert "lower median IGD" in result.summary or "tie" in result.summary
        csv_path = tmp_path / "cmp.csv"
        result.write_csv(csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("seed,igd:pfops-convex-under,igd:nsga2-convex-under")
        assert len(lines) == 1 + 3 + 1  # header, three seeds, median row
        assert lines[-1].startswith("median,")


class TestEmitters:
    def test_front_csv_format(self, tmp_path):
        path = tmp_path / "front.csv"
        write_front_csv(np.array([[0.0, 50.0], [50.0, 0.0]]), path)
        assert path.read_text() == "f1,f2\n0,50\n50,0\n"

    def test_front_csv_empty_archive(self, tmp_path):
        path = tmp_path / "front.csv"
        write_front_csv(np.zeros((0, 2)), path)
        assert path.read_text() == "f1,f2\n"

    def test_front_csv_round_trip(self, tmp_path):
        report = run_preset("pfops-convex-under", 2)
        path = tmp_path / "front.csv"
        write_front_csv(report.archive.front, path)
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        expected = report.archive.front[np.argsort(report.archive.front[:, 0], kind="stable")]
        np.testing.assert_array_equal(back, expected)

    def test_svg_structure(self, tmp_path):
        path = tmp_path / "plot.svg"
        reference = reference_front("convex", 30)
        emit_front_svg({"tiny": np.array([[0.0, 50.0], [50.0, 0.0]])}, reference, path)
        root = ET.parse(path).getroot()  # well-formed markup
        ns = "{http://www.w3.org/2000/svg}"
        groups = root.findall(f"{ns}g")
        polylines = root.findall(f"{ns}polyline")
        assert len(groups) == 1
        assert len(polylines) == 1
        texts = [t.text for t in root.iter(f"{ns}text")]
        assert "f1" in texts and "f2" in texts

    def test_svg_two_fronts_two_groups(self, tmp_path):
        path = tmp_path / "plot.svg"
        fronts = {"one": [[0.0, 50.0]], "two": np.array([50.0, 0.0])}
        emit_front_svg(fronts, reference_front("convex", 10), path)
        root = ET.parse(path).getroot()
        groups = root.findall("{http://www.w3.org/2000/svg}g")
        assert [g.get("data-label") for g in groups] == ["one", "two"]  # mapping order

    def test_svg_label_with_quotes_round_trips(self, tmp_path):
        path = tmp_path / "plot.svg"
        label = """say "hi" & it's"""
        emit_front_svg({label: np.array([[1.0, 2.0]])}, np.zeros((0, 2)), path)
        root = ET.parse(path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        assert root.find(f"{ns}g").get("data-label") == label
        assert label in [t.text for t in root.iter(f"{ns}text")]

    def test_svg_empty_reference_no_polyline(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_front_svg({"tiny": np.array([[1.0, 2.0]])}, np.zeros((0, 2)), path)
        root = ET.parse(path).getroot()
        assert root.findall("{http://www.w3.org/2000/svg}polyline") == []

    def test_svg_of_empty_fronts_only(self, tmp_path):
        # no point to scale the axes by: the unit square is plotted
        path = tmp_path / "plot.svg"
        emit_front_svg({"a": np.zeros((0, 2)), "b": []}, np.zeros((0, 2)), path)
        root = ET.parse(path).getroot()
        groups = root.findall("{http://www.w3.org/2000/svg}g")
        assert [(g.get("data-label"), len(g)) for g in groups] == [("a", 0), ("b", 0)]

    def test_svg_requires_a_front(self, tmp_path):
        with pytest.raises(InvalidInputError, match="at least one front"):
            emit_front_svg({}, np.zeros((0, 2)), tmp_path / "x.svg")

    def test_svg_three_column_reference_rejected(self, tmp_path):
        # reshape(-1, 2) used to plot [[1, 2, 3], [4, 5, 6]] as three points
        with pytest.raises(InvalidInputError, match=r"shape \(2, 3\)"):
            emit_front_svg(
                {"tiny": np.array([[1.0, 2.0]])},
                np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
                tmp_path / "x.svg",
            )

    def test_svg_three_column_front_names_its_label(self, tmp_path):
        fronts = {"good": np.array([[1.0, 2.0]]), "wide": np.ones((2, 3))}
        with pytest.raises(InvalidInputError, match=r"^front 'wide': .*shape \(2, 3\)"):
            emit_front_svg(fronts, np.zeros((0, 2)), tmp_path / "x.svg")
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_svg_non_finite_point_names_label_and_row(self, tmp_path, bad):
        # used to write nan into the coordinates, with a RuntimeWarning; a NaN
        # row is refused by as_front's rule, an infinity by the plot's own
        front = np.array([[1.0, 2.0], [bad, 3.0]])
        path = tmp_path / "x.svg"
        reason = r"contains NaN: \[nan, 3\.0\]$" if np.isnan(bad) else "is not finite"
        with pytest.raises(InvalidInputError, match=rf"^front 'run': row 1 {reason}"):
            emit_front_svg({"good": np.array([[1.0, 2.0]]), "run": front}, np.zeros((0, 2)), path)
        with pytest.raises(InvalidInputError, match=rf"^reference: row 1 {reason}"):
            emit_front_svg({"good": np.array([[1.0, 2.0]])}, front, path)
        assert not path.exists()

    def test_svg_write_error_names_the_path(self, tmp_path):
        # the error is the one open() raised, not a re-wrapped OSError
        path = tmp_path / "missing" / "plot.svg"
        with pytest.raises(FileNotFoundError, match="plot.svg"):
            emit_front_svg({"tiny": np.array([[1.0, 2.0]])}, np.zeros((0, 2)), path)


class TestConfigFile:
    def test_pfops_round_trip(self, tmp_path):
        payload = {
            "problem": "convex",
            "algorithm": "pfops",
            "seed": 5,
            "pfops": {
                "n_targets": 4,
                "n_particles": 6,
                "sigma": 0.5,
                "metropolis_enabled": True,
                "final_filter_enabled": False,
                "scalarization": "weighted-sum",
            },
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        report = run_config_file(path)
        assert report.seed == 5
        assert report.eval_count == 2 * 4 * 6 + 2 * 4 * 6 * 2
        assert len(report.archive) == 4  # filter disabled keeps every incumbent

    def test_seed_override(self, tmp_path):
        payload = {
            "problem": "convex",
            "algorithm": "nsga2",
            "nsga2": {"pop_size": 8, "generations": 2},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        report = run_config_file(path, seed=11)
        assert report.seed == 11
        assert report.eval_count == 2 * 8 * 3

    def test_tchebycheff_custom(self, tmp_path):
        payload = {
            "problem": "fonseca",
            "algorithm": "pfops",
            "pfops": {
                "n_targets": 5,
                "n_particles": 4,
                "scalarization": "tchebycheff",
                "utopian": [-1.0, -1.0],
            },
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        report = run_config_file(path, seed=1)
        assert report.metadata["config"]["utopian"] == (-1.0, -1.0)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"problem": "convex"}))
        with pytest.raises(InvalidConfigError, match="algorithm"):
            run_config_file(path)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([], "expected a JSON object"),
            (3, "expected a JSON object"),
            ({"problem": 3, "algorithm": "pfops"}, "'problem' must be a string, got 3"),
            ({"problem": "convex", "algorithm": ["pfops"]},
             "'algorithm' must be a string, got ['pfops']"),
            ({"problem": "convex", "algorithm": "pfops", "pfops": []},
             "'pfops' must be a JSON object"),
            ({"problem": "convex", "algorithm": "nsga2", "nsga2": 5},
             "'nsga2' must be a JSON object"),
        ],
        ids=["list", "number", "problem", "algorithm", "pfops-section", "nsga2-section"],
    )
    def test_value_of_the_wrong_json_type_rejected(self, tmp_path, payload, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidConfigError) as info:
            load_config_file(path)
        assert str(info.value) == f"{path}: {message}"

    def test_unknown_algorithm(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"problem": "convex", "algorithm": "pso"}))
        with pytest.raises(InvalidConfigError, match="pso"):
            run_config_file(path)

    def test_unknown_algorithm_names_the_known_ones(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"problem": "convex", "algorithm": "pso"}))
        with pytest.raises(InvalidConfigError) as info:
            load_config_file(path)
        assert str(info.value) == f"{path}: unknown algorithm 'pso'; available: pfops, nsga2"

    def test_unknown_top_level_key_rejected(self, tmp_path):
        # "sead" used to be ignored, so the run went ahead at seed 0
        payload = {
            "problem": "convex",
            "algorithm": "nsga2",
            "sead": 7,
            "nsga2": {"pop_size": 4, "generations": 1},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidConfigError, match="sead"):
            run_config_file(path)

    @pytest.mark.parametrize(
        "algorithm, other",
        [
            ("nsga2", {"pfops": {"n_targets": "unread"}}),
            ("pfops", {"nsga2": {"pop_size": 7, "generations": "lots"}}),
        ],
        ids=["nsga2-run", "pfops-run"],
    )
    def test_other_algorithm_section_rejected(self, tmp_path, algorithm, other):
        # the section of the algorithm not run used to be skipped unchecked
        sections = {"pfops": {"n_targets": 3, "n_particles": 2},
                    "nsga2": {"pop_size": 4, "generations": 1}}
        payload = {"problem": "convex", "algorithm": algorithm,
                   algorithm: sections[algorithm], **other}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidConfigError) as info:
            run_config_file(path)
        (key,) = other
        assert str(info.value) == (
            f"{path}: '{key}' section given, but algorithm is '{algorithm}'"
        )

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"problem": "convex", "algorithm": "nsga2", "seed": 1, "seed": 3,'
             ' "nsga2": {"pop_size": 8, "generations": 2}}', "seed"),
            ('{"problem": "convex", "algorithm": "nsga2",'
             ' "nsga2": {"pop_size": 8, "generations": 2, "generations": 1}}', "generations"),
        ],
        ids=["top-level", "in-section"],
    )
    def test_duplicated_key_rejected(self, tmp_path, text, key):
        # json keeps the last of two equal keys, so this ran seed 3, generations 1
        path = tmp_path / "run.json"
        path.write_text(text)
        with pytest.raises(InvalidConfigError) as info:
            run_config_file(path)
        assert str(info.value) == f"{path}: duplicated key '{key}'"

    def test_file_that_is_not_utf8_rejected(self, tmp_path):
        # the locale's codec used to read it, here raising a raw UnicodeDecodeError
        path = tmp_path / "run.json"
        path.write_bytes('{"problem": "convex"}'.encode("utf-16"))
        with pytest.raises(InvalidConfigError, match=rf"^{re.escape(str(path))}: not UTF-8 text"):
            run_config_file(path)

    def test_non_integral_seed_override_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(
            json.dumps({"problem": "convex", "algorithm": "nsga2",
                        "nsga2": {"pop_size": 4, "generations": 1}})
        )
        with pytest.raises(InvalidConfigError, match="seed"):
            run_config_file(path, seed=2.5)

    def test_unrecognized_keys_rejected(self, tmp_path):
        payload = {
            "problem": "convex",
            "algorithm": "pfops",
            "pfops": {"n_targets": 3, "n_particles": 2, "typo": 1},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidConfigError, match="typo"):
            run_config_file(path)

    @pytest.mark.parametrize(
        "section, key",
        [
            ({"n_targets": 3, "n_particles": 2, "metropolis_enabled": "false"}, "metropolis_enabled"),
            ({"n_particles": 2}, "n_targets"),
            ({"n_targets": 10.5, "n_particles": 2}, "n_targets"),
            ({"n_targets": 3, "n_particles": "2"}, "n_particles"),
            ({"n_targets": 3, "n_particles": True}, "n_particles"),
            ({"n_targets": 3, "n_particles": 2, "scalarization": "pareto"}, "scalarization"),
            (
                {"n_targets": 3, "n_particles": 2, "scalarization": "tchebycheff",
                 "utopian": ["-1", -1.0]},
                "utopian",
            ),
        ],
    )
    def test_bad_section_value_names_the_key(self, tmp_path, section, key):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"problem": "convex", "algorithm": "pfops", "pfops": section}))
        with pytest.raises(InvalidConfigError, match=key):
            run_config_file(path)


    @pytest.mark.parametrize("seed", ["3", True, 2.0, -1])
    def test_bad_seed_names_the_key(self, tmp_path, seed):
        payload = {
            "problem": "convex",
            "algorithm": "nsga2",
            "seed": seed,
            "nsga2": {"pop_size": 4, "generations": 1},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidConfigError, match="seed"):
            run_config_file(path)


    @pytest.mark.parametrize("algorithm", ["pfops", "nsga2"])
    @pytest.mark.parametrize("seed", ["3", -1])
    def test_bad_seed_reported_as_top_level_key(self, tmp_path, algorithm, seed):
        # the seed is a top-level key; it used to read "run.json: nsga2: seed ..."
        sections = {"pfops": {"n_targets": 3, "n_particles": 2},
                    "nsga2": {"pop_size": 4, "generations": 1}}
        payload = {"problem": "convex", "algorithm": algorithm, "seed": seed,
                   algorithm: sections[algorithm]}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidConfigError) as info:
            load_config_file(path)
        assert str(info.value) == f"{path}: seed must be an integer >= 0, got {seed!r}"


    def test_removed_nsga2_operator_key_rejected(self, tmp_path):
        # the operator settings are fixed; a file that still sets one is stale
        section = {"pop_size": 4, "generations": 1, "crossover_prob": 0.9}
        path = _config_file(tmp_path, "convex", "nsga2", section)
        with pytest.raises(InvalidConfigError) as info:
            load_config_file(path)
        assert str(info.value) == f"{path}: nsga2: unrecognized keys ['crossover_prob']"

    def test_readme_schema_lists_the_accepted_keys(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("Custom-run JSON schema:", 1)[1]
        schema = json.loads(block.split("```json", 1)[1].split("```", 1)[0])
        assert set(schema) == experiments._TOP_LEVEL_KEYS
        for algorithm, cls in experiments._CONFIG_CLASSES.items():
            assert set(schema[algorithm]) == set(experiments._section_fields(cls)), algorithm

    def test_unknown_problem_names_the_file(self, tmp_path):
        # the problem used to be checked only at run time, without the path
        path = _config_file(tmp_path, "nope", "nsga2", {"pop_size": 4, "generations": 1})
        with pytest.raises(NotFoundError) as info:
            load_config_file(path)
        assert str(info.value) == (
            f"{path}: unknown problem 'nope'; available: convex, fonseca, kursawe"
        )


def _config_file(tmp_path, problem, algorithm, section, seed=None):
    payload = {"problem": problem, "algorithm": algorithm, algorithm: section}
    if seed is not None:
        payload["seed"] = seed
    path = tmp_path / f"{algorithm}.json"
    path.write_text(json.dumps(payload))
    return path


# the long presets cut to a few steps or generations, their other settings kept
_SHORTENED = {
    "nsga2-fonseca": {"generations": 5},
    "nsga2-kursawe": {"generations": 5},
    "pfops-fonseca": {"n_targets": 10},
    "pfops-kursawe": {"n_targets": 10},
}


class TestOneConfigPath:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_report_reruns_as_a_config_file(self, tmp_path, name):
        # the report's config used to hold the seed and "scalarization_kind",
        # which a config file's section refuses
        preset = PRESETS[name]
        preset = replace(preset, config=replace(preset.config, **_SHORTENED.get(name, {})))
        report = experiments._execute(preset, 3)
        md = json.loads(json.dumps(report.metadata))  # as the run --out JSON holds it
        path = _config_file(tmp_path, md["problem"], md["algorithm"], md["config"], report.seed)
        rerun = run_config_file(path)
        for array in ("decisions", "front"):
            a, b = getattr(report.archive, array), getattr(rerun.archive, array)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), array
        assert (rerun.eval_count, rerun.seed) == (report.eval_count, report.seed)
        assert json.dumps(rerun.metadata["config"]) == json.dumps(md["config"])

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_written_as_file_loads_back_equal(self, tmp_path, name):
        preset = PRESETS[name]
        section = experiments.config_section(preset.config)
        path = _config_file(
            tmp_path, preset.problem, preset.algorithm, section, preset.config.seed
        )
        loaded = load_config_file(path)
        assert loaded.name == f"custom:{path.name}"
        assert (loaded.problem, loaded.algorithm, loaded.config) == (
            preset.problem, preset.algorithm, preset.config
        )

    @pytest.mark.parametrize(
        "algorithm, section, expected",
        [
            ("pfops", {"n_targets": 5, "n_particles": 4}, PfopsConfig(5, 4)),
            ("nsga2", {"pop_size": 6, "generations": 3}, Nsga2Config(6, 3)),
        ],
    )
    def test_required_keys_only_give_the_dataclass_defaults(
        self, tmp_path, algorithm, section, expected
    ):
        path = _config_file(tmp_path, "convex", algorithm, section)
        loaded = load_config_file(path)
        assert (loaded.problem, loaded.algorithm, loaded.config) == ("convex", algorithm, expected)


class TestPfopsConfigDefaults:
    def test_defaults(self):
        cfg = PfopsConfig(n_targets=2, n_particles=1)
        assert cfg.sigma == 1.0
        assert cfg.metropolis_enabled is True
        assert cfg.final_filter_enabled is True

    def test_nsga2_defaults(self):
        assert Nsga2Config(pop_size=4, generations=1).seed == 0
        assert nsga2.CROSSOVER_PROB == 0.9
        assert nsga2.CROSSOVER_INDEX == nsga2.MUTATION_INDEX == 20.0


@pytest.mark.parametrize(
    "config, field",
    [
        (partial(PfopsConfig, n_targets=10.5, n_particles=5), "n_targets"),
        (partial(PfopsConfig, n_targets=10, n_particles=5.0), "n_particles"),
        (partial(PfopsConfig, n_targets=10, n_particles=5, seed=-1), "seed"),
        (partial(Nsga2Config, pop_size=10.0, generations=2), "pop_size"),
        (partial(Nsga2Config, pop_size=4, generations=2.5), "generations"),
        (partial(Nsga2Config, pop_size=4, generations=2, seed=-1), "seed"),
    ],
)
def test_config_rejects_non_integral_counts_and_negative_seed(config, field):
    with pytest.raises(InvalidConfigError, match=field):
        config()
