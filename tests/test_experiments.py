import json
import xml.etree.ElementTree as ET
from dataclasses import asdict, fields, replace
from functools import partial

import numpy as np
import pytest

import pfops.experiments as experiments
from pfops.core import ParetoArchive, PfopsConfig
from pfops.errors import InvalidConfigError, InvalidInputError, NotFoundError
from pfops.experiments import (
    HYPERVOLUME_REF,
    PRESETS,
    ExperimentPreset,
    REFERENCE_RESOLUTION,
    RunReport,
    compare,
    emit_front_csv,
    emit_front_svg,
    load_config_file,
    run_config_file,
    run_preset,
    write_comparison_csv,
)
from pfops.nsga2 import Nsga2Config
from pfops.pareto import hypervolume_2d, igd, read_front_csv, reference_front
from pfops.problems import lookup_problem
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
        cfg = PRESETS["nsga2-convex-sufficient"].config
        assert cfg.crossover_prob == 0.9
        assert cfg.crossover_index == 20.0
        assert cfg.mutation_prob is None  # resolved to 1/d at run time
        assert cfg.mutation_index == 20.0

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


class TestRunPreset:
    def test_eval_counts(self):
        assert run_preset("pfops-convex-sufficient", 0).eval_count == 20000
        assert run_preset("pfops-convex-under", 0).eval_count == 200

    def test_unknown_preset(self):
        with pytest.raises(NotFoundError, match="pfops-convex-sufficient"):
            run_preset("nonexistent", 0)

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
        ref_point = np.asarray(HYPERVOLUME_REF["convex"])
        inside = report.archive.front[np.all(report.archive.front < ref_point, axis=1)]
        assert report.hypervolume == pytest.approx(
            hypervolume_2d(inside, ref_point), abs=1e-12
        )

    def test_metadata_audit_fields(self):
        report = run_preset("pfops-convex-under", 1)
        md = report.metadata
        assert md["resampling_scheme"] == "multinomial"
        assert md["metropolis_enabled"] is False
        assert md["final_filter_enabled"] is True
        assert md["seed"] == 1
        assert md["measured_eval_count"] == report.eval_count
        assert md["nominal_eval_count"] == 200
        json.dumps(md)  # must be serializable for report artifacts

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
        assert report.metadata["seed"] == 3 and type(report.metadata["seed"]) is int


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
        assert result.seeds == [0, 1]
        assert [row["seed"] for row in result.rows] == [0, 1]

    def test_performs_exactly_2n_runs(self, monkeypatch):
        calls = []
        original = experiments.run_preset

        def counting(name, seed):
            calls.append((name, seed))
            return original(name, seed)

        monkeypatch.setattr(experiments, "run_preset", counting)
        experiments.compare("pfops-convex-under", "nsga2-convex-under", [0, 1, 2, 3])
        assert len(calls) == 8

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
        write_comparison_csv(result, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("seed,igd:pfops-convex-under,igd:nsga2-convex-under")
        assert len(lines) == 1 + 3 + 1  # header, three seeds, median row
        assert lines[-1].startswith("median,")


def _tiny_report(front, label="tiny"):
    front = np.asarray(front, dtype=float).reshape(-1, 2)
    return RunReport(
        archive=ParetoArchive(decisions=np.zeros((len(front), 2)), front=front),
        igd=0.0,
        hypervolume=0.0,
        eval_count=0,
        wall_time=0.0,
        seed=0,
        metadata={"label": label, "problem": "convex"},
    )


class TestEmitters:
    def test_front_csv_format(self, tmp_path):
        report = _tiny_report([[0.0, 50.0], [50.0, 0.0]])
        path = tmp_path / "front.csv"
        emit_front_csv(report, path)
        assert path.read_text() == "f1,f2\n0,50\n50,0\n"

    def test_front_csv_empty_archive(self, tmp_path):
        path = tmp_path / "front.csv"
        emit_front_csv(_tiny_report(np.zeros((0, 2))), path)
        assert path.read_text() == "f1,f2\n"

    def test_front_csv_round_trip(self, tmp_path):
        report = run_preset("pfops-convex-under", 2)
        path = tmp_path / "front.csv"
        emit_front_csv(report, path)
        back = read_front_csv(path)
        expected = report.archive.front[np.argsort(report.archive.front[:, 0], kind="stable")]
        np.testing.assert_array_equal(back, expected)

    def test_svg_structure(self, tmp_path):
        path = tmp_path / "plot.svg"
        reference = reference_front("convex", 30)
        emit_front_svg([_tiny_report([[0.0, 50.0], [50.0, 0.0]])], reference, path)
        root = ET.parse(path).getroot()  # well-formed markup
        ns = "{http://www.w3.org/2000/svg}"
        groups = root.findall(f"{ns}g")
        polylines = root.findall(f"{ns}polyline")
        assert len(groups) == 1
        assert len(polylines) == 1
        texts = [t.text for t in root.iter(f"{ns}text")]
        assert "f1" in texts and "f2" in texts

    def test_svg_two_reports_two_groups(self, tmp_path):
        path = tmp_path / "plot.svg"
        reports = [
            _tiny_report([[0.0, 50.0]], label="one"),
            _tiny_report([[50.0, 0.0]], label="two"),
        ]
        emit_front_svg(reports, reference_front("convex", 10), path)
        root = ET.parse(path).getroot()
        assert len(root.findall("{http://www.w3.org/2000/svg}g")) == 2

    def test_svg_label_with_quotes_round_trips(self, tmp_path):
        path = tmp_path / "plot.svg"
        label = """say "hi" & it's"""
        emit_front_svg([_tiny_report([[1.0, 2.0]], label=label)], np.zeros((0, 2)), path)
        root = ET.parse(path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        assert root.find(f"{ns}g").get("data-label") == label
        assert label in [t.text for t in root.iter(f"{ns}text")]

    def test_svg_empty_reference_no_polyline(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_front_svg([_tiny_report([[1.0, 2.0]])], np.zeros((0, 2)), path)
        root = ET.parse(path).getroot()
        assert root.findall("{http://www.w3.org/2000/svg}polyline") == []

    def test_svg_requires_a_report(self, tmp_path):
        with pytest.raises(InvalidInputError):
            emit_front_svg([], np.zeros((0, 2)), tmp_path / "x.svg")

    def test_svg_three_column_reference_rejected(self, tmp_path):
        # reshape(-1, 2) used to plot [[1, 2, 3], [4, 5, 6]] as three points
        with pytest.raises(InvalidInputError, match=r"shape \(2, 3\)"):
            emit_front_svg(
                [_tiny_report([[1.0, 2.0]])], np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
                tmp_path / "x.svg",
            )


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

    def test_unknown_algorithm(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"problem": "convex", "algorithm": "pso"}))
        with pytest.raises(InvalidConfigError, match="pso"):
            run_config_file(path)

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

    def test_other_algorithm_section_allowed(self, tmp_path):
        payload = {
            "problem": "convex",
            "algorithm": "nsga2",
            "pfops": {"n_targets": "unread"},
            "nsga2": {"pop_size": 4, "generations": 1},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        assert run_config_file(path).eval_count == 2 * 4 * 2

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


class TestOneConfigPath:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_written_as_file_loads_back_equal(self, tmp_path, name):
        preset = PRESETS[name]
        section = asdict(preset.config)
        seed = section.pop("seed")
        if preset.algorithm == "pfops":
            section["scalarization"] = section.pop("scalarization_kind").value
        path = _config_file(tmp_path, preset.problem, preset.algorithm, section, seed)
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
        cfg = Nsga2Config(pop_size=4, generations=1)
        assert cfg.crossover_prob == 0.9
        assert cfg.mutation_index == 20.0


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
