import argparse
import dataclasses
import json
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from pfops import experiments, pareto, problems
from pfops.cli import _build_parser, _write_run_artifacts, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("convex", "fonseca", "kursawe", "pfops-convex-sufficient", "nsga2-kursawe"):
        assert name in out


def test_list_offers_the_scoring_table(monkeypatch, capsys):
    # a factory without a scoring record is refused by presets and config files,
    # so it is not listed either
    monkeypatch.setitem(problems.PROBLEM_FACTORIES, "line", problems.convex_problem)
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    listed = out.split("problems:\n", 1)[1].split("presets:\n", 1)[0].split()
    assert listed == list(pareto.BENCHMARKS)
    assert "line" not in listed


def test_list_lines_load_back_to_the_presets(tmp_path, capsys):
    # each preset line ends in the preset as a config file without a seed
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.split("presets:\n", 1)[1].splitlines()
    assert [line.split()[0] for line in lines] == list(experiments.PRESETS)
    for line in lines:
        name, text = line.split(maxsplit=1)
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        loaded = experiments.load_config_file(path)
        preset = experiments.PRESETS[name]
        assert (loaded.problem, loaded.algorithm, loaded.config) == (
            preset.problem, preset.algorithm, preset.config
        )


def test_run_preset_with_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code = main([
        "run", "--preset", "pfops-convex-under", "--seed", "3", "--out", str(out_dir),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "igd:" in stdout and "eval count: 200" in stdout

    front_csv = out_dir / "pfops-convex-under_seed3_front.csv"
    report_json = out_dir / "pfops-convex-under_seed3_report.json"
    svg = out_dir / "pfops-convex-under_seed3_front.svg"
    assert front_csv.is_file() and report_json.is_file() and svg.is_file()

    front = np.loadtxt(front_csv, delimiter=",", skiprows=1, ndmin=2)
    assert front.shape[1] == 2 and len(front) >= 1
    payload = json.loads(report_json.read_text())
    assert list(payload) == ["igd", "hypervolume", "eval_count", "wall_time", "seed", "metadata"]
    assert payload["eval_count"] == 200
    # the seed is stated once, at the top level; the config section holds none
    assert payload["seed"] == 3 and "seed" not in payload["metadata"]["config"]
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize("name", ["pfops-convex-under", "nsga2-convex-under"])
def test_run_report_reruns_as_a_config_file(tmp_path, name):
    # the report's problem, algorithm, seed and metadata.config make a config
    # file with no edit, and its rerun writes the same front CSV, byte for byte
    assert main(["run", "--preset", name, "--seed", "0", "--out", str(tmp_path / "cli")]) == 0
    report = json.loads((tmp_path / "cli" / f"{name}_seed0_report.json").read_text())
    md = report["metadata"]
    config = tmp_path / "from-report.json"
    config.write_text(json.dumps({
        "problem": md["problem"], "algorithm": md["algorithm"], "seed": report["seed"],
        md["algorithm"]: md["config"],
    }))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "rerun")]) == 0
    stems = [
        tmp_path / "cli" / f"{name}_seed0", tmp_path / "rerun" / "custom_from-report.json_seed0"
    ]
    first, again = (Path(f"{stem}_front.csv").read_bytes() for stem in stems)
    assert first == again
    for stem in stems:
        ET.parse(f"{stem}_front.svg")  # well-formed markup


def test_report_json_holds_every_report_field_but_the_archive(tmp_path):
    # a field added to RunReport reaches the JSON with no edit to the CLI
    @dataclasses.dataclass
    class Extended(experiments.RunReport):
        min_ess: float = 0.25

    report = experiments.run_preset("nsga2-convex-under", 4)
    extended = Extended(**{f.name: getattr(report, f.name) for f in dataclasses.fields(report)})
    _write_run_artifacts(extended, str(tmp_path))
    payload = json.loads((tmp_path / "nsga2-convex-under_seed4_report.json").read_text())
    names = [f.name for f in dataclasses.fields(experiments.RunReport) if f.name != "archive"]
    assert list(payload) == names + ["min_ess"]
    assert payload["min_ess"] == 0.25
    assert payload["igd"] == report.igd and payload["seed"] == 4
    assert payload["metadata"] == json.loads(json.dumps(report.metadata))


def test_run_unwritable_out_reported(tmp_path, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    assert main(["run", "--preset", "pfops-convex-under", "--out", str(blocker)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err


def test_run_default_seed_zero(capsys):
    assert main(["run", "--preset", "pfops-convex-under"]) == 0
    assert "seed:       0" in capsys.readouterr().out


def test_run_config_file(tmp_path, capsys):
    cfg = {
        "problem": "convex",
        "algorithm": "pfops",
        "seed": 2,
        "pfops": {"n_targets": 3, "n_particles": 4, "metropolis_enabled": False},
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 0
    assert "eval count: 24" in capsys.readouterr().out


def test_run_config_file_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"problem": ')
    assert main(["run", "--config", str(path)]) == 1
    assert "broken.json" in capsys.readouterr().err


def test_run_config_file_not_utf8(tmp_path, capsys):
    # a file starting FF FE used to end in a UnicodeDecodeError traceback
    path = tmp_path / "utf16.json"
    path.write_bytes('{"problem": "convex"}'.encode("utf-16"))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "algorithm, section, field",
    [
        ("pfops", {"n_targets": 2, "n_particles": 10**20}, "n_particles"),
        ("pfops", {"n_targets": 10**20, "n_particles": 4}, "n_targets"),
        ("nsga2", {"pop_size": 10**20, "generations": 2}, "pop_size"),
    ],
    ids=["n_particles", "n_targets", "pop_size"],
)
def test_run_config_count_numpy_cannot_size(tmp_path, capsys, algorithm, section, field):
    # numpy refuses a 10**20 dimension with a bare ValueError before it
    # allocates anything; the count is named instead
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"problem": "kursawe", "algorithm": algorithm, algorithm: section}))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} is too large: numpy cannot size {10**20} x ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "owner, name, argv",
    [
        (experiments, "run_preset", ["run", "--preset", "pfops-convex-under"]),
        (pareto, "reference_front", ["reference", "--problem", "kursawe", "--resolution", "9"]),
    ],
    ids=["run", "reference"],
)
@pytest.mark.parametrize("message", ["Unable to allocate 74.5 GiB for an array", ""])
def test_memory_error_reported(monkeypatch, capsys, owner, name, argv, message):
    # the allocation is faked: on a host that overcommits memory, asking for
    # it could succeed and get the process killed
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(owner, name, out_of_memory)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message or 'out of memory'}\n"


def _refused_by_parser(capsys, argv):
    """The last stderr line of ``main(argv)``, which must exit with code 2."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    return capsys.readouterr().err.splitlines()[-1]


def test_run_negative_seed(capsys):
    # once refused by the config (exit code 1), now by the seed syntax
    err = _refused_by_parser(capsys, ["run", "--preset", "pfops-convex-under", "--seed", "-1"])
    assert err == "pfops run: error: argument --seed: '-1' is not a seed (ASCII decimal digits)"


@pytest.mark.parametrize("seed", ["1_0", " 3", "3 ", "+3", "\u0663", "3.0", ""])
def test_run_seed_is_ascii_digits(capsys, seed):
    # int() reads each of these but "3.0" and "" as a seed ("1_0" as 10)
    err = _refused_by_parser(capsys, ["run", "--preset", "pfops-convex-under", "--seed", seed])
    assert err.endswith(f"argument --seed: '{seed}' is not a seed (ASCII decimal digits)")


def test_run_unknown_preset(capsys):
    code = main(["run", "--preset", "nope", "--seed", "0"])
    assert code == 1
    # the message as written, not the repr KeyError's str() would give
    assert capsys.readouterr().err.startswith("error: unknown preset 'nope'; available: pfops-")


def test_run_config_unknown_problem(tmp_path, capsys):
    path = tmp_path / "nope.json"
    path.write_text(json.dumps({
        "problem": "nope", "algorithm": "pfops", "pfops": {"n_targets": 3, "n_particles": 4},
    }))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: unknown problem 'nope'; available: convex, fonseca, kursawe\n"


def test_compare(tmp_path, capsys):
    out_dir = tmp_path / "cmp"
    code = main([
        "compare", "--a", "pfops-convex-under", "--b", "nsga2-convex-under",
        "--seeds", "0,1,2", "--out", str(out_dir),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "lower median IGD" in stdout
    csv_path = out_dir / "compare_pfops-convex-under_vs_nsga2-convex-under.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 5  # header + 3 seeds + median


def test_compare_bad_seed_list(capsys):
    err = _refused_by_parser(capsys, ["compare", "--a", "x", "--b", "y", "--seeds", "0,oops"])
    assert err.endswith("seed list: item 2: 'oops' is not a seed (ASCII decimal digits)")


@pytest.mark.parametrize(
    "seeds, position", [("0,,1", 2), ("0,1,", 3), (",0", 1), (" ", 1)]
)
def test_compare_blank_seed_rejected(capsys, seeds, position):
    # blank items used to be dropped, so "0,,1," ran seeds 0 and 1
    err = _refused_by_parser(capsys, ["compare", "--a", "x", "--b", "y", "--seeds", seeds])
    item = " " if seeds == " " else ""
    assert err == (
        f"pfops compare: error: argument --seeds: could not parse seed list: "
        f"item {position}: '{item}' is not a seed (ASCII decimal digits)"
    )


@pytest.mark.parametrize(
    "seeds, item, position", [("1_0", "1_0", 1), ("0, 1", " 1", 2), ("0,\u0663", "\u0663", 2)]
)
def test_compare_seeds_are_ascii_digits(capsys, seeds, item, position):
    # int() would run "1_0" as seed 10, and " 1" and the Arabic-Indic three as 1 and 3
    err = _refused_by_parser(capsys, ["compare", "--a", "x", "--b", "y", "--seeds", seeds])
    assert err.endswith(f"seed list: item {position}: '{item}' is not a seed (ASCII decimal digits)")


def test_compare_long_seed_item_named_by_position(capsys):
    # the whole --seeds text used to be echoed: 5204 bytes of stderr here
    nines = "9" * 5000
    with pytest.raises(SystemExit) as excinfo:
        main(["compare", "--a", "x", "--b", "y", "--seeds", f"1,{nines},2"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert len(err) < 1000, err  # the usage line and one short error line
    last = err.splitlines()[-1]
    limit = sys.get_int_max_str_digits()
    assert last == (
        "pfops compare: error: argument --seeds: could not parse seed list: item 2: "
        f"a seed of 5000 digits is too long: Python reads at most {limit} digits"
    )


def test_compare_problem_mismatch(capsys):
    code = main([
        "compare", "--a", "pfops-convex-under", "--b", "pfops-fonseca", "--seeds", "0",
    ])
    assert code == 1
    assert "different problems" in capsys.readouterr().err


def test_reference_regeneration(tmp_path, capsys):
    out = tmp_path / "convex_front.csv"
    assert main(["reference", "--problem", "convex", "--resolution", "5", "--out", str(out)]) == 0
    front = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    np.testing.assert_allclose(front[0], [0.0, 50.0])
    np.testing.assert_allclose(front[-1], [50.0, 0.0])
    assert len(front) == 5


def test_reference_builds_the_front_anew(tmp_path, monkeypatch, capsys):
    # a shipped CSV is never copied: the command writes what the record's
    # builder gives, here the grid front, not the wrong file in the data directory
    data = tmp_path / "data"
    data.mkdir()
    pareto.write_front_csv([[0.0, 0.0]], data / "kursawe_front_21.csv")
    monkeypatch.setattr(pareto, "_DATA_DIR", data)
    out = tmp_path / "kursawe_front_21.csv"
    assert main(["reference", "--problem", "kursawe", "--resolution", "21", "--out", str(out)]) == 0
    front = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    np.testing.assert_array_equal(front, pareto.BENCHMARKS["kursawe"].front(21))
    assert capsys.readouterr().out == f"wrote {out} ({len(front)} points)\n"


def test_shipped_kursawe_front_is_its_grid_rebuilt(tmp_path, capsys):
    # the shipped CSV against what `reference` builds anew, by value: on
    # another SIMD level (numpy's AVX-512 dispatch off, say) the rebuild's
    # last bits differ
    out = tmp_path / "kursawe_front_201.csv"
    assert main(["reference", "--problem", "kursawe", "--resolution", "201", "--out", str(out)]) == 0
    shipped_path = Path(pareto.__file__).parent / "data" / "kursawe_front_201.csv"
    built, shipped = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2) for p in (out, shipped_path))
    assert built.shape == shipped.shape
    assert np.allclose(built, shipped, rtol=0, atol=1e-12), np.abs(built - shipped).max()


def test_reference_rejects_resolution_below_two(capsys):
    assert main(["reference", "--problem", "convex", "--resolution", "1"]) == 1
    assert capsys.readouterr().err == "error: resolution must be an integer >= 2, got 1\n"


@pytest.mark.parametrize("resolution", ["1_0", " 5", "5 ", "+5", "\uff13", "5.0", ""])
def test_reference_resolution_is_ascii_digits(capsys, resolution):
    # int() reads each of these but "5.0" and "": "1_0" wrote a 10-point front
    err = _refused_by_parser(capsys, ["reference", "--problem", "convex", "--resolution", resolution])
    assert err.endswith(
        f"argument --resolution: '{resolution}' is not a resolution (ASCII decimal digits)"
    )


def test_reference_rejects_unsizable_resolution(capsys):
    # np.linspace refused it with a bare ValueError, printed as a traceback
    assert main(["reference", "--problem", "convex", "--resolution", "9" * 20]) == 1
    assert capsys.readouterr().err == (
        f"error: resolution is too large: numpy cannot size {'9' * 20} x 2 float64 values\n"
    )


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["run", "--preset", "pfops-convex-under", "--seed"], ""),
        (["compare", "--a", "x", "--b", "y", "--seeds"], "0,"),
        (["reference", "--problem", "convex", "--resolution"], ""),
    ],
    ids=["seed", "seeds", "resolution"],
)
def test_count_past_the_int_digit_limit_refused(capsys, argv, prefix):
    # int() raised its digit-limit ValueError, which argparse reported as
    # "invalid _resolution value: '999...'" (or _seed, _seed_list)
    limit = sys.get_int_max_str_digits()
    with pytest.raises(SystemExit) as excinfo:
        main(argv + [prefix + "9" * (limit + 1)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert not any(name in err for name in ("_seed", "_resolution", "_seed_list"))
    assert err.endswith(f"of {limit + 1} digits is too long: Python reads at most {limit} digits\n")


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["run", "--preset", "pfops-convex-under", "--seed"], ""),
        (["compare", "--a", "x", "--b", "y", "--seeds"], "1,"),
        (["reference", "--problem", "convex", "--resolution"], ""),
    ],
    ids=["seed", "seeds", "resolution"],
)
def test_long_item_quoted_by_its_start_and_length(capsys, argv, prefix):
    # the whole item used to be echoed: 5215 bytes of stderr for --resolution
    with pytest.raises(SystemExit) as excinfo:
        main(argv + [prefix + "x" * 5000])
    assert excinfo.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert all(len(line) < 200 for line in lines), lines
    assert f"'{'x' * 60}...' (5000 characters) is not a " in lines[-1]


def test_reference_rejects_unknown_problem():
    with pytest.raises(SystemExit) as excinfo:
        main(["reference", "--problem", "zdt1", "--resolution", "5"])
    assert excinfo.value.code == 2


def test_reference_offers_the_scoring_table(monkeypatch):
    # a factory without a scoring record has no front to build
    monkeypatch.setitem(problems.PROBLEM_FACTORIES, "line", problems.convex_problem)
    (commands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (problem,) = [a for a in commands.choices["reference"]._actions if a.dest == "problem"]
    assert tuple(problem.choices) == tuple(pareto.BENCHMARKS)
    with pytest.raises(SystemExit) as excinfo:
        main(["reference", "--problem", "line", "--resolution", "5"])
    assert excinfo.value.code == 2


def _config_bytes(section, algorithm="pfops", problem="convex"):
    return json.dumps({"problem": problem, "algorithm": algorithm, algorithm: section}).encode()


# each input that `pfops` refuses with exit code 1: its argv, where "FILE"
# stands for a config file holding the given bytes
REFUSED_INPUTS = {
    "duplicated-key": (["run", "--config", "FILE"], (
        b'{"problem": "convex", "algorithm": "nsga2", "seed": 1, "seed": 3,'
        b' "nsga2": {"pop_size": 8, "generations": 2}}'
    )),
    "not-utf8": (["run", "--config", "FILE"], b"\xff\xfe{\x00}\x00"),  # UTF-16
    "unsizable-count": (["run", "--config", "FILE"], _config_bytes(
        {"n_targets": 2, "n_particles": 10**20}
    )),
    "unknown-preset": (["run", "--preset", "nope"], None),
    "unsizable-resolution": (["reference", "--problem", "convex", "--resolution", "9" * 20], None),
    # a 5000-character input is quoted by its start and its length
    "long-preset": (["run", "--preset", "x" * 5000], None),
    "long-problem": (["run", "--config", "FILE"], _config_bytes(
        {"n_targets": 2, "n_particles": 2}, problem="x" * 5000
    )),
    "long-count": (["run", "--config", "FILE"], _config_bytes(
        {"n_targets": "x" * 5000, "n_particles": 2}
    )),
}


@pytest.mark.parametrize("case", REFUSED_INPUTS)
def test_refused_input_exits_1_with_one_short_error_line(tmp_path, monkeypatch, capsys, case):
    argv, content = REFUSED_INPUTS[case]
    if content is not None:
        # the message starts with the path as given: a short one, as typed
        monkeypatch.chdir(tmp_path)
        Path("run.json").write_bytes(content)
        argv = ["run.json" if arg == "FILE" else arg for arg in argv]
    assert main(argv) == 1  # not an exception, which would print a traceback
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert lines[0].startswith("error: ")
    assert sum(line.startswith("error:") for line in lines) == 1
    assert "Traceback" not in captured.err and captured.out == ""
    assert all(len(line) < 200 for line in lines), lines
