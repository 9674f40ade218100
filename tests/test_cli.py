import json

import numpy as np
import pytest

from pfops.cli import main
from pfops.pareto import read_front_csv


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("convex", "fonseca", "kursawe", "pfops-convex-sufficient", "nsga2-kursawe"):
        assert name in out


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

    front = read_front_csv(front_csv)
    assert front.shape[1] == 2 and len(front) >= 1
    payload = json.loads(report_json.read_text())
    assert payload["eval_count"] == 200
    assert payload["metadata"]["resampling_scheme"] == "multinomial"
    assert svg.read_text().startswith("<svg")


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


def test_run_negative_seed(capsys):
    assert main(["run", "--preset", "pfops-convex-under", "--seed", "-1"]) == 1
    assert "seed must be an integer >= 0" in capsys.readouterr().err


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
    code = main(["compare", "--a", "x", "--b", "y", "--seeds", "0,oops"])
    assert code == 2
    assert "seed list" in capsys.readouterr().err


def test_compare_problem_mismatch(capsys):
    code = main([
        "compare", "--a", "pfops-convex-under", "--b", "pfops-fonseca", "--seeds", "0",
    ])
    assert code == 1
    assert "different problems" in capsys.readouterr().err


def test_reference_regeneration(tmp_path, capsys):
    out = tmp_path / "convex_front.csv"
    assert main(["reference", "--problem", "convex", "--resolution", "5", "--out", str(out)]) == 0
    front = read_front_csv(out)
    np.testing.assert_allclose(front[0], [0.0, 50.0])
    np.testing.assert_allclose(front[-1], [50.0, 0.0])
    assert len(front) == 5


def test_reference_rejects_unknown_problem():
    with pytest.raises(SystemExit) as excinfo:
        main(["reference", "--problem", "zdt1", "--resolution", "5"])
    assert excinfo.value.code == 2
