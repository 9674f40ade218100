import subprocess
import sys
import textwrap
from pathlib import Path

import pfops

SRC = str(Path(pfops.__file__).resolve().parents[1])


def test_library_runs_without_scipy(tmp_path):
    # a fresh interpreter in which every scipy import fails: the library,
    # a preset run (IGD included) and the SVG writer must still work, and
    # the SVG label escaping must not pull in xml.sax
    script = textwrap.dedent(
        f"""
        import sys
        from pathlib import Path

        sys.modules["scipy"] = None
        sys.path.insert(0, {SRC!r})
        import pfops

        report = pfops.run_preset("pfops-convex-under", 0)
        out = Path({str(tmp_path / "plot.svg")!r})
        fronts = {{"a&<>b": report.archive.front}}
        pfops.emit_front_svg(fronts, pfops.reference_front("convex", 10), out)
        assert "a&amp;&lt;&gt;b" in out.read_text(), out.read_text()
        sax = sorted(m for m in sys.modules if m == "xml.sax" or m.startswith("xml.sax."))
        assert not sax, sax
        print(report.igd)
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) > 0.0


# the documented library API: what the README lists, what the acceptance
# gate, the demos and bench/ read from `pfops`, the error classes and
# ScalarizationKind; everything else stays in its submodule
API = {
    "BiObjectiveProblem",
    "BoundsError",
    "DegenerateWeightsError",
    "InvalidConfigError",
    "InvalidInputError",
    "NotFoundError",
    "Nsga2Config",
    "PRESETS",
    "ParetoArchive",
    "PfopsConfig",
    "PfopsError",
    "RunReport",
    "ScalarizationKind",
    "compare",
    "convex_problem",
    "crowding_distance",
    "dominates",
    "emit_front_svg",
    "evolve",
    "fast_nondominated_sort",
    "hypervolume_2d",
    "igd",
    "importance_weights",
    "lookup_problem",
    "nondominated_mask",
    "reference_front",
    "run",
    "run_config_file",
    "run_preset",
    "write_front_csv",
}


def test_public_api_is_pinned():
    assert len(API) == 30
    assert set(pfops.__all__) == API
    assert len(pfops.__all__) == len(API)  # no name listed twice


def test_every_exported_name_resolves():
    for name in pfops.__all__:
        assert getattr(pfops, name) is not None, name
    namespace = {}
    exec("from pfops import *", namespace)
    assert API <= set(namespace)


def test_every_exported_name_is_in_the_readme_api_section():
    readme = (Path(SRC).parent / "README.md").read_text()
    section = readme.split("## Library API", 1)[1].split("\n## ", 1)[0]
    missing = sorted(name for name in API if f"`{name}`" not in section)
    assert not missing
