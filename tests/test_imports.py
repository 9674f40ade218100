import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pfops
from pfops import core, problems, scalarize

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
# gate, the demos and bench/ read from `pfops`, the error classes, and the
# three PFOPS step functions with the types they take; everything else
# stays in its submodule
API = {
    "BiObjectiveProblem",
    "BoundsError",
    "CoordinateSum",
    "DegenerateWeightsError",
    "InvalidConfigError",
    "InvalidInputError",
    "NotFoundError",
    "Nsga2Config",
    "PRESETS",
    "ParetoArchive",
    "PfopsConfig",
    "PfopsError",
    "Population",
    "RunReport",
    "Scalarization",
    "ScalarizationKind",
    "compare",
    "convex_problem",
    "crowding_distance",
    "dominates",
    "emit_front_svg",
    "evolve",
    "hypervolume_2d",
    "igd",
    "importance_weights",
    "lookup_problem",
    "metropolis_sweep",
    "nondominated_mask",
    "reference_front",
    "resample",
    "run",
    "run_config_file",
    "run_preset",
    "write_front_csv",
}


def test_public_api_is_pinned():
    assert len(API) == 34
    assert set(pfops.__all__) == API
    assert len(pfops.__all__) == len(API)  # no name listed twice


def test_every_exported_name_resolves():
    for name in pfops.__all__:
        assert getattr(pfops, name) is not None, name
    # the step API is re-exported, not copied: each name is its submodule's object
    for module, name in [
        (core, "Population"),
        (core, "resample"),
        (core, "metropolis_sweep"),
        (scalarize, "Scalarization"),
        (problems, "CoordinateSum"),
    ]:
        assert getattr(pfops, name) is getattr(module, name), name
    namespace = {}
    exec("from pfops import *", namespace)
    assert API <= set(namespace)


def test_every_exported_name_is_in_the_readme_api_section():
    readme = (Path(SRC).parent / "README.md").read_text()
    section = readme.split("## Library API", 1)[1].split("\n## ", 1)[0]
    missing = sorted(name for name in API if f"`{name}`" not in section)
    assert not missing


def test_readme_names_no_private_identifier():
    # each name the README shows is a promise to users; a private name
    # (last dotted part starting with one underscore) is not one to make
    readme = (Path(SRC).parent / "README.md").read_text()
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)
    names = (re.match(r"[A-Za-z_][\w.]*", span) for span in re.findall(r"`([^`\n]+)`", prose))
    private = sorted(
        {m[0] for m in names if m and re.match(r"_(?!_)", m[0].rsplit(".", 1)[-1])}
    )
    assert not private


def test_readme_names_no_submodule_path():
    # the README documents `pfops.__all__` alone, so its prose points into
    # no submodule: each documented name is reached as `pfops.<name>`
    readme = (Path(SRC).parent / "README.md").read_text()
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)
    submodules = "|".join(m.name for m in pkgutil.iter_modules(pfops.__path__))
    paths = sorted(set(re.findall(rf"\bpfops\.(?:{submodules})\b[\w.]*", prose)))
    assert not paths
