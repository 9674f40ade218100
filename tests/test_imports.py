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
        from dataclasses import replace
        from pathlib import Path

        sys.modules["scipy"] = None
        sys.path.insert(0, {SRC!r})
        import pfops

        report = pfops.run_preset("pfops-convex-under", 0)
        report = replace(report, metadata={{**report.metadata, "label": "a&<>b"}})
        out = Path({str(tmp_path / "plot.svg")!r})
        pfops.emit_front_svg([report], pfops.reference_front("convex", 10), out)
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
