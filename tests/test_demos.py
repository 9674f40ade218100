import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    # a copy writes its plots to tmp_path/output, not into the repository;
    # a numeric RuntimeWarning fails it, as it fails the rest of the suite.
    # Every scipy import fails, since the library and the demos need only numpy
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = (
        "import runpy, sys; sys.modules['scipy'] = None; "
        f"sys.argv = [{str(script)!r}]; runpy.run_path(sys.argv[0], run_name='__main__')"
    )
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", run],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    written = [p for p in tmp_path.rglob("*") if p.is_file() and p != script]
    empty = [str(p) for p in written if p.stat().st_size == 0]
    assert not empty
