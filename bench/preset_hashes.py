"""Archive hashes and evaluation counts of all eight presets at seed 0.

    python3 bench/preset_hashes.py           # compare with bench/preset_hashes.json
    python3 bench/preset_hashes.py --write   # record the current values there

A change that claims "same behaviour" keeps every preset's sha256 (of its
archive's decisions and front bytes, as in the benchmark's job lines) and its
measured evaluation count. The comparison exits 1 on any difference. The
hashes are exact float bytes, so they hold for the numpy version recorded in
the file; under another version, regenerate them on the parent commit first.
Takes about 20 s, most of it the two full NSGA-II presets.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from worker import import_pfops

RECORD = Path(__file__).resolve().parent / "preset_hashes.json"
SEED = 0


def current() -> dict:
    pfops = import_pfops()
    import numpy

    from workloads import archive_digest

    presets = {}
    for name in pfops.PRESETS:
        report = pfops.run_preset(name, SEED)
        presets[name] = {"eval_count": report.eval_count, "sha256": archive_digest([report.archive])}
    return {"seed": SEED, "python": sys.version.split()[0], "numpy": numpy.__version__,
            "presets": presets}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--write", action="store_true", help=f"record the values in {RECORD.name}")
    args = parser.parse_args()
    now = current()
    text = json.dumps(now, indent=2) + "\n"
    if args.write:
        RECORD.write_text(text)
        print(text, end="")
        return 0
    recorded = json.loads(RECORD.read_text())
    differ = [
        name
        for name in recorded["presets"].keys() | now["presets"].keys()
        if recorded["presets"].get(name) != now["presets"].get(name)
    ]
    for name in sorted(now["presets"]):
        entry = now["presets"][name]
        status = "DIFFERS" if name in differ else "same"
        print(f"{name:<26} evals={entry['eval_count']:<8} sha256={entry['sha256']} {status}")
    for name in sorted(set(differ) - now["presets"].keys()):
        print(f"{name:<26} recorded but no longer a preset DIFFERS")
    if recorded["numpy"] != now["numpy"]:
        print(f"note: recorded with numpy {recorded['numpy']}, running numpy {now['numpy']}")
    print("same behaviour" if not differ else f"{len(differ)} preset(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
