"""Convex benchmark study: sufficient sampling vs undersampling.

Runs the particle-filter optimizer and NSGA-II at both budget settings,
prints a metric table, and writes front plots to demos/output/.
"""

from pathlib import Path

import pfops

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

reference = pfops.reference_front("convex", 100)

print(f"{'preset':28} {'igd':>8} {'hypervolume':>12} {'evals':>7} {'time':>7}")
reports = {}
for name in (
    "pfops-convex-sufficient",
    "nsga2-convex-sufficient",
    "pfops-convex-under",
    "nsga2-convex-under",
):
    report = pfops.run_preset(name, seed=0)
    reports[name] = report
    print(
        f"{name:28} {report.igd:8.3f} {report.hypervolume:12.1f} "
        f"{report.eval_count:7d} {report.wall_time:6.2f}s"
    )

# the sufficient-sampling preset ships with the move step off so that the
# evaluation budget is exactly 2*K*N; turning it on is what gives the
# high-quality front (at d extra proposal evaluations per particle per step)
from dataclasses import replace

config = replace(
    pfops.PRESETS["pfops-convex-sufficient"].config, metropolis_enabled=True, seed=0
)
archive, evals = pfops.run(config, pfops.lookup_problem("convex"))
print(
    f"{'pfops sufficient + moves':28} {pfops.igd(archive.front, reference):8.3f} "
    f"{'':>12} {evals:7d}"
)

for budget in ("sufficient", "under"):
    names = (f"pfops-convex-{budget}", f"nsga2-convex-{budget}")
    fronts = {name: reports[name].archive.front for name in names}
    pfops.emit_front_svg(fronts, reference, OUT / f"convex_{budget}.svg")
for name, report in reports.items():
    pfops.write_front_csv(report.archive.front, OUT / f"{name}_front.csv")
print(f"wrote plots and fronts to {OUT}")
