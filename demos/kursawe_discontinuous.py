"""Kursawe benchmark: a discontinuous Pareto front in four pieces.

The reference front comes from a brute-force 201^3 grid evaluation shipped
with the package. The Tchebycheff-driven run places its archive on the
disconnected segments; the script reports how close every archive point
sits to the reference.
"""

from pathlib import Path

import numpy as np

import pfops

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

reference = pfops.reference_front("kursawe", 201)
print(
    f"reference front: {len(reference)} points, "
    f"f1 in [{reference[:, 0].min():.2f}, {reference[:, 0].max():.2f}], "
    f"f2 in [{reference[:, 1].min():.2f}, {reference[:, 1].max():.2f}]"
)

report = pfops.run_preset("pfops-kursawe", seed=0)
# distance from each archive point to its nearest reference point
diff = report.archive.front[:, None, :] - reference[None, :, :]
distances = np.sqrt((diff * diff).sum(axis=2)).min(axis=1)
print(
    f"archive: {len(report.archive)} points, igd {report.igd:.4f}, "
    f"evals {report.eval_count}, wall {report.wall_time:.2f}s"
)
print(
    f"distance to reference: median {np.median(distances):.4f}, "
    f"max {distances.max():.4f}, within 0.5: {(distances <= 0.5).mean():.1%}"
)

baseline = pfops.run_preset("nsga2-kursawe", seed=0)
print(f"nsga2 baseline: igd {baseline.igd:.4f}, evals {baseline.eval_count}")

fronts = {"pfops-kursawe": report.archive.front, "nsga2-kursawe": baseline.archive.front}
pfops.emit_front_svg(fronts, reference, OUT / "kursawe_fronts.svg")
pfops.write_front_csv(report.archive.front, OUT / "pfops_kursawe_front.csv")
print(f"wrote plots to {OUT}")
