"""Why the Tchebycheff family matters: the Fonseca-Fleming front is concave.

A weighted sum of two objectives is minimized only where the front touches a
supporting line, and a concave front touches only at its two endpoints. The
Tchebycheff construction (weighted max deviation from a Utopian point) has
optima everywhere along the front. This script runs both and shows the
weighted-sum archive collapsing to the endpoints.
"""

from dataclasses import replace
from pathlib import Path

import pfops

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

reference = pfops.reference_front("fonseca", 200)
f1_span = reference[:, 0].max() - reference[:, 0].min()
middle = (
    reference[:, 0].min() + f1_span / 3.0,
    reference[:, 0].min() + 2.0 * f1_span / 3.0,
)

tch_report = pfops.run_preset("pfops-fonseca", seed=0)

ws_config = replace(
    pfops.PRESETS["pfops-fonseca"].config,
    scalarization_kind=pfops.ScalarizationKind.WEIGHTED_SUM,
    utopian=None,
    seed=0,
)
ws_archive, _ = pfops.run(ws_config, pfops.lookup_problem("fonseca"))

for label, front in (
    ("tchebycheff", tch_report.archive.front),
    ("weighted-sum", ws_archive.front),
):
    in_middle = int(((front[:, 0] > middle[0]) & (front[:, 0] < middle[1])).sum())
    print(
        f"{label:13}: {len(front):3d} archive points, "
        f"{in_middle} in the middle third of the front's f1 range"
    )
print(f"tchebycheff IGD vs reference: {tch_report.igd:.4f}")

fronts = {
    "pfops-fonseca": tch_report.archive.front,
    "weighted-sum (collapses to endpoints)": ws_archive.front,
}
pfops.emit_front_svg(fronts, reference, OUT / "fonseca_scalarizations.svg")
print(f"wrote {OUT / 'fonseca_scalarizations.svg'}")
