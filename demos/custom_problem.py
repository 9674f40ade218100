"""Running the optimizer on your own bi-objective problem.

Any problem is a pair of vectorized objectives plus box bounds. This one is
the classic Schaffer trade-off f1 = x^2, f2 = (x - 2)^2 in one variable.
Evaluations are tallied by the problem instance, so budget accounting comes
for free.
"""

import numpy as np

import pfops

problem = pfops.BiObjectiveProblem(
    name="schaffer",
    dim=1,
    lower=np.array([-10.0]),
    upper=np.array([10.0]),
    f1=lambda x: x[:, 0] ** 2,
    f2=lambda x: (x[:, 0] - 2.0) ** 2,
)

config = pfops.PfopsConfig(
    n_targets=50,
    n_particles=100,
    metropolis_enabled=True,
    seed=0,
)
archive, evals = pfops.run(config, problem)

# true front: x in [0, 2], i.e. f2 = (sqrt(f1) - 2)^2
t = np.linspace(0.0, 2.0, 200)
reference = np.stack([t**2, (t - 2.0) ** 2], axis=1)
print(f"archive size {len(archive)}, evals {evals} (= 2*K*N*(1+d) = {2*50*100*2})")
print(f"igd vs analytic front: {pfops.igd(archive.front, reference):.4f}")
print(f"decision range covered: [{archive.decisions.min():.3f}, {archive.decisions.max():.3f}]")

baseline_config = pfops.Nsga2Config(pop_size=50, generations=100, seed=0)
baseline, nsga_evals = pfops.evolve(baseline_config, problem)
print(f"nsga2 baseline igd: {pfops.igd(baseline.front, reference):.4f} ({nsga_evals} evals)")
