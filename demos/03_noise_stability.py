"""Regularization-by-stopping: the error shrinks as the noise level does.

One ground truth, five data sets with noise 10%, 5%, 2.5%, 1.25%, 0.625% of
the data norm; each run stops by the discrepancy rule at its own k*.
"""

import numpy as np

import mrikacz as mk

instance = mk.synthesize(
    mk.InstanceSpec(p_hor=32, p_ver=32, mask_family="full", mask_fraction=None, deltas=0.0, seed=1)
)
truth = instance.truth.image
noise_sets = mk.noise_sequence(instance, base_fraction=0.1, count=5, seed=17)

print("level   fraction    k*     cycles   error to truth")
for m, noisy in enumerate(noise_sets):
    problem, _ = mk.rescale_problem(mk.Problem(instance.operators, noisy))
    result = mk.run_linear(problem, mk.SolverConfig(method="lsdk"))
    err = mk.norm(result.final - truth)
    print(
        f"m = {m}   {0.1 * 0.5**m:8.5f} {result.trace.k_star:6d} "
        f"{result.trace.n_cycles:8d}   {err:.5f}"
    )
print("\nsmaller noise -> later stop -> smaller error (semiconvergence held off)")
