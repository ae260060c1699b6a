"""Reconstruct a noisy 32x32 instance with both Kaczmarz variants.

Shows the loping weights in action, the cycle-aligned stop, the monotone
error decay, and the discrepancy bound on the final residuals.
"""

import numpy as np

import mrikacz as mk

instance = mk.synthesize(mk.InstanceSpec(deltas=0.05, seed=42))
truth = instance.truth.image
print(
    f"instance: {instance.spec.p_ver}x{instance.spec.p_hor}, "
    f"{instance.spec.r_num} receivers, {instance.mask.p_proj} of "
    f"{instance.spec.grid.p_num} k-space samples, 5% noise"
)

# The Landweber step needs operators of norm <= 1, so scale operators,
# data and noise levels of every equation together.
problem, report = mk.rescale_problem(instance.linear_problem())
print("operator norm bounds before scaling:", np.round(report.pre_norms, 3))
print("operator norm bounds after scaling: ", np.round(report.post_norms, 6))

for method in ("llk", "lsdk"):
    result = mk.run_linear(problem, mk.SolverConfig(method=method), reference=truth)
    trace = result.trace
    errs = trace.errors
    print(f"\n{method}: {result.reason} at k* = {trace.k_star} ({trace.n_cycles} cycles)")
    print(f"  error to truth: {errs[0]:.4f} -> {mk.norm(result.final - truth):.4f}")
    print(f"  monotone decay: {bool(np.all(np.diff(errs) <= 1e-12 * errs[0]))}")
    skipped = int((trace.omegas == 0).sum())
    print(f"  loped steps: {skipped} of {trace.n_steps}")
    for i, (resid, bound) in enumerate(zip(result.final_residuals, result.tau_delta_bounds)):
        print(f"  receiver {i}: final residual {resid:.4f}, tau*delta {bound:.4f}")
    print(f"  every residual within its bound: {result.discrepancy_ok}")
