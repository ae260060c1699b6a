"""Joint image + sensitivity-coefficient reconstruction (experimental).

No convergence theorem covers this iteration (see the cone probe demo), but
it reduces residuals well in practice.  Two scenes: a 2x2 instance where the
image part starts at the truth and only the coefficients are wrong, and a
generic 16x16 instance reconstructed from scratch.
"""

import numpy as np

import mrikacz as mk

# Scene 1: image correct, per-receiver scalars wrong by 2x and 4x.
shape = mk.GridShape(2, 2)
model = mk.SensitivityModel((mk.ComplexImage.constant(shape, 1.0),), np.ones((2, 1)))
mask = mk.KSpaceMask(shape, np.arange(4))
ops = tuple(mk.JointForward(model, mask, i) for i in range(2))
truth = mk.JointParameter(mk.ComplexImage.constant(shape, 1.0), [[1.0], [2.0]])
data = mk.MeasurementSet(tuple(op.apply(truth) for op in ops), np.zeros(2))
config = mk.SolverConfig(
    method="lsdk", max_cycles=50,
    initial_image=truth.image, initial_coefficients=[[0.5], [0.5]],
)
result = mk.run_joint(mk.Problem(ops, data), config)
per_cycle = result.trace.residuals.reshape(-1, 2).max(axis=1)
print("2x2 scene:", result.metadata["guarantee"])
print("  residual per cycle:", np.array2string(per_cycle[:8], precision=5), "...")
print("  final coefficients:", np.round(result.final.coefficients.ravel(), 5))

# Scene 2: everything unknown on a 16x16 grid with 1% noise.
instance = mk.synthesize(mk.InstanceSpec(p_hor=16, p_ver=16, deltas=0.01, seed=7))
problem = instance.joint_problem()
result = mk.run_joint(problem, mk.SolverConfig(method="lsdk", max_cycles=300))
final = max(result.final_residuals)
initial = result.metadata["initial_max_residual"]
print(f"\n16x16 scene: {result.reason} after {result.trace.n_cycles} cycles")
print(f"  max residual: {initial:.3f} -> {final:.3f} ({final / initial:.1%} of start)")
print(f"  max tau*delta bound: {max(result.tau_delta_bounds):.3f}, all within: {result.discrepancy_ok}")
print("  (no claim about distance to the true image: the scaling ambiguity")
print("   c * image, coefficients / c leaves every residual unchanged)")
