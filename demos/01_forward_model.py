"""Tour of the measurement model on a tiny grid.

Walks from an image through sensitivity weighting, the flattened Fourier
transform and the k-space mask to per-receiver data, checking the algebraic
identities along the way.
"""

import numpy as np

import mrikacz as mk
from mrikacz import io

# A 4x4 grid: images are complex vectors of length 16, flattened row-major.
shape = mk.GridShape(4, 4)
plan = mk.DftPlan(shape.p_num)
print(f"grid {shape.p_ver}x{shape.p_hor}, p_num = {shape.p_num}")

# The transform is the plain 1-D sum over the flattened index.  With no
# forward normalization, adjoint(forward(f)) returns p_num * f.
rng = np.random.default_rng(0)
f = mk.ComplexImage(shape, rng.standard_normal(16) + 1j * rng.standard_normal(16))
round_trip = plan.adjoint_values(plan.forward_values(f.values))
print("||F*F f - p_num f|| =", np.linalg.norm(round_trip - shape.p_num * f.values))
print("||inverse(forward(f)) - f|| =", np.linalg.norm(round_trip / shape.p_num - f.values))

# Receivers see the image through sensitivity kernels expanded in a basis.
basis = mk.make_basis("bumps", 4, shape)
coeff = np.eye(4)  # receiver j uses exactly bump j
model = mk.SensitivityModel(basis, coeff)
print("receiver 0 sensitivity peak:", np.abs(model.materialize(0).values).max())

# Half of k-space is measured; the mask fixes which flat indices.
mask = mk.make_mask("random", shape, fraction=0.5, seed=3)
print("mask keeps", mask.p_proj, "of", shape.p_num, "positions:", mask.indices)

# One receiver's forward operator and its adjoint satisfy the dot test.
op = mk.LinearForward(model, mask, receiver=0)
x = mk.ComplexImage(shape, rng.standard_normal(16) + 1j * rng.standard_normal(16))
y = mk.MeasurementVector(mask, rng.standard_normal(8) + 1j * rng.standard_normal(8))
gap = abs(mk.inner_product(op.apply(x), y) - mk.inner_product(x, op.adjoint(y)))
print("adjoint dot-product gap:", gap)

# Data for a phantom, noiseless and with exactly calibrated noise.
phantom = mk.make_phantom("blobs", shape, seed=5)
exact = mk.exact_data([mk.LinearForward(model, mask, j) for j in range(4)], phantom)
noisy = mk.calibrated_noise(exact, [0.25] * 4, seed=7)
for j in range(4):
    print(f"receiver {j}: ||noisy - exact|| = {mk.norm(noisy.vectors[j] - exact.vectors[j]):.12f}")

io.write_pgm("demo_phantom.pgm", phantom)
print("wrote demo_phantom.pgm")
