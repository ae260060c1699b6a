"""Why the joint problem has no convergence guarantee.

The tangential-cone bound asks that the linearization error stay below half
of the data difference.  Linear operators satisfy it with constant 0; the
bilinear image-times-coefficient structure violates it, which the scalar
model f(x, y) = x y already shows near the origin.
"""

import numpy as np

import mrikacz as mk

# The scalar witness: the pair x = (t, t), x_bar = (0, 0) has ratio exactly 1.
model = mk.ScalarProductModel()
for t in (0.5, 0.01):
    x, x_bar = np.array([t, t]), np.zeros(2)
    num = abs(model.apply(x) - model.apply(x_bar) - model.derivative(x, x - x_bar))
    den = abs(model.apply(x) - model.apply(x_bar))
    print(f"t = {t}: linearization error / data difference = {num / den}")

report = mk.cone_probe(model, radius=1.0, samples=200, seed=0)
print(f"sampled scalar model: max ratio {report.max_ratio:.2f} (>= 1/2: {report.exceeds_half})")

# Linear receiver operators: the same probe returns roundoff-level ratios.
instance = mk.synthesize(mk.InstanceSpec(p_hor=16, p_ver=16, seed=5))
linear = mk.cone_probe(list(instance.operators), radius=1.0, samples=50, seed=1)
print(f"linear operators:     max ratio {linear.max_ratio:.2e} (>= 1/2: {linear.exceeds_half})")

# The joint operators inherit the scalar failure near the zero parameter,
# the probe's default center.
joint_ops = list(instance.joint_problem().operators)
joint = mk.cone_probe(joint_ops, radius=1.0, samples=50, seed=2)
print(f"joint operators:      max ratio {joint.max_ratio:.2f} (>= 1/2: {joint.exceeds_half})")

# The derivative itself stays bounded on any ball; size is not the issue.
x = mk.JointParameter(instance.truth.image, instance.model.coefficients)
print("derivative norm bound at the truth:", joint_ops[0].derivative_norm_bound(x))
