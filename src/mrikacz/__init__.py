"""Loping Kaczmarz-type iterative regularization for multi-receiver MRI.

The package models k-space data acquisition by several receivers, each
seeing the image weighted by a sensitivity kernel expanded in a known
basis, and reconstructs the image (or jointly the image and the expansion
coefficients) with loping Landweber-Kaczmarz and loping
Steepest-Descent-Kaczmarz iterations stopped by a cycle-based discrepancy
rule.
"""

from .errors import (
    ConfigurationError,
    DimensionMismatch,
    FileFormatError,
    NumericalFailure,
    SingularStepError,
)
from .grid import (
    ComplexImage,
    GridShape,
    JointParameter,
    KSpaceMask,
    MeasurementSet,
    MeasurementVector,
    SensitivityModel,
    all_finite,
    inner_product,
    norm,
)
from .transform import (
    DftPlan,
    dft_adjoint,
    dft_forward,
    dft_inverse,
    embed,
    project,
)
from .operators import (
    ConeProbeReport,
    JointForward,
    LinearForward,
    Problem,
    ScalarProductModel,
    ScalingReport,
    cone_probe,
    estimate_derivative_norm,
    estimate_norm,
    joint_from_linear,
    rescale_problem,
    rescale_to_unit,
)
from .solvers import (
    CYCLE_CAP,
    EXACT_DATA_TOLERANCE,
    METHOD_LLK,
    METHOD_LSDK,
    STOPPING_RULE,
    IterationTrace,
    SolveResult,
    SolverConfig,
    loping_weight,
    run_joint,
    run_linear,
    sdk_step_size,
)
from .phantoms import (
    GroundTruth,
    Instance,
    InstanceSpec,
    calibrated_noise,
    make_basis,
    make_mask,
    make_phantom,
    noise_sequence,
    synthesize,
)

__version__ = "0.1.0"
