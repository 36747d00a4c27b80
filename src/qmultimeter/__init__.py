"""Finite-dimensional simulator and verifier for programmable quantum multimeters."""

from .channels import (
    Channel,
    apply,
    channel_distance,
    choi_matrix,
    complete_contraction,
    compose,
    identity_channel,
    is_extreme_channel,
    is_multiplicative,
    make_channel,
    minimal_kraus,
    multiplicativity_residual,
    random_channel,
    stinespring_commutant_residual,
    stinespring_dilation,
    unitary_channel,
)
from .exceptions import (
    DimensionError,
    QMultimeterError,
    ScenarioError,
    ScenarioParseError,
    ScenarioReferenceError,
    ValidationError,
)
from .multimeter import (
    BUILTIN_MULTIMETERS,
    MeasurementModel,
    Multimeter,
    builtin_multimeter,
    concatenate_with_measurement,
    dimension_bounds,
    induced_channel,
    induced_observable,
    make_model,
    make_multimeter,
    minimal_dilation_multimeter,
    push_button_multimeter,
    shared_pointer_multimeter,
)
from .observables import (
    Observable,
    StochasticKernel,
    is_extreme,
    is_sharp,
    make_kernel,
    make_observable,
    mix,
    naimark_check,
    naimark_dilation,
    observable_distance,
    post_process,
    product_residual,
    random_observable,
    random_sharp_observable,
    relabel,
    sharpness_residual,
    spin_observable,
)
from .operators import (
    DEFAULT_TOL,
    DIMENSION_CAP,
    PAULI,
    embed_program_isometry,
    frobenius_distance,
    haar_unitary,
    operator_predicates,
    partial_trace,
    projector,
    tensor,
)
from .verify import (
    VerificationReport,
    check_channel_program_orthogonality,
    check_convex_hull,
    check_purification,
    check_sharp_program_orthogonality,
    counterexample_search,
)

__version__ = "0.1.0"
