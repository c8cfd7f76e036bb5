"""Product-frame expansions of multiqubit density operators.

Builds dual frames of Bloch-vector projectors, expands states into product
coefficient tables (discrete frames, spherical harmonics, or the continuous
angular density), minimizes the expansion function over product directions,
and certifies or refutes separability against closed-form thresholds.
"""

import types as _types

from .operators import (
    BlochVector,
    DenseOperator,
    DensityCheck,
    bloch_projector,
    hermitian_eigenvalues,
    pauli,
    sigma_stack,
    tensor,
    trace_inner,
    validate_density,
)
from .frames import (
    Frame,
    FrameCheck,
    NonSpanningFrameError,
    build_frame,
    continuous_dual,
    dual_frame,
    frame_check,
    frame_from_json,
    frame_to_json,
    polyhedron_vectors,
    reflect_octant,
)
from .representations import (
    CoefficientTable,
    PauliCoefficients,
    pauli_coefficients,
    pauli_to_operator,
    reconstruct_continuous,
    reconstruct_discrete,
    sphere_quadrature,
    wcan_continuous,
    wcan_discrete,
)
from .harmonics import SphCoefficients, add_hosh, sph_coefficients, sph_y
from .minimize import (
    MinimizeResult,
    minimize_wcan,
    sphere_grid,
    threshold_search,
)
from .states import (
    EnsembleTerm,
    ProductEnsemble,
    StateSpec,
    bound_cat,
    bound_duer,
    bound_general,
    build_state,
    cat_ensemble,
    dilute_with_mixed,
    ensemble_to_table,
    mix_with_identity,
)
from .separability import (
    CertificateError,
    SeparabilityCertificate,
    WitnessReport,
    certify,
    partial_transpose,
    ppt_min_eigenvalue,
    witness_ghz,
    witness_werner,
)

__version__ = "0.1.0"

# every public name imported above, and no other
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
