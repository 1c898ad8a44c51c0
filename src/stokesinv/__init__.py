"""Generalized Stokes tensors, SLOCC-invariant norms and entanglement
measures for n-qubit states, plus simulated estimation routes."""

from .qstate import (
    SIGMA,
    DensityMatrix,
    PureState,
    bell_state,
    basis_state,
    eigh,
    ghz_state,
    kron_all,
    maximally_mixed,
    partial_trace,
    random_mixed,
    random_pure,
    random_sl2c,
    random_su2,
    schmidt_pair,
    sqrt_psd,
    w_state,
)
from .stokes import (
    StokesTensor,
    density_from_stokes,
    euclidean_purity,
    hs_overlap,
    invariant_via_spinflip,
    minkowski_invariant,
    spin_flip,
    stokes_tensor,
)
from .slocc import (
    FilterReport,
    LocalOperation,
    apply_local_to_density,
    apply_lorentz_to_stokes,
    filter_state,
    lorentz_of,
    renormalize,
)
from .measures import (
    MeasureReport,
    bipartite_tangle,
    ckw_report,
    concurrence,
    eof_from_tangle,
    linearized_entropy,
    measure_report,
    polarization_sq,
    purity_decomposition,
    tangle_pure2,
    three_tangle,
)
from .estimator import (
    EstimateReport,
    TomographyResult,
    estimator_compare,
    swap_network_estimate,
    tomography_simulate,
)

__version__ = "0.1.0"
