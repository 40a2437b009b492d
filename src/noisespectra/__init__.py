"""Spectral theory of noises on finite grids: chaos transforms, spectral
measures with their projection and factorization algebra, first-chaos
structure, a white-noise laboratory, and box-counting dimension probes.
"""
from .chaos import HERMITE, WALSH, ChaosCoefficients, hermite_index, walsh_index
from .dimension import DimensionEstimate, box_count, estimate_dimension
from .functionals import (
    BackendError,
    BrownianProgram,
    FamilyRef,
    ItoTerm,
    MCEstimate,
    MapFactor,
    MapTerm,
    NoiseFunctional,
    RademacherTable,
    inner_product,
    inner_product_mc,
    joined_grid,
    multiply,
    random_functional,
    shift,
    tensor_product,
)
from .grid import (
    ElementarySet,
    GridMismatchError,
    TimeGrid,
    left_of,
    right_of,
)
from .kernels import SimplexKernel, iterated_sum
from .serialize import (
    SCHEMA_VERSION,
    FormatError,
    functional_from_data,
    functional_to_data,
    grid_from_data,
    grid_to_data,
    kernel_from_data,
    kernel_to_data,
    measure_from_data,
    measure_to_data,
    read_json,
    write_csv,
    write_json,
)
from .spectral import (
    SpectralMeasure,
    SpectralSet,
    cardinality_profile,
    is_absolutely_continuous,
    mass_meeting_interval,
    mass_of_subsets_of,
    measure_from_coefficients,
    n_point_marginal,
    product,
    restrict,
    sample_sets,
    singleton_mass,
    spectral_measure_of,
    straddle_mass,
)
from .structure import (
    AdditiveIntegral,
    ClassificationReport,
    CutCriterion,
    additive_integral_of,
    classify,
    cut_distance,
    finite_chaos_partition_span,
    first_chaos_criterion,
    first_chaos_extract,
    interior_cut_distances,
)
from .transform import (
    chaos_order_masses,
    conditional_expectation,
    decompose,
    level_projection,
    reconstruct,
)
from .whitenoise import (
    BrownianGrid,
    MomentCheck,
    NPointDensity,
    endpoint_mass_profile,
    fiber_characters,
    fiber_dimension,
    fiber_gram,
    isometry_check,
    multiple_ito_integral,
    npoint_density_estimate,
    orthogonality_check,
    sample_paths,
)

__version__ = "0.1.0"
