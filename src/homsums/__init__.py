"""Exact fourth-moment engines for homogeneous sums in independent and
freely independent random variables."""

from types import ModuleType as _ModuleType

from .errors import (
    AssumptionViolation,
    GroundCapExceeded,
    HomsumError,
    KernelFormatError,
    MissingCumulant,
    NotNormalizable,
    UnknownSampler,
)
from .kernels import (
    AdmissibilityReport,
    Kernel,
    KernelFamily,
    check_admissible,
    contraction_square_sum,
    family_kernel,
    influence,
    influence_max,
    make_admissible,
    random_admissible_kernel,
    slice_kernel,
)
from .laws import (
    ClassicalLaw,
    FreeLaw,
    catalan_number,
    cumulants_to_moments_classical,
    free_cumulants_to_moments,
    moments_to_cumulants_classical,
    moments_to_free_cumulants,
)
from .partitions import (
    GROUND_CAP,
    BlockProfile,
    IntervalPattern,
    Partition,
    enumerate_partitions,
    is_noncrossing,
    respects,
    rho_partitions,
)
from .classical import (
    classical_fourth_moment_formula,
    classical_fourth_moment_oracle,
    classical_second_moment,
    gaussian_fourth_moment,
    mixture_identity_check,
    rescaled_kernel,
)
from .free import (
    free_difference_identity,
    free_fourth_moment,
    free_fourth_moment_oracle,
    free_second_moment,
    free_third_moment_oracle,
    moment_oracle,
    semicircular_fourth_moment_contraction,
    semicircular_moment,
    slice_fourth_sum,
)
from .montecarlo import (
    Estimate,
    SamplerSpec,
    alpha_for_moment_ratio,
    estimate_moment,
    mixture_t_moment,
    sample_mixture_t,
)
from .diagnostics import analyze_family, rows_to_csv, sweep_summary
from .reports import DiagnosticsRow, MomentReport
from .verify import run_verification, verify_classical, verify_free, verify_identities, verify_partitions

__version__ = "0.1.0"

# the public names, not the submodules that importing them binds
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
