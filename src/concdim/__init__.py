"""Concentration-of-measure invariants and intrinsic-dimension functionals
of finite metric measure spaces, with exact small-scale oracles and
certified-direction heuristics at scale."""

__version__ = "0.1.0"

from .errors import (ConcdimError, InputError, InvariantViolation, OutputError,
                     ResourceLimitError)
from .mmspace import (
    GeneratorSpec,
    MMSpace,
    char_size,
    char_size_interval,
    diameter,
    from_distance_matrix,
    from_points,
    generate,
    load_distance_csv,
    load_points_csv,
)
from .features import Feature, check_lipschitz, dictionary, distance_feature
from .concentration import (
    ConcentrationProfile,
    SeparationProfile,
    alpha_exact,
    alpha_exact_profile,
    alpha_lower,
    greedy_separated_subset,
    margin_error,
    observable_diameter,
    sep_exact,
    sep_exact_profile,
    sep_hamming_analytic,
    sep_hamming_profile,
    sep_lower,
)
from .dimension import (
    dconc_to_point_bracket,
    dim_chavez,
    dim_concentration,
    dim_separation,
    dimension_report,
)
from .transport import TransportPlan, dconc_upper_via_emd, emd
from .covering import CoveringProfile, covering_profile, greedy_net, sample_size_bound

__all__ = [
    "ConcdimError", "InputError", "InvariantViolation", "OutputError",
    "ResourceLimitError",
    "GeneratorSpec", "MMSpace", "char_size", "char_size_interval", "diameter",
    "from_distance_matrix", "from_points", "generate", "load_distance_csv",
    "load_points_csv",
    "Feature", "check_lipschitz", "dictionary", "distance_feature",
    "ConcentrationProfile", "SeparationProfile", "alpha_exact",
    "alpha_exact_profile", "alpha_lower", "greedy_separated_subset",
    "margin_error", "observable_diameter", "sep_exact", "sep_exact_profile",
    "sep_hamming_analytic", "sep_hamming_profile", "sep_lower",
    "dconc_to_point_bracket", "dim_chavez", "dim_concentration",
    "dim_separation", "dimension_report",
    "TransportPlan", "dconc_upper_via_emd", "emd",
    "CoveringProfile", "covering_profile", "greedy_net", "sample_size_bound",
]
