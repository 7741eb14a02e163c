"""thetalab: exact arithmetic for even unimodular lattices and their theta series.

Construct the classical even unimodular lattices (E8, D16+, the rank-24 glue
lattices), compute truncations of their degree-g theta series as exact integer
representation counts, and verify the coefficient-level identities relating
them: the root second-moment identity, the heat equation for first
Fourier-Jacobi coefficients, the degree <= 3 coincidence of the rank-16 pair
with its degree-4 witness, the A4 separation of the five rank-24 pairs, and
the degree-4 proportionality between pair differences and the weight-8 form.
"""

from .enumeration import (
    GramTarget,
    RepresentationDomainError,
    representation_count,
    representation_profile,
    shell_count,
)
from .exactnum import NotPositiveDefiniteError, det_exact
from .jacobi import (
    JacobiCoefficient,
    VenkovReport,
    heat_coefficient_check,
    jacobi_coefficient,
    venkov_constant,
)
from .lattices import (
    GlueSpec,
    Lattice,
    LatticeError,
    RootSystemReport,
    ValidationReport,
    direct_sum,
    from_gram,
    glue,
    minimum_norm,
    plus_construction,
    root_lattice,
    root_system,
    stable_eq_hyp_predicate,
    validate,
)
from .niemeier import BUILTIN_NAMES, FIVE_PAIRS, RANK24_NAMES, builtin
from .theta import (
    CURATED_GENUS4,
    GRAM_A4,
    Series,
    block_factorization_check,
    export_series,
    k_identity_check,
    linear_independence_rank,
    parse_series,
    series_difference,
    series_product,
    siegel_restrict,
    theta_truncated,
)

__version__ = "0.1.0"
