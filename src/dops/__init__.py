"""dops: exact-arithmetic construction and verification of d-orthogonal
polynomial families.

The package builds each family twice (band recurrence and generating
function), fits recurrence tables, inverts for dual-functional moments, and
machine-verifies the full identity catalog as exact polynomial identities
over the rationals.
"""

from .families import (
    FamilyParamError,
    HypParams,
    LagParams,
    MLParams,
    hyp_laguerre,
    hyp_quasi,
    laguerre_q_sequence,
    laguerre_type_by_gf,
    laguerre_type_by_recurrence,
    ml_by_gf,
    ml_by_recurrence,
    ml_q_sequence,
    terminating_pfq,
)
from .identities import (
    SUITES,
    FamilySetup,
    VerificationReport,
    Witness,
    ratio_power_closed_form,
)
from .orthogonality import (
    FitError,
    MomentTable,
    RecurrenceTable,
    check_regularity,
    expand_in_basis,
    fit_recurrence,
    moments_by_inversion,
    quasi_orthogonality_order,
    verify_d_orthogonality,
)
from .polynomials import (
    Poly,
    as_rational,
    delta_w,
    derivative,
    format_rational,
    parse_rational,
    shift,
)
from .series import (
    egf_extract,
    gf_ratio_power,
    series_exp,
)

__version__ = "0.1.0"
