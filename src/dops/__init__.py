"""dops: exact-arithmetic construction and verification of d-orthogonal
polynomial families.

The package builds each family twice (band recurrence and generating
function), fits recurrence tables, inverts for dual-functional moments, and
machine-verifies the full identity catalog as exact polynomial identities
over the rationals.

Importing the package loads none of its modules: each name below is
imported from its module on first use, so a command line job compiles only
the modules it runs.
"""

from importlib import import_module

# Exported name -> the module that defines it.
_SUBMODULE = {name: module for module, names in (
    ("families", "Family FamilyParamError HypParams LagParams MLParams hyp_laguerre hyp_quasi "
                 "laguerre_type_by_gf laguerre_type_by_recurrence ml_by_gf ml_by_recurrence "
                 "q_sequence terminating_pfq"),
    ("identities", "FamilySetup VerificationReport Witness ratio_power_closed_form"),
    ("orthogonality", "FitError MomentTable RecurrenceTable check_regularity expand_in_basis "
                      "fit_recurrence moments_by_inversion quasi_orthogonality_order "
                      "verify_d_orthogonality"),
    ("polynomials", "Poly as_rational delta_w derivative format_rational parse_rational shift"),
    ("series", "egf_exp"),
) for name in names.split()}

__all__ = list(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)
