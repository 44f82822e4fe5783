"""Verification workbench for bundles with groupoid fibres.

Exact finite structure on one side (groupoids, bisections, clutching,
symmetry groupoids, gauge groups), a numeric connection engine for matrix
group actions on the other.

The names below, and the six modules that define them, are resolved on
first use (PEP 562): ``import groupoidal`` compiles none of them, and a
name compiles only its own module and what that module imports.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "groupoid": ("FiniteGroupoid", "FiniteGroupAction", "validate_groupoid",
                 "pair_groupoid", "action_groupoid", "group_groupoid",
                 "fibred_pair_groupoid", "product_groupoid", "z2_swap_action"),
    "bisection": ("Bisection", "validate_bisection", "unit_bisection",
                  "bisection_product", "bisection_inverse", "left_mult",
                  "right_mult", "conjugate", "enumerate_bisections",
                  "bisection_through", "is_id_reducible",
                  "check_structure_identities", "r_equivariant_commutant"),
    "bundle": ("CechBase", "Cocycle", "PrincipaloidBundle", "PPoint", "FPoint",
               "build_bundle", "validate_cocycle", "verify_principal_axioms",
               "bundle_to_json", "bundle_from_json", "MomentMismatch",
               "DivisionError"),
    "atiyah": ("AtiyahGroupoid", "AdjointBundle", "AtElement", "AdElement",
               "verify_atiyah_sequence", "verify_trident",
               "enumerate_projectable_bisections"),
    "automorphism": ("BundleAutomorphism", "identity_automorphism",
                     "automorphism_from_json", "validate_automorphism",
                     "automorphism_to_bisection", "bisection_to_automorphism",
                     "verify_bisection_correspondence",
                     "enumerate_gauge_group", "verify_gauge_group"),
    "report": ("ValidationReport", "Violation", "StructuralError",
               "CompositionError", "EnumerationBound", "InternalError",
               "NumericFailure"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module {!r} has no attribute {!r}".format(__name__, name))
    value = getattr(_import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
