"""Verification workbench for bundles with groupoid fibres.

Exact finite structure on one side (groupoids, bisections, clutching,
symmetry groupoids, gauge groups), a numeric connection engine for matrix
group actions on the other.
"""

from .groupoid import (FiniteGroupoid, FiniteGroupAction, validate_groupoid,
                       pair_groupoid, action_groupoid, group_groupoid,
                       fibred_pair_groupoid, product_groupoid,
                       z2_swap_action)
from .bisection import (Bisection, validate_bisection, unit_bisection,
                        bisection_product, bisection_inverse, left_mult,
                        right_mult, conjugate, enumerate_bisections,
                        bisection_through, is_id_reducible,
                        check_structure_identities, r_equivariant_commutant)
from .bundle import (CechBase, Cocycle, PrincipaloidBundle, PPoint, FPoint,
                     build_bundle, validate_cocycle, verify_principal_axioms,
                     bundle_to_json, bundle_from_json, MomentMismatch,
                     DivisionError)
from .atiyah import (AtiyahGroupoid, AdjointBundle, AtElement, AdElement,
                     verify_atiyah_sequence, verify_trident,
                     enumerate_projectable_bisections)
from .automorphism import (BundleAutomorphism, identity_automorphism,
                           validate_automorphism, automorphism_to_bisection,
                           bisection_to_automorphism,
                           verify_bisection_correspondence,
                           enumerate_gauge_group, verify_gauge_group)
from .report import (ValidationReport, Violation, StructuralError,
                     CompositionError, EnumerationBound, InternalError,
                     NumericFailure)

__version__ = "0.1.0"
