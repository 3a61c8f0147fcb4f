"""Exact-arithmetic toolkit for finite-dimensional corings over
finite-dimensional algebras: comodules and cotensor products, convolution
dual algebras, coseparability, and inner/outer automorphism analysis with
independent cross-checking oracles.

Everything is computed over Q or a prime field with no floating point
anywhere; every searched witness is re-verified by exact arithmetic.
"""

from .algebra import (Algebra, AlgebraMorphism, Bimodule, check_algebra,
                      check_group_table, direct_sum, free_right_module, group_algebra,
                      is_projective_left, is_projective_right, left_module,
                      matrix_algebra, regular_bimodule, right_module, scalar_algebra)
from .comodule import (Bicomodule, Comodule, CotensorResult, IsoSearchResult,
                       LeftComodule, bicomodule_hom_space, bicomodule_iso_exists,
                       check_bicomodule, check_comodule, check_left_comodule,
                       comodule_hom_space, cotensor, cotensor_unit_left,
                       cotensor_unit_right, regular_bicomodule, twisted_bicomodule)
from .convolution import (DualAlgebra, DualElement, DualModuleTransport,
                          comodule_to_dual_module, convolution_inverse, counit_element,
                          is_convolution_invertible, left_dual_algebra,
                          right_dual_algebra)
from .coring import (Cointegral, Coring, CoringMorphism, check_coring,
                     check_coring_morphism, compose_morphisms, find_cointegral)
from .families import (Bialgebra, DKStructure, EntwiningStructure, GradedData,
                       check_entwining, coalgebra, coring_from_entwining, cyclic_group,
                       dk_from_graded, dual_coalgebra, entwined_to_comodule, entwining_from_dk,
                       entwining_from_graded, flip_entwining, graded_coring,
                       grouplike_bialgebra, grouplike_coalgebra, matrix_coring,
                       regular_gset, trivial_coring, trivial_gset)
from .fields import GF, QQ, FieldSpec, Matrix
from .picard import (AutomorphismSet, ExactSequenceReport, InnerTestResult,
                     KernelMembershipResult, check_dk_morphism,
                     check_entwining_morphism, check_graded_triple,
                     dk_ker_membership, entwining_coring_automorphism,
                     entwining_ker_membership, enumerate_automorphisms,
                     graded_dual_element, graded_dual_invertible, graded_dual_values,
                     graded_ker_omega, graded_triple_coring_automorphism,
                     graded_triple_ker_membership, graded_values_algebra, inner_via_bicomodule,
                     is_inner, verify_exact_sequence)
from .report import (BalancednessError, Check, InvalidStructureError,
                     KernelInvarianceError, OracleDisagreementError, Report)
from .tensor import TensorQuotient, tensor_chain, tensor_over
from .unitsearch import (DEFAULT_BUDGET, UnitSearchResult, invertible_in_span,
                         subspace_contains_unit)

__version__ = "0.1.0"
