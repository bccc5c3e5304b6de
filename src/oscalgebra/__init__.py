"""Exact ladder-operator algebra of the harmonic oscillator.

Normal-ordered polynomials in a, a† over Q(√½); the graded bracket and the
five-generator superalgebra it closes on; exact bracket closure, structure
constants and Jacobi checks; and a truncated Fock-space realization with
spectra, parity sectors, exact ladder amplitudes and orbit analysis.
"""

__version__ = "0.1.0"

from .amplitudes import ExactAmplitude
from .fock import (
    FockOperator,
    OrbitReport,
    ladder_amplitude,
    norm_condition,
    orbit,
    parity_matrix,
    relation_residuals,
    spectrum,
    to_matrix,
)
from .relations import Relation, all_relations
from .report import Check, VerificationReport
from .scalar import ROOT_HALF, Scalar
from .superalgebra import (
    AlgebraBasis,
    ClosureOverflowError,
    ClosureResult,
    StructureConstants,
    close_under_bracket,
    graded_jacobi_check,
    jacobi_from_constants,
    structure_constants,
)
from .weyl import (
    A,
    ADAG,
    EVEN,
    IDENTITY,
    ODD,
    GradedElement,
    LadderMonomial,
    WeylPolynomial,
    anticommutator,
    casimir,
    commutator,
    graded_bracket,
    hamiltonian,
    monomial,
    standard_generators,
)
