"""Exact homology of Loday constructions L_X(A; C) over prime fields and Q.

The package assembles the chain complex whose p-chains place one basis label
of a weight-graded commutative augmented algebra A on each non-basepoint
p-simplex of a finite pointed simplicial set X (and a coefficient label at the
basepoint), and computes its homology dimensions per (degree, weight) with
exact sparse linear algebra.  One complex class, ``LodayComplex``, is the
evaluator over one axis or several, made by one constructor
(``build_complex`` is its one-axis case): ``homology_dims`` ranks every
complex one way, and its eager reads (``.terms``, ``.bases``,
``.boundaries``) are cached views of the same kernel.  Independent oracles
(the same evaluator on the two-circle grid, and Künneth convolution)
cross-check the main pipeline, and the stability drivers phrase
torus-versus-wedge comparisons as executable verdicts.
"""

from .exactlinalg import (
    FieldSpec, NonPrimeModulus, SparseMatrix, make_field, rank,
)
from .simplicial import (
    MalformedExpr, PointedSimplicialSet, SpaceExpr, TruncationMismatch,
    are_isomorphic, build_space, circle, is_connected, parse_space_expr,
    point, product, simplex_sphere, smash, suspension, validate, wedge,
)
from .algebra import (
    AlgebraAxiomError, Coefficients, GradedAlgebra, InvalidTruncation,
    PolynomialAlgebra, SchemaError, dump_algebra, exterior, load_algebra,
    parse_algebra_expr, polynomial, truncated_poly, unit_coefficient_algebra,
    validate_algebra,
)
from .loday import (
    BasisSizeExceeded, DEFAULT_MAX_BLOCK, FieldMismatch, HomologyTable,
    LodayComplex, TruncationTooShallow, WeightBoundRequired,
    build_complex, chain_dims, homology_dims,
)
from .oracle import CoefficientMismatch, torus_bicomplex, wedge_kunneth_dims
from .stability import (
    ComparisonReport, NotConnected, PRESET_EQUIVALENT_PAIRS, compare_spaces,
    compare_tables, product_decomposition_check,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraAxiomError", "BasisSizeExceeded", "Coefficients",
    "CoefficientMismatch", "ComparisonReport", "DEFAULT_MAX_BLOCK",
    "FieldMismatch", "FieldSpec", "GradedAlgebra", "HomologyTable",
    "InvalidTruncation", "LodayComplex", "MalformedExpr",
    "NonPrimeModulus", "NotConnected", "PRESET_EQUIVALENT_PAIRS",
    "PointedSimplicialSet", "PolynomialAlgebra", "SchemaError", "SpaceExpr",
    "SparseMatrix", "TruncationMismatch", "TruncationTooShallow",
    "WeightBoundRequired", "are_isomorphic", "build_complex", "build_space",
    "chain_dims", "circle", "compare_spaces",
    "compare_tables", "dump_algebra", "exterior", "homology_dims",
    "is_connected", "load_algebra", "make_field",
    "parse_algebra_expr", "parse_space_expr", "point", "polynomial", "product",
    "product_decomposition_check", "rank", "simplex_sphere", "smash",
    "suspension", "torus_bicomplex", "truncated_poly",
    "unit_coefficient_algebra", "validate", "validate_algebra", "wedge", "wedge_kunneth_dims",
]
