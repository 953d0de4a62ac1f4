"""Newton polygons of zeta function numerators for y^2 + y = f(x) over F_{2^a}."""

from .field import (
    FieldCtx,
    embed_bits,
    field_table,
    is_irreducible,
    make_ctx,
    smallest_irreducible,
)
from .hasse import TheoremCase, classify
from .modsolve import (
    DensityResult,
    ModSolution,
    density,
    min_weight_solution,
    minimal_irreducible_solutions,
    odds_up_to,
)
from .vss import (
    MinimalSupportMatrix,
    VssReport,
    build_matrix,
    effective_exponent_set,
    predict_first_vertex,
    vss_dim,
    vss_report,
)
from .zeta import (
    CurvePoly,
    exponential_sum,
    first_vertex,
    l_polynomial,
    newton_polygon,
    newton_polygon_of_curve,
    point_count,
)

__all__ = [
    "CurvePoly",
    "DensityResult",
    "FieldCtx",
    "MinimalSupportMatrix",
    "ModSolution",
    "TheoremCase",
    "VssReport",
    "build_matrix",
    "classify",
    "density",
    "effective_exponent_set",
    "embed_bits",
    "exponential_sum",
    "field_table",
    "first_vertex",
    "is_irreducible",
    "l_polynomial",
    "make_ctx",
    "min_weight_solution",
    "minimal_irreducible_solutions",
    "newton_polygon",
    "newton_polygon_of_curve",
    "odds_up_to",
    "point_count",
    "predict_first_vertex",
    "smallest_irreducible",
    "vss_dim",
    "vss_report",
]
