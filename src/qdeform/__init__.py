"""qdeform: exact operator calculus for deformations that preserve the
Heisenberg commutation relation.

The package realizes the Jackson derivative together with its conjugate
coordinate, the forward-difference pair, their compositions and adapted
bases, the associated Jackson integral/averaging calculus, the diagonal
similarity transform linking the deformed and undeformed pairs, and the
isospectrally deformed Hahn operator family — all over exact rationals on
truncated polynomial spaces, with every identity decidable and machine
checked.
"""

from .qnum import QContext, Rational, rational, stirling_first, stirling_second
from .poly import FallingFactorial, MONOMIAL, Monomial, Poly
from .opcore import (
    A_DIAG,
    B_DIAG,
    COORD,
    DERIV,
    DiagFn,
    DiagInv,
    ExpOp,
    IDENT,
    IntPow,
    LinOp,
    OpExpr,
    acts_equally,
    apply,
    commutator,
    dbracket_diag,
    gamma_ratio_diag,
    op_prod,
    op_sum,
    q_commutator,
    qnum_diag,
    qpow_diag,
    realize,
    realize_exact,
    scaled,
    star,
)
from .maps import (
    DeformMap,
    a_delta_expr,
    adapted_basis,
    b_delta_expr,
    b_projection,
    compose,
    dq_expr,
    eigenfunction_series,
    fb_map,
    identity_map,
    intertwine_check,
    jackson_integral,
    make_map,
    map_from_json,
    mq_expr,
    phi_delta,
    phi_q,
    phi_q_prime,
    q_exponential,
    qcc_delta_check,
    quantum_average,
    rolle_check,
    s_expr,
    similarity_U,
    similarity_check,
    taylor_exponential,
    u_expr,
    xq_expr,
)
from .hahn import (
    HahnParams,
    HahnVariant,
    build,
    eigenpolynomials,
    eigenvalue,
    isospectral_check,
    q_eigenvalue,
    residual,
    spectrum,
    table_rows,
)
from .dsl import parse, parse_poly, pretty
from . import errors

__version__ = "0.1.0"
