"""The Hahn operator family: four isospectral variants, exact spectra, and
polynomial eigenfunctions in three bases.

The base object is the most general three-point finite-difference operator
with infinitely many polynomial eigenfunctions. It equals a word in the
shift pair; substituting the undeformed pair gives a third-order
differential operator, substituting the Jackson pair gives a
differential-difference operator with the same spectrum, and substituting
the Jackson derivative alone q-deforms the spectrum itself.

Eigenfunction coefficients are never hard-coded: the differential variant
maps x^n to lambda_n x^n + s_n x^(n-1), so they come out of the exact
two-term recurrence gamma_i = s_(i+1) gamma_(i+1) / (lambda_k - lambda_i),
and the deformed variants reuse them with the basis reweightings the
structure dictates. Normalization is monic in the leading basis element.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .errors import DegenerateSpectrumError, MathError, SpectrumMismatchError
from .maps import a_delta_expr, b_delta_expr, dq_expr
from .opcore import (
    A_DIAG,
    COORD,
    DERIV,
    ExpOp,
    IDENT,
    IntPow,
    LinOp,
    OpExpr,
    apply,
    op_prod,
    op_sum,
    realize_exact,
    scaled,
    working_degree,
)
from .poly import FallingFactorial, Poly
from .qnum import QContext, Record, rational


class HahnParams(Record):
    """Parameters (alpha, beta, N) plus the normalization constants.

    c1 and delta default to the customary normalization c1 = -1, delta = 1;
    c2, c3, c4 are derived: c2 = N - 2 - beta, c3 = -alpha - beta - 1,
    c4 = (beta + 1)(N - 1).
    """

    __slots__ = ("alpha", "beta", "N", "delta", "c1")

    def __init__(self, alpha, beta, N, delta=1, c1=-1):
        super().__init__(*map(rational, (alpha, beta, N, delta, c1)))
        if self.delta == 0:
            raise ValueError("delta must be nonzero")

    @property
    def c2(self) -> Fraction:
        return self.N - 2 - self.beta

    @property
    def c3(self) -> Fraction:
        return -self.alpha - self.beta - 1

    @property
    def c4(self) -> Fraction:
        return (self.beta + 1) * (self.N - 1)


class HahnVariant(Enum):
    THREE_POINT = "three_point"
    ABSTRACT = "abstract"
    CONTINUOUS = "continuous"
    Q_DEFORMED = "q_deformed"
    Q_SPECTRUM = "q_spectrum"


Q_VARIANTS = (HahnVariant.Q_DEFORMED, HahnVariant.Q_SPECTRUM)


def _coeff_poly(c0, c1x, c2x2):
    """The multiplication operator c0 + c1x*x + c2x2*x^2."""
    terms = []
    if c0:
        terms.append(scaled(c0, IDENT))
    if c1x:
        terms.append(scaled(c1x, COORD))
    if c2x2:
        terms.append(scaled(c2x2, IntPow(COORD, 2)))
    return op_sum(*terms)


def build(variant: HahnVariant, params: HahnParams, ctx: QContext | None = None) -> OpExpr:
    """The operator for a variant as an expression; q-variants need a context."""
    variant = HahnVariant(variant)
    if variant in Q_VARIANTS and ctx is None:
        raise ValueError("%s requires a q context" % variant.value)
    d = params.delta
    c1, c2, c3, c4 = params.c1, params.c2, params.c3, params.c4
    if variant == HahnVariant.THREE_POINT:
        plus = _coeff_poly(c4 * d**2, c2 * d, c1)
        mid = _coeff_poly(c4 * d**2, -d * (c1 - 2 * c2 + c3 * d), 2 * c1)
        minus = _coeff_poly(0, d * (c1 - c2 + c3 * d), -c1)
        shift_up = ExpOp(scaled(d, DERIV))
        shift_dn = ExpOp(scaled(-d, DERIV))
        return scaled(
            d**-3,
            op_sum(
                op_prod(plus, shift_up),
                scaled(-1, mid),
                scaled(-1, op_prod(minus, shift_dn)),
            ),
        )
    if variant == HahnVariant.ABSTRACT:
        a = a_delta_expr(d)
        b = b_delta_expr(d)
        ba = op_prod(b, a)
        return op_sum(
            scaled(c1, op_prod(IntPow(ba, 2), op_sum(a, scaled(1 / d, IDENT)))),
            scaled(c2, op_prod(b, IntPow(a, 2))),
            scaled(c3, ba),
            scaled(c4, a),
        )
    if variant == HahnVariant.CONTINUOUS:
        deriv = DERIV
    else:
        deriv = dq_expr(ctx)
    if variant == HahnVariant.Q_DEFORMED:
        return op_sum(
            scaled(c1, op_prod(IntPow(A_DIAG, 2), op_sum(deriv, scaled(1 / d, IDENT)))),
            scaled(c2, op_prod(A_DIAG, deriv)),
            scaled(c3, A_DIAG),
            scaled(c4, deriv),
        )
    # continuous and q-spectrum share one shape, differing in the derivative
    return op_sum(
        op_prod(scaled(c1, IntPow(COORD, 2)), IntPow(deriv, 3)),
        op_prod(_coeff_poly(c1 + c2, c1 / d, 0), COORD, IntPow(deriv, 2)),
        op_prod(_coeff_poly(c4, c1 / d + c3, 0), deriv),
    )


def eigenvalue(params: HahnParams, k: int) -> Fraction:
    """lambda_k = c1 k^2 / delta + c3 k."""
    return params.c1 * k * k / params.delta + params.c3 * k


def q_eigenvalue(params: HahnParams, ctx: QContext, k: int) -> Fraction:
    """lambda~_k = c1 {k}({k-1} + 1)/delta + c3 {k}."""
    qk = ctx.qnumber(k)
    qk1 = ctx.qnumber(k - 1) if k >= 1 else Fraction(0)
    return params.c1 * qk * (qk1 + 1) / params.delta + params.c3 * qk


def spectrum(
    variant: HahnVariant, params: HahnParams, k: int, ctx: QContext | None = None
) -> Fraction:
    """The k-th eigenvalue of a variant (all share lambda_k except the
    q-spectrum variant, which carries lambda~_k)."""
    variant = HahnVariant(variant)
    if variant == HahnVariant.Q_SPECTRUM:
        if ctx is None:
            raise ValueError("q_spectrum requires a q context")
        return q_eigenvalue(params, ctx, k)
    return eigenvalue(params, k)


def _subdiagonal(lin: LinOp, eigvals) -> list:
    """s_n of each column x^n -> lambda_n x^n + s_n x^(n-1); others raise."""
    sub = []
    for n, (col, lam) in enumerate(zip(lin.columns, eigvals)):
        if col is None or col.degree > n or not col.truncated(n - 2).is_zero:
            raise MathError("realized column %d lies outside the band (-1, 0)" % n)
        got = col.coefficient(n)
        if got != lam:
            raise SpectrumMismatchError(
                "realized diagonal at k=%d is %s, closed form gives %s" % (n, got, lam)
            )
        sub.append(col.coefficient(n - 1))
    return sub


def eigenpolynomials(
    variant: HahnVariant,
    params: HahnParams,
    kmax: int,
    D: int,
    ctx: QContext | None = None,
) -> list:
    """Monic eigenpolynomials h_0..h_kmax of a variant.

    The differential variant is solved by the two-term recurrence; the
    three-point/abstract and Jackson-deformed variants reweight the same
    coefficients into their own bases; the q-spectrum variant is solved
    independently against its own eigenvalues.
    """
    variant = HahnVariant(variant)
    if kmax > D:
        raise ValueError("kmax exceeds the truncation degree")
    if variant in Q_VARIANTS and ctx is None:
        raise ValueError("%s requires a q context" % variant.value)

    source = variant if variant == HahnVariant.Q_SPECTRUM else HahnVariant.CONTINUOUS
    eigvals = [spectrum(variant, params, k, ctx) for k in range(kmax + 1)]
    sub = _subdiagonal(realize_exact(build(source, params, ctx), kmax), eigvals)
    gammas = []
    for k in range(kmax + 1):
        if eigvals[k] in eigvals[:k]:
            raise DegenerateSpectrumError((eigvals.index(eigvals[k]), k))
        gamma = [Fraction(1)]  # the x^i coefficient of (H - lambda_k) h_k vanishes
        for i in range(k - 1, -1, -1):
            gamma.insert(0, sub[i + 1] * gamma[0] / (eigvals[k] - eigvals[i]))
        gammas.append(gamma)

    if variant == source:
        return [Poly(g) for g in gammas]
    if variant in (HahnVariant.THREE_POINT, HahnVariant.ABSTRACT):
        tag = FallingFactorial(params.delta)
        return [Poly(g, tag) for g in gammas]
    # Jackson-deformed: gamma_i picks up [[i]]!.
    return [
        Poly([g_i * ctx.dbracket_factorial(i) for i, g_i in enumerate(g)])
        for g in gammas
    ]


def residual(
    variant: HahnVariant,
    params: HahnParams,
    h: Poly,
    k: int,
    ctx: QContext | None = None,
) -> Poly:
    """(H - lambda_k) h, exactly; the zero polynomial certifies an eigenpair."""
    variant = HahnVariant(variant)
    return _residual(build(variant, params, ctx), h, spectrum(variant, params, k, ctx))


def _residual(op: OpExpr, h: Poly, lam: Fraction) -> Poly:
    p = h.to_monomial()
    return apply(op, p, working_degree(max(p.degree, 0), op)) - p.scale(lam)


def isospectral_check(paramsets, qs, kmax: int, D: int) -> dict:
    """Compare realized diagonals 0..kmax against the closed-form spectra
    across parameter sets and q values (rationals or QContexts); reports
    per-check booleans.

    Each operator is realized through kmax only: its entries 0..kmax, and
    whether a column is overflow-marked, are the same as in a realization
    through any larger D. D only bounds kmax, as in eigenpolynomials."""
    if kmax > D:
        raise ValueError("kmax exceeds the truncation degree")
    entries = []
    for params in paramsets:
        cases = [
            ("continuous-diagonal", HahnVariant.CONTINUOUS, None),
            ("three-point-diagonal", HahnVariant.THREE_POINT, None),
        ]
        for q in qs:
            ctx = q if isinstance(q, QContext) else QContext(q)
            cases.append(("q-deformed-diagonal", HahnVariant.Q_DEFORMED, ctx))
            cases.append(("q-spectrum-diagonal", HahnVariant.Q_SPECTRUM, ctx))
        for check, variant, ctx in cases:
            entry = {"check": check, "params": _param_tag(params)}
            if ctx is not None:
                entry["q"] = str(ctx.q)
            lin = realize_exact(build(variant, params, ctx), kmax)
            expect = [spectrum(variant, params, k, ctx) for k in range(kmax + 1)]
            entry["ok"] = list(lin.diagonal()) == expect
            entries.append(entry)
    return {"ok": all(e["ok"] for e in entries), "entries": entries}


def _param_tag(params: HahnParams) -> str:
    return "alpha=%s,beta=%s,N=%s,delta=%s,c1=%s" % (
        params.alpha,
        params.beta,
        params.N,
        params.delta,
        params.c1,
    )


def table_rows(
    variant: HahnVariant,
    params: HahnParams,
    kmax: int,
    D: int,
    ctx: QContext | None = None,
) -> list:
    """Per-k rows for table emission: exact eigenvalue, coefficients in the
    variant's basis, and the residual (which must be exactly zero)."""
    variant = HahnVariant(variant)
    polys = eigenpolynomials(variant, params, kmax, D, ctx)
    op = build(variant, params, ctx)
    rows = []
    for k, h in enumerate(polys):
        lam = spectrum(variant, params, k, ctx)
        rows.append(
            {
                "variant": variant.value,
                "params": _param_tag(params),
                "k": k,
                "eigenvalue": str(lam),
                "coefficients": [str(c) for c in h.coeffs],
                "residual": _residual(op, h, lam).to_text(),
            }
        )
    return rows
