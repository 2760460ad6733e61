import math
import subprocess
import sys
import threading
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import Q_GRID, q_values
from qdeform.qnum import QContext, rational, stirling_first, stirling_second


def qnumber_oracle(q: Fraction, n: int) -> Fraction:
    # direct evaluation of (1 - q^n)/(1 - q), independent of the recurrence
    return (1 - q**n) / (1 - q)


class TestQNumber:
    def test_hand_value(self):
        ctx = QContext(Fraction(1, 2))
        assert ctx.qnumber(3) == Fraction(7, 4)

    def test_zero_and_one(self):
        for q in Q_GRID:
            ctx = QContext(q)
            assert ctx.qnumber(0) == 0
            assert ctx.qnumber(1) == 1

    @given(q=q_values, n=st.integers(min_value=0, max_value=24))
    def test_matches_direct_formula(self, q, n):
        assert QContext(q).qnumber(n) == qnumber_oracle(q, n)

    @given(q=q_values, n=st.integers(min_value=0, max_value=23))
    def test_recurrence(self, q, n):
        ctx = QContext(q)
        assert ctx.qnumber(n + 1) == 1 + q * ctx.qnumber(n)

    def test_q_zero_is_all_ones(self):
        ctx = QContext(0)
        assert all(ctx.qnumber(n) == 1 for n in range(1, 11))


class TestDBracket:
    def test_hand_value(self):
        assert QContext(Fraction(1, 2)).dbracket(2) == Fraction(4, 3)

    def test_conventions(self):
        for q in Q_GRID:
            ctx = QContext(q)
            assert ctx.dbracket(0) == 1
            assert ctx.dbracket(1) == 1

    @given(q=q_values, n=st.integers(min_value=1, max_value=24))
    def test_bracket_times_qnumber(self, q, n):
        ctx = QContext(q)
        assert ctx.dbracket(n) * ctx.qnumber(n) == n


class TestFactorials:
    def test_dbracket_factorial_value(self):
        ctx = QContext(Fraction(1, 2))
        assert ctx.dbracket_factorial(2) == Fraction(4, 3)  # [[1]]*[[2]]

    def test_empty_products(self):
        for q in Q_GRID:
            ctx = QContext(q)
            assert ctx.dbracket_factorial(0) == 1

    def test_product_oracles(self):
        ctx = QContext(Fraction(1, 3))
        db = Fraction(1)
        for n in range(1, 13):
            db *= Fraction(n) / qnumber_oracle(Fraction(1, 3), n)
            assert ctx.dbracket_factorial(n) == db

    @given(q=q_values, n=st.integers(min_value=0, max_value=10))
    def test_cross_identity(self, q, n):
        # [[n]]! = n!/{n}!; two independent product definitions
        ctx = QContext(q)
        qfactorial = math.prod((ctx.qnumber(k) for k in range(1, n + 1)), start=Fraction(1))
        assert ctx.dbracket_factorial(n) == factorial(n) / qfactorial


def gamma_ratio(ctx, n):
    """u(n), read off the pair table."""
    return Fraction(*ctx.gamma_ratio_pairs(n)[n])


class TestGammaRatio:
    def test_empty(self):
        for q in Q_GRID:
            assert gamma_ratio(QContext(q), 0) == 1

    def test_hand_value(self):
        assert gamma_ratio(QContext(Fraction(1, 2)), 2) == Fraction(3, 4)

    @given(q=q_values, n=st.integers(min_value=1, max_value=10))
    def test_telescoping(self, q, n):
        ctx = QContext(q)
        assert gamma_ratio(ctx, n) / gamma_ratio(ctx, n - 1) == ctx.qnumber(n) / n


def stirling_recurrence_oracle(n, k, cache={}):
    # s(n+1, k) = s(n, k-1) - n s(n, k); written independently of the library
    if (n, k) in cache:
        return cache[n, k]
    if n == 0 and k == 0:
        return 1
    if k < 0 or k > n or n == 0:
        return 0
    v = stirling_recurrence_oracle(n - 1, k - 1) - (n - 1) * stirling_recurrence_oracle(
        n - 1, k
    )
    cache[n, k] = v
    return v


class TestStirling:
    def test_leading(self):
        assert stirling_first(3, 3) == 1

    def test_cubic_by_hand(self):
        # b(b-1)(b-2) = b^3 - 3b^2 + 2b
        assert stirling_first(3, 1) == 2
        assert stirling_first(3, 2) == -3

    def test_recurrence_value(self):
        assert stirling_first(4, 2) == stirling_recurrence_oracle(4, 2) == 11

    def test_against_recurrence_oracle(self):
        for n in range(9):
            for k in range(n + 1):
                assert stirling_first(n, k) == stirling_recurrence_oracle(n, k)

    def test_falling_factorial_evaluation(self):
        # sum_k s(n,k) m^k = m(m-1)...(m-n+1) for 0 <= m, n <= 12
        for n in range(13):
            for m in range(13):
                falling = 1
                for j in range(n):
                    falling *= m - j
                total = sum(stirling_first(n, k) * m**k for k in range(n + 1))
                assert total == falling

    def test_second_kind_inverts_first(self):
        for n in range(9):
            for k in range(n + 1):
                tot = sum(
                    stirling_second(n, j) * stirling_first(j, k)
                    for j in range(k, n + 1)
                )
                assert tot == (1 if n == k else 0)

    def test_second_kind_closed_form(self):
        # S(n, k) = sum_j (-1)^j C(k, j) (k - j)^n / k!, with 0^0 = 1
        for n in range(40):
            for k in range(n + 1):
                total = sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))
                assert stirling_second(n, k) * factorial(k) == total

    def test_cold_rows_stay_off_the_call_stack(self):
        # a row is built from the one below it without recursing, so a cold
        # row past a small recursion limit is fine
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            "import sys; sys.path.insert(0, %r); sys.setrecursionlimit(200)\n"
            "from math import factorial\n"
            "from qdeform.poly import FallingFactorial, Poly\n"
            "from qdeform.qnum import stirling_first, stirling_second\n"
            "print(stirling_first(400, 1) == (-1) ** 399 * factorial(399))\n"
            "print(stirling_second(400, 2) == 2 ** 399 - 1)\n"
            "falling = Poly([0] * 401 + [1], FallingFactorial(1))\n"
            "print(falling.to_monomial().coefficient(1) == factorial(400))\n"
        ) % src
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "True\n" * 3

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            stirling_first(3, 4)
        with pytest.raises(ValueError):
            stirling_second(2, 5)


TABLE_Q = Q_GRID + (Fraction(0), Fraction(3, 2), Fraction(-5, 2))
TABLE_N = 60


def table_faults(pairs, oracle, top=TABLE_N):
    """Indexes n <= top at which pairs[n] is not oracle(n) as a pair in
    lowest terms with a positive denominator."""
    bad = []
    for n in range(top + 1):
        num, den = pairs[n]
        if den <= 0 or math.gcd(num, den) != 1 or Fraction(num, den) != oracle(n):
            bad.append(n)
    return bad


def table_oracles(q):
    """Each pair table of QContext(q) with its closed form: {n} directly,
    [[n]] = n/{n}, and u(n) = {1}...{n}/n!."""
    ctx = QContext(q)
    return {
        "qnumber": (ctx.qnumber_pairs(TABLE_N), lambda n: qnumber_oracle(q, n)),
        "dbracket": (
            ctx.dbracket_pairs(TABLE_N),
            lambda n: Fraction(n) / qnumber_oracle(q, n) if n else Fraction(1),
        ),
        "gamma_ratio": (
            ctx.gamma_ratio_pairs(TABLE_N),
            lambda n: math.prod(qnumber_oracle(q, k) for k in range(1, n + 1)) / factorial(n),
        ),
    }


class TestPairTables:
    """The int-pair tables the kernels read, against closed forms."""

    @pytest.mark.filterwarnings("ignore:q = .* lies outside")
    @pytest.mark.parametrize("q", TABLE_Q, ids=str)
    def test_tables_match_closed_forms(self, q):
        for name, (pairs, oracle) in table_oracles(q).items():
            assert table_faults(pairs, oracle) == [], (q, name)

    @pytest.mark.filterwarnings("ignore:q = .* lies outside")
    @pytest.mark.parametrize("q", TABLE_Q, ids=str)
    def test_fraction_accessors_read_the_pairs(self, q):
        ctx = QContext(q)
        for n in range(TABLE_N + 1):
            assert ctx.qnumber(n) == Fraction(*ctx.qnumber_pairs(n)[n])
            assert ctx.dbracket(n) == Fraction(*ctx.dbracket_pairs(n)[n])

    def test_a_perturbed_pair_is_caught(self):
        # negative control: a wrong value, a pair not in lowest terms and a
        # negative denominator are each reported at their index
        q = Fraction(9, 10)
        pairs, oracle = table_oracles(q)["dbracket"]
        num, den = pairs[7]
        for wrong in ((num + 1, den), (2 * num, 2 * den), (-num, -den)):
            perturbed = pairs[:7] + (wrong,) + pairs[8:]
            assert table_faults(perturbed, oracle) == [7], wrong


class TestQContext:
    def test_rejects_q_one(self):
        with pytest.raises(ValueError):
            QContext(1)

    def test_rejects_vanishing_qnumber(self):
        with pytest.raises(ValueError):
            QContext(-1)  # {2} = 0

    def test_warns_outside_unit_interval(self):
        with pytest.warns(UserWarning):
            QContext(2)

    def test_no_warning_inside(self, recwarn):
        QContext(Fraction(9, 10))
        assert not recwarn.list

    def test_index_bound_enforced(self):
        ctx = QContext(Fraction(1, 2))
        for method in (ctx.qnumber, ctx.dbracket, ctx.dbracket_factorial):
            with pytest.raises(ValueError):
                method(-1)

    def test_tables_grow_on_demand(self):
        ctx = QContext(Fraction(1, 2))
        assert ctx.qnumber(100) == qnumber_oracle(Fraction(1, 2), 100)
        assert ctx.dbracket_factorial(70) == ctx.dbracket_factorial(69) * ctx.dbracket(70)
        assert ctx.dbracket_factorial(3) == 1 * Fraction(4, 3) * Fraction(12, 7)

    def test_dbracket_is_tabulated(self):
        ctx = QContext(Fraction(9, 10))
        first = [ctx.dbracket(n) for n in range(30)]
        table = ctx.dbracket_pairs(29)
        # a second lookup reads the stored pair table instead of growing it again
        assert [ctx.dbracket(n) for n in range(30)] == first
        assert ctx.dbracket_pairs(29) is table
        assert all(Fraction(*table[n]) == v for n, v in enumerate(first))
        assert first[0] == 1
        assert all(v == n / qnumber_oracle(Fraction(9, 10), n) for n, v in enumerate(first) if n)
        prod = Fraction(1)
        for n in range(30):
            prod *= first[n]
            assert ctx.dbracket_factorial(n) == prod

    def test_growth_is_safe_across_threads(self):
        from qdeform.opcore import DiagInv, apply, dbracket_diag, gamma_ratio_diag, qnum_diag
        from qdeform.poly import Poly

        q = Fraction(9, 10)
        ctx = QContext(q)
        u = [Fraction(1)]  # u(n) = {1}...{n}/n!
        for n in range(1, 150):
            u.append(u[-1] * qnumber_oracle(q, n) / n)
        # diagonals on the shared context, each grown by the workers' first use
        diags = (
            (dbracket_diag(ctx, 1), lambda n: Fraction(n + 1) / qnumber_oracle(q, n + 1)),
            (DiagInv(qnum_diag(ctx, 1)), lambda n: 1 / qnumber_oracle(q, n + 1)),
            (gamma_ratio_diag(ctx), u.__getitem__),
        )
        bad = []

        def worker(offset):
            for n in range(offset, 150, 4):
                if ctx.qnumber(n) != qnumber_oracle(q, n) or ctx.dbracket_factorial(n) != (
                    ctx.dbracket_factorial(n - 1) * n / qnumber_oracle(q, n) if n else 1
                ):
                    bad.append(n)
                for diag, value in diags:
                    if apply(diag, Poly.monomial(n), n) != Poly.monomial(n, value(n)):
                        bad.append((diag.text, n))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert bad == []

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError):
            rational("1/0")

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            rational(0.5)

    def test_everything_is_exact(self):
        ctx = QContext(Fraction(9, 10))
        for n in range(17):
            for v in (ctx.qnumber(n), ctx.dbracket(n), ctx.dbracket_factorial(n)):
                assert isinstance(v, Fraction)


class TestSerialization:
    def test_wire_format(self):
        assert str(rational("3/4")) == "3/4"
        assert str(rational("-3/4")) == "-3/4"
        assert str(rational(5)) == "5"
        assert rational("7") == 7
