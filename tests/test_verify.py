from fractions import Fraction

import pytest

from qdeform.qnum import QContext
from qdeform.verify import MIN_DEGREE, SUITES, run_suite


@pytest.fixture(scope="module")
def ctx():
    return QContext(Fraction(1, 2))


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes(ctx, name):
    checks = run_suite(name, ctx, Fraction(1), 12)
    assert checks
    failed = [c.name for c in checks if not c.ok]
    assert not failed


def test_all_runs_every_suite(ctx):
    combined = run_suite("all", ctx, Fraction(1, 2), 10)
    assert len(combined) == sum(len(run_suite(n, ctx, Fraction(1, 2), 10)) for n in SUITES)
    assert all(c.ok for c in combined)


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("bogus", QContext(Fraction(1, 2)), 1, 8)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_at_its_minimum_degree(ctx, name):
    least = MIN_DEGREE.get(name, 0)
    checks = run_suite(name, ctx, Fraction(1, 2), least)
    assert checks and all(c.ok for c in checks)
    with pytest.raises(ValueError, match="needs degree D >= %d" % least):
        run_suite(name, ctx, Fraction(1, 2), least - 1)
