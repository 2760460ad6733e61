from fractions import Fraction

import pytest

from qdeform import hahn, maps, verify
from qdeform.cli import main
from qdeform.poly import Poly
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


def _off_q(pos):
    """Wrap a function so that its QContext argument at position pos is
    replaced by one at q + 1/7."""

    def wrap(orig):
        def perturbed(*args, **kwargs):
            args = list(args)
            args[pos] = QContext(args[pos].q + Fraction(1, 7))
            return orig(*args, **kwargs)

        return perturbed

    return wrap


# suite -> (module, attribute, perturbation of the attribute's function)
NEGATIVE_CONTROLS = {
    "ccr": (verify, "dq_expr", _off_q(0)),
    "qccr": (verify, "dq_expr", _off_q(0)),
    "jackson": (verify, "s_expr", _off_q(0)),
    "rolle": (maps, "quantum_average", _off_q(1)),
    # any word G intertwines under a true projection; one off by |0> must not
    "intertwine": (maps, "b_projection", lambda orig: lambda f, m, D: orig(f + Poly.one(), m, D)),
    "similarity": (maps, "u_expr", _off_q(0)),
    "qcc-delta": (maps, "phi_q_prime", _off_q(0)),
    "composition": (
        verify,
        "phi_delta",
        lambda orig: lambda delta, **kw: orig(delta + Fraction(1, 2), **kw),
    ),
    "hahn": (hahn, "q_eigenvalue", _off_q(1)),
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_perturbed_ingredient_fails_the_suite(capsys, monkeypatch, fresh_memo, name):
    argv = ["verify", name, "--q=1/2", "--delta=1", "--degree", "10"]
    assert main(argv) == 0
    module, attr, perturb = NEGATIVE_CONTROLS[name]
    monkeypatch.setattr(module, attr, perturb(getattr(module, attr)))
    capsys.readouterr()
    assert main(argv) == 3
    out = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL ") for line in out)
    held, total = map(int, out[-1].split()[0].split("/"))
    assert held < total
