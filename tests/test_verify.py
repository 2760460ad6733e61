import os
import random
import threading
from fractions import Fraction

import pytest

from qdeform import hahn, maps, verify
from qdeform.cli import main
from qdeform.errors import EmptyWindowError
from qdeform.opcore import COORD, DERIV, IntPow, op_prod
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
    "similarity": (maps, "gamma_ratio_diag", _off_q(0)),
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


def _off_by_one_projection(monkeypatch):
    orig = maps.b_projection
    monkeypatch.setattr(maps, "b_projection", lambda f, m, D: orig(f + Poly.one(), m, D))


@pytest.mark.parametrize("perturb", [None, _off_by_one_projection])
def test_intertwine_suite_agrees_with_intertwine_check(ctx, monkeypatch, fresh_memo, perturb):
    # the suite's verdict per map is intertwine_check on every word and the
    # suite's own draws, under a true projection and a broken one
    if perturb:
        perturb(monkeypatch)
    delta, D = Fraction(1, 2), 10
    rng = random.Random(verify._SEED)
    words = [DERIV, COORD, op_prod(COORD, DERIV), IntPow(DERIV, 2)]
    expected = []
    for m in (
        maps.phi_q(ctx),
        maps.phi_delta(delta),
        maps.compose(maps.phi_q(ctx), maps.phi_delta(delta)),
        maps.compose(maps.phi_delta(delta), maps.phi_q(ctx)),
    ):
        inputs = [verify.random_poly(rng, max(1, D - 3)) for _ in range(10)]
        expected.append(all(maps.intertwine_check(G, f, m, D) for f in inputs for G in words))
    verdicts = [c.ok for c in run_suite("intertwine", ctx, delta, D)]
    assert verdicts == expected
    assert all(verdicts) == (perturb is None)


def test_intertwine_projects_each_input_once(capsys, monkeypatch):
    # 4 maps x 10 inputs x (one projection of f + one per word of G f)
    calls = []
    orig = maps.b_projection
    monkeypatch.setattr(maps, "b_projection", lambda *args: calls.append(args) or orig(*args))
    assert main(["verify", "intertwine", "--q=1/2", "--delta=1", "--degree", "10"]) == 0
    assert len(calls) <= 200


def test_all_runs_in_the_calling_process(capsys, monkeypatch):
    # no worker processes, and the same report from a second thread
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    argv = ["verify", "all", "--q=1/2", "--delta=1", "--degree", "8"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    codes = []
    thread = threading.Thread(target=lambda: codes.append(main(argv)))
    thread.start()
    thread.join(120)
    assert not thread.is_alive() and codes == [0]
    assert capsys.readouterr().out == out
    assert forks == []


@pytest.mark.parametrize("name", list(SUITES))
def test_failing_check_keeps_its_place(capsys, monkeypatch, name):
    monkeypatch.setitem(SUITES, name, lambda ctx, delta, D: [verify.Check("patched", False)])
    argv = ["verify", "all", "--q=1/3", "--delta=2", "--degree", "8"]
    assert main(argv) == 3
    out = capsys.readouterr().out
    ctx, keys = QContext(Fraction(1, 3)), list(SUITES)
    before = sum(len(SUITES[key](ctx, Fraction(2), 8)) for key in keys[: keys.index(name)])
    lines = out.splitlines()
    assert [i for i, line in enumerate(lines) if line.startswith("FAIL ")] == [before]
    assert lines[before].startswith("FAIL patched ")


def _raising(message):
    def suite(ctx, delta, D):
        raise EmptyWindowError(message)

    return suite


@pytest.mark.parametrize("first,later", [("ccr", "hahn"), ("qccr", "intertwine"), ("composition", "hahn")])
def test_first_raising_suite_propagates(capsys, monkeypatch, first, later):
    # the first suite in order that raises gives the exception; the CLI
    # reports it as one stderr line and exits 3
    monkeypatch.setitem(SUITES, first, _raising("no window in %s" % first))
    monkeypatch.setitem(SUITES, later, _raising("no window in %s" % later))
    ctx, delta = QContext(Fraction(1, 3)), Fraction(2)
    with pytest.raises(EmptyWindowError, match="^no window in %s$" % first):
        run_suite("all", ctx, delta, 8)
    argv = ["verify", "all", "--q=1/3", "--delta=2", "--degree", "8"]
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "error: no window in %s\n" % first)
