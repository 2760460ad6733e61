import os
import random
import threading
import time
from fractions import Fraction

import pytest

from qdeform import hahn, maps, verify
from qdeform.cli import main
from qdeform.errors import EmptyWindowError, MapConstructionError
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


# run_suite("all") forks one worker per further usable CPU when it is called
# from the only live thread; from a second thread it runs every suite here,
# one after another. The tests below compare the two paths.


def _serially(fn, *args):
    """fn(*args) called from a second thread, so run_suite takes its serial
    path; returns what it returns and raises what it raises."""
    box = {}

    def target():
        try:
            box["value"] = fn(*args)
        except Exception as exc:
            box["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(120)
    assert not thread.is_alive()
    if "error" in box:
        raise box["error"]
    return box["value"]


@pytest.fixture
def forks(monkeypatch):
    """A list that gains one entry per os.fork call in this process."""
    if verify._usable_cpus() < 2:
        pytest.skip("one usable CPU: run_suite never forks")
    calls = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.mark.parametrize("D", [8, 16])
@pytest.mark.parametrize("q,delta", [("1/2", "1"), ("-9/10", "-1/2")])
def test_forked_and_serial_paths_agree(forks, q, delta, D):
    ctx, delta = QContext(Fraction(q)), Fraction(delta)
    forked = run_suite("all", ctx, delta, D)
    assert forks and _no_child_left()
    assert forked == _serially(run_suite, "all", ctx, delta, D)


def test_more_workers_than_cores_agree(monkeypatch, forks):
    # one worker per suite after the first, whatever the machine has
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 64)
    ctx, delta = QContext(Fraction(-1, 3)), Fraction(3, 2)
    forked = run_suite("all", ctx, delta, 10)
    assert len(forks) == len(SUITES) - 1 and _no_child_left()
    assert forked == _serially(run_suite, "all", ctx, delta, 10)


def test_single_suite_runs_here(forks):
    assert run_suite("hahn", QContext(Fraction(1, 2)), Fraction(1), 8)
    assert forks == []


@pytest.mark.parametrize("name", list(SUITES))
def test_failing_check_keeps_its_place(capsys, monkeypatch, forks, name):
    monkeypatch.setitem(SUITES, name, lambda ctx, delta, D: [verify.Check("patched", False)])
    argv = ["verify", "all", "--q=1/3", "--delta=2", "--degree", "8"]
    assert main(argv) == 3
    out = capsys.readouterr().out
    assert forks and _no_child_left()
    assert _serially(main, argv) == 3
    assert capsys.readouterr().out == out
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
def test_first_raising_suite_propagates(capsys, monkeypatch, forks, first, later):
    # the first suite in order that raises gives the exception, wherever it
    # ran; the CLI reports it as one stderr line and exits 3
    monkeypatch.setitem(SUITES, first, _raising("no window in %s" % first))
    monkeypatch.setitem(SUITES, later, _raising("no window in %s" % later))
    ctx, delta = QContext(Fraction(1, 3)), Fraction(2)
    with pytest.raises(EmptyWindowError, match="^no window in %s$" % first):
        run_suite("all", ctx, delta, 8)
    assert forks and _no_child_left()
    with pytest.raises(EmptyWindowError, match="^no window in %s$" % first):
        _serially(run_suite, "all", ctx, delta, 8)
    argv = ["verify", "all", "--q=1/3", "--delta=2", "--degree", "8"]
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "error: no window in %s\n" % first)
    assert _no_child_left()
    assert _serially(main, argv) == 3
    assert capsys.readouterr() == ("", "error: no window in %s\n" % first)


def test_failed_prebuild_falls_back_to_the_serial_loop(monkeypatch, forks):
    # the shared maps are built before any fork; when that raises, the
    # suites run here, one after another, and the first of them builds the
    # shift map again and raises as the serial loop does
    calls = []

    def no_shift_map(delta):
        calls.append(delta)
        raise MapConstructionError("no shift map at %s" % delta)

    monkeypatch.setattr(verify, "phi_delta", no_shift_map)
    ctx, delta = QContext(Fraction(1, 2)), Fraction(1)
    with pytest.raises(MapConstructionError) as here:
        run_suite("all", ctx, delta, 8)
    assert forks == [] and _no_child_left()
    assert len(calls) == 2  # the prebuild, then the ccr suite
    with pytest.raises(MapConstructionError) as serial:
        _serially(run_suite, "all", ctx, delta, 8)
    assert str(here.value) == str(serial.value) == "no shift map at 1"


def test_workers_are_killed_when_the_parent_raises(monkeypatch, forks):
    # every suite raises in this process and blocks in a worker: the call
    # must kill the workers instead of waiting for them, and report the
    # first suite's exception
    parent = os.getpid()

    def blocking(key):
        def suite(ctx, delta, D):
            if os.getpid() != parent:
                time.sleep(60)
            raise EmptyWindowError("no window in %s" % key)

        return suite

    for key in list(SUITES):
        monkeypatch.setitem(SUITES, key, blocking(key))
    start = time.monotonic()
    with pytest.raises(EmptyWindowError, match="^no window in ccr$"):
        run_suite("all", QContext(Fraction(1, 2)), Fraction(1), 8)
    assert time.monotonic() - start < 30
    assert forks and _no_child_left()
