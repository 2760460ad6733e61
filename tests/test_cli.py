import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qdeform.cli
from qdeform.cli import main
from qdeform.qnum import QContext


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestApply:
    def test_jackson_derivative(self, capsys):
        code, out, _ = run(capsys, "apply", "Dq", "poly(x^3)", "--q", "1/2")
        assert code == 0
        assert out == "7/4*x^2\n"

    def test_conjugate_on_constant(self, capsys):
        code, out, _ = run(capsys, "apply", "xq", "poly(1)", "--q", "1/2")
        assert (code, out) == (0, "x\n")

    def test_integral_on_constant(self, capsys):
        code, out, _ = run(capsys, "apply", "S", "poly(1)", "--q", "1/2")
        assert (code, out) == (0, "x\n")

    def test_bare_poly_argument(self, capsys):
        code, out, _ = run(capsys, "apply", "d", "x^2+1")
        assert (code, out) == (0, "2*x\n")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "apply", "d", "poly(x^2)", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"basis": "monomial", "coeffs": ["0", "2"]}

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "apply", "d", "poly(x^2)", "--format", "csv")
        assert (code, out) == (0, "0,2\n")


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, _, err = run(capsys, "apply", "x +", "poly(1)")
        assert code == 2
        assert "error" in err

    def test_missing_parameter_is_2(self, capsys):
        code, _, err = run(capsys, "apply", "Dq", "poly(x)")
        assert code == 2
        assert "requires the q parameter" in err

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "nonsense", "--q", "1/2")
        assert code == 2

    def test_math_failure_is_3(self, capsys):
        # degenerate Hahn spectrum: alpha=-4 collides lambda_1 = lambda_2
        code, _, err = run(
            capsys, "hahn", "continuous", "--alpha", "-4", "--beta", "0", "--N", "5"
        )
        assert code == 3
        assert "degenerate" in err

    def test_singular_is_3(self, capsys):
        code, _, err = run(capsys, "apply", "inv(qn(A))", "poly(1)", "--q", "1/2")
        assert code == 3

    def test_overflow_is_3(self, capsys):
        code, _, _ = run(capsys, "apply", "x", "poly(x^2)", "--degree", "2")
        assert code == 3


class TestPolyArgumentPositions:
    # the DSL reads a polynomial argument as given, bare or wrapped, so an
    # error position is a column of the argument itself
    @pytest.mark.parametrize(
        "arg, message",
        [
            ("x%", "1:2: unexpected character '%'"),
            ("poly(x%)", "1:7: unexpected character '%'"),
            ("  x%", "1:4: unexpected character '%'"),
            (" poly(x%)", "1:8: unexpected character '%'"),
            ("x)", "1:2: trailing input after poly literal"),
            ("poly(x))", "1:8: trailing input after poly literal"),
            (" x)", "1:3: trailing input after poly literal"),
            (" x*d", "1:2: poly literals admit only x and rationals"),
        ],
    )
    def test_error_column(self, capsys, arg, message):
        assert run(capsys, "apply", "x", arg) == (2, "", "error: %s\n" % message)

    @pytest.mark.parametrize("arg", ["x^2+1", "poly(x^2+1)", "  x^2+1 ", " poly(x^2+1)"])
    def test_bare_and_wrapped_forms_agree(self, capsys, arg):
        assert run(capsys, "apply", "x", arg) == (0, "x^3+x\n", "")


class TestOccupiedDegrees:
    """A diagonal is evaluated at the occupied degrees of its input only."""

    def test_undefined_below_the_input_is_never_read(self, capsys):
        # qb(A-3) is undefined at degrees 0..2, which x^5 does not occupy
        code, out, err = run(capsys, "apply", "qb(A-3)", "x^5", "--q=1/2", "--degree", "6")
        assert (code, out, err) == (0, "4/3*x^5\n", "")

    def test_undefined_at_an_occupied_degree_is_a_math_error(self, capsys):
        code, out, err = run(capsys, "realize", "qn(A-2)", "--q=1/2", "--degree", "3")
        assert (code, out) == (3, "")
        assert err == "error: qn(A-2) needs a nonnegative integer spectrum; got -2 at degree 0\n"


class TestVerify:
    @pytest.mark.parametrize(
        "suite", ["ccr", "qccr", "jackson", "rolle", "similarity", "qcc-delta"]
    )
    def test_suites_pass(self, capsys, suite):
        code, out, _ = run(capsys, "verify", suite, "--q", "1/2", "--degree", "12")
        assert code == 0
        assert "FAIL" not in out

    def test_composition_suite_reports_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "verify", "composition", "--q", "1/2", "--delta", "1", "--degree", "12"
        )
        assert code == 0
        assert "|2>_qd = (2/(1+q)) b^2 - delta b" in out

    def test_similarity_other_q(self, capsys):
        code, out, _ = run(capsys, "verify", "similarity", "--q", "1/3", "--degree", "10")
        assert code == 0
        assert "PASS" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "qccr", "--q", "1/2", "--format", "json", "--degree", "8"
        )
        assert code == 0
        rows = json.loads(out)
        assert all(r["ok"] for r in rows)
        assert rows[0]["q"] == "1/2"

    def test_requires_q(self, capsys):
        code, _, err = run(capsys, "verify", "ccr")
        assert code == 2


class TestBasisAndProject:
    def test_shift_basis(self, capsys):
        code, out, _ = run(capsys, "basis", "phi_delta", "3", "--delta", "1")
        assert code == 0
        assert out.splitlines() == [
            "|0> = 1",
            "|1> = x",
            "|2> = x^2-x",
            "|3> = x^3-3*x^2+2*x",
        ]

    def test_jackson_basis_csv(self, capsys):
        code, out, _ = run(
            capsys, "basis", "phi_q", "2", "--q", "1/2", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["0,1", "1,0 1", "2,0 0 4/3"]

    def test_project_q_exponential_prefix(self, capsys):
        code, out, _ = run(
            capsys, "project", "phi_q", "poly(1+x+1/2*x^2)", "--q", "1/2"
        )
        # 1 + x + [[2]]!/2 x^2 = 1 + x + (2/3) x^2
        assert (code, out) == (0, "2/3*x^2+x+1\n")

    def test_composed_map_project(self, capsys):
        code, out, _ = run(
            capsys, "project", "phi_q_delta", "poly(x^2)", "--q", "1/2", "--delta", "1"
        )
        assert (code, out) == (0, "4/3*x^2-x\n")


class TestRealize:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "realize", "d", "--degree", "2")
        assert (code, out) == (0, "x^0 -> 0\nx^1 -> 1\nx^2 -> 2*x\n")

    def test_csv_zero_column(self, capsys):
        # the zero image is written 0, as apply and basis write it
        code, out, _ = run(capsys, "realize", "d", "--degree", "2", "--format", "csv")
        assert (code, out) == (0, "0,0\n1,1\n2,0 2\n")

    def test_overflow_marking(self, capsys):
        code, out, _ = run(capsys, "realize", "x", "--degree", "2", "--format", "json")
        data = json.loads(out)
        assert data["D"] == 2
        assert data["columns"][2] is None
        assert data["band"] == [1, 1]


class TestHahnTables:
    def test_text_table(self, capsys):
        code, out, _ = run(
            capsys, "hahn", "continuous", "--alpha", "0", "--beta", "0", "--N", "5",
            "--kmax", "3",
        )
        assert code == 0
        assert "lambda=-6" in out
        assert all("residual=0" in line for line in out.splitlines())

    def test_shared_lambda_column(self, capsys):
        args = ["--alpha", "1", "--beta", "2", "--N", "10", "--kmax", "6",
                "--format", "json", "--degree", "12"]
        _, cont, _ = run(capsys, "hahn", "continuous", *args)
        _, qdef, _ = run(capsys, "hahn", "q_deformed", *args, "--q", "1/2")
        lam_c = [r["eigenvalue"] for r in json.loads(cont)]
        lam_q = [r["eigenvalue"] for r in json.loads(qdef)]
        assert lam_c == lam_q

    def test_q_spectrum_matches_closed_form(self, capsys):
        from qdeform.hahn import HahnParams, q_eigenvalue

        code, out, _ = run(
            capsys, "spectrum", "q_spectrum", "--alpha", "0", "--beta", "0",
            "--N", "5", "--q", "1/2", "--kmax", "5", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()[1:]
        ctx = QContext("1/2")
        params = HahnParams(0, 0, 5)
        for k, line in enumerate(lines):
            assert line == "%d,%s" % (k, q_eigenvalue(params, ctx, k))

    def test_csv_header(self, capsys):
        code, out, _ = run(
            capsys, "hahn", "three_point", "--alpha", "0", "--beta", "0", "--N", "5",
            "--kmax", "2", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "variant,k,eigenvalue,coefficients,residual"

    def test_missing_q_for_deformed_variant(self, capsys):
        code, _, err = run(
            capsys, "hahn", "q_deformed", "--alpha", "0", "--beta", "0", "--N", "5"
        )
        assert code == 2
        assert "--q" in err


class TestLargeIndices:
    """Valid commands whose q-tables reach past index 64."""

    def test_basis_past_64(self, capsys):
        code, out, _ = run(capsys, "basis", "phi_q", "70", "--q", "1/2", "--degree", "80")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 71
        assert lines[-1] == "|70> = %s*x^70" % QContext("1/2").dbracket_factorial(70)

    def test_project_past_64(self, capsys):
        code, out, _ = run(capsys, "project", "phi_q", "x^70", "--q", "1/2", "--degree", "80")
        assert (code, out) == (0, "%s*x^70\n" % QContext("1/2").dbracket_factorial(70))

    def test_spectrum_past_64(self, capsys):
        from qdeform.hahn import HahnParams, q_eigenvalue

        code, out, _ = run(
            capsys, "spectrum", "q_spectrum", "--alpha", "0", "--beta", "0",
            "--N", "5", "--q", "1/2", "--kmax", "100", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 102
        lam = q_eigenvalue(HahnParams(0, 0, 5), QContext("1/2"), 100)
        assert lines[-1] == "100,%s" % lam


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-string limit before 3.10.7"
)
class TestHugeExactValues:
    """Exact values whose numerators run past the interpreter's default
    int-string limit (4300 digits) are printed in full."""

    def _lifted(self):
        # expected strings are built only after main() has returned, so the
        # command itself runs under the caller's default limit
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        return limit

    def test_basis_past_the_digit_limit(self, capsys):
        before = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "basis", "phi_q", "150", "--q", "9/10", "--degree", "150")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == before  # restored for library callers
        limit = self._lifted()
        try:
            lines = out.splitlines()
            assert len(lines) == 151
            last = QContext("9/10").dbracket_factorial(150)
            assert len(str(last.numerator)) > 4300
            assert lines[-1] == "|150> = %s*x^150" % last
        finally:
            sys.set_int_max_str_digits(limit)

    def test_apply_past_the_digit_limit(self, capsys):
        code, out, err = run(capsys, "apply", "qn(3000*B)", "x", "--q", "9/10", "--degree", "2")
        assert (code, err) == (0, "")
        limit = self._lifted()
        try:
            assert out == "%s*x\n" % QContext("9/10").qnumber(6000)
        finally:
            sys.set_int_max_str_digits(limit)


    def test_overlapping_commands_share_the_lift(self, monkeypatch):
        # command b starts while a runs and ends after it: b must still run
        # without the limit when a returns, and the caller's own limit must
        # be back once both have returned
        import threading

        import qdeform.cli

        a_started, b_started, a_returned = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def command(argv):
            if argv == ["a"]:
                a_started.set()
                b_started.wait(30)
            else:
                b_started.set()
                a_returned.wait(30)
            seen[argv[0]] = sys.get_int_max_str_digits()
            return 0

        def run_a():
            main(["a"])
            a_returned.set()

        monkeypatch.setattr(qdeform.cli, "_run", command)
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            a = threading.Thread(target=run_a)
            a.start()
            a_started.wait(30)
            b = threading.Thread(target=main, args=(["b"],))
            b.start()
            a.join(30)
            b.join(30)
            after = sys.get_int_max_str_digits()
        finally:
            sys.set_int_max_str_digits(before)
        assert not a.is_alive() and not b.is_alive()
        assert seen == {"a": 0, "b": 0}
        assert after == 5000


class TestVerifyMinimumDegree:
    def test_minimum_degree_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--q", "1/2", "--degree", "8")
        assert code == 0
        assert out.splitlines()[-1].endswith("identities hold")
        assert "FAIL" not in out

    @pytest.mark.parametrize("suite,least", [("all", 8), ("composition", 8), ("jackson", 2)])
    def test_below_minimum_is_usage_error(self, capsys, suite, least):
        code, out, err = run(capsys, "verify", suite, "--q", "1/2", "--degree", str(least - 1))
        assert code == 2
        assert out == ""
        assert err == "error: suite %r needs degree D >= %d, got %d\n" % (suite, least, least - 1)


HAHN_ARGS = ["continuous", "--alpha=1/2", "--beta=1/3", "--N=5"]


class TestNegativeCounts:
    """A negative --degree, --kmax or count is a usage error on every command."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["apply", "x", "1", "--degree", "-1"], "--degree"),
            (["realize", "x", "--degree", "-1"], "--degree"),
            (["verify", "ccr", "--q=1/2", "--degree", "-1"], "--degree"),
            (["basis", "phi_q", "3", "--q=1/2", "--degree", "-1"], "--degree"),
            (["basis", "phi_q", "-1", "--q=1/2"], "count"),
            (["project", "phi_q", "x", "--q=1/2", "--degree", "-1"], "--degree"),
            (["hahn", *HAHN_ARGS, "--kmax", "-1"], "--kmax"),
            (["hahn", *HAHN_ARGS, "--degree", "-1"], "--degree"),
            (["spectrum", *HAHN_ARGS, "--kmax", "-1"], "--kmax"),
            (["spectrum", *HAHN_ARGS, "--degree", "-1"], "--degree"),
        ],
        ids=lambda v: "-".join(v) if isinstance(v, list) else v,
    )
    def test_usage_error(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: %s must be nonnegative, got -1\n" % flag


class TestRationalFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "qccr", "--q", "1/0"),
            ("basis", "phi_delta", "3", "--delta", "1/0"),
            ("spectrum", "continuous", "--alpha", "1/0", "--beta", "0", "--N", "5"),
        ],
    )
    def test_zero_denominator_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "qccr", "--degree", "6"),
            ("apply", "Dq", "x^3"),
            ("spectrum", "q_spectrum", "--alpha", "0", "--beta", "0", "--N", "5"),
        ],
    )
    def test_negative_rational_value(self, capsys, argv):
        joined = run(capsys, *argv, "--q=-1/2")
        spaced = run(capsys, *argv, "--q", "-1/2")
        assert joined[0] == 0
        assert spaced == joined

    def test_negative_rational_for_every_hahn_flag(self, capsys):
        argv = ["spectrum", "continuous", "--N", "5", "--kmax", "2"]
        flags = [("--alpha", "-1/2"), ("--beta", "-1/3"), ("--delta", "-1/2"), ("--c1", "-1/2")]
        spaced = run(capsys, *argv, *[x for f in flags for x in f])
        joined = run(capsys, *argv, *["%s=%s" % f for f in flags])
        assert joined[0] == 0
        assert spaced == joined


class TestSpectrumGate:
    def test_mismatched_diagonal_exits_3(self, capsys, monkeypatch):
        import qdeform.hahn

        monkeypatch.setattr(qdeform.hahn, "eigenvalue", lambda params, k: Fraction(k))
        code, out, err = run(
            capsys, "hahn", "continuous", "--alpha", "0", "--beta", "0", "--N", "5", "--kmax", "2"
        )
        assert (code, out) == (3, "")
        assert "closed form" in err


class TestRangeWarning:
    """q outside (-1, 1): one stderr line per command, from one context."""

    LINE = (
        "warning: q = 3/2 lies outside -1 < q < 1; identities remain exact but "
        "the Jackson-integral series has no convergent reading\n"
    )

    def test_one_line_per_command_in_process(self, capsys):
        for _ in range(2):
            code, out, err = run(capsys, "apply", "Dq", "x^2", "--q", "3/2")
            assert (code, out, err) == (0, "5/2*x\n", self.LINE)

    @pytest.mark.parametrize(
        "argv",
        [
            ["basis", "phi_delta_q", "2", "--q=3/2", "--delta=1"],
            ["verify", "all", "--q=3/2", "--degree", "8"],
            ["hahn", "q_spectrum", "--alpha=0", "--beta=0", "--N=5", "--q=3/2", "--kmax", "2"],
        ],
        ids=["basis", "verify", "hahn"],
    )
    def test_every_command_kind(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, self.LINE)

    def test_context_built_once(self, capsys, monkeypatch):
        import qdeform.cli

        built = []
        monkeypatch.setattr(qdeform.cli, "QContext", lambda q: built.append(q) or QContext(q))
        code, out, _ = run(capsys, "apply", "Dq*xq", "x", "--q", "1/2")
        assert (code, out) == (0, "2*x\n")
        assert built == [Fraction(1, 2)]

    def test_library_keeps_its_warning(self, capsys):
        run(capsys, "apply", "Dq", "x^2", "--q", "3/2")
        with pytest.warns(UserWarning, match="q = 3/2 lies outside"):
            QContext(Fraction(3, 2))

    def test_unused_q_is_not_built(self, capsys):
        code, _, err = run(capsys, "basis", "phi_delta", "2", "--delta=1", "--q=3/2")
        assert (code, err) == (0, "")


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        argv = ["verify", "ccr", "--q", "1/2", "--degree", "10"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert (code1, out1) == (code2, out2)

    def test_module_entry_point(self):
        repo = Path(__file__).resolve().parents[1]
        cmd = [sys.executable, "-m", "qdeform.cli", "apply", "Dq", "poly(x^3)", "--q", "1/2"]
        env_path = str(repo / "src")
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert proc.stdout == "7/4*x^2\n"


class TestParserReuse:
    def test_parser_built_once_per_process(self, capsys, monkeypatch):
        # a usage error must leave nothing behind for the next command, and
        # both must print exactly what a fresh process prints
        import qdeform.cli

        repo = Path(__file__).resolve().parents[1]
        env = {"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin", "COLUMNS": "80"}
        monkeypatch.setenv("COLUMNS", "80")
        builds = []

        class Counting(qdeform.cli._ArgumentParser):
            def __init__(self, *args, **kwargs):
                if kwargs.get("prog") == "qdeform":
                    builds.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(qdeform.cli, "_ArgumentParser", Counting)
        qdeform.cli.build_parser.cache_clear()
        try:
            commands = (["apply", "Dq"], ["apply", "Dq", "x^3", "--q", "1/2"])
            got = [run(capsys, *argv) for argv in commands]
        finally:
            qdeform.cli.build_parser.cache_clear()
        assert len(builds) == 1
        assert [code for code, _, _ in got] == [2, 0]
        for argv, result in zip(commands, got):
            proc = subprocess.run(
                [sys.executable, "-m", "qdeform.cli", *argv],
                capture_output=True, text=True, env=env,
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == result


class TestReadmeGoldens:
    """Every CLI example in the README runs verbatim with the shown output."""

    @staticmethod
    def _examples():
        import re
        import shlex

        text = Path(__file__).resolve().parents[1].joinpath("README.md").read_text()
        blocks = re.findall(r"```\n(.*?)```", text, flags=re.S)
        examples = []
        for block in blocks:
            lines = block.splitlines()
            i = 0
            while i < len(lines):
                if lines[i].startswith("$ qdeform "):
                    argv = shlex.split(lines[i][2:])[1:]
                    i += 1
                    expect = []
                    while i < len(lines) and lines[i] and not lines[i].startswith("$"):
                        expect.append(lines[i])
                        i += 1
                    examples.append((argv, "\n".join(expect) + "\n"))
                else:
                    i += 1
        return examples

    def test_examples_exist(self):
        assert len(self._examples()) >= 8

    def test_examples_match(self, capsys):
        for argv, expect in self._examples():
            code = main(argv)
            out = capsys.readouterr().out
            assert code == 0, argv
            assert out == expect, argv


class TestHelp:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_defaults_documented(self, capsys):
        main(["apply", "--help"])
        out = capsys.readouterr().out
        assert "default 16" in out
        assert "default text" in out


class TestMapChoices:
    """`basis` and `project` take their map kinds from one table, in the
    order the CLI always listed them."""

    @pytest.mark.parametrize("command, arg", [("basis", "3"), ("project", "x")])
    def test_invalid_map_lists_choices_in_order(self, capsys, command, arg):
        code, out, err = run(capsys, command, "nope", arg)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            "qdeform %s: error: argument map: invalid choice: 'nope' (choose from "
            "'identity', 'phi_q', 'phi_delta', 'phi_q_prime', 'phi_q_delta', 'phi_delta_q')"
            % command
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("basis", "identity", "3", "--delta", "1/0"),
            ("project", "identity", "x", "--q", "1/0"),
            ("basis", "phi_delta", "3", "--q", "1/0", "--delta", "1"),
        ],
    )
    def test_unused_parameter_is_still_parsed(self, capsys, argv):
        assert run(capsys, *argv) == (2, "", "error: zero denominator in '1/0'\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("basis", "phi_q", "3"), "phi_q requires q"),
            (("project", "phi_delta_q", "x", "--q", "1/2"), "phi_delta_q requires q and delta"),
        ],
    )
    def test_missing_parameter(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", "error: %s\n" % message)


_RENDERERS = {"text": "to_text", "json": "to_json", "csv": "_csv"}


def _renders_of_result(capsys, monkeypatch, argv, producer, fmt):
    """Run argv with the given format; the renderers (Poly.to_text,
    Poly.to_json, cli._csv) called on the one result of producer, in order."""
    from qdeform.poly import Poly

    results, renders = [], []
    make = getattr(qdeform.cli, producer)
    monkeypatch.setattr(
        qdeform.cli, producer, lambda *a, **k: results.append(make(*a, **k)) or results[-1]
    )
    for owner, name in ((Poly, "to_text"), (Poly, "to_json"), (qdeform.cli, "_csv")):
        real = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda p, *a, _real=real, _name=name: renders.append((_name, p)) or _real(p, *a)
        )
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0 and out
    assert len(results) == 1
    return [name for name, p in renders if p is results[0]]


_RENDER_CASES = [
    pytest.param(("apply", "exp(1/2*Dq)", "x^5", "--q", "9/10"), "apply", id="apply"),
    pytest.param(
        ("project", "phi_q_delta", "x^3", "--q", "1/2", "--delta", "1"),
        "b_projection",
        id="project",
    ),
]


class TestRenderOnce:
    """apply and project render their result once, in the requested format only."""

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("argv, producer", _RENDER_CASES)
    def test_result_coefficients_read_once(self, capsys, monkeypatch, argv, producer, fmt):
        renders = _renders_of_result(capsys, monkeypatch, argv, producer, fmt)
        assert renders == [_RENDERERS[fmt]]

    @pytest.mark.parametrize("extra", ["text", "json", "csv"])
    @pytest.mark.parametrize("argv, producer", _RENDER_CASES)
    def test_probe_sees_a_second_or_unrequested_rendering(
        self, capsys, monkeypatch, argv, producer, extra
    ):
        # negative control: an emitter that also renders the result in some
        # format (the requested one again, or another) fails the check above
        emit = qdeform.cli._emit_poly

        def emit_and_render(p, fmt):
            {"text": lambda: p.to_text(), "json": p.to_json, "csv": lambda: qdeform.cli._csv(p)}[extra]()
            emit(p, fmt)

        monkeypatch.setattr(qdeform.cli, "_emit_poly", emit_and_render)
        renders = _renders_of_result(capsys, monkeypatch, argv, producer, "text")
        assert renders != [_RENDERERS["text"]]
        assert sorted(renders) == sorted([_RENDERERS["text"], _RENDERERS[extra]])


class TestRenderCost:
    """Rendering builds a Fraction only for a nonzero coefficient."""

    RENDERS = {
        "text": lambda p: p.to_text(),
        "json": lambda p: p.to_json(),
        "csv": lambda p: qdeform.cli._csv(p, ","),
    }

    @staticmethod
    def _built(monkeypatch, render, p):
        import qdeform.poly

        built, real = [], Fraction
        monkeypatch.setattr(qdeform.poly, "Fraction", lambda *a: built.append(a) or real(*a))
        return built, render(p)

    @pytest.mark.parametrize("fmt", sorted(RENDERS))
    def test_sparse_polynomial_builds_one_fraction(self, monkeypatch, fmt):
        from qdeform.poly import Poly

        p = Poly.monomial(200, Fraction(3, 2))
        built, out = self._built(monkeypatch, self.RENDERS[fmt], p)
        assert len(built) == 1
        expected = {
            "text": "3/2*x^200",
            "json": {"basis": "monomial", "coeffs": ["0"] * 200 + ["3/2"]},
            "csv": ",".join(["0"] * 200 + ["3/2"]),
        }
        assert out == expected[fmt]

    def test_counter_sees_a_fraction_per_coefficient(self, monkeypatch):
        # negative control: the Fraction view of all 201 coefficients is counted
        from qdeform.poly import Poly

        p = Poly.monomial(200, Fraction(3, 2))
        built, out = self._built(monkeypatch, lambda p: [str(c) for c in p.coeffs], p)
        assert len(built) == 201
        assert out == ["0"] * 200 + ["3/2"]
