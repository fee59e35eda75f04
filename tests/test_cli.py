from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from polytrs import rewriting
from polytrs.cli import main
from polytrs.proofs import proof_from_json, proof_to_json, validate_proof
from polytrs.rewriting import Heights
from polytrs.terms import subterms
from tests.conftest import FULL_START, ROOT

MULT = str(ROOT / "problems" / "mult.trs")
EXP = str(ROOT / "problems" / "exp.trs")


class TestAnalyze:
    def test_mult_is_quadratic(self, capsys, tmp_path, mult_proof):
        dot_file = tmp_path / "dg.dot"
        code = main(["analyze", MULT, "--proof", "json", "--dot-dg", str(dot_file)])
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 2
        assert lines[0] == "WORST_CASE(?, O(n^2))"

        # one line of compact JSON with sorted keys, the library's certificate
        cert = proof_to_json(mult_proof)
        assert lines[1] == json.dumps(cert, sort_keys=True, separators=(",", ":"))
        proof = proof_from_json(json.loads(lines[1]))
        assert proof_to_json(proof) == cert
        assert validate_proof(proof).ok

        dot = dot_file.read_text()
        assert dot.startswith("digraph")
        assert '"4" -> "3"' in dot

    def test_all_start_terms_prove_linear_at_defaults(self, capsys, tmp_path):
        full = tmp_path / "full.trs"
        full.write_text(FULL_START)
        code = main(["analyze", str(full), "--proof", "json"])
        verdict, cert = capsys.readouterr().out.splitlines()
        assert (code, verdict) == (0, "WORST_CASE(?, O(n^1))")
        proof = proof_from_json(json.loads(cert))
        assert validate_proof(proof).ok
        assert (proof.processor, set(proof.params)) == ("complexity_pair", {"interpretation"})

    def test_no_strict_rules_is_constant(self, capsys, tmp_path):
        weak_only = tmp_path / "weak.trs"
        weak_only.write_text("(VAR x)\n(RULES\n  f(s(x)) ->= f(x)\n)\n")
        code = main(["analyze", str(weak_only), "--proof", "none"])
        assert (code, capsys.readouterr().out) == (0, "WORST_CASE(?, O(1))\n")

    def test_wide_symbol_is_not_deep_input(self, capsys, tmp_path):
        # c's unknown vector has 2 * 600 + 1 entries, more than the
        # recursion limit allows frames
        ys = [f"y{i}" for i in range(600)]
        wide = tmp_path / "wide.trs"
        wide.write_text(
            f"(VAR x {' '.join(ys)})\n(RULES\n  g(c({', '.join(ys)})) -> f(y0)\n"
            "  f(s(x)) -> f(x)\n  f(0) -> 0\n)\n(STRATEGY INNERMOST)\n"
        )
        code = main(["analyze", str(wide), "--proof", "none"])
        assert (code, capsys.readouterr().out) == (0, "WORST_CASE(?, O(n^1))\n")

    def test_exp_stays_open(self, capsys):
        code = main(["analyze", EXP])
        out = capsys.readouterr().out
        assert code == 1
        assert out.splitlines()[0] == "MAYBE"
        assert "[open" in out

    def test_timeout_gives_up_cleanly(self, capsys):
        code = main(["analyze", EXP, "--timeout", "0.0", "--proof", "none"])
        out = capsys.readouterr().out
        assert code == 1
        assert out == "MAYBE\n"

    def test_degree_max_caps_interpretations_not_the_bound(self, capsys):
        # linear interpretations, combined by DG decomposition, prove O(n^2)
        argv = ["analyze", MULT, "--degree-max", "1", "--coeff-max", "1"]
        code = main([*argv, "--proof", "none"])
        assert code == 0
        assert capsys.readouterr().out == "WORST_CASE(?, O(n^2))\n"

    def test_search_options_accept_their_limits(self, capsys):
        argv = ["analyze", EXP, "--degree-max", "3", "--coeff-max", "1"]
        code = main([*argv, "--timeout", "0", "--proof", "none"])
        assert code == 1
        assert capsys.readouterr().out == "MAYBE\n"


class TestOracle:
    def test_mult_table(self, capsys):
        code = main(["oracle", MULT, "--size", "5", "--budget", "60"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == [
            "n\tcc",
            "0\tExact(0)",
            "1\tExact(0)",
            "2\tExact(0)",
            "3\tExact(1)",
            "4\tExact(3)",
            "5\tExact(5)",
        ]

    def test_size_zero_is_one_row(self, capsys):
        code = main(["oracle", MULT, "--size", "0", "--budget", "1"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["n\tcc", "0\tExact(0)"]

    def test_exp_table_prefix(self, capsys):
        code = main(["oracle", EXP, "--size", "3", "--budget", "200"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[1:] == [
            "0\tExact(0)",
            "1\tExact(0)",
            "2\tExact(1)",
            "3\tExact(4)",
        ]


class TestClosedStdout:
    """A reader that has gone, as in `polytrs analyze FILE | head -1`, is no
    error: polytrs prints nothing on stderr and keeps its exit code."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["analyze", MULT, "--proof", "json"], 0),
            (["analyze", MULT, "--proof", "text"], 0),
            (["analyze", EXP, "--proof", "json"], 1),
            (["oracle", MULT, "--size", "5"], 0),
        ],
        ids=["json", "text", "maybe", "oracle"],
    )
    def test_reader_gone_before_the_first_write(self, argv, code):
        run = subprocess.Popen(
            [sys.executable, "-m", "polytrs.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        run.stdout.close()
        err = run.stderr.read()
        run.stderr.close()
        assert (run.wait(timeout=60), err) == (code, b"")


class TestDeepOracle:
    """Reached terms nested far deeper than the recursion limit are explored."""

    def run_at_low_limit(self, argv):
        script = (
            "import sys\n"
            "from polytrs.cli import main\n"
            "sys.setrecursionlimit(150)\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        return subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=60,
        )

    def test_growing_term(self, tmp_path):
        grow = tmp_path / "grow.trs"
        grow.write_text("(VAR x)\n(RULES\n  f(x) -> f(s(x))\n  g(0) -> 0\n)\n")
        # f(s(...s(0)...)) grows one level per step, to depth 300
        run = self.run_at_low_limit(["oracle", str(grow), "--size", "4", "--budget", "300"])
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == [
            "n\tcc",
            "0\tExact(0)",
            "1\tExact(0)",
            "2\tAtLeast(300)",
            "3\tAtLeast(300)",
            "4\tAtLeast(300)",
        ]

    def test_exp_closed_form(self):
        run = self.run_at_low_limit(["oracle", EXP, "--size", "11", "--budget", "600"])
        assert run.returncode == 0, run.stderr
        rows = [line.split("\t") for line in run.stdout.splitlines()[1:]]
        assert rows == [
            [str(n), f"Exact({2 ** (n - 2) + 2 * (n - 2) if n >= 2 else 0})"]
            for n in range(12)
        ]


class TestErrors:
    def test_missing_file(self, capsys):
        code = main(["analyze", "no/such/file.trs"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_deep_input_is_an_error(self, capsys, tmp_path):
        depth = 10_000
        deep = tmp_path / "deep.trs"
        deep.write_text(
            "(VAR x)\n(RULES\n  f(x) -> " + "s(" * depth + "x" + ")" * depth + "\n)\n"
        )
        code = main(["analyze", str(deep)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("command", ["analyze", "oracle"])
    def test_input_that_is_not_utf8_is_an_error(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.trs"
        bad.write_bytes(b"\xff\xfe(VAR x)\n(RULES f(x) -> x)\n")
        code = main([command, str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize(
        "option",
        [
            ["analyze", "--degree-max", "0"],
            ["analyze", "--coeff-max", "0"],
            ["analyze", "--timeout", "-1"],
            ["oracle", "--budget", "0"],
            ["oracle", "--budget", "-3"],
            ["oracle", "--size", "-1"],
        ],
    )
    def test_search_option_out_of_range(self, capsys, option):
        with pytest.raises(SystemExit) as stop:
            main([option[0], MULT, *option[1:]])
        captured = capsys.readouterr()
        assert stop.value.code == 2
        assert captured.out == ""
        assert f"argument {option[1]}:" in captured.err

    def test_oracle_depth_names_the_size(self, capsys, monkeypatch):
        # reached terms are walked iteratively, so only the input's depth can
        # overflow: the error is the input's, after the rows already printed
        real = Heights.__call__

        def overflow_at_size_2(self, start):
            if len(list(subterms(self.system.term(start)))) == 2:
                raise RecursionError("maximum recursion depth exceeded")
            return real(self, start)

        monkeypatch.setattr(Heights, "__call__", overflow_at_size_2)
        code = main(["oracle", EXP, "--size", "4", "--budget", "300"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.splitlines() == ["n\tcc", "0\tExact(0)", "1\tExact(0)"]
        assert captured.err == "error: input nested too deeply\n"

    def test_oracle_too_many_start_terms(self, capsys, tmp_path):
        # the start terms alone are more than the node cap
        plus_full = tmp_path / "plus_full.trs"
        plus_full.write_text(
            "(VAR x y)\n(RULES\n  plus(0, y) -> y\n"
            "  plus(s(x), y) -> s(plus(x, y))\n)\n(STARTTERM FULL)\n"
        )
        code = main(["oracle", str(plus_full), "--size", "16", "--budget", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "n\tcc\n"
        assert captured.err == (
            "error: more than 200000 terms up to size 16; try a smaller --size or --budget\n"
        )

    def test_oracle_too_many_terms_mid_table(self, capsys, monkeypatch):
        # exp's reducts outgrow a small node cap while size 7 is explored
        monkeypatch.setattr(rewriting, "_NODE_CAP", 93)
        code = main(["oracle", EXP, "--size", "8", "--budget", "100"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.splitlines() == ["n\tcc"] + [
            f"{n}\tExact({h})" for n, h in enumerate([0, 0, 1, 4, 8, 14, 24])
        ]
        assert captured.err == (
            "error: more than 93 terms up to size 8; try a smaller --size or --budget\n"
        )

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.trs"
        bad.write_text("(RULES f(x) -> )\n(VAR x)")
        code = main(["oracle", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: line")

    def test_second_strategy_word_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.trs"
        bad.write_text("(RULES f(a) -> b)(STRATEGY INNERMOST OUTERMOST)")
        code = main(["analyze", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: line 1, column 38: expected end of section, found 'OUTERMOST'\n"
        )
