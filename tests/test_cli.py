import ast
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import multidisc
from multidisc import (
    RootSpec,
    UniPoly,
    classify_trace,
    conditions,
    disc_symbolic,
    disc_value,
    expand,
    iter_partitions,
)
from multidisc.cli import main, run_selftest
from multidisc.engine import DiscValue

from cli_reuse import check_reuse, invocations, run as run_main
from conftest import (CLASSIFY, CLI, coeff, derivative, encoder_record, json_steps, mul_power,
                      random_int_poly, row_layout, spy)
from test_cli_digests import invocations as digest_invocations


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    # without PYTHONUNBUFFERED the child block-buffers a piped stdout, as it
    # does for a user, so a missing flush shows
    env = dict(os.environ, PYTHONPATH=str(Path(multidisc.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


@contextmanager
def cli_child(*argv):
    """``python -m multidisc.cli *argv`` with piped output, killed on exit."""
    with subprocess.Popen(
        [sys.executable, "-m", "multidisc.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    ) as proc:
        try:
            yield proc
        finally:
            proc.kill()


def read_lines(stream, count, seconds=10):
    """The first ``count`` lines of a pipe, or a failure after ``seconds``."""
    fd, data = stream.fileno(), b""
    deadline = time.monotonic() + seconds
    while data.count(b"\n") < count:
        ready, _, _ = select.select([fd], [], [], max(0, deadline - time.monotonic()))
        assert ready, f"{count} lines did not come within {seconds} s: {data!r}"
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        data += chunk
    return data.decode().splitlines()[:count]


class TestClassify:
    def test_reference_quintic(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--coeffs", "1,-5,7,1,-8,4")
        assert code == 0
        assert out.strip() == "2,2,1"

    def test_linear(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--coeffs", "1,0")
        assert code == 0
        assert out.strip() == "1"

    def test_trace_output(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--coeffs", "1,-5,7,1,-8,4", "--trace")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "D(5) = 0"
        assert lines[1] == "D(4,1) = 0"
        assert lines[2].startswith("D(3,2) = ") and "nonzero" in lines[2]
        assert lines[3] == "2,2,1"

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--coeffs", "1,-5,7,1,-8,4", "--json")
        assert code == 0
        data = encoder_record(out.strip())
        assert (data["input"], data["n"], data["multiplicity"]) == ("1,-5,7,1,-8,4", 5, [2, 2, 1])
        zero = [{"gamma": gamma, "nonzero": False, "value": "0"} for gamma in ([5], [4, 1])]
        assert data["steps"][:2] == zero and len(data["steps"]) == 3
        assert data["steps"][-1]["nonzero"] is True

    def test_json_steps_are_the_trace_steps(self, capsys):
        polys = [
            UniPoly.from_descending([1, -5, 7, 1, -8, 4]),
            expand(RootSpec(((Fraction(-1, 2), 3), (2, 3), (0, 2)), Fraction(5, 3))),
            expand(RootSpec(((1, 9),), 1)),
            UniPoly.from_descending([1, 0, 0, 0, 1, 1]),
        ]
        for poly in polys:
            text = ",".join(map(str, poly.descending_coeffs()))
            code, out, err = run_cli(capsys, "classify", "--coeffs", text, "--json")
            assert (code, err) == (0, "")
            assert json.loads(out)["steps"] == json_steps(classify_trace(poly))

    def test_json_round_trip_is_byte_identical(self, capsys):
        _, out, _ = run_cli(capsys, "classify", "--coeffs", "3/2,0,-5/7,1", "--json")
        encoder_record(out.strip())

    def test_rational_coefficients(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--coeffs", "1/2,-5/2,7/2,1/2,-4,2")
        assert code == 0
        assert out.strip() == "2,2,1"

    def test_batch_file_with_a_byte_order_mark(self, capsys, tmp_path):
        # editors on Windows save UTF-8 with a leading U+FEFF; it is not part of line 1
        batch = tmp_path / "polys.txt"
        batch.write_bytes(b"\xef\xbb\xbf1,2,1\n1,0\n")
        assert run_cli(capsys, "classify", "--file", str(batch)) == (0, "2\n1\n", "")

    def test_batch_file_keeps_going_past_a_bad_line(self, capsys, tmp_path):
        batch = tmp_path / "polys.txt"
        batch.write_text("1,2,1\nfoo\n0,9\n1,1e100\n1,0,-1\n", encoding="utf-8")
        errors = {
            2: "need at least two coefficients (degree >= 1)",
            3: "leading coefficient is zero",
            4: "malformed rational '1e100'",
        }
        err = "".join(f"error: line {line}: {message}\n" for line, message in errors.items())
        assert run_cli(capsys, "classify", "--file", str(batch)) == (2, "2\n1,1\n", err)
        code, out, json_err = run_cli(capsys, "classify", "--file", str(batch), "--json")
        assert (code, json_err) == (2, err)
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[1:4] == [{"error": message, "line": line} for line, message in errors.items()]
        assert (rows[0]["multiplicity"], rows[4]["multiplicity"]) == ([2], [1, 1])

    @pytest.mark.parametrize("mode", [(), ("--trace",), ("--json",)])
    def test_batch_output_is_the_per_line_output(self, capsys, tmp_path, mode):
        lines = ["1,-5,7,1,-8,4", "1,2,1", "1,0,-1", "3/2,0,-5/7,1"]
        batch = tmp_path / "polys.txt"
        # a blank line is skipped
        batch.write_text(lines[0] + "\n\n" + "\n".join(lines[1:]) + "\n", encoding="utf-8")
        expected = ""
        for line in lines:
            code, out, err = run_cli(capsys, "classify", "--coeffs", line, *mode)
            assert (code, err) == (0, "")
            expected += out
        assert run_cli(capsys, "classify", "--file", str(batch), *mode) == (0, expected, "")

    def test_batch_output_to_closed_pipe_exits_quietly(self, tmp_path):
        batch = tmp_path / "polys.txt"
        batch.write_text("1,-5,7,1,-8,4\n" * 50, encoding="utf-8")
        with cli_child("classify", "--file", str(batch)) as proc:
            proc.stdout.close()  # the reader is gone before the first line is written
            _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b"")

    def test_closed_pipe_leaves_no_open_descriptor(self, monkeypatch):
        # in-process, as a caller that keeps running after main returns
        opened = []

        def recording_open(*args, **kwargs):
            fd = real_open(*args, **kwargs)
            opened.append(fd)
            return fd

        real_open = os.open
        monkeypatch.setattr(CLI.os, "open", recording_open)
        read_end, write_end = os.pipe()
        os.close(read_end)
        with os.fdopen(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["classify", "--coeffs", "1,-5,7,1,-8,4"]) == 141
            monkeypatch.undo()
        assert len(opened) == 1
        with pytest.raises(OSError):
            os.fstat(opened[0])

    def test_engine_arithmetic_error_is_one_line(self, capsys, monkeypatch):
        def broken(poly):
            raise ArithmeticError("non-exact integer division in fraction-free elimination")

        monkeypatch.setattr("multidisc.cli.classify_trace", broken)
        code, out, err = run_cli(capsys, "classify", "--coeffs", "1,0")
        assert code == 3
        assert out == ""
        assert err == (
            "error: internal arithmetic error: "
            "non-exact integer division in fraction-free elimination\n"
        )

    @pytest.mark.parametrize(
        "coeffs, fault, message",
        [
            # (x - 1)^2 (x + 1) (x - 2)^2, delta = (3, 2): the leaf forced to 0,
            # then an enumeration that never reaches delta, which only the
            # step output walks
            ("1,-5,7,1,-8,4", "disc_value", "no discriminant with gamma up to delta = (3, 2) is nonzero"),
            ("1,-5,7,1,-8,4", "iter_partitions", "the partitions of 5 never reach delta = (3, 2)"),
            # a wrong G_1 = x^3 + 1 gives the levels 5 - 3 = 2, then 3 - 0 = 3
            ("1,-5,7,1,-8,4", "disc_resultant", "the gcd chain gives delta = (2, 3), not a partition of 5"),
        ],
    )
    def test_walk_fault_is_one_line(self, capsys, monkeypatch, coeffs, fault, message):
        faults = {
            "disc_value": lambda poly, gamma: DiscValue(Fraction(0), gamma),
            "iter_partitions": lambda n: iter([(n,)]),
            "disc_resultant": lambda poly: ((), Fraction(1), (1, 0, 0, 1), 0),
        }
        outputs = {"iter_partitions": [["--json"], ["--trace"]]}.get(fault, [[]])
        monkeypatch.setattr(CLASSIFY, fault, faults[fault])
        for flags in outputs:
            code, out, err = run_cli(capsys, "classify", *flags, "--coeffs", coeffs)
            assert (code, out) == (3, ""), flags
            assert err == f"error: internal arithmetic error: {message}; engine bug\n"

    def test_plain_classify_never_walks_the_partitions(self, capsys, monkeypatch):
        # (x - 1)^60 breaks the chain at the last of p(60) = 966467 partitions
        def walked(n):
            raise AssertionError("classify walked the partitions")

        monkeypatch.setattr(CLASSIFY, "iter_partitions", walked)
        coeffs = ",".join(str(c) for c in expand(RootSpec(((1, 60),), 1)).descending_coeffs())
        assert run_cli(capsys, "classify", "--coeffs", coeffs) == (0, "60\n", "")

    def test_usage_shows_json_and_trace_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify"])
        usage = " ".join(capsys.readouterr().err.split())
        assert exc.value.code == 2
        assert usage.startswith(
            "usage: multidisc classify [-h] [--json | --trace] (--coeffs COEFFS | --file FILE)"
        )

    def test_missing_file(self, capsys, tmp_path):
        # a file that cannot be decoded is named in one error line, as one
        # that cannot be opened is in REJECTED
        undecodable = tmp_path / "polys.txt"
        undecodable.write_bytes(b"1,2,1\n\xff\n")
        code, out, err = run_cli(capsys, "classify", "--file", str(undecodable))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {undecodable}: ") and err.count("\n") == 1

    def test_negative_leading_coefficient_in_either_form(self, capsys):
        # argparse reads a separate "-3/7,1/7" as an option; main joins it to
        # its flag, so both forms give the same (code, stdout, stderr)
        value = ("discriminant", "--n", "2", "--gamma", "1,1", "--format", "value")
        expected = disc_value(UniPoly.from_descending([-1, 0, 4]), (1, 1)).value
        for argv, coeffs, out in ((("classify",), "-3/7,1/7", "1\n"), (value, "-1,0,4", f"{expected}\n")):
            separate = run_cli(capsys, *argv, "--coeffs", coeffs)
            assert separate == run_cli(capsys, *argv, f"--coeffs={coeffs}") == (0, out, ""), argv


def _wide_inputs() -> list[list]:
    # squarefree of degree 30: D_(30) has more digits than the interpreter's
    # default bound on int-to-str conversion.  Every rational coefficient is
    # within the bound; the rational input has a negative first coefficient,
    # and its D_(30) is negative with a numerator past the bound
    rng = random.Random(5)
    ints = [rng.randint(10**79, 10**80) for _ in range(31)]
    rng = random.Random(6)
    return [ints, [Fraction(rng.randint(-(10**80), 10**80), rng.randint(1, 99)) for _ in range(31)]]


class TestLongNumbers:
    @pytest.mark.parametrize("mode", ["--json", "--trace", "value"])
    def test_results_of_any_size_print(self, capsys, mode):
        if mode == "value":
            argv = ["discriminant", "--n", "30", "--gamma", "30", "--format", "value"]
        else:
            argv = ["classify", mode]
        limit = sys.get_int_max_str_digits()
        for coeffs in _wide_inputs():
            text = ",".join(map(str, coeffs))
            code, out, err = run_cli(capsys, *argv, f"--coeffs={text}")
            assert (code, err) == (0, "")
            assert sys.get_int_max_str_digits() == limit
            sys.set_int_max_str_digits(0)
            try:
                exact = classify_trace(UniPoly.from_descending(coeffs)).value
                value = str(exact)
            finally:
                sys.set_int_max_str_digits(limit)
            assert abs(exact.numerator) >= 10**sys.int_info.default_max_str_digits
            if mode == "--json":
                data = json.loads(out)
                assert data["steps"] == [{"gamma": [30], "nonzero": True, "value": value}]
                assert data["input"] == text
            elif mode == "--trace":
                assert out == f"D(30) = {value} (nonzero)\n{','.join(['1'] * 30)}\n"
            else:
                assert out == value + "\n"

    def test_a_coefficient_over_the_digit_limit_is_rejected(self, capsys, tmp_path):
        # parsing is quadratic in the length, so the bound stays on input
        assert run_cli(capsys, "classify", "--coeffs", "1," + "7" * 4300) == (0, "1\n", "")
        message = "coefficient 2 has 4301 digits; the limit is 4300"
        limit = sys.get_int_max_str_digits()
        # the bound is the interpreter's default, whatever the current one is
        sys.set_int_max_str_digits(0)
        try:
            code, out, err = run_cli(capsys, "classify", "--coeffs", "1,-" + "7" * 4301)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        batch = tmp_path / "polys.txt"
        batch.write_text("1," + "7" * 4301 + "\n1,0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "classify", "--file", str(batch))
        assert (code, out, err) == (2, "1\n", f"error: line 1: {message}\n")


class TestDiscriminant:
    def test_poly_format_all_ones(self, capsys):
        code, out, _ = run_cli(
            capsys, "discriminant", "--n", "5", "--gamma", "1,1,1,1,1", "--format", "poly"
        )
        assert code == 0
        assert out == "86400000*a5^4\n"

    def test_poly_format_prints_the_library_text(self, capsys):
        # the whole stdout is str of disc_symbolic and one newline, the bytes
        # whose sha256 symbolic_invariants.py pins for D_(9) and D_(10)
        for n in range(1, 7):
            for gamma in iter_partitions(n):
                text = ",".join(map(str, gamma))
                argv = ["discriminant", "--n", str(n), "--gamma", text, "--format", "poly"]
                expected = str(disc_symbolic(n, gamma).value) + "\n"
                assert run_cli(capsys, *argv) == (0, expected, ""), gamma

    def test_matrix_format_symbolic(self, capsys):
        matrix = ("discriminant", "--n", "5", "--format", "matrix")
        code, out, _ = run_cli(capsys, *matrix, "--gamma", "3,2")
        assert code == 0
        data = encoder_record(out.strip())
        assert (data["n"], data["size"], data["gamma0"], data["symbolic"]) == (5, 7, 2, True)
        assert data["row_provenance"] == [[0, 1], [0, 0], [1, 2], [1, 1], [1, 0], [2, 1], [2, 0]]
        assert data["blocks"] == [
            {"derivative": 0, "rows": [0, 1]},
            {"derivative": 1, "rows": [2, 3, 4]},
            {"derivative": 2, "rows": [5, 6]},
        ]
        # gamma = (1,1,1,1,1) has no row of F, and its order-0 block is listed empty
        code, out, _ = run_cli(capsys, *matrix, "--gamma", "1,1,1,1,1")
        data = encoder_record(out.strip())
        assert (code, data["size"], data["gamma0"]) == (0, 5, 0)
        assert data["row_provenance"] == [[1, 0], [2, 0], [3, 0], [4, 0], [5, 0]]
        assert data["blocks"][0] == {"derivative": 0, "rows": []}
        # an entry lists its [coefficient, exponents] terms: 5 a5, and none
        # for the structural zero below the staircase
        assert data["entries"][0][0] == [["5", [0, 0, 0, 0, 0, 1]]]
        assert data["entries"][1][0] == []

    def test_matrix_format_rows_are_the_shifted_derivatives(self, capsys):
        # row_provenance names the (order, shift) of each row, whose entries
        # are the coefficients of F^(order) * x^shift
        rng = random.Random(99)
        for n in range(1, 11):
            integer = random_int_poly(rng, n)
            rational = UniPoly(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
                + [Fraction(rng.choice([-7, 5, 11]), rng.choice([2, 3, 4]))]
            )
            for poly in (integer, rational):
                text = ",".join(map(str, poly.descending_coeffs()))
                for gamma in iter_partitions(n):
                    code, out, _ = run_cli(
                        capsys, "discriminant", "--n", str(n), "--gamma",
                        ",".join(map(str, gamma)), "--format", "matrix", f"--coeffs={text}",
                    )
                    assert code == 0
                    data = json.loads(out)
                    size = n + gamma[0] - 1
                    assert (data["n"], data["size"], data["symbolic"]) == (n, size, False)
                    assert len(data["entries"]) == size
                    assert data["row_provenance"] == [list(p) for p in row_layout(gamma)]
                    for row, (order, shift) in zip(data["entries"], data["row_provenance"]):
                        p = mul_power(derivative(poly, order), shift)
                        assert row == [str(coeff(p, size - 1 - j)) for j in range(size)]

    def test_matrix_format_concrete(self, capsys):
        argv = ["discriminant", "--n", "5", "--gamma", "3,2", "--format", "matrix"]
        code, out, _ = run_cli(capsys, *argv, "--coeffs", "1,-5,7,1,-8,4")
        assert code == 0
        data = json.loads(out)
        assert (data["gamma"], data["size"], data["symbolic"]) == ([3, 2], 7, False)
        assert data["blocks"] == [
            {"derivative": 0, "rows": [0, 1]},
            {"derivative": 1, "rows": [2, 3, 4]},
            {"derivative": 2, "rows": [5, 6]},
        ]
        # first row is F * x^1 right-aligned to width 7
        assert data["entries"][0] == ["1", "-5", "7", "1", "-8", "4", "0"]

    def test_latex_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "discriminant", "--n", "5", "--gamma", "3,2", "--format", "latex"
        )
        assert code == 0
        assert out.startswith(r"\left|\begin{array}{ccccccc}" + "\n")
        assert out.endswith("\n" + r"\end{array}\right|" + "\n")
        assert out.count(r"\hline") == 2  # three blocks, two separators
        lines = out.splitlines()[1:-1]
        assert len(lines) == 7
        # zeros render as blank cells, preserving the staircase look
        assert lines[1].startswith(" & ")
        assert "20a_{5}" in lines[5]

    def test_latex_concrete_fractions(self, capsys):
        # the matrix of degree 1 is the one cell a_1
        for coeffs, cell in (("1,1/2", "1"), ("1/2,-3/2", r"\frac{1}{2}")):
            tex = "\\left|\\begin{array}{c}\n" + cell + "\n\\end{array}\\right|\n"
            argv = ["discriminant", "--n", "1", "--gamma", "1", "--format", "latex", "--coeffs", coeffs]
            assert run_cli(capsys, *argv) == (0, tex, ""), coeffs

    def test_value_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "discriminant",
            "--n",
            "5",
            "--gamma",
            "3,2",
            "--format",
            "value",
            "--coeffs",
            "1,-5,7,1,-8,4",
        )
        assert code == 0
        expected = disc_value(UniPoly.from_descending([1, -5, 7, 1, -8, 4]), (3, 2)).value
        assert out.strip() == str(expected)
        assert expected != 0

    def test_cap_override(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "discriminant",
            "--n",
            "7",
            "--gamma",
            "1,1,1,1,1,1,1",
            "--format",
            "poly",
            "--cap",
            "7",
        )
        assert code == 0
        assert out.endswith("*a7^6\n")
        assert out == str(disc_symbolic(7, (1,) * 7).value) + "\n"
        # (8,1) of n = 9, the deepest request among the CLI digests
        argv = ["discriminant", "--n", "9", "--gamma", "8,1", "--format", "poly", "--cap", "9"]
        expected = str(disc_symbolic(9, (8, 1)).value) + "\n"
        assert run_cli(capsys, *argv) == (0, expected, "")


class TestConditionsAndTable:
    def test_conditions_text(self, capsys):
        code, out, _ = run_cli(capsys, "conditions", "--n", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        assert lines[0] == "mult = (1,1,1,1,1)  iff  D(5) != 0"
        assert lines[2] == "mult = (2,2,1)  iff  D(5) = 0 and D(4,1) = 0 and D(3,2) != 0"
        assert lines[-1].startswith("mult = (5)  iff  ")
        assert lines[-1].endswith("D(1,1,1,1,1) != 0")

    def test_conditions_json(self, capsys):
        code, out, _ = run_cli(capsys, "conditions", "--n", "5", "--json")
        assert code == 0
        data = json.loads(out)
        assert data[2] == {"mu": [2, 2, 1], "zero": [[5], [4, 1]], "nonzero": [3, 2]}

    def test_degree_table_csv(self, capsys):
        code, out, _ = run_cli(capsys, "degree-table", "--max-n", "9")
        assert code == 0
        assert out == (
            "n,d_yhz,d_hy21,d_hy22\n"
            "3,5,5,4\n"
            "4,9,7,6\n"
            "5,15,9,8\n"
            "6,27,11,10\n"
            "7,45,13,12\n"
            "8,81,15,14\n"
            "9,135,17,16\n"
        )

    def test_degree_table_streams_its_rows(self):
        # the rows up to n = 80 walk 123 million partitions; the header and the
        # row for n = 3 must come through the pipe at once
        with cli_child("degree-table", "--max-n", "80") as proc:
            assert read_lines(proc.stdout, 2) == ["n,d_yhz,d_hy21,d_hy22", "3,5,5,4"]


class TestSelftest:
    def test_small_sweep_passes(self, capsys):
        code, out, err = run_cli(
            capsys, "selftest", "--max-n", "3", "--trials", "3", "--seed", "42", "--quiet"
        )
        assert (code, err) == (0, "")
        assert out.strip().startswith("OK: ")
        assert out.strip().endswith("0 failures")

    def test_deterministic_given_seed(self):
        assert run_selftest(3, 4, 7, quiet=True) == run_selftest(3, 4, 7, quiet=True)
        checked, failures = run_selftest(4, 2, 11, quiet=True)
        assert failures == []
        assert checked > 0

    def test_row_count_zeros_meet_an_elimination(self, monkeypatch):
        # disc_value gives D_lambda = 0 for g1 > k with no determinant, so the
        # sweep checks each such lambda before conj(mu) with one Bareiss
        # elimination of its full matrix, of order n + g1 - 1
        dets = spy(monkeypatch, CLI, "det_fraction_free")
        checked, failures = run_selftest(6, 1, 5, quiet=True)
        assert failures == [] and checked > 0
        expected = [
            n + lam[0] - 1
            for n in range(1, 7)
            for mu, zero, _ in conditions(n)
            for lam in zero
            if lam[0] > len(mu)
        ]
        orders = [len(rows) for (rows,) in dets]
        assert orders == expected and len(orders) == 80

    def test_factor_check_catches_swapped_multiplicities(self, monkeypatch):
        # the right factors under swapped multiplicity labels: the check pins
        # each g_i to the roots of multiplicity i
        decompose = CLI.squarefree_decomposition

        def swapped(poly):
            lead, factors = decompose(poly)
            if len(factors) > 1:
                (g, i), (h, j) = factors[:2]
                factors = [(g, j), (h, i), *factors[2:]]
            return lead, factors

        monkeypatch.setattr(CLI, "squarefree_decomposition", swapped)
        _, failures = run_selftest(4, 1, 0, quiet=True)
        assert failures and all("squarefree factors" in failure for failure in failures)

    def test_progress_goes_to_stderr(self, capsys):
        code, out, err = run_cli(capsys, "selftest", "--max-n", "2", "--trials", "2")
        assert code == 0
        assert err == "selftest: degree 1 done\nselftest: degree 2 done\n"
        assert "OK:" in out

    def test_property_violation_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "multidisc.cli.run_selftest",
            lambda *a, **k: (12, ["n=2 mu=(2,) trial=0: forced failure"]),
        )
        code, out, _ = run_cli(capsys, "selftest", "--max-n", "2", "--trials", "1")
        assert code == 1
        assert "FAIL: 12 properties, 1 failures" in out


# Every input that the CLI rejects as one "error: " line, with the whole of
# what it prints.  The messages are this program's own text, so each row pins
# it exactly; the usage rows below are argparse's, whose wording changes
# between Python versions, so they keep a fragment.  Each id names the input,
# so a reworded message keeps the id.
REJECTED = [
    pytest.param(["classify", "--coeffs", "0,1"], "leading coefficient is zero", id="classify-coeffs-0,1"),
    pytest.param(["classify", "--coeffs", "5"], "need at least two coefficients (degree >= 1)",
                 id="classify-coeffs-5"),
    pytest.param(["classify", "--coeffs", "1,frog,3"], "malformed rational 'frog'",
                 id="classify-coeffs-1,frog,3"),
    # Fraction("1e10000000") takes seconds before any size check could run
    pytest.param(["classify", "--coeffs", "1,1e5"], "malformed rational '1e5'", id="classify-coeffs-1,1e5"),
    pytest.param(["discriminant", "--n", "1", "--gamma", "1", "--format", "value", "--coeffs", "2E3,1"],
                 "malformed rational '2E3'", id="discriminant-value-coeffs-2E3,1"),
    pytest.param(["classify", "--coeffs", "1," + "7" * 4301], "coefficient 2 has 4301 digits; the limit is 4300",
                 id="classify-coeffs-1,7x4301"),
    pytest.param(["classify", "--file", "/nonexistent/path.txt"],
                 "cannot read /nonexistent/path.txt: [Errno 2] No such file or directory: '/nonexistent/path.txt'",
                 id="classify-file-nonexistent-path"),
    pytest.param(["discriminant", "--n", "x", "--gamma", "1", "--format", "matrix"], "bad degree 'x'",
                 id="discriminant-n-x"),
    pytest.param(["discriminant", "--n", "5", "--gamma", "3,x", "--format", "matrix"],
                 "malformed partition '3,x'", id="discriminant-gamma-3,x"),
    pytest.param(["discriminant", "--n", "4", "--gamma", "4", "--format", "value", "--coeffs", "1,0,0,0,0,1"],
                 "coefficients give degree 5, expected 4", id="discriminant-n-4-coeffs-1,0,0,0,0,1"),
    pytest.param(["discriminant", "--n", "5", "--gamma", "3,2", "--format", "value"],
                 "--format value requires --coeffs", id="discriminant-value-no-coeffs"),
    # as in classify; the generic matrix is asked for by leaving --coeffs out
    *(pytest.param(["discriminant", "--n", "2", "--gamma", "2", "--format", fmt, "--coeffs="],
                   "need at least two coefficients (degree >= 1)", id=f"discriminant-{fmt}-coeffs-empty")
      for fmt in ("matrix", "latex", "value")),
    # the parametric discriminant is generic, and only it has a degree cap
    pytest.param(["discriminant", "--n", "2", "--gamma", "2", "--format", "poly", "--coeffs", "1,0,-1"],
                 "--format poly gives the generic discriminant and reads no --coeffs",
                 id="discriminant-poly-coeffs-1,0,-1"),
    *(pytest.param(["discriminant", "--n", "2", "--gamma", "2", "--format", fmt, *coeffs, "--cap", "8"],
                   f"--cap is read only by --format poly, not --format {fmt}", id=f"discriminant-{fmt}-cap-8")
      for fmt, coeffs in (("matrix", []), ("latex", []), ("value", ["--coeffs", "1,0,-1"]))),
    pytest.param(["discriminant", "--n", "7", "--gamma", "7", "--format", "poly"],
                 "degree 7 exceeds the symbolic cap 6; pass --cap 7 if you accept the term growth",
                 id="discriminant-poly-n-7"),
    # the library's own checks, of as_partition, the count rule, conditions
    # and degree_table
    pytest.param(["discriminant", "--n", "5", "--gamma", "2,3", "--format", "matrix"],
                 "(2, 3) is not a partition of 5", id="discriminant-gamma-2,3"),
    pytest.param(["discriminant", "--n", "0", "--gamma", "1", "--format", "matrix"],
                 "n must be an integer of at least 1, got 0", id="discriminant-n-0"),
    # a cap below 1 admits no degree, so it is not an over-cap error
    *(pytest.param(["discriminant", "--n", "2", "--gamma", "2", "--format", "poly", "--cap", cap],
                   f"--cap must be an integer of at least 1, got {cap}", id=f"discriminant-poly-cap-{cap}")
      for cap in ("0", "-1")),
    pytest.param(["conditions", "--n", "0"], "n must be an integer of at least 1, got 0", id="conditions-n-0"),
    pytest.param(["degree-table", "--max-n", "2"], "max_n must be an integer of at least 3, got 2",
                 id="degree-table-max-n-2"),
    # a sweep over no degree or no trial checks nothing
    pytest.param(["selftest", "--max-n", "0"], "max_n must be an integer of at least 1, got 0",
                 id="selftest-max-n-0"),
    *(pytest.param(["selftest", "--trials", trials], f"trials must be an integer of at least 1, got {trials}",
                   id=f"selftest-trials-{trials}")
      for trials in ("0", "-3")),
]


@pytest.mark.parametrize("argv, message", REJECTED)
def test_rejected_input_exits_2_with_one_line(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_every_rejection_in_the_cli_is_a_row():
    # each text that cli.py raises as ValueError, with every placeholder read
    # as ".+", is matched whole by some message of REJECTED
    tree = ast.parse(Path(CLI.__file__).read_text(encoding="utf-8"))
    raised = [
        node.exc.args[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and getattr(getattr(node.exc, "func", None), "id", None) == "ValueError"
    ]
    messages = [row.values[1] for row in REJECTED]
    assert raised
    for text in raised:
        parts = text.values if isinstance(text, ast.JoinedStr) else [text]
        pattern = "".join(re.escape(p.value) if isinstance(p, ast.Constant) else ".+" for p in parts)
        assert any(re.fullmatch(pattern, message) for message in messages), pattern


# argparse's own exits: its usage and an error line that holds the fragment.
# Its wording changes between Python versions, so these rows keep a fragment
# where REJECTED pins the whole text
@pytest.mark.parametrize(
    "argv, fragment",
    [
        # each command takes only the --json or --quiet it acts on
        *(pytest.param([*argv, flag], f"unrecognized arguments: {flag}", id=f"{argv[0]}-{flag[2:]}")
          for argv, flags in (
              (["classify", "--coeffs", "1,0"], ["--quiet"]),
              (["discriminant", "--n", "2", "--gamma", "2", "--format", "matrix"], ["--json", "--quiet"]),
              (["conditions", "--n", "3"], ["--quiet"]),
              (["degree-table", "--max-n", "4"], ["--json", "--quiet"]),
              (["selftest", "--max-n", "1"], ["--json"]),
          )
          for flag in flags),
        pytest.param(["classify", "--coeffs", "1,0", "--file", "x.txt"],
                     "argument --file: not allowed with argument --coeffs", id="classify-coeffs-file"),
        # the JSON holds every step, so --trace would be dropped without a word
        pytest.param(["classify", "--coeffs", "1,0", "--json", "--trace"],
                     "argument --trace: not allowed with argument --json", id="classify-json-trace"),
        pytest.param(["classify", "--coeffs", "1,0", "--trace", "--json"],
                     "argument --json: not allowed with argument --trace", id="classify-trace-json"),
        # main joins a value that starts with "-" and a digit or "." to --coeffs, and no other
        pytest.param(["classify", "--coeffs", "-x"], "argument --coeffs: expected one argument",
                     id="classify-coeffs--x"),
        # no option is read from a prefix of its name, so both signs are rejected alike
        *(pytest.param(["classify", "--coeff", coeffs], "one of the arguments --coeffs --file is required",
                       id=f"classify-coeff-{coeffs}")
          for coeffs in ("3/7,1/7", "-3/7,1/7")),
    ],
)
def test_usage_error_exits_2(argv, fragment):
    code, out, err = run_main(argv)
    assert (code, out) == (("exit", 2), "")
    assert err.startswith("usage: ") and fragment in err.splitlines()[-1]


def test_out_of_memory_exits_2_with_one_line(capsys, monkeypatch):
    # conditions --n 100000000000 runs out at its first row, which allocates
    # a list of n + 1 parts
    def exhausted(n):
        raise MemoryError

    monkeypatch.setattr(CLI, "conditions", exhausted)
    for flags in ([], ["--json"]):
        code, out, err = run_cli(capsys, "conditions", "--n", "100000000000", *flags)
        assert (code, out, err) == (2, "", "error: not enough memory for this request\n"), flags


def test_interrupt_exits_130_without_a_traceback():
    with cli_child("conditions", "--n", "40") as proc:
        # the p(40) = 37,338 rows are under way
        assert len(read_lines(proc.stdout, 1)) == 1
        proc.send_signal(signal.SIGINT)
        # communicate drains stdout, so the final flush of its buffer cannot block
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 130
    assert b"Traceback" not in err and err.count(b"\n") <= 1


def test_kept_parser_matches_a_fresh_parser():
    # main() keeps its parser for the process; no call may see another's state
    assert check_reuse() > 0


def test_a_command_parser_reads_what_the_top_level_parser_reads(capsys, tmp_path):
    # main() hands a named command's argv to that command's parser: it must
    # give the top-level parser's namespace without its command, and reject
    # (or answer --help) where that parser does, with the same exit code
    commands = {}
    top = CLI.build_parser(commands)
    argvs = [argv for argv, _ in invocations(str(tmp_path / "polys.txt"))] + digest_invocations()
    parsed = 0
    for argv in argvs:
        if not argv or argv[0] not in commands:
            continue
        try:
            whole = vars(top.parse_args(argv))
        except SystemExit as exc:
            with pytest.raises(SystemExit) as routed:
                commands[argv[0]].parse_args(argv[1:])
            assert routed.value.code == exc.code, argv
            continue
        assert whole.pop("command") == argv[0]
        assert vars(commands[argv[0]].parse_args(argv[1:])) == whole, argv
        parsed += 1
    capsys.readouterr()
    assert parsed > 1190
    # what names no command still goes to the top-level parser
    for argv, code in (([], 2), (["--help"], 0), (["frobnicate"], 2)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code, argv
        assert capsys.readouterr().err.startswith("usage: multidisc [-h]") == bool(code), argv


def test_parser_is_built_on_first_use_not_at_import():
    probe = "import multidisc.cli as c; print(c._parser is None)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=child_env(),
        check=True,
        timeout=60,
    )
    assert result.stdout == "True\n"


def test_argv_grammar_exits_0_or_2_without_a_traceback(tmp_path):
    # argv for every command, drawn from a grammar of good and bad tokens:
    # an answer exits 0, an input error exits 2 with one "error: " line, and
    # a usage error exits 2 through argparse with its usage; never 3.  Every
    # count is bounded, so that no example runs long
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    batch = tmp_path / "polys.txt"
    batch.write_text("1,-5,7,1,-8,4\n1,frog\n\n3/2,0,-5/7,1\n", encoding="utf-8")

    def mostly(usual, other):
        # ``usual`` three times in four, so that most examples reach an answer
        return st.integers(0, 3).flatmap(lambda i: usual if i else other)

    def count(most):
        other = st.sampled_from(["0", "-1", "x", "True", "2.0", "", "1e1", "١"])
        return mostly(st.integers(1, most).map(str), other)

    # tokens int and Fraction read, "1_000" and non-ASCII digits among them, and tokens they do not
    good = st.one_of(
        st.integers(-20, 20).map(str),
        st.tuples(st.integers(-9, 9), st.integers(1, 5)).map(lambda pq: "%d/%d" % pq),
        st.decimals(-9, 9, places=2).map(str),
        st.sampled_from(["1_000", "-1_0", "١", "٢/٣", "١.٥", " 3 "]),
    )
    bad = st.sampled_from(["1e5", "2E-1", "1.5e0", "x", "", "-", "1/0", "inf", "1__0"])

    def coeffs(n):
        # mostly n + 1 good tokens after a nonzero first one, or a list of any tokens
        lead = st.sampled_from(["1", "-2", "3/2", "١", "1_000", "0.5", "0"])
        degree_n = st.tuples(lead, st.lists(good, min_size=n, max_size=n)).map(lambda t: [t[0], *t[1]])
        text = mostly(degree_n, st.lists(st.one_of(good, bad), max_size=7)).map(",".join)
        return st.one_of(text.map(lambda t: ["--coeffs=" + t]), text.map(lambda t: ["--coeffs", t]))

    @st.composite
    def classify(draw):
        source = st.one_of(
            st.integers(1, 6).flatmap(coeffs),
            st.sampled_from([["--file", str(batch)], ["--file", str(tmp_path)]]),
        )
        flags = st.lists(st.sampled_from(["--json", "--trace"]), unique=True)
        return ["classify", *draw(source), *draw(flags)]

    @st.composite
    def discriminant(draw):
        n = draw(st.integers(1, 6))
        gamma = mostly(
            st.sampled_from(list(iter_partitions(n))).map(lambda parts: ",".join(map(str, parts))),
            st.sampled_from(["3,x", "2.0", "", "True", "1_0", "١,١", "-1,3"]),
        )
        form = draw(st.sampled_from(["matrix", "latex", "poly", "value", "bogus"]))
        args = ["discriminant", "--n", draw(mostly(st.just(str(n)), count(6))),
                "--gamma", draw(gamma), "--format", form]
        # mostly the options that the format reads, sometimes the others
        if draw(st.integers(0, 3)) < (3 if form in ("value", "matrix", "latex") else 1):
            args += draw(coeffs(n))
        if draw(st.integers(0, 3)) < (2 if form == "poly" else 1):
            args += ["--cap", draw(count(6))]
        return args

    @st.composite
    def counted(draw):
        # conditions, degree-table and selftest, each count bounded
        name = draw(st.sampled_from(["conditions", "degree-table", "selftest"]))
        if name == "conditions":
            return [name, "--n", draw(count(8)), *draw(st.sampled_from([[], ["--json"]]))]
        if name == "degree-table":
            return [name, *(["--max-n", draw(count(8))] if draw(st.booleans()) else [])]
        args = [name, "--max-n", draw(count(3)), "--trials", draw(count(2))]
        if draw(st.booleans()):
            args += ["--seed", str(draw(st.integers(-9, 99)))]
        return args + draw(st.sampled_from([[], ["--quiet"]]))

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.one_of(classify(), discriminant(), counted()))
    def check(args):
        code, out, err = run_main(args)
        assert "Traceback" not in err, args
        if code == ("exit", 2):
            assert err.startswith("usage:"), (args, err)
        elif code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (args, err)
        else:
            assert code == 0, (args, code, err)

    check()
