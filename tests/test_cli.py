import json
import os
import random
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

from cli_reuse import check_reuse, invocations
from conftest import (CLASSIFY, CLI, assert_quintic_record, coeff, derivative, json_steps, mul_power,
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
        assert_quintic_record(out.strip())

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
        emitted = out.strip()
        assert json.dumps(json.loads(emitted), sort_keys=True) == emitted

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "classify", "--coeffs", "1,-5,7,1,-8,4", "--trace")
        _, second, _ = run_cli(capsys, "classify", "--coeffs", "1,-5,7,1,-8,4", "--trace")
        assert first == second

    def test_zero_leading_coefficient(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--coeffs", "0,1")
        assert code == 2
        assert "leading coefficient is zero" in err

    def test_malformed_rational(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--coeffs", "1,frog,3")
        assert code == 2
        assert "malformed rational" in err

    def test_exponent_notation_rejected(self, capsys, tmp_path):
        # Fraction("1e10000000") takes seconds before any size check could run
        code, out, err = run_cli(capsys, "classify", "--coeffs", "1,1e5")
        assert (code, out, err) == (2, "", "error: malformed rational '1e5'\n")
        value = ("discriminant", "--n", "1", "--gamma", "1", "--format", "value")
        code, _, err = run_cli(capsys, *value, "--coeffs", "2E3,1")
        assert (code, err) == (2, "error: malformed rational '2E3'\n")
        batch = tmp_path / "polys.txt"
        batch.write_text("1,1e100\n1,-0.5\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "classify", "--file", str(batch))
        assert (code, out, err) == (2, "1\n", "error: line 1: malformed rational '1e100'\n")

    def test_single_coefficient_rejected(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--coeffs", "5")
        assert code == 2
        assert "at least two" in err

    def test_rational_coefficients(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--coeffs", "1/2,-5/2,7/2,1/2,-4,2")
        assert code == 0
        assert out.strip() == "2,2,1"

    def test_batch_file(self, capsys, tmp_path):
        batch = tmp_path / "polys.txt"
        batch.write_text("1,-5,7,1,-8,4\n\n1,0\n1,2,1\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "classify", "--file", str(batch))
        assert code == 0
        assert out.splitlines() == ["2,2,1", "1", "2"]

    def test_batch_file_with_a_byte_order_mark(self, capsys, tmp_path):
        # editors on Windows save UTF-8 with a leading U+FEFF; it is not part of line 1
        batch = tmp_path / "polys.txt"
        batch.write_bytes(b"\xef\xbb\xbf1,2,1\n1,0\n")
        assert run_cli(capsys, "classify", "--file", str(batch)) == (0, "2\n1\n", "")

    def test_batch_file_json_lines(self, capsys, tmp_path):
        batch = tmp_path / "polys.txt"
        batch.write_text("1,0\n1,2,1\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "classify", "--file", str(batch), "--json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0]["multiplicity"] == [1]
        assert rows[1]["multiplicity"] == [2]

    def test_batch_file_bad_line(self, capsys, tmp_path):
        batch = tmp_path / "polys.txt"
        batch.write_text("1,0\n0,9\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "classify", "--file", str(batch))
        assert code == 2
        assert "line 2" in err

    def test_batch_file_keeps_going_past_a_bad_line(self, capsys, tmp_path):
        batch = tmp_path / "polys.txt"
        batch.write_text("1,2,1\nfoo\n1,0,-1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "classify", "--file", str(batch))
        assert code == 2
        assert out.splitlines() == ["2", "1,1"]
        assert err == "error: line 2: need at least two coefficients (degree >= 1)\n"
        code, out, err = run_cli(capsys, "classify", "--file", str(batch), "--json")
        assert code == 2
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0]["multiplicity"] == [2]
        assert rows[1] == {"error": "need at least two coefficients (degree >= 1)", "line": 2}
        assert rows[2]["multiplicity"] == [1, 1]
        assert err == "error: line 2: need at least two coefficients (degree >= 1)\n"

    @pytest.mark.parametrize("mode", [(), ("--trace",), ("--json",)])
    def test_batch_output_is_the_per_line_output(self, capsys, tmp_path, mode):
        lines = ["1,-5,7,1,-8,4", "1,2,1", "1,0,-1", "3/2,0,-5/7,1"]
        batch = tmp_path / "polys.txt"
        batch.write_text("\n".join(lines) + "\n", encoding="utf-8")
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
        # a file that cannot be opened or decoded is named in one error line
        undecodable = tmp_path / "polys.txt"
        undecodable.write_bytes(b"1,2,1\n\xff\n")
        for path in ("/nonexistent/path.txt", str(undecodable)):
            code, out, err = run_cli(capsys, "classify", "--file", path)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1

    def test_coeffs_and_file_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--coeffs", "1,0", "--file", "x.txt"])
        assert exc.value.code == 2

    def test_json_and_trace_are_exclusive(self, capsys):
        # the JSON holds every step, so --trace would be dropped without a word
        for argv in (["--json", "--trace"], ["--trace", "--json"]):
            with pytest.raises(SystemExit) as exc:
                main(["classify", "--coeffs", "1,0", *argv])
            out, err = capsys.readouterr()
            assert exc.value.code == 2 and out == ""
            assert "not allowed with" in err

    def test_negative_leading_coefficient_needs_the_equals_form(self, capsys):
        assert run_cli(capsys, "classify", "--coeffs=-3/7,1/7") == (0, "1\n", "")
        value = ("discriminant", "--n", "2", "--gamma", "1,1", "--format", "value")
        expected = disc_value(UniPoly.from_descending([-1, 0, 4]), (1, 1)).value
        assert run_cli(capsys, *value, "--coeffs=-1,0,4") == (0, f"{expected}\n", "")
        # argparse reads a separate "-3/7,1/7" as an option, not as the value
        for argv in (["classify", "--coeffs", "-3/7,1/7"], [*value, "--coeffs", "-1,0,4"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            out, err = capsys.readouterr()
            assert exc.value.code == 2 and out == ""
            assert "expected one argument" in err


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
        code, out, _ = run_cli(
            capsys, "discriminant", "--n", "5", "--gamma", "3,2", "--format", "matrix"
        )
        assert code == 0
        data = json.loads(out)
        assert data["size"] == 7
        assert (data["n"], data["gamma0"], data["symbolic"]) == (5, 2, True)
        assert data["row_provenance"] == [
            [0, 1],
            [0, 0],
            [1, 2],
            [1, 1],
            [1, 0],
            [2, 1],
            [2, 0],
        ]
        assert data["blocks"] == [
            {"derivative": 0, "rows": [0, 1]},
            {"derivative": 1, "rows": [2, 3, 4]},
            {"derivative": 2, "rows": [5, 6]},
        ]
        assert json.dumps(json.loads(out.strip()), sort_keys=True) == out.strip()

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
        code, out, _ = run_cli(
            capsys,
            "discriminant",
            "--n",
            "5",
            "--gamma",
            "3,2",
            "--format",
            "matrix",
            "--coeffs",
            "1,-5,7,1,-8,4",
        )
        assert code == 0
        data = json.loads(out)
        assert data["symbolic"] is False
        # first row is F * x^1 right-aligned to width 7
        assert data["entries"][0] == ["1", "-5", "7", "1", "-8", "4", "0"]

    def test_latex_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "discriminant", "--n", "5", "--gamma", "3,2", "--format", "latex"
        )
        assert code == 0
        assert out.startswith(r"\left|\begin{array}")
        assert out.count(r"\hline") == 2

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

    def test_value_requires_coeffs(self, capsys):
        code, _, err = run_cli(
            capsys, "discriminant", "--n", "5", "--gamma", "3,2", "--format", "value"
        )
        assert code == 2
        assert "requires --coeffs" in err

    @pytest.mark.parametrize("fmt", ["matrix", "latex", "value"])
    def test_empty_coeffs_is_rejected_not_read_as_absent(self, capsys, fmt):
        # as in classify; the generic matrix is asked for by leaving --coeffs out
        code, out, err = run_cli(
            capsys, "discriminant", "--n", "2", "--gamma", "2", "--format", fmt, "--coeffs="
        )
        assert (code, out) == (2, "")
        assert err == "error: need at least two coefficients (degree >= 1)\n"

    def test_cap_exceeded_names_cap(self, capsys):
        code, _, err = run_cli(
            capsys, "discriminant", "--n", "7", "--gamma", "7", "--format", "poly"
        )
        assert code == 2
        assert "cap 6" in err
        assert err == (
            "error: degree 7 exceeds the symbolic cap 6; pass --cap 7 "
            "if you accept the term growth\n"
        )

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_is_rejected(self, capsys, cap):
        # a cap below 1 admits no degree, so it is a usage error and not an over-cap one
        code, out, err = run_cli(
            capsys, "discriminant", "--n", "2", "--gamma", "2", "--format", "poly", "--cap", cap
        )
        assert (code, out, err) == (2, "", "error: --cap must be at least 1\n")

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--format", "poly", "--coeffs", "1,0,-1"], "reads no --coeffs"),
            (["--format", "matrix", "--cap", "8"], "--cap is read only by --format poly"),
            (["--format", "latex", "--cap", "8"], "--cap is read only by --format poly"),
            (["--format", "value", "--coeffs", "1,0,-1", "--cap", "8"],
             "--cap is read only by --format poly"),
        ],
    )
    def test_options_the_format_does_not_read_are_rejected(self, capsys, argv, message):
        # the parametric discriminant is generic, and only it has a degree cap
        code, out, err = run_cli(capsys, "discriminant", "--n", "2", "--gamma", "2", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_invalid_gamma(self, capsys):
        code, _, err = run_cli(
            capsys, "discriminant", "--n", "5", "--gamma", "2,3", "--format", "matrix"
        )
        assert code == 2
        assert "not a partition" in err

    def test_degree_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys,
            "discriminant",
            "--n",
            "4",
            "--gamma",
            "4",
            "--format",
            "value",
            "--coeffs",
            "1,0,0,0,0,1",
        )
        assert code == 2
        assert "degree" in err


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
        code, out, _ = run_cli(
            capsys, "selftest", "--max-n", "3", "--trials", "3", "--seed", "42", "--quiet"
        )
        assert code == 0
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
        assert "degree 1 done" in err
        assert "OK:" in out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--max-n", "0"), "--max-n must be at least 1"),
            (("--trials", "0"), "--trials must be at least 1"),
            (("--trials", "-3"), "--trials must be at least 1"),
        ],
    )
    def test_sweep_that_checks_nothing_is_rejected(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "selftest", *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_property_violation_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "multidisc.cli.run_selftest",
            lambda *a, **k: (12, ["n=2 mu=(2,) trial=0: forced failure"]),
        )
        code, out, _ = run_cli(capsys, "selftest", "--max-n", "2", "--trials", "1")
        assert code == 1
        assert "FAIL: 12 properties, 1 failures" in out


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--coeffs", "1,0", "--quiet"],
        ["discriminant", "--n", "2", "--gamma", "2", "--format", "matrix", "--json"],
        ["discriminant", "--n", "2", "--gamma", "2", "--format", "matrix", "--quiet"],
        ["conditions", "--n", "3", "--quiet"],
        ["degree-table", "--max-n", "4", "--json"],
        ["degree-table", "--max-n", "4", "--quiet"],
        ["selftest", "--max-n", "1", "--json"],
    ],
)
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    # each subcommand takes only the --json or --quiet it acts on
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["discriminant", "--n", "5", "--gamma", "3,x", "--format", "matrix"],
         "malformed partition '3,x'"),
        (["discriminant", "--n", "x", "--gamma", "1", "--format", "matrix"], "bad degree 'x'"),
        (["discriminant", "--n", "0", "--gamma", "1", "--format", "matrix"],
         "degree must be at least 1"),
        # the last two are the library's own checks, of conditions and degree_table
        (["conditions", "--n", "0"], "n must be a positive integer, got 0"),
        (["degree-table", "--max-n", "2"], "max_n must be an integer of at least 3, got 2"),
    ],
)
def test_rejected_input_exits_2_with_one_line(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


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
