"""Check that reusing the CLI's argument parser leaks no state between calls.

``multidisc.cli.main`` builds its parser on the first call and keeps it for
the life of the process.  This runs a mixed sequence of invocations through
one kept parser, forwards and then backwards, and compares each call's
stdout, stderr and exit code (or ``SystemExit`` code) with the same argv run
on a freshly built parser.
``tests/test_cli.py::test_kept_parser_matches_a_fresh_parser`` runs it.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile

from multidisc import cli

from conftest import QUINTIC

COEFFS = ",".join(map(str, QUINTIC.descending_coeffs()))


def invocations(batch_path: str) -> list[tuple[list[str], object]]:
    """(argv, the exit code it must give) pairs; a usage error exits through SystemExit."""
    disc = ["discriminant", "--n", "4", "--gamma", "2,2"]
    return [
        (["classify", "--coeffs", COEFFS], 0),
        (["classify", "--coeffs", COEFFS, "--trace"], 0),
        (["classify", "--coeffs", "3/2,0,-5/7,1", "--json"], 0),
        (["classify", "--file", batch_path], 2),
        (["classify", "--file", batch_path, "--json"], 2),
        ([*disc, "--format", "matrix"], 0),
        ([*disc, "--format", "latex", "--coeffs", "1,0,-2,0,1"], 0),
        ([*disc, "--format", "poly"], 0),
        ([*disc, "--format", "value", "--coeffs", "1,0,-2,0,1"], 0),
        (["conditions", "--n", "4", "--json"], 0),
        (["degree-table"], 0),
        (["selftest", "--max-n", "2", "--quiet"], 0),
        (["selftest", "--trials", "0"], 2),
        ([], ("exit", 2)),
        (["classify"], ("exit", 2)),
        (["classify", "--coeffs", COEFFS, "--file", batch_path], ("exit", 2)),
        ([*disc, "--format", "bogus"], ("exit", 2)),
        (["--help"], ("exit", 0)),
        (["classify", "--help"], ("exit", 0)),
    ]


def run(argv: list[str]) -> tuple[object, str, str]:
    """(exit code or ("exit", SystemExit code), stdout, stderr) of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code: object = cli.main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


def check_reuse() -> int:
    """Number of kept-parser calls compared; AssertionError at the first mismatch."""
    saved = cli._parser, cli._commands
    try:
        with tempfile.TemporaryDirectory() as tmp:
            batch = os.path.join(tmp, "polys.txt")
            with open(batch, "w", encoding="utf-8") as handle:
                handle.write(f"{COEFFS}\n1,frog\n\n1,0,-1\n")
            cases = invocations(batch)
            fresh = []
            for argv, code in cases:
                cli._parser = None
                fresh.append(run(argv))
                assert fresh[-1][0] == code, f"{argv}: exit {fresh[-1][0]!r}, expected {code!r}"
            cli._parser = None
            run(cases[0][0])
            kept = cli._parser
            assert kept is not None, "main() kept no parser"
            order = list(range(len(cases)))
            for i in order + order[::-1]:
                got = run(cases[i][0])
                assert got == fresh[i], f"{cases[i][0]}: kept {got!r} != fresh {fresh[i]!r}"
            assert cli._parser is kept, "main() built a second parser"
            return 2 * len(cases)
    finally:
        cli._parser, cli._commands = saved

