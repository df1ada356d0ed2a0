"""CLI output pinned by digest: one sha256 of (exit code, stdout, stderr) per invocation.

    PYTHONPATH=src python tests/test_cli_digests.py --write

rewrites tests/cli_digests.json from the current code.  Do that only for an
intended change of output, and name the invocations whose digest changed.
``--help`` and argparse usage errors are left out: their text differs
between Python versions.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from multidisc import RootSpec, expand, iter_partitions

from cli_reuse import run

DIGESTS = Path(__file__).with_name("cli_digests.json")


def _coeffs(mu, rational: bool) -> str:
    """``--coeffs=`` of prod (x - i)^mu_i, or of -3/7 prod (x - (2i - 3)/5)^mu_i."""
    if rational:
        spec = RootSpec(tuple((Fraction(2 * i - 3, 5), m) for i, m in enumerate(mu)), Fraction(-3, 7))
    else:
        spec = RootSpec(tuple((i, m) for i, m in enumerate(mu)), 1)
    return "--coeffs=" + ",".join(str(c) for c in expand(spec).descending_coeffs())


def invocations() -> list[list[str]]:
    calls = []
    for n in range(1, 11):
        for mu in iter_partitions(n):
            for rational in (False, True):
                coeffs = _coeffs(mu, rational)
                calls.extend(["classify", coeffs, *flags] for flags in ([], ["--trace"], ["--json"]))
    for n in range(1, 6):
        for mu in iter_partitions(n):
            for rational in (False, True):
                coeffs = _coeffs(mu, rational)
                for gamma in iter_partitions(n):
                    text = ",".join(map(str, gamma))
                    calls.append(["discriminant", "--n", str(n), "--gamma", text, "--format", "value", coeffs])
    for n in range(1, 9):
        cap = ["--cap", str(n)] if n >= 7 else []
        for gamma in iter_partitions(n):
            text = ",".join(map(str, gamma))
            calls.append(["discriminant", "--n", str(n), "--gamma", text, "--format", "poly", *cap])
    # order 16, the first whose packed fields take 5 bits
    calls.append(["discriminant", "--n", "9", "--gamma", "8,1", "--format", "poly", "--cap", "9"])
    for n in range(1, 6):
        for gamma in iter_partitions(n):
            text = ",".join(map(str, gamma))
            for coeffs in ([], [_coeffs(gamma, False)], [_coeffs(gamma, True)]):
                for fmt in ("matrix", "latex"):
                    calls.append(["discriminant", "--n", str(n), "--gamma", text, "--format", fmt, *coeffs])
    # PRSs that drop a degree by more than one step, so psc takes the sign
    # rule: x^4 - x at (4), 3x^6 - 10x^3 + 3 at (6), 2x^7 - 2x^4 - 2x^3 + 2 at (6,1)
    for n, gamma, coeffs in (
        (4, "4", "--coeffs=1,0,0,-1,0"),
        (6, "6", "--coeffs=3,0,0,-10,0,0,3"),
        (7, "6,1", "--coeffs=2,0,0,-2,-2,0,0,2"),
    ):
        calls.append(["classify", coeffs, "--json"])
        calls.append(["discriminant", "--n", str(n), "--gamma", gamma, "--format", "value", coeffs])
    calls += [["conditions", "--n", "5"], ["conditions", "--n", "5", "--json"], ["degree-table"]]
    # past Table 1, the rows the paper does not print
    calls.append(["degree-table", "--max-n", "12"])
    calls.append(["degree-table", "--max-n", "30"])
    return calls


def digests() -> dict[str, str]:
    return {
        " ".join(argv): hashlib.sha256(json.dumps(run(argv)).encode()).hexdigest()
        for argv in invocations()
    }


def test_cli_output_matches_its_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = digests()
    assert len(got) == len(expected) == 1190
    assert [argv for argv in got if got[argv] != expected.get(argv)] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DIGESTS.write_text(json.dumps(digests(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(invocations())} digests to {DIGESTS}")
