"""Command-line interface.

Coefficients are entered highest power first ("1,-5,7,1,-8,4" is
x^5 - 5x^4 + 7x^3 + x^2 - 8x + 4); each entry is an integer, a decimal
such as 0.5, or a rational written p/q; exponent notation (1e5) is
rejected; a negative first coefficient needs the form --coeffs=-3/7,1/7.
A coefficient may have at most ``sys.int_info.default_max_str_digits``
(4300) digits, as parsing is quadratic in its length; exact results print
at any size.  Bad input raises ValueError, which ``main`` prints as one
line.  Exit codes: 0 success, 1 selftest property violation, 2 usage or
parse error (in batch mode, after every line was tried), 3 internal
arithmetic error, 130 interrupted (Ctrl-C), 141 output pipe closed early
(as with "| head").  No traceback is printed for any of them.

The argument parser is built once per process, on the first ``main()``
call, and reused by every later call: ``parse_args`` returns a new
namespace each time, and no default is mutable.  ``build_parser()`` still
returns a new parser on every call.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .classify import classify_trace, conditions, trace_json_dict
from .degrees import degree_table
from .engine import (
    _build,
    build_matrix,
    build_symbolic_matrix,
    det_fraction_free,
    disc_resultant,
    disc_symbolic,
    disc_value,
)
from .partitions import as_partition
from .roots import (
    RootSpec,
    disc_from_roots,
    expand,
    random_root_spec,
    squarefree_decomposition,
    squarefree_multiplicity,
)
from .unipoly import UniPoly, parse_rational


# --format poly stops above this degree unless --cap raises it: the term
# count of the parametric discriminant grows quickly with the degree
SYMBOLIC_CAP_DEFAULT = 6
# argparse reads a separate "-3/7,1/7" as an option
_NEGATIVE_FIRST = "a negative first coefficient needs the = form: --coeffs=-3/7,1/7"
# the interpreter's default bound, read from a constant so that no earlier
# change to the current bound can lift it
_MAX_DIGITS = sys.int_info.default_max_str_digits


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def parse_coeffs(text: str) -> UniPoly:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) < 2:
        raise ValueError("need at least two coefficients (degree >= 1)")
    values = []
    for index, part in enumerate(parts, start=1):
        # only a token longer than the bound can hold more digits than it
        if len(part) > _MAX_DIGITS and (digits := sum(map(str.isdigit, part))) > _MAX_DIGITS:
            raise ValueError(f"coefficient {index} has {digits} digits; the limit is {_MAX_DIGITS}")
        try:
            values.append(parse_rational(part))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"malformed rational {part!r}") from None
    if not values[0]:
        raise ValueError("leading coefficient is zero")
    return UniPoly.from_descending(values)


def parse_gamma(text: str, n: int) -> tuple[int, ...]:
    try:
        gamma = tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise ValueError(f"malformed partition {text!r}") from None
    return as_partition(gamma, n)


def _format_partition(parts) -> str:
    return ",".join(str(p) for p in parts)


def _print_classification(args, poly: UniPoly) -> None:
    trace = classify_trace(poly)
    if args.json:
        print(_json_dumps(trace_json_dict(poly, trace)))
        return
    if args.trace:
        # built whole first, so an engine fault in the walk prints no step
        lines = [f"D({_format_partition(gamma)}) = 0" for gamma in trace.zero_steps()]
        lines.append(f"D({_format_partition(trace.delta)}) = {trace.value} (nonzero)")
        print("\n".join(lines))
    print(_format_partition(trace.result))


def _cmd_classify(args) -> int:
    if not args.file:
        _print_classification(args, parse_coeffs(args.coeffs))
        return 0
    try:
        with open(args.file, encoding="utf-8-sig") as handle:
            lines = [line.strip() for line in handle]
    except OSError as exc:
        raise ValueError(f"cannot read {args.file}: {exc}") from None
    code = 0
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            poly = parse_coeffs(line)
        except ValueError as exc:
            print(f"error: line {lineno}: {exc}", file=sys.stderr)
            if args.json:
                print(_json_dumps({"error": str(exc), "line": lineno}))
            code = 2
            continue
        _print_classification(args, poly)
    return code


def _cmd_discriminant(args) -> int:
    try:
        n = int(args.n)
    except ValueError:
        raise ValueError(f"bad degree {args.n!r}") from None
    if n < 1:
        raise ValueError("degree must be at least 1")
    # the parametric discriminant is generic, and only it has a degree cap
    if args.format == "poly" and args.coeffs is not None:
        raise ValueError("--format poly gives the generic discriminant and reads no --coeffs")
    if args.format != "poly" and args.cap is not None:
        raise ValueError(f"--cap is read only by --format poly, not --format {args.format}")
    cap = SYMBOLIC_CAP_DEFAULT if args.cap is None else args.cap
    if cap < 1:
        raise ValueError("--cap must be at least 1")
    gamma = parse_gamma(args.gamma, n)
    poly = None
    if args.coeffs is not None:
        poly = parse_coeffs(args.coeffs)
        if poly.degree != n:
            raise ValueError(f"coefficients give degree {poly.degree}, expected {n}")

    if args.format == "value":
        if poly is None:
            raise ValueError("--format value requires --coeffs")
        print(str(disc_value(poly, gamma).value))
        return 0
    if args.format == "poly":
        if n > cap:
            raise ValueError(f"degree {n} exceeds the symbolic cap {cap}; pass --cap {n} "
                             "if you accept the term growth")
        print(str(disc_symbolic(n, gamma).value))
        return 0
    matrix = build_matrix(poly, gamma) if poly is not None else build_symbolic_matrix(n, gamma)
    if args.format == "latex":
        print(matrix.to_latex())
    else:
        print(_json_dumps(matrix.to_json_dict()))
    return 0


def _cmd_conditions(args) -> int:
    # The rows together grow as p(n)^2, so each is printed as it is made;
    # the JSON list is written item by item, the same bytes as one json.dumps.
    table = conditions(args.n)
    if args.json:
        sep = "["
        for mu, zero, nonzero in table:
            item = {"mu": list(mu), "zero": [list(g) for g in zero], "nonzero": list(nonzero)}
            sys.stdout.write(sep + _json_dumps(item))
            sep = ", "
        print("]")
        return 0
    for mu, zero, nonzero in table:
        clauses = [f"D({_format_partition(g)}) = 0" for g in zero]
        clauses.append(f"D({_format_partition(nonzero)}) != 0")
        print(f"mult = ({_format_partition(mu)})  iff  " + " and ".join(clauses))
    return 0


def _cmd_degree_table(args) -> int:
    # degree_table checks max_n at the call, so a bad value prints no header;
    # each row is flushed as it is made: the partitions of n grow as p(n),
    # and the rows are too short to fill the output buffer on their own
    rows = degree_table(args.max_n)
    print("n,d_yhz,d_hy21,d_hy22")
    for row in rows:
        print(f"{row.n},{row.d_yhz},{row.d_hy21},{row.d_hy22}", flush=True)
    return 0


def run_selftest(max_n: int, trials: int, seed: int, quiet: bool = False) -> tuple[int, list[str]]:
    """Oracle-equivalence and vanishing sweeps over seeded random root specs.

    For every row (mu, zero, nonzero) of ``conditions(n)`` and every trial,
    a seeded spec with multiplicity vector mu is checked: the squarefree
    oracle gives mu, and its decomposition is (lead, [(g_i, i), ...]) with
    each g_i the monic product of (x - r) over the roots r of multiplicity
    i, expanded from the roots; the classifier agrees; the classifier's
    leaf value D_delta equals the signed root-side determinant, which is
    built from the roots and shares no code with the coefficient matrices;
    and the row holds, D_lambda = 0 for every lambda in ``zero`` and
    D_nonzero != 0.
    Where g1 > k, ``disc_value`` gives 0 by a row count alone, so the same
    property also checks that the Bareiss elimination of the full matrix is 0.

    Returns (number of properties checked, failure descriptions).
    """
    rng = random.Random(seed)
    checked = 0
    failures: list[str] = []

    def check(ok: bool, message: str) -> None:
        nonlocal checked
        checked += 1
        if not ok:
            failures.append(message)

    for n in range(1, max_n + 1):
        for mu, zero, nonzero in conditions(n):
            for trial in range(trials):
                spec = random_root_spec(rng, mu)
                poly = expand(spec)
                label = f"n={n} mu={mu} trial={trial}"
                check(
                    squarefree_multiplicity(poly) == mu,
                    f"{label}: squarefree oracle disagrees",
                )
                expected = [
                    (expand(RootSpec([(r, 1) for r, m in spec.roots if m == i], 1)), i)
                    for i in sorted(set(mu))
                ]
                check(
                    squarefree_decomposition(poly) == (spec.leading, expected),
                    f"{label}: squarefree factors do not match the roots",
                )
                trace = classify_trace(poly)
                check(trace.result == mu, f"{label}: classified as {trace.result}")
                check(
                    disc_from_roots(spec, trace.delta) == trace.value,
                    f"{label}: root side disagrees with D({trace.delta})",
                )
                # the classification filled the memo, so this clears nothing
                ints = disc_resultant(poly)[0]
                for lam in zero:
                    values = [disc_value(poly, lam).value]
                    if lam[0] > len(mu):  # g1 > k
                        values.append(det_fraction_free(_build(ints, lam).entries))
                    check(not any(values), f"{label}: D({lam}) expected to vanish")
                check(
                    disc_value(poly, nonzero).value != 0,
                    f"{label}: D({nonzero}) expected nonzero",
                )
        if not quiet:
            print(f"selftest: degree {n} done", file=sys.stderr)
    return checked, failures


def _cmd_selftest(args) -> int:
    # a sweep over no degree or no trial checks nothing and must not report OK
    if args.max_n < 1:
        raise ValueError("--max-n must be at least 1")
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    checked, failures = run_selftest(args.max_n, args.trials, args.seed, quiet=args.quiet)
    for failure in failures[:20]:
        print(f"FAIL {failure}")
    if failures:
        print(f"FAIL: {checked} properties, {len(failures)} failures")
        return 1
    print(f"OK: {checked} properties, 0 failures")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multidisc",
        description="Classify the complex-root multiplicity structure of a "
        "univariate polynomial in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "classify",
        help="multiplicity vector of a polynomial",
        description="Coefficients are given highest power first.",
    )
    # the JSON holds every step, so --trace would add nothing to it
    output = p.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true", help="emit JSON output")
    output.add_argument("--trace", action="store_true", help="print the full discriminant chain")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--coeffs", help=f'coefficient list, e.g. "1,-5,7,1,-8,4"; {_NEGATIVE_FIRST}'
    )
    group.add_argument("--file", help="batch mode: one coefficient list per line")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "discriminant",
        help="one discriminant: matrix, LaTeX, parametric polynomial, or value",
    )
    p.add_argument("--n", required=True, help="polynomial degree")
    p.add_argument("--gamma", required=True, help='partition of n, e.g. "3,2"')
    p.add_argument(
        "--format",
        required=True,
        choices=["matrix", "latex", "poly", "value"],
        help="output representation",
    )
    p.add_argument(
        "--coeffs", help=f"concrete coefficients (required for value); {_NEGATIVE_FIRST}"
    )
    p.add_argument(
        "--cap",
        type=int,
        help=f"symbolic degree cap for --format poly (default {SYMBOLIC_CAP_DEFAULT})",
    )
    p.set_defaults(func=_cmd_discriminant)

    p = sub.add_parser(
        "conditions",
        help="equality/inequation table for every multiplicity vector",
    )
    p.add_argument("--json", action="store_true", help="emit JSON output")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_conditions)

    p = sub.add_parser("degree-table", help="CSV of worst-case degrees")
    p.add_argument("--max-n", type=int, default=9)
    p.set_defaults(func=_cmd_degree_table)

    p = sub.add_parser(
        "selftest",
        help="run the randomized verification sweeps",
    )
    p.add_argument("--quiet", action="store_true", help="suppress progress chatter")
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # parse_coeffs bounds every coefficient, so the interpreter's bound on
    # int-to-str conversion is lifted for this call only: results print whole
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except KeyboardInterrupt:
        return 130
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so the interpreter's
        # final flush of the unwritten buffer cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: internal arithmetic error: {exc}", file=sys.stderr)
        return 3
    finally:
        sys.set_int_max_str_digits(limit)


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
