"""Seeded inputs, operations and oracle checks for the benchmark workloads.

Inputs are generated here, with code of the benchmark's own (partitions,
conjugates and root expansion are re-implemented), so a change to the
library cannot change what the benchmark feeds it.  Each workload draws its
inputs in blocks: a block is a fixed mix of input classes (degrees,
multiplicity vectors) in a seeded order with seeded values, so every run
sees the same mix and only the values and the order depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction

# Half-integers in [-9, 9] and small nonzero leading coefficients: the same
# distribution as the library's random_root_spec.
ROOT_POOL = [Fraction(k, 2) for k in range(-18, 19)]
LEADING_POOL = [k for k in range(-5, 6) if k]


def partitions_desc(n: int) -> list[tuple[int, ...]]:
    """All partitions of n in descending lexicographic order (the scan order of gamma)."""
    out = []
    stack = [((), n, n)]
    while stack:
        prefix, remaining, cap = stack.pop()
        if remaining == 0:
            out.append(prefix)
            continue
        # push smallest part first so the largest part is expanded first
        for part in range(1, min(cap, remaining) + 1):
            stack.append((prefix + (part,), remaining - part, part))
    return out


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in parts if p >= i) for i in range(1, parts[0] + 1))


def expand_roots(roots, leading) -> list[Fraction]:
    """Coefficients of leading * prod (x - r)^m, highest power first."""
    coeffs = [Fraction(leading)]
    for root, mult in roots:
        for _ in range(mult):
            nxt = coeffs + [Fraction(0)]
            for i, c in enumerate(coeffs):
                nxt[i + 1] -= root * c
            coeffs = nxt
    return coeffs


def random_roots(rng: random.Random, mu) -> tuple[tuple[tuple[Fraction, int], ...], int]:
    roots = rng.sample(ROOT_POOL, len(mu))
    return tuple(zip(roots, mu)), rng.choice(LEADING_POOL)


def coeff_arg(coeffs) -> str:
    # "--coeffs=..." keeps a negative leading coefficient from reading as a flag
    return "--coeffs=" + ",".join(str(c) for c in coeffs)


def run_cli(lib, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_failure(output) -> str | None:
    rc, _, err = output
    return f"exit code {rc}: {err.strip()}" if rc else None


def classify_result(output) -> tuple[int, ...]:
    return tuple(json.loads(output[1])["multiplicity"])


class Workload:
    """One set of inputs: how to make them, run one of them, and check the result."""

    name = ""
    why = ""
    block_size = 0  # operations per block; a timed run stops only between blocks
    trace_blocks = 1  # blocks in a traced run: a fixed count, so its counts repeat
    blocks_per_s = 0  # blocks generated per second of run, about twice what a run uses
    # True when the inputs are a finite set that every block repeats; the
    # library is then imported afresh before each block, so that no request
    # meets a library instance that has seen it and a result cache cannot help
    repeats_requests = False

    def block(self, lib, rng: random.Random) -> list:
        raise NotImplementedError

    def warmup(self, lib) -> list:
        raise NotImplementedError

    def make_ops(self, lib, seed: int, seconds: float) -> list:
        rng = random.Random(f"{self.name}/{seed}")
        blocks = max(self.trace_blocks, math.ceil(self.blocks_per_s * seconds))
        return [op for _ in range(blocks) for op in self.block(lib, rng)]

    def run(self, lib, op):
        return run_cli(lib, op[0])

    def check(self, lib, op, output) -> str | None:
        """None when the output is right, else a one-line reason."""
        raise NotImplementedError


class ClassifyGeneric(Workload):
    name = "classify-generic"
    why = ("dense random integer/rational polynomials of degree 20-28: the typical input, "
           "one determinant per scan, partition enumeration dominates")
    DEGREES = range(20, 29)
    RATIONAL_PER_BLOCK = 2
    block_size = len(DEGREES)
    trace_blocks = 5
    blocks_per_s = 4

    def block(self, lib, rng):
        degrees = list(self.DEGREES)
        rng.shuffle(degrees)
        rational = set(rng.sample(range(len(degrees)), self.RATIONAL_PER_BLOCK))
        ops = []
        for idx, n in enumerate(degrees):
            coeffs = []
            for _ in range(n + 1):
                c = Fraction(rng.randint(-99, 99))
                if idx in rational and rng.random() < 1 / 3:
                    c /= rng.randint(2, 9)
                coeffs.append(c)
            while not coeffs[0]:
                coeffs[0] = Fraction(rng.randint(-99, 99))
            ops.append((["classify", coeff_arg(coeffs), "--json"], coeffs))
        return ops

    def warmup(self, lib):
        rng = random.Random("classify-generic/warmup")
        return [(["classify", coeff_arg([1] + [rng.randint(-9, 9) for _ in range(n)]), "--json"], None)
                for n in (6, 7)]

    def check(self, lib, op, output):
        bad = cli_failure(output)
        if bad:
            return bad
        expected = lib.roots.squarefree_multiplicity(lib.UniPoly.from_descending(op[1]))
        got = classify_result(output)
        return None if got == expected else f"classified {got}, Yun oracle gives {expected}"


class ClassifyRepeated(Workload):
    name = "classify-repeated"
    why = ("polynomials of degree 10-14 with repeated roots: each scan evaluates 8 to p(n) "
           "determinants, so matrix building and determinants dominate")
    DEGREES = range(10, 15)
    FIRST_STEP = 8
    PER_DEGREE = 5  # 25 classes per block: the p50 and p90 ranks fall mid-class, not between two
    block_size = len(DEGREES) * PER_DEGREE
    trace_blocks = 2
    blocks_per_s = 1

    def __init__(self):
        # per degree, PER_DEGREE multiplicity vectors whose scans stop at evenly
        # spaced positions from FIRST_STEP to p(n)
        self.catalogue = []
        for n in self.DEGREES:
            order = partitions_desc(n)
            last = len(order)
            for j in range(self.PER_DEGREE):
                pos = self.FIRST_STEP + round(j * (last - self.FIRST_STEP) / (self.PER_DEGREE - 1))
                self.catalogue.append(conjugate(order[pos - 1]))

    def block(self, lib, rng):
        mus = list(self.catalogue)
        rng.shuffle(mus)
        ops = []
        for mu in mus:
            roots, leading = random_roots(rng, mu)
            ops.append((["classify", coeff_arg(expand_roots(roots, leading)), "--json"], mu))
        return ops

    def warmup(self, lib):
        return [(["classify", coeff_arg(expand_roots(((Fraction(k), 2), (Fraction(-1), 1)), 3)), "--json"],
                 (2, 1)) for k in (2, 3)]

    def check(self, lib, op, output):
        bad = cli_failure(output)
        if bad:
            return bad
        got = classify_result(output)
        return None if got == op[1] else f"classified {got}, constructed with {op[1]}"


# Parametric-discriminant requests of degree 2-8 whose matrix has order <= 9.
# The distinct requests are few, so a run repeats them in blocks, and each
# needs many samples per run for steady percentiles.  So every request above
# 0.2 s is left out (n=6 with g1>=5, n=7 with g1>=4, n=8 with g1>=3, and the
# four below): each would be a few samples per run that alone set its time.
SYMBOLIC_SLOW = {(7, (3, 3, 1)), (7, (3, 2, 2)), (8, (2, 2, 2, 2)), (8, (2, 2, 2, 1, 1))}
SYMBOLIC_REQUESTS = [
    (n, g)
    for n in range(2, 9)
    for g in partitions_desc(n)
    if n + g[0] - 1 <= 9 and (n, g) not in SYMBOLIC_SLOW
]


class Symbolic(Workload):
    name = "symbolic"
    why = ("parametric discriminants of degree 2-8 with matrices of order <= 9, 35 requests of "
           "1-180 ms: the only user of the SymPoly ring, where exact division dominates")
    block_size = len(SYMBOLIC_REQUESTS)  # a block makes every request once, in a seeded order
    blocks_per_s = 1
    repeats_requests = True

    def block(self, lib, rng):
        requests = list(SYMBOLIC_REQUESTS)
        rng.shuffle(requests)
        ops = []
        for n, gamma in requests:
            point = [rng.randint(-9, 9) for _ in range(n)] + [rng.choice(LEADING_POOL)]
            argv = ["discriminant", "--n", str(n), "--gamma", ",".join(map(str, gamma)),
                    "--format", "poly", "--cap", "8"]
            ops.append((argv, (n, gamma, point)))
        return ops

    def warmup(self, lib):
        return [(["discriminant", "--n", "1", "--gamma", "1", "--format", "poly", "--cap", "8"], None)]

    def check(self, lib, op, output):
        bad = cli_failure(output)
        if bad:
            return bad
        n, gamma, point = op[1]
        got = eval_poly_text(output[1], point)
        expected = lib.engine.disc_value(lib.UniPoly(point), gamma).value
        return None if got == expected else f"at a={point}: poly gives {got}, disc_value gives {expected}"


def eval_poly_text(text: str, point) -> int:
    """Evaluate printed SymPoly text such as "-3*a2^2*a0 + a1" at a0..an = point."""
    total = 0
    for term in text.strip().replace(" - ", " + -").split(" + "):
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        value = sign
        for factor in term.split("*"):
            if factor.startswith("a"):
                var, _, exp = factor[1:].partition("^")
                value *= point[int(var)] ** int(exp or 1)
            else:
                value *= int(factor)
        total += value
    return total


class Verify(Workload):
    name = "verify"
    why = ("root-side cross-check of degree 8-14 root specs, a third squarefree: Yun over the "
           "rationals plus Fraction determinants, no scan and no partition enumeration")
    DEGREES = range(8, 15)
    block_size = 3 * len(DEGREES)
    trace_blocks = 5
    blocks_per_s = 6

    def block(self, lib, rng):
        ops = []
        for n in self.DEGREES:
            repeated = [p for p in partitions_desc(n) if p[0] > 1]
            for mu in ((1,) * n, rng.choice(repeated), rng.choice(repeated)):
                roots, leading = random_roots(rng, mu)
                ops.append((lib.roots.RootSpec(roots, leading), mu))
        rng.shuffle(ops)
        return ops

    def warmup(self, lib):
        spec = lib.roots.RootSpec(((Fraction(1), 3), (Fraction(-2), 2), (Fraction(1, 2), 2)), 2)
        return [(spec, (3, 2, 2))]

    def run(self, lib, op):
        roots = lib.roots
        poly = roots.expand(op[0])
        mu = roots.squarefree_multiplicity(poly)
        gamma = lib.partitions.conjugate(mu)
        if mu[0] == 1:
            return mu, roots.disc_from_distinct_roots(op[0], gamma)
        return mu, roots.disc_from_multiple_roots_abs(op[0], gamma)

    def check(self, lib, op, output):
        spec, mu = op
        got_mu, root_side = output
        if got_mu != mu:
            return f"Yun gives {got_mu}, constructed with {mu}"
        poly = lib.UniPoly.from_descending(expand_roots(spec.roots, spec.leading))
        coeff_side = lib.engine.disc_value(poly, conjugate(mu)).value
        if abs(root_side) != abs(coeff_side):
            return f"|root side| {abs(root_side)} != |disc_value| {abs(coeff_side)}"
        return None


WORKLOADS = {w.name: w for w in (ClassifyGeneric(), ClassifyRepeated(), Symbolic(), Verify())}
