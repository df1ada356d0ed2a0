"""Spans around the library's layers, recorded from outside the library.

Each wrap target is a name in the module that *calls* it (for example
``multidisc.classify.disc_value``), or a method on its class, so the library
source stays untouched.  Spans live in memory as
``[name, start_ns, end_ns, parent_index, op_id]`` and are written out when
the run ends; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from time import perf_counter_ns

# (module, attribute, span name).  "Class.method" attributes are patched on the class.
TARGETS = [
    ("multidisc.cli", "main", "cli.main"),
    ("multidisc.cli", "build_parser", "cli.parse"),
    ("argparse", "ArgumentParser.parse_args", "cli.parse"),
    ("multidisc.cli", "parse_coeffs", "cli.parse"),
    ("multidisc.cli", "parse_gamma", "cli.parse"),
    ("multidisc.cli", "classify_trace", "classify.trace"),
    ("multidisc.cli", "disc_symbolic", "engine.disc_symbolic"),
    ("multidisc.classify", "classification_order", "partitions.order"),
    ("multidisc.classify", "disc_value", "engine.disc_value"),
    ("multidisc.engine", "build_matrix", "engine.build"),
    ("multidisc.engine", "build_symbolic_matrix", "engine.build_symbolic"),
    ("multidisc.engine", "det_fraction_free", "engine.det"),
    ("multidisc.engine", "det_minor_expansion", "engine.minor"),
    ("multidisc.roots", "det_fraction_free", "engine.det"),
    ("multidisc.roots", "expand", "roots.expand"),
    ("multidisc.roots", "squarefree_multiplicity", "roots.yun"),
    ("multidisc.roots", "disc_from_distinct_roots", "roots.distinct"),
    ("multidisc.roots", "disc_from_multiple_roots_abs", "roots.multiple"),
    ("multidisc.unipoly", "UniPoly.clear_denominators", "unipoly.clear"),
    ("multidisc.unipoly", "UniPoly.__divmod__", "unipoly.divmod"),
    ("multidisc.unipoly", "UniPoly.eval", "unipoly.eval"),
    ("multidisc.sympoly", "SymPoly.exact_divide", "sympoly.exact_divide"),
]


def _bits(value) -> int:
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    return max((abs(c).bit_length() for c in value.terms.values()), default=0)


def _det_attrs(args, result) -> dict:
    rows = args[0]
    sample = rows[0][0]
    if isinstance(sample, (int, Fraction)):
        # the same ring choice det_fraction_free makes
        ring = "int" if all(isinstance(e, int) for row in rows for e in row) else "frac"
    else:
        ring = "sym"
    return {"ring": ring, "order": len(rows), "bits": _bits(result), "zero": not result}


# Facts read from a call's arguments and result, after its span has ended.
ATTRS = {
    "engine.det": _det_attrs,
    "partitions.order": lambda args, result: {"len": len(result)},
    "classify.trace": lambda args, result: {
        "steps": len(result.steps),
        "nonzero": sum(1 for step in result.steps if step.nonzero),
    },
    "engine.disc_symbolic": lambda args, result: {"terms": len(result.value.terms)},
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self.stack: list[int] = []
        self.op = -1
        self.missing: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, attrs_of = self.spans, self.stack, ATTRS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if attrs_of is not None:
                self.attrs[idx] = attrs_of(args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span_name in TARGETS:
            owner = sys.modules.get(module_name)
            *cls, attr_name = attr.split(".")
            if owner is not None and cls:
                owner = getattr(owner, cls[0], None)
            fn = getattr(owner, attr_name, None) if owner is not None else None
            if fn is None:
                self.missing.add(span_name)
                continue
            self._undo.append((owner, attr_name, fn))
            setattr(owner, attr_name, self.wrap(span_name, fn))

    def uninstall(self) -> None:
        for owner, attr_name, fn in reversed(self._undo):
            setattr(owner, attr_name, fn)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for idx, span in enumerate(self.spans):
                record = dict(zip(("name", "start_ns", "end_ns", "parent", "op"), span))
                if idx in self.attrs:
                    record["attrs"] = self.attrs[idx]
                handle.write(json.dumps(record) + "\n")


def _bareiss_mults(order: int) -> int:
    # multiplications of single-step Bareiss on an order x order matrix: two per
    # updated entry, (order-1-k)^2 entries at step k
    return sum(2 * (order - 1 - k) ** 2 for k in range(order - 1))


# name -> (unit, span names it needs); every value is per traced operation
# unless the name says ratio, share, mean or max.  engine.det.mults is
# computed from the matrix orders with the single-step Bareiss formula, not
# counted.
PER_LAYER = {
    "partitions.order.ms": ("ms", ["partitions.order"]),
    "partitions.order.len": ("count", ["partitions.order"]),
    "partitions.order.used_ratio": ("ratio", ["partitions.order", "classify.trace"]),
    "classify.scan.steps": ("count", ["classify.trace"]),
    "classify.scan.useful_ratio": ("ratio", ["classify.trace"]),
    "classify.self_ms": ("ms", ["classify.trace"]),
    "engine.build.ms": ("ms", ["engine.build"]),
    "engine.build.calls": ("count", ["engine.build"]),
    "engine.build.share": ("ratio", ["engine.build"]),
    "engine.det.int.ms": ("ms", ["engine.det"]),
    "engine.det.frac.ms": ("ms", ["engine.det"]),
    "engine.det.sym.ms": ("ms", ["engine.det"]),
    "engine.det.calls": ("count", ["engine.det"]),
    "engine.det.order_mean": ("rows", ["engine.det"]),
    "engine.det.mults": ("count", ["engine.det"]),
    "engine.det.bits_max": ("bits", ["engine.det"]),
    "engine.det.zero_ratio": ("ratio", ["engine.det"]),
    "engine.disc_value.self_ms": ("ms", ["engine.disc_value"]),
    "unipoly.clear.calls": ("count", ["unipoly.clear"]),
    "unipoly.clear.ms": ("ms", ["unipoly.clear"]),
    "engine.minor.calls": ("count", ["engine.minor"]),
    "engine.minor.ms": ("ms", ["engine.minor"]),
    "engine.build_symbolic.ms": ("ms", ["engine.build_symbolic"]),
    "sympoly.exact_divide.calls": ("count", ["sympoly.exact_divide"]),
    "sympoly.exact_divide.ms": ("ms", ["sympoly.exact_divide"]),
    "sympoly.exact_divide.share_of_det": ("ratio", ["sympoly.exact_divide", "engine.det"]),
    "sympoly.result_terms": ("count", ["engine.disc_symbolic"]),
    "roots.expand.ms": ("ms", ["roots.expand"]),
    "roots.yun.ms": ("ms", ["roots.yun"]),
    "roots.distinct.ms": ("ms", ["roots.distinct"]),
    "roots.multiple.ms": ("ms", ["roots.multiple"]),
    "unipoly.divmod.calls": ("count", ["unipoly.divmod"]),
    "unipoly.divmod.ms": ("ms", ["unipoly.divmod"]),
    "unipoly.eval.calls": ("count", ["unipoly.eval"]),
    "unipoly.eval.ms": ("ms", ["unipoly.eval"]),
    "cli.parse_ms": ("ms", ["cli.parse"]),
    "cli.self_ms": ("ms", ["cli.main"]),
    "trace.overhead_ratio": ("ratio", []),
}

# The counts that must repeat exactly between two traced runs of one seed.
REPEATABLE = [
    "engine.det.calls",
    "classify.scan.steps",
    "partitions.order.len",
    "unipoly.clear.calls",
    "sympoly.exact_divide.calls",
    "engine.det.mults",
]


def layer_metrics(tracer: Tracer, op_wall_ns: list, op_paced_ns: list, overhead_ratio: float) -> dict:
    """Per-layer metrics of one traced pass.

    Span durations are scaled by each operation's paced/wall time ratio, so
    they are paced like the end-to-end times.  A ratio whose base is zero
    (the workload never enters that layer) reads 0.  A metric whose wrap
    target no longer exists reads null: absent, not 0.
    """
    spans, attrs, ops = tracer.spans, tracer.attrs, len(op_wall_ns)
    scale = [paced / wall for wall, paced in zip(op_wall_ns, op_paced_ns)]
    dur = [(end - start) * scale[op] for _, start, end, _, op in spans]
    child_ns = [0] * len(spans)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            child_ns[span[3]] += dur[idx]

    def total(name, self_only=False):
        return sum(dur[i] - (child_ns[i] if self_only else 0)
                   for i, s in enumerate(spans) if s[0] == name)

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def attr_values(name, key):
        return [attrs[i][key] for i, s in enumerate(spans) if s[0] == name and i in attrs]

    def under_det(idx):
        parent = spans[idx][3]
        while parent >= 0:
            if spans[parent][0] == "engine.det":
                return True
            parent = spans[parent][3]
        return False

    def ratio(num, den):
        return num / den if den else 0.0

    per_op = lambda value: value / ops  # noqa: E731
    ms = lambda ns: ns / 1e6 / ops  # noqa: E731
    det_idx = [i for i, s in enumerate(spans) if s[0] == "engine.det" and i in attrs]
    ring_ns = {ring: sum(dur[i] for i in det_idx if attrs[i]["ring"] == ring)
               for ring in ("int", "frac", "sym")}
    orders = attr_values("engine.det", "order")
    steps = sum(attr_values("classify.trace", "steps"))
    divide_in_det = sum(dur[i] for i, s in enumerate(spans)
                        if s[0] == "sympoly.exact_divide" and under_det(i))
    values = {
        "partitions.order.ms": ms(total("partitions.order")),
        "partitions.order.len": per_op(sum(attr_values("partitions.order", "len"))),
        "partitions.order.used_ratio": ratio(steps, sum(attr_values("partitions.order", "len"))),
        "classify.scan.steps": per_op(steps),
        "classify.scan.useful_ratio": ratio(sum(attr_values("classify.trace", "nonzero")), steps),
        "classify.self_ms": ms(total("classify.trace", self_only=True)),
        "engine.build.ms": ms(total("engine.build")),
        "engine.build.calls": per_op(calls("engine.build")),
        "engine.build.share": ratio(total("engine.build"), sum(op_paced_ns)),
        "engine.det.int.ms": ms(ring_ns["int"]),
        "engine.det.frac.ms": ms(ring_ns["frac"]),
        "engine.det.sym.ms": ms(ring_ns["sym"]),
        "engine.det.calls": per_op(calls("engine.det")),
        "engine.det.order_mean": ratio(sum(orders), len(orders)),
        "engine.det.mults": per_op(sum(_bareiss_mults(m) for m in orders)),
        "engine.det.bits_max": max(attr_values("engine.det", "bits"), default=0),
        "engine.det.zero_ratio": ratio(sum(attr_values("engine.det", "zero")), len(orders)),
        "engine.disc_value.self_ms": ms(total("engine.disc_value", self_only=True)),
        "unipoly.clear.calls": per_op(calls("unipoly.clear")),
        "unipoly.clear.ms": ms(total("unipoly.clear")),
        "engine.minor.calls": per_op(calls("engine.minor")),
        "engine.minor.ms": ms(total("engine.minor")),
        "engine.build_symbolic.ms": ms(total("engine.build_symbolic")),
        "sympoly.exact_divide.calls": per_op(calls("sympoly.exact_divide")),
        "sympoly.exact_divide.ms": ms(total("sympoly.exact_divide")),
        "sympoly.exact_divide.share_of_det": ratio(divide_in_det, ring_ns["sym"]),
        "sympoly.result_terms": per_op(sum(attr_values("engine.disc_symbolic", "terms"))),
        "roots.expand.ms": ms(total("roots.expand")),
        "roots.yun.ms": ms(total("roots.yun")),
        "roots.distinct.ms": ms(total("roots.distinct")),
        "roots.multiple.ms": ms(total("roots.multiple")),
        "unipoly.divmod.calls": per_op(calls("unipoly.divmod")),
        "unipoly.divmod.ms": ms(total("unipoly.divmod")),
        "unipoly.eval.calls": per_op(calls("unipoly.eval")),
        "unipoly.eval.ms": ms(total("unipoly.eval")),
        "cli.parse_ms": ms(total("cli.parse")),
        "cli.self_ms": ms(total("cli.main", self_only=True)),
        "trace.overhead_ratio": overhead_ratio,
    }
    out = {}
    for name, (unit, needs) in PER_LAYER.items():
        absent = any(span_name in tracer.missing for span_name in needs)
        out[name] = {"value": None if absent else values[name], "unit": unit}
    return out
