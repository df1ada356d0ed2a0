import importlib.util
from pathlib import Path
from types import ModuleType

import multidisc
import multidisc.cli  # noqa: F401 - the tracer wraps names in every module of the package
from multidisc import SymPoly, UniPoly

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_all_lists_exactly_the_public_names():
    public = [
        name
        for name, value in vars(multidisc).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    ]
    assert sorted(multidisc.__all__) == sorted(public)
    assert len(multidisc.__all__) == len(set(multidisc.__all__))
    assert set(multidisc.__all__) == {
        "ClassificationTrace", "DegreeRow", "DiscMatrix", "DiscValue", "Partition", "RootSpec",
        "SymPoly", "UniPoly", "build_matrix", "build_symbolic_matrix", "classify",
        "classify_trace", "conditions", "conjugate", "d_yhz", "degree_table", "disc_from_roots",
        "disc_symbolic", "disc_value", "expand", "iter_partitions", "squarefree_multiplicity",
    }


def test_sympoly_lists_exactly_the_kept_names():
    # the type of a symbolic result: no ring arithmetic beyond int scaling
    public = {name for name in dir(SymPoly) if not name.startswith("_")}
    assert public == {
        "nvars", "terms", "variable", "is_zero", "sorted_terms", "exact_divide", "evaluate", "to_latex",
    }
    assert {"__add__", "__radd__", "__sub__", "__neg__", "__rmul__"}.isdisjoint(vars(SymPoly))


def test_unipoly_lists_exactly_the_kept_names():
    # the input type, cleared to integers once: no ring arithmetic, no printing
    public = {name for name in dir(UniPoly) if not name.startswith("_")}
    assert public == {
        "coeffs", "from_descending", "descending_coeffs", "is_zero", "degree", "leading",
        "clear_denominators", "eval",
    }
    removed = {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__", "__str__"}
    assert removed.isdisjoint(vars(UniPoly))


def test_every_benchmark_wrap_target_exists():
    # the benchmark's tracer patches library names from outside; a renamed or
    # deleted one would leave its span, and the metrics that read it, silent
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == set()
    finally:
        tracer.uninstall()
