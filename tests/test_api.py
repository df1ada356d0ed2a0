import ast
import importlib.util
from pathlib import Path
from types import ModuleType

import multidisc
import multidisc.cli  # noqa: F401 - the tracer wraps names in every module of the package
from multidisc import SymPoly, UniPoly

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
SOURCES = sorted(Path(multidisc.__file__).resolve().parent.glob("*.py"))


def test_all_lists_exactly_the_public_names():
    public = [
        name
        for name, value in vars(multidisc).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    ]
    assert sorted(multidisc.__all__) == sorted(public)
    assert len(multidisc.__all__) == len(set(multidisc.__all__))
    assert set(multidisc.__all__) == {
        "ClassificationTrace", "DegreeRow", "DiscValue", "Partition", "RootSpec",
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


def functions_holding(matches) -> set[str]:
    """module.qualname of every function of the package whose own body holds
    a node for which ``matches`` is true; the module's name for its top level."""
    found = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.add(".".join(scope))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            walk(child, [*scope, child.name] if named else scope)

    for path in SOURCES:
        walk(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    return found


def test_each_input_rule_has_one_home():
    # the integer rule, "an int and not a bool", and the degree gate are each
    # written once, so that no later change can split either of them again
    def bool_check(node):
        return (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "isinstance"
            and "bool" in ast.unparse(node.args[1])
        )

    def degree_message(node):
        return isinstance(node, ast.Constant) and "must have degree at least 1" in str(node.value)

    assert functions_holding(bool_check) == {"partitions._is_int"}
    assert functions_holding(degree_message) == {"unipoly._positive_degree"}
