"""Exact classification of complex-root multiplicity structures.

Everything runs in exact rational (or integer/symbolic) arithmetic: the
library builds square coefficient matrices from a polynomial and its
derivatives, evaluates their determinants fraction-free, and reads the
multiplicity vector of the complex roots off the first nonvanishing
determinant in a fixed partition order.  Parametric discriminants,
root-side cross-check formulas, a squarefree-decomposition oracle, and
degree bookkeeping for competing condition systems round out the toolkit.
"""

from .classify import (
    ClassificationTrace,
    TraceStep,
    classify,
    classify_trace,
    conditions,
    trace_json_dict,
)
from .degrees import DegreeRow, d_hy21, d_hy22, d_yhz, degree_table, degree_table_csv
from .engine import (
    SYMBOLIC_CAP_DEFAULT,
    DiscMatrix,
    DiscValue,
    build_matrix,
    build_symbolic_matrix,
    det_fraction_free,
    det_minor_expansion,
    disc_symbolic,
    disc_value,
)
from .partitions import (
    Partition,
    classification_order,
    conjugate,
    is_valid_partition,
    partitions_of,
)
from .roots import (
    RootSpec,
    disc_from_distinct_roots,
    disc_from_multiple_roots_abs,
    expand,
    format_root_spec,
    parse_root_spec,
    random_root_spec,
    squarefree_decomposition,
    squarefree_multiplicity,
)
from .sympoly import SymPoly
from .unipoly import Rational, UniPoly

__all__ = [
    "ClassificationTrace",
    "DegreeRow",
    "DiscMatrix",
    "DiscValue",
    "Partition",
    "Rational",
    "RootSpec",
    "SYMBOLIC_CAP_DEFAULT",
    "SymPoly",
    "TraceStep",
    "UniPoly",
    "build_matrix",
    "build_symbolic_matrix",
    "classification_order",
    "classify",
    "classify_trace",
    "conditions",
    "conjugate",
    "d_hy21",
    "d_hy22",
    "d_yhz",
    "degree_table",
    "degree_table_csv",
    "det_fraction_free",
    "det_minor_expansion",
    "disc_from_distinct_roots",
    "disc_from_multiple_roots_abs",
    "disc_symbolic",
    "disc_value",
    "expand",
    "format_root_spec",
    "is_valid_partition",
    "parse_root_spec",
    "partitions_of",
    "random_root_spec",
    "squarefree_decomposition",
    "squarefree_multiplicity",
    "trace_json_dict",
]

__version__ = "0.1.0"
