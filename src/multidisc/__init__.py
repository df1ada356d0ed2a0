"""Exact classification of complex-root multiplicity structures.

For every partition gamma of n, the library builds a square coefficient
matrix from a polynomial and its derivatives; its determinant is the
discriminant D_gamma.  The multiplicity vector of the complex roots is the
conjugate of delta, the first partition in a fixed order whose
discriminant is nonzero.  A classification finds delta from the gcd chain
G_j = gcd(G_(j-1), G_(j-1)'), one subresultant remainder sequence per
level, and evaluates D_delta alone; it enumerates no partition.  All
arithmetic is exact: integer determinants by fraction-free elimination,
with rationals only at the input and the output, and parametric
discriminants in Z[a0..an] by a division-free cofactor expansion.
Root-side cross-check formulas, a squarefree-decomposition oracle, and
degree bookkeeping for competing condition systems round out the toolkit.
"""

from .classify import ClassificationTrace, classify, classify_trace, conditions
from .degrees import DegreeRow, d_yhz, degree_table
from .engine import (
    DiscMatrix,
    DiscValue,
    build_matrix,
    build_symbolic_matrix,
    disc_symbolic,
    disc_value,
)
from .partitions import Partition, conjugate, iter_partitions
from .roots import (
    RootSpec,
    disc_from_roots,
    expand,
    squarefree_multiplicity,
)
from .sympoly import SymPoly
from .unipoly import UniPoly

__all__ = [
    "ClassificationTrace",
    "DegreeRow",
    "DiscMatrix",
    "DiscValue",
    "Partition",
    "RootSpec",
    "SymPoly",
    "UniPoly",
    "build_matrix",
    "build_symbolic_matrix",
    "classify",
    "classify_trace",
    "conditions",
    "conjugate",
    "d_yhz",
    "degree_table",
    "disc_from_roots",
    "disc_symbolic",
    "disc_value",
    "expand",
    "iter_partitions",
    "squarefree_multiplicity",
]

__version__ = "0.1.0"
