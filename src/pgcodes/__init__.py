"""Hyperplane incidence codes of PG(n, q): construction, small-weight
decomposition, and minimality analysis with an exact oracle."""

__version__ = "0.1.0"

from .ff import Field, field_make, nullspace
from .geometry import ProjectiveSpace, SubspacePointSet, space_make
from .codes import (Codeword, Decomposition, combine, incidence_codeword,
                    partial_combination, restricted_weight, weight)
from .bounds import (BoundContext, Classification, SecantSpectrum, classify,
                     delta, max_thin_secant, secant_spectrum, theta,
                     thick_bound_U, weight_bound_W)
from .minimality import (AdjacencyWitnessGraph, HyperplanePartition,
                         MinimalityReport, NoDecompositionError, OracleResult,
                         build_adjacency, build_witness, decompose,
                         exceptional_holes, oracle_minimal, p2_fixtures,
                         refine_to_fixpoint, random_combination,
                         szonyi_example, verdict)

__all__ = [
    "__version__",
    "Field", "field_make", "nullspace",
    "ProjectiveSpace", "SubspacePointSet", "space_make",
    "Codeword", "Decomposition", "combine", "incidence_codeword",
    "partial_combination", "restricted_weight", "weight",
    "BoundContext", "Classification", "SecantSpectrum", "classify", "delta",
    "max_thin_secant", "secant_spectrum", "theta", "thick_bound_U",
    "weight_bound_W",
    "AdjacencyWitnessGraph", "HyperplanePartition", "MinimalityReport",
    "NoDecompositionError", "OracleResult", "build_adjacency",
    "build_witness", "decompose", "exceptional_holes", "oracle_minimal",
    "p2_fixtures", "refine_to_fixpoint", "random_combination",
    "szonyi_example", "verdict",
]
