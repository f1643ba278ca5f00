"""Hypergraph homology and discrete Morse analysis over exact arithmetic.

The library computes associated and lower-associated simplicial complexes of
hypergraphs, embedded homology via infimum/supremum chain complexes over Z,
Q, or a prime field, discrete Morse functions with their critical hyperedges
and gradient vector fields, Morse extension analysis, and the homology maps
induced by hypergraph morphisms.
"""

__version__ = "1.0.0"

# the integer kernel has one, pure-Python implementation
KERNEL_BACKEND = "py"

from .coeffs import CoeffSpec, Q, Z, prime_field
from .hypercore import (
    Hypergraph,
    SimplicialComplex,
    VertexSet,
    delta_closure,
    dimension,
    is_simplicial,
    is_subhypergraph,
    lower_complex,
    power_complex,
)
from .chains import (
    HomologyResult,
    SubChainComplex,
    boundary_matrix,
    embedded_homology,
    incidence,
    inf_complex,
    projection,
    simplicial_homology,
    subcomplex_homology,
    sup_complex,
)
from .exact import (
    ExactMatrix,
    hermite_basis,
    module_intersection,
    module_sum,
    preimage_module,
)
from .morse import (
    CriticalReport,
    GradientField,
    GradedLinearMap,
    MorseFunction,
    critical_discrepancy,
    critical_set,
    critical_via_gradient,
    dim_function,
    extend_gradient,
    extension_obstruction,
    gradient,
    is_acyclic,
    is_morse,
    is_proper,
    is_semi_proper,
    linear_map,
    restrict,
    satisfies_condition_C,
    search_extension,
)
from .morphisms import (
    HomologyMap,
    HypergraphMorphism,
    chain_map,
    check_commuting_diagram,
    induced_assoc_map,
    induced_homology_map,
    induced_lower_map,
    validate_morphism,
)

__all__ = [name for name in dir() if not name.startswith("_")]
