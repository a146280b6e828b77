"""friezelab: exact arithmetic for periodic frieze patterns, cluster-seed
mutation, quiver Grassmannian counting, and cluster characters."""

from .cc import CCValue, cc_map, growth_via_homogeneous, quiddity_from_tube
from .chebyshev import chebyshev_S, chebyshev_T
from .errors import (CrossCheckFailed, ExponentOutOfRange, FriezelabError,
                     InadmissiblePrime, InvalidFrieze, MissingDoubleArrow,
                     NonPolynomialCount, NotAffine, NotDivisible,
                     NonPositiveEntry, SearchNotFound, UnsupportedQuiver)
from .frieze import FriezePattern, Quiddity, generate, growth, measured_growth
from .laurent import LaurentPoly
from .modular import apply_generator_word, modular_generator
from .quivers import MutationWord, Quiver, has_double_arrow, mutation_class_search
from .rep import QuiverRep, count_points, defect, delta, euler_form, grassmannian_table
from .seeds import Seed
from .theta import (ThetaValue, double_arrow_seed, growth_from_affine_quiver, theta,
                    theta_invariance, triangle_neighbors)

__version__ = "0.1.0"

__all__ = [
    "CCValue", "CrossCheckFailed", "ExponentOutOfRange", "FriezePattern", "FriezelabError",
    "InadmissiblePrime", "InvalidFrieze", "LaurentPoly",
    "MissingDoubleArrow", "MutationWord", "NonPolynomialCount",
    "NonPositiveEntry", "NotAffine", "NotDivisible",
    "Quiddity", "Quiver", "QuiverRep", "SearchNotFound", "Seed",
    "ThetaValue", "UnsupportedQuiver", "apply_generator_word", "cc_map",
    "chebyshev_S", "chebyshev_T", "count_points", "defect", "delta",
    "double_arrow_seed", "euler_form", "generate", "grassmannian_table",
    "growth", "growth_from_affine_quiver", "growth_via_homogeneous",
    "has_double_arrow", "measured_growth", "modular_generator",
    "mutation_class_search", "quiddity_from_tube", "theta", "theta_invariance",
    "triangle_neighbors",
]
