"""fglops: exact arithmetic for truncated power series with torsion,
formal group laws, quadratic power operations, total Chern class
candidates, and obstruction certificates."""

from .coefficients import (
    BooleanRing,
    Coefficient,
    IntegerModRing,
    IntegerRing,
    NotAUnit,
    PolynomialRing,
    Ring,
    RingMismatch,
    parse_coefficient,
)
from .series import (
    NonConvergent,
    Series,
    SeriesRing,
    SeriesVar,
    ring_from_json,
    ring_to_json,
    series_from_json,
    series_to_json,
)
from .fgl import (
    FormalGroupLaw,
    ViolatedAxiom,
    additive_law,
    builtin_law,
    multiplicative_law,
    validate_law,
)
from .powerops import PowerOpContext, standard_context, standard_ring
from .chern import ChernSeries, UnitViolation, computation_one
from .obstruction import (
    ObstructionReport,
    boolean_relations,
    delta,
    exhaustive_search,
    extract_relations,
    multilinear_mod2,
    symbolic_twin,
)

__version__ = "0.1.0"

__all__ = [
    "BooleanRing",
    "Coefficient",
    "IntegerModRing",
    "IntegerRing",
    "NotAUnit",
    "PolynomialRing",
    "Ring",
    "RingMismatch",
    "parse_coefficient",
    "NonConvergent",
    "Series",
    "SeriesRing",
    "SeriesVar",
    "ring_from_json",
    "ring_to_json",
    "series_from_json",
    "series_to_json",
    "FormalGroupLaw",
    "ViolatedAxiom",
    "additive_law",
    "builtin_law",
    "multiplicative_law",
    "validate_law",
    "PowerOpContext",
    "standard_context",
    "standard_ring",
    "ChernSeries",
    "UnitViolation",
    "computation_one",
    "ObstructionReport",
    "boolean_relations",
    "delta",
    "exhaustive_search",
    "extract_relations",
    "multilinear_mod2",
    "symbolic_twin",
]
