"""Schubert calculus for the algebraic cobordism of complete flag varieties.

The engine works over the rationalized Lazard ring presented on the classes
of projective spaces, realizes the cobordism ring of the full flag variety
of rank n through its Borel-style presentation, and computes Bott-Samelson
classes and their products with exact rational arithmetic.
"""

from cobschub.ringcore import (
    CobschubError,
    CoeffPoly,
    DivisibilityError,
    InternalError,
    NotAUnitError,
    TruncSeries,
    UsageError,
    series_invert_unit,
    series_reverse,
)

__version__ = "0.1.0"

__all__ = [
    "CobschubError",
    "CoeffPoly",
    "DivisibilityError",
    "InternalError",
    "NotAUnitError",
    "TruncSeries",
    "UsageError",
    "series_invert_unit",
    "series_reverse",
    "__version__",
]
