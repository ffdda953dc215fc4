"""Filtered CW complexes with exact weighted invariants.

Exact arithmetic throughout: weights and polynomial data are rationals
(plus -inf for eternal cells), every identity is decidable equality.

Each public name is imported from its module on first access, so
``import fcw`` loads none of the modules and a program pays only for the
layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it provides
_EXPORTS = {
    "complexes": ("Cell", "FilteredComplex", "Violation", "point", "product", "smash", "sphere", "wedge"),
    "errors": (
        "EulerMismatch",
        "FCWError",
        "InvalidBoundaries",
        "NegativeWeight",
        "NonIntegerCoefficient",
        "ParseError",
        "UnsupportedCell",
        "ValidationError",
        "WeightTooLong",
    ),
    "fileformat": ("parse_complex", "parse_document", "parse_weight", "serialize_complex"),
    "invariants": (
        "InvariantReport",
        "euler_polynomial",
        "invariant_report",
        "k_class",
        "matching_number",
        "size_polynomial",
        "weighted_euler_char",
    ),
    "morse": (
        "CriticalPoint",
        "Linearization",
        "LinearizationStats",
        "MorseDatum",
        "bound_size_spheres",
        "bound_size_wedges",
        "canonical_linearization",
        "euler_poly_rel",
        "linearization_stats",
        "morse_complex",
        "parse_morse_datum",
    ),
    "persistence": ("Bar", "Barcode", "barcode", "bottleneck", "euler_from_barcode"),
    "polynomial": ("Polynomial",),
    "rationals": ("NEG_INF", "POS_INF", "format_extended"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
