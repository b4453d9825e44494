"""Exact dimensions of Zassenhaus filtration subquotients for pro-p groups.

Groups are described by a small expression language (free, cyclic,
Demushkin, semidirect and direct/free products of these). Dimensions come
from exact arithmetic: integer polynomials are plain tuples of int, rational
functions and series coefficients stay over Z, and only the logarithm of the
truncated series is taken over the rationals. Hall commutator bases cover
the free case, and brute-force finite-group oracles cross-check the rest.

The names below load their submodule on first use (PEP 562), so importing
one submodule, such as ``zassenhaus.finite``, compiles none of the others.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "dimensions": (
        "DimensionTable",
        "NegativeDimension",
        "NonIntegralW",
        "c_sequence",
        "dims_table",
        "min_generators",
        "w_sequence",
    ),
    "groupspec": (
        "Cyclic",
        "Demushkin",
        "DirectProduct",
        "Free",
        "FreeProduct",
        "GroupSpec",
        "ParseError",
        "SuperPyth",
        "ValidationError",
        "Zp",
        "closed_form",
        "hp_series",
        "parse_group_spec",
        "to_text",
        "validate",
    ),
    "hall": (
        "BasisElement",
        "basis_text_lines",
        "hall_commutators",
        "zassenhaus_basis",
    ),
    "numtheory": ("w_free_closed",),
    "series": (
        "RationalFunction",
        "expand_rational",
        "product_identity_rhs",
    ),
    "verify": ("w_demushkin_closed",),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
