"""Exact dimensions of Zassenhaus filtration subquotients for pro-p groups.

Groups are described by a small expression language (free, cyclic,
Demushkin, semidirect and direct/free products of these); dimensions come
from exact power series arithmetic over the rationals, with Hall commutator
bases for the free case and brute-force finite-group oracles for
cross-checking.
"""
from .dimensions import (
    DimensionTable,
    NegativeDimension,
    NonIntegralW,
    c_sequence,
    dims_table,
    min_generators,
    w_demushkin_closed,
    w_free_closed,
    w_sequence,
)
from .groupspec import (
    Cyclic,
    Demushkin,
    DirectProduct,
    Free,
    FreeProduct,
    GroupSpec,
    ParseError,
    SuperPyth,
    ValidationError,
    Zp,
    closed_form,
    hp_series,
    parse_group_spec,
    to_text,
    validate,
)
from .hall import (
    BasisElement,
    Bracket,
    Generator,
    basis_text_lines,
    hall_commutators,
    zassenhaus_basis,
)
from .series import (
    RationalFunction,
    TruncPoly,
    TruncSeries,
    expand_rational,
    product_identity_rhs,
)

__version__ = "0.1.0"

__all__ = [
    "BasisElement",
    "Bracket",
    "Cyclic",
    "Demushkin",
    "DimensionTable",
    "DirectProduct",
    "Free",
    "FreeProduct",
    "Generator",
    "GroupSpec",
    "NegativeDimension",
    "NonIntegralW",
    "ParseError",
    "RationalFunction",
    "SuperPyth",
    "TruncPoly",
    "TruncSeries",
    "ValidationError",
    "Zp",
    "basis_text_lines",
    "c_sequence",
    "closed_form",
    "dims_table",
    "expand_rational",
    "hall_commutators",
    "hp_series",
    "min_generators",
    "parse_group_spec",
    "product_identity_rhs",
    "to_text",
    "validate",
    "w_demushkin_closed",
    "w_free_closed",
    "w_sequence",
    "zassenhaus_basis",
]
