"""Exact enumeration of inequivalent binary codes (equivalently, binary
matroids) and a verification suite for the bounds governing their
asymptotics."""

from .burnside import CensusRow, correction_report, count_codes, count_codes_by_dim
from .cyclestruct import CycleType, class_size, primary_components
from .qarith import gauss_binomial, gauss_total, lemma1_tail_product, scaled_u
from .submodcount import lattice_dim_poly, lattice_size

__all__ = [
    "CensusRow",
    "CycleType",
    "class_size",
    "correction_report",
    "count_codes",
    "count_codes_by_dim",
    "gauss_binomial",
    "gauss_total",
    "lattice_dim_poly",
    "lattice_size",
    "lemma1_tail_product",
    "primary_components",
    "scaled_u",
]
