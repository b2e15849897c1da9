"""Exact computation and mechanical verification of hypergeometric Euler
numbers, their complementary family, and hypergeometric Bernoulli and Cauchy
numbers."""

from .exact import InvalidParameter
from .families import FamilyId, FamilyKind, NumberTable, table, via_series
from .series import ZeroConstantTerm

__all__ = [
    "FamilyId",
    "FamilyKind",
    "InvalidParameter",
    "NumberTable",
    "ZeroConstantTerm",
    "table",
    "via_series",
]
