"""Classical Goppa codes over finite-field towers.

Builds exact, table-backed finite-field towers, Goppa codes over them, and provides verifiers for a family of
equality and dimension identities enjoyed by wild Goppa codes, together
with cyclotomic dimension formulas and small-scale constructive evidence
for the underlying trace-space decompositions.
"""

from __future__ import annotations

from .errors import BudgetExceeded, FalsificationError
from .gf import Field, build_tower
from .poly import (
    Polynomial,
    count_distinct_roots,
    find_irreducible,
    gcd,
    irreducible_power,
    is_irreducible,
    is_squarefree,
    parse_poly_spec,
    pow_mod,
)
from .linalg import (
    MatrixGF,
    RrefResult,
    kernel,
    rank,
    rref,
)
from .codes import DEFAULT_DISTANCE_BUDGET, LinearCode
from .goppa import (
    GoppaSpec,
    full_support,
    goppa_code,
    goppa_power_codes,
    goppa_via_crt,
    parse_goppa_poly_spec,
    parse_support_spec,
    punctured_support,
    support_codes,
)
from .identities import (
    IdentityReport,
    dimension_gap,
    rs_equivalence,
    verify_chain,
    verify_coprime_factor_chain,
    verify_sugiyama,
    verify_theorem1,
    wild_exponent,
)
from .cyclotomic import (
    ClassDecomposition,
    CyclotomicClass,
    class_sum_dim,
    closed_form,
    cyclotomic_classes,
    default_length,
    norm_exponent,
)
from .evidence import (
    DecompositionReport,
    DualSpanReport,
    KReport,
    TraceKernelReport,
    build_K,
    find_decomposition,
    flatten_poly,
    mu_generators,
    startkey_search,
    tau,
    verify_dual_reformulation,
    verify_K_properties,
    verify_trace_kernel_mod,
)

__all__ = [
    "BudgetExceeded",
    "FalsificationError",
    "Field",
    "build_tower",
    "Polynomial",
    "count_distinct_roots",
    "find_irreducible",
    "gcd",
    "irreducible_power",
    "is_irreducible",
    "is_squarefree",
    "parse_poly_spec",
    "pow_mod",
    "MatrixGF",
    "RrefResult",
    "kernel",
    "rank",
    "rref",
    "DEFAULT_DISTANCE_BUDGET",
    "LinearCode",
    "GoppaSpec",
    "full_support",
    "goppa_code",
    "goppa_power_codes",
    "goppa_via_crt",
    "parse_goppa_poly_spec",
    "parse_support_spec",
    "punctured_support",
    "support_codes",
    "IdentityReport",
    "dimension_gap",
    "rs_equivalence",
    "verify_chain",
    "verify_coprime_factor_chain",
    "verify_sugiyama",
    "verify_theorem1",
    "wild_exponent",
    "ClassDecomposition",
    "CyclotomicClass",
    "class_sum_dim",
    "closed_form",
    "cyclotomic_classes",
    "default_length",
    "norm_exponent",
    "DecompositionReport",
    "DualSpanReport",
    "KReport",
    "TraceKernelReport",
    "build_K",
    "find_decomposition",
    "flatten_poly",
    "mu_generators",
    "startkey_search",
    "tau",
    "verify_dual_reformulation",
    "verify_K_properties",
    "verify_trace_kernel_mod",
]
