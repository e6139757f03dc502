"""Goppa codes over field towers.

A Goppa code is specified by a support L of distinct elements of the top
field F_(q^m) and a Goppa polynomial G with no roots on the support; the
code consists of the vectors c over F_q whose syndrome sum of c_i/(x - a_i)
vanishes modulo G. Two independent constructions are provided:

* ``goppa_power_codes`` reads the code of G = h * g^j as the alternant code
  of the standard parity check, rows a_i^l / G(a_i) for l < deg G, from
  deg G and the values h(a_i) g(a_i)^j alone; ``goppa_code`` is its j = 1
  case. The codes are nested: for j < j' the parity rows of h * g^j' span
  those of h * g^j together with the rows a_i^l / (h g^j')(a_i),
  l < (j' - j) deg g, so only the smallest exponent gets
  ``codes.alternant_kernel``; each larger one restricts the code before it
  by those rows (``codes.restrict_alternant``), and is that code itself
  when they vanish on it, as in the equal-power identities;
* ``goppa_via_crt`` evaluates the defining membership map directly, sending
  c to sum of c_i * (prod_L / (x - a_i) mod G) and taking the kernel of its
  coefficient matrix. The columns come from array passes over all support
  points at once: prod_L by n multiply-by-(x - a) steps, every quotient
  prod_L / (x - a_i) by one synthetic division vectorised over the points,
  and the reduction mod G by the row-wise fold of ``poly.batch_mul_mod``.

They must agree on every input; the test suite enforces this on hundreds of
random instances, the benchmark's sweep cross-checks them on every rooted
instance, and the identity verifiers lean on it. That check only means
something while the two stay independent, so ``goppa_via_crt`` never uses
the values G(a_i) or their inverses, nor ``codes.alternant_kernel``, its
deg G >= n zero-code shortcut or ``codes.restrict_alternant``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Iterable, Sequence

import numpy as np

from .codes import LinearCode, alternant_kernel, restrict_alternant, subfield_kernel
from .errors import BudgetExceeded
from .gf import Field, element_code
from .poly import _DT, NEG_INF, Polynomial, _adder, _fold_mod, _lookup, parse_poly_spec

__all__ = [
    "GoppaSpec",
    "full_support",
    "punctured_support",
    "support_codes",
    "goppa_code",
    "goppa_power_codes",
    "goppa_via_crt",
    "parse_support_spec",
    "parse_goppa_poly_spec",
]

# largest degree d*s that an "irreducible:d^s" spec may ask for, and t*j
# for the top power g^j of a chain or Sugiyama check
SPEC_POWER_DEGREE_BUDGET = 10**5


def require_power_degree(name: str, degree: int) -> None:
    """Raise BudgetExceeded when the named power's degree is over
    SPEC_POWER_DEGREE_BUDGET."""
    if degree > SPEC_POWER_DEGREE_BUDGET:
        raise BudgetExceeded(f"{name} has degree {degree}, over "
                             f"SPEC_POWER_DEGREE_BUDGET = {SPEC_POWER_DEGREE_BUDGET}")


def support_codes(field: Field, support: Sequence) -> tuple[int, ...]:
    """Normalise a support to a tuple of element codes, validating range and
    distinctness."""
    codes = [element_code(field, s, "support code") for s in support]
    if len(set(codes)) != len(codes):
        raise ValueError("support points must be distinct")
    if not codes:
        raise ValueError("support must be nonempty")
    return tuple(codes)


def full_support(field: Field) -> tuple[int, ...]:
    """Every element of the top field, in encoding order."""
    return tuple(range(field.order))


def punctured_support(field: Field, removed: Iterable) -> tuple[int, ...]:
    """The full support minus the given elements, in encoding order."""
    gone = {element_code(field, r, "removed code") for r in removed}
    return tuple(c for c in range(field.order) if c not in gone)


def _values_off_roots(g: Polynomial, support: tuple[int, ...]) -> np.ndarray:
    """g(a_i) for each support point, refusing a root on the support."""
    vals = g.evaluate_codes(np.array(support, dtype=np.int64))
    if (vals == 0).any():
        bad = [int(s) for s, v in zip(support, vals) if v == 0]
        raise ValueError(f"Goppa polynomial vanishes on support points {bad}")
    return vals


@dataclass(frozen=True)
class GoppaSpec:
    """A validated (support, Goppa polynomial) pair over a tower.

    ``goppa_values`` holds G(a_i) for each support point, the evaluation
    that rejects roots on the support, kept for ``goppa_power_codes``.
    """

    field: Field
    support: tuple[int, ...]
    goppa_poly: Polynomial
    goppa_values: np.ndarray = dataclass_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.field.m < 2:
            raise ValueError("Goppa codes here need a proper tower (m >= 2)")
        object.__setattr__(self, "support", support_codes(self.field, self.support))
        g = self.goppa_poly
        if g.field != self.field:
            raise ValueError("Goppa polynomial must live over the top field")
        if g.degree is NEG_INF or g.degree < 1:
            raise ValueError("Goppa polynomial must have degree >= 1")
        vals = _values_off_roots(g, self.support)
        vals.setflags(write=False)
        object.__setattr__(self, "goppa_values", vals)

    @property
    def n(self) -> int:
        return len(self.support)


def value_powers(field: Field, values: np.ndarray, j: int) -> np.ndarray:
    """values**j for nonzero codes, any int j: one exp/log table step."""
    n1 = field.order - 1
    return field._exp[field._log[values] * (j % n1) % n1]


def goppa_power_codes(
    spec: GoppaSpec, exponents: Sequence[int], cofactor: Polynomial | None = None
) -> list[LinearCode]:
    """The Goppa codes for G = h * g^j, j >= 1 over the exponents, g the
    spec's polynomial and h the cofactor (default 1), from deg G = deg h +
    j deg g and the values G(a_i) = h(a_i) g(a_i)^j alone: g^j is never
    formed. Each is the alternant code of the rows a_i^l / G(a_i), l < deg G:
    the smallest exponent's by ``alternant_kernel``, each larger one's by
    restricting the code of the exponent before it (see the module
    docstring), and the zero code once deg G >= n.
    """
    exponents = tuple(exponents)
    if min(exponents, default=1) < 1:
        raise ValueError(f"exponents must be >= 1, got {exponents}")
    field = spec.field
    h_deg, h_inv = 0, 1
    if cofactor is not None:
        if cofactor.field != field:
            raise ValueError("cofactor must live over the top field")
        h_inv = field.inv_table[_values_off_roots(cofactor, spec.support)]
        h_deg = int(cofactor.degree)
    t, n = int(spec.goppa_poly.degree), spec.n
    codes, prev = {}, None
    for j in sorted(set(exponents)):
        values = field.mul_table[h_inv, value_powers(field, spec.goppa_values, -j)]
        count = h_deg + j * t
        if prev is None or count >= n:
            codes[j] = alternant_kernel(field, spec.support, values, count)
        else:
            codes[j] = restrict_alternant(codes[prev], field, spec.support, values,
                                          (j - prev) * t)
        prev = j
    return [codes[j] for j in exponents]


def goppa_code(spec: GoppaSpec) -> LinearCode:
    """The Goppa code of the spec's polynomial: goppa_power_codes at j = 1."""
    return goppa_power_codes(spec, (1,))[0]


def _crt_matrix(spec: GoppaSpec) -> np.ndarray:
    """The deg G x n constraint matrix of ``goppa_via_crt`` over the top
    field: column i holds the coefficients of prod_L/(x - a_i) mod G, low
    degree first."""
    field = spec.field
    add, mul = _adder(field), _lookup(field.mul_table)
    L = np.array(spec.support, dtype=_DT)
    n = L.size
    g = spec.goppa_poly.monic()
    d = int(g.degree)
    # prod_L, low degree first, one multiplication by (x - a) per point
    pi = np.zeros(n + 1, dtype=_DT)
    pi[0] = 1
    for c in field.neg_table[L].tolist():
        nxt = mul(c, pi)
        nxt[1:] = add(nxt[1:], pi[:-1])
        pi = nxt
    # synthetic division by every x - a_i at once: the quotient coefficients
    # run b_(n-1) = pi_n = 1 and b_(j-1) = pi_j + a_i * b_j, and the
    # remainder pi_0 + a_i * b_0 is zero because every a_i is a root
    quot = np.zeros((max(n, d), n), dtype=_DT)
    quot[n - 1] = 1
    for j in range(n - 1, 0, -1):
        quot[j - 1] = add(pi[j], mul(L, quot[j]))
    if add(pi[0], mul(L, quot[0])).any():
        raise RuntimeError("support product must split; unreachable")
    moduli = np.array([g.coeffs[:-1]], dtype=_DT)
    return _fold_mod(field, np.ascontiguousarray(quot.T), moduli).T


def goppa_via_crt(spec: GoppaSpec) -> LinearCode:
    """The same code via the defining membership map.

    c belongs to the code iff sum of c_i * prod_L/(x - a_i) is divisible by
    G, since prod_L is invertible mod G. Each column of the constraint
    matrix is the coefficient expansion of prod_L/(x - a_i) mod G over F_q
    (:func:`_crt_matrix`).
    """
    return subfield_kernel(spec.field, _crt_matrix(spec))


def parse_support_spec(field: Field, text: str) -> tuple[int, ...]:
    """Parse a support description.

    Accepts "full" (all of the top field), "full-minus:c1,c2,..." (the full
    support with the listed element codes removed), or an explicit
    comma-separated list of element codes.
    """
    text = text.strip()
    if text == "full":
        return full_support(field)
    if text.startswith("full-minus:"):
        body = text.split(":", 1)[1]
        try:
            removed = [int(tok) for tok in body.split(",") if tok != ""]
        except ValueError:
            raise ValueError(f"bad removal list in {text!r}") from None
        return punctured_support(field, removed)
    try:
        codes = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"bad support list {text!r}") from None
    return support_codes(field, codes)


def parse_goppa_poly_spec(field: Field, text: str) -> Polynomial:
    """Parse a Goppa polynomial description.

    Same formats as :func:`wildgoppa.poly.parse_poly_spec`, plus
    "irreducible:d^s" for the s-th power of the deterministic minimal monic
    irreducible of degree d. Raises BudgetExceeded, before the power is
    taken, when d*s is over SPEC_POWER_DEGREE_BUDGET.
    """
    text = text.strip()
    if text.startswith("irreducible:") and "^" in text:
        head, _, exp = text.partition("^")
        try:
            s = int(exp)
        except ValueError:
            raise ValueError(f"bad power in {text!r}") from None
        if s < 1:
            raise ValueError(f"power must be >= 1 in {text!r}")
        base = parse_poly_spec(field, head)
        require_power_degree(repr(text), base.degree * s)
        return base**s
    return parse_poly_spec(field, text)
