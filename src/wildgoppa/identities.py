"""Verifiers for equality and dimension identities of wild Goppa codes.

The central fact being checked: for a Goppa polynomial g with no roots in
the top field F_(q^m), the codes with Goppa polynomials g^e and g^(e+1)
coincide, where e + 1 = (q^m - 1)/(q - 1) is the norm exponent of the tower
(so e = q^(m-1) + ... + q). Around it sit several relatives:

* a dimension gap bound when g does have roots in F_(q^m) (at most one per
  distinct root),
* chains g^(s*e) = ... = g^(s*(e+1)) for rootless g, extended one step left
  for squarefree g,
* the classical repeated-root identity g^(s*q - 1) = g^(s*q) for squarefree
  g with no roots on the support,
* an equivalence with a Reed-Solomon subfield subcode via a norm diagonal.

Every verifier builds its codes from deg g^j and the values g(a_i)^j
(``goppa.goppa_power_codes``), never from g^j itself: the smallest power's
as an alternant code, each larger one by restricting the one before, all
in canonical form, so equal codes are identical arrays; the Reed-Solomon
side of ``rs_equivalence`` is an alternant code too. A
verifier raises :class:`FalsificationError` when an identity that should
hold does not; bad inputs raise ValueError instead. A chain or Sugiyama
check whose top power has degree over ``goppa.SPEC_POWER_DEGREE_BUDGET``
raises BudgetExceeded before any code is built.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Sequence

from .codes import LinearCode, alternant_kernel
from .errors import FalsificationError
from .gf import Field
from .goppa import GoppaSpec, goppa_power_codes, require_power_degree
from .goppa import support_codes
from .poly import Polynomial, charge_gcd, count_distinct_roots, gcd, is_squarefree

__all__ = [
    "IdentityReport",
    "wild_exponent",
    "verify_theorem1",
    "dimension_gap",
    "verify_chain",
    "verify_sugiyama",
    "verify_coprime_factor_chain",
    "rs_equivalence",
]


def wild_exponent(field: Field) -> int:
    """e = q^(m-1) + ... + q, one less than the norm exponent."""
    return field.norm_exponent - 1


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity verification.

    ``exponents`` are the tested powers of the base polynomial, ``dims`` the
    corresponding code dimensions, ``equal`` the consecutive equality
    verdicts (length one less than ``exponents``), ``gap`` the dimension
    drop across the tested range, ``distinct_roots`` the number of distinct
    roots of the base polynomial in the top field.
    """

    q: int
    m: int
    t: int
    n: int
    exponents: tuple[int, ...]
    dims: tuple[int, ...]
    equal: tuple[bool, ...]
    gap: int
    distinct_roots: int
    elapsed: float
    note: str = ""


def _report(
    field: Field,
    support: Sequence,
    g: Polynomial,
    exponents: Sequence[int],
    r: int,
    t0: float,
    cofactor: Polynomial | None = None,
) -> IdentityReport:
    """Build the codes for h * g^j, j in the exponents (h the cofactor,
    default 1), and report on them."""
    spec = GoppaSpec(field, support, g)
    codes = goppa_power_codes(spec, exponents, cofactor)
    dims = tuple(c.k for c in codes)
    return IdentityReport(
        q=field.q,
        m=field.m,
        t=int(g.degree),
        n=spec.n,
        exponents=tuple(int(j) for j in exponents),
        dims=dims,
        equal=tuple(codes[i] == codes[i + 1] for i in range(len(codes) - 1)),
        gap=dims[0] - dims[-1],
        distinct_roots=r,
        elapsed=time.monotonic() - t0,
    )


def verify_theorem1(field: Field, support: Sequence, g: Polynomial) -> IdentityReport:
    """Check that the codes for g^e and g^(e+1) coincide.

    Requires g to have no roots in the top field; use :func:`dimension_gap`
    for polynomials with roots.
    """
    t0 = time.monotonic()
    r = count_distinct_roots(g)
    if r != 0:
        raise ValueError(
            f"base polynomial has {r} distinct roots in the top field; "
            "the equality only holds for rootless g (see dimension_gap)"
        )
    e = wild_exponent(field)
    rep = _report(field, support, g, (e, e + 1), r, t0)
    if not all(rep.equal):
        raise FalsificationError(
            f"wild equality failed: q={field.q} m={field.m} "
            f"g={g!r} support={tuple(support)!r} dims={rep.dims}"
        )
    return rep


def dimension_gap(field: Field, support: Sequence, g: Polynomial) -> IdentityReport:
    """Check dim drop between the g^e and g^(e+1) codes is at most the
    number of distinct roots of g in the top field.

    Roots of g must still avoid the support. For rootless g the gap must be
    zero (that case degenerates to the equality).
    """
    t0 = time.monotonic()
    r = count_distinct_roots(g)
    e = wild_exponent(field)
    rep = _report(field, support, g, (e, e + 1), r, t0)
    if rep.gap > r:
        raise FalsificationError(
            f"dimension gap {rep.gap} exceeds distinct-root count {r}: "
            f"q={field.q} m={field.m} g={g!r} support={tuple(support)!r}"
        )
    return rep


def verify_chain(
    field: Field, support: Sequence, h: Polynomial, s: int = 1
) -> IdentityReport:
    """Check the chain of equal codes for exponents s*e .. s*(e+1) of a
    rootless h, extended to s*e - 1 when h is squarefree."""
    t0 = time.monotonic()
    if s < 1:
        raise ValueError("s must be >= 1")
    r = count_distinct_roots(h)
    if r != 0:
        raise ValueError("chain verification needs a rootless base polynomial")
    e = wild_exponent(field)
    # charged before the gcd of is_squarefree, which is quadratic in deg h
    require_power_degree(f"g^{s * (e + 1)}", int(h.degree) * s * (e + 1))
    lo = s * e - 1 if is_squarefree(h) else s * e
    exponents = tuple(range(lo, s * (e + 1) + 1))
    rep = _report(field, support, h, exponents, r, t0)
    if not all(rep.equal):
        first_bad = rep.equal.index(False)
        raise FalsificationError(
            f"chain equality failed between exponents "
            f"{exponents[first_bad]} and {exponents[first_bad + 1]}: "
            f"q={field.q} m={field.m} s={s} h={h!r} dims={rep.dims}"
        )
    return rep


def verify_sugiyama(
    field: Field, support: Sequence, g: Polynomial, s: int = 1
) -> bool:
    """Check the repeated-root identity: for squarefree g with no roots on
    the support, the codes for g^(s*q - 1) and g^(s*q) coincide."""
    if s < 1:
        raise ValueError("s must be >= 1")
    q = field.q
    require_power_degree(f"g^{s * q}", int(g.degree) * s * q)
    if not is_squarefree(g):
        raise ValueError("identity needs a squarefree base polynomial")
    # roots off the support are allowed and not counted; only equal is read
    rep = _report(field, support, g, (s * q - 1, s * q), -1, time.monotonic())
    if not all(rep.equal):
        raise FalsificationError(
            f"repeated-root equality failed: q={q} m={field.m} s={s} "
            f"g={g!r} support={tuple(support)!r} dims={rep.dims}"
        )
    return True


def verify_coprime_factor_chain(
    field: Field, support: Sequence, g: Polynomial, h: Polynomial
) -> IdentityReport:
    """Check h*g^(e-1), h*g^e, h*g^(e+1) give equal codes, for rootless g
    and a cofactor h coprime to g with no roots on the support.

    The e/e+1 link is a consequence of the core equality and the CRT split,
    so its failure raises. The e-1 link genuinely needs g squarefree; when
    it fails for non-squarefree g the report carries a note instead of an
    exception, since the general claim is suspected to be a typo for the
    squarefree case. The gcd(g, h) is charged max(deg g, deg h)^2 table
    lookups first, and refused over IRREDUCIBLE_CELL_BUDGET.
    """
    t0 = time.monotonic()
    r = count_distinct_roots(g)
    if r != 0:
        raise ValueError("cofactor chain needs a rootless base polynomial")
    charge_gcd(int(max(g.degree, h.degree)),
               f"gcd of degree-{g.degree} and degree-{h.degree} polynomials")
    if gcd(g, h).degree != 0:
        raise ValueError("cofactor must be coprime to the base polynomial")
    e = wild_exponent(field)
    rep = _report(field, support, g, (e - 1, e, e + 1), r, t0, cofactor=h)
    if not rep.equal[1]:
        raise FalsificationError(
            f"cofactor chain failed on the e/e+1 link: q={field.q} "
            f"m={field.m} g={g!r} h={h!r} dims={list(rep.dims)}"
        )
    if rep.equal[0]:
        return rep
    if is_squarefree(g):
        raise FalsificationError(
            f"cofactor chain failed on the e-1/e link for squarefree g: "
            f"q={field.q} m={field.m} g={g!r} h={h!r}"
        )
    return replace(rep, note=(
        "left link (exponent e-1) failed; statement suspected to be a "
        "typo for squarefree bases"
    ))


def rs_equivalence(field: Field, support: Sequence, g: Polynomial) -> bool:
    """Check the norm-diagonal equivalence with a Reed-Solomon subcode.

    For monic rootless g of degree t with k = q^m - t*(e+1) >= 1, the code
    for g^(e+1) on the full support equals the coordinate-wise product of
    N(g(a_i)) with the F_q-restriction of the Reed-Solomon code of dimension
    k on the full support. That restriction is the alternant code of the
    rows a^l, l < q^m - k, since the dual of RS_k on all of F_(q^m) is
    RS_(q^m - k); on any support L it is read on L directly, which is the
    shortening of both sides to L, in L's order.
    """
    L = support_codes(field, support)
    g = g.monic()
    t = int(g.degree)
    if t < 1:
        raise ValueError("base polynomial must have degree >= 1")
    r = count_distinct_roots(g)
    if r != 0:
        raise ValueError("equivalence needs a rootless base polynomial")
    e1 = field.norm_exponent
    k = field.order - t * e1
    if k < 1:
        raise ValueError(
            f"Reed-Solomon dimension q^m - t*(e+1) = {k} is not positive"
        )

    spec = GoppaSpec(field, L, g)
    (gamma,) = goppa_power_codes(spec, (e1,))

    rs_sub = alternant_kernel(field, L, 1, field.order - k)
    # apply the norm diagonal N(g(a_i)) to the RS side
    sub = field.subfield
    norms = field.norm_table[spec.goppa_values]
    mapped = LinearCode(sub, len(L), sub.mul_table[rs_sub.generator, norms])
    if mapped != gamma:
        raise FalsificationError(
            f"norm-diagonal equivalence failed: q={field.q} m={field.m} "
            f"t={t} k={k} support length {len(L)}"
        )
    return True
