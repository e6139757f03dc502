"""Cyclotomic classes modulo q^m - 1 and dimension formulas.

The dimension of the codes built from g^(e+1) (g rootless of degree t,
e + 1 = (q^m - 1)/(q - 1)) depends only on (q, m, t) and the support
length, and can be computed without building any matrix: the F_q-dimension
of the underlying Reed-Solomon subfield subcode is governed by how the
multiplication-by-q classes modulo q^m - 1 meet the exponent window
A = {0, ..., t*(e+1) - 1}.

``class_sum_dim`` implements that count; ``closed_form`` gives the closed
polynomial expressions available for m = 2 and m = 3. The canonical support
length is q^m for t >= 2 and q^m - 1 for t = 1 (a degree-1 g always has its
root in the top field, so the full support is out of reach there).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import BudgetExceeded
from .gf import prime_factors

__all__ = [
    "CyclotomicClass",
    "ClassDecomposition",
    "cyclotomic_classes",
    "norm_exponent",
    "default_length",
    "class_sum_dim",
    "closed_form",
]

# Largest modulus q^m - 1 whose classes are enumerated, one table entry per
# residue; q = 2, m = 22 is just under it and takes seconds.
CLASS_MODULUS_BUDGET = 1 << 22


def _validate_qm(q: int, m: int) -> None:
    """ValueError unless m >= 2 and q is a prime power. Trial division of q
    tests divisors up to sqrt(q) < 2^(bits of q / 2), so q is sized from its
    bit length first: BudgetExceeded, unfactored, when that bound passes
    CLASS_MODULUS_BUDGET divisors."""
    if m < 2:
        raise ValueError(f"need a proper extension m >= 2, got m={m}")
    if q.bit_length() > 2 * (CLASS_MODULUS_BUDGET.bit_length() - 1):
        raise BudgetExceeded(
            f"q = {q} is not factored: trial division to its square root "
            f"would test over CLASS_MODULUS_BUDGET = {CLASS_MODULUS_BUDGET} divisors"
        )
    if len(prime_factors(q)) != 1:
        raise ValueError(f"q must be a prime power, got {q}")


def _charge_modulus(base: int, e: int) -> None:
    """BudgetExceeded when the class modulus base^e - 1 exceeds
    CLASS_MODULUS_BUDGET, judged before base is factored: base^e is at
    least 2^((bits of base - 1) e) and is formed only when that bound is at
    most 2^64. A base or exponent below 2 is left to the input checks."""
    if base < 2 or e < 2:
        return
    power = base**e if (base.bit_length() - 1) * e <= 64 else None
    if power is None or power - 1 > CLASS_MODULUS_BUDGET:
        modulus = f"{base}^{e} - 1" if power is None else power - 1
        raise BudgetExceeded(
            f"classes modulo {modulus} exceed the budget of "
            f"{CLASS_MODULUS_BUDGET} residues"
        )


def norm_exponent(q: int, m: int) -> int:
    """e + 1 = (q^m - 1)/(q - 1)."""
    _validate_qm(q, m)
    return (q**m - 1) // (q - 1)


def default_length(q: int, m: int, t: int) -> int:
    """Canonical support length: q^m for t >= 2, q^m - 1 for t = 1."""
    return q**m if t >= 2 else q**m - 1


@dataclass(frozen=True)
class CyclotomicClass:
    """One orbit of multiplication by q on the residues modulo q^m - 1."""

    rep: int                      # smallest member
    members: tuple[int, ...]      # sorted ascending
    size: int

    def window_count(self, bound: int) -> int:
        """How many members are < bound."""
        return bisect_left(self.members, bound)


@dataclass(frozen=True)
class ClassDecomposition:
    q: int
    m: int
    modulus: int                  # q^m - 1
    classes: tuple[CyclotomicClass, ...]


def cyclotomic_classes(q: int, m: int) -> ClassDecomposition:
    """All multiplication-by-q classes modulo q^m - 1, reps ascending;
    BudgetExceeded before any work when q^m - 1 > CLASS_MODULUS_BUDGET."""
    _charge_modulus(q, m)
    _validate_qm(q, m)
    modulus = q**m - 1
    seen = [False] * modulus
    out = []
    for b in range(modulus):
        if seen[b]:
            continue
        members = []
        x = b
        while not seen[x]:
            seen[x] = True
            members.append(x)
            x = (x * q) % modulus
        members.sort()
        out.append(CyclotomicClass(rep=members[0], members=tuple(members), size=len(members)))
    return ClassDecomposition(q=q, m=m, modulus=modulus, classes=tuple(out))


def class_sum_dim(q: int, m: int, t: int, n: int | None = None) -> int:
    """Dimension of the degree-t norm-power code by the class-sum count.

    For every class I_b meeting the window A = {0, ..., t*(e+1) - 1} the
    count m*(|I_b intersect A| - 1) + m - |I_b| is added to n - m*t*(e+1).
    Valid for t*(e+1) <= q^m - 1 and n at least the parity rank
    m*t*(e+1) minus those counts; n defaults to the canonical length.
    BudgetExceeded, before any other check, when the classes are over
    budget (see cyclotomic_classes).
    """
    _charge_modulus(q, m)
    _validate_qm(q, m)
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    e1 = norm_exponent(q, m)
    D = t * e1
    if D > q**m - 1:
        raise ValueError(
            f"window t*(e+1) = {D} exceeds the residue ring modulo {q**m - 1}"
        )
    n = _support_length(q, m, t, n)
    total = 0
    for cls in cyclotomic_classes(q, m).classes:
        cnt = cls.window_count(D)
        if cnt:
            total += m * (cnt - 1) + m - cls.size
    return _dimension(n, m * D - total)


def closed_form(q: int, m: int, t: int, n: int | None = None) -> int:
    """Closed-form dimension for m = 2 (2 <= t <= q-2) and m = 3
    (1 <= t <= q-1); other parameter ranges raise ValueError."""
    _validate_qm(q, m)
    n = _support_length(q, m, t, n)
    if m == 2:
        if not 2 <= t <= q - 2:
            raise ValueError(f"m=2 closed form needs 2 <= t <= q-2, got t={t}")
        return _dimension(n, 2 * t * (q + 1) - t * (t + 2))
    if m == 3:
        if not 1 <= t <= q - 1:
            raise ValueError(f"m=3 closed form needs 1 <= t <= q-1, got t={t}")
        return _dimension(
            n,
            3 * t * (q * q + q + 1)
            - 2 * t
            - 2 * t * (t + 1) * (t + 2)
            - 3 * (q - 1 - t) * t * (t + 1),
        )
    raise ValueError(f"no closed form for m={m}; use class_sum_dim")


def _support_length(q: int, m: int, t: int, n: int | None) -> int:
    """n, by default the canonical length; ValueError outside 1 <= n <= q^m."""
    if n is not None and not 1 <= n <= q**m:
        raise ValueError(f"support length {n} out of range")
    return default_length(q, m, t) if n is None else n


def _dimension(n: int, rank: int) -> int:
    """n - rank for a parity check of the given rank; ValueError when the
    support is shorter than that rank, where the count would go negative."""
    if n < rank:
        raise ValueError(f"support length {n} is below the parity rank {rank}")
    return n - rank
