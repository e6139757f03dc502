"""Constructive checks for the trace-space decomposition behind the wild identity.

Everything here works with explicit F_q-bases of polynomial spaces over the
top field.  A polynomial of degree < D over F_{q^m} flattens to a vector of
length m*D over F_q (coefficient-major, coordinate-minor), linear algebra
happens in linalg, and each verification either returns a report or raises
FalsificationError with the offending witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import BudgetExceeded, FalsificationError
from .gf import Field, FieldElement, digits
from .linalg import MatrixGF, rank, reduce_row, rref
from .poly import (
    Polynomial,
    QuotientRing,
    count_distinct_roots,
    irreducible_power,
    is_irreducible,
)
from .goppa import full_support

__all__ = [
    "flatten_poly",
    "FqSubspace",
    "tau",
    "mu_generators",
    "build_K",
    "KReport",
    "verify_K_properties",
    "startkey_search",
    "DecompositionReport",
    "find_decomposition",
    "DualSpanReport",
    "verify_dual_reformulation",
    "TraceKernelReport",
    "verify_trace_kernel_mod",
]

# Cells of the stacked K + g*F matrix that verify_K_properties row-reduces.
# The largest instance in the tests and the benchmark, q = 2, m = 6, t = 2,
# is 755 x 756; q = 2, m = 10, t = 2 would be about 4.2e8.
K_STACK_CELL_BUDGET = 4_000_000


def flatten_poly(f: Polynomial, degree_bound: int) -> np.ndarray:
    """Flatten f (degree < degree_bound) to a vector over the base subfield.

    Slot l*m + j holds coordinate j of coefficient l, so coefficients are
    laid out contiguously and each expands into its m tower coordinates.
    """
    field = f.field
    if f.coeffs and len(f.coeffs) > degree_bound:
        raise ValueError(
            f"degree {f.degree} does not fit below bound {degree_bound}"
        )
    coeffs = np.zeros(degree_bound, dtype=np.int64)
    coeffs[: len(f.coeffs)] = f.coeffs
    digits = coeffs[:, None] // field.q ** np.arange(field.m) % field.q
    return digits.ravel().astype(np.int16)


@dataclass(frozen=True)
class FqSubspace:
    """An F_q-subspace of F_{q^m}[x]_{<degree_bound}, held as an RREF basis."""

    field: Field
    degree_bound: int
    basis: MatrixGF
    pivots: tuple

    @classmethod
    def from_polys(cls, field: Field, degree_bound: int,
                   polys: Iterable[Polynomial]) -> "FqSubspace":
        rows = [flatten_poly(f, degree_bound) for f in polys]
        if not rows:
            rows = [np.zeros(degree_bound * field.m, dtype=np.int16)]
        mat = MatrixGF(field.subfield, np.array(rows, dtype=np.int16))
        res = rref(mat)
        keep = res.matrix.array[: res.rank] if res.rank else res.matrix.array[:0]
        basis = MatrixGF(field.subfield, keep.reshape(res.rank, degree_bound * field.m))
        return cls(field, degree_bound, basis, tuple(res.pivots))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    @property
    def ambient_dim(self) -> int:
        return self.degree_bound * self.field.m

    def contains(self, f: Polynomial) -> bool:
        vec = flatten_poly(f, self.degree_bound)
        resid = reduce_row(self.basis, self.pivots, vec)
        return not resid.any()


def tau(field: Field, support: Sequence[int], f: Polynomial) -> np.ndarray:
    # trace-of-evaluation map; rows of its image span dual-side code spaces
    if f.field != field:
        raise ValueError("polynomial is defined over a different field")
    pts = np.asarray(support, dtype=np.int64)
    vals = f.evaluate_codes(pts)
    return field.trace_table[vals].astype(np.int16)


def mu_generators(field: Field, t: int) -> list:
    """Images mu(z^j x^l) = (z^j x^l)^q - z^j x^l for j < m, l < t.

    These span the image of a -> a^q - a on F_{q^m}[x]_{<t} because mu is
    q-semilinear in the coefficient and multiplicative pieces split.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    q = field.q
    gens = []
    for j in range(field.m):
        zj = field.gen**j
        zj_q = int(field.frobenius_table[zj.code])
        for l in range(t):
            coeffs = {q * l: zj_q}
            low = coeffs.get(l, 0)
            coeffs[l] = int(field.add_table[low, field.neg_table[zj.code]])
            deg = max(coeffs)
            dense = [0] * (deg + 1)
            for pos, code in coeffs.items():
                dense[pos] = code
            gens.append(Polynomial(field, dense))
    return gens


def build_K(field: Field, t: int, degree_bound: Optional[int] = None) -> FqSubspace:
    """Span of mu over F_{q^m}[x]_{<t}, flattened below degree_bound.

    Defaults the ambient bound to (e+1)*t, the space the decomposition
    lives in.  Generators have degree <= q*(t-1), which always fits.
    """
    if degree_bound is None:
        degree_bound = field.norm_exponent * t
    if degree_bound < field.q * (t - 1) + 1:
        raise ValueError(
            f"degree bound {degree_bound} cannot hold mu images for t={t}"
        )
    return FqSubspace.from_polys(field, degree_bound, mu_generators(field, t))


def _multiples_of(g: Polynomial, count: int) -> list:
    """g * z^j x^l for j < m, l < count: an F_q-basis of g*F[x]_{<count}."""
    field = g.field
    out = []
    for l in range(count):
        shifted = g * Polynomial.monomial(field, l)
        for j in range(field.m):
            zj = field.gen**j
            out.append(shifted.scale(zj.code))
    return out


def _require_prime_power_factor(g: Polynomial):
    decomp = irreducible_power(g.monic())
    if decomp is None:
        raise ValueError(
            "polynomial must be a power of a single irreducible"
        )
    return decomp


def _require_trace_zero_unit(field: Field, lam: FieldElement) -> FieldElement:
    if isinstance(lam, int):
        lam = field.element(lam)
    if lam.field != field:
        raise ValueError("lambda must live in the top field")
    if lam.code == 0:
        raise ValueError("lambda must be nonzero")
    if int(field.trace_table[lam.code]) != 0:
        raise ValueError("lambda must have trace zero")
    return lam


def _ring_abs_trace(ring: QuotientRing, w: Polynomial) -> int:
    """Absolute trace of w in F[x]/(h) down to the prime-level subfield F_q.

    Sums the q-power orbit of length m*r; the result must be a constant
    with a subfield code, which is what gets returned.
    """
    field = ring.field
    q = field.q
    steps = field.m * int(ring.modulus.degree)
    acc = w
    cur = w
    for _ in range(steps - 1):
        cur = ring.pow(cur, q)
        acc = acc + cur
    if len(acc.coeffs) > 1:
        raise FalsificationError(
            f"absolute trace produced a non-constant residue {acc.coeffs}"
        )
    code = acc.coeffs[0] if acc.coeffs else 0
    if code >= q:
        raise FalsificationError(
            f"absolute trace landed outside the subfield: code {code}"
        )
    return code


def _reduced_trace_kernel_dim(ring: QuotientRing, gens: Sequence[Polynomial]) -> int:
    """Reduce the mu generators mod h and check that they fill the kernel of
    the absolute trace on F[x]/(h): each residue has trace zero and together
    they span m*r - 1 dimensions. Returns that dimension."""
    field = ring.field
    r = ring.degree
    reduced = [ring.reduce(f) for f in gens]
    for f in reduced:
        if _ring_abs_trace(ring, f) != 0:
            raise FalsificationError(
                f"K residue {f.coeffs} mod base factor has nonzero trace"
            )
    rows = np.array([flatten_poly(f, r) for f in reduced], dtype=np.int16)
    dim = rank(MatrixGF(field.subfield, rows))
    if dim != field.m * r - 1:
        raise FalsificationError(
            f"K mod base factor has dim {dim}, expected {field.m * r - 1}"
        )
    return dim


@dataclass(frozen=True)
class KReport:
    """Outcome of the structural checks on K = im(a -> a^q - a)."""

    q: int
    m: int
    t: int
    base_degree: int
    power: int
    dim_K: int
    dim_gF: int
    dim_sum: int
    dim_K_mod_base: int
    tau_vanishes: bool


def verify_K_properties(field: Field, g: Polynomial) -> KReport:
    """Check the three pillars that make K usable against g = h^s.

    (I) tau kills every element of K on the full evaluation set, since
        trace(y^q - y) = 0 pointwise.
    (II) K meets g*F[x]_{<e t} trivially: the stacked rank is the sum of
        the individual ranks.
    (III) dim K = m t - 1, and reducing K mod h fills the full trace-zero
        hyperplane of F[x]/(h), of dimension m r - 1.

    Raises FalsificationError when any pillar fails, and BudgetExceeded
    before any work when the stacked K + g*F matrix, (m t - 1 + m e t) rows
    by m (e+1) t columns, has more than K_STACK_CELL_BUDGET cells.
    """
    g = g.monic()
    h, s = _require_prime_power_factor(g)
    t = int(g.degree)
    r = int(h.degree)
    m = field.m
    e1 = field.norm_exponent
    D = e1 * t
    rows = m * t - 1 + m * (e1 - 1) * t
    if rows * m * D > K_STACK_CELL_BUDGET:
        raise BudgetExceeded(
            f"K + g*F would be a {rows} x {m * D} matrix, over the budget "
            f"of {K_STACK_CELL_BUDGET} cells"
        )
    K = build_K(field, t, D)
    if K.dim != m * t - 1:
        raise FalsificationError(
            f"dim K = {K.dim}, expected {m * t - 1} for q={field.q} m={m} t={t}"
        )

    support = full_support(field)
    gens = mu_generators(field, t)
    tau_ok = all(not tau(field, support, f).any() for f in gens)
    if not tau_ok:
        bad = next(f for f in gens if tau(field, support, f).any())
        raise FalsificationError(
            f"tau does not vanish on K generator with coeffs {bad.coeffs}"
        )

    g_mults = _multiples_of(g, (e1 - 1) * t)
    g_rows = np.array([flatten_poly(f, D) for f in g_mults], dtype=np.int16)
    dim_gF = rank(MatrixGF(field.subfield, g_rows))
    stacked = MatrixGF.vstack([
        MatrixGF(field.subfield, K.basis.array),
        MatrixGF(field.subfield, g_rows),
    ])
    dim_sum = rank(stacked)
    if dim_sum != K.dim + dim_gF:
        raise FalsificationError(
            f"K intersects g*F: rank {dim_sum} < {K.dim} + {dim_gF}"
        )

    dim_mod = _reduced_trace_kernel_dim(QuotientRing(h), gens)

    return KReport(
        q=field.q, m=m, t=t, base_degree=r, power=s,
        dim_K=int(K.dim), dim_gF=int(dim_gF), dim_sum=int(dim_sum),
        dim_K_mod_base=int(dim_mod), tau_vanishes=bool(tau_ok),
    )


def startkey_search(field: Field, h: Polynomial, lam) -> Polynomial:
    """First residue alpha mod h whose twisted norm has nonzero trace.

    h must be irreducible of degree r >= 2 over the top field and lam a
    nonzero trace-zero element.  Scans F[x]/(h) in code order for alpha
    with absolute trace of lam * alpha^(e+1) nonzero; exhausting the ring
    without a hit falsifies the existence claim, so that raises.

    Degree 1 is rejected: there alpha^(e+1) is a subfield norm and the
    trace factors through trace(lam) = 0, so no witness can exist.
    """
    lam = _require_trace_zero_unit(field, lam)
    h = h.monic()
    if not is_irreducible(h):
        raise ValueError("modulus must be irreducible over the top field")
    r = int(h.degree)
    if r < 2:
        raise ValueError(
            "witness search needs degree >= 2; degree 1 cannot succeed"
        )
    ring = QuotientRing(h)
    lam_poly = Polynomial.constant(field, lam.code)
    e1 = field.norm_exponent
    for idx in range(ring.size):
        alpha = ring.element_at(idx)
        w = ring.mul(lam_poly, ring.pow(alpha, e1))
        if _ring_abs_trace(ring, w) != 0:
            return alpha
    raise FalsificationError(
        f"no witness in a ring of size {ring.size} for q={field.q} m={field.m} "
        f"r={r} lambda={lam.code}"
    )


@dataclass(frozen=True)
class DecompositionReport:
    """Bookkeeping for F[x]_{<(e+1)t} = K + span(lam*a^(e+1)) + g*F[x]_{<et}."""

    q: int
    m: int
    t: int
    lam: int
    ambient_dim: int
    dim_K: int
    dim_gF: int
    candidate_index: int
    witness_coeffs: tuple
    ring_trace: int
    tau_vanishes: bool


def find_decomposition(field: Field, g: Polynomial, lam):
    """Search the witness a making K, lam*a^(e+1), g*F[x]_{<et} a direct sum.

    g must be a rootless power of an irreducible; candidates a run over
    F_{q^m}[x]_{<t} in index order and the first one whose flattened
    lam*a^(e+1) falls outside K + g*F[x]_{<et} wins.  The hit is
    cross-checked two ways: its residue mod the base factor must have
    nonzero absolute trace (the one-functional criterion), and tau must
    kill it on the full evaluation set.  Returns (a, report).
    """
    g = g.monic()
    lam = _require_trace_zero_unit(field, lam)
    h, s = _require_prime_power_factor(g)
    r = int(h.degree)
    if r < 2:
        raise ValueError(
            "decomposition needs a rootless polynomial; base factor is linear"
        )
    t = int(g.degree)
    m = field.m
    e1 = field.norm_exponent
    D = e1 * t
    ambient = m * D

    K = build_K(field, t, D)
    if K.dim != m * t - 1:
        raise FalsificationError(
            f"dim K = {K.dim}, expected {m * t - 1}"
        )
    g_rows = np.array(
        [flatten_poly(f, D) for f in _multiples_of(g, (e1 - 1) * t)],
        dtype=np.int16,
    )
    stacked = MatrixGF.vstack([
        MatrixGF(field.subfield, K.basis.array),
        MatrixGF(field.subfield, g_rows),
    ])
    res = rref(stacked)
    dim_gF = m * (e1 - 1) * t
    if res.rank != K.dim + dim_gF:
        raise FalsificationError(
            f"K + g*F has rank {res.rank}, expected {K.dim + dim_gF}"
        )
    W = MatrixGF(field.subfield, res.matrix.array[: res.rank])
    pivots = tuple(res.pivots)

    ring = QuotientRing(h)
    lam_poly = Polynomial.constant(field, lam.code)
    support = full_support(field)
    total = field.order**t
    for idx in range(total):
        a = Polynomial(field, digits(idx, field.order, t))
        w = lam_poly * a**e1
        vec = flatten_poly(w, D)
        resid = reduce_row(W, pivots, vec)
        if not resid.any():
            continue
        tr = _ring_abs_trace(ring, ring.reduce(w))
        if tr == 0:
            raise FalsificationError(
                "independent witness has zero trace mod the base factor; "
                f"candidate index {idx}"
            )
        image = tau(field, support, w)
        if image.any():
            raise FalsificationError(
                f"tau does not vanish on the witness; candidate index {idx}"
            )
        report = DecompositionReport(
            q=field.q, m=m, t=t, lam=lam.code,
            ambient_dim=int(ambient), dim_K=int(K.dim), dim_gF=int(dim_gF),
            candidate_index=idx, witness_coeffs=tuple(a.coeffs),
            ring_trace=int(tr), tau_vanishes=True,
        )
        return a, report
    raise FalsificationError(
        f"no decomposition witness among {total} candidates for "
        f"q={field.q} m={m} t={t} lambda={lam.code}"
    )


@dataclass(frozen=True)
class DualSpanReport:
    """Comparison of tau images of F[x]_{<(e+1)t} and g*F[x]_{<et}."""

    q: int
    m: int
    t: int
    n: int
    dim_full: int
    dim_multiples: int
    gap: int
    equal: bool


def verify_dual_reformulation(field: Field, support: Sequence[int],
                              g: Polynomial) -> DualSpanReport:
    """Compare the tau images whose equality rephrases the wild identity.

    For rootless g the spans must coincide and any gap falsifies the
    reformulation.  For a power of a linear factor the gap may be 0 or 1;
    anything larger falsifies.  Other shapes are reported without
    judgement.
    """
    g = g.monic()
    if not support:
        raise ValueError("support must be nonempty")
    roots_on = [p for p in support if g.evaluate_codes(np.array([p]))[0] == 0]
    if roots_on:
        raise ValueError(f"support meets roots of g at codes {roots_on}")
    t = int(g.degree)
    m = field.m
    e1 = field.norm_exponent
    D = e1 * t
    z_codes = [(field.gen**j).code for j in range(m)]
    full_gens = [
        Polynomial.monomial(field, l, c) for l in range(D) for c in z_codes
    ]
    mult_gens = _multiples_of(g, (e1 - 1) * t)
    A = MatrixGF(field.subfield,
                 np.array([tau(field, support, f) for f in full_gens],
                          dtype=np.int16))
    B = MatrixGF(field.subfield,
                 np.array([tau(field, support, f) for f in mult_gens],
                          dtype=np.int16))
    dim_full = rank(A)
    dim_mult = rank(B)
    report = DualSpanReport(
        q=field.q, m=m, t=t, n=len(support),
        dim_full=int(dim_full), dim_multiples=int(dim_mult),
        gap=int(dim_full - dim_mult), equal=bool(dim_full == dim_mult),
    )
    decomp = irreducible_power(g)
    rootless = count_distinct_roots(g) == 0
    if rootless and not report.equal:
        raise FalsificationError(
            f"tau spans differ for rootless g: {dim_full} vs {dim_mult}"
        )
    if decomp is not None and int(decomp[0].degree) == 1 and report.gap > 1:
        raise FalsificationError(
            f"tau span gap {report.gap} > 1 for a linear-factor power"
        )
    return report


@dataclass(frozen=True)
class TraceKernelReport:
    """Reduction of K mod an irreducible factor against the trace kernel."""

    q: int
    m: int
    r: int
    power: int
    dim_reduced: int
    expected: int
    trace_surjective: bool


def verify_trace_kernel_mod(field: Field, h: Polynomial,
                            power: int = 1) -> TraceKernelReport:
    """Check K for t = power*deg(h) reduces onto the trace kernel mod h.

    Every reduced generator must have absolute trace zero and together
    they must span m*r - 1 dimensions, exactly the kernel of the (checked
    surjective) absolute trace on F[x]/(h).
    """
    h = h.monic()
    if not is_irreducible(h):
        raise ValueError("modulus must be irreducible over the top field")
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    r = int(h.degree)
    ring = QuotientRing(h)
    dim_reduced = _reduced_trace_kernel_dim(ring, mu_generators(field, power * r))
    surjective = any(
        _ring_abs_trace(ring, ring.element_at(i)) != 0 for i in range(ring.size)
    )
    if not surjective:
        raise FalsificationError("absolute trace vanished on the whole ring")
    return TraceKernelReport(
        q=field.q, m=field.m, r=r, power=power,
        dim_reduced=int(dim_reduced), expected=field.m * r - 1,
        trace_surjective=bool(surjective),
    )
