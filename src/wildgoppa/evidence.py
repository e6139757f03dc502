"""Constructive checks for the trace-space decomposition behind the wild identity.

A polynomial of degree < D over F_{q^m} flattens to a vector of length m*D
over F_q (coefficient-major, coordinate-minor), so K = im(a -> a^q - a) is
a LinearCode over F_q.  Since F[x]_{<(e+1)t} = F[x]_{<t} + g*F[x]_{<et},
the functional whose kernel is K + g*F[x]_{<et} only sees residues mod g:
it is psi, the one functional on F[x]/(g) that kills K mod g, found from
the m*t generators of K alone.  The tau spans are trace codes of the
rows mult(a_i) a_i^l, each of dimension n minus that of the alternant code
of the same rows (codes.alternant_kernel), as Tr(C)^perp = C^perp
restricted to F_q (Delsarte 1975).  Each verification returns a report or
raises FalsificationError with the offending witness.

The absolute trace of F[x]/(h) to F_q is F_q-linear: each check that needs
it sums q-power orbits only for the m*deg(h) basis residues z^j x^l, once,
and the trace of any residue is the F_q dot product of that trace form
with the residue flattened below deg(h), one product with the form.

Both witness searches test a form on lam * a^N mod a modulus, N = 1 + q +
... + q^(m-1): psi mod g in find_decomposition, the trace form mod h in
startkey_search.  In characteristic p, a^(q^i) is a with each coefficient
raised to q^i (the field's Frobenius table) and x sent to x^(q^i), so a^N
is the product of the m Frobenius images, formed for a whole chunk of
candidates at once by products with the table of x^(l q) mod the modulus
(poly._power_rows), the same q-power map that sums the trace form's
orbits.  On a coset a0 + span of n basis residues (n F_q-digits of the
index) the test is a form of degree m, so a certificate on (n + 1)^m
tuples decides whether it holds a witness (_holds_witness), and one
search walks such cosets in index order, scanning, passing or entering
each (_first_witness): the first hit is the one a candidate-by-candidate
scan finds, within WITNESS_SCAN_BUDGET candidates plus tuples.
Every matrix product is linalg.matmul.

The checks of one run share what they derive, each cached per modulus:
the split g = h^s (_split_power), the irreducibility of h
(_require_irreducible), the q-power table of each modulus
(_ring_frobenius), the trace form of F[x]/(h) (_trace_form), (K, psi)
for g (_K_plus_gF) and the trace-kernel report of (h, s)
(verify_trace_kernel_mod, which is pillar III of verify_K_properties).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .codes import LinearCode, alternant_kernel
from .errors import BudgetExceeded, FalsificationError
from .gf import Field, digit_array, digits, element_code
from .linalg import MatrixGF, charge_elimination, kernel, matmul, rank
from .poly import (
    _FIRST_CHUNK,
    Polynomial,
    _adder,
    _candidate_chunks,
    _fold_mod,
    _power_rows,
    batch_mul_mod,
    count_distinct_roots,
    irreducible_power,
    is_irreducible,
)
from .goppa import full_support, support_codes

__all__ = [
    "flatten_poly",
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

# Work one witness search may do before it raises BudgetExceeded: candidates
# scanned plus certificate tuples, each charged before its work.
WITNESS_SCAN_BUDGET = 2**18


def _flatten_codes(field: Field, codes: np.ndarray) -> np.ndarray:
    """Tower coordinates of the codes on the last axis: (..., D) codes to
    (..., m*D) F_q digits, slot l*m + j holding coordinate j of codes[..., l]."""
    coords = digit_array(codes, field.q, field.m).astype(np.int16, order="C")
    return coords.reshape(*codes.shape[:-1], -1)


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
    coeffs = np.zeros(degree_bound, dtype=np.int16)
    coeffs[: len(f.coeffs)] = f.coeffs
    return _flatten_codes(field, coeffs)


def tau(field: Field, support: Sequence[int], f: Polynomial) -> np.ndarray:
    # trace-of-evaluation map; rows of its image span dual-side code spaces
    if f.field != field:
        raise ValueError("polynomial is defined over a different field")
    pts = np.asarray(support, dtype=np.int64)
    vals = f.evaluate_codes(pts)
    return field.trace_table[vals].astype(np.int16)


def mu_generators(field: Field, t: int) -> list:
    """Images mu(z^j x^l) = (z^j x^l)^q - z^j x^l for j < m, l < t, where
    z^j has code q^j.

    These span the image of a -> a^q - a on F_{q^m}[x]_{<t} because mu is
    q-semilinear in the coefficient and multiplicative pieces split.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    gens = []
    for j in range(field.m):
        zj = field.q**j
        zj_q = int(field.frobenius_table[zj])
        for l in range(t):
            gens.append(Polynomial.monomial(field, field.q * l, zj_q)
                        - Polynomial.monomial(field, l, zj))
    return gens


def build_K(field: Field, t: int, degree_bound: Optional[int] = None) -> LinearCode:
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
    charge_elimination(field.m * t, field.m * degree_bound)
    rows = [flatten_poly(f, degree_bound) for f in mu_generators(field, t)]
    return LinearCode(field.subfield, field.m * degree_bound, rows)


@functools.lru_cache(maxsize=16)
def _split_power(g: Polynomial) -> Optional[tuple[Polynomial, int]]:
    """irreducible_power of a monic g: (h, s) with g = h^s, or None.
    Cached, as the checks of one run share the split."""
    return irreducible_power(g)


def _require_prime_power_factor(g: Polynomial):
    decomp = _split_power(g.monic())
    if decomp is None:
        raise ValueError(
            "polynomial must be a power of a single irreducible"
        )
    return decomp


@functools.lru_cache(maxsize=16)
def _require_irreducible(h: Polynomial) -> None:
    """ValueError unless the monic h is irreducible over the top field.
    Cached, as the checks of one run share h."""
    if not is_irreducible(h):
        raise ValueError("modulus must be irreducible over the top field")


def _require_trace_zero_unit(field: Field, lam: int) -> int:
    lam = element_code(field, lam, "lambda code", f"F_{field.order}")
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    if int(field.trace_table[lam]) != 0:
        raise ValueError("lambda must have trace zero")
    return lam


@functools.lru_cache(maxsize=16)
def _K_plus_gF(field: Field, g: Polynomial) -> tuple[LinearCode, np.ndarray]:
    """(K, psi) for a monic g of degree t: K = build_K(field, t, (e+1) t)
    and psi spanning the kernel of the m t generators of K reduced mod g
    and flattened below t, an m t x m t matrix.

    K + g*F[x]_{<et} has rank m (e+1) t minus the number of kernel rows,
    because it is (K mod g) + g*F; one kernel row is full rank, so K meets
    g*F trivially.  Let phi be the functional on F[x]_{<(e+1)t} whose
    kernel is K + g*F.  It kills g*F, so phi(w) = phi|_{<t}(w mod g); it
    kills K, so phi|_{<t} kills K mod g and phi|_{<t} = c*psi, c in F_q*.

    Raises FalsificationError when dim K or the rank is off.  Cached: the
    checks of one run share one kernel.
    """
    t = int(g.degree)
    m = field.m
    e1 = field.norm_exponent
    D = e1 * t
    K = build_K(field, t, D)
    if K.k != m * t - 1:
        raise FalsificationError(
            f"dim K = {K.k}, expected {m * t - 1} for q={field.q} m={m} t={t}"
        )
    reduced = [flatten_poly(f % g, t) for f in mu_generators(field, t)]
    psi = kernel(MatrixGF(field.subfield, np.array(reduced))).array
    if psi.shape[0] != 1:
        raise FalsificationError(
            f"K + g*F has rank {m * D - psi.shape[0]}, expected {K.k} + {m * (e1 - 1) * t}"
        )
    return K, psi[0]


@functools.lru_cache(maxsize=16)
def _ring_frobenius(h: Polynomial) -> np.ndarray:
    """(r, r) codes whose row l is x^(l q) mod h, for the q-power map of
    F[x]/(h), h monic: (sum_l c_l x^l)^q = sum_l c_l^q (x^(l q) mod h);
    cached and read-only, as the checks of one run share it."""
    h_low = np.array(h.coeffs[:-1], dtype=np.int16)
    table = _power_rows(h.field, h_low[None], h.field.a)[0]
    table.setflags(write=False)
    return table


def _ring_basis(field: Field, r: int) -> np.ndarray:
    """The F_q-basis z^j x^l (z^j has code q^j) of residues of degree < r,
    as (m r, r) codes in flatten_poly's slot order l*m + j."""
    z = field.q ** np.arange(field.m, dtype=np.int16)
    return np.eye(r, dtype=np.int16).repeat(field.m, axis=0) * np.tile(z, r)[:, None]


@functools.lru_cache(maxsize=16)
def _trace_form(h: Polynomial) -> np.ndarray:
    """Absolute traces down to F_q of the basis residues z^j x^l of
    F[x]/(h), h monic, in flatten_poly's slot order l*m + j.

    Each is the sum of a q-power orbit of length m*r and must be a constant
    with a subfield code; by F_q-linearity both then hold for every residue.
    The m*r orbits advance together, one product with the q-power table
    (_ring_frobenius) at a time.  Cached and read-only, as the checks of
    one run share it.
    """
    field = h.field
    m, r = field.m, int(h.degree)
    table = _ring_frobenius(h)
    add = _adder(field)
    acc = cur = _ring_basis(field, r)
    for _ in range(m * r - 1):
        cur = matmul(field, field.frobenius_table[cur], table)
        acc = add(acc, cur)
    bad = np.flatnonzero(acc[:, 1:].any(axis=1) | (acc[:, 0] >= field.q))
    if bad.size:
        l, j = divmod(int(bad[0]), m)
        coeffs = Polynomial(field, acc[bad[0]].tolist()).coeffs
        raise FalsificationError(
            f"absolute trace of z^{j} x^{l} is {coeffs}, not in F_q"
        )
    form = acc[:, 0]
    form.setflags(write=False)
    return form


def _trace(form: np.ndarray, sub: Field, flat: np.ndarray) -> np.ndarray:
    """Absolute traces of flattened residues (slots on the last axis): the
    F_q dot product of each with the trace form."""
    return matmul(sub, flat.reshape(-1, form.size), form[:, None]).reshape(flat.shape[:-1])


def _norms(h: Polynomial, lam: int, block: np.ndarray) -> np.ndarray:
    """lam * a^N for an (N, r) block of residues a mod the monic h, codes low
    degree first: a^N is the product of the Frobenius images a^(q^i), i < m,
    each one product with the q-power table from the last."""
    field, cur = h.field, block
    moduli = np.broadcast_to(np.array(h.coeffs[:-1], dtype=np.int16), block.shape)
    for _ in range(1, field.m):
        cur = matmul(field, field.frobenius_table[cur], _ring_frobenius(h))
        block = batch_mul_mod(field, block, cur, moduli)
    return field.mul_table[lam][block]


def _pairing(h: Polynomial, form: np.ndarray) -> np.ndarray:
    """P[s, s'] = form(e_s e_s') on the basis e_s = z^i x^l, s = l m + i, of
    F[x]/(h), h monic, m >= 2: form(u w) = flat(u) P flat(w), F_q-bilinear.
    z has code q, and its powers z^u, u < 2m - 1, come from exp and log."""
    field, m, r = h.field, h.field.m, int(h.degree)
    z = field._exp[np.arange(2 * m - 1) * int(field._log[field.q]) % (field.order - 1)]
    xs = _fold_mod(field, np.eye(2 * r - 1, dtype=np.int16), np.array([h.coeffs[:-1]]))
    vals = _trace(form, field.subfield, _flatten_codes(field, field.mul_table[z][:, xs]))
    l, i = np.divmod(np.arange(m * r), m)
    return vals[i[:, None] + i, l[:, None] + l]


@functools.lru_cache(maxsize=16)
def _monomial_keys(k: int, m: int, q: int) -> np.ndarray:
    """Key below (k + 1)^m of the monomial of each m-tuple t of k coordinates
    (last index fastest), exponents folded by c^q = c, coordinate 0 left
    out: of e equal entries the first (e - 1) % (q - 1) + 1 in (t_j, j)
    order are kept, as digits t + 1 at their sorted places.  Cached."""
    t = np.indices((k,) * m).reshape(m, -1).T
    same = t[:, None, :] == t[:, :, None]
    first = (t[:, None, :] < t[:, :, None]) | same & np.tri(m, k=-1, dtype=bool)
    keep = ((first & same).sum(axis=2) < (same.sum(axis=2) - 1) % (q - 1) + 1) & (t > 0)
    keys = (keep * (t + 1) * (k + 1) ** (first & keep[:, None, :]).sum(axis=2)).sum(axis=1)
    keys.setflags(write=False)
    return keys


def _holds_witness(h: Polynomial, lam: int, pairing: np.ndarray,
                   start: int, n: int) -> bool:
    """Whether some a = a0 + v mod the monic h, a0 the residue of index start
    (a multiple of q^n), v in the span of the first n basis residues, has
    lam * a^N off the kernel of the form with this _pairing (m >= 2).  Over
    b_0 = a0, c_0 = 1, and the basis b_k, the test is sum over m-tuples of
    T(k_0..k_(m-1)) c_(k_0)...c_(k_(m-1)), T = form(lam * prod_i
    sigma^i(b_(k_i))): a function F_q^n -> F_q of degree < q in each
    variable, zero exactly when its folded coefficients (_monomial_keys) are."""
    field, sub = h.field, h.field.subfield
    m, r, k = field.m, int(h.degree), n + 1
    images = [np.vstack([digits(start, field.order, r), _ring_basis(field, r)[:n]])]
    for _ in range(1, m):
        images.append(matmul(field, field.frobenius_table[images[-1]], _ring_frobenius(h)))
    prefix = field.mul_table[lam][images[0]]
    for image in images[1:-1]:
        rows = len(prefix) * k
        prefix = batch_mul_mod(field, prefix.repeat(k, axis=0), np.resize(image, (rows, r)),
                               np.broadcast_to(np.array(h.coeffs[:-1], dtype=np.int16), (rows, r)))
    values = matmul(sub, matmul(sub, _flatten_codes(field, prefix), pairing),
                    _flatten_codes(field, images[-1]).T)
    # F_q sums digitwise mod p (int64 throughout: add.at would cast int16)
    sums = np.zeros(((k + 1) ** m, field.a), dtype=np.int64)
    np.add.at(sums, _monomial_keys(k, m, field.q),
              digit_array(values.ravel().astype(np.int64), field.p, field.a))
    return bool((sums % field.p).any())


def _first_witness(h: Polynomial, lam: int, form: np.ndarray,
                   what: str) -> Optional[int]:
    """Index of the first residue a mod the monic h, in code order, whose
    lam * a^N has a nonzero form; None when there is none.

    The base-q digits of an index are the F_q-coordinates of its residue
    in slot order, so [b q^n, (b+1) q^n) is a coset a0 + span of n basis
    residues.  The walk takes such ranges in index order: one of no more
    candidates than its (n + 1)^m certificate tuples is scanned; any other
    has its first residue tested, then is passed, or entered at its next
    digit when _holds_witness finds a witness in its coset or the budget
    cannot pay that certificate.  The ring is entered by its layers
    [Q^(j-1), Q^j), lowest first.  Work is charged before it is done;
    BudgetExceeded names the index below which no witness exists.
    """
    field = h.field
    q, m, r = field.q, field.m, int(h.degree)
    pairing = functools.cache(functools.partial(_pairing, h, form))
    spent = 0

    def charge(units, below):
        nonlocal spent
        if spent + units > WITNESS_SCAN_BUDGET:
            raise BudgetExceeded(
                f"{what}: no witness below index {below} of {q**(m * r)} candidates "
                f"within WITNESS_SCAN_BUDGET = {WITNESS_SCAN_BUDGET}")
        spent += units

    def scan(start, stop):
        # one chunk for a range of at most 4 * _FIRST_CHUNK (a _norms call
        # costs about as much as 250 rows) that the budget pays in full; any
        # other doubles from _FIRST_CHUNK, so that an early hit ends it
        # early and a refusal names the same index
        n = stop - start
        whole = n <= 4 * _FIRST_CHUNK and spent + n <= WITNESS_SCAN_BUDGET
        for lo, block in _candidate_chunks(field.order, r, start, stop, m * r,
                                           n if whole else None):
            charge(len(block), lo)
            traces = _trace(form, field.subfield, _flatten_codes(field, _norms(h, lam, block)))
            if traces.any():
                return lo + int(np.flatnonzero(traces)[0])

    @functools.cache  # each coset once: the ring's also decides its top layer
    def holds(b, n):
        charge((n + 1) ** m, lo + 1)
        return _holds_witness(h, lam, pairing(), b * q**n, n)

    lo, n, tested = 0, m * r, True  # residue 0 is never a witness
    while lo < q ** (m * r):
        tuples, b = (n + 1) ** m, lo // q**n
        hi = (b + 1) * q**n
        if hi - lo <= tuples:
            hit = scan(lo + tested, hi)
            if hit is not None:
                return hit
        elif not tested and (hit := scan(lo, lo + 1)) is not None:
            return hit
        elif spent + tuples > WITNESS_SCAN_BUDGET or holds(b, n):
            lo, n, tested = (1, m, False) if lo == 0 else (lo, n - 1, True)
            continue
        # passed: a coset's sibling, a layer's next slot or, at its end, next layer
        lo, n, tested = hi, n + (b == 0 and (m if n % m == 0 else 1)), False
    return None


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
    (II) K + g*F[x]_{<e t} has full row rank (m t - 1) + m e t, so K meets
        g*F trivially: the m t generators of K reduced mod g have exactly
        one kernel row, so K mod g keeps dim m t - 1 (see _K_plus_gF).
    (III) dim K = m t - 1, and reducing K mod h fills the full trace-zero
        hyperplane of F[x]/(h), of dimension m r - 1
        (verify_trace_kernel_mod).

    Raises FalsificationError when any pillar fails.
    """
    g = g.monic()
    h, s = _require_prime_power_factor(g)
    K, _ = _K_plus_gF(field, g)
    t = int(g.degree)
    dim_sum = field.m * field.norm_exponent * t - 1

    support = full_support(field)
    for f in mu_generators(field, t):
        if tau(field, support, f).any():
            raise FalsificationError(
                f"tau does not vanish on K generator with coeffs {f.coeffs}"
            )

    dim_mod = verify_trace_kernel_mod(field, h, s).dim_reduced

    return KReport(
        q=field.q, m=field.m, t=t, base_degree=int(h.degree), power=s,
        dim_K=K.k, dim_gF=dim_sum - K.k, dim_sum=dim_sum,
        dim_K_mod_base=dim_mod, tau_vanishes=True,
    )


def startkey_search(field: Field, h: Polynomial, lam: int) -> Polynomial:
    """First residue alpha mod h whose twisted norm has nonzero trace.

    h must be irreducible of degree r >= 2 over the top field and lam a
    nonzero trace-zero element.  alpha is the first in code order with
    absolute trace of lam * alpha^(e+1) nonzero (_first_witness); a ring
    without one falsifies the existence claim, so that raises, and a
    search that WITNESS_SCAN_BUDGET cannot finish raises BudgetExceeded.

    Degree 1 is rejected: there alpha^(e+1) is a subfield norm and the
    trace factors through trace(lam) = 0, so no witness can exist.
    """
    lam = _require_trace_zero_unit(field, lam)
    h = h.monic()
    _require_irreducible(h)
    r = int(h.degree)
    if r < 2:
        raise ValueError(
            "witness search needs degree >= 2; degree 1 cannot succeed"
        )
    idx = _first_witness(h, lam, _trace_form(h), "startkey search")
    if idx is None:
        raise FalsificationError(
            f"no witness in a ring of size {field.order**r} for q={field.q} m={field.m} "
            f"r={r} lambda={lam}"
        )
    return Polynomial(field, digits(idx, field.order, r))


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


def find_decomposition(field: Field, g: Polynomial, lam: int):
    """Search the witness a making K, lam*a^(e+1), g*F[x]_{<et} a direct sum.

    g must be a rootless power of an irreducible; candidates a run over
    F_{q^m}[x]_{<t} in index order and the first one whose lam*a^(e+1)
    falls outside K + g*F[x]_{<et} wins.  That is the first a with
    psi(lam*a^(e+1) mod g) nonzero, psi from _K_plus_gF, so the scan forms
    a^(e+1) mod g as startkey_search does mod h.  The hit is cross-checked
    two ways: its residue mod the base factor must have nonzero absolute
    trace (the one-functional criterion), and tau must kill it on the full
    evaluation set.  Returns (a, report).

    The candidates are searched as in startkey_search, and a search that
    WITNESS_SCAN_BUDGET cannot finish raises BudgetExceeded.
    """
    g = g.monic()
    lam = _require_trace_zero_unit(field, lam)
    h, s = _require_prime_power_factor(g)
    r = int(h.degree)
    if r < 2:
        raise ValueError(
            "decomposition needs a rootless polynomial; base factor is linear"
        )
    K, psi = _K_plus_gF(field, g)
    t = int(g.degree)
    D = field.norm_exponent * t

    idx = _first_witness(g, lam, psi, "decomposition search")
    if idx is None:
        raise FalsificationError(
            f"no decomposition witness among {field.order**t} candidates for "
            f"q={field.q} m={field.m} t={t} lambda={lam}"
        )
    a = Polynomial(field, digits(idx, field.order, t))
    w = Polynomial.constant(field, lam) * a**field.norm_exponent
    tr = int(_trace(_trace_form(h), field.subfield, flatten_poly(w % h, r)))
    if tr == 0:
        raise FalsificationError(
            "independent witness has zero trace mod the base factor; "
            f"candidate index {idx}"
        )
    if tau(field, full_support(field), w).any():
        raise FalsificationError(
            f"tau does not vanish on the witness; candidate index {idx}"
        )
    report = DecompositionReport(
        q=field.q, m=field.m, t=t, lam=lam,
        ambient_dim=field.m * D, dim_K=K.k, dim_gF=field.m * D - 1 - K.k,
        candidate_index=idx, witness_coeffs=tuple(a.coeffs),
        ring_trace=tr, tau_vanishes=True,
    )
    return a, report


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


def _tau_span_dim(field: Field, points: Sequence[int], mult, count: int) -> int:
    """dim over F_q of the trace code of the rows mult_i * a_i^l, l < count,
    on distinct points a_i with nonzero multipliers: n minus the dimension of
    their alternant code, since Tr(C)^perp = C^perp restricted to F_q."""
    return len(points) - alternant_kernel(field, points, mult, count).k


def verify_dual_reformulation(field: Field, support: Sequence[int],
                              g: Polynomial) -> DualSpanReport:
    """Compare the tau images whose equality rephrases the wild identity.

    tau(mult * z^j x^l) = Tr(z^j mult(a) a^l), so each span is the trace
    code of the rows mult(a_i) a_i^l: mult = 1, l < (e+1)t for the full
    space and mult = g, l < e t for the multiples of g.

    For rootless g the spans must coincide and any gap falsifies the
    reformulation.  For a power of a linear factor the gap may be 0 or 1;
    anything larger falsifies.  Other shapes are reported without
    judgement.
    """
    g = g.monic()
    L = support_codes(field, support)
    gv = g.evaluate_codes(np.array(L, dtype=np.int64))
    roots_on = [c for c, v in zip(L, gv) if v == 0]
    if roots_on:
        raise ValueError(f"support meets roots of g at codes {roots_on}")
    t = int(g.degree)
    e1 = field.norm_exponent

    dim_full = _tau_span_dim(field, L, 1, e1 * t)
    dim_mult = _tau_span_dim(field, L, gv, (e1 - 1) * t)
    report = DualSpanReport(
        q=field.q, m=field.m, t=t, n=len(L),
        dim_full=int(dim_full), dim_multiples=int(dim_mult),
        gap=int(dim_full - dim_mult), equal=bool(dim_full == dim_mult),
    )
    decomp = _split_power(g)
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


@functools.lru_cache(maxsize=16)
def verify_trace_kernel_mod(field: Field, h: Polynomial,
                            power: int = 1) -> TraceKernelReport:
    """Check K for t = power*deg(h) reduces onto the trace kernel mod h.

    Every reduced generator must have absolute trace zero and together
    they must span m*r - 1 dimensions, exactly the kernel of the (checked
    surjective) absolute trace on F[x]/(h).  Cached: pillar III of
    verify_K_properties and the evidence report share one check.
    """
    h = h.monic()
    _require_irreducible(h)
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    r = int(h.degree)
    form = _trace_form(h)
    reduced = [f % h for f in mu_generators(field, power * r)]
    rows = np.array([flatten_poly(f, r) for f in reduced], dtype=np.int16)
    traces = _trace(form, field.subfield, rows)
    if traces.any():
        bad = reduced[int(np.flatnonzero(traces)[0])]
        raise FalsificationError(
            f"K residue {bad.coeffs} mod base factor has nonzero trace"
        )
    dim_reduced = rank(MatrixGF(field.subfield, rows))
    if dim_reduced != field.m * r - 1:
        raise FalsificationError(
            f"K mod base factor has dim {dim_reduced}, expected {field.m * r - 1}"
        )
    # an F_q-linear functional to F_q is onto unless it is zero
    if not form.any():
        raise FalsificationError("absolute trace vanished on the whole ring")
    return TraceKernelReport(
        q=field.q, m=field.m, r=r, power=power,
        dim_reduced=dim_reduced, expected=field.m * r - 1,
        trace_surjective=True,
    )
