"""Slow reference algorithms that the fast library paths are tested against.

``rref_array`` is the original elimination step: it updates whole rows and
adds through ``add_table`` in every characteristic. ``kernel`` is the
original two-pass kernel: left-pivoting RREF of M, the (n - r) x n basis
built from it, then a second elimination of that basis to make it
canonical. ``flatten_poly`` and ``unflatten_poly`` are the original
per-coefficient, per-digit loops of the evidence flattening. ``matmul`` is
a plain matrix product over the field, one column of A at a time: it
checks kernels (M K^T = 0) and is the oracle for ``linalg.matmul``.
``power_rows`` is the original q-power table of the evidence scans, the
rows x^(l e) mod h built one scalar ``ring_pow`` and ``ring_mul`` at a
time, and the oracle for ``poly._power_rows``.
``abs_trace`` is the absolute trace of one residue as a full q-power orbit
sum, the oracle for the evidence trace form, and ``trace_slots`` is the
original dot product with that form, summed one slot at a time. ``codewords`` enumerates all
order^k codewords of a code, with no budget. ``min_distance`` is the
original exhaustive distance: every one of the order^k messages, batched
2^16 at a time, with k multiply and k add passes each, behind the same
budget gate as the library. ``reduce_row`` is the residual
of one row after elimination against RREF rows, the original membership
test of the evidence witness scan. ``tau_span_dims`` ranks the tau images of
the bases z^j x^l of F[x]_{<(e+1)t} and g z^j x^l of g*F[x]_{<et}, each one
polynomial evaluated by Horner's rule at every support point and traced.
``is_irreducible`` is the original irreducibility test, Rabin's criterion
on the powers x^(Q^k) mod f, and ``find_irreducible`` the original
irreducible search: that test on every candidate in index order, with no
sieve and no budget. ``count_distinct_roots`` is the original root count,
deg gcd(g, x^Q - x). ``root_free`` is the original root sieve, the oracle
of the small-factor stage at k = 1 of ``poly._sieve``: Horner's rule at
every element, for every candidate.
``one_distinct_factor`` is the original Berlekamp sieve, with x^Q mod f by
square and multiply (``batch_pow_mod``) in every field and each B - I
ranked on its own by ``rref_array``. ``quadratic_free`` is the oracle of
the stage at k = 2: a root-free f has an irreducible
quadratic factor exactly when gcd(f, x^(Q^2) - x) is nonconstant, one
scalar ``pow_mod`` and ``gcd`` per candidate. ``irreducible_power``
is the original distinct-degree sieve, each x^(Q^dh) mod g powered from x.
``trace_form``, ``startkey_search`` and ``find_decomposition`` are the
original evidence scans: the trace form from one scalar q-power orbit per
basis residue, and the witness searches that form lam*a^N for one
candidate at a time by Python powers, with no budget; ``find_decomposition``
tests each against ``stack_phi``, the original functional: the one kernel
row of K stacked on ``multiples_of(g)``, the rows g*z^j*x^l of
g*F[x]_{<et}, flattened below (e+1)t. ``twisted_norms`` is the original
batched lam*a^N, unreduced, as shifted multiply-adds. ``_norm_scan`` is
the layered witness scan that ``evidence._first_witness`` replaced, with
its layer certificate ``_holds_witness`` and norm map ``_norm_map``, moved
unchanged but for ``linalg.matmul``, as the descent's oracle. ``crt_matrix`` and
``goppa_via_crt`` are the original CRT construction of a Goppa code: the
support product built one ``Polynomial`` product at a time, then one scalar
division by x - a_i and one reduction mod G per support point.
``poly_pow`` is the original ``Polynomial`` power, square and multiply on
the whole exponent, and ``evaluate_codes`` the original evaluation, one
Horner step per coefficient. ``goppa_code`` is the original parity-check
construction from the values G(a_i) of one spec, and ``goppa_power_codes``
the original codes of the powers h * g^j: each polynomial formed, evaluated
on the support and passed to ``goppa_code``. ``tower_tables`` is the
original scalar construction of a tower's tables: the generator found by one
``pow_mod`` per candidate and check, exp filled by order - 2 scalar
products, and the add and mul tables formed as int64 order x order arrays.
``vandermonde_rows`` is the parity matrix mult_i * a_i^l, l < count, and
``subfield_kernel`` of it the expansion oracle for
``codes.alternant_kernel``. ``span``, ``full_code``, ``dual``,
``shorten``, ``subfield_subcode`` and ``trace_code`` are the original code
constructions, each a row space or a kernel eliminated in full, and
``grs_pair`` the original generalised Reed-Solomon pair C, D = C^perp.
The scalar element API that the library no longer carries lives here too:
``elements`` and ``embed`` of a field; ``inverse``, ``coordinates``,
``in_subfield``, ``frobenius``, ``trace`` and ``norm`` of one element, each
read from the tables; ``leading_coefficient`` and ``evaluate`` (Horner's
rule at one point) of a polynomial; ``ext_gcd``, the extended Euclidean
algorithm; and ``ring_mul``, ``ring_pow`` and ``ring_inv``, the product,
power and inverse of residues mod a monic modulus h, each reduced mod h.
The residue helpers take h itself: a residue mod h is a ``Polynomial`` of
degree below deg h, and residue k in index order is the one whose
coefficients are the base-|F| digits of k.
None of these is used by the library.
"""

from __future__ import annotations

import functools

import numpy as np

from wildgoppa import linalg, poly
from wildgoppa.codes import LinearCode, subfield_kernel
from wildgoppa.errors import BudgetExceeded
from wildgoppa.evidence import (
    WITNESS_SCAN_BUDGET, DecompositionReport, _flatten_codes, _ring_basis,
    _ring_frobenius, _trace, build_K, tau,
)
from wildgoppa.gf import Field, FieldElement, build_tower, digit_array, digits, prime_factors
from wildgoppa.goppa import GoppaSpec, full_support, support_codes
from wildgoppa.linalg import MatrixGF, rank, rref
from wildgoppa.poly import (
    NEG_INF, Polynomial, _adder, _as_code, _candidate_block, _lookup,
    batch_mul_mod, batch_pow_mod, find_irreducible as searched_irreducible, gcd,
    pow_mod,
)

_DT = np.int16


def rref_array(field: Field, W: np.ndarray) -> tuple[np.ndarray, int, tuple[int, ...]]:
    """In-place RREF of a writable int array of codes."""
    add, mul = field.add_table, field.mul_table
    neg, inv = field.neg_table, field.inv_table
    nrows, ncols = W.shape
    r = 0
    pivots: list[int] = []
    for col in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(W[r:, col])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            W[[r, pr]] = W[[pr, r]]
        pv = int(W[r, col])
        if pv != 1:
            W[r] = mul[int(inv[pv]), W[r]]
        colvals = W[:, col].copy()
        colvals[r] = 0
        rows_nz = np.nonzero(colvals)[0]
        if rows_nz.size:
            factors = neg[colvals[rows_nz]]
            W[rows_nz] = add[W[rows_nz], mul[factors[:, None], W[r][None, :]]]
        pivots.append(col)
        r += 1
    return W, r, tuple(pivots)


def kernel(M: MatrixGF) -> MatrixGF:
    """Canonical (RREF) basis of the right null space, in two eliminations."""
    field = M.field
    n = M.ncols
    R, rk, piv_t = rref_array(field, M.array.astype(_DT, copy=True))
    piv = list(piv_t)
    free = [c for c in range(n) if c not in set(piv)]
    nf = len(free)
    B = np.zeros((nf, n), dtype=_DT)
    if nf:
        B[np.arange(nf), free] = 1
        if rk:
            B[:, piv] = field.neg_table[R[:rk, free]].T
    W, rk2, _ = rref_array(field, B)
    return MatrixGF._wrap(field, W[:rk2])


def flatten_poly(f: Polynomial, degree_bound: int) -> np.ndarray:
    """Slot l*m + j holds coordinate j of coefficient l, digit by digit."""
    m, q = f.field.m, f.field.q
    out = np.zeros(degree_bound * m, dtype=np.int16)
    for l, code in enumerate(f.coeffs):
        for j in range(m):
            out[l * m + j] = (code // q**j) % q
    return out


def unflatten_poly(field: Field, vec: np.ndarray, degree_bound: int) -> Polynomial:
    """Inverse of ``flatten_poly``, coefficient by coefficient."""
    m, q = field.m, field.q
    coeffs = []
    for l in range(degree_bound):
        code = 0
        for j in reversed(range(m)):
            code = code * q + int(vec[l * m + j])
        coeffs.append(code)
    return Polynomial(field, coeffs)


def matmul(A: MatrixGF, B: MatrixGF) -> MatrixGF:
    """Exact matrix product over the field, one column of A at a time."""
    if A.field != B.field:
        raise ValueError("mixed fields in matmul")
    if A.ncols != B.nrows:
        raise ValueError(f"shape mismatch {A.shape} x {B.shape}")
    field = A.field
    add, mul = field.add_table, field.mul_table
    C = np.zeros((A.nrows, B.ncols), dtype=_DT)
    for k in range(A.ncols):
        colk = A.array[:, k]
        if not colk.any():
            continue
        C = add[C, mul[colk[:, None], B.array[k][None, :]]]
    return MatrixGF(field, C)


def abs_trace(h: Polynomial, w: Polynomial) -> int:
    """Absolute trace of w in F[x]/(h) to F_q: the sum of its q-power orbit
    of length m*deg(h), which must be a constant in F_q."""
    field = h.field
    acc = cur = w % h
    for _ in range(field.m * int(h.degree) - 1):
        cur = ring_pow(h, cur, field.q)
        acc = acc + cur
    assert len(acc.coeffs) <= 1, f"non-constant trace {acc.coeffs}"
    code = acc.coeffs[0] if acc.coeffs else 0
    assert code < field.q, f"trace code {code} outside F_q"
    return code


def power_rows(h: Polynomial, e: int) -> np.ndarray:
    """(r, r) codes whose row l is x^(l e) mod h, one scalar ``ring_pow``
    and ``ring_mul`` at a time."""
    field = h.field
    r = int(h.degree)
    xe = ring_pow(h, Polynomial.x(field), e)
    table = np.zeros((r, r), dtype=_DT)
    cur = Polynomial.one(field)
    for l in range(r):
        table[l, : len(cur.coeffs)] = cur.coeffs
        cur = ring_mul(h, cur, xe)
    return table


def trace_slots(form: np.ndarray, sub: Field, flat: np.ndarray) -> np.ndarray:
    """F_q dot product of each flattened residue (slots on the last axis)
    with the form, adding the slot products one slot at a time."""
    prods = sub.mul_table[flat, form]
    acc = prods[..., 0]
    for c in range(1, form.size):
        acc = sub.add_table[acc, prods[..., c]]
    return acc


def codewords(code: LinearCode) -> np.ndarray:
    """All order^k codewords as an array (message enumeration order)."""
    field = code.field
    total = field.order**code.k
    out = np.zeros((total, code.n), dtype=_DT)
    add, mul = field.add_table, field.mul_table
    idx = np.arange(total)
    for j in range(code.k):
        digit = (idx // field.order**j) % field.order
        out = add[out, mul[digit[:, None].astype(_DT), code.generator[j][None, :]]]
    return out


def min_distance(code: LinearCode, budget: int) -> int | None:
    """Minimum nonzero weight over all order^k codewords, or None when
    order^k - 1 exceeds the budget.

    Codewords are formed in batches of consecutive indices, digit by digit:
    each generator row is scaled by every field element once, the scaled
    row of a digit is gathered per codeword, and sums go through one flat
    take of the add table (XOR in characteristic 2)."""
    if code.k == 0:
        raise ValueError("minimum distance of the zero code is undefined")
    field = code.field
    order = field.order
    total = order**code.k
    if total - 1 > budget:
        return None
    if field.p == 2:
        add = np.bitwise_xor
    else:
        flat = field.add_table.ravel()

        def add(x, y):
            return flat.take(np.multiply(x, order, dtype=np.intp) + y)

    scaled = field.mul_table[:, code.generator]  # (order, k, n): c * row j
    best = code.n + 1
    batch = max(1, min(total, (1 << 20) // code.n))  # at most 2^20 cells
    for start in range(0, total, batch):
        idx = np.arange(start, min(start + batch, total))
        cw = np.zeros((idx.size, code.n), dtype=_DT)
        for j in range(code.k):
            cw = add(cw, scaled[(idx // order**j) % order, j])
        w = np.count_nonzero(cw, axis=1)
        if start == 0:
            w = w[1:]  # drop the zero codeword
        if w.size:
            best = min(best, int(w.min()))
    return best


def reduce_row(R: MatrixGF, pivots, row: np.ndarray) -> np.ndarray:
    """Residual of a single row vector after elimination against RREF rows.

    The result is zero exactly when the row lies in the span of R.
    """
    field = R.field
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    v = np.asarray(row, dtype=_DT).copy()
    for j, p in enumerate(pivots):
        c = int(v[p])
        if c:
            v = add[v, mul[np.int16(neg[c]), R.array[j]]]
    return v


def tau_span_dims(field: Field, support, g: Polynomial) -> tuple[int, int]:
    """(dim tau(F[x]_{<(e+1)t}), dim tau(g*F[x]_{<et})) over F_q, where
    tau(f) = (Tr f(a))_{a in support}, by ranking the tau rows of the
    F_q-bases z^j x^l and g z^j x^l."""
    t = int(g.degree)
    e1 = field.norm_exponent
    pts = np.asarray(support, dtype=np.int64)

    def tau_rank(mult: Polynomial, count: int) -> int:
        rows = []
        for l in range(count):
            for j in range(field.m):
                f = mult * Polynomial.monomial(field, l, (field.gen**j).code)
                rows.append(field.trace_table[f.evaluate_codes(pts)])
        if not rows:
            return 0
        return rank(MatrixGF(field.subfield, np.array(rows, dtype=np.int64)))

    return tau_rank(Polynomial.one(field), e1 * t), tau_rank(g, (e1 - 1) * t)


def is_irreducible(f: Polynomial) -> bool:
    """Rabin's criterion: f of degree d is irreducible iff
    x^(Q^d) == x mod f and gcd(x^(Q^(d/ell)) - x, f) = 1 for each prime
    ell dividing d, with Q the field order."""
    d = f.degree
    if d is NEG_INF or d == 0:
        return False
    if d == 1:
        return True
    Q = f.field.order
    fm = f.monic()
    x = Polynomial.x(f.field)
    if pow_mod(x, Q**d, fm) != x % fm:
        return False
    for ell in prime_factors(d):
        h = pow_mod(x, Q ** (d // ell), fm) - x
        if gcd(h, fm).degree != 0:
            return False
    return True


def irreducible_power(g: Polynomial) -> tuple[Polynomial, int] | None:
    """(h, s) with g = h**s up to a leading unit and h monic irreducible, or
    None: the distinct-degree sieve with x^(Q^dh) mod g by square and
    multiply from x at every dh."""
    d = g.degree
    if d is NEG_INF or d == 0:
        return None
    g = g.monic()
    Q = g.field.order
    x = Polynomial.x(g.field)
    for dh in range(1, int(d) + 1):
        w = gcd(g, pow_mod(x, Q**dh, g) - x % g)
        if w.degree == 0:
            continue
        if int(w.degree) != dh or int(d) % dh != 0:
            return None
        s = int(d) // dh
        return (w, s) if w**s == g else None
    return None


def count_distinct_roots(g: Polynomial) -> int:
    """Distinct roots of g != 0 in its coefficient field, as
    deg gcd(g, x^Q - x)."""
    if g.degree == 0:
        return 0
    gm = g.monic()
    x = Polynomial.x(g.field)
    # gcd(0, gm) = gm when x^Q == x mod g, i.e. g splits completely
    return int(gcd(pow_mod(x, g.field.order, gm) - x % gm, gm).degree)


def root_free(field: Field, cands: np.ndarray) -> np.ndarray:
    """Which monic candidates (rows of non-leading coefficients) have no
    root in the field, by Horner evaluation at every element."""
    add, mul = _adder(field), _lookup(field.mul_table)
    xs = np.arange(field.order, dtype=_DT)
    acc = np.broadcast_to(xs, (cands.shape[0], xs.size))
    for k in range(cands.shape[1] - 1, -1, -1):
        acc = add(acc, cands[:, k : k + 1])
        if k:
            acc = mul(acc, xs)
    return (acc != 0).all(axis=1)


def one_distinct_factor(field: Field, moduli: np.ndarray) -> np.ndarray:
    """Which monic f (rows of non-leading coefficients, degree d >= 2) have
    one distinct irreducible factor: rows 1 .. d-1 of B - I, row j of B
    being x^(jQ) mod f, have rank d - 1."""
    n, d = moduli.shape
    x = np.zeros((n, d), dtype=_DT)
    x[:, 1] = 1
    xq = batch_pow_mod(field, x, field.order, moduli)
    M = np.empty((n, d - 1, d), dtype=_DT)
    M[:, 0] = xq
    for j in range(1, d - 1):
        M[:, j] = batch_mul_mod(field, M[:, j - 1], xq, moduli)
    diag = np.arange(1, d)
    M[:, diag - 1, diag] = _adder(field)(M[:, diag - 1, diag], field.neg_table[1])
    return np.array([rref_array(field, B.copy())[1] == d - 1 for B in M], dtype=bool)


def quadratic_free(field: Field, cands: np.ndarray) -> np.ndarray:
    """Which root-free monic candidates (rows of non-leading coefficients)
    have no irreducible quadratic factor: gcd(f, x^(Q^2) - x), the product
    of the distinct factors of degree 1 or 2, is constant."""
    x = Polynomial.x(field)
    out = []
    for row in cands.tolist():
        f = Polynomial(field, row + [1])
        out.append(gcd(f, pow_mod(x, field.order**2, f) - x % f).degree == 0)
    return np.array(out, dtype=bool)


def find_irreducible(field: Field, degree: int, limit: int | None = None) -> Polynomial | None:
    """First monic irreducible of the degree in index order (non-leading
    coefficients as a base-|F| integer, low digit first), by testing every
    candidate with ``is_irreducible``; None when there is none among the
    first ``limit`` candidates."""
    order = field.order
    for idx in range(order**degree if limit is None else min(limit, order**degree)):
        cand = Polynomial(field, digits(idx, order, degree) + [1])
        if is_irreducible(cand):
            return cand
    return None


def trace_form(h: Polynomial) -> np.ndarray:
    """Absolute traces of the basis residues z^j x^l of F[x]/(h), in slot
    order l*m + j, each the sum of its q-power orbit taken one ``ring_pow``
    at a time."""
    field = h.field
    q, m, r = field.q, field.m, int(h.degree)
    steps = m * r
    form = np.zeros(steps, dtype=_DT)
    for l in range(r):
        for j in range(m):
            acc = cur = Polynomial.monomial(field, l, (field.gen**j).code)
            for _ in range(steps - 1):
                cur = ring_pow(h, cur, q)
                acc = acc + cur
            assert len(acc.coeffs) <= 1, f"non-constant trace {acc.coeffs}"
            code = acc.coeffs[0] if acc.coeffs else 0
            assert code < q, f"trace code {code} outside F_q"
            form[l * m + j] = code
    return form


def startkey_search(field: Field, h: Polynomial, lam: int) -> Polynomial | None:
    """First residue alpha mod h, in index order, whose lam * alpha^N mod h
    has nonzero absolute trace; None when the ring has none."""
    h = h.monic()
    r = int(h.degree)
    form = trace_form(h)
    lam_poly = Polynomial.constant(field, lam)
    for idx in range(field.order**r):
        alpha = Polynomial(field, digits(idx, field.order, r))
        w = ring_mul(h, lam_poly, ring_pow(h, alpha, field.norm_exponent))
        if trace_slots(form, field.subfield, flatten_poly(w, r)) != 0:
            return alpha
    return None


def multiples_of(g: Polynomial, count: int) -> list:
    """g * z^j x^l for j < m, l < count: an F_q-basis of g*F[x]_{<count}."""
    field = g.field
    out = []
    for l in range(count):
        shifted = g * Polynomial.monomial(field, l)
        for j in range(field.m):
            out.append(shifted.scale((field.gen**j).code))
    return out


@functools.lru_cache(maxsize=16)
def stack_phi(field: Field, g: Polynomial):
    """(K, phi): K = build_K(field, t, (e+1)t) for t = deg g, and phi the
    one kernel row of K stacked on multiples_of(g, e t), flattened below
    (e+1)t; asserts that the kernel has exactly one row.  Cached on
    (field, monic g)."""
    t = int(g.degree)
    e1 = field.norm_exponent
    D = e1 * t
    K = build_K(field, t, D)
    g_rows = [flatten_poly(f, D) for f in multiples_of(g, (e1 - 1) * t)]
    phi = kernel(MatrixGF(field.subfield, np.vstack([K.generator, *g_rows]))).array
    assert phi.shape[0] == 1, f"K + g*F has {phi.shape[0]} kernel rows"
    return K, phi[0]


def twisted_norms(field: Field, lam: int, block: np.ndarray, degree_bound: int) -> np.ndarray:
    """lam * a^N for each candidate row a of block (coefficient codes, low
    degree first), unreduced and flattened below degree_bound > N*(t-1):
    the m Frobenius images a^(q^i) multiplied as t shifted multiply-adds
    each."""
    add, mul = _adder(field), _lookup(field.mul_table)
    n, t = block.shape
    prod = np.zeros((n, degree_bound), dtype=_DT)
    prod[:, :t] = mul(lam, block)
    top, coeffs = t, block
    for i in range(1, field.m):
        coeffs = field.frobenius_table[coeffs]
        step = field.q**i
        out = np.zeros_like(prod)
        for l in range(t):
            span = slice(l * step, l * step + top)
            out[:, span] = add(out[:, span], mul(coeffs[:, l : l + 1], prod[:, :top]))
        prod = out
        top += (t - 1) * step
    flat = np.zeros((n, degree_bound * field.m), dtype=_DT)
    for i, row in enumerate(prod):
        flat[i] = flatten_poly(Polynomial(field, row.tolist()), degree_bound)
    return flat


def find_decomposition(field: Field, g: Polynomial, lam: int):
    """(a, report) for the first candidate a of degree < deg g, in index
    order, whose lam * a^N is outside K + g*F = ker(phi), phi from
    ``stack_phi``, with the ring trace and tau cross-checks of the library;
    None when there is none."""
    g = g.monic()
    h, _ = irreducible_power(g)
    K, phi = stack_phi(field, g)
    t = int(g.degree)
    e1 = field.norm_exponent
    D = e1 * t
    form = trace_form(h)
    sub = field.subfield
    lam_poly = Polynomial.constant(field, lam)
    for idx in range(field.order**t):
        a = Polynomial(field, digits(idx, field.order, t))
        w = lam_poly * a**e1
        if trace_slots(phi, sub, flatten_poly(w, D)) == 0:
            continue
        tr = int(trace_slots(form, sub, flatten_poly(w % h, int(h.degree))))
        assert tr != 0, f"witness {idx} has zero trace mod the base factor"
        assert not tau(field, full_support(field), w).any(), f"tau on witness {idx}"
        report = DecompositionReport(
            q=field.q, m=field.m, t=t, lam=lam,
            ambient_dim=field.m * D, dim_K=K.k, dim_gF=field.m * D - 1 - K.k,
            candidate_index=idx, witness_coeffs=tuple(a.coeffs),
            ring_trace=tr, tau_vanishes=True,
        )
        return a, report
    return None


def _norm_map(h: Polynomial, lam: int):
    """The map from an (N, r) block of residues a mod the monic h
    (coefficient codes, low degree first) to the residues lam * a^N, N the
    norm exponent, in the same form.  Given picks, an (M, m) array of row
    indices, it maps to the M residues lam * prod_i sigma^i(a_(picks[:, i]))
    instead, sigma the q-power map.

    a^N is the product of the Frobenius images a^(q^i), i < m, each one
    product with the q-power table from the last; h need not be
    irreducible.
    """
    field = h.field
    table = _ring_frobenius(h)
    modulus = np.array(h.coeffs[:-1], dtype=np.int16)

    def norms(block, picks=None):
        cur, norm = block, block if picks is None else block[picks[:, 0]]
        moduli = np.broadcast_to(modulus, norm.shape)
        for i in range(1, field.m):
            cur = linalg.matmul(field, field.frobenius_table[cur], table)
            norm = batch_mul_mod(field, norm, cur if picks is None else cur[picks[:, i]], moduli)
        return field.mul_table[lam][norm]

    return norms


def _holds_witness(h: Polynomial, lam: int, form: np.ndarray, d: int) -> bool:
    """Whether some residue a mod the monic h of degree <= d has lam * a^N
    off the kernel of form, decided without a scan.

    In the F_q-coordinates c_k of a over the basis b_k = z^j x^l, l <= d,
    the test is the form of degree m sum over m-tuples of
    T(k_0..k_(m-1)) c_(k_0)...c_(k_(m-1)), T = form(lam * prod_i
    sigma^i(b_(k_i))).  The tuples of one multiset give one monomial, and
    exponents fold by c^q = c.  A function F_q^K -> F_q has one polynomial
    of degree < q in each variable, so a witness exists exactly when a
    folded coefficient is nonzero.
    """
    field = h.field
    m, k = field.m, field.m * (d + 1)
    t = np.indices((k,) * m).reshape(m, -1).T
    basis, norms = _ring_basis(field, int(h.degree))[:k], _norm_map(h, lam)
    # tuples a chunk at a time, each within the scans' working set
    step = max(1, poly._CHUNK_CELLS // (m * int(h.degree)))
    values = np.concatenate([
        _trace(form, field.subfield, _flatten_codes(field, norms(basis, t[i : i + step])))
        for i in range(0, len(t), step)])
    # entry j of a tuple precedes entry i in its sorted multiset when
    # (t_j, j) < (t_i, i); of each e equal entries the first
    # (e - 1) % (q - 1) + 1 are kept, and the kept ones, as digits t + 1
    # at their sorted places, key the folded monomial below (k + 1)^m
    same = t[:, None, :] == t[:, :, None]
    first = (t[:, None, :] < t[:, :, None]) | same & np.tri(m, k=-1, dtype=bool)
    keep = (first & same).sum(axis=2) < (same.sum(axis=2) - 1) % (field.q - 1) + 1
    place = (k + 1) ** (first & keep[:, None, :]).sum(axis=2)
    # F_q sums digitwise mod p (int64 throughout: add.at would cast int16)
    sums = np.zeros(((k + 1) ** m, field.a), dtype=np.int64)
    digs = digit_array(values.astype(np.int64), field.p, field.a)
    np.add.at(sums, (keep * (t + 1) * place).sum(axis=1), digs)
    return bool((sums % field.p).any())


def _norm_scan(h: Polynomial, lam: int, form: np.ndarray,
               what: str) -> Optional[int]:
    """Index of the first residue a mod the monic h, in code order, whose
    lam * a^N flattened has a nonzero F_q dot product with form; None when
    there is none.

    Layer d holds the residues of degree d, indices [Q^d, Q^(d+1)) (from 0
    for d = 0).  Layers go in order, so when layer d comes no lower one
    holds a hit, and _holds_witness on degree <= d decides layer d.  That
    certificate is computed when its (m (d+1))^m tuples are fewer than the
    candidates a scan of the rest of the layer could test, after the
    layer's first residue x^d alone: the test is a nonzero function on a
    layer that holds a witness, true on about 1 - 1/q of it, so x^d often
    settles the layer for the price of one candidate.  A layer the
    certificate clears is skipped; the rest of any other is scanned in
    index order, in chunks that double across layers and end at each
    layer a certificate may skip.  Tuples and candidates are charged
    before their work; BudgetExceeded comes when WITNESS_SCAN_BUDGET is
    spent with candidates left, so every one of the first
    WITNESS_SCAN_BUDGET is ruled out.
    """
    field = h.field
    Q, m, r = field.order, field.m, int(h.degree)
    norms = _norm_map(h, lam)
    cap = max(poly._FIRST_CHUNK, poly._CHUNK_CELLS // (m * r))
    # candidates grow Q-fold per layer and tuples at most 2^m-fold, so from
    # the first layer d0 whose tuples are fewer than its candidates on,
    # every layer's are; the layers below d0 are scanned as one run
    d0 = next((d for d in range(r) if (m * (d + 1)) ** m < Q ** (d + 1) - (Q**d if d else 0)), r)
    start, size, charged = 0, poly._FIRST_CHUNK, 0
    for d in range(r):
        stop = Q ** max(d + 1, d0)
        tuples = (m * (d + 1)) ** m
        probe = d >= d0 and tuples < min(stop - start, WITNESS_SCAN_BUDGET - charged) - 1
        while start < stop:
            count = 1 if probe else min(size, stop - start, WITNESS_SCAN_BUDGET - charged)
            if count == 0:
                raise BudgetExceeded(
                    f"{what}: no witness among the first WITNESS_SCAN_BUDGET = "
                    f"{WITNESS_SCAN_BUDGET} of {Q**r} candidates"
                )
            block = _candidate_block(start, count, Q, r)
            found = np.flatnonzero(_trace(form, field.subfield, _flatten_codes(field, norms(block))))
            if found.size:
                return start + int(found[0])
            start, charged = start + len(block), charged + len(block)
            if probe:
                probe, charged = False, charged + tuples
                if not _holds_witness(h, lam, form, d):
                    start = stop
            else:
                size = min(2 * size, cap)
    return None


def crt_matrix(spec: GoppaSpec) -> np.ndarray:
    """deg G x n matrix whose column i holds the coefficients of
    prod_L/(x - a_i) mod G, low degree first."""
    field = spec.field
    g = spec.goppa_poly.monic()
    d = int(g.degree)
    pi = Polynomial.one(field)
    x = Polynomial.x(field)
    for c in spec.support:
        pi = pi * (x - Polynomial.constant(field, c))
    cols = []
    for c in spec.support:
        qi, rem = divmod(pi, x - Polynomial.constant(field, c))
        assert rem.is_zero, "support product must split"
        ri = qi % g
        cols.append(list(ri.coeffs) + [0] * (d - len(ri.coeffs)))
    return np.array(cols, dtype=np.int64).T


def goppa_via_crt(spec: GoppaSpec) -> LinearCode:
    """The Goppa code as the F_q kernel of :func:`crt_matrix`."""
    return subfield_kernel(spec.field, crt_matrix(spec))


def poly_pow(base: Polynomial, e: int) -> Polynomial:
    """base**e by square and multiply on the bits of e."""
    result = Polynomial.one(base.field)
    while e:
        if e & 1:
            result = result * base
        base = base * base
        e >>= 1
    return result


def evaluate_codes(f: Polynomial, codes: np.ndarray) -> np.ndarray:
    """f at each element code, by Horner's rule on the whole array."""
    field = f.field
    xs = np.asarray(codes, dtype=np.int64)
    acc = np.zeros_like(xs)
    for c in reversed(f.coeffs):
        acc = field.add_table[field.mul_table[acc, xs], np.int64(c)].astype(np.int64)
    return acc


def goppa_code(spec: GoppaSpec) -> LinearCode:
    """The F_q kernel of the rows a_i^l / G(a_i), l < deg G; the zero code
    when deg G >= n."""
    field = spec.field
    L = np.array(spec.support, dtype=np.int64)
    d = int(spec.goppa_poly.degree)
    if d >= len(L):
        return LinearCode.zero_code(field.subfield, len(L))
    inv = field.inv_table[spec.goppa_values]
    return subfield_kernel(field, vandermonde_rows(field, L, inv, d))


def goppa_power_codes(spec: GoppaSpec, exponents, cofactor: Polynomial | None = None):
    """[goppa_code(GoppaSpec(F, L, h * g**j)) for j in exponents], g the
    spec's polynomial and h the cofactor (default 1)."""
    h = Polynomial.one(spec.field) if cofactor is None else cofactor
    return [goppa_code(GoppaSpec(spec.field, spec.support, h * spec.goppa_poly**j))
            for j in exponents]


def vandermonde_rows(field: Field, points, mult, count: int) -> np.ndarray:
    """The count x n matrix with rows mult_i * a_i^j for j < count, over the
    points a_i; mult is one multiplier per point, or a scalar code."""
    L = np.asarray(points, dtype=np.int64)
    rows = np.empty((count, L.size), dtype=np.int64)
    rows[:1] = mult
    for j in range(1, count):
        rows[j] = field.mul_table[rows[j - 1], L]
    return rows


def span(field: Field, rows) -> LinearCode:
    """The row space of a 2-d array of codes."""
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError("expected a 2-d array of generator rows")
    return LinearCode(field, rows.shape[1], rows)


def full_code(field: Field, n: int) -> LinearCode:
    return LinearCode(field, n, np.eye(n, dtype=np.int16))


def dual(code: LinearCode) -> LinearCode:
    """The dual code under the standard inner product."""
    if code.k == 0:
        return full_code(code.field, code.n)
    K = kernel(MatrixGF(code.field, code.generator))
    return LinearCode(code.field, code.n, K.array)


def shorten(code: LinearCode, positions) -> LinearCode:
    """Codewords vanishing on the given 0-based positions, restricted to the
    complement, in the original coordinate order."""
    S = sorted(set(int(p) for p in positions))
    if S and (S[0] < 0 or S[-1] >= code.n):
        raise ValueError(f"positions out of range for length {code.n}")
    keep = [c for c in range(code.n) if c not in set(S)]
    if not keep:
        raise ValueError("cannot shorten away every coordinate")
    if code.k == 0:
        return LinearCode.zero_code(code.field, len(keep))
    # shortened positions first: the RREF rows pivoting outside them vanish on S
    res = rref(MatrixGF(code.field, code.generator[:, S + keep]))
    rows = [j for j, p in enumerate(res.pivots) if p >= len(S)]
    sub = res.matrix.array[rows][:, len(S):] if rows else None
    return LinearCode(code.field, len(keep), sub)


def subfield_subcode(code: LinearCode) -> LinearCode:
    """Codewords with every entry in F_q, as a code over F_q (m >= 2)."""
    if code.field.m < 2:
        raise ValueError("subfield subcode needs a proper tower (m >= 2)")
    return subfield_kernel(code.field, dual(code).generator)


def trace_code(code: LinearCode) -> LinearCode:
    """Coordinate-wise trace image over F_q (m >= 2): the traces of
    z^l * row, l < m, over the generator rows."""
    field = code.field
    if field.m < 2:
        raise ValueError("trace code needs a proper tower (m >= 2)")
    rows = code.generator.astype(np.int64)
    blocks = [field.trace_table[field.mul_table[(field.gen**l).code, rows]]
              for l in range(field.m)]
    return LinearCode(field.subfield, code.n, np.vstack(blocks))


def grs_pair(field: Field, support, h: Polynomial, t: int | None = None):
    """(C, D): C the generalised Reed-Solomon code with multipliers
    h(a_i)/w'(a_i) on polynomials of degree < n - t (w the support product,
    t <= deg h, default deg h), and D, with multipliers 1/h(a_i) on
    polynomials of degree < t, its dual. C restricted to F_q is the Goppa
    code of (support, h) when t = deg h."""
    L = support_codes(field, support)
    n = len(L)
    if h.field != field:
        raise ValueError("multiplier polynomial must live over the top field")
    if h.degree is NEG_INF or h.degree < 1:
        raise ValueError("multiplier polynomial must have degree >= 1")
    if t is None:
        t = int(h.degree)
    if not 1 <= t <= n - 1:
        raise ValueError(f"need 1 <= t <= n-1, got t={t}, n={n}")
    Lv = np.array(L, dtype=np.int64)
    hv = h.evaluate_codes(Lv)
    if (hv == 0).any():
        raise ValueError("multiplier polynomial vanishes on the support")
    # w'(a_i) = prod over j != i of (a_i - a_j)
    add, mul = field.add_table, field.mul_table
    diffs = add[Lv[:, None], field.neg_table[Lv][None, :]].astype(np.int64)
    np.fill_diagonal(diffs, 1)
    wprime = np.ones(n, dtype=np.int64)
    for j in range(n):
        wprime = mul[wprime, diffs[:, j]].astype(np.int64)
    u = mul[hv, field.inv_table[wprime].astype(np.int64)].astype(np.int64)
    v = field.inv_table[hv].astype(np.int64)
    C = LinearCode(field, n, vandermonde_rows(field, Lv, u, n - t))
    D = LinearCode(field, n, vandermonde_rows(field, Lv, v, t))
    return C, D


def tower_tables(p: int, a: int, m: int) -> dict[str, object]:
    """generator_code, exp, log and the seven tables of the tower
    F_p < F_(p^a) < F_(p^(a*m)), by the original scalar construction over
    the library's moduli (the level below from ``build_tower``)."""
    order, q = p ** (a * m), p**a
    if a * m == 1:
        mul = lambda x, y: x * y % p
        power = lambda x, e: pow(x, e, p)
    else:
        K = build_tower(p, a, 1) if m > 1 else build_tower(p, 1, 1)
        f = searched_irreducible(K, m if m > 1 else a)
        r, d = K.order, int(f.degree)
        lift = lambda x: Polynomial(K, digits(x, r, d))
        code = lambda g: sum(c * r**i for i, c in enumerate(g.coeffs))
        mul = lambda x, y: code(lift(x) * lift(y) % f)
        power = lambda x, e: code(pow_mod(lift(x), e, f))

    n1 = order - 1
    gen = 1
    if n1 > 1:
        checks = [n1 // ell for ell in prime_factors(n1)]
        gen = next(c for c in range(2, order) if all(power(c, e) != 1 for e in checks))
    exp = np.zeros(n1, dtype=np.int64)
    exp[0] = 1
    for i in range(1, n1):
        exp[i] = mul(int(exp[i - 1]), gen)
    log = np.zeros(order, dtype=np.int64)
    log[exp] = np.arange(n1)

    codes = np.arange(order, dtype=np.int64)
    add_t = np.zeros((order, order), dtype=np.int64)
    for k in range(a * m):
        dk = (codes // p**k) % p
        add_t += ((dk[:, None] + dk[None, :]) % p) * p**k
    mul_t = exp[(log[:, None] + log[None, :]) % n1]
    mul_t[0, :] = 0
    mul_t[:, 0] = 0
    inv = np.zeros(order, dtype=np.int64)
    inv[exp] = exp[(-np.arange(n1)) % n1]
    frob = exp[(log * q) % n1]
    frob[0] = 0
    tr, nrm, cur = codes.copy(), codes.copy(), codes.copy()
    for _ in range(m - 1):
        cur = frob[cur]
        tr = add_t[tr, cur]
        nrm = mul_t[nrm, cur]
    tables = {"add_table": add_t, "mul_table": mul_t, "neg_table": mul_t[p - 1],
              "inv_table": inv, "frobenius_table": frob, "trace_table": tr,
              "norm_table": nrm}
    out = {name: t.astype(_DT) for name, t in tables.items()}
    out.update(generator_code=gen, exp=exp, log=log)
    return out


# -- the scalar element and residue API, one element at a time ---------------


def elements(field: Field):
    for c in range(field.order):
        yield FieldElement(field, c)


def embed(field: Field, x: FieldElement | int) -> FieldElement:
    """Image of an F_q element in the top field (same code by encoding)."""
    if isinstance(x, FieldElement):
        if x.field != field.subfield:
            raise ValueError(f"{x!r} is not in the scalar level of {field!r}")
        return FieldElement(field, x.code)
    code = int(x)
    if not 0 <= code < field.q:
        raise ValueError(f"scalar code {code} out of range for F_{field.q}")
    return FieldElement(field, code)


def inverse(x: FieldElement) -> FieldElement:
    if x.code == 0:
        raise ZeroDivisionError("zero has no inverse")
    return FieldElement(x.field, x.field._inv_py[x.code])


def coordinates(x: FieldElement) -> tuple[FieldElement, ...]:
    """Coordinates over F_q, low power first, as subfield elements."""
    f = x.field
    sub = f.subfield
    return tuple(FieldElement(sub, c) for c in digits(x.code, f.q, f.m))


def in_subfield(x: FieldElement) -> bool:
    """Whether the element lies in F_q (fixed by x -> x^q; by the
    encoding this is exactly code < q)."""
    return x.code < x.field.q


def frobenius(x: FieldElement) -> FieldElement:
    """x -> x^q."""
    return FieldElement(x.field, int(x.field.frobenius_table[x.code]))


def trace(x: FieldElement) -> FieldElement:
    """Trace to F_q: sum of x^(q^i) for 0 <= i < m."""
    return FieldElement(x.field.subfield, int(x.field.trace_table[x.code]))


def norm(x: FieldElement) -> FieldElement:
    """Norm to F_q: product of x^(q^i) for 0 <= i < m; equals
    x^((q^m-1)/(q-1)) on nonzero x."""
    return FieldElement(x.field.subfield, int(x.field.norm_table[x.code]))


def leading_coefficient(f: Polynomial) -> FieldElement:
    if not f.coeffs:
        raise ValueError("zero polynomial has no leading coefficient")
    return f.field.element(f.coeffs[-1])


def evaluate(f: Polynomial, x) -> FieldElement:
    """f(x) by Horner's rule on the scalar tables."""
    field = f.field
    code = _as_code(field, x)
    add, mul = field._add_py, field._mul_py
    acc = 0
    for c in reversed(f.coeffs):
        acc = add[mul[acc][code]][c]
    return field.element(acc)


def ext_gcd(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(g, u, v) with g = gcd(a, b) monic and u*a + v*b = g."""
    a._check(b)
    f = a.field
    r0, r1 = a, b
    u0, u1 = Polynomial.one(f), Polynomial.zero(f)
    v0, v1 = Polynomial.zero(f), Polynomial.one(f)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero:
        return r0, u0, v0
    lead_inv = inverse(leading_coefficient(r0))
    return r0.scale(lead_inv), u0.scale(lead_inv), v0.scale(lead_inv)


def ring_mul(h: Polynomial, a: Polynomial, b: Polynomial) -> Polynomial:
    return (a * b) % h


def ring_pow(h: Polynomial, a: Polynomial, e: int) -> Polynomial:
    return pow_mod(a, e, h)


def ring_inv(h: Polynomial, a: Polynomial) -> Polynomial:
    g, u, _ = ext_gcd(a % h, h)
    if g.degree != 0:
        raise ZeroDivisionError(f"{a!r} is not invertible mod {h!r}")
    return u % h
