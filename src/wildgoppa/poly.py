"""Univariate polynomial arithmetic over constructed fields.

Coefficients are stored low degree first as integer element codes, with no
trailing zeros, so two polynomials are equal exactly when their coefficient
tuples are. The zero polynomial has an empty tuple and degree minus infinity
(``NEG_INF``), which makes the usual degree inequalities hold without
special cases.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Iterator

import numpy as np

from .errors import BudgetExceeded
from .gf import _CHUNK_CELLS, Field, digit_array, digits, element_code, mirror_row

__all__ = [
    "NEG_INF",
    "Polynomial",
    "gcd",
    "pow_mod",
    "batch_mul_mod",
    "batch_pow_mod",
    "is_irreducible",
    "find_irreducible",
    "count_distinct_roots",
    "is_squarefree",
    "irreducible_power",
    "parse_poly_spec",
]

NEG_INF = float("-inf")

# Table lookups one find_irreducible call may spend: each small-factor
# stage's cells on the rows it is given (_SmallFactorStage.cells),
# _berlekamp_cells per row the stages leave to the Berlekamp sieve, and d^2
# per squarefree confirmation; one is_squarefree gcd may spend d^2 too. The
# largest searches the tests make, degree 7 over F_243 and degree 6 over
# F_256, are charged 5.9e7 and 3.4e7; F_4 at degree 40 9.1e6 and the
# quartics over F_256 8.2e6-9.2e6. The largest in the benchmark workloads,
# F_64 and F_81 at degree 6, are charged 2.7e6 and 1.5e6.
IRREDUCIBLE_CELL_BUDGET = 10**8

# Candidate scans (the sieve here, the witness scans of evidence) run in
# chunks that double from _FIRST_CHUNK while chunk * (cells per candidate)
# stays within _CHUNK_CELLS, so the working arrays keep a fixed size; a
# witness scan of up to 4 * _FIRST_CHUNK candidates is one chunk.
_FIRST_CHUNK = 16

_DT = np.int16


class Polynomial:
    """A polynomial over a :class:`Field`, coefficients low degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable = ()):
        cs = [element_code(field, c, "coefficient code") for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def _raw(cls, field: Field, coeffs: list[int]) -> "Polynomial":
        # internal: coeffs already codes, possibly with trailing zeros
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self = object.__new__(cls)
        self.field = field
        self.coeffs = tuple(coeffs)
        return self

    @classmethod
    def zero(cls, field: Field) -> "Polynomial":
        return cls._raw(field, [])

    @classmethod
    def one(cls, field: Field) -> "Polynomial":
        return cls._raw(field, [1])

    @classmethod
    def x(cls, field: Field) -> "Polynomial":
        return cls._raw(field, [0, 1])

    @classmethod
    def constant(cls, field: Field, c) -> "Polynomial":
        return cls._raw(field, [element_code(field, c, "coefficient code")])

    @classmethod
    def monomial(cls, field: Field, degree: int, c=1) -> "Polynomial":
        code = element_code(field, c, "coefficient code")
        if code == 0:
            return cls.zero(field)
        return cls._raw(field, [0] * degree + [code])

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Polynomial)
            and (other.field is self.field or other.field == self.field)
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.params, self.coeffs))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append("x" if c == 1 else f"{c}*x")
            else:
                parts.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return "Poly(" + " + ".join(parts) + f" over GF({self.field.order}))"

    def _check(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial) or (
            other.field is not self.field and other.field != self.field
        ):
            raise ValueError(f"cannot combine {self!r} with {other!r}")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        add = self.field._add_py
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add[out[i]][c]
        return Polynomial._raw(self.field, out)

    def __neg__(self) -> "Polynomial":
        neg = self.field._neg_py
        return Polynomial._raw(self.field, [neg[c] for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial.zero(self.field)
        add = self.field._add_py
        mul = self.field._mul_py
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            mrow = mirror_row(mul, ai)
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add[out[i + j]][mrow[bj]]
        return Polynomial._raw(self.field, out)

    def scale(self, c) -> "Polynomial":
        code = element_code(self.field, c, "coefficient code")
        mrow = mirror_row(self.field._mul_py, code)
        return Polynomial._raw(self.field, [mrow[ci] for ci in self.coeffs])

    def __pow__(self, e: int) -> "Polynomial":
        """self**e: square and multiply below the field's q, and from q on
        self**e = (self**(e // q))**q * self**(e % q), where the q-th power
        is the coefficient-wise Frobenius (sum c_i x^i)^q = sum c_i^q x^(iq)
        of characteristic p, so only products by powers below q remain."""
        if e < 0:
            raise ValueError("negative polynomial power")
        q = self.field.q
        if e >= q:
            high, low = divmod(e, q)
            top = (self**high).coeffs
            spread = [0] * (q * (len(top) - 1) + 1) if top else []
            spread[::q] = self.field.frobenius_table[list(top)].tolist()
            return Polynomial._raw(self.field, spread) * self**low
        result = Polynomial.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        add, mul, neg, inv = f._add_py, f._mul_py, f._neg_py, f._inv_py
        db = len(other.coeffs) - 1
        lead_inv = inv[other.coeffs[-1]]
        r = list(self.coeffs)
        q = [0] * max(len(r) - db, 0)
        while len(r) - 1 >= db and r:
            c = mul[r[-1]][lead_inv]
            shift = len(r) - 1 - db
            q[shift] = c
            mc = mirror_row(mul, neg[c])
            for j, bj in enumerate(other.coeffs[:-1]):
                if bj:
                    r[shift + j] = add[r[shift + j]][mc[bj]]
            r.pop()
            while r and r[-1] == 0:
                r.pop()
        return Polynomial._raw(f, q), Polynomial._raw(f, r)

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        if self.coeffs[-1] == 1:
            return self
        return self.scale(self.field._inv_py[self.coeffs[-1]])

    def derivative(self) -> "Polynomial":
        f = self.field
        p = f.p
        out = []
        for i in range(1, len(self.coeffs)):
            k = i % p
            c = self.coeffs[i]
            acc = 0
            for _ in range(k):  # k < p, tiny
                acc = f._add_py[acc][c]
            out.append(acc)
        return Polynomial._raw(f, out)

    # -- evaluation ----------------------------------------------------------

    def evaluate_codes(self, codes: np.ndarray) -> np.ndarray:
        """Vectorised evaluation at an array of element codes.

        The coefficients are cut into k blocks of b, with b about the square
        root of their number. Horner's rule runs on all blocks at once (b
        array steps), then on the k block values in x^b (k steps): about
        2*sqrt(deg) steps instead of deg.
        """
        f = self.field
        add, mul = f.add_table, f.mul_table
        xs = np.asarray(codes, dtype=np.int64)
        n = len(self.coeffs)
        if not n:
            return np.zeros(xs.shape, dtype=np.int64)
        b = math.isqrt(n - 1) + 1
        k = -(-n // b)
        blocks = np.zeros(k * b, dtype=np.int64)
        blocks[:n] = self.coeffs
        blocks = blocks.reshape((k, b) + (1,) * xs.ndim)
        acc = np.zeros((k,) + xs.shape, dtype=np.int64)
        for j in range(b - 1, -1, -1):
            acc = add[mul[acc, xs], blocks[:, j]]
        xb = xs
        for _ in range(b - 1):
            xb = mul[xb, xs]
        out = acc[k - 1]
        for i in range(k - 2, -1, -1):
            out = add[mul[out, xb], acc[i]]
        return out.astype(np.int64)


# ---------------------------------------------------------------------------
# Module-level operations.
# ---------------------------------------------------------------------------


def gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    a._check(b)
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def pow_mod(base: Polynomial, e: int, modulus: Polynomial) -> Polynomial:
    """base**e mod modulus, by square and multiply; e may be huge."""
    if e < 0:
        raise ValueError("negative exponent")
    if modulus.degree == NEG_INF:
        raise ZeroDivisionError("zero modulus")
    result = Polynomial.one(base.field) % modulus
    base = base % modulus
    while e:
        if e & 1:
            result = (result * base) % modulus
        base = (base * base) % modulus
        e >>= 1
    return result


def _lookup(table: np.ndarray):
    """(x, y) -> table[x, y] for broadcastable code arrays, as one take
    from the flattened table (about twice as fast as 2-d indexing)."""
    flat, width = table.ravel(), table.shape[1]
    return lambda x, y: flat[np.multiply(x, width, dtype=np.intp) + y]


def _adder(field: Field):
    """Elementwise sum of code arrays; XOR of the codes in characteristic 2."""
    return np.bitwise_xor if field.p == 2 else _lookup(field.add_table)


def batch_mul_mod(field: Field, a: np.ndarray, b: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """Row-wise a[i] * b[i] mod f_i, for N residues at once.

    ``moduli`` is an (N, d) array: row i holds the non-leading coefficients
    of the monic f_i of degree d >= 1, low degree first. ``a`` and ``b`` are
    (N, d) arrays of residues, coefficient codes low degree first. Returns
    the (N, d) products in the same form, computed through the field's
    tables.
    """
    add, mul = _adder(field), _lookup(field.mul_table)
    n, d = moduli.shape
    prod = np.zeros((n, 2 * d - 1), dtype=_DT)
    for i in range(d):
        prod[:, i : i + d] = add(prod[:, i : i + d], mul(a[:, i : i + 1], b))
    return _fold_mod(field, prod, moduli)


def _fold_mod(field: Field, rows: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """Row-wise rows[i] mod f_i, overwriting ``rows``.

    ``rows`` is an (N, w) array of coefficient codes, low degree first, with
    w >= d. ``moduli`` holds the non-leading coefficients of the monic f_i of
    degree d >= 1: an (N, d) array with one modulus per row, or (1, d) with
    one for all rows. Returns the (N, d) residues, a view of ``rows``.
    """
    add, mul = _adder(field), _lookup(field.mul_table)
    d = moduli.shape[1]
    # x^d = -(f_0 + f_1 x + ... + f_(d-1) x^(d-1)): fold the top coefficient down
    negf = field.neg_table[moduli]
    for k in range(rows.shape[1] - 1, d - 1, -1):
        rows[:, k - d : k] = add(rows[:, k - d : k], mul(rows[:, k : k + 1], negf))
    return rows[:, :d]


def batch_pow_mod(field: Field, base: np.ndarray, e: int, moduli: np.ndarray) -> np.ndarray:
    """Row-wise base[i] ** e mod f_i, by square and multiply on
    :func:`batch_mul_mod`; arrays as there, ``base`` already reduced."""
    if e < 0:
        raise ValueError("negative exponent")
    result = np.zeros(moduli.shape, dtype=_DT)
    result[:, 0] = 1
    for bit in bin(e)[2:]:
        result = batch_mul_mod(field, result, result, moduli)
        if bit == "1":
            result = batch_mul_mod(field, result, base, moduli)
    return result


def _candidate_block(start: int, count: int, order: int, degree: int) -> np.ndarray:
    """Non-leading coefficients of the candidates start, start + 1, ...:
    row i holds the base-``order`` digits of start + i, low digit first.

    Only the low k digits, with order**k < 2**62, vary within a block: the
    block stops at the next multiple of order**k, so its high digits are
    shared and come exactly from Python integers. It may hold fewer than
    ``count`` rows for that reason.
    """
    k = min(degree, 62 // order.bit_length())
    span = order**k
    high, low = divmod(start, span)
    idx = np.arange(low, min(low + count, span), dtype=np.int64)
    out = np.empty((idx.size, degree), dtype=_DT)
    out[:, :k] = digit_array(idx, order, k)
    out[:, k:] = digits(high, order, degree - k)
    return out


def _candidate_chunks(order: int, degree: int, start: int, stop: int, width: int,
                      first: int | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """(start, block) for the candidates start .. stop - 1 in index order, each
    block from :func:`_candidate_block`. Blocks hold ``first`` rows
    (_FIRST_CHUNK by default), then double, all while rows * width stays
    within _CHUNK_CELLS, so a caller whose working arrays hold ``width``
    cells per candidate keeps them at a fixed size."""
    cap = max(_FIRST_CHUNK, _CHUNK_CELLS // width)
    size = min(first or _FIRST_CHUNK, cap)
    while start < stop:
        block = _candidate_block(start, min(size, stop - start), order, degree)
        yield start, block
        start += len(block)
        size = min(2 * size, cap)


def _batch_rank(field: Field, M: np.ndarray) -> np.ndarray:
    """Ranks of the N matrices in an (N, r, c) array, by a row echelon
    elimination of all of them at once; M is overwritten."""
    add, mul, neg = _adder(field), _lookup(field.mul_table), field.neg_table
    n, r, c = M.shape
    rank = np.zeros(n, dtype=np.intp)
    rows = np.arange(r)
    for col in range(c):
        nz = (M[:, :, col] != 0) & (rows >= rank[:, None])
        has = np.flatnonzero(nz.any(axis=1))
        if not has.size:
            continue
        top, piv = rank[has], nz[has].argmax(axis=1)
        prow = M[has, piv]
        M[has, piv] = M[has, top]
        M[has, top] = prow
        # clear the column below the pivot: row -= (entry / pivot) * prow
        below = np.where(rows > top[:, None], M[has, :, col], 0)
        factors = mul(neg[below], field.inv_table[prow[:, col]][:, None])
        M[has] = add(M[has], mul(factors[:, :, None], prow[:, None, :]))
        rank[has] += 1
    return rank


def _xq_by_frobenius(p: int, k: int, d: int) -> tuple[bool, int]:
    """Which way to x^Q mod a monic f of degree d >= 2, Q = p^k, costs
    fewer table lookups: (True, lookups per modulus) for k p-th power maps,
    (False, lookups per modulus) for square and multiply.

    A p-th power map h -> h^p = sum h_i^p x^(ip) mod f is d lookups and a
    fold of (p - 1)(d - 1) steps of 2d. Square and multiply takes one
    batch_mul_mod of about 4d^2 per bit and per one bit of Q. The maps win
    for small p, square and multiply for large p, such as F_31 and F_961.
    """
    Q = p**k
    maps = k * (d + 2 * d * (p - 1) * (d - 1))
    squares = (Q.bit_length() + bin(Q).count("1")) * 4 * d * d
    return (True, maps) if maps < squares else (False, squares)


def _power_rows(field: Field, moduli: np.ndarray, k: int) -> np.ndarray:
    """(N, d, d) codes whose row j is x^(j P) mod f_i, P = p^k, for the monic
    f_i of degree d >= 1 (rows of non-leading coefficients): the P-th power
    map of F[x]/(f_i), (sum_j c_j x^j)^P = sum_j c_j^P (x^(j P) mod f_i).
    x^P comes the way :func:`_xq_by_frobenius` picks, and each later row is
    the one before times x^P."""
    (n, d), p = moduli.shape, field.p
    rows = np.zeros((n, d, d), dtype=_DT)
    rows[:, 0, 0] = 1
    if d == 1:
        return rows
    h = np.zeros((n, d), dtype=_DT)
    h[:, 1] = 1
    if not _xq_by_frobenius(p, k, d)[0]:
        h = batch_pow_mod(field, h, p**k, moduli)
    else:
        power = field._exp[field._log * p % (field.order - 1)]  # c -> c^p
        power[0] = 0
        for _ in range(k):
            spread = np.zeros((n, (d - 1) * p + 1), dtype=_DT)
            spread[:, ::p] = power[h]
            h = _fold_mod(field, spread, moduli)
    for j in range(1, d):
        rows[:, j] = h if j == 1 else batch_mul_mod(field, rows[:, j - 1], h, moduli)
    return rows


def _one_distinct_factor(field: Field, moduli: np.ndarray) -> np.ndarray:
    """Which monic f (rows of non-leading coefficients, degree d >= 2) have
    exactly one distinct irreducible factor.

    Berlekamp: the h with h^Q = h mod f form an F_Q-space whose dimension is
    the number of distinct irreducible factors of f, squarefree or not. That
    space is the left kernel of B - I, where row j of B is x^(jQ) mod f
    (:func:`_power_rows`). Row 0 of B - I is zero, so rows 1 .. d-1 have
    rank d - 1 exactly when the kernel has dimension 1.
    """
    d = moduli.shape[1]
    M = _power_rows(field, moduli, field.a * field.m)[:, 1:]
    diag = np.arange(1, d)
    M[:, diag - 1, diag] = _adder(field)(M[:, diag - 1, diag], field.neg_table[1])
    return _batch_rank(field, M) == d - 1


@functools.lru_cache(maxsize=32)
def _irreducibles(field: Field, k: int) -> np.ndarray:
    """(k, H) codes: minus the non-leading coefficients, low degree first,
    of the H monic irreducibles h of degree k in {1, 2}. At k = 1 they are
    the elements a, for h = x - a; at k = 2 the |F|(|F| - 1)/2 monic
    quadratics without a root. Cached per field and read-only."""
    if k == 1:
        neg = np.arange(field.order, dtype=_DT)[None]
    else:
        quads = _candidate_block(0, field.order**2, field.order, 2)
        neg = field.neg_table[quads[_SmallFactorStage(field, 2, 1).free(quads)].T]
    neg.setflags(write=False)
    return neg


def _joined(parts, order: int) -> np.ndarray:
    """sum_i parts[i] order^i, for code arrays of one shape."""
    out = parts[-1]
    for part in parts[-2::-1]:
        out = np.multiply(out, order, dtype=np.intp) + part
    return out


class _SmallFactorStage:
    """Which monic candidates of one degree d > k (rows of non-leading
    coefficients) have no monic irreducible factor of degree k, for k = 1
    (a root) or k = 2, over the chunks of one search: the small-degree end
    of distinct-degree factorisation.

    The candidates that share (c_k, ..., c_(d-1)) form runs of |F|^k rows
    in index order, and in a run each monic irreducible h of degree k
    divides exactly one candidate: the one whose c_0 + ... + c_(k-1) x^(k-1)
    is minus x^d + sum_(i>=k) c_i x^i mod h. So one pass over the
    irreducibles (:func:`_irreducibles`), k(d - k) products each, marks
    every row of a run that has such a factor. The last run's marks are
    kept, since a search's next chunk starts in it.
    """

    def __init__(self, field: Field, degree: int, k: int):
        self.field, self.degree, self.k = field, degree, k
        self.powers = None  # x^j mod h, j = k .. d, formed on first use
        self.high = self.marks = None  # the last run marked
        self.chunk = None  # the rows last given, with their runs

    def _runs(self, rows: np.ndarray):
        """Which rows start a run, the runs' shared high parts, and whether
        the first run is the last one marked; found once per array."""
        if self.chunk is None or self.chunk[0] is not rows:
            high = rows[:, self.k :]
            starts = np.ones(len(rows), dtype=bool)
            starts[1:] = (high[1:] != high[:-1]).any(axis=1)
            high = high[starts]
            known = self.high is not None and bool((high[0] == self.high).all())
            self.chunk = rows, starts, high, known
        return self.chunk[1:]

    def cells(self, rows: np.ndarray) -> int | None:
        """Table lookups to mark ``rows``: unless formed, the irreducibles
        (at k = 2 a root pass over the |F|^2 quadratics, 2|F|^2) and their
        powers (2k - 1 per irreducible and power, about |F|^k / k
        irreducibles), then (d - k)|F|^k per new run and one per row. None
        when the runs' marks would exceed _CHUNK_CELLS."""
        k, d, size = self.k, self.degree, self.field.order**self.k
        _, high, known = self._runs(rows)
        if len(high) * size > _CHUNK_CELLS:
            return None
        cells = (len(high) - known) * (d - k) * size + len(rows)
        if self.powers is None:
            cells += ((2 * k - 1) * (d - k) + 2 * k * (k - 1)) * size // k
        return cells

    def free(self, rows: np.ndarray) -> np.ndarray:
        """Which rows have no monic irreducible factor of degree k."""
        field, d, k, order = self.field, self.degree, self.k, self.field.order
        add, mul = _adder(field), _lookup(field.mul_table)
        if self.powers is None:
            # x (a_0 + ... + a_(k-1) x^(k-1)) = sum_i (a_(i-1) - a_(k-1) h_i) x^i
            # mod h, with a_(-1) = 0
            neg_h = _irreducibles(field, k)
            self.powers = [tuple(neg_h)]
            for _ in range(d - k):
                *low, top = self.powers[-1]
                shifted = [mul(top, c) for c in neg_h]
                self.powers.append((shifted[0], *map(add, low, shifted[1:])))
        starts, high, known = self._runs(rows)
        self.chunk = None
        marks = np.zeros((len(high), order**k), dtype=bool)
        if known:
            marks[0] = self.marks
        if len(high) > known:
            acc = self.powers[d - k]  # x^d mod h
            for i in range(k, d):  # + c_i x^i mod h
                c = high[known:, i - k : i - k + 1]
                acc = [add(s, mul(c, t)) for s, t in zip(acc, self.powers[i - k])]
            cols = _joined([field.neg_table[s] for s in acc], order)
            marks[np.arange(known, len(high))[:, None], cols] = True
        self.high, self.marks = high[-1], marks[-1]
        return ~marks[np.cumsum(starts) - 1, _joined(rows[:, :k].T, order)]


def _stages(field: Field, degree: int) -> list[_SmallFactorStage]:
    """The small-factor stages of a search of this degree, kept over its
    chunks: k = 1 from degree 2 and k = 2 from degree 4."""
    return [_SmallFactorStage(field, degree, k) for k in (1, 2) if 2 * k <= degree]


def _sieve(field: Field, rows: np.ndarray, charge=None,
           stages: list[_SmallFactorStage] | None = None) -> tuple[np.ndarray, bool]:
    """Indices of the monic candidates (rows of non-leading coefficients,
    degree d) that survive the small-factor stages (:func:`_stages`, kept
    over the chunks of a search, or new ones) and, where those do not prove
    them irreducible, the Berlekamp sieve (:func:`_one_distinct_factor`),
    and whether those survivors are proven irreducible.

    Each drop proves reducibility. The stage at k = 1 drops the candidates
    with a root, and the one at k = 2 those with an irreducible quadratic
    factor; it runs on the survivors at k = 1 when its marks fit in
    _CHUNK_CELLS and it costs fewer lookups than the Berlekamp sieve on
    them. A survivor of the stages up to k is irreducible when d < 2(k + 1),
    since a reducible f has a factor of degree at most d / 2, so degrees 2
    and 3 end at k = 1 and degrees 4 and 5 at k = 2. A survivor of the
    Berlekamp sieve is h^s for an irreducible h. ``charge``, when given, is
    called with each step's lookups before it runs.
    """
    degree = rows.shape[1]
    keep = np.arange(len(rows))
    if degree < 2:
        return keep, True
    if stages is None:
        stages = _stages(field, degree)
    charge = charge or (lambda cells: None)
    berlekamp = _berlekamp_cells(field, degree)
    for stage in stages:
        cells = stage.cells(rows)
        if stage.k == 2 and (cells is None or cells >= keep.size * berlekamp):
            break
        charge(cells)
        free = stage.free(rows)
        keep, rows = keep[free], rows[free]
        if degree < 2 * stage.k + 2 or not keep.size:
            return keep, True
    charge(keep.size * berlekamp)
    return keep[_one_distinct_factor(field, rows)], False


def is_irreducible(f: Polynomial) -> bool:
    """Deterministic irreducibility over the coefficient field.

    f of degree d is irreducible exactly when d = 1, or f survives
    :func:`_sieve` and, unless the sieve proved it irreducible, is
    squarefree: the Berlekamp sieve leaves f = h^s with h irreducible, and
    s = 1 exactly when f is squarefree.
    """
    d = f.degree
    if d is NEG_INF or d == 0:
        return False
    fm = f.monic()
    keep, proven = _sieve(f.field, np.array([fm.coeffs[:-1]], dtype=_DT))
    return keep.size == 1 and (proven or is_squarefree(fm))


def _berlekamp_cells(field: Field, degree: int) -> int:
    """Table lookups of the Berlekamp sieve on one candidate of degree
    d >= 2: x^Q (:func:`_xq_by_frobenius`), d - 2 products of about 4d^2
    for B and about 2d^3 for its rank."""
    xq = _xq_by_frobenius(field.p, field.a * field.m, degree)[1]
    return xq + 4 * degree * degree * (degree - 2) + 2 * degree**3


def find_irreducible(field: Field, degree: int) -> Polynomial:
    """Monic irreducible of the given degree, minimal in the deterministic
    order (non-leading coefficient vector read as a base-|F| integer).

    Candidates are scanned in that order, in chunks, each through
    :func:`_sieve`, which keeps the small-factor stages over the search.
    The first survivor the sieve proves irreducible is the answer;
    otherwise the survivors are powers h^s of one irreducible, and the
    first that :func:`is_squarefree` confirms is the answer. Each drop
    proves reducibility, so this finds the same polynomial as testing every
    candidate.

    Each step of the sieve is charged its lookups before it runs, and each
    confirmation d^2; BudgetExceeded is raised as soon as the lookups
    charged pass IRREDUCIBLE_CELL_BUDGET. A search whose first chunk's
    stage at k = 1 is over budget, or in which one candidate's Berlekamp
    sieve alone would be, is refused before any work.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    order = field.order
    total = order**degree
    spent = 0

    def charge(cells: int) -> None:
        nonlocal spent
        spent += cells
        if spent > IRREDUCIBLE_CELL_BUDGET:
            raise BudgetExceeded(
                f"irreducible search of degree {degree} over F_{order} needs "
                f"over IRREDUCIBLE_CELL_BUDGET = {IRREDUCIBLE_CELL_BUDGET} "
                f"table lookups"
            )

    if degree >= 4 and _berlekamp_cells(field, degree) > IRREDUCIBLE_CELL_BUDGET:
        charge(_berlekamp_cells(field, degree))
    stages = _stages(field, degree)
    for _, cands in _candidate_chunks(order, degree, 0, total, max(order, degree * degree)):
        keep, proven = _sieve(field, cands, charge, stages)
        for i in keep.tolist():
            cand = Polynomial._raw(field, cands[i].tolist() + [1])
            if proven:
                return cand
            charge(degree * degree)
            if is_squarefree(cand):
                return cand
    raise RuntimeError("no irreducible polynomial of requested degree; unreachable")


def count_distinct_roots(g: Polynomial) -> int:
    """Number of distinct roots of g in its coefficient field, by evaluating
    g at every element; multiplicities are ignored by construction."""
    if g.is_zero:
        raise ValueError("zero polynomial has every element as a root")
    return int(np.count_nonzero(g.evaluate_codes(np.arange(g.field.order)) == 0))


def charge_gcd(degree: int, what: str) -> None:
    """Raise BudgetExceeded when a gcd of polynomials of this degree, charged
    degree^2 table lookups, is over IRREDUCIBLE_CELL_BUDGET."""
    if degree * degree > IRREDUCIBLE_CELL_BUDGET:
        raise BudgetExceeded(
            f"{what} needs {degree * degree} table lookups, over "
            f"IRREDUCIBLE_CELL_BUDGET = {IRREDUCIBLE_CELL_BUDGET}"
        )


def is_squarefree(g: Polynomial) -> bool:
    """Whether g has no repeated irreducible factor.

    Over a perfect field a zero derivative means g is in F[x^p], hence a
    p-th power, hence not squarefree for positive degree; otherwise g is
    squarefree iff gcd(g, g') is constant. That gcd is charged deg(g)^2
    table lookups before it runs, and refused with BudgetExceeded over
    IRREDUCIBLE_CELL_BUDGET.
    """
    d = g.degree
    if d is NEG_INF:
        raise ValueError("zero polynomial is not squarefree nor squareful")
    if d == 0:
        return True
    charge_gcd(d, f"squarefree test of a degree-{d} polynomial")
    dg = g.derivative()
    if dg.is_zero:
        return False
    return gcd(g, dg).degree == 0


def irreducible_power(g: Polynomial) -> tuple[Polynomial, int] | None:
    """Decompose g (up to a leading unit) as h**s with h monic irreducible.

    Returns (h, s) or None when g is not a power of a single irreducible.
    Uses a distinct-degree sieve: gcd(g, x^(Q^d) - x) is the product of the
    distinct irreducible factors of g of degree dividing d, so the first
    degree where it is nonconstant isolates the smallest-degree factor; for
    a pure power that factor is the whole radical.
    """
    d = g.degree
    if d is NEG_INF or d == 0:
        return None
    g = g.monic()
    Q = g.field.order
    x = Polynomial.x(g.field)
    xq = x % g
    for dh in range(1, int(d) + 1):
        xq = pow_mod(xq, Q, g)  # x^(Q^dh) mod g, one Q-th power per step
        w = gcd(g, xq - x % g)
        if w.degree == 0:
            continue
        # w is the product of the distinct factors of degree exactly dh, so
        # a pure power demands deg w == dh (a single factor) and w^s == g.
        if int(w.degree) != dh or int(d) % dh != 0:
            return None
        s = int(d) // dh
        return (w, s) if w**s == g else None
    return None


def parse_poly_spec(field: Field, text: str) -> Polynomial:
    """Parse a polynomial description.

    Accepts either an explicit coefficient list "c0,c1,...,cd" of element
    codes (low degree first) or the shorthand "irreducible:d" for the
    deterministic minimal monic irreducible of degree d.
    """
    text = text.strip()
    if text.startswith("irreducible:"):
        try:
            degree = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad irreducible degree in {text!r}") from None
        return find_irreducible(field, degree)
    try:
        codes = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"bad coefficient list {text!r}") from None
    return Polynomial(field, codes)

