"""Linear codes over constructed fields.

A :class:`LinearCode` is fixed by its canonical generator, the reduced row
echelon form of any generator matrix: two codes are equal exactly when
their canonical generators are identical arrays over equal fields. It
keeps that generator as a pair (K, T): K is in RREF over the first w
columns with no zero row, and the generator is [K | K T], T of shape
w x (n - w). A code built from rows has T of width 0, so K is the
generator; an alternant code keeps its Cauchy systematic form, and the
product K T is formed, once, only when ``generator`` is read.

Every code the verifiers compare is an alternant code, the F_q-kernel of
the rows v_i a_i^l (l < d) over F_(q^m) (MacWilliams-Sloane, ch. 12), and
``alternant_kernel`` builds it from the Cauchy systematic form of those
rows (Roth-Seroussi 1985), one elimination over F_q of (m - 1) d rows.
``restrict_alternant`` cuts such a code down by s more rows v'_i a_i^l
without starting over: one elimination over F_q of the m s digit rows of
those rows times the code's generator, two products formed from the pair
without K T. ``subfield_kernel`` is the general F_q-kernel of any parity
matrix, by expanding it over F_q (``expand_over_subfield``, which also
gives the alternant rows their digits). Every matrix product here is
``linalg.matmul``.

The minimum distance routine is exact and budgeted: it returns the exact
value, or None when the q^k - 1 nonzero codewords exceed the budget, never
an estimate. Since wt(c*x) = wt(x), it visits only the (q^k - 1)/(q - 1)
projective codewords, those whose message has last nonzero digit 1: the
span of the low rows is built once as a block of at most 2^17 cells
(poly._CHUNK_CELLS, the working set of the candidate scans), and each word
led by a higher row is that block plus one offset. A word x + o is zero
where x = -o, so each offset's weights are one comparison of the block
with -o into one reused block-sized mask, with no table pass.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .gf import Field, digit_array
from .linalg import MatrixGF
from .poly import _CHUNK_CELLS, _adder

__all__ = [
    "LinearCode",
    "alternant_kernel",
    "restrict_alternant",
    "subfield_kernel",
    "expand_over_subfield",
    "DEFAULT_DISTANCE_BUDGET",
]

DEFAULT_DISTANCE_BUDGET = 10**7


class LinearCode:
    """A linear code, canonicalised as the RREF of its generator matrix,
    kept as the pair (K, T) of the module docstring."""

    __slots__ = ("field", "n", "k", "_K", "_T", "_generator")

    def __init__(self, field: Field, n: int, rows=None, *, _canonical=None, _tail=None):
        if n < 1:
            raise ValueError("code length must be >= 1")
        self.field = field
        self.n = n
        if _canonical is not None:
            G = _canonical
        else:
            if rows is None:
                rows = np.zeros((0, n), dtype=np.int16)
            M = MatrixGF(field, rows)
            if M.ncols not in (n, 0):
                raise ValueError(f"rows have length {M.ncols}, expected {n}")
            if M.nrows == 0:
                G = np.zeros((0, n), dtype=np.int16)
            else:
                res = linalg.rref(M)
                G = res.matrix.array[: res.rank]
        G = G.astype(np.int16, copy=False)
        G.setflags(write=False)
        self._K = G
        self._T = np.zeros((n, 0), dtype=np.int16) if _tail is None else _tail
        self._generator = G if _tail is None else None
        self.k = int(G.shape[0])

    @property
    def generator(self) -> np.ndarray:
        """The canonical generator [K | K T], formed on the first read."""
        if self._generator is None:
            G = np.hstack([self._K, _rref_times(self.field, self._K, self._T)])
            G.setflags(write=False)
            self._generator = G
        return self._generator

    @classmethod
    def zero_code(cls, field: Field, n: int) -> "LinearCode":
        return cls(field, n)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, LinearCode)
            and other.field == self.field
            and other.n == self.n
            and other.k == self.k
            and np.array_equal(other.generator, self.generator)
        )

    def __hash__(self) -> int:
        return hash((self.field.params, self.n, self.generator.tobytes()))

    def __repr__(self) -> str:
        return f"LinearCode[n={self.n}, k={self.k}] over GF({self.field.order})"

    def contains(self, other: "LinearCode") -> bool:
        if other.field != self.field or other.n != self.n:
            raise ValueError("codes live in different ambient spaces")
        if other.k > self.k:
            return False
        stacked = np.vstack([self.generator, other.generator])
        return linalg.rank(MatrixGF._wrap(self.field, stacked)) == self.k

    def min_distance(self, budget: int = DEFAULT_DISTANCE_BUDGET) -> int | None:
        """Exact minimum distance, or None if the q^k - 1 nonzero codewords
        exceed the budget (see the module docstring). The words led by a low
        row j < s are weighed while the block is built; those led by a high
        row j are the block plus each offset G[j] + span(G[s..j-1]).
        """
        if self.k == 0:
            raise ValueError("minimum distance of the zero code is undefined")
        field, n = self.field, self.n
        order = field.order
        if order**self.k - 1 > budget:
            return None
        # indexing the 2-d table casts the int16 codes in buffered chunks, so
        # no intp copy of the block is ever held; characteristic 2 XORs
        table, mul = field.add_table, field.mul_table
        add = np.bitwise_xor if field.p == 2 else lambda x, y: table[x, y]
        G = self.generator
        scaled = mul[np.arange(order)[:, None, None], G[None]]  # (order, k, n)
        s = 1
        while s < self.k and order ** (s + 1) * n <= _CHUNK_CELLS:
            s += 1
        best = n
        block = np.zeros((1, n), dtype=np.int16)
        for j in range(s):
            levels = add(block[None], scaled[:, j, None])  # block + c*G[j]
            best = min(best, int(np.count_nonzero(levels[1], axis=1).min()))
            block = levels.reshape(-1, n)
        nonzero = np.empty(block.shape, dtype=bool)
        for j in range(s, self.k):
            for offset in _span_offsets(add, G[j], scaled[:, s:j]):
                np.not_equal(block, field.neg_table[offset], out=nonzero)
                best = min(best, int(nonzero.sum(axis=1).min()))
        return best


def _span_offsets(add, base: np.ndarray, scaled: np.ndarray):
    """Yield base + span of the rows, given all their multiples as
    ``scaled[c, i]``; one vector add per yielded offset or inner node."""
    if scaled.shape[1] == 0:
        yield base
        return
    for multiple in scaled[:, -1]:
        yield from _span_offsets(add, add(base, multiple), scaled[:, :-1])


def expand_over_subfield(field: Field, H: np.ndarray) -> np.ndarray:
    """Expand a matrix over F_(q^m) into coordinates over F_q, row-wise.

    Each row h becomes m rows: the j-th holds the j-th tower coordinate of
    every entry. Because F_q scalars act coordinate-wise, a vector over F_q
    satisfies h . c = 0 exactly when it satisfies all m expanded rows.
    """
    if field.m < 2:
        raise ValueError("expansion needs a proper tower (m >= 2)")
    coords = digit_array(H, field.q, field.m)
    return np.moveaxis(coords, -1, 0).reshape(-1, coords.shape[1]).astype(np.int16)


def subfield_kernel(field: Field, H: np.ndarray) -> LinearCode:
    """The F_q-kernel of a parity matrix over F_(q^m), as a code over F_q."""
    H = np.asarray(H)
    n = H.shape[1] if H.ndim == 2 else 0
    if n == 0:
        raise ValueError("parity matrix must have at least one column")
    expanded = expand_over_subfield(field, H)
    K = linalg.kernel(MatrixGF(field.subfield, expanded))
    return LinearCode(field.subfield, n, _canonical=K.array)


def alternant_kernel(field: Field, points, mult, count: int) -> LinearCode:
    """The F_q-kernel of the rows H[l, i] = v_i a_i^l, l < count, over the
    distinct points a_i with nonzero multipliers v_i (``mult``, one code per
    point or a scalar code), as a code over F_q in the points' order.

    With X the last d = count points and Y the rest, H_X^-1 H = [A | I] with
    A[i, j] = v(y_j) P(y_j) / (v(x_i) P'(x_i) (y_j - x_i)), P = prod (x - x_k)
    (Lagrange interpolation on X), so c is in the code exactly when
    c_X = -A c_Y with A c_Y in F_q^d. The kernel K of A's non-base digits
    gives c_Y, and the code is the pair (K, -A_0^T), A_0 the base digits:
    [K | -K A_0^T] is the canonical generator, as its pivots all lie in K,
    and is formed only when read. When d >= n the first n rows are an
    invertible scaled Vandermonde matrix and the code is zero.
    """
    L = np.asarray(points, dtype=np.int64)
    n, d, sub = L.size, count, field.subfield
    if d >= n:
        return LinearCode.zero_code(sub, n)
    exp, log, n1 = field._exp, field._log, field.order - 1
    lv = np.broadcast_to(log[np.asarray(mult, dtype=np.int64)], (n,))
    y, x = L[: n - d], L[n - d:]
    neg_x = field.neg_table[x]
    # logs of v(y_j) P(y_j) and v(x_i) P'(x_i), as int32 sums of logs; the
    # table has log 0 = 0, so the zero diagonal x_i - x_i adds nothing
    lyx = log[field.add_table[y[:, None], neg_x]]
    lpy = lyx.sum(axis=1, dtype=np.int32) + lv[: n - d]
    lpx = log[field.add_table[x[:, None], neg_x]].sum(axis=1, dtype=np.int32) + lv[n - d:]
    A = expand_over_subfield(field, exp[(lpy[None, :] - lpx[:, None] - lyx.T) % n1])
    K = linalg.kernel(MatrixGF._wrap(sub, A[d:])).array
    T = np.ascontiguousarray(sub.neg_table[A[:d]].T)
    return LinearCode(sub, n, _canonical=K, _tail=T)


def restrict_alternant(code: LinearCode, field: Field, points, mult, count: int) -> LinearCode:
    """The subcode of ``code`` (over F_q, on the points) in the F_q-kernel of
    the rows E[l, i] = v_i a_i^l, l < count, as in ``alternant_kernel``.

    With (K, T) the code's pair, Y its first w points and X the rest, a
    word x [K | K T] lies in the subcode exactly when M x = 0 for
    M = (E_Y + E_X T^T) K^T over F_(q^m), so the subcode is the pair
    (N K, T) for N the kernel of M's digit rows; N K is in RREF, as N is and
    K is the identity on its pivots. When M = 0 the code itself is
    returned. The generator is never read.
    """
    K, T, k, n = code._K, code._T, code.k, code.n
    w = K.shape[1]
    # EY = E_Y + E_X T^T, count x w x (n - w) lookups, then
    # M = EY_P + EY_rest K_rest^T, P the pivots of K, count x k x (w - k) more
    linalg.charge_cells(count * (w * (n - w) + k * (w - k)),
                        f"restricting a {k} x {n} code by {count} rows")
    L, add, mul = np.asarray(points, dtype=np.int64), _adder(field), field.mul_table
    E = np.broadcast_to(np.asarray(mult, dtype=np.int16), (count, n)).copy()
    for l in range(1, count):
        E[l] = mul[E[l - 1], L]
    lead, rest = _split_columns(K)
    EY = add(E[:, :w], linalg.matmul(field, E[:, w:], T.T))
    M = add(EY[:, lead], linalg.matmul(field, EY[:, rest], K[:, rest].T))
    if not M.any():
        return code
    sub = field.subfield
    N = linalg.kernel(MatrixGF._wrap(sub, expand_over_subfield(field, M))).array
    return LinearCode(sub, n, _canonical=_rref_times(sub, N, K), _tail=T)


def _split_columns(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pivot column of each row of R, in RREF with no zero row, and the
    mask of R's other nonzero columns."""
    lead = (R != 0).argmax(axis=1)
    rest = R.any(axis=0)
    rest[lead] = False
    return lead, rest


def _rref_times(field: Field, R: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """R Y over the field, for R in RREF with no zero row: R is the identity
    on its pivot columns, so R Y is Y's pivot rows plus the product of R's
    other columns with the rest of Y."""
    lead, rest = _split_columns(R)
    return _adder(field)(Y[lead], linalg.matmul(field, R[:, rest], Y[rest]))
