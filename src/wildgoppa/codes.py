"""Linear codes over constructed fields.

A :class:`LinearCode` stores the reduced row echelon form of a generator
matrix, which is the canonical representative of its row space: two codes
are equal exactly when their canonical generators are identical arrays over
equal fields. All constructions (duals, shortenings, subfield subcodes,
trace codes) therefore compose without bookkeeping.

The minimum distance routine is exact and budgeted: it returns the exact
value, or None when the q^k - 1 nonzero codewords exceed the budget, never
an estimate. Since wt(c*x) = wt(x), it visits only the (q^k - 1)/(q - 1)
projective codewords, those whose message has last nonzero digit 1: the
span of the low rows is built once as a block of at most 2^14 rows, and
each word led by a higher row is that block plus one offset, one table
pass per offset.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import linalg
from .gf import Field, digit_array
from .linalg import MatrixGF

__all__ = [
    "LinearCode",
    "subfield_kernel",
    "trace_span",
    "expand_over_subfield",
    "DEFAULT_DISTANCE_BUDGET",
]

DEFAULT_DISTANCE_BUDGET = 10**7
# min_distance keeps the span of its low rows as a block of at most 2^14 rows
_BLOCK_ROWS = 1 << 14


class LinearCode:
    """A linear code, canonicalised as the RREF of its generator matrix."""

    __slots__ = ("field", "n", "k", "generator")

    def __init__(self, field: Field, n: int, rows=None, *, _canonical=None):
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
        self.generator = G
        self.k = int(G.shape[0])

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_span(cls, field: Field, rows) -> "LinearCode":
        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise ValueError("expected a 2-d array of generator rows")
        return cls(field, rows.shape[1], rows)

    @classmethod
    def zero_code(cls, field: Field, n: int) -> "LinearCode":
        return cls(field, n)

    @classmethod
    def full_code(cls, field: Field, n: int) -> "LinearCode":
        return cls(field, n, np.eye(n, dtype=np.int16))

    # -- identity ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinearCode)
            and other.field == self.field
            and other.n == self.n
            and other.generator.shape == self.generator.shape
            and np.array_equal(other.generator, self.generator)
        )

    def __hash__(self) -> int:
        return hash((self.field.params, self.n, self.generator.tobytes()))

    def __repr__(self) -> str:
        return f"LinearCode[n={self.n}, k={self.k}] over GF({self.field.order})"

    @property
    def matrix(self) -> MatrixGF:
        return MatrixGF._wrap(self.field, self.generator)

    # -- constructions ---------------------------------------------------_---

    def dual(self) -> "LinearCode":
        """The dual code under the standard inner product."""
        K = linalg.kernel(self.matrix) if self.k else MatrixGF.identity(self.field, self.n)
        return LinearCode(self.field, self.n, _canonical=K.array)

    def parity_check(self) -> MatrixGF:
        """A parity check matrix (generator of the dual)."""
        return self.dual().matrix

    def shorten(self, positions: Iterable[int]) -> "LinearCode":
        """Codewords vanishing on the given 0-based positions, restricted to
        the complement, in the original coordinate order."""
        S = sorted(set(int(p) for p in positions))
        if S and (S[0] < 0 or S[-1] >= self.n):
            raise ValueError(f"positions out of range for length {self.n}")
        keep = [c for c in range(self.n) if c not in set(S)]
        if not keep:
            raise ValueError("cannot shorten away every coordinate")
        if self.k == 0:
            return LinearCode.zero_code(self.field, len(keep))
        # permute shortened positions to the front, reduce, and keep the rows
        # whose pivots fall outside them: those rows vanish on S.
        perm = S + keep
        res = linalg.rref(MatrixGF._wrap(self.field, self.generator[:, perm]))
        ns = len(S)
        rows = [j for j, p in enumerate(res.pivots) if p >= ns]
        sub = res.matrix.array[rows][:, ns:] if rows else None
        return LinearCode(self.field, len(keep), sub)

    def subfield_subcode(self) -> "LinearCode":
        """Codewords with every entry in the scalar level F_q, read as a code
        over F_q. Requires a proper tower (m >= 2)."""
        field = self.field
        if field.m < 2:
            raise ValueError("subfield subcode needs a proper tower (m >= 2)")
        H = self.parity_check().array
        return subfield_kernel(field, H)

    def trace_code(self) -> "LinearCode":
        """Coordinate-wise trace image over F_q. Requires m >= 2."""
        return trace_span(self.field, self.generator)

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
        field = self.field
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
        while s < self.k and order ** (s + 1) <= _BLOCK_ROWS:
            s += 1
        best = self.n
        block = np.zeros((1, self.n), dtype=np.int16)
        for j in range(s):
            levels = add(block[None], scaled[:, j, None])  # block + c*G[j]
            best = min(best, int(np.count_nonzero(levels[1], axis=1).min()))
            block = levels.reshape(-1, self.n)
        for j in range(s, self.k):
            for offset in _span_offsets(add, G[j], scaled[:, s:j]):
                best = min(best, int(np.count_nonzero(add(block, offset), axis=1).min()))
        return best


def _span_offsets(add, base: np.ndarray, scaled: np.ndarray):
    """Yield base + span of the rows, given all their multiples as
    ``scaled[c, i]``; one vector add per yielded offset or inner node."""
    if scaled.shape[1] == 0:
        yield base
        return
    for multiple in scaled[:, -1]:
        yield from _span_offsets(add, add(base, multiple), scaled[:, :-1])


def trace_span(field: Field, rows) -> LinearCode:
    """The trace code over F_q of the row space of ``rows`` over F_(q^m):
    trace is F_q-linear, so the traces of z^l * row, l < m, over any
    spanning rows span it. Requires m >= 2."""
    if field.m < 2:
        raise ValueError("trace code needs a proper tower (m >= 2)")
    rows = np.asarray(rows, dtype=np.int64)
    blocks = [field.trace_table[field.mul_table[(field.gen**l).code, rows]]
              for l in range(field.m)]
    return LinearCode(field.subfield, rows.shape[1], np.vstack(blocks))


def expand_over_subfield(field: Field, H: np.ndarray) -> np.ndarray:
    """Expand a matrix over F_(q^m) into coordinates over F_q, row-wise.

    Each row h becomes m rows: the j-th holds the j-th tower coordinate of
    every entry. Because F_q scalars act coordinate-wise, a vector over F_q
    satisfies h . c = 0 exactly when it satisfies all m expanded rows.
    """
    if field.m < 2:
        raise ValueError("expansion needs a proper tower (m >= 2)")
    coords = digit_array(H, field.q, field.m)
    return np.vstack(np.moveaxis(coords, -1, 0)).astype(np.int16)


def subfield_kernel(field: Field, H: np.ndarray) -> LinearCode:
    """The F_q-kernel of a parity matrix over F_(q^m), as a code over F_q."""
    H = np.asarray(H)
    n = H.shape[1] if H.ndim == 2 else 0
    if n == 0:
        raise ValueError("parity matrix must have at least one column")
    expanded = expand_over_subfield(field, H)
    K = linalg.kernel(MatrixGF(field.subfield, expanded))
    return LinearCode(field.subfield, n, _canonical=K.array)
