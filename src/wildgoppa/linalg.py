"""Exact dense linear algebra over constructed fields.

Matrices hold integer element codes in numpy arrays; all row operations go
through the owning field's lookup tables, so elimination over F_8 or F_512
vectorises the same way as over F_2. In characteristic 2 addition is the
XOR of codes, because codes are base-p digit vectors added digitwise.

``rref`` uses first-nonzero pivoting from the left (no pivot choice
freedom), which makes the reduced row echelon form, and everything derived
from it, fully deterministic. ``kernel`` eliminates once, taking pivots
from the right (the RREF of the column-reversed matrix). Each pivot row is
then zero to the right of its pivot, so the null-space vector for a free
column f is nonzero only at f and at pivot columns to the right of f. The
rows for the free columns, in increasing order, are therefore already the
canonical RREF of the null space, with no second elimination.

Every elimination (``rref``, ``rank``, ``kernel``, ``LinearCode``) runs
through ``_rref_array``, which charges rows x cols x min(rows, cols) cells,
a bound on what its row operations write, and raises BudgetExceeded before
its first pivot when that is over the budget; only then does it set the
zero rows aside. A caller applies the same ``charge_elimination`` before it
builds a large matrix, and ``charge_cells`` to the same budget before a
large product.

The elimination copies the live rows once into unsigned lanes (bytes, or
16 bits where a lane value can pass 255; ``Field._lanes``), each row padded
to whole 64-bit words. A pivot takes its row's multiples from the mul table
and adds them to the rows it clears, in one block when at least half of
them change: by XOR of 64-bit words in characteristic 2, over a prime field
by a lane-wise add less p in the lanes >= p (a sum stays below 2p), and
over an odd extension field through one flat take of the add table.
``matmul`` is the package's one matrix product over a field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded
from .gf import Field, FieldElement
from .poly import _CHUNK_CELLS, _adder, _lookup

__all__ = [
    "MatrixGF",
    "RrefResult",
    "rref",
    "rank",
    "kernel",
    "matmul",
    "charge_cells",
    "charge_elimination",
]

_DT = np.int16

# The charge of one elimination. The largest in the tests is 4.7e7 (360 x 360
# over F_2). `verify --check rs` with irreducible:3 over F_1024 reaches 7.2e8
# (its scaled 841 x 1024 Reed-Solomon side) and the alternant kernel of g^340
# over F_1024/F_4 (1364 x 682 digits, `verify --p 2 --a 2 --m 5 --g
# irreducible:1 --support full-minus:0`) 6.3e8; evidence's K for
# irreducible:1^10000 over F_4 (20000 x 60000) is refused.
ELIMINATION_CELL_BUDGET = 1_500_000_000


def _as_array(field: Field, rows) -> np.ndarray:
    arr = np.asarray(rows)
    # a cast would truncate a float and parse a string; ints past int64 and
    # FieldElements arrive as objects
    if arr.size and arr.dtype.kind not in "iub" and not (arr.dtype.kind == "O" and all(
            isinstance(x, (int, np.integer, FieldElement)) for x in arr.flat)):
        raise ValueError(f"matrix entries must be integer codes, got {arr.dtype} entries")
    try:
        arr = arr.astype(np.int64)
    except OverflowError:
        raise ValueError(f"entry out of range for {field!r}") from None
    if arr.ndim == 1:
        arr = arr.reshape(1, -1) if arr.size else arr.reshape(0, 0)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d array of codes, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= field.order):
        raise ValueError(f"entry out of range for {field!r}")
    return arr.astype(_DT)


class MatrixGF:
    """An immutable matrix of element codes over a :class:`Field`."""

    __slots__ = ("field", "array")

    def __init__(self, field: Field, rows):
        self.field = field
        arr = _as_array(field, rows)
        arr.setflags(write=False)
        self.array = arr

    @classmethod
    def _wrap(cls, field: Field, arr: np.ndarray) -> "MatrixGF":
        self = object.__new__(cls)
        self.field = field
        a = arr.astype(_DT, copy=False)
        a.setflags(write=False)
        self.array = a
        return self

    @property
    def shape(self) -> tuple[int, int]:
        return self.array.shape

    @property
    def nrows(self) -> int:
        return self.array.shape[0]

    @property
    def ncols(self) -> int:
        return self.array.shape[1]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MatrixGF)
            and other.field == self.field
            and other.array.shape == self.array.shape
            and np.array_equal(other.array, self.array)
        )

    def __hash__(self) -> int:
        return hash((self.field.params, self.array.shape, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"MatrixGF({self.nrows}x{self.ncols} over GF({self.field.order}))"


@dataclass(frozen=True)
class RrefResult:
    matrix: MatrixGF
    rank: int
    pivots: tuple[int, ...]


def charge_cells(cells: int, what: str) -> None:
    """Raise BudgetExceeded when a step that writes this many cells is over
    ELIMINATION_CELL_BUDGET."""
    if cells > ELIMINATION_CELL_BUDGET:
        raise BudgetExceeded(f"{what} costs {cells} cells, "
                             f"over ELIMINATION_CELL_BUDGET = {ELIMINATION_CELL_BUDGET}")


def charge_elimination(nrows: int, ncols: int) -> None:
    """Raise BudgetExceeded when an nrows x ncols elimination is over budget."""
    charge_cells(nrows * ncols * min(nrows, ncols), f"eliminating a {nrows} x {ncols} matrix")


def _rref_array(field: Field, W: np.ndarray) -> tuple[np.ndarray, int, tuple[int, ...]]:
    """In-place RREF of a writable int array of codes."""
    nrows, ncols = W.shape
    charge_elimination(nrows, ncols)
    # zero rows never pivot and stay zero: eliminate the others, in order,
    # and put them back on top
    live = np.flatnonzero(W.any(axis=1))
    n = live.size
    if n == 0:
        return W, 0, ()
    dt, mul, neg, add = field._lanes
    order, p, inv = field.order, field.p, field.inv_table
    per = 8 // np.dtype(dt).itemsize  # lanes per 64-bit word
    V = np.zeros((n, -(-ncols // per) * per), dtype=dt)
    V[:, :ncols] = W if n == nrows else W[live]
    V64 = V.view(np.uint64)
    r = col = 0
    pivots: list[int] = []
    while r < n and col < ncols:
        c = V[:, col].copy()
        if not c[r]:
            below = c[r:] != 0
            i = int(below.argmax())
            if not below[i]:
                # a column zero in rows r and below stays zero there, since so
                # is every pivot row added to them: jump to the next nonzero one
                ahead = np.flatnonzero(V[r:, col:ncols].any(axis=0))
                if ahead.size == 0:
                    break
                col += int(ahead[0])
                c = V[:, col].copy()
                i = int((c[r:] != 0).argmax())
            if i:
                pr = r + i
                V64[[r, pr], col // per :] = V64[[pr, r], col // per :]
                c[r], c[pr] = c[pr], c[r]
        # rows r and below are zero left of col, so the pivot row is zero in
        # the lanes of its first word left of col: only words from there on
        # change, and a multiple of the pivot row adds zero to the others
        w0 = col // per
        c0 = w0 * per
        prow = V[r, c0:]
        pv = int(c[r])
        if pv != 1:
            prow[...] = mul[int(inv[pv])].take(prow)
        c[r] = 0
        k = np.count_nonzero(c)
        if k:
            # every row in one block when at least half of them change
            rows = None if 2 * k >= n else c.nonzero()[0]
            factors = c if rows is None else c.take(rows)
            if p != 2:
                factors = neg.take(factors)
            # the smaller temporary: with more rows than field elements, every
            # element's multiple of the pivot row (a row take, as mul is
            # symmetric), else each row's
            if factors.size > order:
                S = np.ascontiguousarray(mul.take(prow, axis=0).T).take(factors, axis=0)
            else:
                S = mul.take(factors, axis=0).take(prow, axis=1)
            if p == 2:
                S = S.view(np.uint64)
                if rows is None:
                    U = V64[:, w0:]
                    np.bitwise_xor(U, S, out=U)
                else:
                    V64[rows, w0:] ^= S
            else:
                U = V[:, c0:] if rows is None else V[rows, c0:]
                if add is None:
                    # U + S < 2p fits a lane, and U - p wraps round to above U
                    # exactly where U < p: the smaller is the sum mod p
                    np.add(U, S, out=U)
                    np.minimum(U, np.subtract(U, p, out=S), out=U)
                else:
                    idx = np.multiply(U, order, dtype=np.intp)
                    idx += S
                    add.take(idx, out=U)
                if rows is not None:
                    V[rows, c0:] = U
        pivots.append(col)
        r += 1
        col += 1
    W[:n] = V[:, :ncols]
    W[n:] = 0
    return W, r, tuple(pivots)


def rref(M: MatrixGF) -> RrefResult:
    """Reduced row echelon form with first-nonzero pivoting."""
    W, rk, piv = _rref_array(M.field, M.array.astype(_DT, copy=True))
    return RrefResult(MatrixGF._wrap(M.field, W), rk, piv)


def rank(M: MatrixGF) -> int:
    return rref(M).rank


def kernel(M: MatrixGF) -> MatrixGF:
    """Canonical (RREF) basis of the right null space, as rows.

    For a matrix with no rows the kernel is the whole ambient space.
    """
    field = M.field
    W, rk, rpiv = _rref_array(field, M.array[:, ::-1].astype(_DT))
    n = W.shape[1]
    piv = [n - 1 - c for c in rpiv]
    free = np.delete(np.arange(n), piv)
    B = np.zeros((free.size, n), dtype=_DT)
    B[np.arange(free.size), free] = 1
    B[:, piv] = field.neg_table[W[:rk, ::-1][:, free]].T
    return MatrixGF._wrap(field, B)


def matmul(field: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A B over the field, for int16 code arrays A (r x k) and B (k x c).

    Over a prime field the codes are the integers mod p, so the product is
    one float64 product reduced mod p, exact while its sums k (p - 1)^2 stay
    below 2^53; an outer product (k = 1) is one gather, as below, which is
    faster than the int64 reduction. Over an extension field, when the
    inner axis is the longest and a row's k c terms fit in _CHUNK_CELLS,
    chunks of rows gather all their terms from the mul table and sum over
    k (XOR in characteristic 2, else a pairwise fold). Else a loop adds the
    outer products A[:, j] B[j], each gathered through the smaller
    temporary, a row per field element or one per row of A.
    """
    (r, k), c = A.shape, B.shape[1]
    if r * k * c == 0:
        return np.zeros((r, c), dtype=_DT)
    p = field.p
    if field.a * field.m == 1 and 1 < k and k * (p - 1) ** 2 < 2**53:
        return (np.matmul(A, B, dtype=np.float64).astype(np.int64) % p).astype(_DT)
    add, mul = _adder(field), _lookup(field.mul_table)
    if k > min(r, c) and k * c <= _CHUNK_CELLS:
        out = np.empty((r, c), dtype=_DT)
        step = _CHUNK_CELLS // (k * c)
        for lo in range(0, r, step):
            terms = mul(A[lo : lo + step, :, None], B)
            if field.p == 2:
                terms = np.bitwise_xor.reduce(terms, axis=1, keepdims=True)
            while terms.shape[1] > 1:  # fold pairwise, an odd term carried
                h = terms.shape[1] // 2
                terms = np.concatenate([add(terms[:, :h], terms[:, h : 2 * h]), terms[:, 2 * h :]], 1)
            out[lo : lo + step] = terms[:, 0]
        return out
    out = None
    for j in range(k):
        term = field.mul_table[:, B[j]][A[:, j]] if r > field.order else mul(A[:, j, None], B[j])
        out = term if out is None else add(out, term)
    return out
