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
large product. Over F_2 a pivot clears its column by XOR with the pivot
row alone; in odd characteristic the row update adds through one flat
take of the add table.
``matmul`` is the package's one matrix product over a field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded
from .gf import Field
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
    arr = np.array(rows, dtype=np.int64)
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
    V = W if live.size == nrows else W[live]
    order, mul = field.order, field.mul_table
    flat_add, flat_mul = field.add_table.ravel(), mul.ravel()
    neg, inv = field.neg_table, field.inv_table
    xor = field.p == 2
    r = col = 0
    pivots: list[int] = []
    while r < live.size and col < ncols:
        nz = np.nonzero(V[r:, col])[0]
        if nz.size == 0:
            # a column zero in rows r and below stays zero there, since so is
            # every pivot row added to them: jump to the next nonzero column
            ahead = np.flatnonzero(V[r:, col:].any(axis=0))
            if ahead.size == 0:
                break
            col += int(ahead[0])
            nz = np.nonzero(V[r:, col])[0]
        # rows r and below are zero left of col, so only columns col: change
        pr = r + int(nz[0])
        if pr != r:
            V[[r, pr], col:] = V[[pr, r], col:]
        pv = int(V[r, col])
        if pv != 1:
            # the flat index in intp: code * order overflows int16 from 256
            V[r, col:] = flat_mul[np.add(V[r, col:], int(inv[pv]) * order, dtype=np.intp)]
        colvals = V[:, col].copy()
        colvals[r] = 0
        rows_nz = np.nonzero(colvals)[0]
        if rows_nz.size:
            prow = V[r, col:]
            if order == 2:
                V[rows_nz, col:] ^= prow
            else:
                factors = neg[colvals[rows_nz]]
                # the smaller temporary: one row per field element, or per row
                if rows_nz.size > order:
                    scaled = mul[:, prow][factors]
                else:
                    scaled = mul[factors[:, None], prow[None, :]]
                if xor:
                    V[rows_nz, col:] ^= scaled
                else:
                    idx = np.multiply(V[rows_nz, col:], order, dtype=np.intp)
                    idx += scaled
                    V[rows_nz, col:] = flat_add.take(idx)
        pivots.append(col)
        r += 1
        col += 1
    if V is not W:
        W[: live.size] = V
        W[live.size:] = 0
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

    When the inner axis is the longest and a row's k c terms fit in
    _CHUNK_CELLS, chunks of rows gather all their terms from the mul table
    and sum over k (XOR in characteristic 2, else a pairwise fold). Else a
    loop adds the outer products A[:, j] B[j], each gathered through the
    smaller temporary, a row per field element or one per row of A.
    """
    (r, k), c = A.shape, B.shape[1]
    if r * k * c == 0:
        return np.zeros((r, c), dtype=_DT)
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
