"""Row reduction, kernels, and row-space operations over small fields."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from wildgoppa import linalg, poly
from wildgoppa.codes import LinearCode
from wildgoppa.errors import BudgetExceeded
from wildgoppa.gf import build_tower, prime_factors
from wildgoppa.linalg import (
    MatrixGF,
    _rref_array,
    kernel,
    rank,
    rref,
)

F2 = build_tower(2, 1, 1)
F3 = build_tower(3, 1, 1)
F4 = build_tower(2, 1, 2)
F7 = build_tower(7, 1, 1)
F127 = build_tower(127, 1, 1)
F131 = build_tower(131, 1, 1)
F257 = build_tower(257, 1, 1)
F1021 = build_tower(1021, 1, 1)
F8 = build_tower(2, 1, 3)
F9 = build_tower(3, 1, 2)
F1024 = build_tower(2, 5, 2)
F49 = build_tower(7, 1, 2)
F81 = build_tower(3, 2, 2)
F289 = build_tower(17, 1, 2)
F729 = build_tower(3, 2, 3)

# characteristic 2 (XOR on 64-bit words, byte lanes up to order 256 and
# 16-bit ones above), prime fields (a lane-wise add reduced mod p, in byte
# lanes while 2p - 2 fits a byte: up to F_127, F_131 past it, F_257 past the
# byte codes) and odd extension fields (the add table, whose flat index
# code * order overflows int16 from order 256 on)
REFERENCE_FIELDS = [F2, F4, F1024.subfield, F1024, F3, F7, F127, F131, F257,
                    F9, F49, F81, F289, F729]

# every tower of order <= 256, prime fields included, so F_9, F_27 and F_81
# in each of their presentations
SMALL_TOWERS = [
    (p, a, m) for p in range(2, 257) if prime_factors(p) == [p]
    for a in range(1, 9) for m in range(1, 9) if p ** (a * m) <= 256
]


def enumerate_row_space(M: MatrixGF) -> set[tuple[int, ...]]:
    """All vectors in the row space, by brute combination (tiny inputs)."""
    field = M.field
    k, n = M.shape
    out = set()
    for coeffs in itertools.product(range(field.order), repeat=k):
        v = np.zeros(n, dtype=np.int64)
        for c, row in zip(coeffs, M.array):
            v = field.add_table[v, field.mul_table[np.int64(c), row.astype(np.int64)]]
        out.add(tuple(int(x) for x in v))
    return out


def matrix_strategy(field, max_rows=4, max_cols=5):
    def build(data):
        rows, cols, flat = data
        return MatrixGF(field, np.array(flat, dtype=np.int64).reshape(rows, cols))

    return st.tuples(
        st.integers(1, max_rows), st.integers(1, max_cols)
    ).flatmap(
        lambda rc: st.tuples(
            st.just(rc[0]),
            st.just(rc[1]),
            st.lists(
                st.integers(0, field.order - 1),
                min_size=rc[0] * rc[1],
                max_size=rc[0] * rc[1],
            ),
        )
    ).map(build)


class TestRref:
    def test_f2_rank_example(self):
        M = MatrixGF(F2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert rank(M) == 2

    def test_rref_shape_properties(self):
        M = MatrixGF(F9, [[0, 2, 1], [0, 4, 2], [1, 1, 1]])
        res = rref(M)
        R, rk, piv = res.matrix.array, res.rank, res.pivots
        assert list(piv) == sorted(piv)
        for j, p in enumerate(piv):
            assert R[j, p] == 1
            col = R[:, p]
            assert col.sum() == 1  # zeros above and below the pivot
            assert not R[j, :p].any()  # first nonzero entry is the pivot

    @given(matrix_strategy(F4))
    @settings(max_examples=60, deadline=None)
    def test_rref_preserves_row_space(self, M):
        res = rref(M)
        assert enumerate_row_space(M) == enumerate_row_space(
            MatrixGF(F4, res.matrix.array[: res.rank])
            if res.rank
            else MatrixGF(F4, np.zeros((1, M.ncols), dtype=np.int16))
        )

    @given(matrix_strategy(F8, 3, 4))
    @settings(max_examples=40, deadline=None)
    def test_rref_idempotent(self, M):
        res = rref(M)
        again = rref(res.matrix)
        assert np.array_equal(res.matrix.array, again.matrix.array)
        assert res.rank == again.rank

    def test_immutability(self):
        M = MatrixGF(F2, [[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            M.array[0, 0] = 0

    def test_entry_range_checked(self):
        with pytest.raises(ValueError):
            MatrixGF(F2, [[0, 2]])
        with pytest.raises(ValueError, match="out of range"):
            MatrixGF(F2, [[0, 2**70]])

    @pytest.mark.parametrize("rows", [[[1.7, 2.2]], [[1, 0.5]], np.ones((2, 2)),
                                      [["1", "2"]], [[1, None]],
                                      np.array([[1, 1.5]], dtype=object)],
                             ids=["floats", "an int and a float", "float array",
                                  "strings", "None", "an element and a float"])
    def test_non_integer_entries_rejected(self, rows):
        # a cast to int64 would truncate 1.7 to 1 and parse "2" as 2
        with pytest.raises(ValueError, match="integer codes"):
            MatrixGF(F4, rows)

    def test_code_from_float_rows_rejected(self):
        with pytest.raises(ValueError, match="integer codes"):
            LinearCode(F2, 2, [[1.9, 0.5]])

    def test_integer_bool_element_and_empty_entries_accepted(self):
        want = np.array([[1, 0]], dtype=np.int16)
        for rows in ([[1, 0]], [[True, False]], np.array([[1, 0]], dtype=np.uint8),
                     np.array([[1, 0]], dtype=object)):
            assert_same_array(MatrixGF(F4, rows).array, want)
        assert MatrixGF(F4, []).shape == (0, 0)
        assert MatrixGF(F4, np.zeros((0, 3))).shape == (0, 3)


class TestKernel:
    @given(matrix_strategy(F4, 3, 4))
    @settings(max_examples=60, deadline=None)
    def test_kernel_annihilates(self, M):
        K = kernel(M)
        assert K.nrows == M.ncols - rank(M)
        if K.nrows:
            prod = reference.matmul(M, MatrixGF(F4, K.array.T))
            assert not prod.array.any()

    def test_kernel_of_zero_rows_is_identity(self):
        K = kernel(MatrixGF(F4, np.zeros((0, 3), dtype=np.int16)))
        assert np.array_equal(K.array, np.eye(3, dtype=np.int16))

    def test_kernel_of_full_rank_square_is_empty(self):
        K = kernel(MatrixGF(F9, np.eye(4, dtype=np.int16)))
        assert K.nrows == 0 and K.ncols == 4

    @given(matrix_strategy(F9, 3, 4))
    @settings(max_examples=40, deadline=None)
    def test_kernel_is_canonical(self, M):
        K = kernel(M).array
        res = rref(MatrixGF(F9, K))
        assert np.array_equal(res.matrix.array[: res.rank], K)

    def test_kernel_exhaustive_small(self):
        M = MatrixGF(F2, [[1, 1, 1, 0], [0, 0, 1, 1]])
        K = MatrixGF(F2, kernel(M).array)
        brute = {
            v
            for v in itertools.product(range(2), repeat=4)
            if all(
                sum(m * x for m, x in zip(row, v)) % 2 == 0 for row in M.array.tolist()
            )
        }
        assert enumerate_row_space(K) == brute


class TestRowSpaces:
    def test_equality_invariant_to_presentation(self):
        A = MatrixGF(F4, [[1, 2, 3], [0, 1, 1]])
        # row-scaled and summed presentation of the same space
        B = MatrixGF(
            F4,
            [
                (F4.mul_table[2, A.array[0]]).tolist(),
                F4.add_table[A.array[0], A.array[1]].tolist(),
            ],
        )
        # codes are canonical RREF generators: equal exactly on equal row spaces
        assert reference.span(F4, A.array) == reference.span(F4, B.array)
        C = MatrixGF(F4, [[1, 0, 0], [0, 1, 0]])
        assert reference.span(F4, A.array) != reference.span(F4, C.array)


class TestReduceRow:
    def test_membership(self):
        M = MatrixGF(F9, [[1, 0, 2], [0, 1, 5]])
        res = rref(M)
        member = F9.add_table[
            F9.mul_table[3, res.matrix.array[0]], F9.mul_table[7, res.matrix.array[1]]
        ]
        assert not reference.reduce_row(res.matrix, res.pivots, member).any()
        assert reference.reduce_row(res.matrix, res.pivots, np.array([0, 0, 1])).any()

    def test_residual_is_zero_only_for_members(self):
        M = MatrixGF(F2, [[1, 0, 1]])
        res = rref(M)
        assert not reference.reduce_row(res.matrix, res.pivots, np.array([1, 0, 1])).any()
        assert reference.reduce_row(res.matrix, res.pivots, np.array([1, 1, 1])).any()


@st.composite
def matmul_operands(draw):
    """(field, A, B) over a tower of order <= 256: A may have no rows, zero
    rows or more rows than the field has elements, the inner dimension may
    be 0, and the output may be narrower or wider than it."""
    field = build_tower(*draw(st.sampled_from(SMALL_TOWERS)))
    r = draw(st.sampled_from([0, 1, 5, field.order + draw(st.integers(1, 8))]))
    k, c = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.integers(0, field.order, size=(r, k)).astype(np.int16)
    A[rng.random(r) < 0.25] = 0
    B = rng.integers(0, field.order, size=(k, c)).astype(np.int16)
    return field, A, B


def reference_product(field, A, B) -> np.ndarray:
    return reference.matmul(MatrixGF._wrap(field, A.copy()), MatrixGF._wrap(field, B.copy())).array


class TestMatmul:
    def test_identity(self):
        M = MatrixGF(F8, [[1, 2, 3], [4, 5, 6]])
        assert reference.matmul(M, MatrixGF(F8, np.eye(3, dtype=np.int16))) == M

    def test_against_scalar_computation(self):
        A = MatrixGF(F4, [[1, 2], [3, 0]])
        B = MatrixGF(F4, [[2, 1], [1, 3]])
        C = reference.matmul(A, B)
        for i in range(2):
            for j in range(2):
                acc = 0
                for k in range(2):
                    acc = F4.add_table[acc, F4.mul_table[A.array[i, k], B.array[k, j]]]
                assert C.array[i, j] == acc

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Z = MatrixGF(F2, np.zeros((2, 3), dtype=np.int16))
            reference.matmul(Z, Z)

    @given(matmul_operands())
    @settings(max_examples=200, deadline=None)
    def test_library_product_against_reference(self, operands):
        field, A, B = operands
        assert_same_array(linalg.matmul(field, A, B), reference_product(field, A, B))

    @pytest.mark.parametrize("field", [F2, F3, F7, F127, F1021], ids=lambda f: f"GF{f.order}")
    @pytest.mark.parametrize("shape", [(5, 40, 3), (300, 4, 50), (215, 1, 286), (3, 1, 1)],
                             ids=["inner", "outer", "k1-wide", "k1-narrow"])
    def test_prime_field_product(self, field, shape):
        # a prime field takes the float64 product on the shapes that an
        # extension field sums by row chunks (the inner axis longest) and by
        # outer products; with k = 1 it takes the mul-table gather, through
        # a row per field element (r > p) or one per row of A
        r, k, c = shape
        rng = np.random.default_rng(field.order)
        A = rng.integers(0, field.order, size=(r, k)).astype(np.int16)
        A[: r // 2] = field.order - 1  # the largest sums, k (p - 1)^2
        B = rng.integers(0, field.order, size=(k, c)).astype(np.int16)
        B[:, : c // 2] = field.order - 1
        assert_same_array(linalg.matmul(field, A, B), reference_product(field, A, B))

    @pytest.mark.parametrize("field", [F2, F9, F1024, F729], ids=lambda f: f"GF{f.order}")
    def test_narrow_product_in_row_chunks(self, field):
        # over an extension field, a narrow product over more than
        # _CHUNK_CELLS terms takes several row chunks, the last one short;
        # over F_2 it is one float64 product
        rng = np.random.default_rng(field.order)
        A = rng.integers(0, field.order, size=(3001, 60)).astype(np.int16)
        for c in (1, 7):
            B = rng.integers(0, field.order, size=(60, c)).astype(np.int16)
            assert A.size * c > poly._CHUNK_CELLS
            assert_same_array(linalg.matmul(field, A, B), reference_product(field, A, B))


def test_large_elimination_is_fast():
    """511-column elimination over F_512 stays well under a second."""
    import time

    F512 = build_tower(2, 3, 3)
    rng = np.random.default_rng(1)
    M = MatrixGF(F512, rng.integers(0, 512, size=(220, 511)))
    t0 = time.time()
    res = rref(M)
    K = kernel(M)
    elapsed = time.time() - t0
    assert res.rank == 220
    assert K.nrows == 511 - 220
    assert elapsed < 5.0


ENTRY_POINTS = {
    "rref": rref,
    "rank": rank,
    "kernel": lambda M: MatrixGF(M.field, kernel(M).array),
    "LinearCode": lambda M: LinearCode(M.field, M.ncols, M.array),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("shape", [(3, 4), (4, 3)])
def test_elimination_budget(monkeypatch, name, shape):
    # charged rows * cols * min(rows, cols) = 36 either way round
    M = MatrixGF(F9, np.arange(12).reshape(shape) % 9)
    run = ENTRY_POINTS[name]
    want = run(M)
    monkeypatch.setattr(linalg, "ELIMINATION_CELL_BUDGET", 36)
    assert run(M) == want
    monkeypatch.setattr(linalg, "ELIMINATION_CELL_BUDGET", 35)

    def pivot_search(*args, **kwargs):
        raise AssertionError("a row operation ran over the budget")

    monkeypatch.setattr(np, "nonzero", pivot_search)
    with pytest.raises(BudgetExceeded, match=f"{shape[0]} x {shape[1]} matrix costs 36 "):
        run(M)


# ------------------------------------------- against the slow reference paths


@st.composite
def edge_matrices(draw, field, ncols=None, max_rows=12, max_cols=40):
    """Random matrices, some with no rows, zero rows, zero columns, repeated
    rows or full rank; rows up to 40 wide span several 64-bit words of
    lanes, so pivots start inside a word."""
    nrows = draw(st.integers(0, max_rows))
    if ncols is None:
        ncols = draw(st.integers(1, max_cols))
    # entries from numpy, half of them 0 or 1: drawing up to 480 of them one
    # at a time would spend the time budget on generation
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.integers(0, field.order, size=(nrows, ncols))
    small = rng.random(A.shape) < 0.5
    A[small] = rng.integers(0, 2, size=int(small.sum()))
    shape = draw(st.sampled_from(["random", "zero_rows", "zero_columns", "repeated_rows",
                                  "full_rank"]))
    if shape == "zero_rows" and nrows:
        A[draw(st.lists(st.integers(0, nrows - 1), min_size=1))] = 0
    elif shape == "zero_columns":
        A[:, draw(st.lists(st.integers(0, ncols - 1), min_size=1))] = 0
    elif shape == "repeated_rows" and nrows:
        A = A[draw(st.lists(st.integers(0, nrows - 1), min_size=nrows, max_size=nrows))]
    elif shape == "full_rank" and nrows:
        # a staircase of nonzero leading entries, rows shuffled
        r = min(nrows, ncols)
        leads = sorted(draw(st.sets(st.integers(0, ncols - 1), min_size=r, max_size=r)))
        for i, c in enumerate(leads):
            A[i, :c] = 0
            A[i, c] = draw(st.integers(1, field.order - 1))
        A = A[draw(st.permutations(range(nrows)))]
    return MatrixGF(field, A)


@st.composite
def nested_blocks(draw, field):
    """Row blocks of one width, stacked one more at a time: the first may have no
    rows, and a later one may be random, add no rank (unit multiples and sums
    of earlier rows, or zero rows) or fill the space (a scaled, shuffled
    identity)."""
    ncols = draw(st.integers(1, 9))
    first = draw(edge_matrices(field, ncols)).array
    blocks = [first[:0] if draw(st.booleans()) else first]
    unit = st.integers(1, field.order - 1)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["random", "no_rank", "fills"]))
        earlier = np.vstack(blocks).astype(np.int64)
        if kind == "random":
            block = draw(edge_matrices(field, ncols)).array
        elif kind == "no_rank" and earlier.shape[0]:
            i, j = draw(st.lists(st.integers(0, earlier.shape[0] - 1), min_size=2, max_size=2))
            scaled = field.mul_table[draw(unit), earlier[i]]
            block = np.array([scaled, field.add_table[scaled, earlier[j]]])
        elif kind == "no_rank":
            block = np.zeros((2, ncols), dtype=np.int64)
        else:
            block = np.zeros((ncols, ncols), dtype=np.int64)
            block[np.arange(ncols), draw(st.permutations(range(ncols)))] = draw(unit)
        blocks.append(block)
    return blocks


def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=lambda f: f"GF{f.order}/GF{f.q}")
class TestAgainstReference:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_rref_array(self, field, data):
        M = data.draw(edge_matrices(field))
        W, rk, piv = _rref_array(field, M.array.copy())
        W_ref, rk_ref, piv_ref = reference.rref_array(field, M.array.copy())
        assert (rk, piv) == (rk_ref, piv_ref)
        assert_same_array(W, W_ref)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_kernel(self, field, data):
        M = data.draw(edge_matrices(field))
        assert_same_array(kernel(M).array, reference.kernel(M).array)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_dual(self, field, data):
        M = data.draw(edge_matrices(field))
        code = LinearCode(field, M.ncols, M.array)
        if code.k:
            K = kernel(MatrixGF(field, code.generator))
            assert_same_array(K.array, reference.dual(code).generator)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_nested_kernels(self, field, data):
        # the kernels of a growing stack of row blocks: each canonical, and
        # each contained in the one before
        blocks = data.draw(nested_blocks(field))
        previous = None
        for depth in range(1, len(blocks) + 1):
            stack = MatrixGF(field, np.vstack(blocks[:depth]))
            K = kernel(stack)
            assert_same_array(K.array, reference.kernel(stack).array)
            code = LinearCode(field, stack.ncols, _K=K)
            assert previous is None or previous.contains(code)
            previous = code

    def test_more_rows_to_clear_than_field_elements(self, field):
        # rows > order takes the row-gather branch of the elimination step
        rng = np.random.default_rng(field.order)
        top = rng.integers(0, field.order, size=(field.order + 8, 24))
        M = MatrixGF(field, np.vstack([top, top[:5]]))
        W, rk, piv = _rref_array(field, M.array.copy())
        W_ref, rk_ref, piv_ref = reference.rref_array(field, M.array.copy())
        assert (rk, piv) == (rk_ref, piv_ref)
        assert_same_array(W, W_ref)
        wide = MatrixGF(field, M.array[:20].T)
        assert_same_array(kernel(wide).array, reference.kernel(wide).array)


@st.composite
def kernel_inputs(draw):
    """A matrix over a tower of order <= 256: tall, wide, with no rows, of
    full rank, or of a rank below both its dimensions."""
    field = build_tower(*draw(st.sampled_from(SMALL_TOWERS)))
    kind = draw(st.sampled_from(["tall", "wide", "no_rows", "full_rank", "deficient"]))
    ncols = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "no_rows":
        return MatrixGF(field, np.zeros((0, ncols), dtype=np.int16))
    if kind == "tall":
        nrows = ncols + draw(st.integers(1, 8))
    elif kind == "wide":
        nrows = draw(st.integers(1, max(1, ncols - 1)))
    else:
        nrows = draw(st.integers(1, ncols))
    A = rng.integers(0, field.order, size=(nrows, ncols))
    if kind == "full_rank":
        # a staircase of nonzero leading entries, rows shuffled
        leads = sorted(rng.choice(ncols, size=nrows, replace=False))
        for i, c in enumerate(leads):
            A[i, :c] = 0
            A[i, c] = rng.integers(1, field.order)
        A = A[rng.permutation(nrows)]
    elif kind == "deficient":
        # combinations of fewer rows than either dimension
        r = draw(st.integers(0, min(nrows, ncols) - 1))
        coeffs = MatrixGF(field, rng.integers(0, field.order, size=(nrows, r)))
        basis = MatrixGF(field, A[:r])
        A = reference.matmul(coeffs, basis).array if r else np.zeros_like(A)
    return MatrixGF(field, A)


@given(M=kernel_inputs())
@settings(max_examples=300, deadline=None)
def test_kernel_basis_against_two_eliminations(M):
    # the canonical basis of two eliminations, formed on read, and the
    # free columns, pivots and block that are all the kernel keeps
    want = reference.kernel(M).array
    K = kernel(M)
    assert_same_array(K.array, want)
    assert (K.nrows, K.ncols) == want.shape
    assert np.array_equal(np.sort(np.concatenate([K.free, K.pivots])), np.arange(M.ncols))
    rebuilt = np.zeros_like(want)
    rebuilt[np.arange(K.nrows), K.free] = 1
    rebuilt[:, K.pivots] = K.block
    assert_same_array(rebuilt, want)
    assert K.block.shape == (K.nrows, M.ncols - K.nrows)


@pytest.mark.parametrize("field", [F127, F131], ids=lambda f: f"GF{f.order}")
def test_largest_lane_sums(field):
    # every entry p - 1: clearing the first column adds 1 to p - 1, a lane
    # sum of p. With the first row and column 1, it adds -1 to p - 1
    # instead, the largest lane sum, 2p - 2.
    top = field.p - 1
    full = np.full((6, 40), top)
    ones = full.copy()
    ones[0] = ones[:, 0] = 1
    for A in (full, ones):
        W, rk, piv = _rref_array(field, A.astype(np.int16))
        W_ref, rk_ref, piv_ref = reference.rref_array(field, A.astype(np.int16))
        assert (rk, piv) == (rk_ref, piv_ref)
        assert_same_array(W, W_ref)


@pytest.mark.parametrize(
    "a,m",
    [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 10),
     (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2)],
)
def test_characteristic_two_addition_is_xor(a, m):
    """The XOR elimination path relies on codes adding digitwise mod 2."""
    field = build_tower(2, a, m)
    for f in (field, field.subfield):
        codes = np.arange(f.order)
        assert np.array_equal(f.add_table, codes[:, None] ^ codes[None, :])
