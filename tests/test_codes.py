"""Linear code constructions checked against brute-force enumeration."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from wildgoppa.codes import (
    LinearCode, alternant_kernel, expand_over_subfield, restrict_alternant, subfield_kernel,
)
from wildgoppa.gf import build_tower
from wildgoppa.linalg import MatrixGF
from wildgoppa.poly import _CHUNK_CELLS

F2 = build_tower(2, 1, 1)
F3 = build_tower(3, 1, 1)
F4 = build_tower(2, 1, 2)
F9 = build_tower(3, 1, 2)


def words(code: LinearCode) -> set[tuple[int, ...]]:
    return {tuple(int(x) for x in row) for row in reference.codewords(code)}


def random_code(field, n, k_rows, seed) -> LinearCode:
    rng = np.random.default_rng(seed)
    return reference.span(field, rng.integers(0, field.order, size=(k_rows, n)))


class TestCanonicalForm:
    def test_equality_across_presentations(self):
        A = reference.span(F4, [[1, 2, 3], [0, 1, 1]])
        B = reference.span(F4, [[1, 3, 2], [0, 1, 1], [1, 2, 3]])
        # B's first row = row0 + (w)*row1 of A... construct honestly instead:
        rows = [
            F4.add_table[A.generator[0], F4.mul_table[2, A.generator[1]]].tolist(),
            A.generator[1].tolist(),
        ]
        C = reference.span(F4, rows)
        assert A == C and hash(A) == hash(C)
        assert A != B or words(A) == words(B)

    def test_zero_and_full(self):
        Z = LinearCode.zero_code(F2, 5)
        assert Z.k == 0 and words(Z) == {(0,) * 5}
        E = reference.full_code(F2, 3)
        assert E.k == 3 and len(words(E)) == 8


class TestDual:
    def test_repetition_dual_is_even_weight(self):
        R = reference.span(F2, [[1, 1, 1]])
        D = reference.dual(R)
        assert D.k == 2
        assert words(D) == {
            v for v in itertools.product(range(2), repeat=3) if sum(v) % 2 == 0
        }

    def test_dual_dimension_and_involution(self):
        for seed in range(5):
            C = random_code(F4, 6, 3, seed)
            D = reference.dual(C)
            assert C.k + D.k == C.n
            assert reference.dual(D) == C

    def test_dual_orthogonality(self):
        C = random_code(F9, 5, 2, seed=9)
        D = reference.dual(C)
        for u in reference.codewords(C)[:20]:
            for v in reference.codewords(D)[:20]:
                s = 0
                for a, b in zip(u, v):
                    s = int(F9.add_table[s, F9.mul_table[int(a), int(b)]])
                assert s == 0

    def test_zero_code_dual_is_full(self):
        Z = LinearCode.zero_code(F4, 4)
        assert reference.dual(Z) == reference.full_code(F4, 4)
        assert reference.dual(reference.full_code(F4, 4)) == Z


class TestShorten:
    def test_brute_force_agreement(self):
        for seed in range(6):
            C = random_code(F4, 5, 3, seed)
            for S in [(0,), (1, 3), (0, 4), (2,)]:
                got = reference.shorten(C, S)
                keep = [i for i in range(5) if i not in set(S)]
                expected = {
                    tuple(w[i] for i in keep)
                    for w in words(C)
                    if all(w[i] == 0 for i in S)
                }
                assert words(got) == expected

    def test_shorten_nothing(self):
        C = random_code(F2, 4, 2, seed=3)
        assert reference.shorten(C, []) == C

    def test_shorten_everything_rejected(self):
        C = random_code(F2, 3, 2, seed=4)
        with pytest.raises(ValueError):
            reference.shorten(C, [0, 1, 2])

    def test_position_range_checked(self):
        C = random_code(F2, 3, 2, seed=5)
        with pytest.raises(ValueError):
            reference.shorten(C, [3])


class TestSubfieldSubcode:
    def test_brute_force_agreement(self):
        for seed in range(8):
            C = random_code(F4, 4, 2, seed)
            sub = reference.subfield_subcode(C)
            assert sub.field == F2
            expected = {w for w in words(C) if all(x < 2 for x in w)}
            assert words(sub) == expected

    def test_requires_tower(self):
        C = random_code(F2, 4, 2, seed=1)
        with pytest.raises(ValueError):
            reference.subfield_subcode(C)
        with pytest.raises(ValueError):
            reference.trace_code(C)

    def test_expand_over_subfield_layout(self):
        H = np.array([[2, 3]])  # w, w+1 over F_4
        E = expand_over_subfield(F4, H)
        assert E.shape == (2, 2)
        # coordinate 0 (the F_2 part): 0 and 1; coordinate 1 (the w part): 1 and 1
        assert E.tolist() == [[0, 1], [1, 1]]

    def test_subfield_kernel_matches_subcode_of_kernel(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            H = rng.integers(0, 9, size=(2, 5))
            C = reference.dual(reference.span(F9, H))
            assert subfield_kernel(F9, H) == reference.subfield_subcode(C)


class TestTraceCode:
    def test_brute_force_agreement(self):
        for seed in range(8):
            C = random_code(F4, 4, 2, seed)
            T = reference.trace_code(C)
            assert T.field == F2
            traced = {
                tuple(int(F4.trace_table[x]) for x in w) for w in words(C)
            }
            # the brute trace image is already a linear space; compare sets
            assert words(T) == traced

    def test_delsarte_duality(self):
        # (C restricted to the subfield)^dual = trace(C^dual)
        for seed in range(8):
            C = random_code(F4, 5, 3, seed)
            lhs = reference.dual(reference.subfield_subcode(C))
            rhs = reference.trace_code(reference.dual(C))
            assert lhs == rhs

    def test_delsarte_duality_f9(self):
        for seed in range(4):
            C = random_code(F9, 4, 2, seed)
            lhs = reference.dual(reference.subfield_subcode(C))
            assert lhs == reference.trace_code(reference.dual(C))


# every tower of order <= 256 with m >= 2
ALTERNANT_TOWERS = [
    (2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (2, 1, 4), (5, 1, 2), (3, 1, 3),
    (2, 1, 5), (7, 1, 2), (2, 2, 3), (2, 3, 2), (2, 1, 6), (3, 2, 2), (3, 1, 4),
    (11, 1, 2), (13, 1, 2), (2, 1, 7), (5, 1, 3), (2, 4, 2), (2, 2, 4), (2, 1, 8),
]


class TestAlternantKernel:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_expansion(self, data):
        # shuffled, punctured points, nonzero multipliers, counts 1..n + 1:
        # d = n - 1, d >= n (zero code), k = 0 and full rank all occur
        field = build_tower(*data.draw(st.sampled_from(ALTERNANT_TOWERS)))
        points = data.draw(st.permutations(range(field.order)))
        n = data.draw(st.integers(1, field.order))
        points = points[:n]
        unit = st.integers(1, field.order - 1)
        mult = data.draw(st.one_of(unit, st.lists(unit, min_size=n, max_size=n)))
        count = data.draw(st.integers(1, n + 1))
        got = alternant_kernel(field, points, mult, count)
        assert got.field == field.subfield and got.n == n
        if count >= n:
            assert got.k == 0
        else:
            rows = reference.vandermonde_rows(field, points, mult, count)
            assert got == subfield_kernel(field, rows)

    @pytest.mark.parametrize("tower", [(2, 1, 4), (3, 1, 3), (2, 2, 3), (5, 1, 2)])
    def test_every_count_on_the_full_support(self, tower):
        field = build_tower(*tower)
        n = field.order
        points = np.random.default_rng(n).permutation(n)
        for count in range(1, n + 1):
            got = alternant_kernel(field, points, 1, count)
            if count < n:
                rows = reference.vandermonde_rows(field, points, 1, count)
                assert got == subfield_kernel(field, rows), count
            else:
                assert got.k == 0


class TestRestrictAlternant:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_stacked_expansion(self, data):
        # an alternant code restricted by a second block of rows with its own
        # multipliers: the kernel of both blocks, whether the second adds
        # rank, all of it (the zero code) or none
        field = build_tower(*data.draw(st.sampled_from(ALTERNANT_TOWERS)))
        points = data.draw(st.permutations(range(field.order)))
        n = data.draw(st.integers(2, field.order))
        points = points[:n]
        unit = st.integers(1, field.order - 1)
        mults = st.one_of(unit, st.lists(unit, min_size=n, max_size=n))
        mult, extra = data.draw(mults), data.draw(mults)
        count = data.draw(st.integers(1, n - 1))
        more = data.draw(st.integers(1, n - 1))
        code = alternant_kernel(field, points, mult, count)
        got = restrict_alternant(code, field, points, extra, more)
        rows = np.vstack([reference.vandermonde_rows(field, points, mult, count),
                          reference.vandermonde_rows(field, points, extra, more)])
        assert got == subfield_kernel(field, rows)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_code_from_rows(self, data):
        # a code built from rows is the pair (K, T) with T of width 0: the
        # restriction reads K alone and meets the kernel of the stacked
        # parity rows, the code's dual over F_q and the new block
        field = build_tower(*data.draw(st.sampled_from(ALTERNANT_TOWERS)))
        sub = field.subfield
        n = data.draw(st.integers(2, field.order))
        points = data.draw(st.permutations(range(field.order)))[:n]
        rows = data.draw(st.lists(st.lists(st.integers(0, sub.order - 1), min_size=n,
                                           max_size=n), min_size=1, max_size=n))
        code = LinearCode(sub, n, rows)
        unit = st.integers(1, field.order - 1)
        extra = data.draw(st.one_of(unit, st.lists(unit, min_size=n, max_size=n)))
        more = data.draw(st.integers(1, n - 1))
        got = restrict_alternant(code, field, points, extra, more)
        stacked = np.vstack([reference.dual(code).generator,
                             reference.vandermonde_rows(field, points, extra, more)])
        assert got == subfield_kernel(field, stacked)

    def test_rows_that_vanish_keep_the_code(self, monkeypatch):
        # the rows a^l / g^5(a), l < 2, vanish on the code of g^4 (the wild
        # equality over F_16/F_4, e = 4): the same object, no elimination
        import wildgoppa.linalg as linalg_mod
        from wildgoppa.goppa import GoppaSpec, full_support, value_powers
        from wildgoppa.poly import find_irreducible

        field = build_tower(2, 2, 2)
        spec = GoppaSpec(field, full_support(field), find_irreducible(field, 2))
        code = alternant_kernel(field, spec.support, value_powers(field, spec.goppa_values, -4), 8)
        assert code.k > 0

        def forbidden(*args):
            raise AssertionError("an elimination ran")

        monkeypatch.setattr(linalg_mod, "kernel", forbidden)
        extra = value_powers(field, spec.goppa_values, -5)
        assert restrict_alternant(code, field, spec.support, extra, 2) is code


def reference_generator(field, rows) -> np.ndarray:
    """The canonical generator of the F_q-kernel of parity rows over
    F_(q^m): the two-elimination kernel of their digit rows."""
    rows = np.asarray(rows, dtype=np.int64)
    digits = np.vstack([rows // field.q**j % field.q for j in range(field.m)])
    return reference.kernel(MatrixGF(field.subfield, digits)).array


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_compact_codes_against_reference_generator(data):
    # a code keeps K's lead columns, block and tail; the generator formed
    # from them has the bytes and hash of the code of the reference rows
    field = build_tower(*data.draw(st.sampled_from(ALTERNANT_TOWERS)))
    n = data.draw(st.integers(3, field.order))
    points = data.draw(st.permutations(range(field.order)))[:n]
    unit = st.integers(1, field.order - 1)
    mults = st.one_of(unit, st.lists(unit, min_size=n, max_size=n))
    mult, count = data.draw(mults), data.draw(st.integers(1, n - 2))
    rows = reference.vandermonde_rows(field, points, mult, count)
    how = data.draw(st.sampled_from(["alternant", "restricted", "subfield"]))
    if how == "alternant":
        got = alternant_kernel(field, points, mult, count)
    elif how == "restricted":
        code = alternant_kernel(field, points, mult, count)
        extra = reference.vandermonde_rows(field, points, data.draw(mults), 1)
        got = restrict_alternant(code, field, points, extra[0], 1)
        assume(got is not code)  # M != 0: the subcode is composed on the blocks
        rows = np.vstack([rows, extra])
    else:
        rows = data.draw(st.lists(st.lists(st.integers(0, field.order - 1), min_size=n,
                                           max_size=n), min_size=1, max_size=4))
        got = subfield_kernel(field, rows)
    want = reference_generator(field, rows)
    code = LinearCode(field.subfield, n, rows=want)
    assert got.k == code.k == want.shape[0]
    assert got.generator.tobytes() == code.generator.tobytes() == want.tobytes()
    assert hash(got) == hash(code)


def _held_bytes(code: LinearCode) -> int:
    """Bytes of the arrays a code holds, the field's tables aside, counting
    each array's whole base."""
    total = 0
    for name in LinearCode.__slots__:
        value = getattr(code, name)
        if name != "field":
            for a in vars(value).values() if hasattr(value, "__dict__") else [value]:
                while isinstance(a, np.ndarray) and isinstance(a.base, np.ndarray):
                    a = a.base
                total += a.nbytes if isinstance(a, np.ndarray) else 0
    return total


def test_wild_code_holds_its_block_not_its_basis():
    # the code of g^32, g a rootless cubic over F_1024/F_32 on the full
    # support, as in the verify_f1024 benchmark: 841 x 1024 with K of width
    # 928, whose basis in full (1.56 MB) is never written before the
    # generator is read
    from wildgoppa.goppa import GoppaSpec, full_support, goppa_power_codes
    from wildgoppa.poly import find_irreducible

    field = build_tower(2, 5, 2)
    spec = GoppaSpec(field, full_support(field), find_irreducible(field, 3))
    code, = goppa_power_codes(spec, (32,))
    assert (code.n, code.k) == (1024, 841)
    assert _held_bytes(code) < 500_000
    G = code.generator
    assert G.shape == (841, 1024) and _held_bytes(code) > G.nbytes


class TestIntersectContains:
    def test_contains(self):
        C = random_code(F4, 5, 3, seed=23)
        S = reference.shorten(C, [0])
        # re-embed shortened words with a zero in front
        rows = np.hstack([np.zeros((S.k, 1), dtype=np.int16), S.generator])
        assert C.contains(reference.span(F4, rows))
        assert not LinearCode.zero_code(F4, 5).contains(C) or C.k == 0


class TestMinDistance:
    def test_matches_brute_force(self):
        for seed in range(6):
            C = random_code(F3, 6, 3, seed)
            if C.k == 0:
                continue
            d = C.min_distance()
            brute = min(
                sum(1 for x in w if x) for w in words(C) if any(w)
            )
            assert d == brute

    def test_budget_marker(self):
        C = reference.full_code(F4, 13)  # 4^13 - 1 > 10^7 words
        assert C.min_distance() is None
        D = reference.full_code(F4, 9)
        assert D.min_distance(budget=10**5) is None
        assert D.min_distance(budget=4**9) == 1

    def test_zero_code_rejected(self):
        with pytest.raises(ValueError):
            LinearCode.zero_code(F2, 3).min_distance()

    def test_repetition(self):
        R = reference.span(F9, [[1] * 7])
        assert R.min_distance() == 7


# fields of the differential test; the last is the F_4 level of F_16
DISTANCE_FIELDS = [
    F2, F3, F4, build_tower(5, 1, 1), build_tower(7, 1, 1),
    build_tower(2, 1, 3), F9, build_tower(2, 2, 2).subfield,
]


def _shaped_code(field, n, k, seed) -> LinearCode:
    """A random k-row code of length n with a zero column and a repeated
    column when n allows."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, field.order, size=(k, n))
    if n > k + 1:
        rows[:, -1] = 0
        rows[:, -2] = rows[:, 0]
    return reference.span(field, rows)


@pytest.mark.parametrize("field", DISTANCE_FIELDS, ids=lambda f: str(f.params))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_min_distance_against_full_enumeration(field, data):
    n = data.draw(st.integers(1, 12))
    k = data.draw(st.integers(1, n))
    assume(field.order**k <= 10**5)
    rows = np.array(data.draw(st.lists(
        st.lists(st.integers(0, field.order - 1), min_size=n, max_size=n),
        min_size=k, max_size=k)))
    zero = data.draw(st.lists(st.integers(0, n - 1), max_size=2))
    rows[:, zero] = 0
    for dst, src in data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                 st.integers(0, n - 1)), max_size=2)):
        rows[:, dst] = rows[:, src]
    C = reference.span(field, rows)
    assume(C.k > 0)
    assert C.min_distance() == reference.min_distance(C, 10**7)


# (field, n, s): at length n, min_distance keeps the span of its s low rows
# as its block, the most rows with order^s * n <= _CHUNK_CELLS cells and at
# least one; F_2 at n = 40000 and F_9 at n = 2000 leave s = 1
BLOCK_SPLITS = [
    (F2, 40, 11), (F2, 1024, 7), (F2, 40000, 1), (F3, 40, 7), (F4, 40, 5),
    (F9, 40, 3), (F9, 2000, 1), (build_tower(2, 2, 2).subfield, 64, 5),
]


def _split_id(v):
    return str(v.params) if hasattr(v, "params") else str(v)


@pytest.mark.parametrize("field,n,s", BLOCK_SPLITS, ids=_split_id)
@pytest.mark.parametrize("extra", [0, 1, 2])
def test_min_distance_at_the_block_split(field, n, s, extra):
    # s low rows fill min_distance's block; k = s puts every row in the
    # block, k = s + 1 leaves one leading row for the offsets, and k = s + 2
    # a leading row whose offsets span the row below it
    assert field.order**s * n <= _CHUNK_CELLS < field.order ** (s + 1) * n
    k = s + extra
    C = _shaped_code(field, n, k, seed=k)
    assert C.k == k
    assert C.min_distance() == reference.min_distance(C, 10**7)


@pytest.mark.parametrize("field,n,s", BLOCK_SPLITS, ids=_split_id)
def test_min_distance_finds_each_planted_word(field, n, s):
    # systematic [I | P] with k = s + 2 and n - k >= 24 random parity
    # columns; P[j] is set so that the message e_j + c*e_i (or e_j alone)
    # has no parity part, a word of weight 2 (or 1) among heavy ones, led by
    # a low or a high row (at s = 1 the low pair (s - 1, 0) is no pair)
    k = s + 2
    c = field.order - 1
    for j, i in [(k - 1, None), (k - 1, k - 2), (k - 1, 0), (k - 2, None),
                 (k - 2, 0), (s - 1, 0), (0, None)]:
        if j == i:
            continue
        rng = np.random.default_rng(j)
        P = rng.integers(0, field.order, size=(k, n - k))
        P[j] = 0 if i is None else field.neg_table[field.mul_table[c, P[i]]]
        C = reference.span(field, np.hstack([np.eye(k, dtype=np.int64), P]))
        assert C.min_distance() == (1 if i is None else 2), (j, i)


def test_min_distance_long_binary_code_in_a_small_working_set():
    # a [1024, 14] binary code: the block is 2^7 rows of 1024 cells and each
    # offset is weighed in one reused mask, so the traced peak stays under
    # 4 MB, where a block of 2^14 rows would take 32 MB
    C = _shaped_code(F2, 1024, 14, seed=1024)
    assert C.k == 14
    tracemalloc.start()
    try:
        d = C.min_distance()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert d == reference.min_distance(C, 10**7)


@pytest.mark.parametrize("field", DISTANCE_FIELDS, ids=lambda f: str(f.params))
def test_min_distance_k1_and_full_code(field):
    C = _shaped_code(field, 9, 1, seed=field.order)
    weight = int(np.count_nonzero(C.generator[0]))
    assert C.min_distance() == reference.min_distance(C, 10**7) == weight
    k = 2 if field.order < 8 else 1
    E = reference.full_code(field, k)
    assert E.min_distance() == reference.min_distance(E, 10**7) == 1


@pytest.mark.parametrize("field", [F2, F3, F4], ids=lambda f: str(f.params))
def test_min_distance_budget_boundary(field):
    C = _shaped_code(field, 10, 5, seed=7)
    total = field.order**C.k
    d = reference.min_distance(C, total - 1)
    assert d is not None and C.min_distance(budget=total - 1) == d
    assert C.min_distance(budget=total - 2) is None
    assert reference.min_distance(C, total - 2) is None
