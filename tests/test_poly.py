"""Polynomial arithmetic, irreducibility, root counting, residue rings."""

from __future__ import annotations

import functools
import json
import operator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import reference
from wildgoppa import poly
from wildgoppa.errors import BudgetExceeded
from wildgoppa.gf import ORDER_CAP, build_tower, digit_array, digits, prime_factors
from wildgoppa.poly import (
    NEG_INF,
    Polynomial,
    _candidate_block,
    _fold_mod,
    _one_distinct_factor,
    _power_rows,
    _QuadraticStage,
    _root_free,
    _xq_by_frobenius,
    batch_mul_mod,
    batch_pow_mod,
    count_distinct_roots,
    find_irreducible,
    gcd,
    irreducible_power,
    is_irreducible,
    is_squarefree,
    parse_poly_spec,
    pow_mod,
)

F4 = build_tower(2, 1, 2)
F8 = build_tower(2, 1, 3)
F9 = build_tower(3, 1, 2)
F16 = build_tower(2, 2, 2)

# find_irreducible's answers on every tower of order <= 81 at degrees 1-6,
# on F_4 at degree 40, on the Table 1 towers F_25, F_49, F_64 and F_81
# (m = 2) at degree 7, and on every tower of order 128 or 256 at degrees 4
# and 5, keyed "p,a,m,degree"
IRREDUCIBLE_GOLDEN_PATH = Path(__file__).parent / "data" / "irreducible_golden.json"

# every proper tower within the table cap, and the prime fields up to 7
TOWERS = sorted(
    (p, a, m) for p in range(2, ORDER_CAP + 1) if prime_factors(p) == [p]
    for a in range(1, 11) for m in range(1, 11)
    if p ** (a * m) <= ORDER_CAP and (a * m > 1 or p <= 7)
)
# the scalar reference tests at most this many candidates per search
REFERENCE_SCAN = 128
# the towers on which is_irreducible is compared with Rabin's test
SMALL_TOWERS = [t for t in TOWERS if t[0] ** (t[1] * t[2]) <= 256]
# the towers on which the quadratic stage is compared with its gcd oracle
QUADRATIC_TOWERS = [t for t in TOWERS if t[0] ** (t[1] * t[2]) <= 81]


@functools.cache
def searched_irreducible(field, degree: int) -> Polynomial | None:
    """find_irreducible's answer, None when the search is refused. On the
    towers of order <= 256 no search up to degree 7 is (degree 7 over F_243,
    the slowest, takes about 0.6 s); quartics over F_256 answer in about
    0.1 s."""
    try:
        return find_irreducible(field, degree)
    except BudgetExceeded:
        return None


def brute_distinct_roots(f: Polynomial) -> int:
    return sum(1 for x in reference.elements(f.field)
               if reference.evaluate(f, x).code == 0)


def brute_is_irreducible(f: Polynomial) -> bool:
    """Trial division by every monic polynomial of smaller positive degree."""
    d = f.degree
    if d is NEG_INF or d == 0:
        return False
    if d == 1:
        return True
    field = f.field
    for ddiv in range(1, int(d) // 2 + 1):
        for idx in range(field.order**ddiv):
            coeffs, k = [], idx
            for _ in range(ddiv):
                coeffs.append(k % field.order)
                k //= field.order
            coeffs.append(1)
            if (f % Polynomial(field, coeffs)).is_zero:
                return False
    return True


def poly_strategy(field, max_degree=6):
    return st.lists(
        st.integers(min_value=0, max_value=field.order - 1),
        min_size=0, max_size=max_degree + 1,
    ).map(lambda cs: Polynomial(field, cs))


class TestBasics:
    def test_degree_conventions(self):
        assert Polynomial.zero(F4).degree == NEG_INF
        assert Polynomial.one(F4).degree == 0
        assert Polynomial.x(F4).degree == 1
        assert Polynomial(F4, [1, 0, 0]).degree == 0  # trailing zeros dropped

    def test_neg_inf_ordering(self):
        assert NEG_INF < 0
        d = Polynomial.zero(F4).degree
        assert d < Polynomial.one(F4).degree

    def test_equality_and_hash(self):
        a = Polynomial(F4, [1, 2])
        b = Polynomial(F4, [1, 2, 0])
        assert a == b and hash(a) == hash(b)
        assert a != Polynomial(F8, [1, 2])

    def test_evaluation_matches_horner(self):
        f = Polynomial(F9, [2, 0, 1, 5])
        for x in reference.elements(F9):
            expected = F9.element(2) + x * x + F9.element(5) * x**3
            assert reference.evaluate(f, x) == expected
        codes = np.arange(9)
        vals = f.evaluate_codes(codes)
        assert [int(v) for v in vals] == [reference.evaluate(f, x).code
                                          for x in reference.elements(F9)]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_evaluate_codes_matches_horner(self, data):
        # block lengths 1 .. 15, points of any shape
        field = data.draw(st.sampled_from(POW_FIELDS))
        f = Polynomial(field, data.draw(st.lists(
            st.integers(0, field.order - 1), max_size=200)))
        shape = data.draw(st.sampled_from([(), (0,), (7,), (2, 3)]))
        codes = np.array(data.draw(st.lists(st.integers(0, field.order - 1),
                                            min_size=int(np.prod(shape)),
                                            max_size=int(np.prod(shape))))).reshape(shape)
        got, want = f.evaluate_codes(codes), reference.evaluate_codes(f, codes)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert (got == want).all()

    def test_monic_and_scale(self):
        f = Polynomial(F9, [1, 2])  # 2x + 1
        m = f.monic()
        assert m.is_monic and (m.scale(reference.leading_coefficient(f))) == f

    def test_derivative_char_p(self):
        # d/dx of x^3 over F_9 (char 3) is 0; of x^4 is x^3
        assert Polynomial.monomial(F9, 3).derivative().is_zero
        assert Polynomial.monomial(F9, 4).derivative() == Polynomial.monomial(F9, 3)

    def test_cross_field_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.x(F4) + Polynomial.x(F8)


class TestDivision:
    @given(poly_strategy(F8), poly_strategy(F8))
    @settings(max_examples=120, deadline=None)
    def test_divmod_identity(self, a, b):
        if b.is_zero:
            with pytest.raises(ZeroDivisionError):
                divmod(a, b)
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    @given(poly_strategy(F9, 5), poly_strategy(F9, 5))
    @settings(max_examples=80, deadline=None)
    def test_gcd_divides_both(self, a, b):
        g = gcd(a, b)
        if g.is_zero:
            assert a.is_zero and b.is_zero
            return
        assert (a % g).is_zero and (b % g).is_zero
        assert g.is_monic

    @given(poly_strategy(F4, 5), poly_strategy(F4, 5))
    @settings(max_examples=80, deadline=None)
    def test_ext_gcd_bezout(self, a, b):
        g, u, v = reference.ext_gcd(a, b)
        assert u * a + v * b == g
        assert g == gcd(a, b)

    def test_pow_mod_matches_naive(self):
        f = Polynomial(F4, [1, 1, 1])
        x = Polynomial.x(F4)
        assert pow_mod(x, 10, f) == (x**10) % f
        assert pow_mod(x, 0, f) == Polynomial.one(F4)


class TestIrreducibility:
    @pytest.mark.parametrize("field", [F4, F8, F9])
    def test_matches_trial_division(self, field):
        rng = np.random.default_rng(3)
        for _ in range(40):
            d = int(rng.integers(1, 5))
            coeffs = [int(c) for c in rng.integers(0, field.order, size=d)] + [1]
            f = Polynomial(field, coeffs)
            assert is_irreducible(f) == brute_is_irreducible(f)

    def test_constants_not_irreducible(self):
        assert not is_irreducible(Polynomial.one(F4))
        assert not is_irreducible(Polynomial.zero(F4))

    def test_find_irreducible_deg2_f9(self):
        g = find_irreducible(F9, 2)
        assert g.degree == 2 and g.is_monic
        assert brute_distinct_roots(g) == 0
        # minimality: every candidate with a smaller encoded index factors
        idx = g.coeffs[0] + 9 * g.coeffs[1]
        for k in range(idx):
            cand = Polynomial(F9, [k % 9, k // 9, 1])
            assert not brute_is_irreducible(cand)

    def test_find_irreducible_examples(self):
        assert find_irreducible(F4, 1) == Polynomial.x(F4)
        g8 = find_irreducible(F8, 2)
        assert is_irreducible(g8) and g8.degree == 2

    def test_large_degree_runs(self):
        F81 = build_tower(3, 2, 2)
        g = find_irreducible(F81, 7)
        assert g.degree == 7 and is_irreducible(g)

    @settings(max_examples=30, deadline=None)
    @given(tower=st.sampled_from(TOWERS), degree=st.integers(1, 7))
    def test_sieve_matches_scalar_search(self, tower, degree):
        """The sieve returns the scalar search's polynomial. Past the
        reference's scan window it must return an irreducible beyond the
        window, or refuse the search over budget."""
        field = build_tower(*tower)
        expected = reference.find_irreducible(field, degree, REFERENCE_SCAN)
        try:
            got = find_irreducible(field, degree)
        except BudgetExceeded:
            assert expected is None
            return
        if expected is not None:
            assert got == expected
        else:
            index = sum(c * field.order**i for i, c in enumerate(got.coeffs[:-1]))
            assert index >= REFERENCE_SCAN and reference.is_irreducible(got)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_rabin(self, data):
        """is_irreducible agrees with Rabin's test on towers of order <= 256
        at degrees 1-8: on random polynomials, on powers h^s (s = 2, 3, p),
        which reach the squarefree step, and on products of two
        irreducibles of one degree."""
        field = build_tower(*data.draw(st.sampled_from(SMALL_TOWERS)))
        order = field.order

        def irreducible(d):
            # h(a*x + c) is irreducible with h; a scan from a drawn index
            # would test 66,056 reducible quartics over F_256 from index 0
            line = Polynomial(field, [data.draw(st.integers(0, order - 1)),
                                      data.draw(st.integers(1, order - 1))])
            searched = searched_irreducible(field, d)
            if searched is None:
                reject()
            h = Polynomial.zero(field)
            for c in reversed(searched.coeffs):
                h = h * line + Polynomial.constant(field, c)
            assert reference.is_irreducible(h)
            return h

        kind = data.draw(st.sampled_from(["random", "power", "product"]))
        if kind == "random":
            d = data.draw(st.integers(1, 8))
            f = Polynomial(field, data.draw(st.lists(
                st.integers(0, order - 1), min_size=d, max_size=d)) + [1])
        elif kind == "power":
            s = data.draw(st.sampled_from(sorted({2, 3, field.p} & set(range(2, 9)))))
            f = irreducible(data.draw(st.integers(1, 8 // s))) ** s
        else:
            d = data.draw(st.integers(1, 4))
            f = irreducible(d) * irreducible(d)
        f = f.scale(data.draw(st.integers(1, order - 1)))
        assert is_irreducible(f) == reference.is_irreducible(f)

    def test_no_pow_mod(self, monkeypatch):
        """The searches, the test and the root count run without pow_mod;
        the square of an irreducible cubic over F_1024 passes both sieves
        and is refused by the squarefree step."""
        F1024 = build_tower(2, 5, 2)
        cases = [(F4, 6), (F9, 5), (build_tower(5, 1, 2), 4), (F1024, 3)]
        towers = [build_tower(2, 1, 1)] + [field for field, _ in cases]

        def fail(*args):
            raise AssertionError("pow_mod called")

        monkeypatch.setattr(poly, "pow_mod", fail)
        for field, top in cases:
            for d in range(1, top + 1):
                g = find_irreducible(field, d)
                assert g.degree == d and is_irreducible(g)
                assert count_distinct_roots(g) == (1 if d == 1 else 0)
        for field in towers:
            x = Polynomial.x(field)
            assert count_distinct_roots(x**field.order - x) == field.order
        h = find_irreducible(F1024, 3)
        assert is_irreducible(h) and not is_irreducible(h**2)

    def test_berlekamp_sieve_keeps_exactly_prime_powers(self):
        """Over all 256 monic quartics over F_4, stage 2 keeps f exactly when
        f = h^s for one irreducible h (by trial division), so it never
        drops an irreducible."""
        irreducible = [
            Polynomial(F4, digits(idx, 4, d) + [1])
            for d in (1, 2, 4) for idx in range(4**d)
        ]
        irreducible = [h for h in irreducible if brute_is_irreducible(h)]
        prime_powers = {(h ** (4 // int(h.degree))).coeffs for h in irreducible}
        cands = np.array([digits(idx, 4, 4) for idx in range(4**4)], dtype=np.int16)
        kept = _one_distinct_factor(F4, cands)
        for row, keep in zip(cands.tolist(), kept.tolist()):
            assert keep == (tuple(row + [1]) in prime_powers), row
        assert sum(kept) == len(prime_powers) == 4 + 6 + 60

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_root_free_matches_horner(self, data):
        """The root sieve, one evaluation per run of a shared high part,
        agrees with Horner's rule at every element for every row, on rows in
        any order: runs, high parts repeated apart, shuffled, a single row."""
        field = build_tower(*data.draw(st.sampled_from(SMALL_TOWERS)))
        d = data.draw(st.integers(2, 7))
        codes = st.integers(0, field.order - 1)
        # high parts that differ in one column, or not at all
        base = data.draw(st.lists(codes, min_size=d - 1, max_size=d - 1))
        highs = [base[:i] + [c] + base[i + 1 :] for i, c in data.draw(st.lists(
            st.tuples(st.integers(0, d - 2), codes), min_size=1, max_size=4))]
        picks = data.draw(st.lists(st.tuples(st.integers(0, len(highs) - 1), codes),
                                   min_size=1, max_size=40))
        cands = np.array([[c0] + highs[h] for h, c0 in picks], dtype=np.int16)
        if data.draw(st.booleans()):
            cands = cands[data.draw(st.permutations(range(len(cands))))]
        got = _root_free(field, cands)
        assert got.tolist() == reference.root_free(field, cands).tolist()

    @pytest.mark.parametrize("field,d", [(F4, 2), (F9, 3), (F16, 4), (build_tower(7, 1, 2), 2)])
    def test_root_free_index_order(self, field, d):
        """Whole index-ordered blocks, runs of |F| rows, match Horner's rule;
        a block may start and end inside a run."""
        total = min(field.order**d, 4096)
        cands = np.array([digits(i, field.order, d) for i in range(total)], dtype=np.int16)
        want = reference.root_free(field, cands)
        assert _root_free(field, cands).tolist() == want.tolist()
        assert _root_free(field, cands[3:-5]).tolist() == want[3:-5].tolist()

    @pytest.mark.parametrize("params,d,by_maps", [
        ((2, 1, 2), 4, True), ((2, 4, 2), 5, True), ((3, 2, 2), 6, True),
        ((7, 1, 2), 4, True), ((31, 1, 2), 4, False), ((31, 1, 1), 7, False),
        ((17, 1, 2), 5, False),
    ])
    def test_x_to_the_q_both_branches(self, params, d, by_maps):
        """x^Q mod f from p-th power maps (small p) or square and multiply
        (large p) equals batch_pow_mod, and the Berlekamp sieve equals the
        square-and-multiply sieve, on random moduli, an irreducible, a
        product of two distinct factors and, at even degree, a square."""
        field = build_tower(*params)
        assert _xq_by_frobenius(field.p, field.a * field.m, d)[0] is by_maps
        rng = np.random.default_rng(d)
        # irreducible, two distinct factors, and from even d a square
        special = [find_irreducible(field, d), Polynomial.x(field) * find_irreducible(field, d - 1)]
        if d % 2 == 0:
            special.append(find_irreducible(field, d // 2) ** 2)
        rows = rng.integers(0, field.order, size=(40, d)).tolist()
        moduli = np.array(rows + [list(f.coeffs[:-1]) for f in special], dtype=np.int16)
        x = np.zeros(moduli.shape, dtype=np.int16)
        x[:, 1] = 1
        want = batch_pow_mod(field, x, field.order, moduli)
        assert (_power_rows(field, moduli, field.a * field.m)[:, 1] == want).all()
        kept = _one_distinct_factor(field, moduli)
        assert kept.tolist() == reference.one_distinct_factor(field, moduli).tolist()
        assert kept[40] and not kept[41] and kept[42:].all()

    @pytest.mark.parametrize("params", [
        (2, 1, 2), (2, 2, 2), (3, 1, 2), (3, 3, 1), (3, 1, 3), (5, 1, 2),
        (7, 1, 2), (17, 1, 2), (31, 1, 2),
    ])
    def test_power_rows_against_scalar_powers(self, params):
        """Every row x^(j p^k) mod f of _power_rows, for the q-th (k = a) and
        the |F|-th (k = a m) power maps, equals one scalar power and product
        at a time, on random monic moduli of degree 1 to 5."""
        field = build_tower(*params)
        rng = np.random.default_rng(field.order)
        for d in range(1, 6):
            moduli = rng.integers(0, field.order, size=(4, d)).astype(np.int16)
            for k in (field.a, field.a * field.m):
                rows = _power_rows(field, moduli, k)
                assert rows.shape == (4, d, d) and rows.dtype == np.int16
                for f, got in zip(moduli.tolist(), rows):
                    h = Polynomial(field, f + [1])
                    assert (got == reference.power_rows(h, field.p**k)).all()

    @pytest.mark.parametrize("params,coeffs", [
        ((2, 1, 8), [8, 2, 1, 0, 1]), ((2, 2, 4), [2, 4, 1, 0, 1]),
        ((2, 4, 2), [1, 16, 1, 0, 1]), ((2, 8, 1), [8, 2, 1, 0, 1]),
    ])
    def test_quartics_over_f256_within_budget(self, params, coeffs):
        """Quartics over F_256 fit the budget, and each presentation returns
        what its search returns with the budget lifted, past candidate
        65,536."""
        g = find_irreducible(build_tower(*params), 4)
        assert list(g.coeffs) == coeffs and reference.is_irreducible(g)

    @pytest.mark.parametrize("params,degree", [((2, 4, 2), 6), ((3, 1, 5), 7)])
    def test_berlekamp_charged_on_root_survivors(self, params, degree):
        """Degree 6 over F_256 and degree 7 over F_243 fit the budget: the
        Berlekamp sieve is charged only on the root sieve's survivors."""
        g = find_irreducible(build_tower(*params), degree)
        assert g.degree == degree and reference.is_irreducible(g)

    @staticmethod
    def quadratic_cases(field, degree, rng):
        """Monic polynomials of the degree: random ones, and h^2 and h h'
        (times a root-free cofactor) and h times a root-free cofactor, for
        irreducible quadratics h and h'."""
        def monic(d):
            return Polynomial(field, rng.integers(0, field.order, d).tolist() + [1])

        def root_free(d):
            while d:
                f = monic(d)
                if reference.root_free(field, np.array([f.coeffs[:-1]]))[0]:
                    return f
            return Polynomial.one(field)

        cases = [monic(degree) for _ in range(12)]
        for _ in range(4):
            h = root_free(2)
            if degree != 5:  # no root-free cofactor of degree 1
                cases += [h * h * root_free(degree - 4), h * root_free(2) * root_free(degree - 4)]
            cases.append(h * root_free(degree - 2))
        return cases

    @pytest.mark.parametrize("degree", [4, 5, 6, 7])
    @pytest.mark.parametrize("tower", QUADRATIC_TOWERS)
    def test_quadratic_stage_against_gcd(self, tower, degree):
        """The quadratic stage drops exactly the root-free candidates with an
        irreducible quadratic factor (a nonconstant gcd with x^(Q^2) - x):
        on random rows, squares h^2 and products h h', in any order, and on
        index-ordered rows across a run boundary, taken as two chunks through
        one stage as a search takes them."""
        field = build_tower(*tower)
        order = field.order
        rng = np.random.default_rng([order, degree])
        cases = self.quadratic_cases(field, degree, rng)
        rows = np.array([f.coeffs[:-1] for f in cases], dtype=np.int16)
        keep = reference.root_free(field, rows)
        assert keep[12:].all()  # the built cases are root-free
        rows = rows[keep]
        got = _QuadraticStage(field, degree).free(rows)
        assert got.tolist() == reference.quadratic_free(field, rows).tolist()
        assert not got[keep[:12].sum():].any()
        start = max(order * order - 40, 0)
        stage = _QuadraticStage(field, degree)
        for lo, hi in [(0, 24), (24, 80)]:
            block = _candidate_block(start + lo, hi - lo, order, degree)
            block = block[reference.root_free(field, block)]
            if len(block):  # the sieve passes no empty chunk to the stage
                got = stage.free(block)
                assert got.tolist() == reference.quadratic_free(field, block).tolist()
        assert stage.high is not None

    @pytest.mark.parametrize("tower", QUADRATIC_TOWERS)
    def test_quadratic_route_against_berlekamp_route(self, tower, monkeypatch):
        """At degrees 4 and 5 both routes of the sieve agree with Rabin's
        test: the quadratic stage in place of the Berlekamp sieve and the
        squarefree step, and the Berlekamp sieve with that step. Both
        routes' searches return the same polynomial."""
        field = build_tower(*tower)
        rng = np.random.default_rng(field.order)
        cases = [f.scale(int(rng.integers(1, field.order)))
                 for d in (4, 5) for f in self.quadratic_cases(field, d, rng)]
        cases += [searched_irreducible(field, d) for d in (4, 5)]
        want = [reference.is_irreducible(f) for f in cases]

        def fail(*args):
            raise AssertionError("Berlekamp route taken")

        answers = []
        for cells in (lambda self, rows: 0, lambda self, rows: None):
            with monkeypatch.context() as mp:
                mp.setattr(_QuadraticStage, "cells", cells)
                if not answers:  # the stage's route never reaches these
                    mp.setattr(poly, "_one_distinct_factor", fail)
                    mp.setattr(poly, "is_squarefree", fail)
                assert [is_irreducible(f) for f in cases] == want
                answers.append([find_irreducible(field, d) for d in (4, 5)])
        assert answers[0] == answers[1] == cases[-2:]

    def test_candidate_block_exact_past_int64(self):
        """Blocks are exact where order**degree passes 2**63, and stop at
        the next multiple of order**k so that the high digits are shared."""
        span = 4**20  # F_4: 20 low digits vary within a block
        for start in (0, 5 * span - 3, 3**70):
            block = _candidate_block(start, 16, 4, 40)
            count = min(16, span - start % span)
            assert block.shape == (count, 40)
            assert block.tolist() == [digits(start + i, 4, 40) for i in range(count)]

    @pytest.mark.parametrize("base,count", [(2, 1), (4, 3), (9, 2), (1024, 6)])
    def test_digit_array_matches_digits(self, base, count):
        codes = np.array([[0, 1, base - 1], [base, 12345 % base**count, base**count - 1]])
        got = digit_array(codes, base, count)
        assert got.shape == (2, 3, count) and got.dtype == np.int64
        for code, row in zip(codes.ravel().tolist(), got.reshape(-1, count).tolist()):
            assert row == digits(code, base, count)
        if base**count <= np.iinfo(np.int16).max:  # int16 codes keep their dtype
            narrow = digit_array(codes.astype(np.int16), base, count)
            assert narrow.dtype == np.int16 and (narrow == got).all()

    def test_digit_array_widens_when_digits_overflow(self):
        got = digit_array(np.array([5, 3], dtype=np.int16), 2, 20)
        assert got.dtype == np.int64 and got.tolist() == [digits(5, 2, 20), digits(3, 2, 20)]

    def test_find_irreducible_golden(self):
        """The search order is frozen: every recorded search returns the
        same coefficients."""
        expected = json.loads(IRREDUCIBLE_GOLDEN_PATH.read_text())
        assert len(expected) == 293
        for key, coeffs in expected.items():
            p, a, m, d = map(int, key.split(","))
            assert list(find_irreducible(build_tower(p, a, m), d).coeffs) == coeffs, key


BATCH_FIELDS = [build_tower(2, 1, 1), F4, F9, build_tower(5, 1, 2), build_tower(3, 1, 3)]


@st.composite
def batch_operands(draw):
    """A field, N monic moduli of one degree d >= 1 as (N, d) non-leading
    coefficients, and two (N, d) arrays of residues."""
    field = draw(st.sampled_from(BATCH_FIELDS))
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    codes = st.integers(0, field.order - 1)
    arrays = [
        np.array(draw(st.lists(st.lists(codes, min_size=d, max_size=d),
                               min_size=n, max_size=n)), dtype=np.int16)
        for _ in range(3)
    ]
    return field, *arrays


class TestBatchedArithmetic:
    @settings(max_examples=60, deadline=None)
    @given(ops=batch_operands())
    def test_mul_mod_matches_scalar(self, ops):
        field, moduli, a, b = ops
        got = batch_mul_mod(field, a, b, moduli)
        for i in range(len(moduli)):
            f = Polynomial(field, moduli[i].tolist() + [1])
            want = (Polynomial(field, a[i].tolist()) * Polynomial(field, b[i].tolist())) % f
            assert got[i].tolist() == list(want.coeffs) + [0] * (f.degree - len(want.coeffs))

    @settings(max_examples=40, deadline=None)
    @given(ops=batch_operands(), e=st.integers(0, 3000))
    def test_pow_mod_matches_scalar(self, ops, e):
        field, moduli, base, _ = ops
        got = batch_pow_mod(field, base, e, moduli)
        for i in range(len(moduli)):
            f = Polynomial(field, moduli[i].tolist() + [1])
            want = pow_mod(Polynomial(field, base[i].tolist()), e, f)
            assert got[i].tolist() == list(want.coeffs) + [0] * (f.degree - len(want.coeffs))


    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fold_mod_matches_scalar(self, data):
        # one modulus for all rows of any width >= d (goppa_via_crt's shape),
        # or one modulus per row (batch_mul_mod's shape)
        field = data.draw(st.sampled_from(BATCH_FIELDS))
        n, d = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
        width = data.draw(st.integers(d, 3 * d + 8))
        count = 1 if data.draw(st.booleans()) else n
        codes = st.integers(0, field.order - 1)
        rows, moduli = (
            np.array(data.draw(st.lists(st.lists(codes, min_size=w, max_size=w),
                                        min_size=k, max_size=k)), dtype=np.int16)
            for k, w in ((n, width), (count, d))
        )
        got = _fold_mod(field, rows.copy(), moduli)
        assert got.shape == (n, d)
        for i in range(n):
            f = Polynomial(field, moduli[i % count].tolist() + [1])
            want = Polynomial(field, rows[i].tolist()) % f
            assert got[i].tolist() == list(want.coeffs) + [0] * (d - len(want.coeffs))

    @pytest.mark.parametrize("field,d,width,count", [
        (F9, 2, 30, 1), (build_tower(7, 1, 2), 3, 60, 1), (F16, 1, 5, 1),
        (build_tower(5, 1, 2), 4, 7, 3), (F8, 5, 9, 3),
    ])
    def test_fold_mod_fixed_shapes(self, field, d, width, count):
        rng = np.random.default_rng(width)
        rows = rng.integers(0, field.order, size=(3, width)).astype(np.int16)
        moduli = rng.integers(0, field.order, size=(count, d)).astype(np.int16)
        got = _fold_mod(field, rows.copy(), moduli)
        for i in range(3):
            f = Polynomial(field, moduli[i % count].tolist() + [1])
            want = Polynomial(field, rows[i].tolist()) % f
            assert got[i].tolist() == list(want.coeffs) + [0] * (d - len(want.coeffs))


POW_FIELDS = [build_tower(2, 1, 1), build_tower(3, 1, 1), F4, F9, F16,
              build_tower(5, 1, 2), build_tower(2, 2, 3), build_tower(3, 2, 2)]


class TestPower:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_square_and_multiply(self, data):
        field = data.draw(st.sampled_from(POW_FIELDS))
        base = Polynomial(field, data.draw(st.lists(
            st.integers(0, field.order - 1), max_size=5)))
        e = data.draw(st.integers(0, 300))
        assert base**e == reference.poly_pow(base, e)

    def test_norm_exponent_and_edges(self):
        F81 = build_tower(3, 2, 2)
        g = Polynomial(F81, [5, 0, 7, 1])
        assert g ** F81.norm_exponent == reference.poly_pow(g, F81.norm_exponent)
        assert Polynomial.zero(F4) ** 0 == Polynomial.one(F4)
        assert Polynomial.zero(F4) ** 9 == Polynomial.zero(F4)
        with pytest.raises(ValueError):
            Polynomial.x(F4) ** -1


class TestRootCounting:
    @pytest.mark.parametrize("field", [F4, F8, F9, F16])
    def test_matches_brute_force(self, field):
        rng = np.random.default_rng(17)
        for _ in range(40):
            d = int(rng.integers(1, 6))
            coeffs = [int(c) for c in rng.integers(0, field.order, size=d + 1)]
            f = Polynomial(field, coeffs)
            if f.is_zero or f.degree == 0:
                continue
            assert count_distinct_roots(f) == brute_distinct_roots(f)
            assert count_distinct_roots(f) == reference.count_distinct_roots(f)

    @pytest.mark.parametrize("field", [F4, F9, F16, build_tower(2, 4, 2)])
    def test_matches_gcd_on_structured_inputs(self, field):
        """Split, repeated-root, constant and dense inputs agree with the
        gcd count and with evaluation one element at a time."""
        rng = np.random.default_rng(field.order)
        x = Polynomial.x(field)

        def linear(c):
            return x - Polynomial.constant(field, int(c))

        roots = rng.choice(field.order, size=min(5, field.order - 1), replace=False)
        split = functools.reduce(operator.mul, map(linear, roots))
        dense = rng.integers(0, field.order, size=301).tolist() + [1]
        cases = [
            x**field.order - x,
            split,
            split * linear(roots[0]) ** 3 * linear(roots[1]) ** 2,
            (x**2 + x + Polynomial.one(field)) ** 2 * linear(roots[0]) ** field.p,
            Polynomial.constant(field, 1),
            Polynomial.constant(field, field.order - 1),
            Polynomial(field, dense),
            Polynomial(field, dense) * split,
        ]
        for f in cases:
            want = brute_distinct_roots(f)
            assert count_distinct_roots(f) == reference.count_distinct_roots(f) == want

    def test_multiplicity_ignored(self):
        x = Polynomial.x(F4)
        assert count_distinct_roots(x**3) == 1
        assert count_distinct_roots((x + Polynomial.one(F4)) ** 2 * x) == 2

    def test_splitting_polynomial(self):
        # x^4 - x splits over F_4 with 4 distinct roots
        x = Polynomial.x(F4)
        assert count_distinct_roots(x**4 - x) == 4

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            count_distinct_roots(Polynomial.zero(F4))


class TestSquarefree:
    def test_derivative_zero_is_pth_power(self):
        # x^2 + c = (x + sqrt(c))^2 over F_4: never squarefree
        for c in range(4):
            f = Polynomial(F4, [c, 0, 1])
            assert not is_squarefree(f)

    def test_gcd_charged_before_it_runs(self, monkeypatch):
        """deg(g)^2 lookups are charged against IRREDUCIBLE_CELL_BUDGET."""
        monkeypatch.setattr(poly, "IRREDUCIBLE_CELL_BUDGET", 100)
        x = Polynomial.x(F9)
        assert is_squarefree(x**10 + Polynomial.one(F9))
        with pytest.raises(BudgetExceeded, match="degree-11"):
            is_squarefree(x**11 + Polynomial.one(F9))

    def test_examples(self):
        x = Polynomial.x(F9)
        assert is_squarefree(x * (x + Polynomial.one(F9)))
        assert not is_squarefree(x**2)
        assert is_squarefree(Polynomial.one(F9))

    @pytest.mark.parametrize("field", [F4, F9])
    def test_matches_brute_factor_square(self, field):
        # f is squarefree iff no monic poly of degree >=1 has square dividing f
        rng = np.random.default_rng(23)
        for _ in range(25):
            d = int(rng.integers(1, 5))
            coeffs = [int(c) for c in rng.integers(0, field.order, size=d + 1)]
            f = Polynomial(field, coeffs)
            if f.is_zero or f.degree == 0:
                continue
            has_square = False
            for ddiv in range(1, int(f.degree) // 2 + 1):
                for idx in range(field.order**ddiv):
                    coeffs2, k = [], idx
                    for _ in range(ddiv):
                        coeffs2.append(k % field.order)
                        k //= field.order
                    coeffs2.append(1)
                    h = Polynomial(field, coeffs2)
                    if (f % (h * h)).is_zero:
                        has_square = True
            assert is_squarefree(f) == (not has_square)


class TestIrreduciblePower:
    def test_recognises_powers(self):
        h = find_irreducible(F4, 2)
        for s in (1, 2, 3):
            got = irreducible_power(h**s)
            assert got is not None and got[0] == h and got[1] == s

    def test_rejects_mixed_products(self):
        x = Polynomial.x(F4)
        one = Polynomial.one(F4)
        assert irreducible_power(x * (x + one)) is None
        assert irreducible_power(x**2 * (x + one)) is None
        assert irreducible_power(Polynomial.one(F4)) is None

    def test_linear_powers(self):
        x = Polynomial.x(F8)
        got = irreducible_power(x**5)
        assert got == (x, 5)

    def test_normalises_leading_unit(self):
        x = Polynomial.x(F9)
        f = (x**3).scale(F9.element(2))
        assert irreducible_power(f) == (x, 3)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_sieve_powering_from_x(self, data):
        # powers of the searched irreducibles and of random monic factors,
        # alone or times a second such power, under a drawn leading unit
        field = build_tower(*data.draw(st.sampled_from(SMALL_TOWERS)))
        codes = st.integers(0, field.order - 1)

        def power():
            d = data.draw(st.integers(1, 3))
            if data.draw(st.booleans()):
                base = searched_irreducible(field, d)
            else:
                base = Polynomial(field, data.draw(st.lists(codes, min_size=d, max_size=d)) + [1])
            return base ** data.draw(st.integers(1, 3))

        g = power() * power() if data.draw(st.booleans()) else power()
        g = g.scale(field.element(data.draw(st.integers(1, field.order - 1))))
        assert irreducible_power(g) == reference.irreducible_power(g)


class TestResidueRing:
    """Residues mod a monic h are polynomials of degree below deg h; residue
    k in index order has the base-|F| digits of k as coefficients."""

    def test_field_quotient(self):
        h = find_irreducible(F4, 2)
        assert is_irreducible(h)
        for k in range(1, 16):
            a = Polynomial(F4, digits(k, 4, 2))
            assert reference.ring_mul(h, a, reference.ring_inv(h, a)) == Polynomial.one(F4)

    def test_enumeration_round_trip(self):
        for k in (0, 1, 7, 63):
            a = Polynomial(F8, digits(k, 8, 2))
            assert len(a.coeffs) <= 2
            assert sum(c * 8**i for i, c in enumerate(a.coeffs)) == k

    def test_frobenius_fixed_points(self):
        # in F_(q^r) = F_q[x]/(h) exactly q elements satisfy a^q = a
        q = 4
        h = find_irreducible(F4, 2)
        residues = [Polynomial(F4, digits(k, 4, 2)) for k in range(16)]
        fixed = [a for a in residues if reference.ring_pow(h, a, q) == a]
        assert len(fixed) == q

    def test_nonfield_quotient(self):
        # F[x]/(x^2) is no field: x is a nonzero residue with no inverse
        x = Polynomial.x(F4)
        assert not is_irreducible(x * x)
        with pytest.raises(ZeroDivisionError):
            reference.ring_inv(x * x, x)


class TestParse:
    def test_coefficient_list(self):
        f = parse_poly_spec(F4, "1,0,1")
        assert f == Polynomial(F4, [1, 0, 1])

    def test_irreducible_shorthand(self):
        assert parse_poly_spec(F9, "irreducible:2") == find_irreducible(F9, 2)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            parse_poly_spec(F4, "1,x,2")
        with pytest.raises(ValueError):
            parse_poly_spec(F4, "irreducible:two")
        with pytest.raises(ValueError):
            parse_poly_spec(F4, "9,1")  # code out of range
