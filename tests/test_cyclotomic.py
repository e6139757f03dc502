"""Cyclotomic class decompositions and the dimension formulas."""

from __future__ import annotations

import time

import pytest

from wildgoppa.cyclotomic import (
    CLASS_MODULUS_BUDGET,
    ClassDecomposition,
    class_sum_dim,
    closed_form,
    cyclotomic_classes,
    default_length,
    norm_exponent,
)
from wildgoppa.errors import BudgetExceeded


class TestClasses:
    def test_q3_m2_by_hand(self):
        # orbits of multiplication by 3 modulo 8
        dec = cyclotomic_classes(3, 2)
        got = {cls.members for cls in dec.classes}
        assert got == {(0,), (1, 3), (2, 6), (4,), (5, 7)}
        assert dec.modulus == 8

    def test_q2_m3_by_hand(self):
        # orbits of doubling modulo 7
        dec = cyclotomic_classes(2, 3)
        got = {cls.members for cls in dec.classes}
        assert got == {(0,), (1, 2, 4), (3, 5, 6)}

    def test_partition_properties(self):
        for q, m in [(2, 2), (4, 2), (5, 2), (2, 4), (3, 3), (8, 2)]:
            dec = cyclotomic_classes(q, m)
            all_members = [x for cls in dec.classes for x in cls.members]
            assert sorted(all_members) == list(range(q**m - 1))
            for cls in dec.classes:
                assert cls.rep == min(cls.members)
                assert cls.size == len(cls.members)
                # orbit closure under multiplication by q
                for x in cls.members:
                    assert (x * q) % dec.modulus in cls.members
                # class size divides m
                assert m % cls.size == 0 or cls.size <= m

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            cyclotomic_classes(6, 2)  # not a prime power
        with pytest.raises(ValueError):
            cyclotomic_classes(4, 1)


class TestNormExponent:
    def test_values(self):
        assert norm_exponent(2, 2) == 3
        assert norm_exponent(4, 3) == 21
        assert norm_exponent(5, 3) == 31
        assert norm_exponent(7, 3) == 57
        assert norm_exponent(8, 3) == 73

    @pytest.mark.parametrize("call", [
        lambda: norm_exponent(2305843009213693951, 2),
        lambda: closed_form(2305843009213693951, 2, 2),
    ], ids=["norm_exponent", "closed_form"])
    def test_large_prime_q_refused_in_bounded_time(self, call):
        # q = 2^61 - 1 is sized from its bit length and refused unfactored;
        # trial division to its square root would take about 2^29 steps
        t0 = time.monotonic()
        with pytest.raises(BudgetExceeded, match="CLASS_MODULUS_BUDGET"):
            call()
        assert time.monotonic() - t0 < 1.0

    def test_trial_division_bound(self):
        # below 2^44 a q is factored as before, and a prime q is accepted
        # (2^44 - 17 is prime); from 2^44 on it is refused
        assert (2 * (CLASS_MODULUS_BUDGET.bit_length() - 1)) == 44
        q = 2**44 - 17
        assert norm_exponent(q, 2) == q + 1
        assert closed_form(2**43, 2, 2) == 2**86 - (4 * (2**43 + 1) - 8)
        with pytest.raises(ValueError, match="prime power"):
            norm_exponent(2**43 - 1, 2)
        with pytest.raises(BudgetExceeded):
            norm_exponent(2**44, 2)

    def test_default_length(self):
        assert default_length(4, 3, 1) == 63
        assert default_length(4, 3, 2) == 64
        assert default_length(9, 2, 3) == 81


class TestClassSum:
    def test_hand_computed_examples(self):
        # q=4, m=3, t=1: window {0..20} gives a class count of 26
        assert class_sum_dim(4, 3, 1) == 26
        # q=4, m=3, t=2 on the full support
        assert class_sum_dim(4, 3, 2) == 8
        # q=4, m=2, t=2
        assert class_sum_dim(4, 2, 2) == 4

    def test_explicit_length_overrides_default(self):
        assert class_sum_dim(4, 3, 1, n=64) == 27
        assert class_sum_dim(4, 3, 1, n=63) == 26

    def test_rejects_oversized_window(self):
        with pytest.raises(ValueError):
            class_sum_dim(4, 2, 4)  # t(e+1) = 20 > 15
        with pytest.raises(ValueError):
            class_sum_dim(4, 2, 2, n=0)
        # closed_form checks the same range
        for n in (0, 10**6):
            with pytest.raises(ValueError, match=f"support length {n} out of range"):
                closed_form(4, 2, 2, n=n)
        # n = 1 is a valid length but below the parity rank 12
        with pytest.raises(ValueError, match="parity rank 12"):
            class_sum_dim(4, 2, 2, n=1)
        with pytest.raises(ValueError, match="parity rank 12"):
            closed_form(4, 2, 2, n=1)

    def test_window_boundary(self):
        # t = q - 1 makes the window the whole residue ring
        q, m = 4, 2
        assert class_sum_dim(q, m, q - 1, n=q**m) >= 0


class TestClosedForm:
    def test_m2_matches_class_sum(self):
        for q in (4, 5, 7, 8, 9):
            for t in range(2, q - 1):
                assert closed_form(q, 2, t) == class_sum_dim(q, 2, t)

    def test_m3_matches_class_sum(self):
        for q in (2, 3, 4, 5):
            for t in range(1, q):
                assert closed_form(q, 3, t) == class_sum_dim(q, 3, t)

    def test_table_dimension_values_m3(self):
        # the [n, k] pairs for the norm-power codes on the punctured support
        assert closed_form(4, 3, 1) == 26
        assert closed_form(5, 3, 1) == 63
        assert closed_form(7, 3, 1) == 215
        assert closed_form(8, 3, 1) == 342

    def test_table_dimension_values_m2(self):
        expected = {
            (5, 3): 4,
            (7, 3): 16, (7, 4): 9, (7, 5): 4,
            (8, 3): 25, (8, 4): 16, (8, 5): 9, (8, 6): 4,
            (9, 3): 36, (9, 4): 25, (9, 5): 16, (9, 6): 9, (9, 7): 4,
        }
        for (q, t), k in expected.items():
            assert closed_form(q, 2, t) == k, (q, t)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            closed_form(4, 2, 1)  # m=2 needs t >= 2
        with pytest.raises(ValueError):
            closed_form(4, 2, 3)  # t > q-2
        with pytest.raises(ValueError):
            closed_form(4, 3, 4)  # t > q-1
        with pytest.raises(ValueError):
            closed_form(4, 4, 1)  # no closed form for m=4
        with pytest.raises(ValueError):
            closed_form(6, 2, 2)  # not a prime power


class TestAgainstConstructedCodes:
    def test_small_grid_matches_construction(self):
        from wildgoppa.gf import build_tower
        from wildgoppa.goppa import GoppaSpec, full_support, goppa_code, punctured_support
        from wildgoppa.poly import Polynomial, find_irreducible

        # (q, m, t) cells cheap enough for a unit test; the acceptance suite
        # runs the full grids
        cells = [(2, 2, 1), (3, 2, 1), (4, 2, 2), (2, 3, 1), (3, 3, 1)]
        towers = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}
        for q, m, t in cells:
            p, a = towers[q]
            field = build_tower(p, a, m)
            e1 = field.norm_exponent
            if t == 1:
                support = punctured_support(field, [0])
                g = Polynomial.x(field)
            else:
                support = full_support(field)
                g = find_irreducible(field, t)
            C = goppa_code(GoppaSpec(field, support, g**e1))
            assert C.k == class_sum_dim(q, m, t), (q, m, t)
