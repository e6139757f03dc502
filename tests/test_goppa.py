"""Goppa constructions: path agreement, a naive membership oracle, and the
reference GRS pairs."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from wildgoppa.gf import build_tower
from wildgoppa.goppa import (
    GoppaSpec,
    _crt_matrix,
    full_support,
    goppa_code,
    goppa_power_codes,
    goppa_via_crt,
    parse_goppa_poly_spec,
    parse_support_spec,
    punctured_support,
    support_codes,
    value_powers,
)
from wildgoppa.poly import Polynomial, count_distinct_roots, find_irreducible, gcd

F4 = build_tower(2, 1, 2)
F8 = build_tower(2, 1, 3)
F9 = build_tower(3, 1, 2)
F16 = build_tower(2, 2, 2)


def naive_members(spec: GoppaSpec) -> set[tuple[int, ...]]:
    """Membership by the definition: sum c_i * prod/(x - a_i) = 0 mod G,
    checked for every vector over F_q. Exponential; keep n tiny."""
    field = spec.field
    q = field.q
    n = len(spec.support)
    x = Polynomial.x(field)
    pi = Polynomial.one(field)
    for c in spec.support:
        pi = pi * (x - Polynomial.constant(field, c))
    quots = [divmod(pi, x - Polynomial.constant(field, c))[0] for c in spec.support]
    g = spec.goppa_poly
    out = set()
    for vec in itertools.product(range(q), repeat=n):
        acc = Polynomial.zero(field)
        for ci, qi in zip(vec, quots):
            if ci:
                acc = acc + qi.scale(reference.embed(field, ci))
        if (acc % g).is_zero:
            out.add(vec)
    return out


def code_words(code) -> set[tuple[int, ...]]:
    return {tuple(int(x) for x in row) for row in reference.codewords(code)}


class TestAgainstDefinition:
    def test_repetition_code(self):
        spec = GoppaSpec(F4, punctured_support(F4, [0]), Polynomial.x(F4))
        C = goppa_code(spec)
        assert (C.n, C.k) == (3, 1)
        assert C.generator.tolist() == [[1, 1, 1]]

    @pytest.mark.parametrize(
        "field,n_support,gdeg",
        [(F4, 4, 1), (F4, 4, 2), (F8, 6, 2), (F9, 5, 2), (F16, 6, 3)],
    )
    def test_naive_membership_oracle(self, field, n_support, gdeg):
        rng = np.random.default_rng(field.order * 7 + n_support + gdeg)
        for _ in range(3):
            support = tuple(
                int(c) for c in rng.choice(field.order, size=n_support, replace=False)
            )
            g = find_irreducible(field, gdeg)
            try:
                spec = GoppaSpec(field, support, g)
            except ValueError:
                continue  # g vanished on the support; irrelevant here
            expected = naive_members(spec)
            assert code_words(goppa_code(spec)) == expected
            assert code_words(goppa_via_crt(spec)) == expected

    def test_construction_paths_agree_randomised(self):
        rng = np.random.default_rng(42)
        towers = [F4, F8, F9, F16]
        for trial in range(40):
            field = towers[trial % len(towers)]
            n = int(rng.integers(3, min(field.order, 16) + 1))
            support = tuple(
                int(c) for c in rng.choice(field.order, size=n, replace=False)
            )
            d = int(rng.integers(1, 4))
            coeffs = [int(c) for c in rng.integers(0, field.order, size=d)] + [1]
            g = Polynomial(field, coeffs)
            vals = g.evaluate_codes(np.array(support, dtype=np.int64))
            if (vals == 0).any():
                continue
            spec = GoppaSpec(field, support, g)
            assert goppa_code(spec) == goppa_via_crt(spec)


    def test_degree_at_least_length_gives_zero_code(self):
        # deg G >= n: a shortcut in goppa_code, full elimination in goppa_via_crt
        rng = np.random.default_rng(6)
        for n, d in [(5, 6), (5, 5), (3, 4), (8, 9)]:
            coeffs = [int(c) for c in rng.integers(0, F16.order, size=d)] + [1]
            g = Polynomial(F16, coeffs)
            vals = g.evaluate_codes(np.arange(F16.order))
            support = tuple(int(c) for c in np.flatnonzero(vals)[:n])
            spec = GoppaSpec(F16, support, g)
            assert goppa_code(spec) == goppa_via_crt(spec)
            assert goppa_code(spec).k == 0


# towers of order 4 to 49 with m >= 2, odd p included
POWER_TOWERS = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (2, 1, 4), (5, 1, 2),
                (3, 1, 3), (7, 1, 2)]


# every tower of order <= 256 with m >= 2
CHAIN_TOWERS = [
    (2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (2, 1, 4), (5, 1, 2), (3, 1, 3),
    (2, 1, 5), (7, 1, 2), (2, 2, 3), (2, 3, 2), (2, 1, 6), (3, 2, 2), (3, 1, 4),
    (11, 1, 2), (13, 1, 2), (2, 1, 7), (5, 1, 3), (2, 4, 2), (2, 2, 4), (2, 1, 8),
]


@st.composite
def power_cases(draw, tower, rootless):
    """(spec of g, exponents 1..e+2 in a drawn order, cofactor or None): g
    of degree 1-3, monic or not, on the full support when it is rootless
    and on the support minus its roots otherwise, in a drawn order; a
    cofactor h of degree 0-2 also drops its roots from the support."""
    field = build_tower(*tower)
    order = field.order
    codes, units = st.integers(0, order - 1), st.integers(1, order - 1)
    d = draw(st.integers(2 if rootless else 1, 3))
    g = Polynomial(field, draw(st.lists(codes, min_size=d, max_size=d)) + [draw(units)])
    assume((count_distinct_roots(g) == 0) == rootless)
    h = None
    if draw(st.booleans()):
        dh = draw(st.integers(0, 2))
        h = Polynomial(field, draw(st.lists(codes, min_size=dh, max_size=dh)) + [draw(units)])
    points = np.array(draw(st.permutations(range(order))), dtype=np.int64)
    keep = g.evaluate_codes(points) != 0
    if h is not None:
        keep &= h.evaluate_codes(points) != 0
    assume(keep.any())
    spec = GoppaSpec(field, tuple(points[keep].tolist()), g)
    e = field.norm_exponent - 1
    return spec, tuple(draw(st.permutations(range(1, e + 3)))), h


class TestPowerCodes:
    @pytest.mark.parametrize("tower", POWER_TOWERS)
    @pytest.mark.parametrize("rootless", [True, False])
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_matches_polynomial_powers(self, tower, rootless, data):
        spec, exponents, h = data.draw(power_cases(tower, rootless))
        got = goppa_power_codes(spec, exponents, cofactor=h)
        assert got == reference.goppa_power_codes(spec, exponents, cofactor=h)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_exponents_any_order_with_gaps_and_repeats(self, data):
        # every tower of order <= 256; after the smallest exponent each code
        # is a restriction of the one before, and past deg G >= n it is zero
        tower = data.draw(st.sampled_from(CHAIN_TOWERS))
        spec, _, h = data.draw(power_cases(tower, data.draw(st.booleans())))
        if data.draw(st.booleans()):  # punctured further
            keep = data.draw(st.integers(1, spec.n))
            spec = GoppaSpec(spec.field, spec.support[:keep], spec.goppa_poly)
        top = spec.n // int(spec.goppa_poly.degree) + 2
        exponents = data.draw(st.lists(st.integers(1, top), min_size=1, max_size=6))
        got = goppa_power_codes(spec, exponents, cofactor=h)
        want = reference.goppa_power_codes(spec, exponents, cofactor=h)
        assert got == want
        # the generators formed from the (K, T) pairs are the same arrays
        for code, ref in zip(got, want):
            assert code.generator.tobytes() == ref.generator.tobytes()
            assert hash(code) == hash(ref)

    def test_equal_neighbours_share_one_generator(self):
        # the wild equality over F_16/F_4 (e = 4): the rows added for g^5
        # vanish on the code of g^4, which comes back as it is
        spec = GoppaSpec(F16, full_support(F16), find_irreducible(F16, 2))
        low, high, again = goppa_power_codes(spec, (4, 5, 4))
        assert low.k > 0 and high is low and again is low

    @pytest.mark.parametrize("tower", [(2, 1, 2), (3, 1, 2), (2, 5, 2), (3, 2, 3)])
    def test_value_powers_past_int64(self, tower):
        # j is reduced mod q^m - 1 before it meets the int64 log table
        field = build_tower(*tower)
        values = np.arange(1, field.order, dtype=np.int64)
        for j in (2**63, 2**63 + 1, 2**64 + 5, 3**50, -(2**63) - 3):
            want = [(field.element(int(c)) ** j).code for c in values]
            assert value_powers(field, values, j).tolist() == want

    def test_rejects_bad_cofactor_and_exponent(self):
        spec = GoppaSpec(F4, full_support(F4), find_irreducible(F4, 2))
        with pytest.raises(ValueError, match=r"vanishes on support points \[0\]"):
            goppa_power_codes(spec, (1,), cofactor=Polynomial.x(F4))
        with pytest.raises(ValueError, match=r"vanishes on support points \[0, 1, 2, 3\]"):
            goppa_power_codes(spec, (1,), cofactor=Polynomial.zero(F4))
        with pytest.raises(ValueError, match="cofactor must live over the top field"):
            goppa_power_codes(spec, (1,), cofactor=Polynomial.one(F8))
        with pytest.raises(ValueError, match="exponents must be >= 1"):
            goppa_power_codes(spec, (0,))
        with pytest.raises(ValueError, match="exponents must be >= 1"):
            goppa_power_codes(spec, (2, 1, 0))


# every tower of order 4 to 81 with m >= 2, odd p included
CRT_TOWERS = [
    (2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (2, 1, 4), (5, 1, 2),
    (3, 1, 3), (2, 1, 5), (7, 1, 2), (2, 2, 3), (2, 3, 2), (2, 1, 6),
    (3, 2, 2), (3, 1, 4),
]


def crt_spec(field, order_of_points, n, g):
    """The spec on the first n points, in the given order, where g does not
    vanish; None when there are fewer than n of them."""
    vals = g.evaluate_codes(np.array(order_of_points, dtype=np.int64))
    support = [c for c, v in zip(order_of_points, vals) if v][:n]
    return GoppaSpec(field, tuple(support), g) if len(support) == n else None


@st.composite
def crt_specs(draw):
    """Specs on punctured, unsorted supports, with G either arbitrary (monic
    or not, of degree up to n + 1) or a power h^s with s >= 2."""
    field = build_tower(*draw(st.sampled_from(CRT_TOWERS)))
    order = field.order
    points = draw(st.permutations(range(order)))
    n = draw(st.integers(1, order - 1))
    codes, units = st.integers(0, order - 1), st.integers(1, order - 1)
    if draw(st.booleans()):
        d = draw(st.sampled_from(sorted({1, 2, 3, max(n - 1, 1), n, n + 1})))
        g = Polynomial(field, draw(st.lists(codes, min_size=d, max_size=d)) + [draw(units)])
    else:
        h = Polynomial(field, draw(st.lists(codes, min_size=1, max_size=2)) + [draw(units)])
        g = h ** draw(st.integers(2, 4))
    spec = crt_spec(field, points, n, g)
    assume(spec is not None)
    return spec


def assert_crt_matches_reference(spec):
    got, want = _crt_matrix(spec), reference.crt_matrix(spec)
    assert got.shape == want.shape == (int(spec.goppa_poly.degree), spec.n)
    assert (got == want).all()
    assert goppa_via_crt(spec) == reference.goppa_via_crt(spec)


class TestBatchedCrt:
    @settings(max_examples=60, deadline=None)
    @given(spec=crt_specs())
    def test_matches_scalar_reference(self, spec):
        assert_crt_matches_reference(spec)

    @pytest.mark.parametrize("tower", [(3, 1, 2), (5, 1, 2), (7, 1, 2), (3, 2, 2), (3, 1, 4)])
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_degree_near_length_odd_p(self, tower, shift):
        # d = n - 1, n, n + 1 with non-monic G on a shuffled punctured support
        field = build_tower(*tower)
        rng = np.random.default_rng(field.order + shift)
        points = [int(c) for c in rng.permutation(field.order)]
        n = field.order // 2
        d = n + shift
        coeffs = [int(c) for c in rng.integers(0, field.order, size=d)]
        g = Polynomial(field, coeffs + [int(rng.integers(2, field.order))])
        spec = crt_spec(field, points, n, g)
        assert spec is not None and not spec.goppa_poly.is_monic
        assert_crt_matches_reference(spec)
        if shift >= 0:
            assert goppa_via_crt(spec).k == 0

    @pytest.mark.parametrize("tower,s", [((2, 1, 4), 3), ((3, 2, 2), 2), ((7, 1, 2), 4)])
    def test_repeated_factors(self, tower, s):
        field = build_tower(*tower)
        h = find_irreducible(field, 2).scale(field.element(2))
        points = list(range(field.order - 1, 0, -2))
        spec = crt_spec(field, points, len(points), h**s)
        assert_crt_matches_reference(spec)
        assert goppa_via_crt(spec) == goppa_code(spec)

    def test_independent_of_parity_path(self, monkeypatch):
        # the CRT columns use neither G(a_i) nor the alternant kernel, its
        # restriction, their shared product with an RREF matrix or the
        # package's matrix product
        import wildgoppa.codes as codes_mod
        import wildgoppa.goppa as goppa_mod
        import wildgoppa.linalg as linalg_mod

        spec = crt_spec(F16, [9, 3, 14, 5, 7, 2, 11, 0, 6], 6, Polynomial(F16, [3, 1, 1]))
        want = reference.goppa_via_crt(spec)

        def forbidden(*args):
            raise AssertionError("goppa_via_crt used the parity-check path")

        monkeypatch.setattr(goppa_mod, "alternant_kernel", forbidden)
        monkeypatch.setattr(goppa_mod, "restrict_alternant", forbidden)
        monkeypatch.setattr(codes_mod, "_rref_times", forbidden)
        monkeypatch.setattr(linalg_mod, "matmul", forbidden)
        monkeypatch.setattr(Polynomial, "evaluate_codes", forbidden)
        object.__setattr__(spec, "goppa_values", None)
        assert goppa_via_crt(spec) == want


class TestSpecValidation:
    def test_rejects_root_on_support(self):
        with pytest.raises(ValueError, match=r"vanishes on support points \[0\]"):
            GoppaSpec(F4, full_support(F4), Polynomial.x(F4))

    def test_goppa_values_kept_for_goppa_code(self, monkeypatch):
        g = Polynomial(F9, [2, 1, 1])
        spec = crt_spec(F9, [7, 3, 1, 8, 5, 0, 2, 4, 6], 5, g)
        support = spec.support
        assert spec.goppa_values.tolist() == [reference.evaluate(g, c).code
                                              for c in support]
        assert not spec.goppa_values.flags.writeable
        assert "goppa_values" not in repr(spec)
        same = GoppaSpec(F9, support, g)
        assert spec == same and hash(spec) == hash(same)
        want = goppa_code(spec)

        def forbidden(*args):
            raise AssertionError("goppa_code evaluated G again")

        monkeypatch.setattr(Polynomial, "evaluate_codes", forbidden)
        assert goppa_code(spec) == want

    def test_rejects_duplicate_support(self):
        with pytest.raises(ValueError):
            GoppaSpec(F4, (1, 1, 2), Polynomial.x(F4))

    def test_rejects_constant_poly(self):
        with pytest.raises(ValueError):
            GoppaSpec(F4, (1, 2), Polynomial.one(F4))

    def test_rejects_flat_field(self):
        F2 = build_tower(2, 1, 1)
        with pytest.raises(ValueError):
            GoppaSpec(F2, (1,), Polynomial.x(F2))

    def test_support_helpers(self):
        assert full_support(F4) == (0, 1, 2, 3)
        assert punctured_support(F4, [0, 2]) == (1, 3)
        assert support_codes(F4, [F4.element(3), 1]) == (3, 1)
        with pytest.raises(ValueError):
            support_codes(F4, [])


class TestGrsPair:
    @pytest.mark.parametrize("field", [F4, F9, F16])
    def test_duality_randomised(self, field):
        rng = np.random.default_rng(field.order)
        for _ in range(6):
            n = int(rng.integers(4, min(field.order + 1, 14)))
            support = tuple(
                int(c) for c in rng.choice(field.order, size=n, replace=False)
            )
            d = int(rng.integers(1, min(4, n)))
            h = find_irreducible(field, d)
            t = int(rng.integers(1, n))
            try:
                C, D = reference.grs_pair(field, support, h, t)
            except ValueError:
                continue
            assert D == reference.dual(C)
            assert C.k == n - t and D.k == t

    def test_subfield_restriction_is_goppa(self):
        for field, n in [(F4, 4), (F8, 7), (F9, 8), (F16, 10)]:
            rng = np.random.default_rng(n)
            support = tuple(
                int(c) for c in rng.choice(field.order, size=n, replace=False)
            )
            h = find_irreducible(field, 2)
            vals = h.evaluate_codes(np.array(support, dtype=np.int64))
            if (vals == 0).any():
                continue
            C, _ = reference.grs_pair(field, support, h)
            assert reference.subfield_subcode(C) == goppa_code(GoppaSpec(field, support, h))

    def test_trace_of_dual_is_goppa_dual(self):
        # Delsarte through the explicit pair: tr(D) = (C restricted)^dual
        field = F9
        support = full_support(field)
        h = find_irreducible(field, 2)
        C, D = reference.grs_pair(field, support, h)
        goppa = goppa_code(GoppaSpec(field, support, h))
        assert reference.trace_code(D) == reference.dual(goppa)

    def test_full_support_derivative_is_constant(self):
        # over the full support the support product is x^Q - x, whose
        # derivative is -1; check the GRS multipliers via a tiny instance
        field = F4
        h = Polynomial(field, [1, 0, 1])  # (x+1)^2, no root at w, w^2... has root 1
        support = (0, 2, 3)  # avoid the root at 1
        C, D = reference.grs_pair(field, support, h, 1)
        assert D == reference.dual(C)


class TestParsers:
    def test_support_specs(self):
        assert parse_support_spec(F4, "full") == (0, 1, 2, 3)
        assert parse_support_spec(F4, "full-minus:0") == (1, 2, 3)
        assert parse_support_spec(F4, "full-minus:0,3") == (1, 2)
        assert parse_support_spec(F4, "2,1") == (2, 1)
        with pytest.raises(ValueError):
            parse_support_spec(F4, "full-minus:9")
        with pytest.raises(ValueError):
            parse_support_spec(F4, "1,1")

    def test_goppa_poly_specs(self):
        x = Polynomial.x(F4)
        assert parse_goppa_poly_spec(F4, "irreducible:1") == x
        assert parse_goppa_poly_spec(F4, "irreducible:1^3") == x**3
        g2 = find_irreducible(F4, 2)
        assert parse_goppa_poly_spec(F4, "irreducible:2^2") == g2 * g2
        assert parse_goppa_poly_spec(F4, "1,1,1") == Polynomial(F4, [1, 1, 1])
        with pytest.raises(ValueError):
            parse_goppa_poly_spec(F4, "irreducible:2^0")
        with pytest.raises(ValueError):
            parse_goppa_poly_spec(F4, "irreducible:2^x")

    def test_goppa_poly_spec_power_budget(self, monkeypatch):
        # d*s at the budget is computed, one past it is refused
        import wildgoppa.goppa as goppa_mod
        from wildgoppa.errors import BudgetExceeded

        monkeypatch.setattr(goppa_mod, "SPEC_POWER_DEGREE_BUDGET", 6)
        g2 = find_irreducible(F4, 2)
        assert parse_goppa_poly_spec(F4, "irreducible:2^3") == g2**3
        with pytest.raises(BudgetExceeded, match="degree 8"):
            parse_goppa_poly_spec(F4, "irreducible:2^4")
