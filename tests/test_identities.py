"""Identity verifiers: equalities, gaps, chains, and the RS equivalence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from wildgoppa.codes import LinearCode, alternant_kernel, subfield_kernel
from wildgoppa.cyclotomic import closed_form
from wildgoppa.errors import BudgetExceeded, FalsificationError
from wildgoppa.gf import build_tower
from wildgoppa.goppa import (
    GoppaSpec, full_support, goppa_power_codes, punctured_support, value_powers,
)
from wildgoppa.identities import (
    dimension_gap,
    rs_equivalence,
    verify_chain,
    verify_coprime_factor_chain,
    verify_sugiyama,
    verify_theorem1,
    wild_exponent,
)
from wildgoppa.poly import Polynomial, find_irreducible, is_squarefree

F4t = build_tower(2, 1, 2)     # q=2, m=2
F8t = build_tower(2, 1, 3)     # q=2, m=3
F9t = build_tower(3, 1, 2)     # q=3, m=2
F16t = build_tower(2, 2, 2)    # q=4, m=2
F16t4 = build_tower(2, 1, 4)   # q=2, m=4


def monic_polys(field, degree):
    """All monic polynomials of exact degree over the top field."""
    order = field.order
    for idx in range(order**degree):
        coeffs, k = [], idx
        for _ in range(degree):
            coeffs.append(k % order)
            k //= order
        coeffs.append(1)
        yield Polynomial(field, coeffs)


class TestWildExponent:
    def test_values(self):
        assert wild_exponent(F4t) == 2      # q=2, m=2: e = 2
        assert wild_exponent(F8t) == 6      # q=2, m=3: e = 4 + 2
        assert wild_exponent(F9t) == 3      # q=3, m=2
        assert wild_exponent(F16t) == 4     # q=4, m=2


class TestTheorem1:
    def test_exhaustive_q2_m2_degree2(self):
        # all rootless monic quadratics over F_4
        hits = 0
        for g in monic_polys(F4t, 2):
            if any(reference.evaluate(g, x).code == 0 for x in reference.elements(F4t)):
                continue
            rep = verify_theorem1(F4t, full_support(F4t), g)
            assert all(rep.equal)
            assert rep.gap == 0
            hits += 1
        assert hits > 0

    def test_report_fields(self):
        g = find_irreducible(F9t, 2)
        rep = verify_theorem1(F9t, full_support(F9t), g)
        assert (rep.q, rep.m, rep.t, rep.n) == (3, 2, 2, 9)
        assert rep.exponents == (3, 4)
        assert len(rep.dims) == 2 and len(rep.equal) == 1
        assert rep.distinct_roots == 0
        assert rep.elapsed >= 0

    def test_rejects_rooted_polynomial(self):
        x = Polynomial.x(F4t)
        with pytest.raises(ValueError, match="dimension_gap"):
            verify_theorem1(F4t, punctured_support(F4t, [0]), x)

    def test_punctured_supports(self):
        g = find_irreducible(F16t, 2)
        for removed in ([0], [1, 2], [5, 7, 11]):
            rep = verify_theorem1(F16t, punctured_support(F16t, removed), g)
            assert all(rep.equal)

    def test_rootless_forms_no_generator(self, monkeypatch):
        # the identity reads dims and compares a code with itself, so the
        # product K T of the alternant code is formed only once its
        # generator is read, and then once
        import wildgoppa.codes as codes_mod

        field = build_tower(2, 4, 2)   # F_256 / F_16, e = 16
        g = find_irreducible(field, 3)
        real, calls = codes_mod._rref_times, []

        def forbidden(*args):
            raise AssertionError("K T formed")

        monkeypatch.setattr(codes_mod, "_rref_times", forbidden)
        rep = verify_theorem1(field, full_support(field), g)
        k = closed_form(16, 2, 3)
        assert rep.dims == (k, k) and rep.equal == (True,)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(codes_mod, "_rref_times", counted)
        spec = GoppaSpec(field, full_support(field), g)
        low, high = goppa_power_codes(spec, (16, 17))
        assert high is low and not calls
        G = low.generator
        assert low.generator is G and len(calls) == 1
        rows = reference.vandermonde_rows(field, spec.support,
                                          value_powers(field, spec.goppa_values, -16), 48)
        assert G.tobytes() == subfield_kernel(field, rows).generator.tobytes()


class TestDimensionGap:
    def test_spec_example_gap_one(self):
        # q=2, m=3, g = x on the punctured support: gap 1, one distinct root
        x = Polynomial.x(F8t)
        rep = dimension_gap(F8t, punctured_support(F8t, [0]), x)
        assert rep.distinct_roots == 1
        assert rep.gap == 1
        assert rep.equal == (False,)

    def test_rootless_gives_zero_gap(self):
        g = find_irreducible(F9t, 2)
        rep = dimension_gap(F9t, full_support(F9t), g)
        assert rep.gap == 0 and rep.equal == (True,)

    def test_exhaustive_small_rooted(self):
        # every monic quadratic with roots off the support, q=2 m=2
        support = tuple(c for c in range(4) if c not in (0, 1))
        for g in monic_polys(F4t, 2):
            roots = [x.code for x in reference.elements(F4t)
                     if reference.evaluate(g, x).code == 0]
            if any(rc in support for rc in roots):
                continue
            rep = dimension_gap(F4t, support, g)
            assert rep.gap is not None and rep.gap <= len(roots)

    def test_table_instances_have_gap_exactly_one(self):
        # the x^e vs x^(e+1) pairs on the punctured full support
        for field in (F8t,):
            x = Polynomial.x(field)
            rep = dimension_gap(field, punctured_support(field, [0]), x)
            assert rep.gap == 1


class TestChain:
    def test_chain_q2_m2(self):
        g = find_irreducible(F4t, 2)  # squarefree, rootless
        for s in (1, 2):
            rep = verify_chain(F4t, full_support(F4t), g, s)
            e = wild_exponent(F4t)
            assert rep.exponents[0] == s * e - 1  # squarefree extension
            assert rep.exponents[-1] == s * (e + 1)
            assert all(rep.equal)

    def test_chain_non_squarefree_base(self):
        h = find_irreducible(F4t, 1 + 1)  # degree 2 irreducible
        g = h * h  # rootless but not squarefree
        rep = verify_chain(F4t, full_support(F4t), g, 1)
        e = wild_exponent(F4t)
        assert rep.exponents[0] == e  # no squarefree extension
        assert all(rep.equal)

    def test_rejects_rooted(self):
        with pytest.raises(ValueError):
            verify_chain(F4t, punctured_support(F4t, [0]), Polynomial.x(F4t), 1)

    def test_rejects_bad_s(self):
        g = find_irreducible(F4t, 2)
        with pytest.raises(ValueError):
            verify_chain(F4t, full_support(F4t), g, 0)

    def test_power_budget(self, monkeypatch):
        # s = 2 builds the codes of g^3 .. g^6; the top power has degree
        # 2 * 6 = 12. At SPEC_POWER_DEGREE_BUDGET = 12 it runs, at 11 it is
        # refused before any code is built.
        import wildgoppa.goppa as goppa_mod
        import wildgoppa.identities as identities_mod

        g = find_irreducible(F4t, 2)
        monkeypatch.setattr(goppa_mod, "SPEC_POWER_DEGREE_BUDGET", 12)
        assert verify_chain(F4t, full_support(F4t), g, 2).exponents == (3, 4, 5, 6)
        monkeypatch.setattr(goppa_mod, "SPEC_POWER_DEGREE_BUDGET", 11)

        def forbidden(*args, **kwargs):
            raise AssertionError("a code was built past the budget")

        monkeypatch.setattr(identities_mod, "goppa_power_codes", forbidden)
        with pytest.raises(BudgetExceeded, match="g\\^6 has degree 12, over "
                           "SPEC_POWER_DEGREE_BUDGET = 11"):
            verify_chain(F4t, full_support(F4t), g, 2)
        monkeypatch.undo()
        # at the real bound of 10^5: s = 16666 ends at g^49998, degree
        # 99,996, and answers with zero codes; s = 16667 ends at degree 100,002
        rep = verify_chain(F4t, full_support(F4t), g, 16666)
        assert rep.exponents[-1] == 49998 and set(rep.dims) == {0}
        with pytest.raises(BudgetExceeded, match="g\\^50001 has degree 100002"):
            verify_chain(F4t, full_support(F4t), g, 16667)


class TestSugiyama:
    def test_linear_base_q2(self):
        # g = x, squarefree, root 0 excluded from support
        x = Polynomial.x(F4t)
        assert verify_sugiyama(F4t, punctured_support(F4t, [0]), x, 1)
        assert verify_sugiyama(F4t, punctured_support(F4t, [0]), x, 2)

    def test_rooted_but_squarefree_base_q3(self):
        x = Polynomial.x(F9t)
        one = Polynomial.one(F9t)
        g = x * (x + one)  # roots 0 and -1 in F_9, both excluded below
        minus_one = int(F9t.neg_table[1])
        assert verify_sugiyama(F9t, punctured_support(F9t, [0, minus_one]), g)

    def test_rejects_non_squarefree(self):
        x = Polynomial.x(F4t)
        with pytest.raises(ValueError):
            verify_sugiyama(F4t, punctured_support(F4t, [0]), x * x)

    def test_power_budget(self):
        # g = x over F_4: s = 50000 ends at x^100000, at the bound of 10^5
        x = Polynomial.x(F4t)
        support = punctured_support(F4t, [0])
        assert verify_sugiyama(F4t, support, x, 50000)
        with pytest.raises(BudgetExceeded, match="g\\^100002 has degree 100002"):
            verify_sugiyama(F4t, support, x, 50001)

    def test_randomised_squarefree_sweep(self):
        rng = np.random.default_rng(31)
        for field in (F4t, F9t):
            for _ in range(6):
                d = int(rng.integers(1, 3))
                coeffs = [int(c) for c in rng.integers(0, field.order, size=d)] + [1]
                g = Polynomial(field, coeffs)
                if not is_squarefree(g):
                    continue
                roots = [x.code for x in reference.elements(field)
                         if reference.evaluate(g, x).code == 0]
                support = punctured_support(field, roots)
                if len(support) < int(g.degree) * field.q + 1:
                    continue
                assert verify_sugiyama(field, support, g)


class TestCoprimeFactorChain:
    def test_squarefree_base_full_chain(self):
        g = find_irreducible(F4t, 2)
        h = Polynomial.x(F4t)
        rep = verify_coprime_factor_chain(
            F4t, punctured_support(F4t, [0]), g, h
        )
        assert all(rep.equal)
        assert rep.note == ""

    def test_non_squarefree_base_may_break_left_link(self):
        h2 = find_irreducible(F4t, 2)
        g = h2 * h2  # rootless, not squarefree
        h = Polynomial.x(F4t)
        rep = verify_coprime_factor_chain(
            F4t, punctured_support(F4t, [0]), g, h
        )
        # the right link must hold regardless; the left one may fail with a note
        assert rep.equal[1]
        if not rep.equal[0]:
            assert "typo" in rep.note

    def test_rejects_non_coprime(self):
        g = find_irreducible(F4t, 2)
        with pytest.raises(ValueError):
            verify_coprime_factor_chain(F4t, full_support(F4t), g, g)

    def test_gcd_charged_before_it_runs(self, monkeypatch):
        # gcd(g, h) is quadratic in the larger degree: 10001^2 lookups are
        # over IRREDUCIBLE_CELL_BUDGET and refused before it starts
        import wildgoppa.identities as identities_mod

        def forbidden(*args):
            raise AssertionError("gcd ran before the charge")

        monkeypatch.setattr(identities_mod, "gcd", forbidden)
        g = find_irreducible(F4t, 2)
        h = Polynomial(F4t, [1] + [0] * 10000 + [1])
        with pytest.raises(BudgetExceeded, match="degree-10001 polynomials needs 100020001"):
            verify_coprime_factor_chain(F4t, punctured_support(F4t, [0]), g, h)


class TestRsEquivalence:
    def test_full_support_q4_m2(self):
        # q=4, m=2, t=2: k = 16 - 2*5 = 6
        assert rs_equivalence(F16t, full_support(F16t), find_irreducible(F16t, 2))

    def test_shortened_support(self):
        g = find_irreducible(F16t, 2)
        L = punctured_support(F16t, [0, 7])
        assert rs_equivalence(F16t, L, g)

    def test_q3_m2(self):
        g = find_irreducible(F9t, 2)
        assert rs_equivalence(F9t, full_support(F9t), g)

    def test_rejects_nonpositive_dimension(self):
        g = find_irreducible(F4t, 2)  # k = 4 - 6 < 1
        with pytest.raises(ValueError):
            rs_equivalence(F4t, full_support(F4t), g)

    def test_accepts_shuffled_support(self):
        # both sides are read on L in L's order, so any order of any
        # punctured support verifies
        rng = np.random.default_rng(16)
        g = find_irreducible(F16t, 2)
        for size in (16, 14, 9, 3):
            L = [int(c) for c in rng.permutation(16)[:size]]
            assert rs_equivalence(F16t, L, g)

    def test_rejects_rooted(self):
        x = Polynomial.x(F16t)
        with pytest.raises(ValueError):
            rs_equivalence(F16t, punctured_support(F16t, [0]), x)


RS_TOWERS = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (2, 1, 4), (5, 1, 2),
             (3, 1, 3), (2, 1, 5), (7, 1, 2)]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rs_side_matches_subcode_shortening(data):
    # the alternant code of the rows a^l, l < q^m - k, on L against RS_k on
    # the full support restricted to F_q and shortened to L, then read in
    # L's order
    field = build_tower(*data.draw(st.sampled_from(RS_TOWERS)))
    order = field.order
    k = data.draw(st.integers(1, order - 1))
    points = data.draw(st.permutations(range(order)))[: data.draw(st.integers(1, order))]
    rows = reference.vandermonde_rows(field, range(order), 1, k)
    rs = reference.subfield_subcode(reference.span(field, rows))
    removed = sorted(set(range(order)) - set(points))
    want = reference.shorten(rs, removed)
    ranks = np.argsort(np.argsort(points))
    want = LinearCode(field.subfield, len(points), want.generator[:, ranks])
    assert alternant_kernel(field, points, 1, order - k) == want


class TestNoPolynomialPowers:
    def test_verifiers_and_tables_take_no_power(self, monkeypatch, capsys):
        # every code comes from deg g^j and the values g(a_i)^j
        from wildgoppa.cli import main

        g4, g9, g16 = (find_irreducible(F, 2) for F in (F4t, F9t, F16t))
        x4, x8 = Polynomial.x(F4t), Polynomial.x(F8t)

        def forbidden(self, e):
            raise AssertionError(f"Polynomial power ** {e}")

        monkeypatch.setattr(Polynomial, "__pow__", forbidden)
        assert all(verify_theorem1(F9t, full_support(F9t), g9).equal)
        assert dimension_gap(F8t, punctured_support(F8t, [0]), x8).gap == 1
        assert all(verify_chain(F4t, full_support(F4t), g4, 2).equal)
        assert verify_sugiyama(F9t, punctured_support(F9t, [0]), Polynomial.x(F9t), 2)
        rep = verify_coprime_factor_chain(F4t, punctured_support(F4t, [0]), g4, x4)
        assert all(rep.equal)
        assert rs_equivalence(F16t, full_support(F16t), g16)
        assert main(["table", "--id", "2"]) == 0
        assert main(["table", "--id", "1", "--budget", "0"]) == 0
        capsys.readouterr()


class TestFalsificationPath:
    def test_inclusion_machinery_detects_sabotage(self, monkeypatch, capsys):
        # every chain verifier and the CLI turn a link that drops a
        # dimension into a falsification: the top code loses its first row
        import wildgoppa.identities as identities_mod
        from wildgoppa.cli import main
        from wildgoppa.codes import LinearCode

        real = identities_mod.goppa_power_codes

        def sabotaged(spec, exponents, cofactor=None):
            codes = real(spec, exponents, cofactor)
            top = codes[-1]
            assert top.k > 0
            return codes[:-1] + [LinearCode(top.field, top.n, top.generator[1:])]

        monkeypatch.setattr(identities_mod, "goppa_power_codes", sabotaged)
        g = find_irreducible(F16t, 2)
        x = Polynomial.x(F16t)
        calls = [
            lambda: verify_theorem1(F16t, full_support(F16t), g),
            lambda: verify_chain(F16t, full_support(F16t), g, 1),
            lambda: verify_sugiyama(F16t, punctured_support(F16t, [0]), x),
            lambda: verify_coprime_factor_chain(F16t, punctured_support(F16t, [0]), g, x),
        ]
        for call in calls:
            with pytest.raises(FalsificationError):
                call()
        assert main(["verify", "--p", "2", "--a", "2", "--m", "2", "--g", "irreducible:2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("FALSIFIED: wild equality failed: q=4 m=2") and "dims=(4, 3)" in err
