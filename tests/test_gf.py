"""Field tower construction and arithmetic."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from pathlib import Path

import tracemalloc

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from wildgoppa.gf import (
    ORDER_CAP,
    Field,
    FieldElement,
    build_tower,
    mirror_row,
)
from wildgoppa.poly import Polynomial

SMALL_TOWERS = [(2, 1, 1), (3, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 2),
                (2, 2, 2), (2, 1, 3), (5, 1, 2), (2, 2, 3), (2, 1, 4)]


def root_in_scalar_level(field: Field, coeffs: tuple[int, ...]) -> bool:
    """Whether the polynomial with the given F_q coefficient codes has a root
    in F_q, by brute evaluation inside the top field. An independent check on
    the top modulus: a cubic with no F_q root is irreducible over F_q."""
    for x in reference.elements(field):
        if not reference.in_subfield(x):
            continue
        acc = field.zero
        for c in reversed(coeffs):
            acc = acc * x + reference.embed(field, c)
        if acc.code == 0:
            return True
    return False


class TestConstruction:
    def test_f4_modulus(self):
        F = build_tower(2, 1, 2)
        assert F.top_modulus_coeffs == (1, 1, 1)  # x^2 + x + 1
        assert F.base_modulus_coeffs == (0, 1)
        assert (F.q, F.order) == (2, 4)

    def test_f25_modulus(self):
        F = build_tower(5, 1, 2)
        assert F.top_modulus_coeffs == (2, 0, 1)  # x^2 + 2

    def test_f64_tower_moduli(self):
        F = build_tower(2, 2, 3)
        assert F.base_modulus_coeffs == (1, 1, 1)
        # x^3 + w, with w the class of the base variable (code 2): every
        # earlier candidate (x^3, x^3 + 1) has a root in F_4 already.
        assert F.top_modulus_coeffs == (2, 0, 0, 1)
        assert root_in_scalar_level(F, (0, 0, 0, 1))
        assert root_in_scalar_level(F, (1, 0, 0, 1))
        assert not root_in_scalar_level(F, (2, 0, 0, 1))

    def test_determinism_without_cache(self):
        fresh = Field(2, 2, 3)
        cached = build_tower(2, 2, 3)
        assert fresh == cached
        assert fresh.base_modulus_coeffs == cached.base_modulus_coeffs
        assert fresh.top_modulus_coeffs == cached.top_modulus_coeffs
        assert np.array_equal(fresh.mul_table, cached.mul_table)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_tower(4, 1, 2)  # p not prime
        with pytest.raises(ValueError):
            build_tower(2, 0, 2)
        with pytest.raises(ValueError):
            build_tower(2, 1, 11)  # order 2048 > cap
        assert 2**11 > ORDER_CAP

    def test_subfield_identity(self):
        F = build_tower(2, 2, 3)
        sub = F.subfield
        assert sub.params == (2, 2, 1)
        assert sub.subfield is sub
        assert sub.order == F.q

    def test_norm_exponent(self):
        assert build_tower(2, 3, 3).norm_exponent == 73
        assert build_tower(3, 1, 2).norm_exponent == 4
        assert build_tower(2, 2, 3).norm_exponent == 21


@pytest.mark.parametrize("p,a,m", SMALL_TOWERS)
class TestAxioms:
    """Exhaustive checks on every tower small enough to enumerate."""

    def test_field_axioms_sampled(self, p, a, m):
        F = build_tower(p, a, m)
        els = list(reference.elements(F))
        rng = np.random.default_rng(7)
        idx = rng.integers(0, len(els), size=(60, 3))
        for i, j, k in idx:
            x, y, z = els[i], els[j], els[k]
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + y == y + x
            assert x * y == y * x

    def test_units_and_inverses(self, p, a, m):
        F = build_tower(p, a, m)
        for x in reference.elements(F):
            assert x + F.zero == x
            assert x * F.one == x
            assert (x - x).code == 0
            if x.code:
                assert (x * reference.inverse(x)).code == 1
                assert (x / x).code == 1

    def test_fermat(self, p, a, m):
        F = build_tower(p, a, m)
        for x in reference.elements(F):
            assert x ** F.order == x

    def test_subfield_membership_is_frobenius_fixed(self, p, a, m):
        F = build_tower(p, a, m)
        for x in reference.elements(F):
            assert reference.in_subfield(x) == (reference.frobenius(x) == x)

    def test_coordinates_round_trip(self, p, a, m):
        F = build_tower(p, a, m)
        for x in reference.elements(F):
            coords = reference.coordinates(x)
            assert len(coords) == F.m and all(c.field == F.subfield for c in coords)
            assert sum(c.code * F.q**j for j, c in enumerate(coords)) == x.code

    def test_trace_properties(self, p, a, m):
        F = build_tower(p, a, m)
        sub = F.subfield
        for x in reference.elements(F):
            tx = reference.trace(x)
            assert tx.field == sub
            assert reference.trace(reference.frobenius(x)) == tx
        els = list(reference.elements(F))
        rng = np.random.default_rng(11)
        for i, j in rng.integers(0, len(els), size=(40, 2)):
            assert (reference.trace(els[i] + els[j])
                    == reference.trace(els[i]) + reference.trace(els[j]))
        for c in reference.elements(sub):
            for x in els[:6]:
                assert reference.trace(reference.embed(F, c) * x) == c * reference.trace(x)

    def test_norm_properties(self, p, a, m):
        F = build_tower(p, a, m)
        e = F.norm_exponent
        for x in reference.elements(F):
            nx = reference.norm(x)
            assert nx.field == F.subfield
            if x.code:
                assert reference.in_subfield(x**e) and nx.code == (x**e).code
            else:
                assert nx.code == 0
        els = [x for x in reference.elements(F) if x.code]
        rng = np.random.default_rng(13)
        for i, j in rng.integers(0, len(els), size=(40, 2)):
            assert (reference.norm(els[i] * els[j])
                    == reference.norm(els[i]) * reference.norm(els[j]))

    def test_trace_and_norm_are_surjective(self, p, a, m):
        F = build_tower(p, a, m)
        traces = {reference.trace(x).code for x in reference.elements(F)}
        assert traces == set(range(F.q))
        norms = {reference.norm(x).code for x in reference.elements(F) if x.code}
        assert norms == {c for c in range(1, F.q)} or F.order == F.q
        if F.m > 1:
            # nonzero norm fibers all have size (order-1)/(q-1)
            from collections import Counter
            fibers = Counter(reference.norm(x).code for x in reference.elements(F) if x.code)
            assert set(fibers.values()) == {F.norm_exponent}


class TestSpecificValues:
    def test_f4_arithmetic(self):
        F = build_tower(2, 1, 2)
        w = F.element(2)
        assert (w * w).code == 3  # w^2 = w + 1
        assert (w * w * w).code == 1
        assert reference.trace(w).code == 1 and reference.trace(F.one).code == 0

    def test_trace_zero_count_q2_m2(self):
        F = build_tower(2, 1, 2)
        zeros = [x.code for x in reference.elements(F) if reference.trace(x).code == 0]
        assert zeros == [0, 1]

    def test_norm_fibers_q3_m2(self):
        F = build_tower(3, 1, 2)
        from collections import Counter
        fibers = Counter(reference.norm(x).code for x in reference.elements(F) if x.code)
        assert fibers == {1: 4, 2: 4}

    def test_embed_is_ring_hom(self):
        F = build_tower(2, 2, 3)
        sub = F.subfield
        embed = functools.partial(reference.embed, F)
        for x in reference.elements(sub):
            for y in reference.elements(sub):
                assert embed(x * y) == embed(x) * embed(y)
                assert embed(x + y) == embed(x) + embed(y)
                assert reference.in_subfield(embed(x))

    def test_cross_field_operations_rejected(self):
        F4 = build_tower(2, 1, 2)
        F8 = build_tower(2, 1, 3)
        with pytest.raises(ValueError):
            F4.one + F8.one

    def test_zero_division(self):
        F = build_tower(3, 1, 2)
        with pytest.raises(ZeroDivisionError):
            F.one / F.zero
        with pytest.raises(ZeroDivisionError):
            F.zero ** (-1)
        assert (F.zero**0).code == 1


class TestTables:
    @pytest.mark.parametrize("p,a,m", [(2, 2, 2), (3, 1, 2), (2, 3, 3)])
    def test_tables_match_scalar_ops(self, p, a, m):
        F = build_tower(p, a, m)
        rng = np.random.default_rng(5)
        for i, j in rng.integers(0, F.order, size=(80, 2)):
            x, y = F.element(int(i)), F.element(int(j))
            assert int(F.add_table[i, j]) == (x + y).code
            assert int(F.mul_table[i, j]) == (x * y).code
            assert int(F.neg_table[i]) == (-x).code
            if i:
                assert int(F.inv_table[i]) == reference.inverse(x).code

    def test_tables_read_only(self):
        F = build_tower(2, 1, 2)
        with pytest.raises(ValueError):
            F.mul_table[0, 0] = 1


class TestMirrors:
    def test_rows_built_on_first_touch(self):
        F = Field(2, 5, 2)  # uncached, so no row is built yet
        assert (F.element(5) * F.element(9)).code == F.mul_table[5, 9]
        assert (F.element(7) + F.element(3)).code == F.add_table[7, 3]
        assert [x for x, row in enumerate(F._mul_py) if type(row) is list] == [5]
        assert [x for x, row in enumerate(F._add_py) if type(row) is list] == [7]
        kept = F._mul_py[11]  # still a stand-in, read through as a row
        assert [kept[y] for y in range(F.order)] == F.mul_table[11].tolist()
        assert F._mul_py[11] == F.mul_table[11].tolist()
        assert mirror_row(F._mul_py, 12) == F.mul_table[12].tolist()
        assert mirror_row(F._mul_py, 12) is F._mul_py[12]

    @pytest.mark.parametrize("p,a,m", [(2, 2, 3), (3, 1, 3)])
    def test_polynomial_arithmetic_on_fresh_mirrors(self, p, a, m):
        # products, scalings and divisions keep mirror rows across their
        # loops; on a fresh field every row they read starts as a stand-in
        F = Field(p, a, m)
        rng = np.random.default_rng(p * 100 + a * 10 + m)
        f = Polynomial(F, rng.integers(0, F.order, size=12).tolist() + [1])
        g = Polynomial(F, rng.integers(0, F.order, size=5).tolist() + [3])
        add, mul = F.add_table, F.mul_table
        want = np.zeros(len(f.coeffs) + len(g.coeffs) - 1, dtype=np.int64)
        for i, c in enumerate(f.coeffs):
            want[i : i + len(g.coeffs)] = add[want[i : i + len(g.coeffs)], mul[c, g.coeffs]]
        assert (f * g).coeffs == tuple(want.tolist())
        assert f.scale(F.element(6)).coeffs == tuple(mul[6, f.coeffs].tolist())
        quo, rem = divmod(f * g + Polynomial(F, [1, 2]), g)
        assert quo == f and rem == Polynomial(F, [1, 2])


@given(st.integers(min_value=0, max_value=511), st.integers(min_value=0, max_value=511))
@settings(max_examples=60, deadline=None)
def test_f512_commutativity(i, j):
    F = build_tower(2, 3, 3)
    x, y = F.element(i), F.element(j)
    assert x * y == y * x
    assert x + y == y + x
    assert ((x * y) ** 7).code == ((x**7) * (y**7)).code


# ------------------------------------------------------------------ golden

GOLDEN_PATH = Path(__file__).parent / "data" / "tower_golden.json"
GOLDEN_TABLES = ("add_table", "mul_table", "neg_table", "inv_table",
                 "frobenius_table", "trace_table", "norm_table")


def _primes_below(n: int) -> list[int]:
    return [k for k in range(2, n) if all(k % d for d in range(2, int(k**0.5) + 1))]


def golden_towers() -> list[tuple[int, int, int]]:
    """Every tower that runs an irreducible search (a*m > 1) within the cap,
    every prime field with p < 100, and the two prime fields next to the cap."""
    searched = [(p, a, m) for p in _primes_below(ORDER_CAP + 1)
                for a in range(1, 11) for m in range(1, 11)
                if a * m > 1 and p ** (a * m) <= ORDER_CAP]
    prime = [(p, 1, 1) for p in _primes_below(100) + [1019, 1021]]
    return sorted(searched + prime)


def tower_digests(F: Field) -> dict[str, str]:
    """SHA-256 of each modulus, the generator code and each lookup table."""
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    out = {
        "base_modulus": sha(repr(tuple(map(int, F.base_modulus_coeffs))).encode()),
        "top_modulus": sha(repr(tuple(map(int, F.top_modulus_coeffs))).encode()),
        "generator_code": sha(str(int(F.generator_code)).encode()),
    }
    for name in GOLDEN_TABLES:
        out[name] = sha(np.ascontiguousarray(getattr(F, name), dtype="<i2").tobytes())
    return out


def test_tower_tables_golden():
    """Moduli, generator and tables are frozen: any change to how a tower is
    built must reproduce these digests exactly."""
    expected = json.loads(GOLDEN_PATH.read_text())
    towers = golden_towers()
    assert len([t for t in towers if t[1] * t[2] > 1]) == 64
    assert sorted(expected) == sorted(f"{p},{a},{m}" for p, a, m in towers)
    for p, a, m in towers:
        assert tower_digests(build_tower(p, a, m)) == expected[f"{p},{a},{m}"], (p, a, m)


def test_tower_tables_match_scalar_construction():
    """The batched construction reproduces the original scalar one: same
    generator, exp and log values, and the same seven tables, dtype
    included, on every golden tower."""
    for p, a, m in golden_towers():
        F, ref = build_tower(p, a, m), reference.tower_tables(p, a, m)
        assert F.generator_code == ref["generator_code"], (p, a, m)
        assert np.array_equal(F._exp, ref["exp"]), (p, a, m)
        assert np.array_equal(F._log, ref["log"]), (p, a, m)
        for name in GOLDEN_TABLES:
            got = getattr(F, name)
            assert got.dtype == ref[name].dtype and np.array_equal(got, ref[name]), (p, a, m, name)


def test_f1024_construction_memory():
    """Building F_1024 (its scalar level already built) allocates at most
    twice the tables it keeps: no order x order temporary beyond them."""
    build_tower(2, 5, 1)
    tracemalloc.start()
    try:
        F = Field(2, 5, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(getattr(F, name).nbytes for name in GOLDEN_TABLES)
    assert peak <= 2 * kept, (peak, kept)


def test_prime_field_moduli_against_sympy():
    """Every modulus over a prime field is the first irreducible candidate in
    the enumeration order (non-leading coefficients as a base-p integer, low
    digit first), as judged by sympy's independent irreducibility test."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def irreducible(coeffs, p):
        return sympy.Poly(list(reversed(coeffs)), x, modulus=p).is_irreducible

    for p in _primes_below(ORDER_CAP + 1):
        for d in range(2, 11):
            if p**d > ORDER_CAP:
                break
            for coeffs in (build_tower(p, d, 1).base_modulus_coeffs,
                           build_tower(p, 1, d).top_modulus_coeffs):
                assert len(coeffs) == d + 1 and coeffs[-1] == 1
                assert irreducible(coeffs, p), (p, d, coeffs)
                index = sum(c * p**i for i, c in enumerate(coeffs[:-1]))
                for k in range(index):
                    earlier = [k // p**i % p for i in range(d)] + [1]
                    assert not irreducible(earlier, p), (p, d, earlier)
