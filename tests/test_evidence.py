"""Tests for the trace-space decomposition machinery."""

import functools
import itertools
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from wildgoppa import cli, evidence, poly
from wildgoppa.codes import LinearCode
from wildgoppa.errors import BudgetExceeded, FalsificationError
from wildgoppa.evidence import (
    _K_plus_gF,
    _tau_span_dim,
    _first_witness,
    _holds_witness,
    _monomial_keys,
    _norms,
    _pairing,
    _trace,
    _trace_form,
    build_K,
    find_decomposition,
    flatten_poly,
    mu_generators,
    startkey_search,
    tau,
    verify_dual_reformulation,
    verify_K_properties,
    verify_trace_kernel_mod,
)
from wildgoppa.cli import main
from wildgoppa.gf import build_tower, digits, prime_factors
from wildgoppa.goppa import full_support, punctured_support
from wildgoppa.linalg import MatrixGF, kernel, matmul, rank, rref
from wildgoppa.poly import (
    Polynomial,
    _candidate_block,
    _candidate_chunks,
    count_distinct_roots,
    find_irreducible,
    is_irreducible,
)

TOWERS = [(2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 2, 2), (2, 1, 4)]


def trace_zero_units(field):
    return [c for c in range(1, field.order) if int(field.trace_table[c]) == 0]


def poly_span(field, degree_bound, polys):
    """The F_q-span of polynomials flattened below degree_bound, as a code."""
    rows = [flatten_poly(f, degree_bound) for f in polys]
    return LinearCode(field.subfield, field.m * degree_bound, rows)


def in_span(code, f):
    field = f.field
    return code.contains(poly_span(field, code.n // field.m, [f]))


# ---------------------------------------------------------------- flattening


@given(st.integers(0, 4**6 - 1))
def test_flatten_round_trip(idx):
    field = build_tower(2, 1, 2)
    codes = []
    k = idx
    for _ in range(6):
        codes.append(k % 4)
        k //= 4
    f = Polynomial(field, codes)
    vec = flatten_poly(f, 6)
    assert reference.unflatten_poly(field, vec, 6) == f


@pytest.mark.parametrize("p,a,m", [(2, 2, 2), (2, 2, 3), (2, 1, 10)])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_flatten_round_trip_against_reference(p, a, m, data):
    field = build_tower(p, a, m)
    bound = data.draw(st.integers(min_value=0, max_value=8))
    codes = data.draw(st.lists(st.integers(min_value=0, max_value=field.order - 1),
                               max_size=bound))
    f = Polynomial(field, codes)
    vec = flatten_poly(f, bound)
    expected = reference.flatten_poly(f, bound)
    assert vec.dtype == expected.dtype and vec.shape == expected.shape
    assert vec.tobytes() == expected.tobytes()
    assert reference.unflatten_poly(field, vec, bound) == f


def test_flatten_layout():
    # coefficient l occupies slots [l*m, (l+1)*m), coordinate-minor
    field = build_tower(2, 1, 2)
    f = Polynomial(field, [3, 1])
    vec = flatten_poly(f, 3)
    assert list(vec) == [1, 1, 1, 0, 0, 0]


def test_flatten_rejects_overflow():
    field = build_tower(2, 1, 2)
    f = Polynomial.monomial(field, 5)
    with pytest.raises(ValueError):
        flatten_poly(f, 5)


def test_flatten_is_linear():
    field = build_tower(3, 1, 2)
    rng = np.random.default_rng(7)
    for _ in range(30):
        a = Polynomial(field, [int(c) for c in rng.integers(0, 9, size=4)])
        b = Polynomial(field, [int(c) for c in rng.integers(0, 9, size=4)])
        va, vb, vs = (flatten_poly(f, 4) for f in (a, b, a + b))
        assert np.array_equal(field.subfield.add_table[va, vb], vs)


# ----------------------------------------------------------------------- tau


def test_tau_is_linear():
    field = build_tower(2, 1, 3)
    support = full_support(field)
    rng = np.random.default_rng(11)
    sub = field.subfield
    for _ in range(25):
        a = Polynomial(field, [int(c) for c in rng.integers(0, 8, size=5)])
        b = Polynomial(field, [int(c) for c in rng.integers(0, 8, size=5)])
        ta, tb, ts = (tau(field, support, f) for f in (a, b, a + b))
        assert np.array_equal(sub.add_table[ta, tb], ts)
        c = int(rng.integers(0, field.q))
        tc = tau(field, support, a.scale(c))
        assert np.array_equal(sub.mul_table[c, ta], tc)


def test_tau_values_against_scalar_trace():
    field = build_tower(3, 1, 2)
    support = punctured_support(field, [0])
    f = find_irreducible(field, 2)
    row = tau(field, support, f)
    for pos, pt in enumerate(support):
        assert int(row[pos]) == reference.trace(field, reference.evaluate(f, pt))


# ------------------------------------------------------------- K structure


@pytest.mark.parametrize("p,a,m", TOWERS)
@pytest.mark.parametrize("t", [1, 2, 3])
def test_dim_K_is_mt_minus_one(p, a, m, t):
    field = build_tower(p, a, m)
    K = build_K(field, t)
    assert K.k == field.m * t - 1


def test_build_K_charged_before_generators(monkeypatch):
    # t = 10000 over F_4: K would be 20000 x 60000 over F_2, refused before
    # any of its 20000 generators is built
    def unbuilt(field, t):
        raise AssertionError("mu generators built before the charge")

    monkeypatch.setattr(evidence, "mu_generators", unbuilt)
    with pytest.raises(BudgetExceeded, match="20000 x 60000"):
        build_K(build_tower(2, 1, 2), 10000)


def test_K_contains_mu_of_random_polys():
    field = build_tower(2, 1, 2)
    t = 3
    K = build_K(field, t)
    rng = np.random.default_rng(3)
    q = field.q
    for _ in range(40):
        a = Polynomial(field, [int(c) for c in rng.integers(0, 4, size=t)])
        mu = a**q - a
        assert in_span(K, mu)


def test_K_membership_is_exact():
    # x has nonzero tau image, so it cannot lie in K
    field = build_tower(2, 1, 2)
    K = build_K(field, 2)
    assert not in_span(K, Polynomial.x(field))


def test_mu_generator_count_and_kernel():
    field = build_tower(3, 1, 2)
    gens = mu_generators(field, 2)
    assert len(gens) == field.m * 2
    # only the constant-subfield direction dies, nothing else
    zero = [g for g in gens if not g.coeffs]
    assert len(zero) == 1


@pytest.mark.parametrize("p,a,m,deg,s", [
    (2, 1, 2, 2, 1),
    (2, 1, 2, 2, 2),
    (3, 1, 2, 2, 1),
    (2, 1, 3, 2, 1),
    (2, 1, 2, 3, 1),
])
def test_verify_K_properties(p, a, m, deg, s):
    field = build_tower(p, a, m)
    h = find_irreducible(field, deg)
    rep = verify_K_properties(field, h**s)
    t = deg * s
    assert rep.dim_K == field.m * t - 1
    assert rep.dim_sum == rep.dim_K + rep.dim_gF
    assert rep.dim_K_mod_base == field.m * deg - 1
    assert rep.tau_vanishes


def test_verify_K_rejects_composite():
    field = build_tower(2, 1, 2)
    x = Polynomial.x(field)
    g = x * (x + Polynomial.one(field))
    with pytest.raises(ValueError):
        verify_K_properties(field, g)


# -------------------------------------------------------------- decomposition


@pytest.mark.parametrize("p,a,m,s", [
    (2, 1, 2, 1),
    (2, 1, 2, 2),
    (3, 1, 2, 1),
    (2, 1, 3, 1),
])
def test_decomposition_direct_sum(p, a, m, s):
    field = build_tower(p, a, m)
    h = find_irreducible(field, 2)
    g = h**s
    lam = trace_zero_units(field)[0]
    witness, rep = find_decomposition(field, g, lam)
    t = int(g.degree)
    e1 = field.norm_exponent
    assert rep.ambient_dim == field.m * e1 * t
    assert rep.dim_K + 1 + rep.dim_gF == rep.ambient_dim
    assert rep.ring_trace != 0
    assert rep.tau_vanishes
    # explicit full-rank check of the three summands stacked together
    D = e1 * t
    K = build_K(field, t, D)
    rows = [K.generator]
    rows.append(np.array(
        [flatten_poly(f, D) for f in reference.multiples_of(g, (e1 - 1) * t)],
        dtype=np.int16))
    w = Polynomial.constant(field, lam) * witness**e1
    rows.append(flatten_poly(w, D).reshape(1, -1))
    stacked = MatrixGF(field.subfield, np.vstack(rows))
    assert rank(stacked) == rep.ambient_dim


def test_decomposition_bookkeeping_smallest():
    # m(e+1)t = 12 splits as (mt-1) + 1 + met = 3 + 1 + 8
    field = build_tower(2, 1, 2)
    g = find_irreducible(field, 2)
    _, rep = find_decomposition(field, g, 1)
    assert (rep.ambient_dim, rep.dim_K, rep.dim_gF) == (12, 3, 8)


def test_decomposition_f1024_fast():
    # K + g*F over F_1024 has 20460 columns, but psi comes from a 20 x 20
    # kernel, so the scan answers at once
    t0 = time.monotonic()
    field = build_tower(2, 1, 10)
    g = find_irreducible(field, 2)
    _, rep = find_decomposition(field, g, trace_zero_units(field)[0])
    assert (rep.candidate_index, rep.witness_coeffs) == (1028, (4, 1))
    assert time.monotonic() - t0 < 5.0


def test_decomposition_rejects_bad_lambda():
    field = build_tower(2, 1, 2)
    g = find_irreducible(field, 2)
    with pytest.raises(ValueError):
        find_decomposition(field, g, 0)
    nonzero_trace = next(
        c for c in range(1, field.order) if int(field.trace_table[c]) != 0
    )
    with pytest.raises(ValueError):
        find_decomposition(field, g, nonzero_trace)


def test_decomposition_rejects_linear_base():
    field = build_tower(2, 1, 2)
    x = Polynomial.x(field)
    with pytest.raises(ValueError):
        find_decomposition(field, x**2, 1)


# ------------------------------------------------------------------ startkey


@pytest.mark.parametrize("p,a,m,r", [
    (2, 1, 2, 2),
    (3, 1, 2, 2),
    (2, 1, 3, 2),
])
def test_startkey_exists_for_all_trace_zero_units(p, a, m, r):
    field = build_tower(p, a, m)
    h = find_irreducible(field, r)
    for lam in trace_zero_units(field):
        alpha = startkey_search(field, h, lam)
        assert int(alpha.degree) < r or not alpha.coeffs


def test_startkey_first_witness_oracle():
    # independent recount: brute-force all residues and compare first hit
    field = build_tower(2, 1, 2)
    h = find_irreducible(field, 2)
    lam = trace_zero_units(field)[0]
    alpha = startkey_search(field, h, lam)

    e1 = field.norm_exponent
    lam_poly = Polynomial.constant(field, lam)
    residues = [Polynomial(field, digits(k, field.order, 2)) for k in range(field.order**2)]
    hits = [
        k for k, a in enumerate(residues)
        if reference.abs_trace(
            h, reference.ring_mul(h, lam_poly, reference.ring_pow(h, a, e1))) != 0
    ]
    assert hits, "oracle found no witness at all"
    assert residues[hits[0]] == alpha


def test_startkey_rejects_degree_one():
    field = build_tower(2, 1, 2)
    x = Polynomial.x(field)
    with pytest.raises(ValueError):
        startkey_search(field, x, 1)


def test_startkey_rejects_reducible():
    field = build_tower(2, 1, 2)
    x = Polynomial.x(field)
    with pytest.raises(ValueError):
        startkey_search(field, x * x, 1)


# ---------------------------------------------------------------- dual spans


@pytest.mark.parametrize("p,a,m", [(2, 1, 2), (3, 1, 2), (2, 1, 3)])
def test_dual_spans_equal_for_rootless(p, a, m):
    field = build_tower(p, a, m)
    g = find_irreducible(field, 2)
    rep = verify_dual_reformulation(field, full_support(field), g)
    assert rep.equal and rep.gap == 0


@pytest.mark.parametrize("p,a,m,t", [
    (2, 1, 2, 1), (2, 1, 2, 2), (3, 1, 2, 1), (3, 1, 2, 2), (2, 1, 3, 1),
])
def test_dual_spans_gap_for_linear_powers(p, a, m, t):
    field = build_tower(p, a, m)
    g = Polynomial.x(field) ** t
    rep = verify_dual_reformulation(field, punctured_support(field, [0]), g)
    assert rep.gap in (0, 1)


# every proper tower of order <= 256
SPAN_TOWERS = [(p, a, m) for p in range(2, 17) if prime_factors(p) == [p]
               for a in range(1, 8) for m in range(2, 9) if p ** (a * m) <= 256]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tau_span_dim_matches_trace_code(data):
    # n minus the alternant code's dimension against the trace code of the
    # rows' span, eliminated over F_(q^m) first
    field = build_tower(*data.draw(st.sampled_from(SPAN_TOWERS)))
    points = data.draw(st.lists(st.integers(0, field.order - 1), min_size=1,
                                max_size=min(field.order, 24), unique=True))
    n = len(points)
    count = data.draw(st.one_of(st.integers(1, max(1, n - 1)), st.integers(n, n + 3)))
    unit = st.integers(1, field.order - 1)
    mult = data.draw(st.one_of(unit, st.lists(unit, min_size=n, max_size=n).map(np.array)))
    rows = reference.vandermonde_rows(field, points, mult, count)
    want = reference.trace_code(LinearCode(field, n, rows)).k
    assert _tau_span_dim(field, points, mult, count) == want


def test_dual_spans_reject_root_on_support():
    field = build_tower(2, 1, 2)
    g = Polynomial.x(field)
    with pytest.raises(ValueError):
        verify_dual_reformulation(field, full_support(field), g)


@pytest.mark.parametrize("support", [(0, 1, 99), (0, 0, 1)])
def test_dual_spans_reject_bad_support(support):
    # a code outside F_8 and a repeated point are input errors
    field = build_tower(2, 1, 3)
    g = find_irreducible(field, 2)
    with pytest.raises(ValueError):
        verify_dual_reformulation(field, support, g)


def _random_goppa_poly(field, data, rooted, max_power=2):
    """A monic g of degree <= 2 * max_power: a rootless power h^s of a
    quadratic, or (x - r) times a random monic cofactor."""
    codes = st.integers(0, field.order - 1)
    if rooted:
        root = data.draw(codes)
        cofactor = data.draw(st.lists(codes, max_size=2))
        linear = Polynomial(field, [int(field.neg_table[root]), 1])
        return linear * Polynomial(field, cofactor + [1])
    h = Polynomial(field, data.draw(st.lists(codes, min_size=2, max_size=2)) + [1])
    assume(count_distinct_roots(h) == 0)
    return h ** data.draw(st.integers(1, max_power))


# F_4/F_2, F_8/F_2, F_9/F_3, F_16/F_4, F_16/F_2, F_25/F_5, F_64/F_4, F_256/F_16
SPAN_TOWERS = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (2, 1, 4),
               (5, 1, 2), (2, 2, 3), (2, 4, 2)]


@pytest.mark.parametrize("p,a,m", SPAN_TOWERS)
@pytest.mark.parametrize("rooted", [False, True])
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_dual_span_dims_against_horner_ranks(p, a, m, rooted, data):
    # the trace-code dims equal the ranks of the Horner tau images, on a
    # random support that avoids the roots of g
    field = build_tower(p, a, m)
    g = _random_goppa_poly(field, data, rooted)
    values = g.evaluate_codes(np.arange(field.order, dtype=np.int64))
    points = [c for c in range(field.order) if values[c] != 0]
    support = data.draw(st.lists(st.sampled_from(points), min_size=1, unique=True))
    rep = verify_dual_reformulation(field, support, g)
    assert (rep.dim_full, rep.dim_multiples) == reference.tau_span_dims(
        field, support, g)
    assert rep.n == len(support)


# ------------------------------------------------------- one-functional scan


def _reduce_row_scan(field, g, lam):
    """The first candidate index whose lam*a^(e+1) leaves K + g*F, by
    row-reducing each candidate against the RREF of the stacked rows."""
    t = int(g.degree)
    e1 = field.norm_exponent
    D = e1 * t
    polys = mu_generators(field, t) + reference.multiples_of(g, (e1 - 1) * t)
    stack = rref(MatrixGF(field.subfield, np.array(
        [reference.flatten_poly(f, D) for f in polys], dtype=np.int16)))
    lam_poly = Polynomial.constant(field, lam)
    for idx in range(field.order**t):
        a = Polynomial(field, [idx // field.order**l % field.order
                               for l in range(t)])
        w = reference.flatten_poly(lam_poly * a**e1, D)
        if reference.reduce_row(stack.matrix, stack.pivots, w).any():
            return idx
    return None


# F_4/F_2, F_8/F_2, F_9/F_3, F_16/F_4, F_16/F_2, F_256/F_16
@pytest.mark.parametrize("p,a,m", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2),
                                   (2, 1, 4), (2, 4, 2)])
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_decomposition_index_against_reduce_row_scan(p, a, m, data):
    # for g = h^s, s = 1, 2, 3, the report equals the reference's, whose
    # functional phi comes from the stacked K + g*F; the hit is the first
    # candidate that the RREF of the stack does not absorb; and phi below t
    # is a nonzero F_q multiple of the library's psi
    field = build_tower(p, a, m)
    sub = field.subfield
    h = _random_goppa_poly(field, data, rooted=False, max_power=1)
    lam = data.draw(st.sampled_from(trace_zero_units(field)))
    for s in (1, 2, 3):
        g = h**s
        t = int(g.degree)
        _, psi = _K_plus_gF(field, g)
        _, phi = reference.stack_phi(field, g)
        assert [sub.mul_table[c, psi].tolist() for c in range(1, sub.order)].count(
            phi[: field.m * t].tolist()) == 1
        witness, rep = find_decomposition(field, g, lam)
        assert (witness, rep) == reference.find_decomposition(field, g, lam)
        assert rep.candidate_index == _reduce_row_scan(field, g, lam)


# ------------------------------------------------------------ batched scans


# F_4/F_2, F_8/F_2, F_9/F_3, F_16/F_4, F_16/F_2, F_25/F_5, F_49/F_7,
# F_64/F_4, F_256/F_16
SCAN_TOWERS = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (2, 1, 4),
               (5, 1, 2), (7, 1, 2), (2, 2, 3), (2, 4, 2)]


@pytest.mark.parametrize("p,a,m", SCAN_TOWERS)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_scans_against_reference(p, a, m, data):
    # the batched scans return the reference's witness and report, with
    # the first chunk drawn so that chunk boundaries fall before, on and
    # after the hit (no scan hits below index |F|)
    field = build_tower(p, a, m)
    r = data.draw(st.sampled_from([2, 3]))
    s = data.draw(st.sampled_from([1, 2]))
    codes = st.lists(st.integers(0, field.order - 1), min_size=r, max_size=r)
    h = Polynomial(field, data.draw(codes) + [1])
    assume(is_irreducible(h))
    lam = data.draw(st.sampled_from(trace_zero_units(field)))
    first = data.draw(st.sampled_from([poly._FIRST_CHUNK, 1, 2, 3, 5, 15, 17]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_FIRST_CHUNK", first)
        alpha = startkey_search(field, h, lam)
        witness, rep = find_decomposition(field, h**s, lam)
    # the scalar scans are slow per candidate; rare far hits are skipped
    assume(rep.candidate_index < 4096)
    assert alpha == reference.startkey_search(field, h, lam)
    assert (witness, rep) == reference.find_decomposition(field, h**s, lam)


# (tower, h, s, lam, first hit): a hit on the first row of the second chunk
# (16), one row into it (17), and hits past the first doubling
@pytest.mark.parametrize("tower,h,s,lam,index", [
    ((2, 2, 2), (8, 1, 1), 1, 1, 16),
    ((2, 2, 2), (8, 1, 1), 2, 3, 16),
    ((2, 1, 4), (2, 2, 1), 1, 2, 17),
    ((2, 1, 4), (2, 2, 1), 2, 3, 17),
    ((3, 1, 2), (3, 1, 0, 1), 2, 3, 90),
    ((2, 2, 2), (4, 0, 0, 1), 1, 1, 272),
])
def test_scans_hit_at_chunk_boundaries(tower, h, s, lam, index):
    field = build_tower(*tower)
    h = Polynomial(field, h)
    alpha = startkey_search(field, h, lam)
    witness, rep = find_decomposition(field, h**s, lam)
    assert rep.candidate_index == index
    assert alpha == reference.startkey_search(field, h, lam)
    assert (witness, rep) == reference.find_decomposition(field, h**s, lam)


@pytest.mark.parametrize("target", [0, 15, 16, 17, 47, 48, 49, 1023, None])
def test_first_witness_chunk_boundaries(monkeypatch, target):
    # a norm map that marks one index: the search finds it wherever it
    # falls over F_4/F_2 with residues of degree < 5 (10 F_2-digits), every
    # certificate finding its coset nonempty.  The ring (1023 candidates
    # past residue 0, 121 tuples) is certified; layers 0, 1 and 2 (3, 12
    # and 48 candidates against 9, 25 and 49 tuples) are scanned, each in
    # one chunk; layer 3 has its first residue 64 tested alone before it
    # is entered.  Residue 0 is never a witness and never scanned, so a
    # mark there is not found
    field = build_tower(2, 1, 2)
    powers = field.order ** np.arange(5)
    chunks, certified = [], []

    def norms(h, lam, block):
        idx = block.astype(np.int64) @ powers
        chunks.append(idx.tolist())
        return (idx == target)[:, None] * np.eye(1, 5, dtype=np.int16)

    def holds_witness(h, lam, pairing, start, n):
        certified.append((start, n))
        return True

    monkeypatch.setattr(evidence, "_norms", norms)
    monkeypatch.setattr(evidence, "_holds_witness", holds_witness)
    form = np.ones(10, dtype=np.int16)
    x5 = Polynomial.monomial(field, 5, 1)
    assert _first_witness(x5, 1, form, "test") == (target or None)
    # each candidate once, in index order, up to the end of the hit's chunk
    last = 1023 if not target else target
    seen = [i for chunk in chunks for i in chunk]
    assert seen == list(range(1, len(seen) + 1)) and last <= len(seen)
    runs = [(1, 4), (4, 16), (16, 64), (64, 65)]
    assert chunks[:4] == [list(range(lo, hi)) for lo, hi in runs if lo <= last]
    assert certified[0] == (0, 10) and all(n < 10 for _, n in certified[1:])


@pytest.mark.parametrize("p,a,m", SCAN_TOWERS)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_twisted_norms_rows_against_powers(p, a, m, data):
    # each row of the shared norm map on a drawn block is lam * a^N in the
    # quotient ring, for an irreducible h and its powers h^s
    field = build_tower(p, a, m)
    r = data.draw(st.integers(1, 3))
    h = Polynomial(field, data.draw(st.lists(
        st.integers(0, field.order - 1), min_size=r, max_size=r)) + [1])
    assume(is_irreducible(h))
    g = h ** data.draw(st.integers(1, 3))
    t = int(g.degree)
    lam = data.draw(st.sampled_from(trace_zero_units(field)))
    start = data.draw(st.integers(0, field.order**t - 1))
    block = _candidate_block(start, data.draw(st.integers(1, 40)), field.order, t)
    rows = _norms(g, lam, block)
    lam_poly = Polynomial.constant(field, lam)
    for row, coeffs in zip(rows, block.tolist()):
        w = reference.ring_mul(
            g, lam_poly, reference.ring_pow(g, Polynomial(field, coeffs), field.norm_exponent))
        assert row.tolist() == (list(w.coeffs) + [0] * t)[:t]


@pytest.mark.parametrize("p,a,m", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2)])
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_psi_mod_g_marks_the_phi_candidates(p, a, m, data):
    # on a drawn block, psi on lam * a^N mod g is nonzero exactly where the
    # stack functional phi is nonzero on the unreduced lam * a^N
    field = build_tower(p, a, m)
    g = _random_goppa_poly(field, data, rooted=False)
    t = int(g.degree)
    lam = data.draw(st.sampled_from(trace_zero_units(field)))
    start = data.draw(st.integers(0, field.order**t - 1))
    block = _candidate_block(start, data.draw(st.integers(1, 40)), field.order, t)
    _, psi = _K_plus_gF(field, g)
    _, phi = reference.stack_phi(field, g)
    sub = field.subfield
    reduced = _norms(g, lam, block)
    by_psi = _trace(psi, sub, evidence._flatten_codes(field, reduced)) != 0
    unreduced = reference.twisted_norms(field, lam, block, field.norm_exponent * t)
    by_phi = reference.trace_slots(phi, sub, unreduced) != 0
    assert by_psi.tolist() == by_phi.tolist()


def test_scans_raise_budget_exceeded_at_the_cap(monkeypatch):
    # both scans first hit x, index Q, the first residue of layer 1.  Over
    # F_4 the ring (16 candidates against 25 tuples) is scanned past
    # residue 0, one chunk of 15: a charge of 15.  Over F_16/F_4 the ring's
    # certificate (25 tuples) holds, layer 0 is cleared by its first
    # residue and a certificate of 9 tuples, and layer 1's first residue
    # hits: a charge of 25 + 1 + 9 + 1.  A cap of charge - 1 refuses the
    # last step, naming the index below which no witness exists
    for tower, charge, below in [((2, 1, 2), 15, 1), ((2, 2, 2), 25 + 1 + 9 + 1, 16)]:
        field = build_tower(*tower)
        h = find_irreducible(field, 2)
        monkeypatch.setattr(evidence, "WITNESS_SCAN_BUDGET", charge - 1)
        refusal = (f"no witness below index {below} of {field.order**2} candidates "
                   f"within WITNESS_SCAN_BUDGET = {charge - 1}")
        with pytest.raises(BudgetExceeded, match=refusal):
            startkey_search(field, h, 1)
        with pytest.raises(BudgetExceeded, match=refusal):
            find_decomposition(field, h, 1)
        monkeypatch.setattr(evidence, "WITNESS_SCAN_BUDGET", charge)
        assert startkey_search(field, h, 1) == Polynomial.x(field)
        assert find_decomposition(field, h, 1)[1].candidate_index == field.order


@pytest.mark.parametrize("target,found", [(20, True), (40, False)])
def test_first_witness_unpaid_range_in_doubling_chunks(monkeypatch, target, found):
    # as above, with a cap of 160: the ring's certificate and layers 0 and
    # 1 are charged 121 + 3 + 12 = 136, so the 48 candidates of layer 2 are
    # not paid for at once and are scanned in chunks of 16 and 32, as a
    # scan from _FIRST_CHUNK would: a hit in the first chunk is found, and
    # one past it is refused at index 32, where the second chunk's charge
    # passes the cap
    field = build_tower(2, 1, 2)
    powers = field.order ** np.arange(5)
    chunks = []

    def norms(h, lam, block):
        idx = block.astype(np.int64) @ powers
        chunks.append((int(idx[0]), int(idx[-1]) + 1))
        return (idx == target)[:, None] * np.eye(1, 5, dtype=np.int16)

    monkeypatch.setattr(evidence, "_norms", norms)
    monkeypatch.setattr(evidence, "_holds_witness", lambda *args: True)
    monkeypatch.setattr(evidence, "WITNESS_SCAN_BUDGET", 160)
    search = functools.partial(_first_witness, Polynomial.monomial(field, 5, 1), 1,
                               np.ones(10, dtype=np.int16), "test")
    if found:
        assert search() == target
    else:
        with pytest.raises(BudgetExceeded, match="no witness below index 32 of 1024"):
            search()
    assert chunks == [(1, 4), (4, 16), (16, 32)]


def test_long_scan_doubles_from_first_chunk(monkeypatch):
    # over F_64/F_2 mod a quadratic the ring (4,095 candidates past residue
    # 0, against 13^6 tuples) is scanned: a range over 4 * _FIRST_CHUNK
    # starts at _FIRST_CHUNK and doubles, and its first witness, in the
    # third chunk, ends it there
    field = build_tower(2, 1, 6)
    h = find_irreducible(field, 2)
    sizes = []

    def norms(h, lam, block):
        sizes.append(len(block))
        return _norms(h, lam, block)

    monkeypatch.setattr(evidence, "_norms", norms)
    lam = trace_zero_units(field)[0]
    assert startkey_search(field, h, lam) == reference.startkey_search(field, h, lam)
    assert sizes == [16, 32, 64]


def test_ring_certified_empty_falsifies_without_a_scan(monkeypatch):
    # with every trace forced to zero, the certificate on the whole of
    # F_16/F_4 mod a quadratic (25 tuples against 256 candidates) finds no
    # witness, so both scans falsify before any candidate is tested
    field = build_tower(2, 2, 2)
    h = find_irreducible(field, 2)
    ranges = []

    def candidate_chunks(order, degree, start, stop, width):
        ranges.append((start, stop))
        return _candidate_chunks(order, degree, start, stop, width)

    monkeypatch.setattr(evidence, "_candidate_chunks", candidate_chunks)
    monkeypatch.setattr(evidence, "_trace",
                        lambda form, sub, flat: np.zeros(flat.shape[:-1], dtype=np.int16))
    with pytest.raises(FalsificationError, match="ring of size 256"):
        startkey_search(field, h, 1)
    with pytest.raises(FalsificationError, match="among 256 candidates"):
        find_decomposition(field, h, 1)
    assert ranges == []


@pytest.mark.parametrize("patterns,holds", [
    ([[1, 1, 2], [1, 2, 2]], False),
    ([[1, 1, 2]], True),
    ([[1, 1, 1], [1, 2, 3]], True),
])
def test_certificate_folds_exponents(patterns, holds):
    # q = 2, m = 3 on three coordinates c1, c2, c3 beside c0 = 1, with T
    # forced to 1 on the orderings of the given multisets: (1, 1, 2) and
    # (1, 2, 2) give c1^2 c2 and c1 c2^2 three times each, which fold by
    # c^2 = c into c1 c2 twice, 0 over F_2; either alone leaves c1 c2
    tuples = np.indices((4,) * 3).reshape(3, -1).T
    values = np.array([sorted(row) in patterns for row in tuples.tolist()])
    keys = _monomial_keys(4, 3, 2)
    assert bool((np.bincount(keys, weights=values) % 2).any()) is holds
    # c0 = 1 drops out: (0, 1, 2) keys c1 c2, (0, 0, 1) and (1, 1, 1) key c1,
    # (0, 0, 0) the constant, and the key follows the multiset only
    key = dict(zip(map(tuple, tuples.tolist()), keys.tolist()))
    assert key[0, 1, 2] == key[2, 1, 0] == key[1, 1, 2] == key[2, 2, 1]
    assert key[0, 0, 1] == key[1, 1, 1] == key[1, 0, 0] != key[0, 0, 2]
    assert key[0, 0, 0] == 0 and len(set(key.values())) == 8


CERT_TOWERS = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (2, 1, 4), (5, 1, 2),
               (3, 1, 3), (2, 1, 5), (7, 1, 2), (2, 2, 3), (2, 3, 2), (2, 1, 6),
               (2, 4, 2), (3, 1, 4), (3, 1, 5)]


@pytest.mark.parametrize("p,a,m", CERT_TOWERS)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_certificate_against_brute_force(p, a, m, data):
    # the certificate's verdict on a coset a0 + span of n basis residues,
    # the index range [b q^n, (b+1) q^n), is whether one of its residues has
    # lam * a^N off the form's kernel, by the shared norm map on every
    # residue of the coset: for the trace form mod h, psi mod g = h^s
    # (s <= 3), a drawn form, the zero form, and a form drawn from the
    # forms that vanish on every such norm, which the certificate must
    # clear; a0 is 0 or drawn; towers with q <= m fold exponents by c^q = c
    field = build_tower(p, a, m)
    r = data.draw(st.sampled_from([2, 3]))
    h = Polynomial(field, data.draw(st.lists(
        st.integers(0, field.order - 1), min_size=r, max_size=r)) + [1])
    assume(is_irreducible(h))
    s = data.draw(st.integers(1, 3))
    g = h**s
    t = int(g.degree)
    kind = data.draw(st.sampled_from(["trace", "psi", "drawn", "zero", "vanishing"]))
    modulus, form = {
        "trace": lambda: (h, _trace_form(h)),
        "psi": lambda: (g, _K_plus_gF(field, g)[1]),
        "drawn": lambda: (g, np.array(data.draw(st.lists(
            st.integers(0, field.q - 1), min_size=m * t, max_size=m * t)), dtype=np.int16)),
        "zero": lambda: (g, np.zeros(m * t, dtype=np.int16)),
        "vanishing": lambda: (g, None),
    }[kind]()
    width = int(modulus.degree)
    q = field.q
    fits = [n for n in range(m * width + 1) if q**n <= 2**14 and (n + 1) ** m <= 2**16]
    assume(fits)
    n = data.draw(st.sampled_from(fits))
    b = data.draw(st.one_of(st.just(0), st.integers(0, q ** (m * width - n) - 1)))
    lam = data.draw(st.integers(1, field.order - 1))
    block = _candidate_block(b * q**n, q**n, field.order, width)
    flat = evidence._flatten_codes(field, _norms(modulus, lam, block))
    if kind == "vanishing":
        forms = kernel(MatrixGF(field.subfield, flat)).array
        assume(forms.shape[0])
        mix = np.array([data.draw(st.lists(st.integers(0, field.q - 1),
                                           min_size=len(forms), max_size=len(forms)))])
        form = matmul(field.subfield, mix.astype(np.int16), forms)[0]
    brute = bool(_trace(form, field.subfield, flat).any())
    assert _holds_witness(modulus, lam, _pairing(modulus, form), b * q**n, n) == brute
    if kind in ("zero", "vanishing"):
        assert not brute


# towers of order <= 256 with m <= 4 (q <= m and q > m): beyond, the ring's
# certificate is over WITNESS_SCAN_BUDGET for every h of degree >= 2
DESCENT_TOWERS = [(2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 2, 2), (2, 1, 4), (5, 1, 2),
                  (3, 1, 3), (7, 1, 2), (2, 2, 3), (2, 3, 2), (2, 4, 2), (3, 2, 2),
                  (3, 1, 4)]


@pytest.mark.parametrize("p,a,m", DESCENT_TOWERS)
@given(data=st.data())
@settings(max_examples=10, deadline=None, derandomize=True)
def test_descent_against_layered_scan(p, a, m, data):
    # the descent returns the index the layered scan it replaced returns
    # (reference._norm_scan), for the trace form mod h of degree 2-4 and
    # psi mod g = h^s, s <= 3, under up to three lambdas, on rings whose
    # certificate the budget can pay.  On the zero form, where that
    # certificate costs fewer tuples than the ring has candidates, it finds
    # no witness: the descent returns None before any candidate is drawn,
    # and both searches falsify (exit 3)
    field = build_tower(p, a, m)
    r = data.draw(st.integers(2, 4))
    h = Polynomial(field, data.draw(st.lists(
        st.integers(0, field.order - 1), min_size=r, max_size=r)) + [1])
    assume(is_irreducible(h))
    powers = [s for s in (1, 2, 3) if (m * r * s + 1) ** m <= evidence.WITNESS_SCAN_BUDGET]
    g = h ** data.draw(st.sampled_from(powers))
    kind = data.draw(st.sampled_from(["trace", "psi", "zero"]))
    modulus, form = {
        "trace": lambda: (h, _trace_form(h)),
        "psi": lambda: (g, _K_plus_gF(field, g)[1]),
        "zero": lambda: (g, np.zeros(m * int(g.degree), dtype=np.int16)),
    }[kind]()
    t = int(modulus.degree)
    tuples = (m * t + 1) ** m
    lams = data.draw(st.lists(st.sampled_from(trace_zero_units(field)),
                              min_size=1, max_size=3, unique=True))
    for lam in lams:
        outcomes = []
        for search in (_first_witness, reference._norm_scan):
            try:
                outcomes.append(search(modulus, lam, form, "test"))
            except BudgetExceeded:
                outcomes.append(BudgetExceeded)
        if BudgetExceeded not in outcomes:
            assert outcomes[0] == outcomes[1]
    if kind != "zero" or field.order**t - 1 <= tuples:
        return
    ranges = []

    def candidate_chunks(order, degree, start, stop, width):
        ranges.append((start, stop))
        return _candidate_chunks(order, degree, start, stop, width)

    zeros = lambda form, sub, flat: np.zeros(flat.shape[:-1], dtype=np.int16)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evidence, "_candidate_chunks", candidate_chunks)
        assert _first_witness(g, lams[0], form, "test") is None
        mp.setattr(evidence, "_trace", zeros)
        with pytest.raises(FalsificationError, match="among"):
            find_decomposition(field, g, lams[0])
        if field.order**r - 1 > (m * r + 1) ** m:
            with pytest.raises(FalsificationError, match="ring of size"):
                startkey_search(field, h, lams[0])
    assert ranges == []


@pytest.mark.parametrize("cap,error", [(2**18, FalsificationError), (14, BudgetExceeded)])
def test_scans_exhausted_without_hit(monkeypatch, cap, error):
    # with every trace forced to zero no candidate hits: a space within
    # the cap falsifies, a larger one runs out; over F_4 mod a quadratic
    # the ring (16 candidates against 25 tuples) is scanned, 15 of them as
    # residue 0 is never a witness
    field = build_tower(2, 1, 2)
    h = find_irreducible(field, 2)
    monkeypatch.setattr(evidence, "WITNESS_SCAN_BUDGET", cap)
    monkeypatch.setattr(evidence, "_trace",
                        lambda form, sub, flat: np.zeros(flat.shape[:-1], dtype=np.int16))
    with pytest.raises(error):
        startkey_search(field, h, 1)
    with pytest.raises(error):
        find_decomposition(field, h, 1)


@pytest.mark.parametrize("p,a,m,deg", [(2, 1, 2, 2), (3, 1, 2, 2), (2, 2, 2, 2)])
def test_K_plus_gF_is_kernel_of_phi(p, a, m, deg):
    # psi kills every generator of K reduced mod g, and the reduced
    # generators span the whole hyperplane psi = 0, for g = h and g = h^2
    field = build_tower(p, a, m)
    h = find_irreducible(field, deg)
    sub = field.subfield
    for g in (h, h**2):
        t = int(g.degree)
        K, psi = _K_plus_gF(field, g)
        assert K.k == field.m * t - 1 and psi.shape == (field.m * t,)
        rows = np.array([flatten_poly(f % g, t) for f in mu_generators(field, t)])
        assert not _trace(psi, sub, rows).any()
        assert rank(MatrixGF(sub, rows)) == field.m * t - 1
        assert psi.any()


def test_pillar_two_falsified_by_a_second_kernel_row(capsys, monkeypatch):
    # a reduced K that lost a dimension leaves two kernel rows: pillar II
    # fails with the rank it implies, from the library and as exit 3
    field = build_tower(2, 1, 2)
    g = find_irreducible(field, 2)
    real = evidence.kernel

    def two_rows(M):
        psi = real(M).array
        return MatrixGF(M.field, np.vstack([psi, np.eye(1, psi.shape[1], 0, dtype=np.int16)]))

    monkeypatch.setattr(evidence, "kernel", two_rows)
    evidence._K_plus_gF.cache_clear()
    try:
        with pytest.raises(FalsificationError, match=r"K \+ g\*F has rank 10, expected 3 \+ 8"):
            verify_K_properties(field, g)
        assert main(["evidence", "--p", "2", "--m", "2", "--g", "irreducible:2"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "K + g*F has rank 10, expected 3 + 8" in err
    finally:
        evidence._K_plus_gF.cache_clear()


# ------------------------------------------------------------ trace kernel


@pytest.mark.parametrize("p,a,m,r,s", [
    (2, 1, 2, 2, 1),
    (2, 1, 2, 2, 2),
    (3, 1, 2, 2, 1),
    (2, 1, 3, 2, 1),
    (2, 1, 2, 3, 1),
])
def test_trace_kernel_mod(p, a, m, r, s):
    field = build_tower(p, a, m)
    h = find_irreducible(field, r)
    rep = verify_trace_kernel_mod(field, h, s)
    assert rep.dim_reduced == rep.expected == field.m * r - 1
    assert rep.trace_surjective
    # pillar III of verify_K_properties is this check on g = h^s
    assert verify_K_properties(field, h**s).dim_K_mod_base == rep.dim_reduced


def test_trace_kernel_oracle_by_enumeration():
    # count the trace kernel directly in the residue ring and compare
    field = build_tower(2, 1, 2)
    h = find_irreducible(field, 2)
    kernel = [k for k in range(field.order**2)
              if reference.abs_trace(h, Polynomial(field, digits(k, field.order, 2))) == 0]
    assert len(kernel) == field.q ** (field.m * 2 - 1)
    rep = verify_trace_kernel_mod(field, h, 1)
    assert field.q**rep.dim_reduced == len(kernel)


def test_evidence_run_derives_split_and_trace_form_once(monkeypatch, capsys):
    # five checks of one run read the split g = h^s and the trace form of
    # F[x]/(h); the sieve runs once on g and the q-power orbits are summed
    # once, each orbit sum taking one _adder, however many checks read them;
    # h is tested for irreducibility once and its trace kernel checked once,
    # for pillar III and the report alike
    for fn in vars(evidence).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    sieved, orbit_sums, tested = [], [], []

    def counted(fn, log):
        def wrapper(arg):
            log.append(arg)
            return fn(arg)
        return wrapper

    split = counted(evidence.irreducible_power, sieved)
    for module in (cli, evidence):  # wherever a module binds the sieve
        if hasattr(module, "irreducible_power"):
            monkeypatch.setattr(module, "irreducible_power", split)
    monkeypatch.setattr(evidence, "_adder", counted(evidence._adder, orbit_sums))
    monkeypatch.setattr(evidence, "is_irreducible", counted(evidence.is_irreducible, tested))
    trace_kernels = []
    real_rank = evidence.rank
    monkeypatch.setattr(evidence, "rank", lambda M: trace_kernels.append(M.shape) or real_rank(M))
    assert main(["evidence", "--p", "2", "--m", "2", "--g", "irreducible:2^2"]) == 0
    out, _ = capsys.readouterr()
    assert "decomposition witness" in out and "trace kernel: dim 3" in out
    field = build_tower(2, 1, 2)
    h = find_irreducible(field, 2)
    assert (len(sieved), len(orbit_sums), len(tested), len(trace_kernels)) == (1, 1, 1, 1)
    assert sieved == [h**2] and orbit_sums == [field] and tested == [h]
    # the m t = 8 generators of K for t = 2 deg h, reduced below deg h
    assert trace_kernels == [(8, 4)]


# F_16/F_4, F_256/F_16, F_9/F_3, F_25/F_5, F_49/F_7, F_64/F_2
@pytest.mark.parametrize("p,a,m", [
    (2, 2, 2), (2, 4, 2), (3, 1, 2), (5, 1, 2), (7, 1, 2), (2, 1, 6),
])
@pytest.mark.parametrize("r", [2, 3])
@given(data=st.data())
@settings(max_examples=15, deadline=None, derandomize=True)
def test_trace_form_against_orbit_sum(p, a, m, r, data):
    # the form's dot product equals the full orbit sum, one residue at a
    # time and for a stack of residues traced in one product; h is drawn,
    # because the minimal irreducibles give forms too sparse to tell slots
    # apart
    field = build_tower(p, a, m)
    residue = st.lists(st.integers(0, field.order - 1), min_size=r, max_size=r)
    h = Polynomial(field, data.draw(residue) + [1])
    assume(is_irreducible(h))
    form = _trace_form(h)
    ws = [Polynomial(field, c)
          for c in data.draw(st.lists(residue, min_size=1, max_size=4))]
    # the form is shared by the checks of a run: cached and read-only
    assert _trace_form(h) is form and not form.flags.writeable
    assert form.tolist() == reference.trace_form(h).tolist()
    expected = [reference.abs_trace(h, w) for w in ws]
    assert int(_trace(form, field.subfield, flatten_poly(ws[0], r))) == expected[0]
    rows = np.array([flatten_poly(w, r) for w in ws])
    assert _trace(form, field.subfield, rows).tolist() == expected


@pytest.mark.parametrize("p,a,m", [(2, 2, 2), (2, 2, 3), (3, 1, 2), (7, 1, 2)])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_trace_fold_against_slot_loop(p, a, m, data):
    # the pairwise fold sums the same slot products as the per-slot loop,
    # for one residue and a stack, at odd and even slot counts (189 is
    # F_64/F_4 with a cubic base factor)
    sub = build_tower(p, a, m).subfield
    slots = data.draw(st.sampled_from([1, 2, 3, 7, 8, 189]) | st.integers(1, 64))
    vec = st.lists(st.integers(0, sub.order - 1), min_size=slots, max_size=slots)
    form = np.array(data.draw(vec), dtype=np.int16)
    one = np.array(data.draw(vec), dtype=np.int16)
    assert int(_trace(form, sub, one)) == int(reference.trace_slots(form, sub, one))
    stack = np.array(data.draw(st.lists(vec, min_size=1, max_size=5)), dtype=np.int16)
    assert _trace(form, sub, stack).tolist() == reference.trace_slots(form, sub, stack).tolist()


# ------------------------------------------------------------- subspace type


def test_subspace_basis_polys_round_trip():
    field = build_tower(2, 1, 2)
    polys = [Polynomial.monomial(field, 1, 2), Polynomial.constant(field, 1)]
    S = poly_span(field, 3, polys)
    assert S.k == rank(MatrixGF(
        field.subfield,
        np.array([flatten_poly(f, 3) for f in polys], dtype=np.int16)))
    for row in S.generator:
        assert in_span(S, reference.unflatten_poly(field, row, 3))


def test_subspace_empty_span():
    field = build_tower(2, 1, 2)
    S = poly_span(field, 2, [])
    assert S.k == 0
    assert in_span(S, Polynomial.zero(field))
    assert not in_span(S, Polynomial.one(field))
