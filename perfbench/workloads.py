"""The benchmark's four workloads.

A workload names the towers its set-up builds and turns a seed into a list
of operations. Each operation drives wildgoppa through a public entry point
(``cli.main`` or a public function of ``identities``, ``goppa`` or
``codes``) and returns a JSON-able answer. Its check compares that answer
with a reference the timed path does not compute: the paper's table
constants, the cyclotomic closed form or class sum, root counts and
distance bounds computed here, and the invariants of the evidence battery.

This module imports nothing outside the standard library, so a worker can
load it before it starts timing the import of wildgoppa. Library calls go
through the package object passed in (``wg.cli.main``), looked up when the
operation runs, so a tracer that substitutes module attributes sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

# Table 1 of the paper: dim Gamma(L, g^(q+1)) over F_(q^2), full support.
TABLE1_K = {
    (5, 3): 4,
    (7, 3): 16, (7, 4): 9, (7, 5): 4,
    (8, 3): 25, (8, 4): 16, (8, 5): 9, (8, 6): 4,
    (9, 3): 36, (9, 4): 25, (9, 5): 16, (9, 6): 9, (9, 7): 4,
}
# exact minimum distances of the four k = 4 cells
TABLE1_D = {(5, 3): 19, (7, 5): 41, (8, 6): 55, (9, 7): 71}
# Table 2: dim Gamma(L, x^(q^2+q+1)) over F_(q^3), support F* (gap 1 below)
TABLE2_K = {4: 26, 5: 63, 7: 215, 8: 342}

EVIDENCE_INSTANCES = (  # (p, a, m, degree of the irreducible g)
    (2, 1, 6, 2),
    (7, 1, 2, 3),
    (2, 2, 3, 3),
    (3, 1, 3, 3),
    (2, 4, 2, 2),
)

# the acceptance-test towers of order <= 81
SWEEP_TOWERS = (
    (2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 1, 4), (2, 2, 2), (5, 1, 2),
    (3, 1, 3), (2, 1, 5), (7, 1, 2), (2, 2, 3), (2, 3, 2), (2, 1, 6),
    (3, 2, 2),
)
# (degree, has roots): every shape a monic g of degree 1-3 can take
SWEEP_SHAPES = ((1, True), (2, False), (2, True), (3, False), (3, True))
SWEEP_REPEATS = 4
# min_distance runs only when q^k codewords fit under this cap
DISTANCE_CAP = 1 << 16


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass(frozen=True)
class Workload:
    name: str
    towers: tuple
    op_count: int
    op_limit_s: float  # an operation slower than this counts as failed
    make_ops: Callable


def _norm_exponent(q: int, m: int) -> int:
    return (q**m - 1) // (q - 1)


def _roots(field, coeffs) -> list:
    """Roots of sum coeffs[i] x^i in the field, by evaluating at every
    element with the field's tables (not through ``poly``)."""
    import numpy as np

    xs = np.arange(field.order, dtype=np.int64)
    acc = np.full(field.order, coeffs[-1], dtype=np.int64)
    for c in reversed(coeffs[:-1]):
        acc = field.add_table[field.mul_table[acc, xs], c].astype(np.int64)
    return [int(x) for x in np.nonzero(acc == 0)[0]]


def _cli(wg, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = wg.cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            rc = exc.code
    return {"rc": rc, "stdout": out.getvalue()}


def _cli_op(wg, name, argv, check):
    return Op(name, lambda: _cli(wg, argv), check)


# ------------------------------------------------------------------ tables


def _check_table1(out) -> list:
    if out["rc"] != 0:
        return [f"exit {out['rc']}"]
    rows = json.loads(out["stdout"])["rows"]
    if [(r["q"], r["t"]) for r in rows] != list(TABLE1_K):
        return ["table 1 cells differ from the paper's"]
    bad = []
    for r in rows:
        q, t = r["q"], r["t"]
        d_ref = TABLE1_D.get((q, t))
        d_ok = (r["d"] == d_ref if d_ref is not None
                else r["d"] is None or r["d"] >= t * (q + 1) + 1)
        if not (r["k"] == TABLE1_K[q, t] and r["n"] == q * q and d_ok
                and r["identity_ok"] is True and r["formula_ok"] is True):
            bad.append(f"table 1 row q={q} t={t}: {r}")
    return bad


def _check_table2(out) -> list:
    if out["rc"] != 0:
        return [f"exit {out['rc']}"]
    rows = json.loads(out["stdout"])["rows"]
    if [r["q"] for r in rows] != list(TABLE2_K):
        return ["table 2 rows differ from the paper's"]
    return [f"table 2 row q={r['q']}: {r}" for r in rows
            if not (r["k"] == TABLE2_K[r["q"]] and r["k_low"] == r["k"] + 1
                    and r["gap"] == 1 and r["n"] == r["q"] ** 3 - 1
                    and r["formula_ok"] is True)]


def _tables_ops(wg, seed):
    # fixed inputs: the seed changes nothing here
    return [
        _cli_op(wg, "table1", ["table", "--id", "1", "--format", "json"], _check_table1),
        _cli_op(wg, "table2", ["table", "--id", "2", "--format", "json"], _check_table2),
    ]


# ------------------------------------------------------------ verify_f1024


def _verify_ops(wg, seed):
    rng = random.Random(f"verify_f1024:{seed}")
    field = wg.gf.build_tower(2, 5, 2)
    while True:  # a monic cubic without roots is irreducible
        coeffs = [rng.randrange(field.order) for _ in range(3)] + [1]
        if not _roots(field, coeffs):
            break
    q, m, t = field.q, field.m, 3
    e = _norm_exponent(q, m) - 1
    k = wg.cyclotomic.closed_form(q, m, t)
    expected = [f"exponents ({e}, {e + 1}) dims ({k}, {k})", "equal: yes"]

    def check(out):
        if out["rc"] != 0:
            return [f"exit {out['rc']}"]
        lines = out["stdout"].splitlines()
        return [] if lines == expected else [f"got {lines}, expected {expected}"]

    argv = ["verify", "--p", "2", "--a", "5", "--m", "2",
            "--g", ",".join(map(str, coeffs)), "--support", "full"]
    return [_cli_op(wg, "verify", argv, check)]


# ---------------------------------------------------------------- evidence


def _evidence_ops(wg, seed):
    rng = random.Random(f"evidence:{seed}")
    ops = []
    for p, a, m, t in EVIDENCE_INSTANCES:
        field = wg.gf.build_tower(p, a, m)
        # lam = c * lam0 with c in F_q*, lam0 the first trace-zero unit. The
        # witness scans test membership in F_q-subspaces and the nonvanishing
        # of an F_q-linear trace, so scaling by c leaves every scan the same
        # length: the seed changes the input but not the amount of work.
        lam0 = next(c for c in range(1, field.order) if int(field.trace_table[c]) == 0)
        scalars = [c for c in range(1, field.order) if int(field.frobenius_table[c]) == c]
        lam = int(field.mul_table[rng.choice(scalars), lam0])
        ambient = m * t * _norm_exponent(field.q, m)

        def check(out, m=m, t=t, lam=lam, ambient=ambient):
            if out["rc"] != 0:
                return [f"exit {out['rc']}"]
            rep = json.loads(out["stdout"])
            K, dec = rep["K"], rep["decomposition"]
            bad = []
            if K["dim_K"] != m * t - 1 or K["t"] != t:
                bad.append(f"dim K {K['dim_K']} != m*t - 1 = {m * t - 1}")
            if dec is None or dec["lam"] != lam:
                return bad + ["no decomposition for the drawn lambda"]
            if not dec["ambient_dim"] == ambient == dec["dim_K"] + 1 + dec["dim_gF"]:
                bad.append(f"ambient {dec['ambient_dim']} != {ambient} = "
                           f"{dec['dim_K']} + 1 + {dec['dim_gF']}")
            if rep["dual_spans"]["gap"] != 0:
                bad.append(f"tau span gap {rep['dual_spans']['gap']}")
            return bad

        argv = ["evidence", "--p", str(p), "--a", str(a), "--m", str(m),
                "--g", f"irreducible:{t}", "--lam", str(lam), "--format", "json"]
        ops.append(_cli_op(wg, f"evidence-{p}-{a}-{m}-{t}", argv, check))
    return ops


# ------------------------------------------------------------------- sweep


def _sweep_run(wg, field, coeffs, rooted_support):
    g = wg.poly.Polynomial(field, coeffs)
    r = wg.poly.count_distinct_roots(g)
    if r == 0:
        support = wg.goppa.full_support(field)
        rep = wg.identities.verify_theorem1(field, support, g)
    else:
        support = rooted_support
        rep = wg.identities.dimension_gap(field, support, g)
    k = rep.dims[-1]
    enumerable = k > 0 and field.q**k <= DISTANCE_CAP
    code = crt_equal = d = None
    if r or enumerable:
        spec = wg.goppa.GoppaSpec(field, support, g ** rep.exponents[-1])
        code = wg.goppa.goppa_code(spec)
        if r:
            crt_equal = wg.goppa.goppa_via_crt(spec) == code
        if enumerable:
            d = code.min_distance(DISTANCE_CAP)
    return {"r": r, "n": rep.n, "exponents": list(rep.exponents),
            "dims": list(rep.dims), "equal": list(rep.equal), "gap": rep.gap,
            "distinct_roots": rep.distinct_roots,
            "code_k": None if code is None else code.k,
            "crt_equal": crt_equal, "d": d}


def _sweep_check(out, ref) -> list:
    q, m, t, e, n = ref["q"], ref["m"], ref["t"], ref["e"], ref["n"]
    roots = ref["roots"]
    low, k = out["dims"]
    bad = []
    if out["r"] != roots or out["n"] != n or out["exponents"] != [e, e + 1]:
        bad.append(f"r/n/exponents {out['r']}/{out['n']}/{out['exponents']}, "
                   f"expected {roots}/{n}/{[e, e + 1]}")
    if roots == 0:
        if not (low == k and out["equal"] == [True] and out["gap"] == 0):
            bad.append(f"rootless g gave dims {out['dims']}")
        if ref["k_class"] is not None and k != ref["k_class"]:
            bad.append(f"k {k} != class sum {ref['k_class']}")
    else:
        if not (out["distinct_roots"] == roots and 0 <= out["gap"] == low - k <= roots):
            bad.append(f"gap {out['gap']} outside [0, {roots}]")
        if out["crt_equal"] is not True:
            bad.append("goppa_code and goppa_via_crt differ")
        if k < n - m * t * (e + 1):
            bad.append(f"k {k} below the Goppa bound")
    if out["code_k"] not in (None, k):
        bad.append(f"recomputed code has k {out['code_k']} != {k}")
    if k > 0 and q**k <= DISTANCE_CAP:
        d = out["d"]
        if d is None or not t * (e + 1) + 1 <= d <= n - k + 1:
            bad.append(f"d {d} outside [{t * (e + 1) + 1}, {n - k + 1}]")
    elif out["d"] is not None:
        bad.append("distance computed past the cap")
    return bad


def _sweep_ops(wg, seed):
    """Every tower x shape cell SWEEP_REPEATS times, in a fixed order. The
    seed draws the coefficients only, so the mix and order of work, and with
    them the peak memory, are the same for every seed."""
    rng = random.Random(f"sweep:{seed}")
    ops = []
    for p, a, m in SWEEP_TOWERS:
        field = wg.gf.build_tower(p, a, m)
        q, e = field.q, _norm_exponent(field.q, m) - 1
        for t, rooted in SWEEP_SHAPES:
            for _ in range(SWEEP_REPEATS):
                while True:
                    coeffs = [rng.randrange(field.order) for _ in range(t)] + [1]
                    roots = _roots(field, coeffs)
                    if bool(roots) == rooted:
                        break
                support = tuple(c for c in range(field.order) if c not in roots)
                fits = not roots and t * (e + 1) <= q**m - 1
                ref = {"q": q, "m": m, "t": t, "e": e, "n": len(support),
                       "roots": len(roots),
                       "k_class": (wg.cyclotomic.class_sum_dim(q, m, t, len(support))
                                   if fits else None)}
                ops.append(Op(
                    f"sweep-{p}-{a}-{m}-{','.join(map(str, coeffs))}",
                    partial(_sweep_run, wg, field, coeffs, support if roots else None),
                    partial(_sweep_check, ref=ref),
                ))
    return ops


WORKLOADS = {
    "tables": Workload(
        "tables",
        ((5, 1, 2), (7, 1, 2), (2, 3, 2), (3, 2, 2),
         (2, 2, 3), (5, 1, 3), (7, 1, 3), (2, 3, 3)),
        2, 60.0, _tables_ops),
    "verify_f1024": Workload("verify_f1024", ((2, 5, 2),), 1, 120.0, _verify_ops),
    "evidence": Workload(
        "evidence", tuple((p, a, m) for p, a, m, _ in EVIDENCE_INSTANCES),
        len(EVIDENCE_INSTANCES), 30.0, _evidence_ops),
    "sweep": Workload(
        "sweep", SWEEP_TOWERS,
        len(SWEEP_TOWERS) * len(SWEEP_SHAPES) * SWEEP_REPEATS, 5.0, _sweep_ops),
}
