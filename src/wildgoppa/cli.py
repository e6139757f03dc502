"""Command line front end.

Subcommands cover the benchmark tables, single-instance identity checks,
dimension formulas, cyclotomic class listings, the trace-space evidence
battery, and exact minimum distances.  Exit codes: 0 success, 2 bad input,
3 a verified-claim falsification, 4 an enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from .errors import BudgetExceeded, FalsificationError
from .gf import build_tower, prime_factors
from .codes import DEFAULT_DISTANCE_BUDGET
from .cyclotomic import (
    _charge_modulus,
    class_sum_dim,
    closed_form,
    cyclotomic_classes,
    default_length,
    norm_exponent,
)
from .evidence import (
    _require_trace_zero_unit,
    _split_power,
    find_decomposition,
    startkey_search,
    verify_dual_reformulation,
    verify_K_properties,
    verify_trace_kernel_mod,
)
from .goppa import (
    GoppaSpec,
    full_support,
    goppa_code,
    goppa_power_codes,
    parse_goppa_poly_spec,
    parse_support_spec,
    punctured_support,
)
from .identities import (
    dimension_gap,
    rs_equivalence,
    verify_chain,
    verify_sugiyama,
    verify_theorem1,
    wild_exponent,
)
from .poly import (
    Polynomial,
    count_distinct_roots,
    find_irreducible,
)

# the two benchmark grids: (q, (p, a), t-range)
TABLE1_CELLS = [
    (5, (5, 1), (3,)),
    (7, (7, 1), (3, 4, 5)),
    (8, (2, 3), (3, 4, 5, 6)),
    (9, (3, 2), (3, 4, 5, 6, 7)),
]
TABLE2_QS = [(4, (2, 2)), (5, (5, 1)), (7, (7, 1)), (8, (2, 3))]


def _emit(args, payload: dict, text_lines) -> None:
    fmt = args.format or args.format_global or "text"
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _field_from(args):
    if args.m < 2:
        raise ValueError(f"need a proper tower m >= 2, got m={args.m}")
    return build_tower(args.p, args.a, args.m)


def _tower_q(args) -> int:
    """q = p^a for the subcommands that build no field, p checked as
    build_tower checks it. A class modulus q^m - 1 over budget is refused
    first, so no large p is factored and no large power formed."""
    if args.a < 1:
        raise ValueError("tower degrees must be >= 1")
    if args.m < 2:
        raise ValueError(f"need a proper extension m >= 2, got m={args.m}")
    _charge_modulus(args.p, args.a * args.m)
    if prime_factors(args.p) != [args.p]:
        raise ValueError(f"p must be prime, got {args.p}")
    return args.p**args.a


def _check_budget(args) -> None:
    if args.budget < 0:
        raise ValueError(f"--budget must be >= 0, got {args.budget}")


def _report_dict(rep) -> dict:
    """The one path from a report dataclass to JSON: its fields, with
    ``distinct_roots`` written as ``r``."""
    d = asdict(rep)
    if "distinct_roots" in d:
        d["r"] = d.pop("distinct_roots")
    return d


# --------------------------------------------------------------------- table


def _table1_row(q, tower, t, budget):
    p, a = tower
    field = build_tower(p, a, 2)
    g = find_irreducible(field, t)
    support = full_support(field)
    e = wild_exponent(field)
    low, high = goppa_power_codes(GoppaSpec(field, support, g), (e, e + 1))
    identity_ok = low == high
    k_formula = closed_form(q, 2, t)
    d = high.min_distance(budget) if high.k > 0 else None
    return {
        "q": q,
        "t": t,
        "n": high.n,
        "k": high.k,
        "k_formula": k_formula,
        "formula_ok": bool(high.k == k_formula),
        "identity_ok": bool(identity_ok),
        "d": d,
        "d_designed": t * (q + 1) + 1,
    }


def _table2_row(q, tower):
    p, a = tower
    field = build_tower(p, a, 3)
    x = Polynomial.x(field)
    support = punctured_support(field, [0])
    e1 = field.norm_exponent
    low, high = goppa_power_codes(GoppaSpec(field, support, x), (e1 - 1, e1))
    k_formula = closed_form(q, 3, 1)
    return {
        "q": q,
        "t": 1,
        "n": high.n,
        "k_low": low.k,
        "k": high.k,
        "k_formula": k_formula,
        "formula_ok": bool(high.k == k_formula),
        "gap": low.k - high.k,
    }


def cmd_table(args) -> int:
    _check_budget(args)
    if args.id == 1:
        rows = [_table1_row(q, tower, t, args.budget)
                for q, tower, ts in TABLE1_CELLS for t in ts]
    else:
        rows = [_table2_row(q, tower) for q, tower in TABLE2_QS]

    lines = []
    if args.id == 1:
        lines.append("q   t   n    k   formula identity d")
        for r in rows:
            d = f">={r['d_designed']}" if r["d"] is None else str(r["d"])
            lines.append(
                f"{r['q']:<3} {r['t']:<3} {r['n']:<4} {r['k']:<3} "
                f"{'ok' if r['formula_ok'] else 'MISMATCH':<7} "
                f"{'ok' if r['identity_ok'] else 'FAIL':<8} {d}"
            )
    else:
        lines.append("q   t   n    k(e) k(e+1) formula gap")
        for r in rows:
            lines.append(
                f"{r['q']:<3} {r['t']:<3} {r['n']:<4} {r['k_low']:<4} "
                f"{r['k']:<6} {'ok' if r['formula_ok'] else 'MISMATCH':<7} "
                f"{r['gap']}"
            )
    _emit(args, {"table": args.id, "rows": rows}, lines)

    bad = [r for r in rows if not r["formula_ok"] or not r.get("identity_ok", True)]
    if bad:
        raise FalsificationError(f"{len(bad)} table rows disagree")
    if args.id == 1 and args.strict_distance:
        missing = [r for r in rows if r["d"] is None]
        if missing:
            raise BudgetExceeded(
                f"{len(missing)} cells need more than {args.budget} codewords"
            )
    return 0


# -------------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    field = _field_from(args)
    g = parse_goppa_poly_spec(field, args.g)
    support = parse_support_spec(field, args.support)
    check = args.check
    if check == "auto":
        rootless = count_distinct_roots(g.monic()) == 0
        if rootless:
            check = "chain" if args.s is not None else "theorem1"
        else:
            check = "gap"
    s = args.s if args.s is not None else 1

    if check == "sugiyama":
        verify_sugiyama(field, support, g, s)
        payload = {"check": check, "equal": True, "s": s}
        lines = [f"exponents ({s * field.q - 1}, {s * field.q}) equal: yes"]
    elif check == "rs":
        rs_equivalence(field, support, g)
        payload = {"check": check, "equal": True}
        lines = ["norm-scaled evaluation code matches: yes"]
    else:
        if check == "theorem1":
            rep = verify_theorem1(field, support, g)
        elif check == "gap":
            rep = dimension_gap(field, support, g)
        else:
            rep = verify_chain(field, support, g, s)
        payload = {"check": check, "report": _report_dict(rep)}
        lines = [
            f"exponents {rep.exponents} dims {rep.dims}",
            f"gap {rep.gap} with {rep.distinct_roots} distinct roots" if check == "gap"
            else f"equal: {'yes' if all(rep.equal) else 'NO'}",
        ]
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------- dims


def cmd_dims(args) -> int:
    q = _tower_q(args)
    n = args.n if args.n is not None else default_length(q, args.m, args.t)
    k = class_sum_dim(q, args.m, args.t, n)
    payload = {"q": q, "m": args.m, "t": args.t, "n": n, "k": k}
    lines = [f"n {n}  k {k}"]
    try:
        cf = closed_form(q, args.m, args.t, n)
    except ValueError:
        cf = None
    if cf is not None:
        payload["k_closed_form"] = cf
        lines.append(f"closed form {cf}")
        if cf != k:
            raise FalsificationError(
                f"closed form {cf} disagrees with class sum {k}"
            )
    _emit(args, payload, lines)
    return 0


# ------------------------------------------------------------------- classes


def cmd_classes(args) -> int:
    q = _tower_q(args)
    if args.t is not None and args.t < 1:
        raise ValueError(f"need t >= 1, got {args.t}")
    dec = cyclotomic_classes(q, args.m)
    e1 = norm_exponent(q, args.m)
    window = args.t * e1 if args.t is not None else None
    rows = []
    for cls in dec.classes:
        row = {
            "rep": cls.rep,
            "size": cls.size,
            "members": list(cls.members),
        }
        if window is not None:
            row["in_window"] = cls.window_count(window)
        rows.append(row)
    payload = {"q": q, "m": args.m, "modulus": dec.modulus, "classes": rows}
    lines = [f"modulus {dec.modulus}, {len(rows)} classes"]
    for row in rows:
        extra = (
            f" window {row['in_window']}" if "in_window" in row else ""
        )
        lines.append(
            f"rep {row['rep']:>4} size {row['size']}{extra} "
            f"members {row['members']}"
        )
    if window is not None:
        payload["window"] = window
        lines.append(f"window [0, {window})")
    _emit(args, payload, lines)
    return 0


# ------------------------------------------------------------------ evidence


def cmd_evidence(args) -> int:
    field = _field_from(args)
    # checked before any work, also when a linear base factor skips the scans
    lam = args.lam
    if lam is None:
        lam = next(
            c for c in range(1, field.order) if int(field.trace_table[c]) == 0
        )
    lam = _require_trace_zero_unit(field, lam)
    g = parse_goppa_poly_spec(field, args.g).monic()
    decomp = _split_power(g)
    if decomp is None:
        raise ValueError("evidence checks need a power of an irreducible")
    h, s = decomp
    krep = verify_K_properties(field, g)
    tkrep = verify_trace_kernel_mod(field, h, s)
    payload = {
        "K": _report_dict(krep),
        "trace_kernel": _report_dict(tkrep),
    }
    lines = [
        f"dim K = {krep.dim_K} (expected {field.m * krep.t - 1}): ok",
        f"tau vanishes on K: {'yes' if krep.tau_vanishes else 'NO'}",
        f"K independent of multiples: rank {krep.dim_sum} = "
        f"{krep.dim_K} + {krep.dim_gF}",
        f"K mod base factor spans trace kernel: dim {tkrep.dim_reduced}",
    ]

    values = g.evaluate_codes(np.arange(field.order, dtype=np.int64))
    roots = [c for c in range(field.order) if int(values[c]) == 0]
    support = punctured_support(field, roots) if roots else full_support(field)
    drep = verify_dual_reformulation(field, support, g)
    payload["dual_spans"] = _report_dict(drep)
    lines.append(
        f"tau span gap {drep.gap} "
        f"({drep.dim_full} vs {drep.dim_multiples})"
    )

    if int(h.degree) >= 2:
        alpha = startkey_search(field, h, lam)
        witness, wrep = find_decomposition(field, g, lam)
        payload["startkey"] = list(alpha.coeffs)
        payload["decomposition"] = _report_dict(wrep)
        lines.append(f"startkey residue coeffs {list(alpha.coeffs)}")
        lines.append(
            f"decomposition witness coeffs {list(witness.coeffs)}: "
            f"{wrep.ambient_dim} = {wrep.dim_K} + 1 + {wrep.dim_gF}"
        )
    else:
        payload["decomposition"] = None
        lines.append("decomposition skipped: base factor is linear")
    _emit(args, payload, lines)
    return 0


# ------------------------------------------------------------------ distance


def cmd_distance(args) -> int:
    _check_budget(args)
    field = _field_from(args)
    g = parse_goppa_poly_spec(field, args.g)
    support = parse_support_spec(field, args.support)
    code = goppa_code(GoppaSpec(field, support, g))
    if code.k == 0:
        raise ValueError("zero code has no minimum distance")
    d = code.min_distance(args.budget)
    if d is None:
        raise BudgetExceeded(
            f"{field.q}^{code.k} codewords exceed budget {args.budget}"
        )
    payload = {"n": code.n, "k": code.k, "d": d}
    _emit(args, payload, [f"n {code.n}  k {code.k}  d {d}"])
    return 0


# ---------------------------------------------------------------------- main


def _add_field_args(sub):
    sub.add_argument("--p", type=int, required=True, help="prime of the tower")
    sub.add_argument("--a", type=int, default=1, help="subfield extension degree")
    sub.add_argument("--m", type=int, required=True, help="top extension degree")


def build_parser() -> argparse.ArgumentParser:
    # --format works on either side of the subcommand; the subparser copy
    # writes a different dest so it cannot clobber an earlier global value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default=None,
        help="output format (default text)",
    )
    parser = argparse.ArgumentParser(
        prog="wildgoppa",
        description="Goppa codes on field towers and their equal-power identities",
    )
    parser.add_argument(
        "--format", dest="format_global", choices=("text", "json"),
        default=None, help=argparse.SUPPRESS,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", parents=[common],
                             help="reproduce a benchmark table")
    p_table.add_argument("--id", type=int, choices=(1, 2), required=True)
    p_table.add_argument("--budget", type=int, default=DEFAULT_DISTANCE_BUDGET)
    p_table.add_argument(
        "--strict-distance", action="store_true",
        help="fail with exit 4 when a distance needs more than --budget codewords",
    )
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", parents=[common], help="check one identity instance")
    _add_field_args(p_verify)
    p_verify.add_argument("--g", required=True, help="polynomial spec")
    p_verify.add_argument("--support", default="full", help="support spec")
    p_verify.add_argument("--s", type=int, default=None)
    p_verify.add_argument(
        "--check",
        choices=("auto", "theorem1", "gap", "chain", "sugiyama", "rs"),
        default="auto",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_dims = sub.add_parser("dims", parents=[common], help="dimension by the class sum formula")
    _add_field_args(p_dims)
    p_dims.add_argument("--t", type=int, required=True)
    p_dims.add_argument("--n", type=int, default=None)
    p_dims.set_defaults(func=cmd_dims)

    p_classes = sub.add_parser("classes", parents=[common], help="cyclotomic classes of the tower")
    _add_field_args(p_classes)
    p_classes.add_argument("--t", type=int, default=None)
    p_classes.set_defaults(func=cmd_classes)

    p_ev = sub.add_parser("evidence", parents=[common], help="trace-space decomposition battery")
    _add_field_args(p_ev)
    p_ev.add_argument("--g", required=True, help="polynomial spec")
    p_ev.add_argument("--lam", type=int, default=None,
                      help="trace-zero unit code for the decomposition")
    p_ev.set_defaults(func=cmd_evidence)

    p_dist = sub.add_parser("distance", parents=[common], help="exact minimum distance")
    _add_field_args(p_dist)
    p_dist.add_argument("--g", required=True)
    p_dist.add_argument("--support", default="full")
    p_dist.add_argument("--budget", type=int, default=DEFAULT_DISTANCE_BUDGET)
    p_dist.set_defaults(func=cmd_distance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except FalsificationError as exc:
        print(f"FALSIFIED: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
