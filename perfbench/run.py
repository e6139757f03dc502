"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Load shape: a closed loop, one caller on one thread, operations back to
back. Each pass over a workload's operations runs in a fresh worker process
(perfbench/worker.py), so a library cache helps a pass only as much as it
would help one command-line invocation.

With --trace 0 the run makes passes (at least one), then set-up-only
workers until it has SETUP_SAMPLES set-up times, all in about --seconds,
and reports the end-to-end metrics. Its times are corrected for the host's
speed (worker.SpeedProbe). A workload with OP_QUANTILE_MIN_OPS or more
operations a pass also gets its operation latency quantiles printed. With
--trace 1 it runs one untraced and one traced pass and reports the
per-layer metrics derived from the spans.
Either way every answer is checked; a failed operation counts in "failed".

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. Details, including
the spans of a traced pass, are written under perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = ROOT / "perfbench-out"
SETUP_SAMPLES = 20
RUN_LIMIT_S = 170.0  # every worker is stopped by then
# per-operation latency quantiles are printed only for workloads with at
# least this many operations in a pass, so that 10 lie beyond the p90
OP_QUANTILE_MIN_OPS = 100
# the table command runs its rows on a thread pool when GOPPA_JOBS > 1;
# workers time the sequential path, which the tracer's span stack needs
WORKER_ENV = dict(os.environ, GOPPA_JOBS="1")


def _span(name, key):
    return lambda s: s["spans"].get(name, {}).get(key, 0)


def _ratio(name, num, den):
    def value(s):
        agg = s["spans"].get(name, {})
        return agg.get(num, 0) / agg[den] if agg.get(den) else 0.0
    return value


def _layer_sum(layer, key):
    return lambda s: sum(v[key] for n, v in s["spans"].items()
                         if n.split(".")[0] == layer)


# name, unit, value from a traced worker's summary; derived from spans only
PER_LAYER = [
    ("gf.build_tower.calls", "count", _span("gf.build_tower", "cold")),
    ("gf.build_tower.self_s", "s", _span("gf.build_tower", "self_s")),
    ("poly.is_irreducible.calls", "count", _span("poly.is_irreducible", "calls")),
    ("poly.is_irreducible.self_s", "s", _span("poly.is_irreducible", "self_s")),
    ("poly.is_irreducible.total_s", "s", _span("poly.is_irreducible", "total_s")),
    ("poly.find_irreducible.calls", "count", _span("poly.find_irreducible", "calls")),
    ("poly.find_irreducible.self_s", "s", _span("poly.find_irreducible", "self_s")),
    ("poly.find_irreducible.hit_ratio", "ratio",
     lambda s: (s["spans"].get("poly.find_irreducible", {}).get("calls", 0)
                / s["irreducible_tested"] if s["irreducible_tested"] else 0.0)),
    ("poly.pow_mod.calls", "count", _span("poly.pow_mod", "calls")),
    ("poly.pow_mod.self_s", "s", _span("poly.pow_mod", "self_s")),
    ("poly.count_distinct_roots.self_s", "s", _span("poly.count_distinct_roots", "self_s")),
    ("linalg.kernel.calls", "count", _span("linalg.kernel", "calls")),
    ("linalg.kernel.self_s", "s", _span("linalg.kernel", "self_s")),
    ("linalg.kernel.total_s", "s", _span("linalg.kernel", "total_s")),
    ("linalg.kernel.cells", "count", _span("linalg.kernel", "cells")),
    ("linalg.kernel.rank_ratio", "ratio", _ratio("linalg.kernel", "rank", "rows")),
    ("linalg.rref.calls", "count", _span("linalg.rref", "calls")),
    ("linalg.rref.self_s", "s", _span("linalg.rref", "self_s")),
    ("linalg.rref.cells", "count", _span("linalg.rref", "cells")),
    ("codes.expand_over_subfield.rows_out", "count",
     _span("codes.expand_over_subfield", "rows_out")),
    ("codes.subfield_kernel.self_s", "s", _span("codes.subfield_kernel", "self_s")),
    ("codes.LinearCode.contains.self_s", "s", _span("codes.LinearCode.contains", "self_s")),
    ("codes.min_distance.calls", "count", _span("codes.min_distance", "calls")),
    ("codes.min_distance.self_s", "s", _span("codes.min_distance", "self_s")),
    ("codes.min_distance.codewords", "count", _span("codes.min_distance", "codewords")),
    ("goppa.goppa_code.calls", "count", _span("goppa.goppa_code", "calls")),
    ("goppa.goppa_code.self_s", "s", _span("goppa.goppa_code", "self_s")),
    ("goppa.goppa_code.parity_rows", "count", _span("goppa.goppa_code", "parity_rows")),
    ("goppa.goppa_via_crt.self_s", "s", _span("goppa.goppa_via_crt", "self_s")),
    ("identities.verify_theorem1.self_s", "s", _span("identities.verify_theorem1", "self_s")),
    ("identities.dimension_gap.self_s", "s", _span("identities.dimension_gap", "self_s")),
    *[(f"evidence.{fn}.self_s", "s", _span(f"evidence.{fn}", "self_s"))
      for fn in ("verify_K_properties", "verify_trace_kernel_mod",
                 "verify_dual_reformulation", "startkey_search", "find_decomposition")],
    ("evidence.tau.calls", "count", _span("evidence.tau", "calls")),
    ("evidence.flatten_poly.calls", "count", _span("evidence.flatten_poly", "calls")),
    ("evidence.find_decomposition.candidates", "count",
     _span("evidence.find_decomposition", "candidates")),
    ("cyclotomic.class_sum_dim.self_s", "s", _span("cyclotomic.class_sum_dim", "self_s")),
    ("cyclotomic.closed_form.self_s", "s", _span("cyclotomic.closed_form", "self_s")),
    ("cli.main.self_s", "s", _span("cli.main", "self_s")),
    *[(f"{layer}.self_s", "s", _layer_sum(layer, "self_s")) for layer in LAYERS],
    *[(f"{layer}.errors", "count", _layer_sum(layer, "errors")) for layer in LAYERS],
    ("trace.coverage", "ratio", lambda s: s["covered_s"] / s["wall_s"]),
    ("trace.wall_s", "s", lambda s: s["wall_s"]),
    ("trace.overhead_s", "s", lambda s: s["overhead_s"]),
]


def _p90(values):
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _commit() -> str:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    """Starts workers one at a time and keeps the whole run under its limit."""

    def __init__(self, workload: str, seed: int, probe: bool = False):
        self.workload, self.seed, self.probe = workload, seed, probe
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def worker(self, mode: str, trace: bool = False):
        """(result dict or None, error text, seconds the worker took)."""
        req = {"workload": self.workload, "seed": self.seed, "mode": mode,
               "trace": trace, "probe": self.probe,
               "spans": str(OUT_DIR / f"spans-{self.workload}-seed{self.seed}.jsonl")}
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None, "no time left in the run", 0.0
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(req)],
                cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return None, f"worker passed the {RUN_LIMIT_S:.0f} s run limit", \
                time.monotonic() - start
        took = time.monotonic() - start
        if proc.returncode != 0:
            return None, f"worker exit {proc.returncode}: {proc.stderr[-2000:]}", took
        try:
            return json.loads(proc.stdout.splitlines()[-1]), "", took
        except (IndexError, json.JSONDecodeError):
            return None, f"unreadable worker output: {proc.stdout[-500:]!r}", took


def _collect(passes, op_count, errors):
    """attempted, failed, and one line per failure, over all pass workers.

    An operation fails if it raised, gave a wrong answer, ran past its
    limit, or printed something other than what the first pass printed for
    it; every operation of a pass whose worker died fails.
    """
    attempted = failed = 0
    notes = list(errors)
    first = next((p["digests"] for p in passes if p is not None), None)
    for p in passes:
        attempted += op_count
        if p is None:
            failed += op_count
            continue
        for i, bad in enumerate(p["problems"]):
            if p["digests"][i] != first[i]:
                bad = bad + ["output differs from the first pass"]
            if bad:
                failed += 1
                notes.append(f"{p['ops'][i]}: {'; '.join(bad)}")
    return attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "wildgoppa" / "__init__.py").is_file():
        print(f"error: no wildgoppa sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    # the speed probe runs in every worker of an untraced run, and in none
    # of a traced one, where its loops would land in the spans
    runner = Runner(args.workload, args.seed, probe=not args.trace)

    # warm-up: byte-compiles the sources and fills the file cache
    end = time.monotonic() + args.seconds
    warm, err, setup_took = runner.worker("setup")
    if warm is None:
        print(f"error: set-up failed: {err}", file=sys.stderr)
        return 1

    passes, errors, setups = [], [], []
    if args.trace:
        plain, err, _ = runner.worker("pass")
        traced, err2, _ = runner.worker("pass", trace=True)
        passes = [plain, traced]
        errors = [e for e in (err, err2) if e]
    else:
        # passes until the next one would leave too little of --seconds for
        # the set-up-only workers still to come
        took = []
        while True:
            res, err, dt = runner.worker("pass")
            passes.append(res)
            took.append(dt)
            if res is None:
                errors.append(err)
                break
            setups.append(res)
            reserve = max(0, SETUP_SAMPLES - len(setups) - 1) * setup_took
            if time.monotonic() + statistics.median(took) + reserve > end:
                break
        while len(setups) < SETUP_SAMPLES:
            res, err, _ = runner.worker("setup")
            if res is None:
                errors.append(err)
                break
            setups.append(res)

    attempted, failed, notes = _collect(passes, wl.op_count, errors)
    ok = [p for p in passes if p is not None]
    metrics, detail = {}, {}
    if args.trace:
        if len(ok) == 2:
            summary = dict(ok[1]["trace"], overhead_s=ok[1]["wall_s"] - ok[0]["wall_s"])
            for name, unit, value in PER_LAYER:
                metrics[name] = {"value": value(summary), "unit": unit}
            detail["spans"] = summary["spans"]
    elif ok:
        metrics = {
            "wall_s": {"value": statistics.median(p["wall_ref_s"] for p in ok),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(s["setup_ref_s"] for s in setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in ok),
                            "unit": "MB"},
        }
        detail = {"pass_wall_ref_s": [p["wall_ref_s"] for p in ok],
                  "pass_wall_s": [p["wall_s"] for p in ok],
                  "setup_ref_s": [s["setup_ref_s"] for s in setups],
                  "setup_s": [s["setup_s"] for s in setups],
                  "op_ref_s": [p["op_ref_s"] for p in ok],
                  "op_s": [p["op_s"] for p in ok]}
        if wl.op_count >= OP_QUANTILE_MIN_OPS:
            # latency quantiles within each pass, then the median across passes
            ops = detail["op_ref_s"]
            detail["op_p50_s"] = statistics.median(statistics.median(o) for o in ops)
            detail["op_p90_s"] = statistics.median(_p90(o) for o in ops)

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": warm["python"], "numpy": warm["numpy"], "commit": _commit(),
        "ops_per_pass": wl.op_count,
        "passes": len(passes),
    }
    print(f"workload {args.workload}: {len(passes)} passes of {wl.op_count} "
          f"operations, seed {args.seed}, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    if "pass_wall_s" in detail:
        walls = detail["pass_wall_ref_s"]
        q1, q3 = _quartiles(walls)
        print(f"  wall_s over {len(walls)} passes: quartiles {q1:.4f} .. {q3:.4f} s; "
              f"setup_s over {len(setups)} workers")
        print(f"  uncorrected wall_s {statistics.median(detail['pass_wall_s']):.6g} s, "
              f"setup_s {statistics.median(detail['setup_s']):.6g} s")
    for name in ("op_p50_s", "op_p90_s"):
        if name in detail:
            print(f"  {name:<42} {detail[name]:.6g} s")
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.4g}")
    for note in notes[:20]:
        print(f"  FAILED {note}")
    print("meta " + json.dumps(meta, sort_keys=True))

    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(result, meta=meta, detail=detail, failures=notes)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
