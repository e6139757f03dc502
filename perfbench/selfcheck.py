"""Self-checks for the benchmark itself.

    python3 perfbench/selfcheck.py

1. A deliberately wrong answer is counted as a failure: the library is
   patched in this process to report a dimension one too high, and the
   workload's own check must reject it and the run's tally count it.
2. Two traced passes with the same seed repeat every count exactly,
   among them poly.is_irreducible.calls, linalg.kernel.cells,
   codes.min_distance.codewords and evidence.find_decomposition.candidates.
3. Span times agree with the worker's own clock: each operation's top-level
   spans take no longer than the worker timed that operation, and the pass's
   top-level spans cover at least MIN_COVERAGE of its wall time and no more
   than all of it.
4. BENCHMARK.json lists exactly the metrics run.py reports.

Checks 2 and 3 run the traced workloads in TRACED_WORKLOADS with seed
SEED. Prints one line per check and exits non-zero if any fails.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
TRACED_WORKLOADS = ("evidence", "sweep")
MIN_COVERAGE = 0.95
COUNTERS = ("poly.is_irreducible.calls", "linalg.kernel.cells",
            "codes.min_distance.codewords", "evidence.find_decomposition.candidates")


def _tally(problems):
    """(attempted, failed) as a run counts them, for one pass with these
    per-operation problem lists."""
    n = len(problems)
    fake = {"problems": problems, "digests": ["same"] * n, "ops": [f"op{i}" for i in range(n)]}
    return run._collect([fake], n, [])[:2]


def check_wrong_answers(seed) -> list:
    import wildgoppa
    import wildgoppa.cli

    bad = []
    # verify_f1024: the command line prints dims one too high, exit 0
    wl = WORKLOADS["verify_f1024"]
    (op,) = wl.make_ops(wildgoppa, seed)
    real = wildgoppa.cli.verify_theorem1

    def off_by_one(field, support, g):
        # a stub, so the check runs without the long elimination
        k = wildgoppa.cyclotomic.closed_form(field.q, field.m, 3) + 1
        e = wildgoppa.identities.wild_exponent(field)
        return wildgoppa.identities.IdentityReport(
            q=field.q, m=field.m, t=3, n=len(support), exponents=(e, e + 1),
            dims=(k, k), equal=(True,), gap=0, distinct_roots=0, elapsed=0.0)

    wildgoppa.cli.verify_theorem1 = off_by_one
    try:
        problems = [op.check(op.run())]
    finally:
        wildgoppa.cli.verify_theorem1 = real
    attempted, failed = _tally(problems)
    if (attempted, failed) != (1, 1):
        bad.append(f"verify_f1024 with k off by one: {failed}/{attempted} failed")

    # sweep: verify_theorem1 reports k + 1 on rootless instances
    wl = WORKLOADS["sweep"]
    ops = [op for op in wl.make_ops(wildgoppa, seed)
           if op.check.keywords["ref"]["k_class"] is not None]
    clean = [op.check(op.run()) for op in ops]
    real = wildgoppa.identities.verify_theorem1

    def one_more(field, support, g):
        rep = real(field, support, g)
        return dataclasses.replace(rep, dims=tuple(k + 1 for k in rep.dims))

    wildgoppa.identities.verify_theorem1 = one_more
    try:
        wrong = [op.check(op.run()) for op in ops]
    finally:
        wildgoppa.identities.verify_theorem1 = real
    if any(clean):
        bad.append(f"sweep without the fault failed: {[p for p in clean if p][:3]}")
    if _tally(wrong) != (len(ops), len(ops)):
        bad.append("sweep with k off by one was not rejected on every instance")
    print(f"wrong answers: verify_f1024 1/1 rejected, sweep {sum(map(bool, wrong))}/"
          f"{len(ops)} rejected ({len(ops)} clean)")
    return bad


def check_traced(workload, seed) -> list:
    bad = []
    results = []
    for _ in range(2):
        res, err, _ = run.Runner(workload, seed).worker("pass", trace=True)
        if res is None:
            return [f"{workload}: traced worker failed: {err}"]
        if any(res["problems"]):
            bad.append(f"{workload}: failed operations {res['problems']}")
        results.append(res)
    values = [{name: value(dict(res["trace"], overhead_s=0.0))
               for name, unit, value in run.PER_LAYER if unit == "count"}
              for res in results]
    if values[0] != values[1]:
        diff = {k: (values[0][k], values[1][k]) for k in values[0]
                if values[0][k] != values[1][k]}
        bad.append(f"{workload}: counts differ between two traced runs: {diff}")
    if results[0]["digests"] != results[1]["digests"]:
        bad.append(f"{workload}: outputs differ between two traced runs")
    for res in results:
        s = res["trace"]
        for op, covered in s["covered_by_op"].items():
            if covered > res["op_s"][int(op)]:
                bad.append(f"{workload}: operation {op} has {covered:.6f} s under "
                           f"spans but took {res['op_s'][int(op)]:.6f} s")
        coverage = s["covered_s"] / res["wall_s"]
        if not MIN_COVERAGE <= coverage <= 1.0:
            bad.append(f"{workload}: coverage {coverage:.4f} outside "
                       f"[{MIN_COVERAGE}, 1]")
    named = {k: values[0][k] for k in COUNTERS}
    print(f"traced {workload}: counts {named}; coverage "
          f"{results[0]['trace']['covered_s'] / results[0]['wall_s']:.4f}")
    return bad


def check_declared() -> list:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in declared["end_to_end"]]
    layer = [(m["name"], m["unit"]) for m in declared["per_layer"]]
    bad = []
    if e2e != ["wall_s", "setup_s", "peak_rss_mb"]:
        bad.append(f"BENCHMARK.json end_to_end {e2e} differs from run.py")
    if layer != [(n, u) for n, u, _ in run.PER_LAYER]:
        bad.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
        bad.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    print(f"BENCHMARK.json: {len(e2e)} end-to-end, {len(layer)} per-layer metrics")
    return bad


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    bad = check_declared() + check_wrong_answers(SEED)
    for workload in TRACED_WORKLOADS:
        bad += check_traced(workload, SEED)
    for line in bad:
        print(f"FAIL {line}")
    print("selfcheck " + ("failed" if bad else "passed"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
