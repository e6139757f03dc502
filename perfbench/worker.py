"""One fresh benchmark worker process.

    python3 perfbench/worker.py '{"workload": "sweep", "seed": 1,
                                  "mode": "pass", "trace": false,
                                  "probe": true}'

The worker times its set-up: importing wildgoppa and its command line, and
building every tower the workload uses together with its scalar level F_q.
In "pass" mode it then makes the operations from the seed, runs them once
back to back, and checks every answer after the pass. With "trace" set it
installs the tracer before the towers are built and writes its spans to the
"spans" path. With "probe" set it also reports set-up and pass time at the
reference speed (see SpeedProbe). It prints one JSON line.
"""

from __future__ import annotations

import hashlib
import json
import platform
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402  (standard library only)
import workloads  # noqa: E402  (standard library only)


class SpeedProbe:
    """Measures how fast the host runs this process while it works.

    The host's speed drifts by tens of percent within seconds, and CPU time
    drifts with it, so neither is steady alone. Every EVERY_S of wall time a
    SIGALRM handler times a fixed loop of the dict, list and tuple traffic
    that interpreted library code is made of. ``corrected`` scales each
    stretch of work by REF_S over the time of the loop that ends it, so a
    stretch counts as long as it would take at the speed where the loop
    takes REF_S. Time spent in the loop itself is left out, in both figures.
    """

    EVERY_S = 0.05
    LOOPS = 1200
    REF_S = 0.00055  # the loop's usual time on a 2.0 GHz x86-64 vCPU

    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (start, duration)
        self._busy = False

    def run(self, *_signal_args) -> None:
        if self._busy:  # the timer fired while a loop was running
            return
        self._busy = True
        start = time.perf_counter()
        table, recent = {}, []
        for i in range(self.LOOPS):
            key = i & 63
            table[key] = (table.get(key, 0) * 3 + i) % 257
            recent.append((key, table[key]))
            if len(recent) > 32:
                recent = recent[16:]
        self.marks.append((start, time.perf_counter() - start))
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.run)
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def corrected(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall, corrected) seconds from t0 to t1, less the probe loops.
        A loop must have run at or after t1."""
        wall = corrected = 0.0
        cursor = t0
        for start, took in self.marks:
            if start < t0:
                continue
            stretch = min(start, t1) - cursor
            wall += stretch
            corrected += stretch * self.REF_S / took
            if start >= t1:
                return wall, corrected
            cursor = start + took
        raise ValueError("no probe loop ran at or after the end of the interval")


def _digest(out) -> str:
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def main() -> int:
    req = json.loads(sys.argv[1])
    wl = workloads.WORKLOADS[req["workload"]]
    tracer = tracing.Tracer() if req["trace"] else None
    probe = SpeedProbe() if req["probe"] else None
    clock = time.perf_counter

    t0 = clock()
    if probe is not None:
        probe.start()
    import wildgoppa
    import wildgoppa.cli  # the package does not import its command line

    if tracer is not None:
        tracer.install(wildgoppa)
        tracer.op = "setup"
    for tower in wl.towers:
        wildgoppa.gf.build_tower(*tower).subfield
    if tracer is not None:
        tracer.op = None
    setup_s = clock() - t0
    if probe is not None:
        probe.run()

    if not Path(wildgoppa.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"wildgoppa imported from {wildgoppa.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    import numpy

    result = {"setup_s": setup_s, "python": platform.python_version(),
              "numpy": numpy.__version__}
    if probe is not None:
        result["setup_s"], result["setup_ref_s"] = probe.corrected(t0, t0 + setup_s)
    if req["mode"] == "pass":
        ops = wl.make_ops(wildgoppa, req["seed"])
        outputs, errors, starts, times = [], [], [], []
        pass_t0 = clock()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            start = clock()
            starts.append(start)
            try:
                out, err = op.run(), None
            except Exception as exc:  # a failed operation, not a failed run
                out, err = None, f"{type(exc).__name__}: {exc}"
            times.append(clock() - start)
            if tracer is not None:
                tracer.op = None
            outputs.append(out)
            errors.append(err)
        wall_s = clock() - pass_t0
        if probe is not None:
            probe.run()
            wall_s, result["wall_ref_s"] = probe.corrected(pass_t0, pass_t0 + wall_s)
            result["op_ref_s"] = [probe.corrected(t, t + dt)[1]
                                  for t, dt in zip(starts, times)]

        problems = []
        for op, out, err, dt in zip(ops, outputs, errors, times):
            try:
                bad = [err] if err else op.check(out)
            except Exception as exc:  # output too malformed to check
                bad = [f"unreadable answer: {type(exc).__name__}: {exc}"]
            if dt > wl.op_limit_s:
                bad.append(f"took {dt:.1f} s, over the {wl.op_limit_s:.0f} s limit")
            problems.append(bad)
        result.update({
            "wall_s": wall_s,
            "op_s": times,
            "ops": [op.name for op in ops],
            "digests": [_digest(out) for out in outputs],
            "problems": problems,
        })
        if tracer is not None:
            result["trace"] = tracing.summarize(tracer.spans, wall_s)
            tracer.dump(req["spans"])
    if probe is not None:
        probe.stop()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
