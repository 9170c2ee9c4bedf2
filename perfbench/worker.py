"""One measurement of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1

Prints one JSON object on its last stdout line.  run.py starts it; see
run.py for the metrics it turns into.

--trace 0: after a short warm-up, run a fixed number of ops untraced (whole
   units, about S seconds of work at this workload's NOMINAL_OPS_S, at least
   MIN_UNITS), gate each op, read the peak RSS, then compare a systematic
   sample of the eval-sweep values with the mpmath references.  The op count
   depends only on the workload and S, never on the clock, so two runs with
   the same seed attempt the same ops and fail the same ones.
--trace 1: after the same warm-up, run a fixed prefix of the op stream
   (TRACE_OPS) untraced, then again under the tracer; the outputs must be
   identical, the throughput ratio is the tracing overhead, and the tracer
   gives the per-layer metrics.
--setup-only: import the program and build the inputs, then exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from array import array
from collections import Counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

# ops per indivisible group (a pass over the registry, one round-robin
# cycle), the minimum number of groups in a timed run, and the prefix a
# traced run repeats (None: two passes, so that the traced stream repeats
# inputs across passes as the timed one does)
UNIT = {"verify-all": None, "eval-sweep": 7, "formal-qexp": 10}
MIN_UNITS = {"verify-all": 3, "eval-sweep": 100, "formal-qexp": 10}
# ops per second of op time that sets the size of a timed run from --seconds:
# about the speed-scaled throughput of each workload at the baseline commit
# (NOTES.md), so that a run measures about S seconds of work there
NOMINAL_OPS_S = {"verify-all": 40.0, "eval-sweep": 3800.0, "formal-qexp": 36.0}
WARMUP_S = 2.0             # untimed ops from another seed's stream first
TRACE_OPS = {"verify-all": None, "eval-sweep": 1400, "formal-qexp": 100}
# fixed tail percentile per workload, so that a faster program does not move
# the tail to another percentile; each leaves at least ten samples beyond it
# in a run of BENCHMARK.json run_seconds (20 s)
TAIL_PCT = {"verify-all": 95.0, "eval-sweep": 99.0, "formal-qexp": 95.0}
BLOCK = 256                # ops generated ahead, outside the timed region
PROBE_EVERY_S = 0.025      # op time between two speed probes
ORACLE_SAMPLE = 200        # eval-sweep values compared with mpmath per run


def percentile(sorted_vals, pct):
    """Nearest-rank percentile and the number of samples above it."""
    n = len(sorted_vals)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_vals[rank - 1], n - rank


class Run:
    def __init__(self, name, seed):
        import workloads
        self.workloads = workloads
        self.stream = workloads.make(name, seed)
        self.name = name
        self.unit = UNIT[name] or self.stream.per_pass
        self.failures = Counter()     # failure label or exception type -> ops
        self.wrong = 0                # ops whose output was silently wrong
        self.seen = {}                # verify-all: id -> first report
        self.sample = []              # eval-sweep: (record, value) for mpmath
        self.sample_every = None      # eval-sweep: sample one cycle in k
        self._block_start = -1
        self._block = []

    def op(self, i):
        if not self._block_start <= i < self._block_start + len(self._block):
            self._block_start = i
            self._block = [self.stream.op(k) for k in range(i, i + BLOCK)]
        return self._block[i - self._block_start]

    def execute(self, i, runner=None):
        """Run op i; returns (seconds, gate record, output or exception)."""
        call, record = self.op(i)
        t0 = time.perf_counter()
        try:
            out = runner(i, call) if runner else call()
        except Exception as exc:            # a failed op is counted, not fatal
            return time.perf_counter() - t0, record, exc
        return time.perf_counter() - t0, record, out

    def judge(self, i, record, out):
        """Apply the gate to one op's result and count a failure."""
        if isinstance(out, Exception):
            self.failures[type(out).__name__] += 1
            return
        label = self.stream.gate(record, out)
        if self.name == "verify-all":
            first = self.seen.setdefault(record, self.stream.fingerprint(out))
            if first != self.stream.fingerprint(out):
                label = "report-not-reproducible"
        if label is None and self.name == "eval-sweep" and self.sample_every \
                and (i // self.unit) % self.sample_every == 0 \
                and len(self.sample) < ORACLE_SAMPLE:
            self.sample.append((i, record, out))
        if label is not None:
            self.failures[label] += 1
            if label not in self.workloads.REPORTED_BY_PROGRAM:
                self.wrong += 1

    def oracle_check(self):
        """Compare the sampled eval-sweep values with mpmath."""
        import oracle
        from mockforms.qkernel import DEFAULT_POLICY
        worst = 0.0
        for i, (kernel, p), value in self.sample:
            err, bound = oracle.check(kernel, p, value, DEFAULT_POLICY.tol)
            worst = max(worst, err / bound)
            if not err <= bound:
                self.failures["oracle-mismatch"] += 1
                self.wrong += 1
        return worst


def warm_up(name, seed):
    """Run ops of an unrelated stream for WARMUP_S seconds, unmeasured: the
    first pass of a fresh interpreter runs several percent slower."""
    import workloads
    stream = workloads.make(name, -1 - seed)
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < WARMUP_S:
        call, _ = stream.op(i)
        try:
            call()
        except Exception:       # failures of the warm-up stream are not counted
            pass
        i += 1


class Scaled:
    """Per-op wall times and the same times scaled to the reference speed:
    a speed probe runs after every PROBE_EVERY_S of op time, and the ops
    timed between two probes are scaled by their mean (speed.py)."""

    def __init__(self):
        # arrays, not lists of floats: 16 bytes an op, so that a program
        # that runs more ops in a run reads barely more peak RSS
        self.raw, self.scaled = array("d"), array("d")
        self._before, self._stretch = speed.probe(), 0.0

    def add(self, dt):
        self.raw.append(dt)
        self._stretch += dt
        if self._stretch >= PROBE_EVERY_S:
            self._close()

    def _close(self):
        after = speed.probe()
        f = speed.factor(self._before, after)
        self.scaled.extend(x * f for x in self.raw[len(self.scaled):])
        self._before, self._stretch = after, 0.0

    def finish(self):
        if len(self.scaled) < len(self.raw):
            self._close()
        return self


def run_ops(run, seconds):
    """The number of ops of a timed run: whole units, about `seconds` of
    work at NOMINAL_OPS_S, and at least MIN_UNITS units."""
    units = round(seconds * NOMINAL_OPS_S[run.name] / run.unit)
    return max(MIN_UNITS[run.name], units) * run.unit


def timed(run, n_ops):
    """Run ops 0 .. n_ops - 1; returns their Scaled latencies."""
    if run.name == "eval-sweep":
        run.sample_every = max(1, n_ops // ORACLE_SAMPLE)
    lat = Scaled()
    for i in range(n_ops):
        dt, record, out = run.execute(i)
        lat.add(dt)
        run.judge(i, record, out)
    return lat.finish()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default="")
    a = ap.parse_args(argv)

    import mockforms.cli  # noqa: F401  (the set-up a user of the CLI pays)
    run = Run(a.workload, a.seed)
    run.op(0)
    if a.setup_only:
        return 0

    res = {"workload": a.workload, "seed": a.seed}
    warm_up(a.workload, a.seed)
    if not a.trace:
        times = timed(run, run_ops(run, a.seconds))
        lat, raw = times.scaled, times.raw
        res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        res["oracle_worst"] = run.oracle_check() if run.sample else None
        res["oracle_checked"] = len(run.sample)
        s = sorted(lat)
        tail, beyond = percentile(s, TAIL_PCT[a.workload])
        res.update(ops=len(lat), throughput_ops_s=len(lat) / sum(lat),
                   op_p50_ms=1e3 * percentile(s, 50.0)[0],
                   op_tail_ms=1e3 * tail, tail_pct=TAIL_PCT[a.workload],
                   tail_beyond=beyond, raw_throughput_ops_s=len(raw) / sum(raw),
                   raw_op_p50_ms=1e3 * percentile(sorted(raw), 50.0)[0])
    else:
        res.update(trace_run(run, TRACE_OPS[a.workload] or 2 * run.unit, a.spans))
    res["failed"] = sum(run.failures.values())
    res["failures"] = dict(run.failures)
    res["wrong"] = run.wrong
    res["attempted"] = res.get("ops", res.get("trace_ops"))
    print(json.dumps(res))
    return 0


def trace_run(run, n_ops, spans_path):
    from tracer import Tracer
    base_lat, base_out = Scaled(), []
    if run.name == "eval-sweep":
        run.sample_every = max(1, n_ops // ORACLE_SAMPLE)
    for i in range(n_ops):
        dt, record, out = run.execute(i)
        base_lat.add(dt)
        base_out.append(out if isinstance(out, Exception) else run.stream.fingerprint(out))
        run.judge(i, record, out)
    base_lat.finish()
    tracer = Tracer()
    tracer.install()
    traced_lat, identical = Scaled(), True
    try:
        for i in range(n_ops):
            if i == n_ops // 2:
                tracer.mark_half()
            dt, record, out = run.execute(i, tracer.run_op)
            traced_lat.add(dt)
            if isinstance(out, Exception):
                same = type(out) is type(base_out[i]) and str(out) == str(base_out[i])
            else:
                same = run.stream.fingerprint(out) == base_out[i]
            identical = identical and same
        traced_lat.finish()
    finally:
        tracer.uninstall()
    oracle_worst = run.oracle_check() if run.sample else None
    if not identical:
        run.failures["traced-output-differs"] += 1
        run.wrong += 1
    if spans_path:
        tracer.write_spans(spans_path)
    layers = tracer.metrics()
    layers["trace.throughput_ratio"] = sum(base_lat.scaled) / sum(traced_lat.scaled)
    return {"trace_ops": n_ops, "identical": identical, "oracle_worst": oracle_worst,
            "oracle_checked": len(run.sample), "layers": layers}


if __name__ == "__main__":
    sys.exit(main())
