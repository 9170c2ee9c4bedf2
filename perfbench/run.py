"""Benchmark entry point.

    python3 perfbench/run.py --workload {verify-all,eval-sweep,formal-qexp,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from
./src; nothing is installed or built).  Single-threaded, closed loop, one
client: each op starts when the previous one has returned.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run (see NOTES.md for definitions, couplings and the
baseline).  Human-readable report lines come first; the last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}.  The full
per-function table and all spans of a traced run are written to
.perfbench_out/ in the checkout (spans: one file per workload, replaced by
the next traced run of that workload).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("verify-all", "eval-sweep", "formal-qexp")
SETUP_RUNS = 21
CHILD_TIMEOUT = 150

END_TO_END = {            # name -> unit
    "throughput_ops_s": "op/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

MODULES = ("qkernel", "theta", "mock", "modification", "formal", "family_n3",
           "family_n4", "family_d21a", "verifier", "cli")

# The per-layer metrics printed with --trace 1 (BENCHMARK.json lists the same
# names).  The full table of every wrapped function goes to .perfbench_out/.
PER_LAYER = (
    [f"{m}.self_s" for m in MODULES]
    + [f"{m}.import_s" for m in MODULES]
    + [f"{fn}.{k}" for fn in (
        "qkernel.sum_bilateral", "qkernel.lattice_distance", "qkernel.e2pi",
        "qkernel.guard_pole", "qkernel.HalfInt.of", "theta.ThetaIndex.base",
        "theta.theta_jm", "theta.dedekind_eta", "theta.jacobi_theta",
        "theta.theta_pair_diff", "mock.phi1", "mock.phi", "mock.phi_d0",
        "theta.ThetaIndex.of", "modification.phi_add",
        "modification.phi_add_d0", "modification.phi_tilde",
        "modification.phi_tilde_reduced", "modification.psi_tilde",
        "formal.FormalSeries.__mul__", "formal.expand_phi1",
        "formal.expand_eta_quotient", "verifier.verify", "verifier.standard_grid")
       for k in ("calls", "self_s", "distinct_ratio", "errors")]
    + ["qkernel.sum_bilateral.terms", "kernels.calls", "kernels.distinct_ratio",
       "kernels.first_half_distinct_ratio", "bench.self_s",
       "trace.throughput_ratio", "trace.spans"]
)


def fail(msg: str) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return 2


def child(args, timeout=CHILD_TIMEOUT):
    """Run a child interpreter in the checkout; returns (seconds, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable] + args, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return dt, proc.stdout, proc.stderr


def setup_seconds(workload, seed):
    """Median time of fresh interpreters that import mockforms.cli, build
    the registry and generate the workload's first block of inputs, scaled
    by speed probes taken around each (speed.py); and the raw median.  One
    unmeasured run first, so that byte-compilation is not counted."""
    cmd = ["perfbench/worker.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--setup-only"]
    child(cmd)
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        before = speed.probe()
        dt = child(cmd)[0]
        raw.append(dt)
        scaled.append(dt * speed.factor(before, speed.probe()))
    return statistics.median(scaled), statistics.median(raw)


def import_seconds():
    """Self time of each module's import, from ``-X importtime`` (median of 3)."""
    runs = []
    for _ in range(3):
        _, _, err = child(["-X", "importtime", "-c", "import sys; sys.path.insert(0, 'src');"
                           " import mockforms.cli"])
        got = {}
        for line in err.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s+mockforms\.(\w+)$", line)
            if m:
                got[m.group(2)] = int(m.group(1)) * 1e-6
        runs.append(got)
    return {m: statistics.median(r.get(m, 0.0) for r in runs) for m in MODULES}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="'all' runs the three workloads one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mockforms", "__init__.py")):
        return fail(f"no program source at {SRC}; run from the root of a checkout")
    if a.workload == "all":
        return max(measure(w, a) for w in WORKLOADS)
    return measure(a.workload, a)


def measure(workload, a) -> int:
    """Run one workload, print its report lines and its JSON result."""
    cmd = ["perfbench/worker.py", "--workload", workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    tag = f"{workload}-{a.seed}"
    if a.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(OUT, f"spans-{workload}.bin")]

    try:
        setup, raw_setup = (None, None) if a.trace else setup_seconds(workload, a.seed)
        imports = import_seconds() if a.trace else None
        _, out, _ = child(cmd)
        res = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        return fail(str(exc))

    correct = res["wrong"] == 0
    lines = [f"workload {workload} seed {a.seed} trace {a.trace}",
             f"attempted {res['attempted']} failed {res['failed']} "
             f"error_rate {res['failed'] / res['attempted']:.6g} ratio",
             f"failures by type {json.dumps(res['failures'], sort_keys=True)}"]
    if res["oracle_checked"]:
        lines.append(f"oracle: {res['oracle_checked']} values checked against mpmath, "
                     f"worst error/bound {res['oracle_worst']:.3g}")
    if not a.trace:
        metrics = {k: res[k] for k in END_TO_END if k in res}
        metrics["setup_s"] = setup
        lines.append(f"op_tail_ms is p{res['tail_pct']:g} with {res['tail_beyond']} "
                     f"of {res['ops']} samples beyond it")
        lines.append(f"raw wall clock: throughput_ops_s {res['raw_throughput_ops_s']:.6g} "
                     f"op_p50_ms {res['raw_op_p50_ms']:.6g} setup_s {raw_setup:.6g}")
    else:
        layers = res["layers"]
        for m in MODULES:
            layers[f"{m}.import_s"] = imports[m]
        with open(os.path.join(OUT, f"layers-{tag}.json"), "w") as fh:
            json.dump(layers, fh, indent=1, sort_keys=True)
        metrics = {k: layers.get(k, 0) for k in PER_LAYER}
        lines.append(f"traced output identical to untraced: {res['identical']}")
        lines.append(f"tracing overhead: traced/untraced throughput "
                     f"{layers['trace.throughput_ratio']:.4f} over {res['trace_ops']} ops")
        if layers["kernels.calls"]:
            lines.append(f"share of repeated kernel inputs: "
                         f"{1 - layers['kernels.first_half_distinct_ratio']:.4f} over "
                         f"the first half of the traced ops, "
                         f"{1 - layers['kernels.distinct_ratio']:.4f} over all "
                         f"{res['trace_ops']} ({layers['kernels.calls']} kernel calls)")
        else:
            lines.append("no numeric kernel calls")
    units = {k: END_TO_END.get(k) or unit_of(k) for k in metrics}
    for k, v in metrics.items():
        lines.append(f"  {k} = {v} {units[k]}")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("self_s", "import_s"):
        return "s"
    if last.endswith("distinct_ratio") or last == "throughput_ratio":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
