"""Self-test of the benchmark (about a minute):

    python3 perfbench/selftest.py

* a tiny run (--seconds 0: the minimum number of passes or cycles) of each
  workload prints every end-to-end metric and is correct;
* a deliberately wrong output of one op, judged in-process by worker.Run,
  is counted as failed;
* a traced run prints every per-layer metric, and its traced and untraced
  outputs are identical;
* BENCHMARK.json names exactly the metrics run.py prints;
* without the program's source, run.py exits non-zero and prints no result.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402

# an op of each workload whose output is a value the gate can judge, and
# whether corrupting it makes the output silently wrong (a flipped verdict
# of an identity that should pass is a failure the program reports itself;
# eq1.13 should fail, so passing it is silently wrong)
WRONG_OPS = {"verify-all": ((0, False), ("eq1.13", True)), "eval-sweep": ((3, True),),
             "formal-qexp": ((0, True), (5, True))}


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def corrupt(out):
    """A deliberately wrong output of the same kind."""
    if isinstance(out, complex):
        return out + 1e-6
    if isinstance(out, tuple):
        return (not out[0],) + out[1:]
    if hasattr(out, "terms"):
        bad = copy.copy(out)
        bad.terms = dict(out.terms)
        key = next(iter(bad.terms))
        bad.terms[key] = bad.terms[key] + bad.terms[key]
        return bad
    return dataclasses.replace(out, passed=not out.passed)


def check_wrong_output(workload, i, silent):
    """Judge op i's output corrupted; it must count as one failure."""
    r = worker.Run(workload, 7)
    r.sample_every = 1                    # eval-sweep: send it to the oracle
    if isinstance(i, str):                # verify-all: the op of this id
        i = r.stream.ids.index(i)
    _, record, out = r.execute(i)
    assert not isinstance(out, Exception), out
    r.judge(i, record, corrupt(out))
    if r.sample:
        r.oracle_check()
    assert sum(r.failures.values()) == 1 and r.wrong == int(silent), \
        (workload, i, dict(r.failures), r.wrong)


def main() -> int:
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])

    for w in run.WORKLOADS:
        common = ["--workload", w, "--seed", "7", "--seconds", "0"]
        _, res = result(bench(*common, "--trace", "0"))
        ops = worker.MIN_UNITS[w] * worker.Run(w, 7).unit
        assert res["correct"] and res["attempted"] == ops, res
        assert set(res["metrics"]) == set(run.END_TO_END), res
        assert all(m["value"] > 0 for m in res["metrics"].values()), res

        for i, silent in WRONG_OPS[w]:
            check_wrong_output(w, i, silent)

        lines, traced = result(bench(*common, "--trace", "1"))
        assert "traced output identical to untraced: True" in lines, lines
        assert traced["correct"] and list(traced["metrics"]) == run.PER_LAYER
        print(f"{w}: tiny run, wrong-output and traced-run checks pass")

    bare = os.path.join(ROOT, ".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench("--workload", "verify-all", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    shutil.rmtree(bare)
    print("without the source: exits non-zero, prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
