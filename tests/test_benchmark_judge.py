"""The benchmark's judge, in process: a deliberately wrong output of one op
of each workload must count as exactly one failure, and as silently wrong
where it is.  This is the in-process part of perfbench/selftest.py, whose
tiny and traced runs take about a minute; it is loaded by path and
read-only.  Its verify-all case corrupts eq1.13, which must stay red:
passing it is the silently wrong output."""

import importlib.util
import pathlib

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_selftest",
    pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py")
selftest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(selftest)


@pytest.mark.parametrize("workload, op, silent", [
    (workload, op, silent)
    for workload, ops in selftest.WRONG_OPS.items() for op, silent in ops])
def test_wrong_output_counts_as_one_failure(workload, op, silent):
    selftest.check_wrong_output(workload, op, silent)
