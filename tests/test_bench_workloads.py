"""The benchmark's ``score`` and ``text-sweep`` workloads, run in-process on
their seed-1 inputs: every call exits as the workload expects and passes the
workload's own check. ``surgery`` is left out: its inputs are 133 MB."""

from __future__ import annotations

import contextlib
import io
import sys

import pytest

import sidkit.cli
from conftest import BENCH, load_bench


@pytest.fixture(scope="module")
def workloads():
    """``bench/workloads.py``, which imports ``inputs`` and ``reference`` from ``bench/``."""
    sys.path.insert(0, str(BENCH))
    try:
        yield load_bench("workloads")
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("name", ["score", "text-sweep"])
def test_a_benchmark_workload_passes_its_own_checks(workloads, name, tmp_path, monkeypatch, capsys):
    workload = workloads.WORKLOADS[name]()
    workload.generate(tmp_path, 1)
    monkeypatch.chdir(tmp_path)
    for call in workload.calls():
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = sidkit.cli.main(list(call.argv))
        assert code == call.expect, (call.argv, stderr.getvalue())
        assert call.check(tmp_path) == [], call.argv
