"""The benchmark's workloads against their own pinned checks, once each.

perfbench/run.py counts a run as incorrect when a workload's ``check``
reports a failed item: a sweep category whose verdict tallies differ from
the pinned signature, a completion of another size, or a search whose stdout
or examined categories differ.  Here each workload makes one untimed
``load``, ``run`` and ``check`` on the ``starkit`` these tests already
imported, with ``time.perf_counter`` as the clock, so such a change fails
the test suite before any timed run.  ``fresh_starkit`` is never called: it
would drop the package the other tests hold."""
from __future__ import annotations

import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

import starkit
import starkit.cli  # noqa: F401  (search6 runs through the command line)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py as a module; it puts perfbench/ first on sys.path to
    import its helpers, which is undone here."""
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


@pytest.mark.parametrize("name, attempted", [("sweep", 3257), ("complete", 4), ("search6", 1)])
def test_workload_passes_its_pinned_check(bench, monkeypatch, name, attempted):
    monkeypatch.delenv("STARKIT_MAX_MORPHISMS", raising=False)  # as run.py does
    expected = json.loads((PERFBENCH / "expected.json").read_text("utf-8"))
    workload = bench.WORKLOADS[name](expected, 1)
    items: list[float] = []
    outputs = workload.run(workload.load(starkit), items, time.perf_counter)
    assert workload.check(outputs) == (attempted, 0)
    assert items
