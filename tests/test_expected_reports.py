"""Every benchmark workload, run serially, must print the reports whose
digests perfbench/expected.json records, so a changed report fails the
ordinary test run and not only the benchmark's correctness check."""

import json
import sys
import types
from pathlib import Path

import pytest

from qtheta.identities import run_jobs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    # executed from its source text, so nothing is written under perfbench/;
    # registered in sys.modules, which its dataclass looks itself up in
    name = "perfbench_workloads"
    if name not in sys.modules:
        mod = types.ModuleType(name)
        path = PERFBENCH / "workloads.py"
        mod.__file__ = str(path)
        sys.modules[name] = mod
        exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    return sys.modules[name]


EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_workload_reports_match_the_expected_digest(name):
    wl = _load_workloads()
    reports = run_jobs(wl.build_jobs(wl.WORKLOADS[name], 0), 1)
    hashes = [wl.report_hash(r.to_json_obj()) for r in reports]
    assert len(hashes) == EXPECTED[name]["reports"]
    assert wl.digest(hashes) == EXPECTED[name]["digest"]
