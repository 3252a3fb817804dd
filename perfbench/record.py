#!/usr/bin/env python3
"""Rewrite `expected.json` from one sweep of each workload, as this checkout
of qtheta produces them.

    python3 perfbench/record.py [WORKLOAD ...]     (default: every workload)

Refuses to record a workload when any of its reports fails.  The reports
must stay identical across performance changes; record only for a change
to qtheta that alters its reports on purpose, or to the workloads.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, ROOT, Runner, digest, now
from workloads import WORKLOADS


def main(argv) -> int:
    names = argv or sorted(WORKLOADS)
    path = HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.is_file() else {}
    tmp = ROOT / ".perfbench_tmp" / "record"
    try:
        for name in names:
            (tmp / name).mkdir(parents=True)
            result = Runner(name, 0, tmp / name, now() + 600).child("run")
            if result["failed"] or result["exit_code"]:
                print(f"{name}: {result['failed']} reports failed; not recorded",
                      file=sys.stderr)
                return 1
            hashes = sorted(result["hashes"])
            expected[name] = {"reports": len(hashes), "digest": digest(hashes),
                              "hashes": hashes}
            print(f"{name}: {len(hashes)} reports, digest {digest(hashes)}")
    finally:
        shutil.rmtree(tmp.parent, ignore_errors=True)
    path.write_text(json.dumps({k: expected[k] for k in sorted(expected,
                               key=list(WORKLOADS).index)}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
