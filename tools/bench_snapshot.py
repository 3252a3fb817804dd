"""Write BENCH_<sha>.json at the repo root: one end-to-end run of each
benchmark workload, as perfbench/run.py prints it, for the checked-out
commit.

    python tools/bench_snapshot.py

Each workload runs once, `python3 perfbench/run.py --workload W --seed 1
--seconds 20 --trace 0`, in a fresh process.  The file holds, per
workload, the command, its exit code, its `#` lines (environment, notes,
warnings) and its last line, the JSON result.  perfbench/ is only run,
never changed.  Only the standard library is used.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("theorem-sweep", "jet-sweep", "tan-sum", "pool-all")


def main() -> int:
    sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    runs = {}
    for name in WORKLOADS:
        cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "1",
               "--seconds", "20", "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.splitlines()
        runs[name] = {
            "command": " ".join(["python3", *cmd[1:]]),
            "exit_code": out.returncode,
            "comments": [line for line in lines if line.startswith("#")],
            "result": json.loads(lines[-1]) if lines else None,
        }
        print(name, out.returncode, file=sys.stderr)
    path = ROOT / f"BENCH_{sha}.json"
    path.write_text(json.dumps({"commit": sha, "workloads": runs}, indent=1) + "\n")
    print(path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
