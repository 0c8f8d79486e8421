"""Record golden.json: the simulated-output digest of every workload call.

Run from the root of a checkout, only when a change is meant to alter
simulated results::

    PYTHONPATH=src:perfbench PYTHONHASHSEED=0 python3 perfbench/record_golden.py

Each call of each workload runs once at the default seed; a call whose
oracle fails stops the recording.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro import perf
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    perf.configure(jobs=1, cache=None)
    golden = {}
    for name, cls in WORKLOADS.items():
        workload = cls(DEFAULT_SEED)
        digests = []
        for i in range(workload.n_calls):
            failed, digest = workload.check(i, workload.call(i))
            if failed:
                print(f"{name} call {i}: {failed} failed ops", file=sys.stderr)
                return 1
            digests.append(digest)
        golden[name] = digests
        print(f"{name}: {len(digests)} calls", file=sys.stderr)
    path = Path(__file__).resolve().parent / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
