"""Write bench/golden.json from the program in ./src.

    python3 bench/make_golden.py

Run it only on a commit whose outputs are known to be right: the golden files
are what every later sample is checked against.  For each CLI workload, at
full and smoke size, it stores the digest of the canonical JSON output or,
for verify, the number of runs of each check in the ledger.
"""

import hashlib
import json

from run import GOLDEN, ledger_runs, spawn, warm_up
from workloads import WORKLOADS


def main() -> None:
    warm_up()
    golden = {}
    for workload in WORKLOADS.values():
        for argv in (workload.argv, workload.smoke_argv):
            if not argv:
                continue
            sample = spawn({"argv": list(argv), "queries": [], "trace": False, "ops": 1}, 120)
            if sample is None or sample["exit"] != 0:
                raise SystemExit(f"{' '.join(argv)} failed")
            out = sample["stdout"]
            if argv[0] == "verify":
                entry = {"ledger": ledger_runs(out)}
            else:
                entry = {"sha256": hashlib.sha256(out.encode()).hexdigest(), "bytes": len(out.encode())}
            golden[" ".join(argv)] = entry
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
