"""Write golden.json: the output digests of every job for the development
seed and the held-out seed, taken from the current source tree.

    python3 perfbench/make_golden.py

Refuses to write when any output fails its second-route check.  Run it
only when the job lists change; the benchmark compares every run on
these seeds against the file.
"""

import json
import os
import sys

import run
import workloads

SEEDS = (workloads.DEV_SEED, workloads.HELD_OUT_SEED)


def main():
    if not os.path.isdir(os.path.join("src", "hopftower")):
        print("error: run from the repository root", file=sys.stderr)
        return 2
    digests = {}
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            result = run.run_worker(workload, seed, "check")
            if "crashed" in result:
                print(f"error: {workload} seed {seed}: {result['crashed']}",
                      file=sys.stderr)
                return 1
            if workload == "cli_json":
                ref = result["reference"]
                checks = {k: v["check"] for k, v in ref.items()}
                found = {k: v["digest"] for k, v in ref.items()}
            else:
                checks = result["checks"]
                found = result["digests"]
                if result["errors"]:
                    checks = dict(checks, **result["errors"])
            bad = {k: v for k, v in checks.items() if v is not True}
            if bad:
                print(f"error: {workload} seed {seed}: {bad}", file=sys.stderr)
                return 1
            digests.setdefault(workload, {})[str(seed)] = found
    golden = {"source_commit": run._git_commit(),
              "src_sha256": run._src_digest(),
              "dev_seed": workloads.DEV_SEED,
              "held_out_seed": workloads.HELD_OUT_SEED,
              "digests": digests}
    with open(os.path.join(run.HERE, "golden.json"), "w",
              encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
