"""Regenerate record.json, the frozen verdicts and payloads of every instance.

    python3 perfbench/freeze.py

Run from the root of a checkout whose outputs are trusted; the gate in
run.py compares every later pass against this record.
"""

import json
import sys

from run import build, run_child
from workloads import INSTANCES, RECORD_PATH


def main():
    build()
    record = {}
    for iid in INSTANCES:
        out = run_child(["--instance", iid], 600)[1]["outcome"]
        if out.get("verdict") != "pass":
            print("%s did not pass: %s"
                  % (iid, out.get("error", out.get("verdict"))),
                  file=sys.stderr)
            return 1
        record[iid] = {"verdict": out["verdict"], "measured": out["measured"]}
    with open(RECORD_PATH, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
