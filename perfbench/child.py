"""One instance of a benchmark pass, in a fresh interpreter.

Run from the root of a checkout by run.py, never by hand:

    python3 perfbench/child.py --setup-only
    python3 perfbench/child.py --instance ID [--trace]

Prints one JSON object on stdout.  ``imported`` is the monotonic clock
right after ``rbscat.checks`` is imported; the parent subtracts its own
clock reading taken before the process started.  ``import_cpu_s`` is the
CPU time the process had used by then.
"""

import sys
import time

sys.path.insert(0, "src")
from rbscat import checks  # noqa: E402

IMPORTED = time.monotonic()
IMPORT_CPU_S = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict  # noqa: E402

import numpy  # noqa: E402

from workloads import INSTANCES, normalize  # noqa: E402


def run_instance(iid, tracer=None):
    """(wall seconds, CPU seconds, outcome) of one check; a raising check
    gives an outcome with ``error``."""
    check, params = INSTANCES[iid]
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        if tracer is None:
            rep = checks.run_check(check, **params)
        else:
            rep = tracer.call("checks." + iid, checks.run_check,
                              (check,), params)
        outcome = {"id": iid, "verdict": rep.verdict,
                   "measured": rep.measured}
    except Exception:
        outcome = {"id": iid, "error": traceback.format_exc()}
    verdict_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu
    outcome["seconds"] = verdict_s
    if "measured" in outcome:
        outcome["measured"] = normalize(outcome["measured"])
    return verdict_s, cpu_s, outcome


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--instance")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    doc = {"imported": IMPORTED, "import_cpu_s": IMPORT_CPU_S}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        verdict_s, cpu_s, outcome = run_instance(args.instance, tracer)
        doc.update(
            verdict_s=verdict_s, cpu_s=cpu_s, outcome=outcome,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            python=platform.python_version(), numpy=numpy.__version__,
            guards=asdict(checks.DEFAULT))
        if tracer is not None:
            tracer.uninstall()
            doc.update(spans=tracer.spans, counts=tracer.counts,
                       peaks=tracer.peaks)
    json.dump(doc, sys.stdout)


if __name__ == "__main__":
    main()
