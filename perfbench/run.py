"""rbscat verdict benchmark.

    python3 perfbench/run.py --workload nerve-homology --seed 1 --seconds 42 --trace 0

Run from the root of a checkout.  A closed loop with one client: every
pass is a fresh child process (cold ``_RBS_CACHE``, GL/submodule caches and
ring cache, as a CLI user pays them), one at a time, no threads.  With
``--trace 0`` a run makes passes while the next one still fits in
``--seconds`` (at least one), each after a few import-only children, and
reports the medians of the end-to-end metrics.  Times are CPU seconds of
the single-threaded child, which leave out time the host gives to other
guests.  With ``--trace 1`` it runs one untraced and one traced pass and
reports the per-layer metrics.  Every instance's verdict and payload are
checked against ``record.json``.

The last line of stdout is the result object; the line before it is the
full report (samples, per-instance outcomes, environment stamp), which is
also written with the spans under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import subprocess
import sys
import time

from spans import layer_metrics, merge_traces, metric_units
from stats import summary
from workloads import WORKLOADS, failure_reason, load_record, ordered_instances

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
SETUP_PER_PASS = 3
DEADLINE_S = 170          # every run exits well inside 180 s
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class SetupFailed(RuntimeError):
    """The program could not be built or imported."""


def run_child(args, timeout):
    """Run child.py; return (wall seconds from start to import, its
    document)."""
    env = dict(os.environ, **CHILD_ENV)
    started = time.monotonic()
    proc = subprocess.run([sys.executable, CHILD] + args, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise SetupFailed("child exited %d: %s" % (proc.returncode,
                                                   proc.stderr.strip()[-2000:]))
    doc = json.loads(proc.stdout)
    return doc["imported"] - started, doc


def _pass(ids, trace, deadline):
    """One cold pass: every instance in a fresh child, one at a time, so
    no instance finds a cache that another one filled.  A crash or timeout
    fails that instance and leaves the pass untimed."""
    doc = {"outcomes": [], "setup_wall": [], "import_cpu": []}
    children = []
    for iid in ids:
        args = ["--instance", iid] + (["--trace"] if trace else [])
        try:
            wall, child = run_child(args, max(1.0, deadline - time.monotonic()))
        except (SetupFailed, subprocess.TimeoutExpired, ValueError) as exc:
            doc["outcomes"].append({"id": iid,
                                    "error": "child failed: %s" % exc})
            continue
        doc["setup_wall"].append(wall)
        doc["import_cpu"].append(child["import_cpu_s"])
        doc["outcomes"].append(child["outcome"])
        children.append(child)
    if len(children) < len(ids):
        return doc
    doc.update(verdict_s=sum(c["verdict_s"] for c in children),
               cpu_s=sum(c["cpu_s"] for c in children),
               peak_rss_mb=max(c["peak_rss_mb"] for c in children),
               python=children[0]["python"], numpy=children[0]["numpy"],
               guards=children[0]["guards"])
    if trace:
        doc.update(merge_traces(children))
    return doc


def _gate(record, docs):
    """(attempted, failed, failures) over every instance of every pass."""
    attempted, failures = 0, []
    for doc in docs:
        for out in doc["outcomes"]:
            attempted += 1
            reason = failure_reason(record, out)
            if reason is not None:
                failures.append({"id": out["id"], "reason": reason})
    return attempted, len(failures), failures


def _source_digest():
    h = hashlib.sha256()
    for base, dirs, files in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_revision():
    """HEAD of the checkout's own .git; None outside a git checkout."""
    if not os.path.isdir(".git"):
        return None
    try:
        proc = subprocess.run(["git", "--git-dir=.git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def build():
    """Byte-compile the sources so every import reads cached bytecode."""
    if not os.path.isfile(os.path.join("src", "rbscat", "checks.py")):
        raise SetupFailed("no src/rbscat in %s; run from a checkout root"
                          % os.getcwd())
    if not compileall.compile_dir("src", quiet=1):
        raise SetupFailed("src does not compile")


def _measure(ids, seconds, deadline, report):
    """Untraced passes while the next one still fits in ``seconds`` (at
    least one), each after SETUP_PER_PASS import-only children, so that
    set-up samples are spread over the run like the passes."""
    setup_wall, setup_cpu, docs, durations = [], [], [], []
    start = time.monotonic()
    while True:
        for _ in range(SETUP_PER_PASS):
            wall, doc = run_child(["--setup-only"], 60)
            setup_wall.append(wall)
            setup_cpu.append(doc["import_cpu_s"])
        t0 = time.monotonic()
        doc = _pass(ids, False, deadline)
        docs.append(doc)
        setup_wall += doc["setup_wall"]
        setup_cpu += doc["import_cpu"]
        if "verdict_s" not in doc:
            break
        durations.append(time.monotonic() - t0)
        per_pass = (summary(durations)["median"]
                    + SETUP_PER_PASS * summary(setup_wall)["median"])
        if time.monotonic() - start + per_pass > seconds:
            break
    report["setup_s"] = summary(setup_cpu)
    report["setup_wall_s"] = summary(setup_wall)
    passes = [d for d in docs if "verdict_s" in d]
    if not passes:
        return docs, {}
    for name in ("verdict_s", "cpu_s", "peak_rss_mb"):
        report[name] = summary([d[name] for d in passes])
    values = {"verdict_cpu_s": (report["cpu_s"], "s"),
              "setup_s": (report["setup_s"], "s"),
              "peak_rss_mb": (report["peak_rss_mb"], "MB")}
    return docs, {name: {"value": stats["median"], "unit": unit}
                  for name, (stats, unit) in values.items()}


def _trace(ids, deadline, report):
    """One untraced and one traced pass; per-layer metrics from the second."""
    base, traced = docs = [_pass(ids, on, deadline) for on in (False, True)]
    if "spans" not in traced or "verdict_s" not in base:
        return docs, {}
    values = layer_metrics(traced["spans"], traced["counts"], traced["peaks"],
                           traced["guards"])
    values["trace.overhead_ratio"] = traced["cpu_s"] / base["cpu_s"]
    report["cpu_s"] = {"untraced": base["cpu_s"], "traced": traced["cpu_s"]}
    report["verdict_s"] = {"untraced": base["verdict_s"],
                           "traced": traced["verdict_s"]}
    return docs, {name: {"value": values[name], "unit": unit}
                  for name, unit in metric_units().items()}


def run(workload, seed, seconds, trace):
    start = time.monotonic()
    deadline = start + DEADLINE_S
    build()
    record = load_record()
    ids = ordered_instances(workload, seed)
    load_before = os.getloadavg()[0]
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "order": ids}
    if trace:
        docs, metrics = _trace(ids, deadline, report)
    else:
        docs, metrics = _measure(ids, seconds, deadline, report)
    attempted, failed, failures = _gate(record, docs)
    first = next((d for d in docs if "guards" in d), {})
    report.update(
        attempted=attempted, failed=failed, fail_ratio=failed / attempted,
        failures=failures,
        instance_seconds=[{o["id"]: o.get("seconds") for o in d["outcomes"]}
                          for d in docs],
        env={"git_revision": _git_revision(), "src_sha256": _source_digest(),
             "python": first.get("python"), "numpy": first.get("numpy"),
             "nproc": len(os.sched_getaffinity(0)),
             "loadavg_1m_before": load_before,
             "loadavg_1m_after": os.getloadavg()[0],
             "guards": first.get("guards"), "seed": seed},
        wall_s=time.monotonic() - start)
    _write_out(report, docs)
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return report, result


def _write_out(report, docs):
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (report["workload"], report["seed"],
                                   report["trace"])
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump(report, fh, indent=1)
    for doc in docs:
        if "spans" in doc:
            with open(os.path.join(OUT_DIR, stem + "-spans.json"), "w") as fh:
                json.dump({"spans": doc["spans"], "counts": doc["counts"],
                           "peaks": doc["peaks"]}, fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        report, result = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except (SetupFailed, OSError, subprocess.TimeoutExpired) as exc:
        print("benchmark set-up failed: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
