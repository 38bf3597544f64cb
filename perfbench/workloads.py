"""Workload definitions and the frozen-record correctness gate.

Each workload is a fixed list of registry checks (``rbscat.checks.run_check``,
the calls ``rbscat verify`` makes), chosen so that one library module does
most of the work.  The instances are fixed because their certified numbers
are the product; the workload seed only permutes their order.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD_PATH = os.path.join(HERE, "record.json")

# workload -> [(instance id, check name, params)]
#
# A pass lasts about 8-15 s, so a run of --seconds 42 holds several
# passes and reports their median.
WORKLOADS = {
    # integer elimination on the wide depth-2 boundaries of Z4^2 (29,191
    # columns; a Z/p^k ring with Howell forms) and of F3^2; the resolution
    # engine is not called
    "nerve-homology": [
        ("pi1-Z4-2", "pi1", {"spec": "Z4", "n": 2, "depth": 2}),
        ("pi1-F3-2", "pi1", {"spec": "F3", "n": 2, "depth": 2}),
    ],
    # Tor in degrees 0 and 1 over the category algebra of the F3^2 flag
    # category and of BGL_2(F3); no nerve and no Smith normal form
    "tor-resolution": [
        ("bgl-comparison-F3-2-l2-d1", "bgl-comparison",
         {"spec": "F3", "n": 2, "ell": 2, "max_degree": 1}),
    ],
    # composition-table builds and axiom validation in two regimes: hundreds
    # of small fiber and subcategory tables, and the 53.2 M-triple table of
    # build_rbs("F2", 3) (validation samples it), which sets peak memory
    "fincat-build": [
        ("proper-p-F3-2", "proper-p", {"spec": "F3", "n": 2}),
        ("inductive-F3-2", "inductive", {"spec": "F3", "n": 2}),
        ("q-suite-2-2-3", "q-suite", {"q": 2, "N": 2, "cap": 3}),
        ("poset-regularity-F2-3", "poset-regularity", {"spec": "F2", "n": 3}),
    ],
}

INSTANCES = {iid: (check, params)
             for rows in WORKLOADS.values() for iid, check, params in rows}


def ordered_instances(workload, seed):
    """Instance ids of the workload in the order the seed picks."""
    ids = [iid for iid, _, _ in WORKLOADS[workload]]
    random.Random(seed).shuffle(ids)
    return ids


def normalize(payload):
    """The JSON form of a report payload (tuples as lists, keys as strings)."""
    return json.loads(json.dumps(payload, sort_keys=True))


def load_record(path=RECORD_PATH):
    with open(path) as fh:
        return json.load(fh)


def failure_reason(record, outcome):
    """Why one instance outcome fails the gate, or None when it passes.

    ``outcome`` is the child's entry for one instance: ``id`` plus either
    ``error`` (the check raised) or ``verdict`` and ``measured``.
    """
    iid = outcome["id"]
    if "error" in outcome:
        return "raised %s" % outcome["error"].splitlines()[-1]
    if outcome["verdict"] != "pass":
        return "verdict %r" % outcome["verdict"]
    frozen = record.get(iid)
    if frozen is None:
        return "no frozen record for %r" % iid
    if outcome["verdict"] != frozen["verdict"]:
        return "verdict %r, record %r" % (outcome["verdict"], frozen["verdict"])
    if normalize(outcome["measured"]) != frozen["measured"]:
        return "payload differs from the frozen record"
    return None
