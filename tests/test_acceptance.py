"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Expected values are exact; tolerances are equality of integers
and of torsion lists.  Where a stated nerve depth is not reachable
within the simplex guards (the categories contain one-object group
subcategories whose nondegenerate nerve grows as (|G|-1)^k), the
criterion's quantity is computed by an engine that certifies it exactly
at that degree: the 2-truncated nerve for H_1 (H_1 only depends on the
2-truncation) and the category-algebra resolution for deeper F_p
homology; the depth/engine actually used is printed.
"""

import time

import pytest

from rbscat.checks import (
    check_bgl_comparison,
    check_fp_acyclic,
    check_infra,
    check_inductive,
    check_pi1,
    check_poset_regularity,
    check_proper_p,
    check_q_suite,
    check_steinberg,
    check_twisted_cofinal,
)
from rbscat.guards import GuardConfig


GUARDS = GuardConfig()


def _line(criterion, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %-12s %-16s %s  %s" % (criterion, name, verdict, detail))
    assert ok, "%s failed: %s" % (criterion, detail)


# ---------------------------------------------------------------------------

def test_criterion_1_steinberg_ranks():
    t0 = time.time()
    details = []
    ok = True
    for (q, n) in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]:
        rep = check_steinberg(q, n, GUARDS)
        details.append("(%d,%d)->%d" % (q, n, rep.measured["rank"]))
        ok = ok and rep.ok
    dt = time.time() - t0
    _line("criterion-1", "steinberg", ok and dt < 10,
          "%s in %.1fs (<10s)" % (", ".join(details), dt))


def test_criterion_2_pi1_h1():
    t0 = time.time()
    ok = True
    details = []
    # stated depths: 4, and 3 for the two largest; the depth actually used
    # is the largest within the simplex guard that certifies H_1 (H_1 is
    # determined by the 2-truncation)
    instances = [("F2", 2, 4), ("F3", 2, 2), ("F4", 2, 2), ("F2", 3, 2),
                 ("Z4", 2, 2)]
    for spec, n, depth in instances:
        rep = check_pi1(spec, n, depth, GUARDS)
        ok = ok and rep.ok
        details.append("%s^%d: Z/%s@D=%s" % (
            spec, n,
            rep.measured["H1_torsion"][0] if rep.measured["H1_torsion"] else 1,
            rep.measured["depth_used"]))
    dt = time.time() - t0
    _line("criterion-2", "pi1/H1", ok and dt < 300,
          "%s in %.0fs (<300s)" % ("; ".join(details), dt))


def test_criterion_3_fp_acyclicity():
    t0 = time.time()
    ok = True
    details = []
    # (2,2): direct nerve at the stated depth 5 plus the resolution engine;
    # (3,2): resolution engine (exact in degrees <= 3) + depth-2 nerve check
    rep = check_fp_acyclic("F2", 2, 3, GUARDS)
    ok = ok and rep.ok and rep.measured["nerve_depth"] == 5
    details.append("F2^2: %s (nerve D=5 + resolution)" %
                   (rep.measured["betti_F2"],))
    rep = check_fp_acyclic("F3", 2, 3, GUARDS)
    ok = ok and rep.ok and rep.measured["nerve_depth"] == 2
    details.append("F3^2: %s (resolution + nerve D=2)" %
                   (rep.measured["betti_F3"],))
    dt = time.time() - t0
    _line("criterion-3", "fp-acyclic", ok and dt < 600,
          "%s in %.0fs (<600s)" % ("; ".join(details), dt))


def test_criterion_4_bgl_comparison():
    t0 = time.time()
    ok = True
    details = []
    for spec, n, ell in [("F2", 2, 3), ("F3", 2, 2)]:
        rep = check_bgl_comparison(spec, n, ell, 3, GUARDS)
        ok = ok and rep.ok
        details.append("%s^%d/F%d: BGL=%s RBS=%s" % (
            spec, n, ell, rep.measured["BGL"], rep.measured["RBS"]))
    dt = time.time() - t0
    _line("criterion-4", "bgl-comparison", ok and dt < 600,
          "%s in %.0fs (<600s)" % ("; ".join(details), dt))


def test_criterion_5_properness_inductive():
    t0 = time.time()
    ok = True
    details = []
    for spec in ("F2", "F3"):
        rep = check_proper_p(spec, 2, 3, GUARDS)
        ok = ok and rep.ok
        rep2 = check_inductive(spec, 2, GUARDS)
        ok = ok and rep2.ok
        details.append("%s^2: proper+iso-over-BGL %s, decompositions %s/%s" % (
            spec, rep.ok, sum(1 for v in rep2.measured["flags"].values()
                              if v["iso"]), len(rep2.measured["flags"])))
    dt = time.time() - t0
    _line("criterion-5", "proper+inductive", ok and dt < 300,
          "%s in %.0fs (<300s)" % ("; ".join(details), dt))


def test_criterion_6_twisted_cofinality():
    t0 = time.time()
    rep = check_twisted_cofinal(depth=3, guards=GUARDS)
    dt = time.time() - t0
    _line("criterion-6", "twisted-cofinal", rep.ok and dt < 120,
          "%s in %.0fs (<120s)" % (rep.measured, dt))


def test_criterion_7_poset_regularity():
    t0 = time.time()
    ok = True
    for spec, n in [("F2", 2), ("F3", 2), ("F2", 3), ("Z4", 2)]:
        rep = check_poset_regularity(spec, n, GUARDS)
        ok = ok and rep.ok
    dt = time.time() - t0
    _line("criterion-7", "poset-regularity", ok and dt < 60,
          "4 instances exhaustive in %.0fs (<60s)" % dt)


def test_criterion_8_q_construction_suite():
    t0 = time.time()
    ok = True
    details = []
    for (q, N, cap) in [(2, 1, 2), (2, 2, 3)]:
        rep = check_q_suite(q, N, cap, 3, GUARDS)
        ok = ok and rep.ok
        details.append("Vect(F%d)<=%d cap %d: ff=%s terms=%s comma=%s mono=%s" % (
            q, N, cap, rep.measured["psi_fully_faithful"],
            rep.measured["terminals"],
            all(v["cover"] and v["terminals"] and v["intersections"]
                for v in rep.measured["comma"].values()),
            rep.measured["monomorphisms"]))
    dt = time.time() - t0
    _line("criterion-8", "q-suite", ok and dt < 600,
          "%s in %.0fs (<600s)" % ("; ".join(details), dt))


def test_criterion_9_infrastructure():
    t0 = time.time()
    rep = check_infra(1000, guards=GUARDS)
    dt = time.time() - t0
    _line("criterion-9", "infra", rep.ok and dt < 300,
          "snf=%s oracle=%s rp2=%s truncation=%s in %.0fs (<300s)" % (
              rep.measured["snf_checked"], rep.measured["oracle_agreement"],
              rep.measured["rp2_torsion"],
              rep.measured["truncation_stability"], dt))
