"""Depth-bounded contractibility, limit-equivalence and properness checks.

Contractibility of a finite category is necessarily certified only up to
a depth: the certificate records connectivity, vanishing of reduced
integer homology through degree D-1, and triviality of the edge-path
group under budgeted Tietze simplification.  A functor is a
lim-equivalence (up to depth D) when all its left fibers are weakly
contractible; it is proper when, over every target object, the inclusion
of the strict fiber into the right fiber is a lim-equivalence.  Dually, a
colim-equivalence has weakly contractible right fibers.

The fibers of a functor are computed together as index arrays
(fincat.FiberFamily).  A fiber with a terminal or initial object is
contractible at every depth; all such fibers are validated together, as
one category, and the others are built and certified one at a time.
For properness the left fibers of each strict-fiber inclusion come
straight from the functor (FiberFamily.strict_inclusion): their objects
are the morphisms out of the strict fiber, so no right fiber and no
inclusion functor is built, and max_functor_pairs and max_assoc_triples
bound those left fibers only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fincat import FiberFamily, skeleton
from .guards import DEFAULT
from .homology import homology, nerve_chain_complex
from .presentation import pi1_presentation, tietze_trivial


@dataclass
class ContractibilityCertificate:
    verdict: str               # "contractible" | "not-contractible" | "inconclusive"
    depth: int
    connected: bool = False
    reduced_betti: dict = field(default_factory=dict)
    torsion: dict = field(default_factory=dict)
    pi1_trivial: object = None  # True / False / None
    witness: str = ""

    @property
    def ok(self):
        return self.verdict == "contractible"


def is_weakly_contractible(C, depth=3, guards=DEFAULT):
    """Certificate that |C| is contractible through the stated depth.

    A terminal or initial object settles the question at every depth.
    Otherwise the category is replaced by a skeleton (an equivalence, so
    the homotopy type is unchanged, and a skeleton has a cone point exactly
    when the category has one), and reduced integer nerve homology through
    depth-1 plus a Tietze run on the edge-path group decide.
    """
    if C.n_objects == 0:
        return ContractibilityCertificate("not-contractible", depth,
                                          witness="empty category")
    if C.has_terminal_object() is not None or C.has_initial_object() is not None:
        return _cone_point_certificate(depth)
    C = skeleton(C, guards)
    if not C.is_connected():
        return ContractibilityCertificate("not-contractible", depth,
                                          witness="disconnected")
    cx = nerve_chain_complex(C, depth, guards)
    h = homology(cx, "Z")
    reduced = {k: (h.betti[k] - 1 if k == 0 else h.betti[k]) for k in h.betti}
    for k in sorted(reduced):
        if reduced[k] != 0 or h.torsion.get(k):
            return ContractibilityCertificate(
                "not-contractible", depth, connected=True, reduced_betti=reduced,
                torsion=h.torsion,
                witness="reduced H_%d nonzero" % k)
    pres = pi1_presentation(C)
    triv = tietze_trivial(pres, guards.tietze_budget)
    if triv is False:
        return ContractibilityCertificate(
            "not-contractible", depth, connected=True, reduced_betti=reduced,
            torsion=h.torsion, pi1_trivial=False, witness="pi1 nontrivial")
    verdict = "contractible" if triv else "inconclusive"
    return ContractibilityCertificate(verdict, depth, connected=True,
                                      reduced_betti=reduced, torsion=h.torsion,
                                      pi1_trivial=triv,
                                      witness="" if triv else "Tietze budget exhausted")


def _cone_point_certificate(depth):
    # a cone point contracts the nerve at every depth
    return ContractibilityCertificate("contractible", depth, connected=True,
                                      pi1_trivial=True,
                                      witness="terminal or initial object")


@dataclass
class FiberwiseVerdict:
    ok: bool
    depth: int
    per_object: dict
    failure: object = None

    @property
    def inconclusive(self):
        return not self.ok and self.failure is None


def is_lim_equivalence(F, depth=3, guards=DEFAULT):
    """All left fibers weakly contractible up to the depth."""
    objects = F.target.objects
    return _fiber_check(FiberFamily(F, "left", np.arange(len(objects)), guards),
                        objects, depth, guards)


def is_colim_equivalence(F, depth=3, guards=DEFAULT):
    """All right fibers weakly contractible (the functor is cofinal)."""
    objects = F.target.objects
    return _fiber_check(FiberFamily(F, "right", np.arange(len(objects)), guards),
                        objects, depth, guards)


def _fiber_check(family, objects, depth, guards):
    """Every fiber's certificate, keyed by the objects, one per fiber of
    the family in its order.  Those with a terminal or initial object are
    validated together, as one category, and certified by that cone point,
    and the others are built and certified one by one."""
    cone = family.has_cone_point()
    if cone.any():
        family.build(np.flatnonzero(cone))
    per = {}
    failure = None
    ok = True
    for i, d in enumerate(objects):
        if cone[i]:
            per[d] = _cone_point_certificate(depth)
            continue
        cert = is_weakly_contractible(family.build([i]), depth, guards)
        per[d] = cert
        if not cert.ok:
            ok = False
            if cert.verdict == "not-contractible" and failure is None:
                failure = (d, cert.witness)
    return FiberwiseVerdict(ok, depth, per, failure)


def is_proper(F, depth=3, guards=DEFAULT):
    """For every target object d, the inclusion of the strict fiber over d
    into the right fiber F/d is a lim-equivalence up to the depth.

    Its left fibers are computed straight from F
    (FiberFamily.strict_inclusion), so neither F/d nor the inclusion is
    built; the pairs guard and Light's test bound those left fibers only.
    """
    per = {}
    failure = None
    ok = True
    for di, d in enumerate(F.target.objects):
        family, over = FiberFamily.strict_inclusion(F, di, guards)
        verdict = _fiber_check(family, over, depth, guards)
        per[d] = verdict
        if not verdict.ok:
            ok = False
            if failure is None and verdict.failure is not None:
                failure = (d, verdict.failure)
    return FiberwiseVerdict(ok, depth, per, failure)
