"""Named verification checks with reproducible reports.

Each check verifies one structural statement about the constructed
categories at a desk-scale instance and returns a CheckReport whose
expected values carry a provenance tag: "trivial" (forced by the
definitions), "derived" (computed by an independent oracle in this code
base or frozen from one), or "theorem" (the published value the check is
designed to confirm).  The registry drives both the CLI `verify`
command and the acceptance test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict, astuple

import numpy as np

from .fincat import (
    CategoryError,
    Group,
    check_poset_regularity as _regular,
    group_category,
    poset_category,
    Poset,
    skeleton,
    twisted_arrow_op,
    terminal_category,
)
from .guards import DEFAULT, GuardExceeded
from .homology import (
    betti_via_rank_oracle,
    chain_complex_from_facets,
    homology,
    nerve_chain_complex,
    smith_normal_form,
)
from .qkt import QKit, comma_contractibility, terminal_decomposition
from .rbs import (
    build_rbs,
    comparison_functor,
    comparison_iso_over_bgl,
    compute_e_group,
    flag_poset,
    gl_flag_action_category,
    inductive_decomposition,
    pi1_quotient_functor,
    tits_building,
)
from .resolution import category_homology_mod
from .rings import make_ring
from .toolkit import is_colim_equivalence, is_proper


@dataclass
class CheckReport:
    name: str
    instance: dict
    verdict: str                 # "pass" | "fail" | "inconclusive"
    measured: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    witness: str = ""
    seconds: float = 0.0         # set by run_check

    @property
    def ok(self):
        return self.verdict == "pass"

    def to_dict(self):
        d = asdict(self)
        d["seconds"] = round(self.seconds, 3)
        return d


def _report(name, instance, ok, measured, expected, provenance,
            witness="", inconclusive=False):
    """inconclusive: no certificate failed, but one could not decide (the
    verdict is then "inconclusive", not "fail")."""
    verdict = "pass" if ok else ("inconclusive" if inconclusive else "fail")
    return CheckReport(name, instance, verdict, measured, expected,
                       provenance, witness)


def _check_depth(depth):
    if depth < 1:
        raise ValueError("--depth must be at least 1, got %d" % depth)


def lcg(seed):
    """Deterministic pseudo-random draws: rnd(n) is uniform in 0..n-1 (a
    64-bit linear congruential generator)."""
    state = seed

    def rnd(n):
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % (2 ** 64)
        return state % n
    return rnd


_RBS_CACHE = {}


def _rbs(spec, n, guards):
    # a category built under looser guards is not reused under tighter ones
    key = (spec, n, astuple(guards))
    if key not in _RBS_CACHE:
        _RBS_CACHE[key] = build_rbs(spec, n, guards)
    return _RBS_CACHE[key]


# ---------------------------------------------------------------------------
# individual checks

def check_steinberg(q, n, guards=DEFAULT):
    """Top reduced homology rank of the building equals q^{n(n-1)/2}."""
    expected = q ** (n * (n - 1) // 2)
    tc = tits_building(q, n, guards)
    chi_expected = 1 + (-1) ** n * expected
    ok = tc.steinberg_rank == expected and tc.euler_characteristic == chi_expected
    return _report(
        "steinberg", {"q": q, "n": n}, ok,
        {"rank": tc.steinberg_rank, "chi": tc.euler_characteristic,
         "simplices": tc.simplex_counts},
        {"rank": expected, "chi": chi_expected},
        {"rank": "theorem", "chi": "derived: from simplex counts"})


def check_pi1(spec, n, depth=2, guards=DEFAULT):
    """H_1 of the flag category is the unit group of the ring, via the
    depth-2-sufficient nerve truncation, plus the subgroup comparison
    E(M) = SL(M) and |GL/E| = |units|.  The expected torsion is the list
    of invariant factors of the unit group, which is not cyclic for
    Z/2^k with k >= 3.

    The nerve is taken of a skeleton: the inclusion of a skeleton is an
    equivalence of categories, so the nerves are homotopy equivalent and
    H_1 is unchanged, while the boundaries shrink several times.  At
    depth 2 (and 1) H_1 comes from the S-reduced 2-complex, whose 2-chains
    start in the skeleton's generating set S: it has the nerve's d_1 and
    the same image of d_2 (nerve_chain_complex, reduced), from far fewer
    2-chains (320 of 3,018 on F3^2).  A larger depth takes the whole
    nerve.  The
    statement is made for n >= 1: RBS(0) is a point (ValueError)."""
    if n < 1:
        raise ValueError("pi1 needs --n at least 1, got %d" % n)
    _check_depth(depth)
    rbs = _rbs(spec, n, guards)
    units = len(rbs.ring.units)
    expected_torsion = rbs.ring.unit_invariant_factors()
    cx = nerve_chain_complex(skeleton(rbs.cat, guards), max(2, depth), guards,
                             reduced=depth <= 2)
    h = homology(cx, "Z")
    sg = compute_e_group(rbs)
    functor, surjective = pi1_quotient_functor(rbs, sg)
    gl_over_e = functor.target.n_morphisms
    measured = {
        "H1_rank": h.betti.get(1), "H1_torsion": h.torsion.get(1),
        "GL_over_E": gl_over_e,
        "E_equals_det1": tuple(sg.e_group) == tuple(sg.det_one),
        "quotient_functor_surjective": surjective,
        "depth_used": cx.depth,
    }
    ok = (h.betti.get(1) == 0 and h.torsion.get(1) == expected_torsion
          and gl_over_e == units and measured["E_equals_det1"]
          and surjective)
    return _report(
        "pi1", {"ring": spec, "n": n, "depth": depth}, ok, measured,
        {"H1_rank": 0, "H1_torsion": expected_torsion, "GL_over_E": units,
         "E_equals_det1": True},
        {"H1_torsion": "theorem", "GL_over_E": "theorem",
         "E_equals_det1": "theorem (commutative local scope)"})


def check_fp_acyclic(spec, n, max_degree=3, guards=DEFAULT):
    """Reduced F_p homology of the flag category vanishes (p = char).

    Uses the category-algebra resolution engine for the stated degrees
    (depth-free) plus a direct nerve cross-check at a feasible depth: 5
    when |GL| <= 8, else 2.

    Both engines run on a skeleton of the flag category (one flag per
    GL-orbit).  Its inclusion is an equivalence of categories, so the
    nerves are homotopy equivalent: the Tor ranks agree in every degree,
    and the cross-check's degrees lie below its truncation depth, where
    the truncated nerve already has the homology of the whole nerve.
    """
    rbs = _rbs(spec, n, guards)
    p = rbs.ring.p
    sk = skeleton(rbs.cat, guards)
    betti = category_homology_mod(sk, p, max_degree)
    expected = [1] + [0] * max_degree
    measured = {"betti_F%d" % p: betti, "engine": "category-algebra resolution"}
    ok = betti == expected
    # direct nerve cross-check at a depth the guard allows
    nerve_depth = 5 if len(rbs.gl) <= 8 else 2
    try:
        cx = nerve_chain_complex(sk, nerve_depth, guards)
        hn = homology(cx, "F%d" % p)
        cross = [hn.betti[k] for k in sorted(hn.betti)]
        measured["nerve_depth"] = nerve_depth
        measured["nerve_betti"] = cross
        ok = ok and cross == [1] + [0] * (len(cross) - 1)
    except GuardExceeded as exc:
        measured["nerve_depth"] = "guard: %s" % exc
    return _report(
        "fp-acyclic", {"ring": spec, "n": n, "max_degree": max_degree}, ok,
        measured, {"betti_F%d" % p: expected},
        {"betti_F%d" % p: "theorem"})


def check_bgl_comparison(spec, n, ell, max_degree=3, guards=DEFAULT):
    """H_i(BGL; F_ell) = H_i(flag category; F_ell) for i <= max_degree,
    ell prime to the characteristic.  Raises ValueError for ell = p.

    The flag category's side is resolved on a skeleton (one flag per
    GL-orbit): its inclusion is an equivalence of categories, so the two
    nerves are homotopy equivalent and have the same F_ell Betti numbers.
    """
    if ell == make_ring(spec, guards).p:
        raise ValueError("bgl-comparison needs ell != characteristic, got "
                         "ell = %d for %s" % (ell, spec))
    rbs = _rbs(spec, n, guards)
    bg = group_category(Group(range(len(rbs.gl)), rbs.gl.mult, rbs.gl.one),
                        guards)
    left = category_homology_mod(bg, ell, max_degree)
    right = category_homology_mod(skeleton(rbs.cat, guards), ell, max_degree)
    ok = left == right
    return _report(
        "bgl-comparison", {"ring": spec, "n": n, "ell": ell,
                           "max_degree": max_degree},
        ok, {"BGL": left, "RBS": right}, {"equal": True},
        {"equal": "theorem"})


def check_proper_p(spec, n, depth=3, guards=DEFAULT):
    """The comparison functor is proper up to the depth and restricts to an
    isomorphism over the empty flag."""
    _check_depth(depth)
    rbs = _rbs(spec, n, guards)
    ac = gl_flag_action_category(rbs)
    p = comparison_functor(rbs, ac)
    verdict = is_proper(p, depth, guards)
    iso = comparison_iso_over_bgl(rbs, p)
    ok = verdict.ok and iso
    return _report(
        "proper-p", {"ring": spec, "n": n, "depth": depth}, ok,
        {"proper": verdict.ok, "iso_over_bgl": iso},
        {"proper": True, "iso_over_bgl": True},
        {"proper": "theorem", "iso_over_bgl": "theorem"},
        inconclusive=iso and verdict.inconclusive)


def check_inductive(spec, n, guards=DEFAULT):
    """Blockwise decomposition under every flag: category isomorphism onto
    the product of graded flag categories plus equivalence of the
    refinement inclusion."""
    rbs = _rbs(spec, n, guards)
    results = {}
    ok = True
    built = {}  # the flag category of each graded rank, built once
    for fi in range(len(rbs.flags)):
        dec = inductive_decomposition(rbs, fi, guards, built)
        results[fi] = {"iso": dec.is_isomorphism,
                       "equivalence": dec.inclusion_is_equivalence,
                       "graded": list(rbs.graded_dims(fi))}
        ok = ok and dec.is_isomorphism and dec.inclusion_is_equivalence
    return _report(
        "inductive", {"ring": spec, "n": n}, ok,
        {"flags": results}, {"all": True}, {"all": "theorem"})


def _named_small_category(name, guards=DEFAULT):
    if name == "terminal":
        return terminal_category()
    if name == "chain2":
        return poset_category(Poset([0, 1], [[True, True], [False, True]]),
                              guards)
    if name in ("BZ2", "BZ3"):
        k = 2 if name == "BZ2" else 3
        return group_category(
            Group(range(k), np.add.outer(range(k), range(k)) % k, 0), guards)
    if name == "RBS-F2-2":
        return _rbs("F2", 2, guards).cat
    raise ValueError("unknown category name %r" % name)


def check_twisted_cofinal(names=("terminal", "chain2", "BZ2", "BZ3", "RBS-F2-2"),
                          depth=3, guards=DEFAULT):
    """The projection from the twisted-arrow opposite is a colim-equivalence
    (all right fibers weakly contractible up to the depth)."""
    _check_depth(depth)
    results = {}
    ok = True
    failed = False
    for name in names:
        C = _named_small_category(name, guards)
        tw, proj = twisted_arrow_op(C, guards)
        verdict = is_colim_equivalence(proj, depth, guards)
        results[name] = verdict.ok
        ok = ok and verdict.ok
        failed = failed or not (verdict.ok or verdict.inconclusive)
    return _report(
        "twisted-cofinal", {"categories": list(names), "depth": depth}, ok,
        results, {n: True for n in names}, {n: "theorem" for n in names},
        inconclusive=not failed)


def check_poset_regularity(spec, n, guards=DEFAULT):
    """x <= g.x implies x = g.x for the GL action on the flag poset."""
    rbs = _rbs(spec, n, guards)
    witness = _regular(flag_poset(rbs), rbs.flag_act)
    ok = witness is None
    return _report("poset-regularity", {"ring": spec, "n": n}, ok,
                   {"witness": repr(witness)}, {"witness": "None"},
                   {"witness": "theorem"})


def check_q_suite(q=2, N=1, cap=2, depth=3, guards=DEFAULT):
    """Psi fully faithful; every hom-2-category component has a terminal
    object; comma categories contractible with the stated cover and
    intersections; all graded-list morphisms are monomorphisms."""
    from .fincat import is_fully_faithful
    from .qkt import monoidal_category
    if cap < N:
        raise ValueError("--cap must be at least --N = %d, got %d" % (N, cap))
    _check_depth(depth)
    kit = QKit(q, N, cap=cap, guards=guards)
    psi = kit.psi_functor()
    ff = is_fully_faithful(psi)
    # terminal objects in all hom categories between list objects
    objs = kit.calc.objects_up_to(cap, N)
    terminals_ok = True
    decompositions_ok = True
    for m in objs:
        for mp in objs:
            q2 = kit.q2_hom(m, mp)
            comps = set(q2.components.values())
            for cid in comps:
                if not q2.terminals[cid]:
                    terminals_ok = False
            for olbl in q2.cat.objects:
                try:
                    terminal_decomposition(kit.calc, q2, olbl)
                except CategoryError:
                    decompositions_ok = False
    # comma categories over every object
    comma_ok = True
    comma_failed = False
    comma_details = {}
    for mp in objs:
        repc = comma_contractibility(kit, mp, depth, guards)
        structure_ok = (repc.cover_ok and repc.terminals_ok
                        and repc.intersections_ok)
        ok_here = repc.contractibility.ok and structure_ok
        if not structure_ok or \
                repc.contractibility.verdict == "not-contractible":
            comma_failed = True
        comma_details[str(mp)] = {
            "contractible": repc.contractibility.verdict,
            "cover": repc.cover_ok, "terminals": repc.terminals_ok,
            "intersections": repc.intersections_ok}
        comma_ok = comma_ok and ok_here
    # monomorphism property, exhaustively at the cap: for every f, the
    # composites f o g of the composable pairs (f, g) are distinct
    Mcat, _ = monoidal_category(kit.calc, cap, N, guards)
    f, _, fg = Mcat.pairs()
    # repeated keys found on a sort; np.unique would import numpy.ma
    keys = np.sort(f * Mcat.n_morphisms + fg)
    mono_ok = not (keys[1:] == keys[:-1]).any()
    decided_ok = ff and terminals_ok and decompositions_ok and mono_ok
    ok = decided_ok and comma_ok
    return _report(
        "q-suite", {"q": q, "N": N, "cap": cap, "depth": depth}, ok,
        {"psi_fully_faithful": ff, "terminals": terminals_ok,
         "terminal_decompositions": decompositions_ok,
         "comma": comma_details, "monomorphisms": mono_ok},
        {"all": True},
        {"psi_fully_faithful": "theorem", "terminals": "theorem",
         "comma": "theorem", "monomorphisms": "theorem"},
        inconclusive=decided_ok and not comma_failed)


def check_infra(snf_count=1000, seed=20240601, guards=DEFAULT):
    """Infrastructure property suite: SNF postconditions on random
    matrices, the rank-oracle comparison on a fixed corpus, truncation
    stability on small nerve instances."""
    rnd = lcg(seed)
    snf_ok = 0
    for _ in range(snf_count):
        rows = 1 + rnd(6)
        cols = 1 + rnd(6)
        A = [[rnd(9) - 4 for _ in range(cols)] for _ in range(rows)]
        smith_normal_form(A)  # raises RuntimeError on a failed postcondition
        snf_ok += 1
    corpus = {
        "circle": chain_complex_from_facets([(1, 2), (2, 3), (1, 3)]),
        "sphere": chain_complex_from_facets(
            [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]),
        "rp2": chain_complex_from_facets(
            [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
             (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)]),
    }
    oracle_ok = True
    rp2_torsion_ok = True
    for name, cx in corpus.items():
        hz = homology(cx, "Z")
        oracle = betti_via_rank_oracle(cx)
        if {k: hz.betti[k] for k in oracle} != oracle:
            oracle_ok = False
        if name == "rp2" and hz.torsion.get(1) != [2]:
            rp2_torsion_ok = False
    # truncation stability on small instances
    trunc_ok = True
    small = [("terminal", 3), ("BZ2", 4), ("BZ3", 4), ("RBS-F2-2", 4)]
    for name, D in small:
        C = _named_small_category(name, guards)
        h1 = homology(nerve_chain_complex(C, D, guards), "Z")
        h2 = homology(nerve_chain_complex(C, D + 1, guards), "Z")
        for k in range(D):
            if h1.betti.get(k) != h2.betti.get(k) or \
               h1.torsion.get(k) != h2.torsion.get(k):
                trunc_ok = False
    ok = snf_ok == snf_count and oracle_ok and rp2_torsion_ok and trunc_ok
    return _report(
        "infra", {"snf_count": snf_count, "seed": seed}, ok,
        {"snf_checked": snf_ok, "oracle_agreement": oracle_ok,
         "rp2_torsion": rp2_torsion_ok, "truncation_stability": trunc_ok},
        {"all": True},
        {"oracle_agreement": "derived: fraction-free rank oracle",
         "rp2_torsion": "derived: classical complex"})


# ---------------------------------------------------------------------------
# registry

CHECKS = {
    "steinberg": check_steinberg,
    "pi1": check_pi1,
    "fp-acyclic": check_fp_acyclic,
    "bgl-comparison": check_bgl_comparison,
    "proper-p": check_proper_p,
    "inductive": check_inductive,
    "twisted-cofinal": check_twisted_cofinal,
    "poset-regularity": check_poset_regularity,
    "q-suite": check_q_suite,
    "infra": check_infra,
}


def run_check(name, guards=DEFAULT, **params):
    if name not in CHECKS:
        raise KeyError("unknown check %r; known: %s" % (name, sorted(CHECKS)))
    fn = CHECKS[name]
    t0 = time.perf_counter()
    rep = fn(guards=guards, **params)
    rep.seconds = time.perf_counter() - t0
    return rep


DESK_PROFILE = [
    ("steinberg", {"q": 2, "n": 2}),
    ("steinberg", {"q": 3, "n": 2}),
    ("steinberg", {"q": 4, "n": 2}),
    ("steinberg", {"q": 2, "n": 3}),
    ("steinberg", {"q": 3, "n": 3}),
    ("pi1", {"spec": "F2", "n": 2, "depth": 4}),
    ("pi1", {"spec": "F3", "n": 2, "depth": 2}),
    ("pi1", {"spec": "F4", "n": 2, "depth": 2}),
    ("pi1", {"spec": "F2", "n": 3, "depth": 2}),
    ("pi1", {"spec": "Z4", "n": 2, "depth": 2}),
    ("fp-acyclic", {"spec": "F2", "n": 2}),
    ("fp-acyclic", {"spec": "F3", "n": 2}),
    ("bgl-comparison", {"spec": "F2", "n": 2, "ell": 3}),
    ("bgl-comparison", {"spec": "F3", "n": 2, "ell": 2}),
    ("proper-p", {"spec": "F2", "n": 2}),
    ("proper-p", {"spec": "F3", "n": 2}),
    ("inductive", {"spec": "F2", "n": 2}),
    ("inductive", {"spec": "F3", "n": 2}),
    ("twisted-cofinal", {}),
    ("poset-regularity", {"spec": "F2", "n": 2}),
    ("poset-regularity", {"spec": "F3", "n": 2}),
    ("poset-regularity", {"spec": "F2", "n": 3}),
    ("poset-regularity", {"spec": "Z4", "n": 2}),
    ("q-suite", {"q": 2, "N": 1, "cap": 2}),
    ("q-suite", {"q": 2, "N": 2, "cap": 3}),
    ("infra", {}),
    ("poset-regularity", {"spec": "F3", "n": 3}),
    ("fp-acyclic", {"spec": "F2", "n": 3}),
    ("fp-acyclic", {"spec": "F4", "n": 2}),
    ("bgl-comparison", {"spec": "F2", "n": 3, "ell": 3}),
    ("bgl-comparison", {"spec": "F4", "n": 2, "ell": 3}),
    ("steinberg", {"q": 2, "n": 4}),
    ("steinberg", {"q": 3, "n": 4}),
    ("inductive", {"spec": "F2", "n": 3}),
    ("proper-p", {"spec": "Z4", "n": 2}),
    ("proper-p", {"spec": "F4", "n": 2}),
]

