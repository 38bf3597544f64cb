import copy
import subprocess
import sys
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbscat import checks
from rbscat import rbs as rbs_module
from rbscat.fincat import (
    CategoryError,
    is_fully_faithful,
    is_isomorphism_of_categories,
    full_subcategory,
    twisted_arrow_op,
)
from rbscat.guards import DEFAULT, GuardConfig, GuardExceeded
from rbscat.homology import homology, nerve_chain_complex
from rbscat.rbs import (
    GLData,
    bgl_category,
    build_rbs,
    comparison_functor,
    comparison_iso_over_bgl,
    compute_e_group,
    flag_poset,
    gl_flag_action_category,
    inductive_decomposition,
    pi1_quotient_functor,
    pi1_target,
    tits_building,
)
from rbscat.rings import Flag, Mat, Submodule, determinants, make_ring
from test_fincat import assert_indices_match
from test_rings import det_oracle, elements
from rbscat.fincat import check_poset_regularity
from rbscat.toolkit import is_colim_equivalence, is_proper


# module-level instances reused across tests (construction is validated)
R22 = build_rbs("F2", 2)
R32 = build_rbs("F3", 2)
RZ4 = build_rbs("Z4", 2)


def mat(gl, i):
    """The matrix g_i of GL as a Mat."""
    return Mat(gl.ring, gl.entries[i].tolist(), cols=gl.n)


def mats(gl):
    """The matrices of GL, in index order, as Mats."""
    return [mat(gl, i) for i in range(len(gl))]


def lines_of(rbs):
    e = rbs.empty_flag_index
    return [i for i in range(len(rbs.flags)) if i != e], e


def transporter_size(rbs, fi, fj):
    """Oracle: the number of g with g F_i <= F_j, one g at a time."""
    return sum(1 for gi in range(len(rbs.gl))
               if rbs.refines(int(rbs.flag_act[gi, fi]), fj))


# ---------------------------------------------------------------------------
# construction

def test_rbs_f2_2_shape():
    lines, e = lines_of(R22)
    assert R22.cat.n_objects == 4
    assert R22.hom_size(e, e) == 6
    assert R22.hom_size(lines[0], e) == 3
    assert R22.hom_size(lines[0], lines[0]) == 1
    assert R22.hom_size(lines[0], lines[1]) == 1
    assert R22.hom_size(e, lines[0]) == 0


def test_rbs_f3_2_shape():
    lines, e = lines_of(R32)
    assert R32.cat.n_objects == 5
    assert R32.hom_size(e, e) == 48
    assert R32.hom_size(lines[0], e) == 16
    assert R32.hom_size(lines[0], lines[0]) == 4


def test_rbs_z4_shape():
    lines, e = lines_of(RZ4)
    assert RZ4.cat.n_objects == 7
    assert RZ4.hom_size(e, e) == 96
    assert RZ4.hom_size(lines[0], e) == 24


def test_rbs_rank_one_is_group():
    r = build_rbs("F3", 1)
    assert r.cat.n_objects == 1
    assert r.cat.n_morphisms == 2  # GL_1(F_3) = units


def test_rbs_rank_zero_is_terminal():
    r = build_rbs("F2", 0)
    assert r.cat.n_objects == 1 and r.cat.n_morphisms == 1


def test_hom_sizes_are_coset_counts():
    for r in (R22, R32, RZ4):
        nf = len(r.flags)
        for fi in range(nf):
            for fj in range(nf):
                assert r.hom_size(fi, fj) * len(r.unipotent[fi]) == \
                    transporter_size(r, fi, fj)


def test_unipotent_inclusions_reverse_refinement():
    # F <= G (G coarser) implies U_G subset U_F
    for r in (R22, R32):
        for fi in range(len(r.flags)):
            for fj in range(len(r.flags)):
                if r.refines(fi, fj):
                    assert set(r.unipotent[fj]) <= set(r.unipotent[fi])


def test_unipotent_of_empty_flag_is_trivial():
    for r in (R22, R32, RZ4):
        assert r.unipotent[r.empty_flag_index] == (r.gl.one,)


def unipotent_oracle(r, fi):
    """Oracle for RBSCategory.unipotent, free of complements: the g in
    P_F with g v - v in M_{i-1} for every element v of every M_i, one
    element at a time."""
    ring = r.ring
    chain = r.flags[fi].full_chain()
    oracle = []
    for gi in r.parabolic[fi]:
        g = mat(r.gl, gi)
        if all(chain[i - 1].contains(tuple(
                ring.add[x][ring.neg[y]] for x, y in zip(g.mul_vec(v), v)))
               for i in range(1, len(chain)) for v in elements(chain[i])):
            oracle.append(gi)
    return tuple(oracle)


# every flag category of the front-end corpus small enough to build
RBS_CORPUS = [("F2", 1), ("F2", 2), ("F2", 3), ("F3", 1), ("F3", 2),
              ("F4", 2), ("F5", 2), ("Z4", 1), ("Z4", 2), ("Z8", 2),
              ("Z9", 2)]


def test_unipotent_agrees_with_intrinsic_oracle():
    # complement-free oracle: g acts as the identity on every graded piece
    # iff g*v - v lies in M_{i-1} for every v in M_i
    for spec, n in RBS_CORPUS:
        r = build_rbs(spec, n)
        for fi in range(len(r.flags)):
            assert unipotent_oracle(r, fi) == r.unipotent[fi], (spec, n, fi)


@pytest.mark.parametrize("spec, n", RBS_CORPUS)
def test_det_one_matches_permutation_expansion(spec, n):
    gl = GLData(make_ring(spec), n)
    assert tuple(i for i, m in enumerate(mats(gl))
                 if det_oracle(gl.ring, m.data) == 1) == \
        tuple(np.flatnonzero(determinants(gl.ring, gl.entries) == 1).tolist())


@pytest.mark.parametrize("spec, torsion", [("Z8", [2, 2]), ("Z16", [2, 4])])
def test_pi1_h1_is_a_non_cyclic_unit_group(spec, torsion):
    # Z/2^k has a non-cyclic unit group for k >= 3: H_1 is the group, not
    # the cyclic group of its order
    rep = checks.check_pi1(spec, 1)
    assert rep.ok, rep.measured
    assert rep.measured["H1_torsion"] == rep.expected["H1_torsion"] == torsion


def test_pi1_quotient_functor_surjective():
    for r in (R22, R32, RZ4):
        functor, surjective = pi1_quotient_functor(r)
        assert surjective


def test_connectedness():
    for r in (R22, R32, RZ4):
        assert r.cat.is_connected()


# ---------------------------------------------------------------------------
# E(M) and pi_1

def test_e_group_f2():
    sg = compute_e_group(R22)
    assert len(sg.e_group) == 6  # SL_2(F_2) = GL_2(F_2)
    assert sg.e_group == sg.det_one
    assert len(pi1_target(R22, sg)) == 1


def test_e_group_f3():
    sg = compute_e_group(R32)
    assert len(sg.e_group) == 24
    assert sg.e_group == sg.det_one
    assert len(pi1_target(R32, sg)) == 2


def test_e_group_z4():
    sg = compute_e_group(RZ4)
    assert len(sg.e_group) == 48
    assert sg.e_group == sg.det_one
    q = pi1_target(RZ4, sg)
    assert len(q) == 2  # units of Z/4


def test_h1_matches_unit_group():
    for r, units in ((R22, 1), (R32, 2), (RZ4, 2)):
        h = homology(nerve_chain_complex(r.cat, 2), "Z")
        assert h.betti[1] == 0
        expected = [] if units == 1 else [units]
        assert h.torsion[1] == expected


# ---------------------------------------------------------------------------
# flag poset and action

def test_flag_poset_empty_is_maximum():
    P = flag_poset(R22)
    e = R22.empty_flag_index
    assert all(P.leq(i, e) for i in P.elements)


def test_poset_regularity_exhaustive():
    for r in (R22, R32, RZ4):
        assert check_poset_regularity(flag_poset(r), r.flag_act) is None


def test_quotient_poset_f2_is_chain():
    # two GL orbits of flags: [line] < [empty]
    orbits = {frozenset(R22.flag_act[:, f].tolist()) for f in range(len(R22.flags))}
    assert len(orbits) == 2


def test_poset_regularity_builds_neither_category_nor_product_table():
    key = ("F2", 3, astuple(DEFAULT))
    checks._RBS_CACHE.pop(key, None)
    assert checks.check_poset_regularity("F2", 3).ok
    rbs = checks._RBS_CACHE[key]
    assert "cat" not in rbs.__dict__ and "mult" not in rbs.gl.__dict__


def test_action_category_and_comparison():
    ac = gl_flag_action_category(R22)
    assert ac.n_objects == 4
    p = comparison_functor(R22, ac)
    # surjective on morphisms
    assert set(p.mor_idx.tolist()) == set(range(R22.cat.n_morphisms))
    assert comparison_iso_over_bgl(R22, p)


def test_comparison_proper():
    for r in (R22, R32):
        ac = gl_flag_action_category(r)
        p = comparison_functor(r, ac)
        assert is_proper(p, 3).ok


def test_comparison_rank_one_iso():
    r = build_rbs("F3", 1)
    ac = gl_flag_action_category(r)
    p = comparison_functor(r, ac)
    assert is_isomorphism_of_categories(p)


# ---------------------------------------------------------------------------
# BGL

def test_bgl_inclusion_fully_faithful():
    for r, size in ((R22, 6), (R32, 48)):
        sub, incl = bgl_category(r)
        assert sub.n_morphisms == size
        assert is_fully_faithful(incl)


# ---------------------------------------------------------------------------
# Tits buildings

def test_tits_counts():
    t22 = tits_building(2, 2)
    assert t22.vertex_count == 3 and t22.steinberg_rank == 2
    t32 = tits_building(3, 2)
    assert t32.vertex_count == 4 and t32.steinberg_rank == 3
    t23 = tits_building(2, 3)
    assert t23.simplex_counts == [14, 21]
    assert t23.steinberg_rank == 8
    assert t23.euler_characteristic == -7


def test_tits_ranks():
    assert tits_building(4, 2).steinberg_rank == 4
    assert tits_building(3, 3).steinberg_rank == 27


@pytest.mark.parametrize("q, n", [(2, 2), (2, 3), (3, 3), (4, 3), (2, 4),
                                  (3, 4)])
def test_subspace_inclusions_agree_with_pairwise_oracle(q, n):
    # the building's order relation, one product of membership rows,
    # against one Submodule.__lt__ per pair of subspaces
    from rbscat.rings import enumerate_submodules, inclusion_table
    ring = make_ring("F%d" % q)
    subs = [s for s in enumerate_submodules(ring, n) if 0 < s.rank < n]
    oracle = np.array([[s < t for t in subs] for s in subs],
                      bool).reshape(len(subs), len(subs))
    assert np.array_equal(inclusion_table(ring, n, subs), oracle)


def test_tits_requires_n_at_least_2():
    with pytest.raises(ValueError):
        tits_building(2, 1)


# ---------------------------------------------------------------------------
# inductive decomposition

def test_inductive_decomposition_all_flags():
    for r in (R22, R32):
        for fi in range(len(r.flags)):
            dec = inductive_decomposition(r, fi)
            assert dec.is_isomorphism, fi
            assert dec.inclusion_is_equivalence, fi


def test_inductive_check_builds_each_graded_rank_once(monkeypatch):
    # RBS(F3, 2) and RBS(F3, 1) once each; a fresh build per graded piece
    # of every flag is the oracle for the report
    rbs = checks._rbs("F3", 2, DEFAULT)
    oracle = {}
    for fi in range(len(rbs.flags)):
        dec = inductive_decomposition(rbs, fi, built={2: build_rbs("F3", 2)})
        assert all(g is not rbs for g in dec.graded_cats)
        oracle[fi] = (dec.is_isomorphism, dec.inclusion_is_equivalence,
                      [g.cat.n_morphisms for g in dec.graded_cats])
    built = []

    class Counting(rbs_module.RBSCategory):
        def __init__(self, ring, n, guards=DEFAULT):
            built.append(n)
            super().__init__(ring, n, guards)

    monkeypatch.setattr(rbs_module, "RBSCategory", Counting)
    monkeypatch.setattr(checks, "_RBS_CACHE", {})
    rep = checks.check_inductive("F3", 2)
    assert sorted(built) == [1, 2]
    assert rep.ok
    assert {fi: (v["iso"], v["equivalence"]) for fi, v in
            rep.measured["flags"].items()} == \
        {fi: v[:2] for fi, v in oracle.items()}
    rbs = checks._rbs("F3", 2, DEFAULT)
    shared = {}
    assert {fi: [g.cat.n_morphisms for g in inductive_decomposition(
        rbs, fi, built=shared).graded_cats] for fi in range(len(rbs.flags))} \
        == {fi: v[2] for fi, v in oracle.items()}
    assert shared[2] is rbs


def test_inductive_decomposition_empty_flag_is_whole():
    dec = inductive_decomposition(R22, R22.empty_flag_index)
    assert dec.le_subcategory.n_objects == 4
    assert dec.refinement_subcategory.n_objects == 4
    assert dec.graded_cats[0].cat.n_morphisms == R22.cat.n_morphisms


def test_inductive_decomposition_line_f3():
    lines, e = lines_of(R32)
    dec = inductive_decomposition(R32, lines[0])
    # product of two copies of B(F_3^x): 1 object, 4 automorphism pairs
    prod = dec.functor.target
    assert prod.n_objects == 1
    assert prod.n_morphisms == 4


# ---------------------------------------------------------------------------
# twisted arrows on the flag category

def test_twisted_cofinal_rbs():
    tw, proj = twisted_arrow_op(R22.cat)
    assert tw.n_objects == R22.cat.n_morphisms
    assert is_colim_equivalence(proj, 3).ok


# ---------------------------------------------------------------------------
# well-definedness of composition

def representatives_independent(r):
    """Oracle for RBSCategory._check_coset_composition: for every
    composable pair of cosets, every product of representatives lands in
    the canonical coset of the product, by a plain loop."""
    gl = r.gl
    for (fi, fj, g) in r.cat.mor_labels:
        for (fj2, fk, h) in r.cat.mor_labels:
            if fj2 != fj:
                continue
            expected = r.coset_min(fi, gl.mult[h, g])
            for u in r.unipotent[fi]:
                for v in r.unipotent[fj]:
                    prod = gl.mult[gl.mult[h, v], gl.mult[g, u]]
                    if r.coset_min(fi, prod) != expected:
                        return False
    return True


def test_composition_representative_independence_exhaustive():
    for r in (R22, R32):
        assert representatives_independent(r)


def test_coset_well_definedness_survives_optimize():
    # every element made its own coset representative: products of other
    # representatives of the same cosets then land elsewhere
    code = ("from rbscat.fincat import CategoryError\n"
            "from rbscat.rbs import build_rbs\n"
            "rbs = build_rbs('F2', 2)\n"
            "cat = rbs.cat\n"
            "rbs._coset_rep = [list(range(len(rbs.gl))) for _ in rbs.flags]\n"
            "try:\n"
            "    rbs._check_coset_composition(cat)\n"
            "except CategoryError as exc:\n"
            "    assert 'depends on representatives' in str(exc)\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(5)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_build_does_not_import_numpy_ma():
    # importing numpy.ma costs tens of milliseconds and over a megabyte in
    # every process that builds a category (np.unique imports it)
    code = ("import sys\n"
            "from rbscat.rbs import build_rbs\n"
            "build_rbs('F2', 2)\n"
            "raise SystemExit(5 if 'numpy.ma' in sys.modules else 0)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def corrupted(r, unipotent=None, coset_rep=None, recompute=False):
    """A shallow copy of r with its unipotent subgroups or its coset
    representatives replaced; recompute takes the least element of each
    coset g U_F of the new U_F as its representative, as construction
    does."""
    c = copy.copy(r)
    c.cat = r.cat
    c.unipotent = dict(r.unipotent) if unipotent is None else unipotent
    c._coset_rep = r._coset_rep if coset_rep is None else coset_rep
    if recompute:
        c._coset_rep = np.array([r.gl.mult[:, list(c.unipotent[f])].min(axis=1)
                                 for f in range(len(r.flags))])
    return c


def test_corrupted_unipotent_subgroup_is_caught():
    lines, e = lines_of(R32)
    f = lines[0]
    outside = next(g for g in range(len(R32.gl)) if g not in R32.unipotent[f])
    # U_F of a line enlarged by an element outside it: the representatives
    # are then not constant on its cosets
    c = corrupted(R32, {**R32.unipotent, f: R32.unipotent[f] + (outside,)})
    assert not representatives_independent(c)
    with pytest.raises(CategoryError, match="different representatives"):
        c._check_coset_composition(c.cat)
    # U_F of a line replaced by the U_F of another line, with the
    # representatives computed from it: they are constant on its cosets,
    # but conjugation no longer carries U_F into the U_F of the source
    c = corrupted(R32, {**R32.unipotent, f: R32.unipotent[lines[1]]},
                  recompute=True)
    assert not representatives_independent(c)
    with pytest.raises(CategoryError, match=r"g\^-1 v g is not in"):
        c._check_coset_composition(c.cat)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([R22, R32]), st.data())
def test_well_definedness_check_rejects_what_the_oracle_rejects(r, data):
    size, nf = len(r.gl), len(r.flags)
    f = data.draw(st.integers(0, nf - 1))
    kind = data.draw(st.sampled_from(["unipotent", "both", "coset_rep"]))
    if kind == "coset_rep":
        # one coset representative changed
        rep = np.array(r._coset_rep, np.int64)
        rep[f, data.draw(st.integers(0, size - 1))] = \
            data.draw(st.integers(0, size - 1))
        c = corrupted(r, coset_rep=rep)
    else:
        # one element of one U_F replaced, added or dropped, and the
        # representatives kept or computed from the new U_F
        u_f = list(r.unipotent[f])
        k = data.draw(st.integers(0, len(u_f)))
        g = data.draw(st.integers(0, size - 1))
        u_f[k:k + data.draw(st.integers(0, 1))] = \
            [g] * data.draw(st.integers(0, 1))
        c = corrupted(r, {**r.unipotent, f: tuple(u_f)},
                      recompute=kind == "both" and bool(u_f))
    if representatives_independent(c):
        return
    with pytest.raises(CategoryError, match="depends on representatives"):
        c._check_coset_composition(c.cat)


def python_ints(x):
    """x is built from tuples, lists, dicts, strings and Python ints only
    (numpy scalars would print as np.int32(3) in labels and payloads)."""
    if isinstance(x, (tuple, list)):
        return all(python_ints(y) for y in x)
    if isinstance(x, dict):
        return python_ints(list(x.items()))
    return type(x) in (int, str, bool)


@pytest.mark.parametrize("spec, n", [("F2", 2), ("F3", 2), ("Z4", 2),
                                     ("F4", 2), ("F2", 3), ("F3", 0)])
def test_gl_table_matches_matrix_products(spec, n):
    gl = GLData(make_ring(spec), n)
    every = mats(gl)
    index = {m.data: i for i, m in enumerate(every)}
    assert gl.mult.tolist() == [[index[a.mul(b).data] for b in every]
                                for a in every]
    assert gl.mult.dtype == np.int32 and gl.mult.flags.c_contiguous
    assert gl.one == index[Mat.identity(gl.ring, n).data]
    assert (gl.mult[np.arange(len(gl)), gl.inv] == gl.one).all()
    # labels and payloads read from the tables are Python ints
    r = build_rbs(spec, n)
    sg = compute_e_group(r)
    functor, _ = pi1_quotient_functor(r, sg)
    assert python_ints(r.cat.mor_labels)
    assert python_ints([sg.e_group, sg.parabolic, sg.unipotent])
    assert python_ints(pi1_target(r, sg).elements)


@pytest.mark.parametrize("spec, n", [("F2", 2), ("F3", 2), ("Z4", 2),
                                     ("F4", 2), ("F2", 3)])
def test_flag_action_matches_per_pair_transform(spec, n):
    # oracle: one image g(S), with its canonical row form, per (g, member)
    # pair, and the flag of the sorted images
    r = build_rbs(spec, n)

    def transform(m, g):
        return Submodule.from_rows(r.ring, n, [g.mul_vec(x) for x in m.mat])

    def image(g, f):
        members = sorted((transform(m, g) for m in f.members),
                         key=Submodule.sort_key)
        return r.flag_index[Flag(r.ring, n, tuple(members))]

    assert r.flag_act.tolist() == [[image(g, f) for f in r.flags]
                                   for g in mats(r.gl)]


def test_rbs_cache_is_keyed_by_guards():
    checks._rbs("F2", 2, DEFAULT)
    with pytest.raises(GuardExceeded, match="max_group_order"):
        checks._rbs("F2", 2, GuardConfig(max_group_order=5))


@pytest.mark.parametrize("spec, ell", [("F2", 3), ("F3", 2), ("Z4", 3)])
def test_resolution_checks_on_skeleton_match_full_category(spec, ell,
                                                           monkeypatch):
    # the full flag category is the oracle for the skeleton both checks use
    fp = checks.check_fp_acyclic(spec, 2).measured
    bgl = checks.check_bgl_comparison(spec, 2, ell).measured
    monkeypatch.setattr(checks, "skeleton", lambda C, guards: C)
    assert checks.check_fp_acyclic(spec, 2).measured == fp
    assert checks.check_bgl_comparison(spec, 2, ell).measured == bgl


def test_resolution_checks_run_their_engines_on_the_skeleton(monkeypatch):
    rbs = checks._rbs("F3", 2, DEFAULT)
    n_skeleton = checks.skeleton(rbs.cat, DEFAULT).n_objects
    assert n_skeleton < rbs.cat.n_objects
    seen = []

    def recording(engine):
        def run(C, *args):
            seen.append(C.n_objects)
            return engine(C, *args)
        return run

    for name in ("category_homology_mod", "nerve_chain_complex"):
        monkeypatch.setattr(checks, name, recording(getattr(checks, name)))
    assert checks.check_fp_acyclic("F3", 2).ok
    assert seen == [n_skeleton, n_skeleton]  # resolution, nerve cross-check
    seen.clear()
    assert checks.check_bgl_comparison("F3", 2, 2).ok
    assert seen == [1, n_skeleton]  # BGL, then the flag category


# ---------------------------------------------------------------------------
# functors built from indices against the label maps they stand for

def comparison_label_maps(r, ac):
    """p on labels: each flag to itself, (g, F, F') to (F, F', rep), rep
    the least index in the coset g U_F."""
    return ({o: o for o in ac.objects},
            {(g, f, fp): (f, fp, min(int(r.gl.mult[g, u])
                                     for u in r.unipotent[f]))
             for g, f, fp in ac.mor_labels})


def restriction_over_bgl_oracle(r, p):
    """Oracle for comparison_iso_over_bgl: p restricted to the one-object
    full subcategories on the empty flag, each built and validated, as a
    functor between them."""
    from rbscat.fincat import FinFunctor, _lookup
    e = r.empty_flag_index
    src_sub, src_in = full_subcategory(p.source, [e], r.guards)
    tgt_sub, tgt_in = full_subcategory(p.target, [e], r.guards)
    return FinFunctor(src_sub, tgt_sub,
                      _lookup(tgt_in.obj_idx, p.obj_idx[src_in.obj_idx]),
                      _lookup(tgt_in.mor_idx, p.mor_idx[src_in.mor_idx]),
                      r.guards)


@pytest.mark.parametrize("r", [R22, R32, RZ4], ids=["F2", "F3", "Z4"])
def test_comparison_functor_and_its_restriction_match_label_maps(r):
    ac = gl_flag_action_category(r)
    p = comparison_functor(r, ac)
    obj_map, mor_map = comparison_label_maps(r, ac)
    assert_indices_match(p, obj_map, mor_map)
    F = restriction_over_bgl_oracle(r, p)
    assert F.source.objects == F.target.objects == (r.empty_flag_index,)
    assert_indices_match(F, obj_map, mor_map)
    assert comparison_iso_over_bgl(r, p) is \
        is_isomorphism_of_categories(F) is True


@pytest.mark.parametrize("spec", ["F2", "F3", "Z4", "F4"])
def test_comparison_iso_over_bgl_agrees_with_subcategory_oracle(spec):
    # End(empty) compared through p's arrays, without building the two
    # one-object subcategories; a p that collapses two End(empty) images,
    # or sends one outside End(empty), is no isomorphism
    import types
    r = checks._rbs(spec, 2, DEFAULT)
    p = comparison_functor(r)
    assert comparison_iso_over_bgl(r, p) is is_isomorphism_of_categories(
        restriction_over_bgl_oracle(r, p)) is True
    e = r.empty_flag_index
    ends = list(p.source.hom(e, e))
    outside = next(m for m in range(p.source.n_morphisms)
                   if p.mor_idx[m] not in p.target.hom(e, e))
    for a, b in ((ends[0], ends[1]), (ends[-1], outside)):
        mor_idx = p.mor_idx.copy()
        mor_idx[a] = p.mor_idx[b]
        bad = types.SimpleNamespace(source=p.source, target=p.target,
                                    obj_idx=p.obj_idx, mor_idx=mor_idx)
        assert comparison_iso_over_bgl(r, bad) is False


@pytest.mark.parametrize("r", [R22, R32, RZ4], ids=["F2", "F3", "Z4"])
def test_pi1_quotient_functor_matches_label_map(r):
    sg = compute_e_group(r)
    functor, surjective = pi1_quotient_functor(r, sg)
    # each coset g U_F goes to the class of g, named by its least element
    classes = {lbl: ("*", min(int(r.gl.mult[lbl[2], e]) for e in sg.e_group))
               for lbl in r.cat.mor_labels}
    assert_indices_match(functor, {o: "*" for o in r.cat.objects}, classes)
    assert surjective == (set(classes.values()) ==
                          set(functor.target.mor_labels))


def block_matrix_oracle(g, quot, ring):
    """Oracle for the graded blocks of inductive_decomposition: the matrix
    that the Mat g induces on a graded piece in its complement
    coordinates, one mul_vec and QuotientData.project per section row."""
    images = [quot.project(g.mul_vec(r)) for r in quot.section_rows]
    d = len(quot.section_rows)
    return Mat(ring, [[images[j][i] for j in range(d)] for i in range(d)],
               cols=d)


@pytest.mark.parametrize("spec, n", [("F2", 2), ("F3", 2), ("Z4", 2),
                                     ("F2", 3)])
def test_graded_blocks_agree_with_mat_oracle(spec, n):
    # every g of every parabolic P_F, on every graded piece of F
    r = checks._rbs(spec, n, DEFAULT)
    for fi, quots in enumerate(r._quotients):
        reps = list(r.parabolic[fi])
        for q in quots:
            got = rbs_module._graded_blocks(r, reps, q)
            assert got.tolist() == [[list(row) for row in block_matrix_oracle(
                mat(r.gl, g), q, r.ring).data] for g in reps]


@pytest.mark.parametrize("r", [R22, R32, RZ4], ids=["F2", "F3", "Z4"])
def test_inductive_functors_match_label_maps(r, monkeypatch):
    # the inclusion of the refinements of F into the objects with a map to
    # F, as inductive_decomposition tests it for full faithfulness
    inclusions = []

    def recording(F):
        inclusions.append(F)
        return is_fully_faithful(F)

    monkeypatch.setattr(rbs_module, "is_fully_faithful", recording)
    built = {}
    for fi in range(len(r.flags)):
        dec = inductive_decomposition(r, fi, built=built)
        ref_sub, graded = dec.refinement_subcategory, dec.graded_cats
        quots = r._quotients[fi]
        pieces = {gj: tuple(rbs_module._graded_flags(r, gj, fi, quots, graded))
                  for gj in ref_sub.objects}
        # each graded block found among the matrices of its GL by entries
        index = [{m.data: i for i, m in enumerate(mats(g.gl))} for g in graded]
        mor_map = {}
        for lbl in ref_sub.mor_labels:
            src, tgt, rep = lbl
            blocks = []
            for i, q in enumerate(quots):
                block = block_matrix_oracle(mat(r.gl, rep), q, graded[i].ring)
                blocks.append((pieces[src][i], pieces[tgt][i],
                               graded[i].coset_min(pieces[src][i],
                                                   index[i][block.data])))
            mor_map[lbl] = tuple(blocks)
        assert_indices_match(dec.functor, pieces, mor_map)
        incl = inclusions.pop()
        assert (incl.source, incl.target.objects) == \
            (ref_sub, dec.le_subcategory.objects)
        assert_indices_match(incl, {o: o for o in ref_sub.objects},
                             {m: m for m in ref_sub.mor_labels})


@pytest.mark.parametrize("spec, n", [("F2", 2), ("F3", 2), ("Z4", 2),
                                     ("F2", 3), ("F3", 0)])
def test_gl_index_of_finds_matrices_by_code(spec, n):
    gl = GLData(make_ring(spec), n)
    assert gl.index_of(gl.entries).tolist() == list(range(len(gl)))
    assert gl.index_of(np.eye(n, dtype=np.int64)[None]).tolist() == [gl.one]
    if n:
        with pytest.raises(CategoryError, match="not in GL"):
            gl.index_of(np.zeros((1, n, n), np.int64))
