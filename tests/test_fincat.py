import hashlib
import itertools
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbscat.fincat import (
    CategoryError,
    FiberFamily,
    FinFunctor,
    Group,
    Poset,
    _generators,
    action_category,
    check_poset_regularity,
    full_subcategory,
    group_category,
    is_fully_faithful,
    is_isomorphism_of_categories,
    left_fiber,
    opposite,
    poset_category,
    product_tuple,
    right_fiber,
    skeleton,
    strict_fiber,
    terminal_category,
    twisted_arrow_op,
    validate_category,
)
from rbscat.guards import DEFAULT, GuardConfig, GuardExceeded
from rbscat import toolkit
from rbscat.rbs import build_rbs, comparison_functor
from rbscat.toolkit import (
    is_colim_equivalence,
    is_lim_equivalence,
    is_proper,
    is_weakly_contractible,
)


def poset(elements, pairs):
    """The poset on elements whose relation holds exactly on the pairs."""
    pairs = set(pairs)
    return Poset(elements, [[(a, b) in pairs for b in elements]
                            for a in elements])


def group(elements, mul, identity):
    """The group on elements with the multiplication rule mul, as a table."""
    elements = list(elements)
    return Group(elements, [[elements.index(mul(a, b)) for b in elements]
                            for a in elements], identity)


def cyclic(k):
    return Group(range(k), np.add.outer(range(k), range(k)) % k, 0)


CHAIN = poset([0, 1], [(0, 0), (1, 1), (0, 1)])


def chain_category():
    return poset_category(CHAIN)


def bz(k):
    return group_category(cyclic(k))


# test-only category calculus, kept here as helpers

def identity_functor(C):
    return FinFunctor(C, C, range(C.n_objects), range(C.n_morphisms))


def is_iso(C, f):
    """f invertible: some g has g.f and f.g identities."""
    return any(C.compose(g, f) == C.identity_of[C.src[f]] and
               C.compose(f, g) == C.identity_of[C.tgt[f]]
               for g in C.hom_idx(C.tgt[f], C.src[f]))


def is_essentially_surjective(F):
    A, B = F.source, F.target
    image = set(F.obj_idx.tolist())
    return all(yi in image or any(is_iso(B, f) for xi in image
                                  for f in B.hom_idx(xi, yi))
               for yi in range(B.n_objects))


def is_equivalence(F):
    return is_fully_faithful(F) and is_essentially_surjective(F)


def poset_quotient(P, moved):
    """The quotient poset G\\P of a regular action, moved[g, p] the index
    of g.p, and the class of each element: orbits ordered as their least
    elements are, each named by its least element's label."""
    if check_poset_regularity(P, moved) is not None:
        raise ValueError("the action is not regular")
    orbits = sorted({tuple(sorted(set(moved[:, x].tolist())))
                     for x in range(len(P))})
    reps = [orbit[0] for orbit in orbits]
    rel = [[P.rel[np.ix_(oi, oj)].any() for oj in orbits] for oi in orbits]
    quotient = Poset([P.elements[r] for r in reps], rel)
    class_of = {P.elements[x]: P.elements[reps[i]]
                for i, orbit in enumerate(orbits) for x in orbit}
    return quotient, class_of


# ---------------------------------------------------------------------------
# validation

def test_terminal_category():
    T = terminal_category()
    assert T.n_objects == 1 and T.n_morphisms == 1


def test_poset_as_category():
    C = chain_category()
    assert C.n_morphisms == 3


def test_broken_associativity_is_reported():
    # one object, three morphisms e, a, b with a.a = b, a.b = b.a = e, b.b = a
    # but deliberately break one entry
    comp = {
        ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
        ("a", "e"): "a", ("b", "e"): "b",
        ("a", "a"): "b", ("a", "b"): "e", ("b", "a"): "e",
        ("b", "b"): "e",  # should be "a" for Z/3
    }
    with pytest.raises(CategoryError, match="associativity"):
        validate_category(["*"], [(m, "*", "*") for m in "eab"],
                          {"*": "e"}, comp)


def test_missing_identity_is_reported():
    with pytest.raises(CategoryError, match="identity"):
        validate_category(["*"], [("f", "*", "*")], {}, {("f", "f"): "f"})


def test_missing_composite_is_reported():
    with pytest.raises(CategoryError, match="missing"):
        validate_category(["*"], [("e", "*", "*"), ("f", "*", "*")],
                          {"*": "e"},
                          {("e", "e"): "e", ("e", "f"): "f", ("f", "e"): "f"})


def pair_list(C):
    """Every composable pair (g, f, g.f) of C, as index triples."""
    return list(zip(*(a.tolist() for a in C.pairs())))


def tables(C):
    """The raw label tables validate_category takes, read back from C."""
    morphs = [(C.mor_labels[i], C.objects[C.src[i]], C.objects[C.tgt[i]])
              for i in range(C.n_morphisms)]
    idents = {C.objects[i]: C.mor_labels[C.identity_of[i]]
              for i in range(C.n_objects)}
    comp = {(C.mor_labels[g], C.mor_labels[f]): C.mor_labels[h]
            for g, f, h in pair_list(C)}
    return list(C.objects), morphs, idents, comp


def oracle_is_category(morphs, idents, comp):
    """Oracle for validate_category: a plain loop over labels that checks
    both identity laws and every composable triple for associativity."""
    src = {m: s for m, s, _ in morphs}
    tgt = {m: t for m, _, t in morphs}
    for f in src:
        if comp[(idents[tgt[f]], f)] != f or comp[(f, idents[src[f]])] != f:
            return False
    for f in src:
        for g in src:
            if src[g] != tgt[f]:
                continue
            for h in src:
                if src[h] == tgt[g] and \
                        comp[(h, comp[(g, f)])] != comp[(comp[(h, g)], f)]:
                    return False
    return True


V_POSET = poset("abc", [("a", "a"), ("b", "b"), ("c", "c"),
                        ("a", "b"), ("a", "c")])


def v_poset_category():
    return poset_category(V_POSET)


BASES = [bz(1), bz(2), bz(3), bz(4), chain_category(), v_poset_category(),
         validate_category(["a", "b"], [("ia", "a", "a"), ("ib", "b", "b")],
                           {"a": "ia", "b": "ib"},
                           {("ia", "ia"): "ia", ("ib", "ib"): "ib"})]


@st.composite
def small_categories(draw):
    """Products and full subcategories of cyclic-group and poset categories."""
    C = draw(st.sampled_from(BASES))
    if draw(st.booleans()):
        C = product_tuple([C, draw(st.sampled_from(BASES))])
    if draw(st.booleans()):
        objs = draw(st.lists(st.sampled_from(C.objects), min_size=1,
                             unique=True))
        C, _ = full_subcategory(C, objs)
    return C


@settings(max_examples=150, deadline=None)
@given(small_categories(), st.data())
def test_validator_agrees_with_triple_loop_oracle(C, data):
    # one composite replaced by a random morphism with the same endpoints
    objs, morphs, idents, comp = tables(C)
    g, f = data.draw(st.sampled_from(sorted(comp, key=repr)))
    ends = {m: (s, t) for m, s, t in morphs}
    comp[(g, f)] = data.draw(st.sampled_from(
        [m for m, s, t in morphs if (s, t) == (ends[f][0], ends[g][1])]))
    if oracle_is_category(morphs, idents, comp):
        validate_category(objs, morphs, idents, comp)
    else:
        with pytest.raises(CategoryError):
            validate_category(objs, morphs, idents, comp)


def test_guard_bounds_the_triples_light_test_compares():
    # BZ/3 has 27 composable triples; S = {1} (2 = 1 + 1), so Light's test
    # compares the 9 with middle 1
    objs, morphs, idents, comp = tables(bz(3))
    validate_category(objs, morphs, idents, comp,
                      GuardConfig(max_assoc_triples=9))
    with pytest.raises(GuardExceeded, match="requires 9 > max_assoc_triples=8"):
        validate_category(objs, morphs, idents, comp,
                          GuardConfig(max_assoc_triples=8))


@pytest.mark.parametrize("build", [
    lambda guards: group_category(cyclic(2), guards),
    lambda guards: poset_category(V_POSET, guards),
    lambda guards: opposite(bz(2), guards),
    lambda guards: product_tuple([bz(2)], guards),
    lambda guards: twisted_arrow_op(bz(2), guards)[0],
], ids=["group", "poset", "opposite", "product", "twisted"])
def test_derived_builders_obey_the_callers_guards(build):
    # each table has more than one Light triple: these builders validated
    # under the default guards whatever the caller passed
    build(DEFAULT)
    with pytest.raises(GuardExceeded, match="max_assoc_triples=1"):
        build(GuardConfig(max_assoc_triples=1))


def test_composable_pairs_are_counted_before_they_are_listed(monkeypatch):
    # the sum of in-degree times out-degree over the flags of RBS(F2, 2),
    # checked before _join lists a pair, and |G|^2 for B(G)
    from rbscat import rbs as rbs_module

    def no_join(*args):
        raise AssertionError("pairs listed before the guard ran")
    pairs = int(sum(np.bincount(RBS_F2.tgt) * np.bincount(RBS_F2.src)))
    assert pairs == len(RBS_F2.flat)
    monkeypatch.setattr(rbs_module, "_join", no_join)
    with pytest.raises(GuardExceeded,
                       match="flag category requires %d > max_composable"
                       % pairs):
        build_rbs("F2", 2, GuardConfig(max_composable_pairs=pairs - 1)).cat
    with pytest.raises(GuardExceeded,
                       match="group category requires 25 > max_composable"):
        group_category(cyclic(5), GuardConfig(max_composable_pairs=24))
    monkeypatch.undo()
    assert build_rbs("F2", 2, GuardConfig(max_composable_pairs=pairs)).cat \
        .mor_labels == RBS_F2.mor_labels
    group_category(cyclic(5), GuardConfig(max_composable_pairs=25))


@pytest.mark.parametrize("side", ["left", "right"])
def test_broken_identity_in_an_associative_table_is_reported(side):
    # the left-zero (x.y = x) and right-zero (x.y = y) semigroups on {e, a}
    # are associative, and e is neutral on one side only
    comp = {(x, y): x if side == "left" else y for x in "ea" for y in "ea"}
    with pytest.raises(CategoryError, match="%s identity fails for 'a'" % side):
        validate_category(["*"], [("e", "*", "*"), ("a", "*", "*")],
                          {"*": "e"}, comp)


def test_composite_with_wrong_endpoints_is_reported():
    objs, morphs, idents, comp = tables(chain_category())
    comp[((1, 1), (0, 1))] = (1, 1)
    with pytest.raises(CategoryError, match="wrong endpoints"):
        validate_category(objs, morphs, idents, comp)


# ---------------------------------------------------------------------------
# Light's test: the generating set and exactness

def generators(C, comp=None):
    """The generating set S of Light's test for the table of C, or for
    comp, a label table over the morphisms of C (possibly corrupted)."""
    if comp is None:
        g, f, gf = C.pairs()
    else:
        g, f, gf = (np.array([C.mor_index[m] for m in column],
                             np.int64).reshape(-1)
                    for column in zip(*((g, f, h) for (g, f), h in
                                        comp.items())))
    mask = _generators(C.n_morphisms, C.identity_of, g, f, gf)
    return {C.mor_labels[i] for i in np.flatnonzero(mask)}


def light_triples(C, gens):
    """The composable triples (f, g, h) with g in gens."""
    in_n = np.bincount(C.tgt, minlength=C.n_objects)
    out_n = np.bincount(C.src, minlength=C.n_objects)
    return sum(int(in_n[C.src[i]] * out_n[C.tgt[i]])
               for i in map(C.mor_index.get, gens))


def closure(C, gens):
    """Oracle for the generating set: the morphisms reached from gens and
    the identities by composing, breadth first."""
    reached = set(gens) | {C.mor_labels[i] for i in C.identity_of}
    labelled = [tuple(C.mor_labels[i] for i in t) for t in pair_list(C)]
    frontier = set(reached)
    while frontier:
        new = {h for g, f, h in labelled
               if (g in frontier or f in frontier)
               and g in reached and f in reached} - reached
        reached |= new
        frontier = new
    return reached


RBS_F2 = build_rbs("F2", 2).cat
RBS_F2_P = comparison_functor(build_rbs("F2", 2))
# every left and right fiber of the comparison functor on F2^2
RBS_F2_FIBERS = [build(RBS_F2_P, d) for d in RBS_F2_P.target.objects
                 for build in (left_fiber, right_fiber)]


def test_generators_and_identities_generate_every_morphism():
    products = [product_tuple([C, D]) for C in BASES for D in BASES]
    for C in BASES + products + [RBS_F2] + RBS_F2_FIBERS:
        gens = generators(C)
        assert not gens & {C.mor_labels[i] for i in C.identity_of}
        assert closure(C, gens) == set(C.mor_labels)


def failing_triples(morphs, comp):
    """Every composable (f, g, h) with h.(g.f) != (h.g).f, by labels."""
    src = {m: s for m, s, _ in morphs}
    tgt = {m: t for m, _, t in morphs}
    return {(f, g, h) for (g, f) in comp for h in src
            if src[h] == tgt[g] and
            comp[(h, comp[(g, f)])] != comp[(comp[(h, g)], f)]}


def assert_validator_agrees(C, objs, morphs, idents, comp):
    """validate_category raises exactly when oracle_is_category fails; an
    associativity failure names a failing triple whose middle morphism is
    in the generating set of comp."""
    if oracle_is_category(morphs, idents, comp):
        validate_category(objs, morphs, idents, comp)
        return
    with pytest.raises(CategoryError) as info:
        validate_category(objs, morphs, idents, comp)
    if "associativity" in str(info.value):
        named = [t for t in failing_triples(morphs, comp)
                 if str(info.value).endswith("(%r, %r, %r)" % t)]
        assert len(named) == 1 and named[0][1] in generators(C, comp)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([RBS_F2] + RBS_F2_FIBERS), st.data())
def test_validator_agrees_with_oracle_on_rbs_and_its_fibers(C, data):
    # one composite replaced by a random morphism with the same endpoints
    objs, morphs, idents, comp = tables(C)
    g, f = data.draw(st.sampled_from(sorted(comp, key=repr)))
    ends = {m: (s, t) for m, s, t in morphs}
    comp[(g, f)] = data.draw(st.sampled_from(
        [m for m, s, t in morphs if (s, t) == (ends[f][0], ends[g][1])]))
    assert_validator_agrees(C, objs, morphs, idents, comp)


def test_wrong_composite_on_non_generators_is_caught():
    # in BZ/4 set 2 + 1 = 1 instead of 3: then 1 = 2 + 3 and 2 = 3 + 3
    # come after 3 in the order, so S = {3}, and the wrong composite lies
    # on two morphisms outside S
    C = bz(4)
    objs, morphs, idents, comp = tables(C)
    comp[(("*", 2), ("*", 1))] = ("*", 1)
    assert generators(C, comp) == {("*", 3)}
    assert not oracle_is_category(morphs, idents, comp)
    assert_validator_agrees(C, objs, morphs, idents, comp)


def z2_times_wide_poset():
    """Z/2 x a poset with w < x < y, 20 elements above x and 20 above y,
    with one composite broken: few of its composable triples fail."""
    elems = ["w", "x", "y"] + ["L%d" % i for i in range(20)] + \
        ["M%d" % i for i in range(20)]
    leq = [(e, e) for e in elems] + [("w", "x"), ("x", "y"), ("w", "y")]
    leq += [(a, "L%d" % i) for i in range(20) for a in ("w", "x")]
    leq += [(a, "M%d" % i) for i in range(20) for a in ("w", "x", "y")]
    C = product_tuple([bz(2), poset_category(poset(elems, leq))])
    objs, morphs, idents, comp = tables(C)
    g, f = (("*", 1), ("x", "y")), (("*", 1), ("w", "x"))
    comp[(g, f)] = (("*", 1), ("w", "y"))  # should be (("*", 0), ("w", "y"))
    return C, objs, morphs, idents, comp


def test_sampled_mode_checks_every_triple_under_the_guard():
    # validation has no sampled mode: under the default guard, which covers
    # all composable triples here, a composite that breaks only 46 of the
    # 4,920 triples is found, and the triple named is one that fails
    C, objs, morphs, idents, comp = z2_times_wide_poset()
    failing = failing_triples(morphs, comp)
    assert 0 < len(failing) < C.triple_count() // 100
    assert C.triple_count() <= DEFAULT.max_assoc_triples
    with pytest.raises(CategoryError, match="associativity") as info:
        validate_category(objs, morphs, idents, comp)
    assert any(str(info.value).endswith("(%r, %r, %r)" % t) for t in failing)


def test_past_the_guard_light_test_is_exact_when_its_triples_fit():
    # the guard bounds the triples Light's test compares, not all
    # composable triples: at that count the failure is found, one below
    # it validation stops
    C, objs, morphs, idents, comp = z2_times_wide_poset()
    assert not oracle_is_category(morphs, idents, comp)
    light = light_triples(C, generators(C, comp))
    assert light < C.triple_count()
    with pytest.raises(CategoryError, match="associativity"):
        validate_category(objs, morphs, idents, comp,
                          GuardConfig(max_assoc_triples=light))
    with pytest.raises(GuardExceeded, match="requires %d > max_assoc_triples"
                       % light):
        validate_category(objs, morphs, idents, comp,
                          GuardConfig(max_assoc_triples=light - 1))


def test_rbs_f2_cubed_is_validated_exactly_under_the_default_guard():
    C = build_rbs("F2", 3).cat
    assert light_triples(C, generators(C)) <= DEFAULT.max_assoc_triples \
        < C.triple_count()


# ---------------------------------------------------------------------------
# calculus

def test_opposite_involutive():
    C = chain_category()
    assert opposite(opposite(C)).objects == C.objects
    assert opposite(C).hom(1, 0) == [2] or len(opposite(C).hom(1, 0)) == 1


def test_product_with_terminal():
    C = chain_category()
    P = product_tuple([C, terminal_category()])
    assert P.n_objects == C.n_objects and P.n_morphisms == C.n_morphisms


def test_product_tuple_three_factors():
    T = terminal_category()
    C = chain_category()
    P = product_tuple([C, T, T])
    assert P.n_objects == 2 and P.n_morphisms == 3


def test_full_subcategory_inclusion_fully_faithful():
    C = chain_category()
    sub, incl = full_subcategory(C, [0])
    assert sub.n_morphisms == 1
    assert is_fully_faithful(incl)


def test_isomorphism_detection():
    C = chain_category()
    F = identity_functor(C)
    assert is_isomorphism_of_categories(F)
    assert is_equivalence(F)


def indiscrete(n):
    """The indiscrete category on n objects: one morphism between any pair."""
    objs = list(range(n))
    return validate_category(
        objs, [((a, b), a, b) for a in objs for b in objs],
        {a: (a, a) for a in objs},
        {((b, c), (a, b)): (a, c) for a in objs for b in objs for c in objs})


def test_skeleton_collapses_indiscrete():
    S = skeleton(indiscrete(3))
    assert S.n_objects == 1 and S.n_morphisms == 1


# ---------------------------------------------------------------------------
# fibers

def test_left_fiber_of_identity_has_terminal():
    C = chain_category()
    lf = left_fiber(identity_functor(C), 1)
    assert lf.has_terminal_object() is not None


def test_left_fiber_can_be_empty():
    C = chain_category()
    sub, incl = full_subcategory(C, [1])
    lf = left_fiber(incl, 0)
    assert lf.n_objects == 0


def test_strict_fiber_inclusion():
    C = chain_category()
    fib, rf, incl = strict_fiber(identity_functor(C), 1)
    assert fib.n_objects == 1
    # right fiber over 1: objects (c, m: 1 -> c), and only c = 1 receives
    assert rf.n_objects == 1
    fib0, rf0, incl0 = strict_fiber(identity_functor(C), 0)
    assert rf0.n_objects == 2  # (0, id) and (1, 0->1)


def test_proper_iff_left_closed_for_full_inclusions():
    C = chain_category()
    sub1, incl1 = full_subcategory(C, [1])
    sub0, incl0 = full_subcategory(C, [0])
    assert not is_proper(incl1, 3).ok   # {1} is not left closed in {0<1}
    assert is_proper(incl0, 3).ok       # {0} is a sieve


def test_groupoid_target_functors_are_proper():
    B = bz(2)
    F = identity_functor(B)
    assert is_proper(F, 3).ok


def test_left_adjoint_is_lim_equivalence():
    # the inclusion of the initial object {0} -> {0<1} is left adjoint to
    # the constant functor, hence a lim-equivalence: every left fiber has
    # a terminal object
    C = chain_category()
    sub, incl = full_subcategory(C, [0])
    assert is_lim_equivalence(incl, 3).ok
    # whereas the non-initial inclusion has an empty left fiber over 0
    sub1, incl1 = full_subcategory(C, [1])
    assert not is_lim_equivalence(incl1, 3).ok


# ---------------------------------------------------------------------------
# index-space builders against label-space oracles

def oracle_fiber(F, d, side):
    """Oracle for left_fiber / right_fiber: the label-space construction,
    one dict entry per composable pair, validated by validate_category."""
    A, B = F.source, F.target
    di = B.obj_index[d]
    objects = []
    for ci in range(A.n_objects):
        fci = F.obj_idx[ci]
        homs = B.hom_idx(fci, di) if side == "left" else B.hom_idx(di, fci)
        for m in homs:
            objects.append((A.objects[ci], B.mor_labels[m]))
    morphs = []
    # a morphism (c,m) -> (c',m') is u: c -> c' with
    # (left)  m == m' . F(u)      (right)  m' == F(u) . m
    for (c, m) in objects:
        mi = B.mor_index[m]
        for u in A.morphisms_from(A.obj_index[c]):
            cpi = A.tgt[u]
            fu = F.mor_idx[u]
            if side == "left":
                targets = [mp for mp in B.hom_idx(F.obj_idx[cpi], di)
                           if B.compose(mp, fu) == mi]
            else:
                targets = [B.compose(fu, mi)]
            for mp in targets:
                tgt_obj = (A.objects[cpi], B.mor_labels[mp])
                morphs.append((((c, m), tgt_obj, A.mor_labels[u]), (c, m), tgt_obj))
    idents = {(c, m): ((c, m), (c, m), A.mor_labels[A.identity_of[A.obj_index[c]]])
              for (c, m) in objects}
    mors_of = {}
    for (lbl, s, _) in morphs:
        mors_of.setdefault(s, []).append(lbl)
    comp = {}
    for (lbl1, s1, t1) in morphs:
        for lbl2 in mors_of.get(t1, ()):
            u21 = A.compose(A.mor_index[lbl2[2]], A.mor_index[lbl1[2]])
            comp[(lbl2, lbl1)] = (s1, lbl2[1], A.mor_labels[u21])
    return validate_category(objects, morphs, idents, comp)


def oracle_subcategory(C, objs, keep):
    """Oracle for full_subcategory / strict_fiber: the objects objs and the
    morphism labels m with keep(m), composition copied label by label."""
    mors = [i for i in range(C.n_morphisms)
            if C.objects[C.src[i]] in objs and C.objects[C.tgt[i]] in objs
            and keep(i)]
    kept = set(mors)
    morphs = [(C.mor_labels[i], C.objects[C.src[i]], C.objects[C.tgt[i]])
              for i in mors]
    idents = {o: C.mor_labels[C.identity_of[C.obj_index[o]]] for o in objs}
    comp = {(C.mor_labels[g], C.mor_labels[f]): C.mor_labels[h]
            for g, f, h in pair_list(C) if g in kept and f in kept}
    return validate_category(objs, morphs, idents, comp)


def test_restriction_that_is_not_a_subcategory_raises_under_optimize():
    # a restriction inherits its parent's associativity (only Light's loop
    # is skipped), but a keep mask that drops the composite of two kept
    # morphisms, or an identity, still fails; python -O strips no check
    code = ("import numpy as np\n"
            "from rbscat.fincat import (CategoryError, Poset, _subcategory,\n"
            "                           poset_category)\n"
            "from rbscat.guards import DEFAULT\n"
            "C = poset_category(Poset([0, 1, 2], np.triu(np.ones((3, 3), bool))))\n"
            "for drop, what in ((C.mor_index[(0, 2)], 'is not a morphism'),\n"
            "                   (C.identity_of[1], 'missing identity')):\n"
            "    keep = np.ones(C.n_morphisms, bool)\n"
            "    keep[drop] = False\n"
            "    try:\n"
            "        _subcategory(C, np.arange(3), keep, DEFAULT)\n"
            "    except CategoryError as err:\n"
            "        if what not in str(err):\n"
            "            raise SystemExit('wrong error: %s' % err)\n"
            "        continue\n"
            "    raise SystemExit('no CategoryError: ' + what)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr + proc.stdout


def oracle_strict_fiber(F, d):
    A, B = F.source, F.target
    id_d = B.identity_of[B.obj_index[d]]
    objs = [o for i, o in enumerate(A.objects)
            if F.obj_idx[i] == B.obj_index[d]]
    return oracle_subcategory(A, objs, lambda i: F.mor_idx[i] == id_d)


def assert_same_category(C, D):
    assert (C.objects, C.mor_labels) == (D.objects, D.mor_labels)
    for x, y in ((C.src, D.src), (C.tgt, D.tgt),
                 (C.identity_of, D.identity_of)):
        assert x.tolist() == y.tolist()
    # with the same src and tgt the tables have the same layout
    for x, y in zip(C.pairs(), D.pairs()):
        assert np.array_equal(x, y)


def assert_fibers_agree(F):
    for d in F.target.objects:
        for side, build in (("left", left_fiber), ("right", right_fiber)):
            assert_same_category(build(F, d), oracle_fiber(F, d, side))
        fib, rf, _ = strict_fiber(F, d)
        assert_same_category(fib, oracle_strict_fiber(F, d))
        assert_same_category(rf, oracle_fiber(F, d, "right"))


@st.composite
def small_functors(draw):
    """Identities, full inclusions and product projections among small
    categories."""
    C = draw(small_categories())
    kind = draw(st.sampled_from(["identity", "inclusion", "projection"]))
    if kind == "identity":
        return identity_functor(C)
    if kind == "inclusion":
        objs = draw(st.lists(st.sampled_from(C.objects), min_size=1,
                             unique=True))
        return full_subcategory(C, objs)[1]
    P = product_tuple([C, draw(st.sampled_from(BASES))])
    return FinFunctor(P, C, [C.obj_index[o[0]] for o in P.objects],
                      [C.mor_index[m[0]] for m in P.mor_labels])


@settings(max_examples=120, deadline=None)
@given(small_functors(), st.data())
def test_fibers_and_subcategories_agree_with_label_oracle(F, data):
    assert_fibers_agree(F)
    C = F.source
    objs = data.draw(st.lists(st.sampled_from(C.objects), min_size=1,
                              unique=True))
    sub, incl = full_subcategory(C, objs)
    assert_same_category(sub, oracle_subcategory(C, objs, lambda i: True))
    assert is_fully_faithful(incl)


def cone_point_loops(C, end):
    """Oracle for FinCat.has_terminal_object (end 1) and has_initial_object
    (end 0): the first object y with exactly one morphism x -> y (end 1) or
    y -> x (end 0) for every object x, by one hom-set lookup per pair."""
    n = C.n_objects
    for yi in range(n):
        if all(len(C.hom_idx(xi, yi) if end else C.hom_idx(yi, xi)) == 1
               for xi in range(n)):
            return C.objects[yi]
    return None


def assert_cone_points_agree(C):
    assert C.has_terminal_object() == cone_point_loops(C, 1)
    assert C.has_initial_object() == cone_point_loops(C, 0)


@settings(max_examples=100, deadline=None)
@given(small_functors(), st.data())
def test_cone_points_agree_with_pairwise_oracle(F, data):
    d = data.draw(st.sampled_from(F.target.objects))
    for C in (F.source, opposite(F.source), left_fiber(F, d),
              right_fiber(F, d)):
        assert_cone_points_agree(C)


def test_cone_points_of_rbs_and_indiscrete_categories_agree_with_oracle():
    assert indiscrete(3).has_terminal_object() == 0
    for C in (indiscrete(3), validate_category([], [], {}, {}),
              build_rbs("F2", 2).cat, build_rbs("F3", 2).cat):
        assert_cone_points_agree(C)
        assert_cone_points_agree(opposite(C))


@pytest.mark.parametrize("spec", ["F2", "F3"])
def test_comparison_functor_fibers_agree_with_label_oracle(spec):
    assert_fibers_agree(comparison_functor(build_rbs(spec, 2)))


@pytest.mark.parametrize("spec", ["F2", "F3", "Z4", "F4"])
def test_subcategories_rank_parallel_morphisms_by_parent_index(spec,
                                                               monkeypatch):
    # _subcategory passes the parent's morphism indices to _build as
    # mor_rank instead of keying the labels: the skeleton and the strict
    # fibers of the comparison functor (the subcategory part of
    # strict_fiber) have the same artifact bytes as when _build ranks the
    # labels itself
    from rbscat import fincat
    from rbscat.jsonio import fincat_to_json
    rbs = build_rbs(spec, 2)
    P = comparison_functor(rbs)
    src, tgt = P.source.src, P.source.tgt

    def artifacts():
        cats = [skeleton(rbs.cat)]
        for d in P.target.objects:
            di = P.target.obj_index[d]
            over = P.obj_idx == di
            cats.append(fincat._subcategory(
                P.source, np.flatnonzero(over),
                over[src] & over[tgt] & (P.mor_idx == P.target.identity_of[di]),
                DEFAULT))
        return [fincat_to_json(C) for C in cats]

    ranked_by_index = artifacts()
    build = fincat._build
    # the first nine arguments: everything but mor_rank
    monkeypatch.setattr(fincat, "_build",
                        lambda *args, **kwargs: build(*args[:9], **kwargs))
    assert artifacts() == ranked_by_index


class Shown:
    """A label whose repr is the given text."""

    def __init__(self, text):
        self.text = text

    def __repr__(self):
        return self.text


@pytest.mark.parametrize("name", ["terminal", "chain2", "BZ2", "BZ3",
                                  "RBS-F2-2"])
def test_twisted_arrows_rank_parallel_morphisms_by_label_parts(name,
                                                               monkeypatch):
    # twisted_arrow_op ranks the two varying parts of its labels once per
    # morphism of C instead of keying every 4-tuple label: the same
    # artifact bytes as when _build ranks the labels itself
    from rbscat import fincat
    from rbscat.checks import _named_small_category
    from rbscat.jsonio import fincat_to_json
    C = _named_small_category(name)
    ranked_by_parts = fincat_to_json(twisted_arrow_op(C)[0])
    build = fincat._build
    monkeypatch.setattr(fincat, "_build",
                        lambda *args, **kwargs: build(*args[:9], **kwargs))
    assert fincat_to_json(twisted_arrow_op(C)[0]) == ranked_by_parts


def test_twisted_arrows_key_labels_when_a_part_prefixes_another():
    # in BZ/2 labelled so that repr(e) + ", " is a prefix of repr(g) + ", ",
    # the first parts' ranks misorder 4 hom-sets of Tw; _build keys the
    # labels instead
    e, g = Shown("x"), Shown("x, a")
    C = validate_category(["*"], [(e, "*", "*"), (g, "*", "*")], {"*": e},
                          {(e, e): e, (e, g): g, (g, e): g, (g, g): e})
    from rbscat.fincat import _pair_rank
    assert _pair_rank(C.mor_labels, np.array([0]), np.array([1])) is None
    tw = twisted_arrow_op(C)[0]
    for x, y in itertools.product(range(tw.n_objects), repeat=2):
        keys = [repr(tw.mor_labels[i]) for i in tw.hom_idx(x, y)]
        assert keys == sorted(keys)


@pytest.mark.parametrize("spec", ["F2", "F3"])
def test_fiber_pairs_are_guarded_before_they_are_joined(spec):
    # a fiber with p composable pairs builds under max_functor_pairs=p,
    # the same as under the default guards, and raises under p - 1
    F = comparison_functor(build_rbs(spec, 2))
    for d in F.target.objects:
        for build in (left_fiber, right_fiber):
            fib = build(F, d)
            p = len(fib.flat)
            assert_same_category(
                build(F, d, GuardConfig(max_functor_pairs=p)), fib)
            with pytest.raises(GuardExceeded,
                               match="requires %d > max_functor_pairs" % p):
                build(F, d, GuardConfig(max_functor_pairs=p - 1))


def has_cone_point(C):
    return C.has_terminal_object() is not None or \
        C.has_initial_object() is not None


def assert_family_agrees(F, side, oracle=True):
    """Every fiber of F's family on one side, built alone, equals
    left_fiber / right_fiber and (with oracle) the label-space oracle; the
    cone flags equal the FinCat tests; and the joint build of the fibers
    with a cone point holds each of them as a full subcategory."""
    objects = F.target.objects
    family = FiberFamily(F, side, np.arange(len(objects)))
    cone = family.has_cone_point()
    single = left_fiber if side == "left" else right_fiber
    fibers = [family.build([i]) for i in range(len(objects))]
    for i, d in enumerate(objects):
        assert_same_category(fibers[i], single(F, d))
        if oracle:
            assert_same_category(fibers[i], oracle_fiber(F, d, side))
        assert cone[i] == has_cone_point(fibers[i])
    with_cone = np.flatnonzero(cone).tolist()
    joint = family.build(with_cone)
    assert joint.n_objects == sum(fibers[i].n_objects for i in with_cone)
    assert joint.n_morphisms == sum(fibers[i].n_morphisms for i in with_cone)
    for i in with_cone:
        sub, _ = full_subcategory(joint, fibers[i].objects)
        assert_same_category(sub, fibers[i])
    return cone


@pytest.mark.parametrize("spec", ["F2", "F3", "Z4"])
def test_fiber_families_of_proper_p_agree_with_label_oracle(spec):
    # the families of the route proper-p took through the right fibers
    # (now oracle_strict_inclusion_family): right fibers of the comparison
    # functor and left fibers of each strict-fiber inclusion.  The single
    # fibers of the comparison functor are compared with the label oracle
    # in test_comparison_functor_fibers_agree_with_label_oracle, and not
    # at all on Z4^2: its right fibers hold 6.2 M composable pairs and its
    # left fibers exceed max_assoc_triples
    P = comparison_functor(build_rbs(spec, 2))
    assert_family_agrees(P, "right", oracle=False)
    if spec != "Z4":
        assert_family_agrees(P, "left", oracle=False)
    for d in P.target.objects:
        _, _, incl = strict_fiber(P, d)
        assert assert_family_agrees(incl, "left").all()


@pytest.mark.parametrize("name", ["terminal", "chain2", "BZ2", "BZ3",
                                  "RBS-F2-2"])
def test_fiber_families_of_twisted_projections_agree_with_label_oracle(name):
    from rbscat.checks import _named_small_category
    _, proj = twisted_arrow_op(_named_small_category(name))
    for side in ("left", "right"):
        assert_family_agrees(proj, side)


@settings(max_examples=60, deadline=None)
@given(small_functors())
def test_fiber_families_of_small_functors_agree_with_label_oracle(F):
    for side in ("left", "right"):
        assert_family_agrees(F, side)


def test_joint_fiber_build_is_guarded_by_the_sum_of_light_triples():
    # the six left fibers of a strict-fiber inclusion of the F2^2
    # comparison functor (8 Light triples each) all have a terminal object;
    # they are validated as one category, so max_assoc_triples bounds the
    # sum of their Light triples
    _, _, incl = strict_fiber(RBS_F2_P, RBS_F2_P.target.objects[1])
    fibers = [left_fiber(incl, d) for d in incl.target.objects]
    assert all(has_cone_point(C) for C in fibers)
    triples = [light_triples(C, generators(C)) for C in fibers]
    total, largest = sum(triples), max(triples)
    assert largest < total
    assert is_lim_equivalence(incl, 3, GuardConfig(max_assoc_triples=total)).ok
    with pytest.raises(GuardExceeded, match="requires %d > max_assoc_triples"
                       % total):
        is_lim_equivalence(incl, 3, GuardConfig(max_assoc_triples=largest))


def test_ends_are_built_once_and_read_only():
    C = RBS_F2
    for field in (C.src, C.tgt, C.identity_of):
        assert field.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            field[0] = 1


def test_proper_p_validates_fibers_in_few_builds(monkeypatch):
    # one joint build per family of fibers with a cone point: check_proper_p
    # on F3^2 made 189 builds when each fiber was built on its own
    import rbscat.fincat as fincat
    from rbscat.checks import check_proper_p
    real, builds = fincat._build, []

    def counting(*args, **kwargs):
        builds.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fincat, "_build", counting)
    assert check_proper_p("F3", 2).ok
    assert len(builds) <= 20


def oracle_strict_inclusion_family(F, di):
    """Oracle for FiberFamily.strict_inclusion: the route through the right
    fiber.  strict_fiber builds F/d and the inclusion of the strict fiber
    into it, and the inclusion's left fibers are taken over F/d's objects."""
    _, rf, incl = strict_fiber(F, F.target.objects[di])
    return FiberFamily(incl, "left", np.arange(rf.n_objects)), rf.objects


def digest(C):
    """sha256 of a category: objects, labels, ends, identities and table."""
    h = hashlib.sha256(repr((C.objects, C.mor_labels)).encode())
    for part in (C.src, C.tgt, C.identity_of, C.flat, C.row, C.ipos):
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def assert_strict_inclusion_families_agree(F, monkeypatch):
    """Over every target object: the same fibers in the same order, the
    same cone flags, the same fiber digests and joint cone build, and the
    same FiberwiseVerdict from is_proper as through the oracle."""
    for di in range(F.target.n_objects):
        family, over = FiberFamily.strict_inclusion(F, di)
        oracle, oracle_over = oracle_strict_inclusion_family(F, di)
        assert over == list(oracle_over)
        cone = family.has_cone_point()
        assert cone.tolist() == oracle.has_cone_point().tolist()
        for i in range(len(over)):
            assert digest(family.build([i])) == digest(oracle.build([i]))
        with_cone = np.flatnonzero(cone)
        assert digest(family.build(with_cone)) == \
            digest(oracle.build(with_cone))
    verdict = repr(is_proper(F, 3))
    monkeypatch.setattr(FiberFamily, "strict_inclusion", classmethod(
        lambda cls, F, di, guards=DEFAULT: oracle_strict_inclusion_family(
            F, di)))
    assert repr(is_proper(F, 3)) == verdict
    monkeypatch.undo()


@pytest.mark.parametrize("spec", ["F2", "F3", "Z4"])
def test_strict_inclusion_family_matches_right_fiber_oracle(spec,
                                                            monkeypatch):
    assert_strict_inclusion_families_agree(
        comparison_functor(build_rbs(spec, 2)), monkeypatch)


def test_strict_inclusion_family_matches_oracle_on_small_functors(
        monkeypatch):
    # the functors of the proper tests above, the failing {1} in {0<1}
    # among them
    C = chain_category()
    functors = [identity_functor(C), identity_functor(bz(2)),
                full_subcategory(C, [0])[1], full_subcategory(C, [1])[1]]
    for F in functors:
        assert_strict_inclusion_families_agree(F, monkeypatch)
    assert not is_proper(functors[3], 3).ok
    assert is_proper(functors[3], 3).failure is not None


@settings(max_examples=40, deadline=None)
@given(small_functors())
def test_strict_inclusion_family_matches_oracle_on_random_functors(F):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_strict_inclusion_families_agree(F, monkeypatch)


def test_strict_inclusion_rejects_a_morphism_outside_the_right_fiber():
    # a functor whose index map sends 0 -> 1 to the identity of 1 (which
    # validation would refuse): that image is no object of F/0
    C = chain_category()
    F = identity_functor(C)
    F.mor_idx = F.mor_idx.copy()
    F.mor_idx[C.mor_index[(0, 1)]] = C.identity_of[1]
    with pytest.raises(CategoryError, match="no object of the right fiber"):
        FiberFamily.strict_inclusion(F, 0)


def test_proper_p_builds_no_right_fiber(monkeypatch):
    from rbscat.checks import check_proper_p
    init, sides = FiberFamily.__init__, []

    def counting(self, F, side, *args, **kwargs):
        sides.append(side)
        init(self, F, side, *args, **kwargs)

    monkeypatch.setattr(FiberFamily, "__init__", counting)
    right_fiber(RBS_F2_P, RBS_F2_P.target.objects[0])
    assert sides == ["right"]       # the count sees a right fiber
    del sides[:]
    assert check_proper_p("F3", 2).ok
    assert sides.count("right") == 0


def test_empty_left_fiber_agrees_with_label_oracle():
    C = chain_category()
    sub, incl = full_subcategory(C, [1])
    lf = left_fiber(incl, 0)
    assert lf.n_objects == lf.n_morphisms == 0
    assert_same_category(lf, oracle_fiber(incl, 0, "left"))


def test_corrupted_table_entry_is_reported():
    # in BZ/3, make 1 + 1 = 0: the identities still hold, associativity
    # does not, and every category built from the table is re-checked
    C = bz(3)
    one = C.mor_index[("*", 1)]
    C.flat[C.row[one] + C.ipos[one]] = C.identity_of[0]
    with pytest.raises(CategoryError, match="associativity"):
        full_subcategory(C, C.objects)
    with pytest.raises(CategoryError, match="associativity"):
        skeleton(C)


def test_restrictions_inherit_the_associativity_certificate(monkeypatch):
    # a restriction of a table that is still the validated one skips
    # Light's loop; once the table is changed in place it runs again
    from rbscat import fincat
    C = bz(3)
    skipped = []
    real = fincat._check_axioms

    def recording(*args):
        skipped.append(args[-1])
        return real(*args)

    monkeypatch.setattr(fincat, "_check_axioms", recording)
    full_subcategory(C, C.objects)
    skeleton(C)
    assert skipped == [True, True]
    one = C.mor_index[("*", 1)]
    C.flat[C.row[one] + C.ipos[one]] = C.identity_of[0]
    with pytest.raises(CategoryError, match="associativity"):
        skeleton(C)
    assert skipped[-1] is False


def test_functor_breaking_composition_is_reported():
    # 1 -> 1 from Z/2 to Z/3 sends 1 + 1 = 0 to 0, not to 2
    with pytest.raises(CategoryError, match="breaks composition"):
        FinFunctor(bz(2), bz(3), [0],
                   [bz(3).mor_index[("*", 0)], bz(3).mor_index[("*", 1)]])


# ---------------------------------------------------------------------------
# array builders against their label-path oracles: each oracle builds one
# dict entry per composable pair, validated by validate_category

def oracle_opposite(C):
    objs, morphs, idents, comp = tables(C)
    return validate_category(objs, [(m, t, s) for m, s, t in morphs], idents,
                             {(f, g): h for (g, f), h in comp.items()})


def oracle_product_tuple(cats):
    obj_tuples = list(itertools.product(*[c.objects for c in cats])) or [()]
    mor_tuples = list(itertools.product(*[c.mor_labels for c in cats])) or [()]
    morphs = []
    for mt in mor_tuples:
        srcs = tuple(c.objects[c.src[c.mor_index[m]]] for c, m in zip(cats, mt))
        tgts = tuple(c.objects[c.tgt[c.mor_index[m]]] for c, m in zip(cats, mt))
        morphs.append((mt, srcs, tgts))
    idents = {}
    for ot in obj_tuples:
        idents[ot] = tuple(c.mor_labels[c.identity_of[c.obj_index[o]]]
                           for c, o in zip(cats, ot))
    comp = {}
    for (gt, _, _) in morphs:
        for (ft, _, _) in morphs:
            ok = all(c.src[c.mor_index[g]] == c.tgt[c.mor_index[f]]
                     for c, g, f in zip(cats, gt, ft))
            if ok:
                comp[(gt, ft)] = tuple(
                    c.mor_labels[c.compose(c.mor_index[g], c.mor_index[f])]
                    for c, g, f in zip(cats, gt, ft))
    return validate_category(obj_tuples, morphs, idents, comp)


def oracle_poset_category(P):
    morphs = [((a, b), a, b) for a in P.elements for b in P.elements
              if P.leq(a, b)]
    comp = {((b, c), (a, b)): (a, c) for (a, b), _, _ in morphs
            for c in P.elements if P.leq(b, c)}
    return validate_category(P.elements, morphs,
                             {a: (a, a) for a in P.elements}, comp)


def oracle_group_category(G):
    morphs = [(("*", g), "*", "*") for g in G.elements]
    comp = {(("*", a), ("*", b)): ("*", G.elements[G.table[i, j]])
            for i, a in enumerate(G.elements) for j, b in enumerate(G.elements)}
    return validate_category(["*"], morphs, {"*": ("*", G.identity)}, comp)


def oracle_twisted_arrow_op(C):
    morphs = []
    pairs = {}
    for f in range(C.n_morphisms):
        for fp in range(C.n_morphisms):
            # a: src f -> src f', b: tgt f' -> tgt f with f = b . f' . a
            for a in C.hom_idx(C.src[f], C.src[fp]):
                fa = C.compose(fp, a)
                for b in C.hom_idx(C.tgt[fp], C.tgt[f]):
                    if C.compose(b, fa) == f:
                        lbl = (C.mor_labels[f], C.mor_labels[fp],
                               C.mor_labels[a], C.mor_labels[b])
                        morphs.append((lbl, C.mor_labels[f], C.mor_labels[fp]))
                        pairs[lbl] = (a, b)
    idents = {C.mor_labels[f]: (C.mor_labels[f], C.mor_labels[f],
                                C.mor_labels[C.identity_of[C.src[f]]],
                                C.mor_labels[C.identity_of[C.tgt[f]]])
              for f in range(C.n_morphisms)}
    by_src = {}
    for (lbl, s, _) in morphs:
        by_src.setdefault(s, []).append(lbl)
    comp = {}
    for (lbl1, s1, t1) in morphs:
        a1, b1 = pairs[lbl1]
        for lbl2 in by_src.get(t1, ()):
            a2, b2 = pairs[lbl2]
            comp[(lbl2, lbl1)] = (s1, lbl2[1],
                                  C.mor_labels[C.compose(a2, a1)],
                                  C.mor_labels[C.compose(b1, b2)])
    tw = validate_category(C.mor_labels, morphs, idents, comp)
    # the projection's labels f -> src f and (f, f', a, b) -> a, as indices
    proj = ([C.src[C.mor_index[f]] for f in tw.objects],
            [C.mor_index[lbl[2]] for lbl in tw.mor_labels])
    return tw, proj


@st.composite
def builder_inputs(draw):
    """BASES, their binary products and RBS(F2, 2)."""
    C = draw(st.sampled_from(BASES + [RBS_F2]))
    if C is not RBS_F2 and draw(st.booleans()):
        C = product_tuple([C, draw(st.sampled_from(BASES))])
    return C


@settings(max_examples=60, deadline=None)
@given(builder_inputs(), st.sampled_from(BASES), st.sampled_from(BASES))
def test_array_builders_agree_with_label_oracles(C, D, E):
    assert_same_category(opposite(C), oracle_opposite(C))
    for cats in ([C], [C, D], [D, C, E]):
        assert_same_category(product_tuple(cats), oracle_product_tuple(cats))
    # Tw(C)^op has one morphism per composable triple; the label oracle
    # stores every composable pair of those
    if C.triple_count() <= 1000:
        tw, proj = twisted_arrow_op(C)
        oracle_tw, oracle_proj = oracle_twisted_arrow_op(C)
        assert_same_category(tw, oracle_tw)
        assert (proj.obj_idx.tolist(), proj.mor_idx.tolist()) == \
            oracle_proj


def test_pairs_are_sorted_by_composable_pair():
    # fincat_to_json writes the composition in this order
    for C in BASES + [RBS_F2, opposite(RBS_F2), twisted_arrow_op(RBS_F2)[0]]:
        g, f, _ = C.pairs()
        assert (np.diff(g * C.n_morphisms + f) > 0).all()


def test_products_of_no_factors_and_of_rbs_agree_with_label_oracle():
    assert_same_category(product_tuple([]), oracle_product_tuple([]))
    cats = [RBS_F2, bz(3)]
    assert_same_category(product_tuple(cats), oracle_product_tuple(cats))


def test_product_with_an_empty_factor_is_empty():
    # the label oracle gives the one-object category on () here
    empty = validate_category([], [], {}, {})
    P = product_tuple([chain_category(), empty])
    assert P.n_objects == P.n_morphisms == 0


@st.composite
def posets(draw):
    """The reflexive-transitive closure of a random relation a < b on up to
    six elements, labelled by a random permutation."""
    n = draw(st.integers(0, 6))
    rel = np.eye(n, dtype=bool)
    for a, b in draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                        st.integers(0, max(n - 1, 0))))):
        if a < b:
            rel[a, b] = True
    for k in range(n):
        rel |= rel[:, k:k + 1] & rel[k:k + 1, :]
    names = draw(st.permutations(["p%d" % i for i in range(n)]))
    return Poset(names, rel)


@settings(max_examples=60, deadline=None)
@given(posets())
def test_poset_category_agrees_with_label_oracle(P):
    assert_same_category(poset_category(P), oracle_poset_category(P))


@pytest.mark.parametrize("G", [
    cyclic(k) for k in (1, 2, 5)
] + [
    group(itertools.permutations(range(3)),
          lambda a, b: tuple(a[i] for i in b), (0, 1, 2)),
    group([(a, b) for a in range(2) for b in range(2)],
          lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2), (0, 0)),
])
def test_group_category_agrees_with_label_oracle(G):
    assert_same_category(group_category(G), oracle_group_category(G))


# ---------------------------------------------------------------------------
# twisted arrows

def test_twisted_arrow_counts():
    C = chain_category()
    tw, proj = twisted_arrow_op(C)
    assert tw.n_objects == 3
    assert tw.n_morphisms == 5
    T = terminal_category()
    twt, _ = twisted_arrow_op(T)
    assert twt.n_objects == 1 and twt.n_morphisms == 1
    B = bz(2)
    twb, projb = twisted_arrow_op(B)
    assert twb.n_objects == 2


def test_twisted_projection_cofinal():
    for C in (terminal_category(), chain_category(), bz(2), bz(3)):
        tw, proj = twisted_arrow_op(C)
        assert is_colim_equivalence(proj, 3).ok


# ---------------------------------------------------------------------------
# actions, quotients

def test_action_category_trivial_group():
    G = Group(["e"], [[0]], "e")
    A = action_category(G, CHAIN, np.array([[0, 1]]))
    assert A.n_objects == 2 and A.n_morphisms == 3


def test_action_category_rejects_non_automorphisms():
    swap = np.array([[0, 1], [1, 0]])
    with pytest.raises(CategoryError):
        action_category(cyclic(2), CHAIN, swap)  # swapping 0<1 breaks the order


def test_poset_quotient_regular_swap():
    P = poset(["a", "b"], [("a", "a"), ("b", "b")])
    swap = np.array([[0, 1], [1, 0]])
    assert check_poset_regularity(P, swap) is None
    Q, cls = poset_quotient(P, swap)
    assert len(Q) == 1


def test_poset_quotient_regularity_violation():
    # Z/2 acting on a < b1, a < b2, fixing a and swapping b1 and b2
    P3 = poset(["a", "b1", "b2"],
               [("a", "a"), ("b1", "b1"), ("b2", "b2"),
                ("a", "b1"), ("a", "b2")])
    swap = np.array([[0, 1, 2], [0, 2, 1]])
    assert check_poset_regularity(P3, swap) is None
    Q, cls = poset_quotient(P3, swap)
    assert len(Q) == 2
    assert Q.leq(cls["a"], cls["b1"])


def test_regularity_witness_is_the_first_in_row_major_order():
    # on the chain 0 < 1, the map g = 1 sends 0 to 1 and 1 to 1: 0 <= g.0
    # but 0 != g.0; the witness is reported with Python ints
    moved = np.array([[0, 1], [1, 1]])
    assert repr(check_poset_regularity(CHAIN, moved)) == "(1, 0)"
    assert check_poset_regularity(CHAIN, moved[:1]) is None


def test_group_table_is_validated():
    with pytest.raises(CategoryError, match="group identity fails"):
        Group([0, 1], [[1, 0], [0, 1]], 0)
    # 0 is the identity, but nothing multiplies 1 back to it
    with pytest.raises(CategoryError, match="group element 1 has no inverse"):
        Group([0, 1], [[0, 1], [1, 1]], 0)
    for table in ([[0, 1], [1, 2]], [[0, 1]], [[0.0, 1.0], [1.0, 0.0]]):
        with pytest.raises(CategoryError, match="table of element indices"):
            Group([0, 1], table, 0)


def test_poset_relation_is_validated():
    with pytest.raises(CategoryError, match="not reflexive at 'b'"):
        Poset("ab", [[True, False], [False, False]])
    with pytest.raises(CategoryError, match="not antisymmetric"):
        Poset("ab", [[True, True], [True, True]])
    with pytest.raises(CategoryError, match="not transitive"):
        poset("abc", [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"),
                      ("b", "c")])


# ---------------------------------------------------------------------------
# contractibility certificates

def test_terminal_object_contractible_any_depth():
    C = chain_category()
    for depth in (1, 2, 5):
        assert is_weakly_contractible(C, depth).ok


def test_cone_point_is_found_before_a_skeleton_is_built(monkeypatch):
    # an equivalence preserves terminal and initial objects, so the skeleton
    # is needed only when there is neither
    def no_skeleton(C, guards):
        raise AssertionError("skeleton built for a category with a cone point")

    monkeypatch.setattr(toolkit, "skeleton", no_skeleton)
    for C in (chain_category(), opposite(chain_category())):
        cert = is_weakly_contractible(C, 3)
        assert cert.ok and cert.witness == "terminal or initial object"


def test_discrete_two_objects_not_contractible():
    C = validate_category(
        ["a", "b"], [("ia", "a", "a"), ("ib", "b", "b")],
        {"a": "ia", "b": "ib"}, {("ia", "ia"): "ia", ("ib", "ib"): "ib"})
    cert = is_weakly_contractible(C, 3)
    assert cert.verdict == "not-contractible"


def test_bz2_not_contractible():
    cert = is_weakly_contractible(bz(2), 3)
    assert cert.verdict == "not-contractible"


def test_empty_category_not_contractible():
    C = validate_category([], [], {}, {})
    assert not is_weakly_contractible(C, 2).ok


# Oracles for the shape queries: the dict, breadth-first search and
# union-find code that FinCat and qkt ran before FinCat read its hom-sets
# as ranges of the (source, target) order.

def oracle_hom(C):
    """The morphisms of each nonempty hom-set, keyed by (source, target)."""
    hom = {}
    src, tgt = C.src.tolist(), C.tgt.tolist()
    for i in range(C.n_morphisms):
        hom.setdefault((src[i], tgt[i]), []).append(i)
    return hom


def oracle_single_arrow_counts(C, hom, end):
    singles = [0] * C.n_objects
    for pair, mors in hom.items():
        if len(mors) == 1:
            singles[pair[end]] += 1
    return singles


def oracle_cone_point(C, hom, end):
    for i, count in enumerate(oracle_single_arrow_counts(C, hom, end)):
        if count == C.n_objects:
            return C.objects[i]
    return None


def oracle_is_connected(C):
    if C.n_objects == 0:
        return False
    seen = {0}
    frontier = [0]
    adj = {}
    for s, t in zip(C.src.tolist(), C.tgt.tolist()):
        adj.setdefault(s, set()).add(t)
        adj.setdefault(t, set()).add(s)
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen) == C.n_objects


def oracle_components(C):
    """The union-find root of each object's component."""
    parent = list(range(C.n_objects))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for s, t in zip(C.src.tolist(), C.tgt.tolist()):
        a, b = find(s), find(t)
        if a != b:
            parent[a] = b
    return [find(i) for i in range(C.n_objects)]


def oracle_triple_count(C):
    in_deg = [0] * C.n_objects
    out_deg = [0] * C.n_objects
    src, tgt = C.src.tolist(), C.tgt.tolist()
    for i in range(C.n_morphisms):
        out_deg[src[i]] += 1
        in_deg[tgt[i]] += 1
    return sum(in_deg[src[g]] * out_deg[tgt[g]] for g in range(C.n_morphisms))


def partition(ids):
    """The objects grouped by id, as a sorted list of sorted parts."""
    parts = {}
    for i, c in enumerate(ids):
        parts.setdefault(c, []).append(i)
    return sorted(parts.values())


def shape_corpus():
    """RBS(M) for M = F2^2, F3^2 and Z4^2, their skeletons, the source and
    all left and right fibers of their comparison functors, twisted arrow
    categories, a one-object group category, the empty category, and every
    Hom_2 of QKit(2, 2, 3) (the empty ones included) and its Q1."""
    from rbscat.qkt import QKit
    cats = [bz(4), validate_category([], [], {}, {})]
    for spec in ("F2", "F3", "Z4"):
        rbs = build_rbs(spec, 2)
        P = comparison_functor(rbs)
        cats += [rbs.cat, skeleton(rbs.cat), P.source]
        every = np.arange(P.target.n_objects)
        for side in ("left", "right"):
            # the left fiber of Z4^2 over the zero flag has 25.3 M Light
            # triples, past the default max_assoc_triples
            family = FiberFamily(P, side, every,
                                 GuardConfig(max_assoc_triples=30_000_000))
            cats += [family.build([i]) for i in every]
    cats += [twisted_arrow_op(C)[0]
             for C in (chain_category(), bz(3), v_poset_category(),
                       indiscrete(3), RBS_F2_FIBERS[0])]
    kit = QKit(2, 2, 3)
    lists = kit.calc.objects_up_to(kit.cap, kit.max_entry)
    cats += [kit.q2_hom(m, mp).cat for m in lists for mp in lists]
    cats.append(kit.q1_category()[0])
    return cats


def test_shape_queries_agree_with_dict_bfs_and_union_find_oracles():
    corpus = shape_corpus()
    # the corpus reaches the corner cases: empty and disconnected
    # categories, hom-sets of several morphisms, cone points and none
    assert any(C.n_objects == 0 for C in corpus)
    assert sum(C.n_objects > 0 and not oracle_is_connected(C)
               for C in corpus) > 10
    assert any(len(mors) > 1 for C in corpus for mors in oracle_hom(C).values())
    for C in corpus:
        n, hom = C.n_objects, oracle_hom(C)
        for x in range(n):
            assert list(C.morphisms_from(x)) == \
                [i for y in range(n) for i in hom.get((x, y), [])]
            for y in range(n):
                assert isinstance(C.hom_idx(x, y), range)
                assert list(C.hom_idx(x, y)) == hom.get((x, y), [])
                assert list(C.hom(C.objects[x], C.objects[y])) == \
                    hom.get((x, y), [])
        for end in (0, 1):
            assert C.single_arrow_counts(end).tolist() == \
                oracle_single_arrow_counts(C, hom, end)
        assert C.has_terminal_object() == oracle_cone_point(C, hom, 1)
        assert C.has_initial_object() == oracle_cone_point(C, hom, 0)
        assert C.is_connected() == oracle_is_connected(C)
        comp = C.components().tolist()
        assert partition(comp) == partition(oracle_components(C))
        # each component is named by its least object index
        assert all(c == part[0] for part in partition(comp)
                   for c in (comp[i] for i in part))
        count = C.triple_count()
        assert type(count) is int and count == oracle_triple_count(C)


def numpy_scalars(label):
    """The numpy scalars anywhere inside a label."""
    if isinstance(label, np.generic):
        return [label]
    if isinstance(label, (tuple, list, set, frozenset)):
        return [x for part in label for x in numpy_scalars(part)]
    if isinstance(label, dict):
        return numpy_scalars(list(label.items()))
    return []


def test_labels_hold_no_numpy_scalar(monkeypatch):
    # numpy 2 prints np.int64(3) where 3 was: a numpy scalar in a label
    # would change its text and its place in the canonical order
    from rbscat.checks import check_proper_p, check_q_suite
    from rbscat.fincat import FinCat
    from rbscat.qkt import QKit
    built = []
    init = FinCat.__init__

    def recording(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(FinCat, "__init__", recording)
    assert check_q_suite(2, 2, 3).ok
    assert check_proper_p("F3", 2).ok
    rbs = build_rbs("F3", 2)
    P = comparison_functor(rbs)
    every = np.arange(P.target.n_objects)
    for side in ("left", "right"):
        FiberFamily(P, side, every).build(every)
    for di in every.tolist():
        family, _ = FiberFamily.strict_inclusion(P, di)
        family.build(np.arange(len(family.obj_start) - 1))
    assert len(built) > 50
    found = [x for C in built for label in C.objects + C.mor_labels
             for x in numpy_scalars(label)]
    assert found == []
    # the component ids that Q1 labels carry
    kit = QKit(2, 2, 3)
    lists = kit.calc.objects_up_to(kit.cap, kit.max_entry)
    for q2 in (kit.q2_hom(m, mp) for m in lists for mp in lists):
        assert numpy_scalars(q2.components) == []
        assert numpy_scalars(q2.terminals) == []


# ---------------------------------------------------------------------------
# functors as index arrays

@pytest.mark.parametrize("obj_idx, mor_idx", [
    ([0], [0, 1, 2]),             # too few object indices
    ([0, 1, 1], [0, 1, 2]),       # too many
    ([0, 1], [0, 1]),             # too few morphism indices
    ([-1, 1], [0, 1, 2]),         # negative
    ([0, 1], [0, -1, 2]),
    ([0, 2], [0, 1, 2]),          # past the last index
    ([0, 1], [0, 1, 3]),
    ([0.0, 1.0], [0, 1, 2]),      # not integers
    ([[0, 1]], [0, 1, 2]),        # not one-dimensional
])
def test_functor_rejects_bad_index_arrays(obj_idx, mor_idx):
    C = chain_category()
    with pytest.raises(CategoryError, match="functor"):
        FinFunctor(C, C, obj_idx, mor_idx)


def test_functor_rejects_bad_index_arrays_under_optimize():
    # the boundary checks raise under python -O, where bare asserts vanish
    code = ("from rbscat.fincat import CategoryError, FinFunctor, Group, "
            "group_category\n"
            "B = group_category(Group([0, 1], [[0, 1], [1, 0]], 0))\n"
            "bad = 0\n"
            "for o, m in (([0], [0]), ([0], [0, 1, 0]), ([-1], [0, 1]),\n"
            "             ([0], [0, 2]), ([1], [0, 1])):\n"
            "    try:\n"
            "        FinFunctor(B, B, o, m)\n"
            "    except CategoryError:\n"
            "        bad += 1\n"
            "raise SystemExit(0 if bad == 5 else 5)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_functor_keeps_read_only_copies_of_its_arrays():
    C = chain_category()
    obj_idx, mor_idx = np.arange(2), np.arange(3)
    F = FinFunctor(C, C, obj_idx, mor_idx)
    obj_idx[0] = 1
    assert F.obj_idx.tolist() == [0, 1] and F.obj_idx.dtype == np.int64
    for idx in (F.obj_idx, F.mor_idx):
        with pytest.raises(ValueError):
            idx[0] = 0


def oracle_is_fully_faithful(F):
    """Oracle for is_fully_faithful: each hom-set A(x, y) and its image
    compared with B(Fx, Fy) as sets, one pair of objects at a time."""
    A, B = F.source, F.target
    for xi in range(A.n_objects):
        for yi in range(A.n_objects):
            dom = A.hom_idx(xi, yi)
            images = {int(F.mor_idx[i]) for i in dom}
            cod = B.hom_idx(F.obj_idx[xi], F.obj_idx[yi])
            if len(images) != len(dom) or images != set(cod):
                return False
    return True


def oracle_is_isomorphism(F):
    """Oracle for is_isomorphism_of_categories: the label maps of F, with
    as many distinct images as the target has objects and morphisms."""
    A, B = F.source, F.target
    obj_map = {o: B.objects[i] for o, i in zip(A.objects, F.obj_idx.tolist())}
    mor_map = {m: B.mor_labels[i]
               for m, i in zip(A.mor_labels, F.mor_idx.tolist())}
    return (A.n_objects == B.n_objects and A.n_morphisms == B.n_morphisms
            and len(set(obj_map.values())) == A.n_objects
            and len(set(mor_map.values())) == A.n_morphisms)


def assert_shape_queries_agree(F):
    assert is_fully_faithful(F) == oracle_is_fully_faithful(F)
    assert is_isomorphism_of_categories(F) == oracle_is_isomorphism(F)


@settings(max_examples=120, deadline=None)
@given(small_functors())
def test_shape_queries_agree_with_loop_oracles(F):
    assert_shape_queries_agree(F)


def test_shape_queries_on_functors_that_are_not_faithful_or_not_full():
    T, B = terminal_category(), bz(2)
    collapse = FinFunctor(B, T, [0], [0, 0])                 # not faithful
    unit = FinFunctor(T, B, [0], [B.identity_of[0]])         # not full
    for F in (collapse, unit):
        assert not is_fully_faithful(F)
        assert not is_isomorphism_of_categories(F)
        assert_shape_queries_agree(F)
    for F in (identity_functor(B), comparison_functor(build_rbs("F2", 2)),
              full_subcategory(indiscrete(3), [0, 2])[1]):
        assert_shape_queries_agree(F)


def assert_indices_match(F, obj_map, mor_map):
    """F holds the target indices of the label maps on its source, in
    source order."""
    A, B = F.source, F.target
    assert F.obj_idx.tolist() == [B.obj_index[obj_map[o]] for o in A.objects]
    assert F.mor_idx.tolist() == [B.mor_index[mor_map[m]]
                                  for m in A.mor_labels]


@pytest.mark.parametrize("spec", ["F2", "F3", "Z4"])
def test_builder_functors_match_their_label_maps(spec):
    rbs = build_rbs(spec, 2)
    C = rbs.cat
    for objs in (C.objects, C.objects[1::2], [rbs.empty_flag_index]):
        sub, incl = full_subcategory(C, objs)
        assert_indices_match(incl, {o: o for o in sub.objects},
                             {m: m for m in sub.mor_labels})
    P = comparison_functor(rbs)
    B = P.target
    for d in B.objects:
        fib, rf, incl = strict_fiber(P, d)
        id_d = B.mor_labels[B.identity_of[B.obj_index[d]]]
        assert_indices_match(
            incl, {o: (o, id_d) for o in fib.objects},
            {m: ((fib.objects[s], id_d), (fib.objects[t], id_d), m)
             for m, s, t in zip(fib.mor_labels, fib.src.tolist(),
                                fib.tgt.tolist())})


@pytest.mark.parametrize("name", ["terminal", "chain2", "BZ2", "BZ3",
                                  "RBS-F2-2"])
def test_twisted_arrow_projection_matches_its_label_map(name):
    from rbscat.checks import _named_small_category
    C = _named_small_category(name)
    tw, proj = twisted_arrow_op(C)
    assert_indices_match(
        proj, {m: C.objects[C.src[C.mor_index[m]]] for m in tw.objects},
        {lbl: lbl[2] for lbl in tw.mor_labels})
