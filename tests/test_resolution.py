import itertools

import pytest

from rbscat.fincat import (
    Group,
    Poset,
    group_category,
    poset_category,
    skeleton,
    terminal_category,
    validate_category,
)
from rbscat.homology import homology, nerve_chain_complex
from rbscat.rbs import build_rbs
from rbscat import resolution
from rbscat.resolution import (
    FreeModule,
    category_homology_mod,
    kernel_mod,
    rank_mod_dense,
)

import numpy as np


def bz(k):
    return group_category(
        Group(range(k), np.add.outer(range(k), range(k)) % k, 0))


def bs3():
    perms = list(itertools.permutations(range(3)))
    S3 = Group(perms, [[perms.index(tuple(a[i] for i in b)) for b in perms]
                       for a in perms], (0, 1, 2))
    return group_category(S3)


def poset(elements, pairs):
    """The poset on elements whose relation holds exactly on the pairs."""
    pairs = set(pairs)
    return Poset(elements, [[(a, b) in pairs for b in elements]
                            for a in elements])


def hexagon_circle():
    els = ["v1", "v2", "v3", "e1", "e2", "e3"]
    pairs = [(x, x) for x in els] + \
        [("v1", "e1"), ("v2", "e1"), ("v2", "e2"), ("v3", "e2"),
         ("v3", "e3"), ("v1", "e3")]
    return poset_category(poset(els, pairs))


def test_kernel_mod():
    M = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int64)
    K = kernel_mod(M, 2)
    assert K.shape[0] == 1
    assert ((M @ K.T) % 2 == 0).all()
    assert rank_mod_dense(M, 2) == 2


def test_point_and_interval():
    assert category_homology_mod(terminal_category(), 2, 3) == [1, 0, 0, 0]
    P = poset_category(poset([0, 1], [(0, 0), (1, 1), (0, 1)]))
    assert category_homology_mod(P, 3, 3) == [1, 0, 0, 0]


def test_circle_over_primes():
    C = hexagon_circle()
    for ell in (2, 3, 5):
        assert category_homology_mod(C, ell, 2) == [1, 1, 0]


def test_group_homology_bz2_bz3():
    assert category_homology_mod(bz(2), 2, 5) == [1, 1, 1, 1, 1, 1]
    assert category_homology_mod(bz(3), 3, 5) == [1, 1, 1, 1, 1, 1]
    assert category_homology_mod(bz(3), 2, 3) == [1, 0, 0, 0]
    # Z/4 over F2: also all ones
    assert category_homology_mod(bz(4), 2, 4) == [1, 1, 1, 1, 1]


def test_bs3_classical_patterns():
    assert category_homology_mod(bs3(), 2, 4) == [1, 1, 1, 1, 1]
    assert category_homology_mod(bs3(), 3, 4) == [1, 0, 0, 1, 1]


def idempotent_monoid():
    # one object, morphisms 1 and e with e.e = e: e.1 = e.e, so e is not mono
    comp = {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e", ("e", "e"): "e"}
    return validate_category(["*"], [("1", "*", "*"), ("e", "*", "*")],
                             {"*": "1"}, comp)


def corpus():
    return [terminal_category(), bz(2), bz(3), hexagon_circle(), bs3(),
            idempotent_monoid(), build_rbs("F2", 2).cat]


def act(C, F, a, v, ell):
    """Reference left action of the morphism a on v, one basis vector at a
    time."""
    out = np.zeros(F.dim, dtype=np.int64)
    for i in np.nonzero(v)[0]:
        j, f = F.basis[i]
        if C.tgt[f] == C.src[a]:
            i2 = F.pos[(j, C.compose(a, f))]
            out[i2] = (out[i2] + v[i]) % ell
    return out


def test_orbit_block_spans_its_submodule():
    # b.(a.v) = (b.a).v: acting once more on an orbit block adds nothing
    rng = np.random.default_rng(0)
    for C in corpus():
        for ell in (2, 3):
            F = FreeModule(C, list(range(C.n_objects)) * 2)
            for x, positions in sorted(F.by_tgt.items()):
                vecs = [np.eye(F.dim, dtype=np.int64)[i] for i in positions]
                for _ in range(3):
                    v = np.zeros(F.dim, dtype=np.int64)
                    v[positions] = rng.integers(0, ell, len(positions))
                    vecs.append(v)
                for v in vecs:
                    block = F.orbit(x, v, ell)
                    assert np.array_equal(block, [act(C, F, a, v, ell)
                                                  for a in C.morphisms_from(x)])
                    more = [act(C, F, b, w, ell) for w in block
                            for b in range(C.n_morphisms)]
                    assert rank_mod_dense(np.vstack([block] + more), ell) == \
                        rank_mod_dense(block, ell)


def test_agreement_with_nerve_on_corpus():
    for C in corpus():
        cx = nerve_chain_complex(C, 4)
        for ell in (2, 3):
            direct = homology(cx, "F%d" % ell)
            resolved = category_homology_mod(C, ell, 3)
            for k in range(4):
                assert direct.betti[k] == resolved[k], (C, ell, k)


def test_skeleton_has_the_betti_numbers_of_the_category():
    # the checks resolve skeleta; the full category is the oracle
    cats = corpus() + [build_rbs("F3", 2).cat, build_rbs("Z4", 2).cat]
    for C in cats:
        sk = skeleton(C)
        for ell in (2, 3, 5):
            assert category_homology_mod(sk, ell, 3) == \
                category_homology_mod(C, ell, 3), (C, ell)


def restart_reverse_delete(F, kernel_rows, ell):
    """Oracle for resolution._minimal_generators: the same greedy phase,
    then reverse-delete by restarting from the last generator after every
    drop and rebuilding the span of the others for every trial."""
    target_rank = len(kernel_rows)

    def span_of(gens):
        span = resolution._Span(F.dim, ell, target_rank)
        for x, v in gens:
            span.add(F.orbit(x, v, ell))
        return span

    gens = []
    span = resolution._Span(F.dim, ell, target_rank)
    for x, v in resolution._candidates(F, kernel_rows):
        if span.rank == target_rank:
            break
        if span.residue(v[None, :]).any():
            span.add(F.orbit(x, v, ell))
            gens.append((x, v))
    changed = True
    while changed and len(gens) > 1:
        changed = False
        for i in range(len(gens) - 1, -1, -1):
            trial = gens[:i] + gens[i + 1:]
            if span_of(trial).rank == target_rank:
                gens = trial
                changed = True
                break
    return gens, span_of


def check_against_oracle(C, ell, max_degree):
    """Resolve C, checking every generating set the engine picks against the
    restart oracle (byte for byte) and for minimality."""
    engine, calls = resolution._minimal_generators, []

    def checked(F, kernel_rows, ell):
        gens = engine(F, kernel_rows, ell)
        expected, span_of = restart_reverse_delete(F, kernel_rows, ell)
        assert [(x, v.tobytes()) for x, v in gens] == \
            [(x, v.tobytes()) for x, v in expected]
        assert span_of(gens).rank == len(kernel_rows)
        for i in range(len(gens)):
            assert span_of(gens[:i] + gens[i + 1:]).rank < len(kernel_rows)
        calls.append(len(gens))
        return gens

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution, "_minimal_generators", checked)
        category_homology_mod(C, ell, max_degree)
    assert len(calls) == max_degree + 1


def test_reverse_delete_matches_restart_oracle():
    for C in corpus():
        for ell in (2, 3, 5):
            check_against_oracle(C, ell, 3)


def test_reverse_delete_matches_restart_oracle_rbs_f3():
    C = build_rbs("F3", 2).cat
    for ell in (2, 3):
        check_against_oracle(C, ell, 2)


def test_reverse_delete_adds_each_block_once(monkeypatch):
    # one add per greedy generator and one per kept generator; rebuilding a
    # span per trial would make the count quadratic in the generators
    calls, kept = [], []
    engine = resolution._minimal_generators

    class CountingSpan(resolution._Span):
        def __init__(self, *args):
            super().__init__(*args)
            self.slot = len(calls[-1])
            calls[-1].append(0)

        def add(self, B):
            calls[-1][self.slot] += 1
            return super().add(B)

    def counted(F, kernel_rows, ell):
        calls.append([])
        gens = engine(F, kernel_rows, ell)
        kept.append(len(gens))
        return gens

    monkeypatch.setattr(resolution, "_Span", CountingSpan)
    monkeypatch.setattr(resolution, "_minimal_generators", counted)
    category_homology_mod(build_rbs("F3", 2).cat, 3, 1)
    assert len(calls) == 2
    for adds, n_kept in zip(calls, kept):
        greedy = adds[0]  # the first span built is the greedy one
        assert greedy > n_kept > 1
        assert sum(adds) <= greedy + n_kept


def test_disconnected_category():
    C = poset_category(poset(["a", "b"], [("a", "a"), ("b", "b")]))
    assert category_homology_mod(C, 2, 2) == [2, 0, 0]


@pytest.mark.slow
def test_agreement_with_nerve_gl2f3():
    # deep cross-check on a group algebra of order 48 (runs ~2 min)
    from rbscat.rings import make_ring, enumerate_gl, Mat
    from rbscat.guards import GuardConfig
    F3 = make_ring("F3")
    gl = enumerate_gl(F3, 2)
    index = {m.data: i for i, m in enumerate(gl)}
    G = Group([m.data for m in gl],
              [[index[a.mul(b).data] for b in gl] for a in gl],
              Mat.identity(F3, 2).data)
    BG = group_category(G)
    cx = nerve_chain_complex(BG, 3, GuardConfig(max_simplices_per_degree=200000))
    direct = homology(cx, "F2")
    resolved = category_homology_mod(BG, 2, 2)
    assert [direct.betti[k] for k in range(3)] == resolved
