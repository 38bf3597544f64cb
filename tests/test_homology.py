import heapq
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbscat.fincat import (
    Group, Poset, full_subcategory, group_category, poset_category,
    product_tuple, skeleton, terminal_category)
from rbscat.guards import GuardConfig, GuardExceeded
from rbscat import homology as homology_module
from rbscat.homology import (
    CSC,
    ChainComplex,
    _lattice_basis,
    bareiss_rank,
    betti_via_rank_oracle,
    chain_complex_from_facets,
    eliminate_units,
    homology,
    nerve_chain_complex,
    smith_normal_form,
    snf_diagonal,
    sparse_invariant_factors,
)
from test_fincat import posets, small_categories


def poset(elements, pairs):
    """The poset on elements whose relation holds exactly on the pairs."""
    pairs = set(pairs)
    return Poset(elements, [[(a, b) in pairs for b in elements]
                            for a in elements])


def cyclic(k):
    return Group(range(k), np.add.outer(range(k), range(k)) % k, 0)


def order_complex(P):
    """Order complex of a poset: simplices are the chains.  Every chain is
    listed, each one extended by every element above its top."""
    less = P.rel & ~np.eye(len(P), dtype=bool)
    chains = [(x,) for x in range(len(P))]
    for chain in chains:  # the loop also visits the chains it appends
        chains.extend(chain + (y,)
                      for y in np.flatnonzero(less[chain[-1]]).tolist())
    return chain_complex_from_facets(chains)


def non_identity_morphisms(C):
    ids = set(C.identity_of)
    return [i for i in range(C.n_morphisms) if i not in ids]


RP2_FACETS = [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
              (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)]


def csc(columns, n_rows=None):
    """The CSC matrix of sparse columns {row: value}; n_rows defaults to
    one past the largest row."""
    entries = [(r, j, v) for j, col in enumerate(columns) for r, v in col.items()]
    if n_rows is None:
        n_rows = 1 + max((r for r, _, _ in entries), default=-1)
    rows, cols, vals = zip(*entries) if entries else ((), (), ())
    return CSC.from_entries(n_rows, len(columns), rows, cols, vals)


def dense_csc(rows):
    """The CSC matrix of a dense list of rows."""
    return csc([{i: r[j] for i, r in enumerate(rows) if r[j]}
                for j in range(len(rows[0]))], len(rows))


def hexagon_circle():
    els = ["v1", "v2", "v3", "e1", "e2", "e3"]
    pairs = [(x, x) for x in els] + \
        [("v1", "e1"), ("v2", "e1"), ("v2", "e2"), ("v3", "e2"),
         ("v3", "e3"), ("v1", "e3")]
    return poset_category(poset(els, pairs))


# ---------------------------------------------------------------------------
# Smith normal form

def test_snf_identity():
    U, D, V = smith_normal_form([[1, 0], [0, 1]])
    assert [D[0][0], D[1][1]] == [1, 1]


def test_snf_hand_example():
    # oracle: the invariant factors of [[2,4],[6,8]] are (2, 4):
    # gcd of entries 2, |det| = 16, so d1 = 2, d1*d2 = 16
    assert snf_diagonal([[2, 4], [6, 8]]) == [2, 4]


def test_snf_zero():
    U, D, V = smith_normal_form([[0, 0], [0, 0]])
    assert D == [[0, 0], [0, 0]]


@settings(max_examples=120, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=1, max_size=5),
                min_size=1, max_size=5).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_snf_postconditions_random(rows):
    # postconditions (U*A*V = D, unimodularity, divisibility) are asserted
    # inside; determinant cross-check against Bareiss on square inputs
    U, D, V = smith_normal_form(rows)
    if len(rows) == len(rows[0]):
        det = 1
        for i in range(len(rows)):
            det *= D[i][i]
        # |det(A)| equals the product of invariant factors
        n = len(rows)
        prod_rank = bareiss_rank(rows)
        if prod_rank == n:
            assert det != 0


def test_sparse_invariant_factors_matches_dense():
    rows = [[2, 4, 0], [6, 8, 0], [0, 0, 5]]
    assert sorted(sparse_invariant_factors(dense_csc(rows))) == \
        sorted(snf_diagonal(rows))


def test_integer_lattice_rank():
    cols = csc([{0: 2, 1: 4}, {0: 6, 1: 8}, {0: 8, 1: 12}])
    assert len(sparse_invariant_factors(cols)) == 2


def test_sparse_rank_mod():
    cols = csc([{0: 1, 1: 1}, {0: 1, 1: 1}, {1: 2}])
    assert eliminate_units(cols, 2) == (1, [])
    assert eliminate_units(cols, 3) == (2, [])


def _rank_mod(rows, ell):
    """Dense Gaussian elimination mod ell (test oracle)."""
    M = [[x % ell for x in r] for r in rows]
    rank = 0
    for c in range(len(M[0]) if M else 0):
        piv = next((i for i in range(rank, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][c], -1, ell)
        for i in range(len(M)):
            if i != rank and M[i][c]:
                q = M[i][c] * inv
                M[i] = [(x - q * y) % ell for x, y in zip(M[i], M[rank])]
        rank += 1
    return rank


@st.composite
def sparse_matrices(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-4, 4))
    return [[draw(entry) for _ in range(n)] for _ in range(m)]


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_kernel_matches_dense_snf_and_rank_mod(rows):
    cols = dense_csc(rows)
    assert sparse_invariant_factors(cols) == snf_diagonal(rows)
    for ell in (2, 3, 5):
        rank, core = eliminate_units(cols, ell)
        assert core == [] and rank == _rank_mod(rows, ell)


def test_kernel_core_without_units():
    # no +-1 entry: the whole matrix is the core, and a wide core goes
    # through its lattice basis (gcd 1 here, so one factor 1)
    pivots, core = eliminate_units(csc([{0: 2}, {0: 3}, {0: 4}]))
    assert pivots == 0
    assert sorted(x for line in core for x in line.values()) == [2, 3, 4]
    assert sparse_invariant_factors(csc([{0: 6}, {0: 10}, {0: 15}])) == [1]
    assert sparse_invariant_factors(csc([{0: 2, 1: 2}, {0: 2, 1: 6}])) == [2, 4]


# ---------------------------------------------------------------------------
# the elimination kernel against the dict-of-lines oracle

def oracle_eliminate_units(matrix, ell=None):
    """Dict-of-lines unit-pivot elimination (test oracle): the same pivot
    rule as eliminate_units, with each line a dict {index: value} kept in
    insertion order, best() walking a whole line, and the holders of a
    pivot's index found by scanning every line."""
    if ell:
        matrix = CSC.from_entries(matrix.n_rows, len(matrix), matrix.rows,
                                  matrix.col_index(), matrix.vals % ell)
    wide = matrix.n_rows < len(matrix)
    if wide:
        order = np.argsort(matrix.rows, kind="stable")
        index, vals = matrix.col_index()[order], matrix.vals[order]
        ptr = np.zeros(matrix.n_rows + 1, np.int64)
        np.cumsum(np.bincount(matrix.rows, minlength=matrix.n_rows), out=ptr[1:])
        n_index = len(matrix)
    else:
        index, vals, ptr = matrix.rows, matrix.vals, matrix.indptr
        n_index = matrix.n_rows
    count = np.bincount(index, minlength=n_index).tolist()
    # lines in the order a scan of the columns meets them
    held = np.flatnonzero(np.diff(ptr))
    if wide:
        held = held[np.argsort(index[ptr[held]], kind="stable")]
    lines = {}
    for line in held.tolist():
        a, b = ptr[line], ptr[line + 1]
        lines[line] = dict(zip(index[a:b].tolist(), vals[a:b].tolist()))
    version = dict.fromkeys(lines, 0)

    def best(line):
        # cheapest unit entry of the line, as (cost, index), or None
        v = lines[line]
        c = len(v) - 1
        out = None
        for i, x in v.items():
            if ell or x in (1, -1):
                cost = (count[i] - 1) * c
                if out is None or cost < out[0]:
                    out = (cost, i)
        return out

    heap = []
    for line in lines:
        b = best(line)
        if b is not None:
            heap.append((b[0], line, 0))
    heapq.heapify(heap)
    pivots = 0
    while heap:
        cost, line, ver = heapq.heappop(heap)
        if version.get(line) != ver:
            continue
        b = best(line)
        if b[0] > cost:
            heapq.heappush(heap, (b[0], line, ver))
            continue
        i = b[1]
        pl = lines.pop(line)
        del version[line]
        for k in pl:
            count[k] -= 1
        inv = pow(pl[i], -1, ell) if ell else pl[i]
        for other in [o for o, v in lines.items() if i in v]:
            v = lines[other]
            q = v.pop(i) * inv
            count[i] -= 1
            for k, x in pl.items():
                if k == i:
                    continue
                y = v.get(k, 0) - q * x
                if ell:
                    y %= ell
                if y:
                    if k not in v:
                        count[k] += 1
                    v[k] = y
                elif k in v:
                    del v[k]
                    count[k] -= 1
            if not v:
                del lines[other], version[other]
                continue
            version[other] += 1
            b = best(other)
            if b is not None:
                heapq.heappush(heap, (b[0], other, version[other]))
        pivots += 1
    return pivots, list(lines.values())


def assert_kernel_matches_oracle(matrix, ell=None):
    """eliminate_units and the oracle give the same pivot count and the
    same core: the same lines, in the same order, each with the same
    entries in the same order."""
    def items(result):
        pivots, core = result
        return pivots, [list(line.items()) for line in core]
    got = items(eliminate_units(matrix, ell))
    want = items(oracle_eliminate_units(matrix, ell))
    if got != want:  # a short message: a diff of long cores takes minutes
        pytest.fail("over %s the kernel gives %d pivots and %d core lines, "
                    "the oracle %d and %d, or the lines differ"
                    % (ell or "Z", got[0], len(got[1]), want[0], len(want[1])))
    return got


@st.composite
def kernel_matrices(draw):
    """Sparse integer matrices up to 12 x 12, wide or tall, of any
    density, with units, non-units and entries past 2^31."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    zeros = draw(st.integers(0, 4))
    entry = st.one_of(st.just(0), st.sampled_from([1, -1]),
                      st.integers(-5, 5), st.sampled_from([2 ** 40, -3 ** 30]))
    rows = [[draw(entry) if draw(st.integers(0, 4)) >= zeros else 0
             for _ in range(n)] for _ in range(m)]
    return dense_csc(rows)


@settings(max_examples=300, deadline=None)
@given(kernel_matrices())
def test_kernel_matches_dict_oracle(matrix):
    for ell in (None, 2, 3, 5):
        assert_kernel_matches_oracle(matrix, ell)


def test_kernel_matches_dict_oracle_on_a_seeded_corpus():
    # dense corners with small non-units leave large cores over Z, where
    # the order in which a pivot's holders are updated decides the pivots
    rng = random.Random(20261019)
    for _ in range(600):
        m, n, density = rng.randint(1, 12), rng.randint(1, 12), rng.random()
        matrix = dense_csc([[rng.choice([1, -1, 1, -1, 2, -2, 3, 5, 7])
                             if rng.random() < density else 0
                             for _ in range(n)] for _ in range(m)])
        for ell in (None, 2, 3, 5):
            assert_kernel_matches_oracle(matrix, ell)


def test_kernel_matches_dict_oracle_on_nerve_and_building_boundaries():
    # the boundaries pi1 eliminates (the S-reduced d_2 of skeleta), the
    # full depth-2 nerve's and those of a Tits building, lines long and
    # short, over Z and F_ell
    from rbscat.rbs import build_rbs, tits_building
    skeleta = [skeleton(build_rbs(spec, 2).cat) for spec in ("F2", "F3", "Z4")]
    boundaries = [nerve_chain_complex(sk, 2, reduced=reduced).boundaries[2]
                  for sk in skeleta for reduced in (False, True)]
    boundaries += tits_building(2, 4).complex.boundaries.values()
    for d in boundaries:
        for ell in (None, 2, 3):
            assert_kernel_matches_oracle(d, ell)


def test_kernel_is_exact_past_int64():
    # pivoting on the 1 leaves 3 - 2^80 in the other column; int64 would
    # wrap, the kernel moves to Python integers as the oracle holds them
    big = 2 ** 40
    d = dense_csc([[1, big], [big, 3]])
    assert assert_kernel_matches_oracle(d) == (1, [[(1, 3 - 2 ** 80)]])
    assert sparse_invariant_factors(d) == [1, 2 ** 80 - 3]
    # values past 2^63 in the input stay Python integers too
    huge = csc([{0: 1, 1: 2 ** 70}, {0: 2 ** 70, 1: 5}, {1: 2 ** 65}])
    assert eliminate_units(huge)[1][0][1] == 5 - 2 ** 140
    assert_kernel_matches_oracle(huge)
    for ell in (2, 3, 2 ** 61 - 1):
        assert_kernel_matches_oracle(huge, ell)


def test_core_vectors_are_deduplicated_up_to_sign(monkeypatch):
    # no unit: the whole 2 x 5 matrix is the core, read as its five
    # columns, of which (2, 4) appears three times up to sign; the
    # lattice basis gets the two distinct ones and the invariant factors
    # are those of the full list
    columns = [{0: 2, 1: 4}, {0: -2, 1: -4}, {0: 2, 1: 4}, {0: 6, 1: 2},
               {0: -6, 1: -2}]
    full = [[c.get(0, 0), c.get(1, 0)] for c in columns]
    seen = []

    def recording_basis(vectors):
        seen.append(len(vectors))
        return _lattice_basis(vectors)

    monkeypatch.setattr(homology_module, "_lattice_basis", recording_basis)
    factors = sparse_invariant_factors(csc(columns))
    assert seen == [2]
    assert factors == snf_diagonal(_lattice_basis(full)) == [2, 10]


def test_snf_postconditions_survive_optimize():
    # a wrong D must raise under python -O, where bare asserts vanish
    code = ("from rbscat.homology import _check_snf\n"
            "try:\n"
            "    _check_snf([[2]], [[1]], [[3]], [[1]], 1)\n"
            "except RuntimeError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(5)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# nerves

def test_terminal_nerve():
    cx = nerve_chain_complex(terminal_category(), 4)
    assert cx.dims == [1, 0, 0, 0, 0]
    h = homology(cx, "Z")
    assert h.betti == {0: 1, 1: 0, 2: 0, 3: 0}


def test_bz2_nerve_one_simplex_per_degree():
    cx = nerve_chain_complex(group_category(cyclic(2)), 3)
    assert cx.dims == [1, 1, 1, 1]


def test_circle_nerve():
    cx = nerve_chain_complex(hexagon_circle(), 2)
    h = homology(cx, "Z")
    assert (h.betti[0], h.betti[1]) == (1, 1)
    assert h.torsion[1] == []


def test_bz2_homology_torsion():
    cx = nerve_chain_complex(group_category(cyclic(2)), 5)
    h = homology(cx, "Z")
    assert h.betti == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}
    assert h.torsion[1] == [2] and h.torsion[3] == [2]
    hf = homology(cx, "F2")
    assert all(hf.betti[k] == 1 for k in range(5))


def test_nerve_counts_bs3():
    import itertools
    perms = list(itertools.permutations(range(3)))
    S3 = Group(perms, [[perms.index(tuple(a[i] for i in b)) for b in perms]
                       for a in perms], (0, 1, 2))
    cx = nerve_chain_complex(group_category(S3), 4)
    assert cx.dims == [1, 5, 25, 125, 625]


def test_nerve_guard():
    G = cyclic(5)
    tight = GuardConfig(max_simplices_per_degree=10)
    with pytest.raises(GuardExceeded, match="2-simplices"):
        nerve_chain_complex(group_category(G), 3, tight)


def test_skeleton_nerve_keeps_h1():
    from rbscat.rbs import build_rbs
    bz4 = group_category(cyclic(4))
    for C in (build_rbs("F2", 2).cat, build_rbs("F3", 2).cat, bz4):
        full = homology(nerve_chain_complex(C, 2), "Z")
        skel = homology(nerve_chain_complex(skeleton(C), 2), "Z")
        assert (skel.betti[1], skel.torsion[1]) == (full.betti[1], full.torsion[1])
    assert skel.torsion[1] == [4]


def test_truncation_stability():
    for C in (terminal_category(), hexagon_circle(),
              group_category(cyclic(2))):
        for D in (2, 3):
            h1 = homology(nerve_chain_complex(C, D), "Z")
            h2 = homology(nerve_chain_complex(C, D + 1), "Z")
            for k in range(D):
                assert h1.betti[k] == h2.betti[k]
                assert h1.torsion[k] == h2.torsion[k]


# ---------------------------------------------------------------------------
# simplicial complexes

def test_sphere():
    s2 = chain_complex_from_facets([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
    h = homology(s2, "Z")
    assert h.betti == {0: 1, 1: 0, 2: 1}
    assert all(not t for t in h.torsion.values())


def test_rp2_over_z_and_f2():
    rp2 = chain_complex_from_facets(RP2_FACETS)
    assert rp2.dims == [6, 15, 10]
    hz = homology(rp2, "Z")
    assert hz.betti == {0: 1, 1: 0, 2: 0}
    assert hz.torsion[1] == [2]
    hf = homology(rp2, "F2")
    assert hf.betti == {0: 1, 1: 1, 2: 1}
    hf3 = homology(rp2, "F3")
    assert hf3.betti == {0: 1, 1: 0, 2: 0}


def test_order_complex_of_chain_is_contractible():
    P = Poset([0, 1, 2], [[i <= j for j in range(3)] for i in range(3)])
    cx = order_complex(P)
    assert cx.dims == [3, 3, 1]
    h = homology(cx, "Z")
    assert h.betti[0] == 1 and all(h.betti[k] == 0 for k in h.betti if k > 0)


def test_order_complex_of_crown_is_a_circle():
    # a, b < c, d: four vertices and four edges, a circle
    P = poset("abcd", [(x, x) for x in "abcd"] +
              [(x, y) for x in "ab" for y in "cd"])
    cx = order_complex(P)
    assert cx.dims == [4, 4]
    assert homology(cx, "Z").betti == {0: 1, 1: 1}


# ---------------------------------------------------------------------------
# oracle agreement

def test_rank_oracle_agreement_corpus():
    corpus = [
        chain_complex_from_facets([(1, 2), (2, 3), (1, 3)]),        # circle
        chain_complex_from_facets([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]),
        chain_complex_from_facets(RP2_FACETS),
        nerve_chain_complex(hexagon_circle(), 3),
        nerve_chain_complex(group_category(cyclic(3)), 3),
    ]
    for cx in corpus:
        hz = homology(cx, "Z")
        oracle = betti_via_rank_oracle(cx)
        for k in oracle:
            assert hz.betti[k] == oracle[k], (cx.dims, k)


def test_bareiss_rank():
    assert bareiss_rank([[2, 4], [6, 8]]) == 2
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert bareiss_rank([[0, 0], [0, 0]]) == 0


def test_complex_from_json_validates():
    from rbscat.jsonio import complex_from_json, complex_to_json
    rp2 = chain_complex_from_facets(RP2_FACETS)
    assert homology(complex_from_json(complex_to_json(rp2)), "Z").torsion[1] == [2]
    bad = [
        ["not", "a", "dict"],
        {"schema": "fincat/1"},
        {"schema": "chaincomplex/1", "dims": [1, -1]},
        {"schema": "chaincomplex/1", "dims": [1, 1], "boundaries": {"2": []}},
        {"schema": "chaincomplex/1", "dims": [1, 1], "boundaries": {"1": [[0, 1, 1]]}},
        {"schema": "chaincomplex/1", "dims": [1, 1], "boundaries": {"1": [[0, 0]]}},
        {"schema": "chaincomplex/1", "dims": [1, 1, 1],
         "boundaries": {"1": [[0, 0, 1]], "2": [[0, 0, 1]]}},
        {"schema": "chaincomplex/1", "dims": [1, 1],
         "boundaries": {"1": [[0, 0, 2 ** 63]]}},
        {"schema": "chaincomplex/1", "dims": [1, 1],
         "boundaries": {"1": [[0, 0, 1], [0, 0, -1]]}},
    ]
    for doc in bad:
        with pytest.raises(ValueError):
            complex_from_json(doc)


# ---------------------------------------------------------------------------
# array nerve and d.d check against the per-simplex dict oracles

def oracle_nerve(C, depth, heads=None):
    """Per-simplex dict builder of the normalized nerve (test oracle): the
    dims and, per degree, the boundary columns {row: value}, the chains
    listed in lexicographic order.  Given heads, the 2-chains are those
    whose first morphism is in heads."""
    ids = set(C.identity_of)
    out_of = {}
    for f in non_identity_morphisms(C):
        out_of.setdefault(C.src[f], []).append(f)
    dims = [C.n_objects]
    boundaries = {}
    chains = [(f,) for f in sorted(non_identity_morphisms(C))]
    index_prev = {}
    for k in range(1, depth + 1):
        cols = []
        for ch in chains:
            col = {}
            if k == 1:
                faces = [(C.tgt[ch[0]], 1), (C.src[ch[0]], -1)]
            else:
                faces = [(index_prev[ch[1:]], 1)]
                for i in range(k - 1):
                    comp = C.compose(ch[i + 1], ch[i])
                    if comp not in ids:
                        face = ch[:i] + (comp,) + ch[i + 2:]
                        faces.append((index_prev[face], (-1) ** (i + 1)))
                faces.append((index_prev[ch[:-1]], (-1) ** k))
            for r, sign in faces:
                col[r] = col.get(r, 0) + sign
            cols.append({r: v for r, v in col.items() if v})
        boundaries[k] = cols
        dims.append(len(chains))
        index_prev = {ch: i for i, ch in enumerate(chains)}
        chains = [ch + (g,) for ch in chains
                  if k > 1 or heads is None or ch[0] in heads
                  for g in out_of.get(C.tgt[ch[-1]], ())]
    return dims, boundaries


def oracle_dd_is_zero(boundaries):
    """d_{k-1} . d_k = 0 for every k, by a dict loop over the columns
    (test oracle)."""
    for k in sorted(boundaries):
        if k - 1 not in boundaries:
            continue
        prev = list(boundaries[k - 1])
        for col in boundaries[k]:
            acc = {}
            for r, c in col.items():
                for r2, c2 in prev[r].items():
                    acc[r2] = acc.get(r2, 0) + c * c2
            if any(acc.values()):
                return False
    return True


def bz(k):
    return group_category(cyclic(k))


NERVE_BASES = [
    bz(1), bz(2), bz(3), bz(4), hexagon_circle(),
    poset_category(poset([0, 1], [(0, 0), (1, 1), (0, 1)])),
    poset_category(poset("abc", [("a", "a"), ("b", "b"), ("c", "c"),
                                 ("a", "b"), ("a", "c")])),
]


@st.composite
def nerve_inputs(draw):
    """A small category (a base, a product of two, a full subcategory, or
    RBS(F2, 2) and its skeleton) and a depth up to 4, within 5,000
    simplices per degree."""
    from rbscat.rbs import build_rbs
    pick = draw(st.integers(0, 3))
    if pick == 0:
        C = build_rbs("F2", 2).cat
        C = skeleton(C) if draw(st.booleans()) else C
    else:
        C = draw(st.sampled_from(NERVE_BASES))
        if pick > 1:
            C = product_tuple([C, draw(st.sampled_from(NERVE_BASES))])
        if pick > 2:
            objs = draw(st.lists(st.sampled_from(C.objects), min_size=1,
                                 unique=True))
            C, _ = full_subcategory(C, objs)
    # adj[x, y] counts the non-identity arrows x -> y, so the k-chains
    # number the sum of the entries of adj^k
    adj = np.zeros((C.n_objects, C.n_objects), np.int64)
    for f in non_identity_morphisms(C):
        adj[C.src[f], C.tgt[f]] += 1
    depth = draw(st.integers(1, 4))
    while depth > 1 and np.linalg.matrix_power(adj, depth).sum() > 5000:
        depth -= 1
    return C, depth


@settings(max_examples=60, deadline=None)
@given(nerve_inputs())
def test_array_nerve_matches_dict_oracle(case):
    C, depth = case
    cx = nerve_chain_complex(C, depth)
    dims, boundaries = oracle_nerve(C, depth)
    assert cx.dims == dims
    for k in range(1, depth + 1):
        d = cx.boundaries[k]
        assert d.n_rows == dims[k - 1] and len(d) == dims[k]
        assert list(d) == boundaries[k], k
        for a, b in zip(d.indptr[:-1].tolist(), d.indptr[1:].tolist()):
            assert (d.rows[a:b][1:] > d.rows[a:b][:-1]).all()
    assert oracle_dd_is_zero(boundaries)


# ---------------------------------------------------------------------------
# the S-reduced 2-complex; its labelled oracle is the full depth-2 nerve

def assert_reduced_matches_nerve(C):
    """The S-reduced 2-complex of C is the dict oracle's depth-2 nerve cut
    to the 2-chains that start in C.generators, and it has the full
    depth-2 nerve's H_0 and H_1 over Z, F2 and F3 from at most as many
    2-chains.  Returns the 2-chain counts, reduced and full."""
    red = nerve_chain_complex(C, 2, reduced=True)
    full = nerve_chain_complex(C, 2)
    heads = set(np.flatnonzero(C.generators).tolist())
    dims, boundaries = oracle_nerve(C, 2, heads)
    assert red.dims == dims and red.dims[:2] == full.dims[:2]
    assert red.dims[2] <= full.dims[2]
    assert [list(red.boundaries[k]) for k in (1, 2)] == \
        [boundaries[1], boundaries[2]]
    for coefficients in ("Z", "F2", "F3"):
        h, oracle = homology(red, coefficients), homology(full, coefficients)
        assert (h.betti, h.torsion, h.trusted_max) == \
            (oracle.betti, oracle.torsion, oracle.trusted_max)
    return red.dims[2], full.dims[2]


@pytest.mark.parametrize("spec, n, counts", [
    ("F2", 1, None), ("F2", 2, None), ("F3", 2, (320, 3018)),
    ("Z4", 2, (1004, 11386)), ("F4", 2, (3255, 40520)),
    ("F5", 2, (6636, 277090)), ("F2", 3, (3121, 46176)), ("Z8", 1, None),
    ("Z16", 1, None), ("Z9", 1, None)])
def test_reduced_complex_matches_nerve_on_rbs_skeleta(spec, n, counts):
    from rbscat.rbs import build_rbs
    got = assert_reduced_matches_nerve(skeleton(build_rbs(spec, n).cat))
    assert counts is None or got == counts


def symmetric_group_3():
    import itertools
    perms = list(itertools.permutations(range(3)))
    return Group(perms, [[perms.index(tuple(a[i] for i in b)) for b in perms]
                         for a in perms], (0, 1, 2))


def test_reduced_complex_matches_nerve_on_groupoids_and_posets():
    # in a group every h has an inverse, so h.s = id drops faces
    for C in [group_category(symmetric_group_3())] + NERVE_BASES:
        assert_reduced_matches_nerve(C)


@settings(max_examples=40, deadline=None)
@given(st.one_of(nerve_inputs().map(lambda case: case[0]), small_categories(),
                 posets().map(poset_category)))
def test_reduced_complex_matches_nerve_on_random_categories(C):
    assert_reduced_matches_nerve(C)


def test_reduced_complex_has_depth_2_only():
    for depth in (1, 3):
        with pytest.raises(ValueError, match="depth 2"):
            nerve_chain_complex(bz(2), depth, reduced=True)


def corrupt(cx, k, at):
    """A copy of the complex with entry number `at` of d_k changed."""
    d = cx.boundaries[k]
    vals = d.vals.copy()
    vals[at % len(vals)] += 1 if vals[at % len(vals)] != -1 else 2
    out = dict(cx.boundaries)
    out[k] = CSC(d.n_rows, d.indptr, d.rows, vals)
    return ChainComplex(list(cx.dims), out, cx.complete)


@settings(max_examples=60, deadline=None)
@given(nerve_inputs(), st.integers(1, 4), st.integers(0, 10 ** 6))
def test_dd_check_agrees_with_dict_oracle_on_a_corrupted_entry(case, k, at):
    C, depth = case
    cx = nerve_chain_complex(C, depth)
    k = min(k, depth)
    if not len(cx.boundaries[k].vals):
        return
    bad = corrupt(cx, k, at)
    if oracle_dd_is_zero({j: list(d) for j, d in bad.boundaries.items()}):
        assert bad.verify_boundary_squared()
    else:
        with pytest.raises(ValueError, match="d.d != 0 in degree"):
            bad.verify_boundary_squared()


def test_dd_check_raises_under_optimize():
    # a corrupted d_2 entry of the depth-2 nerve of the chain 0 < 1 < 2
    # must raise under python -O as well, where bare asserts vanish
    code = ("from rbscat.homology import CSC, nerve_chain_complex\n"
            "from rbscat.fincat import Poset, poset_category\n"
            "cx = nerve_chain_complex(poset_category(Poset([0, 1, 2], "
            "[[i <= j for j in range(3)] for i in range(3)])), 2)\n"
            "d = cx.boundaries[2]\n"
            "vals = d.vals.copy()\n"
            "vals[0] += 1\n"
            "cx.boundaries[2] = CSC(d.n_rows, d.indptr, d.rows, vals)\n"
            "try:\n"
            "    cx.verify_boundary_squared()\n"
            "except ValueError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(5)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_dd_check_is_exact_past_int64():
    # d_1 d_2 = 2^40 * 2^40 - 2^80 sums to zero only in exact arithmetic
    big = 2 ** 40
    ok = ChainComplex([1, 1, 1], {1: csc([{0: big}], 1),
                                  2: csc([{0: big}], 1)})
    with pytest.raises(ValueError):
        ok.verify_boundary_squared()
    zero = ChainComplex([1, 2, 1], {1: csc([{0: big}, {0: big}], 1),
                                    2: csc([{0: big, 1: -big}], 2)})
    assert zero.verify_boundary_squared()
