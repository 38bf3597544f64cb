import hashlib
import itertools

import numpy as np
import pytest

from rbscat.fincat import is_fully_faithful
from rbscat.rings import (
    Submodule,
    _gauss_jordan,
    canonical_rowspace,
    complement_codes,
    enumerate_gl,
    enumerate_splittable_submodules,
    enumerate_submodules,
    make_ring,
    residue_independent,
    rref,
)
from rbscat.qkt import (
    FiltCategory,
    FlagChain,
    MonCalculus,
    MonMor,
    QKit,
    _image,
    build_filt_category,
    comma_contractibility,
    cokernel_projection,
    enumerate_flag_chains,
    monoidal_category,
    pullback,
    pushout,
    q2_hom,
    quillen_q,
    span_canonical,
    terminal_decomposition,
    _monmor_label,
)
from test_rings import Mat, QuotientData, _row_times_mat

F2 = make_ring("F2")
F3 = make_ring("F3")

KIT1 = QKit(2, 1, cap=2)
KIT2 = QKit(2, 2, cap=3)


# ---------------------------------------------------------------------------
# oracles: the former Mat implementations, one matrix at a time

def kernel_basis(ring, mat):
    """Oracle helper: canonical basis rows of {v : mat . v = 0}, from the
    reduced row echelon form of mat with the free-column completion."""
    work = [list(r) for r in mat.data]
    pivots = _gauss_jordan(ring, work, mat.cols)
    basis = []
    for j in (j for j in range(mat.cols) if j not in pivots):
        v = [0] * mat.cols
        v[j] = 1
        for r_idx, r in enumerate(work[:len(pivots)]):
            v[pivots[r_idx]] = ring.neg[r[j]]
        basis.append(v)
    return canonical_rowspace(ring, basis) if basis else ()


def image_submodule(ring, ambient, m):
    return Submodule.from_rows(ring, ambient, [list(c) for c in zip(*m.data)])


def flag_quotients(ring, n, chain):
    """Oracle helper: QuotientData per step of a literal chain."""
    prev, out = Submodule.zero(ring, n), []
    for rows in chain:
        cur = Submodule(ring, n, rows)
        out.append(QuotientData(prev, cur))
        prev = cur
    return out


def _projection_mat(ring, quot, ambient):
    cols = [quot.project(tuple(int(i == j) for i in range(ambient)))
            for j in range(ambient)]
    return Mat(ring, [list(r) for r in zip(*cols)], cols=ambient)


def cokernel_projection_oracle(ring, a, b, mi):
    """Oracle for cokernel_projection: F^b ->> F^{b-a} through
    QuotientData(image, F^b), column by column."""
    quot = QuotientData(image_submodule(ring, b, mi), Submodule.full(ring, b))
    return _projection_mat(ring, quot, b) if b - a else Mat.zero(ring, 0, b)


def pullback_oracle(ring, b, c, p, cp, m):
    """Oracle for pullback: the kernel basis of [p | -m]; returns (dim,
    to_b, to_cp)."""
    rows = [list(p.data[r]) + [ring.neg[x] for x in m.data[r]]
            for r in range(c)]
    big = Mat(ring, rows, cols=b + cp) if c else Mat.zero(ring, 0, b + cp)
    ker = kernel_basis(ring, big) if (b + cp) else ()
    d = len(ker)
    to_b = Mat(ring, [[ker[j][i] for j in range(d)] for i in range(b)], cols=d)
    to_cp = Mat(ring, [[ker[j][b + i] for j in range(d)] for i in range(cp)],
                cols=d)
    return d, to_b, to_cp


def pushout_oracle(ring, z, b, c, i_mono, p_epi):
    """Oracle for pushout: QuotientData of the image of (i, -p); returns
    (dim, from_b, from_c)."""
    rows = [list(i_mono.data[r]) for r in range(b)] + \
        [[ring.neg[x] for x in p_epi.data[r]] for r in range(c)]
    joint = Mat(ring, rows, cols=z) if z else Mat.zero(ring, b + c, 0)
    quot = QuotientData(image_submodule(ring, b + c, joint),
                        Submodule.full(ring, b + c))
    d = quot.quotient_rank
    proj = _projection_mat(ring, quot, b + c) if d else Mat.zero(ring, 0, b + c)
    return (d, Mat(ring, [r[:b] for r in proj.data], cols=b),
            Mat(ring, [r[b:] for r in proj.data], cols=c))


def span_canonical_oracle(ring, x, z, y, p, i):
    """Oracle for span_canonical: the reduced row echelon form of [p; i]^T,
    last row first, as the columns of the label."""
    cols = rref(ring, list(zip(*(p.data + i.data))))[::-1]
    rows = tuple(zip(*cols)) if cols else ((),) * (x + y)
    return (x, y, z, rows[:x], rows[x:])


def merge_oracle(ring, second, first):
    """Oracle for MonCalculus._merge: lift first's chains through the steps
    of second's chains with one QuotientData per step and one Mat.mul_vec
    per vector."""
    theta = tuple(second.theta[j] for j in first.theta)
    new_flags = []
    for l, k_l in enumerate(second.tgt):
        fiber = [j for j in range(len(second.src)) if second.theta[j] == l]
        outer = second.flags[l]
        outer_q = flag_quotients(ring, k_l, outer.chain)
        merged, prev = [], Submodule.zero(ring, k_l)
        for t, j in enumerate(fiber):
            pi_inv = Mat(ring, outer.isos[t]).inverse()
            for rows_u in first.flags[j].chain:
                lifted = list(prev.mat) + [
                    outer_q[t].section(pi_inv.mul_vec(x)) for x in
                    Submodule(ring, first.tgt[j], rows_u).free_basis()]
                merged.append(Submodule.from_rows(ring, k_l, lifted))
            prev = merged[-1]
        chain = tuple(s.mat for s in merged)
        merged_q = iter(flag_quotients(ring, k_l, chain))
        isos = []
        for t, j in enumerate(fiber):
            inner = first.flags[j]
            pi_t = Mat(ring, outer.isos[t])
            inner_q = flag_quotients(ring, first.tgt[j], inner.chain)
            for u in range(len(inner.chain)):
                cols = [Mat(ring, inner.isos[u]).mul_vec(inner_q[u].project(
                    pi_t.mul_vec(outer_q[t].project(c))))
                    for c in next(merged_q).section_rows]
                iso = Mat(ring, [list(r) for r in zip(*cols)])
                assert iso.inverse_or_none() is not None
                isos.append(iso.data)
        new_flags.append(FlagChain(k_l, chain, tuple(isos)))
    return MonMor(first.src, second.tgt, theta, tuple(new_flags))


def mats_of(E, a, b):
    """The morphisms a -> b of E as Mats, in E's order."""
    return [Mat(E.ring, [e[k * a:(k + 1) * a] for k in range(b)], cols=a)
            for e in itertools.product(range(E.ring.size), repeat=a * b)]


def codes_of(ring, m):
    """The row of image codes of the Mat m."""
    q = ring.size
    return [sum(x * q ** (m.rows - 1 - k) for k, x in enumerate(m.mul_vec(v)))
            for v in itertools.product(range(q), repeat=m.cols)]


# ---------------------------------------------------------------------------
# base category axioms

def test_filt_category_counts():
    E = build_filt_category(2, 1)
    assert len(E.objects) == 2
    # 1 + 1 + 1 + 2 endomorphisms of F_2
    assert sum(map(len, E.maps.values())) == 5
    E2 = build_filt_category(2, 2)
    assert len(E2.objects) == 3
    # morphism counts are q^{rc} per shape
    assert sum(map(len, E2.maps.values())) == sum(
        2 ** (r * c) for r in range(3) for c in range(3))


@pytest.mark.parametrize("q, N", [(2, 2), (3, 2), (4, 1)])
def test_morphism_rows_are_the_matrix_actions(q, N):
    E = FiltCategory(q, N)
    for (a, b), rows in E.maps.items():
        mats = mats_of(E, a, b)
        assert rows.tolist() == [codes_of(E.ring, m) for m in mats]
        assert E.rank(a, rows).tolist() == [
            len(_gauss_jordan(E.ring, [list(r) for r in m.data], a))
            for m in mats]
        for m, row in zip(mats[::7], rows[::7]):
            assert E.map_row(a, b, m.data).tolist() == row.tolist()


def test_filt_axioms_f3():
    build_filt_category(3, 1)  # validates axioms on construction


def test_pullback_of_epi_along_mono_is_epi():
    E = build_filt_category(2, 2)
    p = E.map_row(2, 1, [[1, 0]])[None]     # F_2^2 ->> F_2
    m = E.map_row(1, 1, [[1]])[None]        # F_2 >-> F_2
    d, to_b, to_cp = pullback(E, 2, 1, 1, p, m)
    assert d == 2 and to_b.shape == to_cp.shape == (1, 1, 4)
    assert E.is_epi(d, 1, to_cp).all()
    assert E.is_mono(d, 2, to_b).all()  # base change of the mono m along p


def test_pushout_of_mono_along_epi_is_mono():
    E = build_filt_category(2, 2)
    i = E.map_row(1, 2, [[1], [0]])[None]   # F_2 >-> F_2^2
    p = E.map_row(1, 1, [[1]])[None]        # F_2 ->> F_2
    d, from_b, from_c = pushout(E, 1, 2, 1, i, p)
    assert d == 2 and from_b.shape == (1, 1, 4) and from_c.shape == (1, 1, 2)
    assert E.is_mono(1, d, from_c).all()


def test_cokernel_projection():
    E = build_filt_category(2, 2)
    i = E.map_row(1, 2, [[1], [1]])[None]
    (cok,) = cokernel_projection(E, 1, 2, i)
    assert len(cok) == 4 and cok.max() == 1     # F_2^2 ->> F_2
    assert cok[i[0]].tolist() == [0, 0]


@pytest.mark.parametrize("q, N", [(2, 2), (3, 2), (4, 1)])
def test_pullback_pushout_and_cokernel_agree_with_mat_oracles(q, N):
    # every admissible (co)span: the legs on vector codes are the maps the
    # former Mat code built, read as rows of image codes
    E = FiltCategory(q, N)
    R = E.ring
    mats = {s: mats_of(E, *s) for s in E.maps}
    mono = {s: np.flatnonzero(E.is_mono(*s, E.maps[s])) for s in E.maps}
    epi = {s: np.flatnonzero(E.is_epi(*s, E.maps[s])) for s in E.maps}
    for (a, b), idx in mono.items():
        if len(idx):
            got = cokernel_projection(E, a, b, E.maps[a, b][idx])
            assert got.tolist() == [codes_of(R, cokernel_projection_oracle(
                R, a, b, mats[a, b][k])) for k in idx]
    seen = 0
    for b, c, cp in itertools.product(E.objects, repeat=3):
        p, m = epi[b, c], mono[cp, c]
        if len(p) and len(m):
            d, to_b, to_cp = pullback(E, b, c, cp, E.maps[b, c][p],
                                      E.maps[cp, c][m])
            for (x, k), (y, j) in itertools.product(enumerate(p), enumerate(m)):
                od, ob, ocp = pullback_oracle(R, b, c, mats[b, c][k], cp,
                                              mats[cp, c][j])
                assert (d, to_b[x, y].tolist(), to_cp[x, y].tolist()) == \
                    (od, codes_of(R, ob), codes_of(R, ocp))
                seen += 1
    for z, b, c in itertools.product(E.objects, repeat=3):
        i, p = mono[z, b], epi[z, c]
        if len(i) and len(p):
            d, from_b, from_c = pushout(E, z, b, c, E.maps[z, b][i],
                                        E.maps[z, c][p])
            for (x, k), (y, j) in itertools.product(enumerate(i), enumerate(p)):
                od, ob, oc = pushout_oracle(R, z, b, c, mats[z, b][k],
                                            mats[z, c][j])
                assert (d, from_b[x, y].tolist(), from_c[x, y].tolist()) == \
                    (od, codes_of(R, ob), codes_of(R, oc))
                seen += 1
    assert seen


# ---------------------------------------------------------------------------
# span category

def test_quillen_q_hom_sizes_q2_n1():
    Q = KIT1.span_cat
    # exhaustive span classification oracle, frozen:
    #   Hom(0,0) = 1; Hom(0,1) = #subspaces of F_2 = 2; Hom(1,0) = 0
    #   (no epi 0 ->> 1); Hom(1,1) = 1
    assert len(Q.hom(0, 0)) == 1
    assert len(Q.hom(0, 1)) == 2
    assert len(Q.hom(1, 0)) == 0
    assert len(Q.hom(1, 1)) == 1


def test_quillen_q_hom_sizes_q3():
    E = build_filt_category(3, 1)
    Q, _ = quillen_q(E)
    assert len(Q.hom(1, 1)) == 2  # GL_1(F_3) orbits of (epi, mono) pairs


def test_quillen_q_hom_sizes_n2():
    Q = KIT2.span_cat
    assert len(Q.hom(0, 2)) == 5   # subspaces of F_2^2
    assert len(Q.hom(1, 2)) == 6
    assert len(Q.hom(2, 2)) == 6   # |GL_2(F_2)|
    assert len(Q.hom(2, 1)) == 0


def least_over_gl(E, x, z, y, p, i):
    """Oracle for span_canonical: the least (p h, i h) over all h in
    GL(z), by exhaustive search."""
    best = min((p.mul(Mat(E.ring, h, cols=z)).data,
                i.mul(Mat(E.ring, h, cols=z)).data)
               for h in enumerate_gl(E.ring, z))
    return (x, y, z) + best


@pytest.mark.parametrize("q, N, stride", [
    (2, 2, 1), (3, 2, 1), (4, 1, 1), (5, 1, 1), (4, 2, 25)])
def test_span_canonical_matches_gl_search_oracle(q, N, stride):
    # every span x <<- z >-> y of Vect(F_q)_{<=N} (every stride-th one for
    # F_4^2, where the search runs over |GL_2(F_4)| = 180 elements),
    # labelled from the membership row of {(p w, i w)}
    E = FiltCategory(q, N)
    mats = {s: mats_of(E, *s) for s in E.maps}
    spans = [(x, z, y, k, j)
             for x in E.objects for y in E.objects for z in range(x, y + 1)
             for k in np.flatnonzero(E.is_epi(z, x, E.maps[z, x]))
             for j in np.flatnonzero(E.is_mono(z, y, E.maps[z, y]))]
    assert spans
    for x, z, y, k, j in spans[::stride]:
        p, i = mats[z, x][k], mats[z, y][j]
        member = _image(E.maps[z, x][k][None] * q ** y + E.maps[z, y][j][None],
                        q ** (x + y))
        (label,) = span_canonical(E.ring, x, y, member)
        assert label == least_over_gl(E, x, z, y, p, i) == \
            span_canonical_oracle(E.ring, x, z, y, p, i)


def test_identity_span_is_identity():
    Q = KIT1.span_cat
    x = 1
    idx = Q.identity_of[Q.obj_index[x]]
    lbl = Q.mor_labels[idx]
    assert lbl[0] == lbl[1] == lbl[2] == 1  # [x <<- x >-> x]


# ---------------------------------------------------------------------------
# graded lists

def test_hom_counts():
    calc = MonCalculus(F2)
    assert len(calc.hom((1, 1), (2,))) == 3     # 3 lines, trivial GL_1's
    assert len(calc.hom((1,), (1,))) == 1
    assert len(calc.hom((2,), (1,))) == 0
    assert len(calc.hom((), ())) == 1
    calc3 = MonCalculus(F3)
    assert len(calc3.hom((1, 1), (2,))) == 16   # 4 lines x 2 x 2 isos


def test_flag_chain_enumeration():
    chains = enumerate_flag_chains(F2, 2, (1, 1))
    assert len(chains) == 3
    chains3 = enumerate_flag_chains(F2, 3, (1, 1, 1))
    assert len(chains3) == 21  # complete flags of F_2^3


def enumerate_flag_chains_oracle(ring, n, jumps):
    """Oracle for enumerate_flag_chains: extend each chain by every
    subspace of the next dimension above its top, one Submodule.__lt__
    per pair."""
    subs = enumerate_submodules(ring, n)
    chains = [[]]
    dim = 0
    for j in jumps:
        dim += j
        chains = [ch + [s] for ch in chains for s in subs if s.rank == dim
                  and (ch[-1] if ch else Submodule.zero(ring, n)) < s]
    return [tuple(s.mat for s in ch) for ch in chains]


@pytest.mark.parametrize("ring, n, jumps", [
    (F2, 0, ()), (F2, 3, (3,)), (F3, 3, (1, 2)), (F3, 3, (2, 1)),
    (F3, 3, (1, 1, 1)), (F2, 4, (1, 2, 1)), (F2, 3, (0, 3)),
    (F2, 3, (1, 0, 2))])
def test_flag_chains_match_loop_oracle(ring, n, jumps):
    assert enumerate_flag_chains(ring, n, jumps) == \
        enumerate_flag_chains_oracle(ring, n, jumps)


def test_unit_laws_and_concat():
    calc = MonCalculus(F2)
    f = calc.hom((1, 1), (2,))[0]
    assert calc.compose(calc.identity((2,)), f) == f
    assert calc.compose(f, calc.identity((1, 1))) == f
    g = calc.identity((1,))
    fg = calc.concat(f, g)
    assert fg.src == (1, 1, 1) and fg.tgt == (2, 1)
    # unit of the product
    assert calc.concat(calc.identity(()), f) == f


def test_concat_is_associative_on_morphisms():
    calc = MonCalculus(F2)
    ms = calc.hom((1,), (1,)) + calc.hom((1, 1), (2,))
    for a in ms:
        for b in ms:
            for c in ms:
                assert calc.concat(calc.concat(a, b), c) == \
                    calc.concat(a, calc.concat(b, c))


def test_merging_associativity_via_fincat():
    # composition by merging validates associativity exhaustively
    calc = MonCalculus(F2)
    cat, _ = monoidal_category(calc, 3, 2)
    assert cat.n_objects == 7


def test_interchange_of_concat_and_compose():
    calc = MonCalculus(F2)
    f = calc.hom((1, 1), (2,))[0]
    u = calc.hom((2,), (2,))[0]
    g = calc.hom((1,), (1,))[0]
    lhs = calc.concat(calc.compose(u, f), g)
    rhs = calc.compose(calc.concat(u, calc.identity((1,))),
                       calc.concat(f, g))
    assert lhs == rhs


def test_monomorphism_cancellation_exhaustive():
    calc = MonCalculus(F2)
    _, mor_objs = monoidal_category(calc, 3, 2)
    mors = list(mor_objs.values())
    for f in mors:
        seen = {}
        for g in mors:
            if g.tgt != f.src:
                continue
            key = _monmor_label(calc.compose(f, g))
            assert seen.get(key, _monmor_label(g)) == _monmor_label(g), \
                "cancellation fails"
            seen[key] = _monmor_label(g)


def restriction(mor, j):
    """The factor of mor over target entry j (complete decomposition)."""
    fib = [i for i in range(len(mor.src)) if mor.theta[i] == j]
    return MonMor(tuple(mor.src[i] for i in fib), (mor.tgt[j],),
                  tuple(0 for _ in fib), (mor.flags[j],))


def test_complete_decomposition():
    calc = MonCalculus(F2)
    _, mor_objs = monoidal_category(calc, 3, 2)
    for m in mor_objs.values():
        parts = [restriction(m, j) for j in range(len(m.tgt))]
        whole = MonMor((), (), (), ())
        for p in parts:
            whole = calc.concat(whole, p)
        assert whole == m


# ---------------------------------------------------------------------------
# hom 2-categories

def test_q2_hom_single_object():
    q2 = KIT1.q2_hom((1,), (1,))
    assert q2.cat.n_objects == 1
    assert len(set(q2.components.values())) == 1


def test_q2_terminals_exist_everywhere():
    for kit in (KIT1, KIT2):
        objs = kit.calc.objects_up_to(kit.cap, kit.max_entry)
        for m in objs:
            for mp in objs:
                q2 = kit.q2_hom(m, mp)
                for cid in set(q2.components.values()):
                    assert q2.terminals[cid], (m, mp, cid)


def oracle_two_cells(calc, q2):
    """Oracle for the 2-cells of q2_hom: the exhaustive search over every
    pair of objects (a, b, phi), (a', b', phi') and every alpha: a -> a',
    beta: b -> b', keeping those with phi == phi' o (alpha (x) id_m (x)
    beta), labelled as q2.cat labels its 2-cells."""
    id_m = calc.identity(q2.source)
    cells = set()
    for lbl1, (a, b, phi) in q2.objects_data.items():
        for lbl2, (ap, bp, phip) in q2.objects_data.items():
            for alpha in calc.hom(a, ap):
                for beta in calc.hom(b, bp):
                    middle = calc.concat(calc.concat(alpha, id_m), beta)
                    if calc.compose(phip, middle) == phi:
                        cells.add((lbl1, lbl2, _monmor_label(alpha),
                                   _monmor_label(beta)))
    return cells


@pytest.mark.parametrize("q, N, cap", [(2, 1, 1), (2, 1, 2), (2, 1, 3),
                                       (2, 2, 2), (2, 2, 3), (3, 1, 1),
                                       (3, 1, 2)])
def test_two_cells_agree_with_exhaustive_search_oracle(q, N, cap):
    kit = QKit(q, N, cap)
    objs = kit.calc.objects_up_to(cap, N)
    for m in objs:
        for mp in objs:
            q2 = kit.q2_hom(m, mp)
            cells = oracle_two_cells(kit.calc, q2)
            assert len(cells) == q2.cat.n_morphisms
            assert cells == set(q2.cat.mor_labels)


def test_terminal_decomposition_identity_case():
    q2 = KIT2.q2_hom((1, 1), (1, 1))
    lbl = ((), (), _monmor_label(KIT2.calc.identity((1, 1))))
    term, cell, (J1, J2, J3) = terminal_decomposition(KIT2.calc, q2, lbl)
    assert term == lbl  # phi = id with empty padding decomposes to itself
    assert J2 == (0, 1) and J1 == () and J3 == ()


def test_terminal_decomposition_padding_split():
    # a morphism (1) -> (1,1) places the source in one slot and absorbs
    # the padding into the other
    q2 = KIT2.q2_hom((1,), (1, 1))
    for lbl in q2.cat.objects:
        term, cell, (J1, J2, J3) = terminal_decomposition(KIT2.calc, q2, lbl)
        assert len(J2) == 1
        assert cell[0] == lbl and cell[1] == term


def test_q2_unique_cell_to_terminal():
    for kit, pairs in ((KIT1, [((1,), (1, 1)), ((), (1,))]),
                       (KIT2, [((1,), (2,)), ((2,), (1, 2))])):
        for (m, mp) in pairs:
            q2 = kit.q2_hom(m, mp)
            for olbl in q2.cat.objects:
                cid = q2.components[olbl]
                term = q2.terminals[cid][0]
                cells = [c for c in q2.cat.mor_labels
                         if c[0] == olbl and c[1] == term]
                assert len(cells) == 1


# ---------------------------------------------------------------------------
# Psi

def test_psi_objects():
    psi = KIT1.psi_functor()
    Q, q1 = psi.source, psi.target
    assert q1.objects[psi.obj_idx[Q.obj_index[0]]] == ()
    assert q1.objects[psi.obj_idx[Q.obj_index[1]]] == (1,)


def test_psi_fully_faithful():
    assert is_fully_faithful(KIT1.psi_functor())
    assert is_fully_faithful(KIT2.psi_functor())


def test_psi_preserves_identities():
    psi = KIT2.psi_functor()
    Q = KIT2.span_cat
    q1, _ = KIT2.q1_category()
    for x in range(Q.n_objects):
        assert psi.mor_idx[Q.identity_of[x]] == \
            q1.identity_of[psi.obj_idx[x]]


@pytest.mark.parametrize("kit", [KIT1, KIT2], ids=["2-1-2", "2-2-3"])
def test_psi_matches_its_label_map(kit):
    # Psi on labels: x to psi_obj(x) and each span to its Q1 class
    psi = kit.psi_functor()
    Q, q1 = kit.span_cat, psi.target
    assert psi.obj_idx.tolist() == [q1.obj_index[kit.psi_obj(x)]
                                    for x in Q.objects]
    assert psi.mor_idx.tolist() == [q1.mor_index[kit.psi_q1_label(lbl)]
                                    for lbl in Q.mor_labels]


def greatest_complement_projection(ring, small):
    """Alternative complement rule, an oracle for the choice psi_triple
    makes: standard rows are taken from the highest coordinate downward.
    Returns the projection of F^n onto complement coordinates."""
    n = small.n
    basis = [list(r) for r in small.free_basis()]
    nsmall = len(basis)
    units = [[1 if k == j else 0 for k in range(n)]
             for j in range(n - 1, -1, -1)]
    kept = residue_independent(ring, basis + units)
    rows = [units[i - nsmall] for i in kept[nsmall:]]
    inv = Mat(ring, basis + rows).inverse()
    return lambda v: tuple(_row_times_mat(ring, v, inv)[nsmall:])


def psi_triple_greatest_complement(kit, span_label):
    """kit.psi_triple with the graded isomorphism of the last step,
    F^y / im i -> F^b, taken through the alternative complement."""
    a, b, phi = kit.psi_triple(span_label)
    if not b:
        return a, b, phi
    ring = kit.E.ring
    flag = phi.flags[0]
    y = flag.n
    # the step before F^y is im i (the zero space when z = 0)
    small = Submodule(ring, y, flag.chain[-2]) if len(flag.chain) > 1 \
        else Submodule.zero(ring, y)
    last = flag_quotients(ring, y, flag.chain)[-1]
    project = greatest_complement_projection(ring, small)
    cols = [project(c) for c in last.section_rows]
    iso = Mat(ring, [list(r) for r in zip(*cols)])
    alt = FlagChain(y, flag.chain, flag.isos[:-1] + (iso.data,))
    return a, b, MonMor(phi.src, phi.tgt, phi.theta, (alt,))


def test_psi_independent_of_complement_rule():
    kit = QKit(2, 2, cap=3)
    for lbl in kit.span_cat.mor_labels:
        (x, y, z, _, _) = lbl
        if y == 0:
            continue
        a1, b1, phi1 = kit.psi_triple(lbl)
        a2, b2, phi2 = psi_triple_greatest_complement(kit, lbl)
        assert (a1, b1) == (a2, b2)
        q2 = kit.q2_hom(kit.psi_obj(x), (y,))
        k1 = (a1, b1, _monmor_label(phi1))
        k2 = (a2, b2, _monmor_label(phi2))
        assert q2.components[k1] == q2.components[k2]


# ---------------------------------------------------------------------------
# comma categories

def test_comma_empty_target():
    rep = comma_contractibility(KIT1, (), 3)
    assert rep.category.n_objects == 1
    assert rep.contractibility.ok


def test_comma_contractible_n1():
    for target in [(1,), (1, 1)]:
        rep = comma_contractibility(KIT1, target, 3)
        assert rep.contractibility.ok
        assert rep.cover_ok and rep.terminals_ok and rep.intersections_ok


def test_comma_contractible_n2():
    for target in [(2,), (1, 1), (1, 2)]:
        rep = comma_contractibility(KIT2, target, 3)
        assert rep.contractibility.verdict in ("contractible",)
        assert rep.cover_ok and rep.terminals_ok and rep.intersections_ok


def test_comma_adjacent_intersection_is_single_object():
    rep = comma_contractibility(KIT1, (1, 1), 3)
    assert rep.intersections_ok


# ---------------------------------------------------------------------------
# cross-module consistency: graded lists vs flag categories

def test_graded_list_homs_reproduce_flag_category_homs():
    # sending a flag to its associated graded embeds the flag category of
    # F_q^2 fully faithfully into the graded-list category: hom sizes of
    # (gr F) -> (M) match Hom(F, [empty]) and so on
    from rbscat.rbs import build_rbs
    for spec, q in (("F2", 2), ("F3", 3)):
        rbs = build_rbs(spec, 2)
        calc = MonCalculus(make_ring(spec))
        e = rbs.empty_flag_index
        line = next(i for i in range(len(rbs.flags)) if i != e)
        assert len(calc.hom((1, 1), (2,))) == rbs.hom_size(line, e)
        assert len(calc.hom((2,), (2,))) == rbs.hom_size(e, e)
        assert len(calc.hom((1, 1), (1, 1))) == rbs.hom_size(line, line)


def test_failed_exact_category_axiom_raises_category_error():
    from rbscat.fincat import CategoryError
    E = FiltCategory(2, 1)
    E.validate_axioms()
    E.is_mono = lambda a, b, m: False  # no admissible monos
    with pytest.raises(CategoryError, match="axiom 2"):
        E.validate_axioms()


def _zero_leg(real, leg):
    """real (pullback or pushout) with the given leg of its result, 1 or
    2, replaced by zero maps of the same shape."""
    def corrupted(*args):
        out = list(real(*args))
        out[leg] = np.zeros_like(out[leg])
        return tuple(out)
    return corrupted


@pytest.mark.parametrize("name, leg, message", [
    ("pullback", 2, "axiom 5 fails"),          # to_cp not epi
    ("pullback", 1, "swapped axiom 5 fails"),  # to_b not mono
    ("pushout", 2, "axiom 6 fails"),           # from_c not mono
    ("pushout", 1, "swapped axiom 6 fails"),   # from_b not epi
])
def test_failed_axiom_5_or_6_raises_category_error(monkeypatch, name, leg,
                                                   message):
    import rbscat.qkt as qkt
    from rbscat.fincat import CategoryError
    E = FiltCategory(2, 1)
    monkeypatch.setattr(qkt, name, _zero_leg(getattr(qkt, name), leg))
    with pytest.raises(CategoryError, match="^%s$" % message):
        E.validate_axioms()


def test_q1_class_of_each_representative_is_its_morphism():
    for kit in (KIT1, KIT2):
        q1, rep_of = kit.q1_category()
        for lbl in q1.mor_labels:
            assert kit.q1_class(lbl[0], *rep_of[lbl]) == lbl
        for m in q1.objects:
            ident = q1.mor_labels[q1.identity_of[q1.obj_index[m]]]
            assert kit.q1_class(m, (), (), kit.calc.identity(m)) == ident


def test_failed_terminal_decomposition_fails_the_suite_under_optimize():
    # every component of every hom category names the terminals of the
    # next one: the decompositions fail, and under python -O this must
    # still be a failing verdict, not a pass or a traceback
    import subprocess
    import sys
    code = ("import rbscat.qkt as qkt\n"
            "from rbscat.checks import check_q_suite\n"
            "real = qkt.q2_hom\n"
            "def corrupted(*args, **kwargs):\n"
            "    q2 = real(*args, **kwargs)\n"
            "    cids = sorted(q2.terminals)\n"
            "    q2.terminals.update({c: q2.terminals[cids[(i + 1) % len(cids)]]\n"
            "                         for i, c in enumerate(cids)})\n"
            "    return q2\n"
            "qkt.q2_hom = corrupted\n"
            "rep = check_q_suite(q=2, N=1, cap=2)\n"
            "assert rep.measured['terminals'] is True\n"
            "if rep.verdict == 'fail' and \\\n"
            "        rep.measured['terminal_decompositions'] is False:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(5)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# composition store: each composite is merged once per calculus

def test_each_composite_is_merged_once_during_the_q_suite(monkeypatch):
    # the suite composes codes only: one compose_code lookup per composable
    # pair of each MonTable, per 2-cell (its source) and per Q1 pair; the
    # MonMor-level compose is left to callers outside the library
    from rbscat.checks import check_q_suite
    real = {name: getattr(MonCalculus, name)
            for name in ("compose", "compose_code", "_merge")}
    calls = {name: [] for name in real}

    def counting(name):
        def count(self, second, first):
            calls[name].append((second, first))
            return real[name](self, second, first)
        return count

    for name in real:
        monkeypatch.setattr(MonCalculus, name, counting(name))
    assert check_q_suite(2, 2, 3).ok
    merged = calls["_merge"]
    assert len(merged) == len(set(merged)) == 175
    assert len(calls["compose_code"]) == 1957
    assert calls["compose"] == []


def test_q_suite_and_inductive_run_on_code_tables(monkeypatch):
    # linear maps are rows of image codes, and complements are chosen on
    # code maps (rings.complement_codes), with no elimination: the q-suite
    # eliminates only to list the subspaces of F_2 and F_2^2 (1 + 4
    # canonical forms) when it builds their tables, and inductive on F_3^2
    # only for canonical forms: the 4 + 1 subspaces of F_3^2 when its flags
    # are listed, F_3^1 when its graded rank is built, and the 4 lines as
    # image flags in the graded piece of the empty flag; none for the
    # complements of the 9 flag steps
    import rbscat.checks as checks
    import rbscat.qkt as qkt
    import rbscat.rings as rings
    from rbscat.checks import check_inductive, check_q_suite
    calls = {"_gauss_jordan": 0}
    real = rings._gauss_jordan

    def count(*args, **kwargs):
        calls["_gauss_jordan"] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(rings, "_gauss_jordan", count)
    monkeypatch.setattr(qkt, "_SPACES", {})
    assert check_q_suite(2, 2, 3).ok
    assert calls == {"_gauss_jordan": 5}
    monkeypatch.setattr(checks, "_RBS_CACHE", {})
    calls["_gauss_jordan"] = 0
    assert check_inductive("F3", 2).ok
    assert calls == {"_gauss_jordan": 10}


def _composable_pairs(mor_objs):
    mors = list(mor_objs.values())
    return [(g, f) for f in mors for g in mors if g.src == f.tgt]


@pytest.mark.parametrize("ring, cap, max_entry", [(F2, 3, 2), (F3, 2, 1)])
def test_stored_composites_equal_fresh_merges(ring, cap, max_entry):
    calc = MonCalculus(ring)
    cat, mor_objs = monoidal_category(calc, cap, max_entry)
    oracle = MonCalculus(ring)  # its store stays empty: every merge is fresh
    pairs = _composable_pairs(mor_objs)
    assert len(pairs) == len(cat.flat)
    for g, f in pairs:
        fresh = oracle._merge(g, f)
        assert calc.compose(g, f) == fresh == merge_oracle(ring, g, f)
        gi = cat.mor_index[_monmor_label(g)]
        fi = cat.mor_index[_monmor_label(f)]
        assert cat.mor_labels[cat.compose(gi, fi)] == _monmor_label(fresh)
    assert not oracle._comp_cache


def test_repeated_compose_returns_equal_morphisms():
    calc = MonCalculus(F2)
    _, mor_objs = monoidal_category(calc, 3, 2)
    for g, f in _composable_pairs(mor_objs):
        first = calc.compose(g, f)
        again = calc.compose(g, f)
        assert again == first and hash(again) == hash(first)
        assert _monmor_label(again) == _monmor_label(first)


def test_corrupted_merge_raises_under_optimize():
    # a graded isomorphism replaced by zero makes the merged graded map
    # singular; under python -O the merge must still raise, and store nothing
    import subprocess
    import sys
    code = ("import dataclasses\n"
            "from rbscat.fincat import CategoryError\n"
            "from rbscat.qkt import MonCalculus, MonMor\n"
            "from rbscat.rings import make_ring\n"
            "R = make_ring('F2')\n"
            "calc = MonCalculus(R)\n"
            "f = calc.hom((1, 1), (2,))[0]\n"
            "flag = dataclasses.replace(\n"
            "    f.flags[0], isos=(((0,),),) + f.flags[0].isos[1:])\n"
            "bad = dataclasses.replace(f, flags=(flag,))\n"
            "attempts = {\n"
            "    'singular merge': lambda: calc.compose(calc.identity((2,)), bad),\n"
            "    'endpoints': lambda: calc.compose(f, calc.identity((2,))),\n"
            "    'shape': lambda: MonMor((1,), (), (0,), ()),\n"
            "}\n"
            "for what, attempt in attempts.items():\n"
            "    try:\n"
            "        attempt()\n"
            "    except CategoryError:\n"
            "        continue\n"
            "    raise SystemExit('no CategoryError: ' + what)\n"
            "if calc._comp_cache:\n"
            "    raise SystemExit('a failed merge was stored')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# guards reach the qkt enumeration caches

@pytest.mark.parametrize("limit", [{"max_gl_candidates": 15},
                                   {"max_vector_enum": 3}])
def test_q_suite_obeys_guards_after_a_default_run(limit):
    from rbscat.checks import check_q_suite
    from rbscat.guards import DEFAULT, GuardConfig, GuardExceeded
    from rbscat.qkt import _SPACES, _space
    from dataclasses import astuple
    # warm the tables of F_2^2, GL(2) included, under the default guards
    assert len(_space(F2, 2, DEFAULT).gl_rows) == 6
    enumerate_flag_chains(F2, 2, (1, 1))
    assert (F2.key(), 2, astuple(DEFAULT)) in _SPACES
    tight = GuardConfig(**limit)
    name = next(iter(limit))
    with pytest.raises(GuardExceeded, match=name):
        check_q_suite(2, 2, 3, 3, tight)
    # the warm tables are not read under the tighter guards
    with pytest.raises(GuardExceeded, match=name):
        _space(F2, 2, tight).gl_rows
    with pytest.raises(GuardExceeded, match=name):
        MonCalculus(F2, tight).hom((2,), (2,))


# ---------------------------------------------------------------------------
# the tables on vector codes are the tables of the former Mat code

def table_digest(C):
    """Objects, labels, src/tgt, identities and composition of C."""
    h = hashlib.sha256(repr((C.objects, C.mor_labels)).encode())
    for a in (C.src, C.tgt, C.identity_of) + tuple(C.pairs()):
        h.update(np.asarray(a, np.int64).tobytes())
    return h.hexdigest()[:16]


# (span, every Hom_2 in object order, Q1, graded lists), taken from the
# Mat implementation that the code tables replaced
FORMER_DIGESTS = {
    (2, 1, 2): ("b917aa37f0237712", "ddc3a089fdac4c16", "dc997fb13ef133d3",
                "b73ed3cfe3711898"),
    (2, 2, 3): ("375f5972b1d6d48a", "86c551c79a9ad431", "7888dec8eb4675f6",
                "f51286da214258c3"),
    (3, 1, 2): ("2159dfba1ce911a8", "e4f33fc887ab7b71", "4b0578a65b053d9e",
                "db3f6f49563a7117"),
    (3, 2, 3): ("2b1f062cfbde28a1", "d47ff2f886929f43", "96425a20d2937ede",
                "3e3ef451f7e8b96e"),
}


@pytest.mark.parametrize("q, N, cap", sorted(FORMER_DIGESTS))
def test_tables_are_digest_identical_to_the_mat_implementation(q, N, cap):
    kit = QKit(q, N, cap)
    objs = kit.calc.objects_up_to(cap, N)
    q2 = hashlib.sha256("".join(table_digest(kit.q2_hom(m, mp).cat)
                                for m in objs for mp in objs).encode())
    assert (table_digest(kit.span_cat), q2.hexdigest()[:16],
            table_digest(kit.q1_category()[0]),
            table_digest(monoidal_category(kit.calc, cap, N)[0])) == \
        FORMER_DIGESTS[q, N, cap]


def test_chunked_axioms_and_span_category_agree(monkeypatch):
    # with chunks of a few entries every axiom is still checked and the
    # span category is the same table
    import rbscat.qkt as qkt
    whole = table_digest(quillen_q(build_filt_category(3, 2))[0])
    monkeypatch.setattr(qkt, "_CHUNK_ENTRIES", 8)
    assert table_digest(quillen_q(build_filt_category(3, 2))[0]) == whole
    E = FiltCategory(2, 1)
    monkeypatch.setattr(qkt, "pullback", _zero_leg(qkt.pullback, 2))
    with pytest.raises(qkt.CategoryError, match="^axiom 5 fails$"):
        E.validate_axioms()


# the pairs small <= big of splittable submodules of each module, 594 in all
COMPLEMENT_PAIRS = {("F2", 3): 66, ("F3", 2): 15, ("F4", 2): 18,
                    ("F5", 2): 21, ("F9", 2): 33, ("Z4", 2): 21,
                    ("Z4", 3): 339, ("Z8", 2): 39, ("Z9", 2): 39,
                    ("Z27", 1): 3}


@pytest.mark.parametrize("spec, n", list(COMPLEMENT_PAIRS))
def test_complement_maps_agree_with_quotient_data(spec, n):
    # the section and projection of rings.complement_codes are the
    # QuotientData oracle's, on every member of big; over a field so are
    # the tabulated quotient maps of qkt
    from rbscat.guards import DEFAULT
    from rbscat.qkt import _space
    ring = make_ring(spec)
    subs = enumerate_splittable_submodules(ring, n)
    space = _space(ring, n, DEFAULT) if ring.is_field else None
    q = ring.size

    def code(v):
        return sum(x * q ** (len(v) - 1 - k) for k, x in enumerate(v))

    vectors = list(itertools.product(range(q), repeat=n))
    pairs = 0
    for s in subs:
        for b in subs:
            if not s <= b:
                continue
            pairs += 1
            qd = QuotientData(s, b)
            project, section = complement_codes(ring, n, s.free_rows(),
                                                b.free_rows())
            assert section.tolist() == [code(qd.section(x)) for x in
                                        itertools.product(
                                            range(q), repeat=qd.quotient_rank)]
            assert [project[code(v)] for v in vectors] == [
                code(qd.project(v)) if b.contains(v) else -1 for v in vectors]
            if space is not None:
                assert space.quotient(space.index[s.mat], space.index[b.mat]) \
                    == (tuple(None if c < 0 else c for c in project.tolist()),
                        tuple(section.tolist()))
    assert pairs == COMPLEMENT_PAIRS[spec, n]
