"""Categories of splittable flags over a finite ring.

For a finite commutative local ring or field R and M = R^n, the flag
category has objects the splittable flags of submodules of M and
Hom(F, F') = {g in GL(M) : gF <= F'} / U_F, where U_F is the subgroup of
the flag stabiliser P_F acting as the identity on every graded piece and
<= is the refinement order (the empty flag is the maximum).  Composition
is induced by group multiplication, which construction checks exactly to
be independent of the coset representatives; morphisms are stored as
canonical minimal coset representatives so equality and composition are
table lookups.

GL data is held as arrays.  GLData.act is the action of GL on the vector
codes of R^n, the table from which rings.gl_tables picked the invertible
matrices; GLData.mult, the int32 table of product indices, and
RBSCategory.flag_act, the |GL| x |flags| table of the action on flags,
are read from it by gathers, and so is U_F: g x - x in M_{i-1} for the
canonical rows x of each M_i.  Construction enumerates the flags and GL
and tabulates the flag action; the multiplication table, the parabolic
and unipotent subgroups and the category are built the first time
something reads them, so a check that needs only the action on the flag
poset never allocates the |GL|^2 table.

Also here: the flag poset with its GL action, the action category
GL\\\\P with the comparison functor to the flag category, the subgroup
E(M) generated by all U_F with the determinant cross-check, Tits
buildings with their top homology ranks, and the blockwise decomposition
of the subcategory under a fixed flag.  A Tits building is built from
its complete flags, the chains through the dimensions 1..n-1 that
rings.chains_through lists, and only its top boundary is eliminated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fincat import (
    CategoryError,
    FinFunctor,
    Group,
    Poset,
    _build,
    _join,
    _lookup,
    action_category,
    full_subcategory,
    is_fully_faithful,
    is_isomorphism_of_categories,
    label_indices,
    product_tuple,
)
from .guards import DEFAULT
from .homology import chain_complex_from_facets, sparse_invariant_factors
from .rings import (
    Flag,
    Submodule,
    _CHUNK_ENTRIES,
    _code_weights,
    _vector_digits,
    chains_through,
    complement_codes,
    determinants,
    enumerate_flags,
    enumerate_submodules,
    gl_tables,
    inclusion_table,
    make_ring,
    membership,
)


def _row_keys(rows):
    """Each row of an int64 array as one opaque key: equal rows, equal
    keys (sortable, for _lookup)."""
    rows = np.ascontiguousarray(rows, np.int64)
    return rows.view(np.dtype((np.void, 8 * rows.shape[-1]))).reshape(
        rows.shape[:-1])


class GLData:
    """GL(R^n) as arrays, in the code order of rings.gl_tables.

    entries[g] is the matrix g and act[g, v] the code of g v for every
    vector code v (int32), the table from which gl_tables picked the
    invertible candidates (a matrix is invertible exactly when its action
    permutes the vector codes).  The flag action, the unipotent subgroups
    and the product table read act.  mult[i, j] is the index of g_i g_j,
    one C-contiguous int32 table built the first time it is read, a chunk
    of rows at a time, after |GL|^2 is checked against
    max_composable_pairs.  codes[g], the code of g, increases with g.
    """

    def __init__(self, ring, n, guards=DEFAULT):
        self.ring = ring
        self.n = n
        self.guards = guards
        self.entries, self.act = gl_tables(ring, n, guards)
        guards.check(len(self.entries), "max_group_order", "GL table")
        self.codes = self.entries.reshape(len(self.entries), n * n) @ \
            _code_weights(ring, n * n)
        self.one = int(self.index_of(np.eye(n, dtype=np.int64)[None])[0])

    def index_of(self, entries):
        """The index in GL of each n x n matrix of the stack entries, by
        its code; CategoryError when one is not invertible."""
        n2 = self.n * self.n
        codes = np.reshape(entries, (len(entries), n2)) @ \
            _code_weights(self.ring, n2)
        at = np.minimum(np.searchsorted(self.codes, codes), len(self) - 1)
        if (self.codes[at] != codes).any():
            raise CategoryError("a matrix is not in GL(%d, %r)"
                                % (self.n, self.ring))
        return at

    @cached_property
    def mult(self):
        """mult[i, j], the index of g_i g_j, from act alone: column k of
        g h is g (h e_k), the vector code act[g, act[h, e_k]], and g h is
        found by its column codes in a table over all candidates."""
        size, n, act = len(self), self.n, self.act
        self.guards.check(size * size, "max_composable_pairs",
                          "GL product table")
        vectors = act.shape[1]
        # columns[h, k], the code of h e_k; e_k has the code q^(n-1-k)
        columns = act[:, _code_weights(self.ring, n)].astype(np.int64)
        position = np.full(vectors ** n, -1, np.int32)
        position[columns @ vectors ** np.arange(n - 1, -1, -1)] = np.arange(size)
        table = np.empty((size, size), np.int32)
        step = max(1, _CHUNK_ENTRIES // size)
        for lo in range(0, size, step):
            rows = act[lo:lo + step].astype(np.int64)
            key = np.zeros((len(rows), size), np.int64)
            for k in range(n):
                key = key * vectors + rows[:, columns[:, k]]
            table[lo:lo + step] = position[key]
        if (table < 0).any():
            raise RuntimeError("GL is not closed under multiplication")
        return table

    @cached_property
    def inv(self):
        """inv[i] is the index of the inverse of g_i."""
        return np.argmax(self.mult == self.one, axis=1)

    def __len__(self):
        return len(self.entries)


@dataclass
class SubgroupData:
    """P_F, U_F per flag, and the subgroup generated by all U_F."""

    parabolic: dict       # flag index -> sorted tuple of g indices
    unipotent: dict       # flag index -> sorted tuple of g indices
    e_group: tuple        # sorted g indices of <U_F : F>
    det_one: tuple        # sorted g indices with det = 1 (cross-check)


class RBSCategory:
    """The flag category together with its construction data.

    Construction enumerates the flags and GL and tabulates the action;
    the subgroups, the coset representatives and the category are cached
    properties, built the first time they are read.
    """

    def __init__(self, ring, n, guards=DEFAULT):
        if not isinstance(n, int) or n < 0:
            raise ValueError("rank n must be a non-negative integer, got %r"
                             % (n,))
        self.ring = ring
        self.n = n
        self.guards = guards
        self.flags = enumerate_flags(ring, n, guards)
        self.flag_index = {f: i for i, f in enumerate(self.flags)}
        members = [f.member_set() for f in self.flags]
        self._refines = np.array([[mj <= mi for mj in members] for mi in members],
                                 bool).reshape(len(members), len(members))
        self.gl = GLData(ring, n, guards)
        self.flag_act = self._flag_action()

    # -- group action on flags -------------------------------------------

    def _flag_action(self):
        """The |GL| x |flags| table whose entry [g, f] is the index of g F.

        Each flag member is mapped through gl.act as its set of element
        codes, and the image member is looked up by its element set; g
        preserves rank and inclusion, so the image flag is looked up by
        its tuple of members in order.
        """
        gl = self.gl
        subs = [m for m in self._member_rows if m.rank]
        # member_act[g, s]: the index of g S; the last column stands for
        # the missing members of a short flag
        member_act = np.full((len(gl), len(subs) + 1), -1, np.int64)
        by_size = {}
        for s, m in enumerate(subs):
            codes = np.flatnonzero(self._member_rows[m])
            by_size.setdefault(len(codes), []).append((s, codes))
        for group in by_size.values():
            ids = np.array([s for s, _ in group], np.int64)
            sets = np.array([codes for _, codes in group], np.int64)
            images = np.sort(gl.act[:, sets], axis=2)
            found = _lookup(_row_keys(sets), _row_keys(images).reshape(-1))
            member_act[:, ids] = np.where(found < 0, -1, ids[found]).reshape(
                len(gl), len(ids))
        sub_index = {m: s for s, m in enumerate(subs)}
        # the members of each flag in order, padded with the last column
        members = np.full((len(self.flags), max(1, self.n - 1)), len(subs),
                          np.int64)
        for fi, f in enumerate(self.flags):
            members[fi, :len(f.members)] = [sub_index[m] for m in f.members]
        act = _lookup(_row_keys(np.where(members < len(subs), members, -1)),
                      _row_keys(member_act[:, members]).reshape(-1))
        if (act < 0).any():
            raise RuntimeError("GL does not permute the flags")
        return act.reshape(len(gl), len(self.flags))

    @cached_property
    def _member_rows(self):
        """The membership row over the vector codes of 0 and of every flag
        member, by submodule."""
        zero = Submodule.zero(self.ring, self.n)
        members = {m for f in self.flags for m in f.members}
        return {m: membership(self.ring, self.n, m.mat)
                for m in [zero] + sorted(members, key=Submodule.sort_key)}

    def refines(self, fi, fj):
        """Refinement order: fi <= fj iff members(fj) subset of members(fi)."""
        return bool(self._refines[fi, fj])

    # -- parabolic and unipotent subgroups --------------------------------

    @cached_property
    def _quotients(self):
        """The graded pieces of each flag, by flag index: for each step
        M_{i-1} < M_i, its rank d and the code maps (project, section) of
        rings.complement_codes."""
        out = []
        for f in self.flags:
            chain = f.full_chain()
            out.append([(big.free_rank - small.free_rank,) + complement_codes(
                self.ring, self.n, small.free_rows(), big.free_rows())
                for small, big in zip(chain, chain[1:])])
        return out

    @cached_property
    def parabolic(self):
        """Flag index -> the sorted indices g with g F = F (P_F)."""
        fixed = self.flag_act == np.arange(len(self.flags))
        return {fi: tuple(np.flatnonzero(fixed[:, fi]).tolist())
                for fi in range(len(self.flags))}

    @cached_property
    def unipotent(self):
        """Flag index -> the sorted indices g in P_F with g x - x in
        M_{i-1} for every canonical row x of every M_i (U_F).

        The rows generate M_i and x -> g x - x is linear, so these are the
        g in P_F that act as the identity on every graded piece.  Each
        flag step is one gather from gl.act, a difference on the ring
        tables and one read of the membership row of M_{i-1}."""
        ring, n, act = self.ring, self.n, self.gl.act
        add, neg = ring.add_array, ring.neg_array
        weights = _code_weights(ring, n)
        out = {}
        for fi, pf in self.parabolic.items():
            g = np.array(pf, np.int64)
            chain = self.flags[fi].full_chain()
            for lower, upper in zip(chain, chain[1:]):
                x = np.array(upper.mat, np.int64).reshape(len(upper.mat), n)
                gx = _vector_digits(ring, n, act[np.ix_(g, x @ weights)])
                diff = add[gx, neg[x]] @ weights
                g = g[self._member_rows[lower][diff].all(axis=1)]
            out[fi] = tuple(g.tolist())
        return out

    # -- morphisms ---------------------------------------------------------

    def coset_min(self, fi, gi):
        """Canonical representative index of the coset g U_{F_i}."""
        return int(self._coset_rep[fi][gi])

    @cached_property
    def _coset_rep(self):
        """_coset_rep[fi, gi]: the least index in the coset g U_{F_i}."""
        nf, size, mult = len(self.flags), len(self.gl), self.gl.mult
        return np.array(
            [mult[:, list(self.unipotent[fi])].min(axis=1) for fi in range(nf)],
            np.int64).reshape(nf, size)

    @cached_property
    def cat(self):
        """The flag category; every build checks that coset composition
        does not depend on the representatives.  Its composable pairs,
        the sum over flags of in-degree times out-degree, are checked
        against max_composable_pairs before any is listed."""
        gl, nf, size = self.gl, len(self.flags), len(self.gl)
        coset_rep = self._coset_rep
        # the morphism (fi, fj, rep), a coset g U_{F_i} with g F_i <= F_j,
        # has the key (fi nf + fj) |GL| + rep
        fi, gi, fj = np.nonzero(self._refines[self.flag_act.T])
        # sorted distinct keys; np.unique would import numpy.ma
        keys = np.sort((fi * nf + fj) * size + coset_rep[fi, gi])
        keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
        ends, rep = np.divmod(keys, size)
        src, tgt = np.divmod(ends, nf)
        pairs = np.bincount(tgt, minlength=nf) @ np.bincount(src, minlength=nf)
        self.guards.check(int(pairs), "max_composable_pairs", "flag category")
        # (fj, fk, h) . (fi, fj, g) = (fi, fk, rep[fi, h g])
        first, second = _join(tgt, src)
        s1 = src[first]
        composite = _lookup(keys, (s1 * nf + tgt[second]) * size +
                            coset_rep[s1, gl.mult[rep[second], rep[first]]])
        flags = np.arange(nf)
        identity_of = _lookup(keys, flags * (nf + 1) * size +
                              coset_rep[flags, gl.one])
        labels = list(zip(src.tolist(), tgt.tolist(), rep.tolist()))
        cat = _build(list(range(nf)), labels, src, tgt, identity_of,
                     second, first, composite, self.guards)
        self._check_coset_composition(cat)
        return cat

    def _check_coset_composition(self, cat):
        """Composing the cosets of cat does not depend on the representatives.

        For morphisms (F_i, F_j, g) and (F_j, F_k, h), u in U_{F_i} and
        v in U_{F_j}, (h v)(g u) = h g (g^-1 v g) u lies in h g U_{F_i}
        exactly when g^-1 v g does in U_{F_i}.  So it suffices that
        _coset_rep[F] is constant on every coset g U_F and that
        g^-1 U_{F_j} g <= U_{F_i} for every morphism (F_i, F_j, g); both
        are checked exactly, one flag at a time.
        """
        gl, nf, size = self.gl, len(self.flags), len(self.gl)
        mult, inv = gl.mult, gl.inv
        unipotent = [np.array(self.unipotent[f], np.int64) for f in range(nf)]
        in_u = np.zeros((nf, size), bool)
        for f, u in enumerate(unipotent):
            in_u[f, u] = True
        src, tgt, rep = _label_columns(cat)
        for f, u in enumerate(unipotent):
            least = np.asarray(self._coset_rep[f], np.int64)
            moved = least[mult[:, u]] != least[:, None]
            if moved.any():
                g, k = np.unravel_index(np.argmax(moved), moved.shape)
                raise CategoryError(
                    "coset composition depends on representatives: g = %d "
                    "and g u, u = %d in U_F, have different representatives "
                    "at flag %d" % (g, u[k], f))
            # the morphisms (F_i, F, g) into F
            fi, g = src[tgt == f], rep[tgt == f]
            conj = mult[mult[inv[g][:, None], u[None, :]], g[:, None]]
            outside = ~in_u[fi[:, None], conj]
            if outside.any():
                m, k = np.unravel_index(np.argmax(outside), outside.shape)
                raise CategoryError(
                    "coset composition depends on representatives: g^-1 v g "
                    "is not in U_{F_i} for the morphism %r and v = %d in U_F"
                    % ((int(fi[m]), f, int(g[m])), u[k]))

    def hom_size(self, fi, fj):
        return len(self.cat.hom(fi, fj))

    @property
    def empty_flag_index(self):
        return next(i for i, f in enumerate(self.flags) if not f.members)

    def graded_dims(self, fi):
        """Free ranks of the graded pieces of the flag."""
        return tuple(d for d, _, _ in self._quotients[fi])


def build_rbs(ring_spec, n, guards=DEFAULT):
    ring = make_ring(ring_spec, guards)
    return RBSCategory(ring, n, guards)


# ---------------------------------------------------------------------------
# flag poset, GL action, action category

def flag_poset(rbs):
    """Poset of splittable flags under refinement ([empty] is the maximum)."""
    return Poset(range(len(rbs.flags)), rbs._refines)


def gl_flag_action_category(rbs):
    """The action category GL\\\\P of the GL action on the flag poset."""
    G = Group(range(len(rbs.gl)), rbs.gl.mult, rbs.gl.one)
    return action_category(G, flag_poset(rbs), rbs.flag_act, rbs.guards)


def comparison_functor(rbs, action_cat=None):
    """p: GL\\\\P -> flag category; identity on objects, g -> its coset,
    (g, F, F') -> (F, F', least index in g U_F), found by its key."""
    if action_cat is None:
        action_cat = gl_flag_action_category(rbs)
    cat, nf, size = rbs.cat, len(rbs.flags), len(rbs.gl)
    g, f, fp = _label_columns(action_cat)
    src, tgt, rep = _label_columns(cat)
    mor_idx = _lookup((src * nf + tgt) * size + rep,
                      (f * nf + fp) * size + rbs._coset_rep[f, g])
    return FinFunctor(action_cat, cat,
                      label_indices(cat.obj_index, action_cat.objects),
                      mor_idx, rbs.guards)


def _label_columns(C):
    """The three integer columns of the morphism labels of C."""
    return np.array(C.mor_labels, np.int64).reshape(-1, 3).T


def bgl_category(rbs):
    """One-object category B(GL(M)) and its inclusion at the empty flag."""
    return full_subcategory(rbs.cat, [rbs.empty_flag_index], rbs.guards)


def comparison_iso_over_bgl(rbs, p):
    """The comparison functor restricted over the empty flag e is an
    isomorphism onto B(GL(M)): p, a functor, fixes e and maps End(e) one
    to one onto End(e)."""
    e = rbs.empty_flag_index
    A, B = p.source, p.target
    return bool(p.obj_idx[A.obj_index[e]] == B.obj_index[e]) and \
        sorted(p.mor_idx[A.hom(e, e)].tolist()) == list(B.hom(e, e))


# ---------------------------------------------------------------------------
# E(M) and pi_1 target

def compute_e_group(rbs):
    """E(M) = multiplicative closure of all U_F; with det = 1 cross-check.

    The closure grows by whole rows of the multiplication table: each
    round multiplies the elements reached in the last round by every
    generator."""
    gl = rbs.gl
    gens = np.array(sorted({u for uf in rbs.unipotent.values() for u in uf}),
                    np.int64)
    seen = np.zeros(len(gl), bool)
    seen[gens] = True
    seen[gl.one] = True
    frontier = np.flatnonzero(seen)
    while len(frontier):
        reached = np.zeros(len(gl), bool)
        reached[gl.mult[np.ix_(frontier, gens)]] = True
        frontier = np.flatnonzero(reached & ~seen)
        seen[frontier] = True
    det_one = np.flatnonzero(determinants(gl.ring, gl.entries) == 1)
    return SubgroupData(
        parabolic=dict(rbs.parabolic),
        unipotent=dict(rbs.unipotent),
        e_group=tuple(np.flatnonzero(seen).tolist()),
        det_one=tuple(det_one.tolist()))


def pi1_target(rbs, subgroups=None):
    """GL(M)/E(M) as a finite group with multiplication table."""
    if subgroups is None:
        subgroups = compute_e_group(rbs)
    return _quotient_by_e(rbs.gl, subgroups)[1]


def _quotient_by_e(gl, subgroups):
    """rep[g], the least index in the coset g E(M), for every g, and
    GL(M)/E(M) as a group on those representatives (the g with
    rep[g] = g), in index order."""
    rep = gl.mult[:, list(subgroups.e_group)].min(axis=1)
    reps = np.flatnonzero(rep == np.arange(len(gl)))
    table = np.searchsorted(reps, rep[gl.mult[np.ix_(reps, reps)]])
    return rep, Group(reps.tolist(), table, int(rep[gl.one]))


def pi1_quotient_functor(rbs, subgroups=None):
    """The functor from the flag category to B(GL/E) sending every flag to
    the basepoint and a coset g U_F to the class of g.

    Well-defined because every U_F lies in E; validated as a functor and
    surjective on morphisms (so the induced map on fundamental groups is
    onto the quotient).
    """
    from .fincat import group_category
    if subgroups is None:
        subgroups = compute_e_group(rbs)
    gl = rbs.gl
    rep, quotient = _quotient_by_e(gl, subgroups)
    B = group_category(quotient, rbs.guards)
    src, _, reps = _label_columns(rbs.cat)
    classes = np.empty(len(src), np.int64)
    for f, u in rbs.unipotent.items():
        into = src == f
        # independence of the coset representative: all of gU_F maps to gE
        of_coset = rep[gl.mult[reps[into][:, None],
                               np.array(u, np.int64)[None, :]]]
        if (of_coset != of_coset[:, :1]).any():
            raise RuntimeError("U_F is not contained in E(M)")
        classes[into] = of_coset[:, 0]
    # the morphism ("*", c) of B by its class c
    functor = FinFunctor(
        rbs.cat, B, np.zeros(rbs.cat.n_objects, np.int64),
        _lookup(np.array([c for _, c in B.mor_labels], np.int64), classes),
        rbs.guards)
    surjective = len(set(classes.tolist())) == B.n_morphisms
    return functor, surjective


# ---------------------------------------------------------------------------
# Tits building

@dataclass
class TitsComplex:
    q: int
    n: int
    vertex_count: int
    simplex_counts: list
    complex: object
    steinberg_rank: int
    euler_characteristic: int


def tits_building(q, n, guards=DEFAULT):
    """Order complex of proper nonzero subspaces of F_q^n.

    Its facets are the complete flags, the chains through the dimensions
    1..n-1.  The top reduced homology has rank q^{n(n-1)/2} (a wedge of
    (n-2)-spheres); the rank is computed and asserted, not assumed.  The
    complex stops in degree n-2, so that rank is dim C_{n-2} minus the
    rank of d_{n-2} over Z, and only d_{n-2} is eliminated.
    """
    if n < 2:
        raise ValueError("the building needs n >= 2")
    ring = make_ring("F%d" % q, guards)
    subs = [s for s in enumerate_submodules(ring, n, guards)
            if 0 < s.rank < n]
    facets = chains_through(inclusion_table(ring, n, subs),
                            [s.rank for s in subs], range(1, n))
    cx = chain_complex_from_facets(facets.tolist())
    top = n - 2
    reduced_top = cx.dims[top] - (1 if top == 0 else len(
        sparse_invariant_factors(cx.boundaries[top])))
    expected = q ** (n * (n - 1) // 2)
    if reduced_top != expected:
        raise RuntimeError("Steinberg rank %d != q^(n(n-1)/2) = %d"
                           % (reduced_top, expected))
    chi = sum((-1) ** k * d for k, d in enumerate(cx.dims))
    if chi != 1 + (-1) ** n * expected:
        raise RuntimeError("Euler characteristic %d != 1 + (-1)^n q^(n(n-1)/2)"
                           % chi)
    return TitsComplex(q, n, len(subs), list(cx.dims), cx, reduced_top, chi)


# ---------------------------------------------------------------------------
# inductive decomposition under a flag

@dataclass
class InductiveDecomposition:
    flag_index: int
    le_subcategory: object        # full subcat on objects admitting a map to F
    refinement_subcategory: object
    graded_cats: list             # RBSCategory per graded piece
    functor: object               # refinement subcat -> product of graded cats
    is_isomorphism: bool
    inclusion_is_equivalence: bool


def inductive_decomposition(rbs, fi, guards=DEFAULT, built=None):
    """Blockwise description of the subcategory under the flag F_i.

    The full subcategory on objects admitting a map to F deformation
    retracts onto the full subcategory on refinements of F, and the
    latter is isomorphic to the product of the flag categories of the
    graded pieces of F (morphisms decompose blockwise through P_F).

    built maps a rank d to the flag category of R^d already built; the
    ones this call builds are added to it, so a caller that passes the
    same dict for every flag builds each rank once.  Rank n is rbs.
    """
    cat = rbs.cat
    nf = len(rbs.flags)
    # objects admitting a map to F
    le_objs = [gj for gj in range(nf) if cat.hom(gj, fi)]
    le_sub, le_incl = full_subcategory(cat, le_objs, guards)
    # refinements of F (members contain members(F))
    ref_objs = [gj for gj in range(nf) if rbs.refines(gj, fi)]
    ref_sub, ref_incl = full_subcategory(cat, ref_objs, guards)

    quots = rbs._quotients[fi]
    dims = rbs.graded_dims(fi)
    built = {} if built is None else built
    built.setdefault(rbs.n, rbs)
    for d in dims:
        if d not in built:
            built[d] = RBSCategory(rbs.ring, d, guards)
    graded = [built[d] for d in dims]
    # object map: refinement G -> tuple of graded flags
    pieces = {gj: tuple(_graded_flags(rbs, gj, fi, quots, graded))
              for gj in ref_objs}
    # morphism map: g U_G -> blockwise (g_i U_{G_i}), one piece at a time
    src, tgt, reps = zip(*ref_sub.mor_labels)
    if (rbs.flag_act[list(reps), fi] != fi).any():
        raise CategoryError(
            "transporter between refinements must stabilise the flag")
    blockwise = []
    for i, q in enumerate(quots):
        s, t = ([pieces[x][i] for x in ends] for ends in (src, tgt))
        gi = graded[i].gl.index_of(_graded_blocks(rbs, reps, q))
        blockwise.append(zip(s, t, graded[i]._coset_rep[s, gi].tolist()))
    mor_labels = list(zip(*blockwise))
    prod = product_tuple([g.cat for g in graded], guards)
    functor = FinFunctor(
        ref_sub, prod,
        label_indices(prod.obj_index, [pieces[o] for o in ref_sub.objects]),
        label_indices(prod.mor_index, mor_labels), guards)
    iso = is_isomorphism_of_categories(functor)
    # the inclusion of refinements into the <=[F] subcategory is an
    # equivalence: fully faithful, and some g carries each object to a
    # refinement (an index outside le_incl would be -1, which FinFunctor
    # rejects)
    incl_ok = is_fully_faithful(FinFunctor(
        ref_sub, le_sub, _lookup(le_incl.obj_idx, ref_incl.obj_idx),
        _lookup(le_incl.mor_idx, ref_incl.mor_idx), guards)) \
        and bool(rbs._refines[rbs.flag_act[:, le_objs], fi].any(axis=0).all())
    return InductiveDecomposition(fi, le_sub, ref_sub, graded, functor,
                                  iso, incl_ok)


def _graded_flags(rbs, gj, fi, quots, graded):
    """Image flags of G in the graded pieces of F (G refines F): the
    free-basis rows of each member of G inside a step of F, projected by
    one gather from that step's project map."""
    R, n = rbs.ring, rbs.n
    chain = rbs.flags[fi].full_chain()
    out = []
    for i, (d, project, _) in enumerate(quots):
        members = sorted((Submodule.from_rows(R, d, _vector_digits(
            R, d, project[m.free_rows() @ _code_weights(R, n)]).tolist())
            for m in rbs.flags[gj].members if chain[i] < m < chain[i + 1]),
            key=Submodule.sort_key)
        out.append(graded[i].flag_index[Flag(R, d, tuple(members))])
    return out


def _graded_blocks(rbs, reps, step):
    """The matrix that each g of reps induces on the graded piece step =
    (d, project, section), in its complement coordinates: column j is the
    projection of g applied to section row j, one gather from gl.act for
    all of reps."""
    d, project, section = step
    cols = project[rbs.gl.act[np.ix_(list(reps),
                                     section[_code_weights(rbs.ring, d)])]]
    if (cols < 0).any():
        raise CategoryError("transporter between refinements must "
                            "stabilise the flag")
    return np.swapaxes(_vector_digits(rbs.ring, d, cols), 1, 2)
