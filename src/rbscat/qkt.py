"""Span and monoidal Q-construction machinery over truncated vector
space categories.

The base category E is the skeletal category of F_q-vector spaces of
dimension at most N (objects 0..N, morphisms all matrices, column-vector
convention), with short exact sequences the usual kernel/cokernel pairs.
On top of it:

  * quillen_q(E): the span category (morphisms x <<- z >-> y up to
    isomorphism of the middle object, composed by pullback); each class
    is labelled by its least representative over GL(z), read off one
    reduced row echelon form (span_canonical);
  * the strict monoidal category of graded lists: objects are lists of
    nonzero dimensions, a morphism is an order-preserving surjection
    together with, for each target entry, a literal subspace chain with
    explicit graded isomorphisms onto the source entries; composition
    merges chains through the quotient maps.  Storing literal chains
    makes the usual equivalence classes collapse to strict equality.
    A MonCalculus interns morphisms as integer codes and merges each
    (second, first) pair of codes once, checking that the merged graded
    maps are isomorphisms; a MonTable lists the morphisms between given
    graded lists with their composites as index arrays.
  * the hom 2-categories of the associated Q-construction, their
    terminal decompositions, the collapsed 1-category Q1, and the
    comparison functor from the span category with its comma categories
    (the left fibers of that functor).  The 2-cells into a triple are
    found by looking up their sources, and numbered so that composites
    are index arithmetic.  A Q1 morphism m -> m' is the component of a
    triple (a, b, phi) in Hom_2(m, m'), looked up by QKit.q1_class.

Every constructed category (span, graded lists, Hom_2, Q1, comma) is
passed to fincat._build as index arrays, and validated there.
"""

from __future__ import annotations

import itertools
from dataclasses import astuple, dataclass

import numpy as np

from .fincat import (
    CategoryError,
    FinFunctor,
    _build,
    _dense_rank,
    _join,
    _positions,
    full_subcategory,
    label_indices,
    left_fiber,
)
from .guards import DEFAULT
from .rings import (
    Mat,
    QuotientData,
    Submodule,
    _gauss_jordan,
    chains_through,
    enumerate_gl,
    enumerate_submodules,
    inclusion_table,
    kernel_basis,
    make_ring,
    rref,
)
from .toolkit import is_weakly_contractible


# ---------------------------------------------------------------------------
# the base category with filtrations

class FiltCategory:
    """Skeletal Vect(F_q)_{<= N} with its short exact sequences."""

    def __init__(self, q, N, guards=DEFAULT):
        if N < 0:
            raise ValueError("--N must be at least 0, got %d" % N)
        self.ring = make_ring("F%d" % q, guards)
        self.guards = guards
        self.N = N
        total = sum(self.ring.size ** (r * c)
                    for r in range(N + 1) for c in range(N + 1))
        guards.check(total, "max_filt_morphisms", "base category enumeration")
        self.objects = list(range(N + 1))
        self.morphisms = []  # (src, tgt, Mat)
        for a in self.objects:
            for b in self.objects:
                for entries in itertools.product(range(self.ring.size), repeat=a * b):
                    m = Mat(self.ring, [entries[i * a:(i + 1) * a] for i in range(b)],
                            cols=a)
                    self.morphisms.append((a, b, m))

    def rank(self, m):
        return len(_gauss_jordan(self.ring, [list(r) for r in m.data], m.cols))

    def is_mono(self, src, tgt, m):
        return self.rank(m) == src

    def is_epi(self, src, tgt, m):
        return self.rank(m) == tgt

    def is_ses(self, i_mono, p_epi):
        """(a >-> b, b ->> c) is short exact: composite zero, dims add up."""
        (a, b1, mi) = i_mono
        (b2, c, mp) = p_epi
        if b1 != b2 or a + c != b1:
            return False
        if not (self.is_mono(a, b1, mi) and self.is_epi(b2, c, mp)):
            return False
        comp = mp.mul(mi) if a and c else None
        if a and c and any(any(r) for r in comp.data):
            return False
        return True

    def validate_axioms(self):
        """Category-with-filtrations axioms on the distinguished sequences.

        1-4 are checked exhaustively; 5 and 6 (and their swapped versions)
        on all admissible cospans/spans.
        """
        R = self.ring
        monos = [(a, b, m) for (a, b, m) in self.morphisms if self.is_mono(a, b, m)]
        epis = [(a, b, m) for (a, b, m) in self.morphisms if self.is_epi(a, b, m)]
        # axiom 2: 0 -> a -> a and a -> a -> 0
        for a in self.objects:
            ida = Mat.identity(R, a)
            z_in = Mat.zero(R, a, 0)
            _require(self.is_ses((0, a, z_in), (a, a, ida)), "axiom 2 fails")
            z_out = Mat.zero(R, 0, a)
            _require(self.is_ses((a, a, ida), (a, 0, z_out)), "axiom 2 fails")
        # axiom 3: composites of admissible monos/epis
        for (a, b, m1) in monos:
            for (b2, c, m2) in monos:
                if b2 == b:
                    _require(self.is_mono(a, c, m2.mul(m1)), "axiom 3 fails")
        for (a, b, m1) in epis:
            for (b2, c, m2) in epis:
                if b2 == b:
                    _require(self.is_epi(a, c, m2.mul(m1)), "axiom 3 fails")
        # axiom 4: monos are kernels of their epis and conversely
        for (a, b, mi) in monos:
            coker = cokernel_projection(R, a, b, mi)
            _require(self.is_ses((a, b, mi), (b, b - a, coker)), "axiom 4 fails")
            ker_rows = kernel_basis(R, coker)
            _require(Submodule.from_rows(R, b, [list(r) for r in ker_rows]) ==
                     image_submodule(R, b, mi),
                     "mono is not the kernel of its cokernel")
        # axioms 5/6 on all pairs, each with its swapped form (pullback of
        # mono along epi is mono; pushout of epi along mono is epi) on the
        # same pullback or pushout
        for (b, c, p) in epis:
            for (cp, c2, m) in monos:
                if c2 == c:
                    pb_obj, to_b, to_cp = pullback(R, b, c, p, cp, m)
                    _require(self.is_epi(pb_obj, cp, to_cp), "axiom 5 fails")
                    _require(self.is_mono(pb_obj, b, to_b),
                             "swapped axiom 5 fails")
        for (z, b, i) in monos:
            for (z2, c, p) in epis:
                if z2 == z:
                    po_obj, from_b, from_c = pushout(R, z, b, c, i, p)
                    _require(self.is_mono(c, po_obj, from_c), "axiom 6 fails")
                    _require(self.is_epi(b, po_obj, from_b),
                             "swapped axiom 6 fails")
        return True


def _require(holds, what):
    """A check that holds under python -O too."""
    if not holds:
        raise CategoryError(what)


def image_submodule(ring, ambient, m):
    """Image of a matrix (columns span) as a canonical Submodule."""
    cols = list(zip(*m.data)) if m.data else []
    return Submodule.from_rows(ring, ambient, [list(c) for c in cols])


def cokernel_projection(ring, a, b, mi):
    """Canonical projection F^b ->> F^{b-a} with kernel the image of mi."""
    img = image_submodule(ring, b, mi)
    quot = QuotientData(img, Submodule.full(ring, b))
    cols = []
    for j in range(b):
        e = tuple(1 if i == j else 0 for i in range(b))
        cols.append(quot.project(e))
    return Mat(ring, [list(r) for r in zip(*cols)]) if b - a else \
        Mat.zero(ring, 0, b)


def pullback(ring, b, c, p, cp, m):
    """Pullback of p: b ->> c along m: c' >-> c (column convention).

    Returns (dim, to_b, to_cp) with the two projections; the pullback is
    the canonical kernel presentation of {(u, v): p u = m v}.
    """
    rows = []
    for r_idx in range(c):
        row = list(p.data[r_idx]) + [ring.neg[x] for x in m.data[r_idx]]
        rows.append(row)
    big = Mat(ring, rows, cols=b + cp) if c else Mat.zero(ring, 0, b + cp)
    ker = kernel_basis(ring, big) if (b + cp) else ()
    d = len(ker)
    # columns of to_b / to_cp are the u- and v-parts of the kernel basis
    to_b = Mat(ring, [[ker[j][i] for j in range(d)] for i in range(b)], cols=d)
    to_cp = Mat(ring, [[ker[j][b + i] for j in range(d)] for i in range(cp)],
                cols=d)
    return d, to_b, to_cp


def pushout(ring, z, b, c, i_mono, p_epi):
    """Pushout of i: z >-> b along p: z ->> c; returns (dim, from_b, from_c)."""
    # cokernel of (i, -p): z -> b + c
    rows = [list(i_mono.data[r]) for r in range(b)] + \
           [[ring.neg[x] for x in p_epi.data[r]] for r in range(c)]
    joint = Mat(ring, rows, cols=z) if z else Mat.zero(ring, b + c, 0)
    img = image_submodule(ring, b + c, joint)
    quot = QuotientData(img, Submodule.full(ring, b + c))
    d = quot.quotient_rank
    cols_b = []
    for j in range(b):
        e = tuple(1 if k == j else 0 for k in range(b + c))
        cols_b.append(quot.project(e))
    cols_c = []
    for j in range(c):
        e = tuple(1 if k == b + j else 0 for k in range(b + c))
        cols_c.append(quot.project(e))
    from_b = Mat(ring, [list(r) for r in zip(*cols_b)], cols=b) if d else \
        Mat.zero(ring, 0, b)
    from_c = Mat(ring, [list(r) for r in zip(*cols_c)], cols=c) if d else \
        Mat.zero(ring, 0, c)
    return d, from_b, from_c


def build_filt_category(q, N, guards=DEFAULT):
    E = FiltCategory(q, N, guards)
    E.validate_axioms()
    return E


# ---------------------------------------------------------------------------
# Quillen's span category

_GL_CACHE = {}


def _gl(ring, n, guards):
    # keyed by guard config: a list enumerated under looser guards is not
    # reused under tighter ones
    key = (ring.key(), n, astuple(guards))
    if key not in _GL_CACHE:
        _GL_CACHE[key] = enumerate_gl(ring, n, guards)
    return _GL_CACHE[key]


def span_canonical(E, x, z, y, p, i):
    """Canonical representative of the span class x <<-p- z -i>-> y.

    GL(z) acts by (p, i) -> (p h, i h), column operations on the stacked
    [p; i], which has full column rank z since i is mono.  The least
    (p h, i h) in row-major order has as columns the rows of the reduced
    row echelon form of [p; i]^T, last row first.
    """
    cols = rref(E.ring, list(zip(*(p.data + i.data))))[::-1]
    rows = tuple(zip(*cols)) if cols else ((),) * (x + y)
    return (x, y, z, rows[:x], rows[x:])


def quillen_q(E, guards=DEFAULT):
    """The span category of E as a validated FinCat.

    Objects: 0..N.  A morphism x -> y is the canonical representative of
    an isomorphism class of spans x <<-p- z -i>-> y; composition is by
    pullback followed by canonicalisation.
    """
    R = E.ring
    morphs = []
    span_of = {}
    for x in E.objects:
        for y in E.objects:
            seen = set()
            for z in E.objects:
                if z < x or z > y:
                    continue
                epis = [m for (a, b, m) in E.morphisms
                        if a == z and b == x and E.is_epi(z, x, m)]
                monos = [m for (a, b, m) in E.morphisms
                         if a == z and b == y and E.is_mono(z, y, m)]
                for p in epis:
                    for i in monos:
                        lbl = span_canonical(E, x, z, y, p, i)
                        if lbl not in seen:
                            seen.add(lbl)
                            morphs.append((lbl, x, y))
                            span_of[lbl] = (z, p, i)
    idents = {}
    for x in E.objects:
        ida = Mat.identity(R, x)
        lbl = span_canonical(E, x, x, x, ida, ida)
        idents[x] = lbl

    labels = [lbl for lbl, _, _ in morphs]
    index = {lbl: i for i, lbl in enumerate(labels)}
    src = np.array([x for _, x, _ in morphs], np.int64).reshape(-1)
    tgt = np.array([y for _, _, y in morphs], np.int64).reshape(-1)
    f, g = _join(tgt, src)
    composite = []
    for fi, gi in zip(f.tolist(), g.tolist()):
        (x, y, _, _, _), (_, w, _, _, _) = labels[fi], labels[gi]
        (z1, p1, i1), (z2, p2, i2) = span_of[labels[fi]], span_of[labels[gi]]
        d, to_z1, to_z2 = pullback(R, z1, y, i1, z2, p2)
        composite.append(index.get(span_canonical(
            E, x, d, w, p1.mul(to_z1), i2.mul(to_z2)), -1))
    cat = _build(E.objects, labels, src, tgt,
                 [index[idents[x]] for x in E.objects], g, f, composite,
                 guards)
    return cat, span_of


# ---------------------------------------------------------------------------
# graded lists and their flag morphisms

def _surjections(src_len, tgt_len):
    """Order-preserving surjections {0..src_len-1} -> {0..tgt_len-1}."""
    if tgt_len == 0:
        return [()] if src_len == 0 else []
    if src_len < tgt_len:
        return []
    out = []
    for cuts in itertools.combinations(range(1, src_len), tgt_len - 1):
        theta = []
        j = 0
        for i in range(src_len):
            if j < len(cuts) and i == cuts[j]:
                j += 1
            theta.append(j)
        out.append(tuple(theta))
    return out


@dataclass(frozen=True)
class FlagChain:
    """Literal subspace chain in F^n with graded isomorphisms.

    chain: strictly increasing canonical subspaces ending at the full
    space (the zero subspace is implicit); isos[t] is an invertible
    matrix sending the canonical complement coordinates of step t to the
    graded piece F^{dims[t]}.
    """

    n: int
    chain: tuple      # tuple of row-tuples (canonical), last spans F^n
    isos: tuple       # tuple of Mat

    @property
    def steps(self):
        return len(self.chain)


def flag_quotients(ring, n, chain):
    """QuotientData per step of a literal chain (0 implicit at the start)."""
    prev = Submodule.zero(ring, n)
    out = []
    for rows in chain:
        cur = Submodule(ring, n, rows)
        out.append(QuotientData(prev, cur))
        prev = cur
    return out


_SUBS_CACHE = {}  # nonzero subspaces, their inclusions and dimensions


def enumerate_flag_chains(ring, n, jumps, guards=DEFAULT):
    """All literal chains in F^n with the given dimension jumps, in
    lexicographic order of their subspaces."""
    _require(sum(jumps) == n, "dimension jumps do not add up to n")
    key = (ring.key(), n, astuple(guards))
    if key not in _SUBS_CACHE:
        # a chain rises strictly from 0, so 0 is never a member
        subs = [s for s in enumerate_submodules(ring, n, guards) if s.rank]
        _SUBS_CACHE[key] = (subs, inclusion_table(ring, n, subs),
                            [s.rank for s in subs])
    subs, less, ranks = _SUBS_CACHE[key]
    return [tuple(subs[i].mat for i in chain) for chain in chains_through(
        less, ranks, tuple(itertools.accumulate(jumps))).tolist()]


@dataclass(frozen=True)
class MonMor:
    """Morphism of graded lists: (theta, one FlagChain per target entry)."""

    src: tuple
    tgt: tuple
    theta: tuple
    flags: tuple  # FlagChain per target index

    def __post_init__(self):
        _require(len(self.theta) == len(self.src),
                 "theta does not match the source length")
        if self.theta:
            _require(max(self.theta) == len(self.tgt) - 1,
                     "theta is not onto the target")
        else:
            _require(self.tgt == (), "empty source with a nonempty target")


class MonCalculus:
    """Operations on graded lists over a fixed field.

    Morphisms are interned as integer codes: code(m) numbers each distinct
    MonMor once, and mors[c] and labels[c] are its morphism and label.
    Identities, concatenations and composites are computed once per code
    or pair of codes and then looked up, so a MonMor is hashed only when
    it is interned or passed in from outside.
    """

    def __init__(self, ring, guards=DEFAULT):
        self.ring = ring
        self.guards = guards
        self.mors = []          # code -> MonMor
        self.labels = []        # code -> _monmor_label
        self._codes = {}        # MonMor -> code
        self._quot_cache = {}
        self._hom_cache = {}    # (src, tgt) -> codes
        self._comp_cache = {}   # (second, first) codes -> code of second o first
        self._identity = {}     # graded list -> code of its identity
        self._concat = {}       # (f, g) codes -> code of f (x) g
        self._tables = {}       # graded lists -> MonTable

    def code(self, m):
        """The code of the morphism m, interning it on first sight."""
        c = self._codes.get(m)
        if c is None:
            c = self._codes[m] = len(self.mors)
            self.mors.append(m)
            self.labels.append(_monmor_label(m))
        return c

    def quotients(self, n, chain):
        key = (n, chain)
        if key not in self._quot_cache:
            self._quot_cache[key] = flag_quotients(self.ring, n, chain)
        return self._quot_cache[key]

    # -- identities and concatenation ------------------------------------

    def identity(self, obj):
        return self.mors[self.identity_code(obj)]

    def identity_code(self, obj):
        c = self._identity.get(obj)
        if c is None:
            flags = []
            for n in obj:
                full = Submodule.full(self.ring, n)
                flags.append(FlagChain(n, (full.mat,),
                                       (Mat.identity(self.ring, n),)))
            c = self._identity[obj] = self.code(
                MonMor(obj, obj, tuple(range(len(obj))), tuple(flags)))
        return c

    def concat(self, f, g):
        """f (x) g on morphisms."""
        shift_tgt = len(f.tgt)
        theta = tuple(f.theta) + tuple(t + shift_tgt for t in g.theta)
        return MonMor(f.src + g.src, f.tgt + g.tgt, theta, f.flags + g.flags)

    def concat_code(self, f, g):
        """The code of f (x) g, for codes f and g."""
        c = self._concat.get((f, g))
        if c is None:
            c = self._concat[(f, g)] = self.code(
                self.concat(self.mors[f], self.mors[g]))
        return c

    # -- composition by merging -------------------------------------------

    def compose(self, second, first):
        """second o first (first: src -> mid, second: mid -> tgt)."""
        return self.mors[self.compose_code(self.code(second),
                                           self.code(first))]

    def compose_code(self, second, first):
        """The code of second o first, for codes.  Each distinct pair is
        merged once; later calls return the stored composite."""
        key = (second, first)
        out = self._comp_cache.get(key)
        if out is None:
            out = self._comp_cache[key] = self.code(
                self._merge(self.mors[second], self.mors[first]))
        return out

    def _merge(self, second, first):
        """second o first, by lifting first's chains through the steps of
        second's chains."""
        _require(first.tgt == second.src, "composite of non-composable morphisms")
        ring = self.ring
        theta = tuple(second.theta[j] for j in first.theta)
        new_flags = []
        for l, k_l in enumerate(second.tgt):
            fiber = [j for j in range(len(second.src)) if second.theta[j] == l]
            outer = second.flags[l]
            outer_q = self.quotients(k_l, outer.chain)
            merged_rows = []
            merged_isos = []
            prev_sub = Submodule.zero(ring, k_l)
            for t, j in enumerate(fiber):
                inner = first.flags[j]
                n_j = first.tgt[j]
                qd = outer_q[t]
                pi_t = outer.isos[t]  # complement coords -> F^{n_j}
                pi_inv = pi_t.inverse()
                base_rows = list(prev_sub.mat)
                for u, rows_u in enumerate(inner.chain):
                    lifted = list(base_rows)
                    for x_row in Submodule(ring, n_j, rows_u).free_basis():
                        coords = pi_inv.mul_vec(x_row)
                        lifted.append(qd.section(coords))
                    sub = Submodule.from_rows(ring, k_l, [list(r) for r in lifted])
                    merged_rows.append(sub)
                prev_sub = merged_rows[-1]
            # rebuild quotient data along the merged chain and compute isos
            chain_rows = tuple(s.mat for s in merged_rows)
            merged_q = self.quotients(k_l, chain_rows)
            step = 0
            for t, j in enumerate(fiber):
                inner = first.flags[j]
                n_j = first.tgt[j]
                qd = outer_q[t]
                pi_t = outer.isos[t]
                inner_q = self.quotients(n_j, inner.chain)
                for u in range(len(inner.chain)):
                    mq = merged_q[step]
                    cols = []
                    for c in mq.section_rows:
                        w = pi_t.mul_vec(qd.project(c))   # image in F^{n_j}
                        wq = inner_q[u].project(w)        # class in the step
                        cols.append(inner.isos[u].mul_vec(wq))
                    m_i = first.src[ _fiber_index(first.theta, j, u) ]
                    iso = Mat(ring, [list(r) for r in zip(*cols)]) if cols else \
                        Mat(ring, [])
                    _require(iso.rows == m_i and iso.is_invertible(),
                             "merged graded map must be an isomorphism")
                    merged_isos.append(iso)
                    step += 1
            new_flags.append(FlagChain(k_l, chain_rows, tuple(merged_isos)))
        return MonMor(first.src, second.tgt, theta, tuple(new_flags))

    # -- enumeration -------------------------------------------------------

    def hom(self, src, tgt):
        """All morphisms src -> tgt."""
        return [self.mors[c] for c in self.hom_codes(src, tgt)]

    def hom_codes(self, src, tgt):
        """The codes of all morphisms src -> tgt, in enumeration order."""
        key = (tuple(src), tuple(tgt))
        out = self._hom_cache.get(key)
        if out is None:
            out = self._hom_cache[key] = [
                self.code(m) for m in self._hom_uncached(*key)]
        return out

    def table(self, objs):
        """The morphisms between the graded lists objs, with identities and
        composites, as a MonTable; built once per tuple of lists."""
        objs = tuple(objs)
        if objs not in self._tables:
            self._tables[objs] = MonTable(self, objs)
        return self._tables[objs]

    def _hom_uncached(self, src, tgt):
        out = []
        for theta in _surjections(len(src), len(tgt)):
            fibers = [[i for i in range(len(src)) if theta[i] == j]
                      for j in range(len(tgt))]
            if any(sum(src[i] for i in fib) != tgt[j]
                   for j, fib in enumerate(fibers)):
                continue
            per_target = []
            ok = True
            for j, fib in enumerate(fibers):
                jumps = tuple(src[i] for i in fib)
                chains = enumerate_flag_chains(self.ring, tgt[j], jumps,
                                               self.guards)
                variants = []
                for chain in chains:
                    qs = self.quotients(tgt[j], chain)
                    iso_choices = []
                    for u, i in enumerate(fib):
                        d = qs[u].quotient_rank
                        iso_choices.append(_gl(self.ring, d, self.guards))
                    for isos in itertools.product(*iso_choices):
                        variants.append(FlagChain(tgt[j], chain, tuple(isos)))
                if not variants:
                    ok = False
                    break
                per_target.append(variants)
            if not ok:
                continue
            for combo in itertools.product(*per_target):
                out.append(MonMor(tuple(src), tuple(tgt), theta, tuple(combo)))
        return out

    def objects_up_to(self, cap, max_entry):
        """All graded lists with entries in 1..max_entry and total <= cap."""
        self.guards.check(cap, "max_total_dim", "graded lists")
        out = [()]
        def extend(prefix, total):
            for d in range(1, max_entry + 1):
                if total + d <= cap:
                    nxt = prefix + (d,)
                    out.append(nxt)
                    extend(nxt, total + d)
        extend((), 0)
        return sorted(set(out), key=lambda t: (len(t), t))


def _fiber_index(theta, j, u):
    """Global source index of the u-th element of the fiber over j."""
    fib = [i for i in range(len(theta)) if theta[i] == j]
    return fib[u]


class MonTable:
    """Every morphism between the graded lists objs, as index arrays.

    The local morphisms are numbered by source, then target (both in the
    order of objs), then hom_codes order; codes[i] is the calculus code of
    morphism i, text[i] the repr of its label, and src[i], tgt[i] are
    positions in objs.  identity[o] is the identity of objs[o]; a.b = ab
    lists every composable pair, b in index order and then a, and
    comp[a, b] holds the same composites (-1 where a and b do not
    compose).  into[o] lists the morphisms into objs[o] in index order,
    and ipos[i] is the position of i there.
    """

    def __init__(self, calc, objs):
        codes, src, tgt = [], [], []
        for s, x in enumerate(objs):
            for t, y in enumerate(objs):
                hom = calc.hom_codes(x, y)
                codes += hom
                src += [s] * len(hom)
                tgt += [t] * len(hom)
        local = {c: i for i, c in enumerate(codes)}
        n = len(codes)
        self.codes = codes
        self.text = [repr(calc.labels[c]) for c in codes]
        self.src = np.array(src, np.int64).reshape(-1)
        self.tgt = np.array(tgt, np.int64).reshape(-1)
        self.identity = np.array([local[calc.identity_code(o)] for o in objs],
                                 np.int64).reshape(-1)
        n_into = np.bincount(self.tgt, minlength=len(objs))
        self.ipos, order, start = _positions(self.tgt, n_into)
        self.into = [order[i:i + k].tolist()
                     for i, k in zip(start.tolist(), n_into.tolist())]
        self.b, self.a = _join(self.tgt, self.src)
        self.ab = np.array(
            [local.get(calc.compose_code(codes[g], codes[f]), -1)
             for g, f in zip(self.a.tolist(), self.b.tolist())],
            np.int64).reshape(-1)
        self.comp = np.full((n, n), -1, np.int64)
        self.comp[self.a, self.b] = self.ab


def monoidal_category(calc, cap, max_entry, guards=DEFAULT):
    """The graded-list category at a dimension cap, as a validated FinCat."""
    if cap < 0:
        raise ValueError("--cap must be at least 0, got %d" % cap)
    if max_entry < 0:
        raise ValueError("--N must be at least 0, got %d" % max_entry)
    objs = calc.objects_up_to(cap, max_entry)
    table = calc.table(objs)
    labels = [calc.labels[c] for c in table.codes]
    cat = _build(objs, labels, table.src, table.tgt, table.identity,
                 table.a, table.b, table.ab, guards)
    return cat, {lbl: calc.mors[c] for lbl, c in zip(labels, table.codes)}


def _monmor_label(m):
    return (m.src, m.tgt, m.theta,
            tuple((f.n, f.chain, tuple(i.data for i in f.isos)) for f in m.flags))


# ---------------------------------------------------------------------------
# hom 2-categories of the Q-construction

@dataclass
class Q2Hom:
    """The hom category Hom_2(m, m') with objects (a, b, phi)."""

    source: tuple
    target: tuple
    cat: object            # FinCat: objects (a, b, label(phi)), arrows 2-cells
    objects_data: dict     # label -> (a, b, MonMor)
    components: dict       # label -> component id, its least object index
    terminals: dict        # component id -> list of terminal object labels
    by_code: dict          # (a, b, code of phi) -> component id


def q2_hom(calc, m, mp, cap, max_entry, guards=DEFAULT):
    """Build Hom_2(m, m') as a finite category of triples and 2-cells.

    A 2-cell (alpha, beta): (a, b, phi) -> (a', b', phi') is a pair alpha:
    a -> a', beta: b -> b' with phi == phi' o (alpha (x) id_m (x) beta).
    So each object (a', b', phi') receives one 2-cell per such pair, and
    its source is looked up as (a, b, phi' o (alpha (x) id_m (x) beta)).
    The 2-cells into an object are numbered alpha-major by the positions
    of alpha and beta among the morphisms into a' and b', so the
    composite (alpha2 alpha1, beta2 beta1) is numbered by arithmetic.
    """
    m, mp = tuple(m), tuple(mp)
    total = sum(mp) - sum(m)
    lists = [x for x in calc.objects_up_to(cap, max_entry)
             if sum(x) <= total] if total >= 0 else []
    table = calc.table(lists)
    place = {x: i for i, x in enumerate(lists)}
    objects = [(a, b, phi) for a in lists for b in lists
               if sum(a) + sum(b) == total
               for phi in calc.hom_codes(a + m + b, mp)]
    index = {o: i for i, o in enumerate(objects)}
    id_m = calc.identity_code(m)
    into = table.into
    # per shape (a', b'): the pairs (alpha, beta) into it, alpha-major, and
    # the sources a, b and the code of alpha (x) id_m (x) beta of each
    shapes = {}
    src, tgt, alpha, beta, n_b = [], [], [], [], []
    for y, (ap, bp, phip) in enumerate(objects):
        shape = shapes.get((ap, bp))
        if shape is None:
            shape = shapes[(ap, bp)] = [
                (i, j, lists[table.src[i]], lists[table.src[j]],
                 calc.concat_code(calc.concat_code(table.codes[i], id_m),
                                  table.codes[j]))
                for i in into[place[ap]] for j in into[place[bp]]]
        n_b.append(len(into[place[bp]]))
        for i, j, a, b, mid in shape:
            x = index.get((a, b, calc.compose_code(phip, mid)))
            _require(x is not None, "a 2-cell into an object of Hom_2 "
                     "starts outside it")
            src.append(x)
            alpha.append(i)
            beta.append(j)
        tgt += [y] * len(shape)
    src, tgt, alpha, beta, n_b = (np.array(v, np.int64).reshape(-1)
                                  for v in (src, tgt, alpha, beta, n_b))
    in_start = np.searchsorted(tgt, np.arange(len(objects)))

    def number(z, a, b):
        # the 2-cell (a, b) into object z
        return in_start[z] + table.ipos[a] * n_b[z] + table.ipos[b]

    ends = np.array([(place[a], place[b]) for a, b, _ in objects],
                    np.int64).reshape(-1, 2)
    identity_of = number(np.arange(len(objects)), table.identity[ends[:, 0]],
                         table.identity[ends[:, 1]])
    f, g = _join(tgt, src)
    composite = number(tgt[g], table.comp[alpha[g], alpha[f]],
                       table.comp[beta[g], beta[f]])
    obj_labels = [(a, b, calc.labels[phi]) for a, b, phi in objects]
    mor_labels = [(obj_labels[x], obj_labels[y],
                   calc.labels[table.codes[i]], calc.labels[table.codes[j]])
                  for x, y, i, j in zip(src.tolist(), tgt.tolist(),
                                        alpha.tolist(), beta.tolist())]
    # parallel 2-cells differ in (alpha, beta) only, and the repr of a
    # label ends with repr(alpha) + ", " + repr(beta) + ")"
    n, text = len(table.codes), table.text
    pair, which = np.unique(alpha * n + beta, return_inverse=True)
    rank = _dense_rank([text[p // n] + ", " + text[p % n] + ")"
                        for p in pair.tolist()], str)
    cat = _build(obj_labels, mor_labels, src, tgt, identity_of, g, f,
                 composite, guards, rank[which.reshape(-1)])
    comp = cat.components()
    components = dict(zip(cat.objects, comp.tolist()))
    return Q2Hom(m, mp, cat,
                 {lbl: (a, b, calc.mors[phi])
                  for lbl, (a, b, phi) in zip(obj_labels, objects)},
                 components, _component_terminals(cat, comp),
                 {o: components[lbl] for o, lbl in zip(objects, obj_labels)})


def _component_terminals(cat, comp):
    """The terminal objects of each component, in index order, keyed by
    its least object index (comp, per object): t is terminal when every
    object of its component has exactly one morphism to t."""
    size = np.bincount(comp, minlength=cat.n_objects)
    terminals = {c: [] for c in comp.tolist()}
    hit = cat.single_arrow_counts(1) == size[comp]
    for t, c in zip(np.flatnonzero(hit).tolist(), comp[hit].tolist()):
        terminals[c].append(cat.objects[t])
    return terminals


def terminal_decomposition(calc, q2, obj_label):
    """The canonical terminal form of a triple and its unique 2-cell.

    Splits the target indices into J1 (hit only from the left padding),
    J3 (hit only from the right padding) and the middle J2, and returns
    the terminal object (tgt_{J1} (x) a0, b0 (x) tgt_{J3}, id (x) f (x) id)
    of the component together with the unique 2-cell to it.
    """
    a, b, phi = q2.objects_data[obj_label]
    la, lm = len(a), len(q2.source)
    theta = phi.theta
    tgt = phi.tgt
    src_idx_a = set(range(la))
    src_idx_m = set(range(la, la + lm))
    src_idx_b = set(range(la + lm, len(phi.src)))
    hit_a = {theta[i] for i in src_idx_a}
    hit_m = {theta[i] for i in src_idx_m}
    hit_b = {theta[i] for i in src_idx_b}
    J1 = sorted(j for j in hit_a if j not in hit_m and j not in hit_b)
    J3 = sorted(j for j in hit_b if j not in hit_m and j not in hit_a)
    J2 = [j for j in range(len(tgt)) if j not in set(J1) and j not in set(J3)]
    # the terminal object of the component containing obj_label
    cid = q2.components[obj_label]
    terms = q2.terminals[cid]
    _require(terms, "component has no terminal object")
    # locate the terminal of the expected padded shape
    expected_a = tuple(tgt[j] for j in J1)
    expected_b = tuple(tgt[j] for j in J3)
    matching = [t for t in terms
                if t[0][:len(J1)] == expected_a
                and (len(J3) == 0 or t[1][len(t[1]) - len(J3):] == expected_b)]
    _require(matching, "no terminal object of the decomposed shape")
    term = matching[0]
    cells = q2.cat.hom(obj_label, term)
    _require(len(cells) == 1, "2-cell to the terminal form is not unique")
    return term, q2.cat.mor_labels[cells[0]], (tuple(J1), tuple(J2), tuple(J3))


# ---------------------------------------------------------------------------
# the collapsed 1-category and the comparison functor

class QKit:
    """Bundle of the Q-construction data over one base category."""

    def __init__(self, q, N, cap, guards=DEFAULT):
        if cap < 0:
            raise ValueError("--cap must be at least 0, got %d" % cap)
        self.E = build_filt_category(q, N, guards)
        self.guards = guards
        self.cap = cap
        self.max_entry = N
        self.calc = MonCalculus(self.E.ring, guards)
        self.span_cat, self.span_data = quillen_q(self.E, guards)
        self._q2 = {}
        self._q1 = None
        self._psi = None

    def q2_hom(self, m, mp):
        key = (tuple(m), tuple(mp))
        if key not in self._q2:
            self._q2[key] = q2_hom(self.calc, key[0], key[1], self.cap,
                                   self.max_entry, self.guards)
        return self._q2[key]

    # -- Q1 ----------------------------------------------------------------

    def q1_class(self, m, a, b, phi):
        """The Q1 morphism m -> phi.tgt of the triple (a, b, phi): its
        component in Hom_2(m, phi.tgt)."""
        q2 = self.q2_hom(m, phi.tgt)
        return (m, phi.tgt, q2.by_code[(a, b, self.calc.code(phi))])

    def q1_category(self):
        """Objects: graded lists; morphisms: 2-cell components of triples.

        The composite of [a1, b1, phi1] and [a2, b2, phi2] is the
        component of (a2 (x) a1, b1 (x) b2, phi2 o (id (x) phi1 (x) id))."""
        if self._q1 is not None:
            return self._q1
        calc = self.calc
        objs = self.calc.objects_up_to(self.cap, self.max_entry)
        labels, src, tgt, reps = [], [], [], []
        rep_of = {}     # q1 label -> representative (a, b, phi)
        for i, m in enumerate(objs):
            for j, mp in enumerate(objs):
                q2 = self.q2_hom(m, mp)
                chosen = {}  # component id -> its least object label
                for olbl, cid in q2.components.items():
                    if cid not in chosen or olbl < chosen[cid]:
                        chosen[cid] = olbl
                for cid, olbl in sorted(chosen.items()):
                    lbl = (m, mp, cid)
                    a, b, phi = rep_of[lbl] = q2.objects_data[olbl]
                    labels.append(lbl)
                    src.append(i)
                    tgt.append(j)
                    reps.append((a, b, calc.code(phi)))
        index = {lbl: i for i, lbl in enumerate(labels)}

        def component(m, mp, a, b, phi):
            return index[(m, mp, self.q2_hom(m, mp).by_code[(a, b, phi)])]

        f, g = _join(np.array(tgt, np.int64).reshape(-1),
                     np.array(src, np.int64).reshape(-1))
        composite = []
        for fi, gi in zip(f.tolist(), g.tolist()):
            (a1, b1, phi1), (a2, b2, phi2) = reps[fi], reps[gi]
            mid = calc.concat_code(
                calc.concat_code(calc.identity_code(a2), phi1),
                calc.identity_code(b2))
            composite.append(component(
                objs[src[fi]], objs[tgt[gi]], a2 + a1, b1 + b2,
                calc.compose_code(phi2, mid)))
        identity_of = [component(m, m, (), (), calc.identity_code(m))
                       for m in objs]
        self._q1 = (_build(objs, labels, src, tgt, identity_of, g, f,
                           composite, self.guards), rep_of)
        return self._q1

    # -- Psi ----------------------------------------------------------------

    def psi_obj(self, x):
        return () if x == 0 else (x,)

    def psi_triple(self, span_label):
        """The triple (Psi a, Psi b, phi) attached to a canonical span."""
        ring = self.E.ring
        (x, y, z, p_data, i_data) = span_label
        p = Mat(ring, p_data, cols=z)
        i = Mat(ring, i_data, cols=z)
        ker_rows = kernel_basis(ring, p) if z else ()
        a_dim = len(ker_rows)
        b_dim = y - z
        # literal chain in F^y:  i(ker p)  <=  im i  <=  F^y
        z1_rows = [i.mul_vec(r) for r in ker_rows]
        z1 = Submodule.from_rows(ring, y, [list(r) for r in z1_rows])
        z2 = image_submodule(ring, y, i) if z else Submodule.zero(ring, y)
        full = Submodule.full(ring, y)
        chain = []
        dims = []
        if a_dim:
            chain.append(z1)
            dims.append(a_dim)
        if x:
            chain.append(z2)
            dims.append(x)
        if b_dim:
            chain.append(full)
            dims.append(b_dim)
        if not chain:
            # x = y = z = 0: the empty-to-empty identity
            return ((), (), self.calc.identity(()))
        _require(chain[-1] == full, "chain does not end at the full space")
        quots = flag_quotients(ring, y, tuple(s.mat for s in chain))
        # i(u) = v has one solution u, the coordinates of v in the
        # columns of i (i is mono)
        i_cols = list(zip(*i.data))
        isos = []
        step = 0
        if a_dim:
            q0 = quots[step]
            cols = []
            for c in q0.section_rows:
                u = _coords_in_rows(ring, i_cols, c)
                cols.append(_coords_in_rows(ring, ker_rows, u))
            isos.append(Mat(ring, [list(r) for r in zip(*cols)]))
            step += 1
        if x:
            qx = quots[step]
            cols = []
            for c in qx.section_rows:
                cols.append(p.mul_vec(_coords_in_rows(ring, i_cols, c)))
            isos.append(Mat(ring, [list(r) for r in zip(*cols)]))
            step += 1
        if b_dim:
            qb = quots[step]
            proj = QuotientData(z2, full)
            cols = [proj.project(c) for c in qb.section_rows]
            isos.append(Mat(ring, [list(r) for r in zip(*cols)]))
            step += 1
        flag = FlagChain(y, tuple(s.mat for s in chain), tuple(isos))
        a_obj = (a_dim,) if a_dim else ()
        b_obj = (b_dim,) if b_dim else ()
        phi = MonMor(a_obj + self.psi_obj(x) + b_obj, (y,),
                     tuple(0 for _ in range(len(a_obj) + (1 if x else 0) + len(b_obj))),
                     (flag,))
        return (a_obj, b_obj, phi)

    def psi_q1_label(self, span_label):
        (x, y, _, _, _) = span_label
        if y == 0:
            # target is the zero object: Psi sends it to the empty list
            return self.q1_class((), (), (), self.calc.identity(()))
        return self.q1_class(self.psi_obj(x), *self.psi_triple(span_label))

    def psi_functor(self):
        """Psi: span category -> Q1, validated."""
        if self._psi is not None:
            return self._psi
        q1, _ = self.q1_category()
        span = self.span_cat
        self._psi = FinFunctor(
            span, q1,
            label_indices(q1.obj_index, map(self.psi_obj, span.objects)),
            label_indices(q1.mor_index,
                          map(self.psi_q1_label, span.mor_labels)),
            self.guards)
        return self._psi


# ---------------------------------------------------------------------------
# comma categories over the comparison functor

@dataclass
class CommaReport:
    target: tuple
    category: object
    contractibility: object
    cover_ok: bool
    terminals_ok: bool
    intersections_ok: bool
    details: dict


def comma_category(kit, target):
    """The comma category Psi | target: objects (x, kappa: Psi(x) ->
    target), morphisms the spans s: x -> y with lambda o Psi(s) = kappa.
    This is the left fiber of Psi over target."""
    return left_fiber(kit.psi_functor(), tuple(target), kit.guards)


def _padded_identity_label(kit, target, i0):
    """The Q1 class of [m_{<i0}, m_{>i0}, id] : (m_{i0}) -> target."""
    target = tuple(target)
    return kit.q1_class((target[i0],), target[:i0], target[i0 + 1:],
                        kit.calc.identity(target))


def comma_cover_subcategories(kit, target):
    """Membership map of the C_{i0} cover of Psi | target.

    C_{i0} consists of the objects whose structure map factors as
    [m_{<i0}, m_{>i0}, id] o Psi([x <<- z >-> m_{i0}]).
    """
    q1, _ = kit.q1_category()
    psi = kit.psi_functor()
    target = tuple(target)
    # the spans [x <<- z >-> y] by x and y
    x, y = np.array([lbl[:2] for lbl in kit.span_cat.mor_labels],
                    np.int64).reshape(-1, 2).T
    members = {}
    for i0, m_i0 in enumerate(target):
        pad = q1.mor_index[_padded_identity_label(kit, target, i0)]
        s = np.flatnonzero(y == m_i0)
        kappa = q1.compose_many(pad, psi.mor_idx[s])
        members[i0] = {(c, q1.mor_labels[k])
                       for c, k in zip(x[s].tolist(), kappa.tolist())}
    return members


def comma_contractibility(kit, target, depth=3, guards=None):
    """Build Psi | target and verify the cover/terminal/intersection
    structure along with depth-bounded weak contractibility."""
    guards = guards or kit.guards
    target = tuple(target)
    cat = comma_category(kit, target)
    cert = is_weakly_contractible(cat, depth, guards)
    details = {}
    if not target:
        # the comma category over the empty list is the terminal category
        cover_ok = cat.n_objects == 1
        terminals_ok = cat.has_terminal_object() is not None
        intersections_ok = True
        details["note"] = "empty target: single object (0, id)"
        return CommaReport(target, cat, cert, cover_ok, terminals_ok,
                           intersections_ok, details)
    members = comma_cover_subcategories(kit, target)
    all_objs = set(cat.objects)
    covered = set().union(*members.values()) if members else set()
    cover_ok = covered == all_objs
    details["uncovered"] = sorted(map(repr, all_objs - covered))
    # terminal object of each C_{i0} is (m_{i0}, [m_{<i0}, m_{>i0}, id])
    terminals_ok = True
    for i0 in range(len(target)):
        pad = _padded_identity_label(kit, target, i0)
        expect = (target[i0], pad)
        sub, _ = full_subcategory(cat, members[i0], guards)
        term = sub.has_terminal_object()
        details["terminal_%d" % i0] = term
        if term != expect:
            # several terminals can coexist; require the expected one works
            ok = expect in sub.obj_index and all(
                len(sub.hom(o, expect)) == 1 for o in sub.objects)
            if not ok:
                terminals_ok = False
    # pairwise intersections
    intersections_ok = True
    for i in range(len(target)):
        for j in range(i + 1, len(target)):
            got = members[i] & members[j]
            expected = set()
            if j == i + 1:
                # single object (0, [m_{<=i}, m_{>i}, id])
                lam = kit.q1_class((), target[:i + 1], target[i + 1:],
                                   kit.calc.identity(target))
                expected = {(0, lam)}
            if got != expected:
                intersections_ok = False
                details["bad_intersection"] = (i, j, sorted(map(repr, got)))
    return CommaReport(target, cat, cert, cover_ok, terminals_ok,
                       intersections_ok, details)


def _coords_in_rows(ring, rows, vec):
    """Coordinates of vec in independent rows (fields): the last column of
    the reduced [rows^T | vec], which pivots on exactly the rows' columns
    when vec lies in their span."""
    work = [[r[j] for r in rows] + [x] for j, x in enumerate(vec)]
    k = len(rows)
    _require(_gauss_jordan(ring, work, k + 1) == list(range(k)),
             "vector not in the row span")
    return tuple(row[k] for row in work[:k])
