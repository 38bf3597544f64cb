"""Span and monoidal Q-construction machinery over truncated vector
space categories.

The base category E is the skeletal category of F_q-vector spaces of
dimension at most N (objects 0..N, morphisms all matrices, column-vector
convention), with short exact sequences the usual kernel/cokernel pairs.

A linear map F_q^a -> F_q^b is held as its row of image codes (rings'
vector codes), so composition is a gather and mono, epi and iso mean
injective, onto and a permutation; kernels, images, pullbacks and
pushouts are membership rows.  The tables of F_q^n are built on first
use, once per ring, n and guard config (_space): its subspaces, found by
membership row, GL(n) from rings.gl_tables, and for each pair small <
big the code maps of the complement QuotientData chooses.  On top of E:

  * quillen_q(E): the span category (morphisms x <<- z >-> y up to
    isomorphism of the middle object, composed by pullback); the class
    of a span is the subspace {(p w, i w)} of F^(x+y), labelled by its
    reduced row echelon form (span_canonical), which gives the least
    representative over GL(z);
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
from dataclasses import dataclass
from functools import cached_property

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
    _CHUNK_ENTRIES,
    _code_weights,
    _vector_digits,
    chains_through,
    distinct_rows,
    echelon_rows,
    enumerate_submodules,
    gl_tables,
    inclusion_table,
    make_ring,
    membership,
    quotient_codes,
    span_codes,
)
from .toolkit import is_weakly_contractible


def _require(holds, what):
    """A check that holds under python -O too."""
    if not holds:
        raise CategoryError(what)


# ---------------------------------------------------------------------------
# the tables of F_q^n

_SPACES = {}


def _space(ring, n, guards):
    # keyed by guard config (its values, as astuple gives them but cheaply):
    # tables built under looser guards are not reused under tighter ones
    key = (ring.key(), n, tuple(vars(guards).values()))
    if key not in _SPACES:
        _SPACES[key] = _Space(ring, n, guards)
    return _SPACES[key]


def _lead(row):
    return next(j for j, x in enumerate(row) if x)


class _Space:
    """F_q^n on vector codes: subs are its subspaces in Submodule.sort_key
    order (0 first, F^n last), members[s] the codes of subs[s], found by
    their canonical rows (index) or members (by_members).  gl_rows maps
    each matrix of GL(n), as its tuple of rows, to its row of image codes
    (in the code order of gl_tables), and gl_matrix back."""

    def __init__(self, ring, n, guards):
        self.ring, self.n, self.guards = ring, n, guards
        self.subs = enumerate_submodules(ring, n, guards)
        self.members = [frozenset(np.flatnonzero(membership(
            ring, n, s.mat)).tolist()) for s in self.subs]
        self.index = {s.mat: i for i, s in enumerate(self.subs)}
        self.by_members = {m: i for i, m in enumerate(self.members)}
        # the proper inclusions of the nonzero subspaces, for chains
        self.less = inclusion_table(ring, n, self.subs[1:])
        self._pairs = {}

    @cached_property
    def gl_rows(self):
        entries, act = gl_tables(self.ring, self.n, self.guards)
        return dict(zip((tuple(map(tuple, m)) for m in entries.tolist()),
                        map(tuple, act.tolist())))

    @cached_property
    def gl_matrix(self):
        return {row: m for m, row in self.gl_rows.items()}

    def quotient(self, small, big):
        """(project, section) for subs[small] <= subs[big] as code maps
        (project[v] is None for v outside big); over a field QuotientData's
        complement is spanned by the canonical rows of big whose leading
        column leads no row of small."""
        out = self._pairs.get((small, big))
        if out is None:
            _require(self.members[small] <= self.members[big],
                     "a step of a chain is not a subspace of the next")
            rows = self.subs[small].mat
            leads = set(map(_lead, rows))
            section = [r for r in self.subs[big].mat if _lead(r) not in leads]
            project, sec = quotient_codes(self.ring, self.n, *(
                np.array(x, np.int64).reshape(len(x), self.n)
                for x in (rows, section)))
            out = self._pairs[small, big] = (
                tuple(None if v < 0 else v for v in project.tolist()),
                tuple(sec.tolist()))
        return out


def _isomorphism(space, row):
    """The matrix rows of the GL(space.n) element with this row of codes."""
    m = space.gl_matrix.get(tuple(row))
    _require(m is not None, "merged graded map must be an isomorphism")
    return m


# ---------------------------------------------------------------------------
# the base category with filtrations

class FiltCategory:
    """Skeletal Vect(F_q)_{<= N} with its short exact sequences.

    The morphisms a -> b are the b x a matrices, numbered by the code of
    their row-major entries; maps[a, b][m, v] is the code of m v, so
    maps[a, b][m] is the row of image codes of morphism m."""

    def __init__(self, q, N, guards=DEFAULT):
        if N < 0:
            raise ValueError("--N must be at least 0, got %d" % N)
        self.ring = R = make_ring("F%d" % q, guards)
        total = sum(R.size ** (r * c)
                    for r in range(N + 1) for c in range(N + 1))
        guards.check(total, "max_filt_morphisms", "base category enumeration")
        guards.check(R.size ** (2 * N), "max_vector_enum",
                     "pullbacks and pushouts")
        self.objects = list(range(N + 1))
        self.maps = {}
        for a in self.objects:
            for b in self.objects:
                count = R.size ** (a * b)
                mats = _vector_digits(R, a * b, np.arange(count))
                self.maps[a, b] = span_codes(
                    R, b, mats.reshape(count, b, a).transpose(0, 2, 1))

    def map_row(self, a, b, data):
        """The row of image codes of the b x a matrix with rows data."""
        return self.maps[a, b][np.array(data, np.int64).reshape(a * b) @
                               _code_weights(self.ring, a * b)]

    def rank(self, a, rows):
        """The rank of each map from F^a with these rows of image codes
        (last axis): a minus log_q of the size of its kernel."""
        kernel = (np.asarray(rows) == 0).sum(axis=-1)
        return a - np.searchsorted(self.ring.size ** np.arange(a + 1), kernel)

    def is_mono(self, a, b, rows):
        return self.rank(a, rows) == a

    def is_epi(self, a, b, rows):
        return self.rank(a, rows) == b

    def monos(self, a, b):
        return self.maps[a, b][np.flatnonzero(self.is_mono(a, b, self.maps[a, b]))]

    def epis(self, a, b):
        return self.maps[a, b][np.flatnonzero(self.is_epi(a, b, self.maps[a, b]))]

    def is_ses(self, a, b, c, i, p):
        """Whether every (i: a >-> b, p: b ->> c), rows of image codes, is
        short exact: i mono, p epi, p i = 0 and a + c = b."""
        return bool(np.all((a + c == b) & self.is_mono(a, b, i) &
                           self.is_epi(b, c, p) &
                           (np.take_along_axis(p, i, -1) == 0).all(-1)))

    def validate_axioms(self):
        """Category-with-filtrations axioms on the distinguished sequences.

        1-4 are checked exhaustively; 5 and 6 (and their swapped versions)
        on all admissible cospans/spans.
        """
        objs, size = self.objects, self.ring.size
        monos = {s: self.monos(*s) for s in self.maps}
        epis = {s: self.epis(*s) for s in self.maps}
        # axiom 2: 0 -> a -> a and a -> a -> 0
        for a in objs:
            ida = np.arange(size ** a)[None]
            _require(self.is_ses(0, a, a, 0 * ida[:, :1], ida) and
                     self.is_ses(a, a, 0, ida, 0 * ida), "axiom 2 fails")
        # axiom 3: composites of admissible monos/epis, g o f as the
        # gather g[f], a chunk of the g at a time
        for a, b, c in itertools.product(objs, repeat=3):
            for kind, test in ((monos, self.is_mono), (epis, self.is_epi)):
                g, f = kind[b, c], kind[a, b]
                _require(all(test(a, c, g[lo][:, f]).all()
                             for lo in _chunks(len(g), f.size)), "axiom 3 fails")
        # axiom 4: monos are kernels of their epis and conversely
        for (a, b), i in monos.items():
            if len(i):
                coker = cokernel_projection(self, a, b, i)
                _require(self.is_ses(a, b, b - a, i, coker), "axiom 4 fails")
                _require(((coker == 0) == _image(i, size ** b)).all(),
                         "mono is not the kernel of its cokernel")
        # axioms 5/6 on all pairs, each with its swapped form (pullback of
        # mono along epi is mono; pushout of epi along mono is epi) on the
        # same pullback or pushout, a chunk of the epis or monos at a time
        for b, c, cp in itertools.product(objs, repeat=3):
            p, m = epis[b, c], monos[cp, c]
            for lo in _chunks(len(p), len(m) * size ** (b + cp)):
                d, to_b, to_cp = pullback(self, b, c, cp, p[lo], m)
                _require(np.all(self.is_epi(d, cp, to_cp)), "axiom 5 fails")
                _require(np.all(self.is_mono(d, b, to_b)),
                         "swapped axiom 5 fails")
        for z, b, c in itertools.product(objs, repeat=3):
            i, p = monos[z, b], epis[z, c]
            for lo in _chunks(len(i), len(p) * size ** (b + c)):
                d, from_b, from_c = pushout(self, z, b, c, i[lo], p)
                _require(np.all(self.is_mono(c, d, from_c)), "axiom 6 fails")
                _require(np.all(self.is_epi(b, d, from_b)),
                         "swapped axiom 6 fails")
        return True


def _chunks(count, width):
    """Slices of range(count) of at most _CHUNK_ENTRIES / width items (at
    least one); none when width is 0, as nothing then pairs up."""
    step = max(1, _CHUNK_ENTRIES // max(1, width))
    return [slice(lo, lo + step) for lo in range(0, count if width else 0, step)]


def _image(rows, size):
    """The membership rows (over size codes) of the images of the maps."""
    member = np.zeros((len(rows), size), bool)
    member[np.arange(len(rows))[:, None], rows] = True
    return member


def _bases(ring, n, member):
    """The canonical rows, in order, of subspaces of F^n of one rank given
    by their membership rows: an array (k, rank, n)."""
    rows = echelon_rows(ring, n, member)
    rank = rows.sum(axis=1)
    _require((rank == rank[:1]).all(),
             "subspaces of one shape differ in dimension")
    return _vector_digits(ring, n, np.nonzero(rows)[1].reshape(
        len(member), -1)[:, ::-1])


def cokernel_projection(E, a, b, i):
    """The projection F^b ->> F^{b-a} with kernel the image of each mono
    i: a >-> b, as rows of image codes, onto the complement QuotientData
    chooses: the unit rows at the columns that lead no row of the image."""
    member = _image(i, E.ring.size ** b)
    first, which = distinct_rows(member)
    basis = _bases(E.ring, b, member[first])
    free = np.ones((len(first), b), bool)
    free[np.arange(len(first))[:, None],
         (np.cumsum(basis != 0, axis=2) == 0).sum(axis=2)] = False
    units = np.eye(b, dtype=np.int64)[np.nonzero(free)[1]]
    return quotient_codes(E.ring, b, basis, units.reshape(
        len(first), b - basis.shape[1], b))[0][which]


def pullback(E, b, c, cp, p, m):
    """Pullback P = {(u, v): p u = m v} in F^(b+c') of each epi p: b ->> c
    along each mono m: c' >-> c (rows of image codes): its dimension d
    and the two projections composed with the canonical basis of P (the
    section of 0 < P), rows of image codes of shape (len(p), len(m), q^d).
    """
    q = E.ring.size
    member = (p[:, None, :, None] == m[None, :, None, :]).reshape(
        len(p) * len(m), -1)
    first, which = distinct_rows(member)
    basis = _bases(E.ring, b + cp, member[first])
    legs = span_codes(E.ring, b + cp, basis)[which].reshape(len(p), len(m), -1)
    return basis.shape[1], legs // q ** cp, legs % q ** cp


def pushout(E, z, b, c, i, p):
    """Pushout of each mono i: z >-> b along each epi p: z ->> c: the
    cokernel of (i, -p): F^z -> F^(b+c); returns its dimension d and the
    maps from F^b and F^c, as rows of image codes of shape (len(i),
    len(p), q^b) and (len(i), len(p), q^c)."""
    q = E.ring.size
    neg = span_codes(E.ring, c, np.eye(c, dtype=np.int64) * E.ring.neg[1])
    joint = (i[:, None, :] * q ** c + neg[p][None, :, :]).reshape(-1, q ** z)
    project = cokernel_projection(E, z, b + c, joint).reshape(
        len(i), len(p), -1)
    return (b + c - z, project[:, :, np.arange(q ** b) * q ** c],
            project[:, :, :q ** c])


def build_filt_category(q, N, guards=DEFAULT):
    E = FiltCategory(q, N, guards)
    E.validate_axioms()
    return E


# ---------------------------------------------------------------------------
# Quillen's span category

def span_canonical(ring, x, y, member):
    """The label (x, y, z, p rows, i rows) of each span class x <<-p- z
    -i>-> y given by the membership row of {(p w, i w)} in F^(x+y).

    GL(z) acts by (p, i) -> (p h, i h), column operations on the stacked
    [p; i], which has full column rank z since i is mono, and its column
    space is that subspace.  The least (p h, i h) in row-major order has
    as columns the rows of its reduced row echelon form, last row first.
    """
    labels = []
    for codes in map(np.flatnonzero, echelon_rows(ring, x + y, member)):
        cols = _vector_digits(ring, x + y, codes).tolist()
        rows = tuple(zip(*cols)) if cols else ((),) * (x + y)
        labels.append((x, y, len(cols), rows[:x], rows[x:]))
    return labels


def quillen_q(E, guards=DEFAULT):
    """The span category of E as a validated FinCat, and span_of: label ->
    (z, p, i) of one representative, p and i as rows of image codes.

    Objects: 0..N.  A morphism x -> y is the class of the spans x <<-p- z
    -i>-> y, found by its membership row; the composite of the classes of
    (p1, i1) and (p2, i2) is the class of {(p1 u, i2 v): i1 u = p2 v},
    the span through their pullback.
    """
    q = E.ring.size
    labels, src, tgt, span_of, found = [], [], [], {}, {}
    for x in E.objects:
        for y in E.objects:
            for z in range(x, y + 1):
                p, i = E.epis(z, x), E.monos(z, y)
                for lo in _chunks(len(p), len(i) * q ** (x + y)):
                    member = _image((p[lo, None, :] * q ** y + i[None, :, :])
                                    .reshape(-1, q ** z), q ** (x + y))
                    new = [k for k in np.sort(distinct_rows(member)[0]).tolist()
                           if (x, y, member[k].tobytes()) not in found]
                    for k, lbl in zip(new, span_canonical(E.ring, x, y,
                                                          member[new])):
                        found[x, y, member[k].tobytes()] = len(labels)
                        labels.append(lbl)
                        src.append(x)
                        tgt.append(y)
                        span_of[lbl] = (z, p[lo][k // len(i)], i[k % len(i)])

    def index(x, y, codes):
        member = np.zeros(q ** (x + y), bool)
        member[codes] = True
        return found.get((x, y, member.tobytes()), -1)

    f, g = _join(np.array(tgt, np.int64), np.array(src, np.int64))
    composite = []
    for fi, gi in zip(f.tolist(), g.tolist()):
        (_, p1, i1), (_, p2, i2) = span_of[labels[fi]], span_of[labels[gi]]
        u, v = np.nonzero(i1[:, None] == p2[None, :])
        composite.append(index(src[fi], tgt[gi], p1[u] * q ** tgt[gi] + i2[v]))
    identity_of = [index(x, x, np.arange(q ** x) * (q ** x + 1))
                   for x in E.objects]
    cat = _build(E.objects, labels, src, tgt, identity_of, g, f, composite,
                 guards)
    return cat, span_of


# ---------------------------------------------------------------------------
# graded lists and their flag morphisms

def _surjections(src_len, tgt_len):
    """Order-preserving surjections {0..src_len-1} -> {0..tgt_len-1}, one
    for each set of tgt_len - 1 places where the value steps up."""
    if tgt_len == 0:
        return [()] if src_len == 0 else []
    return [tuple(sum(i >= c for c in cuts) for i in range(src_len))
            for cuts in itertools.combinations(range(1, src_len), tgt_len - 1)]


@dataclass(frozen=True)
class FlagChain:
    """Literal subspace chain in F^n with graded isomorphisms.

    chain: strictly increasing canonical subspaces ending at the full
    space (the zero subspace is implicit); isos[t] is the invertible
    matrix, as its tuple of rows, sending the canonical complement
    coordinates of step t to the graded piece F^{dims[t]}.
    """

    n: int
    chain: tuple      # tuple of row-tuples (canonical), last spans F^n
    isos: tuple       # tuple of matrices, each a tuple of rows


def enumerate_flag_chains(ring, n, jumps, guards=DEFAULT):
    """All literal chains in F^n with the given dimension jumps, in
    lexicographic order of their subspaces."""
    _require(sum(jumps) == n, "dimension jumps do not add up to n")
    space = _space(ring, n, guards)
    # a chain rises strictly from 0, so 0 is never a member
    return [tuple(space.subs[i + 1].mat for i in chain) for chain in
            chains_through(space.less, [s.rank for s in space.subs[1:]],
                           tuple(itertools.accumulate(jumps))).tolist()]


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
        self._hom_cache = {}    # (src, tgt) -> codes
        self._comp_cache = {}   # (second, first) codes -> code of second o first
        self._flag_cache = {}   # (flag, inner flags and dims) -> merged flag
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

    def space(self, n):
        return _space(self.ring, n, self.guards)

    # -- identities and concatenation ------------------------------------

    def identity(self, obj):
        return self.mors[self.identity_code(obj)]

    def identity_code(self, obj):
        c = self._identity.get(obj)
        if c is None:
            flags = []
            for n in obj:
                one = tuple(map(tuple, np.eye(n, dtype=int).tolist()))
                flags.append(FlagChain(n, (one,), (one,)))
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
        theta = tuple(second.theta[j] for j in first.theta)
        flags = []
        for l, outer in enumerate(second.flags):
            # each target entry merges one flag of second with the flags
            # of first over its fiber; that merge is stored per flag
            key = (outer, tuple(
                (first.flags[j], tuple(first.src[i] for i, t in
                                       enumerate(first.theta) if t == j))
                for j, t in enumerate(second.theta) if t == l))
            flag = self._flag_cache.get(key)
            if flag is None:
                flag = self._flag_cache[key] = self._merge_flag(*key)
            flags.append(flag)
        return MonMor(first.src, second.tgt, theta, tuple(flags))

    def _merge_flag(self, outer, inners):
        """outer with step t refined by the chain of inners[t] = (flag,
        source dimensions of its steps): the merged member over inner step
        u holds the v of step t with pi_t project_t v in the inner member
        u, and its graded iso is inner.isos[u] o (the inner quotient map)
        o pi_t o project_t on its complement, all gathers on code maps."""
        space = self.space(outer.n)
        merged, isos = [0], []
        prev = 0
        for t, (inner, dims) in enumerate(inners):
            sub, inner_space = space.index[outer.chain[t]], self.space(inner.n)
            pi = inner_space.gl_rows.get(outer.isos[t])
            _require(pi is not None and space.subs[sub].rank -
                     space.subs[prev].rank == inner.n,
                     "merged graded map must be an isomorphism")
            project, _ = space.quotient(prev, sub)
            lift = {v: pi[project[v]] for v in space.members[sub]}
            steps = [inner_space.index[rows] for rows in inner.chain]
            for u, (lower, upper) in enumerate(zip([0] + steps, steps)):
                inside = inner_space.members[upper]
                step = space.by_members[frozenset(
                    v for v, w in lift.items() if w in inside)]
                _, section = space.quotient(merged[-1], step)
                inner_project, _ = inner_space.quotient(lower, upper)
                iso = self.space(dims[u]).gl_rows.get(inner.isos[u])
                _require(iso is not None and inner_space.subs[upper].rank -
                         inner_space.subs[lower].rank == dims[u],
                         "merged graded map must be an isomorphism")
                isos.append(_isomorphism(self.space(dims[u]), [
                    iso[inner_project[lift[v]]] for v in section]))
                merged.append(step)
            prev = sub
        return FlagChain(outer.n, tuple(space.subs[s].mat for s in merged[1:]),
                         tuple(isos))

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
            for j, fib in enumerate(fibers):
                jumps = tuple(src[i] for i in fib)
                isos = list(itertools.product(
                    *(list(self.space(d).gl_rows) for d in jumps)))
                per_target.append([
                    FlagChain(tgt[j], chain, combo)
                    for chain in enumerate_flag_chains(
                        self.ring, tgt[j], jumps, self.guards)
                    for combo in isos])
            if all(per_target):
                out += [MonMor(tuple(src), tuple(tgt), theta, combo)
                        for combo in itertools.product(*per_target)]
        return out

    def objects_up_to(self, cap, max_entry):
        """All graded lists with entries in 1..max_entry and total <= cap."""
        self.guards.check(cap, "max_total_dim", "graded lists")
        return [t for k in range(cap + 1) for t in itertools.product(
            range(1, max_entry + 1), repeat=k) if sum(t) <= cap]


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
            tuple((f.n, f.chain, f.isos) for f in m.flags))


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
    la, lm, tgt = len(a), len(q2.source), phi.tgt
    hit_a, hit_m, hit_b = (set(phi.theta[lo:hi]) for lo, hi in (
        (0, la), (la, la + lm), (la + lm, len(phi.src))))
    J1, J3 = sorted(hit_a - hit_m - hit_b), sorted(hit_b - hit_m - hit_a)
    J2 = [j for j in range(len(tgt)) if j not in J1 and j not in J3]
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
        guards.check(cap, "max_total_dim", "graded lists")
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
        """The triple (Psi a, Psi b, phi) attached to a canonical span
        x <<-p- z -i>-> y: phi is the chain i(ker p) <= im i <= F^y, its
        steps of dimensions a = dim ker p, x and b = y - z, with the graded
        isos i(ker p) -> ker p -> F^a (coordinates in the canonical basis),
        im i / i(ker p) -> F^x (p i^-1) and the identity of F^y / im i."""
        (x, y, z, p_data, i_data) = span_label
        if not y:
            # x = y = z = 0: the empty-to-empty identity
            return ((), (), self.calc.identity(()))
        at_z, at_y = self.calc.space(z), self.calc.space(y)
        p = self.E.map_row(z, x, p_data).tolist()
        i = self.E.map_row(z, y, i_data).tolist()
        inverse = {c: w for w, c in enumerate(i)}    # i is mono
        kernel = at_z.by_members[frozenset(
            w for w, c in enumerate(p) if c == 0)]
        a_dim, b_dim = at_z.subs[kernel].rank, y - z
        steps = []   # (subspace of F^y, graded iso as a row of codes)
        if a_dim:
            coords, _ = at_z.quotient(0, kernel)
            steps.append((at_y.by_members[frozenset(
                i[w] for w in at_z.members[kernel])], coords))
        if x:
            steps.append((at_y.by_members[frozenset(i)], p))
        if b_dim:
            # im i < F^y projected through its own complement
            steps.append((len(at_y.subs) - 1, None))
        _require(steps[-1][0] == len(at_y.subs) - 1,
                 "chain does not end at the full space")
        chain, isos, prev = [], [], 0
        for sub, through in steps:
            d = at_y.subs[sub].rank - at_y.subs[prev].rank
            _, section = at_y.quotient(prev, sub)
            row = range(len(section)) if through is None else \
                [through[inverse[c]] for c in section]
            chain.append(at_y.subs[sub].mat)
            isos.append(_isomorphism(self.calc.space(d), row))
            prev = sub
        a_obj = (a_dim,) if a_dim else ()
        b_obj = (b_dim,) if b_dim else ()
        src = a_obj + self.psi_obj(x) + b_obj
        return (a_obj, b_obj, MonMor(src, (y,), (0,) * len(src), (
            FlagChain(y, tuple(chain), tuple(isos)),)))

    def psi_q1_label(self, span_label):
        return self.q1_class(self.psi_obj(span_label[0]),
                             *self.psi_triple(span_label))

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
