"""Finite 1-categories with validated composition tables.

A FinCat numbers its objects and morphisms in a canonical order and keeps
their opaque hashable labels for messages and JSON.  Morphisms are sorted
by (source, target), and the shape is stored once, as the read-only int64
arrays src, tgt and identity_of; so every hom-set is a range of morphism
indices, and hom-sets, cone points, connected components and triple
counts are read from the hom-set boundaries.  Composition is
stored once, as an int32 table on composable pairs (see _check_axioms),
and read through compose, compose_many and pairs.  Construction
validates the category axioms on that table: totality and identity
neutrality, then associativity exactly by Light's test over a
generating set S (see _generators): h.(g.f) == (h.g).f is compared for
every composable h, f and every g in S only, which implies it for every
g.  The guard max_assoc_triples bounds the triples this test compares;
past it construction raises GuardExceeded.  The category keeps S, read
only, as ``generators``: the nerve's S-reduced 2-complex reads it.

validate_category takes label tables, for JSON artifacts and tables
written by hand; _build, which it calls, takes index arrays.  A
FinFunctor keeps its map once, as the read-only index arrays obj_idx and
mor_idx; a builder with target labels looks them up with label_indices.
Opposites, products, poset and group categories, the twisted arrow
category, fibers, full and strict subcategories, skeletons, action
categories, functors and the isomorphism and full-faithfulness tests are
array operations, with no label round trip.  A FiberFamily holds all
left or right fibers of a functor at once; it tells which have a cone
point before any is built, and builds any set of them as one category.

Also here: groups, posets and actions.  A Group holds its multiplication
as one |G| x |G| index table and a Poset its order as one bool matrix; an
action is the |G| x |P| table moved[g, p] of the index of g.p.  Their
axioms, the action category and poset regularity are array operations on
those tables.
"""

from __future__ import annotations

import itertools
import zlib

import numpy as np

from .guards import DEFAULT


class CategoryError(ValueError):
    """Raised when validation of a category or functor fails."""


class FinCat:
    """A validated finite category (see the module docstring); g.f is
    ``flat[row[g] + ipos[f]]`` whenever src g == tgt f.

    ``src``, ``tgt`` and ``identity_of`` are read-only int64 arrays: the
    source and target object index of each morphism and the identity's
    morphism index of each object.  Morphisms are sorted by (source,
    target), so each hom-set is a range of indices; the hom-sets are kept
    once, as the distinct keys src·n + tgt (n objects) and where each
    key's range starts, and every shape query reads them.

    ``generators`` is the read-only mask of the set S that validation
    picked for Light's test (see _generators): no identity is in S, and
    every non-identity morphism is a composite of members of S.
    ``validated`` is the CRC-32 of ``flat`` as validation left it."""

    __slots__ = ("objects", "obj_index", "mor_labels", "mor_index",
                 "src", "tgt", "identity_of", "flat", "row", "ipos",
                 "generators", "validated", "_hom_key", "_hom_start")

    def __init__(self, objects, mor_labels, src, tgt, identity_of, table):
        self.objects = tuple(objects)
        self.obj_index = {o: i for i, o in enumerate(self.objects)}
        self.mor_labels = tuple(mor_labels)
        self.mor_index = {m: i for i, m in enumerate(self.mor_labels)}
        self.src, self.tgt, self.identity_of = src, tgt, identity_of
        self.flat, self.row, self.ipos, self.generators = table
        self.validated = zlib.crc32(self.flat)
        self._hom_key, self._hom_start = _runs(src * len(self.objects) + tgt)
        for v in (src, tgt, identity_of, self.generators):
            v.flags.writeable = False

    # -- basic queries ------------------------------------------------------

    @property
    def n_objects(self):
        return len(self.objects)

    @property
    def n_morphisms(self):
        return len(self.mor_labels)

    def hom(self, x, y):
        """Morphism indices x -> y (objects given as labels), a range."""
        return self.hom_idx(self.obj_index[x], self.obj_index[y])

    def hom_idx(self, xi, yi):
        """Morphism indices xi -> yi (object indices), a range."""
        key = xi * self.n_objects + yi
        return self._keys_in(key, key + 1)

    def morphisms_from(self, xi):
        """Morphism indices out of the object index xi, a range."""
        return self._keys_in(xi * self.n_objects, (xi + 1) * self.n_objects)

    def _keys_in(self, lo, hi):
        # the morphisms whose key src·n + tgt lies in [lo, hi)
        a, b = self._hom_key.searchsorted((lo, hi)).tolist()
        return range(self._hom_start[a], self._hom_start[b])

    def compose(self, g, f):
        """g.f for composable indices (tgt(f) == src(g))."""
        return int(self.flat[self.row[g] + self.ipos[f]])

    def compose_many(self, g, f):
        """g.f for arrays of composable indices, as one gather."""
        return self.flat[self.row[g] + self.ipos[f]]

    def pairs(self):
        """Every composable pair (g, f) and g.f, as arrays in table order,
        which is sorted by (g, f): rows follow the morphism order."""
        src, tgt = self.src, self.tgt
        in_n = np.bincount(tgt, minlength=self.n_objects)
        _, in_order, in_start = _positions(tgt, in_n)
        g = np.repeat(np.arange(self.n_morphisms), in_n[src])
        column = np.arange(len(g)) - self.row[g]
        return g, in_order[in_start[src[g]] + column], self.flat

    def has_terminal_object(self):
        """The first object that every object maps to exactly once, or None."""
        return self._cone_point(1)

    def has_initial_object(self):
        """The first object that maps to every object exactly once, or None."""
        return self._cone_point(0)

    def single_arrow_counts(self, end):
        """For each object y, how many objects x have exactly one morphism
        x -> y (end 1) or y -> x (end 0), as an array."""
        return _single_arrow_counts(self._hom_key, self._hom_start,
                                    self.n_objects, end)

    def _cone_point(self, end):
        # y is a cone point when all n pairs (x, y) (end 1) or (y, x) (end 0)
        # hold exactly one morphism
        hit = np.flatnonzero(self.single_arrow_counts(end) == self.n_objects)
        return self.objects[hit[0]] if len(hit) else None

    def components(self):
        """The least object index in the connected component of each
        object, as an array.

        Every label is an object of the same component, no larger than the
        object it labels, and labels itself.  Each round the ends of every
        hom-set whose labels differ point the larger label at the smaller,
        and the labels are then followed to a fixed point.  Once the ends
        of every hom-set agree, each component carries one label, and the
        least object of the component labels itself."""
        x, y = np.divmod(self._hom_key, max(self.n_objects, 1))
        label = np.arange(self.n_objects)
        while True:
            a, b = label[x], label[y]
            if (a == b).all():
                return label
            np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
            while True:
                jumped = label[label]
                if (jumped == label).all():
                    break
                label = jumped

    def is_connected(self):
        return self.n_objects > 0 and not self.components().any()

    def triple_count(self):
        """Number of composable triples (for associativity-cost estimates)."""
        in_deg = np.bincount(self.tgt, minlength=self.n_objects)
        out_deg = np.bincount(self.src, minlength=self.n_objects)
        x, y = np.divmod(self._hom_key, max(self.n_objects, 1))
        return int((np.diff(self._hom_start) * in_deg[x] * out_deg[y]).sum())

    def __repr__(self):
        return "FinCat(%d objects, %d morphisms)" % (self.n_objects, self.n_morphisms)


def _runs(keys):
    """The distinct values of the sorted array keys, and where the run of
    each starts, with len(keys) appended."""
    starts = np.ones(len(keys) + 1, bool)
    starts[1:-1] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(starts)
    return keys[starts[:-1]], starts


def _single_arrow_counts(hom_key, hom_start, n, end):
    """For each of n objects, how many of the hom-sets (keys src·n + tgt,
    sizes from the run starts hom_start) that hold exactly one morphism
    have it as target (end 1) or as source (end 0)."""
    single = hom_key[np.diff(hom_start) == 1]
    return np.bincount(single % n if end else single // n, minlength=n)


def validate_category(objects, morphisms, identities, composition,
                      guards=DEFAULT):
    """Build a FinCat from raw tables, checking the category axioms.

    objects: iterable of hashable labels.
    morphisms: iterable of (label, src_label, tgt_label).
    identities: dict object label -> identity morphism label.
    composition: dict (g_label, f_label) -> label, defined exactly on
        composable pairs (src g == tgt f).

    Associativity is checked by Light's test: h.(g.f) == (h.g).f for
    every composable h, f and every g in a set S that generates all
    morphisms together with the identities, so a failure names a triple
    whose middle morphism is in S.  GuardExceeded is raised when those
    triples outnumber guards.max_assoc_triples.
    """
    objects = list(objects)
    obj_index = {o: i for i, o in enumerate(objects)}
    morphisms = list(morphisms)
    labels = [m[0] for m in morphisms]
    mor_index = {m: i for i, m in enumerate(labels)}
    src, tgt = (label_indices(obj_index, [m[k] for m in morphisms],
                              "morphism endpoint %r is not an object")
                for k in (1, 2))
    identity_of = np.full(len(objects), -1, np.int64)
    identity_of[label_indices(
        obj_index, identities, "identity given for %r, not an object")] = \
        label_indices(mor_index, identities.values(),
                      "identity %r is not a morphism")
    a, b, ab = (label_indices(mor_index, x, "composition names %r, which "
                              "is not a morphism")
                for x in ([g for g, _ in composition],
                          [f for _, f in composition], composition.values()))
    return _build(objects, labels, src, tgt, identity_of, a, b, ab, guards)


def _build(objects, labels, src, tgt, identity_of, a, b, ab, guards,
           mor_rank=None, with_order=False, associative=False):
    """The FinCat given by index arrays, in canonical order, validated.

    src, tgt: object index of each morphism; identity_of: morphism index
    of each object's identity, -1 where there is none; a, b, ab: the
    composition a.b = ab, with ab = -1 for a composite that is not a
    morphism.  Objects are ordered by _canon_key and morphisms by the keys
    of (source, target, label), exactly as sorting the labels would; the
    keys are computed once per object and once per morphism.  A builder
    whose labels share their source and target parts may pass mor_rank
    instead, integers that order each set of parallel morphisms as their
    labels' keys do.  with_order also returns which given object and
    morphism each index of the category holds.  associative skips Light's
    test (see _check_axioms) for composition copied from a validated table.
    """
    if len(set(objects)) != len(objects):
        raise CategoryError("duplicate object labels")
    if len(set(labels)) != len(labels):
        raise CategoryError("duplicate morphism labels")
    src, tgt, identity_of, a, b, ab = (
        np.asarray(v, np.int64).reshape(-1)
        for v in (src, tgt, identity_of, a, b, ab))
    obj_rank = _dense_rank(objects)
    obj_order = np.argsort(obj_rank, kind="stable")
    if mor_rank is None:
        mor_rank = _dense_rank(labels)
    mor_order = np.lexsort((mor_rank, obj_rank[tgt], obj_rank[src]))
    new_obj = np.empty(len(objects), np.int64)
    new_obj[obj_order] = np.arange(len(objects))
    new_mor = np.empty(len(labels), np.int64)
    new_mor[mor_order] = np.arange(len(labels))
    objects = [objects[i] for i in obj_order.tolist()]
    src, tgt = new_obj[src[mor_order]], new_obj[tgt[mor_order]]
    identity_of = identity_of[obj_order]
    if (identity_of < 0).any():
        raise CategoryError("missing identity for object %r"
                            % (objects[int(np.argmax(identity_of < 0))],))
    identity_of = new_mor[identity_of]
    loops = (src[identity_of] != np.arange(len(objects))) | \
        (tgt[identity_of] != np.arange(len(objects)))
    if loops.any():
        raise CategoryError("identity of %r is not an endomorphism"
                            % (objects[int(np.argmax(loops))],))
    labels = [labels[i] for i in mor_order.tolist()]
    if (ab < 0).any():
        i = int(np.argmax(ab < 0))
        raise CategoryError("composite of (%r, %r) is not a morphism"
                            % (labels[new_mor[a[i]]], labels[new_mor[b[i]]]))
    a, b, ab = new_mor[a], new_mor[b], new_mor[ab]
    table = _check_axioms(labels, src, tgt, identity_of, a, b, ab, guards,
                          associative)
    C = FinCat(objects, labels, src, tgt, identity_of, table)
    return (C, obj_order, mor_order) if with_order else C


def _canon_key(label):
    # stable total order on heterogeneous labels
    return (str(type(label)), repr(label))


def _dense_rank(labels, key=_canon_key):
    """Rank of each label's key among the distinct keys."""
    keys = [key(x) for x in labels]
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    return np.array([rank[k] for k in keys], np.int64).reshape(-1)


def _join(left, right):
    """Every (i, j) with left[i] == right[j], by i and then by j."""
    order = np.argsort(right, kind="stable")
    keys = right[order]
    lo = np.searchsorted(keys, left, "left")
    counts = np.searchsorted(keys, left, "right") - lo
    i = np.repeat(np.arange(len(left)), counts)
    offset = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
    return i, order[lo[i] + offset]


def _lookup(keys, queries):
    """Index of each query among the distinct keys, -1 where absent."""
    if len(keys) == 0:
        return np.full(len(queries), -1, np.int64)
    order = np.argsort(keys, kind="stable")
    at = np.minimum(np.searchsorted(keys[order], queries), len(keys) - 1)
    found = order[at]
    return np.where(keys[found] == queries, found, -1)


# no temporary array of the associativity check holds more entries
_CHUNK_ENTRIES = 1 << 16


def _positions(ends, counts):
    """Each morphism's position among those with the same end (in index
    order), the morphisms grouped by end, and where each group starts."""
    order = np.argsort(ends, kind="stable")
    start = np.cumsum(counts) - counts
    pos = np.empty(len(ends), np.int32)
    pos[order] = np.arange(len(ends)) - start[ends[order]]
    return pos, order, start


def _check_axioms(labels, src, tgt, identity_of, a, b, ab, guards,
                  associative=False):
    """Composition a.b = ab is total on composable pairs, unital and (by
    Light's test, within max_assoc_triples, unless given) associative;
    returns the table (flat, row, ipos) and the mask of Light's set S.

    The table is one int32 block per object y, of shape out(y) x in(y):
    g.f sits in the row of g among the morphisms out of y and the column
    of f among those into y.  The blocks lie end to end in ``flat``;
    ``row[g]`` is where the row of g starts, so g.f is
    ``flat[row[g] + ipos[f]]``.
    """
    n_objects = len(identity_of)
    out_n = np.bincount(src, minlength=n_objects)
    in_n = np.bincount(tgt, minlength=n_objects)
    pos, out_order, out_start = _positions(src, out_n)
    ipos, in_order, in_start = _positions(tgt, in_n)
    sizes = out_n * in_n
    block = np.cumsum(sizes) - sizes
    row = (block[src] + pos * in_n[src]).astype(np.int32)

    wrong = (src[a] != tgt[b]) | (src[ab] != src[b]) | (tgt[ab] != tgt[a])
    if wrong.any():
        i = int(np.argmax(wrong))
        what = ("composition defined on non-composable pair (%r, %r)"
                if src[a[i]] != tgt[b[i]] else
                "composite of (%r, %r) has wrong endpoints")
        raise CategoryError(what % (labels[a[i]], labels[b[i]]))
    flat = np.full(int(sizes.sum()), -1, np.int32)
    flat[row[a] + ipos[b]] = ab
    if (flat < 0).any():
        slot = int(np.argmax(flat < 0))
        y = int(np.searchsorted(block, slot, side="right")) - 1
        r, c = divmod(slot - int(block[y]), int(in_n[y]))
        raise CategoryError("composition missing for composable pair (%r, %r)"
                            % (labels[out_order[out_start[y] + r]],
                               labels[in_order[in_start[y] + c]]))
    if len(ab) != len(flat):
        raise CategoryError("composition given twice for a composable pair")

    every = np.arange(len(labels))
    left = flat[row[identity_of[tgt]] + ipos] != every
    right = flat[row + ipos[identity_of[src]]] != every
    if (left | right).any():
        m = int(np.argmax(left | right))
        raise CategoryError("%s identity fails for %r"
                            % ("left" if left[m] else "right", labels[m]))

    # the composable triples (f, g, h) with middle g
    through = in_n[src] * out_n[tgt]
    gen = _generators(len(labels), identity_of, a, b, ab)
    guards.check(int(through[gen].sum()), "max_assoc_triples",
                 "associativity check (Light's test)")
    if associative:
        return flat, row, ipos, gen
    # Light's test: every triple f: w -> x, g: x -> y, h: y -> z with g a
    # generator, one object x at a time: the pairs (h, g) = (a, b) with
    # src g = x as rows, all f into x as columns, compare h.(g.f) with
    # (h.g).f
    light = np.flatnonzero(gen[b])
    by_x = light[np.argsort(src[b[light]], kind="stable")]
    first = np.searchsorted(src[b[by_x]], np.arange(n_objects + 1))
    for x in range(n_objects):
        nin = int(in_n[x])
        bx = flat[block[x]:block[x] + sizes[x]].reshape(-1, nin)
        step = max(1, _CHUNK_ENTRIES // nin)
        for s in range(first[x], first[x + 1], step):
            rows = by_x[s:min(s + step, first[x + 1])]
            gf = bx[pos[b[rows]]]
            bad = flat[row[a[rows]][:, None] + ipos[gf]] != bx[pos[ab[rows]]]
            if bad.any():
                r, c = np.unravel_index(np.argmax(bad), bad.shape)
                _associativity_fails(labels, in_order[in_start[x] + c],
                                     b[rows[r]], a[rows[r]])
    return flat, row, ipos, gen


def _generators(n_morphisms, identity_of, a, b, ab):
    """A generating set S for Light's associativity test, as a mask: with
    the identities, S generates every morphism under the composition
    a.b = ab.

    The morphisms are ordered identities first, then by how many pairs
    compose to them (fewest first), then by index.  A morphism is left out
    of S when it is an identity or the composite of a pair that both come
    earlier; neither member of that pair is an identity, since i.m = m
    does not come before m.  So by induction on the order each
    non-identity morphism is a composite of members of S.  Once the
    identity laws hold, h.(g.f) == (h.g).f for every g in S and all
    composable h, f implies associativity: the g for which it holds
    contain the identities and are closed under composition
    (Clifford-Preston, The Algebraic Theory of Semigroups I, section 1.2).
    """
    gen = np.ones(n_morphisms, bool)
    gen[identity_of] = False
    order = np.lexsort((np.arange(n_morphisms),
                        np.bincount(ab, minlength=n_morphisms), gen))
    rank = np.empty(n_morphisms, np.int32)
    rank[order] = np.arange(n_morphisms, dtype=np.int32)
    gen[ab[np.maximum(rank[a], rank[b]) < rank[ab]]] = False
    return gen


def _associativity_fails(labels, f, g, h):
    raise CategoryError("associativity fails at (%r, %r, %r)"
                        % (labels[f], labels[g], labels[h]))


# ---------------------------------------------------------------------------
# functors

class FinFunctor:
    """A functor A -> B, kept once as the read-only int64 arrays obj_idx
    and mor_idx: the index in B of the image of each object and morphism
    of A.  Construction checks their lengths and ranges, then sources,
    targets, identities and composition, and raises CategoryError."""

    __slots__ = ("source", "target", "obj_idx", "mor_idx")

    def __init__(self, source, target, obj_idx, mor_idx, guards=DEFAULT):
        A, B = self.source, self.target = source, target
        fo = self.obj_idx = _index_array(obj_idx, A.n_objects, B.n_objects,
                                         "object")
        fm = self.mor_idx = _index_array(mor_idx, A.n_morphisms,
                                         B.n_morphisms, "morphism")
        bad = (B.src[fm] != fo[A.src]) | (B.tgt[fm] != fo[A.tgt])
        if bad.any():
            raise CategoryError("functor breaks src/tgt at %r"
                                % (A.mor_labels[int(np.argmax(bad))],))
        bad = fm[A.identity_of] != B.identity_of[fo]
        if bad.any():
            raise CategoryError("functor breaks identity at %r"
                                % (A.objects[int(np.argmax(bad))],))
        guards.check(len(A.flat), "max_functor_pairs", "functor validation")
        g, f, gf = A.pairs()
        bad = B.compose_many(fm[g], fm[f]) != fm[gf]
        if bad.any():
            i = int(np.argmax(bad))
            raise CategoryError(
                "functor breaks composition at (%r, %r)" %
                (A.mor_labels[g[i]], A.mor_labels[f[i]]))


def _index_array(idx, length, bound, what):
    """idx as a new read-only int64 array of length indices below bound."""
    idx = np.asarray(idx)
    if idx.shape != (length,) or (length and idx.dtype.kind not in "iu"):
        raise CategoryError("functor needs %d %s indices, not %r of %s"
                            % (length, what, idx.shape, idx.dtype))
    idx = idx.astype(np.int64)
    bad = np.flatnonzero((idx < 0) | (idx >= bound))
    if len(bad):
        raise CategoryError("functor sends %s %d to %d, not below %d"
                            % (what, bad[0], idx[bad[0]], bound))
    idx.flags.writeable = False
    return idx


def label_indices(index, labels, missing="%r is not in the category"):
    """Each label's index by the dict index (a FinCat's obj_index or
    mor_index), as an array; a missing label raises CategoryError with
    the message missing % label."""
    try:
        return np.array([index[x] for x in labels], np.int64).reshape(-1)
    except KeyError as exc:
        raise CategoryError(missing % (exc.args[0],))


# ---------------------------------------------------------------------------
# category calculus

def opposite(C, guards=DEFAULT):
    """C^op: g.f in C^op is f.g in C (associativity is inherited)."""
    g, f, gf = C.pairs()
    return _build(C.objects, C.mor_labels, C.tgt, C.src, C.identity_of, f, g,
                  gf, guards)


def product_tuple(cats, guards=DEFAULT):
    """n-ary product with flat tuple labels (objects and morphisms).

    A tuple of indices is numbered in mixed radix, the last factor
    fastest, as itertools.product lists the labels; the composable pairs
    of the product are the tuples of composable pairs of the factors."""
    src = tgt = identity_of = g = f = gf = np.zeros(1, np.int64)
    for c in cats:
        c_g, c_f, c_gf = c.pairs()
        src = _radix(src, c.src, c.n_objects)
        tgt = _radix(tgt, c.tgt, c.n_objects)
        identity_of = _radix(identity_of, c.identity_of, c.n_morphisms)
        g, f, gf = (_radix(x, y, c.n_morphisms)
                    for x, y in ((g, c_g), (f, c_f), (gf, c_gf)))
    return _build(list(itertools.product(*[c.objects for c in cats])),
                  list(itertools.product(*[c.mor_labels for c in cats])),
                  src, tgt, identity_of, g, f, gf, guards)


def _radix(high, low, base):
    """high * base + low for every pair, high-major."""
    return (high[:, None] * base + low).reshape(-1)


def terminal_category():
    return validate_category(["*"], [("id", "*", "*")], {"*": "id"},
                             {("id", "id"): "id"})


def full_subcategory(C, objs, guards=DEFAULT):
    """The full subcategory on the objects objs and its inclusion: the
    subcategory keeps the order of C, so the inclusion's indices are the
    kept ones in increasing order."""
    idx = label_indices(C.obj_index, objs)
    keep = np.zeros(C.n_objects, bool)
    keep[idx] = True
    objs, mors = np.flatnonzero(keep), keep[C.src] & keep[C.tgt]
    if len(objs) != len(idx):
        raise CategoryError("duplicate object labels")
    sub = _subcategory(C, objs, mors, guards)
    return sub, FinFunctor(sub, C, objs, np.flatnonzero(mors), guards)


def _subcategory(C, objs, keep, guards):
    """The subcategory of C on the object indices objs and the morphisms
    where keep is set, with the composition of C.

    C is in canonical order, so its indices already order each set of
    parallel morphisms by their labels' keys; they are passed as mor_rank,
    and no label is keyed again.  Every FinCat comes from _build, so while
    C's table is unchanged (its CRC-32 is C.validated) it has passed
    Light's test and composites copied from it are associative: only
    Light's loop is skipped, and every other check runs."""
    src, tgt = C.src, C.tgt
    mors = np.flatnonzero(keep)
    local_obj = np.full(C.n_objects, -1, np.int64)
    local_obj[objs] = np.arange(len(objs))
    local = np.full(C.n_morphisms, -1, np.int64)
    local[mors] = np.arange(len(mors))
    f, g = _join(tgt[mors], src[mors])
    return _build([C.objects[i] for i in objs],
                  [C.mor_labels[i] for i in mors.tolist()],
                  local_obj[src[mors]], local_obj[tgt[mors]],
                  local[C.identity_of[objs]],
                  g, f, local[C.compose_many(mors[g], mors[f])],
                  guards, mors,
                  associative=zlib.crc32(C.flat) == C.validated)


def is_fully_faithful(F):
    """Whether F maps each A(x, y) bijectively onto B(Fx, Fy): no two
    morphisms of a hom-set share an image (faithful), and then the
    B(Fx, Fy) over all pairs x, y hold no more morphisms than A (full)."""
    A, B = F.source, F.target
    keys = np.sort((A.src * A.n_objects + A.tgt) * B.n_morphisms + F.mor_idx)
    if (keys[1:] == keys[:-1]).any():
        return False
    over = np.bincount(F.obj_idx, minlength=B.n_objects)
    u, v = np.divmod(B._hom_key, max(B.n_objects, 1))
    return int((over[u] * over[v] * np.diff(B._hom_start)).sum()) == \
        A.n_morphisms


def skeleton(C, guards=DEFAULT):
    """Full subcategory on one object per isomorphism class: the first
    object of each class in index order.

    The inclusion of a skeleton is an equivalence, so the classifying
    space is unchanged up to homotopy; nerves can shrink drastically.
    """
    src, tgt, ident = C.src, C.tgt, C.identity_of
    # f and g with src g = tgt f and tgt g = src f; f is an isomorphism
    # when both composites are identities
    f, g = _join(src * C.n_objects + tgt, tgt * C.n_objects + src)
    iso = (C.compose_many(g, f) == ident[src[f]]) & \
        (C.compose_many(f, g) == ident[tgt[f]])
    first = np.arange(C.n_objects)
    np.minimum.at(first, src[f[iso]], tgt[f[iso]])
    reps = np.flatnonzero(first == np.arange(C.n_objects))
    keep = np.zeros(C.n_objects, bool)
    keep[reps] = True
    return _subcategory(C, reps, keep[src] & keep[tgt], guards)


def is_isomorphism_of_categories(F):
    """Whether F (a validated functor) is bijective on objects and arrows."""
    B = F.target
    return all(len(idx) == n and (np.bincount(idx, minlength=n) == 1).all()
               for idx, n in ((F.obj_idx, B.n_objects),
                              (F.mor_idx, B.n_morphisms)))


# ---------------------------------------------------------------------------
# fibers

def left_fiber(F, d, guards=DEFAULT):
    """Left fiber of F over target object d: objects (c, F(c) -> d)."""
    return FiberFamily(F, "left", [F.target.obj_index[d]], guards).build([0])


def right_fiber(F, d, guards=DEFAULT):
    """Right fiber: objects (c, d -> F(c))."""
    return FiberFamily(F, "right", [F.target.obj_index[d]], guards).build([0])


class FiberFamily:
    """The left or right fibers of a functor F: A -> B over the target
    object indices ``over``, side by side as index arrays, before any of
    them is built.

    An object x is (c[x], m[x]) with m: F(c) -> d (left) or d -> F(c)
    (right); ``fiber[x]`` is the position of d in ``over``, and each
    fiber's objects and morphisms are contiguous.  A morphism x -> y is
    u: c[x] -> c[y] with m[x] == m[y].F(u) (left) or m[y] == F(u).m[x]
    (right).  It is determined by its near end, y (left) or x (right), and
    u, which runs over the morphisms of A into (out of) the near end's
    object; it is numbered ``start[near] + upos[u]``, u's position among
    those morphisms.  So the composite (y2, u2).(y1, u1), whose near end is
    y2 (left) or x1 (right), is numbered by arithmetic from u2.u1, and
    each object's identity from its object's identity in A.

    ``source`` is A, and an object's label is (c, label of m), read from
    ``source.objects`` and ``m_labels``.  The pairs of each fiber are
    checked against max_functor_pairs, in the order of ``over``, when the
    family is made.
    """

    def __init__(self, F, side, over, guards=DEFAULT):
        A, B = F.source, F.target
        left = side == "left"
        fo = F.obj_idx
        near_b, far_b = (B.tgt, B.src) if left else (B.src, B.tgt)
        place = np.full(B.n_objects, -1, np.int64)
        place[np.asarray(over, np.int64)] = np.arange(len(over))
        ms = np.flatnonzero(place[near_b] >= 0)
        ms = ms[np.argsort(place[near_b[ms]], kind="stable")]
        k, c = _join(far_b[ms], fo)
        m = ms[k]
        self.side, self.source, self.m_labels = side, A, B.mor_labels
        self.c, self.m, self.fiber = c, m, place[near_b[m]]
        # the morphisms of A at each object: into it (left), out of it (right)
        self._arrows(A.tgt if left else A.src)
        near, u = self.near, self.u
        # the far end (c', m') with m' = m.F(u) (left), F(u).m (right)
        fm = F.mor_idx
        m_far = B.compose_many(m[near], fm[u]) if left else \
            B.compose_many(fm[u], m[near])
        far = _lookup(c * B.n_morphisms + m,
                      (A.src if left else A.tgt)[u] * B.n_morphisms + m_far)
        self.x, self.y = (far, near) if left else (near, far)
        self._close(len(over), guards)

    @classmethod
    def strict_inclusion(cls, F, di, guards=DEFAULT):
        """The left fibers of the inclusion of the strict fiber of F over
        the target object index di into the right fiber F/d (as
        strict_fiber makes them), over each object of F/d in its canonical
        order, and the labels of those objects; neither F/d nor the
        inclusion is built.

        An object of F/d is y = (c', m') with m': d -> F(c').  The left
        fiber over y has as objects the morphisms w: c -> c' of A with
        F(c) = d and F(w) = m', so the family's objects are the morphisms
        of A out of the strict fiber, each in the fiber over (tgt w, F(w)).
        A morphism w.s -> w is a morphism s of the strict fiber into the
        source of w (F(s) = id_d): here the near end is w and u = s.  An
        object's label is (c, ((c, id_d), y, w)), the labels of the right
        fiber's morphism w and of the inclusion's object c.
        """
        self = cls.__new__(cls)
        A, B = F.source, F.target
        fo, fm = F.obj_idx, F.mor_idx
        a_src, a_tgt = A.src, A.tgt
        # the objects of F/d in canonical order, as keys c' |B| + m'
        ms = np.flatnonzero(B.src == di)
        k, cp = _join(B.tgt[ms], fo)
        over = list(zip([A.objects[i] for i in cp.tolist()],
                        [B.mor_labels[i] for i in ms[k].tolist()]))
        order = np.argsort(_dense_rank(over), kind="stable")
        over = [over[i] for i in order.tolist()]
        keys = (cp * B.n_morphisms + ms[k])[order]
        w = np.flatnonzero(fo[a_src] == di)
        fiber = _lookup(keys, a_tgt[w] * B.n_morphisms + fm[w])
        if (fiber < 0).any():
            raise CategoryError(
                "the image of %r is no object of the right fiber over %r"
                % (A.mor_labels[w[np.argmax(fiber < 0)]], B.objects[di]))
        by_fiber = np.argsort(fiber, kind="stable")
        w, fiber = w[by_fiber], fiber[by_fiber]
        self.side, self.source = "left", A
        self.c, self.m, self.fiber = a_src[w], np.arange(len(w)), fiber
        id_d = B.mor_labels[B.identity_of[di]]
        self.m_labels = [((A.objects[c], id_d), over[f], A.mor_labels[x])
                         for c, f, x in zip(self.c.tolist(), fiber.tolist(),
                                            w.tolist())]
        # the morphisms s of the strict fiber into each object's source
        self._arrows(a_tgt, fm == B.identity_of[di])
        number = np.full(A.n_morphisms, -1, np.int64)
        number[w] = np.arange(len(w))
        self.x = number[A.compose_many(w[self.near], self.u)]
        self.y = self.near
        self._close(len(over), guards)
        return self, over

    def _arrows(self, at, usable=None):
        """The morphisms u of A where ``usable`` holds (every one when it
        is None) at each object's c, by at[u] == c: sets upos, start, near
        and u."""
        n_objects = self.source.n_objects
        ok = np.arange(len(at)) if usable is None else np.flatnonzero(usable)
        at_n = np.bincount(at[ok], minlength=n_objects)
        pos, at_order, at_start = _positions(at[ok], at_n)
        self.upos = np.full(len(at), -1, np.int64)
        self.upos[ok] = pos
        deg = at_n[self.c]
        self.start = np.cumsum(deg) - deg
        self.near = np.repeat(np.arange(len(self.c)), deg)
        self.u = ok[at_order[np.repeat(at_start[self.c] - self.start, deg) +
                             np.arange(len(self.near))]]

    def _close(self, n_fibers, guards):
        """Identities, the ranges of each fiber, the ranks that order
        parallel morphisms, and the pairs guard."""
        A = self.source
        self.guards = guards
        self.identity_of = self.start + self.upos[A.identity_of[self.c]]
        # (y2, u2) . (y1, u1) with x2 == y1, one per composable pair,
        # counted fiber by fiber before any pair is built
        n = len(self.c)
        per_object = np.bincount(self.y, minlength=n) * \
            np.bincount(self.x, minlength=n)
        per_fiber = np.zeros(n_fibers, np.int64)
        np.add.at(per_fiber, self.fiber, per_object)
        for pairs in per_fiber.tolist():
            guards.check(pairs, "max_functor_pairs",
                         "%s fiber composition" % self.side)
        self.obj_start = np.searchsorted(self.fiber, np.arange(n_fibers + 1))
        self.mor_start = np.searchsorted(self.fiber[self.near],
                                         np.arange(n_fibers + 1))
        # parallel labels (x, y, u) differ in u only, and repr(label) ends
        # with repr(u) + ")", so that string orders them
        us = np.flatnonzero(np.bincount(self.u, minlength=A.n_morphisms))
        self.u_rank = np.zeros(A.n_morphisms, np.int64)
        self.u_rank[us] = _dense_rank([A.mor_labels[i] for i in us.tolist()],
                                      lambda w: repr(w) + ")")

    def has_cone_point(self):
        """Whether each fiber has a terminal or an initial object, read
        from the hom-set sizes: y is terminal (x initial) when every object
        of its fiber has exactly one morphism to y (from x)."""
        n = len(self.c)
        hom = _runs(np.sort(self.x * n + self.y))
        size = np.diff(self.obj_start)[self.fiber]
        cone = (_single_arrow_counts(*hom, n, 1) == size) | \
            (_single_arrow_counts(*hom, n, 0) == size)
        hit = np.zeros(len(self.obj_start) - 1, bool)
        hit[self.fiber[cone]] = True
        return hit

    def build(self, which):
        """The fibers at the positions ``which`` of ``over``, validated
        together as one category, their disjoint union: its Light triples
        are those of the fibers, and max_assoc_triples bounds their sum."""
        A = self.source
        which = np.asarray(which, np.int64).reshape(-1)
        objs = _ranges(self.obj_start, which)
        mors = _ranges(self.mor_start, which)
        local = np.full(len(self.c), -1, np.int64)
        local[objs] = np.arange(len(objs))
        x, y, u = local[self.x[mors]], local[self.y[mors]], self.u[mors]
        f, g = _join(y, x)
        # the composite's near end is that of g (left) or of f (right)
        composite = self.start[self.near[mors][g if self.side == "left" else f]]
        composite += self.upos[A.compose_many(u[g], u[f])]
        numbered = np.full(len(self.near), -1, np.int64)
        numbered[mors] = np.arange(len(mors))
        composite = numbered[composite]
        objects = list(zip([A.objects[i] for i in self.c[objs].tolist()],
                           [self.m_labels[i] for i in self.m[objs].tolist()]))
        labels = [(objects[s], objects[t], A.mor_labels[w])
                  for s, t, w in zip(x.tolist(), y.tolist(), u.tolist())]
        return _build(objects, labels, x, y,
                      numbered[self.identity_of[objs]], g, f, composite,
                      self.guards, self.u_rank[u])


def _ranges(start, which):
    """The indices start[w] <= i < start[w + 1] for each w in which."""
    lo, hi = start[which], start[which + 1]
    n = hi - lo
    return np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(int(n.sum()))


def strict_fiber(F, d, guards=DEFAULT):
    """Strict fiber (objects with F(c) = d on the nose) and its inclusion
    into the right fiber."""
    A, B = F.source, F.target
    di = B.obj_index[d]
    over = F.obj_idx == di
    id_d = B.identity_of[di]
    fib = _subcategory(A, np.flatnonzero(over),
                       over[A.src] & over[A.tgt] & (F.mor_idx == id_d), guards)
    rf = right_fiber(F, d, guards)
    objects = [(o, B.mor_labels[id_d]) for o in fib.objects]
    incl = FinFunctor(
        fib, rf, label_indices(rf.obj_index, objects),
        label_indices(rf.mor_index, [
            (objects[s], objects[t], m) for m, s, t in
            zip(fib.mor_labels, fib.src.tolist(), fib.tgt.tolist())]),
        guards)
    return fib, rf, incl


# ---------------------------------------------------------------------------
# twisted arrows

def twisted_arrow_op(C, guards=DEFAULT):
    """The category Tw(C)^op: objects are morphisms of C, a map f -> f' is a
    factorisation f = b . f' . a, together with the projection to C sending
    f: x -> y to x (a colim-equivalence)."""
    n = C.n_morphisms
    src, tgt, ident = C.src, C.tgt, C.identity_of
    # the composable triples (b, f', a) with f = b . f' . a: a pair
    # (f', a) joined to a pair (b, f' . a)
    g, f, gf = C.pairs()
    i, j = _join(gf, f)
    f, fp, a, b = gf[j], g[i], f[i], g[j]
    # the morphism f -> f' is determined by (f', a, b)
    keys = (fp * n + a) * n + b
    # (f', f'', a2, b2) . (f, f', a1, b1) = (f, f'', a2 . a1, b1 . b2)
    first, second = _join(fp, f)
    composite = _lookup(keys, (fp[second] * n + C.compose_many(
        a[second], a[first])) * n + C.compose_many(b[first], b[second]))
    identity_of = _lookup(keys, (np.arange(n) * n + ident[src]) * n +
                          ident[tgt])
    labels = [tuple(C.mor_labels[x] for x in t)
              for t in zip(f.tolist(), fp.tolist(), a.tolist(), b.tolist())]
    tw, obj_order, mor_order = _build(
        C.mor_labels, labels, f, fp, identity_of, second, first, composite,
        guards, _pair_rank(C.mor_labels, a, b), with_order=True)
    # the objects of Tw(C)^op are the morphisms of C
    return tw, FinFunctor(tw, C, src[obj_order], a[mor_order], guards)


def _pair_rank(parts, a, b):
    """mor_rank for labels (..., parts[a], parts[b]) whose leading entries
    are fixed by source and target, from one key per part, or None.

    repr(label) ends with repr(parts[a]) + ", " + repr(parts[b]) + ")", and
    the ranks of those two strings order it, unless one first string is a
    proper prefix of another: then the second string would decide, and
    None lets _build key the labels.  Sorted, a string that is a prefix of
    another is followed by one that starts with it."""
    head = [repr(w) + ", " for w in parts]
    ordered = sorted(set(head))
    if any(t.startswith(s) for s, t in zip(ordered, ordered[1:])):
        return None
    a_rank = _dense_rank(head, lambda k: k)
    b_rank = _dense_rank(parts, lambda w: repr(w) + ")")
    return a_rank[a] * len(parts) + b_rank[b]


# ---------------------------------------------------------------------------
# posets, groups, actions

class Poset:
    """Finite poset: rel[i, j] holds when elements[i] <= elements[j]."""

    def __init__(self, elements, rel):
        self.elements = tuple(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        rel = np.array(rel, bool).reshape(n, n)
        reflexive = np.diagonal(rel)
        if not reflexive.all():
            raise CategoryError("poset relation is not reflexive at %r"
                                % (self.elements[int(np.argmin(reflexive))],))
        if (rel & rel.T & ~np.eye(n, dtype=bool)).any():
            raise CategoryError("poset relation is not antisymmetric")
        if (np.matmul(rel, rel) & ~rel).any():
            raise CategoryError("poset relation is not transitive")
        self.rel = rel

    def leq(self, a, b):
        return bool(self.rel[self.index[a], self.index[b]])

    def __len__(self):
        return len(self.elements)


def poset_category(P, guards=DEFAULT):
    """The poset viewed as a category (one morphism per related pair)."""
    n = len(P)
    # the morphism (a, b), a <= b, has the key a n + b
    a, b = np.nonzero(P.rel)
    keys = a * n + b
    # (b, c) . (a, b) = (a, c)
    first, second = _join(b, a)
    composite = _lookup(keys, a[first] * n + b[second])
    identity_of = _lookup(keys, np.arange(n) * (n + 1))
    labels = list(zip([P.elements[i] for i in a.tolist()],
                      [P.elements[i] for i in b.tolist()]))
    return _build(list(P.elements), labels, a, b, identity_of, second, first,
                  composite, guards)


class Group:
    """Finite group: table[i, j] is the index of elements[i] elements[j]."""

    def __init__(self, elements, table, identity):
        self.elements = tuple(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.identity = identity
        n = len(self.elements)
        table = np.asarray(table)
        if table.shape != (n, n) or table.dtype.kind not in "iu" or \
                ((table < 0) | (table >= n)).any():
            raise CategoryError("group table is not a %d x %d table of "
                                "element indices" % (n, n))
        every = np.arange(n)
        e = self.index[identity]
        if (table[e] != every).any() or (table[:, e] != every).any():
            raise CategoryError("group identity fails")
        unit = table == e
        missing = ~(unit & unit.T).any(axis=1)
        if missing.any():
            raise CategoryError("group element %r has no inverse"
                                % (self.elements[int(np.argmax(missing))],))
        self.table = table

    def __len__(self):
        return len(self.elements)


def group_category(G, guards=DEFAULT):
    """The one-object category B(G) on the object "*"; its |G|^2
    composable pairs are checked against max_composable_pairs before any
    is listed."""
    n = len(G)
    guards.check(n * n, "max_composable_pairs", "group category")
    # ("*", a) . ("*", b) = ("*", ab) for every pair
    a, b = np.divmod(np.arange(n * n), n)
    ends = np.zeros(n, np.int64)
    return _build(["*"], [("*", g) for g in G.elements], ends, ends,
                  [G.index[G.identity]], a, b, G.table, guards)


def action_category(G, P, moved, guards=DEFAULT):
    """Action category G\\\\P: objects the poset elements, morphisms p -> p'
    the group elements g with g.p <= p'.  moved[g, p] is the index of g.p,
    for element indices g of G and p of P."""
    n = len(P)
    leq = P.rel
    if (leq & ~leq[moved[:, :, None], moved[:, None, :]]).any():
        raise CategoryError("group does not act by poset automorphisms")
    # the morphism (g, p, q), g.p <= q, has the key (g n + p) n + q
    g, p, q = np.nonzero(leq[moved])
    keys = (g * n + p) * n + q
    # (h, q, r) . (g, p, q) = (hg, p, r)
    first, second = _join(q, p)
    hg = G.table[g[second], g[first]].astype(np.int64)
    composite = _lookup(keys, (hg * n + p[first]) * n + q[second])
    e = G.index[G.identity]
    identity_of = _lookup(keys, e * n * n + np.arange(n) * (n + 1))
    labels = list(zip([G.elements[i] for i in g.tolist()],
                      [P.elements[i] for i in p.tolist()],
                      [P.elements[i] for i in q.tolist()]))
    return _build(list(P.elements), labels, p, q, identity_of, second, first,
                  composite, guards)


def check_poset_regularity(P, moved):
    """Exhaustively verify x <= g.x implies x = g.x, where moved[g, x] is
    the index of g.x.  Returns None, or the witness (g, x) that comes first
    in row-major order of moved: the row index g and the element x."""
    x = np.arange(len(P))
    bad = P.rel[x, moved] & (moved != x)
    if not bad.any():
        return None
    g, i = np.unravel_index(np.argmax(bad), bad.shape)
    return (int(g), P.elements[i])
