"""Finite 1-categories with validated composition tables.

A FinCat stores objects and morphisms as opaque hashable labels with a
total composition table on composable pairs.  Construction validates the
category axioms on int32 arrays of the table: totality and identity
neutrality always, associativity on every composable triple whenever
their number is at most the guard max_assoc_triples, whatever the assoc
mode.  Only past the guard do the modes differ: "exhaustive" raises
GuardExceeded, while "auto" and "sampled" (for categories whose
associativity is inherited from a group multiplication) check a fixed
pseudo-random sample of triples.

Also here: functors, the basic category calculus (opposites, products,
full subcategories, isomorphism/equivalence tests), comma-style fibers,
the twisted arrow category, group actions on posets and action
categories.
"""

from __future__ import annotations

import itertools

import numpy as np

from .guards import DEFAULT, GuardExceeded


class CategoryError(ValueError):
    """Raised when validation of a category or functor fails."""


class FinCat:
    __slots__ = ("objects", "obj_index", "mor_labels", "mor_index",
                 "src", "tgt", "identity_of", "comp", "_hom", "_iso_cache")

    def __init__(self, objects, mor_labels, src, tgt, identity_of, comp):
        self.objects = tuple(objects)
        self.obj_index = {o: i for i, o in enumerate(self.objects)}
        self.mor_labels = tuple(mor_labels)
        self.mor_index = {m: i for i, m in enumerate(self.mor_labels)}
        self.src = tuple(src)
        self.tgt = tuple(tgt)
        self.identity_of = tuple(identity_of)
        self.comp = comp  # dict (g, f) -> g.f  for src(g) == tgt(f)
        hom = {}
        for i in range(len(self.mor_labels)):
            hom.setdefault((self.src[i], self.tgt[i]), []).append(i)
        self._hom = hom
        self._iso_cache = {}

    # -- basic queries ------------------------------------------------------

    @property
    def n_objects(self):
        return len(self.objects)

    @property
    def n_morphisms(self):
        return len(self.mor_labels)

    def hom(self, x, y):
        """Morphism indices x -> y (objects given as labels)."""
        return list(self._hom.get((self.obj_index[x], self.obj_index[y]), []))

    def hom_idx(self, xi, yi):
        return self._hom.get((xi, yi), [])

    def compose(self, g, f):
        """g.f for composable indices (tgt(f) == src(g))."""
        return self.comp[(g, f)]

    def is_identity(self, f):
        return self.identity_of[self.src[f]] == f

    def is_iso(self, f):
        """f invertible: exists g with g.f and f.g identities."""
        if f in self._iso_cache:
            return self._iso_cache[f]
        out = None
        for g in self.hom_idx(self.tgt[f], self.src[f]):
            if self.comp[(g, f)] == self.identity_of[self.src[f]] and \
               self.comp[(f, g)] == self.identity_of[self.tgt[f]]:
                out = g
                break
        self._iso_cache[f] = out
        return out

    def non_identity_morphisms(self):
        ids = set(self.identity_of)
        return [i for i in range(self.n_morphisms) if i not in ids]

    def morphisms_from(self, xi):
        return [i for i in range(self.n_morphisms) if self.src[i] == xi]

    def morphisms_to(self, xi):
        return [i for i in range(self.n_morphisms) if self.tgt[i] == xi]

    def has_terminal_object(self):
        for yi in range(self.n_objects):
            if all(len(self.hom_idx(xi, yi)) == 1 for xi in range(self.n_objects)):
                return self.objects[yi]
        return None

    def has_initial_object(self):
        for xi in range(self.n_objects):
            if all(len(self.hom_idx(xi, yi)) == 1 for yi in range(self.n_objects)):
                return self.objects[xi]
        return None

    def is_connected(self):
        if self.n_objects == 0:
            return False
        seen = {0}
        frontier = [0]
        adj = {}
        for i in range(self.n_morphisms):
            adj.setdefault(self.src[i], set()).add(self.tgt[i])
            adj.setdefault(self.tgt[i], set()).add(self.src[i])
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj.get(x, ()):
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return len(seen) == self.n_objects

    def triple_count(self):
        """Number of composable triples (for associativity-cost estimates)."""
        in_deg = [0] * self.n_objects
        out_deg = [0] * self.n_objects
        for i in range(self.n_morphisms):
            out_deg[self.src[i]] += 1
            in_deg[self.tgt[i]] += 1
        return sum(in_deg[self.src[g]] * out_deg[self.tgt[g]]
                   for g in range(self.n_morphisms))

    def __repr__(self):
        return "FinCat(%d objects, %d morphisms)" % (self.n_objects, self.n_morphisms)


def validate_category(objects, morphisms, identities, composition,
                      guards=DEFAULT, assoc="exhaustive"):
    """Build a FinCat from raw tables, checking the category axioms.

    objects: iterable of hashable labels.
    morphisms: iterable of (label, src_label, tgt_label).
    identities: dict object label -> identity morphism label.
    composition: dict (g_label, f_label) -> label, defined exactly on
        composable pairs (src g == tgt f).
    assoc: what to do when the composable triples outnumber
        guards.max_assoc_triples: "exhaustive" raises GuardExceeded,
        "auto" and "sampled" check a fixed pseudo-random sample of
        100,000 triples (for categories whose associativity is inherited
        from a validated group structure).  Under the guard every mode
        checks every triple.
    """
    objects = sorted(objects, key=_canon_key)
    obj_index = {o: i for i, o in enumerate(objects)}
    mor_list = sorted(morphisms, key=lambda m: (_canon_key(m[1]), _canon_key(m[2]),
                                                _canon_key(m[0])))
    labels = [m[0] for m in mor_list]
    if len(set(labels)) != len(labels):
        raise CategoryError("duplicate morphism labels")
    mor_index = {m: i for i, m in enumerate(labels)}
    try:
        src = [obj_index[m[1]] for m in mor_list]
        tgt = [obj_index[m[2]] for m in mor_list]
    except KeyError as exc:
        raise CategoryError("morphism endpoint %r is not an object" % (exc.args[0],))
    identity_of = [None] * len(objects)
    for o, m in identities.items():
        if o not in obj_index:
            raise CategoryError("identity given for %r, which is not an object"
                                % (o,))
        if m not in mor_index:
            raise CategoryError("identity %r of %r is not a morphism" % (m, o))
        identity_of[obj_index[o]] = mor_index[m]
    for i, m in enumerate(identity_of):
        if m is None:
            raise CategoryError("missing identity for object %r" % (objects[i],))
        if src[m] != i or tgt[m] != i:
            raise CategoryError("identity of %r is not an endomorphism" % (objects[i],))
    try:
        pairs = [(mor_index[g], mor_index[f]) for g, f in composition]
        composites = [mor_index[h] for h in composition.values()]
    except KeyError as exc:
        raise CategoryError("composition names %r, which is not a morphism"
                            % (exc.args[0],))
    cat = FinCat(objects, labels, src, tgt, identity_of, dict(zip(pairs, composites)))
    _check_axioms(cat, pairs, composites, guards, assoc)
    return cat


def _canon_key(label):
    # stable total order on heterogeneous labels
    return (str(type(label)), repr(label))


# no temporary array of the associativity check holds more entries
_CHUNK_ENTRIES = 1 << 16
# past max_assoc_triples, "auto" and "sampled" check at most this many
_SAMPLE_TRIPLES = 100_000


def _positions(ends, counts):
    """Each morphism's position among those with the same end (in index
    order), the morphisms grouped by end, and where each group starts."""
    order = np.argsort(ends, kind="stable")
    start = np.cumsum(counts) - counts
    pos = np.empty(len(ends), np.int32)
    pos[order] = np.arange(len(ends)) - start[ends[order]]
    return pos, order, start


def _check_axioms(cat, pairs, composites, guards, assoc):
    """Composition is total on composable pairs, unital and associative.

    The table is one int32 block per object y, of shape out(y) x in(y):
    g.f sits in the row of g among the morphisms out of y and the column
    of f among those into y.  The blocks lie end to end in ``flat``;
    ``row[g]`` is where the row of g starts, so g.f is
    ``flat[row[g] + ipos[f]]``.
    """
    labels = cat.mor_labels
    src = np.array(cat.src, np.int64)
    tgt = np.array(cat.tgt, np.int64)
    out_n = np.bincount(src, minlength=cat.n_objects)
    in_n = np.bincount(tgt, minlength=cat.n_objects)
    pos, out_order, out_start = _positions(src, out_n)
    ipos, in_order, in_start = _positions(tgt, in_n)
    sizes = out_n * in_n
    block = np.cumsum(sizes) - sizes
    row = (block[src] + pos * in_n[src]).astype(np.int32)

    # the pairs (a, b) with a.b = ab
    ab_pairs = np.array(pairs, np.int64).reshape(-1, 2)
    a, b = ab_pairs[:, 0], ab_pairs[:, 1]
    ab = np.array(composites, np.int64)
    wrong = (src[a] != tgt[b]) | (src[ab] != src[b]) | (tgt[ab] != tgt[a])
    if wrong.any():
        i = int(np.argmax(wrong))
        what = ("composition defined on non-composable pair (%r, %r)"
                if src[a[i]] != tgt[b[i]] else
                "composite of (%r, %r) has wrong endpoints")
        raise CategoryError(what % (labels[a[i]], labels[b[i]]))
    flat = np.full(int(sizes.sum()), -1, np.int32)
    flat[row[a] + ipos[b]] = ab
    if len(ab) < len(flat):
        slot = int(np.argmax(flat < 0))
        y = int(np.searchsorted(block, slot, side="right")) - 1
        r, c = divmod(slot - int(block[y]), int(in_n[y]))
        raise CategoryError("composition missing for composable pair (%r, %r)"
                            % (labels[out_order[out_start[y] + r]],
                               labels[in_order[in_start[y] + c]]))

    every = np.arange(cat.n_morphisms)
    ident = np.array(cat.identity_of, np.int64)
    left = flat[row[ident[tgt]] + ipos] != every
    right = flat[row + ipos[ident[src]]] != every
    if (left | right).any():
        m = int(np.argmax(left | right))
        raise CategoryError("%s identity fails for %r"
                            % ("left" if left[m] else "right", labels[m]))

    total = int((in_n[src] * out_n[tgt]).sum())
    if total > guards.max_assoc_triples:
        if assoc == "exhaustive":
            raise GuardExceeded(
                "associativity check needs %d triples > max_assoc_triples=%d; "
                "use assoc='sampled' for group-derived categories" %
                (total, guards.max_assoc_triples))
        f, g, h = _sampled_triples(min(total, _SAMPLE_TRIPLES), tgt, out_n,
                                   out_order, out_start)
        gf = flat[row[g] + ipos[f]]
        hg = flat[row[h] + ipos[g]]
        bad = flat[row[h] + ipos[gf]] != flat[row[hg] + ipos[f]]
        if bad.any():
            i = int(np.argmax(bad))
            _associativity_fails(labels, f[i], g[i], h[i])
        return
    # every triple f: w -> x, g: x -> y, h: y -> z, one object x at a
    # time: the pairs (h, g) = (a, b) with src g = x as rows, all f into x
    # as columns, compare h.(g.f) with (h.g).f
    by_x = np.argsort(src[b], kind="stable")
    first = np.searchsorted(src[b][by_x], np.arange(cat.n_objects + 1))
    for x in range(cat.n_objects):
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


def _associativity_fails(labels, f, g, h):
    raise CategoryError("associativity fails at (%r, %r, %r)"
                        % (labels[f], labels[g], labels[h]))


def _sampled_triples(count, tgt, out_n, out_order, out_start):
    """The fixed sample (f, g, h): triple k reads state k of the 64-bit
    LCG x -> 6364136223846793005 x + 1442695040888963407 from 987654321;
    f is the state mod the morphism count, g and h are picked among the
    morphisms out of the previous target by the state's bits from 24 and
    from 44 up.  State k is a^k x_0 + c (1 + a + ... + a^(k-1)), wrapping
    mod 2^64 as uint64 does."""
    power = np.multiply.accumulate(np.full(count, 6364136223846793005, np.uint64))
    geometric = np.cumsum(np.concatenate((np.ones(1, np.uint64), power[:-1])),
                          dtype=np.uint64)
    state = power * np.uint64(987654321) + geometric * np.uint64(1442695040888963407)

    def pick_after(m, shift):
        y = tgt[m]
        k = (state >> np.uint64(shift)) % out_n[y].astype(np.uint64)
        return out_order[out_start[y] + k.astype(np.int64)]

    f = (state % np.uint64(len(tgt))).astype(np.int64)
    g = pick_after(f, 24)
    return f, g, pick_after(g, 44)


# ---------------------------------------------------------------------------
# functors

class FinFunctor:
    __slots__ = ("source", "target", "obj_map", "mor_map")

    def __init__(self, source, target, obj_map, mor_map, guards=DEFAULT):
        """obj_map / mor_map are dicts on labels; validated on construction."""
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.mor_map = dict(mor_map)
        self._validate(guards)

    def _validate(self, guards):
        A, B = self.source, self.target
        for o in A.objects:
            if o not in self.obj_map:
                raise CategoryError("functor misses object %r" % (o,))
            if self.obj_map[o] not in B.obj_index:
                raise CategoryError("functor image %r not in target" % (self.obj_map[o],))
        for m in A.mor_labels:
            if m not in self.mor_map:
                raise CategoryError("functor misses morphism %r" % (m,))
            if self.mor_map[m] not in B.mor_index:
                raise CategoryError("functor image %r not in target" % (self.mor_map[m],))
        fo = [B.obj_index[self.obj_map[o]] for o in A.objects]
        fm = [B.mor_index[self.mor_map[m]] for m in A.mor_labels]
        for i in range(A.n_morphisms):
            if B.src[fm[i]] != fo[A.src[i]] or B.tgt[fm[i]] != fo[A.tgt[i]]:
                raise CategoryError("functor breaks src/tgt at %r" % (A.mor_labels[i],))
        for oi in range(A.n_objects):
            if fm[A.identity_of[oi]] != B.identity_of[fo[oi]]:
                raise CategoryError("functor breaks identity at %r" % (A.objects[oi],))
        pairs = ((g, f) for (g, f) in A.comp)
        n_pairs = len(A.comp)
        if n_pairs > guards.max_functor_pairs:
            raise GuardExceeded("functor validation needs %d pairs" % n_pairs)
        comp = A.comp
        for (g, f) in pairs:
            if B.comp[(fm[g], fm[f])] != fm[comp[(g, f)]]:
                raise CategoryError(
                    "functor breaks composition at (%r, %r)" %
                    (A.mor_labels[g], A.mor_labels[f]))

    def om(self, o):
        return self.obj_map[o]

    def mm(self, m):
        return self.mor_map[m]

    def mor_image_idx(self, i):
        return self.target.mor_index[self.mor_map[self.source.mor_labels[i]]]

    def obj_image_idx(self, i):
        return self.target.obj_index[self.obj_map[self.source.objects[i]]]


def identity_functor(C):
    return FinFunctor(C, C, {o: o for o in C.objects},
                      {m: m for m in C.mor_labels})


# ---------------------------------------------------------------------------
# category calculus

def opposite(C):
    comp = {(f, g): h for (g, f), h in C.comp.items()}
    morphs = [(C.mor_labels[i], C.objects[C.tgt[i]], C.objects[C.src[i]])
              for i in range(C.n_morphisms)]
    idents = {C.objects[i]: C.mor_labels[C.identity_of[i]]
              for i in range(C.n_objects)}
    return validate_category(
        C.objects, morphs, idents,
        {(C.mor_labels[g], C.mor_labels[f]): C.mor_labels[h]
         for (g, f), h in comp.items()},
        assoc="sampled")  # associativity is inherited from C


def product(C, D):
    objects = [(c, d) for c in C.objects for d in D.objects]
    morphs = []
    comp = {}
    for i in range(C.n_morphisms):
        for j in range(D.n_morphisms):
            lbl = (C.mor_labels[i], D.mor_labels[j])
            morphs.append((lbl,
                           (C.objects[C.src[i]], D.objects[D.src[j]]),
                           (C.objects[C.tgt[i]], D.objects[D.tgt[j]])))
    for (g1, f1), h1 in C.comp.items():
        for (g2, f2), h2 in D.comp.items():
            comp[((C.mor_labels[g1], D.mor_labels[g2]),
                  (C.mor_labels[f1], D.mor_labels[f2]))] = \
                (C.mor_labels[h1], D.mor_labels[h2])
    idents = {(c, d): (C.mor_labels[C.identity_of[C.obj_index[c]]],
                       D.mor_labels[D.identity_of[D.obj_index[d]]])
              for c in C.objects for d in D.objects}
    return validate_category(objects, morphs, idents, comp, assoc="sampled")


def product_tuple(cats):
    """n-ary product with flat tuple labels (objects and morphisms)."""
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
        for (ft, fs, ftg) in morphs:
            ok = all(c.src[c.mor_index[g]] == c.tgt[c.mor_index[f]]
                     for c, g, f in zip(cats, gt, ft))
            if ok:
                comp[(gt, ft)] = tuple(
                    c.mor_labels[c.comp[(c.mor_index[g], c.mor_index[f])]]
                    for c, g, f in zip(cats, gt, ft))
    return validate_category(obj_tuples, morphs, idents, comp, assoc="auto")


def terminal_category():
    return validate_category(["*"], [("id", "*", "*")], {"*": "id"},
                             {("id", "id"): "id"})


def full_subcategory(C, objs):
    objs = list(objs)
    for o in objs:
        if o not in C.obj_index:
            raise CategoryError("object %r not in category" % (o,))
    keep_obj = {C.obj_index[o] for o in objs}
    keep_mor = [i for i in range(C.n_morphisms)
                if C.src[i] in keep_obj and C.tgt[i] in keep_obj]
    keep_set = set(keep_mor)
    morphs = [(C.mor_labels[i], C.objects[C.src[i]], C.objects[C.tgt[i]])
              for i in keep_mor]
    idents = {C.objects[i]: C.mor_labels[C.identity_of[i]] for i in keep_obj}
    comp = {(C.mor_labels[g], C.mor_labels[f]): C.mor_labels[h]
            for (g, f), h in C.comp.items() if g in keep_set and f in keep_set}
    inclusion_pairs = ({o: o for o in objs},
                       {C.mor_labels[i]: C.mor_labels[i] for i in keep_mor})
    sub = validate_category(objs, morphs, idents, comp, assoc="sampled")
    incl = FinFunctor(sub, C, *inclusion_pairs)
    return sub, incl


def is_fully_faithful(F):
    A, B = F.source, F.target
    for xi in range(A.n_objects):
        for yi in range(A.n_objects):
            dom = A.hom_idx(xi, yi)
            images = {F.mor_image_idx(i) for i in dom}
            cod = B.hom_idx(F.obj_image_idx(xi), F.obj_image_idx(yi))
            if len(images) != len(dom) or images != set(cod):
                return False
    return True


def is_essentially_surjective(F):
    A, B = F.source, F.target
    image = {F.obj_image_idx(i) for i in range(A.n_objects)}
    for yi in range(B.n_objects):
        if yi in image:
            continue
        if not any(B.is_iso(f) is not None and B.tgt[f] == yi
                   for xi in image for f in B.hom_idx(xi, yi)):
            return False
    return True


def is_equivalence(F):
    return is_fully_faithful(F) and is_essentially_surjective(F)


def skeleton(C):
    """Full subcategory on one object per isomorphism class.

    The inclusion of a skeleton is an equivalence, so the classifying
    space is unchanged up to homotopy; nerves can shrink drastically.
    """
    reps = []
    rep_idx = []
    for xi in range(C.n_objects):
        found = False
        for ri in rep_idx:
            if any(C.is_iso(f) is not None for f in C.hom_idx(xi, ri)):
                found = True
                break
        if not found:
            reps.append(C.objects[xi])
            rep_idx.append(xi)
    sub, incl = full_subcategory(C, reps)
    return sub


def is_isomorphism_of_categories(F):
    A, B = F.source, F.target
    if A.n_objects != B.n_objects or A.n_morphisms != B.n_morphisms:
        return False
    if len({F.obj_map[o] for o in A.objects}) != A.n_objects:
        return False
    if len({F.mor_map[m] for m in A.mor_labels}) != A.n_morphisms:
        return False
    return True  # functoriality was validated at construction


# ---------------------------------------------------------------------------
# fibers

def left_fiber(F, d):
    """Left fiber of F over target object d: objects (c, F(c) -> d)."""
    return _fiber(F, d, "left")


def right_fiber(F, d):
    """Right fiber: objects (c, d -> F(c))."""
    return _fiber(F, d, "right")


def _fiber(F, d, side):
    A, B = F.source, F.target
    di = B.obj_index[d]
    objects = []
    for ci in range(A.n_objects):
        fci = F.obj_image_idx(ci)
        homs = B.hom_idx(fci, di) if side == "left" else B.hom_idx(di, fci)
        for m in homs:
            objects.append((A.objects[ci], B.mor_labels[m]))
    morphs = []
    idents = {}
    comp = {}
    obj_set = set(objects)
    mors_of = {}
    # a morphism (c,m) -> (c',m') is u: c -> c' with
    # (left)  m == m' . F(u)      (right)  m' == F(u) . m
    for (c, m) in objects:
        ci = A.obj_index[c]
        mi = B.mor_index[m]
        for u in A.morphisms_from(ci):
            cpi = A.tgt[u]
            fu = F.mor_image_idx(u)
            if side == "left":
                # m factors: find m' with  m = m' . F(u)
                for mp in B.hom_idx(F.obj_image_idx(cpi), di):
                    if B.comp[(mp, fu)] == mi:
                        tgt_obj = (A.objects[cpi], B.mor_labels[mp])
                        if tgt_obj in obj_set:
                            lbl = ((c, m), tgt_obj, A.mor_labels[u])
                            morphs.append((lbl, (c, m), tgt_obj))
            else:
                mp = B.comp[(fu, mi)]
                tgt_obj = (A.objects[cpi], B.mor_labels[mp])
                if tgt_obj in obj_set:
                    lbl = ((c, m), tgt_obj, A.mor_labels[u])
                    morphs.append((lbl, (c, m), tgt_obj))
    for (c, m) in objects:
        idents[(c, m)] = ((c, m), (c, m),
                          A.mor_labels[A.identity_of[A.obj_index[c]]])
    for (lbl1, s1, t1) in morphs:
        mors_of.setdefault(s1, []).append(lbl1)
    for (lbl1, s1, t1) in morphs:
        for lbl2 in mors_of.get(t1, ()):
            u1 = A.mor_index[lbl1[2]]
            u2 = A.mor_index[lbl2[2]]
            u21 = A.comp[(u2, u1)]
            comp[(lbl2, lbl1)] = (s1, lbl2[1], A.mor_labels[u21])
    return validate_category(objects, morphs, idents, comp, assoc="sampled")


def strict_fiber(F, d):
    """Strict fiber (objects with F(c) = d on the nose) and its inclusion
    into the right fiber."""
    A, B = F.source, F.target
    di = B.obj_index[d]
    objs = [A.objects[ci] for ci in range(A.n_objects)
            if F.obj_image_idx(ci) == di]
    id_d = B.identity_of[di]
    keep = []
    for i in range(A.n_morphisms):
        if A.objects[A.src[i]] in objs and A.objects[A.tgt[i]] in objs and \
           F.mor_image_idx(i) == id_d:
            keep.append(i)
    keep_set = set(keep)
    morphs = [(A.mor_labels[i], A.objects[A.src[i]], A.objects[A.tgt[i]])
              for i in keep]
    idents = {o: A.mor_labels[A.identity_of[A.obj_index[o]]] for o in objs}
    comp = {(A.mor_labels[g], A.mor_labels[f]): A.mor_labels[h]
            for (g, f), h in A.comp.items() if g in keep_set and f in keep_set}
    fib = validate_category(objs, morphs, idents, comp, assoc="sampled")
    rf = right_fiber(F, d)
    id_d_label = B.mor_labels[id_d]
    incl = FinFunctor(
        fib, rf,
        {o: (o, id_d_label) for o in objs},
        {A.mor_labels[i]: ((A.objects[A.src[i]], id_d_label),
                           (A.objects[A.tgt[i]], id_d_label),
                           A.mor_labels[i]) for i in keep})
    return fib, rf, incl


# ---------------------------------------------------------------------------
# twisted arrows

def twisted_arrow_op(C):
    """The category Tw(C)^op: objects are morphisms of C, a map f -> f' is a
    factorisation f = b . f' . a, together with the projection to C sending
    f: x -> y to x (a colim-equivalence)."""
    objects = list(C.mor_labels)
    morphs = []
    comp = {}
    idents = {}
    pairs = {}
    for f in range(C.n_morphisms):
        for fp in range(C.n_morphisms):
            # a: src f -> src f', b: tgt f' -> tgt f with f = b . f' . a
            for a in C.hom_idx(C.src[f], C.src[fp]):
                fa = C.comp[(fp, a)]
                for b in C.hom_idx(C.tgt[fp], C.tgt[f]):
                    if C.comp[(b, fa)] == f:
                        lbl = (C.mor_labels[f], C.mor_labels[fp],
                               C.mor_labels[a], C.mor_labels[b])
                        morphs.append((lbl, C.mor_labels[f], C.mor_labels[fp]))
                        pairs[lbl] = (a, b)
    for f in range(C.n_morphisms):
        idents[C.mor_labels[f]] = (C.mor_labels[f], C.mor_labels[f],
                                   C.mor_labels[C.identity_of[C.src[f]]],
                                   C.mor_labels[C.identity_of[C.tgt[f]]])
    by_src = {}
    for (lbl, s, t) in morphs:
        by_src.setdefault(s, []).append(lbl)
    for (lbl1, s1, t1) in morphs:
        a1, b1 = pairs[lbl1]
        for lbl2 in by_src.get(t1, ()):
            a2, b2 = pairs[lbl2]
            a = C.comp[(a2, a1)]
            b = C.comp[(b1, b2)]
            comp[(lbl2, lbl1)] = (s1, lbl2[1], C.mor_labels[a], C.mor_labels[b])
    tw = validate_category(objects, morphs, idents, comp, assoc="auto")
    proj = FinFunctor(tw, C,
                      {C.mor_labels[f]: C.objects[C.src[f]]
                       for f in range(C.n_morphisms)},
                      {lbl: lbl[2] for (lbl, _, _) in morphs})
    return tw, proj


# the naming convention elsewhere calls this the twisted-arrow category;
# the projection to the source object is the cofinal one
twisted_arrow = twisted_arrow_op


# ---------------------------------------------------------------------------
# posets, groups, actions

class Poset:
    """Finite poset with validated order relation."""

    def __init__(self, elements, leq_pairs):
        self.elements = tuple(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        rel = [[False] * n for _ in range(n)]
        for (a, b) in leq_pairs:
            rel[self.index[a]][self.index[b]] = True
        for i in range(n):
            if not rel[i][i]:
                raise CategoryError("poset relation is not reflexive at %r"
                                    % (self.elements[i],))
        for i in range(n):
            for j in range(n):
                if rel[i][j] and rel[j][i] and i != j:
                    raise CategoryError("poset relation is not antisymmetric")
                if rel[i][j]:
                    for k in range(n):
                        if rel[j][k] and not rel[i][k]:
                            raise CategoryError("poset relation is not transitive")
        self.rel = rel

    def leq(self, a, b):
        return self.rel[self.index[a]][self.index[b]]

    def __len__(self):
        return len(self.elements)


def poset_category(P):
    """The poset viewed as a category (one morphism per related pair)."""
    objects = list(P.elements)
    morphs = []
    comp = {}
    for a in P.elements:
        for b in P.elements:
            if P.leq(a, b):
                morphs.append(((a, b), a, b))
    for a in P.elements:
        for b in P.elements:
            if not P.leq(a, b):
                continue
            for c in P.elements:
                if P.leq(b, c):
                    comp[((b, c), (a, b))] = (a, c)
    idents = {a: (a, a) for a in P.elements}
    return validate_category(objects, morphs, idents, comp)


class Group:
    """Finite group given by element labels and a multiplication map."""

    def __init__(self, elements, mult, identity):
        self.elements = tuple(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.identity = identity
        n = len(self.elements)
        table = [[None] * n for _ in range(n)]
        for i, a in enumerate(self.elements):
            for j, b in enumerate(self.elements):
                c = mult(a, b)
                table[i][j] = self.index[c]
        self.table = table
        e = self.index[identity]
        for i in range(n):
            if table[e][i] != i or table[i][e] != i:
                raise CategoryError("group identity fails")
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if table[i][j] == e and table[j][i] == e:
                    inv[i] = j
                    break
            if inv[i] is None:
                raise CategoryError("group element %r has no inverse"
                                    % (self.elements[i],))
        self.inv = inv

    def mul(self, a, b):
        return self.elements[self.table[self.index[a]][self.index[b]]]

    def inverse(self, a):
        return self.elements[self.inv[self.index[a]]]

    def __len__(self):
        return len(self.elements)


def group_category(G, base="*"):
    """The one-object category B(G)."""
    objects = [base]
    morphs = [((base, g), base, base) for g in G.elements]
    idents = {base: (base, G.identity)}
    comp = {((base, a), (base, b)): (base, G.mul(a, b))
            for a in G.elements for b in G.elements}
    return validate_category(objects, morphs, idents, comp, assoc="sampled")


def action_category(G, P, act):
    """Action category G\\\\P: objects the poset elements, morphisms p -> p'
    the group elements g with g.p <= p'."""
    for g in G.elements:
        for a in P.elements:
            for b in P.elements:
                if P.leq(a, b) and not P.leq(act(g, a), act(g, b)):
                    raise CategoryError("group does not act by poset automorphisms")
    objects = list(P.elements)
    morphs = []
    comp = {}
    for g in G.elements:
        for p in P.elements:
            gp = act(g, p)
            for pp in P.elements:
                if P.leq(gp, pp):
                    morphs.append(((g, p, pp), p, pp))
    mor_set = {m[0] for m in morphs}
    for (g, p, pp) in mor_set:
        for (h, p2, ppp) in mor_set:
            if p2 == pp:
                comp[((h, pp, ppp), (g, p, pp))] = (G.mul(h, g), p, ppp)
    idents = {p: (G.identity, p, p) for p in P.elements}
    return validate_category(objects, morphs, idents, comp, assoc="sampled")


class RegularityError(ValueError):
    """The poset action violates x <= gx => x = gx; carries a witness."""

    def __init__(self, g, x):
        super().__init__("regularity fails: x <= g.x but x != g.x for g=%r, x=%r"
                         % (g, x))
        self.witness = (g, x)


def check_poset_regularity(G, P, act):
    """Exhaustively verify x <= g.x implies x = g.x; return a witness or None."""
    for g in G.elements:
        for x in P.elements:
            gx = act(g, x)
            if P.leq(x, gx) and x != gx:
                return (g, x)
    return None


def poset_quotient(G, P, act):
    """Quotient poset G\\P under the regularity hypothesis."""
    witness = check_poset_regularity(G, P, act)
    if witness is not None:
        raise RegularityError(*witness)
    orbits = {}
    for x in P.elements:
        orbit = frozenset(act(g, x) for g in G.elements)
        orbits[x] = orbit
    classes = sorted({o for o in orbits.values()}, key=lambda o: sorted(map(repr, o)))
    reps = [min(o, key=repr) for o in classes]
    leq_pairs = []
    for i, oi in enumerate(classes):
        for j, oj in enumerate(classes):
            if any(P.leq(x, y) for x in oi for y in oj):
                leq_pairs.append((reps[i], reps[j]))
    quotient = Poset(reps, leq_pairs)  # validation checks antisymmetry etc.
    class_of = {x: reps[classes.index(orbits[x])] for x in P.elements}
    return quotient, class_of
