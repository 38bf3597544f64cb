"""Fundamental group presentations from the nerve 2-skeleton.

For a connected finite category the edge-path group of the nerve has one
generator per non-identity morphism outside a spanning tree of the
underlying graph, and one relator g.f = (g o f) per composable pair of
non-identity morphisms (a composite that is an identity contributes the
trivial word).  The abelianization is read off the invariant factors of
the relator matrix, computed by the sparse kernel that serves nerve
homology (homology.sparse_invariant_factors), and must agree with H_1 of
the nerve.

Triviality of a presentation is decided by budgeted Tietze
simplification; when the budget runs out without an answer the result is
None ("inconclusive") rather than a guess.
"""

from __future__ import annotations

from dataclasses import dataclass

from .homology import CSC, sparse_invariant_factors


@dataclass
class GroupPresentation:
    generators: tuple          # generator names
    relators: tuple            # tuple of words; a word is a tuple of signed
                               # indices: +i / -i means generator i / inverse
                               # (indices are 1-based so the sign survives)

    def abelianization(self):
        """Invariant factors d > 1 (sorted) plus free rank.

        The relator matrix has one row per relator and one column per
        generator, holding the generator's exponent sum in the relator.
        With k nonzero invariant factors d_1 | ... | d_k, the
        abelianization is Z^(n-k) plus the sum of the Z/d_i.
        """
        entries = [(r, abs(s) - 1, 1 if s > 0 else -1)
                   for r, w in enumerate(self.relators) for s in w]
        rows, cols, signs = zip(*entries) if entries else ((), (), ())
        factors = sparse_invariant_factors(CSC.from_entries(
            len(self.relators), len(self.generators), rows, cols, signs))
        torsion = sorted(abs(d) for d in factors if abs(d) != 1)
        return torsion, len(self.generators) - len(factors)


def pi1_presentation(C):
    """Edge-path presentation of pi_1 of (the nerve of) a connected C,
    based at its first object."""
    if not C.is_connected():
        raise ValueError("pi1_presentation requires a connected category")
    ids = set(C.identity_of.tolist())
    non_id = [i for i in range(C.n_morphisms) if i not in ids]
    # spanning tree on the underlying undirected graph
    tree = set()
    seen = {0}
    frontier = [0]
    adj = {}
    src, tgt = C.src.tolist(), C.tgt.tolist()
    for f in non_id:
        adj.setdefault(src[f], []).append((tgt[f], f))
        adj.setdefault(tgt[f], []).append((src[f], f))
    while frontier:
        nxt = []
        for x in frontier:
            for (y, f) in adj.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    tree.add(f)
                    nxt.append(y)
        frontier = nxt
    gens = [f for f in non_id if f not in tree]
    gen_pos = {f: i + 1 for i, f in enumerate(gens)}  # 1-based

    def word_of(f):
        if f in ids:
            return ()
        if f in tree:
            return ()
        return (gen_pos[f],)

    relators = []
    for g, f, h in zip(*(a.tolist() for a in C.pairs())):
        if f in ids or g in ids:
            continue
        # relator: w(g) w(f) w(h)^{-1}
        w = word_of(g) + word_of(f) + tuple(-s for s in reversed(word_of(h)))
        w = _free_reduce(w)
        if w:
            relators.append(w)
    names = tuple("g%d" % f for f in gens)
    return GroupPresentation(names, tuple(sorted(set(relators))))


def _free_reduce(word):
    out = []
    for s in word:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def tietze_trivial(pres, budget=2000):
    """Budgeted Tietze simplification.

    Returns True if the presentation provably presents the trivial group,
    False if provably nontrivial (nontrivial abelianization), None if the
    budget is exhausted without an answer.
    """
    torsion, free_rank = pres.abelianization()
    if torsion or free_rank:
        return False
    gens = set(range(1, len(pres.generators) + 1))
    relators = {_normalise_relator(w) for w in pres.relators if w}
    steps = 0
    while gens:
        if steps > budget:
            return None
        steps += 1
        # find a relator using some generator exactly once
        target = None
        for w in relators:
            counts = {}
            for s in w:
                counts[abs(s)] = counts.get(abs(s), 0) + 1
            for g, c in counts.items():
                if c == 1 and g in gens:
                    target = (w, g)
                    break
            if target:
                break
        if target is None:
            return None
        w, g = target
        # solve w = 1 for g: g = word in the others
        i = next(i for i, s in enumerate(w) if abs(s) == g)
        rest = w[i + 1:] + w[:i]
        # w ~ s . rest with s = +-g, so g = rest^{-1} (if s>0) or rest
        repl = tuple(-x for x in reversed(rest)) if w[i] > 0 else tuple(rest)
        new_relators = set()
        for r in relators:
            if r == w:
                continue
            out = []
            for s in r:
                if abs(s) == g:
                    out.extend(repl if s > 0 else tuple(-x for x in reversed(repl)))
                else:
                    out.append(s)
            red = _free_reduce(tuple(out))
            if red:
                new_relators.add(_normalise_relator(red))
            steps += 1
            if steps > budget:
                return None
        relators = new_relators
        gens.discard(g)
    return not gens


def _normalise_relator(w):
    """Cyclic reduction plus a canonical rotation/inversion."""
    w = _free_reduce(w)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = _free_reduce(w[1:-1])
    if not w:
        return ()
    candidates = []
    for v in (w, tuple(-s for s in reversed(w))):
        for i in range(len(v)):
            candidates.append(v[i:] + v[:i])
    return min(candidates)
