"""Category-algebra homology: H_*(|C|; F_ell) via free resolutions.

The homology of the nerve of a finite category C with coefficients in a
prime field F_ell is Tor over the category algebra k[C] (basis: the
morphisms, product: composition or zero) between the two constant
modules.  The two-sided bar resolution recovers exactly the nerve chain
complex, so computing Tor from any free resolution of the constant left
module gives the same homology with no depth truncation.  This engine
builds a small free resolution (greedy generator selection with
reverse-delete pruning) and is the feasible route for categories whose
groups of automorphisms make the nerve itself astronomically large.

Generators are found a submodule at a time.  A vector v supported on the
component e_x generates the submodule k[C]·v, and b·(a·v) = (b∘a)·v, so one
round of action already spans it: k[C]·v is the span of the orbit block
{a·v : src a = x}, the image of P_x = k[C](x, -) under e_x ↦ v (Webb, "An
introduction to the representations and cohomology of categories", 2007).
Elimination works on whole blocks: a block is reduced against the span
with one matrix product and its residue is echelonized with one RREF mod
ell.  The orbit blocks of the chosen generators, transposed, are also the
boundary matrix of the next term of the resolution.

Reverse-delete is one descending pass with no span rebuilt.  The greedy
residues form a basis of the kernel adapted to the flag of prefix spans of
the generators; in these flag coordinates the quotient by the span of the
generators before gens[i] is the tail of coordinates from where gens[i]
started.  So each trial is one comparison against the leading pivots of the
span of the kept generators' orbit blocks, taken in reversed flag
coordinates.

It is cross-validated against the nerve/Smith pipeline on a corpus of
small categories in the test suite.
"""

from __future__ import annotations

import numpy as np


def _rref_mod(M, ell):
    """Row-reduce M mod ell in place; returns list of pivot columns.

    Each pivot clears its column with one outer-product update.  The pivot
    row is zero left of its pivot, so the update starts at the pivot column,
    and a column that starts out zero stays zero, so it is never visited.
    """
    M %= ell
    rows = M.shape[0]
    pivots = []
    r = 0
    for c in np.flatnonzero(M.any(axis=0)):
        if r == rows:
            break
        nz = np.flatnonzero(M[r:, c])
        if not len(nz):
            continue
        piv = r + int(nz[0])
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        M[r, c:] = (M[r, c:] * pow(int(M[r, c]), ell - 2, ell)) % ell
        col = M[:, c].copy()
        col[r] = 0
        hit = np.flatnonzero(col)
        if len(hit):
            M[hit, c:] = (M[hit, c:] - np.outer(col[hit], M[r, c:])) % ell
        pivots.append(int(c))
        r += 1
    return pivots


def kernel_mod(M, ell):
    """Basis (rows) of the right kernel of M over F_ell."""
    n = M.shape[1]
    W = M % ell
    pivots = np.array(_rref_mod(W, ell), dtype=np.intp)
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-W[:len(pivots), free].T) % ell
    return basis


def rank_mod_dense(M, ell):
    return len(_rref_mod(M % ell, ell))


class _Span:
    """Row space mod ell of rank at most max_rank, in reduced echelon form."""

    def __init__(self, dim, ell, max_rank):
        self.ell = ell
        self._rows = np.zeros((max_rank, dim), dtype=np.int64)
        self.pivots = []

    def residue(self, B):
        """The rows of B (entries mod ell) minus their part in the span."""
        coef = B[:, self.pivots]
        used = np.flatnonzero(coef.any(axis=0))
        return (B - coef[:, used] @ self._rows[used]) % self.ell

    def add(self, B):
        """Add the rows of B (entries mod ell) to the span.

        The residue of B is echelonized into the new rows, and each old row
        subtracts its entries on the new pivot columns times the new rows.
        Returns those entries, one row per old row, one column per new row.
        """
        R = self.residue(B)
        piv = _rref_mod(R, self.ell)
        r, k = self.rank, len(piv)
        rows = self._rows[:r]
        back = rows[:, piv]
        hit = np.flatnonzero(back.any(axis=1))
        rows[hit] = (rows[hit] - back[hit] @ R[:k]) % self.ell
        self._rows[r:r + k] = R[:k]
        self.pivots += piv
        return back

    @property
    def rank(self):
        return len(self.pivots)


class FreeModule:
    """Direct sum of representable projectives P_x = k[C](x, -)."""

    def __init__(self, C, sources):
        self.C = C
        self.sources = list(sources)  # object indices
        basis = [(j, f) for j, x in enumerate(self.sources)
                 for f in C.morphisms_from(x)]
        self.basis = basis
        self.pos = {bf: i for i, bf in enumerate(basis)}
        self.dim = len(basis)
        # positions grouped by the target object of the basis morphism
        self.by_tgt = {}
        tgt = C.tgt.tolist()
        for i, (j, f) in enumerate(basis):
            self.by_tgt.setdefault(tgt[f], []).append(i)
        self._orbit_maps = {}

    def orbit(self, x, v, ell):
        """The rows a·v for every morphism a out of x, in morphism order.

        v is supported on e_x.  The index map, sending (a, position of a
        basis morphism f into x) to the position of a∘f, is built once per
        x; a∘f = a∘f' is possible, so coefficients are summed.
        """
        if x not in self._orbit_maps:
            C = self.C
            cols = np.array(self.by_tgt[x], dtype=np.intp)
            j, f = zip(*(self.basis[i] for i in cols))
            af = C.compose_many(np.array(C.morphisms_from(x))[:, None],
                                np.array(f)[None, :])
            dest = np.array([[self.pos[jf] for jf in zip(j, row)]
                             for row in af.tolist()], dtype=np.intp)
            self._orbit_maps[x] = (cols, dest)
        cols, dest = self._orbit_maps[x]
        nz = np.flatnonzero(v[cols])
        B = np.zeros((len(dest), self.dim), dtype=np.int64)
        np.add.at(B, (np.arange(len(dest))[:, None], dest[:, nz]),
                  v[cols[nz]])
        return B % ell


def _candidates(F, kernel_rows):
    """The nonzero e_x components of the kernel rows, by x, then by bytes."""
    for x, positions in sorted(F.by_tgt.items()):
        comps = [c for c in kernel_rows[:, positions] if c.any()]
        for c in sorted(comps, key=lambda c: c.tobytes()):
            v = np.zeros(F.dim, dtype=np.int64)
            v[positions] = c
            yield x, v


def _minimal_generators(F, kernel_rows, ell):
    """Small module generating set of the kernel, as (x, v) with v on e_x.

    Greedy: walk the e_x components of the kernel basis in a deterministic
    order and keep each one not yet in the span.  The span is always a
    submodule, the sum of the kept generators' submodules.  Each kept v adds
    its whole submodule in one step, because b·(a·v) = (b∘a)·v makes k[C]·v
    the span of its orbit block {a·v : src a = x}; the block is reduced
    against the span with one matrix product and its residue is echelonized
    with one RREF mod ell.

    Reverse-delete then drops, from the last generator to the first, each
    one that the others span without.  One descending pass suffices: a
    generator found necessary stays necessary when one tested after it is
    dropped, since spans only shrink.  The residues the greedy phase added,
    stacked, are a basis of the kernel V adapted to the flag of prefix spans:
    the span P of the generators before gens[i] is spanned by the first
    start[i] residues.  In the coordinates of this basis (flag coordinates),
    V / P is read off from coordinate start[i] on, so gens[i] is dropped iff
    the orbit blocks of the generators kept after it have full rank there.
    Held in a span over the reversed flag coordinates, that tail is a
    leading block of columns, and full rank means they are all pivots: each
    trial is one comparison.

    Flag coordinates are the echelon coordinates w[pivots] of the greedy
    span times one unitriangular matrix.  Each add subtracts from the old
    echelon rows their entries on the new pivots times the new rows; those
    entries, negated, fill that matrix above its diagonal.
    """
    target_rank = len(kernel_rows)  # kernel_mod returns a basis
    gens, start = [], []
    to_flag = np.eye(target_rank, dtype=np.int64)
    span = _Span(F.dim, ell, target_rank)
    for x, v in _candidates(F, kernel_rows):
        if span.rank == target_rank:
            break
        if span.residue(v[None, :]).any():
            before = span.rank
            back = span.add(F.orbit(x, v, ell))
            to_flag[:before, before:span.rank] = -back % ell
            gens.append((x, v))
            start.append(before)
    if span.rank != target_rank:
        raise RuntimeError("greedy generators failed to span the kernel")
    pivots = span.pivots
    del span  # free its rows before the span of kept blocks allocates its own
    kept = _Span(target_rank, ell, target_rank)
    is_pivot = np.zeros(target_rank, dtype=bool)
    lead = 0  # the reversed coordinates 0..lead-1 are pivots of kept
    chosen = []
    for i in range(len(gens) - 1, -1, -1):
        if lead >= target_rank - start[i]:
            continue
        x, v = gens[i]
        echelon = F.orbit(x, v, ell)[:, pivots]
        used = np.flatnonzero(echelon.any(axis=0))
        flag = echelon[:, used] @ to_flag[used] % ell
        before = kept.rank
        kept.add(flag[:, ::-1])
        is_pivot[kept.pivots[before:]] = True
        while lead < target_rank and is_pivot[lead]:
            lead += 1
        chosen.append(gens[i])
    if lead != target_rank:
        raise RuntimeError("kept generators failed to span the kernel")
    return chosen[::-1]


def category_homology_mod(C, ell, max_degree):
    """Betti numbers of |C| over F_ell in degrees 0..max_degree.

    Builds a free resolution F_{max_degree+1} -> ... -> F_0 -> constant
    module and returns the homology of the induced complex of
    coefficient sums (Tor over the category algebra).  Raises ValueError
    when ell is not a prime or max_degree is negative.
    """
    if ell < 2 or not all(ell % d for d in range(2, ell)):
        raise ValueError("ell must be prime, got %r" % (ell,))
    if max_degree < 0:
        raise ValueError("--max-degree must be at least 0, got %d" % max_degree)
    # F_0 = sum of P_x over all objects, covering the constant module
    F_prev = FreeModule(C, list(range(C.n_objects)))
    # augmentation F_0 -> constant module
    aug = np.zeros((C.n_objects, F_prev.dim), dtype=np.int64)
    for i, (j, f) in enumerate(F_prev.basis):
        aug[C.tgt[f], i] = 1
    gen_sources = [list(range(C.n_objects))]  # generators of F_0 (one per object)
    tor_mats = []  # induced matrices on coefficient sums
    kernel_rows = kernel_mod(aug, ell)
    for _deg in range(1, max_degree + 2):
        gens = _minimal_generators(F_prev, kernel_rows, ell)
        sources = [x for (x, _) in gens]
        # induced map on Tor coefficients: sum coefficients per summand
        t = np.zeros((len(gen_sources[-1]), len(sources)), dtype=np.int64)
        for col, (x, v) in enumerate(gens):
            for i in np.nonzero(v)[0]:
                j, f = F_prev.basis[i]
                t[j, col] = (t[j, col] + v[i]) % ell
        tor_mats.append(t)
        gen_sources.append(sources)
        if _deg <= max_degree:
            # boundary F_new -> F_prev: the columns of summand j are the
            # orbit rows of gens[j], in the basis order of F_new
            d = np.vstack([np.zeros((0, F_prev.dim), dtype=np.int64)] +
                          [F_prev.orbit(x, v, ell) for x, v in gens]).T
            kernel_rows = kernel_mod(d, ell)
            F_prev = FreeModule(C, sources)
    # homology of ... -> k^{g_2} -> k^{g_1} -> k^{g_0}
    betti = []
    for i in range(max_degree + 1):
        # tor_mats[i] is the induced map T_{i+1} -> T_i
        dim_i = len(gen_sources[i])
        rank_in = rank_mod_dense(tor_mats[i], ell) if i < len(tor_mats) else 0
        rank_out = rank_mod_dense(tor_mats[i - 1], ell) if i >= 1 else 0
        betti.append(dim_i - rank_in - rank_out)
    return betti
