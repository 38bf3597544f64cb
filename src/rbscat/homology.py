"""Chain complexes, Smith normal form, and nerve homology.

The nerve of a finite category is truncated at a stated depth D: the
normalized chain groups C_0..C_D have bases the composable chains of
non-identity morphisms, and a face whose composite is an identity
contributes zero.  Homology computed from such a truncation is trusted in
degrees 0..D-1 only; HomologyResult records that range.

Boundary matrices over Z and over F_ell go through one sparse kernel,
eliminate_units: it pivots on units (+-1 over Z, any nonzero entry over
F_ell) in Markowitz order, so over F_ell it returns the rank, and over Z
it leaves a residual core without units whose lattice basis alone goes to
Smith normal form; the same kernel gives the abelianization of group
presentations.  The dense smith_normal_form with transforms runs only on
that lattice basis (snf_diagonal), in the infra check and in `bench snf`;
it checks its postconditions on every call and raises RuntimeError if one
fails.  A fraction-free rank oracle over Q (Bareiss) is kept as an
independent cross-check.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from .guards import DEFAULT, GuardExceeded


# ---------------------------------------------------------------------------
# dense Smith normal form with transforms

def smith_normal_form(A):
    """Full SNF: returns (U, D, V) with U*A*V = D, U, V unimodular and the
    diagonal entries forming a divisibility chain.  Postconditions are
    checked on every call (RuntimeError on failure).

    Classical pivot algorithm: take the smallest nonzero entry as pivot,
    clear its row and column with Euclidean remainder swaps (each swap
    strictly shrinks the pivot), then force the pivot to divide the whole
    remaining block by a row addition and repeat; termination is by
    strict descent of the pivot.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [list(r) for r in A]
    U = _ident(m)
    V = _ident(n)
    k = 0
    while True:
        piv = _smallest_pivot(D, k)
        if piv is None:
            break
        pi, pj = piv
        _swap_rows(D, U, k, pi)
        _swap_cols(D, V, k, pj)
        if D[k][k] < 0:
            _scale_row(D, U, k, -1)
        while True:
            # clear column k below the pivot
            restart = False
            for i in range(k + 1, m):
                if D[i][k]:
                    q = D[i][k] // D[k][k]
                    if q:
                        _row_op(D, U, i, k, -q)
                    if D[i][k]:
                        # remainder in (0, pivot): promote it and restart
                        _swap_rows(D, U, k, i)
                        restart = True
                        break
            if restart:
                continue
            # clear row k to the right of the pivot
            for j in range(k + 1, n):
                if D[k][j]:
                    q = D[k][j] // D[k][k]
                    if q:
                        _col_op(D, V, j, k, -q)
                    if D[k][j]:
                        _swap_cols(D, V, k, j)
                        restart = True
                        break
            if restart:
                continue  # column may have been disturbed by the col ops
            if any(D[i][k] for i in range(k + 1, m)) or \
               any(D[k][j] for j in range(k + 1, n)):
                continue
            # pivot must divide every remaining entry for the chain
            bad = None
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if D[i][j] % D[k][k] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            _row_op(D, U, k, bad, 1)  # mixes a non-multiple into row k
        k += 1
    _check_snf(A, U, D, V, k)
    return U, D, V


def _ident(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _smallest_pivot(D, k):
    best = None
    best_val = None
    for i in range(k, len(D)):
        for j in range(k, len(D[0]) if D else 0):
            v = abs(D[i][j])
            if v and (best_val is None or v < best_val):
                best, best_val = (i, j), v
                if v == 1:
                    return best
    return best


def _swap_rows(D, U, a, b):
    if a != b:
        D[a], D[b] = D[b], D[a]
        U[a], U[b] = U[b], U[a]


def _swap_cols(D, V, a, b):
    if a != b:
        for row in D:
            row[a], row[b] = row[b], row[a]
        for row in V:
            row[a], row[b] = row[b], row[a]


def _row_op(D, U, i, k, c):
    D[i] = [x + c * y for x, y in zip(D[i], D[k])]
    U[i] = [x + c * y for x, y in zip(U[i], U[k])]


def _col_op(D, V, j, k, c):
    for row in D:
        row[j] += c * row[k]
    for row in V:
        row[j] += c * row[k]


def _scale_row(D, U, i, c):
    D[i] = [c * x for x in D[i]]
    U[i] = [c * x for x in U[i]]


def _mat_mul(A, B):
    n = len(B[0]) if B else 0
    Bt = list(zip(*B)) if B else []
    return [[sum(x * y for x, y in zip(row, col)) for col in Bt] for row in A]


def _det_unimodular(M):
    """Exact determinant by fraction-free elimination; must be +-1."""
    n = len(M)
    A = [list(r) for r in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * (A[n - 1][n - 1] if n else 1)


def _check_snf(A, U, D, V, rank):
    """Raise RuntimeError unless (U, D, V) is a Smith form of A: explicit
    raises, so that python -O cannot turn a failed postcondition into a pass."""
    def require(ok, what):
        if not ok:
            raise RuntimeError("Smith normal form postcondition failed: " + what)

    require(_mat_mul(_mat_mul(U, [list(r) for r in A]), V) == D, "U*A*V != D")
    for i in range(len(D)):
        for j in range(len(D[0]) if D else 0):
            if i != j:
                require(D[i][j] == 0, "D not diagonal")
    diag = [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]
    for i in range(rank - 1):
        require(diag[i] != 0 and diag[i + 1] % diag[i] == 0,
                "divisibility fails")
    for i in range(rank, len(diag)):
        require(diag[i] == 0, "nonzero diagonal entry past the rank")
    require(abs(_det_unimodular(U)) == 1, "U not unimodular")
    require(abs(_det_unimodular(V)) == 1, "V not unimodular")


def snf_diagonal(A):
    """Invariant factors of a dense integer matrix (no transforms)."""
    U, D, V = smith_normal_form(A)
    k = min(len(D), len(D[0]) if D else 0)
    return [D[i][i] for i in range(k) if D[i][i] != 0]


# ---------------------------------------------------------------------------
# sparse unit-pivot elimination (one kernel over Z and F_ell)

def eliminate_units(columns, ell=None):
    """Unit-pivot elimination of the sparse matrix given by columns (each a
    dict row -> value), over Z (ell None) or over F_ell.

    Repeatedly pivots on a unit entry -- +-1 over Z, any nonzero entry
    over F_ell -- of low Markowitz cost (r-1)(c-1), where r and c count the
    nonzero entries in the pivot's row and column, and replaces the matrix
    by its Schur complement.  Each pivot contributes an invariant factor 1
    (rank 1 over F_ell).  The matrix is held as sparse lines along its
    shorter side (rows of a wide matrix, columns of a tall one), which
    keeps the number of containers small.  Returns (pivots, core): the
    core is the list of nonzero lines left, none of which holds a unit;
    over F_ell it is empty, so pivots is the rank.
    Dumas-Heckenbach-Saunders-Welker (2003), "Computing simplicial
    homology based on efficient Smith normal form algorithms".
    """
    n_rows = 1 + max((max(col, default=-1) for col in columns), default=-1)
    wide = n_rows < len(columns)
    lines = {}  # line -> {index: nonzero value}
    count = [0] * (len(columns) if wide else n_rows)  # lines meeting index
    for j, col in enumerate(columns):
        for r, x in col.items():
            x = x % ell if ell else x
            if x:
                line, index = (r, j) if wide else (j, r)
                lines.setdefault(line, {})[index] = x
                count[index] += 1
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
            continue  # line eliminated or changed since it was queued
        b = best(line)  # not None: the line is unchanged since queued
        if b[0] > cost:
            heapq.heappush(heap, (b[0], line, ver))
            continue
        i = b[1]
        pl = lines.pop(line)
        del version[line]
        for k in pl:
            count[k] -= 1
        inv = pow(pl[i], -1, ell) if ell else pl[i]  # +-1 is its own inverse
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


def sparse_invariant_factors(columns):
    """Invariant factors of the integer matrix given by sparse columns
    (each column a dict row->value).

    Unit pivots give factors 1.  The residual core, which has no unit
    entry, is read as vectors of length k, its shorter side; an echelon
    basis of the lattice they span (at most k vectors) is all that goes
    to Smith normal form.
    """
    pivots, core = eliminate_units(columns)
    support = sorted({i for line in core for i in line})
    if len(core) <= len(support):
        vectors = [[line.get(i, 0) for line in core] for i in support]
    else:
        vectors = [[line.get(i, 0) for i in support] for line in core]
    return [1] * pivots + snf_diagonal(_lattice_basis(vectors))


def _lattice_basis(vectors):
    """Echelon basis of the integer lattice spanned by dense vectors
    (Hermite column pass by unimodular 2x2 combinations; no transforms)."""
    pivots = {}  # leading coordinate -> basis vector
    for v in vectors:
        j = 0
        while j < len(v):
            if not v[j]:
                j += 1
                continue
            p = pivots.get(j)
            if p is None:
                pivots[j] = v
                break
            a, b = p[j], v[j]
            if b % a == 0:
                q = b // a
                v = [y - q * x for x, y in zip(p, v)]
            else:
                g, s, t = _xgcd_int(a, b)
                # [[s, t], [-b/g, a/g]] has determinant 1
                pivots[j] = [s * x + t * y for x, y in zip(p, v)]
                v = [(a // g) * y - (b // g) * x for x, y in zip(p, v)]
            j += 1
    return [pivots[j] for j in sorted(pivots)]


def _xgcd_int(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


# ---------------------------------------------------------------------------
# chain complexes

@dataclass
class ChainComplex:
    """Non-negatively graded complex with integer boundary matrices.

    dims[k] is the rank of C_k; boundaries[k] (for 1 <= k <= D) is the
    sparse matrix of d_k: C_k -> C_{k-1}, stored column-wise as a list of
    dicts {row: coefficient}.  Builders call verify_boundary_squared,
    which raises ValueError unless d_{k-1} . d_k = 0.
    """

    dims: list
    boundaries: dict  # degree -> list of sparse columns
    labels: dict = field(default_factory=dict)  # degree -> basis labels
    complete: bool = False  # True when C_{depth+1} = 0 (untruncated complex)

    @property
    def depth(self):
        return len(self.dims) - 1

    def verify_boundary_squared(self):
        for k in range(2, self.depth + 1):
            dk = self.boundaries.get(k, [])
            dk1 = self.boundaries.get(k - 1, [])
            for col in dk:
                acc = {}
                for r, c in col.items():
                    for r2, c2 in dk1[r].items():
                        acc[r2] = acc.get(r2, 0) + c * c2
                if any(v != 0 for v in acc.values()):
                    raise ValueError("d.d != 0 in degree %d" % k)
        return True


@dataclass
class HomologyResult:
    """Betti numbers (and torsion over Z) for degrees 0..trusted_max."""

    coefficients: str          # "Z" or "F<ell>"
    betti: dict                # degree -> rank
    torsion: dict              # degree -> sorted list of invariant factors > 1
    trusted_max: int
    dims: list

    def reduced_betti(self, k):
        b = self.betti.get(k)
        if b is None:
            return None
        return b - 1 if k == 0 else b


def homology(complex_, coefficients="Z"):
    """Homology of a truncated complex; degrees 0..depth-1 are certified.

    Over Z returns Betti numbers and torsion from the invariant factors of
    the boundaries; over F_ell (coefficients "F2", "F3", ...) returns
    Betti numbers from their ranks.  Both come from eliminate_units.
    """
    D = complex_.depth
    dims = complex_.dims
    top = D + 1 if complex_.complete else D
    if coefficients == "Z":
        rank = {0: 0}
        tors = {}
        for k in range(1, D + 1):
            cols = complex_.boundaries.get(k, [])
            facs = sparse_invariant_factors(cols)
            rank[k] = len(facs)
            tors[k - 1] = sorted(f for f in facs if f not in (1, -1))
        betti = {}
        torsion = {}
        for k in range(0, top):
            betti[k] = dims[k] - rank.get(k, 0) - rank.get(k + 1, 0)
            torsion[k] = tors.get(k, [])
        return HomologyResult("Z", betti, torsion, top - 1, list(dims))
    if coefficients.startswith("F"):
        ell = int(coefficients[1:])
        if ell < 2 or any(ell % d == 0 for d in range(2, ell)):
            raise ValueError("homology coefficients need a prime ell, got %d" % ell)
        rank = {0: 0}
        for k in range(1, D + 1):
            rank[k], _ = eliminate_units(complex_.boundaries.get(k, []), ell)
        betti = {k: dims[k] - rank.get(k, 0) - rank.get(k + 1, 0)
                 for k in range(0, top)}
        return HomologyResult(coefficients, betti, {}, top - 1, list(dims))
    raise ValueError("unknown coefficients %r" % (coefficients,))


# ---------------------------------------------------------------------------
# nerves

def nerve_chain_complex(C, depth, guards=DEFAULT):
    """Normalized nerve chains of a finite category up to the given depth.

    C_k has basis the composable chains (f_1, ..., f_k) of non-identity
    morphisms; the i-th face composes f_{i+1} . f_i (contributing zero if
    the composite is an identity) and the outer faces drop an end.
    """
    non_id = C.non_identity_morphisms()
    out_of = {}
    for f in non_id:
        out_of.setdefault(C.src[f], []).append(f)
    # degree 0: objects
    labels = {0: list(range(C.n_objects))}
    dims = [C.n_objects]
    boundaries = {}
    chains = [(f,) for f in sorted(non_id)]
    index_prev = {}
    k = 1
    while k <= depth:
        if len(chains) > guards.max_simplices_per_degree:
            raise GuardExceeded(
                "nerve has %d nondegenerate %d-simplices > max_simplices_per_degree=%d"
                % (len(chains), k, guards.max_simplices_per_degree))
        index_here = {ch: i for i, ch in enumerate(chains)}
        cols = []
        ids = set(C.identity_of)
        # inner[i][c] is f_{i+1} . f_i of chain c, all read in one gather
        arrows = np.array(chains, np.int64).reshape(len(chains), k)
        inner = C.compose_many(arrows[:, 1:], arrows[:, :-1]).T.tolist()
        for c, ch in enumerate(chains):
            col = {}
            if k == 1:
                f = ch[0]
                col[C.tgt[f]] = col.get(C.tgt[f], 0) + 1
                col[C.src[f]] = col.get(C.src[f], 0) - 1
            else:
                # face 0: drop first arrow
                face = ch[1:]
                _acc(col, index_prev[face], 1)
                sign = -1
                for i in range(k - 1):
                    comp = inner[i][c]
                    if comp not in ids:
                        face = ch[:i] + (comp,) + ch[i + 2:]
                        _acc(col, index_prev[face], sign)
                    sign = -sign
                face = ch[:-1]
                _acc(col, index_prev[face], sign)
            cols.append({r: v for r, v in col.items() if v})
        boundaries[k] = cols
        labels[k] = list(chains)
        dims.append(len(chains))
        if k == depth:
            break
        nxt = []
        for ch in chains:
            for g in out_of.get(C.tgt[ch[-1]], ()):
                nxt.append(ch + (g,))
        index_prev = index_here
        chains = nxt
        k += 1
    cx = ChainComplex(dims, boundaries, labels)
    cx.verify_boundary_squared()
    return cx


def _acc(col, idx, sign):
    col[idx] = col.get(idx, 0) + sign


# ---------------------------------------------------------------------------
# simplicial complexes (order complexes, corpus spaces)

def chain_complex_from_facets(facets):
    """Simplicial chain complex from maximal faces (vertices comparable)."""
    simplices = {}
    for f in facets:
        f = tuple(sorted(set(f)))
        for k in range(len(f)):
            for face in itertools.combinations(f, k + 1):
                simplices.setdefault(k, set()).add(face)
    if not simplices:
        return ChainComplex([0], {}, complete=True)
    top = max(simplices)
    labels = {k: sorted(simplices.get(k, ())) for k in range(top + 1)}
    index = {k: {s: i for i, s in enumerate(labels[k])} for k in labels}
    dims = [len(labels[k]) for k in range(top + 1)]
    boundaries = {}
    for k in range(1, top + 1):
        cols = []
        for s in labels[k]:
            col = {}
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                col[index[k - 1][face]] = 1 if i % 2 == 0 else -1
            cols.append(col)
        boundaries[k] = cols
    cx = ChainComplex(dims, boundaries, labels, complete=True)
    cx.verify_boundary_squared()
    return cx


def maximal_chains(less):
    """Every maximal chain of a finite strict order, as index tuples.

    less: n x n boolean matrix, less[i, j] when i < j.  A maximal chain
    runs from a minimal to a maximal element and steps only along covers
    (i < j with nothing strictly between), so each chain is listed once
    and no chain that is a face of another is.
    """
    less = np.asarray(less, bool)
    between = (less.astype(np.int64) @ less.astype(np.int64)) > 0
    covers = [np.flatnonzero(up).tolist() for up in less & ~between]
    chains = []
    stack = [(x,) for x in np.flatnonzero(~less.any(axis=0)).tolist()]
    while stack:
        chain = stack.pop()
        up = covers[chain[-1]]
        if not up:
            chains.append(chain)
        stack.extend(chain + (y,) for y in up)
    return chains


def order_complex(poset):
    """Order complex of a poset: simplices are the chains."""
    n = len(poset)
    less = np.array(poset.rel, bool).reshape(n, n) & ~np.eye(n, dtype=bool)
    return chain_complex_from_facets(maximal_chains(less))


# ---------------------------------------------------------------------------
# independent rank oracle (fraction-free over Q)

def bareiss_rank(A):
    """Exact rank of an integer matrix by fraction-free elimination."""
    M = [list(r) for r in A]
    m = len(M)
    n = len(M[0]) if m else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(n):
        piv = None
        for i in range(row, m):
            if M[i][col]:
                piv = i
                break
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        for i in range(row + 1, m):
            for j in range(col + 1, n):
                M[i][j] = (M[i][j] * M[row][col] - M[i][col] * M[row][j]) // prev
            M[i][col] = 0
        prev = M[row][col]
        row += 1
        rank += 1
        if row == m:
            break
    return rank


def betti_via_rank_oracle(complex_):
    """Betti numbers over Q by dense fraction-free ranks (naive oracle)."""
    D = complex_.depth
    rank = {0: 0}
    for k in range(1, D + 1):
        cols = complex_.boundaries.get(k, [])
        dense = [[0] * len(cols) for _ in range(complex_.dims[k - 1])]
        for j, col in enumerate(cols):
            for r, v in col.items():
                dense[r][j] = v
        rank[k] = bareiss_rank(dense) if cols else 0
    top = D + 1 if complex_.complete else D
    return {k: complex_.dims[k] - rank.get(k, 0) - rank.get(k + 1, 0)
            for k in range(0, top)}
