"""Chain complexes, Smith normal form, and nerve homology.

The nerve of a finite category is truncated at a stated depth D: the
normalized chain groups C_0..C_D have bases the composable chains of
non-identity morphisms, and a face whose composite is an identity
contributes zero.  Homology computed from such a truncation is trusted in
degrees 0..D-1 only; HomologyResult records that range.  For H_0 and H_1
the S-reduced 2-complex suffices: its 2-chains start in the generating
set S that validation picked (see nerve_chain_complex).

Every boundary matrix is stored once, as a CSC matrix: the index arrays
indptr, rows (ascending within each column) and vals.  Nerves, simplicial
complexes and loaded artifacts use this one representation; the nerve is
built degree by degree with array operations (searchsorted on chain keys
and one composition gather per degree), and d.d = 0 is checked by a
sparse product on the arrays.

Boundary matrices over Z and over F_ell go through one sparse kernel,
eliminate_units: it pivots on units (+-1 over Z, any nonzero entry over
F_ell) in Markowitz order, so over F_ell it returns the rank, and over Z
it leaves a residual core without units whose lattice basis alone goes to
Smith normal form; the same kernel gives the abelianization of group
presentations.  The kernel holds each line as two arrays, indices and
values, in insertion order, so one argmin over a line's counts finds its
cheapest unit and its first minimum is the oldest entry; the lines that
hold a pivot's index come from the input's other orientation and from
records of fill-in, not from a scan of every line; and a Schur update is
one vectorised merge.  Only the distinct core vectors, up to sign, go to
the lattice basis.  The dense smith_normal_form with transforms runs only on
that lattice basis (snf_diagonal), in the infra check and in `bench snf`;
it checks its postconditions on every call and raises RuntimeError if one
fails.  A fraction-free rank oracle over Q (Bareiss) is kept as an
independent cross-check.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .guards import DEFAULT, GuardExceeded
from .rings import _is_prime


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
    """Invariant factors of a dense integer matrix, the nonzero diagonal
    of smith_normal_form, whose transforms U and V certify them."""
    U, D, V = smith_normal_form(A)
    k = min(len(D), len(D[0]) if D else 0)
    return [D[i][i] for i in range(k) if D[i][i] != 0]


# ---------------------------------------------------------------------------
# sparse integer matrices

class CSC:
    """Integer matrix with n_rows rows in compressed sparse column form.

    Column j holds the nonzero entries rows[indptr[j]:indptr[j + 1]], in
    ascending order, with values vals[indptr[j]:indptr[j + 1]]; the three
    are int64 arrays.  len() is the number of columns, and iterating
    yields the columns as dicts {row: value}.
    """

    __slots__ = ("n_rows", "indptr", "rows", "vals")

    def __init__(self, n_rows, indptr, rows, vals):
        self.n_rows = n_rows
        self.indptr, self.rows, self.vals = indptr, rows, vals

    @classmethod
    def from_entries(cls, n_rows, n_cols, rows, cols, vals):
        """The n_rows x n_cols matrix with the given (row, column, value)
        entries; repeated entries are summed and zeros dropped.  Values
        given as an object array stay Python integers."""
        rows = np.asarray(rows, np.int64).reshape(-1)
        cols = np.asarray(cols, np.int64).reshape(-1)
        vals = np.asarray(vals).reshape(-1)
        if vals.dtype != object:
            vals = vals.astype(np.int64, copy=False)
        key = cols * n_rows
        key += rows
        order = np.argsort(key)
        key = key[order]
        vals = vals[order]
        del order
        if len(key):
            first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
            key, vals = key[first], np.add.reduceat(vals, first)
            keep = vals != 0
            key, vals = key[keep], vals[keep]
        cols, rows = np.divmod(key, max(n_rows, 1))
        indptr = np.zeros(n_cols + 1, np.int64)
        np.cumsum(np.bincount(cols, minlength=n_cols), out=indptr[1:])
        return cls(n_rows, indptr, rows, vals)

    def __len__(self):
        return len(self.indptr) - 1

    def __iter__(self):
        rows, vals = self.rows.tolist(), self.vals.tolist()
        ptr = self.indptr.tolist()
        for a, b in zip(ptr, ptr[1:]):
            yield dict(zip(rows[a:b], vals[a:b]))

    def col_index(self):
        """The column of every stored entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))


# no temporary array of the d.d product holds many more entries
_CHUNK_ENTRIES = 1 << 18


def _product_is_zero(a, b):
    """Whether the product a.b of two CSC matrices is zero.

    Entry (r, j, v) of b adds v times column r of a to column j of the
    product; the terms of a chunk of b's columns are summed per entry by
    from_entries.  Where int64 sums could overflow, the terms are Python
    integers.
    """
    if not len(a.rows) or not len(b.rows):
        return True
    lens = a.indptr[b.rows + 1] - a.indptr[b.rows]
    # number of terms before each column of b
    ends = np.concatenate(([0], np.cumsum(lens)))[b.indptr]
    bound = (int(np.abs(a.vals).max()) * int(np.abs(b.vals).max())
             * int(np.diff(b.indptr).max()))
    dtype = np.int64 if bound < 2 ** 62 else object
    cols = b.col_index()
    lo = 0
    while lo < len(b):
        hi = int(np.searchsorted(ends, ends[lo] + _CHUNK_ENTRIES, "right")) - 1
        hi = max(hi, lo + 1)
        e0, e1 = b.indptr[lo], b.indptr[hi]
        n = lens[e0:e1]
        at = np.repeat(a.indptr[b.rows[e0:e1]] - (np.cumsum(n) - n), n) + \
            np.arange(ends[hi] - ends[lo])
        terms = a.vals[at].astype(dtype) * np.repeat(b.vals[e0:e1].astype(dtype), n)
        if len(CSC.from_entries(a.n_rows, hi - lo, a.rows[at],
                                np.repeat(cols[e0:e1] - lo, n), terms).rows):
            return False
        lo = hi
    return True


# ---------------------------------------------------------------------------
# sparse unit-pivot elimination (one kernel over Z and F_ell)

# above every count: the key of an entry that is not a unit
_NO_UNIT = 1 << 62


def eliminate_units(matrix, ell=None):
    """Unit-pivot elimination of a CSC matrix over Z (ell None) or over
    F_ell.

    Repeatedly pivots on a unit entry -- +-1 over Z, any nonzero entry
    over F_ell -- of low Markowitz cost (r-1)(c-1), where r and c count the
    nonzero entries in the pivot's row and column, and replaces the matrix
    by its Schur complement.  Each pivot contributes an invariant factor 1
    (rank 1 over F_ell).  The matrix is held as sparse lines along its
    shorter side (rows when there are fewer rows than columns, else
    columns).  Returns (pivots, core): the core is the list of nonzero
    lines left, each a dict {index: value}, none of which holds a unit;
    over F_ell it is empty, so pivots is the rank.
    Dumas-Heckenbach-Saunders-Welker (2003), "Computing simplicial
    homology based on efficient Smith normal form algorithms".

    A line is two arrays, its indices and their values (int64, or Python
    integers once a Schur update could pass 2^63), in insertion order:
    first by index, then the entries gained by fill-in, in the order of
    the pivot line that brought them.  A line's cheapest entry is one
    argmin over the counts of its units' indices, and the first minimum
    is the oldest entry.  The lines that hold a pivot's index are those
    that met it in the input and those that gained it by fill-in (a
    chain of records per index), so no line is scanned for it; each is
    updated by one vectorised merge that maps its indices to the pivot
    line's.  Lines are updated, and the core listed, in the order in
    which a scan of the columns meets them.
    """
    if ell:
        matrix = CSC.from_entries(matrix.n_rows, len(matrix), matrix.rows,
                                  matrix.col_index(), matrix.vals % ell)
    cols = matrix.col_index()
    # a stable sort of 16-bit keys is a radix sort
    by_row = np.argsort(matrix.rows.astype(np.min_scalar_type(matrix.n_rows)),
                        kind="stable")
    row_ptr = np.zeros(matrix.n_rows + 1, np.int64)
    np.cumsum(np.bincount(matrix.rows, minlength=matrix.n_rows), out=row_ptr[1:])
    wide = matrix.n_rows < len(matrix)
    if wide:
        # lines are rows: entries by row, then (stably) by column
        ptr, index, vals = row_ptr, cols[by_row], matrix.vals[by_row]
        meet_ptr, meet = matrix.indptr, matrix.rows
    else:
        ptr, index, vals = matrix.indptr, matrix.rows, matrix.vals
        meet_ptr, meet = row_ptr, cols[by_row]
    del cols, by_row
    if ell and ell >> 31:
        vals = vals.astype(object)  # products of residues could pass 2^63
    n_index = len(meet_ptr) - 1
    count = np.bincount(index, minlength=n_index)  # lines meeting index
    lens = np.diff(ptr)
    stored = np.flatnonzero(lens)
    lens = lens[stored]
    # a line is named by its place in the order in which a scan of the
    # columns meets the lines; held[place] is its row or column
    held = stored
    if wide:
        held = stored[np.argsort(index[ptr[stored]], kind="stable")]
    place = np.zeros(len(ptr) - 1, np.int64)
    place[held] = np.arange(len(held))
    meet = place[meet]
    places = place[stored].tolist()
    line_index, line_vals = [None] * len(held), [None] * len(held)
    for p, a, b in zip(places, ptr[stored].tolist(), ptr[stored + 1].tolist()):
        line_index[p], line_vals[p] = index[a:b], vals[a:b]
    version = [0] * len(held)  # -1 once the line is gone
    # over Z, an upper bound on the absolute values of each line
    mag = [0 if ell else _magnitude(vals)] * len(held)
    # queued (cost, row or column, place, version): equal costs go by the
    # row or column number
    heap = [(c, line, p, 0) for c, line, p in
            zip(_first_costs(index, vals, count, lens, ell),
                stored.tolist(), places) if c is not None]
    heapq.heapify(heap)
    held = held.tolist()
    del index, vals, stored, places, lens
    # fill-in records.  A line gains an index only from a pivot line
    # that holds it, so each pivot with holders is an event: its holders
    # are events[e], and it leaves one record per index of its line,
    # records starts[e], starts[e] + 1, ...  head[i] is the last record
    # of index i, rec_next[r] the one before r of the same index, and -1
    # ends a chain; the first n_rec entries of rec_next are in use
    head = np.full(n_index, -1, np.int64)
    rec_next, n_rec = np.empty(0, np.int64), 0
    events, starts = [], []
    column = np.full(n_index, -1, np.int64)  # index -> its pivot line entry
    ones = np.ones(n_index, bool)
    pivots = 0
    while heap:
        cost, line, p, ver = heapq.heappop(heap)
        if version[p] != ver:
            continue  # line eliminated or changed since it was queued
        I, V = line_index[p], line_vals[p]
        key = count[I]
        if not ell:
            key[np.abs(V) != 1] = _NO_UNIT
        j = int(key.argmin())  # a unit: the line is unchanged since queued
        c = (int(key[j]) - 1) * (len(I) - 1)
        if c > cost:
            heapq.heappush(heap, (c, line, p, ver))
            continue
        k = int(I[j])
        line_index[p] = line_vals[p] = None
        version[p] = -1
        count[I] -= 1
        pivots += 1
        # the live lines holding k, in line order: those that met k in
        # the input or gained it by fill-in
        holders = set(meet[meet_ptr[k]:meet_ptr[k + 1]].tolist())
        r = int(head[k])
        while r >= 0:
            holders.update(events[bisect.bisect(starts, r) - 1])
            r = rec_next.item(r)
        holders = [o for o in sorted(holders) if version[o] >= 0]
        if not holders:
            continue
        inv = pow(int(V[j]), -1, ell) if ell else int(V[j])  # +-1 inverts itself
        column[I] = np.arange(len(I))
        updated = []
        for o in holders:
            hI, hV = line_index[o], line_vals[o]
            at = column[hI]
            met = (at >= 0).nonzero()[0]  # the holder's entries on the pivot line
            at = at[met]
            s = met[at == j]
            if not len(s):
                continue  # o lost k to a cancellation
            q = int(hV[s[0]]) * inv
            Vo = V
            if ell:
                q %= ell
            else:
                # every value of the updated line is at most bound
                bound = mag[o] + abs(q) * mag[p]
                if bound >> 63 and hV.dtype == V.dtype != object:
                    bound = _magnitude(hV) + abs(q) * _magnitude(V)
                if hV.dtype != V.dtype or bound >> 63 and V.dtype != object:
                    hV, Vo = hV.astype(object), V.astype(object)
                mag[o] = bound
            # row o -= q row p: k cancels, and the pivot line's indices
            # that o lacks are appended in the pivot line's order
            y = hV[met] - q * Vo[at]
            gained = ones[:len(I)].copy()
            gained[at] = False
            nI = I[gained]
            nV = Vo[gained] * -q
            if ell:
                y %= ell
                nV %= ell
            oI = np.concatenate((hI, nI))
            oV = np.concatenate((hV, nV))
            oV[met] = y
            gone = (y == 0).nonzero()[0]  # k, and any entry that cancelled
            if len(gone) > 1:
                count[hI[met[gone]]] -= 1
            else:
                count[k] -= 1
            keep = oV != 0
            oI, oV = oI[keep], oV[keep]
            count[nI] += 1
            updated.append(o)
            if not len(oI):
                line_index[o] = line_vals[o] = None
                version[o] = -1
                continue
            line_index[o], line_vals[o] = oI, oV
            version[o] += 1
            key = count[oI]
            if not ell:
                key[np.abs(oV) != 1] = _NO_UNIT
            t = int(key[key.argmin()])
            if t < _NO_UNIT:
                heapq.heappush(heap, ((t - 1) * (len(oI) - 1), held[o], o, version[o]))
        column[I] = -1
        if updated:
            starts.append(n_rec)
            events.append(updated)
            if n_rec + len(I) > len(rec_next):
                rec_next = np.resize(rec_next, 2 * (n_rec + len(I)))
            rec_next[n_rec:n_rec + len(I)] = head[I]
            head[I] = np.arange(n_rec, n_rec + len(I))
            n_rec += len(I)
        head[k] = -1  # no line holds k any more
    core = [dict(zip(I.tolist(), V.tolist()))
            for I, V in zip(line_index, line_vals) if I is not None]
    return pivots, core


def _first_costs(index, vals, count, lens, ell):
    """The Markowitz cost of the cheapest unit in each line, None for a
    line without units, in one pass over the concatenated entries of the
    lines, which have the given nonzero lengths."""
    key = count[index]
    if not ell:
        key[np.abs(vals) != 1] = _NO_UNIT
    low = np.minimum.reduceat(key, np.cumsum(lens) - lens)
    return [None if u >= _NO_UNIT else (u - 1) * (n - 1)
            for u, n in zip(low.tolist(), lens.tolist())]


def _magnitude(a):
    """The largest absolute value in an integer array, as a Python int."""
    return max(int(a.max()), -int(a.min())) if len(a) else 0


def sparse_invariant_factors(matrix):
    """Invariant factors of the integer CSC matrix.

    Unit pivots give factors 1.  The residual core, which has no unit
    entry, is read as vectors of length k, its shorter side; an echelon
    basis of the lattice they span (at most k vectors) is all that goes
    to Smith normal form.  A lattice is spanned by its distinct
    generators up to sign, so only those go to the basis.
    """
    pivots, core = eliminate_units(matrix)
    support = sorted({i for line in core for i in line})
    rows = [[line.get(i, 0) for i in support] for line in core]
    vectors = list(zip(*rows)) if len(core) <= len(support) else \
        [tuple(r) for r in rows]
    # a tuple is above zero when its first nonzero entry is positive
    zero = (0,) * len(vectors[0]) if vectors else ()
    distinct = dict.fromkeys(v if v > zero else tuple(map(operator.neg, v))
                             for v in dict.fromkeys(vectors) if v != zero)
    return [1] * pivots + snf_diagonal(_lattice_basis(list(distinct)))


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

    dims[k] is the rank of C_k; boundaries[k] (for 1 <= k <= depth) is
    the dims[k-1] x dims[k] matrix of d_k: C_k -> C_{k-1}, stored once as
    a CSC matrix (index arrays indptr, rows ascending within each column,
    vals); a degree left out is the zero map.  Builders call
    verify_boundary_squared, which raises ValueError unless
    d_{k-1} . d_k = 0.
    """

    dims: list
    boundaries: dict  # degree -> CSC
    complete: bool = False  # True when C_{depth+1} = 0 (untruncated complex)

    def __post_init__(self):
        for k in range(1, len(self.dims)):
            if k not in self.boundaries:
                self.boundaries[k] = CSC.from_entries(
                    self.dims[k - 1], self.dims[k], (), (), ())

    @property
    def depth(self):
        return len(self.dims) - 1

    def verify_boundary_squared(self):
        for k in range(2, self.depth + 1):
            if not _product_is_zero(self.boundaries[k - 1], self.boundaries[k]):
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

    coefficients is "Z" or "F" followed by a prime in ASCII decimal digits
    with no sign and no leading zero (ValueError otherwise).  Over Z
    returns Betti numbers and torsion from the invariant factors of the
    boundaries; over F_ell returns Betti numbers from their ranks.  Both
    come from eliminate_units.
    """
    ell = _coefficient_prime(coefficients)
    D = complex_.depth
    dims = complex_.dims
    top = D + 1 if complex_.complete else D
    rank = {0: 0}
    tors = {}
    for k in range(1, D + 1):
        if ell is None:
            facs = sparse_invariant_factors(complex_.boundaries[k])
            rank[k] = len(facs)
            tors[k - 1] = sorted(f for f in facs if f not in (1, -1))
        else:
            rank[k], _ = eliminate_units(complex_.boundaries[k], ell)
    betti = {k: dims[k] - rank.get(k, 0) - rank.get(k + 1, 0)
             for k in range(0, top)}
    torsion = {} if ell else {k: tors.get(k, []) for k in range(0, top)}
    return HomologyResult(coefficients, betti, torsion, top - 1, list(dims))


def _coefficient_prime(coefficients):
    """None for "Z", ell for the canonical spelling "F<ell>" of a prime."""
    if coefficients == "Z":
        return None
    digits = coefficients[1:] if isinstance(coefficients, str) and \
        coefficients.startswith("F") else ""
    if digits.isascii() and digits.isdigit() and digits[0] != "0" and \
            _is_prime(int(digits)):
        return int(digits)
    raise ValueError("homology coefficients must be Z or F followed by a "
                     "prime, got %r" % (coefficients,))


# ---------------------------------------------------------------------------
# nerves

def nerve_chain_complex(C, depth, guards=DEFAULT, reduced=False):
    """Normalized nerve chains of a finite category up to the given depth.

    C_k has basis the composable chains (f_1, ..., f_k) of non-identity
    morphisms, in lexicographic order; the i-th face composes
    f_{i+1} . f_i (contributing zero if the composite is an identity) and
    the outer faces drop an end.

    Degree k is built from degree k-1 on arrays.  A k-chain x is a
    (k-1)-chain p, its prefix, followed by g = f_k; its key is
    index(p) |morphisms| + g, so keys ascend within a degree (a 1-chain
    (f) has key f).  For j < k, face j of x is face j of p followed by g,
    except that face k-1 follows face k-1 of p (the prefix of p) by
    g . f_{k-1}.  Each face is found by searchsorted on its key; face j
    is dropped where face j of p was, and face k-1 also where
    g . f_{k-1} is an identity.  Face k of x is p.

    reduced (depth 2 only, else ValueError): C_2 keeps only the chains
    (s, g) whose first morphism s is in the generating set S of C
    (``C.generators``); C_0, C_1, d_1, the faces and their signs are the
    nerve's.  This 2-complex has the nerve's H_0 and H_1, as groups,
    torsion included.  Write R(h, k) = [h] + [k] - [h.k] for the boundary
    of the chain (k, h), with [id] = 0.  If k = k'.s with s in S, then
    R(h, k) = R(h, k') + R(h.k', s) - R(k', s), and every non-identity k
    is a word in S, so induction on the word gives every R(h, k) from the
    R(., s): the image of d_2 is the same.
    """
    if reduced and depth != 2:
        raise ValueError("the reduced nerve has depth 2, got %d" % depth)
    n_mor = C.n_morphisms
    src, tgt = C.src, C.tgt
    is_id = np.zeros(n_mor, bool)
    is_id[C.identity_of] = True
    # the non-identity morphisms, ascending, so grouped by source
    arrows = np.flatnonzero(~is_id)
    out_n = np.bincount(src[arrows], minlength=C.n_objects)
    out_start = np.cumsum(out_n) - out_n
    dims = [C.n_objects]
    boundaries = {}
    for k in range(1, depth + 1):
        if k == 1:
            size = len(arrows)
            _check_simplices(size, k, guards)
            at = np.arange(size)
            d = CSC.from_entries(C.n_objects, size, np.r_[tgt[arrows], src[arrows]],
                                 np.r_[at, at], np.repeat([1, -1], size))
            last = keys = arrows
            faces = np.zeros((size, 2), np.int64)  # the key prefix of (f) is 0
        else:
            heads = np.arange(len(last))
            if reduced:
                heads = heads[C.generators[last]]
            ends = tgt[last[heads]]
            counts = out_n[ends]
            size = int(counts.sum())
            _check_simplices(size, k, guards)
            prefix = np.repeat(heads, counts)
            g = arrows[np.repeat(out_start[ends] - (np.cumsum(counts) - counts),
                                   counts) + np.arange(size)]
            composite = C.compose_many(g, last[prefix])
            of_prefix = faces[prefix]
            faces = np.empty((size, k + 1), np.int64)
            faces[:, :k] = of_prefix * n_mor + g[:, None]
            faces[:, k - 1] += composite - g
            faces[:, :k] = np.searchsorted(keys, faces[:, :k])
            faces[:, :k][of_prefix < 0] = -1
            faces[is_id[composite], k - 1] = -1
            faces[:, k] = prefix
            del of_prefix, composite
            # a dropped face is an entry of value 0, which from_entries drops
            signs = np.where(faces >= 0, 1 - 2 * (np.arange(k + 1) % 2), 0)
            d = CSC.from_entries(dims[-1], size, np.maximum(faces, 0),
                                 np.repeat(np.arange(size), k + 1), signs)
            del signs
            last, keys = g, prefix * n_mor + g
        boundaries[k] = d
        dims.append(size)
    cx = ChainComplex(dims, boundaries)
    cx.verify_boundary_squared()
    return cx


def _check_simplices(count, k, guards):
    if count > guards.max_simplices_per_degree:
        raise GuardExceeded(
            "nerve has %d nondegenerate %d-simplices > max_simplices_per_degree=%d"
            % (count, k, guards.max_simplices_per_degree))


# ---------------------------------------------------------------------------
# simplicial complexes (order complexes, corpus spaces)

def chain_complex_from_facets(facets):
    """Simplicial chain complex from maximal faces (vertices comparable);
    the simplices of each degree are in lexicographic order."""
    simplices = {}
    for f in facets:
        f = tuple(sorted(set(f)))
        for k in range(len(f)):
            for face in itertools.combinations(f, k + 1):
                simplices.setdefault(k, set()).add(face)
    if not simplices:
        return ChainComplex([0], {}, complete=True)
    top = max(simplices)
    ordered = [sorted(simplices.get(k, ())) for k in range(top + 1)]
    dims = [len(s) for s in ordered]
    boundaries = {}
    for k in range(1, top + 1):
        index = {s: i for i, s in enumerate(ordered[k - 1])}
        rows = [index[s[:i] + s[i + 1:]] for s in ordered[k] for i in range(k + 1)]
        signs = np.broadcast_to(1 - 2 * (np.arange(k + 1) % 2), (dims[k], k + 1))
        boundaries[k] = CSC.from_entries(dims[k - 1], dims[k], rows,
                                         np.repeat(np.arange(dims[k]), k + 1),
                                         signs)
    cx = ChainComplex(dims, boundaries, complete=True)
    cx.verify_boundary_squared()
    return cx


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
        d = complex_.boundaries[k]
        dense = [[0] * len(d) for _ in range(d.n_rows)]
        for r, j, v in zip(d.rows.tolist(), d.col_index().tolist(),
                           d.vals.tolist()):
            dense[r][j] = v
        rank[k] = bareiss_rank(dense) if len(d) else 0
    top = D + 1 if complex_.complete else D
    return {k: complex_.dims[k] - rank.get(k, 0) - rank.get(k + 1, 0)
            for k in range(0, top)}
