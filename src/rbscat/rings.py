"""Exact arithmetic over finite coefficient rings.

Supported rings: prime fields F_p, extension fields F_{p^k} (polynomial
residues modulo a fixed irreducible polynomial), and the local rings Z/p^k.
Elements are encoded as integers 0..|R|-1; for F_{p^k} the integer encodes
the coefficient vector of the residue polynomial in base p.  Addition and
multiplication go through precomputed tables, so all higher layers are
oblivious to the ring kind.

Submodules of R^n are kept in a canonical row form (reduced row echelon
over fields, Howell normal form over Z/p^k), which makes equality of
submodules literal equality of the stored matrices.

One elimination routine, _gauss_jordan (unit pivots, each scaled to 1
and cleared from every other row), serves the whole ring layer: rref,
Mat.inverse_or_none (on [A | I]), kernel_basis, and residue_independent,
the greedy independence test over the residue field behind
Submodule.free_basis, complete_to_invertible and the complement that
QuotientData chooses.  qkt's rank and coordinate solver call it too.
The Howell form and reduce_vector compute a different normal form, and
Mat.det expands permutations, because unit-pivot elimination is wrong
for a singular matrix over Z/p^k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .guards import DEFAULT, GuardExceeded


class RingError(ValueError):
    """Invalid ring descriptor or ring-axiom violation."""


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient lists, low degree first)

def _fq_tables(p, k, poly):
    """Addition and multiplication tables of F_p[x]/(poly), poly monic of
    degree k, on the codes of the residues: digit i of a code in base p is
    the coefficient of x^i."""
    weights = p ** np.arange(k)
    digits = np.arange(p ** k)[:, None] // weights % p
    add = (digits[:, None, :] + digits[None, :, :]) % p @ weights
    # coefficients of the product, then x^d = x^(d-k) (x^k - poly) reduced
    # from the top degree down
    prod = np.zeros((p ** k, p ** k, 2 * k - 1), np.int64)
    for i in range(k):
        for j in range(k):
            prod[:, :, i + j] += np.multiply.outer(digits[:, i], digits[:, j])
    low = np.array(poly[:k], np.int64)
    for d in range(2 * k - 2, k - 1, -1):
        prod[:, :, d - k:d] -= prod[:, :, d, None] % p * low
    return add, prod[:, :, :k] % p @ weights


def _poly_is_irreducible(poly, p):
    """Trial division of a monic polynomial by all lower-degree monic ones."""
    deg = len(poly) - 1
    if deg < 1 or poly[-1] != 1:
        return False
    if deg == 1:
        return True
    for r in range(p):  # linear roots
        acc = 0
        for c in reversed(poly):
            acc = (acc * r + c) % p
        if acc == 0:
            return False
    for d in range(2, deg // 2 + 1):
        for coeffs in itertools.product(range(p), repeat=d):
            div = list(coeffs) + [1]
            if _poly_divides(div, poly, p):
                return False
    return True


def _poly_divides(div, poly, p):
    rem = list(poly)
    dd = len(div) - 1
    inv_lead = pow(div[-1], p - 2, p)
    while len(rem) - 1 >= dd:
        c = rem[-1] * inv_lead % p
        if c:
            off = len(rem) - 1 - dd
            for j in range(dd + 1):
                rem[off + j] = (rem[off + j] - c * div[j]) % p
        rem.pop()
        while len(rem) > 1 and rem[-1] == 0 and len(rem) - 1 >= dd:
            rem.pop()
    return all(c == 0 for c in rem)


def default_irreducible(p, k):
    """Lexicographically smallest monic irreducible of degree k over F_p."""
    for coeffs in itertools.product(range(p), repeat=k):
        poly = list(coeffs) + [1]
        if _poly_is_irreducible(poly, p):
            return tuple(poly)
    raise RingError("no irreducible polynomial found (impossible)")


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------

class FiniteRing:
    """Finite commutative ring with precomputed operation tables.

    kind is one of "Fp", "Fq", "Zpk".  Elements are ints 0..size-1 with
    0 = zero and 1 = one in every encoding.
    """

    def __init__(self, kind, p, k, poly=None, guards=DEFAULT):
        self.kind = kind
        self.p = p
        self.k = k
        self.size = p ** k
        self.poly = poly
        guards.check(self.size, "max_ring_size", "ring construction")
        if kind in ("Fp", "Zpk"):
            elements = np.arange(self.size)
            add = np.add.outer(elements, elements) % self.size
            mul = np.multiply.outer(elements, elements) % self.size
        elif kind == "Fq":
            if poly is None or len(poly) != k + 1 or poly[-1] != 1:
                raise RingError("Fq needs a monic degree-k polynomial")
            if not _poly_is_irreducible(list(poly), p):
                raise RingError("polynomial %s is reducible over F_%d" % (list(poly), p))
            add, mul = _fq_tables(p, k, poly)
        else:
            raise RingError("unknown ring kind %r" % kind)
        # the first b with a + b = 0, and with a b = 1 where there is one
        self.add, self.mul = add.tolist(), mul.tolist()
        self.neg = np.argmax(add == 0, axis=1).tolist()
        unit = mul == 1
        self.inv = [b if found else None for b, found in
                    zip(np.argmax(unit, axis=1).tolist(), unit.any(axis=1).tolist())]
        self.units = tuple(a for a, b in enumerate(self.inv) if b is not None)
        self._validate()

    def _validate(self):
        """The ring axioms, exactly: one n x n slice of table gathers per
        element a holds the triples (a, b, c).  A failure names the first
        failing triple in lexicographic order."""
        n = self.size
        add, mul = self.add, self.mul
        if any(add[a][0] != a or mul[a][1] != a or mul[a][0] != 0 for a in range(n)):
            raise RingError("0/1 are not neutral")
        A = np.array(add, np.int64).reshape(n, n)
        M = np.array(mul, np.int64).reshape(n, n)
        for a in range(n):
            bad = (A[A[a]] != A[a][A],
                   M[M[a]] != M[a][M],
                   M[a][A] != A[M[a][:, None], M[a][None, :]])
            either = bad[0] | bad[1] | bad[2]
            if either.any():
                b, c = np.unravel_index(np.argmax(either), either.shape)
                what = next(w for w, fails in zip(
                    ("addition not associative", "multiplication not "
                     "associative", "distributivity fails"), bad) if fails[b, c])
                raise RingError("%s at %s" % (what, (a, int(b), int(c))))
        bad = (A != A.T) | (M != M.T)
        if bad.any():
            a, b = np.unravel_index(np.argmax(bad), bad.shape)
            raise RingError("commutativity fails at %s" % ((int(a), int(b)),))

    @property
    def is_field(self):
        return self.kind in ("Fp", "Fq")

    def descriptor(self):
        d = {"kind": self.kind, "p": self.p, "k": self.k}
        if self.poly is not None:
            d["poly"] = list(self.poly)
        return d

    def __repr__(self):
        if self.kind == "Zpk":
            return "Z/%d" % self.size
        return "F_%d" % self.size

    # rings are interned by make_ring; identity comparison is fine, but a
    # stable key is handy for caches and serialisation
    def key(self):
        return (self.kind, self.p, self.k, self.poly)


@lru_cache(maxsize=None)
def _make_ring_cached(kind, p, k, poly):
    return FiniteRing(kind, p, k, poly)


def make_ring(spec, guards=DEFAULT):
    """Build a ring from a descriptor.

    Accepts strings "F<q>" (q = p^k) and "Z<p^k>", or dicts
    {"kind": .., "p": .., "k": .., "poly": optional}.  The ring size is
    checked against the guards on every call, cached ring or not.
    """
    if isinstance(spec, FiniteRing):
        guards.check(spec.size, "max_ring_size", "ring construction")
        return spec
    if isinstance(spec, str):
        s = spec.strip().upper()
        if not s or s[0] not in "FZ" or not s[1:].isdigit():
            raise RingError("cannot parse ring descriptor %r" % spec)
        n = int(s[1:])
        p, k = _prime_power(n)
        if s[0] == "F":
            key = ("Fp", p, 1, None) if k == 1 else \
                ("Fq", p, k, default_irreducible(p, k))
        elif k == 1:
            raise RingError("Z/%d with prime modulus: use F%d" % (n, n))
        else:
            key = ("Zpk", p, k, None)
    elif isinstance(spec, dict):
        kind = spec["kind"]
        p, k = spec["p"], spec.get("k", 1)
        if not _is_prime(p):
            raise RingError("%d is not prime" % p)
        poly = tuple(spec["poly"]) if "poly" in spec else None
        if kind == "Fq" and poly is None:
            poly = default_irreducible(p, k)
        key = (kind, p, k, poly)
    else:
        raise RingError("cannot parse ring descriptor %r" % (spec,))
    guards.check(p ** k, "max_ring_size", "ring construction")
    return _make_ring_cached(*key)


def _prime_power(n):
    if n < 2:
        raise RingError("modulus must be >= 2")
    for p in range(2, n + 1):
        if _is_prime(p) and n % p == 0:
            k = 0
            m = n
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise RingError("%d is not a prime power" % n)
            return p, k
    raise RingError("unreachable")


# ---------------------------------------------------------------------------
# matrices

class Mat:
    """Immutable matrix over a FiniteRing (row-major tuple of tuples).

    Empty matrices carry an explicit column count so that maps to and
    from the zero module compose correctly.
    """

    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring, data, cols=None):
        self.ring = ring
        self.data = tuple(tuple(r) for r in data)
        self.rows = len(self.data)
        if self.data:
            self.cols = len(self.data[0])
            if cols is not None and cols != self.cols:
                raise RingError("matrix rows have %d entries, not cols=%d"
                                % (self.cols, cols))
        else:
            self.cols = 0 if cols is None else cols
        if any(len(r) != self.cols for r in self.data):
            raise RingError("matrix rows differ in length")

    @staticmethod
    def identity(ring, n):
        return Mat(ring, [[1 if i == j else 0 for j in range(n)] for i in range(n)],
                   cols=n)

    @staticmethod
    def zero(ring, r, c):
        return Mat(ring, [[0] * c for _ in range(r)], cols=c)

    def __eq__(self, other):
        return isinstance(other, Mat) and self.data == other.data and \
            self.cols == other.cols and self.ring is other.ring

    def __hash__(self):
        return hash((id(self.ring), self.data, self.cols))

    def __repr__(self):
        return "Mat(%s)" % (self.data,)

    def mul(self, other):
        if self.cols != other.rows:
            raise RingError("shape mismatch: %d columns times %d rows"
                            % (self.cols, other.rows))
        R = self.ring
        add, mul = R.add, R.mul
        out = []
        for row in self.data:
            orow = []
            for j in range(other.cols):
                acc = 0
                for k, x in enumerate(row):
                    y = other.data[k][j]
                    if x and y:
                        acc = add[acc][mul[x][y]]
                orow.append(acc)
            out.append(orow)
        return Mat(R, out, cols=other.cols)

    def mul_vec(self, vec):
        R = self.ring
        add, mul = R.add, R.mul
        out = []
        for row in self.data:
            acc = 0
            for x, y in zip(row, vec):
                if x and y:
                    acc = add[acc][mul[x][y]]
            out.append(acc)
        return tuple(out)

    def det(self):
        """Determinant by permutation expansion (intended for n <= 4)."""
        if self.rows != self.cols:
            raise RingError("determinant of a non-square matrix")
        R = self.ring
        n = self.rows
        total = 0
        for perm in itertools.permutations(range(n)):
            prod = 1
            for i in range(n):
                prod = R.mul[prod][self.data[i][perm[i]]]
                if prod == 0:
                    break
            inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                             if perm[i] > perm[j])
            total = R.add[total][prod if inversions % 2 == 0 else R.neg[prod]]
        return total

    def is_invertible(self):
        return self.inverse_or_none() is not None

    def inverse(self):
        inv = self.inverse_or_none()
        if inv is None:
            raise RingError("matrix is not invertible")
        return inv

    def inverse_or_none(self):
        """Gauss-Jordan on [A | I]: A is invertible iff every column of A
        takes a unit pivot.  Works over fields and Z/p^k."""
        if self.rows != self.cols:
            return None
        n = self.rows
        aug = [list(row) + [int(i == j) for j in range(n)]
               for i, row in enumerate(self.data)]
        if _gauss_jordan(self.ring, aug, n) != list(range(n)):
            return None
        return Mat(self.ring, [row[n:] for row in aug], cols=n)

    def encode(self):
        """Total order key: row-major entry tuple."""
        return self.data


# ---------------------------------------------------------------------------
# canonical row forms

def _gauss_jordan(ring, work, ncols):
    """Reduce the rows of `work` in place and return the pivot columns.

    Pivots are units in the first ncols columns, taken column by column
    from the first unreduced row down; each pivot is scaled to 1 and its
    column cleared in every other row.  The pivot rows end up first.
    """
    add, mul, neg, inv = ring.add, ring.mul, ring.neg, ring.inv
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        for piv in range(r, len(work)):
            if inv[work[piv][col]] is not None:
                break
        else:
            continue
        work[r], work[piv] = work[piv], work[r]
        scale = mul[inv[work[r][col]]]
        prow = work[r] = [scale[x] for x in work[r]]
        for i, row in enumerate(work):
            c = row[col]
            if c and i != r:
                times = mul[c]
                work[i] = [add[x][neg[times[y]]] for x, y in zip(row, prow)]
        pivots.append(col)
    return pivots


def rref(ring, rows):
    """Reduced row echelon form over a field; returns nonzero rows."""
    if not ring.is_field:
        raise RingError("%s is not a field" % (ring,))
    work = [list(r) for r in rows]
    pivots = _gauss_jordan(ring, work, len(work[0]) if work else 0)
    return tuple(tuple(row) for row in work[:len(pivots)])


def howell(ring, rows):
    """Howell normal form over Z/p^k; returns nonzero rows.

    The Howell form is the canonical echelon form whose row span determines
    it uniquely, with the saturation property: any span element with leading
    column >= c lies in the span of the rows with pivot column >= c.
    Pivots are normalised to powers of p and entries above a pivot are
    reduced modulo the pivot.
    """
    if ring.kind != "Zpk":
        raise RingError("Howell form needs a ring Z/p^k, not %s" % (ring,))
    n = ring.size
    p = ring.p
    ncols = len(rows[0]) if rows else 0
    pending = [list(r) for r in rows if any(r)]
    result = []  # echelon rows, pivot columns strictly increasing

    def leading(row):
        for j, x in enumerate(row):
            if x:
                return j
        return None

    while pending:
        row = pending.pop()
        while True:
            j = leading(row)
            if j is None:
                break
            placed = False
            for idx, existing in enumerate(result):
                ej = leading(existing)
                if ej == j:
                    # combine via extended gcd on the leading entries
                    a, b = existing[j], row[j]
                    g, s, t = _xgcd(a, b)
                    u, v = -(b // g), a // g
                    new_exist = [(s * x + t * y) % n for x, y in zip(existing, row)]
                    new_row = [(u * x + v * y) % n for x, y in zip(existing, row)]
                    result[idx] = new_exist
                    if g % n != a % n:
                        # pivot changed: queue the saturation multiple anew
                        ann = n // _gcd(n, g)
                        if ann != 1:
                            extra = [(ann * x) % n for x in new_exist]
                            if any(extra):
                                pending.append(extra)
                    row = new_row
                    placed = True
                    break
                if ej > j:
                    result.insert(idx, list(row))
                    # saturation: the annihilator multiple has a later pivot
                    ann = n // _gcd(n, row[j])
                    if ann != 1:
                        extra = [(ann * x) % n for x in row]
                        if any(extra):
                            pending.append(extra)
                    row = [0] * ncols
                    placed = True
                    break
            if not placed:
                result.append(list(row))
                ann = n // _gcd(n, row[j])
                if ann != 1:
                    extra = [(ann * x) % n for x in row]
                    if any(extra):
                        pending.append(extra)
                row = [0] * ncols
    # normalise: unit-scale pivots to p^v, reduce above
    result = [r for r in result if any(r)]
    result.sort(key=leading)
    for i, row in enumerate(result):
        j = leading(row)
        g = _gcd(n, row[j])          # p^v, the normalised pivot
        unit = row[j] // g           # row[j] = g * unit with unit invertible mod n/g
        uinv = _unit_inverse(unit, n)
        result[i] = [(uinv * x) % n for x in row]
    # left-to-right so entries introduced at later columns are re-reduced
    for i in range(len(result)):
        j = leading(result[i])
        piv = result[i][j]
        for i2 in range(i):
            c = result[i2][j]
            q = c // piv
            if q:
                result[i2] = [(x - q * y) % n for x, y in zip(result[i2], result[i])]
    return tuple(tuple(r) for r in result)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _unit_inverse(u, n):
    g, s, _ = _xgcd(u % n, n)
    if g != 1:
        # u is a unit modulo n/pivot only; lift to a unit mod n first
        # (u coprime to p since pivot absorbed all p factors)
        raise RingError("pivot unit part not invertible")
    return s % n


def canonical_rowspace(ring, rows):
    """Canonical generating rows of the row span (RREF or Howell form)."""
    if ring.is_field:
        return rref(ring, rows)
    return howell(ring, rows)


def reduce_vector(ring, canon_rows, vec):
    """Reduce vec against canonical rows; zero result iff vec in the span."""
    v = list(vec)
    if ring.is_field:
        for row in canon_rows:
            j = next(i for i, x in enumerate(row) if x)
            if v[j]:
                c = v[j]  # row has pivot 1
                v = [ring.add[x][ring.neg[ring.mul[c][y]]] for x, y in zip(v, row)]
        return tuple(v)
    n = ring.size
    for row in canon_rows:
        j = next(i for i, x in enumerate(row) if x)
        if v[j]:
            piv = row[j]
            if v[j] % piv == 0:
                q = v[j] // piv
                v = [(x - q * y) % n for x, y in zip(v, row)]
    return tuple(v)


# ---------------------------------------------------------------------------
# submodules and flags

@dataclass(frozen=True)
class Submodule:
    """Submodule of R^n in canonical row form; equality is literal."""

    ring: FiniteRing
    n: int
    mat: tuple  # tuple of canonical generating rows (possibly empty)

    @staticmethod
    def from_rows(ring, n, rows):
        rows = [r for r in rows if any(r)]
        return Submodule(ring, n, canonical_rowspace(ring, rows) if rows else ())

    @staticmethod
    def zero(ring, n):
        return Submodule(ring, n, ())

    @staticmethod
    def full(ring, n):
        return Submodule(ring, n, Mat.identity(ring, n).data if n else ())

    @property
    def rank(self):
        return len(self.mat)

    def contains(self, vec):
        return not any(reduce_vector(self.ring, self.mat, vec))

    def contains_sub(self, other):
        return all(self.contains(r) for r in other.mat)

    def __le__(self, other):
        return other.contains_sub(self)

    def __lt__(self, other):
        return self != other and other.contains_sub(self)

    def elements(self):
        """All vectors of the submodule (intended for small instances)."""
        R = self.ring
        out = set()
        for coeffs in itertools.product(range(R.size), repeat=len(self.mat)):
            v = [0] * self.n
            for c, row in zip(coeffs, self.mat):
                if c:
                    v = [R.add[x][R.mul[c][y]] for x, y in zip(v, row)]
            out.add(tuple(v))
        return out

    def size(self):
        R = self.ring
        if R.is_field:
            return R.size ** self.rank
        # product of cyclic orders n/pivot over Howell pivots
        total = 1
        for row in self.mat:
            piv = next(x for x in row if x)
            total *= R.size // _gcd(R.size, piv)
        return total

    def transform(self, g):
        """Image g(S) for g an invertible Mat acting on column vectors."""
        rows = [g.mul_vec(r) for r in self.mat]
        return Submodule.from_rows(self.ring, self.n, rows)

    @property
    def free_rank(self):
        """Rank of the mod-p reduction; equals the free rank for summands."""
        return len(self.free_basis())

    def free_basis(self):
        """Canonical free basis of a splittable submodule.

        Over a field this is the RREF basis.  Over Z/p^k it is the greedy
        subset of Howell rows whose mod-p reductions are independent; for a
        direct summand these rows form a free basis.
        """
        R = self.ring
        if R.is_field:
            return self.mat
        return tuple(self.mat[i] for i in residue_independent(R, self.mat))

    def sort_key(self):
        return (self.rank, self.mat)


def residue_independent(ring, vectors):
    """Indices of the vectors that a greedy pass keeps as independent over
    the residue field: the pivot columns of the RREF of the vectors taken
    as columns.  Over Z/p^k a unit is an element nonzero mod p, so each
    unit-pivot step commutes with reduction mod p, and eliminating over
    the ring gives the pivots of the reduction over F_p."""
    work = [list(row) for row in zip(*vectors)]
    return _gauss_jordan(ring, work, len(vectors))


def is_splittable(sub):
    """True iff the submodule is a direct summand of R^n.

    Over a field this always holds.  Over Z/p^k: S is a summand iff
    |S| = (p^k)^r where r is the rank of the image of S in F_p^n; the
    greedy free_basis rows then extend to a basis of R^n.
    """
    R = sub.ring
    if R.is_field:
        return True
    r = sub.free_rank
    return sub.size() == R.size ** r


def enumerate_submodules(ring, n, guards=DEFAULT):
    """All submodules of R^n (BFS closure under adding generators)."""
    guards.check(ring.size ** n, "max_vector_enum", "submodule enumeration")
    vectors = [v for v in itertools.product(range(ring.size), repeat=n) if any(v)]
    zero = Submodule.zero(ring, n)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for sub in frontier:
            for v in vectors:
                if sub.contains(v):
                    continue
                bigger = Submodule.from_rows(ring, n, list(sub.mat) + [list(v)])
                if bigger not in seen:
                    seen.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    return sorted(seen, key=Submodule.sort_key)


def enumerate_splittable_submodules(ring, n, guards=DEFAULT):
    """All splittable submodules, canonical and sorted, including 0 and R^n."""
    if ring.is_field:
        return enumerate_submodules(ring, n, guards)
    return [s for s in enumerate_submodules(ring, n, guards) if is_splittable(s)]


@dataclass(frozen=True)
class Flag:
    """Strictly increasing chain of proper nonzero splittable submodules.

    members = () encodes the empty flag; the number of graded pieces is
    len(members) + 1 (for n > 0).
    """

    ring: FiniteRing
    n: int
    members: tuple  # tuple of Submodule, strictly increasing

    def __post_init__(self):
        for i, m in enumerate(self.members):
            if not 0 < m.free_rank < self.n:
                raise RingError("flag members must be proper and nonzero")
            if not is_splittable(m):
                raise RingError("flag members must be splittable")
            if i and not self.members[i - 1] < m:
                raise RingError("flag must be strictly increasing")

    @property
    def length(self):
        """Number of graded pieces d (empty flag: d = 1)."""
        return len(self.members) + 1

    def member_set(self):
        return frozenset(self.members)

    def transform(self, g):
        return Flag(self.ring, self.n, tuple(m.transform(g) for m in self.members))

    def full_chain(self):
        """0 = M_0 < M_1 < ... < M_d = R^n including the ends."""
        return (Submodule.zero(self.ring, self.n),) + self.members + \
            (Submodule.full(self.ring, self.n),)

    def sort_key(self):
        return (len(self.members), tuple(m.sort_key() for m in self.members))

    def __repr__(self):
        if not self.members:
            return "Flag[empty]"
        return "Flag[%s]" % " < ".join(str(m.mat) for m in self.members)


EMPTY = "empty"


def enumerate_flags(ring, n, guards=DEFAULT):
    """All splittable flags of R^n, the empty flag first."""
    subs = [s for s in enumerate_splittable_submodules(ring, n, guards)
            if 0 < s.free_rank < n]
    subs.sort(key=Submodule.sort_key)
    flags = []

    # splittable members are free, so strict inclusion strictly increases
    # rank and every chain is generated exactly once
    def extend(chain):
        flags.append(Flag(ring, n, tuple(chain)))
        for s in subs:
            if not chain or chain[-1] < s:
                extend(chain + [s])

    extend([])
    flags.sort(key=Flag.sort_key)
    return flags


def complete_to_invertible(ring, rows, n):
    """Extend free-basis rows to an invertible n x n matrix by greedily
    appending standard basis rows (lexicographically least completion)."""
    units = [[int(i == j) for i in range(n)] for j in range(n)]
    kept = residue_independent(ring, list(rows) + units)
    if kept[:len(rows)] != list(range(len(rows))):
        raise RingError("rows are not independent over the residue field")
    ext = Mat(ring, [list(r) for r in rows] +
              [units[j - len(rows)] for j in kept[len(rows):]])
    inv = ext.inverse_or_none() if ext.rows == n else None
    if inv is None:
        raise RingError("completion failed to be invertible")
    return ext, inv


def _row_times_mat(ring, vec, mat):
    """Row vector times matrix."""
    add, mul = ring.add, ring.mul
    out = [0] * mat.cols
    for x, row in zip(vec, mat.data):
        if x:
            for j, y in enumerate(row):
                if y:
                    out[j] = add[out[j]][mul[x][y]]
    return tuple(out)


class QuotientData:
    """Chosen complement of `small` inside `big` with coordinate maps.

    section_rows: ambient rows spanning the complement (a free summand).
    project(v): complement coordinates of an ambient vector v in big.
    coords(v): coordinates of v in big's canonical free basis.
    The choice rule is deterministic: complement coordinates are the
    non-pivot columns of small's image in big-coordinates over the residue
    field, completed lexicographically.
    """

    def __init__(self, small, big):
        if not big.contains_sub(small):
            raise RingError("small must be contained in big")
        ring = small.ring
        self.ring = ring
        self.small = small
        self.big = big
        n = small.n
        B = big.free_basis()
        rb = len(B)
        ext, ext_inv = complete_to_invertible(ring, B, n)
        self._ext_inv = ext_inv
        self._rb = rb
        # small's free basis in big-coordinates; the columns a greedy pass
        # keeps are its pivot columns over the residue field
        small_rows = [self._coords(r) for r in small.free_basis()]
        pivots = residue_independent(ring, list(zip(*small_rows)))
        if len(pivots) != len(small_rows):
            raise RingError("small free basis degenerate in big coordinates")
        comp_idx = [i for i in range(rb) if i not in pivots]
        self.comp_idx = comp_idx
        self.section_rows = tuple(B[i] for i in comp_idx)
        # invert [small_rows; unit rows at comp_idx] to split coordinates
        square = [list(r) for r in small_rows]
        for i in comp_idx:
            square.append([1 if j == i else 0 for j in range(rb)])
        if rb:
            sq = Mat(ring, square)
            self._split_inv = sq.inverse()
        else:
            self._split_inv = Mat(ring, [])
        self._nsmall = len(small_rows)

    def _coords(self, vec):
        full = _row_times_mat(self.ring, vec, self._ext_inv)
        if any(full[self._rb:]):
            raise RingError("vector outside big")
        return full[: self._rb]

    def coords(self, vec):
        return self._coords(vec)

    def project(self, vec):
        """Complement coordinates of v (the class of v in big/small)."""
        x = self._coords(vec)
        y = _row_times_mat(self.ring, x, self._split_inv)
        return tuple(y[self._nsmall:])

    def section(self, comp_coords):
        """Ambient representative of a class given in complement coordinates."""
        ring = self.ring
        v = [0] * self.small.n
        for c, row in zip(comp_coords, self.section_rows):
            if c:
                v = [ring.add[x][ring.mul[c][y]] for x, y in zip(v, row)]
        return tuple(v)

    @property
    def quotient_rank(self):
        return len(self.comp_idx)


def kernel_basis(ring, mat):
    """Canonical basis rows of {v : mat . v = 0} (column-vector convention).

    Computed from the RREF of mat with the standard free-column completion,
    then re-canonicalised, so equal kernels give equal bases.
    """
    if not ring.is_field:
        raise RingError("%s is not a field" % (ring,))
    work = [list(r) for r in mat.data]
    ncols = mat.cols
    pivots = _gauss_jordan(ring, work, ncols)
    rows = work[:len(pivots)]
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for j in free:
        v = [0] * ncols
        v[j] = 1
        for r_idx, r in enumerate(rows):
            # entry at pivot column solves the row equation
            v[pivots[r_idx]] = ring.neg[r[j]]
        basis.append(v)
    return canonical_rowspace(ring, basis) if basis else ()


# ---------------------------------------------------------------------------
# GL(M)

def _check_gl_rank(n):
    if n < 0:
        raise RingError("GL rank n must be at least 0, got %d" % n)


def enumerate_gl(ring, n, guards=DEFAULT):
    """All invertible n x n matrices, sorted by entry encoding."""
    _check_gl_rank(n)
    if n == 0:
        return [Mat(ring, [])]
    candidates = ring.size ** (n * n)
    guards.check(candidates, "max_gl_candidates", "GL enumeration")
    out = []
    for entries in itertools.product(range(ring.size), repeat=n * n):
        m = Mat(ring, [entries[i * n:(i + 1) * n] for i in range(n)])
        if m.is_invertible():
            out.append(m)
    out.sort(key=Mat.encode)
    return out


def gl_from_generators(ring, n, guards=DEFAULT):
    """GL(R^n) as the multiplicative closure of elementary and unit-diagonal
    matrices; cross-check path for enumerate_gl."""
    _check_gl_rank(n)
    if n == 0:
        return [Mat(ring, [])]
    gens = []
    ident = Mat.identity(ring, n)
    for i in range(n):
        for j in range(n):
            if i != j:
                rows = [list(r) for r in ident.data]
                rows[i][j] = 1
                gens.append(Mat(ring, rows))
    for u in ring.units:
        rows = [list(r) for r in ident.data]
        rows[0][0] = u
        gens.append(Mat(ring, rows))
    seen = {ident.data: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = g.mul(m)
                if prod.data not in seen:
                    if len(seen) >= guards.max_group_order:
                        raise GuardExceeded("group closure exceeds max_group_order")
                    seen[prod.data] = prod
                    nxt.append(prod)
        frontier = nxt
    return sorted(seen.values(), key=Mat.encode)

