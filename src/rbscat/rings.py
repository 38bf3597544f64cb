"""Exact arithmetic over finite coefficient rings.

Supported rings: prime fields F_p, extension fields F_{p^k} (polynomial
residues modulo a fixed irreducible polynomial), and the local rings Z/p^k.
Elements are encoded as integers 0..|R|-1; for F_{p^k} the integer encodes
the coefficient vector of the residue polynomial in base p.  Addition and
multiplication go through precomputed tables, so all higher layers are
oblivious to the ring kind.  Each ring holds its tables twice, as lists
for scalar lookups and as int64 arrays for array code.

Submodules of R^n are kept in a canonical row form (reduced row echelon
over fields, Howell normal form over Z/p^k), which makes equality of
submodules literal equality of the stored matrices.

The enumerations run on arrays.  A vector of R^n is numbered by its
code, its entries read as digits in base |R|.  gl_tables keeps the
candidate matrices whose action on the vector codes is a permutation,
and returns that action table with them; GL(M) in rbs reads it for the
action on flags, the unipotent subgroups and the product table.
enumerate_submodules is a breadth-first search that forms each span
S + R v as a membership row over the vector codes, deduplicates spans
by that row, and computes one canonical form per distinct submodule.
Every chain of submodules (splittable flags, qkt's flag chains, the Tits
building's facets) is listed by chains_through, one array join per rank,
on the proper inclusions that inclusion_table reads from one float64
product of membership rows.
determinants expands permutations over a whole stack of matrices.
span_codes lists the codes of all combinations of some rows (so the row
of image codes of a linear map), echelon_rows reads reduced row echelon
forms off membership rows.  complement_codes is the one place that
chooses the complement of small in big (for rbs's graded pieces and
qkt's quotients and cokernels): the rows of big's free basis at the
columns that are no pivot of small's coordinates, read off code maps,
returned as the code maps of the projection and the section.  There is
no matrix class: a matrix is an int64 array, or a tuple of row tuples
where it is a label or a key.

One elimination routine, _gauss_jordan (unit pivots, each scaled to 1
and cleared from every other row), serves the ring layer: rref and
residue_independent, the greedy independence test over the residue
field behind Submodule.free_basis.  The Howell form and reduce_vector
compute a different normal form, and determinants expand permutations,
because unit-pivot elimination is wrong for a singular matrix over
Z/p^k.
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


def _generators(table):
    """A generating set of the operation with this table: each element,
    in order, that the closure of those kept so far does not reach."""
    n = len(table)
    reached = np.zeros(n, bool)
    kept = []
    for a in range(n):
        if reached[a]:
            continue
        kept.append(a)
        reached[a] = True
        while True:
            members = np.flatnonzero(reached)
            reached[table[np.ix_(members, members)]] = True
            if reached.sum() == len(members):
                break
    return np.array(kept, np.int64)


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
        # the tables twice: int64 arrays for array code, lists for scalar
        # lookups; neg[a] is the first b with a + b = 0, inv[a] the first b
        # with a b = 1 where there is one
        self.add_array, self.mul_array = add, mul
        self.neg_array = np.argmax(add == 0, axis=1)
        self.add, self.mul = add.tolist(), mul.tolist()
        self.neg = self.neg_array.tolist()
        unit = mul == 1
        self.inv = [b if found else None for b, found in
                    zip(np.argmax(unit, axis=1).tolist(), unit.any(axis=1).tolist())]
        self.units = tuple(a for a, b in enumerate(self.inv) if b is not None)
        self._validate()

    def _validate(self):
        """The ring axioms, exactly, on the list tables.

        Associativity of + and of x is Light's test over a generating set
        G of the operation: (x g) y = x (g y) for all x, y and every g in
        G implies it for every g, because the g that pass are closed under
        the operation.  Once + is associative, a (b + c) = a b + a c for
        every c in G_+ implies it for every c, by the same closure.  Only
        when one of these fails are all triples scanned, so that a failure
        names the first failing triple in lexicographic order."""
        n = self.size
        add, mul = self.add, self.mul
        if any(add[a][0] != a or mul[a][1] != a or mul[a][0] != 0 for a in range(n)):
            raise RingError("0/1 are not neutral")
        A = np.array(add, np.int64).reshape(n, n)
        M = np.array(mul, np.int64).reshape(n, n)
        plus, times = _generators(A), _generators(M)
        if not ((A[A[:, plus]] == A[:, A[plus]]).all()
                and (M[M[:, times]] == M[:, M[times]]).all()
                and (M[:, A[:, plus]] == A[M[:, :, None], M[:, None, plus]]).all()):
            self._first_failing_triple(A, M)
        bad = (A != A.T) | (M != M.T)
        if bad.any():
            a, b = np.unravel_index(np.argmax(bad), bad.shape)
            raise RingError("commutativity fails at %s" % ((int(a), int(b)),))

    @staticmethod
    def _first_failing_triple(A, M):
        """Raise for the first triple (a, b, c) that fails associativity
        or distributivity: one n x n slice of table gathers per a."""
        n = len(A)
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
        raise RuntimeError("Light's test failed, yet no triple fails")

    def unit_invariant_factors(self):
        """The invariant factors d_1 | d_2 | ... of the unit group, each
        above 1, ascending: the abelian group R^x is the product of the
        cyclic groups of these orders.

        For each prime p, #{u : u^(p^j) = 1} = p^(c_1 + ... + c_j), where
        c_j is the number of cyclic factors of the p-part whose order is
        at least p^j; the orders of the units come from the table."""
        mul, units = self.mul, self.units
        orders = []
        for u in units:
            x, k = u, 1
            while x != 1:
                x, k = mul[x][u], k + 1
            orders.append(k)
        rest, parts = len(units), []
        for p in range(2, len(units) + 1):
            if rest % p:
                continue
            while rest % p == 0:
                rest //= p
            # at_least[j - 1] = c_j; the exponents of the p-part, largest first
            at_least, below = [], 1
            while True:
                count = sum(1 for o in orders if p ** (len(at_least) + 1) % o == 0)
                c = 0
                while below * p ** (c + 1) <= count:
                    c += 1
                if c == 0:
                    break
                at_least.append(c)
                below *= p ** c
            parts.append([p ** sum(1 for c in at_least if c > t)
                          for t in range(at_least[0])])
        factors = [1] * max(map(len, parts), default=0)
        for part in parts:
            for t, power in enumerate(part):
                factors[t] *= power
        return sorted(factors)

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
# array arithmetic on the ring tables

# no temporary array of a chunked table computation holds many more entries
_CHUNK_ENTRIES = 1 << 18


def _ring_products(ring, left, right):
    """Yield (lo, P) with P[a, b] = left[lo + a] right[b], matrix products
    over the ring's add/mul tables, for chunks of the stack left (shape
    (L, n, m)); right has shape (B, m, p).  No chunk's temporary holds
    many more than _CHUNK_ENTRIES entries."""
    add, mul = ring.add_array, ring.mul_array
    n, m = left.shape[1:]
    p = right.shape[2]
    step = max(1, _CHUNK_ENTRIES // max(1, len(right) * n * m * p))
    for lo in range(0, len(left), step):
        # terms[a, b, i, k, j] = A[a, i, k] B[b, k, j], summed over k
        terms = mul[left[lo:lo + step, None, :, :, None],
                    right[None, :, None, :, :]]
        acc = np.zeros(terms.shape[:3] + (p,), np.int64)
        for k in range(m):
            acc = add[acc, terms[:, :, :, k, :]]
        yield lo, acc


def determinants(ring, stack):
    """The determinant of every matrix of the stack (shape (L, n, n)): one
    permutation expansion over the whole stack, on the ring tables.  It
    divides by nothing, so it is exact for singular matrices over Z/p^k,
    where unit-pivot elimination is not."""
    add, mul, neg = ring.add_array, ring.mul_array, ring.neg_array
    n = stack.shape[1]
    total = np.zeros(len(stack), np.int64)
    for perm in itertools.permutations(range(n)):
        prod = np.ones(len(stack), np.int64)
        for i, j in enumerate(perm):
            prod = mul[prod, stack[:, i, j]]
        inversions = sum(perm[i] > perm[j] for i in range(n)
                         for j in range(i + 1, n))
        total = add[total, neg[prod] if inversions % 2 else prod]
    return total


# Vectors of R^n are numbered by their codes: the entries read as the
# digits of a number in base |R|, the first entry most significant (the
# order of itertools.product).

def _code_weights(ring, n):
    """The place value of each of the n entries of a vector code."""
    return ring.size ** np.arange(n - 1, -1, -1, dtype=np.int64)


def _vector_digits(ring, n, codes):
    """The entries of the vectors with these codes (one more axis, n)."""
    return np.asarray(codes, np.int64)[..., None] // \
        _code_weights(ring, n) % ring.size


def _spans(ring, n, elems, vs):
    """Membership rows over the vector codes of the submodules S + R v,
    one for each vector code v in vs, where elems are the codes of the
    elements of S: every s + c v, added entrywise on the ring tables."""
    multiples = ring.mul_array[np.arange(ring.size)[:, None, None],
                               _vector_digits(ring, n, vs)]
    sums = ring.add_array[_vector_digits(ring, n, elems)[:, None, None, :],
                          multiples] @ _code_weights(ring, n)
    rows = np.zeros((len(vs), ring.size ** n), bool)
    rows[np.arange(len(vs)), sums] = True
    return rows


def membership(ring, n, rows):
    """The membership row over the vector codes of the span of rows."""
    member = np.zeros(ring.size ** n, bool)
    rows = np.array(rows, np.int64).reshape(len(rows), n)
    member[span_codes(ring, n, rows)] = True
    return member


def span_codes(ring, n, rows):
    """The code of c . rows for every c in R^r, in code order, for each
    stack of r rows of R^n in rows (shape (..., r, n)).  So a linear map
    given by the matrix M (column convention) has the row of image codes
    span_codes(ring, b, M^T)."""
    rows = np.asarray(rows, np.int64)
    r = rows.shape[-2]
    coeffs = _vector_digits(ring, r, np.arange(ring.size ** r))
    acc = np.zeros(rows.shape[:-2] + (len(coeffs), n), np.int64)
    for k in range(r):
        acc = ring.add_array[acc, ring.mul_array[coeffs[:, k, None],
                                                 rows[..., None, k, :]]]
    return acc @ _code_weights(ring, n)


def complement_codes(ring, n, small, big):
    """The complement of small in big, as the code maps of big = small +
    <section>: section[x] is the code of x . section for x in R^d, and
    project[v] the code of x when v = s . small + x . section, -1 for v
    outside big.  small (shape (..., k, n)) and big (shape (r, n)) are
    free bases; the section of each small is the rows of big at the
    columns that are no pivot of small.

    The coordinates in big's basis of every combination of small's rows
    come from one scatter of span_codes(big).  The pivots are the leading
    columns of those coordinates over the residue field, that is, the
    columns of their first unit entries (a unit is nonzero mod p)."""
    small, big = np.asarray(small, np.int64), np.asarray(big, np.int64)
    r, k = len(big), small.shape[-2]
    coords = np.full(ring.size ** n, -1, np.int64)
    coords[span_codes(ring, n, big)] = np.arange(ring.size ** r)
    x = coords[span_codes(ring, n, small)]
    if (x < 0).any():
        raise RingError("small must be contained in big")
    unit = np.zeros(ring.size, bool)
    unit[list(ring.units)] = True
    # the number of columns before the first unit is the leading column
    lead = (np.cumsum(unit[_vector_digits(ring, r, x)], -1) == 0).sum(-1)
    free = ~(lead[..., None] == np.arange(r)).any(-2)
    if (free.sum(-1) != r - k).any():
        raise RingError("small is not a free summand of big")
    section = big[np.nonzero(free)[-1].reshape(x.shape[:-1] + (r - k,))]
    # the combinations (s, x) with s = 0 come first, so they are section
    both = span_codes(ring, n, np.concatenate([small, section], -2))
    d = ring.size ** (r - k)
    flat = both.reshape(-1, both.shape[-1])
    project = np.full((len(flat), ring.size ** n), -1, np.int64)
    project[np.arange(len(flat))[:, None], flat] = np.arange(flat.shape[1]) % d
    return project.reshape(both.shape[:-1] + (-1,)), both[..., :d]


def distinct_rows(rows):
    """The first index of each distinct row of a 2-d bool array, in the
    order of the rows' packed bytes, and the position of each row's class
    among them; np.unique would import numpy.ma."""
    keys = np.packbits(rows, axis=1)
    keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    new = np.r_[True, keys[order][1:] != keys[order][:-1]]
    which = np.empty(len(keys), np.int64)
    which[order] = np.cumsum(new) - 1
    return order[new], which


def echelon_rows(ring, n, member):
    """The rows of the reduced row echelon form of each subspace of F_q^n
    with these membership rows (shape (..., q^n)), as a mask over the
    vector codes.  The pivot columns are the leading columns of the
    members, and the row with pivot j is the member with a 1 there and 0
    at every other pivot.  Ordered by pivot, the rows fall in code."""
    digits = _vector_digits(ring, n, np.arange(ring.size ** n))
    nonzero = digits != 0
    # leads[v, j] when j is the leading column of v (none for v = 0)
    leads = (np.cumsum(nonzero, axis=1) == 0).sum(axis=1)[:, None] == np.arange(n)
    pivot = (member.astype(np.int64) @ leads) > 0
    hits = pivot.astype(np.int64) @ nonzero.T
    return member & (hits == 1) & ((digits * leads).sum(axis=1) == 1)


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
        return Submodule(ring, n, tuple(tuple(int(i == j) for j in range(n))
                                        for i in range(n)))

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

    def free_rows(self):
        """free_basis as an int64 array of shape (free rank, n)."""
        basis = self.free_basis()
        return np.array(basis, np.int64).reshape(len(basis), self.n)

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
    """All submodules of R^n, sorted by Submodule.sort_key.

    A breadth-first search from 0 forms S + R v for every submodule S it
    reaches and vectors v outside S, as membership rows over the vector
    codes (_spans).  Spans are deduplicated by that row, and
    Submodule.from_rows runs once per distinct submodule.

    S + R v depends only on the coset v + S, and every coset holds a v
    whose entry in the leading column of each canonical row of S is below
    that row's leading entry: subtract multiples of the echelon rows from
    the left.  Only such v are tried.  Over a field they are the v with
    zeros there, a set that unit multiples keep, and u v spans the same
    S + R v for a unit u, so only the least code of each class of unit
    multiples is tried; then every v tried gives a different span."""
    size = guards.check(ring.size ** n, "max_vector_enum",
                        "submodule enumeration")
    codes = np.arange(size)
    digits = _vector_digits(ring, n, codes)
    candidates = codes > 0
    if ring.is_field:
        for u in ring.units:
            candidates &= ring.mul_array[u, digits] @ _code_weights(ring, n) >= codes
    zero = codes == 0
    zero_key = np.packbits(zero).tobytes()
    seen = {zero_key: Submodule.zero(ring, n)}
    frontier = [(zero, seen[zero_key])]
    while frontier:
        nxt = []
        for member, sub in frontier:
            tried = candidates & ~member
            for row in sub.mat:
                lead = next(j for j, x in enumerate(row) if x)
                tried &= digits[:, lead] < row[lead]
            elems, tried = np.flatnonzero(member), np.flatnonzero(tried)
            step = max(1, _CHUNK_ENTRIES // (len(elems) * ring.size * n + size))
            for lo in range(0, len(tried), step):
                vs = tried[lo:lo + step]
                rows = _spans(ring, n, elems, vs)
                keys = np.packbits(rows, axis=1)
                # the first v of each distinct span in the chunk
                for i in distinct_rows(rows)[0].tolist():
                    key = keys[i].tobytes()
                    if key not in seen:
                        v = digits[vs[i]].tolist()
                        seen[key] = Submodule.from_rows(ring, n, list(sub.mat) + [v])
                        nxt.append((rows[i], seen[key]))
        frontier = nxt
    return sorted(seen.values(), key=Submodule.sort_key)


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


def enumerate_flags(ring, n, guards=DEFAULT):
    """All splittable flags of R^n, the empty flag first.

    Splittable members are free, so strict inclusion strictly increases
    the free rank: the flags are the chains through the increasing
    subsets of the free ranks 1..n-1, each listed once."""
    subs = [s for s in enumerate_splittable_submodules(ring, n, guards)
            if 0 < s.free_rank < n]
    less = inclusion_table(ring, n, subs)
    ranks = [s.free_rank for s in subs]
    free = range(1, n)
    flags = [Flag(ring, n, tuple(subs[i] for i in chain))
             for k in range(len(free) + 1)
             for through in itertools.combinations(free, k)
             for chain in chains_through(less, ranks, through).tolist()]
    flags.sort(key=Flag.sort_key)
    return flags


def inclusion_table(ring, n, subs):
    """less[i, j] when subs[i] is a proper submodule of subs[j].

    One float64 product of the membership rows counts |S_i & S_j|;
    S_i <= S_j when that count is |S_i|, and the inclusion is proper when
    |S_i| < |S_j|.  The product is exact, as no count passes the length
    |R|^n of a membership row, far below 2^53."""
    member = np.array([membership(ring, n, s.mat) for s in subs],
                      np.float64).reshape(len(subs), ring.size ** n)
    common = member @ member.T
    size = common.diagonal()
    return (common == size[:, None]) & (size[:, None] < size)


def chains_through(less, ranks, through):
    """The chains x_1 < ... < x_k under the strict order less with
    ranks[x_i] = through[i], as the rows of a k-column index array in
    lexicographic order.  Each step is one join of the chains so far with
    the elements of the next rank, on their last element."""
    ranks = np.asarray(ranks)
    chains = np.zeros((1, 0), np.int64)
    for r in through:
        nxt = np.flatnonzero(ranks == r)
        joined = less[np.ix_(chains[:, -1], nxt)] if chains.shape[1] else \
            np.ones((1, len(nxt)), bool)
        row, col = np.nonzero(joined)
        chains = np.column_stack([chains[row], nxt[col]])
    return chains


# ---------------------------------------------------------------------------
# GL(M)

def gl_tables(ring, n, guards=DEFAULT):
    """GL(R^n) as arrays: entries[g], the invertible n x n matrices in
    code order (row-major entries as digits in base |R|, the order
    enumerate_gl returns), and act[g, v], the code of g v for every vector
    code v (int32; the codes are below max_vector_enum).

    A candidate A is kept when v -> A v permutes the vector codes.  That
    map is linear and R^n is finite, so it is a permutation exactly when
    A v != 0 for every v != 0.  Row i of A, numbered by its own vector
    code r_i, puts dot[r_i, v] = r_i . v at place i of the code of A v,
    so act is a sum of gathers from the table dot, a chunk of candidates
    at a time."""
    if n < 0:
        raise RingError("GL rank n must be at least 0, got %d" % n)
    candidates = guards.check(ring.size ** (n * n), "max_gl_candidates",
                              "GL enumeration")
    size = guards.check(ring.size ** n, "max_vector_enum", "GL action")
    vectors = _vector_digits(ring, n, np.arange(size))
    dot = np.empty((size, size), np.int64)
    for lo, prod in _ring_products(ring, vectors[:, None, :],
                                   vectors[:, :, None]):
        dot[lo:lo + len(prod)] = prod[:, :, 0, 0]
    weights = _code_weights(ring, n)[:, None]
    row_weights = size ** np.arange(n - 1, -1, -1, dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // (size * max(1, n)))
    entries, act = [], []
    for lo in range(0, candidates, step):
        codes = np.arange(lo, min(lo + step, candidates), dtype=np.int64)
        rows = codes[:, None] // row_weights % size
        images = (dot[rows] * weights).sum(axis=1)
        kept = (images[:, 1:] != 0).all(axis=1)
        entries.append(vectors[rows[kept]])
        act.append(images[kept].astype(np.int32))
    return np.concatenate(entries), np.concatenate(act)


def enumerate_gl(ring, n, guards=DEFAULT):
    """All invertible n x n matrices, each a tuple of row tuples, sorted
    by entry encoding (the matrices of gl_tables)."""
    entries, _ = gl_tables(ring, n, guards)
    return [tuple(map(tuple, m)) for m in entries.tolist()]
