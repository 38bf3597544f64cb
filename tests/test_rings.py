import copy
import itertools
import math
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbscat.guards import DEFAULT, GuardConfig, GuardExceeded
from rbscat.rings import (
    Flag,
    RingError,
    Submodule,
    _code_weights,
    _gauss_jordan,
    _vector_digits,
    canonical_rowspace,
    chains_through,
    complement_codes,
    default_irreducible,
    determinants,
    enumerate_flags,
    enumerate_gl,
    enumerate_splittable_submodules,
    enumerate_submodules,
    gl_tables,
    inclusion_table,
    is_splittable,
    make_ring,
    membership,
    reduce_vector,
    residue_independent,
)

F2 = make_ring("F2")
F3 = make_ring("F3")
F4 = make_ring("F4")
Z4 = make_ring("Z4")
Z9 = make_ring("Z9")


# ---------------------------------------------------------------------------
# independent oracles

def gaussian_binomial(n, k, q):
    """Number of k-dim subspaces of F_q^n, by the recursion
    [n,k]_q = [n-1,k-1]_q + q^k [n-1,k]_q."""
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return gaussian_binomial(n - 1, k - 1, q) + q ** k * gaussian_binomial(n - 1, k, q)


def gl_order(q, n):
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


class ResidueEchelon:
    """Oracle for residue_independent: an incremental echelon over the
    residue field, fed one vector at a time.

    For fields this is the field itself; for Z/p^k vectors are reduced
    mod p.  Rows are kept sorted by leading index with leading entry 1,
    so a single forward pass decides independence.
    """

    def __init__(self, ring):
        self.ring = ring
        self.rows = []  # sorted by leading index

    def _reduce(self, vec):
        ring = self.ring
        if ring.is_field:
            v = list(vec)
            for row in self.rows:
                j = _leading_index(row)
                if v[j]:
                    c = v[j]
                    v = [ring.add[x][ring.neg[ring.mul[c][y]]]
                         for x, y in zip(v, row)]
        else:
            p = ring.p
            v = [x % p for x in vec]
            for row in self.rows:
                j = _leading_index(row)
                if v[j]:
                    c = v[j]
                    v = [(x - c * y) % p for x, y in zip(v, row)]
        return v

    def add(self, vec):
        """Insert vec if independent; return its pivot index or None."""
        ring = self.ring
        v = self._reduce(vec)
        j = _leading_index(v)
        if j == len(v):
            return None
        if ring.is_field:
            c = ring.inv[v[j]]
            v = [ring.mul[c][y] for y in v]
        else:
            c = pow(v[j], ring.p - 2, ring.p)
            v = [(c * y) % ring.p for y in v]
        self.rows.append(v)
        self.rows.sort(key=_leading_index)
        return j


def _leading_index(row):
    for i, x in enumerate(row):
        if x:
            return i
    return len(row)


def greedy_kept(ring, vectors, ech=None):
    """Indices of the vectors the oracle echelon accepts, in order."""
    ech = ech or ResidueEchelon(ring)
    return [i for i, v in enumerate(vectors) if ech.add(v) is not None]


def elements(sub):
    """Oracle for membership: every vector of the submodule, as a sum of
    multiples of its canonical rows."""
    R = sub.ring
    out = set()
    for coeffs in itertools.product(range(R.size), repeat=len(sub.mat)):
        v = [0] * sub.n
        for c, row in zip(coeffs, sub.mat):
            if c:
                v = [R.add[x][R.mul[c][y]] for x, y in zip(v, row)]
        out.add(tuple(v))
    return out


def enumerate_gl_oracle(ring, n):
    """Oracle for enumerate_gl: every candidate matrix in code order, kept
    when Gauss-Jordan on [A | I] takes a unit pivot in every column."""
    out = []
    for entries in itertools.product(range(ring.size), repeat=n * n):
        m = Mat(ring, [entries[i * n:(i + 1) * n] for i in range(n)], cols=n)
        if m.inverse_or_none() is not None:
            out.append(m)
    return out


def enumerate_submodules_oracle(ring, n):
    """Oracle for enumerate_submodules: a breadth-first search from 0
    that adds each vector outside a submodule as a new generator, with one
    canonical form (Submodule.from_rows) per (submodule, vector) pair."""
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


def det_oracle(ring, rows):
    """Oracle for determinants: the permutation expansion, one scalar
    table lookup at a time."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        prod = 1
        for i in range(n):
            prod = ring.mul[prod][rows[i][perm[i]]]
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        total = ring.add[total][prod if inversions % 2 == 0 else ring.neg[prod]]
    return total


# the rings and ranks the array front end is compared with its oracles on
FRONT_END_CORPUS = ([("F2", n) for n in range(1, 6)]
                    + [("F3", n) for n in range(1, 5)]
                    + [("F4", 2), ("F5", 2)]
                    + [("Z4", n) for n in range(1, 4)]
                    + [("Z8", 2), ("Z9", 2)])


def brute_force_complement_exists(sub, all_subs):
    """Exhaustive search for a complement: S + T = R^n, S cap T = 0."""
    whole = Submodule.full(sub.ring, sub.n)
    elems = elements(sub)
    for t in all_subs:
        if len(elems & elements(t)) == 1:
            joined = Submodule.from_rows(sub.ring, sub.n,
                                         list(sub.mat) + list(t.mat))
            if joined == whole:
                return True
    return False


# ---------------------------------------------------------------------------
# test-only oracles: a matrix type that multiplies and inverts one entry
# at a time, the complement rule by matrix inverses (QuotientData, the
# oracle for rings.complement_codes) and GL by generator closure (the
# oracle for enumerate_gl)

class Mat:
    """Oracle matrix type: an immutable matrix over a FiniteRing
    (row-major tuple of tuples), multiplied and inverted one entry at a
    time on the list tables.

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
        stack = np.array(self.data, np.int64).reshape(1, self.rows, self.cols)
        return int(determinants(self.ring, stack)[0])

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


def complete_to_invertible(ring, rows, n):
    """Oracle helper: extend free-basis rows to an invertible n x n Mat by
    greedily appending standard basis rows (lexicographically least
    completion); returns it with its inverse."""
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
    """Oracle helper: row vector times Mat."""
    add, mul = ring.add, ring.mul
    out = [0] * mat.cols
    for x, row in zip(vec, mat.data):
        if x:
            for j, y in enumerate(row):
                if y:
                    out[j] = add[out[j]][mul[x][y]]
    return tuple(out)


class QuotientData:
    """Oracle for complement_codes: the complement of `small` inside `big`
    with coordinate maps, by matrix inverses.

    section_rows: ambient rows spanning the complement (a free summand).
    project(v): complement coordinates of an ambient vector v in big.
    coords(v): coordinates of v in big's canonical free basis.
    The choice rule: complement coordinates are the non-pivot columns of
    small's image in big-coordinates over the residue field.
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


def gl_from_generators(ring, n, guards=DEFAULT):
    """Oracle for enumerate_gl: GL(R^n) as the multiplicative closure of
    elementary and unit-diagonal matrices, as Mats."""
    if n < 0:
        raise RingError("GL rank n must be at least 0, got %d" % n)
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
    return sorted(seen.values(), key=lambda m: m.data)


# ---------------------------------------------------------------------------
# rings

def test_ring_sizes_and_units():
    assert F2.size == 2 and len(F2.units) == 1
    assert F4.size == 4 and len(F4.units) == 3
    assert F4.poly == (1, 1, 1)  # x^2 + x + 1
    assert Z4.units == (1, 3)
    assert Z9.size == 9 and len(Z9.units) == 6


def test_ring_axioms_exhaustive():
    # construction already validates; re-check a few laws explicitly
    for R in (F2, F3, F4, Z4):
        n = R.size
        for a, b, c in itertools.product(range(n), repeat=3):
            assert R.add[R.add[a][b]][c] == R.add[a][R.add[b][c]]
            assert R.mul[R.mul[a][b]][c] == R.mul[a][R.mul[b][c]]
            assert R.mul[a][R.add[b][c]] == R.add[R.mul[a][b]][R.mul[a][c]]


def test_units_are_exactly_invertibles():
    for R in (F2, F3, F4, Z4, Z9):
        for a in range(R.size):
            has_inv = any(R.mul[a][b] == 1 for b in range(R.size))
            assert (a in R.units) == has_inv
        if R.is_field:
            assert len(R.units) == R.size - 1


def test_bad_descriptors():
    with pytest.raises(RingError):
        make_ring("F6")
    with pytest.raises(RingError):
        make_ring("Z6")
    with pytest.raises(RingError):
        make_ring({"kind": "Fp", "p": 4, "k": 1})
    with pytest.raises(RingError):
        make_ring({"kind": "Fq", "p": 2, "k": 2, "poly": [1, 0, 1]})  # (x+1)^2


def test_make_ring_checks_size_on_every_call():
    # F4 and Z4 are already cached at module level
    small = GuardConfig(max_ring_size=2)
    for spec in ("F4", "Z4", {"kind": "Fq", "p": 2, "k": 2}, F4):
        with pytest.raises(GuardExceeded, match="max_ring_size"):
            make_ring(spec, small)
    assert make_ring("F2", small) is F2


def first_failing_ring_axiom(add, mul):
    """Oracle for FiniteRing._validate: the 0/1 laws, then a plain loop
    over every triple in lexicographic order, then every pair for
    commutativity."""
    n = len(add)
    if any(add[a][0] != a or mul[a][1] != a or mul[a][0] != 0
           for a in range(n)):
        return "0/1 are not neutral"
    for a, b, c in itertools.product(range(n), repeat=3):
        if add[add[a][b]][c] != add[a][add[b][c]]:
            return "addition not associative at %s" % ((a, b, c),)
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            return "multiplication not associative at %s" % ((a, b, c),)
        if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
            return "distributivity fails at %s" % ((a, b, c),)
    for a, b in itertools.product(range(n), repeat=2):
        if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
            return "commutativity fails at %s" % ((a, b),)
    return None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["F2", "F3", "F4", "Z4", "F5", "Z8", "F9"]), st.data())
def test_ring_axioms_checked_exactly(spec, data):
    # one or two table entries replaced
    ring = copy.copy(make_ring(spec))
    n = ring.size
    ring.add, ring.mul = [list(r) for r in ring.add], [list(r) for r in ring.mul]
    for _ in range(data.draw(st.integers(1, 2))):
        table = data.draw(st.sampled_from([ring.add, ring.mul]))
        a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        table[a][b] = data.draw(st.integers(0, n - 1))
    expected = first_failing_ring_axiom(ring.add, ring.mul)
    if expected is None:
        ring._validate()
    else:
        with pytest.raises(RingError) as info:
            ring._validate()
        assert str(info.value) == expected


def test_noncommutative_ring_is_rejected():
    # upper triangular 2 x 2 matrices over F_2, numbered with 0 = zero and
    # 1 = one: every law holds but commutativity
    mats = [(0, 0, 0), (1, 0, 1)] + [m for m in itertools.product(
        range(2), repeat=3) if m not in ((0, 0, 0), (1, 0, 1))]
    index = {m: i for i, m in enumerate(mats)}
    add = [[index[tuple((x + y) % 2 for x, y in zip(m, n))] for n in mats]
           for m in mats]
    mul = [[index[(m[0] * n[0] % 2, (m[0] * n[1] + m[1] * n[2]) % 2,
                   m[2] * n[2] % 2)] for n in mats] for m in mats]
    ring = copy.copy(F2)
    ring.size, ring.add, ring.mul = len(mats), add, mul
    expected = first_failing_ring_axiom(add, mul)
    assert expected.startswith("commutativity fails")
    with pytest.raises(RingError) as info:
        ring._validate()
    assert str(info.value) == expected


def test_default_irreducible():
    assert default_irreducible(2, 2) == (1, 1, 1)
    assert default_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1 over F_3
    poly = default_irreducible(2, 3)
    assert len(poly) == 4 and poly[-1] == 1


def poly_mulmod(a, b, mod, p):
    """Oracle: a b modulo the monic polynomial mod over F_p, coefficient
    lists low degree first, by schoolbook product and division."""
    deg = len(mod) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    for i in range(len(out) - 1, deg - 1, -1):
        c, out[i] = out[i], 0
        for j in range(deg):
            out[i - deg + j] = (out[i - deg + j] - c * mod[j]) % p
    return (out + [0] * deg)[:deg]


def fq_tables_oracle(p, k, poly):
    """Oracle: the add, mul, neg and inv tables of F_p[x]/(poly), one pair
    of residues at a time, on the base-p codes of the coefficient lists."""
    n = p ** k
    decode = [[a // p ** i % p for i in range(k)] for a in range(n)]

    def encode(vec):
        return sum(c * p ** i for i, c in enumerate(vec))

    add = [[encode([(x + y) % p for x, y in zip(decode[a], decode[b])])
            for b in range(n)] for a in range(n)]
    mul = [[encode(poly_mulmod(decode[a], decode[b], list(poly), p))
            for b in range(n)] for a in range(n)]
    neg = [row.index(0) for row in add]
    inv = [row.index(1) if 1 in row else None for row in mul]
    return add, mul, neg, inv


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121,
                               125, 128, 169, 243, 256])
def test_fq_tables_agree_with_per_pair_oracle(q):
    R = make_ring("F%d" % q)
    assert (R.add, R.mul, R.neg, R.inv) == fq_tables_oracle(R.p, R.k, R.poly)
    assert R.units == tuple(range(1, q))


def test_f8_f9_construct():
    F8 = make_ring("F8")
    F9 = make_ring("F9")
    assert len(F8.units) == 7
    assert len(F9.units) == 8


# ---------------------------------------------------------------------------
# canonical forms

@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_howell_idempotent_and_membership(rows):
    canon = canonical_rowspace(Z4, rows)
    assert canonical_rowspace(Z4, canon) == canon
    # membership test agrees with brute-force span
    span = elements(Submodule.from_rows(Z4, 3, rows))
    for v in itertools.product(range(4), repeat=3):
        in_span = v in span
        assert (not any(reduce_vector(Z4, canon, v))) == in_span


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3),
                min_size=1, max_size=3))
def test_rref_idempotent_f3(rows):
    canon = canonical_rowspace(F3, rows)
    assert canonical_rowspace(F3, canon) == canon


def test_canonical_invariant_under_invertible_left_mult():
    # left-multiplying the generating matrix by an invertible U keeps the
    # row span, hence the canonical form
    gl2 = enumerate_gl(Z4, 2)
    rows = [[2, 1], [0, 2]]
    base = canonical_rowspace(Z4, rows)
    m = Mat(Z4, rows)
    for u in gl2:
        assert canonical_rowspace(Z4, Mat(Z4, u).mul(m).data) == base
    gl_f3 = enumerate_gl(F3, 2)
    rows_f = [[1, 2], [2, 1]]
    base_f = canonical_rowspace(F3, rows_f)
    mf = Mat(F3, rows_f)
    for u in gl_f3:
        assert canonical_rowspace(F3, Mat(F3, u).mul(mf).data) == base_f


def test_canonical_equal_iff_equal_span():
    seen = {}
    for rows in itertools.product(itertools.product(range(4), repeat=2), repeat=2):
        sub = Submodule.from_rows(Z4, 2, [list(r) for r in rows])
        key = frozenset(elements(sub))
        if key in seen:
            assert seen[key] == sub.mat
        else:
            seen[key] = sub.mat


# ---------------------------------------------------------------------------
# submodules / splittability

def test_subspace_counts_match_gaussian_binomial():
    for (R, n) in ((F2, 2), (F2, 3), (F3, 2), (F4, 2), (F3, 3)):
        subs = enumerate_submodules(R, n)
        by_rank = {}
        for s in subs:
            by_rank[s.rank] = by_rank.get(s.rank, 0) + 1
        q = R.size
        for k in range(n + 1):
            assert by_rank.get(k, 0) == gaussian_binomial(n, k, q), (q, n, k)


@pytest.mark.parametrize("spec, n", FRONT_END_CORPUS)
def test_submodules_match_bfs_oracle(spec, n):
    R = make_ring(spec)
    assert [s.mat for s in enumerate_submodules(R, n)] == \
        [s.mat for s in enumerate_submodules_oracle(R, n)]


def test_membership_rows_match_element_sets():
    for R, n in ((Z4, 2), (F4, 2), (Z9, 2), (F3, 3)):
        for s in enumerate_submodules(R, n):
            codes = {sum(x * R.size ** (n - 1 - i) for i, x in enumerate(v))
                     for v in elements(s)}
            assert set(np.flatnonzero(membership(R, n, s.mat)).tolist()) == codes


def test_splittable_counts():
    assert len(enumerate_splittable_submodules(F2, 2)) == 5
    assert len(enumerate_splittable_submodules(F3, 2)) == 6
    assert len(enumerate_splittable_submodules(Z4, 2)) == 8


def test_splittable_agrees_with_complement_search():
    for R in (Z4, Z9):
        all_subs = enumerate_submodules(R, 2)
        for s in all_subs:
            assert is_splittable(s) == brute_force_complement_exists(s, all_subs), s


def test_splittable_examples():
    assert is_splittable(Submodule.from_rows(Z4, 2, [[1, 0]]))
    assert not is_splittable(Submodule.from_rows(Z4, 2, [[2, 0]]))
    assert is_splittable(Submodule.from_rows(F3, 2, [[1, 2]]))


# ---------------------------------------------------------------------------
# flags

def test_flag_counts():
    assert len(enumerate_flags(F2, 2)) == 4
    assert len(enumerate_flags(F2, 3)) == 36  # 1 + 7 + 7 + 21
    assert len(enumerate_flags(F4, 1)) == 1
    assert len(enumerate_flags(Z4, 2)) == 7


def refines_to(f, g):
    """f <= g in refinement order: the members of g are members of f."""
    return g.member_set() <= f.member_set()


def test_flag_refinement_is_partial_order():
    flags = enumerate_flags(F2, 2)
    for f in flags:
        assert refines_to(f, f)
    empty = next(f for f in flags if not f.members)
    for f in flags:
        assert refines_to(f, empty)  # empty flag is the maximum
        if f.members and f != empty:
            assert not refines_to(empty, f)
    # antisymmetry + transitivity on the (F2,3) poset
    flags3 = enumerate_flags(F2, 3)
    rel = {(i, j) for i, f in enumerate(flags3) for j, g in enumerate(flags3)
           if refines_to(f, g)}
    for (i, j) in rel:
        if (j, i) in rel:
            assert i == j
        for k in range(len(flags3)):
            if (j, k) in rel:
                assert (i, k) in rel


def test_flag_lengths():
    flags = enumerate_flags(F2, 3)
    by_len = {}
    for f in flags:
        by_len[f.length] = by_len.get(f.length, 0) + 1
    assert by_len == {1: 1, 2: 14, 3: 21}


def enumerate_flags_oracle(ring, n):
    """Oracle for enumerate_flags: the recursion that extends each chain by
    every splittable member above its top, one Submodule.__lt__ per step."""
    subs = [s for s in enumerate_splittable_submodules(ring, n)
            if 0 < s.free_rank < n]
    flags = []

    def extend(chain):
        flags.append(Flag(ring, n, tuple(chain)))
        for s in subs:
            if not chain or chain[-1] < s:
                extend(chain + [s])

    extend([])
    flags.sort(key=Flag.sort_key)
    return flags


@pytest.mark.parametrize("spec, n", [("F2", 0), ("F2", 1), ("F2", 3),
                                     ("F3", 3), ("F4", 3), ("F2", 4),
                                     ("Z4", 2), ("Z4", 3), ("Z8", 2),
                                     ("Z9", 2)])
def test_flags_match_recursive_oracle(spec, n):
    R = make_ring(spec)
    assert enumerate_flags(R, n) == enumerate_flags_oracle(R, n)


@pytest.mark.parametrize("spec, n", [("F3", 3), ("F4", 2), ("Z4", 3),
                                     ("Z9", 2)])
def test_inclusion_table_matches_le_oracle(spec, n):
    # every submodule, the non-splittable ones over Z/p^k included
    R = make_ring(spec)
    subs = enumerate_submodules(R, n)
    oracle = [[s <= t and s != t for t in subs] for s in subs]
    assert inclusion_table(R, n, subs).tolist() == oracle


def test_chains_through_lists_chains_in_lexicographic_order():
    # 0 < 1 < 3 and 0 < 2 < 3, ranks 1, 2, 2, 3
    less = np.zeros((4, 4), bool)
    less[0, 1:] = less[1, 3] = less[2, 3] = True
    ranks = [1, 2, 2, 3]
    assert chains_through(less, ranks, ()).tolist() == [[]]
    assert chains_through(less, ranks, (2,)).tolist() == [[1], [2]]
    assert chains_through(less, ranks, (1, 2, 3)).tolist() == \
        [[0, 1, 3], [0, 2, 3]]
    assert chains_through(less, ranks, (1, 3)).tolist() == [[0, 3]]
    assert chains_through(less, ranks, (2, 2)).tolist() == []


# ---------------------------------------------------------------------------
# quotient maps

def complement_of(small, big):
    """complement_codes for small <= big, read back as vectors: the
    section rows and the projection v -> complement coordinates (None
    for v outside big)."""
    R, n = small.ring, small.n
    d = big.free_rank - small.free_rank
    project, section = complement_codes(R, n, small.free_rows(),
                                        big.free_rows())
    rows = [tuple(r) for r in _vector_digits(
        R, n, section[_code_weights(R, d)]).tolist()]

    def proj(v):
        c = int(project[np.array(v, np.int64) @ _code_weights(R, n)])
        return None if c < 0 else tuple(_vector_digits(R, d, c).tolist())
    return proj, rows


def test_quotient_map_identity_on_zero():
    full = Submodule.full(F2, 2)
    project, rows = complement_of(Submodule.zero(F2, 2), full)
    assert rows == [(1, 0), (0, 1)]
    for i, row in enumerate(rows):
        out = project(row)
        assert out[i] == 1 and sum(1 for x in out if x) == 1


def test_quotient_map_kills_submodule():
    full = Submodule.full(F2, 2)
    s = Submodule.from_rows(F2, 2, [[1, 0]])
    project, rows = complement_of(s, full)
    assert project((1, 0)) == (0,)
    assert rows == [(0, 1)]


def test_quotient_map_projection_section_identity():
    full = Submodule.full(F3, 2)
    s = Submodule.from_rows(F3, 2, [[1, 1]])
    project, rows = complement_of(s, full)
    assert len(rows) == 1
    assert project(rows[0]) == (1,)
    for v in elements(s):
        assert project(v) == (0,)


def test_quotient_map_inside_proper_submodule():
    big = Submodule.from_rows(F2, 3, [[1, 0, 0], [0, 1, 0]])
    small = Submodule.from_rows(F2, 3, [[1, 1, 0]])
    project, rows = complement_of(small, big)
    assert rows == [(0, 1, 0)]
    assert project(rows[0]) == (1,)
    assert project((1, 1, 0)) == (0,)
    assert project((0, 0, 1)) is None


def test_quotient_map_over_z4():
    big = Submodule.full(Z4, 2)
    s = Submodule.from_rows(Z4, 2, [[2, 1]])
    project, rows = complement_of(s, big)
    assert rows == [(1, 0)]
    assert project(rows[0]) == (1,)
    for v in elements(s):
        assert project(v) == (0,)


def test_complete_to_invertible():
    ext, inv = complete_to_invertible(Z4, [(2, 1)], 2)
    assert ext.mul(inv) == Mat.identity(Z4, 2)
    ext2, _ = complete_to_invertible(F3, [(1, 2), (0, 1)], 2)
    assert ext2.rows == 2


def random_vector_sets(ring, count=150):
    """Seeded random vector lists of length 0..4, half of them padded with
    residue-dependent combinations of earlier vectors."""
    rng = random.Random(repr(ring))
    out = []
    for t in range(count):
        n = rng.randint(0, 4)
        vecs = [[rng.randrange(ring.size) for _ in range(n)]
                for _ in range(rng.randint(0, 5))]
        if t % 2 and vecs:
            c, d = rng.randrange(ring.size), rng.choice(ring.units)
            a, b = rng.choice(vecs), rng.choice(vecs)
            vecs.insert(rng.randint(0, len(vecs)), [
                ring.add[ring.mul[c][x]][ring.mul[d][y]] for x, y in zip(a, b)])
        out.append((n, [tuple(v) for v in vecs]))
    return out


ORACLE_RINGS = ["F2", "F3", "F4", "Z4", "Z8", "Z9"]


@pytest.mark.parametrize("spec", ORACLE_RINGS)
def test_residue_independent_matches_incremental_echelon(spec):
    R = make_ring(spec)
    for n, vecs in random_vector_sets(R):
        assert residue_independent(R, vecs) == greedy_kept(R, vecs), vecs


@pytest.mark.parametrize("spec", ORACLE_RINGS)
def test_free_basis_and_completion_match_incremental_echelon(spec):
    R = make_ring(spec)
    for n, vecs in random_vector_sets(R):
        sub = Submodule.from_rows(R, n, [list(v) for v in vecs])
        basis = sub.free_basis()
        assert basis == tuple(sub.mat[i] for i in greedy_kept(R, sub.mat))
        # the completion appends the unit rows the echelon accepts, in order
        ech = ResidueEchelon(R)
        greedy_kept(R, basis, ech)
        units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        ext, inv = complete_to_invertible(R, basis, n)
        assert ext.data[len(basis):] == tuple(
            units[j] for j in greedy_kept(R, units, ech))
        assert ext.mul(inv) == Mat.identity(R, n)
        # QuotientData complements the pivots of the echelon of small, and
        # so does complement_codes, where small is splittable
        if n:
            qd = QuotientData(sub, Submodule.full(R, n))
            ech = ResidueEchelon(R)
            pivots = {ech.add(qd.coords(r)) for r in basis}
            assert qd.comp_idx == [i for i in range(n) if i not in pivots]
            if is_splittable(sub):
                _, rows = complement_of(sub, Submodule.full(R, n))
                assert rows == [units[i] for i in qd.comp_idx]


# ---------------------------------------------------------------------------
# GL enumeration

def test_gl_orders_against_formula():
    for (R, n) in ((F2, 2), (F3, 2), (F2, 3)):
        got = enumerate_gl(R, n)
        assert len(got) == gl_order(R.size, n)
        assert len(got) == len(set(got))


def test_gl_f4():
    assert len(enumerate_gl(F4, 2)) == gl_order(4, 2) == 180


def test_gl_z4():
    gl = [Mat(Z4, m) for m in enumerate_gl(Z4, 2)]
    assert len(gl) == 96
    # closed under product and inverse
    gl_set = {m.data for m in gl}
    for m in gl[:10]:
        assert m.inverse().data in gl_set
        for m2 in gl[:10]:
            assert m.mul(m2).data in gl_set


def test_gl_generator_closure_matches():
    for (R, n) in ((F2, 2), (F3, 2), (Z4, 2), (F2, 3)):
        brute = enumerate_gl(R, n)
        closed = gl_from_generators(R, n)
        assert brute == [m.data for m in closed]


def test_gl_zero_module():
    gl = enumerate_gl(F2, 0)
    assert len(gl) == 1  # the trivial group


def test_gl_guard():
    tight = GuardConfig(max_gl_candidates=10)
    with pytest.raises(GuardExceeded):
        enumerate_gl(F3, 2, guards=tight)


@pytest.mark.parametrize("spec, n", [
    ("F4", 2), ("Z4", 2), ("F3", 2), ("F2", 3), ("Z9", 1), ("Z9", 2)])
def test_is_invertible_agrees_with_unit_determinant(spec, n):
    # oracle: a matrix over a commutative ring is invertible exactly when
    # its determinant (permutation expansion) is a unit
    R = make_ring(spec)
    ident = Mat.identity(R, n)
    for entries in itertools.product(range(R.size), repeat=n * n):
        m = Mat(R, [entries[i * n:(i + 1) * n] for i in range(n)])
        inv = m.inverse_or_none()
        assert (inv is not None) == (R.inv[m.det()] is not None), m
        assert inv is None or m.mul(inv) == ident == inv.mul(m), m


@pytest.mark.parametrize("spec, n", [
    (spec, n) for spec, n in FRONT_END_CORPUS
    if make_ring(spec).size ** (n * n) <= 20_000])
def test_gl_tables_match_per_matrix_oracle(spec, n):
    # the invertible candidates in code order, and act[g, v] = g v
    R = make_ring(spec)
    entries, act = gl_tables(R, n)
    oracle = enumerate_gl_oracle(R, n)
    assert entries.tolist() == [[list(r) for r in m.data] for m in oracle]
    assert enumerate_gl(R, n) == [m.data for m in oracle]
    assert act.dtype == np.int32
    vectors = list(itertools.product(range(R.size), repeat=n))
    code = {v: i for i, v in enumerate(vectors)}
    assert act.tolist() == [[code[m.mul_vec(v)] for v in vectors]
                            for m in oracle]


@pytest.mark.parametrize("spec", ["F2", "F3", "F4", "F5", "Z4", "Z8", "Z9",
                                  "Z16"])
def test_determinants_match_permutation_expansion(spec):
    R = make_ring(spec)
    rnd = random.Random(spec)
    for n in range(0, 5):
        stack = [[[rnd.randrange(R.size) for _ in range(n)] for _ in range(n)]
                 for _ in range(40)]
        if R.kind == "Zpk":
            # singular over Z/p^k: every entry of some row a non-unit
            stack += [[[R.p * rnd.randrange(R.size // R.p) if i == 0
                        else rnd.randrange(R.size) for _ in range(n)]
                       for i in range(n)] for _ in range(20)]
        got = determinants(R, np.array(stack, np.int64).reshape(len(stack), n, n))
        assert got.tolist() == [det_oracle(R, m) for m in stack], (spec, n)
        assert [Mat(R, m, cols=n).det() for m in stack] == got.tolist()


def test_guards_fire_before_any_array(monkeypatch):
    class NoArrays:
        def __getattr__(self, name):
            raise AssertionError("numpy.%s used before the guard" % name)

    import rbscat.rings as rings
    monkeypatch.setattr(rings, "np", NoArrays())
    cases = [
        (lambda g: enumerate_gl(F3, 2, g), GuardConfig(max_gl_candidates=10)),
        (lambda g: enumerate_gl(F3, 2, g), GuardConfig(max_vector_enum=3)),
        (lambda g: gl_tables(F2, 6, g), GuardConfig()),
        (lambda g: enumerate_submodules(F3, 2, g), GuardConfig(max_vector_enum=3)),
        (lambda g: enumerate_submodules(F2, 21, g), GuardConfig()),
    ]
    for call, guards in cases:
        with pytest.raises(GuardExceeded):
            call(guards)


@pytest.mark.parametrize("spec, factors", [
    ("F2", []), ("F3", [2]), ("F4", [3]), ("F5", [4]), ("F9", [8]),
    ("Z4", [2]), ("Z8", [2, 2]), ("Z9", [6]), ("Z16", [2, 4]),
    ("Z27", [18]), ("Z32", [2, 8])])
def test_unit_invariant_factors(spec, factors):
    R = make_ring(spec)
    assert R.unit_invariant_factors() == factors
    assert math.prod(factors) == len(R.units)


def test_mat_inverse():
    m = Mat(F3, [[1, 1], [0, 1]])
    assert m.mul(m.inverse()) == Mat.identity(F3, 2)
    mz = Mat(Z4, [[1, 2], [0, 3]])
    assert mz.mul(mz.inverse()) == Mat.identity(Z4, 2)
    with pytest.raises(RingError):
        Mat(Z4, [[2, 0], [0, 1]]).inverse()


# ---------------------------------------------------------------------------
# checks that raise RingError, also under python -O

# (expression, what the RingError says)
BAD_INPUTS = (
    ("Flag(F2, 2, (Submodule.full(F2, 2),))", "proper and nonzero"),
    ("Flag(F2, 2, (Submodule.zero(F2, 2),))", "proper and nonzero"),
    ("Flag(F2, 3, (Submodule.from_rows(F2, 3, [[1, 0, 0], [0, 1, 0]]),"
     " Submodule.from_rows(F2, 3, [[1, 0, 0]])))", "strictly increasing"),
    ("Flag(Z4, 2, (Submodule.from_rows(Z4, 2, [[1, 0], [0, 2]]),))",
     "splittable"),
    ("Mat(F2, [[1, 0], [1]])", "differ in length"),
    ("Mat(F2, [[1, 0]], cols=3)", "not cols=3"),
    ("Mat(F2, [[1, 0]]).mul(Mat(F2, [[1, 0]]))", "shape mismatch"),
    ("Mat(F2, [[1, 0]]).det()", "non-square"),
    ("rref(Z4, [[1, 0]])", "not a field"),
    ("howell(F2, [[1, 0]])", "Z/p^k"),
    ("complete_to_invertible(F2, [[1, 0], [1, 0]], 2)", "not independent"),
    ("complement_codes(F2, 2, [[1, 0]], [[0, 1]])", "contained in big"),
    ("complement_codes(Z4, 2, [[2, 0]], [[1, 0], [0, 1]])",
     "not a free summand"),
    ("enumerate_gl(F2, -1)", "at least 0, got -1"),
    ("gl_from_generators(F2, -1)", "at least 0, got -1"),
)
# the Mat, complete_to_invertible and gl_from_generators cases check the
# oracles of this file, imported from it
PRELUDE = ("import sys\n"
           "sys.path.insert(0, %r)\n"
           "from rbscat.rings import (Flag, RingError, Submodule,"
           " complement_codes, enumerate_gl, howell, make_ring, rref)\n"
           "from test_rings import Mat, complete_to_invertible,"
           " gl_from_generators\n"
           "F2, Z4 = make_ring('F2'), make_ring('Z4')\n"
           % os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("expr, message", BAD_INPUTS)
def test_bad_input_raises_ring_error(expr, message):
    scope = {}
    exec(PRELUDE, scope)
    with pytest.raises(RingError, match=re.escape(message)):
        eval(expr, scope)


def test_bad_flag_and_mat_shape_raise_under_optimize():
    code = PRELUDE + (
        "for expr, message in %r:\n"
        "    try:\n"
        "        eval(expr)\n"
        "    except RingError as exc:\n"
        "        if message in str(exc):\n"
        "            continue\n"
        "    raise SystemExit('no RingError %%r: %%s' %% (message, expr))\n"
        % (BAD_INPUTS,))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
