"""Full-rank k[z]-lattices in k[z]^m, lattice chains, Hecke types at marked
points, triviality and splitting-type tests, and factorization over disjoint
point sets.

Lattices are stored by their canonical Hermite basis, so equality is
structural and independent of the presenting generators.
"""

from functools import cache
from math import prod

from . import linalg
from .poly import Poly, gcd_cofactor, linear_roots
from .polymatrix import (
    PolyMatrix,
    _column_echelon,
    column_reduce,
    det,
    hermite_basis,
    invariant_factors,
)


class HeckeType:
    """A weakly decreasing integer vector: a dominant GL_m coweight."""

    def __init__(self, entries):
        entries = tuple(int(e) for e in entries)
        if any(entries[i] < entries[i + 1] for i in range(len(entries) - 1)):
            raise ValueError("entries must be weakly decreasing")
        self.entries = entries

    @staticmethod
    def minuscule(m, j):
        """omega_j for GL_m: (1^j, 0^(m-j))."""
        if not 1 <= j <= m - 1:
            raise ValueError("need 1 <= j <= m-1")
        return HeckeType((1,) * j + (0,) * (m - j))

    @property
    def total(self):
        return sum(self.entries)

    @property
    def is_zero(self):
        return all(e == 0 for e in self.entries)

    def __eq__(self, other):
        return isinstance(other, HeckeType) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"HeckeType{self.entries}"


class ColouredDivisor:
    """A finite map from points of the affine line to nonzero Hecke types."""

    def __init__(self, assignments):
        self.assignments = {x: t for x, t in dict(assignments).items() if not t.is_zero}

    @property
    def total(self):
        return sum(t.total for t in self.assignments.values())

    def restrict(self, points):
        return ColouredDivisor({x: t for x, t in self.assignments.items() if x in points})

    def __eq__(self, other):
        return isinstance(other, ColouredDivisor) and self.assignments == other.assignments

    def __repr__(self):
        return f"ColouredDivisor({self.assignments!r})"


class Lattice:
    """A full-rank k[z]-submodule of k[z]^m, held in canonical Hermite form."""

    def __init__(self, field, basis):
        if basis.cols < basis.rows:
            raise ValueError("not enough generators for a full-rank lattice")
        self.field = field
        self.m = basis.rows
        self.basis = hermite_basis(basis)
        self._hash = None

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.field == other.field
            and self.basis == other.basis
        )

    def __hash__(self):
        # once per lattice, as the chain walk keys every frontier by lattice
        if self._hash is None:
            self._hash = hash(tuple(e.coeffs for e in self.basis.entries))
        return self._hash

    def __repr__(self):
        return f"Lattice(m={self.m}, basis={self.basis!r})"


@cache  # one k[z]^m per rank and field: a Lattice is never mutated
def standard_lattice(m, field):
    if m < 1:
        raise ValueError("rank must be positive")
    return Lattice(field, PolyMatrix.identity(field, m))


def _preimage(L, x, vecs):
    """The lattice between (z-x)L and L whose image in L/(z-x)L is the span
    S of the coordinate vectors `vecs`, that is B times {v : v(x) in S}, for
    B the Hermite basis of L.

    One rref of the reversed vectors gives a basis s_c of S whose last
    nonzero entry is a 1 at row r_c, with s_c zero at every other r_c'.  Let
    E_S have column s_c at each r_c and (z-x) e_r at every other row r.
    E_S is in Hermite form: upper triangular, diagonal 1 or z-x, and right
    of a 1 only zeros, right of a z-x only constants.  It generates
    {v : v(x) in S}: its columns lie there, and both have colength
    dim k^m/S = deg det E_S in k[z]^m.  So B E_S is a basis of the lattice,
    upper triangular with monic diagonal b_rr e_rr, which `Lattice` takes to
    its Hermite basis by reducing the entries above the diagonal alone."""
    F, m = L.field, L.m
    rows, ends = linalg.rref(F, [v[::-1] for v in vecs])
    basis = L.basis.columns()
    cols = [None] * m
    for row, e in zip(rows, ends):
        col = basis[m - 1 - e]  # B s_c, from the 1 of s_c and its entries above
        for t in range(e + 1, m):
            if c := row[t]:
                col = [a if b.is_zero else a + b.scale(c) for a, b in zip(col, basis[m - 1 - t])]
        cols[m - 1 - e] = col
    for r, col in enumerate(cols):
        if col is None:  # (z-x) B e_r, as z B e_r - x B e_r on its nonzero entries
            cols[r] = [b if b.is_zero else b.shift(1) - b.scale(x) if x else b.shift(1) for b in basis[r]]
    return Lattice(F, PolyMatrix.from_cols(F, cols))


def transition_matrix(outer, inner):
    """basis(outer)^-1 * basis(inner); polynomial iff inner is contained in
    outer.  Returns None when some entry fails to be polynomial.

    Solved by back-substitution against the Hermite basis of outer, which is
    upper triangular with monic diagonal, so each step is an exact division
    by a monic pivot and a remainder means the entry is not polynomial."""
    _check_pair(outer, inner)
    rows = outer.basis.to_rowlists()
    cols = []
    for v in inner.basis.columns():
        t, r = _divide(rows, v)
        if any(not p.is_zero for p in r):
            return None
        cols.append(t)
    return PolyMatrix.from_cols(outer.field, cols)


def _divide(H, v):
    """(t, r) with v = H*t + r and deg r_i < deg h_ii, for H (given as its
    list of rows) upper triangular with monic diagonal: row i, bottom up,
    divides v_i - sum_(j>i) h_ij t_j by h_ii.  r is the reduced
    representative of v modulo the column span of H."""
    m = len(H)
    zero = Poly.zero(v[0].field)
    t, r = [zero] * m, [zero] * m
    for i in range(m - 1, -1, -1):
        row, x = H[i], v[i]
        for j in range(i + 1, m):
            if not row[j].is_zero and not t[j].is_zero:
                x = x - row[j] * t[j]
        pivot = row[i]
        if pivot.degree == 0:
            t[i] = x
        elif x.degree < pivot.degree:
            r[i] = x
        else:
            t[i], r[i] = divmod(x, pivot)
    return t, r


def _diagonal_degree(L):
    """deg det(basis(L)): the Hermite basis is triangular with monic
    diagonal, so this is the sum of the diagonal degrees."""
    return sum(int(L.basis.entry(i, i).degree) for i in range(L.m))


def contains(outer, inner):
    """True iff inner is a sublattice of outer."""
    return transition_matrix(outer, inner) is not None


def colength(outer, inner):
    """dim of outer/inner as a field vector space = deg det(transition), the
    difference of the Hermite-diagonal degrees of inner and outer."""
    if not contains(outer, inner):
        raise ValueError("inner is not contained in outer")
    return _diagonal_degree(inner) - _diagonal_degree(outer)


def _smith_divisors(outer, inner):
    """The transition matrix of the pair and its invariant factors, the
    diagonal of its Smith form."""
    T = transition_matrix(outer, inner)
    if T is None:
        raise ValueError("inner is not contained in outer")
    return T, invariant_factors(T)


def _type_at(divisors, x):
    """The (z-x)-adic valuations of the Smith divisors, weakly decreasing."""
    return HeckeType(sorted((p.valuation_at(x) for p in divisors), reverse=True))


def hecke_type_at(outer, inner, x):
    """(z-x)-adic valuations of the Smith divisors of the transition matrix,
    sorted weakly decreasing: the GL_m Hecke type of the modification at x."""
    return _type_at(_smith_divisors(outer, inner)[1], x)


def divisor_of_pair(outer, inner):
    """The coloured divisor of the pair: x -> hecke_type_at(outer, inner, x)
    over all roots of det(transition).  Over Q an irreducible nonlinear
    residual factor is an error (no field extensions)."""
    T, divisors = _smith_divisors(outer, inner)
    roots, residual = linear_roots(det(T))
    if residual.degree >= 1:
        raise ValueError(
            f"determinant has a rootless factor over the base field: {residual!r}"
        )
    return ColouredDivisor({x: _type_at(divisors, x) for x in roots})


def lattice_sum(L1, L2):
    _check_pair(L1, L2)
    return Lattice(L1.field, L1.basis.hstack(L2.basis))


def intersect(L1, L2):
    """Module-theoretic intersection, via the kernel of [B1 | B2], echeloned
    with [B1 | 0] carried below: a kernel column (a; b), B1 a = B2 b, ends as
    (0; B1 a)."""
    _check_pair(L1, L2)
    m, zero = L1.m, Poly.zero(L1.field)
    stacked = [c + c for c in L1.basis.columns()] + [c + [zero] * m for c in L2.basis.columns()]
    pivots, cols = _column_echelon(stacked, m)
    gens = [c[m:] for j, c in enumerate(cols) if j not in pivots]
    return Lattice(L1.field, PolyMatrix.from_cols(L1.field, gens))


def _monomial_images(L, k):
    """The staircase map of L: a field matrix with one row per vector of the
    staircase basis {z^s e_i : s < d_i} of k[z]^m / L (d_i the Hermite
    diagonal degrees; ordered by i, then s) and one column per monomial
    z^t e_j, t = 0..k, at index t*m + j, holding its coordinates.  Any
    colength.

    z acts on the staircase basis by the Hermite columns: z^(d_i) e_i is
    minus column i without its leading term, already reduced (so e_j itself
    is that vector when d_j = 0).  Applying z k times to each e_j gives the
    rest."""
    F, m, H = L.field, L.m, L.basis
    p = F.p
    degs = [int(H.entry(i, i).degree) for i in range(m)]
    N = sum(degs)
    starts = [sum(degs[:i]) for i in range(m)]  # z^s e_i is coordinate starts[i] + s
    wrap = []  # wrap[i]: the reduced z^(d_i) e_i
    for i in range(m):
        w = [F.zero] * N
        for r in range(i + 1):
            for s in range(degs[r]):
                w[starts[r] + s] = F.neg(H.entry(r, i).coeff(s))
        wrap.append(w)
    tops = {starts[i] + degs[i] - 1: i for i in range(m) if degs[i]}
    runs = []
    for j in range(m):
        v = wrap[j] if degs[j] == 0 else [F.one if c == starts[j] else F.zero for c in range(N)]
        run = [v]
        for _ in range(k):
            # z^s e_i goes to z^(s+1) e_i, and the top z^(d_i - 1) e_i to wrap[i]
            out = [F.zero] * N
            for c, a in enumerate(v):
                if not a:
                    continue
                if c in tops:
                    out = [x + a * y if y else x for x, y in zip(out, wrap[tops[c]])]
                else:
                    out[c + 1] += a
            v = out if p is None else [x % p for x in out]
            run.append(v)
        runs.append(run)
    return [[runs[j][t][r] for t in range(k + 1) for j in range(m)] for r in range(N)]


def slice_column(L, k):
    """The last block column of the slice matrix of a trivial lattice L: the
    coefficient vectors of q_1..q_m in its monic basis z^k e_j - q_j(z),
    deg q_j < k, in the monomial basis (e_1..e_m, ..., z^(k-1) e_1..
    z^(k-1) e_m) of k[z]^m / L.  None when those m*k monomials are not a
    basis of the quotient.

    The first N = m*k columns of the staircase map form an N x N field
    matrix C, and q_j solves C q_j = the column of z^k e_j, all m in one
    solve."""
    if k < 1:
        raise ValueError("k must be positive")
    N = _diagonal_degree(L)
    if N != L.m * k:
        raise ValueError(f"colength {N} != m*k = {L.m * k}")
    A = _monomial_images(L, k)
    X = linalg.solve(L.field, [row[:N] for row in A], [row[N:] for row in A])
    return None if X is None else [list(q) for q in zip(*X)]


def quotient_basis_trivial(L, k):
    """Do the m*k monomial classes {z^i e_j : 0 <= i < k} form a basis of
    k[z]^m / L?  Precondition: colength(standard, L) = m*k."""
    return slice_column(L, k) is not None


def splitting_type(L):
    """Grothendieck splitting type of the bundle glued from L over the affine
    line and the standard lattice at infinity.  Sign convention: the
    sublattice z^a k[z] of k[z] has splitting type (-a)."""
    _, degs = column_reduce(L.basis)
    return tuple(sorted((-d for d in degs), reverse=True))


def factorize(L, S1, S2):
    """Split L into lattices supported on the disjoint point sets S1, S2.

    L^(i) = L + g_i * standard, where g_i is the product of (z - x)^v_x(d)
    over x in S_i and d = det(basis(L)), the product of the monic Hermite
    diagonal h_11..h_mm.  Since basis * adj(basis) = d * I with adj(basis)
    polynomial, d * standard lies in L; so L^(i) = L + f_i^c * standard for
    f_i the product of (z - x) over S_i and c the colength, as g_i =
    gcd(d, f_i^c).  The divisor of L^(i) is the divisor of L restricted to
    S_i and the two factors intersect back to L.  The divisor's support
    lies in S1 | S2 exactly when g1 * g2 = d, so no root search or Smith
    form is needed.

    Each factor is built in closed form.  For g = g_i, take u_r =
    gcd(h_rr, g) and a_r with a_r h_rr = u_r mod g, and let column r be
    a_r B e_r with its diagonal entry a_r h_rr replaced by u_r, for B the
    Hermite basis of L.  The change is a multiple of g e_r, so each column
    lies in L + g * standard, and the matrix is upper triangular with monic
    diagonal u_1..u_m.  Its colength is sum deg u_r = deg g, as u_r is the
    part of h_rr at the roots of g, which hold all of d there.  That is the
    colength of L + g * standard too: k[z]^m / L splits into its parts at
    the roots of g and elsewhere, g kills the first and is invertible on
    the second, so dividing by g leaves the first, of dimension deg g.  So
    the columns span the factor, and `Lattice` takes them to its Hermite
    basis by reducing their entries above the diagonal, with no Euclidean
    echelon.
    """
    S1, S2 = set(S1), set(S2)
    if S1 & S2:
        raise ValueError("point sets must be disjoint")
    F, m = L.field, L.m
    d = prod((L.basis.entry(i, i) for i in range(m)), start=Poly.one(F))
    g1, g2 = (
        Poly.from_roots(F, [x for x in S for _ in range(d.valuation_at(x))]) for S in (S1, S2)
    )
    if g1 * g2 != d:
        raise ValueError("divisor support not covered by the point sets")
    factors = []
    for g in (g1, g2):
        cols = L.basis.columns()
        for r in range(m):
            u, a = gcd_cofactor(cols[r][r], g)
            cols[r] = [e * a for e in cols[r][:r]] + [u] + cols[r][r + 1 :]
        factors.append(Lattice(F, PolyMatrix.from_cols(F, cols)))
    return tuple(factors)


def _check_pair(L1, L2):
    if L1.field != L2.field or L1.m != L2.m:
        raise ValueError("lattices live in different ambient modules")


class LatticeChain:
    """A decreasing chain L_0 = k[z]^m > L_1 > ... > L_n with marked points
    x_i and minuscule types pi_i (step i is a colength-pi_i modification at
    x_i).  L_0 is implicit."""

    def __init__(self, m, field, points, types, lattices):
        self.m = m
        self.field = field
        self.points = tuple(points)
        self.types = tuple(int(t) for t in types)
        self.lattices = tuple(lattices)
        self.n = len(self.points)
        if not (len(self.types) == len(self.lattices) == self.n):
            raise ValueError("points, types and lattices must have equal length")
        if any(not 1 <= t <= m - 1 for t in self.types):
            raise ValueError("types must lie in 1..m-1")

    @property
    def end(self):
        return self.lattices[-1] if self.lattices else standard_lattice(self.m, self.field)

    def __eq__(self, other):
        return (
            isinstance(other, LatticeChain)
            and (self.m, self.field) == (other.m, other.field)
            and self.points == other.points
            and self.types == other.types
            and self.lattices == other.lattices
        )

    def __hash__(self):
        return hash((self.m, self.field, self.points, self.types, self.lattices))

    def __repr__(self):
        return (
            f"LatticeChain(m={self.m}, points={self.points}, types={self.types})"
        )


def validate_chain(chain):
    """Check every chain invariant; returns a list of failure strings (empty
    means valid).  Step i must be a containment of colength pi_i whose whole
    Hecke type is omega_(pi_i) concentrated at x_i.

    With T the transition from L_(i-1) to L_i, containment is T being
    polynomial and the colength is deg det T, a difference of Hermite-
    diagonal degrees.  Given both, with j = pi_i and x = x_i, the type is
    omega_j at x iff rank T(x) = m - j.  T(x) has the rank of d_1(x)..d_m(x)
    for d the invariant factors of T, so exactly j of them vanish at x;
    their degrees sum to at most deg det T = j, so each is z - x, the rest
    are units and the quotient is (k[z]/(z - x))^j.  Conversely that type
    makes the invariant factors j copies of z - x and m - j units.  No
    determinant or Smith form is computed, and T is built once a step."""
    failures = []
    F, m = chain.field, chain.m
    prev = standard_lattice(m, F)
    for i, (x, j, L) in enumerate(zip(chain.points, chain.types, chain.lattices), 1):
        T = transition_matrix(prev, L)
        if T is None:
            failures.append(f"step {i}: L_{i} is not contained in L_{i-1}")
        elif (c := _diagonal_degree(L) - _diagonal_degree(prev)) != j:
            failures.append(f"step {i}: colength {c} != type {j}")
        elif linalg.rank(F, [[p.eval(x) for p in T.row(r)] for r in range(m)]) != m - j:
            failures.append(
                f"step {i}: modification is not omega_{j} concentrated at the marked point"
            )
        prev = L
    return failures
