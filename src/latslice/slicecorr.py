"""The matrix side of the lattice-chain correspondence: block slice matrices,
compatible partial flags with eigenvalue records, and the explicit bijections
with lattice chains in both directions.

Basis ordering of k^N (N = m*k): e_1..e_m, z e_1..z e_m, ..., z^(k-1) e_1..
z^(k-1) e_m, so multiplication by z is literally the block subdiagonal.

Flag indexing: W_i is the image of L_(n-i), so the jump of W_i over W_(i-1)
is pi_(n-i+1) and the scalar action on W_i/W_(i-1) is x_(n-i+1).
"""

from . import linalg
from .lattice import (
    Lattice,
    LatticeChain,
    quotient_presentation,
    standard_lattice,
    validate_chain,
)
from .poly import Poly
from .polymatrix import PolyMatrix


class SliceMatrix:
    """An N x N matrix (N = m*k) with identity m x m blocks on the first
    subdiagonal, arbitrary last block column, zeros elsewhere."""

    def __init__(self, m, k, field, entries):
        self.m = m
        self.k = k
        self.N = m * k
        self.field = field
        self.entries = tuple(tuple(row) for row in entries)
        if len(self.entries) != self.N or any(len(r) != self.N for r in self.entries):
            raise ValueError("entries must be N x N")

    def rows(self):
        return [list(r) for r in self.entries]

    def __eq__(self, other):
        return (
            isinstance(other, SliceMatrix)
            and (self.m, self.k, self.field) == (other.m, other.k, other.field)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.m, self.k, self.field, self.entries))

    def __repr__(self):
        return f"SliceMatrix(m={self.m}, k={self.k}, entries={self.entries})"


class Flag:
    """Increasing subspaces W_1 < ... < W_n = k^N, each held as a canonical
    reduced column echelon basis; jumps follow the reversed type sequence."""

    def __init__(self, field, N, subspaces):
        self.field = field
        self.N = N
        self.subspaces = tuple(
            tuple(tuple(col) for col in linalg.canonical_subspace(field, W))
            for W in subspaces
        )

    def subspace(self, i):
        return [list(col) for col in self.subspaces[i]]

    def dims(self):
        return [len(W) for W in self.subspaces]

    def __len__(self):
        return len(self.subspaces)

    def __eq__(self, other):
        return (
            isinstance(other, Flag)
            and (self.field, self.N) == (other.field, other.N)
            and self.subspaces == other.subspaces
        )

    def __hash__(self):
        return hash((self.field, self.N, self.subspaces))


class SlicePoint:
    """A slice matrix with a compatible flag and eigenvalue list."""

    def __init__(self, Y, flag, eigenvalues):
        self.Y = Y
        self.flag = flag
        self.eigenvalues = tuple(eigenvalues)

    def __eq__(self, other):
        return (
            isinstance(other, SlicePoint)
            and self.Y == other.Y
            and self.flag == other.flag
            and self.eigenvalues == other.eigenvalues
        )

    def __hash__(self):
        return hash((self.Y, self.flag, self.eigenvalues))

    def __repr__(self):
        return f"SlicePoint(Y={self.Y!r}, eigenvalues={self.eigenvalues})"


def base_point(m, k, field):
    """The nilpotent base matrix: identity blocks below the diagonal, zero
    last block column; multiplication by z on k[z]^m / z^k k[z]^m."""
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive")
    N = m * k
    rows = [[field.zero] * N for _ in range(N)]
    for i in range(N - m):
        rows[i + m][i] = field.one
    return SliceMatrix(m, k, field, rows)


def validate_slice(Y):
    """Does the block pattern hold (identity subdiagonal blocks, arbitrary
    last block column, zeros elsewhere)?"""
    m, k, F = Y.m, Y.k, Y.field
    N = Y.N
    for i in range(N):
        for j in range(N - m):  # last block column unconstrained
            want = F.one if i == j + m else F.zero
            if Y.entries[i][j] != want:
                return False
    return True


def validate_point(p):
    """Check every invariant of a slice point; returns failure strings."""
    failures = []
    Y, flag, eig = p.Y, p.flag, p.eigenvalues
    F = Y.field
    n = len(eig)
    if not validate_slice(Y):
        failures.append("matrix does not have the slice block pattern")
    if len(flag) != n:
        failures.append(f"flag has {len(flag)} steps but {n} eigenvalues")
        return failures
    dims = flag.dims()
    if dims and dims[-1] != Y.N:
        failures.append("flag does not end at the full space")
    prev = []
    Yrows = Y.rows()
    for i in range(1, n + 1):
        W = flag.subspace(i - 1)
        x = eig[n - i]  # scalar on W_i/W_(i-1) is x_(n-i+1)
        if len(W) <= len(prev):
            failures.append(f"flag step {i}: inclusion is not strict")
        if not all(linalg.subspace_contains(F, W, list(col)) for col in prev):
            failures.append(f"flag step {i}: flag is not increasing")
        for col in W:
            img = linalg.mat_vec(F, Yrows, list(col))
            if not linalg.subspace_contains(F, W, img):
                failures.append(f"flag step {i}: subspace is not Y-stable")
                break
        for col in W:
            shifted = [
                F.sub(a, F.mul(x, b))
                for a, b in zip(linalg.mat_vec(F, Yrows, list(col)), col)
            ]
            if prev:
                ok = linalg.subspace_contains(F, prev, shifted)
            else:
                ok = all(e == F.zero for e in shifted)
            if not ok:
                failures.append(
                    f"flag step {i}: Y does not act by the recorded scalar on the quotient"
                )
                break
        prev = W
    target = Poly.one(F)
    jumps = _jumps_from_dims(flag.dims())
    for i, d in enumerate(jumps, start=1):
        x = eig[n - i]
        target = target * Poly(F, (F.neg(x), F.one)) ** d
    if linalg.char_poly(F, Yrows) != target:
        failures.append("characteristic polynomial does not match the eigenvalue list")
    return failures


def _jumps_from_dims(dims):
    out = []
    prev = 0
    for d in dims:
        out.append(d - prev)
        prev = d
    return out


def chain_to_slice(chain):
    """The forward bijection: Y is multiplication by z on k[z]^m / L_n in the
    monomial basis, W_i is the image of L_(n-i), eigenvalues are the chain
    points in order.

    One Smith presentation of the quotient gives field coordinates of any
    class; the N x N matrix C of the monomial classes' coordinates is
    inverted once (singular C means the chain end is not trivial), and the
    monomial coordinates of a class are then C^-1 times its coordinates."""
    problems = validate_chain(chain)
    if problems:
        raise ValueError("invalid chain: " + "; ".join(problems))
    m, F, n = chain.m, chain.field, chain.n
    N = sum(chain.types)
    if N % m != 0:
        raise ValueError("total type is not divisible by the rank")
    k = N // m
    if k < 1:
        raise ValueError("k must be positive")
    pres = quotient_presentation(chain.end)
    C = pres.monomial_coords(m, k)  # N columns; validation makes pres.dim N
    Cinv = linalg.inverse(F, [list(r) for r in zip(*C)])
    if Cinv is None:
        raise ValueError("monomial classes are not a basis of the quotient")

    def monomial_coords(vec):
        return linalg.mat_vec(F, Cinv, pres.coords(vec))

    # z shifts the monomials z^i e_j with i < k-1 to basis vectors; only the
    # classes of z^k e_j fill the last block column
    Ycols = [[F.one if r == c + m else F.zero for r in range(N)] for c in range(N - m)]
    for j in range(m):
        vec = [Poly.zero(F)] * m
        vec[j] = Poly.monomial(F, F.one, k)
        Ycols.append(monomial_coords(vec))
    Yrows = [[Ycols[j][i] for j in range(N)] for i in range(N)]
    Y = SliceMatrix(m, k, F, Yrows)
    # W_i = image of L_(n-i) in the quotient: W_(i-1) plus the Krylov spans
    # under Y (multiplication by z in monomial coordinates) of the basis
    # columns of L_(n-i).  A Krylov run stops once its next vector lies in
    # the span so far, which is then Y-stable; the image has dimension
    # colength(L_(n-i), L_n), the sum of the last i types.
    subspaces = []
    basis = []  # each vector is zero at the pivot rows of those before it
    lattices = [standard_lattice(m, F)] + list(chain.lattices)
    for i in range(1, n + 1):
        dim = sum(chain.types[n - i :])
        for col in lattices[n - i].basis.columns():
            v = monomial_coords(col)
            while len(basis) < dim:
                r = linalg.reduce_mod_subspace(F, basis, v)
                if all(e == F.zero for e in r):
                    break
                basis.append(r)
                v = linalg.mat_vec(F, Yrows, v)
        subspaces.append(list(basis))
    flag = Flag(F, N, subspaces)
    return SlicePoint(Y, flag, chain.points)


def slice_to_chain(p):
    """The inverse bijection: L_n is the kernel of the evaluation map sending
    z^i e_j (i < k) to the standard basis and z to Y, generated by
    z^k e_j - q_j with q_j the degree-< k lift of Y^k applied to the j-th
    basis vector; L_(n-i) adds lifts of a basis of W_i."""
    problems = validate_point(p)
    if problems:
        raise ValueError("invalid slice point: " + "; ".join(problems))
    Y = p.Y
    m, k, F, N = Y.m, Y.k, Y.field, Y.N
    n = len(p.eigenvalues)
    Yrows = Y.rows()

    def lift(w):
        """The degree-< k polynomial vector with coordinate vector w."""
        vec = [Poly.zero(F)] * m
        for i in range(k):
            for j in range(m):
                c = w[i * m + j]
                if c != F.zero:
                    vec[j] = vec[j] + Poly.monomial(F, c, i)
        return vec

    gens_n = []
    for j in range(m):
        w = [F.zero] * N
        w[j] = F.one
        for _ in range(k):
            w = linalg.mat_vec(F, Yrows, w)
        q = lift(w)
        col = [Poly.zero(F)] * m
        col[j] = Poly.monomial(F, F.one, k)
        gens_n.append([a - b for a, b in zip(col, q)])
    Ln = Lattice(F, PolyMatrix.from_cols(F, gens_n))
    lattices = [None] * (n + 1)
    lattices[n] = Ln
    for i in range(1, n):
        W = p.flag.subspace(i - 1)
        gens = [lift(list(col)) for col in W] + gens_n
        lattices[n - i] = Lattice(F, PolyMatrix.from_cols(F, gens))
    chain_lattices = [lattices[t] for t in range(1, n + 1)]
    types = _jumps_from_dims(p.flag.dims())[::-1]
    return LatticeChain(m, F, p.eigenvalues, types, chain_lattices)
