"""The matrix side of the lattice-chain correspondence: block slice matrices,
compatible partial flags with eigenvalue records, and the explicit bijections
with lattice chains in both directions.

Basis ordering of k^N (N = m*k): e_1..e_m, z e_1..z e_m, ..., z^(k-1) e_1..
z^(k-1) e_m, so multiplication by z is literally the block subdiagonal.

Flag indexing: W_i is the image of L_(n-i), so the jump of W_i over W_(i-1)
is pi_(n-i+1) and the scalar action on W_i/W_(i-1) is x_(n-i+1).
"""

from functools import cache

from . import linalg
from .fields import Field
from .lattice import (
    LatticeChain,
    _monomial_images,
    _preimage,
    slice_column,
    standard_lattice,
    validate_chain,
)
from .poly import Poly


class SliceMatrix:
    """An N x N matrix (N = m*k) in the slice: identity m x m blocks on the
    first subdiagonal, zeros elsewhere, and the free last block column,
    given as its m columns q_1..q_m of length N.  The dense rows `entries`
    are derived from it."""

    def __init__(self, m, k, field, block):
        self.m = m
        self.k = k
        self.N = m * k
        self.field = field
        self.block_column = block = tuple(map(tuple, block))
        if len(block) != m or set(map(len, block)) != {self.N}:
            raise ValueError("the block column must be m columns of length N")
        self.entries = tuple(map(tuple.__add__, _pattern(m, k, field.p), zip(*block)))

    def times_z(self, w):
        """Y w: every block of w moves down one, and its last block combines
        the block column (z^k e_j is q_j).  Python operators on the entries,
        reduced mod p once each over F_p."""
        F, m, N = self.field, self.m, self.N
        out = [F.zero] * m + list(w[: N - m])
        for qj, c in zip(self.block_column, w[N - m :]):
            if c:
                out = [a + c * b if b else a for a, b in zip(out, qj)]
        return out if F.p is None else [a % F.p for a in out]

    def __eq__(self, other):
        return (
            isinstance(other, SliceMatrix)
            and (self.m, self.k, self.field) == (other.m, other.k, other.field)
            and self.block_column == other.block_column
        )

    def __hash__(self):
        return hash((self.m, self.k, self.field, self.block_column))

    def __repr__(self):
        return f"SliceMatrix(m={self.m}, k={self.k}, block_column={self.block_column})"


@cache
def _pattern(m, k, p):
    """The first N - m entries of each row of a slice matrix over the field
    of characteristic p: the identity blocks on the subdiagonal and zeros
    elsewhere.  Keyed by p, which hashes faster than a Field."""
    field, N = Field(p), m * k
    return tuple(
        tuple(field.one if r == c + m else field.zero for c in range(N - m)) for r in range(N)
    )


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
    return SliceMatrix(m, k, field, [[field.zero] * (m * k)] * m)


def target_poly(field, points, types):
    """prod (z - x_i)^(pi_i): the characteristic polynomial of the fiber."""
    return Poly.from_roots(field, [x for x, j in zip(points, types) for _ in range(j)])


def validate_point(p):
    """Check every invariant of a slice point; returns failure strings.

    Two checks run only where a failure can show.  Once W_(i-1) <= W_i and
    each imaged column c passes the scalar test, Y c = (Y - x) c + x c lies
    in W_(i-1) + W_i = W_i, so W_i is Y-stable with no containment test.
    With no failure after the loop, Y acts by x_(n-i+1) on each W_i/W_(i-1)
    of a Y-stable flag from 0 to k^N, so its characteristic polynomial is
    target_poly: `char_poly` runs only after a failure, or for an empty flag
    (which ends at 0)."""
    failures = []
    Y, flag, eig = p.Y, p.flag, p.eigenvalues
    F = Y.field
    n = len(eig)
    if len(flag) != n:
        failures.append(f"flag has {len(flag)} steps but {n} eigenvalues")
        return failures
    dims = flag.dims()
    if dims and dims[-1] != Y.N:
        failures.append("flag does not end at the full space")
    prev, stable = [], True
    for i in range(1, n + 1):
        W = flag.subspace(i - 1)
        x = eig[n - i]  # scalar on W_i/W_(i-1) is x_(n-i+1)
        jump = len(W) - len(prev)
        if jump < 1:
            failures.append(f"flag step {i}: inclusion is not strict")
        elif jump >= Y.m:  # no minuscule type is m or more
            failures.append(f"flag step {i}: jump {jump} is not in 1..{Y.m - 1}")
        cols = W
        increasing = all(linalg.subspace_contains(F, W, list(col)) for col in prev)
        if not increasing:
            failures.append(f"flag step {i}: flag is not increasing")
        elif stable:
            # W_(i-1) <= W_i is Y-stable: image only the columns of W_i at new
            # pivot rows, which span W_i modulo W_(i-1)
            old = set(linalg.pivot_rows(F, prev))
            cols = [c for c, r in zip(W, linalg.pivot_rows(F, W)) if r not in old]
        images = [Y.times_z(col) for col in cols]
        scalar = all(
            linalg.subspace_contains(F, prev, [F.sub(a, F.mul(x, b)) for a, b in zip(img, col)])
            for col, img in zip(cols, images)
        )
        stable = (increasing and scalar) or all(linalg.subspace_contains(F, W, y) for y in images)
        if not stable:
            failures.append(f"flag step {i}: subspace is not Y-stable")
        if not scalar:
            failures.append(
                f"flag step {i}: Y does not act by the recorded scalar on the quotient"
            )
        prev = W
    if failures or not n:
        target = target_poly(F, eig, _jumps_from_dims(dims)[::-1])
        if linalg.char_poly(F, Y.entries) != target:
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

    The monic basis z^k e_j - q_j(z) of L_n gives the last block column q_j
    of Y (None from slice_column means the chain end is not trivial).  Since
    L_(n-i) contains L_n, W_i = L_(n-i)/L_n is the kernel of the quotient
    map k[z]^m / L_n -> k[z]^m / L_(n-i), which sends the monomial z^t e_j
    to its staircase coordinates there; W_n = k^N."""
    problems = validate_chain(chain)
    if problems:
        raise ValueError("invalid chain: " + "; ".join(problems))
    m, F, n = chain.m, chain.field, chain.n
    if not n:
        raise ValueError("the empty chain has no slice point: it has no steps, so k = 0")
    N = sum(chain.types)
    if N % m != 0:
        raise ValueError("total type is not divisible by the rank")
    k = N // m
    q = slice_column(chain.end, k)  # validation makes the colength N
    if q is None:
        raise ValueError("monomial classes are not a basis of the quotient")
    # L_(n-1), ..., L_1 have colength > 0, so their maps have rows.  With the
    # columns reversed, each kernel vector leads with its free column's 1, 0
    # in the others: read back reversed, the basis is the one `Flag` keeps
    subspaces = [
        [v[::-1] for v in linalg.kernel_basis(F, [r[::-1] for r in _monomial_images(L, k - 1)])][::-1]
        for L in reversed(chain.lattices[:-1])
    ]
    subspaces.append([[F.one if r == c else F.zero for r in range(N)] for c in range(N)])
    return SlicePoint(SliceMatrix(m, k, F, q), Flag(F, N, subspaces), chain.points)


def slice_to_chain(p):
    """The inverse bijection: L_n is the kernel of the evaluation map ev
    sending z^t e_r to Y^t e_r, and L_(n-i) is the preimage of W_i under it
    (W_0 = 0 gives L_n).

    Each L_i is a step from L_(i-1) at x_i, built by `lattice._preimage`:
    (Y - x_i) W_(n-i+1) <= W_(n-i) gives (z - x_i) L_(i-1) <= L_i, and the
    image of L_i in L_(i-1)/(z - x_i)L_(i-1) is S_i = {c : ev(B c) in
    W_(n-i)}, B the Hermite basis of L_(i-1).  Reduction modulo W_(n-i) is
    linear with kernel W_(n-i), so S_i is the kernel of the field matrix
    whose column r is ev(B e_r) reduced modulo W_(n-i)."""
    problems = validate_point(p)
    if problems:
        raise ValueError("invalid slice point: " + "; ".join(problems))
    Y = p.Y
    m, F = Y.m, Y.field
    L = standard_lattice(m, F)
    lattices = []
    for x, W in zip(p.eigenvalues, p.flag.subspaces[-2::-1] + ((),)):
        images = [linalg.reduce_mod_subspace(F, W, _evaluate(Y, col)) for col in L.basis.columns()]
        L = _preimage(L, x, linalg.kernel_basis(F, list(zip(*images))))
        lattices.append(L)
    types = _jumps_from_dims(p.flag.dims())[::-1]
    return LatticeChain(m, F, p.eigenvalues, types, lattices)


def _evaluate(Y, vec):
    """ev(vec) in k^N for a polynomial vector vec = sum_t z^t v_t: the sum
    of the Y^t v_t, by Horner's rule with Y."""
    F, top = Y.field, max(len(p.coeffs) for p in vec) - 1
    w = [p.coeff(top) for p in vec] + [F.zero] * (Y.N - Y.m)
    for t in range(top - 1, -1, -1):
        w = Y.times_z(w)
        for j, p in enumerate(vec):
            w[j] = F.add(w[j], p.coeff(t))
    return w
