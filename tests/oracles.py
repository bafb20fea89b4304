"""Independent cross-checks used to pin down expected values before they are
frozen into tests.  Everything here is deliberately written against other
machinery (sympy, brute force over small sets, or a second algorithm built
from other parts of the package) rather than the code under test."""

import itertools
import math

import sympy

from latslice import linalg
from latslice.countlab import step_choices
from latslice.lattice import (
    ColouredDivisor,
    HeckeType,
    Lattice,
    LatticeChain,
    colength,
    lattice_sum,
    quotient_basis_trivial,
    slice_column,
    standard_lattice,
)
from latslice.poly import Poly, linear_roots
from latslice.polymatrix import PolyMatrix, det, smith_normal_form
from latslice.slicecorr import Flag, SliceMatrix, target_poly


# ---------------------------------------------------------------------------
# Dense field matrix times a vector, one dot product per row: the reference
# for structured products and kernels.

def mat_vec(field, rows, v):
    out = []
    for row in rows:
        acc = field.zero
        for a, b in zip(row, v):
            acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Cramer-rule transition: entry (i, j) of basis(outer)^-1 * basis(inner) is
# det(B with column i replaced by inner column j) / det(B).  The lattice
# module solves the same system by back-substitution instead.

def cramer_transition(outer, inner):
    """The transition matrix, or None when an entry is not polynomial."""
    B = outer.basis
    d = det(B)
    m = outer.m
    cols = []
    for j in range(m):
        target = inner.basis.col(j)
        col = []
        for i in range(m):
            repl = PolyMatrix.from_cols(
                B.field, [target if t == i else B.col(t) for t in range(m)]
            )
            q, r = divmod(det(repl), d)
            if not r.is_zero:
                return None
            col.append(q)
        cols.append(col)
    return PolyMatrix.from_cols(outer.field, cols)


# ---------------------------------------------------------------------------
# Divisor-based chain check: colength from deg det(T) and the whole coloured
# divisor of each step from the Smith form of T, compared with omega_j at the
# marked point.  The lattice module tests rank T(x) = m - j on the
# back-substituted transition instead.

def divisor_step_failures(chain):
    """Failure strings of a chain, in the wording of validate_chain."""
    failures = []
    prev = standard_lattice(chain.m, chain.field)
    for i, (x, j, L) in enumerate(zip(chain.points, chain.types, chain.lattices), 1):
        T = cramer_transition(prev, L)
        if T is None:
            failures.append(f"step {i}: L_{i} is not contained in L_{i-1}")
        elif (c := int(det(T).degree)) != j:
            failures.append(f"step {i}: colength {c} != type {j}")
        elif _smith_divisor(T) != ColouredDivisor({x: HeckeType.minuscule(chain.m, j)}):
            failures.append(
                f"step {i}: modification is not omega_{j} concentrated at the marked point"
            )
        prev = L
    return failures


def _smith_divisor(T):
    """x -> sorted (z-x)-adic valuations of the Smith divisors of T, over the
    roots of det(T); None when det(T) has a factor without roots."""
    roots, residual = linear_roots(det(T))
    if residual.degree >= 1:
        return None
    _, D, _ = smith_normal_form(T)
    divisors = [D.entry(i, i) for i in range(T.rows)]
    return ColouredDivisor(
        {
            x: HeckeType(sorted((d.valuation_at(x) for d in divisors), reverse=True))
            for x in roots
        }
    )


# ---------------------------------------------------------------------------
# Flag check that images every column of every W_i under Y and tests each
# image for stability and for the scalar on W_i/W_(i-1).  The slice module
# images only the columns of W_i at pivot rows new over W_(i-1) once that
# step is known to be Y-stable and contained in W_i.

def every_column_point_failures(p):
    """Failure strings of a slice point, in the wording of validate_point."""
    failures = []
    Y, flag, eig = p.Y, p.flag, p.eigenvalues
    F = Y.field
    n = len(eig)
    if len(flag) != n:
        return [f"flag has {len(flag)} steps but {n} eigenvalues"]
    dims = flag.dims()
    if dims and dims[-1] != Y.N:
        failures.append("flag does not end at the full space")
    prev = []
    for i in range(1, n + 1):
        W = flag.subspace(i - 1)
        x = eig[n - i]
        jump = len(W) - len(prev)
        if jump < 1:
            failures.append(f"flag step {i}: inclusion is not strict")
        elif jump >= Y.m:
            failures.append(f"flag step {i}: jump {jump} is not in 1..{Y.m - 1}")
        if not all(linalg.subspace_contains(F, W, list(col)) for col in prev):
            failures.append(f"flag step {i}: flag is not increasing")
        images = [mat_vec(F, Y.entries, col) for col in W]
        if not all(linalg.subspace_contains(F, W, img) for img in images):
            failures.append(f"flag step {i}: subspace is not Y-stable")
        for col, img in zip(W, images):
            shifted = [F.sub(a, F.mul(x, b)) for a, b in zip(img, col)]
            if not linalg.subspace_contains(F, prev, shifted):
                failures.append(
                    f"flag step {i}: Y does not act by the recorded scalar on the quotient"
                )
                break
        prev = W
    jumps = [d - e for d, e in zip(dims, [0] + dims)]
    if linalg.char_poly(F, Y.entries) != target_poly(F, eig, jumps[::-1]):
        failures.append("characteristic polynomial does not match the eigenvalue list")
    return failures


# ---------------------------------------------------------------------------
# Every slice matrix over F_q by brute force: all q^(m*m*k) last block
# columns, with no trace fixed in advance.  The count module enumerates one
# trace at a time and solves the last diagonal entry from it.

def slice_matrices(m, k, field):
    """All slice matrices over a finite field, the free entries of the last
    block column running through F_q row by row, the last entry fastest."""
    N = m * k
    for values in itertools.product(field.elements(), repeat=N * m):
        yield SliceMatrix(m, k, field, [values[c::m] for c in range(m)])


# ---------------------------------------------------------------------------
# Compatible flags of a slice matrix by filtering chains of subspaces: every
# W_i among all subspaces of its dimension (`linalg.subspaces` with no
# `containing`), kept when W_(i-1) <= W_i and (Y - x_(n-i+1)) W_i <= W_(i-1),
# tested with dense products.  The count module walks down from k^N instead,
# choosing only the subspaces that contain (Y - x) W_i.

def brute_stable_flags(Y, points, types):
    """All flags [W_1, ..., W_n] compatible with the slice matrix Y, each
    W_i a reduced column echelon basis.  The conditions link neighbouring
    steps only, so the chains are filtered one step at a time, from W_0 = 0
    up; the last step must be k^N."""
    F, N, n = Y.field, Y.N, len(points)
    dims = list(itertools.accumulate(types[::-1]))
    if not dims or dims[-1] != N:
        return []
    chains = [[]]
    for i in range(1, n + 1):
        x = points[n - i]
        grown = []
        for chain in chains:
            prev = chain[-1] if chain else []
            for W in linalg.subspaces(F, N, dims[i - 1]):
                if all(linalg.subspace_contains(F, W, v) for v in prev) and all(
                    linalg.subspace_contains(
                        F, prev, [F.sub(a, F.mul(x, b)) for a, b in zip(mat_vec(F, Y.entries, w), w)]
                    )
                    for w in W
                ):
                    grown.append(chain + [W])
        chains = grown
    return chains


# ---------------------------------------------------------------------------
# Slice point to lattices by polynomial Euclid: L_n is generated by the monic
# basis z^k e_j - q_j(z), and L_(n-i) by lifts of W_i together with it, each
# put in Hermite form.  The slice module builds each L_i in closed form
# instead, as the step from L_(i-1) at x_i whose subspace is read off Y and
# W_(n-i) by one field kernel.

def _monic_basis(Y):
    """The basis columns z^k e_j - q_j(z) of the lattice of a slice matrix,
    q_j the lift of the j-th column of the last block column."""
    m, k, F = Y.m, Y.k, Y.field
    cols = []
    for j, qj in enumerate(Y.block_column):
        col = [-p for p in _lift(F, m, k, qj)]
        col[j] = col[j] + Poly.monomial(F, F.one, k)
        cols.append(col)
    return cols


def _lift(F, m, k, w):
    """The degree-< k polynomial vector with monomial coordinate vector w."""
    return [Poly(F, [w[t * m + j] for t in range(k)]) for j in range(m)]


def lattices_by_generators(point):
    """L_1..L_n of the chain of a valid slice point, as slice_to_chain
    returns them: L_(n-i) is the Hermite form of [lifts of W_i | monic
    basis] for i = n-1..1, and L_n that of the monic basis."""
    Y, flag = point.Y, point.flag
    m, k, F = Y.m, Y.k, Y.field
    gens_n = _monic_basis(Y)
    lifts = [
        [_lift(F, m, k, col) for col in flag.subspace(i - 1)]
        for i in range(len(flag) - 1, 0, -1)
    ]
    return [Lattice(F, PolyMatrix.from_cols(F, g + gens_n)) for g in lifts + [[]]]


# ---------------------------------------------------------------------------
# Chain to flag by Krylov closure: the class of a polynomial vector
# sum_t z^t v_t is sum_t Y^t v_t, so Horner's rule with Y gives its monomial
# coordinates, and W_i is W_(i-1) plus the Krylov spans under Y of those of
# the basis columns of L_(n-i).  The slice module takes each W_i as the
# kernel of the staircase map of L_(n-i) instead.

def krylov_flag(chain):
    """The flag of the slice point of a valid trivial chain."""
    m, F, n = chain.m, chain.field, chain.n
    N = sum(chain.types)
    k = N // m
    Y = SliceMatrix(m, k, F, slice_column(chain.end, k))

    def monomial_coords(vec):
        cs = [p.coeffs for p in vec]
        top = max(map(len, cs)) - 1
        w = [c[top] if len(c) > top else F.zero for c in cs] + [F.zero] * (N - m)
        for t in range(top - 1, -1, -1):
            w = Y.times_z(w)
            for j, c in enumerate(cs):
                if t < len(c):
                    w[j] = F.add(w[j], c[t])
        return w

    # a Krylov run stops once its next vector lies in the span so far, which
    # is then Y-stable; W_i has dimension the sum of the last i types
    subspaces, basis = [], []
    lattices = [standard_lattice(m, F)] + list(chain.lattices)
    for i in range(1, n + 1):
        dim = sum(chain.types[n - i :])
        for col in lattices[n - i].basis.columns():
            v = monomial_coords(col)
            while len(basis) < dim and any(linalg.reduce_mod_subspace(F, basis, v)):
                basis = linalg.canonical_subspace(F, basis + [v])
                v = Y.times_z(v)
        subspaces.append(basis)
    return Flag(F, N, subspaces)


# ---------------------------------------------------------------------------
# Smith-form triviality test: U*B*V = D presents k[z]^m / L as the sum of
# the k[z]/(d_i), and a vector v has field coordinates (U v)_i mod d_i.  The
# monomial classes are a basis iff their coordinate matrix has full rank.
# The lattice module reduces modulo the Hermite basis instead.

def smith_quotient_trivial(L, k):
    """Do the classes of z^t e_j, t < k, form a basis of k[z]^m / L?"""
    F, m = L.field, L.m
    U, D, _ = smith_normal_form(L.basis)
    divisors = [D.entry(i, i) for i in range(m)]
    if sum(int(d.degree) for d in divisors) != m * k:
        raise ValueError("colength is not m*k")
    cols = []
    for t in range(k):
        for j in range(m):
            vec = [Poly.monomial(F, F.one, t) if i == j else Poly.zero(F) for i in range(m)]
            col = []
            for w, d in zip(U.mul_vec(vec), divisors):
                r = w % d
                col.extend(r.coeff(s) for s in range(int(d.degree)))
            cols.append(col)
    return linalg.rank(F, cols) == m * k


# ---------------------------------------------------------------------------
# Depth-first chain enumeration: every chain walked on its own from the
# standard lattice, with no pruning, and the end condition tested at each
# leaf.  The counter merges chains that reach one lattice and prunes
# lattices that cannot reach z^k instead.

def dfs_chain_fiber(query, witnesses=False):
    """(count, chains) for the query; chains is None without witnesses."""
    F, m, k = query.field, query.m, query.k
    if query.end_condition == "any":
        end_ok = lambda L: True
    elif query.end_condition == "trivial":
        end_ok = lambda L: quotient_basis_trivial(L, k)
    else:
        zk = Poly.monomial(F, F.one, k)
        target = Lattice(F, PolyMatrix.identity(F, m).scale_poly(zk))
        end_ok = lambda L: L == target
    found = []
    count = 0

    def rec(prefix, L):
        nonlocal count
        depth = len(prefix)
        if depth == len(query.points):
            if end_ok(L):
                count += 1
                if witnesses:
                    found.append(
                        LatticeChain(m, F, query.points, query.types.entries, prefix)
                    )
            return
        x, j = query.points[depth], query.types.entries[depth]
        for nxt in step_choices(L, x, j):
            rec(prefix + [nxt], nxt)

    rec([], standard_lattice(m, F))
    return count, (found if witnesses else None)


# ---------------------------------------------------------------------------
# Smith form oracle: the product d_1...d_t equals the monic gcd of all t x t
# minors of the input matrix.

def minor_gcd_divisors(rows, modulus=None):
    """Elementary divisors of a square polynomial matrix from the gcds of its
    minors.  `rows` is a list of lists of sympy expressions in z."""
    z = sympy.Symbol("z")
    M = sympy.Matrix(rows)
    n = M.shape[0]
    kwargs = {"modulus": modulus} if modulus else {}
    prev = sympy.Integer(1)
    out = []
    for t in range(1, n + 1):
        g = sympy.Integer(0)
        for rs in itertools.combinations(range(n), t):
            for cs in itertools.combinations(range(n), t):
                minor = M[rs, cs].det()
                g = sympy.gcd(g, minor, **kwargs)
        g = sympy.Poly(g, z, **kwargs).monic().as_expr()
        d = sympy.cancel(g / prev)
        out.append(sympy.Poly(sympy.expand(d, **kwargs), z, **kwargs))
        prev = g
    return out


# ---------------------------------------------------------------------------
# Ballot sequences: SL_2 invariants in a 2n-fold tensor power of the standard
# representation are counted by +-1 sequences with nonnegative prefix sums
# summing to zero.

def ballot_count(n):
    total = 0
    for seq in itertools.product((1, -1), repeat=n):
        run = 0
        for s in seq:
            run += s
            if run < 0:
                break
        else:
            if run == 0:
                total += 1
    return total


# ---------------------------------------------------------------------------
# Closed walks on the (q+1)-regular tree, by distance-from-root dynamic
# programming.  Walks of length 2k from the root back to itself.

def tree_walk_count(q, length):
    dist = {0: 1}
    for _ in range(length):
        nxt = {}
        for d, ways in dist.items():
            if d == 0:
                nxt[1] = nxt.get(1, 0) + ways * (q + 1)
            else:
                nxt[d - 1] = nxt.get(d - 1, 0) + ways
                nxt[d + 1] = nxt.get(d + 1, 0) + ways * q
        dist = nxt
    return dist.get(0, 0)


# ---------------------------------------------------------------------------
# Subspace counting over F_p by exhausting spans, no product formula.

def brute_subspace_count(p, n, d):
    vectors = list(itertools.product(range(p), repeat=n))
    seen = set()
    for gens in itertools.combinations(vectors, d):
        span = _span(p, gens, n)
        if len(span) == p ** d:
            seen.add(span)
    return len(seen) if d > 0 else 1


def _span(p, gens, n):
    out = {(0,) * n}
    for g in gens:
        addition = set()
        for c in range(1, p):
            for v in out:
                addition.add(tuple((a + c * b) % p for a, b in zip(v, g)))
        out |= addition
    return frozenset(out)


# ---------------------------------------------------------------------------
# Exhaustive 2x2 scan over F_3 for the two-eigenvalue fiber: matrices with
# characteristic polynomial z(z-1) paired with a stable line on which the
# matrix acts by 1 while acting by 0 on the quotient.

def scan_2x2_fiber(p=3, x1=0, x2=1):
    count = 0
    lines = []
    for v in itertools.product(range(p), repeat=2):
        if v == (0, 0):
            continue
        line = frozenset(tuple((c * a) % p for a in v) for c in range(p))
        if line not in lines:
            lines.append(line)
    for a, b, c, d in itertools.product(range(p), repeat=4):
        tr, det = (a + d) % p, (a * d - b * c) % p
        if tr != (x1 + x2) % p or det != (x1 * x2) % p:
            continue
        for line in lines:
            ok = True
            for v in line:
                img = ((a * v[0] + b * v[1]) % p, (c * v[0] + d * v[1]) % p)
                # acts by x2 on the line
                if img != tuple((x2 * e) % p for e in v):
                    ok = False
                    break
            if not ok:
                continue
            # acts by x1 on the quotient: (M - x1) maps everything into the line
            for v in itertools.product(range(p), repeat=2):
                img = (
                    (a * v[0] + b * v[1] - x1 * v[0]) % p,
                    (c * v[0] + d * v[1] - x1 * v[1]) % p,
                )
                if img not in line:
                    ok = False
                    break
            if ok:
                count += 1
    return count


# ---------------------------------------------------------------------------
# Weyl alternant oracle for tensor invariants: the multiplicity of the
# rectangle (k^m) in a product of exterior powers of the standard GL_m
# representation is the coefficient of x^(lambda + delta) in
# prod_i e_(pi_i)(x) * vandermonde(x).

def alternant_invariant_dim(m, weights):
    total = sum(weights)
    if total % m != 0:
        return 0
    k = total // m
    xs = sympy.symbols(f"x0:{m}")
    prod = sympy.Integer(1)
    for j in weights:
        e_j = sympy.Integer(0)
        for sub in itertools.combinations(range(m), j):
            term = sympy.Integer(1)
            for i in sub:
                term *= xs[i]
            e_j += term
        prod *= e_j
    vand = sympy.Integer(1)
    for i in range(m):
        for j in range(i + 1, m):
            vand *= xs[i] - xs[j]
    expr = sympy.expand(prod * vand)
    target = [k + (m - 1 - i) for i in range(m)]
    coeff = expr
    for x, e in zip(xs, target):
        coeff = coeff.coeff(x, e)
    return int(coeff)


# ---------------------------------------------------------------------------
# Factorization by full powers: L + f_i^c * standard, with f_i the product of
# (z - x) over S_i and c the colength, and the support check d | f_1^c f_2^c
# on d = det(basis(L)).  The reference for `lattice.factorize`, which builds
# the generators of degree at most c from the valuations of d instead.

def factorize_by_powers(L, S1, S2):
    F = L.field
    c = colength(standard_lattice(L.m, F), L)
    f1, f2 = (Poly.from_roots(F, S) ** c for S in (S1, S2))
    d = Poly.one(F)
    for i in range(L.m):
        d = d * L.basis.entry(i, i)
    if not (f1 * f2 % d).is_zero:
        raise ValueError("divisor support not covered by the point sets")
    return tuple(
        lattice_sum(L, Lattice(F, PolyMatrix.identity(F, L.m).scale_poly(f))) for f in (f1, f2)
    )


# ---------------------------------------------------------------------------
# Valuations and rational roots one division at a time: the (z - x)-adic
# valuation by repeated Poly divmod, and the rational root search that
# removes one copy of a root per search (without its refusal bounds).  The
# references for `Poly.valuation_at`, which divides by synthetic division,
# and for `poly.linear_roots`, which removes every copy of a root at once.

def valuation_by_division(p, x):
    if p.is_zero:
        raise ValueError("valuation of the zero polynomial")
    lin = Poly(p.field, (p.field.neg(x), p.field.one))
    v = 0
    while True:
        q, r = divmod(p, lin)
        if not r.is_zero:
            return v
        v, p = v + 1, q


def linear_roots_one_at_a_time(p):
    F = p.field
    roots = {}
    while p.degree >= 1:
        if p.degree == 1:
            found = F.div(F.neg(p.coeffs[0]), p.coeffs[1])
            roots[found] = roots.get(found, 0) + 1
            p = Poly.const(F, p.coeffs[1])
            break
        den = math.lcm(*(c.denominator for c in p.coeffs))
        ints = [int(c * den) for c in p.coeffs]
        k = next(i for i, c in enumerate(ints) if c)
        if k:
            roots[F.zero] = roots.get(F.zero, 0) + k
            p = p.exact_div(Poly.monomial(F, F.one, k))
            continue
        cs = sorted(sympy.divisors(abs(ints[0])))
        ds = sorted(sympy.divisors(abs(ints[-1])))
        candidates = (F.parse(f"{s}{c}/{d}") for c in cs for d in ds for s in ("", "-"))
        found = next((r for r in candidates if p.eval(r) == F.zero), None)
        if found is None:
            break
        roots[found] = roots.get(found, 0) + 1
        p = p.exact_div(Poly(F, (F.neg(found), F.one)))
    return roots, p


# ---------------------------------------------------------------------------
# A step lattice from all of its generators: the lifts B v of the vectors
# v in vecs and every column of (z - x) B, for B the basis of L, put in
# Hermite form by the Euclidean echelon.  The reference for
# `lattice._preimage`, which builds B E_S in closed form from one basis of
# span(vecs) and the columns of (z - x) B at the other rows.

def preimage_by_all_generators(L, x, vecs):
    F = L.field
    shifted = L.basis.scale_poly(Poly(F, (F.neg(x), F.one))).columns()
    gens = [L.basis.mul_vec([Poly.const(F, c) for c in v]) for v in vecs]
    return Lattice(F, PolyMatrix.from_cols(F, gens + shifted))
