"""Exact linear algebra over a base field: echelon forms, kernels, solves,
canonical subspace representatives, subspace enumeration over finite fields,
and characteristic polynomials.

Field matrices are plain lists of rows; subspaces are represented by their
reduced column echelon basis (a canonical form, so equality of subspaces is
equality of representations).

The elimination loops of `rref`, `reduce_mod_subspace` and `char_poly`
work on the entries with Python operators, not through Field methods, as
`Poly` does: over F_p each output entry is reduced mod p once, over Q they
are plain Fraction operators.  The Field is called once per pivot, for its
inverse.
"""

from itertools import combinations, product

from .poly import Poly


def zeros(field, n):
    return [field.zero] * n


def rref(field, rows):
    """Reduced row echelon form; returns (matrix, pivot_columns).  A pivot
    row that already leads with 1 is not rescaled."""
    p = field.p
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        top = a[r]
        if top[c] != field.one:
            inv = field.inv(top[c])
            if p is None:
                top = a[r] = [inv * e if e else e for e in top]
            else:
                top = a[r] = [inv * e % p for e in top]
        for i in range(nrows):
            f = a[i][c]
            if i != r and f:
                if p is None:
                    a[i] = [x - f * y if y else x for x, y in zip(a[i], top)]
                else:
                    a[i] = [(x - f * y) % p for x, y in zip(a[i], top)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def rank(field, rows):
    return len(rref(field, rows)[1])


def kernel_basis(field, rows):
    """Basis of the right kernel, as a list of vectors."""
    if not rows:
        return []
    ncols = len(rows[0])
    a, pivots = rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = zeros(field, ncols)
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(a[r][fc])
        basis.append(v)
    return basis


def solve(field, A, B):
    """The X with A*X = B, for a square field matrix A and right-hand sides B
    (lists of rows), from one rref of [A | B]; None when A is singular."""
    n = len(A)
    a, pivots = rref(field, [list(ra) + list(rb) for ra, rb in zip(A, B)])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in a]


def canonical_subspace(field, columns):
    """Canonical representation of span(columns): reduced column echelon
    basis, pivots ordered top to bottom.  Runs rref on the vectors as rows
    and keeps the nonzero rows, each of which is one basis vector."""
    if not columns:
        return []
    a, pivots = rref(field, [list(c) for c in columns])
    return [list(r) for r in a[: len(pivots)]]


def subspace_contains(field, W, v):
    """Is v in the span of the echelon columns W?"""
    return reduce_mod_subspace(field, W, v) == zeros(field, len(v))


def pivot_rows(field, W):
    return [next(i for i, e in enumerate(col) if e != field.zero) for col in W]


def reduce_mod_subspace(field, W, v):
    """Canonical representative of v modulo the echelon-basis subspace W:
    entries at the pivot rows of W are cleared."""
    p = field.p
    v = list(v)
    for col in W:
        r = next((i for i, e in enumerate(col) if e), None)
        if r is None:
            continue
        c = v[r] if col[r] == field.one else field.div(v[r], col[r])
        if c:
            if p is None:
                v = [x - c * y if y else x for x, y in zip(v, col)]
            else:
                v = [(x - c * y) % p for x, y in zip(v, col)]
    return v


def subspaces(field, n, d, containing=()):
    """All d-dimensional subspaces of F^n, each as a reduced column echelon
    basis.  Finite fields only; count is the Gaussian binomial [n choose d]_q.

    With `containing`, only the subspaces that contain its span I, of rank r:
    the (d-r)-dimensional subspaces of F^n/I, taken at the non-pivot rows of
    I and lifted, [n-r choose d-r]_q of them and none when r > d.  Lifted
    columns vanish at I's pivots, so clearing I's columns at the lifted
    pivots keeps a reduced basis; merging by pivot row orders it."""
    if not field.is_finite:
        raise ValueError("subspace enumeration needs a finite field")
    if containing:
        I = canonical_subspace(field, containing)
        if len(I) >= d:
            if len(I) == d:
                yield I  # the one choice, as the lift of the zero subspace
            return
        pivots = pivot_rows(field, I)
        others = [r for r in range(n) if r not in pivots]
        for S in subspaces(field, len(others), d - len(I)):
            lifted = []
            for col in S:
                v = zeros(field, n)
                for r, c in zip(others, col):
                    v[r] = c
                lifted.append(v)
            basis = [reduce_mod_subspace(field, lifted, col) for col in I] + lifted
            rows = pivots + pivot_rows(field, lifted)
            yield [col for _, col in sorted(zip(rows, basis), key=lambda t: t[0])]
        return
    if d == 0:
        yield []
        return
    els = list(field.elements())
    for pivots in combinations(range(n), d):
        free_positions = []
        for c, pr in enumerate(pivots):
            for r in range(pr + 1, n):
                if r not in pivots:
                    free_positions.append((c, r))
        for values in product(els, repeat=len(free_positions)):
            cols = []
            for c, pr in enumerate(pivots):
                col = zeros(field, n)
                col[pr] = field.one
                cols.append(col)
            for (c, r), val in zip(free_positions, values):
                cols[c][r] = val
            yield cols


def char_poly(field, A):
    """Characteristic polynomial det(z*I - A), monic, computed exactly in
    the field: A is brought to upper Hessenberg form H by similarity, and
    the characteristic polynomials p_r of the leading r x r blocks of H
    follow from the recurrence along its subdiagonal (Cohen, "A Course in
    Computational Algebraic Number Theory", Alg. 2.2.9)."""
    p = field.p
    n = len(A)
    H = [list(row) for row in A]
    for c in range(n - 2):
        # clear column c below the subdiagonal, pivoting on row c+1
        piv = next((i for i in range(c + 1, n) if H[i][c]), None)
        if piv is None:
            continue
        if piv != c + 1:
            H[piv], H[c + 1] = H[c + 1], H[piv]
            for row in H:
                row[piv], row[c + 1] = row[c + 1], row[piv]
        inv = field.inv(H[c + 1][c])
        top = H[c + 1]
        for i in range(c + 2, n):
            if not H[i][c]:
                continue
            # row_i -= u row_(c+1), then col_(c+1) += u col_i: a similarity
            if p is None:
                u = H[i][c] * inv
                H[i] = [a - u * b for a, b in zip(H[i], top)]
                for row in H:
                    row[c + 1] += u * row[i]
            else:
                u = H[i][c] * inv % p
                H[i] = [(a - u * b) % p for a, b in zip(H[i], top)]
                for row in H:
                    row[c + 1] = (row[c + 1] + u * row[i]) % p
    # p_(r+1) = (z - h_rr) p_r - sum_i (h_(r,r-1) ... h_(r-i+1,r-i)) h_(r-i,r) p_(r-i)
    polys = [[field.one]]
    for r in range(n):
        prev = polys[r]
        out = [field.zero] + prev  # z p_r
        for d, c in enumerate(prev):
            out[d] -= H[r][r] * c
        t = field.one
        for i in range(1, r + 1):
            t *= H[r - i + 1][r - i]
            if not t:
                break  # every longer product has this factor too
            f = t * H[r - i][r]
            for d, c in enumerate(polys[r - i]):
                out[d] -= f * c
        polys.append(out if p is None else [c % p for c in out])
    return Poly(field, polys[n])
