"""Matrices over k[z]: determinants and the three normal forms.

Everything is exact.  The determinant uses Bareiss fraction-free elimination
(all intermediate divisions are exact in k[z]); Smith, Hermite and column
reduction are Euclidean algorithms.

The Smith loop pivots in the top-left block of the rows it is given and
carries any further rows and columns as riders: `smith_normal_form` gives it
[[M, I], [I, 0]] to read U and V off the borders, `invariant_factors` gives
it M alone.  The Hermite form is `hermite_basis` alone, with one reduction,
`_reduce_triangular`, of a square upper-triangular matrix and no riders:
of the input itself when it is triangular, as the closed-form `lattice`
builders hand it over, and of the pivot columns of its column echelon
otherwise.
"""

from . import linalg
from .poly import Poly


class PolyMatrix:
    def __init__(self, field, rows, cols, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @staticmethod
    def from_rows(field, rowlists):
        rows = len(rowlists)
        cols = len(rowlists[0]) if rows else 0
        flat = []
        for r in rowlists:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return PolyMatrix(field, rows, cols, flat)

    @staticmethod
    def from_cols(field, collists):
        cols = len(collists)
        rows = len(collists[0]) if cols else 0
        return PolyMatrix.from_rows(
            field, [[collists[j][i] for j in range(cols)] for i in range(rows)]
        )

    @staticmethod
    def identity(field, n):
        one, zero = Poly.one(field), Poly.zero(field)
        return PolyMatrix.from_rows(
            field, [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def diagonal(field, polys):
        n = len(polys)
        zero = Poly.zero(field)
        return PolyMatrix.from_rows(
            field, [[polys[i] if i == j else zero for j in range(n)] for i in range(n)]
        )

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def col(self, j):
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def columns(self):
        return [self.col(j) for j in range(self.cols)]

    def to_rowlists(self):
        return [self.row(i) for i in range(self.rows)]

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        F = self.field
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = Poly.zero(F)
                for t in range(self.cols):
                    acc = acc + ri[t] * other.entry(t, j)
                out.append(acc)
        return PolyMatrix(F, self.rows, other.cols, out)

    def mul_vec(self, vec):
        """Apply to a column vector of Poly."""
        F = self.field
        out = []
        for i in range(self.rows):
            acc = Poly.zero(F)
            for t in range(self.cols):
                acc = acc + self.entry(i, t) * vec[t]
            out.append(acc)
        return out

    def scale_poly(self, p):
        return PolyMatrix(self.field, self.rows, self.cols, [e * p for e in self.entries])

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        return PolyMatrix.from_cols(self.field, self.columns() + other.columns())

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.field == other.field
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(", ".join(repr(e) for e in self.row(i)) for i in range(self.rows))
        return f"PolyMatrix[{body}]"


def det(M):
    """Fraction-free determinant (Bareiss)."""
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    n = M.rows
    F = M.field
    if n == 0:
        return Poly.one(F)
    a = [M.row(i) for i in range(n)]
    sign = 1
    prev = Poly.one(F)
    for t in range(n - 1):
        if a[t][t].is_zero:
            pivot_row = next((i for i in range(t + 1, n) if not a[i][t].is_zero), None)
            if pivot_row is None:
                return Poly.zero(F)
            a[t], a[pivot_row] = a[pivot_row], a[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                num = a[i][j] * a[t][t] - a[i][t] * a[t][j]
                a[i][j] = num.exact_div(prev)
            a[i][t] = Poly.zero(F)
        prev = a[t][t]
    d = a[n - 1][n - 1]
    return d if sign == 1 else -d


def is_unimodular(M):
    """True iff the determinant is a nonzero constant."""
    if M.rows != M.cols:
        raise ValueError("unimodularity of a non-square matrix")
    return det(M).degree == 0


def smith_normal_form(M):
    """U*M*V = D, D diagonal with monic d_1 | d_2 | ... | d_n, U and V
    unimodular.  Raises ValueError for singular (or non-square) input.
    Works on [[M, I], [I, 0]], pivoting in the top-left block only: U is
    read off the top-right block and V off the bottom-left one."""
    if M.rows != M.cols:
        raise ValueError("Smith form of a non-square matrix")
    n = M.rows
    F = M.field
    one, zero = Poly.one(F), Poly.zero(F)
    a = [M.row(i) + [one if j == i else zero for j in range(n)] for i in range(n)]
    a += [[one if j == i else zero for j in range(n)] + [zero] * n for i in range(n)]
    _smith_diagonalize(F, a, n)
    Um = PolyMatrix.from_rows(F, [row[n:] for row in a[:n]])
    Dm = PolyMatrix.diagonal(F, [a[t][t] for t in range(n)])
    Vm = PolyMatrix.from_rows(F, [row[:n] for row in a[n:]])
    return Um, Dm, Vm


def invariant_factors(M):
    """The monic invariant factors d_1 | ... | d_n of a nonsingular square M,
    the diagonal of its Smith form, from the Smith loop with no transform
    riding along.  Raises ValueError for singular (or non-square) input."""
    if M.rows != M.cols:
        raise ValueError("Smith form of a non-square matrix")
    a = M.to_rowlists()
    _smith_diagonalize(M.field, a, M.rows)
    return [a[t][t] for t in range(M.rows)]


def _smith_diagonalize(F, a, n):
    """Bring the top-left n x n block of the rows `a` to Smith form in place,
    monic d_1 | ... | d_n on its diagonal, pivoting in that block only.
    Further columns of rows 0..n-1 ride along with the row operations and
    further rows with the column operations."""
    width = len(a[0]) if a else 0
    for t in range(n):
        while True:
            # minimal-degree nonzero entry of the trailing block
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    if not a[i][j].is_zero and (
                        best is None or a[i][j].degree < a[best[0]][best[1]].degree
                    ):
                        best = (i, j)
            if best is None:
                raise ValueError("singular matrix")
            bi, bj = best
            if bi != t:
                a[t], a[bi] = a[bi], a[t]
            if bj != t:
                for row in a:
                    row[t], row[bj] = row[bj], row[t]
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, n):
                if a[i][t].is_zero:
                    continue
                q, r = divmod(a[i][t], pivot)
                for j in range(width):
                    a[i][j] = a[i][j] - q * a[t][j]
                if not r.is_zero:
                    dirty = True
            for j in range(t + 1, n):
                if a[t][j].is_zero:
                    continue
                q, r = divmod(a[t][j], pivot)
                for row in a:
                    row[j] = row[j] - q * row[t]
                if not r.is_zero:
                    dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the block for the chain d_t | d_{t+1}
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if not (a[i][j] % pivot).is_zero:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(width):
                a[t][j] = a[t][j] + a[offender][j]
    # monic pivots: scale row t of the block and of its riders by one constant
    for t in range(n):
        c = a[t][t].lc
        if c != F.one:
            inv = F.inv(c)
            a[t] = [e.scale(inv) for e in a[t]]


def _column_echelon(cols, m):
    """Triangularize columns over k[z] by unimodular column operations,
    pivoting on rows m-1..0 only.  Rows below m ride along with every
    operation, so identity rows stacked under a matrix M come out as a
    unimodular V with M*V = the echelon form.

    Returns (pivots, cols): pivots[i] is the column index holding the pivot
    of row i (or None); the columns holding no pivot are zero in rows
    0..m-1.
    """
    cols = [list(c) for c in cols]
    free = list(range(len(cols)))
    pivots = [None] * m
    for i in range(m - 1, -1, -1):
        while True:
            live = [j for j in free if not cols[j][i].is_zero]
            if not live:
                break
            piv = min(live, key=lambda j: cols[j][i].degree)
            if len(live) == 1:
                pivots[i] = piv
                free.remove(piv)
                break
            for j in live:
                if j == piv:
                    continue
                q = cols[j][i] // cols[piv][i]
                for r in range(len(cols[j])):
                    cols[j][r] = cols[j][r] - q * cols[piv][r]
    return pivots, cols


def _reduce_triangular(field, E, m):
    """Bring the flat row-major entries E of an m x m upper-triangular
    matrix with nonzero diagonal to Hermite form, in place, and return
    whether any entry changed.  Column j is scaled to a monic diagonal
    entry, then its entries above the diagonal are reduced by their rows'
    diagonals, bottom up.  Reducing row i subtracts a multiple of column i,
    whose rows <= i are not reduced yet; no entry below a diagonal is read."""
    changed = False
    for j in range(m):
        if (lc := E[j * m + j].lc) != field.one:
            inv = field.inv(lc)
            for r in range(j + 1):
                E[r * m + j] = E[r * m + j].scale(inv)
            changed = True
        for i in range(j - 1, -1, -1):
            if E[i * m + j].degree >= E[i * m + i].degree:
                q = E[i * m + j] // E[i * m + i]
                for r in range(i + 1):
                    if not (e := E[r * m + i]).is_zero:
                        E[r * m + j] = E[r * m + j] - q * e
                changed = True
    return changed


def hermite_basis(M):
    """Canonical m x m basis of the column span of an m x n matrix of rank m.

    Output is upper triangular with monic diagonal pivots and off-pivot
    entries of smaller degree than their row pivot; equal modules give equal
    matrices.  A square M that is zero below a nonzero diagonal, as every
    closed-form `lattice` builder hands over, is reduced as it stands, and
    is returned itself when nothing changed; any other M is first brought
    to a column echelon.  Raises ValueError on rank-deficient input.
    """
    F, m, E = M.field, M.rows, M.entries
    if (
        M.cols == m
        and all(E[i * m + i].coeffs for i in range(m))
        and not any(E[i * m + j].coeffs for i in range(1, m) for j in range(i))
    ):
        E = list(E)
        return PolyMatrix(F, m, m, E) if _reduce_triangular(F, E, m) else M
    pivots, cols = _column_echelon(M.columns(), m)
    if any(p is None for p in pivots):
        raise ValueError("generators do not span a rank-m module")
    E = [cols[j][i] for i in range(m) for j in pivots]
    _reduce_triangular(F, E, m)
    return PolyMatrix(F, m, m, E)


def column_reduce(M):
    """Column-reduce a nonsingular square matrix.

    Returns (M', degs): M' is column-equivalent to M, its column-leading
    coefficient matrix is nonsingular, degs are the column degrees and
    sum(degs) = deg det(M).  Raises ValueError for singular input, which
    shows as a column reduced to zero.
    """
    if M.rows != M.cols:
        raise ValueError("column reduction of a non-square matrix")
    F = M.field
    n = M.rows
    cols = [list(c) for c in M.columns()]
    while True:
        degs = [max(e.degree for e in c) for c in cols]
        # each pass lowers one column degree, so a singular input ends here
        if any(d < 0 for d in degs):
            raise ValueError("singular matrix")
        lead = [[cols[j][i].coeff(degs[j]) if degs[j] >= 0 else F.zero for j in range(n)] for i in range(n)]
        kernel = linalg.kernel_basis(F, lead)
        if not kernel:
            return PolyMatrix.from_cols(F, cols), degs
        combo = kernel[0]
        jstar = max((j for j in range(n) if combo[j] != F.zero), key=lambda j: degs[j])
        for j in range(n):
            if j == jstar or combo[j] == F.zero:
                continue
            c = F.div(combo[j], combo[jstar])
            shift = degs[jstar] - degs[j]
            for r in range(n):
                cols[jstar][r] = cols[jstar][r] + cols[j][r].scale(c).shift(shift)
