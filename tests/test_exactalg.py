"""Field arithmetic, polynomials and the three matrix normal forms."""

import contextlib
import random
import signal
from fractions import Fraction
from math import gcd, prod

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latslice import polymatrix
from latslice.countlab import _random_step
from latslice.fields import GF, QQ
from latslice.lattice import Lattice, _divide, factorize, standard_lattice
from latslice.poly import Poly, gcd_cofactor, linear_roots, poly_gcd
from latslice.polymatrix import (
    PolyMatrix,
    _column_echelon,
    _reduce_triangular,
    column_reduce,
    det,
    hermite_basis,
    invariant_factors,
    is_unimodular,
    smith_normal_form,
)

import oracles


def P(field, *coeffs):
    return Poly(field, [field.from_int(c) for c in coeffs])


class TestFields:
    def test_rationals(self):
        a = QQ.parse("2/3")
        b = QQ.parse("-1/6")
        assert QQ.add(a, b) == Fraction(1, 2)
        assert QQ.mul(a, QQ.inv(a)) == QQ.one

    def test_prime_field(self):
        F = GF(7)
        assert F.add(F.from_int(5), F.from_int(4)) == 2
        assert F.mul(F.from_int(3), F.inv(F.from_int(3))) == F.one
        assert sorted(F.elements()) == list(range(7))

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            GF(6)
        with pytest.raises(ValueError):
            GF(1)

    def test_large_characteristic(self):
        # trial division up to sqrt(p) answers below the bound; above it the
        # characteristic is refused before any division
        with time_limit(10):
            assert GF(999999999989).p == 999999999989
            for p in (10**12 + 39, 10**18 + 3, 10**39 + 3):
                with pytest.raises(ValueError, match="exceeds the bound 10\\^12"):
                    GF(p)

    def test_codes_roundtrip(self):
        from latslice.fields import Field

        for F in (QQ, GF(2), GF(97)):
            assert Field.from_code(F.code) == F


class TestPoly:
    def test_arith(self):
        F = GF(5)
        a = P(F, 1, 2)  # 1 + 2z
        b = P(F, 0, 0, 1)  # z^2
        assert (a * b).to_list() == [0, 0, 1, 2]
        assert (a + a).to_list() == [2, 4]
        assert a.degree == 1 and b.degree == 2
        assert Poly.zero(F).is_zero

    def test_divmod_exact(self):
        F = QQ
        num = P(F, -1, 0, 1)  # z^2 - 1
        q, r = divmod(num, P(F, -1, 1))
        assert q.to_list() == [1, 1] and r.is_zero
        assert num.exact_div(P(F, 1, 1)).to_list() == [-1, 1]

    def test_gcd_common_factor(self):
        # gcd(z^2 - 1, z - 1) = z - 1
        F = QQ
        g = poly_gcd(P(F, -1, 0, 1), P(F, -1, 1))
        assert g.to_list() == [-1, 1]

    def test_gcd_monic_normalization(self):
        # gcd(0, 3z + 3) = z + 1
        F = QQ
        g = poly_gcd(Poly.zero(F), P(F, 3, 3))
        assert g.to_list() == [1, 1]

    def test_gcd_char2(self):
        # gcd(z^2 + 1, z^2 + z) over F_2 = z + 1, by hand: z^2+1 = (z+1)^2
        F = GF(2)
        g = poly_gcd(P(F, 1, 0, 1), P(F, 0, 1, 1))
        assert g.to_list() == [1, 1]

    def test_gcd_of_zeros(self):
        assert poly_gcd(Poly.zero(QQ), Poly.zero(QQ)).is_zero
        assert gcd_cofactor(Poly.zero(QQ), Poly.zero(QQ))[0].is_zero

    @pytest.mark.parametrize("F", [GF(2), GF(5), QQ], ids=repr)
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_gcd_cofactor(self, F, data):
        # u divides a and b, and every common divisor of a and b divides
        # s*a - (s*a - u) = u: so a monic u is their gcd, poly_gcd's too
        a, b = data.draw(small_polys(F, 5)), data.draw(small_polys(F, 5))
        u, s = gcd_cofactor(a, b)
        assert u == poly_gcd(a, b)
        if u.is_zero:
            assert a.is_zero and b.is_zero
            return
        assert u.lc == F.one and (a % u).is_zero and (b % u).is_zero
        assert (s * a - u if b.is_zero else (s * a - u) % b).is_zero

    def test_eval_and_valuation(self):
        F = GF(3)
        p = P(F, 0, 0, 1) * P(F, 2, 1)  # z^2 (z + 2)
        assert p.eval(F.zero) == F.zero
        assert p.valuation_at(F.zero) == 2
        assert p.valuation_at(F.one) == 1  # z + 2 vanishes at 1 over F_3

    def test_linear_roots_finite(self):
        F = GF(5)
        p = P(F, 0, 1) * P(F, 0, 1) * P(F, -2, 1)
        roots, residual = linear_roots(p)
        assert roots == {F.zero: 2, F.from_int(2): 1}
        assert residual.degree == 0

    def test_linear_roots_rational(self):
        p = P(QQ, 0, 1) * P(QQ, -3, 1)
        roots, residual = linear_roots(p)
        assert roots == {Fraction(0): 1, Fraction(3): 1}
        assert residual.degree == 0

    def test_linear_roots_irreducible_residual(self):
        p = P(QQ, 1, 0, 1)  # z^2 + 1
        roots, residual = linear_roots(p)
        assert roots == {} and residual.degree == 2


FIELDS = [GF(2), GF(3), GF(5), QQ]
Z = sympy.Symbol("z")


def elements(F):
    """Field elements; over Q with denominators up to 6, so that operands
    mix denominators."""
    if F.is_finite:
        return st.integers(0, F.p - 1)
    return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def operand_pairs(draw, F):
    """(a, b, c): two polynomials of degree < 6, zero included, whose top
    coefficients often agree up to sign (so that a - b or a + b cancels
    leading terms), and a scalar c."""
    a = draw(st.lists(elements(F), max_size=6))
    b = draw(st.lists(elements(F), max_size=6))
    shared = draw(st.integers(0, min(len(a), len(b))))
    sign = draw(st.sampled_from((1, -1)))
    for i in range(1, shared + 1):
        b[-i] = F.mul(F.from_int(sign), a[-i])
    return Poly(F, a), Poly(F, b), draw(elements(F))


def to_sympy(p):
    F = p.field
    domain = sympy.QQ if F.p is None else sympy.GF(F.p, symmetric=False)
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], Z, domain=domain)


def assert_normal(p):
    """No trailing zero; coefficients ints in range(p), or reduced Fractions."""
    assert not p.coeffs or p.coeffs[-1] != 0
    for c in p.coeffs:
        if p.field.p is None:
            assert type(c) is Fraction and c.denominator > 0
            assert gcd(c.numerator, c.denominator) == 1
        else:
            assert type(c) is int and 0 <= c < p.field.p


class TestPolyKernels:
    """The coefficient kernels of Poly against sympy Poly over GF(p) and QQ."""

    @pytest.mark.parametrize("F", FIELDS, ids=repr)
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_ring_ops_match_sympy(self, F, data):
        a, b, c = data.draw(operand_pairs(F))
        A, B = to_sympy(a), to_sympy(b)
        scalar = to_sympy(Poly(F, [c]))
        for got, want in (
            (a + b, A + B),
            (a - b, A - B),
            (b - a, B - A),
            (-a, -A),
            (a * b, A * B),
            (a.scale(c), A * scalar),
            (a ** 3, A**3),
            (b ** 0, B**0),
        ):
            assert_normal(got)
            assert to_sympy(got) == want

    @pytest.mark.parametrize("F", FIELDS, ids=repr)
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_divmod_matches_sympy(self, F, data):
        a, b, _ = data.draw(operand_pairs(F))
        for num, den in ((a, b), (b, a), (a * b, b), (a * b + a, a)):
            if den.is_zero:
                with pytest.raises(ZeroDivisionError):
                    divmod(num, den)
                continue
            q, r = divmod(num, den)
            assert_normal(q)
            assert_normal(r)
            Q, R = to_sympy(num).div(to_sympy(den))
            assert (to_sympy(q), to_sympy(r)) == (Q, R)
            assert r.degree < den.degree


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the enclosed block with TimeoutError after `seconds` (SIGALRM)."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def mat(field, rowlists):
    return PolyMatrix.from_rows(
        field, [[P(field, *e) if isinstance(e, (tuple, list)) else e for e in r] for r in rowlists]
    )


class TestDet:
    def test_identity(self):
        assert det(PolyMatrix.identity(QQ, 3)).to_list() == [1]

    def test_diagonal(self):
        F = GF(3)
        M = PolyMatrix.diagonal(F, [P(F, 0, 1), P(F, 0, 0, 1)])
        assert det(M).to_list() == [0, 0, 0, 1]

    def test_triangular(self):
        F = GF(3)
        M = mat(F, [[(0, 1), (1,)], [(0,), (0, 1)]])
        assert det(M).to_list() == [0, 0, 1]

    def test_matches_sympy(self):
        rng = random.Random(11)
        z = sympy.Symbol("z")
        for _ in range(25):
            n = rng.randint(1, 3)
            rows = [
                [[rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] for _ in range(n)]
                for _ in range(n)
            ]
            M = mat(QQ, rows)
            expect = sympy.Matrix(
                [[sum(c * z**i for i, c in enumerate(e)) for e in r] for r in rows]
            ).det()
            got = sum(c * z**i for i, c in enumerate(det(M).to_list()))
            assert sympy.expand(got - expect) == 0


class TestSmith:
    def test_already_diagonal(self):
        F = QQ
        M = PolyMatrix.diagonal(F, [Poly.one(F), P(F, 0, 1)])
        U, D, V = smith_normal_form(M)
        assert D == M
        assert U == PolyMatrix.identity(F, 2) and V == PolyMatrix.identity(F, 2)

    def test_jordan_block(self):
        # [[z,1],[0,z]] has elementary divisors 1, z^2
        F = GF(3)
        M = mat(F, [[(0, 1), (1,)], [(0,), (0, 1)]])
        U, D, V = smith_normal_form(M)
        assert D.entry(0, 0).to_list() == [1]
        assert D.entry(1, 1).to_list() == [0, 0, 1]
        assert U * M * V == D
        divs = oracles.minor_gcd_divisors([[sympy.Symbol("z"), 1], [0, sympy.Symbol("z")]], modulus=3)
        assert [d.as_expr() for d in divs] == [1, sympy.Symbol("z") ** 2]

    def test_divisibility_reordering(self):
        F = QQ
        M = PolyMatrix.diagonal(F, [P(F, 0, 0, 1), P(F, 0, 1)])
        U, D, V = smith_normal_form(M)
        assert D.entry(0, 0).to_list() == [0, 1]
        assert D.entry(1, 1).to_list() == [0, 0, 1]

    def test_singular_rejected(self):
        F = QQ
        M = mat(F, [[(0, 1), (0, 1)], [(0, 1), (0, 1)]])
        with pytest.raises(ValueError):
            smith_normal_form(M)

    def test_against_minor_gcd_oracle(self):
        rng = random.Random(3)
        z = sympy.Symbol("z")
        for _ in range(15):
            n = rng.randint(2, 3)
            rows = [
                [[rng.randint(0, 2) for _ in range(rng.randint(1, 3))] for _ in range(n)]
                for _ in range(n)
            ]
            M = mat(GF(3), rows)
            if det(M).is_zero:
                continue
            _, D, _ = smith_normal_form(M)
            srows = [
                [sum(c * z**i for i, c in enumerate(e)) for e in r] for r in rows
            ]
            expect = oracles.minor_gcd_divisors(srows, modulus=3)
            for t, d in enumerate(expect):
                got = sum(
                    int(c) * z**i for i, c in enumerate(D.entry(t, t).to_list())
                )
                assert sympy.Poly(got, z, modulus=3) == d


    def test_transforms_on_seeded_matrices(self):
        rng = random.Random(31)
        for F in (GF(2), GF(3), GF(5), QQ):
            for _ in range(8):
                n = rng.randint(1, 3)
                rows = [
                    [[rng.randint(-2, 2) for _ in range(rng.randint(0, 3))] for _ in range(n)]
                    for _ in range(n)
                ]
                M = mat(F, rows)
                if det(M).is_zero:
                    continue
                U, D, V = smith_normal_form(M)
                assert is_unimodular(U) and is_unimodular(V)
                assert U * M * V == D
                divisors = [D.entry(t, t) for t in range(n)]
                assert all(d.lc == F.one for d in divisors)
                assert all((b % a).is_zero for a, b in zip(divisors, divisors[1:]))


class TestHermite:
    def test_full_module(self):
        F = QQ
        gens = PolyMatrix.from_cols(
            F, [[P(F, 0, 1), Poly.zero(F)], [Poly.one(F), Poly.zero(F)], [Poly.zero(F), Poly.one(F)]]
        )
        assert hermite_basis(gens) == PolyMatrix.identity(F, 2)

    def test_scaled(self):
        F = GF(2)
        M = PolyMatrix.diagonal(F, [P(F, 0, 1), P(F, 0, 1)])
        assert hermite_basis(M) == M

    def test_coprime_generators(self):
        # (z-1) e1, z e1 and e2 generate everything
        F = QQ
        gens = PolyMatrix.from_cols(
            F,
            [
                [P(F, -1, 1), Poly.zero(F)],
                [P(F, 0, 1), Poly.zero(F)],
                [Poly.zero(F), Poly.one(F)],
            ],
        )
        assert hermite_basis(gens) == PolyMatrix.identity(F, 2)

    def test_rank_deficient_rejected(self):
        F = QQ
        gens = PolyMatrix.from_cols(F, [[P(F, 0, 1), Poly.zero(F)]] * 2)
        with pytest.raises(ValueError):
            hermite_basis(gens)

    def test_canonical_under_regenerating(self):
        rng = random.Random(5)
        F = GF(3)
        for _ in range(25):
            M = mat(
                F,
                [
                    [[rng.randint(0, 2) for _ in range(rng.randint(1, 3))] for _ in range(2)]
                    for _ in range(2)
                ],
            )
            if det(M).is_zero:
                continue
            H = hermite_basis(M)
            # right-multiplying by a unimodular matrix keeps the module
            T = mat(F, [[(1,), (rng.randint(0, 2), rng.randint(0, 2))], [(0,), (1,)]])
            assert hermite_basis(M * T) == H

    def test_carried_rows_record_transform(self):
        # identity rows stacked under M ride along with every column
        # operation, so they come out as a unimodular V with M*V = H
        rng = random.Random(29)
        cases = [(GF(3), mat(GF(3), [[(0, 1), (1,), (0, 1)], [(0,), (0, 1), (0, 1)]]))]
        for F in (GF(2), GF(5), QQ):
            for _ in range(8):
                m = rng.randint(1, 3)
                g = rng.randint(m, m + 2)
                rows = [
                    [[rng.randint(-2, 2) for _ in range(rng.randint(0, 3))] for _ in range(g)]
                    for _ in range(m)
                ]
                cases.append((F, mat(F, rows)))
        for F, M in cases:
            m, g = M.rows, M.cols
            eye = PolyMatrix.identity(F, g).columns()
            pivots, cols = _column_echelon([c + e for c, e in zip(M.columns(), eye)], m)
            H = PolyMatrix.from_cols(F, [c[:m] for c in cols])
            V = PolyMatrix.from_cols(F, [c[m:] for c in cols])
            assert is_unimodular(V)
            assert M * V == H
            for j, c in enumerate(cols):
                if j not in pivots:
                    assert all(p.is_zero for p in c[:m])
            for i, j in enumerate(pivots):
                if j is not None:
                    assert not H.entry(i, j).is_zero
                    assert all(H.entry(r, j).is_zero for r in range(i + 1, m))


class Untouchable(Poly):
    """A zero entry below the diagonal that fails on any arithmetic: the
    triangular reduction must never touch one."""

    def refuse(self, *args):
        raise AssertionError("an entry below the diagonal was touched")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = __neg__ = refuse
    __divmod__ = __floordiv__ = __mod__ = scale = shift = refuse


class TestReduceTriangular:
    """`_reduce_triangular` is the one Hermite reduction, which
    `hermite_basis` runs on the pivot columns of its column echelon, or on
    its input alone when that is square and triangular, as the closed-form
    bases of `lattice._preimage` and `factorize` are.  On the flat entries
    of an upper-triangular matrix with non-monic diagonal it must give the
    Hermite basis that `hermite_basis` gives the same columns plus one
    redundant generator (the column-echelon path), and so must
    `hermite_basis` of the triangular matrix itself with no column echelon;
    that basis must be in Hermite form and span the same module by checks
    that run no reduction: all share the reduction, so agreement alone would
    not see a wrong one."""

    @staticmethod
    def triangular(rng, F, m):
        """Columns of an upper-triangular matrix: diagonal degrees 0..3 with
        leading coefficients other than 1 where the field has them, and
        entries above the diagonal up to two degrees above their row's."""

        def poly(degree, lead=None):
            coeffs = [F.from_int(rng.randint(-4, 4)) for _ in range(degree)]
            return Poly(F, coeffs + [lead if lead is not None else F.from_int(rng.randint(-4, 4))])

        leads = [F.from_int(c) for c in (2, 3, -1, 1)] if F.p != 2 else [F.one]
        diag = [poly(rng.choice((0, 1, 1, 2, 3)), rng.choice(leads)) for _ in range(m)]
        cols = []
        for j in range(m):
            above = [poly(rng.randint(0, diag[i].degree + 2)) for i in range(j)]
            cols.append(above + [diag[j]] + [Poly.zero(F)] * (m - 1 - j))
        return cols

    @pytest.mark.parametrize("F", [GF(2), GF(5), QQ], ids=repr)
    def test_against_column_echelon(self, F, monkeypatch):
        rng = random.Random(71)
        for _ in range(40):
            m = rng.randint(1, 4)
            cols = self.triangular(rng, F, m)
            factor = Poly(F, [F.from_int(rng.randint(-2, 2)) for _ in range(2)])
            extra = [a * factor + b for a, b in zip(cols[0], cols[-1])]
            want = hermite_basis(PolyMatrix.from_cols(F, cols + [extra]))
            guarded = [c[i] if i <= j else Untouchable(F) for i in range(m) for j, c in enumerate(cols)]
            changed = _reduce_triangular(F, guarded, m)
            H = PolyMatrix(F, m, m, guarded)
            assert H == want
            assert changed == (H != PolyMatrix.from_cols(F, cols))
            with monkeypatch.context() as mp:
                mp.setattr(polymatrix, "_column_echelon", None)
                assert hermite_basis(PolyMatrix.from_cols(F, cols)) == want
            rows = H.to_rowlists()
            for i in range(m):
                assert H.entry(i, i).lc == F.one
                assert all(H.entry(i, j).degree < H.entry(i, i).degree for j in range(i + 1, m))
                assert all(isinstance(H.entry(r, i), Untouchable) for r in range(i + 1, m))
            # H is triangular with monic diagonal of the input's degrees, so
            # it spans the input's module when every input column divides
            # by it with no remainder
            assert [H.entry(i, i).degree for i in range(m)] == [c[j].degree for j, c in enumerate(cols)]
            for c in cols:
                assert all(r.is_zero for r in _divide(rows, c)[1])


def small_polys(F, max_size=3):
    return st.lists(elements(F), max_size=max_size).map(lambda c: Poly(F, c))


@st.composite
def square_matrices(draw, F, singular=False):
    """n x n, n <= 3, entries of degree < 3 (so rarely triangular); with
    `singular`, the last row is a polynomial multiple of the first (a zero
    1 x 1 matrix when n = 1)."""
    n = draw(st.integers(1, 3))
    rows = [[draw(small_polys(F)) for _ in range(n)] for _ in range(n)]
    if singular:
        f = draw(small_polys(F))
        rows[-1] = [f * e for e in rows[0]] if n > 1 else [Poly.zero(F)]
    return PolyMatrix.from_rows(F, rows)


class TestInvariantFactors:
    """invariant_factors runs the Smith loop without the U, V riders."""

    @pytest.mark.parametrize("F", FIELDS, ids=repr)
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_smith_diagonal(self, F, data):
        M = data.draw(square_matrices(F))
        assume(not det(M).is_zero)
        _, D, _ = smith_normal_form(M)
        assert invariant_factors(M) == [D.entry(i, i) for i in range(M.rows)]

    @pytest.mark.parametrize("F", FIELDS, ids=repr)
    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_singular_rejected(self, F, data):
        M = data.draw(square_matrices(F, singular=True))
        with pytest.raises(ValueError, match="singular"):
            invariant_factors(M)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="non-square"):
            invariant_factors(PolyMatrix.from_rows(QQ, [[P(QQ, 1), P(QQ, 0, 1)]]))


def stacked_modulus(M, g):
    """hermite_basis of [M | g*I], the Euclidean echelon of span(M) +
    g*k[z]^m: the reference for the factors of `lattice.factorize`."""
    return hermite_basis(M.hstack(PolyMatrix.identity(M.field, M.rows).scale_poly(g)))


class TestHermiteModulo:
    """Each factor of `factorize(L, S1, S2)` is the Hermite basis of
    span(B) + g*k[z]^m, for B the Hermite basis of L and g the part of
    d = det B at S_i, built in closed form with no Euclidean echelon."""

    @staticmethod
    def check(L, S1, S2):
        """Both factors against `stacked_modulus`; returns the two moduli."""
        F = L.field
        d = prod((L.basis.entry(i, i) for i in range(L.m)), start=Poly.one(F))
        moduli = [
            Poly.from_roots(F, [x for x in S for _ in range(d.valuation_at(x))]) for S in (S1, S2)
        ]
        for g, factor in zip(moduli, factorize(L, S1, S2)):
            assert factor.basis == stacked_modulus(L.basis, g), (L, g)
        return moduli

    @pytest.mark.parametrize("F", FIELDS, ids=repr)
    def test_named_moduli(self, F):
        # z(z - 1)^2 and z^2(z - 1) on the diagonal, entries above it of
        # degree 2; g = 1, g = d, and the parts z^3 and (z - 1)^3 of d
        M = mat(F, [[(0, 1, -2, 1), (1, 1, 1)], [(0,), (0, 0, -1, 1)]])
        L = Lattice(F, M)
        assert L.basis == M
        a, b = F.zero, F.one
        g1, g2 = self.check(L, {a}, {b})
        assert (g1, g2) == (P(F, 0, 0, 0, 1), P(F, -1, 3, -3, 1))
        assert self.check(L, set(), {a, b}) == [P(F, 1), det(M)]
        assert factorize(L, set(), {a, b}) == (standard_lattice(2, F), L)
        assert self.check(L, {a, b}, set()) == [det(M), P(F, 1)]

    @pytest.mark.parametrize("F", FIELDS, ids=repr)
    def test_matches_stacked_multiples(self, F):
        # lattices 4 to 7 random steps below k[z]^m at three points (two
        # over F_2), every split of those points, g = 1 and g = d included
        if F.is_finite:
            points = sorted({F.from_int(x) for x in (0, 1, 2)})
        else:
            points = [F.zero, F.one, Fraction(-1, 2)]
        rng = random.Random(71)
        deepest = 0
        for m in (2, 3, 4):
            for _ in range(4):
                L = standard_lattice(m, F)
                for _ in range(rng.randint(4, 7)):
                    L = _random_step(rng, L, rng.choice(points), rng.randint(1, m - 1))
                deepest = max(deepest, *(L.basis.entry(i, i).degree for i in range(m)))
                for mask in range(2 ** len(points)):
                    S1 = {x for i, x in enumerate(points) if mask >> i & 1}
                    self.check(L, S1, set(points) - S1)
        assert deepest >= 4


def full_loop(M):
    """hermite_basis of [M | M], which is never square: the reference for
    hermite_basis(M), or None when M has rank below m."""
    try:
        return hermite_basis(M.hstack(M))
    except ValueError:
        return None


class TestHermiteFixedPoint:
    """A square matrix already in Hermite form is its own Hermite basis;
    each near miss of that form goes through the full loop."""

    @pytest.mark.parametrize("F", FIELDS, ids=repr)
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_fixed_point_and_near_misses(self, F, data):
        M = data.draw(square_matrices(F))
        assume(not det(M).is_zero)
        H = hermite_basis(M)
        m = H.rows
        assert hermite_basis(H) is H
        assert full_loop(H) == H

        def changed(j, col):
            return PolyMatrix.from_cols(F, H.columns()[:j] + [col] + H.columns()[j + 1 :])

        misses = []
        if F.p != 2:
            # the same module with a non-monic pivot
            i = data.draw(st.integers(0, m - 1))
            misses.append(changed(i, [e.scale(F.from_int(2)) for e in H.col(i)]))
        if m > 1:
            i, j = sorted(data.draw(st.permutations(range(m)))[:2])
            below = H.col(i)
            below[j] = data.draw(small_polys(F).filter(lambda p: not p.is_zero))
            misses.append(changed(i, below))
            right = H.col(j)
            right[i] = right[i] + H.entry(i, i)
            misses.append(changed(j, right))
            cols = H.columns()
            cols[i], cols[j] = cols[j], cols[i]
            misses.append(PolyMatrix.from_cols(F, cols))
        for X in misses:
            assert X != H
            expect = full_loop(X)
            if expect is None:
                with pytest.raises(ValueError):
                    hermite_basis(X)
            else:
                assert hermite_basis(X) == expect
        if F.p != 2:
            assert hermite_basis(misses[0]) == H
        if m > 1:
            assert hermite_basis(misses[-1]) == H


class TestValuationAndRoots:
    """Synthetic division against repeated Poly divmod, and the root search
    that removes every copy of a root against one copy per search."""

    @pytest.mark.parametrize("F", FIELDS, ids=repr)
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_valuation_matches_division(self, F, data):
        if F.is_finite:
            x, y = data.draw(elements(F)), data.draw(elements(F))
        else:
            point = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))
            x, y = data.draw(point), data.draw(point)
        f = data.draw(small_polys(F, 5).filter(lambda p: not p.is_zero))
        p = Poly.from_roots(F, [x] * data.draw(st.integers(0, 4))) * f
        for at in (x, y):
            assert p.valuation_at(at) == oracles.valuation_by_division(p, at)

    @pytest.mark.parametrize("F", FIELDS, ids=repr)
    def test_valuation_of_zero_raises(self, F):
        with pytest.raises(ValueError, match="zero polynomial"):
            Poly.zero(F).valuation_at(F.one)

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_linear_roots_match_one_at_a_time(self, data):
        F = QQ
        p = Poly.const(F, data.draw(elements(F).filter(lambda a: a != 0)))
        linear = st.tuples(st.integers(-6, 6), st.sampled_from((1, 2, 3)), st.integers(1, 3))
        for a, b, e in data.draw(st.lists(linear, max_size=3)):
            p = p * Poly.from_roots(F, [Fraction(a, b)] * e)
        rootless = st.sampled_from(((-2, 0, 1), (1, 0, 1), (-3, 0, 2)))  # z^2-2, z^2+1, 2z^2-3
        for coeffs in data.draw(st.lists(rootless, max_size=2)):
            p = p * P(F, *coeffs)
        roots, residual = linear_roots(p)
        want_roots, want_residual = oracles.linear_roots_one_at_a_time(p)
        assert list(roots.items()) == list(want_roots.items())
        assert residual == want_residual


class TestColumnReduce:
    def test_singular_rejected(self):
        # [[z, z^2], [1, z]]: one reduction step turns the second column to zero
        F = GF(3)
        M = mat(F, [[(0, 1), (0, 0, 1)], [(1,), (0, 1)]])
        with time_limit(10), pytest.raises(ValueError, match="singular"):
            column_reduce(M)

    def test_diagonal_fixed(self):
        F = QQ
        M = PolyMatrix.diagonal(F, [P(F, 0, 1), P(F, 0, 0, 1)])
        R, degs = column_reduce(M)
        assert degs == [1, 2]

    def test_unimodular_degs_zero(self):
        F = GF(2)
        M = mat(F, [[(1,), (0, 1)], [(0,), (1,)]])
        R, degs = column_reduce(M)
        assert degs == [0, 0]

    def test_jordan_block(self):
        F = GF(3)
        M = mat(F, [[(0, 1), (1,)], [(0,), (0, 1)]])
        R, degs = column_reduce(M)
        assert sorted(degs) == [1, 1]

    def test_degree_sum_is_det_degree(self):
        rng = random.Random(17)
        for F in (GF(2), QQ):
            for _ in range(25):
                n = rng.randint(1, 3)
                M = mat(
                    F,
                    [
                        [
                            [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]
                            for _ in range(n)
                        ]
                        for _ in range(n)
                    ],
                )
                if det(M).is_zero:
                    with time_limit(10), pytest.raises(ValueError, match="singular"):
                        column_reduce(M)
                    continue
                R, degs = column_reduce(M)
                assert sum(degs) == det(M).degree


class TestUnimodular:
    def test_cases(self):
        F = QQ
        assert is_unimodular(PolyMatrix.identity(F, 2))
        assert not is_unimodular(PolyMatrix.diagonal(F, [P(F, 0, 1), Poly.one(F)]))
        assert is_unimodular(mat(F, [[(1,), (0, 1)], [(0,), (1,)]]))
