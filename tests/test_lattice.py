"""Lattices in k[z]^m: containment, colengths, types, divisors, quotients,
intersection/sum and two-point factorization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latslice import linalg
from latslice.countlab import _random_step
from latslice.fields import GF, QQ
from latslice.lattice import (
    ColouredDivisor,
    _divide,
    _monomial_images,
    _preimage,
    HeckeType,
    Lattice,
    LatticeChain,
    colength,
    contains,
    divisor_of_pair,
    factorize,
    hecke_type_at,
    intersect,
    lattice_sum,
    quotient_basis_trivial,
    slice_column,
    splitting_type,
    standard_lattice,
    transition_matrix,
    validate_chain,
)
from latslice.poly import Poly
from latslice.polymatrix import PolyMatrix, det
from latslice.serialize import lattice_to_json, parse_lattice
from latslice.slicecorr import SliceMatrix

import oracles


def P(field, *coeffs):
    return Poly(field, [field.from_int(c) for c in coeffs])


def lat(field, cols):
    polys = [[P(field, *e) for e in col] for col in cols]
    return Lattice(field, PolyMatrix.from_cols(field, polys))


def scale(L, p):
    return Lattice(L.field, L.basis.scale_poly(p))


class TestBasics:
    def test_standard(self):
        for m, F in ((2, GF(3)), (1, QQ), (3, GF(2))):
            L = standard_lattice(m, F)
            assert L.basis == PolyMatrix.identity(F, m)

    def test_canonical_on_construction(self):
        F = GF(3)
        # two generating sets of the same module
        A = lat(F, [[(0, 1), (0,)], [(1,), (0, 1)]])
        B = lat(F, [[(0, 1), (0,)], [(1, 1), (0, 1)]])  # col2 + col1
        assert A == B

    def test_contains(self):
        F = QQ
        L = lat(F, [[(0, 1), (0,)], [(0,), (1,)]])
        assert contains(L, L)
        assert contains(L, scale(L, P(F, 0, 1)))
        outer = lat(F, [[(0, 1), (0,)], [(0,), (1,)]])
        inner = lat(F, [[(1,), (0,)], [(0,), (0, 1)]])
        assert not contains(outer, inner)

    def test_transition_polynomial_iff_contained(self):
        F = QQ
        outer = lat(F, [[(0, 1), (0,)], [(0,), (1,)]])
        inner = lat(F, [[(1,), (0,)], [(0,), (0, 1)]])
        assert transition_matrix(outer, inner) is None
        T = transition_matrix(standard_lattice(2, F), outer)
        assert T == outer.basis

    def test_colength(self):
        F = GF(3)
        std = standard_lattice(2, F)
        assert colength(std, std) == 0
        assert colength(std, scale(std, P(F, 0, 1))) == 2
        assert colength(std, lat(F, [[(0, 1), (0,)], [(1,), (0, 1)]])) == 2


class TestLatticeAsKey:
    """The chain walk keys its frontiers by lattice, and a lattice hashes
    once.  The one lattice built five ways (a redundant generator set, the
    closed-form step builder, a factor, an intersection and a parsed
    payload of a basis that is not in Hermite form) must be equal, hash
    equal and merge into one key; its parent step is another key."""

    @pytest.mark.parametrize("F", [GF(3), QQ], ids=repr)
    def test_one_key(self, F):
        rng = random.Random(67)
        zero, one, z = F.zero, F.one, Poly.x(F)
        for m in (2, 3):
            # a unimodular change of basis that takes a Hermite basis off
            # Hermite form: column c > 0 gains z times column 0
            T = PolyMatrix.from_rows(
                F,
                [[Poly.one(F)] + [z] * (m - 1)]
                + [[Poly.one(F) if r == c else Poly.zero(F) for c in range(m)] for r in range(1, m)],
            )
            for _ in range(4):
                j = rng.randint(1, m - 1)
                vecs = [[F.from_int(rng.randint(-2, 2)) for _ in range(m)] for _ in range(m - j)]
                if linalg.rank(F, vecs) < m - j:
                    continue
                outer = _random_step(rng, standard_lattice(m, F), zero, rng.randint(1, m - 1))
                L = _preimage(outer, one, vecs)
                gens = oracles.preimage_by_all_generators(outer, one, vecs).basis.columns()
                gens.append([a + b.shift(1) for a, b in zip(gens[0], gens[-1])])
                payload = lattice_to_json(L)
                payload["basis"] = [[p.to_list() for p in col] for col in (L.basis * T).columns()]
                variants = [
                    L,
                    Lattice(F, PolyMatrix.from_cols(F, gens)),
                    factorize(L, {zero, one}, ())[0],
                    intersect(*factorize(L, {zero}, {one})),
                    parse_lattice(payload),
                ]
                assert len({id(V) for V in variants}) == len(variants)
                counts = {}
                for V in variants:
                    assert V == L and hash(V) == hash(L)
                    counts[V] = counts.get(V, 0) + 1
                assert list(counts.values()) == [len(variants)]
                assert outer != L and outer not in counts


class TestHeckeType:
    def test_weakly_decreasing_enforced(self):
        with pytest.raises(ValueError):
            HeckeType((0, 1))
        assert HeckeType((1, 0)).entries == (1, 0)

    def test_single_modification(self):
        F = GF(5)
        std = standard_lattice(2, F)
        x = F.from_int(2)
        inner = lat(F, [[(-2, 1), (0,)], [(0,), (1,)]])
        assert hecke_type_at(std, inner, x) == HeckeType((1, 0))
        assert hecke_type_at(std, inner, F.zero) == HeckeType((0, 0))

    def test_diagonal_z_squared(self):
        F = QQ
        std = standard_lattice(2, F)
        inner = lat(F, [[(0, 0, 1), (0,)], [(0,), (1,)]])
        assert hecke_type_at(std, inner, F.zero) == HeckeType((2, 0))


class TestDivisor:
    def test_z_scaling(self):
        F = GF(3)
        std = standard_lattice(2, F)
        L = scale(std, P(F, 0, 1))
        assert divisor_of_pair(std, L) == ColouredDivisor({F.zero: HeckeType((1, 1))})

    def test_two_point_diagonal(self):
        F = QQ
        std = standard_lattice(2, F)
        L = lat(F, [[(0, -1, 1), (0,)], [(0,), (1,)]])  # z(z-1) e1, e2
        assert divisor_of_pair(std, L) == ColouredDivisor(
            {F.zero: HeckeType((1, 0)), F.one: HeckeType((1, 0))}
        )

    def test_jordan_block_concentrated(self):
        # elementary divisors 1, z^2 put everything at 0 with type (2, 0)
        F = GF(3)
        std = standard_lattice(2, F)
        L = lat(F, [[(0, 1), (0,)], [(1,), (0, 1)]])
        assert divisor_of_pair(std, L) == ColouredDivisor({F.zero: HeckeType((2, 0))})

    def test_total_is_colength(self):
        rng = random.Random(23)
        F = GF(3)
        std = standard_lattice(2, F)
        for _ in range(20):
            cols = [
                [[rng.randint(0, 2) for _ in range(rng.randint(1, 3))] for _ in range(2)]
                for _ in range(2)
            ]
            try:
                L = lat(F, cols)
                div = divisor_of_pair(std, L)
            except ValueError:
                continue
            assert div.total == colength(std, L)


class TestQuotient:
    def test_monomial_lattice_trivial(self):
        F = GF(2)
        for m, k in ((2, 1), (2, 2), (3, 1)):
            L = scale(standard_lattice(m, F), Poly.monomial(F, F.one, k))
            assert quotient_basis_trivial(L, k)

    def test_unbalanced_not_trivial(self):
        F = QQ
        L = lat(F, [[(1,), (0,)], [(0,), (0, 0, 1)]])  # e1, z^2 e2
        assert not quotient_basis_trivial(L, 1)

    def test_jordan_block_trivial(self):
        F = GF(3)
        L = lat(F, [[(0, 1), (0,)], [(1,), (0, 1)]])
        assert quotient_basis_trivial(L, 1)

    def test_splitting_type(self):
        F = QQ
        assert splitting_type(standard_lattice(2, F)) == (0, 0)
        # decreasing order: -min(a, b) first
        assert splitting_type(lat(F, [[(0, 0, 1), (0,)], [(0,), (0, 1)]])) == (-1, -2)
        assert splitting_type(lat(F, [[(0, 1), (0,)], [(1,), (0, 1)]])) == (-1, -1)


class TestSumIntersect:
    def test_idempotent(self):
        F = GF(3)
        L = lat(F, [[(0, 1), (0,)], [(1,), (0, 1)]])
        assert intersect(L, L) == L
        assert lattice_sum(L, L) == L

    def test_complementary_diagonals(self):
        F = QQ
        A = lat(F, [[(0, 1), (0,)], [(0,), (1,)]])
        B = lat(F, [[(1,), (0,)], [(0,), (0, 1)]])
        z = P(F, 0, 1)
        assert intersect(A, B) == scale(standard_lattice(2, F), z)
        assert lattice_sum(A, B) == standard_lattice(2, F)

    def test_sum_with_ambient(self):
        F = GF(2)
        std = standard_lattice(2, F)
        L = scale(std, P(F, 0, 1))
        assert lattice_sum(L, std) == std

    def test_colength_exact_sequence(self):
        # colength(A ^ B) + colength(A + B) = colength(A) + colength(B)
        rng = random.Random(31)
        F = GF(3)
        std = standard_lattice(2, F)
        done = 0
        while done < 20:
            cols = [
                [[rng.randint(0, 2) for _ in range(rng.randint(1, 3))] for _ in range(2)]
                for _ in range(2)
            ]
            try:
                A = lat(F, cols)
            except ValueError:
                continue
            cols = [
                [[rng.randint(0, 2) for _ in range(rng.randint(1, 3))] for _ in range(2)]
                for _ in range(2)
            ]
            try:
                B = lat(F, cols)
            except ValueError:
                continue
            both = colength(std, intersect(A, B)) + colength(std, lattice_sum(A, B))
            assert both == colength(std, A) + colength(std, B)
            assert contains(lattice_sum(A, B), A) and contains(A, intersect(A, B))
            done += 1


class TestFactorize:
    def test_rank_one_ideal(self):
        F = QQ
        L = lat(F, [[(0, -1, 1)]])  # (z(z-1)) in k[z]
        L1, L2 = factorize(L, {F.zero}, {F.one})
        assert L1 == lat(F, [[(0, 1)]])
        assert L2 == lat(F, [[(-1, 1)]])

    def test_one_sided_support(self):
        F = GF(3)
        std = standard_lattice(2, F)
        L = scale(std, P(F, 0, 1))
        L1, L2 = factorize(L, {F.zero}, set())
        assert L1 == L and L2 == std

    def test_split_diagonal(self):
        F = QQ
        L = lat(F, [[(0, 1), (0,)], [(0,), (-1, 1)]])  # z e1, (z-1) e2
        L1, L2 = factorize(L, {F.zero}, {F.one})
        assert L1 == lat(F, [[(0, 1), (0,)], [(0,), (1,)]])
        assert L2 == lat(F, [[(1,), (0,)], [(0,), (-1, 1)]])

    def test_postconditions(self):
        F = GF(3)
        std = standard_lattice(2, F)
        L = lat(F, [[(0, 1), (0,)], [(1,), (-1, 1)]])
        div = divisor_of_pair(std, L)
        S1, S2 = {F.zero}, {F.one}
        L1, L2 = factorize(L, S1, S2)
        assert intersect(L1, L2) == L
        assert divisor_of_pair(std, L1) == div.restrict(S1)
        assert divisor_of_pair(std, L2) == div.restrict(S2)

    @pytest.mark.parametrize("F", [GF(3), QQ], ids=["F3", "Q"])
    def test_support_outside_the_point_sets(self, F):
        L = lat(F, [[(0, 1), (0,)], [(0,), (-2, 1)]])  # z e1, (z-2) e2
        with pytest.raises(ValueError, match="divisor support not covered by the point sets"):
            factorize(L, {F.zero}, {F.one})

    @pytest.mark.parametrize(
        "F, coeffs", [(QQ, (-2, 0, 1)), (GF(3), (1, 0, 1))], ids=["Q", "F3"]
    )
    def test_rootless_determinant(self, F, coeffs):
        L = lat(F, [[coeffs, (0,)], [(0,), (1,)]])  # z^2-2 over Q, z^2+1 over F_3
        with pytest.raises(ValueError, match="divisor support not covered by the point sets"):
            factorize(L, {F.zero}, {F.one})

    @pytest.mark.parametrize("F, m, colength", [(GF(3), 2, 4), (QQ, 3, 9)], ids=["F3", "Q"])
    def test_seeded_lattices_without_root_search(self, monkeypatch, F, m, colength):
        """Lattices of the benchmark's lattice-ops shapes, supported at
        {0, 1}; factorize runs with no determinant, Smith form (invariant
        factors) or root search."""

        def forbidden(*args, **kwargs):
            raise AssertionError("factorize needs no det, Smith form or root search")

        rng = random.Random(37)
        std = standard_lattice(m, F)
        a, b = F.zero, F.one
        for i in range(colength + 1):
            L = std
            for x, c in ((a, i), (b, colength - i)):
                while c:
                    j = min(m - 1, c)
                    L = _random_step(rng, L, x, j)
                    c -= j
            with monkeypatch.context() as mp:
                for name in ("det", "invariant_factors", "linear_roots"):
                    mp.setattr(f"latslice.lattice.{name}", forbidden)
                L1, L2 = factorize(L, {a}, {b})
            div = divisor_of_pair(std, L)
            assert div.total == colength
            assert intersect(L1, L2) == L
            assert divisor_of_pair(std, L1) == div.restrict({a})
            assert divisor_of_pair(std, L2) == div.restrict({b})

    @pytest.mark.parametrize("F, m, colength", [(GF(3), 2, 4), (QQ, 3, 9)], ids=["F3", "Q"])
    def test_agrees_with_full_powers(self, F, m, colength):
        """Generators of degree at most c from the valuations of d give the
        factors that f_i^c gives, on the lattice-ops shapes and every split
        of the colength between 0 and 1; a point set off the support gets
        the standard lattice, and an uncovered support is refused by both."""
        rng = random.Random(41)
        std = standard_lattice(m, F)
        a, b, off = F.zero, F.one, F.from_int(2)
        for i in range(colength + 1):
            L = std
            for x, c in ((a, i), (b, colength - i)):
                while c:
                    j = min(m - 1, c)
                    L = _random_step(rng, L, x, j)
                    c -= j
            for S1, S2 in (({a}, {b}), ({b}, {a}), ({a, b}, set()), ({a, b}, {off})):
                got = factorize(L, S1, S2)
                assert got == oracles.factorize_by_powers(L, S1, S2)
                if off in S2:
                    assert got == (L, std)
            uncovered = ({a}, {off}) if colength - i else ({b}, {off})
            for split in (factorize, oracles.factorize_by_powers):
                with pytest.raises(ValueError, match="divisor support not covered"):
                    split(L, *uncovered)


class TestChains:
    def chain(self, F):
        L1 = lat(F, [[(0, 1), (0,)], [(0,), (1,)]])
        L2 = lat(F, [[(0, 1), (0,)], [(0,), (-1, 1)]])
        return LatticeChain(2, F, (F.zero, F.one), (1, 1), (L1, L2))

    def test_valid_chain(self):
        assert validate_chain(self.chain(GF(3))) == []
        assert validate_chain(self.chain(QQ)) == []

    def test_repeated_lattice_invalid(self):
        F = QQ
        L1 = lat(F, [[(0, 1), (0,)], [(0,), (1,)]])
        bad = LatticeChain(2, F, (F.zero, F.one), (1, 1), (L1, L1))
        assert any("colength" in msg for msg in validate_chain(bad))
        assert validate_chain(bad) == oracles.divisor_step_failures(bad) == [
            "step 2: colength 0 != type 1"
        ]

    def test_wrong_point_invalid(self):
        F = QQ
        L1 = lat(F, [[(0, 1), (0,)], [(0,), (1,)]])
        L2 = lat(F, [[(0, 1), (0,)], [(0,), (-1, 1)]])
        bad = LatticeChain(2, F, (F.zero, F.zero), (1, 1), (L1, L2))
        assert validate_chain(bad) == oracles.divisor_step_failures(bad) == [
            "step 2: modification is not omega_1 concentrated at the marked point"
        ]


def random_lattice(rng, F, m):
    """A seeded full-rank lattice with generators of degree <= 2."""
    while True:
        cols = [
            [Poly(F, [coefficient(rng, F) for _ in range(rng.randint(1, 3))]) for _ in range(m)]
            for _ in range(m)
        ]
        M = PolyMatrix.from_cols(F, cols)
        if not det(M).is_zero:
            return Lattice(F, M)


def coefficient(rng, F):
    if F.is_finite:
        return F.from_int(rng.randrange(F.p))
    return Fraction(rng.randint(-3, 3), rng.randint(1, 2))


class TestTransitionAgainstCramer:
    """Back-substitution against the Hermite basis gives the Cramer-rule
    transition, including None exactly when inner is not contained."""

    @pytest.mark.parametrize("F", [GF(3), QQ], ids=["GF3", "QQ"])
    def test_seeded_pairs(self, F):
        rng = random.Random(23)
        outcomes = []
        for _ in range(12):
            m = rng.randint(2, 3)
            A, B = random_lattice(rng, F, m), random_lattice(rng, F, m)
            R = random_lattice(rng, F, m).basis
            pairs = [
                (A, B),
                (A, A),
                (A, Lattice(F, A.basis * R)),
                (A, intersect(A, B)),
                (intersect(A, B), A),
            ]
            for outer, inner in pairs:
                T = transition_matrix(outer, inner)
                assert T == oracles.cramer_transition(outer, inner)
                outcomes.append(T is None)
        assert any(outcomes) and not all(outcomes)


def random_chain(rng, F, m, n, points):
    types = [rng.randint(1, m - 1) for _ in range(n)]
    xs = [points[rng.randrange(len(points))] for _ in range(n)]
    L, lattices = standard_lattice(m, F), []
    for x, j in zip(xs, types):
        L = _random_step(rng, L, x, j)
        lattices.append(L)
    return LatticeChain(m, F, xs, types, lattices)


class TestValidateChainAgainstDivisors:
    """The sandwich step check against the Smith-divisor check it replaced."""

    @pytest.mark.parametrize("F", [GF(3), QQ], ids=["GF3", "QQ"])
    def test_seeded_chains(self, F):
        rng = random.Random(29)
        points = [F.from_int(c) for c in (0, 1, 2)]
        rejected = 0
        for _ in range(10):
            m = rng.randint(2, 3)
            chain = random_chain(rng, F, m, 3, points)
            assert validate_chain(chain) == oracles.divisor_step_failures(chain) == []
            # the same lattices under other points and types
            moved = LatticeChain(
                m,
                F,
                [points[rng.randrange(3)] for _ in chain.points],
                [rng.randint(1, m - 1) for _ in chain.types],
                chain.lattices,
            )
            failures = validate_chain(moved)
            assert failures == oracles.divisor_step_failures(moved)
            rejected += bool(failures)
            reordered = LatticeChain(m, F, chain.points, chain.types, chain.lattices[::-1])
            assert validate_chain(reordered) == oracles.divisor_step_failures(reordered)
        assert rejected > 0

    @pytest.mark.parametrize("F", [GF(3), QQ], ids=["GF3", "QQ"])
    def test_colength_two_steps_of_other_types(self, F):
        zero, one = F.zero, F.one
        # span(z^2 e1, e2, e3) has type (2,0,0) at 0, not omega_2
        squared = lat(F, [[(0, 0, 1), (0,), (0,)], [(0,), (1,), (0,)], [(0,), (0,), (1,)]])
        # span(z e1, (z-1) e2, e3) splits the colength between 0 and 1
        split = lat(F, [[(0, 1), (0,), (0,)], [(0,), (-1, 1), (0,)], [(0,), (0,), (1,)]])
        # span((z^2 - 2) e1, e2, e3): z^2 - 2 has no root in Q, nor in GF(3)
        # where it is z^2 + 1
        rootless = lat(F, [[(-2, 0, 1), (0,), (0,)], [(0,), (1,), (0,)], [(0,), (0,), (1,)]])
        cases = ((squared, zero), (split, zero), (split, one), (rootless, zero), (rootless, one))
        for L, x in cases:
            chain = LatticeChain(3, F, (x,), (2,), (L,))
            assert validate_chain(chain) == oracles.divisor_step_failures(chain) == [
                "step 1: modification is not omega_2 concentrated at the marked point"
            ]


class TestTrivialityAgainstSmith:
    """Reduction modulo the Hermite basis against the Smith presentation it
    replaced, on seeded chain endpoints of colength m*k."""

    @pytest.mark.parametrize("F", [GF(2), GF(3), QQ], ids=["GF2", "GF3", "QQ"])
    def test_seeded_endpoints(self, F):
        rng = random.Random(31)
        points = [F.from_int(c) for c in (0, 1)]
        verdicts = []
        for m, k in ((2, 1), (2, 2), (3, 1), (3, 2), (2, 3)):
            for _ in range(12):
                L, left = standard_lattice(m, F), m * k
                while left:
                    j = rng.randint(1, min(m - 1, left))
                    L = _random_step(rng, L, points[rng.randrange(2)], j)
                    left -= j
                trivial = quotient_basis_trivial(L, k)
                assert trivial == oracles.smith_quotient_trivial(L, k)
                q = slice_column(L, k)
                if trivial:
                    # z^k e_j - q_j(z) is a basis of L
                    cols = []
                    for j, qj in enumerate(q):
                        col = [
                            -Poly(F, [qj[t * m + i] for t in range(k)]) for i in range(m)
                        ]
                        col[j] = col[j] + Poly.monomial(F, F.one, k)
                        cols.append(col)
                    assert Lattice(F, PolyMatrix.from_cols(F, cols)) == L
                else:
                    assert q is None
                verdicts.append(trivial)
        assert any(verdicts) and not all(verdicts)

    def test_argument_errors(self):
        F = GF(3)
        L = scale(standard_lattice(2, F), Poly.monomial(F, F.one, 2))
        with pytest.raises(ValueError, match="k must be positive"):
            quotient_basis_trivial(L, 0)
        with pytest.raises(ValueError, match="colength 4 != m\\*k = 2"):
            quotient_basis_trivial(L, 1)


class TestMonomialImagesAgainstDivision:
    """The staircase coordinates of z^t e_j that slice_column and
    chain_to_slice share, against the remainder of z^t e_j on division by
    the Hermite basis, on seeded chain lattices of every colength."""

    @pytest.mark.parametrize("F", [GF(5), QQ], ids=["GF5", "QQ"])
    def test_seeded_chain_lattices(self, F):
        rng = random.Random(37)
        points = [F.from_int(c) for c in (0, 1, 2)]
        k = 3
        for _ in range(6):
            m = rng.randint(2, 4)
            chain = random_chain(rng, F, m, 4, points)
            for L in (standard_lattice(m, F),) + tuple(chain.lattices):
                H = L.basis
                degs = [int(H.entry(i, i).degree) for i in range(m)]
                A = _monomial_images(L, k)
                assert len(A) == sum(degs)
                for j in range(m):
                    for t in range(k + 1):
                        v = [Poly.monomial(F, F.one, t) if i == j else Poly.zero(F) for i in range(m)]
                        _, r = _divide(H.to_rowlists(), v)
                        expect = [r[i].coeff(s) for i in range(m) for s in range(degs[i])]
                        assert [row[t * m + j] for row in A] == expect


# Hermite diagonal degrees of the seed-7 roundtrip pool, degree-0 entries
# included, drawn beside arbitrary compositions of m*k
POOL_DIAGONALS = ((2, 1, 0), (3, 0, 0), (4, 0), (2, 0, 1))


@st.composite
def hermite_lattices(draw):
    """(L, k): a lattice of colength m*k over GF(3), GF(5) or Q, given by a
    random matrix in Hermite form, so its diagonal degrees are as drawn."""
    F = draw(st.sampled_from((GF(3), GF(5), QQ)))
    degs = draw(st.sampled_from(POOL_DIAGONALS))
    m, k = len(degs), sum(degs) // len(degs)
    if draw(st.booleans()):
        m = draw(st.integers(1, 3))
        k = draw(st.integers(1, 3))
        cuts = sorted(draw(st.lists(st.integers(0, m * k), min_size=m - 1, max_size=m - 1)))
        degs = [b - a for a, b in zip([0] + cuts, cuts + [m * k])]
    if F.is_finite:
        element = st.integers(0, F.p - 1)
    else:
        element = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    cols = []
    for i in range(m):
        # row r < i of column i has degree below d_r; the diagonal is monic
        rows = [draw(st.lists(element, min_size=d, max_size=d)) for d in degs[: i + 1]]
        rows[i].append(F.one)
        cols.append([Poly(F, c) for c in rows] + [Poly.zero(F)] * (m - i - 1))
    return Lattice(F, PolyMatrix.from_cols(F, cols)), k


class TestSliceColumnProperties:
    """Normal-form postconditions of slice_column: a column exactly for the
    splitting type (-k, ..., -k), and one whose monic basis generates L."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(case=hermite_lattices())
    def test_column_iff_constant_splitting(self, case):
        L, k = case
        F, m = L.field, L.m
        q = slice_column(L, k)
        assert (q is None) == (splitting_type(L) != (-k,) * m)
        if q is not None:
            monic = oracles._monic_basis(SliceMatrix(m, k, F, q))
            assert Lattice(F, PolyMatrix.from_cols(F, monic)) == L

    def test_pool_diagonal_takes_both_branches(self):
        # diag(z^2, z, 1): e_3 is -(b e_1 + d e_2) in the quotient, so the
        # classes of e_1, e_2, e_3 are a basis iff b has a z term
        F = GF(3)
        for b, trivial in (((0, 1), True), ((1,), False)):
            L = lat(F, [[(0, 0, 1), (0,), (0,)], [(0,), (0, 1), (0,)], [b, (1,), (1,)]])
            assert (slice_column(L, 1) is not None) == trivial
            assert (splitting_type(L) == (-1, -1, -1)) == trivial
