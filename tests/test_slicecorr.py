"""Slice matrices, compatible flags, and the chain <-> matrix bijections."""

import random

import pytest

import oracles
from latslice import linalg
from latslice.fields import GF, QQ
from latslice.lattice import Lattice, LatticeChain, standard_lattice
from latslice.poly import Poly
from latslice.polymatrix import PolyMatrix, det
from latslice.slicecorr import (
    Flag,
    SliceMatrix,
    SlicePoint,
    _monic_basis,
    base_point,
    chain_to_slice,
    slice_to_chain,
    validate_point,
    validate_slice,
)
from latslice.countlab import FiberQuery, count_chain_fiber, _random_trivial_chain


def P(field, *coeffs):
    return Poly(field, [field.from_int(c) for c in coeffs])


def lat(field, cols):
    return Lattice(
        field, PolyMatrix.from_cols(field, [[P(field, *e) for e in col] for col in cols])
    )


def random_slice(rng, F, m, k):
    """A slice matrix with a seeded random last block column."""
    block = [[F.from_int(rng.randint(-2, 2)) for _ in range(m * k)] for _ in range(m)]
    return SliceMatrix.from_block_column(m, k, F, block)


def worked_chain(F):
    """m=2, k=1, points (0,1): L1 = span{z e1, e2}, L2 = span{z e1, (z-1) e2}."""
    L1 = lat(F, [[(0, 1), (0,)], [(0,), (1,)]])
    L2 = lat(F, [[(0, 1), (0,)], [(0,), (-1, 1)]])
    return LatticeChain(2, F, (F.zero, F.one), (1, 1), (L1, L2))


class TestBasePoint:
    def test_2x2_blocks(self):
        F = GF(3)
        E = base_point(2, 2, F)
        expect = [
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ]
        assert [list(r) for r in E.entries] == expect

    def test_k_one_is_zero(self):
        F = QQ
        E = base_point(3, 1, F)
        assert all(e == F.zero for row in E.entries for e in row)

    def test_rank_one_jordan(self):
        F = GF(2)
        E = base_point(1, 3, F)
        assert [list(r) for r in E.entries] == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]


class TestValidateSlice:
    def test_base_point_ok(self):
        assert validate_slice(base_point(2, 2, GF(3)))

    def test_k_one_always_ok(self):
        F = GF(3)
        for a in range(3):
            Y = SliceMatrix(2, 1, F, [[a, 1], [2, 0]])
            assert validate_slice(Y)

    def test_bad_block(self):
        # every entry outside the last block column is fixed by the pattern
        F = GF(3)
        Y = random_slice(random.Random(5), F, 2, 2)
        for i in range(4):
            for j in range(2):
                rows = Y.rows()
                rows[i][j] = F.add(rows[i][j], F.one)
                assert not validate_slice(SliceMatrix(2, 2, F, rows))


class TestSliceMatrix:
    @pytest.mark.parametrize("F", [GF(5), QQ], ids=["GF5", "QQ"])
    def test_times_z_is_the_dense_product(self, F):
        rng = random.Random(47)
        for k in (1, 2, 3):
            for _ in range(6):
                m = rng.randint(1, 3)
                Y = random_slice(rng, F, m, k)
                w = [F.from_int(rng.randint(-2, 2)) for _ in range(m * k)]
                assert Y.times_z(w) == oracles.mat_vec(F, Y.rows(), w)

    def test_block_column_gives_back_the_matrix(self):
        rng = random.Random(53)
        for F in (GF(5), QQ):
            for m, k in ((1, 1), (2, 1), (2, 3), (3, 2)):
                Y = random_slice(rng, F, m, k)
                assert SliceMatrix.from_block_column(m, k, F, Y.block_column) == Y


class TestCharPoly:
    @pytest.mark.parametrize("F", [GF(5), QQ], ids=["GF5", "QQ"])
    def test_block_companion_identity(self, F):
        """det(z^k I - A(z)) over the monic basis equals det(zI - Y)."""
        rng = random.Random(43)
        for k in (1, 2, 3):
            for _ in range(6):
                Y = random_slice(rng, F, rng.randint(1, 3), k)
                monic = det(PolyMatrix.from_cols(F, _monic_basis(Y)))
                assert monic == linalg.char_poly(F, Y.rows())


class TestValidatePoint:
    def point(self, F, line):
        Y = SliceMatrix(2, 1, F, [[F.zero, F.zero], [F.zero, F.one]])
        flag = Flag(F, 2, [line, [[F.one, F.zero], [F.zero, F.one]]])
        return SlicePoint(Y, flag, (F.zero, F.one))

    def test_worked_example_valid(self):
        F = GF(3)
        assert validate_point(self.point(F, [[F.zero, F.one]])) == []

    def test_unstable_line_invalid(self):
        F = GF(3)
        assert validate_point(self.point(F, [[F.one, F.one]])) == [
            "flag step 1: subspace is not Y-stable",
            "flag step 1: Y does not act by the recorded scalar on the quotient",
            "flag step 2: Y does not act by the recorded scalar on the quotient",
        ]

    def test_malformed_matrix_skips_char_poly(self):
        # only the pattern and the shape of the flag are checked: Y does not
        # act by 1 on the full space, and that is not reported
        F = GF(2)
        rows = base_point(2, 2, F).rows()
        rows[0][0] = F.one  # block (1,1) must be zero when k = 2
        Y = SliceMatrix(2, 2, F, rows)
        full = [[F.one if i == j else F.zero for j in range(4)] for i in range(4)]
        pattern = "matrix does not have the slice block pattern"
        assert validate_point(SlicePoint(Y, Flag(F, 4, [full]), (F.one,))) == [pattern]
        assert validate_point(SlicePoint(Y, Flag(F, 4, [full[:3]]), (F.one,))) == [
            pattern,
            "flag does not end at the full space",
        ]
        assert validate_point(SlicePoint(Y, Flag(F, 4, [full]), (F.one, F.one))) == [
            pattern,
            "flag has 1 steps but 2 eigenvalues",
        ]

    def test_char_poly_mismatch_reported(self):
        # a partial flag: one stable line on which Y acts by 1, so only the
        # full-space and characteristic polynomial checks fail
        F = GF(3)
        Y = SliceMatrix(2, 1, F, [[F.zero, F.zero], [F.zero, F.one]])
        p = SlicePoint(Y, Flag(F, 2, [[[F.zero, F.one]]]), (F.one,))
        assert validate_point(p) == [
            "flag does not end at the full space",
            "characteristic polynomial does not match the eigenvalue list",
        ]

    def test_nilpotent_base_valid(self):
        F = GF(2)
        Y = base_point(2, 2, F)
        # refine the monomial filtration: e-hat_3, e-hat_4 span the image of z
        def e(*idx):
            return [[F.one if i == j else F.zero for j in range(4)] for i in idx]

        flag = Flag(F, 4, [e(2), e(2, 3), e(1, 2, 3), e(0, 1, 2, 3)])
        assert validate_point(SlicePoint(Y, flag, (F.zero,) * 4)) == []


class TestChainToSlice:
    def test_worked_example(self):
        for F in (GF(3), QQ):
            p = chain_to_slice(worked_chain(F))
            assert [list(r) for r in p.Y.entries] == [[F.zero, F.zero], [F.zero, F.one]]
            assert p.flag.subspaces[0] == ((F.zero, F.one),)
            assert p.eigenvalues == (F.zero, F.one)

    def test_central_chain_gives_base_point(self):
        F = GF(2)
        query = FiberQuery(2, 2, (1, 1, 1, 1), (F.zero,) * 4, F, "exact-zk")
        report = count_chain_fiber(query, witnesses=True)
        assert report.count > 0
        for chain in report.witnesses:
            assert chain_to_slice(chain).Y == base_point(2, 2, F)

    def test_invalid_chain_rejected(self):
        F = QQ
        L1 = lat(F, [[(0, 1), (0,)], [(0,), (1,)]])
        bad = LatticeChain(2, F, (F.zero, F.one), (1, 1), (L1, L1))
        with pytest.raises(ValueError):
            chain_to_slice(bad)


class TestSliceToChain:
    def test_worked_example_inverse(self):
        F = GF(3)
        Y = SliceMatrix(2, 1, F, [[F.zero, F.zero], [F.zero, F.one]])
        flag = Flag(F, 2, [[[F.zero, F.one]], [[F.one, F.zero], [F.zero, F.one]]])
        chain = slice_to_chain(SlicePoint(Y, flag, (F.zero, F.one)))
        assert chain == worked_chain(F)

    def test_base_point_gives_zk_standard(self):
        F = GF(3)
        Y = base_point(2, 2, F)

        def e(*idx):
            return [[F.one if i == j else F.zero for j in range(4)] for i in idx]

        flag = Flag(F, 4, [e(2), e(2, 3), e(1, 2, 3), e(0, 1, 2, 3)])
        chain = slice_to_chain(SlicePoint(Y, flag, (F.zero,) * 4))
        z2 = Poly.monomial(F, F.one, 2)
        expect = Lattice(F, PolyMatrix.identity(F, 2).scale_poly(z2))
        assert chain.end == expect

    def test_invalid_point_rejected(self):
        F = GF(3)
        Y = SliceMatrix(2, 1, F, [[F.zero, F.zero], [F.zero, F.one]])
        flag = Flag(F, 2, [[[F.one, F.one]], [[F.one, F.zero], [F.zero, F.one]]])
        with pytest.raises(ValueError):
            slice_to_chain(SlicePoint(Y, flag, (F.zero, F.one)))


class TestRoundtrip:
    def test_random_chains(self):
        rng = random.Random(41)
        for field in (GF(5), QQ):
            for m, k, types in ((2, 1, (1, 1)), (2, 2, (1, 1, 1, 1)), (3, 1, (1, 2))):
                produced = 0
                while produced < 10:
                    chain = _random_trivial_chain(rng, m, k, types, field)
                    if chain is None:
                        continue
                    produced += 1
                    p = chain_to_slice(chain)
                    assert validate_point(p) == []
                    assert slice_to_chain(p) == chain
                    assert chain_to_slice(slice_to_chain(p)) == p
