"""Slice matrices, compatible flags, and the chain <-> matrix bijections."""

import itertools
import random

import pytest

import oracles
from latslice import linalg
from latslice.fields import GF, QQ
from latslice.lattice import Lattice, LatticeChain, quotient_basis_trivial, standard_lattice
from latslice.poly import Poly
from latslice.polymatrix import PolyMatrix, det
from latslice.slicecorr import (
    Flag,
    SliceMatrix,
    SlicePoint,
    base_point,
    chain_to_slice,
    slice_to_chain,
    validate_point,
)
from latslice.countlab import FiberQuery, count_chain_fiber, _random_step, _random_trivial_chain


def P(field, *coeffs):
    return Poly(field, [field.from_int(c) for c in coeffs])


def lat(field, cols):
    return Lattice(
        field, PolyMatrix.from_cols(field, [[P(field, *e) for e in col] for col in cols])
    )


def random_slice(rng, F, m, k):
    """A slice matrix with a seeded random last block column."""
    block = [[F.from_int(rng.randint(-2, 2)) for _ in range(m * k)] for _ in range(m)]
    return SliceMatrix(m, k, F, block)


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


class TestSliceMatrix:
    @pytest.mark.parametrize("F", [GF(5), QQ], ids=["GF5", "QQ"])
    def test_times_z_is_the_dense_product(self, F):
        rng = random.Random(47)
        for k in (1, 2, 3):
            for _ in range(6):
                m = rng.randint(1, 3)
                Y = random_slice(rng, F, m, k)
                w = [F.from_int(rng.randint(-2, 2)) for _ in range(m * k)]
                assert Y.times_z(w) == oracles.mat_vec(F, Y.entries, w)

    def test_block_of_another_shape_rejected(self):
        # a dense N x N matrix is no block column once k > 1
        F = GF(3)
        rows = [[F.zero] * 4 for _ in range(4)]
        with pytest.raises(ValueError, match="m columns of length N"):
            SliceMatrix(2, 2, F, rows)
        with pytest.raises(ValueError, match="m columns of length N"):
            SliceMatrix(2, 2, F, [[F.zero] * 4, [F.zero] * 3])

    def test_entries_have_the_slice_pattern(self):
        rng = random.Random(53)
        for F in (GF(5), QQ):
            for m, k in ((1, 1), (2, 1), (2, 3), (3, 2)):
                Y = random_slice(rng, F, m, k)
                N = m * k
                for r, row in enumerate(Y.entries):
                    assert len(row) == N
                    for c, e in enumerate(row):
                        if c >= N - m:
                            assert e == Y.block_column[c - (N - m)][r]
                        else:
                            assert e == (F.one if r == c + m else F.zero)


class TestCharPoly:
    @pytest.mark.parametrize("F", [GF(5), QQ], ids=["GF5", "QQ"])
    def test_block_companion_identity(self, F):
        """det(z^k I - A(z)) over the monic basis equals det(zI - Y)."""
        rng = random.Random(43)
        for k in (1, 2, 3):
            for _ in range(6):
                Y = random_slice(rng, F, rng.randint(1, 3), k)
                monic = det(PolyMatrix.from_cols(F, oracles._monic_basis(Y)))
                assert monic == linalg.char_poly(F, Y.entries)


class TestValidatePoint:
    def point(self, F, line):
        Y = SliceMatrix(2, 1, F, [[F.zero, F.zero], [F.zero, F.one]])  # columns of Y = diag(0, 1)
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

    def test_flag_length_mismatch_reported(self):
        # the flag has one step per eigenvalue; nothing else is checked
        F = GF(3)
        p = self.point(F, [[F.zero, F.one]])
        short = SlicePoint(p.Y, p.flag, (F.zero,))
        assert validate_point(short) == ["flag has 2 steps but 1 eigenvalues"]

    def test_char_poly_mismatch_reported(self):
        # a partial flag: one stable line on which Y acts by 1, so only the
        # full-space and characteristic polynomial checks fail
        F = GF(3)
        Y = SliceMatrix(2, 1, F, [[F.zero, F.zero], [F.zero, F.one]])  # columns of Y = diag(0, 1)
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
        Y = SliceMatrix(2, 1, F, [[F.zero, F.zero], [F.zero, F.one]])  # columns of Y = diag(0, 1)
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
        Y = SliceMatrix(2, 1, F, [[F.zero, F.zero], [F.zero, F.one]])  # columns of Y = diag(0, 1)
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


class TestFlagInputsReduced:
    def test_kernels_arrive_in_reduced_column_echelon_form(self):
        # chain_to_slice hands Flag each W_i as the reduced column echelon
        # basis that Flag keeps, so its canonicalising rref has nothing to do
        rng = random.Random(79)
        seen = []
        canonical_subspace = linalg.canonical_subspace

        def canonical(field, columns):
            out = canonical_subspace(field, columns)
            seen.append([list(c) for c in columns] == out)
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "canonical_subspace", canonical)
            for F in (GF(3), GF(5), QQ):
                for m, k, types in ((3, 1, (1, 2)), (3, 1, (1, 1, 1)), (2, 2, (1, 1, 1, 1)), (2, 3, (1,) * 6)):
                    chains = 0
                    while chains < 3:
                        chain = _random_trivial_chain(rng, m, k, types, F)
                        if chain is not None:
                            chains += 1
                            assert slice_to_chain(chain_to_slice(chain)) == chain
        assert len(seen) > 100 and all(seen)


def chain_at(rng, F, m, k, types, points):
    """A seeded chain at the given points ending at a trivial lattice, or
    None when the draw is not trivial."""
    L, lattices = standard_lattice(m, F), []
    for x, j in zip(points, types):
        L = _random_step(rng, L, x, j)
        if L is None:
            return None
        lattices.append(L)
    if not quotient_basis_trivial(L, k):
        return None
    return LatticeChain(m, F, points, types, lattices)


class TestFlagAgainstKrylov:
    """Each W_i as the kernel of the staircase map of L_(n-i) against the
    Horner and Krylov-closure flag it replaced, on seeded trivial chains
    whose points repeat."""

    SHAPES = (
        (2, 1, (1, 1)),
        (2, 2, (1,) * 4),
        (2, 3, (1,) * 6),
        (3, 1, (1, 2)),
        (3, 1, (2, 1)),
        (3, 1, (1, 1, 1)),
        (4, 1, (1, 2, 1)),
    )

    @pytest.mark.parametrize("F", [GF(3), GF(5), QQ], ids=["GF3", "GF5", "QQ"])
    def test_seeded_chains(self, F):
        rng = random.Random(53)
        repeated = 0
        for m, k, types in self.SHAPES:
            produced = 0
            for _ in range(200):
                points = tuple(F.from_int(rng.randrange(2)) for _ in types)
                chain = chain_at(rng, F, m, k, types, points)
                if chain is None:
                    continue
                flag = chain_to_slice(chain).flag
                assert flag == oracles.krylov_flag(chain)
                assert flag.dims() == list(itertools.accumulate(types[::-1]))
                repeated += len(set(points)) < len(points)
                produced += 1
                if produced == 4:
                    break
            assert produced == 4
        assert repeated >= len(self.SHAPES)


class TestPreimageWalkAgainstGenerators:
    """The FGLM walk of slice_to_chain against the Hermite form of lifts of
    W_i and the monic basis, on seeded points whose eigenvalues repeat."""

    @pytest.mark.parametrize("F", [GF(3), GF(5), QQ], ids=["GF3", "GF5", "QQ"])
    def test_seeded_points(self, F):
        rng = random.Random(61)
        xs = [F.from_int(c) for c in (0, 1, 2)]
        non_monomial = 0
        grid = (
            (2, 1, (1, 1)), (3, 1, (1, 2)), (3, 1, (1, 1, 1)),
            (2, 2, (1, 1, 1, 1)), (3, 2, (1, 2, 1, 2)), (2, 3, (1,) * 6),
        )
        for m, k, types in grid:
            for values in (1, 2):
                produced = 0
                while produced < 3:
                    pool = rng.sample(xs, values)
                    points = tuple(rng.choice(pool) for _ in types)
                    chain = chain_at(rng, F, m, k, types, points)
                    if chain is None:
                        continue
                    produced += 1
                    p = chain_to_slice(chain)
                    assert list(slice_to_chain(p).lattices) == oracles.lattices_by_generators(p)
                    non_monomial += any(
                        sum(e != F.zero for e in col) > 1 for W in p.flag.subspaces for col in W
                    )
        assert non_monomial > 0


def corrupted_points(rng, p):
    """Copies of p with one flag step changed: W_i replaced by another
    subspace of its dimension that contains W_(i-1), or by any subspace of
    its dimension; copies with two eigenvalues swapped; and copies with the
    same flag and one block-column entry of Y changed."""
    F, N, flag = p.Y.field, p.Y.N, p.flag
    n = len(flag)
    for i in range(n - 1):
        prev = flag.subspace(i - 1) if i else []
        dim = flag.dims()[i]
        for keep in (prev, []):
            W = []
            while len(W) != dim:
                extra = [
                    [F.from_int(rng.randint(-2, 2)) for _ in range(N)]
                    for _ in range(dim - len(keep))
                ]
                W = linalg.canonical_subspace(F, keep + extra)
            subspaces = [flag.subspace(t) for t in range(n)]
            subspaces[i] = W
            yield SlicePoint(p.Y, Flag(F, N, subspaces), p.eigenvalues)
    eig = list(p.eigenvalues)
    for a in range(n):
        for b in range(a + 1, n):
            if eig[a] != eig[b]:
                swapped = eig[:]
                swapped[a], swapped[b] = eig[b], eig[a]
                yield SlicePoint(p.Y, flag, swapped)
    m, k = p.Y.m, p.Y.k
    for _ in range(2):
        block = [list(q) for q in p.Y.block_column]
        j, r = rng.randrange(m), rng.randrange(N)
        block[j][r] = F.add(block[j][r], F.from_int(rng.randint(1, F.p - 1 if F.p else 2)))
        yield SlicePoint(SliceMatrix(m, k, F, block), flag, p.eigenvalues)


class TestValidatePointAgainstEveryColumn:
    """Imaging the new columns of each step, and the stability and
    characteristic-polynomial checks implied by the others, against imaging
    every column and always computing char_poly, on seeded points from
    chain_to_slice with one flag step, the eigenvalue order or one entry of
    Y corrupted, or with inner flag steps left out."""

    @pytest.mark.parametrize("F", [GF(3), GF(5), QQ], ids=["GF3", "GF5", "QQ"])
    def test_corrupted_flags(self, F):
        rng = random.Random(59)
        verdicts = []
        for m, k, types in ((2, 1, (1, 1)), (2, 2, (1, 1, 1, 1)), (3, 1, (1, 2)), (3, 1, (1, 1, 1))):
            produced = 0
            while produced < 4:
                chain = _random_trivial_chain(rng, m, k, types, F)
                if chain is None:
                    continue
                produced += 1
                p = chain_to_slice(chain)
                assert validate_point(p) == oracles.every_column_point_failures(p) == []
                for bad in corrupted_points(rng, p):
                    failures = validate_point(bad)
                    assert failures == oracles.every_column_point_failures(bad)
                    verdicts.append(failures == [])
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("F", [GF(3), QQ], ids=["GF3", "QQ"])
    def test_merged_steps(self, F):
        # a valid point with some inner flag steps left out, and their
        # eigenvalues with them: each jump of m or more is a failure, in
        # the oracle's wording, and a point with one does not map to a chain
        rng = random.Random(61)
        seen = set()
        for m, k, types in ((2, 2, (1, 1, 1, 1)), (3, 1, (1, 1, 1)), (3, 2, (1, 2, 1, 2))):
            chain = next(filter(None, (_random_trivial_chain(rng, m, k, types, F) for _ in range(50))))
            p = chain_to_slice(chain)
            n = len(p.flag)
            for r in range(n):
                for dropped in itertools.combinations(range(n - 1), r):
                    keep = [i for i in range(n) if i not in dropped]
                    flag = Flag(F, p.Y.N, [p.flag.subspace(i) for i in keep])
                    eig = [p.eigenvalues[n - 1 - i] for i in keep][::-1]
                    bad = SlicePoint(p.Y, flag, eig)
                    failures = validate_point(bad)
                    assert failures == oracles.every_column_point_failures(bad)
                    dims = [0] + flag.dims()
                    jumps = [b - a for a, b in zip(dims, dims[1:])]
                    wide = [
                        f"flag step {i}: jump {j} is not in 1..{m - 1}"
                        for i, j in enumerate(jumps, 1) if j >= m
                    ]
                    assert [f for f in failures if "jump" in f] == wide
                    seen.add(bool(wide))
                    if wide:
                        with pytest.raises(ValueError, match="is not in 1.."):
                            slice_to_chain(bad)
        assert seen == {True, False}
