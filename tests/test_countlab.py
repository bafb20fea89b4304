"""Fiber counting in both models, polynomial fitting, verification suites."""

import contextlib
import itertools
import random
from fractions import Fraction

import pytest

from latslice.fields import GF, QQ
from latslice.lattice import Lattice, contains, standard_lattice, transition_matrix
from latslice.poly import Poly
from latslice.polymatrix import PolyMatrix
from latslice import countlab, lattice, polymatrix
from latslice.countlab import (
    END_CONDITIONS,
    FiberQuery,
    _chain_ends,
    count_chain_fiber,
    count_slice_fiber,
    fit_q_polynomial,
    step_choices,
    suite_central_leading,
    suite_counts_equal,
    suite_product_fibre,
    suite_triviality_agree,
    verify_suite,
)
from latslice import linalg
from latslice.reptheory import WeightSeq, gaussian_binomial
from latslice.slicecorr import (
    Flag,
    SliceMatrix,
    SlicePoint,
    base_point,
    slice_to_chain,
    target_poly,
    validate_point,
)

import oracles


class TestStepChoices:
    def test_lines_in_plane(self):
        for q in (2, 3, 5):
            F = GF(q)
            std = standard_lattice(2, F)
            out = step_choices(std, F.zero, 1)
            assert len(out) == q + 1
            assert len(set(out)) == q + 1

    def test_planes_in_three_space(self):
        F = GF(2)
        std = standard_lattice(3, F)
        assert len(step_choices(std, F.one, 2)) == 7
        assert gaussian_binomial(3, 2, 2) == 7

    def test_type_bounds(self):
        F = GF(2)
        with pytest.raises(ValueError):
            step_choices(standard_lattice(2, F), F.zero, 2)

    @pytest.mark.parametrize("m,k,q", [(2, 2, 3), (2, 3, 2), (3, 1, 3), (3, 2, 2)])
    def test_containing_target_image(self, m, k, q):
        # seeded L >= T = z^k k[z]^m: T's generators plus random vectors of
        # degree < k; the steps whose subspace contains T's image at x are
        # the steps whose lattice contains T
        F = GF(q)
        rng = random.Random(20261018 + 10 * m + k)
        T = _zk_lattice(m, k, F)
        for _ in range(3):
            extra = [
                [Poly(F, tuple(rng.randrange(q) for _ in range(k))) for _ in range(m)]
                for _ in range(rng.randint(1, m))
            ]
            L = Lattice(F, PolyMatrix.from_cols(F, T.basis.columns() + extra))
            for x in F.elements():
                image = countlab._image_at(L, T, x)
                for j in range(1, m):
                    want = {L2 for L2 in step_choices(L, x, j) if contains(L2, T)}
                    got = step_choices(L, x, j, image)
                    assert len(set(got)) == len(got)
                    assert set(got) == want, (L, x, j)


class TestImageAt:
    def test_transition_columns_at_the_point(self):
        # seeded L >= T = z^k k[z]^m, over F_3 and Q: the image is the
        # transition matrix from L to T evaluated at z = x
        rng = random.Random(73)
        for F in (GF(3), QQ):
            for m, k in ((2, 2), (3, 1), (2, 3)):
                T = _zk_lattice(m, k, F)
                for _ in range(4):
                    extra = [
                        [Poly(F, [F.from_int(rng.randint(-2, 2)) for _ in range(k)]) for _ in range(m)]
                        for _ in range(rng.randint(1, m))
                    ]
                    L = Lattice(F, PolyMatrix.from_cols(F, T.basis.columns() + extra))
                    for x in (F.zero, F.one, F.from_int(2)):
                        want = [[p.eval(x) for p in col] for col in transition_matrix(L, T).columns()]
                        assert countlab._image_at(L, T, x) == want

    def test_target_outside_the_lattice(self):
        for F in (GF(3), QQ):
            std = standard_lattice(2, F)
            step = countlab._preimage(std, F.zero, [[F.one, F.zero]])
            for L, target in ((step, std), (_zk_lattice(2, 2, F), _zk_lattice(2, 1, F))):
                with pytest.raises(ValueError, match="not contained"):
                    countlab._image_at(L, target, F.zero)


@contextlib.contextmanager
def no_column_echelon():
    """Within it the Euclidean column echelon raises, both where
    `hermite_basis` calls it and where `lattice.intersect` does."""

    def refused(*args, **kwargs):
        raise AssertionError("Euclidean column echelon called")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polymatrix, "_column_echelon", refused)
        mp.setattr(lattice, "_column_echelon", refused)
        yield


class TestPreimageAgainstAllGenerators:
    """`lattice._preimage` builds B E_S, B the Hermite basis of L and E_S the
    Hermite basis of {v : v(x) in S}, which `Lattice` reduces above its
    diagonal.  It must give the lattice that the lifts B v (v in vecs) and
    all m columns of (z - x)B generate, which the oracle Hermite-reduces
    itself, and reach it with no Euclidean column echelon: the echelon path
    of `hermite_basis` would give the right lattice from a wrong
    construction too."""

    @staticmethod
    def base_lattices(rng, F, m):
        # k[z]^m and lattices three or four random steps below it, each step
        # at 0 or 1, so that points repeat and the Hermite diagonals carry
        # powers of z and z - 1
        out = [standard_lattice(m, F)]
        for _ in range(3):
            L = out[0]
            for _ in range(rng.randint(3, 4)):
                L = countlab._random_step(rng, L, F.from_int(rng.randint(0, 1)), rng.randint(1, m - 1))
            out.append(L)
        assert max(L.basis.entry(i, i).degree for L in out for i in range(m)) >= 2
        return out

    @pytest.mark.parametrize("F", [GF(2), GF(3), GF(5)], ids=repr)
    def test_every_step_subspace(self, F):
        rng = random.Random(43)
        # m = 4 has 1118 step subspaces at q = 5, so it stops at q = 3
        for m in (2, 3, 4) if F.p <= 3 else (2, 3):
            for L in self.base_lattices(rng, F, m):
                # the steps' own points, where B's diagonal has work for the
                # reduction, and one more point
                for x in (F.zero, F.one, F.from_int(rng.randint(2, F.p + 1))):
                    for j in range(1, m):
                        for S in linalg.subspaces(F, m, m - j):
                            want = oracles.preimage_by_all_generators(L, x, S)
                            with no_column_echelon():
                                got = lattice._preimage(L, x, S)
                            assert got == want, (L, x, S)

    @pytest.mark.parametrize("F", [GF(2), GF(3), GF(5), QQ], ids=repr)
    def test_random_step_vectors(self, F):
        # the vectors _random_step draws (not in echelon form), replayed from
        # its seed, and the same with a dependent vector appended: any
        # spanning set of the subspace will do
        def draw(r, m, j):
            if F.is_finite:
                sample = lambda: F.from_int(r.randrange(F.p))
            else:
                sample = lambda: F.from_int(r.randint(-3, 3))
            while True:
                vecs = [[sample() for _ in range(m)] for _ in range(m - j)]
                if linalg.rank(F, vecs) == m - j:
                    return vecs

        rng = random.Random(47)
        for m in (2, 3, 4):
            for L in self.base_lattices(rng, F, m):
                for j in range(1, m):
                    x = F.from_int(rng.randint(0, 2))
                    seed = rng.randrange(10**6)
                    vecs = draw(random.Random(seed), m, j)
                    want = oracles.preimage_by_all_generators(L, x, vecs)
                    combo = [F.add(a, F.mul(F.from_int(2), b)) for a, b in zip(vecs[0], vecs[-1])]
                    with no_column_echelon():
                        assert countlab._random_step(random.Random(seed), L, x, j) == want
                        assert lattice._preimage(L, x, vecs + [combo]) == want


class TestStepsRunNoColumnEchelon:
    """Every step lattice reaches `Lattice` square and upper triangular, so
    `hermite_basis` only reduces it above its diagonal and the chain walk,
    `slice_to_chain` and `factorize` never run the Euclidean column echelon.
    A basis left off that shape would still come out right, through the
    echelon path of `hermite_basis`; only this guard sees it."""

    @pytest.mark.parametrize(
        "m,k,types,points,q,end,want",
        [
            (2, 3, (1,) * 6, (0,) * 6, 2, "exact-zk", 87),
            # at q = 2 the point 2 is 0 again
            (3, 1, (1, 1, 1), (0, 1, 2), 2, "trivial", 168),
            (3, 1, (1, 1, 1), (0, 1, 2), 3, "trivial", 1404),
        ],
    )
    @pytest.mark.parametrize("witnesses", [False, True])
    def test_count_chain_fiber(self, m, k, types, points, q, end, want, witnesses):
        F = GF(q)
        query = FiberQuery(m, k, types, tuple(F.from_int(x) for x in points), F, end)
        with no_column_echelon():
            assert count_chain_fiber(query, witnesses=witnesses).count == want

    def test_step_choices(self):
        # from k[z]^m, and from lattices with powers of z and z - 1 on the
        # diagonal, at those points
        F = GF(3)
        rng = random.Random(53)
        for m in (2, 3, 4):
            lattices = TestPreimageAgainstAllGenerators.base_lattices(rng, F, m)
            with no_column_echelon():
                for L in lattices:
                    for x in (F.zero, F.one):
                        for j in range(1, m):
                            assert len(set(step_choices(L, x, j))) == gaussian_binomial(m, j, 3)

    @pytest.mark.parametrize("F", [GF(5), QQ], ids=repr)
    def test_slice_to_chain(self, F):
        # seeded trivial chains at seeded points: the roundtrip shapes, and
        # m=2, k=3 for Hermite diagonals of higher degree
        rng = random.Random(59)
        for m, k, types in ((3, 1, (1, 2)), (3, 1, (1, 1, 1)), (2, 2, (1, 1, 1, 1)), (2, 3, (1,) * 6)):
            chains = []
            while len(chains) < 4:
                chain = countlab._random_trivial_chain(rng, m, k, types, F)
                if chain is not None:
                    chains.append(chain)
            for chain in chains:
                p = countlab.chain_to_slice(chain)
                with no_column_echelon():
                    back = countlab.slice_to_chain(p)
                assert back == chain

    @pytest.mark.parametrize("F", [GF(2), GF(3), GF(5), QQ], ids=repr)
    def test_factorize(self, F):
        # lattices supported at 0 and 1, split every way, g = 1 and g = d
        # included
        rng = random.Random(61)
        for m in (2, 3):
            for L in TestPreimageAgainstAllGenerators.base_lattices(rng, F, m):
                for S1, S2 in (({0}, {1}), ({1}, {0}), ((), {0, 1}), ({0, 1}, ())):
                    S1, S2 = ({F.from_int(x) for x in S} for S in (S1, S2))
                    with no_column_echelon():
                        L1, L2 = lattice.factorize(L, S1, S2)
                    assert lattice.intersect(L1, L2) == L


class TestChainCount:
    def test_anchor_12(self):
        F = GF(3)
        q = FiberQuery(2, 1, (1, 1), (F.zero, F.one), F, "trivial")
        assert count_chain_fiber(q).count == 12
        assert oracles.scan_2x2_fiber() == 12

    def test_any_count_product(self):
        # four modifications at distinct points: (q+1)^4
        F = GF(3)
        pts = tuple(F.from_int(i) for i in (0, 1, 2, 0))
        q = FiberQuery(2, 2, (1, 1, 1, 1), pts, F, "any")
        assert count_chain_fiber(q).count == 256

    def test_central_fiber(self):
        for p, want in ((2, 15), (3, 28)):
            F = GF(p)
            q = FiberQuery(2, 2, (1, 1, 1, 1), (F.zero,) * 4, F, "exact-zk")
            assert count_chain_fiber(q).count == want
            assert oracles.tree_walk_count(p, 4) == want

    def test_witnesses_match_count(self):
        F = GF(2)
        q = FiberQuery(2, 1, (1, 1), (F.zero, F.one), F, "trivial")
        report = count_chain_fiber(q, witnesses=True)
        assert len(report.witnesses) == report.count

    def test_bad_arguments(self):
        F = GF(3)
        with pytest.raises(ValueError, match="k must be positive"):
            FiberQuery(2, 0, (1, 1), (F.zero, F.one), F, "any")

    def test_weight_seq_of_another_rank_rejected(self):
        # a type-2 step at rank 2 is no step; step_choices refuses it too
        F = GF(3)
        with pytest.raises(ValueError, match="types of rank 3 in a query of rank 2"):
            FiberQuery(2, 1, WeightSeq(3, (2,)), (F.zero,), F, "any")
        assert FiberQuery(3, 1, WeightSeq(3, (2,)), (F.zero,), F, "any").types.m == 3

    def test_non_field_points_rejected(self):
        # an int outside range(q) is no element of F_q: 3 would pass for a
        # point distinct from 0, and -1 would be echoed as given
        for field, point in (
            (GF(3), 0.5), (GF(3), True), (GF(3), "1"), (GF(3), 3), (GF(3), -1), (QQ, 0.5), (QQ, False),
        ):
            with pytest.raises(ValueError, match=f"point {point!r} is not an element"):
                FiberQuery(2, 1, (1, 1), (point, 1), field, "trivial")
        FiberQuery(2, 1, (1, 1), (Fraction(1, 2), 1), QQ, "trivial")

    def test_agrees_with_dfs(self):
        # the exact-z^k central fibre at m=2, k=2 over GF(3), then seeded
        # queries at m=2,3, k=1..3 over GF(2) and GF(3), every end condition,
        # all-zero and random points, each of at most 1000 chains
        F = GF(3)
        queries = [FiberQuery(2, 2, (1, 1, 1, 1), (F.zero,) * 4, F, "exact-zk")]
        rng = random.Random(20261018)
        for (m, k), p, end, zero in itertools.product(
            ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)), (2, 3), END_CONDITIONS, (True, False)
        ):
            types = _small_types(m, k, p)
            if not types:
                continue
            types = rng.choice(types)
            pts = [0 if zero else rng.randrange(p) for _ in types]
            queries.append(FiberQuery(m, k, types, pts, GF(p), end))
        assert len(queries) == 49
        for query in queries:
            count, chains = oracles.dfs_chain_fiber(query, witnesses=True)
            assert count_chain_fiber(query).count == count, query
            report = count_chain_fiber(query, witnesses=True)
            assert report.count == count, query
            assert set(report.witnesses) == set(chains), query
        assert oracles.dfs_chain_fiber(queries[0]) == (28, None)

    def test_exact_zk_agrees_with_dfs(self):
        # the pruned exact-z^k count against the unpruned walk, on the
        # central fibre and on seeded points; z^k k[z]^m is supported at 0,
        # so a step at any other point, as in (0,1,0,1), leaves no chain
        queries = [FiberQuery(2, 2, (1, 1, 1, 1), (0, 1, 0, 1), GF(3), "exact-zk")]
        rng = random.Random(20261019)
        for (m, k), p in itertools.product(((2, 2), (2, 3), (3, 1), (3, 2)), (2, 3)):
            choices = _small_types(m, k, p)
            if not choices:
                continue
            types = rng.choice(choices)
            for pts in ([0] * len(types), [rng.randrange(p) for _ in types]):
                queries.append(FiberQuery(m, k, types, pts, GF(p), "exact-zk"))
        assert len(queries) == 13
        for query in queries:
            count, chains = oracles.dfs_chain_fiber(query, witnesses=True)
            report = count_chain_fiber(query, witnesses=True)
            assert count_chain_fiber(query).count == report.count == count, query
            assert set(report.witnesses) == set(chains), query
            assert (count > 0) == (not any(query.points)), query

    def test_exact_zk_builds_only_kept_lattices(self, monkeypatch):
        # m=3, (1,1,1), q=7: building every child and then testing it makes
        # 6556 lattices; the pruned enumeration makes fewer than 600
        built = []
        real = countlab.Lattice

        def counted(*args):
            built.append(1)
            return real(*args)

        monkeypatch.setattr(countlab, "Lattice", counted)
        query = FiberQuery(3, 1, (1, 1, 1), (0, 0, 0), GF(7), "exact-zk")
        assert count_chain_fiber(query).count == 456
        assert 0 < len(built) <= 600

    @pytest.mark.parametrize(
        "types,end,points,want",
        [
            ((2, 2), "trivial", (0, 1), 560),
            ((2, 2), "any", (0, 1), 1225),
            ((2, 2), "exact-zk", (0, 0), 35),
            ((2, 2), "exact-zk", (1, 0), 0),
            ((1, 3), "trivial", (0, 1), 120),
        ],
    )
    def test_first_step_orbit_at_rank_four(self, types, end, points, want):
        # m=4 over GF(2), beyond test_agrees_with_dfs: a j=2 first step
        # stands for [4 choose 2]_2 = 35 of them, a j=1 step for 15
        query = FiberQuery(4, 1, types, points, GF(2), end)
        assert count_chain_fiber(query).count == want
        assert oracles.dfs_chain_fiber(query) == (want, None)


def _zk_lattice(m, k, F):
    return Lattice(F, PolyMatrix.identity(F, m).scale_poly(Poly.monomial(F, F.one, k)))


def _small_types(m, k, p, max_chains=1000):
    """Every type sequence summing to m*k with at most max_chains chains over
    GF(p), so that the depth-first walk stays short."""
    out = []
    for n in range(k, m * k + 1):
        for types in itertools.product(range(1, m), repeat=n):
            chains = 1
            for j in types:
                chains *= gaussian_binomial(m, j, p)
            if sum(types) == m * k and chains <= max_chains:
                out.append(types)
    return out


class TestChainEnds:
    @pytest.mark.parametrize("m,k,q", [(2, 1, 2), (2, 1, 3), (2, 2, 2), (3, 1, 2)])
    def test_union_of_dfs_chain_ends(self, m, k, q):
        # every type sequence summing to m*k and every tuple of the points
        F = GF(q)
        for points in {tuple(F.elements()), (0, 1)}:
            expected = set()
            for n in range(1, m * k + 1):
                for types in itertools.product(range(1, m), repeat=n):
                    if sum(types) != m * k:
                        continue
                    for pts in itertools.product(points, repeat=n):
                        query = FiberQuery(m, k, types, pts, F, "any")
                        _, chains = oracles.dfs_chain_fiber(query, witnesses=True)
                        expected.update(chain.end for chain in chains)
            assert _chain_ends(m, k, F, points) == expected, points


def _trace(Y):
    return sum(Y.entries[i][i] for i in range(Y.N)) % Y.field.p


class TestStableFlagsAgainstBrute:
    """The flag walk against `oracles.brute_stable_flags`, which filters
    every chain of subspaces of the right dimensions: the same flags, none
    twice.  Per query, seeded matrices with the query's characteristic
    polynomial and without it, the base point (nilpotent, and not
    semisimple for k > 1) and, at k = 1, a Jordan block at the first point;
    repeated points give several flags per matrix."""

    QUERIES = {
        (2, 1): [((1, 1), (0, 1)), ((1, 1), (0, 0)), ((1, 1), (1, 1))],
        (3, 1): [((1, 2), (0, 1)), ((2, 1), (0, 0)), ((1, 1, 1), (0, 0, 1)),
                 ((1, 1, 1), (0, 0, 0)), ((1, 2), (1, 1))],
        (2, 2): [((1, 1, 1, 1), (0, 1, 0, 1)), ((1, 1, 1, 1), (0, 0, 0, 0)),
                 ((1, 1, 1, 1), (0, 0, 1, 1))],
    }

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (2, 2)])
    def test_walk_equals_filtered_chains(self, m, k, q):
        F, N = GF(q), m * k
        rng = random.Random(f"{m},{k},{q}")
        key = lambda flags: tuple(tuple(map(tuple, W)) for W in flags)
        counts = []
        for types, points in self.QUERIES[m, k]:
            target = target_poly(F, points, types)
            trace = sum(j * x for j, x in zip(types, points)) % q
            fibre = [
                Y for Y in oracles.slice_matrices(m, k, F)
                if _trace(Y) == trace and linalg.char_poly(F, Y.entries) == target
            ]
            matrices = rng.sample(fibre, min(4, len(fibre))) + [
                SliceMatrix(m, k, F, [[rng.randrange(q) for _ in range(N)] for _ in range(m)])
                for _ in range(3)
            ] + [base_point(m, k, F)]
            if k == 1:
                x = points[0]
                jordan = [[x if r == c else int(r == c - 1) for r in range(N)] for c in range(N)]
                matrices.append(SliceMatrix(m, k, F, jordan))
            for Y in matrices:
                walked = [key(flags) for flags in countlab._stable_flags(Y, points, types)]
                brute = {key(flags) for flags in oracles.brute_stable_flags(Y, points, types)}
                assert len(set(walked)) == len(walked) == len(brute), (types, points, Y)
                assert set(walked) == brute, (types, points, Y)
                counts.append(len(walked))
        # matrices with no flag, one flag and several flags all occur
        assert 0 in counts and 1 in counts and max(counts) > 1


class TestSliceCount:
    @pytest.mark.parametrize("m,k,q", [(1, 1, 3), (2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2)])
    def test_enumeration_at_a_trace_filters_the_full_one(self, m, k, q):
        # the trace solve against the brute-force space, filtered by trace
        F = GF(q)
        full = list(oracles.slice_matrices(m, k, F))
        assert len(set(full)) == len(full) == q ** (m * m * k)
        for t in F.elements():
            got = [SliceMatrix(m, k, F, zip(*rows)) for rows in countlab._block_rows(m, k, F, t)]
            assert got == [Y for Y in full if _trace(Y) == t]
            assert len(got) == q ** (m * m * k - 1)

    def test_oversized_space_refused_at_any_trace(self):
        # the limit is on the whole space, q^(m*m*k), not on one trace
        with pytest.raises(ValueError, match=r"holds 3\^18 = 387420489 matrices"):
            next(countlab._block_rows(3, 2, GF(3), 0))
        query = FiberQuery(3, 2, (1,) * 6, (0, 1, 2, 0, 1, 2), GF(3), "trivial")
        with pytest.raises(ValueError, match=r"holds 3\^18 = 387420489 matrices"):
            count_slice_fiber(query)

    @pytest.mark.parametrize(
        "m,k,types,points,q",
        [(2, 1, (1, 1), (0, 1), 3), (2, 1, (1, 1), (1, 1), 3), (3, 1, (1, 2), (1, 0), 2),
         (2, 2, (1, 1, 1, 1), (0, 1, 0, 1), 2)],
    )
    def test_witnesses_in_full_enumeration_order(self, m, k, types, points, q):
        # the matrices of the full space with the fibre's characteristic
        # polynomial, in enumeration order, each with its flags in turn
        F = GF(q)
        query = FiberQuery(m, k, types, points, F, "trivial")
        target = target_poly(F, points, types)
        want = [
            SlicePoint(Y, Flag(F, Y.N, flags), points)
            for Y in oracles.slice_matrices(m, k, F)
            if linalg.char_poly(F, Y.entries) == target
            for flags in countlab._stable_flags(Y, points, types)
        ]
        report = count_slice_fiber(query, witnesses=True)
        assert report.count == len(want) > 0
        assert report.witnesses == want

    @pytest.mark.parametrize(
        "m,k,types,points,q",
        [(2, 1, (1, 1), (0, 1), 3), (2, 1, (1, 1), (0, 0), 2), (3, 1, (2, 1), (0, 0), 2),
         (3, 1, (1, 1, 1), (0, 0, 1), 2), (2, 2, (1, 1, 1, 1), (0, 0, 0, 0), 2)],
    )
    def test_witnesses_valid_and_matched_to_chains(self, m, k, types, points, q):
        # every slice witness is a valid point, and the inverse bijection
        # maps the slice witnesses one-to-one onto the chain witnesses
        query = FiberQuery(m, k, types, points, GF(q), "trivial")
        slice_points = count_slice_fiber(query, witnesses=True).witnesses
        assert slice_points
        assert all(validate_point(p) == [] for p in slice_points)
        chains = [slice_to_chain(p) for p in slice_points]
        assert len(set(chains)) == len(chains)
        want = count_chain_fiber(query, witnesses=True).witnesses
        assert len(want) == len(chains)
        assert set(chains) == set(want)
    def test_anchor_12(self):
        F = GF(3)
        q = FiberQuery(2, 1, (1, 1), (F.zero, F.one), F, "trivial")
        assert count_slice_fiber(q).count == 12

    def test_rank_one_has_no_weights(self):
        # m = 1 admits no modification types (the weight range 1..m-1 is
        # empty), so rank-one queries cannot be formed
        F = GF(3)
        with pytest.raises(ValueError):
            FiberQuery(1, 2, (1,), (F.zero,), F, "trivial")

    def test_matches_chain_model(self):
        F = GF(2)
        for pts in ((F.zero, F.one), (F.zero, F.zero)):
            q = FiberQuery(2, 1, (1, 1), pts, F, "trivial")
            assert count_slice_fiber(q).count == count_chain_fiber(q).count


class TestFit:
    def test_quadratic_with_held_out(self):
        fit = fit_q_polynomial([(2, 15), (3, 28), (4, 45)], degree=2)
        assert fit.success and fit.coefficients == [1, 3, 2]
        fit = fit_q_polynomial([(2, 15), (3, 28), (4, 45), (5, 66)], degree=2)
        assert fit.success

    def test_line(self):
        fit = fit_q_polynomial([(2, 3), (3, 4)])
        assert fit.success and fit.coefficients == [1, 1]

    def test_non_polynomial_source_flagged(self):
        fit = fit_q_polynomial([(2, 4), (3, 8), (4, 16), (5, 32)], degree=2)
        assert not fit.success

    def test_matches_sympy_interpolation(self):
        sympy = pytest.importorskip("sympy")
        q = sympy.Symbol("q")
        rng = random.Random(20261018)
        for degree in range(5):
            for _ in range(4):
                coeffs = [rng.randint(0, 9) for _ in range(degree + 1)]
                qs = rng.sample(range(2, 40), degree + 1)
                samples = [(x, sum(c * x**i for i, c in enumerate(coeffs))) for x in qs]
                want = sympy.Poly(sympy.interpolate(samples, q), q).all_coeffs()[::-1]
                fit = fit_q_polynomial(samples)
                assert fit.success
                assert fit.coefficients == [int(c) for c in want], samples

    def test_all_zero_samples(self):
        fit = fit_q_polynomial([(2, 0), (3, 0), (5, 0)])
        assert fit.success and fit.coefficients == [0] and fit.degree == 0
        assert fit_q_polynomial([(2, 0), (3, 0), (5, 0)], degree=1).coefficients == [0]

    def test_empty_samples_refused(self):
        for degree in (None, 0):
            with pytest.raises(ValueError, match="no samples"):
                fit_q_polynomial([], degree=degree)


class TestSuites:
    def test_counts_equal_calls_count_slice_fiber_once_per_case(self, monkeypatch):
        # (2,2,1^4) has no distinct configurations at q=2, so the cases are
        # the two of each (3,1) entry
        calls = []
        count_slice = countlab.count_slice_fiber

        def counted(query):
            calls.append(query)
            return count_slice(query)

        monkeypatch.setattr(countlab, "count_slice_fiber", counted)
        grid = ((2, 2, (1, 1, 1, 1)), (3, 1, (1, 2)), (3, 1, (2, 1)))
        report = suite_counts_equal(grid=grid, qs=(2,))
        assert report["pass"] and len(report["cases"]) == len(calls) == 4
        monkeypatch.undo()
        for case, query in zip(report["cases"], calls):
            p = case["params"]
            assert p == {"m": query.m, "k": query.k, "types": list(query.types.entries),
                         "points": list(query.points), "q": query.field.p}
            rebuilt = FiberQuery(p["m"], p["k"], p["types"], p["points"], GF(p["q"]), "trivial")
            assert case["expected"] == count_chain_fiber(rebuilt).count, p
            assert case["actual"] == count_slice_fiber(rebuilt).count, p

    def test_product_fibre(self):
        report = suite_product_fibre(grid=((3, 1, (1, 2)),), qs=(2,))
        assert report["pass"]
        found = [c for c in report["cases"] if c.get("params", {}).get("q") == 2]
        assert any(c["expected"] == 49 for c in found)

    def test_central_leading(self):
        report = suite_central_leading()
        assert report["pass"]

    def test_central_leading_six_points(self):
        report = suite_central_leading(m=2, types=(1,) * 6, qs=(2, 3, 5, 7), held_out=11)
        assert report["pass"]
        samples = report["cases"][0]["params"]["samples"]
        assert samples == [(q, oracles.tree_walk_count(q, 6)) for q in (2, 3, 5, 7, 11)]
        assert [c for _, c in samples] == [87, 232, 876, 2192, 7800]
        assert [c["actual"] for c in report["cases"][1:]] == [3, 5]

    def test_central_leading_rank_three(self):
        report = suite_central_leading(m=3, types=(1, 1, 1), qs=(2, 3, 5, 7), held_out=11)
        assert report["pass"]
        assert [c["actual"] for c in report["cases"][1:]] == [3, 1]

    def test_central_leading_eight_points(self):
        # m=2, k=4: degree 4 and leading coefficient the Catalan number 14
        report = suite_central_leading(m=2, types=(1,) * 8, qs=(2, 3, 5, 7, 11))
        assert report["pass"]
        samples = report["cases"][0]["params"]["samples"]
        assert samples == [(q, oracles.tree_walk_count(q, 8)) for q in (2, 3, 5, 7, 11)]
        assert [c for _, c in samples] == [543, 2092, 12786, 44248, 244740]
        assert [c["actual"] for c in report["cases"][1:]] == [4, 14]

    def test_suite_without_cases_fails(self):
        assert suite_triviality_agree(grid=())["pass"] is False
        assert suite_counts_equal(grid=(), qs=(2,))["pass"] is False
        assert suite_counts_equal(qs=())["pass"] is False
        assert suite_product_fibre(grid=())["pass"] is False

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            verify_suite("no-such-suite")

    def test_all_takes_no_budget(self, monkeypatch):
        def no_suite(**budget):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(countlab, "SUITES", dict.fromkeys(countlab.SUITES, no_suite))
        with pytest.raises(ValueError, match="takes no budget: qs, randoms"):
            verify_suite("all", randoms=1, qs=(2,))
