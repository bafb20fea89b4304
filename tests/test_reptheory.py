"""Pieri products, tensor invariants, duality, dominance, Gaussian binomials."""

import itertools

import pytest

from latslice.reptheory import (
    Partition,
    WeightSeq,
    dominance_leq,
    dual_weight,
    gaussian_binomial,
    invariant_dim,
    pieri_add,
    root_lattice_check,
)

import oracles


class TestPieri:
    def test_from_empty(self):
        assert pieri_add(Partition(()), 1, 2) == [Partition((1,))]

    def test_single_box(self):
        got = set(pieri_add(Partition((1,)), 1, 2))
        assert got == {Partition((2,)), Partition((1, 1))}

    def test_vertical_strip(self):
        got = set(pieri_add(Partition((1,)), 2, 3))
        assert got == {Partition((2, 1)), Partition((1, 1, 1))}

    def test_row_bound(self):
        # most placements of a 2-box strip on (1,1,1) break monotonicity
        got = set(pieri_add(Partition((1, 1, 1)), 2, 3))
        assert got == {Partition((2, 2, 1))}

    def test_weight_bounds(self):
        with pytest.raises(ValueError):
            pieri_add(Partition((1, 1)), 2, 2)


class TestWeightSeq:
    def test_rank_must_be_positive(self):
        for m in (0, -1):
            with pytest.raises(ValueError, match="rank must be positive"):
                WeightSeq(m, ())


class TestRootLattice:
    def test_cases(self):
        assert root_lattice_check(WeightSeq(2, (1, 1, 1, 1)))
        assert not root_lattice_check(WeightSeq(2, (1, 1, 1)))
        assert root_lattice_check(WeightSeq(3, (1, 2)))


class TestInvariantDim:
    def test_dual_pairing(self):
        assert invariant_dim(WeightSeq(2, (1, 1))) == 1

    def test_catalan(self):
        assert invariant_dim(WeightSeq(2, (1, 1, 1, 1))) == 2
        assert oracles.ballot_count(4) == 2

    def test_determinant_rep(self):
        assert invariant_dim(WeightSeq(3, (1, 1, 1))) == 1
        assert oracles.alternant_invariant_dim(3, (1, 1, 1)) == 1

    def test_not_in_root_lattice_rejected(self):
        with pytest.raises(ValueError):
            invariant_dim(WeightSeq(2, (1,)))

    def test_against_alternant_oracle(self):
        for m in (2, 3):
            for n in range(2, 6):
                for w in itertools.product(range(1, m), repeat=n):
                    if sum(w) % m != 0:
                        continue
                    assert invariant_dim(WeightSeq(m, w)) == oracles.alternant_invariant_dim(m, w)

    def test_permutation_invariance(self):
        for w in ((1, 1, 2, 2), (1, 2, 1, 2), (2, 1, 2, 1)):
            assert invariant_dim(WeightSeq(3, w)) == invariant_dim(WeightSeq(3, (1, 1, 2, 2)))


class TestDual:
    def test_cases(self):
        assert dual_weight(2, 1) == 1
        assert dual_weight(3, 1) == 2
        assert dual_weight(5, 2) == 3

    def test_bounds(self):
        with pytest.raises(ValueError):
            dual_weight(3, 3)


def vec(*entries):
    """A bare coweight vector (dominance order also compares vectors with
    zero entries, which WeightSeq excludes)."""
    return type("Vec", (), {"entries": entries})()


class TestDominance:
    def test_examples(self):
        assert dominance_leq(vec(1, 1, 0), vec(2, 0, 0))
        assert dominance_leq(vec(2, 2, 0, 0), vec(2, 2, 0, 0))
        assert dominance_leq(vec(2, 2, 0, 0), vec(3, 1, 0, 0))
        assert dominance_leq(vec(2, 2, 0, 0), vec(4, 0, 0, 0))
        assert not dominance_leq(vec(3, 1, 0, 0), vec(2, 2, 0, 0))

    def test_unequal_totals(self):
        assert not dominance_leq(vec(1, 0), vec(2, 0))


class TestGaussian:
    def test_projective_line(self):
        for q in (2, 3, 5):
            assert gaussian_binomial(2, 1, q) == q + 1

    def test_trivial_cases(self):
        assert gaussian_binomial(4, 0, 3) == 1
        assert gaussian_binomial(4, 4, 3) == 1

    def test_35(self):
        assert gaussian_binomial(4, 2, 2) == 35
        assert oracles.brute_subspace_count(2, 4, 2) == 35

    def test_brute_force_small(self):
        for p in (2, 3):
            for n in range(1, 4):
                for d in range(n + 1):
                    assert gaussian_binomial(n, d, p) == oracles.brute_subspace_count(p, n, d)
