"""Fiber counting in both models, polynomial fitting, verification suites."""

import pytest

from latslice.fields import GF
from latslice.lattice import standard_lattice
from latslice.countlab import (
    FiberQuery,
    count_chain_fiber,
    count_slice_fiber,
    fit_q_polynomial,
    step_choices,
    suite_central_leading,
    suite_product_fibre,
    verify_suite,
)
from latslice.reptheory import gaussian_binomial

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
        q = FiberQuery(2, 1, (1, 1), (F.zero, F.one), F, "any")
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            count_chain_fiber(q, jobs=0)

    def test_jobs_agree(self):
        F = GF(3)
        q = FiberQuery(2, 1, (1, 1), (F.zero, F.one), F, "any")
        assert count_chain_fiber(q, jobs=2).count == count_chain_fiber(q).count
        # each pool task builds its own exact-z^k end test
        q = FiberQuery(2, 2, (1, 1, 1, 1), (F.zero,) * 4, F, "exact-zk")
        assert count_chain_fiber(q, jobs=2).count == count_chain_fiber(q).count


class TestSliceCount:
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


class TestSuites:
    def test_product_fibre(self):
        report = suite_product_fibre(grid=((3, 1, (1, 2)),), qs=(2,))
        assert report["pass"]
        found = [c for c in report["cases"] if c.get("params", {}).get("q") == 2]
        assert any(c["expected"] == 49 for c in found)

    def test_central_leading(self):
        report = suite_central_leading()
        assert report["pass"]

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            verify_suite("no-such-suite")
