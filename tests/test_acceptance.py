"""Acceptance gate: the eight headline properties, each reporting one
pass/fail line on the terminal."""

import itertools
import random
import time

from latslice.fields import GF, QQ
from latslice.countlab import (
    DEFAULT_GRID,
    FiberQuery,
    count_chain_fiber,
    count_slice_fiber,
    fit_q_polynomial,
    suite_factorization,
    suite_roundtrip,
    suite_triviality_agree,
)
from latslice.poly import Poly
from latslice.polymatrix import (
    PolyMatrix,
    column_reduce,
    det,
    hermite_basis,
    is_unimodular,
    smith_normal_form,
)
from latslice.reptheory import WeightSeq, gaussian_binomial, invariant_dim

import oracles


def report(capsys, num, label, ok):
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {label}", flush=True)
    assert ok, f"criterion {num} failed: {label}"


def distinct_configs(field, n):
    els = list(field.elements())
    if len(els) < n:
        return []
    return list(itertools.permutations(els, n))


def test_criterion_1_cross_model_counts(capsys):
    """Chain-model trivial counts equal slice-model counts on the grid."""
    ok = True
    for m, k, types in DEFAULT_GRID:
        for q in (2, 3):
            F = GF(q)
            for pts in distinct_configs(F, len(types)):
                t0 = time.perf_counter()
                query = FiberQuery(m, k, types, pts, F, "trivial")
                chain = count_chain_fiber(query).count
                sl = count_slice_fiber(query).count
                elapsed = time.perf_counter() - t0
                if chain != sl or elapsed >= 60:
                    ok = False
    # anchor: q=3, two simple modifications at 0 and 1 -> 12 on both sides
    F = GF(3)
    anchor = FiberQuery(2, 1, (1, 1), (F.zero, F.one), F, "trivial")
    ok = ok and count_chain_fiber(anchor).count == 12
    ok = ok and count_slice_fiber(anchor).count == 12
    ok = ok and oracles.scan_2x2_fiber() == 12
    report(capsys, 1, "cross-model count equality (distinct points, q=2,3; anchor 12)", ok)


def test_criterion_2_roundtrip(capsys):
    """Both bijections compose to the identity on enumerated and random data."""
    out = suite_roundtrip()
    report(capsys, 2, "chain<->slice roundtrips (enumerated + 200 random per case over F5 and Q)", out["pass"])


def test_criterion_3_central_leading(capsys):
    """Central-fiber counts fit 2q^2+3q+1; leading coefficient = invariants."""
    t0 = time.perf_counter()
    counts = {}
    for q in (2, 3, 5):
        F = GF(q)
        query = FiberQuery(2, 2, (1, 1, 1, 1), (F.zero,) * 4, F, "exact-zk")
        counts[q] = count_chain_fiber(query).count
    ok = counts == {2: 15, 3: 28, 5: 66}
    ok = ok and all(oracles.tree_walk_count(q, 4) == counts[q] for q in counts)
    fit = fit_q_polynomial(sorted(counts.items()))
    ok = ok and fit.success and fit.coefficients == [1, 3, 2]
    half_dim = sum(j * (2 - j) for j in (1, 1, 1, 1)) // 2
    ok = ok and fit.degree == half_dim == 2
    inv = invariant_dim(WeightSeq(2, (1, 1, 1, 1)))
    ok = ok and fit.coefficients[-1] == inv == oracles.ballot_count(4)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30
    report(capsys, 3, f"central fiber fits 2q^2+3q+1, leading coeff = invariant dim ({elapsed:.1f}s)", ok)


def test_criterion_4_product_law(capsys):
    """Unconstrained counts over distinct points are products of Gaussian
    binomials."""
    ok = True
    for m, k, types in DEFAULT_GRID:
        for q in (2, 3):
            F = GF(q)
            for pts in distinct_configs(F, len(types)):
                query = FiberQuery(m, k, types, pts, F, "any")
                expect = 1
                for j in types:
                    expect *= gaussian_binomial(m, j, q)
                if count_chain_fiber(query).count != expect:
                    ok = False
    # anchor: (q+1)^4 = 256 at q=3 (the unconstrained count is the same
    # product for every configuration; F_3 has no 4 distinct points)
    F = GF(3)
    pts = tuple(F.from_int(i) for i in (0, 1, 2, 0))
    ok = ok and count_chain_fiber(FiberQuery(2, 2, (1, 1, 1, 1), pts, F, "any")).count == 256
    report(capsys, 4, "regular-fiber product law (anchor 256 = (q+1)^4 at q=3)", ok)


def test_criterion_5_triviality_agreement(capsys):
    """Monomial-basis test agrees with constant splitting type on every
    reachable chain endpoint."""
    out = suite_triviality_agree(grid=((2, 1), (2, 2), (3, 1)), qs=(2, 3))
    # the chain ends over every type sequence and every point of F_q
    ok = out["pass"] and [c["params"]["endpoints"] for c in out["cases"]] == [
        23, 87, 201, 2454, 800, 15967,
    ]
    report(capsys, 5, "triviality two-algorithm agreement on all chain endpoints", ok)


def test_criterion_6_factorization(capsys):
    """Two-point factorization reconstructs, splits divisors, multiplies
    'any' counts, and visibly fails to multiply 'trivial' counts."""
    out = suite_factorization(grid=((2, 1), (2, 2), (3, 1)), qs=(2, 3))
    # the chain ends over every type sequence with points in {0, 1}
    lattices = [c["params"]["lattices"] for c in out["cases"] if "lattices" in c["params"]]
    ok = out["pass"] and lattices == [23, 42, 201, 731, 800, 5800]
    report(capsys, 6, "two-point factorization laws + trivial-count non-factoring witness", ok)


def test_criterion_7_rep_anchors(capsys):
    """Catalan numbers, dual pairings, permutation invariance."""
    t0 = time.perf_counter()
    ok = all(
        invariant_dim(WeightSeq(2, (1,) * (2 * n))) == oracles.ballot_count(2 * n)
        for n in range(1, 7)
    )
    ok = ok and [invariant_dim(WeightSeq(2, (1,) * (2 * n))) for n in range(1, 7)] == [
        1, 2, 5, 14, 42, 132,
    ]
    for m in range(2, 7):
        for j in range(1, m):
            ok = ok and invariant_dim(WeightSeq(m, (j, m - j))) == 1
    for m in (2, 3, 4):
        for n in range(2, 6):
            for w in itertools.product(range(1, m), repeat=n):
                if sum(w) % m != 0:
                    continue
                base = invariant_dim(WeightSeq(m, w))
                for perm in set(itertools.permutations(w)):
                    if invariant_dim(WeightSeq(m, perm)) != base:
                        ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5
    report(capsys, 7, f"representation anchors: Catalan, duals, permutation invariance ({elapsed:.1f}s)", ok)


def test_criterion_8_normal_form_properties(capsys):
    """1000 randomized normal-form postcondition checks per field kind."""
    t0 = time.perf_counter()
    rng = random.Random(20240301)

    def rand_poly(F, maxdeg):
        d = rng.randint(0, maxdeg)
        if F.is_finite:
            els = list(F.elements())
            return Poly(F, [els[rng.randrange(len(els))] for _ in range(d + 1)])
        return Poly(F, [F.from_int(rng.randint(-4, 4)) for _ in range(d + 1)])

    ok = True
    for F in (GF(2), GF(5), QQ):
        cases = 0
        while cases < 1000:
            n = rng.randint(1, 3)
            M = PolyMatrix(F, n, n, [rand_poly(F, 2) for _ in range(n * n)])
            if det(M).is_zero:
                continue
            U, D, V = smith_normal_form(M)
            if not (U * M * V == D and is_unimodular(U) and is_unimodular(V)):
                ok = False
            for t in range(n - 1):
                if not (D.entry(t + 1, t + 1) % D.entry(t, t)).is_zero:
                    ok = False
            H = hermite_basis(M)
            if det(H).monic() != det(M).monic():
                ok = False
            R, degs = column_reduce(M)
            if sum(degs) != det(M).degree:
                ok = False
            cases += 3
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    report(capsys, 8, f"randomized normal-form postconditions, 1000+ per field ({elapsed:.1f}s)", ok)
