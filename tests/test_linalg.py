"""Scalar linear algebra: echelon forms, kernels, subspace enumeration."""

import random

import pytest
import sympy

import oracles
from latslice import linalg
from latslice.fields import GF, QQ
from latslice.reptheory import gaussian_binomial
from test_slicecorr import random_slice


def test_rref_pivots():
    F = GF(5)
    rows = [[1, 2, 3], [2, 4, 1], [0, 0, 4]]
    a, pivots = linalg.rref(F, rows)
    assert pivots == [0, 2]
    assert a[0][:2] == [1, 2]


def test_kernel_basis():
    F = GF(3)
    rows = [[1, 1, 0], [0, 1, 1]]
    ker = linalg.kernel_basis(F, rows)
    assert len(ker) == 1
    assert oracles.mat_vec(F, rows, ker[0]) == [0, 0]


def test_solve_against_sympy():
    rng = random.Random(11)
    singular = 0
    for F in (GF(5), QQ):
        for _ in range(20):
            n, r = rng.randint(1, 4), rng.randint(1, 3)
            A = [[F.from_int(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            B = [[F.from_int(rng.randint(-3, 3)) for _ in range(r)] for _ in range(n)]
            X = linalg.solve(F, A, B)
            M = sympy.Matrix(A)
            d = M.det() % F.p if F.is_finite else M.det()
            if d == 0:
                assert X is None
                singular += 1
                continue
            if F.is_finite:
                want = (M.inv_mod(F.p) * sympy.Matrix(B)).applyfunc(lambda e: e % F.p)
            else:
                want = M.LUsolve(sympy.Matrix(B))
            assert sympy.Matrix(X) == want
    assert singular > 0


def test_canonical_subspace_is_canonical():
    F = GF(3)
    a = linalg.canonical_subspace(F, [[1, 2], [2, 4]])
    b = linalg.canonical_subspace(F, [[2, 4]])
    assert a == b
    assert len(a) == 1


def test_subspace_membership():
    F = GF(2)
    W = linalg.canonical_subspace(F, [[1, 0, 1], [0, 1, 1]])
    assert linalg.subspace_contains(F, W, [1, 1, 0])
    assert not linalg.subspace_contains(F, W, [0, 0, 1])


def test_subspace_enumeration_counts():
    for q in (2, 3):
        F = GF(q)
        for n in range(1, 4):
            for d in range(n + 1):
                got = list(linalg.subspaces(F, n, d))
                assert len(got) == gaussian_binomial(n, d, q)
                assert len({tuple(tuple(c) for c in W) for W in got}) == len(got)


def test_subspaces_containing():
    # I of every rank r, spanned by r seeded vectors plus a redundant one;
    # the result is the filtered full enumeration, [n-r choose d-r]_q of
    # canonical bases, and empty when r > d
    rng = random.Random(20261018)
    key = lambda W: tuple(tuple(c) for c in W)
    for q in (2, 3, 5):
        F = GF(q)
        for n in range(1, 5):
            for r in range(n + 1):
                gens = []
                while linalg.rank(F, gens + [[0] * n]) != r:
                    gens = [[rng.randrange(q) for _ in range(n)] for _ in range(r)]
                gens.append([sum(col) % q for col in zip(*gens)] if gens else [0] * n)
                I = linalg.canonical_subspace(F, gens)
                for d in range(n + 1):
                    got = list(linalg.subspaces(F, n, d, containing=gens))
                    want = {
                        key(W)
                        for W in linalg.subspaces(F, n, d)
                        if all(linalg.subspace_contains(F, W, v) for v in I)
                    }
                    assert len(got) == (gaussian_binomial(n - r, d - r, q) if r <= d else 0)
                    assert len({key(W) for W in got}) == len(got)
                    assert {key(W) for W in got} == want, (q, n, r, d)
                    assert all(W == linalg.canonical_subspace(F, W) for W in got)
                    # the same bases in the same order as a full rref of
                    # I and each lifted quotient subspace
                    pivots = linalg.pivot_rows(F, I)
                    others = [i for i in range(n) if i not in pivots]
                    lifted_order = []
                    for S in linalg.subspaces(F, len(others), d - r) if r <= d else ():
                        lifted = [[0] * n for _ in S]
                        for v, col in zip(lifted, S):
                            for i, c in zip(others, col):
                                v[i] = c
                        lifted_order.append(linalg.canonical_subspace(F, I + lifted))
                    assert got == lifted_order, (q, n, r, d)


def test_char_poly_matches_sympy():
    rng = random.Random(13)
    z = sympy.Symbol("z")
    for _ in range(20):
        n = rng.randint(1, 4)
        A = [[QQ.from_int(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        got = linalg.char_poly(QQ, A)
        expr = sum(int(c) * z**i for i, c in enumerate(got.to_list()))
        expect = sympy.Matrix([[int(e) for e in row] for row in A]).charpoly(z).as_expr()
        assert sympy.expand(expr - expect) == 0


@pytest.mark.parametrize("F", [GF(2), GF(3), GF(5), QQ], ids=repr)
def test_char_poly_hessenberg_branches_match_sympy(F):
    # n = 1..6: dense matrices; the same with a zero subdiagonal entry over a
    # nonzero one further down (the row/column swap); strictly upper
    # triangular and block-diagonal matrices (columns with no pivot, and a
    # zero in the subdiagonal recurrence); and slice matrices at k = 2, 3
    rng = random.Random(20261018)
    z = sympy.Symbol("z")
    entry = lambda: F.from_int(rng.randint(-2, 2))
    matrices = []
    for n in range(1, 7):
        split = rng.randint(1, n)
        swap = [[entry() for _ in range(n)] for _ in range(n)]
        if n >= 3:
            swap[1][0], swap[n - 1][0] = F.zero, F.one
        matrices += [
            [[entry() for _ in range(n)] for _ in range(n)],
            swap,
            [[entry() if j > i else F.zero for j in range(n)] for i in range(n)],
            [[entry() if (i < split) == (j < split) else F.zero for j in range(n)] for i in range(n)],
        ]
    for m, k in ((1, 2), (2, 2), (3, 2), (1, 3), (2, 3)):
        matrices.append(random_slice(rng, F, m, k).entries)
    for A in matrices:
        want = sympy.Matrix([[int(e) for e in row] for row in A]).charpoly(z).all_coeffs()
        got = linalg.char_poly(F, A)
        assert list(got.coeffs) == [F.from_int(int(c)) for c in reversed(want)], A
