"""Finite-field enumeration of fibers in both models, exact polynomial-in-q
fitting, and the cross-model verification suites."""

import random
import time
from fractions import Fraction
from itertools import permutations, product
from math import prod
from operator import mul

from . import linalg
from .fields import GF, QQ
from .lattice import (
    Lattice,
    LatticeChain,
    divisor_of_pair,
    factorize,
    intersect,
    quotient_basis_trivial,
    splitting_type,
    standard_lattice,
    transition_matrix,
)
from .poly import Poly
from .polymatrix import PolyMatrix
from .reptheory import WeightSeq, gaussian_binomial, invariant_dim
from .slicecorr import (
    Flag,
    SliceMatrix,
    SlicePoint,
    base_point,
    chain_to_slice,
    slice_to_chain,
    target_poly,
)

END_CONDITIONS = ("any", "trivial", "exact-zk")

# The slice model is enumerated matrix by matrix: q^(m*m*k) of them.  The
# largest space the suites and tests enumerate is 3^9.
MAX_SLICE_MATRICES = 10**5


class FiberQuery:
    def __init__(self, m, k, types, points, field, end_condition="any"):
        if end_condition not in END_CONDITIONS:
            raise ValueError(f"unknown end condition {end_condition!r}")
        if k < 1:
            raise ValueError("k must be positive")
        self.m = m
        self.k = k
        self.types = types if isinstance(types, WeightSeq) else WeightSeq(m, types)
        if self.types.m != m:
            raise ValueError(f"types of rank {self.types.m} in a query of rank {m}")
        self.points = tuple(points)
        self.field = field
        kinds = int if field.is_finite else (int, Fraction)
        for x in self.points:
            if isinstance(x, bool) or not isinstance(x, kinds):
                raise ValueError(f"point {x!r} is not an element of {field!r}")
        self.end_condition = end_condition
        if len(self.points) != len(self.types):
            raise ValueError("points and types must have equal length")
        if end_condition != "any" and self.types.total != m * k:
            raise ValueError("total type must equal m*k for a trivial/exact end")

    def __repr__(self):
        return (
            f"FiberQuery(m={self.m}, k={self.k}, types={self.types.entries}, "
            f"points={self.points}, field={self.field!r}, end={self.end_condition})"
        )

    def to_json(self):
        return {
            "m": self.m,
            "k": self.k,
            "types": list(self.types.entries),
            "points": [self.field.to_json(x) for x in self.points],
            "field": self.field.code,
            "end": self.end_condition,
        }


class CountReport:
    def __init__(self, query, count, elapsed_ms, witnesses=None):
        self.query = query
        self.count = count
        self.elapsed_ms = elapsed_ms
        self.witnesses = witnesses
        if witnesses is not None and count != len(witnesses):
            raise ValueError("witness list does not match the count")

    def to_json(self):
        out = {
            "query": self.query.to_json(),
            "count": self.count,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.witnesses is not None:
            out["witnesses"] = len(self.witnesses)
        return out


def step_choices(L, x, j, containing=()):
    """All sublattices L' with (z-x) L <= L' <= L and colength(L, L') = j:
    the codimension-j subspaces of the m-dimensional quotient L/(z-x)L, in
    coordinates of L's basis.  With `containing`, a list of such coordinate
    vectors, only the L' whose subspace contains their span."""
    F = L.field
    if not F.is_finite:
        raise ValueError("step enumeration needs a finite field")
    m = L.m
    if not 1 <= j <= m - 1:
        raise ValueError("need 1 <= j <= m-1")
    return list(_steps(L, x, j, containing))


def _steps(L, x, j, containing):
    """The lattices of `step_choices`, one at a time, in the order in which
    `linalg.subspaces` yields their subspaces."""
    F = L.field
    shifted = L.basis.scale_poly(Poly(F, (F.neg(x), F.one))).columns()
    for S in linalg.subspaces(F, L.m, L.m - j, containing):
        yield _preimage(L, shifted, S)


def _preimage(L, shifted, vecs):
    """The lattice between (z-x)L and L whose image in L/(z-x)L is the span
    S of the coordinate vectors `vecs`; shifted[r] is (z-x) B e_r, for B the
    basis of L.

    Generated by the B v, v in vecs, and the shifted[r] for the rows r that
    are not pivot rows of S: m generators when vecs is a basis of S.  The
    others follow.  Let s_c be the reduced echelon basis vector of S with
    pivot row r_c (1 there, 0 at the other pivot rows), a combination of
    vecs over k.  Then (z-x) B s_c lies in the module, and
    shifted[r_c] = (z-x) B s_c - sum over non-pivot rows r of s_c[r] shifted[r]."""
    F = L.field
    pivots = linalg.rref(F, vecs)[1]
    gens = [L.basis.mul_vec([Poly.const(F, c) for c in v]) for v in vecs]
    gens += [col for r, col in enumerate(shifted) if r not in pivots]
    return Lattice(F, PolyMatrix.from_cols(F, gens))


def _chain_ends(m, k, field, points):
    """The ends of all lattice chains of total colength m*k with every step
    at one of the points, over every type sequence: the lattices reached
    from k[z]^m by minuscule steps, collected one colength level at a time."""
    total = m * k
    levels = [{standard_lattice(m, field)}] + [set() for _ in range(total)]
    for c in range(total):
        for L in levels[c]:
            for x in points:
                for j in range(1, min(m - 1, total - c) + 1):
                    levels[c + j].update(step_choices(L, x, j))
    return levels[total]


def _end_test(query):
    """The query's end condition as (target, end_ok): `end_ok` is the
    predicate the last lattice must satisfy, and `target` is z^k k[z]^m for
    exact-z^k, built once, else None.

    Every lattice of a chain contains its end, so an exact-z^k chain only
    steps to lattices that contain target, and its last lattice needs no
    test: it contains target and has colength sum pi_i = mk in k[z]^m, the
    colength of target, so it is target."""
    F, k = query.field, query.k
    if query.end_condition == "any":
        return None, lambda L: True
    if query.end_condition == "trivial":
        return None, lambda L: quotient_basis_trivial(L, k)
    zk = Poly.monomial(F, F.one, k)
    return Lattice(F, PolyMatrix.identity(F, query.m).scale_poly(zk)), lambda L: True


def _image_at(L, inner, x):
    """The image of the sublattice `inner` in L/(z-x)L, in coordinates of
    L's basis: the columns of the transition matrix evaluated at z = x."""
    return [[p.eval(x) for p in col] for col in transition_matrix(L, inner).columns()]


def count_chain_fiber(query, witnesses=False):
    """Lattice chains for the query, filtered by its end condition, counted
    level by level.  Each level maps every lattice reached to the number of
    chains that reach it, or with witnesses to their tuples of lattices, so
    chains through one lattice share its step choices; the end condition is
    tested once per distinct last lattice.  An exact-z^k count enumerates
    only the steps whose lattice contains z^k k[z]^m.

    A count without witnesses walks from one first step only.  A constant
    g in GL_m(F_q) fixes k[z]^m, z^k k[z]^m and the span of the monomials
    z^t e_j (t < k), so it maps the chains at the query's points onto
    themselves and keeps every end condition; and it permutes the first
    steps, the codimension-j_1 subspaces of k[z]^m/(z-x_1)k[z]^m = F_q^m,
    transitively.  So each first step starts equally many chains, and the
    first one `linalg.subspaces` yields stands for all [m choose j_1]_q of
    them.  When no first step contains the image of z^k k[z]^m (exact-z^k
    with x_1 != 0) the count is 0.  Witnesses come from the full walk."""
    F = query.field
    if not F.is_finite:
        raise ValueError("chain counting needs a finite field")
    t0 = time.perf_counter()
    target, end_ok = _end_test(query)
    std = standard_lattice(query.m, F)
    steps = list(zip(query.points, query.types.entries))
    frontier = {std: [()] if witnesses else 1}
    if steps and not witnesses:
        (x, j), steps = steps[0], steps[1:]
        image = () if target is None else _image_at(std, target, x)
        first = next(_steps(std, x, j, image), None)
        frontier = {} if first is None else {first: gaussian_binomial(query.m, j, F.p)}
    for x, j in steps:
        reached = {}
        for L, paths in frontier.items():
            image = () if target is None else _image_at(L, target, x)
            for nxt in step_choices(L, x, j, image):
                if witnesses:
                    reached.setdefault(nxt, []).extend(p + (nxt,) for p in paths)
                else:
                    reached[nxt] = reached.get(nxt, 0) + paths
        frontier = reached
    ends = [paths for L, paths in frontier.items() if end_ok(L)]
    if witnesses:
        wit = [
            LatticeChain(query.m, query.field, query.points, query.types.entries, p)
            for paths in ends
            for p in paths
        ]
        count = len(wit)
    else:
        wit = None
        count = sum(ends)
    elapsed = int((time.perf_counter() - t0) * 1000)
    return CountReport(query, count, elapsed, wit)


def _block_rows(m, k, field, trace):
    """The last block columns of the slice matrices of the given trace over
    a finite field, each as its N rows of m entries; q^(m*m*k - 1) of them.
    The free entries run through F_q row by row, but the last one, the last
    diagonal entry of Y, is solved from the trace.  A space of more than
    MAX_SLICE_MATRICES matrices in all is refused before the first is made."""
    if not field.is_finite:
        raise ValueError("slice enumeration needs a finite field")
    p = field.p
    size = p ** (m * m * k)
    if size > MAX_SLICE_MATRICES:
        raise ValueError(
            f"the slice space at m={m}, k={k}, q={p} holds {p}^{m * m * k}"
            f" = {size} matrices, over the limit of {MAX_SLICE_MATRICES}"
        )
    N = m * k
    # positions in `values` of the diagonal of the last block but its last
    # entry
    diagonal = [(N - m + i) * m + i for i in range(m - 1)]
    for values in product(field.elements(), repeat=m * m * k - 1):
        values += ((trace - sum(values[d] for d in diagonal)) % p,)
        yield [values[r : r + m] for r in range(0, N * m, m)]


def _stable_flags(Y, points, types):
    """All flags W_1 < ... < W_n = k^N compatible with the slice matrix Y
    over a finite field: Y-stable steps, scalar x_(n-i+1) and jump
    pi_(n-i+1) on W_i/W_(i-1).

    The walk goes down from W_n = k^N, as a chain goes down from k[z]^m:
    W_(i-1) is a subspace of W_i of codimension pi_(n-i+1) that contains
    (Y - x_(n-i+1)) W_i, which makes it Y-stable too; a walk that does not
    end at W_0 = 0 yields nothing.  Each W is a reduced column echelon basis
    carried with its pivot rows.  W is Y-stable, so (Y - x) w lies in W for
    each column w, and its entries at W's pivot rows are its coordinates in
    W: only those entries are computed, from Y's rows.  A subspace S of
    those coordinates, combined back from W's columns, is again in reduced
    column echelon form, and the pivot row of the column W s is the pivot
    row of W's column at the pivot of s."""
    p, N = Y.field.p, Y.N
    n = len(points)

    def down(i, W, pivots):
        """The flags [W_1, ..., W_i] that end at W."""
        if i == 0:
            if not W:
                yield []
            return
        x, d = points[n - i], types[n - i]
        rows = [Y.entries[r] for r in pivots]
        coords = [
            [(sum(map(mul, row, w)) - (x if r == c else 0)) % p for r, row in enumerate(rows)]
            for c, w in enumerate(W)
        ]
        W_rows = list(zip(*W))
        for S in linalg.subspaces(Y.field, len(W), len(W) - d, coords):
            lower = [[sum(map(mul, s, row)) % p for row in W_rows] for s in S]
            lower_pivots = [pivots[next(c for c, e in enumerate(s) if e)] for s in S]
            for flags in down(i - 1, lower, lower_pivots):
                flags.append(W)
                yield flags

    identity = [[int(r == c) for r in range(N)] for c in range(N)]
    yield from down(n, identity, list(range(N)))


def count_slice_fiber(query, witnesses=False):
    """Enumerate slice matrices with the prescribed characteristic polynomial
    and their compatible flags; the slice model is the trivial locus, so the
    end condition must be 'trivial'.

    The characteristic polynomial prod (z - x_i)^pi_i fixes the trace of Y
    at sum pi_i x_i, so only the matrices of that trace are enumerated, by
    `_block_rows`; each still has its characteristic polynomial computed and
    compared, on its dense rows, and a SliceMatrix is built only when it
    matches."""
    if not query.field.is_finite:
        raise ValueError("slice counting needs a finite field")
    if query.end_condition != "trivial":
        raise ValueError("the slice model counts the trivial locus only")
    t0 = time.perf_counter()
    F, m, k = query.field, query.m, query.k
    target = target_poly(F, query.points, query.types.entries)
    trace = F.neg(target.coeff(target.degree - 1))  # sum pi_i x_i
    pattern = [row[: m * k - m] for row in base_point(m, k, F).entries]
    matrices = (
        SliceMatrix(m, k, F, zip(*rows))
        for rows in _block_rows(m, k, F, trace)
        if linalg.char_poly(F, list(map(tuple.__add__, pattern, rows))) == target
    )
    count = 0
    found = [] if witnesses else None
    for Y in matrices:
        for flags in _stable_flags(Y, query.points, query.types.entries):
            count += 1
            if witnesses:
                found.append(SlicePoint(Y, Flag(F, Y.N, flags), query.points))
    elapsed = int((time.perf_counter() - t0) * 1000)
    return CountReport(query, count, elapsed, found)


class FitResult:
    def __init__(self, success, coefficients=None, reason=None):
        self.success = success
        self.coefficients = coefficients  # ascending powers of q
        self.reason = reason

    @property
    def degree(self):
        return len(self.coefficients) - 1 if self.coefficients else None

    def eval(self, q):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * q + c
        return acc

    def to_json(self):
        if self.success:
            return {"success": True, "coefficients": list(self.coefficients)}
        return {"success": False, "reason": self.reason}


def fit_q_polynomial(samples, degree=None):
    """Exact Lagrange interpolation of (q, count) samples over the rationals.

    When degree is given, the first degree+1 samples interpolate and the rest
    are held-out checks; otherwise all samples interpolate.  Success requires
    nonnegative integer coefficients and matching held-out samples.  An
    empty sample list is refused.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("no samples to fit")
    if degree is None:
        fit_pts, held = samples, []
    else:
        if len(samples) < degree + 1:
            raise ValueError("not enough samples for the requested degree")
        fit_pts, held = samples[: degree + 1], samples[degree + 1 :]
    qs = [q for q, _ in fit_pts]
    if len(set(qs)) != len(qs):
        raise ValueError("sample q values must be distinct")
    fit = Poly.zero(QQ)
    for qi, ci in fit_pts:
        basis = Poly.from_roots(QQ, [QQ.from_int(qj) for qj, _ in fit_pts if qj != qi])
        fit = fit + basis.scale(QQ.div(QQ.from_int(ci), basis.eval(QQ.from_int(qi))))
    coeffs = fit.coeffs
    if not coeffs:
        coeffs = (QQ.zero,)  # all-zero samples fit as [0]
    if any(c.denominator != 1 or c < 0 for c in coeffs):
        return FitResult(False, reason="coefficients are not nonnegative integers")
    ints = [int(c) for c in coeffs]
    res = FitResult(True, ints)
    for q, c in held:
        if res.eval(q) != c:
            return FitResult(False, reason=f"held-out sample at q={q} mismatches")
    return res


# ---------------------------------------------------------------------------
# verification suites


DEFAULT_GRID = ((2, 1, (1, 1)), (2, 2, (1, 1, 1, 1)), (3, 1, (1, 2)), (3, 1, (1, 1, 1)))
# (m, k) pairs for the suites that range over every type sequence
PAIR_GRID = ((2, 1), (2, 2), (3, 1))


def _case(params, expected, actual):
    return {
        "params": params,
        "expected": expected,
        "actual": actual,
        "pass": expected == actual,
    }


def _configurations(grid, qs, end):
    """(m, k, types, field, queries) for each grid entry and q, with one
    query per configuration of distinct points of F_q."""
    for m, k, types in grid:
        for q in qs:
            F = GF(q)
            queries = [
                FiberQuery(m, k, types, pts, F, end)
                for pts in permutations(F.elements(), len(types))
            ]
            yield m, k, types, F, queries


def _params(query, **extra):
    """The params of a case that checks one query."""
    return {
        "m": query.m,
        "k": query.k,
        "types": list(query.types.entries),
        "points": list(query.points),
        "q": query.field.p,
        **extra,
    }


def suite_counts_equal(grid=DEFAULT_GRID, qs=(2, 3)):
    """Cross-model equality: trivial chain count = slice count (the bijection
    at the level of F_q points), per configuration, each side counted by its
    own counter."""
    cases = []
    for *_, queries in _configurations(grid, qs, "trivial"):
        for query in queries:
            expected = count_chain_fiber(query).count
            cases.append(_case(_params(query), expected, count_slice_fiber(query).count))
    return _suite_report("counts-equal", cases)


ROUNDTRIP_SEED = 20240229


def suite_roundtrip(grid=DEFAULT_GRID, qs=(2, 3), randoms=200):
    """Both roundtrip identities on every trivial-locus witness enumerated
    over distinct-point configurations, plus random chains over F_5 and Q."""
    cases = []
    for *_, queries in _configurations(grid, qs, "trivial"):
        for query in queries:
            report = count_chain_fiber(query, witnesses=True)
            bad = 0
            for chain in report.witnesses:
                p = chain_to_slice(chain)
                back = slice_to_chain(p)
                if back != chain or chain_to_slice(back) != p:
                    bad += 1
            cases.append(_case(_params(query, witnesses=report.count), 0, bad))
    rng = random.Random(ROUNDTRIP_SEED)
    for m, k, types in grid:
        for field in (GF(5), QQ):
            bad = 0
            produced = 0
            attempts = 0
            while produced < randoms and attempts < randoms * 400:
                attempts += 1
                chain = _random_trivial_chain(rng, m, k, types, field)
                if chain is None:
                    continue
                produced += 1
                p = chain_to_slice(chain)
                if slice_to_chain(p) != chain:
                    bad += 1
            cases.append(
                _case(
                    {
                        "m": m,
                        "k": k,
                        "types": list(types),
                        "field": field.code,
                        "random_chains": produced,
                        "requested": randoms,
                    },
                    (0, randoms),
                    (bad, produced),
                )
            )
    return _suite_report("roundtrip", cases)


def _random_step(rng, L, x, j):
    """A random colength-j sublattice with (z-x)L <= L' <= L."""
    F = L.field
    m = L.m
    if F.is_finite:
        els = list(F.elements())
        sample = lambda: els[rng.randrange(len(els))]
    else:
        sample = lambda: F.from_int(rng.randint(-3, 3))
    shifted = L.basis.scale_poly(Poly(F, (F.neg(x), F.one))).columns()
    for _ in range(50):
        vecs = [[sample() for _ in range(m)] for _ in range(m - j)]
        if linalg.rank(F, vecs) == m - j:
            return _preimage(L, shifted, vecs)
    return None


def _random_trivial_chain(rng, m, k, types, field):
    n = len(types)
    if field.is_finite:
        els = list(field.elements())
        points = tuple(els[rng.randrange(len(els))] for _ in range(n))
    else:
        points = tuple(field.from_int(rng.randint(-4, 4)) for _ in range(n))
    L = standard_lattice(m, field)
    lattices = []
    for x, j in zip(points, types):
        L = _random_step(rng, L, x, j)
        if L is None:
            return None
        lattices.append(L)
    if not quotient_basis_trivial(lattices[-1], k):
        return None
    return LatticeChain(m, field, points, types, lattices)


def suite_triviality_agree(grid=PAIR_GRID, qs=(2, 3)):
    """Two independent algorithms for the triviality condition must agree on
    every chain endpoint: monomial quotient basis <-> constant splitting."""
    cases = []
    for m, k in grid:
        for q in qs:
            F = GF(q)
            endpoints = _chain_ends(m, k, F, F.elements())
            disagreements = 0
            for L in endpoints:
                a = quotient_basis_trivial(L, k)
                b = splitting_type(L) == (-k,) * m
                if a != b:
                    disagreements += 1
            cases.append(
                _case(
                    {"m": m, "k": k, "q": q, "endpoints": len(endpoints)},
                    0,
                    disagreements,
                )
            )
    return _suite_report("triviality-agree", cases)


def suite_factorization(grid=PAIR_GRID, qs=(2, 3)):
    """Factorization over two disjoint points: reconstruction by intersection,
    Hecke types split by support, the 'any'-count product law, and a witnessed
    failure of the product law for 'trivial' counts."""
    cases = []
    for m, k in grid:
        for q in qs:
            F = GF(q)
            a, b = F.from_int(0), F.from_int(1)
            std = standard_lattice(m, F)
            # all endpoints of chains marked at the two points (any mix)
            endpoints = _chain_ends(m, k, F, (a, b))
            bad = 0
            for L in endpoints:
                L1, L2 = factorize(L, {a}, {b})
                div = divisor_of_pair(std, L)
                ok = (
                    intersect(L1, L2) == L
                    and divisor_of_pair(std, L1) == div.restrict({a})
                    and divisor_of_pair(std, L2) == div.restrict({b})
                )
                if not ok:
                    bad += 1
            cases.append(
                _case({"m": m, "k": k, "q": q, "lattices": len(endpoints)}, 0, bad)
            )
            # 'any' count product law over a split configuration
            types = (1,) * (m * k)
            half = len(types) // 2
            pts = (a,) * half + (b,) * (len(types) - half)
            whole = count_chain_fiber(FiberQuery(m, k, types, pts, F, "any")).count
            left = count_chain_fiber(
                FiberQuery(m, k, types[:half], pts[:half], F, "any")
            ).count
            right = count_chain_fiber(
                FiberQuery(m, k, types[half:], pts[half:], F, "any")
            ).count
            cases.append(
                _case(
                    {"m": m, "k": k, "q": q, "law": "any-product"},
                    whole,
                    left * right,
                )
            )
    # the trivial locus does not factor: witnessed counterexample
    F = GF(2)
    a, b = 0, 1
    pts = (a, a, b, b)
    whole = count_chain_fiber(FiberQuery(2, 2, (1, 1, 1, 1), pts, F, "trivial")).count
    left = count_chain_fiber(FiberQuery(2, 1, (1, 1), (a, a), F, "trivial")).count
    right = count_chain_fiber(FiberQuery(2, 1, (1, 1), (b, b), F, "trivial")).count
    cases.append(
        _case(
            {"witness": "trivial counts do not factor", "q": 2,
             "whole": whole, "left": left, "right": right},
            True,
            whole != left * right,
        )
    )
    return _suite_report("factorization", cases)


def suite_product_fibre(grid=DEFAULT_GRID, qs=(2, 3)):
    """Regular-fibre product law: the 'any' count over distinct points is the
    product of Gaussian binomials."""
    cases = []
    for m, k, types, F, queries in _configurations(grid, qs, "any"):
        expected = prod(gaussian_binomial(m, j, F.p) for j in types)
        for query in queries:
            cases.append(_case(_params(query), expected, count_chain_fiber(query).count))
        if not queries:
            cases.append(
                _case(
                    {"m": m, "k": k, "q": F.p, "note": "no distinct configurations at this q"},
                    0,
                    0,
                )
            )
    return _suite_report("product-fibre", cases)


def suite_central_leading(m=2, types=(1, 1, 1, 1), qs=(2, 3, 5), held_out=None):
    """Central-fibre law: exact-z^k counts over the all-zero configuration fit
    a polynomial in q whose degree is half the fibre dimension and whose
    leading coefficient is the invariant dimension."""
    w = WeightSeq(m, types)
    if w.total % m:
        raise ValueError("types must satisfy the root-lattice condition")
    k = w.total // m
    samples = []
    for q in tuple(qs) + ((held_out,) if held_out else ()):
        F = GF(q)
        query = FiberQuery(m, k, types, (F.zero,) * len(types), F, "exact-zk")
        samples.append((q, count_chain_fiber(query).count))
    fit = fit_q_polynomial(samples, degree=len(qs) - 1 if held_out else None)
    cases = [
        _case({"samples": samples, "check": "integer fit"}, True, fit.success)
    ]
    if fit.success:
        half_dim = sum(j * (m - j) for j in types) // 2
        cases.append(_case({"check": "degree = half fibre dimension"}, half_dim, fit.degree))
        cases.append(
            _case(
                {"check": "leading coefficient = invariant dimension"},
                invariant_dim(w),
                fit.coefficients[-1],
            )
        )
    return _suite_report("central-leading", cases)


def _suite_report(name, cases):
    # a suite that checked nothing has not passed
    return {"suite": name, "cases": cases, "pass": bool(cases) and all(c["pass"] for c in cases)}


SUITES = {
    "roundtrip": suite_roundtrip,
    "counts-equal": suite_counts_equal,
    "triviality-agree": suite_triviality_agree,
    "factorization": suite_factorization,
    "product-fibre": suite_product_fibre,
    "central-leading": suite_central_leading,
}


def verify_suite(name, **budget):
    """Run one named verification suite; returns its structured report."""
    if name == "all":
        # suites have distinct budget signatures; 'all' runs each with its
        # documented defaults
        reports = [suite() for suite in SUITES.values()]
        return {
            "suite": "all",
            "reports": reports,
            "pass": all(r["pass"] for r in reports),
        }
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](**budget)
