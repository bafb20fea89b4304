"""The benchmark's workloads: inputs generated from the seed, the operations
run on them, and the checks on every output.

Inputs are built here with public constructors only (`Lattice`,
`PolyMatrix`, `Poly`, `FiberQuery`), never with the package's own random
generators, so a refactor of `countlab` cannot change what is measured.  The
seed picks points and subspaces; how many inputs of each shape a workload
holds is fixed, so that every seed asks for the same amount of work.
"""

import contextlib
import io
import json
import random

# Exact-z^k fibre counts over the all-zero configuration, (m, types, q) ->
# count, frozen from the package as first benchmarked.  The 1^4 row is
# 2q^2 + 3q + 1; q=7 is its held-out sample.
CENTRAL_COUNTS = {
    (2, (1, 1, 1, 1), 2): 15,
    (2, (1, 1, 1, 1), 3): 28,
    (2, (1, 1, 1, 1), 5): 66,
    (2, (1, 1, 1, 1), 7): 120,
    (2, (1, 1, 1, 1, 1, 1), 2): 87,
    (2, (1, 1, 1, 1, 1, 1), 3): 232,
    (2, (1,) * 8, 2): 543,
    (3, (1, 2, 1, 2), 2): 91,
}
CENTRAL_FIT = (2, (1, 1, 1, 1), (2, 3, 5, 7), [1, 3, 2])  # m, types, qs, coefficients

# Trivial-locus counts over distinct points are the same for every choice of
# the points: the size of the conjugacy class of matrices with those
# eigenvalues, each with one compatible flag.
ANCHOR = (2, 1, (1, 1), (0, 1), 3, 12)
REFERENCE = (3, 1, (1, 1, 1), (0, 1, 2), 3)


def cross_expected(m, types, q):
    return {
        (1, 1): q * (q + 1),
        (1, 2): q**2 * (q * q + q + 1),
        (2, 1): q**2 * (q * q + q + 1),
        (1, 1, 1): q**3 * (q + 1) * (q * q + q + 1),
    }[types]


class Op:
    """One timed operation: `run()` returns its output, `check(output)`
    returns a failure message or None."""

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


class Plan:
    """A workload's fixed op list.  `pass_check(outputs)` checks facts that
    span several ops and returns (op index, message) pairs; `reference` is
    an op traced on its own for the layer shares, or None."""

    def __init__(self, ops, pass_check=None, reference=None):
        self.ops = ops
        self.pass_check = pass_check or (lambda outputs: [])
        self.reference = reference


def build(name, ls, seed):
    """The plan of workload `name` over the latslice modules `ls`."""
    return PLANS[name](ls, random.Random(f"{name}:{seed}"))


# -- cross-count ------------------------------------------------------------


def _count_op(ls, m, k, types, points, q, expected):
    F = ls.fields.GF(q)
    query = ls.countlab.FiberQuery(
        m, k, types, [F.from_int(x) for x in points], F, "trivial"
    )

    def run():
        return (
            ls.countlab.count_chain_fiber(query).count,
            ls.countlab.count_slice_fiber(query).count,
        )

    def check(out):
        chain, slice_ = out
        if chain != slice_:
            return f"chain count {chain} != slice count {slice_}"
        if chain != expected:
            return f"count {chain} != {expected}"
        return None

    return Op(f"m={m} types={types} points={points} q={q}", run, check)


def _cross_count(ls, rng):
    """Distinct-point trivial fibres counted in both models.  No two chains
    share an endpoint, so there is nothing for a state-merging counter to
    merge; the slice side is N x N characteristic polynomials and the chain
    side a triviality test per leaf.  Several queries share (m, k, q).

    Every op is short: a speed sample lands next to each one, and a run
    holds dozens of passes.  So types (1, 2) and (2, 1) run at q=2, and the
    (1, 1, 1) reference query at q=3 (seconds long) runs only in the traced
    run, for the layer shares."""
    m, k, types, points, q, anchor = ANCHOR
    ops = [_count_op(ls, m, k, types, points, q, anchor)]
    # six q=7 ops put the median and the 90th-percentile op among alike ops
    for m, types, q in (
        [(2, (1, 1), q) for q in (3, 5, 7, 7, 7, 7, 7, 7)] + [(3, (1, 2), 2), (3, (2, 1), 2)]
    ):
        points = rng.sample(range(q), len(types))
        ops.append(_count_op(ls, m, 1, types, points, q, cross_expected(m, types, q)))
    reference = _count_op(ls, *REFERENCE, cross_expected(3, REFERENCE[2], 3))
    return Plan(ops, reference=reference)


# -- central-count ----------------------------------------------------------


def _central_op(ls, m, types, q, expected):
    F = ls.fields.GF(q)
    query = ls.countlab.FiberQuery(
        m, sum(types) // m, types, [F.zero] * len(types), F, "exact-zk"
    )

    def run():
        return ls.countlab.count_chain_fiber(query).count

    def check(out):
        return None if out == expected else f"count {out} != {expected}"

    return Op(f"m={m} types={types} q={q}", run, check)


def _central_count(ls, rng):
    """Central fibres, every point 0, exact z^k end.  Chains merge heavily,
    no determinant or Smith form runs, and Hermite canonicalisation in
    `Lattice` carries the time.  The seed changes nothing here."""
    keys = list(CENTRAL_COUNTS)
    ops = [_central_op(ls, m, types, q, CENTRAL_COUNTS[m, types, q]) for m, types, q in keys]

    def pass_check(outputs):
        m, types, qs, coefficients = CENTRAL_FIT
        idx = [keys.index((m, types, q)) for q in qs if (m, types, q) in keys]
        if len(idx) != len(qs):
            return []
        samples = [(q, outputs[i]) for q, i in zip(qs, idx)]
        fit = ls.countlab.fit_q_polynomial(samples, degree=len(qs) - 2)
        lead = ls.reptheory.invariant_dim(ls.reptheory.WeightSeq(m, types))
        if not fit.success:
            problem = f"fit failed: {fit.reason}"
        elif fit.coefficients != coefficients:
            problem = f"fit {fit.coefficients} != {coefficients}"
        elif fit.coefficients[-1] != lead:
            problem = f"leading coefficient {fit.coefficients[-1]} != invariant_dim {lead}"
        else:
            return []
        return [(i, problem) for i in idx]

    return Plan(ops, pass_check)


# -- shared input generation ------------------------------------------------


def _random_step(rng, ls, L, x, j, sample):
    """A colength-j sublattice L' with (z - x) L <= L' <= L: the preimage of
    a random (m - j)-dimensional subspace of L / (z - x) L."""
    F, m = L.field, L.m
    Poly, PolyMatrix = ls.poly.Poly, ls.polymatrix.PolyMatrix
    pivots = sorted(rng.sample(range(m), m - j))
    gens = []
    for pivot in pivots:
        vec = [F.zero] * m
        vec[pivot] = F.one
        for r in range(pivot + 1, m):
            if r not in pivots:
                vec[r] = sample()
        gens.append(L.basis.mul_vec([Poly.const(F, c) for c in vec]))
    gens += L.basis.scale_poly(Poly(F, (F.neg(x), F.one))).columns()
    return ls.lattice.Lattice(F, PolyMatrix.from_cols(F, gens))


def _sampler(rng, F):
    if F.is_finite:
        return lambda: F.from_int(rng.randrange(F.p))
    return lambda: F.from_int(rng.randint(-3, 3))


# -- roundtrip --------------------------------------------------------------

# (field code, m, k, types, chains): four F_5 chains per Q chain, so the
# median op is an F_5 op and the 90th percentile a Q op.  Forty Q chains
# keep that percentile from hanging on a few seeded chains.
ROUNDTRIP_POOL = (
    ("Fp:5", 3, 1, (1, 2), 54),
    ("Fp:5", 3, 1, (1, 1, 1), 54),
    ("Fp:5", 2, 2, (1, 1, 1, 1), 52),
    ("Q", 3, 1, (1, 2), 14),
    ("Q", 3, 1, (1, 1, 1), 14),
    ("Q", 2, 2, (1, 1, 1, 1), 12),
)


def _trivial_chain(rng, ls, F, m, k, types):
    sample = _sampler(rng, F)
    for _ in range(1000):
        points = [sample() for _ in types]
        L = ls.lattice.standard_lattice(m, F)
        lattices = []
        for x, j in zip(points, types):
            L = _random_step(rng, ls, L, x, j, sample)
            lattices.append(L)
        if ls.lattice.quotient_basis_trivial(L, k):
            return ls.lattice.LatticeChain(m, F, points, types, lattices)
    raise RuntimeError(f"no trivial chain of types {types} over {F!r}")


def _roundtrip(ls, rng):
    """Seeded trivial chains over F_5 and Q.  An op runs chain -> slice ->
    chain and slice -> chain -> slice; chain validation (transition
    matrices, Smith forms), quotient presentations and linear solves carry
    the time, and no counter code runs."""
    ops = []
    for code, m, k, types, n in ROUNDTRIP_POOL:
        F = ls.fields.Field.from_code(code)
        for _ in range(n):
            chain = _trivial_chain(rng, ls, F, m, k, types)

            def run(chain=chain):
                p = ls.slicecorr.chain_to_slice(chain)
                back = ls.slicecorr.slice_to_chain(p)
                return p, back, ls.slicecorr.chain_to_slice(back)

            def check(out, chain=chain):
                p, back, again = out
                if back != chain:
                    return "slice_to_chain(chain_to_slice(c)) != c"
                if again != p:
                    return "chain_to_slice(slice_to_chain(p)) != p"
                if p.eigenvalues != chain.points:
                    return "eigenvalues differ from the chain points"
                return None

            ops.append(Op(f"{code} m={m} k={k} types={types}", run, check))
    rng.shuffle(ops)
    return Plan(ops)


# -- lattice-ops ------------------------------------------------------------

# (field code, m, colength, lattices): k = colength / m for the triviality
# test.  The counts are multiples of colength + 1, so every split of the
# colength between 0 and 1 occurs equally often and the seed does not change
# the mix.
LATTICE_POOL = (("Fp:3", 2, 4, 80), ("Q", 3, 9, 20))


def _supported_lattice(rng, ls, F, m, at):
    """A random lattice whose divisor carries colength at[x] at x = 0, 1.

    The steps are the largest minuscule types that fit, in seeded order;
    the seed also picks each step's subspace."""
    sample = _sampler(rng, F)
    steps = []
    for x, c in at.items():
        while c:
            j = min(m - 1, c)
            steps.append((x, j))
            c -= j
    rng.shuffle(steps)
    L = ls.lattice.standard_lattice(m, F)
    for x, j in steps:
        L = _random_step(rng, ls, L, F.from_int(x), j, sample)
    return L


def _cli(ls, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ls.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"latslice {' '.join(argv[:2])} exited {code}")
    return json.loads(buf.getvalue())


def _divisor_map(ls, L):
    std = ls.lattice.standard_lattice(L.m, L.field)
    div = ls.lattice.divisor_of_pair(std, L)
    return {int(x): list(t.entries) for x, t in div.assignments.items()}


def _lattice_ops(ls, rng):
    """Seeded lattices over F_3 and Q supported at {0, 1}.  An op is the
    `latslice lattice` subcommands on one lattice, called in process through
    `cli.main` with JSON in and out: divisor, Hecke type at 0 and at 1,
    splitting type, triviality and factorization."""
    ops = []
    for code, m, colength, n in LATTICE_POOL:
        F = ls.fields.Field.from_code(code)
        k = colength // m
        for i in range(n):
            # every split of the colength between the two points, in turn
            at = {0: i % (colength + 1), 1: colength - i % (colength + 1)}
            L = _supported_lattice(rng, ls, F, m, at)
            payload = json.dumps(ls.serialize.lattice_to_json(L))
            commands = {
                "divisor": ["lattice", "divisor", payload],
                "hecke0": ["lattice", "hecke-type", payload, "--x", "0"],
                "hecke1": ["lattice", "hecke-type", payload, "--x", "1"],
                "splitting": ["lattice", "splitting-type", payload],
                "trivial": ["lattice", "trivial", payload, "--k", str(k)],
                "factorize": ["lattice", "factorize", payload, "--s1", "0", "--s2", "1"],
            }

            def run(commands=commands):
                return {key: _cli(ls, argv) for key, argv in commands.items()}

            def check(out, L=L, at=at, m=m, k=k):
                div = {int(d["point"]): d["type"] for d in out["divisor"]["divisor"]}
                zero = [0] * m
                for x in (0, 1):
                    if sum(div.get(x, zero)) != at[x]:
                        return f"divisor carries {sum(div.get(x, zero))} at {x}, built {at[x]}"
                    if out[f"hecke{x}"]["hecke_type"] != div.get(x, zero):
                        return f"hecke-type at {x} disagrees with the divisor"
                if set(div) - {0, 1}:
                    return "divisor support leaves {0, 1}"
                if out["trivial"]["trivial"] != (out["splitting"]["splitting_type"] == [-k] * m):
                    return "the two triviality tests disagree"
                L1, L2 = (ls.serialize.parse_lattice(f) for f in out["factorize"]["factors"])
                if ls.lattice.intersect(L1, L2) != L:
                    return "intersect(L1, L2) != L"
                for x, factor in ((0, L1), (1, L2)):
                    want = {x: div[x]} if x in div else {}
                    if _divisor_map(ls, factor) != want:
                        return f"factor at {x} does not carry the divisor restricted to {x}"
                return None

            ops.append(Op(f"{code} m={m} colength={colength}", run, check))
    rng.shuffle(ops)
    return Plan(ops)


PLANS = {
    "cross-count": _cross_count,
    "central-count": _central_count,
    "roundtrip": _roundtrip,
    "lattice-ops": _lattice_ops,
}
WORKLOADS = tuple(PLANS)
