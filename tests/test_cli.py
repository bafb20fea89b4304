"""Command-line interface: subcommands, payload channels, exit codes."""

import argparse
import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latslice import cli, serialize, slicecorr
from latslice.countlab import _random_trivial_chain
from latslice.fields import GF, QQ
from latslice.lattice import hecke_type_at, standard_lattice
from latslice.poly import Poly
from latslice.polymatrix import PolyMatrix
from test_exactalg import time_limit


def run(*args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "latslice.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )
    return proc


LAT = json.dumps({"field": "Fp:3", "m": 2, "basis": [[[0, 1], [0]], [[1], [0, 1]]]})
LAT_Q = {"field": "Q", "m": 1, "basis": [[[0, 1]]]}

CHAIN = json.dumps(
    {
        "field": "Fp:3",
        "m": 2,
        "points": ["0", "1"],
        "types": [1, 1],
        "lattices": [
            [[[0, 1], [0]], [[0], [1]]],
            [[[0, 1], [0]], [[0], [-1, 1]]],
        ],
    }
)

# the slice point of CHAIN, as `chain to-slice` prints it
POINT = json.dumps(
    {
        "field": "Fp:3",
        "m": 2,
        "k": 1,
        "Y": [[0, 0], [0, 1]],
        "flag": [[[0, 1]], [[1, 0], [0, 1]]],
        "eigenvalues": [0, 1],
    }
)

# m=2, k=2 over F_2: the base point with entry (0, 0) set, which the slice
# pattern fixes at 0 when k > 1
OFF_PATTERN = json.dumps(
    {
        "field": "Fp:2",
        "m": 2,
        "k": 2,
        "Y": [[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]],
        "flag": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]],
        "eigenvalues": [1],
    }
)

# one payload per command with the entry "@" to put a literal in
MARKED_PAYLOADS = {
    "lattice divisor": json.dumps(dict(LAT_Q, basis=[[["@", 1]]])),
    "chain validate": json.dumps(dict(json.loads(CHAIN), field="Q", points=["0", "@"])),
    "slice validate": json.dumps(dict(json.loads(POINT), field="Q", eigenvalues=[0, "@"])),
    "count fit": json.dumps({"samples": [[2, "@"], [3, 4]]}),
}


class TestLattice:
    def test_hecke_type(self):
        proc = run("lattice", "hecke-type", "--x", "0", LAT)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["hecke_type"] == [2, 0]

    def test_dash_led_value_after_equals(self, capsys):
        # argparse reads "--x -1/2" as two options; "--x=-1/2" keeps the value
        payload = json.dumps(dict(LAT_Q, basis=[[[1, 2]]]))  # 1 + 2z vanishes at -1/2
        assert cli.main(["lattice", "hecke-type", payload, "--x=-1/2"]) == 0
        assert json.loads(capsys.readouterr().out)["hecke_type"] == [1]

    def test_divisor(self):
        proc = run("lattice", "divisor", LAT)
        assert json.loads(proc.stdout)["divisor"] == [{"point": 0, "type": [2, 0]}]

    def test_trivial_true(self):
        zk = json.dumps({"field": "Fp:2", "m": 2, "basis": [[[0, 1], [0]], [[0], [0, 1]]]})
        proc = run("lattice", "trivial", "--k", "1", zk)
        assert proc.returncode == 0 and json.loads(proc.stdout)["trivial"] is True

    def test_factorize(self):
        rec = json.dumps(
            {"field": "Q", "m": 2, "basis": [[[0, 1], [0]], [[0], [-1, 1]]]}
        )
        proc = run("lattice", "factorize", "--s1", "0", "--s2", "1", rec)
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert len(out["factors"]) == 2

    def test_factorize_huge_root_needs_no_root_search(self, capsys):
        # span((z - r) e1, e2) over Q: a rational root search of z - r by
        # trial division over the divisors of r does not finish
        r = 10**30 + 39
        payload = json.dumps({"field": "Q", "m": 2, "basis": [[[-r, 1], [0]], [[0], [1]]]})
        with time_limit(10):
            assert cli.main(["lattice", "factorize", payload, "--s1", str(r), "--s2", "1"]) == 0
        assert len(json.loads(capsys.readouterr().out)["factors"]) == 2
        with time_limit(10):
            assert cli.main(["lattice", "factorize", payload, "--s1", "0", "--s2", "1"]) == 1
        assert "divisor support not covered by the point sets" in capsys.readouterr().err

    def test_divisor_of_huge_linear_root(self, capsys):
        # span((z - r) e1, e2) over Q: det is z - r, whose root is read off
        r = 10**30 + 39
        payload = json.dumps({"field": "Q", "m": 2, "basis": [[[-r, 1], [0]], [[0], [1]]]})
        with time_limit(10):
            assert cli.main(["lattice", "divisor", payload]) == 0
        assert json.loads(capsys.readouterr().out)["divisor"] == [{"point": r, "type": [1, 0]}]

    @pytest.mark.parametrize(
        "coeffs, bound",
        [
            # (z - r)(z - 1), r = 10^30 + 39: the divisors of r are not listed
            ([10**30 + 39, -(10**30 + 40), 1], "exceeds the bound 10^12"),
            # n z^2 + z + n, n = 963761198400 < 10^12 with 6720 divisors:
            # 6720^2 candidate roots c/d are not tried
            ([963761198400, 1, 963761198400], "exceed the bound 10^5"),
        ],
        ids=["numerator", "candidates"],
    )
    def test_divisor_search_over_the_bound_refused(self, coeffs, bound, capsys):
        payload = json.dumps({"field": "Q", "m": 2, "basis": [[coeffs, [0]], [[0], [1]]]})
        with time_limit(10):
            assert cli.main(["lattice", "divisor", payload]) == 1
        assert bound in capsys.readouterr().err

    def test_divisor_over_a_large_prime_field(self, capsys):
        # det (z^2 + 3z + 5)(z + 7): the quadratic is left after 10^5
        # elements of F_(10^9 + 7) are tried
        F = "Fp:1000000007"
        payload = json.dumps({"m": 2, "field": F, "basis": [[[5, 3, 1], [0]], [[2], [7, 1]]]})
        with time_limit(10):
            assert cli.main(["lattice", "divisor", payload]) == 1
        assert "a factor of degree 3 is left after 10^5 elements" in capsys.readouterr().err
        # det z^2 (z - 1): linear once the root 0 is divided out
        payload = json.dumps({"m": 2, "field": F, "basis": [[[0, 0, 1], [0]], [[5], [-1, 1]]]})
        with time_limit(10):
            assert cli.main(["lattice", "divisor", payload]) == 0
        assert json.loads(capsys.readouterr().out)["divisor"] == [
            {"point": 0, "type": [2, 0]},
            {"point": 1, "type": [1, 0]},
        ]

    @pytest.mark.parametrize("p", [10**18 + 3, 10**39 + 3], ids=["19-digit", "40-digit"])
    def test_large_characteristic_refused(self, p, capsys):
        # refused before a primality test by trial division up to sqrt(p)
        payload = json.dumps({"m": 1, "field": f"Fp:{p}", "basis": [[[0, 1]]]})
        count = ["count", "chain-fiber", "--m", "2", "--k", "1", "--weights", "1,1",
                 "--points", "0,1", "--end", "trivial"]
        for argv, code in (
            (["lattice", "trivial", payload, "--k", "1"], 2),
            ([*count, "--field", f"Fp:{p}"], 1),
            (["verify", "roundtrip", "--qs", str(p)], 1),
        ):
            with time_limit(10):
                assert cli.main(argv) == code, argv
            assert f"characteristic {p} exceeds the bound 10^12" in capsys.readouterr().err


@st.composite
def lattice_payloads(draw):
    """(payload, colength, points, singular): a lattice over GF(3) or Q with
    m = 2 or 3, drawn in Hermite form with diagonals supported on the
    points (over Q: 0, 1, 1/2 and, at times, the rootless z^2 - 2), then at
    times regenerated by elementary column operations and a column
    permutation, or made singular by repeating a column."""
    F = draw(st.sampled_from((GF(3), QQ)))
    m = draw(st.integers(2, 3))
    points = ["0", "1", "2"] if F.is_finite else ["0", "1", "1/2"]
    if F.is_finite:
        element = st.integers(0, 2)
    else:
        element = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2)))
    diagonal = []
    for _ in range(m):
        d = Poly.from_roots(F, [F.parse(x) for x in points for _ in range(draw(st.integers(0, 2)))])
        if not F.is_finite and draw(st.integers(0, 5)) == 0:
            d = d * Poly(F, (F.from_int(-2), F.zero, F.one))
        diagonal.append(d)
    cols = []
    for i in range(m):
        col = [Poly(F, draw(st.lists(element, max_size=int(diagonal[r].degree)))) for r in range(i)]
        cols.append(col + [diagonal[i]] + [Poly.zero(F)] * (m - i - 1))
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 4))):
            i, j = draw(st.permutations(range(m)))[:2]
            f = Poly(F, draw(st.lists(element, max_size=2)))
            cols[j] = [a + f * b for a, b in zip(cols[j], cols[i])]
        cols = draw(st.permutations(cols))
    singular = draw(st.integers(0, 9)) == 0
    if singular:
        cols[-1] = cols[0]
    basis = serialize.basis_to_json(PolyMatrix.from_cols(F, cols))
    payload = json.dumps({"field": F.code, "m": m, "basis": basis})
    return payload, sum(int(d.degree) for d in diagonal), points, singular


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestLatticePayloadProperties:
    """No lattice payload makes `divisor`, `hecke-type` or `factorize`
    print a traceback: each exits 0, 1 or 2, and a divisor printed with
    exit 0 has the colength as its total."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(case=lattice_payloads(), data=st.data())
    def test_exit_codes_without_traceback(self, case, data):
        payload, colength, points, singular = case
        x = data.draw(st.sampled_from(points + ["2"]))
        s1 = data.draw(st.lists(st.sampled_from(points), unique=True))
        s2 = [p for p in points if p not in s1]
        for argv in (
            ["lattice", "divisor", payload],
            ["lattice", "hecke-type", payload, "--x", x],
            ["lattice", "factorize", payload, "--s1", ",".join(s1), "--s2", ",".join(s2)],
        ):
            code, out, err = call(argv)
            assert code in (0, 1, 2) and "Traceback" not in err, (argv, err)
            assert (code == 2) == singular, (argv, err)
            if code == 0 and argv[1] == "divisor":
                divisor = json.loads(out)["divisor"]
                assert sum(sum(entry["type"]) for entry in divisor) == colength


class TestTrivialityPayloadProperties:
    """No lattice payload makes `splitting-type` or `trivial --k` print a
    traceback.  The splitting type of a lattice of colength c sums to -c,
    and `trivial --k` answers exactly when k >= 1 and c = m*k, where it is
    true exactly when the splitting type is (-k, ..., -k)."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(case=lattice_payloads(), data=st.data())
    def test_trivial_iff_balanced_splitting_type(self, case, data):
        payload, colength, _, singular = case
        m = json.loads(payload)["m"]
        k = data.draw(st.one_of(st.just(colength // m), st.integers(-1, 3)))
        with time_limit(10):
            results = [
                call(["lattice", "splitting-type", payload]),
                call(["lattice", "trivial", payload, "--k", str(k)]),
            ]
        for code, _, err in results:
            assert code in (0, 1, 2) and "Traceback" not in err, (payload, err)
            assert (code == 2) == singular, (payload, err)
        if singular:
            return
        (split, split_out, _), (trivial, trivial_out, _) = results
        splitting = json.loads(split_out)["splitting_type"]
        assert split == 0 and sum(splitting) == -colength
        assert (trivial == 0) == (k >= 1 and colength == m * k), (payload, k)
        if trivial == 0:
            assert json.loads(trivial_out)["trivial"] == (splitting == [-k] * m), (payload, k)


@st.composite
def rep_arguments(draw):
    """(m, weights, j) as option strings: m in -1..6, at most 6 weights in
    -1..7, at times with a token that is not an int, and j in -1..7."""
    m = draw(st.one_of(st.integers(-1, 6).map(str), st.sampled_from(("x", "2.0"))))
    weights = list(map(str, draw(st.lists(st.integers(-1, 7), max_size=6))))
    if draw(st.integers(0, 5)) == 0:
        weights.append(draw(st.sampled_from(("a", "1.5", "2/1"))))
    return m, weights, str(draw(st.integers(-1, 7)))


class TestRepProperties:
    """No options make `rep invariant-dim` or `rep dual` print a traceback.
    invariant-dim answers exactly for weights in 1..m-1 summing to a
    multiple of m, and the same dimension for the weights reversed; dual
    answers exactly for j in 1..m-1 and is an involution."""

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(args=rep_arguments())
    def test_exit_codes_without_traceback(self, args):
        m, weights, j = args
        # option=value, so that a value such as -1,a is not read as an option
        with time_limit(10):
            dim = call(["rep", "invariant-dim", f"--m={m}", f"--weights={','.join(weights)}"])
            dual = call(["rep", "dual", f"--m={m}", f"--j={j}"])
        for code, _, err in (dim, dual):
            assert code in (0, 1, 2) and "Traceback" not in err, (args, err)
            assert (code == 2) == (not m.lstrip("-").isdigit()), (args, err)
        if dim[0] == 2:
            return
        rank, ints = int(m), [int(w) for w in weights if w.lstrip("-").isdigit()]
        valid = (
            rank >= 1
            and len(ints) == len(weights)
            and all(1 <= w < rank for w in ints)
            and sum(ints) % rank == 0
        )
        assert (dim[0] == 0) == valid, args
        if valid:
            reverse = ["rep", "invariant-dim", f"--m={m}", f"--weights={','.join(weights[::-1])}"]
            assert call(reverse)[1] == dim[1]
        assert (dual[0] == 0) == (1 <= int(j) < rank), args
        if dual[0] == 0:
            back = str(json.loads(dual[1])["dual"])
            assert json.loads(call(["rep", "dual", f"--m={m}", f"--j={back}"])[1]) == {"dual": int(j)}


# (m, k, types) with m <= 3, k <= 2 and at most 3 steps of types 1..m-1
# summing to m*k: the shapes of trivial chains
TRIVIAL_SHAPES = ((2, 1, (1, 1)), (3, 1, (1, 2)), (3, 1, (2, 1)), (3, 1, (1, 1, 1)), (3, 2, (2, 2, 2)))


@st.composite
def chain_slice_payloads(draw):
    """(chain payload, slice payload) over GF(2), GF(3) or Q with m <= 3,
    k <= 2 and 0 to 3 steps.  Half are a seeded trivial chain (at times
    with its points reversed) and its slice point (at times with its flag
    or eigenvalues redrawn); the rest are random: types in 0..m, bases of
    small polynomials (some singular), a random block column under the
    slice pattern (at times off it), random flags and eigenvalue lists."""
    F = draw(st.sampled_from((GF(2), GF(3), QQ)))
    if F.is_finite:
        element = st.integers(0, F.p - 1)
    else:
        element = st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 2)))
    chain = None
    if draw(st.booleans()):
        m, k, types = draw(st.sampled_from(TRIVIAL_SHAPES))
        rng = random.Random(draw(st.integers(0, 999)))
        chain = next(filter(None, (_random_trivial_chain(rng, m, k, types, F) for _ in range(20))), None)
    else:
        m, k, n = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 3))
    N = m * k
    vector = st.lists(element, min_size=N, max_size=N)
    if chain is not None:
        chain_data = serialize.chain_to_json(chain)
        point = serialize.slice_point_to_json(slicecorr.chain_to_slice(chain))
        n = chain.n
        if draw(st.booleans()):
            chain_data["points"] = chain_data["points"][::-1]
    else:
        polys = st.lists(element, max_size=3).map(lambda c: Poly(F, c))
        chain_data = {
            "field": F.code,
            "m": m,
            "points": [F.to_json(draw(element)) for _ in range(n)],
            "types": draw(st.lists(st.integers(0, m), min_size=n, max_size=n)),
            "lattices": [
                serialize.basis_to_json(
                    PolyMatrix.from_cols(F, [[draw(polys) for _ in range(m)] for _ in range(m)])
                )
                for _ in range(n)
            ],
        }
        block = [draw(vector) for _ in range(m)]
        Y = [[F.to_json(e) for e in r] for r in slicecorr.SliceMatrix(m, k, F, block).entries]
        if draw(st.integers(0, 5)) == 0:
            Y[0][0] = F.to_json(F.one)
        point = {"field": F.code, "m": m, "k": k, "Y": Y, "flag": [], "eigenvalues": []}
    if chain is None or draw(st.booleans()):
        steps = draw(st.one_of(st.just(n), st.integers(0, 3)))
        point["flag"] = [
            [[F.to_json(e) for e in draw(vector)] for _ in range(draw(st.integers(0, N)))]
            for _ in range(steps)
        ]
    if chain is None or draw(st.booleans()):
        point["eigenvalues"] = [F.to_json(draw(element)) for _ in range(len(point["flag"]))]
    return json.dumps(chain_data), json.dumps(point)


class TestChainSlicePayloadProperties:
    """No chain or slice payload makes `chain validate|to-slice` or `slice
    validate|to-chain` print a traceback: each exits 0, 1 or 2.  What the
    two bijections print validates on the other side, a valid slice point
    maps to a chain, and a valid chain maps to a slice point or is refused
    with exit 1 (its end need not be trivial)."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(case=chain_slice_payloads())
    def test_exit_codes_without_traceback(self, case):
        chain, point = case
        with time_limit(10):
            for kind, payload, bijection, other in (
                ("chain", chain, "to-slice", "slice"),
                ("slice", point, "to-chain", "chain"),
            ):
                results = [call([kind, sub, payload]) for sub in ("validate", bijection)]
                for code, _, err in results:
                    assert code in (0, 1, 2) and "Traceback" not in err, (kind, err)
                (valid, _, _), (mapped, out, _) = results
                if valid == 0:
                    assert mapped in ((0,) if kind == "slice" else (0, 1)), (kind, payload)
                if mapped == 0:
                    assert call([other, "validate", out])[0] == 0


class TestReusedParser:
    """cli.main called repeatedly in one process, as a library caller does."""

    def test_usage_error_then_valid_call(self, capsys):
        assert cli.main(["lattice", "trivial", LAT]) == 2  # --k is required
        capsys.readouterr()
        assert cli.main(["lattice", "trivial", LAT, "--k", "1"]) == 0
        assert json.loads(capsys.readouterr().out) == {"trivial": True}

    def test_hecke_type_at_two_points(self, capsys):
        L = serialize.parse_lattice(json.loads(LAT))
        std = standard_lattice(L.m, L.field)
        for x in ("0", "1"):
            assert cli.main(["lattice", "hecke-type", LAT, "--x", x]) == 0
            want = hecke_type_at(std, L, L.field.parse(x)).entries
            assert json.loads(capsys.readouterr().out)["hecke_type"] == list(want)

    def test_out_does_not_leak(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        argv = ["lattice", "splitting-type", LAT]
        assert cli.main([*argv, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        written = json.loads(target.read_text())
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out) == written

    def test_parser_built_once(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        argv = ["lattice", "trivial", LAT, "--k", "1"]
        assert cli.main(argv) == 0
        one = len(built)
        for _ in range(5):
            assert cli.main(argv) == 0
        assert len(built) - one <= one


# help at every level, missing required options, extra arguments, `--`, an
# abbreviated option, bad words and `verify`
ARGV_CORPUS = [
    [],
    ["-h"],
    ["lattice"],
    ["lattice", "-h"],
    ["lattice", "divisor", "-h"],
    ["lattice", "hecke-type", LAT, "--help"],
    ["count", "chain-fiber", "-h"],
    ["rep", "dual", "-h"],
    ["verify", "-h"],
    ["lattice", "divisor"],
    ["lattice", "hecke-type", LAT],
    ["lattice", "trivial", LAT],
    ["lattice", "factorize", LAT, "--s1", "0"],
    ["rep", "invariant-dim", "--m", "2"],
    ["count", "slice-fiber", "--m", "2", "--k", "1"],
    ["lattice", "divisor", LAT, "extra"],
    ["lattice", "splitting-type", LAT, "a", "b"],
    ["rep", "dual", "--m", "3", "--j", "1", "--bogus"],
    ["lattice", "divisor", "--", LAT],
    ["lattice", "divisor", LAT, "--", "extra"],
    ["chain", "validate", "--", "--out"],
    ["lattice", "divisor", LAT, "--o", "out.json"],
    ["lattice", "divisor", LAT, "--h"],
    ["lattice", "hecke-type", LAT, "--x", "-1"],
    ["lattice", "trivial", LAT, "--k", "one"],
    ["count", "fit", "{}", "--out", "a.json", "--out", "b.json"],
    ["lattice", "nope", LAT],
    ["nope"],
    ["lattice", "divisor", LAT, "--k=2"],
    ["verify"],
    ["verify", "central-leading", "--qs", "2,3"],
    ["verify", "all", "--max-m", "x"],
]

# each two-word command with the arguments it requires
LEAF_REQUIRED = {
    ("lattice", "hecke-type"): (["0"], ["--x", "0"]),
    ("lattice", "divisor"): (["0"],),
    ("lattice", "splitting-type"): (["0"],),
    ("lattice", "trivial"): (["0"], ["--k", "1"]),
    ("lattice", "factorize"): (["0"], ["--s1", "0"], ["--s2", "1"]),
    ("chain", "validate"): (["0"],),
    ("chain", "to-slice"): (["0"],),
    ("slice", "validate"): (["0"],),
    ("slice", "to-chain"): (["0"],),
    ("rep", "invariant-dim"): (["--m", "2"], ["--weights", "1,1"]),
    ("rep", "dual"): (["--m", "2"], ["--j", "1"]),
    ("count", "chain-fiber"): (["--m", "2"], ["--k", "1"], ["--weights", "1,1"], ["--points", "0,1"], ["--field", "Fp:3"]),
    ("count", "slice-fiber"): (["--m", "2"], ["--k", "1"], ["--weights", "1,1"], ["--points", "0,1"], ["--field", "Fp:3"]),
    ("count", "fit"): (["0"],),
}
ARGV_TOKENS = (
    "verify", *sorted({word for leaf in LEAF_REQUIRED for word in leaf}), "all", "central-leading",
    "--out", "--x", "--k", "--s1", "--s2", "--m", "--weights", "--j", "--points", "--field",
    "--end", "--witnesses", "--qs", "--max-m", "--randoms", "-h", "--help", "--", "-1", "0",
    "x", "--o", "--nope", "-z", "--k=2", "any", LAT,
)
# option-value pairs that some leaves accept
FRAGMENTS = (["--x", "0"], ["--k", "1"], ["--m", "2"], ["--end", "any"], ["--out", "o.json"],
             ["--qs", "2"], ["--max-m", "x"], ["--witnesses"])
HANDLERS = ("_lattice_command", "_chain_command", "_slice_command", "_rep_command",
            "_count_command", "_verify_command")


@st.composite
def argvs(draw):
    """At most 8 tokens in any order, some drawn as an option and its value.
    Half are led by a command word and a subcommand word of it, followed by
    most of the arguments it requires and up to two more units in some
    order, so that some parse."""
    unit = st.one_of(st.sampled_from(ARGV_TOKENS).map(lambda token: [token]), st.sampled_from(FRAGMENTS))
    if draw(st.booleans()):
        leaf = draw(st.sampled_from(sorted(LEAF_REQUIRED)))
        tokens = list(leaf)
        units = [arg for arg in LEAF_REQUIRED[leaf] if draw(st.integers(0, 4))]
        units = draw(st.permutations(units + draw(st.lists(unit, max_size=2))))
    else:
        tokens = []
        units = draw(st.lists(unit, max_size=6))
    return [*tokens, *(token for drawn in units for token in drawn)][:8]


class Parsed(Exception):
    """Raised in place of a handler, carrying the namespace main parsed."""


def parsed(parse, argv):
    """(vars of the namespace, or the exit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as e:
            result = int(e.code) if e.code else 0
        except Parsed as e:
            result = e.args[0]
    return result, out.getvalue(), err.getvalue()


def parsed_by_main(argv):
    """What cli.main parses from argv, with every handler replaced by one
    that raises Parsed: no handler runs and nothing is written."""

    def handler(args):
        raise Parsed(vars(args))

    with pytest.MonkeyPatch.context() as patch:
        for name in HANDLERS:
            patch.setattr(cli, name, handler)
        return parsed(cli.main, argv)


def parsed_by_oracle(argv):
    return parsed(lambda argv: vars(cli.build_parser().parse_args(argv)), argv)


class TestDispatch:
    """cli.main parses a two-word command with its leaf parser alone: the
    namespace, exit code, help and usage errors are those of one nested
    build_parser().parse_args(argv)."""

    @pytest.mark.parametrize("argv", ARGV_CORPUS, ids=range(len(ARGV_CORPUS)))
    def test_corpus_parses_as_the_full_parser(self, argv):
        assert parsed_by_main(argv) == parsed_by_oracle(argv)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(argv=argvs())
    def test_drawn_argvs_parse_as_the_full_parser(self, argv):
        assert parsed_by_main(argv) == parsed_by_oracle(argv)

    def test_one_parse_per_two_word_call(self, monkeypatch, capsys):
        parses = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counting(self, *args, **kwargs):
            parses.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        assert cli.main(["lattice", "trivial", LAT, "--k", "1"]) == 0
        assert parses == ["latslice lattice trivial"]
        assert cli.main(["lattice", "trivial", LAT, "--k", "1", "extra"]) == 2
        assert parses[1:] == ["latslice lattice trivial"]

    def test_console_script_reads_sys_argv(self, monkeypatch, capsys):
        # the latslice entry point calls main() with no argument
        monkeypatch.setattr(sys, "argv", ["latslice", "lattice", "trivial", LAT, "--k", "1"])
        assert cli.main() == 0
        assert json.loads(capsys.readouterr().out) == {"trivial": True}


class TestChainSlice:
    def test_validate(self):
        proc = run("chain", "validate", CHAIN)
        assert proc.returncode == 0 and json.loads(proc.stdout)["valid"]

    def test_roundtrip_through_cli(self):
        p1 = run("chain", "to-slice", CHAIN)
        assert p1.returncode == 0
        point = json.loads(p1.stdout)
        assert point["Y"] == [[0, 0], [0, 1]]
        p2 = run("slice", "to-chain", json.dumps(point))
        assert p2.returncode == 0
        back = run("chain", "to-slice", p2.stdout)
        assert json.loads(back.stdout) == point

    def test_stdin_payload(self):
        proc = run("chain", "validate", "-", stdin=CHAIN)
        assert proc.returncode == 0

    def test_invalid_chain_exit_1(self):
        bad = json.loads(CHAIN)
        bad["lattices"][1] = bad["lattices"][0]
        proc = run("chain", "validate", json.dumps(bad))
        assert proc.returncode == 1

    def test_malformed_payload_exit_2(self):
        proc = run("chain", "validate", '{"m": 2}')
        assert proc.returncode == 2
        assert "error" in proc.stderr

    @pytest.mark.parametrize("literal", ["nested", "digits", "digits-string"])
    @pytest.mark.parametrize("command", sorted(MARKED_PAYLOADS))
    def test_unloadable_json_exit_2(self, command, literal):
        # json.loads raises RecursionError on deep nesting and ValueError on
        # an integer literal over the interpreter's digit limit (4300)
        digits = "1" * 5000
        payload = {
            "nested": "[" * 50000,
            "digits": MARKED_PAYLOADS[command].replace('"@"', digits),
            "digits-string": MARKED_PAYLOADS[command].replace('"@"', f'"{digits}"'),
        }[literal]
        with time_limit(10):
            code, out, err = call([*command.split(), payload])
        assert (code, out) == (2, ""), err
        assert err.startswith("error: ") and "Traceback" not in err
        if literal != "digits-string":
            assert "malformed JSON" in err

    @pytest.mark.parametrize("subcommand", ["validate", "to-chain"])
    def test_off_pattern_matrix_exit_2(self, subcommand, capsys):
        assert cli.main(["slice", subcommand, OFF_PATTERN]) == 2
        assert "error: slice.Y: not a slice matrix" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["chain", "validate", json.dumps(dict(json.loads(CHAIN), points=5))],
            ["slice", "validate", json.dumps(dict(json.loads(POINT), eigenvalues=7))],
            ["count", "fit", json.dumps({"samples": 5})],
            ["count", "fit", json.dumps({"samples": [[2]]})],
            ["count", "fit", json.dumps({"samples": [[2, 3], [3, 4]], "degree": "x"})],
        ],
        ids=["chain-points", "slice-eigenvalues", "fit-samples", "fit-pair", "fit-degree"],
    )
    def test_malformed_field_exit_2(self, argv, capsys):
        assert cli.main(argv) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["lattice", "splitting-type", json.dumps(dict(LAT_Q, m=True, basis=[[[1]]]))], "lattice.m"),
            (["slice", "validate", json.dumps(dict(json.loads(POINT), k=True))], "m and k"),
            (["chain", "validate", json.dumps(dict(json.loads(CHAIN), types=[True, True]))], "chain.types"),
            (["count", "fit", json.dumps({"samples": [[2, True], [3, 2]]})], "payload.samples"),
            (["count", "fit", json.dumps({"samples": [[2, 3], [3, 4]], "degree": False})], "payload.degree"),
        ],
        ids=["m", "k", "types", "samples", "degree"],
    )
    def test_boolean_is_not_an_integer(self, argv, field):
        # bool is a subclass of int, so true and false must be refused by name
        code, out, err = call(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and field in err, err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["lattice", "divisor", json.dumps(dict(LAT_Q, basis=[[["1/0"]]]))], 2),
            (["chain", "validate", json.dumps(dict(json.loads(CHAIN), field="Q", points=["1/0", 1]))], 2),
            (["lattice", "hecke-type", json.dumps(LAT_Q), "--x", "1/0"], 1),
        ],
        ids=["basis-entry", "chain-point", "x"],
    )
    def test_zero_denominator_is_not_a_field_element(self, argv, code, capsys):
        assert cli.main(argv) == code
        assert "not a field element: '1/0'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["lattice", "divisor", json.dumps(dict(LAT_Q, basis=[[["1e99999999", 1]]]))], 2),
            (["lattice", "hecke-type", json.dumps(LAT_Q), "--x", "1e99999999"], 1),
            (["lattice", "hecke-type", json.dumps(LAT_Q), "--x", "1E99999999"], 1),
        ],
        ids=["basis-entry", "x", "x-upper"],
    )
    def test_exponent_literal_is_not_a_field_element(self, argv, code, capsys):
        # Fraction would build the integer 10^99999999 from an 11-character literal
        with time_limit(10):
            assert cli.main(argv) == code
        assert "not a field element: '1e99999999'" in capsys.readouterr().err.lower()

    def test_flag_jump_of_m_invalid(self, capsys):
        # one step of jump 2 = m: no minuscule type carries it, so `slice
        # validate` and `slice to-chain` both refuse the point
        point = json.dumps(
            {"field": "Fp:3", "m": 2, "k": 1, "Y": [[1, 0], [0, 1]],
             "flag": [[[1, 0], [0, 1]]], "eigenvalues": [1]}
        )
        code, out, _ = call(["slice", "validate", point])
        assert code == 1
        assert json.loads(out) == {"valid": False, "failures": ["flag step 1: jump 2 is not in 1..1"]}
        code, out, err = call(["slice", "to-chain", point])
        assert (code, out) == (1, "")
        assert "jump 2 is not in 1..1" in err

    def test_empty_chain_to_slice_exit_1(self):
        # a chain with no steps validates, but has no slice point (k = 0)
        chain = json.dumps({"field": "Fp:3", "m": 2, "points": [], "types": [], "lattices": []})
        assert call(["chain", "validate", chain])[0] == 0
        code, out, err = call(["chain", "to-slice", chain])
        assert (code, out) == (1, "")
        assert "the empty chain has no slice point" in err
        assert "k must be positive" not in err


class TestRep:
    def test_invariant_dim(self):
        proc = run("rep", "invariant-dim", "--m", "2", "--weights", "1,1,1,1")
        assert proc.returncode == 0 and json.loads(proc.stdout) == {"dim": 2}

    def test_dual(self):
        proc = run("rep", "dual", "--m", "3", "--j", "1")
        assert json.loads(proc.stdout) == {"dual": 2}

    def test_wide_weights(self):
        # C(30, 15) row sets for the second weight, but two runs of rows:
        # the strips are found by run
        with time_limit(10):
            code, out, _ = call(["rep", "invariant-dim", "--m", "30", "--weights", "15,15"])
        assert (code, json.loads(out)) == (0, {"dim": 1})

    def test_many_small_weights(self):
        # forty weights of 1 at m=10: the Pieri levels keep only partitions
        # that fit in the 10 x 4 rectangle
        with time_limit(10):
            code, out, _ = call(["rep", "invariant-dim", "--m", "10", "--weights", ",".join(["1"] * 40)])
        assert (code, json.loads(out)) == (0, {"dim": 22661585038594320})

    def test_rank_zero_exit_1(self, capsys):
        assert cli.main(["rep", "invariant-dim", "--m", "0", "--weights", ""]) == 1
        assert "rank must be positive" in capsys.readouterr().err


class TestCount:
    def test_chain_fiber(self):
        proc = run(
            "count", "chain-fiber",
            "--m", "2", "--k", "1", "--weights", "1,1",
            "--points", "0,1", "--field", "Fp:3", "--end", "trivial",
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["count"] == 12

    def test_slice_fiber_agrees(self):
        proc = run(
            "count", "slice-fiber",
            "--m", "2", "--k", "1", "--weights", "1,1",
            "--points", "0,1", "--field", "Fp:3", "--end", "trivial",
        )
        assert json.loads(proc.stdout)["count"] == 12

    def test_bad_arguments_exit_1(self, capsys):
        base = ["--weights", "1,1", "--points", "0,1", "--field", "Fp:3"]
        assert cli.main(["count", "chain-fiber", "--m", "2", "--k", "0", *base]) == 1
        assert "k must be positive" in capsys.readouterr().err
        # neither counter has a --jobs flag: a usage error
        assert cli.main(["count", "chain-fiber", "--m", "2", "--k", "1", "--jobs", "0", *base]) == 2
        slice_jobs = ["count", "slice-fiber", "--m", "2", "--k", "1", "--jobs", "2", *base]
        assert cli.main([*slice_jobs, "--end", "trivial"]) == 2

    @pytest.mark.parametrize(
        "field,chain_error,slice_error",
        [
            ("Fp:4", "4 is not prime", "4 is not prime"),
            ("Q", "chain counting needs a finite field", "slice counting needs a finite field"),
        ],
    )
    def test_counts_off_finite_fields_exit_1(self, field, chain_error, slice_error):
        # a well-formed field code that no counter runs over is an invalid
        # query, as a malformed prime is
        args = ["--m", "2", "--k", "1", "--weights", "1,1", "--points", "0,1",
                "--field", field, "--end", "trivial"]
        for counter, message in (("chain-fiber", chain_error), ("slice-fiber", slice_error)):
            code, out, err = call(["count", counter, *args])
            assert (code, out) == (1, "") and message in err, (counter, err)

    def test_oversized_slice_space_refused(self, capsys):
        argv = [
            "count", "slice-fiber", "--m", "3", "--k", "2", "--weights", "1,2,1,2",
            "--points", "0,1,2,0", "--field", "Fp:3", "--end", "trivial",
        ]
        with time_limit(10):
            assert cli.main(argv) == 1
        assert "3^18 = 387420489 matrices" in capsys.readouterr().err

    def test_dash_led_points_after_equals(self, capsys):
        args = ["--m", "2", "--k", "1", "--weights", "1,1", "--points=-1,0",
                "--field", "Fp:3", "--end", "trivial"]
        assert cli.main(["count", "chain-fiber", *args]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["count"], out["query"]["points"]) == (12, [2, 0])

    @pytest.mark.parametrize(
        "field,m,k,weights,points",
        [("Fp:3", 2, 1, "1,1", "0,1"), ("Fp:2", 2, 2, "1,1,1,1", "0,0,1,1")],
    )
    def test_witness_lists(self, field, m, k, weights, points):
        # both counters' witness JSON: as many as the count, each valid, and
        # `slice to-chain` maps the slice witnesses one-to-one onto the chains
        query = ["--m", str(m), "--k", str(k), "--weights", weights, "--points", points,
                 "--field", field, "--end", "trivial", "--witnesses"]
        found = {}
        for counter, kind in (("chain-fiber", "chain"), ("slice-fiber", "slice")):
            code, out, err = call(["count", counter, *query])
            assert (code, err) == (0, "")
            report = json.loads(out)
            assert len(report["witnesses"]) == report["count"] > 0
            for w in report["witnesses"]:
                code, out, _ = call([kind, "validate", json.dumps(w)])
                assert code == 0 and json.loads(out) == {"valid": True, "failures": []}
            found[kind] = report["witnesses"]
        key = lambda chain: json.dumps(chain, sort_keys=True)
        mapped = []
        for w in found["slice"]:
            code, out, _ = call(["slice", "to-chain", json.dumps(w)])
            assert code == 0
            mapped.append(key(json.loads(out)))
        assert len(set(mapped)) == len(mapped) == len(found["chain"])
        assert set(mapped) == {key(c) for c in found["chain"]}

    def test_closed_stdout_exits_1_quietly(self):
        # the reader stops after one line, as `| head -1` does, while the
        # witness list is still being written
        argv = ["count", "chain-fiber", "--m", "2", "--k", "2", "--weights", "1,1,1,1",
                "--points", "0,1,0,1", "--field", "Fp:3", "--end", "trivial", "--witnesses"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "latslice.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert (proc.returncode, err) == (1, b"")

    def test_fit(self):
        payload = json.dumps({"samples": [[2, 15], [3, 28], [4, 45]], "degree": 2})
        proc = run("count", "fit", payload)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["coefficients"] == [1, 3, 2]

    @pytest.mark.parametrize(
        "samples,degree,message",
        [
            ([[q, q * q + 1] for q in range(2, 402)], None, "400 interpolation points"),
            ([[q, q * q + 1] for q in range(2, 402)], 100, "101 interpolation points"),
            ([[2, 5], [10**6 + 1, 10**12 + 2 * 10**6 + 2]], None, "|q| <= 1000000"),
            ([[-(10**7), 10**14 + 1], [2, 5]], 1, "|q| <= 1000000"),
        ],
        ids=["samples", "degree", "q", "negative-q"],
    )
    def test_fit_budget_exit_1(self, samples, degree, message):
        # interpolation is O(n^3) in Fractions: 400 samples of q^2 + 1 took
        # 90 s before these limits, and are refused before any arithmetic
        payload = {"samples": samples} if degree is None else {"samples": samples, "degree": degree}
        with time_limit(10):
            code, out, err = call(["count", "fit", json.dumps(payload)])
        assert (code, out) == (1, "")
        assert message in err and "Traceback" not in err

    def test_fit_holds_out_any_number_of_samples(self):
        # 3 interpolation points, 397 held-out samples only evaluated
        payload = {"samples": [[q, q * q + 1] for q in range(2, 402)], "degree": 2}
        with time_limit(10):
            code, out, _ = call(["count", "fit", json.dumps(payload)])
        assert code == 0 and json.loads(out)["coefficients"] == [1, 0, 1]

    def test_fit_without_samples_exit_1(self):
        proc = run("count", "fit", json.dumps({"samples": []}))
        assert proc.returncode == 1
        assert "no samples" in proc.stderr and proc.stdout == ""

    def test_query_points_as_in_chain_json(self, capsys):
        # ints, the point form of chain and slice JSON
        args = ["--m", "2", "--k", "1", "--weights", "1,1", "--points", "0,1",
                "--field", "Fp:3", "--end", "trivial"]
        for counter in ("chain-fiber", "slice-fiber"):
            assert cli.main(["count", counter, *args]) == 0
            assert json.loads(capsys.readouterr().out)["query"]["points"] == [0, 1]


@st.composite
def count_arguments(draw):
    """The options of `count chain-fiber|slice-fiber` over m <= 3, k <= 2
    and q in {2, 3}, with at most 4 points.  Half are well formed, with
    types of total m*k half the time (as the trivial and exact-z^k ends
    need) and else any types in 1..m-1; the others break one thing: the
    field code, m or k below 1, types outside 1..m-1 or not ints, a point
    that is not a field element, or a point list of another length.  Chain
    counts have no size budget, and with 6 steps at m = 3, k = 2, q = 3
    one runs for over a minute, so 4 is the cap."""
    q = draw(st.sampled_from((2, 3)))
    bad = draw(st.integers(0, 13))  # 0..6: nothing malformed
    field = draw(st.sampled_from(("Fp:4", "Fp:x", "Q", "F3", ""))) if bad == 7 else f"Fp:{q}"
    m = draw(st.integers(0, 1)) if bad == 8 else draw(st.integers(2, 3))
    k = draw(st.integers(-1, 0)) if bad == 9 else draw(st.integers(1, 2))
    if bad in (8, 9, 10, 11) or draw(st.booleans()):
        lo, hi = (-1, m) if bad == 10 else (1, max(m - 1, 1))
        types = list(map(str, draw(st.lists(st.integers(lo, hi), max_size=4))))
        if bad == 11:
            types.append(draw(st.sampled_from(("a", "1.5", "2/1"))))
    else:
        total, types = m * k, []
        while total:
            j = draw(st.integers(max(1, total - (3 - len(types)) * (m - 1)), min(m - 1, total)))
            types.append(str(j))
            total -= j
    points = [str(draw(st.integers(-1, q))) for _ in types]
    if bad == 12 and points:
        points[draw(st.integers(0, len(points) - 1))] = draw(st.sampled_from(("x", "1/2", "0.5", "1e3")))
    if bad == 13:
        points = points[1:] if points and draw(st.booleans()) else points + ["0"]
    end = draw(st.sampled_from(("trivial", "any", "zk")))
    return ["--m", str(m), "--k", str(k), "--weights", ",".join(types),
            "--points", ",".join(points), "--field", field, "--end", end]


class TestCountPayloadProperties:
    """No option values make `count chain-fiber` or `count slice-fiber`
    print a traceback: each exits 0, 1 or 2 within 10 s.  Where both
    answer a trivial-end query, they give the same count."""

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(args=count_arguments())
    def test_exit_codes_without_traceback(self, args):
        with time_limit(10):
            results = [call(["count", counter, *args]) for counter in ("chain-fiber", "slice-fiber")]
        for code, _, err in results:
            assert code in (0, 1, 2) and "Traceback" not in err, (args, err)
        (chain, chain_out, _), (sliced, slice_out, _) = results
        if chain == sliced == 0 and args[-1] == "trivial":
            assert json.loads(chain_out)["count"] == json.loads(slice_out)["count"], args


class TestVerify:
    def test_small_suite(self):
        proc = run("verify", "central-leading")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["pass"]

    def test_unknown_suite_exit_1(self):
        proc = run("verify", "no-such-suite")
        assert proc.returncode != 0

    def test_ignored_flags_exit_1(self, capsys, monkeypatch):
        # in process; each is refused before any suite runs
        def no_suite(name, **budget):
            raise AssertionError(f"suite {name} ran")

        monkeypatch.setattr(cli.countlab, "verify_suite", no_suite)
        ignored = "{} does not apply to the '{}' suite"
        for suite, flags, message in (
            ("central-leading", ["--max-m", "1"], ignored),
            ("central-leading", ["--randoms", "3"], ignored),
            ("counts-equal", ["--randoms", "3"], ignored),
            ("all", ["--qs", "2"], ignored),
            ("all", ["--max-m", "1"], ignored),
            ("all", ["--randoms", "3"], ignored),
            ("roundtrip", ["--randoms", "-1"], "--randoms must be nonnegative"),
            ("roundtrip", ["--qs", "3,4"], "characteristic 4 is not prime"),
        ):
            assert cli.main(["verify", suite, *flags]) == 1
            err = capsys.readouterr().err
            assert message.format(flags[0], suite) in err
        monkeypatch.undo()
        assert cli.main(["verify", "central-leading", "--qs", "2,3,5"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["triviality-agree", "--max-m", "1"],
            ["counts-equal", "--max-m", "0"],
            ["counts-equal", "--qs", ""],
        ],
        ids=["triviality-agree-max-m-1", "counts-equal-max-m-0", "counts-equal-no-qs"],
    )
    def test_suite_without_cases_fails(self, argv, capsys):
        assert cli.main(["verify", *argv]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["cases"] == [] and report["pass"] is False
