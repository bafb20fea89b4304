"""Command-line interface: subcommands, payload channels, exit codes."""

import argparse
import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latslice import cli, serialize
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

class TestLattice:
    def test_hecke_type(self):
        proc = run("lattice", "hecke-type", "--x", "0", LAT)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["hecke_type"] == [2, 0]

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


class TestRep:
    def test_invariant_dim(self):
        proc = run("rep", "invariant-dim", "--m", "2", "--weights", "1,1,1,1")
        assert proc.returncode == 0 and json.loads(proc.stdout) == {"dim": 2}

    def test_dual(self):
        proc = run("rep", "dual", "--m", "3", "--j", "1")
        assert json.loads(proc.stdout) == {"dual": 2}

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

    def test_oversized_slice_space_refused(self, capsys):
        argv = [
            "count", "slice-fiber", "--m", "3", "--k", "2", "--weights", "1,2,1,2",
            "--points", "0,1,2,0", "--field", "Fp:3", "--end", "trivial",
        ]
        with time_limit(10):
            assert cli.main(argv) == 1
        assert "3^18 = 387420489 matrices" in capsys.readouterr().err

    def test_fit(self):
        payload = json.dumps({"samples": [[2, 15], [3, 28], [4, 45]], "degree": 2})
        proc = run("count", "fit", payload)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["coefficients"] == [1, 3, 2]

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
