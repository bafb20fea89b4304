"""Command-line front end: every operation behind JSON-in/JSON-out
subcommands, plus the bundled verification suites.

Exit codes: 0 success/pass, 1 validation or suite failure, 2 malformed input.
A reader that closes standard output early (`| head`) gets exit 1 and nothing
on stderr: stdout is pointed at the null device, so the flush at exit cannot
fail again.
"""

import argparse
import functools
import inspect
import json
import os
import sys

from . import countlab, lattice as lat, reptheory, serialize, slicecorr
from .fields import Field
from .serialize import PayloadError


def _read_payload(arg):
    """Inline JSON, a file path, or '-' for stdin."""
    if arg == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(arg) as fh:
                text = fh.read()
        except OSError:
            text = arg
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        # ValueError covers JSONDecodeError and integer literals over the
        # interpreter's digit limit; RecursionError, nesting too deep
        raise PayloadError(f"malformed JSON: {e}") from None


def _emit(obj, out_path=None):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text, flush=True)


def _parse_points(field, text):
    return [field.parse(p.strip()) for p in text.split(",") if p.strip()]


def _parse_ints(text):
    return [int(p.strip(), 10) for p in text.split(",") if p.strip()]


@functools.cache
def _parsers():
    """The argument parser and its two-word leaves, {(command, subcommand):
    leaf parser}, built on the first call and shared after it (callers must
    not modify them)."""
    parser = argparse.ArgumentParser(
        prog="latslice",
        description="Exact lattice models of line-bundle modifications and the slice correspondence",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    leaves = {}

    p_lat = sub.add_parser("lattice", help="lattice operations")
    lat_sub = p_lat.add_subparsers(dest="subcommand", required=True)
    for name in ("hecke-type", "divisor", "splitting-type", "trivial", "factorize"):
        sp = leaves["lattice", name] = lat_sub.add_parser(name)
        sp.add_argument("payload", help="inline JSON, a file path, or - for stdin")
        sp.add_argument("--out")
        if name == "hecke-type":
            sp.add_argument("--x", required=True, help="modification point; give -1/2 as --x=-1/2")
        if name == "trivial":
            sp.add_argument("--k", type=int, required=True)
        if name == "factorize":
            for opt in ("--s1", "--s2"):
                note = f"comma-separated points; give -1,2 as {opt}=-1,2"
                sp.add_argument(opt, required=True, help=note)

    p_chain = sub.add_parser("chain", help="lattice chain operations")
    chain_sub = p_chain.add_subparsers(dest="subcommand", required=True)
    for name in ("validate", "to-slice"):
        sp = leaves["chain", name] = chain_sub.add_parser(name)
        sp.add_argument("payload")
        sp.add_argument("--out")

    p_slice = sub.add_parser("slice", help="slice point operations")
    slice_sub = p_slice.add_subparsers(dest="subcommand", required=True)
    for name in ("validate", "to-chain"):
        sp = leaves["slice", name] = slice_sub.add_parser(name)
        sp.add_argument("payload")
        sp.add_argument("--out")

    p_rep = sub.add_parser("rep", help="representation-theory queries")
    rep_sub = p_rep.add_subparsers(dest="subcommand", required=True)
    sp = leaves["rep", "invariant-dim"] = rep_sub.add_parser("invariant-dim")
    sp.add_argument("--m", type=int, required=True)
    note = "comma-separated pi values; give -1,1 as --weights=-1,1"
    sp.add_argument("--weights", required=True, help=note)
    sp.add_argument("--out")
    sp = leaves["rep", "dual"] = rep_sub.add_parser("dual")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--out")

    p_count = sub.add_parser("count", help="finite-field fiber counting")
    count_sub = p_count.add_subparsers(dest="subcommand", required=True)
    for name in ("chain-fiber", "slice-fiber"):
        sp = leaves["count", name] = count_sub.add_parser(name)
        sp.add_argument("--m", type=int, required=True)
        sp.add_argument("--k", type=int, required=True)
        sp.add_argument("--weights", required=True)
        note = "comma-separated points; give -1,0 as --points=-1,0"
        sp.add_argument("--points", required=True, help=note)
        sp.add_argument("--field", required=True, help='"Fp:<p>"')
        sp.add_argument("--end", choices=("any", "trivial", "zk"), default="any")
        sp.add_argument("--witnesses", action="store_true")
        sp.add_argument("--out")
    sp = leaves["count", "fit"] = count_sub.add_parser("fit")
    sp.add_argument("payload", help='{"samples": [[q, count], ...], "degree": optional}')
    sp.add_argument("--out")

    p_verify = sub.add_parser("verify", help="bundled verification suites")
    p_verify.add_argument("suite", choices=tuple(countlab.SUITES) + ("all",))
    p_verify.add_argument("--qs", default=None, help="comma-separated primes")
    p_verify.add_argument("--max-m", type=int, default=None)
    p_verify.add_argument("--randoms", type=int, default=None)
    p_verify.add_argument("--out")
    return parser, leaves


def build_parser():
    """The argument parser, built on the first call and shared after it
    (callers must not modify it); each parse_args call returns a fresh
    Namespace."""
    return _parsers()[0]


def _parse(argv):
    """What build_parser().parse_args(argv) returns, prints and raises.  A
    two-word command is parsed by its leaf parser alone: the outer parsers
    hold nothing but -h and the subparser action, which hands the rest of
    argv to that same leaf."""
    leaf = _parsers()[1].get(tuple(argv[:2]))
    if leaf is None:
        return build_parser().parse_args(argv)
    args, extras = leaf.parse_known_args(
        argv[2:], argparse.Namespace(command=argv[0], subcommand=argv[1])
    )
    if extras:
        build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _lattice_command(args):
    L = serialize.parse_lattice(_read_payload(args.payload))
    if args.subcommand == "factorize":
        s1 = _parse_points(L.field, args.s1)
        s2 = _parse_points(L.field, args.s2)
        L1, L2 = lat.factorize(L, s1, s2)
        return 0, {
            "factors": [serialize.lattice_to_json(L1), serialize.lattice_to_json(L2)]
        }
    if args.subcommand == "hecke-type":
        x = L.field.parse(args.x)
        std = lat.standard_lattice(L.m, L.field)
        t = lat.hecke_type_at(std, L, x)
        return 0, {"hecke_type": list(t.entries)}
    if args.subcommand == "divisor":
        std = lat.standard_lattice(L.m, L.field)
        div = lat.divisor_of_pair(std, L)
        return 0, {
            "divisor": [
                {"point": L.field.to_json(x), "type": list(t.entries)}
                for x, t in sorted(
                    div.assignments.items(), key=lambda kv: str(kv[0])
                )
            ]
        }
    if args.subcommand == "splitting-type":
        return 0, {"splitting_type": list(lat.splitting_type(L))}
    if args.subcommand == "trivial":
        return 0, {"trivial": lat.quotient_basis_trivial(L, args.k)}
    raise AssertionError(args.subcommand)


def _chain_command(args):
    chain = serialize.parse_chain(_read_payload(args.payload))
    if args.subcommand == "validate":
        failures = lat.validate_chain(chain)
        return (0 if not failures else 1), {"valid": not failures, "failures": failures}
    if args.subcommand == "to-slice":
        p = slicecorr.chain_to_slice(chain)
        return 0, serialize.slice_point_to_json(p)
    raise AssertionError(args.subcommand)


def _slice_command(args):
    p = serialize.parse_slice_point(_read_payload(args.payload))
    if args.subcommand == "validate":
        failures = slicecorr.validate_point(p)
        return (0 if not failures else 1), {"valid": not failures, "failures": failures}
    if args.subcommand == "to-chain":
        chain = slicecorr.slice_to_chain(p)
        return 0, serialize.chain_to_json(chain)
    raise AssertionError(args.subcommand)


def _rep_command(args):
    if args.subcommand == "invariant-dim":
        w = reptheory.WeightSeq(args.m, _parse_ints(args.weights))
        if not reptheory.root_lattice_check(w):
            return 1, {"error": "weight sum is not in the root lattice"}
        return 0, {"dim": reptheory.invariant_dim(w)}
    if args.subcommand == "dual":
        return 0, {"dual": reptheory.dual_weight(args.m, args.j)}
    raise AssertionError(args.subcommand)


def _count_command(args):
    if args.subcommand == "fit":
        samples, degree = serialize.parse_fit(_read_payload(args.payload))
        res = countlab.fit_q_polynomial(samples, degree=degree)
        return (0 if res.success else 1), res.to_json()
    field = Field.from_code(args.field)
    end = {"any": "any", "trivial": "trivial", "zk": "exact-zk"}[args.end]
    query = countlab.FiberQuery(
        args.m,
        args.k,
        _parse_ints(args.weights),
        _parse_points(field, args.points),
        field,
        end,
    )
    if args.subcommand == "chain-fiber":
        report = countlab.count_chain_fiber(query, witnesses=args.witnesses)
    else:
        report = countlab.count_slice_fiber(query, witnesses=args.witnesses)
    out = report.to_json()
    if args.witnesses and report.witnesses is not None:
        if args.subcommand == "chain-fiber":
            out["witnesses"] = [serialize.chain_to_json(c) for c in report.witnesses]
        else:
            out["witnesses"] = [serialize.slice_point_to_json(p) for p in report.witnesses]
    return 0, out


# verify flag -> the suite parameter it sets
_VERIFY_FLAGS = {"qs": "qs", "max_m": "grid", "randoms": "randoms"}


def _verify_command(args):
    # 'all' runs every suite with its defaults, so it takes no flag
    params = {}
    if args.suite != "all":
        params = inspect.signature(countlab.SUITES[args.suite]).parameters
    for flag, param in _VERIFY_FLAGS.items():
        if getattr(args, flag) is not None and param not in params:
            option = "--" + flag.replace("_", "-")
            raise ValueError(f"{option} does not apply to the {args.suite!r} suite")
    budget = {}
    if args.qs is not None:
        budget["qs"] = tuple(_parse_ints(args.qs))
        for q in budget["qs"]:
            Field(q)  # refuses a non-prime q before any suite runs
    if args.max_m is not None:
        # the suite's default grid, cut at m; every entry starts with m
        grid = params["grid"].default
        budget["grid"] = tuple(entry for entry in grid if entry[0] <= args.max_m)
    if args.randoms is not None:
        if args.randoms < 0:
            raise ValueError("--randoms must be nonnegative")
        budget["randoms"] = args.randoms
    report = countlab.verify_suite(args.suite, **budget)
    return (0 if report["pass"] else 1), report


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as e:
        # argparse exits 2 on bad usage already; normalize other codes
        return int(e.code) if e.code else 0
    handlers = {
        "lattice": _lattice_command,
        "chain": _chain_command,
        "slice": _slice_command,
        "rep": _rep_command,
        "count": _count_command,
        "verify": _verify_command,
    }
    try:
        code, payload = handlers[args.command](args)
    except PayloadError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        _emit(payload, getattr(args, "out", None))
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
