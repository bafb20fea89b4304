"""JSON wire formats: polynomials as dense ascending coefficient lists,
lattices/chains/slice points as the documented record shapes.  Parsing is
strict: unknown fields are rejected and every error names the offending
construct.  Integers are tested by `type(v) is int`: JSON true and false
load as bools, which isinstance counts as ints."""

from .fields import Field
from .lattice import Lattice, LatticeChain
from .poly import Poly
from .polymatrix import PolyMatrix
from .slicecorr import Flag, SliceMatrix, SlicePoint


class PayloadError(ValueError):
    """Malformed input payload."""


def _require_keys(obj, required, optional=(), where="record"):
    if not isinstance(obj, dict):
        raise PayloadError(f"{where}: expected an object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise PayloadError(f"{where}: missing field(s) {', '.join(missing)}")
    unknown = [k for k in obj if k not in required and k not in optional]
    if unknown:
        raise PayloadError(f"{where}: unknown field(s) {', '.join(unknown)}")


def parse_field(code, where="field"):
    try:
        return Field.from_code(code)
    except ValueError as e:
        raise PayloadError(f"{where}: {e}") from None


def parse_poly(field, data, where="polynomial"):
    if not isinstance(data, list):
        raise PayloadError(f"{where}: expected a coefficient list")
    try:
        return Poly(field, [field.parse(c) for c in data])
    except ValueError as e:
        raise PayloadError(f"{where}: {e}") from None


def poly_to_json(p):
    return p.to_list()


def parse_basis(field, data, m, where="basis"):
    """Columns-of-polynomials matrix format."""
    if not isinstance(data, list) or len(data) == 0:
        raise PayloadError(f"{where}: expected a nonempty list of columns")
    cols = []
    for j, col in enumerate(data):
        if not isinstance(col, list) or len(col) != m:
            raise PayloadError(f"{where}: column {j} must list {m} polynomials")
        cols.append([parse_poly(field, p, f"{where}[{j}][{i}]") for i, p in enumerate(col)])
    return PolyMatrix.from_cols(field, cols)


def basis_to_json(M):
    return [[poly_to_json(p) for p in col] for col in M.columns()]


def parse_lattice(data, where="lattice"):
    _require_keys(data, ("m", "field", "basis"), where=where)
    m = data["m"]
    if type(m) is not int or m < 1:
        raise PayloadError(f"{where}.m: expected a positive integer")
    field = parse_field(data["field"], f"{where}.field")
    basis = parse_basis(field, data["basis"], m, f"{where}.basis")
    if basis.cols != m:
        raise PayloadError(f"{where}.basis: expected {m} columns")
    try:
        return Lattice(field, basis)
    except ValueError as e:
        raise PayloadError(f"{where}.basis: {e}") from None


def lattice_to_json(L):
    return {"m": L.m, "field": L.field.code, "basis": basis_to_json(L.basis)}


def parse_point(field, data, where="point"):
    try:
        return field.parse(data)
    except ValueError as e:
        raise PayloadError(f"{where}: {e}") from None


def parse_chain(data, where="chain"):
    _require_keys(data, ("m", "field", "points", "types", "lattices"), where=where)
    m = data["m"]
    if type(m) is not int or m < 1:
        raise PayloadError(f"{where}.m: expected a positive integer")
    field = parse_field(data["field"], f"{where}.field")
    if not isinstance(data["points"], list):
        raise PayloadError(f"{where}.points: expected a list of field elements")
    points = [parse_point(field, x, f"{where}.points[{i}]") for i, x in enumerate(data["points"])]
    types = data["types"]
    if not isinstance(types, list) or not all(type(t) is int for t in types):
        raise PayloadError(f"{where}.types: expected a list of integers")
    if not isinstance(data["lattices"], list):
        raise PayloadError(f"{where}.lattices: expected a list of basis matrices")
    lattices = []
    for i, rec in enumerate(data["lattices"]):
        basis = parse_basis(field, rec, m, f"{where}.lattices[{i}]")
        try:
            lattices.append(Lattice(field, basis))
        except ValueError as e:
            raise PayloadError(f"{where}.lattices[{i}]: {e}") from None
    try:
        return LatticeChain(m, field, points, types, lattices)
    except ValueError as e:
        raise PayloadError(f"{where}: {e}") from None


def chain_to_json(chain):
    return {
        "m": chain.m,
        "field": chain.field.code,
        "points": [chain.field.to_json(x) for x in chain.points],
        "types": list(chain.types),
        "lattices": [basis_to_json(L.basis) for L in chain.lattices],
    }


def parse_slice_point(data, where="slice"):
    _require_keys(data, ("m", "k", "field", "Y", "flag", "eigenvalues"), where=where)
    m, k = data["m"], data["k"]
    if type(m) is not int or type(k) is not int or m < 1 or k < 1:
        raise PayloadError(f"{where}: m and k must be positive integers")
    field = parse_field(data["field"], f"{where}.field")
    N = m * k
    Y = data["Y"]
    if not isinstance(Y, list) or len(Y) != N or any(
        not isinstance(r, list) or len(r) != N for r in Y
    ):
        raise PayloadError(f"{where}.Y: expected an {N}x{N} matrix (list of rows)")
    rows = [[parse_point(field, e, f"{where}.Y[{i}][{j}]") for j, e in enumerate(r)] for i, r in enumerate(Y)]
    Ym = SliceMatrix(m, k, field, [[r[j] for r in rows] for j in range(N - m, N)])
    if Ym.entries != tuple(map(tuple, rows)):
        raise PayloadError(
            f"{where}.Y: not a slice matrix (identity blocks on the block"
            " subdiagonal, zeros elsewhere outside the last block column)"
        )
    flag_data = data["flag"]
    if not isinstance(flag_data, list):
        raise PayloadError(f"{where}.flag: expected a list of subspace matrices")
    subspaces = []
    for i, W in enumerate(flag_data):
        if not isinstance(W, list):
            raise PayloadError(f"{where}.flag[{i}]: expected a list of columns")
        cols = []
        for j, col in enumerate(W):
            if not isinstance(col, list) or len(col) != N:
                raise PayloadError(f"{where}.flag[{i}][{j}]: expected a length-{N} vector")
            cols.append([parse_point(field, e, f"{where}.flag[{i}][{j}][{t}]") for t, e in enumerate(col)])
        subspaces.append(cols)
    if not isinstance(data["eigenvalues"], list):
        raise PayloadError(f"{where}.eigenvalues: expected a list of field elements")
    eigenvalues = [
        parse_point(field, x, f"{where}.eigenvalues[{i}]")
        for i, x in enumerate(data["eigenvalues"])
    ]
    return SlicePoint(Ym, Flag(field, N, subspaces), eigenvalues)


def slice_point_to_json(p):
    F = p.Y.field
    return {
        "m": p.Y.m,
        "k": p.Y.k,
        "field": F.code,
        "Y": [[F.to_json(e) for e in row] for row in p.Y.entries],
        "flag": [
            [[F.to_json(e) for e in col] for col in W]
            for W in p.flag.subspaces
        ],
        "eigenvalues": [F.to_json(x) for x in p.eigenvalues],
    }


def parse_fit(data, where="payload"):
    """(samples, degree) of a fit request: a list of [q, count] integer pairs
    and an optional nonnegative integer degree (None when absent)."""
    _require_keys(data, ("samples",), optional=("degree",), where=where)
    samples = data["samples"]
    if not isinstance(samples, list) or not all(
        isinstance(s, list) and len(s) == 2 and all(type(v) is int for v in s)
        for s in samples
    ):
        raise PayloadError(f"{where}.samples: expected a list of [q, count] integer pairs")
    degree = data.get("degree")
    if degree is not None and not (type(degree) is int and degree >= 0):
        raise PayloadError(f"{where}.degree: expected a nonnegative integer")
    return [tuple(s) for s in samples], degree
