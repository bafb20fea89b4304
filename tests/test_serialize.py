"""JSON payload parsing: strictness, error naming, roundtrips."""

import random

import pytest

from latslice.fields import GF, QQ
from latslice.serialize import (
    PayloadError,
    chain_to_json,
    lattice_to_json,
    parse_chain,
    parse_field,
    parse_lattice,
    parse_slice_point,
    slice_point_to_json,
)
from latslice.slicecorr import Flag, SlicePoint, base_point
from test_slicecorr import random_slice


LAT = {"field": "Fp:3", "m": 2, "basis": [[[0, 1], [0]], [[1], [0, 1]]]}

CHAIN = {
    "field": "Fp:3",
    "m": 2,
    "points": ["0", "1"],
    "types": [1, 1],
    "lattices": [
        [[[0, 1], [0]], [[0], [1]]],
        [[[0, 1], [0]], [[0], [-1, 1]]],
    ],
}


class TestField:
    def test_codes(self):
        assert parse_field("Q") == QQ
        assert parse_field("Fp:5") == GF(5)

    def test_not_prime(self):
        with pytest.raises(PayloadError, match="prime"):
            parse_field("Fp:6")

    def test_garbage(self):
        with pytest.raises(PayloadError):
            parse_field("F3")


class TestLattice:
    def test_valid_record_canonicalized(self):
        L = parse_lattice(LAT)
        assert L.m == 2
        # emitting gives the canonical Hermite basis back
        again = parse_lattice(lattice_to_json(L))
        assert again == L

    def test_wrong_shape_names_basis(self):
        bad = {"field": "Fp:5", "m": 2, "basis": [[[0, 1]], [[1]]]}
        with pytest.raises(PayloadError, match="basis"):
            parse_lattice(bad)

    def test_unknown_key_rejected(self):
        bad = dict(LAT, extra=1)
        with pytest.raises(PayloadError, match="extra"):
            parse_lattice(bad)

    def test_missing_key_named(self):
        with pytest.raises(PayloadError, match="basis"):
            parse_lattice({"field": "Fp:3", "m": 2})

    def test_rational_entries(self):
        rec = {"field": "Q", "m": 1, "basis": [[["1/2", 1]]]}
        L = parse_lattice(rec)
        # canonical form is monic
        assert lattice_to_json(L)["basis"] == [[["1/2", 1]]]


class TestChain:
    def test_roundtrip(self):
        chain = parse_chain(CHAIN)
        assert parse_chain(chain_to_json(chain)) == chain

    def test_length_mismatch(self):
        bad = dict(CHAIN, types=[1])
        with pytest.raises(PayloadError):
            parse_chain(bad)


class TestSlicePoint:
    def test_roundtrip(self):
        from latslice.slicecorr import chain_to_slice

        p = chain_to_slice(parse_chain(CHAIN))
        assert parse_slice_point(slice_point_to_json(p)) == p

    def test_missing_flag(self):
        rec = slice_point_to_json_from_chain()
        rec.pop("flag")
        with pytest.raises(PayloadError, match="flag"):
            parse_slice_point(rec)


class TestSlicePattern:
    """The slice pattern is checked where a dense Y enters: every entry
    outside the last block column is fixed."""

    def record(self, Y):
        F = Y.field
        full = [[F.one if i == j else F.zero for j in range(Y.N)] for i in range(Y.N)]
        return slice_point_to_json(SlicePoint(Y, Flag(F, Y.N, [full]), (F.one,)))

    def test_slice_matrix_parses(self):
        F = GF(3)
        for Y in (base_point(2, 2, F), random_slice(random.Random(5), F, 2, 2)):
            assert parse_slice_point(self.record(Y)).Y == Y

    def test_k_one_accepts_every_matrix(self):
        F = GF(3)
        rec = self.record(base_point(2, 1, F))
        for a in range(3):
            rec["Y"] = [[a, 1], [2, 0]]
            assert parse_slice_point(rec).Y.block_column == ((a, 2), (1, 0))

    def test_entry_outside_the_block_column_refused(self):
        F = GF(3)
        rec = self.record(random_slice(random.Random(5), F, 2, 2))
        for i in range(4):
            for j in range(2):
                bad = [list(row) for row in rec["Y"]]
                bad[i][j] = F.add(bad[i][j], F.one)
                with pytest.raises(PayloadError, match=r"slice\.Y: not a slice matrix"):
                    parse_slice_point(dict(rec, Y=bad))


def slice_point_to_json_from_chain():
    from latslice.slicecorr import chain_to_slice

    return slice_point_to_json(chain_to_slice(parse_chain(CHAIN)))
