"""Tests for database JSON serialization."""

from fractions import Fraction

import pytest

from repro.db.database import Database
from repro.db.fact import Fact
from repro.db.io import (
    database_from_dict,
    database_to_dict,
    load_database,
    probabilistic_from_dict,
    save_database,
)
from repro.exceptions import AlgebraError, SchemaError


class TestRoundTrip:
    def test_dict_round_trip(self):
        database = Database.from_relations(
            {"R": [(1, 5)], "S": [(1, 1), (1, 2)], "T": [(1, 2, 4)]}
        )
        assert database_from_dict(database_to_dict(database)) == database

    def test_file_round_trip(self, tmp_path):
        database = Database.from_relations({"R": [(1, "x")], "S": [(2.5, None)]})
        path = tmp_path / "db.json"
        save_database(database, path)
        assert load_database(path) == database

    def test_empty_database(self, tmp_path):
        path = tmp_path / "empty.json"
        save_database(Database(), path)
        assert len(load_database(path)) == 0

    def test_deterministic_output(self, tmp_path):
        database = Database.from_relations({"B": [(2,), (1,)], "A": [(3,)]})
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_database(database, first)
        save_database(database, second)
        assert first.read_text() == second.read_text()


class TestErrors:
    def test_missing_relations_key(self):
        with pytest.raises(SchemaError):
            database_from_dict({})

    def test_wrong_relations_type(self):
        with pytest.raises(SchemaError):
            database_from_dict({"relations": [1, 2]})


class TestProbabilisticDecoding:
    """Malformed TID entries raise SchemaError naming the entry."""

    @staticmethod
    def _decode(**entry):
        fact = {"relation": "R", "values": [1, 2], "probability": 0.5}
        fact.update(entry)
        return probabilistic_from_dict({"facts": [fact]})

    def test_non_numeric_probability_string(self):
        with pytest.raises(SchemaError, match="malformed fact entry.*'abc'"):
            self._decode(probability="abc")

    def test_null_probability(self):
        with pytest.raises(SchemaError, match="malformed fact entry.*None"):
            self._decode(probability=None)

    def test_nested_list_values(self):
        with pytest.raises(SchemaError, match=r"malformed fact entry.*\[\[1\]"):
            self._decode(values=[[1], 2])

    def test_out_of_range_probability_stays_an_algebra_error(self):
        with pytest.raises(AlgebraError, match="invalid probability 1.5"):
            self._decode(probability=1.5)

    def test_later_duplicate_wins_and_keeps_first_position(self):
        pdb = probabilistic_from_dict({"facts": [
            {"relation": "S", "values": [1], "probability": "1/4"},
            {"relation": "R", "values": [2], "probability": 0.25},
            {"relation": "S", "values": [1], "probability": 1},
        ]})
        assert len(pdb) == 2
        assert pdb.probability(Fact("S", (1,))) == 1
        assert pdb.facts() == (Fact("R", (2,)), Fact("S", (1,)))
        assert pdb.as_exact().probability(Fact("R", (2,))) == Fraction(1, 4)
