"""Tests for the command-line interface."""

import json
from fractions import Fraction

import pytest

from repro.cli import main
from repro.db.io import (
    load_probabilistic,
    probabilistic_from_dict,
    probabilistic_to_dict,
    save_probabilistic,
)
from repro.db.fact import Fact
from repro.exceptions import SchemaError
from repro.problems.possible_worlds import ProbabilisticDatabase

FIG1_QUERY = "Q() :- R(A,B), S(A,C), T(A,C,D)"


@pytest.fixture
def fig1_files(tmp_path):
    db = tmp_path / "d.json"
    dr = tmp_path / "dr.json"
    pdb = tmp_path / "pdb.json"
    exo = tmp_path / "exo.json"
    endo = tmp_path / "endo.json"
    db.write_text(json.dumps(
        {"relations": {"R": [[1, 5]], "S": [[1, 1], [1, 2]], "T": [[1, 2, 4]]}}
    ))
    dr.write_text(json.dumps(
        {"relations": {"R": [[1, 6], [1, 7]], "T": [[1, 1, 4], [1, 2, 9]]}}
    ))
    pdb.write_text(json.dumps({"facts": [
        {"relation": "R", "values": [1, 5], "probability": "1/2"},
        {"relation": "S", "values": [1, 1], "probability": "1/2"},
        {"relation": "S", "values": [1, 2], "probability": "1/2"},
        {"relation": "T", "values": [1, 2, 4], "probability": "1/2"},
    ]}))
    exo.write_text(json.dumps({"relations": {"S": [[1, 1], [1, 2]]}}))
    endo.write_text(json.dumps({"relations": {"R": [[1, 5]], "T": [[1, 2, 4]]}}))
    return {"db": db, "dr": dr, "pdb": pdb, "exo": exo, "endo": endo}


class TestCheckCommand:
    def test_hierarchical_query(self, capsys):
        assert main(["check", FIG1_QUERY]) == 0
        out = capsys.readouterr().out
        assert "hierarchical: True" in out
        assert "(Done!)" in out
        assert "plan for" in out

    def test_non_hierarchical_query(self, capsys):
        assert main(["check", "Q() :- R(X), S(X,Y), T(Y)"]) == 0
        out = capsys.readouterr().out
        assert "hierarchical: False" in out
        assert "(Stuck!)" in out
        assert "plan for" not in out


class TestEvaluationCommands:
    def test_count(self, capsys, fig1_files):
        assert main(["count", FIG1_QUERY, "--db", str(fig1_files["db"])]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_pqe_exact(self, capsys, fig1_files):
        assert main(
            ["pqe", FIG1_QUERY, "--db", str(fig1_files["pdb"]), "--exact"]
        ) == 0
        assert "1/8" in capsys.readouterr().out

    def test_pqe_float(self, capsys, fig1_files):
        assert main(["pqe", FIG1_QUERY, "--db", str(fig1_files["pdb"])]) == 0
        assert "0.125" in capsys.readouterr().out

    def test_bsm_with_witness(self, capsys, fig1_files):
        assert main([
            "bsm", FIG1_QUERY, "--db", str(fig1_files["db"]),
            "--repair", str(fig1_files["dr"]), "--budget", "2", "--witness",
        ]) == 0
        out = capsys.readouterr().out
        assert "optimal Q(D') at budget θ=2: 4" in out
        assert "(1, 2, 4)" in out
        assert "+ T(1, 2, 9)" in out

    def test_shapley_with_banzhaf(self, capsys, fig1_files):
        assert main([
            "shapley", FIG1_QUERY, "--exogenous", str(fig1_files["exo"]),
            "--endogenous", str(fig1_files["endo"]), "--banzhaf",
        ]) == 0
        out = capsys.readouterr().out
        assert "shapley=1/2" in out
        assert "banzhaf=1/2" in out

    def test_resilience_with_witness(self, capsys, fig1_files):
        assert main([
            "resilience", FIG1_QUERY, "--db", str(fig1_files["db"]),
            "--witness",
        ]) == 0
        out = capsys.readouterr().out
        assert "resilience: 1" in out
        assert "contingency set" in out

    def test_resilience_infinite(self, capsys, fig1_files, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"relations": {}}))
        assert main([
            "resilience", FIG1_QUERY, "--db", str(empty),
            "--exogenous", str(fig1_files["db"]),
        ]) == 0
        assert "∞" in capsys.readouterr().out


class TestExperimentsCommand:
    def test_runs_selected(self, capsys):
        assert main(["experiments", "E0"]) == 0
        assert "Figure 1 worked example" in capsys.readouterr().out

    def test_unknown_id(self, capsys):
        assert main(["experiments", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestErrorHandling:
    def test_repro_errors_become_exit_code_one(self, capsys, fig1_files):
        # Overlapping exogenous/endogenous parts raise a ReproError.
        assert main([
            "shapley", FIG1_QUERY, "--exogenous", str(fig1_files["db"]),
            "--endogenous", str(fig1_files["db"]),
        ]) == 1
        assert "error:" in capsys.readouterr().err

    def test_an_escaping_exception_exits_70_with_its_traceback(
        self, capsys, monkeypatch
    ):
        import repro.cli as cli

        def crash(args):
            raise RuntimeError("command broke")

        monkeypatch.setitem(cli._HANDLERS, "cache", crash)
        assert cli.main(["cache"]) == 70
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "RuntimeError: command broke" in err


class TestProbabilisticIO:
    def test_round_trip(self, tmp_path):
        pdb = ProbabilisticDatabase(
            {Fact("R", (1, 5)): Fraction(1, 3), Fact("S", ("x",)): 0.25}
        )
        path = tmp_path / "pdb.json"
        save_probabilistic(pdb, path)
        loaded = load_probabilistic(path)
        assert loaded.probability(Fact("R", (1, 5))) == Fraction(1, 3)
        assert loaded.probability(Fact("S", ("x",))) == 0.25

    def test_fractions_stay_exact_in_json(self):
        pdb = ProbabilisticDatabase({Fact("R", (1,)): Fraction(1, 3)})
        payload = probabilistic_to_dict(pdb)
        assert payload["facts"][0]["probability"] == "1/3"
        assert probabilistic_from_dict(payload).probability(
            Fact("R", (1,))
        ) == Fraction(1, 3)

    def test_malformed_payloads(self):
        with pytest.raises(SchemaError):
            probabilistic_from_dict({})
        with pytest.raises(SchemaError):
            probabilistic_from_dict({"facts": [{"relation": "R"}]})


class TestCacheCommand:
    def test_reports_plan_cache_counters(self, capsys):
        from repro.core.plan import clear_plan_cache, compile_plan
        from repro.query.parser import parse_query

        clear_plan_cache()
        query = parse_query("Q() :- R(X), S(X,Y)")
        compile_plan(query)
        compile_plan(query)
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "size: 1" in out
        assert "hits: 1" in out
        assert "misses: 1" in out
        assert "hit_rate: 50.0%" in out

    def test_clear_drops_memoized_plans(self, capsys):
        from repro.core.plan import compile_plan, plan_cache_info
        from repro.query.parser import parse_query

        compile_plan(parse_query("Q() :- R(X)"))
        assert plan_cache_info()["size"] >= 1
        assert main(["cache", "--clear"]) == 0
        out = capsys.readouterr().out
        assert "plan cache cleared" in out
        assert plan_cache_info() == {
            "hits": 0, "misses": 0, "size": 0, "max_size": 256,
        }
