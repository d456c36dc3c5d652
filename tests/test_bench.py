"""Tests for the benchmark harness and (fast) experiment runners."""

import math

import pytest

from repro.bench.harness import doubling_ratios, loglog_slope, time_callable
from repro.bench.reporting import ExperimentResult, format_table
from repro.bench.experiments import (
    figure1_instance,
    run_e0_figure1,
    run_e1_elimination_examples,
    run_e5_bsm_vs_baselines,
    run_e7_shapley_vs_baselines,
    run_e11_law_census,
)


class TestHarness:
    def test_time_callable_returns_result(self):
        elapsed, result = time_callable(lambda: 42, repeats=2)
        assert result == 42
        assert elapsed >= 0

    def test_loglog_slope_recovers_exponent(self):
        xs = [10, 20, 40, 80]
        for exponent in (1.0, 2.0, 0.5):
            ys = [x**exponent for x in xs]
            assert loglog_slope(xs, ys) == pytest.approx(exponent, abs=1e-9)

    def test_loglog_slope_input_validation(self):
        with pytest.raises(ValueError):
            loglog_slope([1], [1])
        with pytest.raises(ValueError):
            loglog_slope([2, 2], [1, 2])

    def test_doubling_ratios(self):
        assert doubling_ratios([1, 2, 4]) == [2, 2]
        assert doubling_ratios([0, 5]) == [math.inf]


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(("a", "bbb"), [(1, 2), (333, 4)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_experiment_result_render(self):
        result = ExperimentResult("EX", "demo", ("x",))
        result.add_row(1)
        result.add_note("a note")
        rendered = result.render()
        assert "EX" in rendered and "demo" in rendered and "a note" in rendered

    def test_float_formatting(self):
        table = format_table(("v",), [(0.5,), (1e-9,), (0.0,)])
        assert "0.5000" in table
        assert "e-09" in table


class TestPerfSuiteDocument:
    def test_single_experiment_document_only_claims_itself(self, tmp_path):
        """`repro bench E4 --json out.json` must not write a summary
        claiming the whole suite ran: experiments and summary carry exactly
        the executed ids (regression guard for the single-experiment run)."""
        from repro.bench.perf import run_perf_suite

        document = run_perf_suite(["E4"], quick=True, repeats=1)
        assert set(document["experiments"]) == {"E4"}
        assert set(document["summary"]) == {"E4"}

    def test_schema_v8_fields(self):
        from repro.bench.perf import (
            SCHEMA_VERSION,
            available_tiers,
            run_perf_suite,
        )

        document = run_perf_suite(["res"], quick=True, repeats=1)
        assert document["schema_version"] == SCHEMA_VERSION == 10
        assert document["tiers"] == available_tiers()
        environment = document["environment"]
        assert environment["python"] and environment["platform"]
        assert environment["numpy"]  # a version string or "absent"
        assert environment["cpu_count"] >= 1
        summary = document["summary"]["res"]
        assert summary["agree"] is True
        if "array" in document["tiers"]:
            run = document["experiments"]["res"]["runs"][-1]
            assert "array_s" in run and "array_vs_kernel" in run
            assert "largest_config_array_vs_kernel" in summary

    def test_multiquery_times_both_arms_on_every_tier(self):
        """v10: each batch records the per-binding loop, one execute_fused
        call over the same tasks, their ratio and that their answers are
        ``==``."""
        from repro.bench.perf import available_tiers, run_perf_suite

        document = run_perf_suite(["multiquery"], quick=True, repeats=1)
        experiment = document["experiments"]["multiquery"]
        assert experiment["agree"] is True
        assert [run["params"]["tier"] for run in experiment["runs"]] == (
            available_tiers()
        )
        for run in experiment["runs"]:
            for entry in run["batches"].values():
                assert entry["fused_identical"] is True
                assert entry["fused_s"] > 0 and entry["speedup"] > 0

    def test_compare_tolerates_one_sided_tiers(self):
        """Satellite: a v5 artifact (no sharded timings, no sharded serve
        leg) diffed against a v6 one must render ``n/a`` for the one-sided
        columns/tiers instead of raising (both directions)."""
        from repro.bench.perf import compare_perf_documents

        v5 = {
            "schema_version": 5,
            "environment": {"numpy": "2.4.6"},
            "experiments": {
                "E2": {"runs": [{
                    "params": {"|D|": 900}, "scalar_s": 1.0,
                    "kernel_s": 0.5, "speedup": 2.0,
                }]},
                "serve": {"runs": [
                    {"params": {"tier": "scalar"}, "oneshot_s": 1.0,
                     "speedup": 1.5},
                    {"params": {"tier": "array"}, "oneshot_s": 0.7,
                     "speedup": 2.0},
                ]},
            },
        }
        v6 = {
            "schema_version": 6,
            "environment": {"numpy": "2.4.6"},
            "experiments": {
                "E2": {"runs": [{
                    "params": {"|D|": 900}, "scalar_s": 1.0,
                    "sharded_s": 0.4, "sharded_speedup": 2.5,
                }]},
                "serve": {"runs": [
                    {"params": {"tier": "scalar"}, "oneshot_s": 0.9,
                     "speedup": 1.6},
                    {"params": {"tier": "array"}, "oneshot_s": 0.6,
                     "speedup": 2.1},
                    {"params": {"tier": "sharded"}, "oneshot_s": 0.6,
                     "speedup": 2.2},
                ]},
            },
        }
        forward = compare_perf_documents(v5, v6)
        assert "n/a (not in OLD)" in forward
        assert "tier sharded: n/a (only in NEW)" in forward
        backward = compare_perf_documents(v6, v5)
        assert "n/a (not in NEW)" in backward
        assert "tier sharded: n/a (only in OLD)" in backward

    def test_compare_documents_renders_deltas(self):
        from repro.bench.perf import compare_perf_documents, run_perf_suite

        old = run_perf_suite(["E4"], quick=True, repeats=1)
        new = run_perf_suite(["E4", "res"], quick=True, repeats=1)
        rendered = compare_perf_documents(old, new)
        assert "== E4 ==" in rendered
        assert "== res: only in NEW ==" in rendered
        assert "scalar" in rendered and "kernel" in rendered
        assert "speedup" in rendered

    def test_cli_bench_compare(self, tmp_path, capsys):
        from repro.cli import main

        old_path = tmp_path / "old.json"
        new_path = tmp_path / "new.json"
        assert main(["bench", "E4", "--quick", "--json", str(old_path)]) == 0
        assert main(["bench", "E4", "--quick", "--json", str(new_path)]) == 0
        capsys.readouterr()
        code = main(["bench", "--compare", str(old_path), str(new_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "perf comparison" in out and "== E4 ==" in out

    def test_cli_bench_compare_rejects_run_arguments(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["bench", "E4", "--compare", "old.json", "new.json"]
        )
        assert code == 2


class TestFastExperiments:
    def test_figure1_instance_matches_paper(self):
        query, instance = figure1_instance()
        assert len(instance.database) == 4
        assert len(instance.repair_database) == 4
        assert instance.budget == 2

    def test_e0(self):
        result = run_e0_figure1()
        values = {row[0]: row[1] for row in result.rows}
        assert values["no repair (paper: 1)"] == 1
        assert values["add R(1,6), R(1,7) (paper: 3)"] == 3
        assert values["unified algorithm optimum (paper: 4)"] == 4
        assert values["brute-force optimum (paper: 4)"] == 4

    def test_e1(self):
        result = run_e1_elimination_examples()
        outcomes = {row[3]: row[2] for row in result.rows}
        # measured outcome equals the paper's expectation for every example
        for row in result.rows:
            assert row[2] == row[3]
        assert "Stuck" in outcomes

    def test_e5(self):
        result = run_e5_bsm_vs_baselines(seeds=(0, 1))
        for row in result.rows:
            _seed, _d, _dr, _theta, unified, brute, greedy, gap = row
            assert unified == brute
            assert greedy <= unified
            assert gap == unified - greedy

    def test_e7(self):
        result = run_e7_shapley_vs_baselines(sample_counts=(50,))
        rows = {row[0]: row for row in result.rows}
        assert rows["unified (#Sat)"][3] == 0
        assert rows["permutations (Def. 5.12)"][3] == 0

    def test_e11(self):
        result = run_e11_law_census()
        by_name = {row[0]: row for row in result.rows}
        for name in ("probability", "bag-set maximization", "#Sat / Shapley"):
            assert by_name[name][1] == "ok"
            assert by_name[name][2] == "NO", f"{name} must not distribute"
        assert by_name["#Sat / Shapley"][3] == "NO"
        assert by_name["counting (N, +, ×)"][2] == "yes"
