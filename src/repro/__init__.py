"""repro — a reproduction of "A Unifying Algorithm for Hierarchical Queries".

PODS 2025, by Mahmoud Abo Khamis, Jesse Comer, Phokion G. Kolaitis, Sudeepa
Roy and Val Tannen (arXiv:2506.10238).

The library implements:

* the query model and the three equivalent characterizations of hierarchical
  SJF-BCQs (:mod:`repro.query`);
* a relational substrate with exact CQ evaluation and K-annotated relations
  (:mod:`repro.db`);
* the 2-monoid algebra of Definition 5.6 with all of the paper's
  instantiations (:mod:`repro.algebra`);
* **Algorithm 1**, the unifying polynomial-time algorithm
  (:mod:`repro.core`);
* problem front-ends with independent brute-force baselines
  (:mod:`repro.problems`);
* the Theorem 4.4 NP-hardness reduction (:mod:`repro.hardness`);
* workload generators and the benchmark harness
  (:mod:`repro.workloads`, :mod:`repro.bench`).

Quickstart
----------
>>> from repro import parse_query, Database, BagSetInstance, maximize
>>> q = parse_query("Q() :- R(A,B), S(A,C), T(A,C,D)")
>>> d = Database.from_relations({"R": [(1, 5)], "S": [(1, 1), (1, 2)],
...                              "T": [(1, 2, 4)]})
>>> dr = Database.from_relations({"R": [(1, 6), (1, 7)],
...                               "T": [(1, 1, 4), (1, 2, 9)]})
>>> maximize(q, BagSetInstance(d, dr, budget=2))
4
"""

from repro.algebra import (
    BagSetMonoid,
    BooleanSemiring,
    CountingSemiring,
    ExactProbabilityMonoid,
    ProbabilityMonoid,
    ProvenanceMonoid,
    SatVector,
    ShapleyMonoid,
    TwoMonoid,
)
from repro.core import (
    CountingMonoid,
    IncrementalEvaluator,
    Plan,
    compile_plan,
    evaluate_grouped,
    evaluate_hierarchical,
    execute_plan,
    naive_lineage,
    read_once_lineage,
    render_rules,
    run_algorithm,
)
from repro.db import Database, Fact, KDatabase, KRelation, repair_cost
from repro.engine import Engine, EngineSession, register_request_family
from repro.serve import Request, Scheduler, Server, serve_requests
from repro.db.evaluation import (
    count_satisfying_assignments,
    evaluates_true,
    satisfying_assignments,
)
from repro.exceptions import (
    AlgebraError,
    NotHierarchicalError,
    NotSelfJoinFreeError,
    ParseError,
    QueryError,
    ReductionError,
    ReproError,
    SchemaError,
)
from repro.problems import (
    BagSetInstance,
    ProbabilisticDatabase,
    ResilienceInstance,
    ShapleyInstance,
    banzhaf_value,
    contingency_set,
    expected_answer_count,
    optimal_repair,
    resilience,
    marginal_probability,
    marginal_probability_brute_force,
    maximize,
    maximize_brute_force,
    maximize_greedy,
    maximize_profile,
    sat_counts,
    sat_counts_brute_force,
    shapley_value,
    shapley_values,
)
from repro.query import (
    Atom,
    BCQ,
    eliminate,
    is_hierarchical,
    make_query,
    parse_query,
)

__version__ = "1.0.0"

__all__ = [
    "AlgebraError",
    "Atom",
    "BCQ",
    "BagSetInstance",
    "BagSetMonoid",
    "BooleanSemiring",
    "CountingMonoid",
    "CountingSemiring",
    "Database",
    "Engine",
    "EngineSession",
    "ExactProbabilityMonoid",
    "Fact",
    "KDatabase",
    "KRelation",
    "NotHierarchicalError",
    "NotSelfJoinFreeError",
    "ParseError",
    "IncrementalEvaluator",
    "Plan",
    "ProbabilisticDatabase",
    "ProbabilityMonoid",
    "ProvenanceMonoid",
    "QueryError",
    "ReductionError",
    "ReproError",
    "Request",
    "ResilienceInstance",
    "Scheduler",
    "Server",
    "SatVector",
    "SchemaError",
    "ShapleyInstance",
    "ShapleyMonoid",
    "TwoMonoid",
    "__version__",
    "banzhaf_value",
    "compile_plan",
    "contingency_set",
    "count_satisfying_assignments",
    "eliminate",
    "evaluate_grouped",
    "evaluate_hierarchical",
    "expected_answer_count",
    "evaluates_true",
    "execute_plan",
    "is_hierarchical",
    "make_query",
    "marginal_probability",
    "marginal_probability_brute_force",
    "maximize",
    "maximize_brute_force",
    "maximize_greedy",
    "maximize_profile",
    "naive_lineage",
    "optimal_repair",
    "parse_query",
    "read_once_lineage",
    "register_request_family",
    "render_rules",
    "repair_cost",
    "resilience",
    "run_algorithm",
    "serve_requests",
    "sat_counts",
    "sat_counts_brute_force",
    "satisfying_assignments",
    "shapley_value",
    "shapley_values",
]
