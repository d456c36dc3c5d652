"""In-process probes: time one public function of each layer at a time.

The traced run opens the program on the same generated data the workload
serves and times each call listed below, as the median of several calls.
TID probes use the workload's own probabilistic database (whatif, which
has none, uses the cold-load data for its seed); Shapley and bag-set
probes use the whatif data for the run's seed.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time
import tracemalloc

from child import Client, ServerProcess
from gen import QUERY
from workloads import hottest_first, sweep_ops

#: Calls timed per cheap probe (memo hits, HTTP round trips).
FAST_CALLS = 200


def _median_ms(call, repeats: int, prepare=None) -> float:
    """Median wall time of ``call(prepare())`` in milliseconds."""
    samples = []
    for _ in range(repeats):
        argument = prepare() if prepare is not None else None
        started = time.perf_counter()
        call(argument)
        samples.append(time.perf_counter() - started)
    return 1e3 * statistics.median(samples)


def tid_probes(tid_payload: bytes, seed: int) -> dict:
    """db, problems, core and engine probes on a probabilistic database.

    The shared-scan probe runs the first pqe-sweep op for *seed*.
    """
    from repro.core.algorithm import compile_for_database, execute_plan
    from repro.core.fused import FusedTask, execute_fused
    from repro.core.kernels import array_kernel_for
    from repro.core.plan import clear_plan_cache, compile_plan
    from repro.db.annotated import KDatabase
    from repro.db.io import probabilistic_from_dict
    from repro.engine import Engine
    from repro.engine.session import canonical_binding
    from repro.query.parser import parse_query
    from repro.serve import Server
    from repro.serve.request import Request

    query = parse_query(QUERY)
    engine = Engine()
    monoid = engine.create_monoid("probability", exact=False)
    metrics = {}

    metrics["db.decode_ms"] = _median_ms(
        lambda _: probabilistic_from_dict(json.loads(tid_payload)), 5
    )
    pdb = probabilistic_from_dict(json.loads(tid_payload))
    bindings = next(sweep_ops(hottest_first(pdb), seed, 0))
    metrics["problems.facts_ms"] = _median_ms(lambda _: pdb.facts(), 5)
    facts = pdb.facts()

    def annotate(columnar: bool):
        return KDatabase.annotate(
            query, monoid, facts, pdb.probability, columnar=columnar
        )

    metrics["db.annotate_ms"] = _median_ms(lambda _: annotate(True), 3)
    kernel = array_kernel_for(monoid)
    metrics["db.view_build_ms"] = _median_ms(
        lambda database: [
            database.columnar_relation(atom.relation, kernel)
            for atom in query.atoms
        ],
        3, prepare=lambda: annotate(False),
    )
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = annotate(True)
        gc.collect()
        metrics["db.annotated_mb"] = (
            tracemalloc.get_traced_memory()[0] - before
        ) / 2**20
    finally:
        tracemalloc.stop()
    del kept

    def compile_cold(_):
        clear_plan_cache()
        compile_plan(query, policy=engine.policy)

    metrics["core.compile_ms"] = _median_ms(compile_cold, 20)
    annotated = annotate(True)
    plan = compile_for_database(query, annotated, engine.policy)
    execute_plan(plan, annotated)
    metrics["core.execute_ms"] = _median_ms(
        lambda _: execute_plan(plan, annotated), 10
    )

    def declined():
        raise RuntimeError("shared-scan fusion declined in the probe")

    tasks = [
        FusedTask(plan=plan, annotated=annotated, fallback=declined,
                  binding=canonical_binding({"A": value}))
        for value in bindings
    ]
    execute_fused(tasks)
    metrics["core.fused_ms_per_query"] = _median_ms(
        lambda _: execute_fused(tasks), 5
    ) / len(tasks)

    session = engine.open(query, probabilistic=pdb)
    session.request("pqe")
    metrics["engine.memo_hit_us"] = 1e3 * _median_ms(
        lambda _: session.request("pqe"), FAST_CALLS
    )
    with Server(query, probabilistic=pdb, workers=2) as server:
        server.submit(Request.make("pqe")).result()
        metrics["serve.memo_hit_submit_us"] = 1e3 * _median_ms(
            lambda _: server.submit(Request.make("pqe")).result(), FAST_CALLS
        )
    return metrics


def http_probe(root, document, log_dir) -> dict:
    """The fixed cost of HTTP: POST /v1/query of a warmed, unbound pqe."""
    body = json.dumps({"family": "pqe"}).encode()
    with ServerProcess(root, document, log_dir) as server:
        client = Client(server.port)
        try:
            def post(_):
                status, _payload = client.request("POST", "/v1/query", body)
                if status != 200:
                    raise RuntimeError(f"memo-hit probe answered {status}")

            post(None)
            return {"http.memo_hit_rtt_ms": _median_ms(post, FAST_CALLS)}
        finally:
            client.close()


def whatif_probes(document: dict, seed: int) -> dict:
    """Shapley and bag-set probes on the whatif data."""
    from repro.core.algorithm import compile_for_database, execute_plan
    from repro.core.kernels import array_kernel_for
    from repro.db.annotated import KDatabase
    from repro.db.io import database_from_dict
    from repro.engine import Engine
    from repro.problems.bagset_max import BagSetInstance
    from repro.problems.bagset_max import annotation_psi as bagset_psi
    from repro.problems.shapley import ShapleyInstance
    from repro.problems.shapley import annotation_psi as shapley_psi
    from repro.query.parser import parse_query

    query = parse_query(QUERY)
    engine = Engine()
    sources = {
        name: database_from_dict(payload)
        for name, payload in document["data"].items()
    }
    rng = random.Random(f"probes/{seed}")
    metrics = {}

    instance = ShapleyInstance(
        exogenous=sources["exogenous"], endogenous=sources["endogenous"]
    )
    monoid = engine.create_monoid("shapley", instance.endogenous_count + 1)

    def shapley_inputs(_):
        psi = shapley_psi(instance, monoid)
        return psi, [*instance.exogenous.facts(), *instance.endogenous.facts()]

    metrics["problems.shapley_psi_ms"] = _median_ms(shapley_inputs, 5)
    psi, facts = shapley_inputs(None)
    annotated = KDatabase.annotate(query, monoid, facts, psi, columnar=True)
    plan = compile_for_database(query, annotated, engine.policy)
    execute_plan(plan, annotated)
    metrics["core.shapley_run_ms"] = _median_ms(
        lambda _: execute_plan(plan, annotated), 5
    )

    kernel = array_kernel_for(monoid)
    endogenous = sorted(instance.endogenous.facts(), key=repr)
    samples = []
    for fact in rng.sample(endogenous, 5):
        relation = annotated.relation(fact.relation)
        annotated.columnar_relation(fact.relation, kernel)
        original = relation.annotation(fact.values)
        started = time.perf_counter()
        relation.set(fact.values, monoid.one)
        annotated.columnar_relation(fact.relation, kernel)
        samples.append(time.perf_counter() - started)
        relation.set(fact.values, original)
    metrics["db.view_rebuild_ms"] = 1e3 * statistics.median(samples)

    repair_size = len(sources["repair"])
    budget = max(1, repair_size // 2)
    bagset = BagSetInstance(
        database=sources["database"], repair_database=sources["repair"],
        budget=budget,
    )
    bagset_monoid = engine.create_monoid("bagset", budget + 1)
    bagset_db = KDatabase.annotate(
        query, bagset_monoid,
        [*bagset.database.facts(), *bagset.addable_facts()],
        bagset_psi(bagset, bagset_monoid), columnar=True,
    )
    bagset_plan = compile_for_database(query, bagset_db, engine.policy)
    execute_plan(bagset_plan, bagset_db)
    metrics["core.bagset_run_ms"] = _median_ms(
        lambda _: execute_plan(bagset_plan, bagset_db), 5
    )

    session = engine.open(query, **sources)
    session.sat_counts()
    attributed = iter(rng.sample(endogenous, 5))
    metrics["engine.shapley_value_ms"] = _median_ms(
        lambda fact: session.shapley_value(fact), 5,
        prepare=lambda: next(attributed),
    )
    budgets = iter(rng.sample(range(1, repair_size + 1), 5))
    metrics["engine.maximize_ms"] = _median_ms(
        lambda theta: session.maximize(theta), 5,
        prepare=lambda: next(budgets),
    )
    return metrics
