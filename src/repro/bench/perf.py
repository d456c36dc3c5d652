"""Performance suite: the ``BENCH_perf.json`` trajectory.

Two kinds of measurements:

* **scalar vs kernel vs array** — reruns the hot workloads of four scaling
  experiments (E2 PQE, E4 bag-set maximization, E6 Shapley ``#Sat``, and
  the ``res`` resilience stream) once per execution tier and configuration:
  the per-tuple scalar baseline (``kernel_mode="scalar"``), the batched
  kernel engine (``kernel_mode="batched"``), and — with numpy installed —
  the columnar array tier (``kernel_mode="array"``): scalar columns for the
  flat carriers of E2/``res``, **packed 2-D vector rows** for the bag-set
  and Shapley carriers of E4/E6, asserting answer agreement across all
  tiers (bit-identical for the exact carriers).  Array timings run against
  the cached columnar views (the session serving story): the dict → column
  materialization is paid on the first run and amortized thereafter, which
  best-of-N timing reflects.
* **amortized session throughput** (the ``engine`` scenario) — replays a
  mixed request stream (PQE + Shapley ``#Sat`` + resilience, several rounds)
  over **one** database, once through the one-shot front-ends (fresh
  ψ-annotation and session per call) and once through a single long-lived
  :class:`~repro.engine.EngineSession` that reuses the annotated databases,
  monoid kernels and packed big-int Shapley operands across every request.
  It also times the bulk ψ-annotation build against the per-fact ``set``
  loop on the E6 largest configuration.

``repro bench --json BENCH_perf.json`` regenerates the artifact, and
``repro bench --compare OLD.json NEW.json`` diffs two artifacts so the perf
trajectory stays reviewable across PRs.  The ``quick`` mode shrinks every
sweep to sub-second sizes; the tier-1 smoke test uses it to assert
agreement without timing anything.
"""

from __future__ import annotations

import json
import platform
import random
import time
from pathlib import Path
from typing import Callable

from repro.algebra.bagset import BagSetMonoid
from repro.algebra.probability import ProbabilityMonoid
from repro.algebra.resilience import ResilienceMonoid
from repro.algebra.shapley import ShapleyMonoid
from repro.bench.harness import time_callable
from repro.core.algorithm import execute_plan
from repro.core.kernels import array_kernel_for, numpy_or_none
from repro.core.plan import compile_plan
from repro.db.annotated import KDatabase
from repro.db.database import Database
from repro.obs import quantile
from repro.problems.bagset_max import annotation_psi as bagset_psi
from repro.problems.resilience import ResilienceInstance
from repro.problems.resilience import annotation_psi as resilience_psi
from repro.problems.shapley import ShapleyInstance
from repro.problems.shapley import annotation_psi as shapley_psi
from repro.query.families import q_eq1, star_query
from repro.workloads.generators import (
    random_bagset_instance,
    random_probabilistic_database,
)

#: Format version of the BENCH_perf.json document.  v3 added the ``tiers``
#: and ``environment`` fields plus per-run ``array_s``/``array_vs_kernel``;
#: v4 added the ``serve`` scenario (scheduler throughput and p50/p95
#: latency per worker count, one run per execution tier); v5 extends the
#: three-way scalar/batched/array runs to the vector-carrier experiments
#: (E4 bag-set, E6 Shapley) served by the packed columnar tier; v6 adds
#: a process-parallel tier (its own timings, serve leg and worker-count
#: sweeps) plus ``cpu_count`` in the environment so scaling numbers are
#: interpretable; v7 adds the ``multiquery`` scenario — shared-scan fusion
#: (:mod:`repro.core.fused`) vs sequential one-shots over a Zipf-skewed
#: binding sweep, per tier, with per-batch-size ``sequential_s``/
#: ``fused_s``/``speedup`` sub-records; v8 drops the process-parallel
#: tier again (it never beat the in-process array tier), with every field,
#: leg and sweep it added.
SCHEMA_VERSION = 8


def environment_metadata() -> dict:
    """Interpreter/platform/numpy metadata recorded in the document."""
    import os

    np = numpy_or_none()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": "absent" if np is None else np.__version__,
    }


def available_tiers() -> list[str]:
    """The execution tiers this process can run (array needs numpy)."""
    tiers = ["scalar", "batched"]
    if numpy_or_none() is not None:
        tiers.append("array")
    return tiers


def _measure_plan(
    query, annotated: KDatabase, repeats: int, tier: str | None = None
) -> tuple[dict, dict]:
    """Time one compiled plan over *annotated* on every available tier.

    The annotated database is built once and the plan compiled once, so the
    timings isolate the engine (Algorithm 1's ⊕-projections and ⊗-merges).
    Returns the timing record and a ``tier → result`` mapping for the
    caller's agreement check; the ``array`` entry is present only when
    the monoid has an array kernel and numpy is importable.  With *tier*
    given, only that tier is timed against the scalar baseline
    (``repro bench --kernel-mode array``).
    """
    plan = compile_plan(query)
    scalar_time, scalar_report = time_callable(
        lambda: execute_plan(plan, annotated, kernel_mode="scalar"),
        repeats=repeats,
    )
    record = {"scalar_s": scalar_time}
    results = {"scalar": scalar_report.result}
    if tier in (None, "batched"):
        kernel_time, kernel_report = time_callable(
            lambda: execute_plan(plan, annotated, kernel_mode="batched"),
            repeats=repeats,
        )
        record["kernel_s"] = kernel_time
        record["speedup"] = scalar_time / max(kernel_time, 1e-12)
        results["kernel"] = kernel_report.result
    has_array = array_kernel_for(annotated.monoid) is not None
    if has_array and tier in (None, "array", "auto"):
        array_time, array_report = time_callable(
            lambda: execute_plan(plan, annotated, kernel_mode="array"),
            repeats=repeats,
        )
        record["array_s"] = array_time
        record["array_speedup"] = scalar_time / max(array_time, 1e-12)
        if "kernel_s" in record:
            record["array_vs_kernel"] = record["kernel_s"] / max(
                array_time, 1e-12
            )
        results["array"] = array_report.result
    return record, results


def perf_e2_pqe(
    quick: bool = False, repeats: int = 3, tier: str | None = None
) -> dict:
    """E2: PQE on the Eq. (1) query — float probabilities, tolerance check.

    The sweep extends to |D| ≈ 32000, where the columnar tier's advantage
    over the batched kernels (C-level grouping and alignment vs per-tuple
    dict work) is clearly visible.
    """
    sizes = (300, 900) if quick else (500, 1000, 2000, 4000, 8000, 16000, 32000)
    repeats = 1 if quick else repeats
    query = q_eq1()
    runs = []
    agree = True
    for size in sizes:
        database = random_probabilistic_database(
            query, facts_per_relation=size // 3,
            domain_size=max(4, size // 6), seed=size,
        )
        annotated = KDatabase.annotate(
            query, ProbabilityMonoid(), database.facts(), database.probability
        )
        record, results = _measure_plan(query, annotated, repeats, tier)
        record["params"] = {"|D|": len(database)}
        record["abs_delta"] = max(
            abs(results["scalar"] - value) for value in results.values()
        )
        agree = agree and record["abs_delta"] <= 1e-9
        runs.append(record)
    document = {
        "title": "PQE (Theorem 5.8): marginal probability on q_eq1",
        "agreement": "max |Δ| ≤ 1e-9" if agree else "DISAGREEMENT",
        "agree": agree,
        "runs": runs,
    }
    return document


def perf_e4_bsm(
    quick: bool = False, repeats: int = 3, tier: str | None = None
) -> dict:
    """E4: bag-set maximization — exact vectors, identity check.

    The array leg runs the packed columnar tier: ``(n, θ+1)`` int64 rows
    with batched sliding-window (max, ·) convolutions, bit-identical to
    the batched kernels at every magnitude.
    """
    sizes = (100,) if quick else (200, 400, 800, 1600)
    repeats = 1 if quick else repeats
    query = star_query(2)
    runs = []
    agree = True
    for size in sizes:
        instance = random_bagset_instance(
            query, base_facts_per_relation=size // 2,
            repair_facts_per_relation=16, budget=16,
            domain_size=max(8, size // 4), seed=size,
        )
        monoid = BagSetMonoid(instance.budget + 1)
        facts = [*instance.database.facts(), *instance.addable_facts()]
        annotated = KDatabase.annotate(
            query, monoid, facts, bagset_psi(instance, monoid)
        )
        record, results = _measure_plan(query, annotated, repeats, tier)
        record["params"] = {
            "|D|": len(instance.database),
            "|Dr|": len(instance.repair_database),
            "θ": instance.budget,
        }
        record["identical"] = all(
            value == results["scalar"] for value in results.values()
        )
        agree = agree and record["identical"]
        runs.append(record)
    return {
        "title": "Bag-set maximization (Theorem 5.11) on a 2-branch star",
        "agreement": "bit-identical" if agree else "DISAGREEMENT",
        "agree": agree,
        "runs": runs,
    }


def perf_e6_shapley(
    quick: bool = False, repeats: int = 3, tier: str | None = None
) -> dict:
    """E6: the Shapley ``#Sat`` vector — exact big-int vectors.

    The array leg runs the packed columnar tier: trimmed ``(n, 2, w)``
    rows, ψ-spike folds by per-slot ``reduceat`` counting, guarded int64
    sliding-window convolutions, and the Kronecker kernel (with its
    packed-operand caches) as the exact big-int fallback — bit-identical
    to the batched tier.
    """
    from repro.bench.experiments import _split_instance

    sizes = (12, 24) if quick else (16, 32, 64, 128, 256)
    repeats = 1 if quick else repeats
    query = star_query(2)
    runs = []
    agree = True
    for size in sizes:
        instance = _split_instance(
            query, exogenous=40, endogenous=size, seed=size
        )
        monoid = ShapleyMonoid(instance.endogenous_count + 1)
        facts = [*instance.exogenous.facts(), *instance.endogenous.facts()]
        annotated = KDatabase.annotate(
            query, monoid, facts, shapley_psi(instance, monoid)
        )
        record, results = _measure_plan(query, annotated, repeats, tier)
        record["params"] = {
            "|Dx|": len(instance.exogenous),
            "|Dn|": instance.endogenous_count,
        }
        record["identical"] = all(
            value == results["scalar"] for value in results.values()
        )
        agree = agree and record["identical"]
        runs.append(record)
    return {
        "title": "Shapley #Sat vector (Theorem 5.16) on a 2-branch star",
        "agreement": "bit-identical" if agree else "DISAGREEMENT",
        "agree": agree,
        "runs": runs,
    }


def perf_resilience(
    quick: bool = False, repeats: int = 3, tier: str | None = None
) -> dict:
    """``res``: the resilience stream — flat ``(+, min)`` float costs.

    Classical resilience (every fact endogenous, unit deletion costs) on a
    2-branch star over growing databases.  Costs are integer-valued floats,
    so ``add.reduceat`` sums are order-independent and all tiers must
    agree bit-identically.
    """
    sizes = (300,) if quick else (2000, 8000, 32000)
    repeats = 1 if quick else repeats
    query = star_query(2)
    monoid = ResilienceMonoid()
    runs = []
    agree = True
    for size in sizes:
        database = random_probabilistic_database(
            query, facts_per_relation=size // 3,
            domain_size=max(4, size // 6), seed=size,
        ).support_database()
        instance = ResilienceInstance(
            exogenous=Database(), endogenous=database
        )
        psi = resilience_psi(instance, monoid)
        annotated = KDatabase.annotate(
            query, monoid, database.facts(), psi
        )
        record, results = _measure_plan(query, annotated, repeats, tier)
        record["params"] = {"|D|": len(database)}
        record["identical"] = all(
            value == results["scalar"] for value in results.values()
        )
        agree = agree and record["identical"]
        runs.append(record)
    document = {
        "title": "Resilience stream (Question 2): unit-cost (+, min) on a 2-branch star",
        "agreement": "bit-identical" if agree else "DISAGREEMENT",
        "agree": agree,
        "runs": runs,
    }
    return document


def _values_agree(left, right) -> bool:
    """Answer agreement across the one-shot and session paths."""
    if isinstance(left, float) or isinstance(right, float):
        return abs(left - right) <= 1e-9 or left == right
    return left == right


def perf_engine(
    quick: bool = False, repeats: int = 3, tier: str | None = None
) -> dict:
    """Amortized many-requests-one-database throughput (EngineSession).

    Per configuration: a mixed stream of ``rounds × (PQE, Shapley #Sat,
    resilience)`` requests, issued through the one-shot front-ends (each call
    re-annotates and reopens) and through one session (shared ψ-annotated
    databases, warm kernels and packed Shapley operands).  Also times the
    bulk ψ-annotation build against the per-fact ``set`` loop on the E6
    largest configuration.
    """
    from repro.bench.experiments import _split_instance
    from repro.engine import Engine
    from repro.problems.pqe import marginal_probability
    from repro.problems.resilience import ResilienceInstance, resilience
    from repro.problems.shapley import sat_vector

    sizes = (300,) if quick else (600, 1200, 2400)
    rounds = 2 if quick else 6
    endo_count = 16 if quick else 48
    repeats = 1 if quick else repeats
    query = star_query(2)
    runs = []
    agree = True
    for size in sizes:
        database = random_probabilistic_database(
            query, facts_per_relation=size // 3,
            domain_size=max(4, size // 6), seed=size,
        )
        support = database.support_database()
        facts = list(support.facts())
        random.Random(size).shuffle(facts)
        endogenous = Database(facts[:endo_count])
        exogenous = Database(facts[endo_count:])
        instance = ShapleyInstance(exogenous=exogenous, endogenous=endogenous)
        rinstance = ResilienceInstance(
            exogenous=exogenous, endogenous=endogenous
        )

        def one_shot():
            answers = []
            for _round in range(rounds):
                answers.append(marginal_probability(query, database))
                answers.append(sat_vector(query, instance))
                answers.append(resilience(query, rinstance))
            return answers

        def amortized():
            session = Engine().open(
                query,
                probabilistic=database,
                exogenous=exogenous,
                endogenous=endogenous,
            )
            answers = []
            for _round in range(rounds):
                answers.append(session.pqe())
                answers.append(session.sat_vector())
                answers.append(session.resilience())
            return answers

        oneshot_time, oneshot_answers = time_callable(one_shot, repeats=repeats)
        session_time, session_answers = time_callable(amortized, repeats=repeats)
        identical = all(
            _values_agree(left, right)
            for left, right in zip(oneshot_answers, session_answers)
        )
        agree = agree and identical
        runs.append({
            "oneshot_s": oneshot_time,
            "session_s": session_time,
            "speedup": oneshot_time / max(session_time, 1e-12),
            "params": {
                "|D|": len(database),
                "|Dn|": endo_count,
                "requests": rounds * 3,
            },
            "identical": identical,
        })

    # Bulk vs per-fact ψ-annotation on the E6 largest configuration.
    e6 = _split_instance(
        query, exogenous=40, endogenous=(24 if quick else 256), seed=256
    )
    monoid = ShapleyMonoid(e6.endogenous_count + 1)
    psi = shapley_psi(e6, monoid)
    e6_facts = [*e6.exogenous.facts(), *e6.endogenous.facts()]

    def per_fact():
        annotated = KDatabase(query, monoid)
        for fact in e6_facts:
            annotated.set(fact, psi(fact))
        return annotated

    def bulk():
        return KDatabase.annotate(query, monoid, e6_facts, psi)

    per_fact_time, per_fact_db = time_callable(per_fact, repeats=max(repeats, 3))
    bulk_time, bulk_db = time_callable(bulk, repeats=max(repeats, 3))
    annotation_identical = all(
        dict(left.items()) == dict(right.items())
        for left, right in zip(per_fact_db.relations(), bulk_db.relations())
    )
    agree = agree and annotation_identical
    annotation = {
        "per_fact_s": per_fact_time,
        "bulk_s": bulk_time,
        "speedup": per_fact_time / max(bulk_time, 1e-12),
        "params": {"|D|": len(e6_facts), "|Dn|": e6.endogenous_count},
        "identical": annotation_identical,
    }
    return {
        "title": "Amortized session throughput (PQE + #Sat + resilience)",
        "agreement": "session ≡ one-shot" if agree else "DISAGREEMENT",
        "agree": agree,
        "runs": runs,
        "annotation": annotation,
    }


def _serve_stream(endogenous_facts: list, rounds: int) -> list:
    """The mixed request stream: repeats (hot signatures) + per-fact spread.

    Per round: PQE, expected count, the #Sat vector, resilience and
    ``sat_counts`` repeat verbatim (the serving layer's memo/coalescing
    targets), while the Shapley/Banzhaf requests walk distinct endogenous
    facts (the sweep-batching target).  8 rounds × 8 requests = the
    64-request stream of the acceptance criterion.
    """
    from repro.serve import Request

    count = len(endogenous_facts)
    requests = []
    for round_index in range(rounds):
        requests.extend([
            Request.make("pqe"),
            Request.make("expected_count"),
            Request.make("sat_vector"),
            Request.make("resilience"),
            Request.make(
                "shapley_value",
                fact=endogenous_facts[(2 * round_index) % count],
            ),
            Request.make(
                "shapley_value",
                fact=endogenous_facts[(2 * round_index + 1) % count],
            ),
            Request.make("sat_counts"),
            Request.make(
                "banzhaf_value", fact=endogenous_facts[round_index % count]
            ),
        ])
    return requests


def _time_serve_stream(query, data, requests, engine_factory, workers):
    """One cold-server pass over the stream: wall time, answers, latencies.

    Latency is submit → future-done per request (so it includes queueing —
    the serving-relevant number), captured by done-callbacks on the worker
    threads.
    """
    from repro.serve import Server

    latencies = [0.0] * len(requests)
    with Server(
        query, engine=engine_factory(), workers=workers, **data
    ) as server:
        started = time.perf_counter()
        futures = []
        for index, request in enumerate(requests):
            submit_time = time.perf_counter()

            def record(_future, index=index, submit_time=submit_time):
                latencies[index] = time.perf_counter() - submit_time

            future = server.submit(request)
            future.add_done_callback(record)
            futures.append(future)
        answers = [future.result() for future in futures]
        elapsed = time.perf_counter() - started
        scheduler = server.stats()["scheduler"]
    return elapsed, answers, latencies, scheduler


# Percentiles are repro.obs.quantile — one definition shared with the
# runtime metrics layer, so bench p50/p95 and /metrics histograms agree.


def perf_serve(
    quick: bool = False, repeats: int = 3, tier: str | None = None
) -> dict:
    """``serve``: scheduler throughput/latency vs sequential one-shots.

    One run per execution tier (or exactly *tier* when one is
    requested): a mixed request
    stream (see :func:`_serve_stream`) over one probabilistic database
    with a Shapley/resilience endogenous split, served (a) sequentially
    through throwaway one-shot sessions — the pre-serving front-end cost
    model, re-annotating per request — and (b) through a cold
    :class:`~repro.serve.server.Server` at several worker counts.  Records
    throughput and p50/p95 request latency per worker count and asserts
    every served answer equals the sequential baseline bit-for-bit.
    """
    from repro.engine import Engine
    from repro.engine.session import REQUEST_FAMILIES

    size = 300 if quick else 2400
    endo_count = 4 if quick else 16
    rounds = 2 if quick else 8
    worker_counts = (1, 2) if quick else (1, 2, 4, 8)
    repeats = 1 if quick else repeats
    query = star_query(2)
    database = random_probabilistic_database(
        query, facts_per_relation=size // 3,
        domain_size=max(4, size // 6), seed=size,
    )
    support = database.support_database()
    facts = list(support.facts())
    random.Random(size).shuffle(facts)
    endogenous = Database(facts[:endo_count])
    exogenous = Database(facts[endo_count:])
    data = {
        "probabilistic": database,
        "exogenous": exogenous,
        "endogenous": endogenous,
    }
    requests = _serve_stream(list(endogenous.facts()), rounds)

    runs = []
    agree = True
    tiers = available_tiers() if tier is None else [tier]
    for run_tier in tiers:
        engine_factory = lambda tier=run_tier: Engine(kernel_mode=tier)

        def one_shot():
            # The pre-serving cost model: every request pays a fresh
            # throwaway session (what the problems.* front-ends open).
            answers = []
            for request in requests:
                session = engine_factory().open(query, **data)
                handler = REQUEST_FAMILIES[request.family]
                answers.append(handler(session, **request.kwargs))
            return answers

        oneshot_time, baseline = time_callable(one_shot, repeats=repeats)
        record = {
            "params": {
                "|D|": len(database),
                "|Dn|": endo_count,
                "requests": len(requests),
                "tier": run_tier,
            },
            "oneshot_s": oneshot_time,
            "workers": {},
        }
        identical = True
        headline_workers = str(min(4, max(worker_counts)))
        for workers in worker_counts:
            best = None
            for _ in range(max(1, repeats)):
                sample = _time_serve_stream(
                    query, data, requests, engine_factory, workers
                )
                if best is None or sample[0] < best[0]:
                    best = sample
            elapsed, answers, latencies, scheduler = best
            identical = identical and answers == baseline
            ordered = sorted(latencies)
            record["workers"][str(workers)] = {
                "serve_s": elapsed,
                "throughput_rps": len(requests) / max(elapsed, 1e-12),
                "p50_ms": quantile(ordered, 0.50) * 1e3,
                "p95_ms": quantile(ordered, 0.95) * 1e3,
                "speedup": oneshot_time / max(elapsed, 1e-12),
                "coalesced": scheduler["coalesced"],
                "executed": scheduler["executed"],
                "sweeps": scheduler["batching"]["sweeps"],
            }
        record["identical"] = identical
        # Headline: the 4-worker acceptance configuration.
        record["speedup"] = record["workers"][headline_workers]["speedup"]
        agree = agree and identical
        runs.append(record)
    return {
        "title": (
            "Concurrent serving (Scheduler): mixed request stream vs "
            "sequential one-shots"
        ),
        "agreement": "served ≡ one-shot (bit-identical)" if agree
        else "DISAGREEMENT",
        "agree": agree,
        "runs": runs,
    }


def perf_multiquery(
    quick: bool = False, repeats: int = 3, tier: str | None = None
) -> dict:
    """``multiquery``: shared-scan fusion vs sequential one-shot bindings.

    The E2-largest PQE configuration on a **Zipf-skewed** database (hot
    contended join keys, see :func:`_value_sampler`), answered for many
    bindings of the query's shared variable ``A`` — the constant-lifted
    ``Q(c)`` sweep of :class:`repro.core.plan.ParameterizedPlan`.  One run
    per tier; per batch size (1/4/16/64 bindings, hottest keys first) it
    times (a) a sequential loop of ``session.pqe(binding=…)`` one-shots
    and (b) one ``session.evaluate_many`` call, both memo-bypassed, and
    asserts the answers are bit-identical.  On the array tier the
    fused pass pays the lexsort/alignment work once per batch — the
    ``speedup`` headline is the batch-16 ratio (the acceptance criterion's
    ≥2× configuration); the batched/scalar tiers decline fusion by design
    and honestly record ≈1×.
    """
    from repro.engine import Engine

    size = 600 if quick else 32000
    batch_sizes = (1, 4) if quick else (1, 4, 16, 64)
    repeats = 1 if quick else repeats
    skew = 0.8
    query = q_eq1()
    database = random_probabilistic_database(
        query, facts_per_relation=size // 3,
        domain_size=max(4, size // 6), seed=size, skew=skew,
    )
    # The binding sweep: distinct values of the shared variable A, hottest
    # first — with Zipf skew the head keys touch the most support rows.
    frequency: dict[object, int] = {}
    for fact in database.facts():
        if fact.relation == "R":
            value = fact.values[0]
            frequency[value] = frequency.get(value, 0) + 1
    values = sorted(frequency, key=lambda v: (-frequency[v], v))
    if len(values) < max(batch_sizes):
        batch_sizes = tuple(
            b for b in batch_sizes if b <= len(values)
        ) or (1,)

    runs = []
    agree = True
    tiers = available_tiers() if tier is None else [tier]
    for run_tier in tiers:
        session = Engine(kernel_mode=run_tier).open(
            query, probabilistic=database
        )
        session.pqe()  # warm: ψ-annotation, columnar views, sort caches
        record = {
            "params": {
                "|D|": len(database),
                "skew": skew,
                "tier": run_tier,
            },
            "batches": {},
        }
        identical = True
        for batch in batch_sizes:
            bindings = [{"A": value} for value in values[:batch]]
            requests = [
                ("pqe", {"binding": binding}) for binding in bindings
            ]

            def sequential():
                return [
                    session.pqe(binding=binding) for binding in bindings
                ]

            def fused():
                return session.evaluate_many(requests, use_memo=False)

            sequential_time, sequential_answers = time_callable(
                sequential, repeats=repeats
            )
            fused_time, fused_answers = time_callable(
                fused, repeats=repeats
            )
            identical = identical and fused_answers == sequential_answers
            record["batches"][str(batch)] = {
                "sequential_s": sequential_time,
                "fused_s": fused_time,
                "speedup": sequential_time / max(fused_time, 1e-12),
                "throughput_qps": batch / max(fused_time, 1e-12),
            }
        record["identical"] = identical
        agree = agree and identical
        # Headline: the acceptance criterion's batch-16 configuration
        # (largest measured batch when quick mode trims the sweep).
        headline = (
            "16" if "16" in record["batches"]
            else str(max(int(b) for b in record["batches"]))
        )
        record["speedup"] = record["batches"][headline]["speedup"]
        runs.append(record)
    return {
        "title": (
            "Shared-scan multi-query fusion: binding sweeps vs sequential "
            "one-shots on Zipf-skewed q_eq1"
        ),
        "agreement": "fused ≡ sequential (bit-identical)" if agree
        else "DISAGREEMENT",
        "agree": agree,
        "runs": runs,
    }


PERF_EXPERIMENTS: dict[str, Callable[..., dict]] = {
    "E2": perf_e2_pqe,
    "E4": perf_e4_bsm,
    "E6": perf_e6_shapley,
    "res": perf_resilience,
    "engine": perf_engine,
    "serve": perf_serve,
    "multiquery": perf_multiquery,
}


def _summarize(experiment: dict) -> dict:
    """The per-experiment summary entry, derived from its executed runs.

    Every timing key is optional — a ``--kernel-mode array`` run records
    no batched ``speedup`` at all — so each summary entry appears only
    when its runs actually carry the timings it derives from.
    """
    runs = experiment["runs"]
    summary = {"agree": experiment["agree"]}
    speedups = [run["speedup"] for run in runs if "speedup" in run]
    if speedups:
        summary["max_speedup"] = max(speedups)
    last = runs[-1]
    if "speedup" in last:
        summary["largest_config_speedup"] = last["speedup"]
    if "array_speedup" in last:
        summary["largest_config_array_speedup"] = last["array_speedup"]
    if "array_vs_kernel" in last:
        summary["largest_config_array_vs_kernel"] = last["array_vs_kernel"]
    return summary


def run_perf_suite(
    ids: list[str] | None = None,
    quick: bool = False,
    repeats: int = 3,
    tier: str | None = None,
) -> dict:
    """Run the requested perf experiments and return the JSON document.

    ``experiments`` and ``summary`` contain exactly the experiments that
    actually executed — a single-experiment run (``repro bench E6``) must
    not claim results for the rest of the suite.  With *tier* given
    (``repro bench --kernel-mode array``), only that tier is measured
    against the always-present scalar baseline.
    """
    from repro.core.algorithm import KERNEL_MODES

    requested = ids or list(PERF_EXPERIMENTS)
    unknown = [name for name in requested if name not in PERF_EXPERIMENTS]
    if unknown:
        raise KeyError(
            f"unknown perf experiment id(s) {unknown}; "
            f"expected a subset of {sorted(PERF_EXPERIMENTS)}"
        )
    if tier is not None and tier not in KERNEL_MODES:
        raise KeyError(
            f"unknown kernel mode {tier!r}; expected one of {KERNEL_MODES}"
        )
    experiments = {
        name: PERF_EXPERIMENTS[name](quick=quick, repeats=repeats, tier=tier)
        for name in requested
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_unix": time.time(),
        "python": platform.python_version(),
        "environment": environment_metadata(),
        "tiers": available_tiers(),
        "tier_filter": tier,
        "quick": quick,
        "experiments": experiments,
        "summary": {
            name: _summarize(exp) for name, exp in experiments.items()
        },
    }


def write_perf_json(document: dict, path: str | Path) -> Path:
    """Write *document* to *path* as stable, diff-friendly JSON."""
    path = Path(path)
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def _render_run(run: dict) -> str:
    """One timing line: every ``*_s`` entry plus whichever speedups exist."""
    params = ", ".join(
        f"{key}={value}" for key, value in run["params"].items()
    )
    timings = "  ".join(
        f"{key[:-2]} {value:.4f}s"
        for key, value in run.items()
        if key.endswith("_s")
    )
    line = f"  {params:<28} {timings}"
    if "speedup" in run:
        line += f"  speedup {run['speedup']:.1f}x"
    if "array_vs_kernel" in run:
        line += (
            f"  array {run['array_speedup']:.1f}x"
            f" ({run['array_vs_kernel']:.1f}x vs kernel)"
        )
    return line


def render_perf_summary(document: dict) -> str:
    """Human-readable digest of a perf document for the CLI."""
    lines = [
        "tiers: " + ", ".join(document.get("tiers", [])),
    ]
    for name, experiment in document["experiments"].items():
        lines.append(f"== {name}: {experiment['title']} ==")
        for run in experiment["runs"]:
            lines.append(_render_run(run))
            for workers, entry in run.get("workers", {}).items():
                lines.append(
                    f"    {workers} worker(s): {entry['serve_s']:.4f}s  "
                    f"{entry['throughput_rps']:.0f} req/s  "
                    f"p50 {entry['p50_ms']:.1f}ms  "
                    f"p95 {entry['p95_ms']:.1f}ms  "
                    f"speedup {entry['speedup']:.1f}x"
                )
            for batch, entry in run.get("batches", {}).items():
                lines.append(
                    f"    batch {batch:>3}: "
                    f"sequential {entry['sequential_s']:.4f}s  "
                    f"fused {entry['fused_s']:.4f}s  "
                    f"{entry['throughput_qps']:.0f} q/s  "
                    f"speedup {entry['speedup']:.1f}x"
                )
        annotation = experiment.get("annotation")
        if annotation is not None:
            lines.append("  -- bulk vs per-fact ψ-annotation (E6 largest) --")
            lines.append(_render_run(annotation))
        lines.append(f"  agreement: {experiment['agreement']}")
    return "\n".join(lines)


#: Timing columns in display order; any other ``*_s`` column either run
#: carries (a tier a newer or older schema adds or drops) follows sorted.
_COMPARED_TIMINGS = (
    "scalar_s", "kernel_s", "array_s", "oneshot_s", "session_s"
)


def _compare_run_pair(lines: list[str], old_run: dict, new_run: dict) -> None:
    """Append the timing/speedup delta lines for one aligned run pair.

    Every key access is guarded: documents of different schema versions
    (one carrying a timing column the other lacks) report one-sided
    columns as ``n/a`` instead of raising.
    """
    if old_run.get("params") != new_run.get("params"):
        lines.append(
            f"  params changed: {old_run.get('params')} → "
            f"{new_run.get('params')} (ratios not like-for-like)"
        )
    extra = {
        key for run in (old_run, new_run) for key in run
        if key.endswith("_s")
    } - set(_COMPARED_TIMINGS)
    for key in (*_COMPARED_TIMINGS, *sorted(extra)):
        if key in old_run and key in new_run:
            ratio = old_run[key] / max(new_run[key], 1e-12)
            lines.append(
                f"  {key[:-2]:<10} {old_run[key]:.4f}s → "
                f"{new_run[key]:.4f}s  ({ratio:.2f}x)"
            )
        elif key in new_run:
            lines.append(
                f"  {key[:-2]:<10} n/a (not in OLD) → {new_run[key]:.4f}s"
            )
        elif key in old_run:
            lines.append(
                f"  {key[:-2]:<10} {old_run[key]:.4f}s → n/a (not in NEW)"
            )
    old_speedup = old_run.get("speedup")
    new_speedup = new_run.get("speedup")
    if old_speedup is not None and new_speedup is not None:
        lines.append(
            f"  speedup    {old_speedup:.1f}x → {new_speedup:.1f}x"
        )
    elif new_speedup is not None:
        lines.append(f"  speedup    n/a → {new_speedup:.1f}x")
    elif old_speedup is not None:
        lines.append(f"  speedup    {old_speedup:.1f}x → n/a")


def _runs_by_tier(experiment: dict) -> dict[str, dict] | None:
    """``tier → run`` when every run carries a tier param (serve), else None."""
    runs = experiment.get("runs", [])
    tiers = [run.get("params", {}).get("tier") for run in runs]
    if not runs or any(tier is None for tier in tiers):
        return None
    return dict(zip(tiers, runs))


def compare_perf_documents(old: dict, new: dict) -> str:
    """Per-experiment speedup deltas between two BENCH_perf.json documents.

    For every experiment present in both documents, compares the
    largest-configuration run: each shared timing column as
    ``old → new (ratio×)`` plus the headline speedup delta.  Experiments
    present on one side only are listed as added/removed, so a diff between
    PRs never silently drops a workload.  Tier-keyed experiments (serve)
    are aligned by ``params["tier"]``, and a tier or timing column present
    in only one document — a v7 artifact against a v8 one without its
    process-parallel tier — is reported as ``n/a`` rather than raising.
    """
    lines = [
        "perf comparison (largest configuration per experiment):",
        f"  old: schema v{old.get('schema_version')}, "
        f"numpy {old.get('environment', {}).get('numpy', 'unknown')}",
        f"  new: schema v{new.get('schema_version')}, "
        f"numpy {new.get('environment', {}).get('numpy', 'unknown')}",
    ]
    old_experiments = old.get("experiments", {})
    new_experiments = new.get("experiments", {})
    for name in sorted(set(old_experiments) | set(new_experiments)):
        if name not in old_experiments:
            lines.append(f"== {name}: only in NEW ==")
            continue
        if name not in new_experiments:
            lines.append(f"== {name}: only in OLD ==")
            continue
        old_by_tier = _runs_by_tier(old_experiments[name])
        new_by_tier = _runs_by_tier(new_experiments[name])
        if old_by_tier is not None and new_by_tier is not None:
            lines.append(f"== {name} (per tier) ==")
            for tier in [
                *old_by_tier, *(t for t in new_by_tier if t not in old_by_tier)
            ]:
                if tier not in old_by_tier:
                    lines.append(f"  tier {tier}: n/a (only in NEW)")
                    continue
                if tier not in new_by_tier:
                    lines.append(f"  tier {tier}: n/a (only in OLD)")
                    continue
                lines.append(f"  tier {tier}:")
                _compare_run_pair(
                    lines, old_by_tier[tier], new_by_tier[tier]
                )
            continue
        lines.append(f"== {name} ==")
        _compare_run_pair(
            lines,
            old_experiments[name]["runs"][-1],
            new_experiments[name]["runs"][-1],
        )
    return "\n".join(lines)
